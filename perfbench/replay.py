"""Traced replay of the package's public pipeline.

``replay_measure`` repeats what ``measure()`` does, one public call at a
time, and times each call under the name of the layer it belongs to:

    consistency_report -> delta0_* -> build_*_lp -> solve_exact
    -> verify_certificate -> named_primal

``replay_command`` does the same for one CLI command line, in process:
``resolve_input``/``parse_system``, the measure replay, and
``report_*``/``dump_lp``.  Spans are taken only around calls into the
package; nothing inside the package is instrumented.
"""
from __future__ import annotations

import io as _stringio
import json
import time
from collections import Counter, defaultdict
from fractions import Fraction

from contextuality import (
    MeasureReport,
    build_cbd_lp,
    build_lp,
    build_fixed_model_lp,
    build_np_inside_lp,
    build_np_lp,
    build_present_lp,
    consistency_report,
    delta0_cbd,
    delta0_present,
    dump_lp,
    epr_model,
    parse_system,
    parse_system_text,
    problem_sizes,
    solve_exact,
    verify_certificate,
    write_system_text,
)
from contextuality.errors import (
    CertificationFailure,
    ContextualityError,
    Infeasible,
    MethodPreconditionError,
    SolverError,
)
from contextuality.io import report_dict, report_json, report_text, resolve_input

BINARY = {1, -1}

class Tracer:
    """Busy time and counters per layer, kept in memory for one run."""

    def __init__(self):
        self.busy: dict[str, float] = defaultdict(float)
        self.count: Counter = Counter()
        self.peak: dict[str, int] = defaultdict(int)
        self.failed: dict[str, Counter] = defaultdict(Counter)

    def call(self, layer: str, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if not isinstance(exc, ContextualityError):
                self.failed[layer.split(".")[0]][type(exc).__name__] += 1
            raise
        finally:
            self.busy[layer] += time.perf_counter() - t0

    def program(self, lp) -> None:
        nnz = sum(len(row) for row in lp.rows)
        for key, value in (("columns", lp.column_count), ("rows", lp.row_count),
                           ("nonzeros", nnz)):
            self.count[f"builders.{key}_sum"] += value
            self.peak[f"builders.{key}_max"] = max(self.peak[f"builders.{key}_max"], value)

    def merge(self, other: dict) -> None:
        """Add a tracer's ``as_dict()`` (from another process) into this one."""
        for k, v in other["busy"].items():
            self.busy[k] += v
        self.count.update(other["count"])
        for k, v in other["peak"].items():
            self.peak[k] = max(self.peak[k], v)
        for layer, types in other["failed"].items():
            self.failed[layer].update(types)

    def as_dict(self) -> dict:
        return {"busy": dict(self.busy), "count": dict(self.count),
                "peak": dict(self.peak),
                "failed": {k: dict(v) for k, v in self.failed.items()}}


def _denominator_bits(sol) -> int:
    return max((v.denominator.bit_length() for v in (*sol.primal, *sol.dual)), default=0)


def replay_measure(tr: Tracer, sys, method: str, model=None) -> MeasureReport:
    """``measure(sys, method, model)`` replayed call by call under ``tr``."""
    tr.call("system.consistency_s", consistency_report, sys)
    floor = Fraction(0)
    if method in ("present", "np_inside", "fixed_model"):
        floor = tr.call("analytic.floor_s", delta0_present, sys)
        tr.count["analytic.lp_floors"] += sum(
            1 for p in sys.properties if set(p.alphabet) != BINARY)
    elif method == "cbd":
        floor = tr.call("analytic.floor_s", delta0_cbd, sys)
    builders = {
        "present": lambda: build_present_lp(sys),
        "cbd": lambda: build_cbd_lp(sys),
        "np": lambda: build_np_lp(sys),
        "np_inside": lambda: build_np_inside_lp(sys, floor),
        "fixed_model": lambda: build_fixed_model_lp(sys, model),
    }
    lp = tr.call("builders.build_s", builders[method])
    tr.program(lp)
    tr.count["lp.solves"] += 1
    sol = tr.call("lp.solve_s", solve_exact, lp)
    if sol.status == "infeasible":
        tr.count["lp.infeasible"] += 1
        raise Infeasible("linear program has no feasible point")
    if sol.status != "optimal":
        raise SolverError(f"unexpected solver status {sol.status!r}")
    if not tr.call("lp.verify_s", verify_certificate, lp, sol):
        raise CertificationFailure("optimal solution failed exact certification")
    tr.peak["lp.denominator_bits_max"] = max(tr.peak["lp.denominator_bits_max"],
                                             _denominator_bits(sol))
    delta0 = floor if method in ("present", "cbd", "fixed_model") else Fraction(0)
    delta = sol.objective
    return MeasureReport(method=method, delta=delta, delta0=delta0,
                         measure=delta - delta0, noncontextual=(delta == delta0),
                         witness=sol.named_primal(lp), certified=True)


def library_extras(tr: Tracer, sys, method: str, report) -> None:
    """The io a library caller does around one measure: a system-file round
    trip, the JSON report, and the program dump.  Timed outside the op."""
    text = write_system_text(sys)
    tr.call("io.parse_s", parse_system_text, text)
    if isinstance(report, MeasureReport):
        tr.call("io.report_s", lambda: report_json([report_dict(report, 0.0)]))
        tr.call("lp.dump_s", dump_lp, build_lp(sys, method))


def outcome_of(fn) -> tuple[dict, object]:
    """Run ``fn`` and describe its result as a JSON-ready outcome."""
    try:
        rep = fn()
    except ContextualityError as exc:
        return {"status": "error", "error_type": type(exc).__name__, "typed": True}, exc
    except Exception as exc:  # the op boundary: record the crash, keep running
        return {"status": "error", "error_type": type(exc).__name__, "typed": False}, exc
    return {"status": "ok", "delta": str(rep.delta), "delta0": str(rep.delta0),
            "measure": str(rep.measure), "noncontextual": rep.noncontextual,
            "certified": rep.certified,
            "witness": {k: str(v) for k, v in rep.witness.items()}}, rep


def same_result(a: dict, b: dict) -> bool:
    """Equal outcomes; the witness is left out, since an optimum need not be unique."""
    keys = ("status", "error_type", "delta", "delta0", "measure", "noncontextual", "certified")
    return all(a.get(k) == b.get(k) for k in keys)


# ---------------------------------------------------------------------------
# CLI commands, replayed in process
# ---------------------------------------------------------------------------

def _option(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def replay_command(tr: Tracer, argv: list[str]) -> tuple[int, str]:
    """Replay ``contextuality <argv>``; return (exit code, stdout text)."""
    cmd = argv[0]
    json_mode = "--json" in argv
    if cmd == "sizes":
        rows = problem_sizes(int(argv[1]), int(argv[2]))
        text = tr.call("io.report_s", lambda: json.dumps([
            {"method": r.method, "variables": r.variable_count,
             "equality_rows": r.equality_count, "inequality_rows": r.inequality_count}
            for r in rows], indent=2) + "\n")
        return 0, text
    sys = tr.call("io.parse_s", lambda: parse_system(resolve_input(argv[1])))
    if cmd == "dump-lp":
        method = _option(argv, "--method")
        lp = tr.call("builders.build_s", build_lp, sys, method)
        tr.program(lp)
        return 0, tr.call("lp.dump_s", dump_lp, lp)
    if cmd == "approx":
        alice, bob = (_option(argv, "--angles", "0,90;180,270")).split(";")
        model = epr_model([Fraction(a) for a in alice.split(",")],
                          [Fraction(b) for b in bob.split(",")])
        rep = replay_measure(tr, sys, "fixed_model", model=model.system.bunches)
        d = tr.call("io.report_s", report_dict, rep, 0.0,
                    extra={"optimal_approximation": rep.noncontextual})
        out = _render(tr, [d], json_mode)
        if not json_mode:
            out += ("approximation is optimal" if rep.noncontextual
                    else "approximation is not optimal") + "\n"
        return 0, out
    reports, code = [], 0
    for method in _option(argv, "--method", "present").split(","):
        try:
            rep = replay_measure(tr, sys, method)
        except ContextualityError as exc:
            reports.append({"method": method, "error": str(exc),
                            "error_type": type(exc).__name__})
            code = max(code, exit_code(exc))
            continue
        reports.append(tr.call("io.report_s", report_dict, rep, 0.0))
    return code, _render(tr, reports, json_mode)


def exit_code(exc: ContextualityError) -> int:
    """The README's exit code for a typed error."""
    if isinstance(exc, MethodPreconditionError):
        return 3
    return 4 if isinstance(exc, SolverError) else 2


def _render(tr: Tracer, reports: list[dict], json_mode: bool) -> str:
    if json_mode:
        return tr.call("io.report_s", report_json, reports)
    buf = _stringio.StringIO()
    for i, d in enumerate(reports):
        if i:
            buf.write("\n")
        tr.call("io.report_s", report_text, d, buf)
    return buf.getvalue()


def without_seconds(text: str) -> str:
    """CLI output with the wall-clock 'seconds' fields removed, for comparison."""
    return "\n".join(ln for ln in text.splitlines()
                     if not ln.lstrip().startswith(('"seconds"', "seconds ")))
