"""Correctness pass, run after the timed window.

Each operation gets a verdict:

* ``ok``     - a certified result that passes every check below, or the
               documented typed error for an input with no optimum;
* ``failed`` - the program crashed: an exception that is not a
               ``ContextualityError``, an exit code outside the README's
               0/2/3/4, or a traceback on stderr;
* ``wrong``  - the program answered, and the answer is wrong: a value off
               the float oracle or a README value, a typed error where an
               optimum exists, or a documented exit code other than the
               expected one.

``failed`` and ``wrong`` both count as failed operations; only ``wrong``
makes a run incorrect.  The checks on a certified result: its objective
matches ``oracle.solve_float`` on the same program to 1e-7, its witness is
an exactly feasible point with that objective, its floor is the package's
``delta0_*``, measure = delta - delta0, and np = np_inside on consistently
connected systems.
"""
from __future__ import annotations

import json
from fractions import Fraction

from contextuality import (
    build_lp,
    bundled_path,
    consistency_report,
    delta0_cbd,
    delta0_present,
    epr_model,
    measure,
    parse_lp,
    parse_system,
    problem_sizes,
    solve_float,
)
from contextuality.errors import ContextualityError
from contextuality.io import resolve_input

import gen

TOL = 1e-7
# What malformed program output raises while it is read.
UNREADABLE = (ValueError, KeyError, IndexError, TypeError, ContextualityError)
DOCUMENTED_EXIT = {0, 2, 3, 4}
NO_OPTIMUM = {"Infeasible", "InconsistentlyConnected"}

# README values for the bundled examples: method -> (delta, delta0, measure);
# None where the README gives only the measure.
README = {
    "disjoint": {"present": (3, 2, 1), "cbd": (None, None, 0)},
    "prbox": {"present": (None, None, 1), "cbd": (None, None, 1),
              "np": (None, None, Fraction(1, 2)), "np_inside": (None, None, Fraction(1, 2))},
}


class Verdict:
    def __init__(self, kind: str = "ok", reason: str = ""):
        self.kind, self.reason = kind, reason

    def fail(self, reason: str) -> "Verdict":
        return Verdict("failed", reason) if self.kind == "ok" else self

    def wrong(self, reason: str) -> "Verdict":
        return Verdict("wrong", reason) if self.kind != "wrong" else self


def _floor(sys, method: str) -> Fraction:
    if method in ("present", "fixed_model"):
        return delta0_present(sys)
    return delta0_cbd(sys) if method == "cbd" else Fraction(0)


class Oracle:
    """Expected outcome of (system, method), from the float solver."""

    def __init__(self):
        self._cache: dict = {}

    def expect(self, key, sys, method: str, model=None):
        """('error', type) or ('ok', float objective, program)."""
        if key not in self._cache:
            if method == "np" and not consistency_report(sys).consistent:
                self._cache[key] = ("error", "InconsistentlyConnected")
            else:
                lp = build_lp(sys, method, model=model)
                f = solve_float(lp)
                if f.status == "infeasible":
                    self._cache[key] = ("error", "Infeasible")
                elif f.status == "optimal":
                    self._cache[key] = ("ok", f.objective, lp)
                else:
                    self._cache[key] = ("error", f"float status {f.status}")
        return self._cache[key]


def check_certified(v: Verdict, expected, sys, method: str, delta: Fraction,
                    delta0: Fraction, meas: Fraction, noncontextual, certified,
                    witness: dict | None, pin=None) -> Verdict:
    if expected[0] != "ok":
        return v.wrong(f"{method}: certified result where the oracle says {expected[1]}")
    _, objective, lp = expected
    if abs(float(delta) - objective) > TOL:
        return v.wrong(f"{method}: delta {delta} vs float {objective}")
    if delta0 != _floor(sys, method):
        return v.wrong(f"{method}: delta0 {delta0} is not the floor")
    if meas != delta - delta0 or noncontextual != (meas == 0) or certified is not True:
        return v.wrong(f"{method}: inconsistent report fields")
    if witness is not None:
        col = {name: j for j, name in enumerate(lp.variables)}
        x = {col[k]: Fraction(val) for k, val in witness.items()}
        if any(val < 0 for val in x.values()):
            return v.wrong(f"{method}: negative witness entry")
        for row, rhs in zip(lp.rows, lp.rhs):
            if sum((a * x.get(j, 0) for j, a in row.items()), Fraction(0)) != rhs:
                return v.wrong(f"{method}: witness violates a constraint")
        if sum((lp.cost[j] * val for j, val in x.items()), Fraction(0)) != delta:
            return v.wrong(f"{method}: witness objective differs from delta")
    if pin is not None:
        for want, got in zip(pin, (delta, delta0, meas)):
            if want is not None and Fraction(want) != got:
                return v.wrong(f"{method}: {(delta, delta0, meas)} differs from README {pin}")
    return v


def check_error(v: Verdict, expected, method: str, error_type: str, typed: bool) -> Verdict:
    if not typed:
        return v.fail(f"{method}: untyped {error_type}")
    if expected[0] == "error" and expected[1] == error_type and error_type in NO_OPTIMUM:
        return v
    return v.wrong(f"{method}: {error_type}, oracle expects {expected[:2]}")


# ---------------------------------------------------------------------------
# small / large
# ---------------------------------------------------------------------------

def check_library(workload: str, records: list[dict]) -> list[Verdict]:
    cases = gen.LIBRARY_PLANS[workload][0]
    oracle = Oracle()
    systems: dict = {}
    verdicts = []
    for rec in records:
        key = (rec["round"], rec["case"])
        if key not in systems:
            systems[key] = gen.system_for(workload, rec["round"], cases[rec["case"]])
        sys, method, out = systems[key], rec["method"], rec["outcome"]
        expected = oracle.expect((key, method), sys, method)
        v = Verdict()
        if out["status"] == "ok":
            try:
                v = check_certified(v, expected, sys, method, Fraction(out["delta"]),
                                    Fraction(out["delta0"]), Fraction(out["measure"]),
                                    out["noncontextual"], out["certified"], out["witness"])
            except UNREADABLE as exc:
                v = v.wrong(f"{method}: unreadable report {exc!r}")
        else:
            v = check_error(v, expected, method, out["error_type"], out["typed"])
        if "replay_mismatch" in rec:
            v = v.wrong(f"traced replay gave {rec['replay_mismatch']}, measure() gave {out}")
        verdicts.append(v)
    # np = np_inside on consistently connected systems
    by_key: dict = {}
    for i, rec in enumerate(records):
        if rec["method"] in ("np", "np_inside") and rec["outcome"]["status"] == "ok":
            by_key.setdefault((rec["round"], rec["case"]), {})[rec["method"]] = i
    for pair in by_key.values():
        if len(pair) == 2:
            a, b = records[pair["np"]], records[pair["np_inside"]]
            if a["outcome"]["measure"] != b["outcome"]["measure"]:
                verdicts[pair["np_inside"]] = verdicts[pair["np_inside"]].wrong(
                    "np differs from np_inside on a consistent system")
    return verdicts


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

def _text_blocks(text: str) -> list[dict]:
    blocks = []
    for line in text.splitlines():
        if ":" not in line or line.startswith(" "):
            continue
        key, val = (s.strip() for s in line.split(":", 1))
        if key == "method":
            blocks.append({})
        if blocks:
            blocks[-1][key] = val
    return blocks


def _entries(stdout: str, json_mode: bool) -> list[dict]:
    if json_mode:
        return json.loads(stdout)
    out = []
    for b in _text_blocks(stdout):
        for k in ("noncontextual", "certified"):
            if k in b:
                b[k] = {"true": True, "false": False}.get(b[k], b[k])
        out.append(b)
    return out


def _same_program(a, b) -> bool:
    return (a.variables == b.variables and a.cost == b.cost and a.rhs == b.rhs
            and [dict(r) for r in a.rows] == [dict(r) for r in b.rows])


def _readme_pin(path: str, method: str):
    name = path.split(":", 1)[1] if path.startswith("bundled:") else None
    return README.get(name, {}).get(method)


def check_cli(records: list[dict]) -> list[Verdict]:
    oracle = Oracle()
    systems: dict = {}
    verdicts = []
    for rec in records:
        try:
            verdicts.append(_check_cli_record(rec, oracle, systems))
        except UNREADABLE as exc:
            verdicts.append(Verdict().wrong(f"{rec['argv'][0]}: unreadable output {exc!r}"))
    return verdicts


def _check_cli_record(rec: dict, oracle: Oracle, systems: dict) -> Verdict:
    argv, code, stdout, stderr = rec["argv"], rec["code"], rec["stdout"], rec["stderr"]
    v = Verdict()
    if "Traceback" in stderr or code not in DOCUMENTED_EXIT:
        return v.fail(f"exit {code}: {stderr.strip().splitlines()[-1:]}")
    cmd = argv[0]
    if cmd == "sizes":
        want = [{"method": r.method, "variables": r.variable_count,
                 "equality_rows": r.equality_count, "inequality_rows": r.inequality_count}
                for r in problem_sizes(int(argv[1]), int(argv[2]))]
        readme = {"cbd": (4 ** 16, 64), "np": (2 ** 9, 64), "present": (2 ** 8 + 256, 128)}
        got = json.loads(stdout) if code == 0 else None
        if got != want or any((r["variables"], r["equality_rows"]) != readme[r["method"]]
                              for r in got):
            v = v.wrong("sizes 4 4 differ from the README table")
        return v
    path = argv[1]
    if path not in systems:
        systems[path] = parse_system(resolve_input(path))
    sys = systems[path]
    method = argv[argv.index("--method") + 1] if "--method" in argv else None
    if cmd == "dump-lp":
        if code != 0 or not _same_program(parse_lp(stdout), build_lp(sys, method)):
            v = v.wrong("dump-lp output does not re-parse to the built program")
        return v
    json_mode = "--json" in argv
    if cmd == "approx":
        model = epr_model([Fraction(0), Fraction(90)], [Fraction(180), Fraction(270)])
        expected = oracle.expect((path, "epr"), sys, "fixed_model", model.system.bunches)
        entries = _entries(stdout, json_mode)
        if code != 0 or len(entries) != 1:
            return v.wrong(f"approx: exit {code}, {len(entries)} reports")
        e = entries[0]
        v = check_certified(v, expected, sys, "fixed_model", Fraction(e["delta"]),
                            Fraction(e["delta0"]), Fraction(e["measure"]),
                            e["noncontextual"], e["certified"], None)
        verdict_line = ("approximation is optimal" if e["noncontextual"]
                        else "approximation is not optimal")
        if not json_mode and stdout.splitlines()[-1] != verdict_line:
            v = v.wrong("approx: missing verdict line")
        return v
    # analyze
    methods = method.split(",")
    expected = {m: oracle.expect((path, m), sys, m) for m in methods}
    want_code = max(0 if expected[m][0] == "ok" else 3 for m in methods)
    if code != want_code:
        return v.wrong(f"exit {code}, expected {want_code}")
    entries = {e["method"]: e for e in _entries(stdout, json_mode)}
    for m in methods:
        e = entries.get(m)
        if e is None:
            if json_mode or expected[m][0] == "ok":
                v = v.wrong(f"{m}: no report")
        elif "error_type" in e:
            v = check_error(v, expected[m], m, e["error_type"], True)
        elif "delta" in e:
            v = check_certified(v, expected[m], sys, m, Fraction(e["delta"]),
                                Fraction(e["delta0"]), Fraction(e["measure"]),
                                e["noncontextual"], e["certified"], None,
                                pin=_readme_pin(path, m))
        else:
            v = v.wrong(f"{m}: report has neither a result nor an error")
    if {"np", "np_inside"} <= set(entries) and all("measure" in entries[m]
                                                 for m in ("np", "np_inside")):
        if entries["np"]["measure"] != entries["np_inside"]["measure"]:
            v = v.wrong("np differs from np_inside")
    return v


def check_readme_in_process() -> list[str]:
    """README values of the bundled examples, through ``measure`` directly."""
    problems = []
    for name, methods in README.items():
        sys = parse_system(bundled_path(name))
        for method, pin in methods.items():
            try:
                rep = measure(sys, method)
            except Exception as exc:  # any failure is reported, not raised
                problems.append(f"{name} {method}: {type(exc).__name__}: {exc}")
                continue
            for want, got in zip(pin, (rep.delta, rep.delta0, rep.measure)):
                if want is not None and Fraction(want) != got:
                    problems.append(f"{name} {method}: {(rep.delta, rep.delta0, rep.measure)}"
                                    f" differs from README {pin}")
    return problems
