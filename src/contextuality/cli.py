"""Command-line interface.

Commands: analyze, approx, sizes, dump-lp, selftest.  Exit codes:
0 success, 2 parse/validation error, 3 method precondition error,
4 solver failure.  Input paths may use 'bundled:<name>' to refer to the
packaged example files (bundled:prbox, bundled:disjoint).
"""
from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from io import StringIO
from pathlib import Path

from . import __version__
from .builders import build_lp, measure, problem_sizes
from .errors import (
    ContextualityError,
    MethodPreconditionError,
    SolverError,
    ValidationError,
)
from .examples import epr_model
from .io import (
    dump_lp,
    fmt_rational,
    parse_system,
    report_dict,
    report_json,
    report_text,
    resolve_input,
)
from .system import _bounded, _listed, _quoted, as_fraction

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PRECONDITION = 3
EXIT_SOLVER = 4

ANALYZE_METHODS = ("present", "cbd", "np", "np_inside")


def _error_exit_code(exc: OSError | ContextualityError) -> int:
    if isinstance(exc, MethodPreconditionError):
        return EXIT_PRECONDITION
    if isinstance(exc, SolverError):
        return EXIT_SOLVER
    return EXIT_VALIDATION


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _render(reports: list[dict], json_mode: bool) -> str:
    if json_mode:
        return report_json(reports)
    buf = StringIO()
    for i, d in enumerate(reports):
        if i:
            buf.write("\n")
        report_text(d, buf)
    return buf.getvalue()


def _methods(text: str) -> list[str]:
    methods = [m.strip() for m in text.split(",") if m.strip()]
    if not methods:
        raise ValidationError(f"--method names no method (choose from {ANALYZE_METHODS})")
    for m in methods:
        if m not in ANALYZE_METHODS:
            raise ValidationError(f"unknown method {_quoted(m)} (choose from {ANALYZE_METHODS})")
    if len(set(methods)) != len(methods):
        raise ValidationError(f"--method names a method twice: {_quoted(text)}")
    return methods


def cmd_analyze(args) -> int:
    sysd = parse_system(resolve_input(args.path))
    reports = []
    worst = EXIT_OK
    for m in _methods(args.method):
        t0 = time.monotonic()
        try:
            rep = measure(sysd, m)
        except ContextualityError as exc:
            reports.append({"method": m, "error": str(exc),
                            "error_type": type(exc).__name__})
            worst = max(worst, _error_exit_code(exc))
            continue
        reports.append(report_dict(rep, time.monotonic() - t0,
                                   include_witness=args.witness))
    _emit(_render(reports, args.json), args.out)
    return worst


def _parse_angles(text: str) -> tuple[list[Fraction], list[Fraction]]:
    try:
        alice_s, bob_s = text.split(";")
        alice = [as_fraction(a.strip()) for a in alice_s.split(",") if a.strip()]
        bob = [as_fraction(b.strip()) for b in bob_s.split(",") if b.strip()]
    except (ValueError, ValidationError) as exc:
        raise ValidationError(
            f"bad --angles {_quoted(text)}; expected 'a1,a2,...;b1,b2,...' in degrees"
        ) from exc
    if not alice or not bob:
        raise ValidationError("need at least one angle per side")
    return alice, bob


def cmd_approx(args) -> int:
    sysd = parse_system(resolve_input(args.path))
    extra: dict = {}
    if args.epr:
        alice, bob = _parse_angles(args.angles)
        model = epr_model(alice, bob)
        bunches = model.system.bunches
        if model.rounded:
            extra["rounded_cosines"] = {
                cid: fmt_rational(v) for cid, v in sorted(model.rounded.items())
            }
    else:
        bunches = parse_system(resolve_input(args.model)).bunches
    t0 = time.monotonic()
    rep = measure(sysd, "fixed_model", model=bunches)
    extra["optimal_approximation"] = rep.noncontextual
    d = report_dict(rep, time.monotonic() - t0, extra=extra,
                    include_witness=args.witness)
    _emit(_render([d], args.json), args.out)
    if not args.json:
        print("approximation is", "optimal" if rep.noncontextual else "not optimal")
    return EXIT_OK


def cmd_sizes(args) -> int:
    rows = problem_sizes(args.m, args.n)
    if args.json:
        sys.stdout.write(report_json([
            {"method": r.method, "variables": r.variable_count,
             "equality_rows": r.equality_count,
             "inequality_rows": r.inequality_count}
            for r in rows
        ]))
    else:
        print(f"{'method':<10}{'variables':>12}{'eq rows':>10}{'ineq rows':>11}")
        for r in rows:
            print(f"{r.method:<10}{r.variable_count:>12}{r.equality_count:>10}"
                  f"{r.inequality_count:>11}")
    return EXIT_OK


def cmd_dump_lp(args) -> int:
    method, *more = _methods(args.method)
    if more:
        raise ValidationError(f"dump-lp takes one method, got {_quoted(args.method)}")
    _emit(dump_lp(build_lp(parse_system(resolve_input(args.path)), method)), args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .oracle import run_selftest

    results = run_selftest(seed=args.seed, count=args.count)
    for name, passed, total in results:
        print(f"[{'pass' if passed == total else 'FAIL'}] {passed}/{total}  {name}")
    ok = all(passed == total for _, passed, total in results)
    print("selftest:", "all suites passed" if ok else "FAILURES")
    return EXIT_OK if ok else EXIT_SOLVER


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are one line, without the usage, and
    name a long token by its head and length (argparse quotes it whole),
    and a list of unrecognized arguments by its first three and its count
    (argparse lists them all)."""

    def error(self, message):
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {_bounded(message)}\n")

    def parse_args(self, args=None, namespace=None):
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {_listed(extra, 'arguments')}")
        return args


def _case_count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a whole number >= 1, got {_quoted(text)}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="contextuality",
        description="Exact rational measures of contextuality for systems of "
                    "random variables recorded in multiple contexts.",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="compute contextuality measures for a system file")
    p.add_argument("path", help="system file ('bundled:prbox', 'bundled:disjoint' work)")
    p.add_argument("--method", default="present",
                   help=f"comma-separated subset of {','.join(ANALYZE_METHODS)}")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--witness", action="store_true", help="include the optimal point")
    p.add_argument("--out", help="write the report to a file")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("approx", help="distance to a fixed consistently connected model")
    p.add_argument("path", help="system file with the observed data")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", help="system file with the model bunches")
    src.add_argument("--epr", action="store_true",
                     help="use the built-in photon-pair model at --angles")
    p.add_argument("--angles", default="0,90;180,270",
                   help="EPR angles in degrees: 'a1,a2,...;b1,b2,...'")
    p.add_argument("--json", action="store_true")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--out", help="write the report to a file")
    p.set_defaults(fn=cmd_approx)

    p = sub.add_parser("sizes", help="program dimensions for an m-by-n binary paired system")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_sizes)

    p = sub.add_parser("dump-lp", help="write the exact program for a method")
    p.add_argument("path")
    p.add_argument("--method", required=True, help=f"one of {','.join(ANALYZE_METHODS)}")
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(fn=cmd_dump_lp)

    p = sub.add_parser("selftest", help="run the oracle and equivalence verification suites")
    p.add_argument("--seed", type=int, default=2024)
    p.add_argument("--count", type=_case_count, default=25, help="cases per suite")
    p.set_defaults(fn=cmd_selftest)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (OSError, ContextualityError) as exc:
        print(f"error: {_bounded(str(exc))}", file=sys.stderr)  # an OSError quotes a whole name
        return _error_exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
