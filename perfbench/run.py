"""Benchmark of the exact-LP pipeline, driven through the package's public API.

    python3 perfbench/run.py --workload {cli,small,large} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is used from ``src`` (not
installed).  Workloads (see perfbench/README.md):

* ``cli``   - sequential CLI invocations, one fresh interpreter at a time;
* ``small`` - a library caller running many 2x2 binary programs;
* ``large`` - a library caller running fewer 3x3, cbd and ternary programs.

One caller, closed loop, one operation in flight.  A run does a fixed
number of rounds of operations from a fixed pool of inputs, about
``--seconds`` long at the seed state (``gen.rounds_for``), so what is
attempted does not depend on the host's speed; ``--seed`` sets their
order.  After the timed window every output is checked (see
checks.py).  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it give the environment and the details behind the metrics.
"""
from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from collections import Counter

import common

WORKLOADS = ("cli", "small", "large")
SETUP_IMPORTS = 5

LAYER_TIMES = ("io.parse_s", "io.report_s", "lp.dump_s", "system.consistency_s",
               "analytic.floor_s", "builders.build_s", "lp.solve_s", "lp.verify_s")
LAYER_COUNTS = ("builders.columns_sum", "builders.rows_sum", "builders.nonzeros_sum",
                "analytic.lp_floors", "lp.solves", "lp.infeasible", "trace.ops",
                "trace.mismatch")
LAYER_PEAKS = ("builders.columns_max", "builders.rows_max", "builders.nonzeros_max",
               "lp.denominator_bits_max")


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_library(args) -> dict:
    import checks

    out = common.WORK / "ops.json"
    code, _, stderr, _ = common.run_child(
        [str(common.BENCH / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", str(out)],
        timeout=2 * args.seconds + common.CHILD_TIMEOUT_S)
    if code != 0:
        raise RuntimeError(f"worker exited {code}:\n{stderr}")
    data = json.loads(out.read_text())
    verdicts = checks.check_library(args.workload, data["records"])
    return {"times": [r["seconds"] for r in data["records"]], "verdicts": verdicts,
            "wall_s": data["wall_s"], "trace": data["trace"],
            "overhead_s": data["overhead_s"], "readme": []}


def run_cli(args) -> dict:
    import checks
    import gen
    import replay

    tr = replay.Tracer()
    records, times, overhead = [], [], []
    commands = gen.cli_commands(args.seed, common.WORK, gen.rounds_for("cli", args.seconds))
    start = time.perf_counter()
    for argv in commands:
        code, stdout, stderr, wall = common.run_child(["-m", "contextuality.cli", *argv])
        times.append(wall)
        records.append({"argv": argv, "code": code, "stdout": stdout, "stderr": stderr})
        if args.trace:
            _trace_cli(tr, overhead, records[-1], wall)
    wall_s = time.perf_counter() - start
    verdicts = checks.check_cli(records)
    for i, rec in enumerate(records):
        if rec.get("replay_mismatch"):
            verdicts[i] = verdicts[i].wrong("traced replay differs from the CLI")
    exit_unexpected = sum(1 for r in records if r["code"] not in checks.DOCUMENTED_EXIT)
    tr.count["cli.exit_unexpected"] = exit_unexpected
    return {"times": times, "verdicts": verdicts, "wall_s": wall_s,
            "trace": tr.as_dict() if args.trace else None, "overhead_s": overhead,
            "readme": checks.check_readme_in_process()}


def _trace_cli(tr, overhead: list, rec: dict, wall: float) -> None:
    """Run the traced stand-in for ``rec``'s command; it must agree with the CLI."""
    import checks
    import replay

    code, out, err, rwall = common.run_child([str(common.BENCH / "cli_replay.py"), *rec["argv"]])
    if code != 0:
        raise RuntimeError(f"cli replay exited {code}:\n{err}")
    got = json.loads(out)
    tr.merge(got["trace"])
    tr.busy["trace.op_s"] += rwall
    tr.count["trace.ops"] += 1
    overhead.append(rwall - wall)
    if rec["code"] != got["code"] or (
            rec["code"] in checks.DOCUMENTED_EXIT
            and replay.without_seconds(rec["stdout"]) != replay.without_seconds(got["stdout"])):
        tr.count["trace.mismatch"] += 1
        rec["replay_mismatch"] = True


def summarize(times: list[float], verdicts: list, wall_s: float):
    """(attempted, times of correct operations, failure reasons, latency summary).

    Every operation counts, failed or not; a failure ranks above every success.
    """
    ok_times = [t for t, v in zip(times, verdicts, strict=True) if v.kind == "ok"]
    reasons = Counter(v.reason for v in verdicts if v.kind != "ok")
    lat = common.latency_summary(ok_times, len(verdicts) - len(ok_times), wall_s)
    return len(verdicts), ok_times, dict(reasons), lat


def end_to_end_metrics(imports: list[float], lat: dict, ok_per_s: float,
                       rss_mib: float) -> dict:
    return {"setup_s": metric(statistics.median(imports), "s"),
            "op_p50_s": metric(lat["p50_s"], "s"),
            "op_tail_s": metric(lat["tail_s"], "s"),
            "ok_per_s": metric(ok_per_s, "1/s"),
            "peak_rss_mib": metric(rss_mib, "MiB")}


def layer_metrics(trace: dict, overhead: list[float], imports: list[float],
                  failed_ratio: float) -> dict:
    busy, count, peak = trace["busy"], trace["count"], trace["peak"]
    ops = count.get("trace.ops", 0)
    per_op = (lambda s: s / ops) if ops else (lambda s: 0.0)
    out = {"import.s": metric(busy["import.s"] / ops if "import.s" in busy and ops
                              else statistics.median(imports), "s")}
    for name in LAYER_TIMES:
        out[name] = metric(per_op(busy.get(name, 0.0)), "s")
    op_s = busy.get("trace.op_s", 0.0)
    out["trace.op_s"] = metric(per_op(op_s), "s")
    out["lp.solve_share"] = metric(busy.get("lp.solve_s", 0.0) / op_s if op_s else 0.0, "1")
    for name in LAYER_COUNTS:
        out[name] = metric(count.get(name, 0), "count")
    for name in LAYER_PEAKS:
        out[name] = metric(peak.get(name, 0), "bits" if "bits" in name else "count")
    failed = trace["failed"]
    out["lp.failed"] = metric(sum(failed.get("lp", {}).values()), "count")
    out["io.failed"] = metric(sum(failed.get("io", {}).values()), "count")
    out["cli.exit_unexpected"] = metric(count.get("cli.exit_unexpected", 0), "count")
    out["trace.overhead_s"] = metric(statistics.median(overhead) if overhead else 0.0, "s")
    out["failed_ratio"] = metric(failed_ratio, "1")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description="Benchmark of the exact-LP pipeline.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not common.package_present():
        print(f"perfbench: no package source at {common.SRC / 'contextuality'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(common.SRC))
    shutil.rmtree(common.WORK, ignore_errors=True)
    common.WORK.mkdir()
    try:
        imports = common.import_times(SETUP_IMPORTS)
        res = run_cli(args) if args.workload == "cli" else run_library(args)
    finally:
        shutil.rmtree(common.WORK, ignore_errors=True)

    attempted, ok_times, reasons, lat = summarize(res["times"], res["verdicts"], res["wall_s"])
    failed = attempted - len(ok_times)
    wrong = [v.reason for v in res["verdicts"] if v.kind == "wrong"] + res["readme"]
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "loop": "closed, 1 caller, 1 operation in flight",
              "env": common.environment(), "setup_imports_s": imports,
              "op_tail_percentile": lat["tail_percentile"],
              "op_tail_beyond": lat["tail_beyond"], "op_tail_is_miss": lat["tail_is_miss"],
              "samples": lat["samples"], "wall_s": res["wall_s"],
              "failed_ratio": failed / attempted, "failures": reasons,
              "readme_problems": res["readme"]}
    if args.trace:
        detail["failed_by_type"] = res["trace"]["failed"]
        metrics = layer_metrics(res["trace"], res["overhead_s"], imports, failed / attempted)
    else:
        metrics = end_to_end_metrics(imports, lat, len(ok_times) / res["wall_s"],
                                     common.children_peak_rss_mib())
    print("perfbench detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
