"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/sweep.py run --workloads cli,small,large --seeds 1-10 \
        --seconds 30 --trace 0 --out results.jsonl
    python3 perfbench/sweep.py summary results.jsonl [more.jsonl ...]

``run`` starts run.py once per (workload, seed), one at a time, and appends
one JSON line per run: the workload, seed, trace flag, the run's elapsed
time, the detail line and the result line.  ``summary`` prints, per
workload, the operations attempted and failed and, per metric, the median,
the quartiles and their distance as a share of the median (the spread),
computed with ``statistics.quantiles(values, n=4)``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
DETAIL = "perfbench detail: "


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(args) -> int:
    with open(args.out, "a") as fh:
        for workload in args.workloads.split(","):
            for seed in seeds(args.seeds):
                t0 = time.perf_counter()
                done = subprocess.run(
                    [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                     "--seconds", str(args.seconds), "--trace", str(args.trace)],
                    capture_output=True, text=True, timeout=600)
                if done.returncode != 0:
                    print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}",
                          file=sys.stderr)
                    return 1
                lines = done.stdout.splitlines()
                detail = next(json.loads(ln[len(DETAIL):]) for ln in lines
                              if ln.startswith(DETAIL))
                row = {"workload": workload, "seed": seed, "trace": args.trace,
                       "elapsed_s": time.perf_counter() - t0,
                       "detail": detail, "result": json.loads(lines[-1])}
                fh.write(json.dumps(row) + "\n")
                fh.flush()
                print(workload, seed, json.dumps(row["result"]["metrics"]), flush=True)
    return 0


def summary(args) -> int:
    values: dict = defaultdict(lambda: defaultdict(list))
    counts: dict = defaultdict(lambda: [0, 0])
    for path in args.files:
        for line in Path(path).read_text().splitlines():
            row = json.loads(line)
            counts[row["workload"]][0] += row["result"]["attempted"]
            counts[row["workload"]][1] += row["result"]["failed"]
            for name, m in row["result"]["metrics"].items():
                values[row["workload"]][name].append(m["value"])
    for workload, metrics in values.items():
        print(f"{workload:6} attempted={counts[workload][0]} failed={counts[workload][1]}")
        for name, vals in metrics.items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"{workload:6} {name:24} n={len(vals):2} median={med:.6g} "
                  f"q1={q1:.6g} q3={q3:.6g} spread={spread:.3f}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("run")
    p.add_argument("--workloads", default="cli,small,large")
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=run)
    p = sub.add_parser("summary")
    p.add_argument("files", nargs="+")
    p.set_defaults(fn=summary)
    args = ap.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
