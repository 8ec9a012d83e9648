"""Library caller for the small and large workloads; run by run.py.

One process, one caller, one operation in flight: each operation is one
``measure(system, method)`` call on a system from the pool, and the
next starts when it returns.  The run does the number of rounds that
``gen.rounds_for`` gives for ``--seconds``.  With ``--trace 1`` every
operation is followed by its traced replay, which must give the same
result.

Writes one JSON document to ``--out``: the operation records, the window's
wall time and, when traced, the layer totals.

    PYTHONPATH=src python3 perfbench/worker.py --workload small --seed 1 \
        --seconds 5 --trace 0 --out ops.json
"""
from __future__ import annotations

import argparse
import json
import time

from contextuality import measure

import gen
import replay


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    tr = replay.Tracer()
    records = []
    overhead = []
    start = time.perf_counter()
    for rnd, case, method, sys in gen.library_ops(workload, seed,
                                                   gen.rounds_for(workload, seconds)):
        records.append(_operation(tr, overhead, rnd, case, method, sys, traced))
    return {"records": records, "wall_s": time.perf_counter() - start,
            "trace": tr.as_dict() if traced else None, "overhead_s": overhead}


def _operation(tr, overhead, rnd, case, method, sys, traced) -> dict:
    t0 = time.perf_counter()
    outcome, rep = replay.outcome_of(lambda: measure(sys, method))
    elapsed = time.perf_counter() - t0
    rec = {"round": rnd, "case": case.name, "method": method, "seconds": elapsed,
           "outcome": outcome}
    if traced:
        t1 = time.perf_counter()
        traced_outcome, _ = replay.outcome_of(lambda: replay.replay_measure(tr, sys, method))
        traced_s = time.perf_counter() - t1
        tr.busy["trace.op_s"] += traced_s
        tr.count["trace.ops"] += 1
        overhead.append(traced_s - elapsed)
        if not replay.same_result(outcome, traced_outcome):
            tr.count["trace.mismatch"] += 1
            rec["replay_mismatch"] = traced_outcome
        replay.library_extras(tr, sys, method, rep)
    return rec


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(gen.LIBRARY_PLANS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
