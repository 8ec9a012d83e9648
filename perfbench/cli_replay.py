"""Traced stand-in for one CLI invocation; run by run.py in a fresh interpreter.

Times ``import contextuality``, then replays the command line in process
through the package's public calls (see replay.replay_command), and prints
one JSON object: the import time, the replay's exit code and output, and
the layer totals.

    PYTHONPATH=src python3 perfbench/cli_replay.py analyze bundled:prbox --json
"""
import time

t0 = time.perf_counter()
import contextuality  # noqa: E402,F401  (the import is what is timed)

import_s = time.perf_counter() - t0

import json  # noqa: E402
import sys  # noqa: E402

import replay  # noqa: E402


def main() -> None:
    tr = replay.Tracer()
    tr.busy["import.s"] = import_s
    try:
        code, out = replay.replay_command(tr, sys.argv[1:])
    except Exception as exc:  # recorded as the replay's outcome
        code, out = 1, f"{type(exc).__name__}: {exc}\n"
    print(json.dumps({"code": code, "stdout": out, "trace": tr.as_dict()}))


if __name__ == "__main__":
    main()
