"""Shared pieces of the benchmark: locations, child processes, statistics."""
from __future__ import annotations

import importlib.metadata
import importlib.util
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"

# One child process may run this long before it is killed.
CHILD_TIMEOUT_S = 60

IMPORT_PROBE = ("import time; t = time.perf_counter(); import contextuality; "
                "print(repr(time.perf_counter() - t))")


def package_present() -> bool:
    return (SRC / "contextuality" / "__init__.py").is_file()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], timeout: float = CHILD_TIMEOUT_S) -> tuple[int, str, str, float]:
    """Run one child to completion; return (exit code, stdout, stderr, wall seconds).

    A child that outlives ``timeout`` is killed and waited for, and reported
    with exit code -9.
    """
    t0 = time.perf_counter()
    try:
        done = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        return -9, exc.stdout or "", exc.stderr or "", time.perf_counter() - t0
    return done.returncode, done.stdout, done.stderr, time.perf_counter() - t0


def children_peak_rss_mib() -> float:
    """Largest resident set of any finished child of this process (Linux: KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def import_times(count: int) -> list[float]:
    """``import contextuality`` in ``count`` fresh interpreters, after one
    uncounted import that fills the bytecode cache."""
    out = []
    for i in range(count + 1):
        code, stdout, stderr, _ = run_child(["-c", IMPORT_PROBE])
        if code != 0:
            raise RuntimeError(f"import probe failed ({code}):\n{stderr}")
        if i:
            out.append(float(stdout.strip()))
    return out


def environment() -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {"python": platform.python_version(), "scipy": version("scipy"),
            "numpy": version("numpy"), "nproc": os.cpu_count(),
            "gmpy2": importlib.util.find_spec("gmpy2") is not None,
            "machine": platform.machine()}


def tail_rank(n: int) -> int:
    """0-based sorted index of the highest percentile with at least ten
    samples beyond it; the largest sample when there are ten or fewer."""
    return n - 11 if n >= 11 else n - 1


def latency_summary(ok_times: list[float], failed: int, miss_s: float) -> dict:
    """Median and tail over all operations, a failure ranking above every
    success.  A failure is scored at ``miss_s``, the run's wall time, which
    no single operation inside the run can exceed."""
    ranked = sorted(ok_times) + [miss_s] * failed
    n = len(ranked)
    if not n:
        raise ValueError("no operations")
    k = tail_rank(n)
    return {"p50_s": statistics.median(ranked), "tail_s": ranked[k],
            "tail_percentile": round(100 * (k + 1) / n, 2), "tail_beyond": n - 1 - k,
            "tail_is_miss": k >= len(ok_times), "samples": n}
