"""Tests of the benchmark itself (not of the package).

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""
import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import common  # noqa: E402
import gen  # noqa: E402
import replay  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from contextuality import (  # noqa: E402
    bundled_path,
    epr_model,
    measure,
    parse_system,
    write_system_text,
)
from contextuality.cli import main as cli_main  # noqa: E402
from contextuality.errors import InconsistentlyConnected  # noqa: E402


def _library_inputs(workload, seed):
    return [(rnd, case.name, method, write_system_text(sys))
            for rnd, case, method, sys in gen.library_ops(workload, seed, rounds=3)]


def _cli_inputs(seed, workdir):
    commands = gen.cli_commands(seed, workdir, rounds=2)
    return commands, {f.name: f.read_bytes() for f in sorted(workdir.iterdir())}


@pytest.mark.parametrize("workload", ["small", "large"])
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    first = _library_inputs(workload, 7)
    assert first == _library_inputs(workload, 7)
    # Another seed runs the same operations on the same pool, in another order.
    other = _library_inputs(workload, 8)
    assert first != other and sorted(first) == sorted(other)
    commands, files = _cli_inputs(7, tmp_path)
    assert (commands, files) == _cli_inputs(7, tmp_path)
    other_commands, other_files = _cli_inputs(8, tmp_path)
    assert other_files == files and other_commands != commands
    assert sorted(other_commands) == sorted(commands)


@pytest.mark.parametrize("workload, seconds, rounds", [
    ("cli", 30, 2), ("small", 30, 67), ("large", 30, 3), ("large", 0.3, 1)])
def test_run_length_is_a_fixed_number_of_rounds(workload, seconds, rounds):
    assert gen.rounds_for(workload, seconds) == rounds
    if workload != "cli":
        assert len(list(gen.library_ops(workload, 1, rounds))) == rounds * len(
            gen.LIBRARY_PLANS[workload][1])


def test_consistency_flags_hold():
    for case in gen.LARGE_CASES + gen.SMALL_CASES:
        sys_ = gen.system_for("t", 0, case)
        assert checks.consistency_report(sys_).consistent == case.consistent


@pytest.mark.parametrize("n, rank", [(1, 0), (10, 9), (11, 0), (20, 9), (100, 89)])
def test_tail_rank_leaves_ten_beyond(n, rank):
    assert common.tail_rank(n) == rank


def test_tail_counts_failures_slower_than_every_success():
    ok = [float(t) for t in range(1, 21)]  # 20 successes, 1..20 s
    lat = common.latency_summary(ok, 0, 99.0)
    assert (lat["tail_s"], lat["tail_percentile"], lat["samples"]) == (10.0, 50.0, 20)
    # Five failures, however fast they were, rank above all twenty successes.
    lat = common.latency_summary(ok, 5, 99.0)
    assert lat["tail_s"] == 15.0 and lat["tail_beyond"] == 10 and not lat["tail_is_miss"]
    # More than ten failures: the tail rank lands on a failure, a miss.
    lat = common.latency_summary(ok[:10], 15, 99.0)
    assert lat["tail_s"] == 99.0 and lat["tail_is_miss"]
    assert lat["p50_s"] == 99.0


def test_injected_raising_operation_is_counted_failed(monkeypatch):
    calls = []

    def flaky(sys_, method):
        calls.append(method)
        if len(calls) % 3 == 0:
            raise RuntimeError("injected")
        if len(calls) % 3 == 1 and method == "present":
            raise InconsistentlyConnected("injected typed error")
        return measure(sys_, method)

    monkeypatch.setattr(worker, "measure", flaky)
    data = worker.run("small", 1, 0.3, traced=False)
    records = data["records"]
    assert len(records) == len(calls) >= 3
    verdicts = checks.check_library("small", records)
    raised = [i for i in range(len(calls)) if (i + 1) % 3 == 0]
    assert all(verdicts[i].kind == "failed" for i in raised)
    typed = [i for i in range(len(calls)) if (i + 1) % 3 == 1 and calls[i] == "present"]
    assert all(verdicts[i].kind == "wrong" for i in typed)
    attempted, ok_times, _, lat = run.summarize([r["seconds"] for r in records], verdicts,
                                                data["wall_s"])
    assert attempted == len(calls)
    assert attempted - len(ok_times) >= len(raised) + len(typed)
    assert lat["samples"] == attempted


def _systems():
    small = {c.name: c for c in gen.SMALL_CASES}
    large = {c.name: c for c in gen.LARGE_CASES}
    return [
        (gen.system_for("t", 0, small["c22"]), ["present", "np", "np_inside", "cbd"]),
        (gen.system_for("t", 0, small["i22"]), ["present", "np", "cbd"]),
        (gen.system_for("t", 1, large["t22i"]), ["present"]),
        (parse_system(bundled_path("disjoint")), ["present", "np_inside", "cbd"]),
    ]


def test_traced_replay_equals_measure():
    tr = replay.Tracer()
    for sys_, methods in _systems():
        for method in methods:
            want, rep = replay.outcome_of(lambda: measure(sys_, method))
            got, _ = replay.outcome_of(lambda: replay.replay_measure(tr, sys_, method))
            assert replay.same_result(want, got), (method, want, got)
            assert want.get("witness") == got.get("witness")
    assert tr.count["lp.solves"] > 0 and tr.count["analytic.lp_floors"] == 4
    assert tr.count["lp.infeasible"] == 1  # np_inside on the disjoint example
    bunches = epr_model([Fraction(0), Fraction(90)], [Fraction(180), Fraction(270)]).system.bunches
    prbox = parse_system(bundled_path("prbox"))
    want, _ = replay.outcome_of(lambda: measure(prbox, "fixed_model", model=bunches))
    got, _ = replay.outcome_of(lambda: replay.replay_measure(tr, prbox, "fixed_model", bunches))
    assert replay.same_result(want, got)


@pytest.mark.parametrize("argv", [
    ["analyze", "bundled:prbox", "--method", "present,np", "--json"],
    ["analyze", "bundled:disjoint", "--method", "present,np_inside", "--json"],
    ["sizes", "4", "4", "--json"],
    ["dump-lp", "bundled:prbox", "--method", "present"],
    ["approx", "bundled:prbox", "--epr"],
])
def test_cli_replay_matches_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(argv)
    got_code, got_out = replay.replay_command(replay.Tracer(), argv)
    assert got_code == code
    assert replay.without_seconds(got_out) == replay.without_seconds(buf.getvalue())


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    lat = common.latency_summary([1.0, 2.0], 1, 5.0)
    e2e = run.end_to_end_metrics([0.5], lat, 2.0, 80.0)
    assert {n: m["unit"] for n, m in e2e.items()} == {m["name"]: m["unit"]
                                                       for m in spec["end_to_end"]}
    layers = run.layer_metrics(replay.Tracer().as_dict(), [], [0.5], 0.0)
    assert {n: m["unit"] for n, m in layers.items()} == {m["name"]: m["unit"]
                                                          for m in spec["per_layer"]}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
