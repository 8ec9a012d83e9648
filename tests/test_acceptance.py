"""Acceptance suite.

One test per criterion, each printing a summary line (run with `pytest -s`
to see them).  Criteria 1-9 collect every exactly-solved program into a
registry; criterion 10 re-verifies each one's optimality certificate and
cross-checks the objective against the independent floating-point solver.
"""
import random
import time
from fractions import Fraction as F

from rough import PRIMES, rough_mean, rough_pmf

from contextuality.analytic import (
    BinaryStats,
    build_delta_p_lp,
    coupling_mismatch_lp,
    cyclic2_min_partial,
    delta0_cbd,
    delta0_present,
    delta_p,
    max_coupling_probability,
    median_binary,
    tv_distance,
)
from contextuality.builders import build_lp, measure, problem_sizes
from contextuality.cli import main
from contextuality.examples import ab_system, epr_model
from contextuality.io import bundled_path, parse_system
from contextuality.lp import solve_exact, verify_certificate
from contextuality.oracle import (
    SystemShape,
    _connection_system,
    build_max_coupling_lp,
    cyclic_system,
    noisy_pr_box,
    random_pmf,
    random_system,
    solve_float,
)
from contextuality.system import Pmf

INSTANCES = []  # (label, LinearProgram, LpSolution) from criteria 1-9

PM = (1, -1)


def _solved(lp, label):
    sol = solve_exact(lp)
    assert sol.status == "optimal", label
    INSTANCES.append((label, lp, sol))
    return sol


def test_criterion_01_worked_disjoint_example():
    t0 = time.monotonic()
    sysd = parse_system(bundled_path("disjoint"))

    present = _solved(build_lp(sysd, "present"), "c1-present")
    assert present.objective == F(3)
    assert delta0_present(sysd) == F(2)
    rep = measure(sysd, "present")
    assert (rep.delta, rep.delta0, rep.measure) == (F(3), F(2), F(1))
    assert not rep.noncontextual

    cbd = _solved(build_lp(sysd, "cbd"), "c1-cbd")
    assert cbd.objective - delta0_cbd(sysd) == 0
    assert measure(sysd, "cbd").measure == 0

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\ncriterion 1 PASS: disjoint example delta=3 delta0=2 measure=1, "
          f"cbd measure=0 ({elapsed:.2f}s < 1s)")


def test_criterion_02_pr_box_measures_agree():
    t0 = time.monotonic()
    sysd = parse_system(bundled_path("prbox"))
    present = _solved(build_lp(sysd, "present"), "c2-present")
    cbd = _solved(build_lp(sysd, "cbd"), "c2-cbd")
    m_present = present.objective - delta0_present(sysd)
    m_cbd = cbd.objective - delta0_cbd(sysd)
    assert m_present == m_cbd == F(1)  # golden value from the exact solver
    for lp, sol in ((build_lp(sysd, "present"), present), (build_lp(sysd, "cbd"), cbd)):
        approx = solve_float(lp)
        assert abs(float(sol.objective) - approx.objective) <= 1e-7
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    print(f"criterion 2 PASS: PR box present = cbd = 1 exactly, float agrees "
          f"({elapsed:.2f}s < 5s)")


def test_criterion_03_problem_sizes(capsys):
    expected_22 = {"present": (80, 32), "np": (32, 16), "cbd": (256, 16)}
    reported = {p.method: (p.variable_count, p.equality_count)
                for p in problem_sizes(2, 2)}
    assert reported == expected_22
    assert all(p.inequality_count == 0 for p in problem_sizes(2, 2))

    assert main(["sizes", "2", "2"]) == 0
    out = capsys.readouterr().out
    for needle in ("present", "80", "32", "np", "16", "cbd", "256"):
        assert needle in out

    for m, n in ((1, 1), (2, 2), (2, 3), (3, 3)):
        sysd = random_system(SystemShape(m, n, consistent=False, seed=m * 10 + n))
        sizes = {p.method: p for p in problem_sizes(m, n)}
        for method in ("present", "np", "cbd"):
            if method == "np":
                sysd_m = random_system(SystemShape(m, n, consistent=True, seed=m * 10 + n))
            else:
                sysd_m = sysd
            lp = build_lp(sysd_m, method)
            assert lp.column_count == sizes[method].variable_count, (m, n, method)
            assert lp.row_count == sizes[method].equality_count, (m, n, method)
    print("criterion 3 PASS: reported sizes match 80/32, 32/16, 256/16 at "
          "(2,2); built dimensions equal reported for (1,1),(2,2),(2,3),(3,3)")


def test_criterion_04_present_equals_cbd_on_100_systems():
    t0 = time.monotonic()
    for seed in range(100):
        sysd = random_system(SystemShape(2, 2, consistent=(seed % 2 == 0), seed=seed))
        p = _solved(build_lp(sysd, "present"), f"c4-present-{seed}")
        c = _solved(build_lp(sysd, "cbd"), f"c4-cbd-{seed}")
        m_present = p.objective - delta0_present(sysd)
        m_cbd = c.objective - delta0_cbd(sysd)
        assert m_present == m_cbd, seed
        assert m_present >= 0
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"criterion 4 PASS: present = cbd exactly on 100 seeded 2x2 systems "
          f"({elapsed:.1f}s < 300s)")


def test_criterion_05_np_equals_np_inside_on_100_systems():
    t0 = time.monotonic()
    for seed in range(100, 200):
        sysd = random_system(SystemShape(2, 2, consistent=True, seed=seed))
        a = _solved(build_lp(sysd, "np"), f"c5-np-{seed}")
        b = _solved(build_lp(sysd, "np_inside"), f"c5-npi-{seed}")
        assert a.objective == b.objective, seed
        assert a.objective >= 0
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"criterion 5 PASS: np = np_inside exactly on 100 seeded consistent "
          f"systems ({elapsed:.1f}s < 300s)")


# Contextual inputs, so the laws above cannot pass on 0 = 0 alone.

def test_present_equals_the_cyclic_closed_form():
    # White noise: present = (1/2) max(0, n lam - (n - 2)), on a lam grid
    # crossing the threshold lam* = (n - 2)/n.
    contextual = 0
    for n in range(3, 9):
        threshold = F(n - 2, n)
        for lam in (threshold - F(1, 100), threshold, threshold + F(1, 100),
                    threshold + F(1, 10), F(1)):
            want = max(F(0), n * lam - (n - 2)) / 2
            assert measure(cyclic_system(n, 0, lam, noise="white"), "present").measure == want, (n, lam)
            contextual += want > 0
    assert contextual >= 18
    print(f"present = cyclic closed form on 30 rank-3..8 systems, {contextual} contextual")


def test_present_equals_cbd_on_contextual_cyclic_systems():
    for seed in range(6):
        sysd = cyclic_system(4, seed, F(3, 4))
        present = measure(sysd, "present").measure
        assert present == measure(sysd, "cbd").measure, seed
        assert present > 0, seed


def test_present_equals_cbd_on_noisy_pr_boxes():
    # Every property of a 2x2 system lies in exactly two contexts.
    contextual = 0
    for lam in (F(3, 4), F(7, 8)):
        for seed in range(10):
            sysd = noisy_pr_box(2, 2, seed, lam)
            present = measure(sysd, "present").measure
            assert present == measure(sysd, "cbd").measure, (lam, seed)
            contextual += present > 0
    assert contextual == 20


def test_present_equals_cbd_on_rank_6_cyclic_systems():
    # Each cbd program is 4096 x 24, above the template cache's ceiling,
    # so it is a plain program solved by two phases.
    contextual = 0
    for seed in range(2):
        sysd = cyclic_system(6, seed, F(7, 8))
        present = measure(sysd, "present").measure
        assert present == measure(sysd, "cbd").measure, seed
        contextual += present > 0
    assert contextual == 2


def test_np_equals_np_inside_on_consistent_cyclic_systems():
    contextual = 0
    for n in (3, 4, 5):
        for lam in (F(1, 2), F(3, 4), F(1)):
            sysd = cyclic_system(n, 0, lam, noise="white")
            np_measure = measure(sysd, "np").measure
            assert np_measure == measure(sysd, "np_inside").measure, (n, lam)
            contextual += np_measure > 0
    assert contextual >= 7


def test_criterion_06_median_floor_on_200_connections():
    rng = random.Random(606)
    for trial in range(200):
        k = rng.randint(2, 5)
        means = [F(rng.randint(-32, 32), 32) for _ in range(k)]
        sysd = _connection_system(means)
        med = median_binary(means)
        sol = _solved(build_delta_p_lp(sysd, "p"), f"c6-{trial}")
        assert sol.objective == med.delta_p, trial
        if k == 2:
            assert med.delta_p == abs(means[0] - means[1]) / 2, trial
    # rough means over coprime denominators, in one to five contexts
    for trial in range(40):
        means = [rough_mean(rng) for _ in range(trial % 5 + 1)]
        sysd = _connection_system(means)
        sol = _solved(build_delta_p_lp(sysd, "p"), f"c6-rough-{trial}")
        assert sol.objective == median_binary(means).delta_p == delta_p(sysd, "p").value, trial
    print("criterion 6 PASS: median closed form = LP floor on 200 random "
          "binary connections (|C_p| in 2..5) and 40 rough ones (|C_p| in 1..5)")


def test_criterion_07_cyclic2_closed_form_on_200_pairs():
    rng = random.Random(707)
    for trial in range(200):
        q = BinaryStats.from_pmf(random_pmf(rng, [PM, PM]))
        r = BinaryStats.from_pmf(random_pmf(rng, [PM, PM]))
        closed = cyclic2_min_partial(q, r)
        sol = _solved(coupling_mismatch_lp(r.to_pmf(), q.to_pmf()), f"c7-{trial}")
        assert sol.objective == closed, trial
    print("criterion 7 PASS: cyclic-2 closed form = transport LP on 200 "
          "random realizable pairs")


def test_criterion_08_max_coupling_on_200_lists():
    rng = random.Random(808)
    binary_pairs_checked = 0
    for trial in range(200):
        if trial % 2 == 0:
            alpha = PM
        else:
            alpha = tuple(range(rng.randint(2, 4)))
        k = rng.randint(2, 4)
        margs = [random_pmf(rng, [alpha]) for _ in range(k)]
        closed = max_coupling_probability(margs)
        sol = _solved(build_max_coupling_lp(margs), f"c8-{trial}")
        assert -sol.objective == closed, trial
        if alpha == PM:
            for i in range(k):
                for j in range(i + 1, k):
                    a, b = margs[i], margs[j]
                    gap = abs(a[(1,)] - a[(-1,)] - (b[(1,)] - b[(-1,)]))
                    assert tv_distance(a, b) == gap / 2
                    binary_pairs_checked += 1
    assert binary_pairs_checked >= 100
    # rough lists over coprime denominators, and pairs that agree but for
    # 1/p moved between two symbols
    for trial in range(40):
        alpha = PM if trial % 2 == 0 else tuple(range(2 + trial % 3))
        margs = [rough_pmf(rng, [alpha]) for _ in range(2 + trial % 3)]
        if trial % 4 == 1:
            step = F(1, PRIMES[trial % len(PRIMES)])
            moved = {(s,): margs[0][s] for s in alpha}
            moved[alpha[0],] += step
            moved[alpha[-1],] -= step
            margs = [margs[0], Pmf([alpha], moved)]
        closed = max_coupling_probability(margs)
        sol = _solved(build_max_coupling_lp(margs), f"c8-rough-{trial}")
        assert -sol.objective == closed, trial
        if trial % 4 == 1:
            assert closed == 1 - step, trial
    print(f"criterion 8 PASS: closed form = brute-force coupling LP on 200 "
          f"lists and 40 rough ones; TV identity held on {binary_pairs_checked} binary pairs")


def test_criterion_09_epr_fixed_model():
    model = epr_model([F(0), F(180)], [F(90), F(270)])
    assert not model.rounded  # exact cosines only
    bunches = model.system.bunches

    sol = _solved(build_lp(model.system, "fixed_model", model=bunches), "c9-self")
    assert sol.objective == 0
    assert delta0_present(model.system) == 0

    h, e, z = F(1, 2), F(1, 10), F(0)
    same_down = ab_system(2, 2, {
        (1, 1): BinaryStats(h - e, h, z), (1, 2): BinaryStats(h - e, h, z),
        (2, 1): BinaryStats(h, h, z), (2, 2): BinaryStats(h, h, z),
    })
    # upward shift forces the correlation to its lower bound 1/10, which
    # stays inside the eps gap, so only the mean deviation is scored
    same_up = ab_system(2, 2, {
        (1, 1): BinaryStats(h + e, h, F(1, 10)), (1, 2): BinaryStats(h + e, h, F(1, 10)),
        (2, 1): BinaryStats(h, h, z), (2, 2): BinaryStats(h, h, z),
    })
    for tag, same in (("down", same_down), ("up", same_up)):
        sol_same = _solved(build_lp(same, "fixed_model", model=bunches), f"c9-same-{tag}")
        assert sol_same.objective > delta0_present(same)
        rep = measure(same, "fixed_model", model=bunches)
        assert rep.measure > 0 and not rep.noncontextual

    opp = ab_system(2, 2, {
        (1, 1): BinaryStats(h + e, h, F(1, 10)), (1, 2): BinaryStats(h - e, h, z),
        (2, 1): BinaryStats(h, h, z), (2, 2): BinaryStats(h, h, z),
    })
    sol_opp = _solved(build_lp(opp, "fixed_model", model=bunches), "c9-opp")
    assert sol_opp.objective == delta0_present(opp) == e
    rep = measure(opp, "fixed_model", model=bunches)
    assert rep.measure == 0 and rep.noncontextual
    print("criterion 9 PASS: exact-cosine model self-approximates (0=0); "
          "same-direction eps=1/10 penalized; opposite-direction optimal")


def test_criterion_10_certificates_and_float_agreement():
    t0 = time.monotonic()
    assert len(INSTANCES) >= 700  # criteria 1-9 all ran and registered
    for label, lp, sol in INSTANCES:
        assert verify_certificate(lp, sol), label
        approx = solve_float(lp)
        assert approx.status == "optimal", label
        assert abs(float(sol.objective) - approx.objective) <= 1e-7, label
    elapsed = time.monotonic() - t0
    print(f"criterion 10 PASS: {len(INSTANCES)} optimal solutions certified "
          f"exactly and matched by the float solver within 1e-7 "
          f"({elapsed:.1f}s)")
