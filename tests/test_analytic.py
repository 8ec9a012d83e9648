import itertools
import random
from fractions import Fraction as F

import pytest
from rough import rough_mean, rough_pmf

from contextuality import analytic
from contextuality.analytic import (
    BinaryStats,
    MedianResult,
    bunch_set_distance,
    coupling_mismatch_lp,
    cyclic2_min_partial,
    delta0_cbd,
    delta0_present,
    delta_p,
    delta_p_via_lp,
    max_coupling_probability,
    median_binary,
    min_mismatch,
    per_context_min_delta,
    pmf_from_mean,
    tv_distance,
)
from contextuality.builders import measure
from contextuality.errors import (
    AlphabetMismatch,
    MeanOutOfRange,
    ShapeMismatch,
    UnrealizableStats,
    ValidationError,
)
from contextuality.examples import _paired_system, ab_system, disjoint_support_system, pr_box
from contextuality.lp import solve_certified
from contextuality.oracle import (SystemShape, _connection_system, build_max_coupling_lp,
                                  cyclic_system, random_pmf, random_system)
from contextuality.system import (Context, Pmf, Property, System, connection_of,
                                  consistency_report, is_plus_minus)

PM = (1, -1)


def joint_pmf(rho: F) -> Pmf:
    """Uniform-marginal joint over two +/-1 properties with correlation rho."""
    return BinaryStats(F(0), F(0), rho).to_pmf()


# ---------------------------------------------------------------------------
# max coupling / TV
# ---------------------------------------------------------------------------

def test_max_coupling_half_means():
    a, b = pmf_from_mean(F(1, 2)), pmf_from_mean(F(-1, 2))
    assert max_coupling_probability([a, b]) == F(1, 2)


def test_max_coupling_identical():
    a = pmf_from_mean(F(1, 3))
    assert max_coupling_probability([a, a]) == 1


def test_max_coupling_disjoint_supports():
    assert max_coupling_probability([pmf_from_mean(F(1)), pmf_from_mean(F(-1))]) == 0


def test_max_coupling_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        max_coupling_probability([pmf_from_mean(F(0)), Pmf([(0, 1)], {(0,): F(1)})])


def test_tv_examples():
    assert tv_distance(pmf_from_mean(F(1, 2)), pmf_from_mean(F(-1, 2))) == F(1, 2)
    a = pmf_from_mean(F(1, 7))
    assert tv_distance(a, a) == 0
    assert tv_distance(pmf_from_mean(F(1)), pmf_from_mean(F(-1))) == 1


def test_tv_is_one_minus_max_coupling():
    rng = random.Random(5)
    for _ in range(50):
        a = random_pmf(rng, [(0, 1, 2)])
        b = random_pmf(rng, [(0, 1, 2)])
        assert max_coupling_probability([a, b]) == 1 - tv_distance(a, b)
        assert tv_distance(a, b) == tv_distance(b, a)
        # one position takes min_mismatch's TV branch; the transport LP agrees
        lp_value = solve_certified(coupling_mismatch_lp(a, b)).objective
        assert min_mismatch(a, b) == tv_distance(a, b) == lp_value


def test_tv_binary_equals_half_mean_gap():
    rng = random.Random(6)
    for _ in range(100):
        m1 = F(rng.randint(-32, 32), 32)
        m2 = F(rng.randint(-32, 32), 32)
        assert tv_distance(pmf_from_mean(m1), pmf_from_mean(m2)) == abs(m1 - m2) / 2


# ---------------------------------------------------------------------------
# delta0 (both baselines)
# ---------------------------------------------------------------------------

def test_delta0_cbd_consistent_is_zero():
    assert delta0_cbd(pr_box()) == 0


def test_delta0_cbd_disjoint_example():
    assert delta0_cbd(disjoint_support_system()) == 2
    # coincides with the per-property floor on this system
    assert delta0_present(disjoint_support_system()) == 2


def test_delta0_cbd_single_marginal_gap():
    z = F(0)
    sysd = ab_system(2, 2, {
        (1, 1): BinaryStats(F(1, 2), z, z),
        (1, 2): BinaryStats(z, z, z),
        (2, 1): BinaryStats(z, z, z),
        (2, 2): BinaryStats(z, z, z),
    })
    assert delta0_cbd(sysd) == F(1, 4)


def test_delta0_present_disjoint():
    assert delta0_present(disjoint_support_system()) == 2


def test_delta0_present_consistent_zero():
    assert delta0_present(pr_box()) == 0


def test_delta0_formulas_agree_on_two_context_systems():
    # with every property in exactly two contexts, both baselines reduce to
    # half the absolute difference of the connection means
    for seed in range(25):
        sysd = random_system(SystemShape(2, 2, consistent=bool(seed % 2), seed=seed))
        assert delta0_present(sysd) == delta0_cbd(sysd)


# ---------------------------------------------------------------------------
# delta_p / median
# ---------------------------------------------------------------------------

def test_delta_p_disjoint_example():
    res = delta_p(disjoint_support_system(), "p1")
    assert res.value == 1
    assert isinstance(res.optimizer, MedianResult)
    assert (res.optimizer.lo, res.optimizer.hi) == (0, 0)


def test_delta_p_two_contexts_half_gap():
    rng = random.Random(7)
    for _ in range(20):
        m1 = F(rng.randint(-32, 32), 32)
        m2 = F(rng.randint(-32, 32), 32)
        sysd = _connection_system([m1, m2])
        res = delta_p(sysd, "p")
        assert res.value == abs(m1 - m2) / 2
        assert (res.optimizer.lo, res.optimizer.hi) == (min(m1, m2), max(m1, m2))


def test_delta_p_identical_marginals():
    sysd = _connection_system([F(1, 3)] * 3)
    assert delta_p(sysd, "p").value == 0


def test_delta_p_lp_matches_median_on_binary_connections():
    rng = random.Random(8)
    for _ in range(30):
        means = [F(rng.randint(-32, 32), 32) for _ in range(rng.randint(2, 5))]
        sysd = _connection_system(means)
        assert delta_p(sysd, "p").value == delta_p_via_lp(sysd, "p").value
    # rough means in one to five contexts, so both median parities occur
    for k in range(1, 6):
        for _ in range(3):
            means = [rough_mean(rng) for _ in range(k)]
            sysd = _connection_system(means)
            value = delta_p(sysd, "p").value
            assert value == delta_p_via_lp(sysd, "p").value == median_binary(means).delta_p


def test_delta_p_general_alphabet_uses_lp():
    # three-symbol property in two contexts: optimizer is a pmf, value matches hand count
    alpha = (0, 1, 2)
    contexts = [Context(f"c{i}", ("p",)) for i in range(2)]
    bunches = {
        "c0": Pmf([alpha], {(0,): F(1)}),
        "c1": Pmf([alpha], {(2,): F(1)}),
    }
    sysd = System([Property("p", alpha)], contexts, bunches)
    res = delta_p(sysd, "p")
    assert res.value == 1  # any q splits its mass between the two point masses
    assert isinstance(res.optimizer, Pmf)


@pytest.mark.parametrize("consistent", [False, True])
@pytest.mark.parametrize("size", [3, 4])
def test_delta_p_two_context_closed_form_matches_lp(size, consistent, monkeypatch):
    # every property of a 2x2 system lies in two contexts
    systems = [random_system(SystemShape(2, 2, alphabet_size=size, consistent=consistent,
                                         seed=seed)) for seed in range(10)]
    if not consistent:  # and rough bunches, whose denominators are coprime
        rng, alpha = random.Random(size), tuple(range(size))
        systems += [_paired_system(2, 2, alpha, lambda i, j: rough_pmf(rng, [alpha, alpha]))
                    for _ in range(3)]
    expected = {(k, p.id): delta_p_via_lp(sysd, p.id).value
                for k, sysd in enumerate(systems) for p in sysd.properties}
    monkeypatch.setattr(analytic, "delta_p_via_lp", None)  # the closed form solves no LP
    for k, sysd in enumerate(systems):
        for p in sysd.properties:
            res = delta_p(sysd, p.id)
            assert res.value == expected[k, p.id]
            marginals = connection_of(sysd, p.id).marginals
            assert sum(tv_distance(res.optimizer, m) for m in marginals) == res.value


def test_delta_p_three_contexts_keep_the_lp(monkeypatch):
    # a1 lies in three contexts, each b in one: only a1 goes through the LP,
    # in delta_p and in delta0_present
    solved, built = [], []
    real, build = analytic.delta_p_via_lp, analytic.build_delta_p_lp
    monkeypatch.setattr(analytic, "delta_p_via_lp",
                        lambda sysd, pid: solved.append(pid) or real(sysd, pid))
    monkeypatch.setattr(analytic, "build_delta_p_lp",
                        lambda sysd, pid: built.append(pid) or build(sysd, pid))
    for consistent in (False, True):
        sysd = random_system(SystemShape(1, 3, alphabet_size=3, consistent=consistent, seed=5))
        floors = {p.id: delta_p(sysd, p.id) for p in sysd.properties}
        assert floors["a1"] == real(sysd, "a1")
        assert all(floors[b].value == 0 for b in ("b1", "b2", "b3"))
        assert delta0_present(sysd) == floors["a1"].value
    assert solved == ["a1", "a1"]
    assert built == ["a1"] * 6  # twice by delta_p's, once by delta0_present's LP per system
    # a +/-1 property in five contexts and a (0, 1) one in two take no LP
    built.clear()
    rng = random.Random(3)
    for sysd in (_one_property([rough_pmf(rng, [PM]) for _ in range(5)]),
                 _one_property([rough_pmf(rng, [(0, 1)]) for _ in range(2)])):
        delta0_present(sysd)
        delta_p(sysd, "p")
    assert built == []


# ---------------------------------------------------------------------------
# The integer connection reader against a Fraction reference and the LPs
# ---------------------------------------------------------------------------

EPSILON = F(1, 10 ** 40)


def _one_property(pmfs) -> System:
    """Property p observed alone in one context per pmf."""
    contexts = [Context(f"c{i}", ("p",)) for i in range(len(pmfs))]
    return System([Property("p", pmfs[0].alphabets[0])], contexts,
                  {f"c{i}": pmf for i, pmf in enumerate(pmfs)})


def _moved(pmf: Pmf) -> Pmf:
    """`pmf` over one variable with EPSILON moved from its last symbol to its first."""
    alpha = pmf.alphabets[0]
    weights = {(s,): pmf[s] for s in alpha}
    weights[alpha[0],] += EPSILON
    weights[alpha[-1],] -= EPSILON
    return Pmf([alpha], weights)


def _reader_systems() -> list[System]:
    rng = random.Random(41)
    systems = []
    for alpha in (PM, (0, 1), (0, 1, 2)):
        # rough 2x2 paired systems, and a1 of a 1x3 one in three contexts
        for m, n in ((2, 2), (2, 2), (1, 3)):
            systems.append(_paired_system(m, n, alpha, lambda i, j: rough_pmf(rng, [alpha] * 2)))
        # one property in one and two contexts, and two connections that
        # agree but for EPSILON moved between two symbols
        for k in (1, 2):
            systems.append(_one_property([rough_pmf(rng, [alpha]) for _ in range(k)]))
        base = rough_pmf(rng, [alpha])
        systems.append(_one_property([base, _moved(base)]))
    # a +/-1 property in one to five contexts: both median parities
    for k in range(1, 6):
        systems.append(_one_property([rough_pmf(rng, [PM]) for _ in range(k)]))
    # one bunch with 2500-digit denominators
    big = 10 ** 2499
    huge = {(1, 1): F(1, big + 7), (1, -1): F(2, big + 9), (-1, 1): F(3, big + 13)}
    huge[-1, -1] = 1 - sum(huge.values())
    systems.append(_paired_system(2, 2, PM, lambda i, j: Pmf([PM, PM], huge) if i == j == 1
                                  else rough_pmf(rng, [PM, PM])))
    return systems


def _reference(sysd: System, pid: str):
    """pid's marginals by Pmf.marginal and, in Fraction arithmetic, its
    delta_p closed form (None where delta_p needs its LP), 1 minus the
    maximal coupling probability of its connection, and its largest
    pairwise total variation distance."""
    alpha = sysd.property(pid).alphabet
    margs = [sysd.bunch(cid).marginal([sysd.context(cid).properties.index(pid)])
             for cid in sysd.contexts_of[pid]]
    w = [[m[s] for s in alpha] for m in margs]
    unmatched = 1 - sum(map(min, *w)) if len(w) > 1 else F(0)
    tv = max((1 - sum(map(min, a, b)) for a, b in itertools.combinations(w, 2)), default=F(0))
    if is_plus_minus(alpha):
        means = sorted(m[1] - m[-1] for m in margs)
        floor = sum(abs(x - means[(len(means) - 1) // 2]) for x in means) / 2
    else:
        floor = unmatched if len(w) <= 2 else None
    return margs, floor, unmatched, tv


def test_integer_reader_matches_a_fraction_reference_and_the_lps():
    lp_floors = 0
    for sysd in _reader_systems():
        report = consistency_report(sysd)
        present = cbd = F(0)
        for p in sysd.properties:
            margs, floor, unmatched, tv = _reference(sysd, p.id)
            assert connection_of(sysd, p.id).marginals == tuple(margs)
            value = delta_p_via_lp(sysd, p.id).value
            assert delta_p(sysd, p.id).value == value
            assert floor in (None, value)
            lp_floors += floor is None
            if 1 < len(margs) <= 4:  # oracle.build_max_coupling_lp's cap
                assert 1 + solve_certified(build_max_coupling_lp(margs)).objective == unmatched
                assert tv == max(1 + solve_certified(build_max_coupling_lp(pair)).objective
                                 for pair in itertools.combinations(margs, 2))
            assert report.max_tv[p.id] == tv
            present += value
            cbd += unmatched
        assert delta0_present(sysd) == present
        assert delta0_cbd(sysd) == cbd
        assert report.consistent == (not any(report.max_tv.values()))
    assert lp_floors == 2  # a1 of the (0, 1) and three-symbol 1x3 systems


@pytest.mark.parametrize("alpha", [PM, (0, 1), (0, 1, 2)])
def test_connections_apart_by_epsilon_are_not_consistent(alpha):
    base = rough_pmf(random.Random(len(alpha)), [alpha])
    sysd = _one_property([base, _moved(base)])
    report = consistency_report(sysd)
    assert not report.consistent
    assert report.max_tv == {"p": EPSILON}
    assert delta0_cbd(sysd) == delta0_present(sysd) == delta_p(sysd, "p").value == EPSILON
    assert max_coupling_probability(connection_of(sysd, "p").marginals) == 1 - EPSILON


def test_median_binary_examples():
    r = median_binary([F(0), F(0), F(1), F(-1)])
    assert (r.lo, r.hi, r.delta_p) == (0, 0, 1)
    r = median_binary([F(1, 2)])
    assert (r.lo, r.hi, r.delta_p) == (F(1, 2), F(1, 2), 0)
    r = median_binary([F(-1), F(1)])
    assert (r.lo, r.hi, r.delta_p) == (-1, 1, 1)
    assert r.midpoint == 0


def test_median_interval_attains_same_value():
    r = median_binary([F(-1), F(1)])
    for q in (F(-1), F(-1, 3), F(0), F(1, 2), F(1)):
        assert sum(abs(m - q) for m in (F(-1), F(1))) / 2 == r.delta_p


def test_median_rejects_out_of_range():
    with pytest.raises(MeanOutOfRange):
        median_binary([F(3, 2)])
    with pytest.raises(MeanOutOfRange):
        median_binary([])


# ---------------------------------------------------------------------------
# cyclic-2 and per-context minima
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rho", [F(-1), F(-1, 2), F(0), F(1, 3), F(1)])
def test_cyclic2_against_perfect_correlation(rho):
    q = BinaryStats(F(0), F(0), rho)
    r = BinaryStats(F(0), F(0), F(1))
    assert cyclic2_min_partial(q, r) == abs(rho - 1) / 2


def test_cyclic2_identity():
    s = BinaryStats(F(1, 4), F(-1, 3), F(1, 5))
    assert cyclic2_min_partial(s, s) == 0


def test_cyclic2_point_mass_case():
    q = BinaryStats(F(0), F(0), F(0))
    r = BinaryStats(F(1), F(-1), F(-1))
    assert cyclic2_min_partial(q, r) == 1


def test_closed_forms_match_their_lps_on_contextual_cyclic_systems():
    # Rank-4 to rank-6 cyclic systems at lambda = 3/4 with random noise:
    # the median floor against its LP for every property, and the cyclic-2
    # minimum against its transport LP for neighbouring contexts' bunches,
    # in selftest's argument order.  12 of the 30 systems are contextual:
    # all ten of rank 4, two of rank 5, none of rank 6.
    contextual = 0
    for n in (4, 5, 6):
        for seed in range(10):
            sysd = cyclic_system(n, seed, F(3, 4))
            contextual += measure(sysd, "present").measure > 0
            for p in sysd.properties:
                assert delta_p(sysd, p.id).value == delta_p_via_lp(sysd, p.id).value
            stats = [BinaryStats.from_pmf(sysd.bunch(c.id)) for c in sysd.contexts]
            for q, r in zip(stats, stats[1:] + stats[:1]):
                lp = coupling_mismatch_lp(r.to_pmf(), q.to_pmf())
                assert cyclic2_min_partial(q, r) == solve_certified(lp).objective
    assert contextual >= 12


def test_binary_stats_realizability():
    with pytest.raises(UnrealizableStats):
        BinaryStats(F(1), F(1), F(-1))  # both always +1 but anticorrelated
    with pytest.raises(MeanOutOfRange):
        BinaryStats(F(2), F(0), F(0))


def test_binary_stats_pmf_round_trip():
    s = BinaryStats(F(1, 4), F(-1, 2), F(1, 8))
    assert BinaryStats.from_pmf(s.to_pmf()) == s


def test_per_context_identity_coupling():
    sysd = disjoint_support_system()
    q = joint_pmf(F(1))  # identical to bunch c1
    assert per_context_min_delta(sysd, q, "c1") == 0


@pytest.mark.parametrize("rho", [F(-1), F(0), F(2, 3), F(1)])
def test_per_context_disjoint_example_values(rho):
    sysd = disjoint_support_system()
    q = joint_pmf(rho)
    # point-mass context: both marginal gaps are 1, dominating the correlation gap
    assert per_context_min_delta(sysd, q, "c3") == 1
    # perfectly correlated uniform context: only the correlation gap counts
    assert per_context_min_delta(sysd, q, "c1") == (1 - rho) / 2


def test_per_context_rejects_wrong_joint_shape():
    sysd = disjoint_support_system()
    with pytest.raises(ShapeMismatch):
        per_context_min_delta(sysd, pmf_from_mean(F(0)), "c1")


def test_per_context_lp_equals_closed_form():
    rng = random.Random(9)
    sysd = disjoint_support_system()
    for _ in range(20):
        q = random_pmf(rng, [PM, PM])
        for cid in ("c1", "c2", "c3", "c4"):
            fast = per_context_min_delta(sysd, q, cid)
            via_lp = solve_certified(coupling_mismatch_lp(sysd.bunch(cid), q)).objective
            assert fast == via_lp


def test_min_mismatch_symmetry():
    rng = random.Random(10)
    for _ in range(20):
        a = random_pmf(rng, [PM, PM])
        b = random_pmf(rng, [PM, PM])
        assert min_mismatch(a, b) == min_mismatch(b, a)


def test_coupling_program_rejects_name_delimiters_in_bare_pmfs():
    a = Pmf([("a,b", "a"), ("c", "b,c")], {("a,b", "c"): F(1, 2), ("a", "b,c"): F(1, 2)})
    with pytest.raises(ValidationError, match="','"):
        coupling_mismatch_lp(a, a)
    with pytest.raises(ValidationError):
        min_mismatch(a, a)
    for bad in " ;|[]":
        b = Pmf([("x", "y" + bad)], {("x",): 1})
        with pytest.raises(ValidationError):
            coupling_mismatch_lp(b, b)


def test_coupling_program_rejects_symbols_that_print_alike_in_bare_pmfs():
    clash = Pmf([(1, "1"), PM], {(1, 1): F(1, 2), ("1", -1): F(1, 2)})
    with pytest.raises(ValidationError, match="print alike"):
        coupling_mismatch_lp(clash, clash)
    with pytest.raises(ValidationError, match="print alike"):
        min_mismatch(clash, clash)


def test_bunch_set_distance_is_a_metric():
    rng = random.Random(11)
    for trial in range(15):
        systems = [
            random_system(SystemShape(2, 2, consistent=False, seed=100 * trial + k))
            for k in range(3)
        ]
        a, b, c = systems
        dab = bunch_set_distance(a, b)
        dba = bunch_set_distance(b, a)
        dac = bunch_set_distance(a, c)
        dcb = bunch_set_distance(c, b)
        assert dab == dba >= 0
        assert dab <= dac + dcb  # triangle inequality
    # zero iff the bunch distributions coincide
    s = random_system(SystemShape(2, 2, consistent=False, seed=3))
    assert bunch_set_distance(s, s) == 0
    t = random_system(SystemShape(2, 2, consistent=False, seed=4))
    if any(s.bunch(c.id) != t.bunch(c.id) for c in s.contexts):
        assert bunch_set_distance(s, t) > 0
