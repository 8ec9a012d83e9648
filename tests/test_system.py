import itertools
import random
import re
from fractions import Fraction as F

import pytest

from contextuality.errors import (
    AlphabetMismatch,
    DuplicateOutcome,
    EmptyContext,
    InvalidPosition,
    NegativeWeight,
    NonBinaryAlphabet,
    NonNormalizedPmf,
    UnknownProperty,
    ValidationError,
)
from contextuality.analytic import (
    delta0_cbd,
    delta_p,
    delta_p_via_lp,
    max_coupling_probability,
    tv_distance,
)
from contextuality.examples import disjoint_support_system, pr_box
from contextuality.oracle import SystemShape, random_pmf, random_system
from contextuality.system import (
    Context,
    Pmf,
    Property,
    System,
    connection_of,
    consistency_report,
    expectation,
    marginal,
    product_expectation,
    _bounded,
    _id_list,
    _quoted,
    _shown,
    validate_system,
)

PM = (1, -1)


def test_validate_2x2_system():
    sysd = pr_box()
    assert len(sysd.properties) == 4
    assert len(sysd.contexts) == 4
    assert [p.id for p in sysd.properties] == ["a1", "a2", "b1", "b2"]
    assert [c.id for c in sysd.contexts] == ["a1b1", "a1b2", "a2b1", "a2b2"]


def test_validate_rejects_non_normalized_bunch():
    with pytest.raises(NonNormalizedPmf):
        Pmf([PM], {(1,): F(49, 100), (-1,): F(1, 2)})


def test_validate_rejects_unknown_property():
    props = [Property("a1", PM), Property("a2", PM)]
    ctx = Context("c", ("a1", "a3"))
    uniform = Pmf([PM, PM], {(s, t): F(1, 4) for s in PM for t in PM})
    with pytest.raises(UnknownProperty):
        validate_system(props, [ctx], {"c": uniform})


def test_validate_rejects_negative_weight():
    with pytest.raises(NegativeWeight):
        Pmf([PM], {(1,): F(3, 2), (-1,): F(-1, 2)})


def test_validate_rejects_duplicate_outcome():
    with pytest.raises(DuplicateOutcome):
        Pmf([PM], [((1,), F(1, 2)), ((1,), F(1, 4)), ((-1,), F(1, 4))])


def test_validate_rejects_empty_context():
    with pytest.raises(EmptyContext):
        Context("c", ())


def test_validate_rejects_unused_property():
    props = [Property("a1", PM), Property("a2", PM)]
    ctx = Context("c", ("a1",))
    with pytest.raises(ValidationError):
        validate_system(props, [ctx], {"c": Pmf([PM], {(1,): F(1)})})


@pytest.mark.parametrize("ch", list(",;|[]"))
def test_validate_rejects_name_delimiters(ch):
    # these characters delimit ids and symbols in LP variable names, so
    # they would let two different columns share a name
    for make in (lambda: Property(f"p{ch}", PM),
                 lambda: Property("p", ("u", f"v{ch}")),
                 lambda: Context(f"c{ch}", ("p",))):
        with pytest.raises(ValidationError, match=re.escape(f"contains {ch!r}")):
            make()


def test_validate_rejects_symbols_that_print_alike():
    # 1 and '1' would both be labelled "1" in variable names
    for alphabet in [(1, "1"), ("a", 2, "2"), (F(1, 2), "1/2")]:
        with pytest.raises(ValidationError, match="print alike"):
            Property("p", alphabet)


def test_validate_rejects_float_weights():
    with pytest.raises(ValidationError):
        Pmf([PM], {(1,): 0.5, (-1,): 0.5})


def test_bunch_alphabet_must_match_context():
    props = [Property("a1", PM), Property("a2", (0, 1))]
    ctx = Context("c", ("a1", "a2"))
    wrong = Pmf([PM, PM], {(s, t): F(1, 4) for s in PM for t in PM})
    with pytest.raises(AlphabetMismatch):
        validate_system(props, [ctx], {"c": wrong})


def test_marginal_symmetric_pair():
    pmf = Pmf([PM, PM], {(1, 1): F(1, 2), (-1, -1): F(1, 2)})
    assert marginal(pmf, [0]) == Pmf([PM], {(1,): F(1, 2), (-1,): F(1, 2)})


def test_marginal_point_mass():
    pmf = Pmf([PM, PM], {(1, -1): F(1)})
    assert marginal(pmf, [1]) == Pmf([PM], {(-1,): F(1)})


def test_marginal_forced():
    pmf = Pmf([PM, PM], {(1, 1): F(3, 4), (1, -1): F(1, 4)})
    assert marginal(pmf, [0]) == Pmf([PM], {(1,): F(1)})


def test_marginal_invalid_position():
    pmf = Pmf([PM, PM], {(1, 1): F(1)})
    with pytest.raises(InvalidPosition):
        marginal(pmf, [2])
    with pytest.raises(InvalidPosition):
        marginal(pmf, [])
    with pytest.raises(InvalidPosition):
        marginal(pmf, [0, 0])


def test_marginal_idempotent():
    pmf = Pmf([PM, PM, PM], {(1, 1, 1): F(1, 4), (1, -1, 1): F(1, 4),
                             (-1, 1, -1): F(1, 2)})
    once = pmf.marginal([0, 2])
    assert once.marginal([0, 1]) == once


def test_connection_disjoint_example_means():
    sysd = disjoint_support_system()
    conn = connection_of(sysd, "p1")
    assert conn.contexts == ("c1", "c2", "c3", "c4")
    assert [expectation(m) for m in conn.marginals] == [0, 0, 1, -1]
    conn2 = connection_of(sysd, "p2")
    assert [expectation(m) for m in conn2.marginals] == [0, 0, 1, -1]


def test_connection_pr_box_uniform():
    sysd = pr_box()
    conn = connection_of(sysd, "a1")
    assert len(conn.marginals) == 2
    assert conn.marginals[0] == conn.marginals[1]
    assert expectation(conn.marginals[0]) == 0


def test_connection_single_context():
    props = [Property("p", PM), Property("q", PM)]
    ctx = Context("c", ("p", "q"))
    uniform = Pmf([PM, PM], {(s, t): F(1, 4) for s in PM for t in PM})
    sysd = System(props, [ctx], {"c": uniform})
    conn = connection_of(sysd, "p")
    assert len(conn.marginals) == 1


def test_connection_unknown_property():
    with pytest.raises(UnknownProperty):
        connection_of(pr_box(), "nope")


def _mixed_system(seed, alphabets, contexts):
    """Random bunches (inconsistent in general) over the given contexts."""
    rng = random.Random(seed)
    props = [Property(pid, alpha) for pid, alpha in alphabets.items()]
    ctxs = [Context(cid, pids) for cid, pids in contexts.items()]
    bunches = {c.id: random_pmf(rng, [alphabets[pid] for pid in c.properties])
               for c in ctxs}
    return System(props, ctxs, bunches)


def _connection_systems():
    systems = [pr_box(), disjoint_support_system()]
    for seed, consistent in itertools.product(range(3), (False, True)):
        systems.append(random_system(SystemShape(2, 2, alphabet_size=3,
                                                 consistent=consistent, seed=seed)))
        # a1 lies in three contexts
        systems.append(random_system(SystemShape(1, 3, alphabet_size=3,
                                                 consistent=consistent, seed=seed)))
        systems.append(random_system(SystemShape(2, 2, consistent=consistent, seed=seed)))
    for seed in range(3):
        # string symbols, contexts of one to three properties
        systems.append(_mixed_system(
            seed, {"s": ("x", "y", "z"), "t": ("u", "v"), "r": ("lo", "mid", "hi", "top")},
            {"c1": ("s", "t"), "c2": ("t", "r", "s"), "c3": ("r",), "c4": ("s", "r")}))
        # a binary property declared as -1 1, in three contexts
        systems.append(_mixed_system(
            seed, {"p": (-1, 1), "q": (1, -1)},
            {"c1": ("p", "q"), "c2": ("q", "p"), "c3": ("p",)}))
    return systems


def test_connection_marginals_rederivable():
    # re-marginalizing each bunch reproduces the reported connection
    for sysd in _connection_systems():
        for p in sysd.properties:
            conn = connection_of(sysd, p.id)
            assert conn.contexts == sysd.contexts_of[p.id]
            for cid, marg in zip(conn.contexts, conn.marginals):
                ctx = sysd.context(cid)
                pos = ctx.properties.index(p.id)
                assert sysd.bunch(cid).marginal([pos]) == marg
                assert sum((w for _, w in marg.items()), F(0)) == 1


def test_connection_readers_match_pmf_route():
    # consistency, cbd floors and delta_p against the marginal-Pmf definitions
    for sysd in _connection_systems():
        rep = consistency_report(sysd)
        cbd_floor = F(0)
        for p in sysd.properties:
            margs = [sysd.bunch(cid).marginal([sysd.context(cid).properties.index(p.id)])
                     for cid in sysd.contexts_of[p.id]]
            tvs = [tv_distance(a, b) for a, b in itertools.combinations(margs, 2)]
            assert rep.max_tv[p.id] == max(tvs, default=F(0))
            if len(margs) >= 2:
                cbd_floor += 1 - max_coupling_probability(margs)
            assert delta_p(sysd, p.id).value == delta_p_via_lp(sysd, p.id).value
        assert rep.consistent == all(v == 0 for v in rep.max_tv.values())
        assert delta0_cbd(sysd) == cbd_floor


def test_consistency_pr_box():
    rep = consistency_report(pr_box())
    assert rep.consistent
    assert all(v == 0 for v in rep.max_tv.values())


def test_consistency_disjoint_example():
    rep = consistency_report(disjoint_support_system())
    assert not rep.consistent
    # point masses at +1 and -1 are at total variation distance 1
    assert rep.max_tv == {"p1": F(1), "p2": F(1)}


def test_consistency_single_context():
    props = [Property("p", PM)]
    sysd = System(props, [Context("c", ("p",))], {"c": Pmf([PM], {(1,): F(1)})})
    rep = consistency_report(sysd)
    assert rep.consistent
    assert rep.max_tv["p"] == 0


def test_consistency_flag_iff_all_tv_zero():
    for sysd in (pr_box(), disjoint_support_system()):
        rep = consistency_report(sysd)
        assert rep.consistent == all(v == 0 for v in rep.max_tv.values())


def test_expectation():
    assert expectation(Pmf([PM], {(1,): F(3, 4), (-1,): F(1, 4)})) == F(1, 2)


def test_product_expectation_perfect_correlation():
    pmf = Pmf([PM, PM], {(1, 1): F(1, 2), (-1, -1): F(1, 2)})
    assert product_expectation(pmf) == 1


def test_product_expectation_perfect_anticorrelation():
    pmf = Pmf([PM, PM], {(1, -1): F(1, 2), (-1, 1): F(1, 2)})
    assert product_expectation(pmf) == -1


def test_expectation_rejects_non_binary():
    with pytest.raises(NonBinaryAlphabet):
        expectation(Pmf([(0, 1, 2)], {(0,): F(1)}))
    with pytest.raises(NonBinaryAlphabet):
        product_expectation(Pmf([PM], {(1,): F(1)}))


def test_equality_hash_and_repr():
    a = Pmf([PM], {(1,): F(1, 3), (-1,): F(2, 3)})
    b = Pmf([PM], [((-1,), F(2, 3)), ((1,), F(1, 3))])
    assert a == b and hash(a) == hash(b)
    assert (a == 1) is False
    assert repr(a) == "Pmf({(1,): 1/3, (-1,): 2/3})"
    assert (pr_box() == 1) is False
    assert repr(pr_box()) == "System(4 properties, 4 contexts)"


def test_pmf_items_lexicographic():
    pmf = Pmf([PM, PM], {(s, t): F(1, 4) for s in PM for t in PM})
    assert [o for o, _ in pmf.items()] == [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def test_messages_quote_a_token_of_at_most_60_characters_whole():
    assert _quoted("x" * 60) == repr("x" * 60)
    assert _quoted("x" * 61) == f"{'x' * 20!r}... (61 characters)"
    assert _quoted(("a", "b")) == "('a', 'b')"
    # id lists past three ids by their first three and their count
    assert _id_list({"b", "a", "c"}) == "['a', 'b', 'c']"
    assert _id_list(f"p{i}" for i in range(4)) == "['p0', 'p1', 'p2', ...] (4 ids)"
    assert _id_list(["x" * 61]) == f"[{'x' * 20!r}... (61 characters)]"
    # a message's tokens of more than 60 characters, bare or quoted
    assert _bounded(f"a {'x' * 60} '{'y' * 60}'") == f"a {'x' * 60} '{'y' * 60}'"
    assert _bounded(f"a {'x' * 61}: '{'y y' * 21}'") == (
        f"a {'x' * 20!r}... (62 characters) {('y y' * 21)[:20]!r}... (63 characters)")
    assert _bounded(f"context's {'y ' * 30}'z'") == f"context's {'y ' * 30}'z'"
    # numbers by their digit counts past 60 characters, the sign and slash counted
    assert _shown(-10**58) == str(-10**58)
    assert _shown(-10**59) == "a 60-digit integer"
    assert _shown(F(10**27, 10**30 + 1)) == f"{10**27}/{10**30 + 1}"
    assert _shown(F(10**28, 10**30 + 1)) == "a 29-digit numerator over a 31-digit denominator"
    assert _shown(F(10**5000, 3)) == "a 5001-digit numerator over a 1-digit denominator"
