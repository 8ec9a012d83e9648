import copy
import dataclasses
import pickle
import random
import sys
import threading
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import pytest

from contextuality import builders
from contextuality import lp as lp_module
from contextuality.analytic import BinaryStats, delta0_present, per_context_min_delta
from contextuality.builders import (
    build_cbd_lp,
    build_fixed_model_lp,
    build_lp,
    build_np_inside_lp,
    build_np_lp,
    build_present_lp,
    measure,
    problem_sizes,
)
from contextuality.errors import (
    AlphabetTooLarge,
    ContextualityError,
    Infeasible,
    InconsistentlyConnected,
    ModelNotConsistentlyConnected,
    ShapeMismatch,
    ValidationError,
)
from contextuality.examples import ab_system, disjoint_support_system, epr_model, pr_box
from contextuality.io import dump_lp
from contextuality.lp import (
    LinearProgram,
    LpSolution,
    _certificate_matrix,
    solve_certified,
    solve_exact,
    verify_certificate,
)
from contextuality.oracle import (
    FLOAT_TOL,
    SystemShape,
    cyclic_system,
    noisy_pr_box,
    random_pmf,
    random_system,
    solve_float,
)
from contextuality.system import Context, Pmf, Property, System

PM = (1, -1)


def test_present_lp_dimensions_2x2():
    lp = build_present_lp(pr_box())
    assert lp.column_count == 80
    assert lp.row_count == 32


def test_present_lp_dimensions_disjoint():
    lp = build_present_lp(disjoint_support_system())
    assert lp.column_count == 4 + 4 * 16
    assert lp.row_count == 32


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (2, 3)])
def test_present_lp_dimension_formula(m, n):
    sysd = random_system(SystemShape(m, n, consistent=False, seed=17))
    lp = build_present_lp(sysd)
    assert lp.column_count == 2 ** (m + n) + 16 * m * n
    assert lp.row_count == 8 * m * n


def test_present_lp_disjoint_optimum_is_three():
    lp = build_present_lp(disjoint_support_system())
    sol = solve_exact(lp)
    assert sol.status == "optimal"
    assert sol.objective == 3
    assert verify_certificate(lp, sol)


def test_cbd_lp_dimensions_2x2():
    lp = build_cbd_lp(pr_box())
    assert lp.column_count == 256
    assert lp.row_count == 16


def test_cbd_single_context_cost_is_zero():
    uniform = Pmf([PM, PM], {(s, t): F(1, 4) for s in PM for t in PM})
    from contextuality.system import Context

    sysd = System(
        [Property("p", PM), Property("q", PM)],
        [Context("c", ("p", "q"))],
        {"c": uniform},
    )
    lp = build_cbd_lp(sysd)
    assert all(c == 0 for c in lp.cost)
    assert measure(sysd, "cbd").measure == 0


def test_cbd_pr_box():
    rep = measure(pr_box(), "cbd")
    assert rep.delta == 1
    assert rep.delta0 == 0
    assert rep.measure == 1
    assert not rep.noncontextual


def test_np_lp_dimensions():
    lp = build_np_lp(pr_box())
    assert lp.column_count == 2 ** (2 + 2 + 1)
    assert lp.row_count == 16


def test_np_requires_consistent_connectedness():
    with pytest.raises(InconsistentlyConnected):
        build_np_lp(disjoint_support_system())


def test_np_zero_on_noncontextual_system():
    z = F(0)
    sysd = ab_system(2, 2, {(i, j): BinaryStats(z, z, z) for i in (1, 2) for j in (1, 2)})
    assert measure(sysd, "np").measure == 0


def test_np_pr_box_golden():
    # negative mass of the PR box; frozen from the exact solver and confirmed
    # by the float oracle in the acceptance suite
    assert measure(pr_box(), "np").measure == F(1, 2)


def test_np_inside_matches_np_on_consistent_systems():
    for seed in (0, 1, 2):
        sysd = random_system(SystemShape(2, 2, consistent=True, seed=seed))
        assert measure(sysd, "np").measure == measure(sysd, "np_inside").measure


def test_np_inside_infeasible_when_no_optimal_signed_joint():
    # every context carries the full property set, so the signed joint must
    # itself be proper; no proper joint attains the floor distance here
    with pytest.raises(Infeasible):
        measure(disjoint_support_system(), "np_inside")


def test_np_inside_lp_has_slack_row():
    sysd = pr_box()
    lp = build_np_inside_lp(sysd, delta0_present(sysd))
    assert lp.variables[-1] == "slack"
    assert lp.row_count == 32 + 1


def test_fixed_model_identity():
    sysd = random_system(SystemShape(2, 2, consistent=True, seed=5))
    rep = measure(sysd, "fixed_model", model=sysd.bunches)
    assert rep.delta == rep.delta0
    assert rep.measure == 0
    assert rep.noncontextual


@pytest.mark.parametrize("rho", [F(-1), F(-1, 2), F(0), F(1, 2), F(1)])
def test_fixed_model_disjoint_vs_uniform_model(rho):
    sysd = disjoint_support_system()
    model_pmf = BinaryStats(F(0), F(0), rho).to_pmf()
    model = {cid: model_pmf for cid in ("c1", "c2", "c3", "c4")}
    rep = measure(sysd, "fixed_model", model=model)
    assert rep.delta == 3
    assert rep.delta0 == 2
    assert rep.measure == 1


def test_ab_system_requires_exactly_the_grid_pairs():
    z = BinaryStats(F(0), F(0), F(0))
    stats = {(1, 1): z, (1, 2): z, (2, 1): z, (3, 1): z}
    with pytest.raises(ValidationError, match=r"missing \[\(2, 2\)\], extra \[\(3, 1\)\]"):
        ab_system(2, 2, stats)


def test_fixed_model_rejects_inconsistent_model():
    sysd = disjoint_support_system()
    with pytest.raises(ModelNotConsistentlyConnected):
        build_fixed_model_lp(sysd, disjoint_support_system().bunches)


def test_fixed_model_rejects_wrong_contexts():
    with pytest.raises(ShapeMismatch):
        build_fixed_model_lp(pr_box(), disjoint_support_system().bunches)


def test_fixed_model_equals_per_context_sum_for_joint_models():
    # a model induced by a joint scores exactly the per-context decomposition
    rng = random.Random(21)
    sysd = random_system(SystemShape(2, 2, consistent=False, seed=33))
    alphabets = [p.alphabet for p in sysd.properties]
    for _ in range(5):
        q_joint = random_pmf(rng, alphabets)
        model = {}
        for ctx in sysd.contexts:
            pos = [sysd.property_index[p] for p in ctx.properties]
            model[ctx.id] = q_joint.marginal(pos)
        lp = build_fixed_model_lp(sysd, model)
        sol = solve_exact(lp)
        assert sol.status == "optimal"
        total = sum(
            (per_context_min_delta(sysd, q_joint, c.id) for c in sysd.contexts),
            F(0),
        )
        assert sol.objective == total


def test_measure_reports_are_certified_with_witness():
    rep = measure(pr_box(), "present")
    assert rep.certified
    assert rep.witness
    assert all(v > 0 for v in rep.witness.values())
    q_mass = sum((v for k, v in rep.witness.items() if k.startswith("q[")), F(0))
    assert q_mass == 1


def test_measure_monotonicity_delta_at_least_delta0():
    for seed in range(10):
        sysd = random_system(SystemShape(2, 2, consistent=bool(seed % 2), seed=seed))
        for method in ("present", "cbd"):
            rep = measure(sysd, method)
            assert rep.delta >= rep.delta0
            assert rep.measure >= 0
            assert rep.noncontextual == (rep.measure == 0)


def test_problem_sizes_values():
    by_method = {p.method: p for p in problem_sizes(2, 2)}
    assert by_method["present"].variable_count == 80
    assert by_method["present"].equality_count == 32
    assert by_method["np"].variable_count == 32
    assert by_method["np"].equality_count == 16
    assert by_method["cbd"].variable_count == 256
    assert by_method["cbd"].equality_count == 16
    assert all(p.inequality_count == 0 for p in by_method.values())

    small = {p.method: p for p in problem_sizes(1, 1)}
    assert small["cbd"].variable_count == 4
    assert small["np"].variable_count == 8
    assert small["present"].variable_count == 20

    big = {p.method: p for p in problem_sizes(3, 3)}
    assert big["present"].variable_count == 2**6 + 144 == 208


def test_problem_sizes_crossover():
    # at 4x4 the approximating-system program needs no more variables than
    # the signed-joint one and far fewer than the full coupling
    s = {p.method: p for p in problem_sizes(4, 4)}
    assert s["present"].variable_count <= s["np"].variable_count < s["cbd"].variable_count
    s = {p.method: p for p in problem_sizes(4, 5)}
    assert s["present"].variable_count < s["np"].variable_count < s["cbd"].variable_count


JOINT_OVER_CAP = r"^joint over all properties has 16 atoms \(cap 8\)$"


def test_alphabet_cap(monkeypatch):
    monkeypatch.setattr(builders, "ATOM_CAP", 8)
    with pytest.raises(AlphabetTooLarge, match=JOINT_OVER_CAP):
        build_present_lp(pr_box())
    # the present program's 16-atom joint fits; the cbd coupling's 256 atoms do not
    monkeypatch.setattr(builders, "ATOM_CAP", 100)
    assert build_present_lp(pr_box()).column_count == 80
    with pytest.raises(AlphabetTooLarge, match=r"^coupling of all bunches has 256 atoms \(cap 100\)$"):
        build_cbd_lp(pr_box())


def test_unknown_method():
    with pytest.raises(ValidationError, match="unknown method 'nope'"):
        build_lp(pr_box(), "nope")
    with pytest.raises(ValidationError, match="unknown method 'nope'"):
        measure(pr_box(), "nope")
    with pytest.raises(ValidationError, match=r"unknown method 'y{20}'\.\.\. \(5000 char") as err:
        build_lp(pr_box(), "y" * 5000)
    assert len(str(err.value)) < 200
    with pytest.raises(ValidationError, match="m and n must be >= 1"):
        problem_sizes(0, 1)
    with pytest.raises(ShapeMismatch):
        build_lp(pr_box(), "fixed_model")


def relabel(sysd: System, mapping: dict) -> System:
    props = [Property(p.id, tuple(mapping[s] for s in p.alphabet)) for p in sysd.properties]
    bunches = {}
    for c in sysd.contexts:
        pmf = sysd.bunches[c.id]
        alphas = [tuple(mapping[s] for s in a) for a in pmf.alphabets]
        bunches[c.id] = Pmf(
            alphas, {tuple(mapping[s] for s in o): w for o, w in pmf.items()}
        )
    return System(props, sysd.contexts, bunches)


def test_outcome_relabeling_preserves_measures():
    # string outcomes disable every binary fast path, so this also checks
    # the LP routes against the closed forms
    mapping = {1: "u", -1: "d"}
    for sysd in (pr_box(), disjoint_support_system()):
        relabeled = relabel(sysd, mapping)
        for method in ("present", "cbd"):
            assert measure(sysd, method).measure == measure(relabeled, method).measure
    sysd = pr_box()
    relabeled = relabel(sysd, mapping)
    assert measure(sysd, "np").measure == measure(relabeled, "np").measure
    assert measure(sysd, "np_inside").measure == measure(relabeled, "np_inside").measure


def _renamed(sysd: System, rng: random.Random) -> System:
    """sysd with every id renamed, in a shuffled sorted order, and about
    half of its alphabets reversed."""
    def names(ids, prefix):
        order = rng.sample(range(len(ids)), len(ids))
        if order == sorted(order):
            order.reverse()
        return {i: f"{prefix}{k:02d}" for i, k in zip(ids, order)}

    pname = names([p.id for p in sysd.properties], "q")
    cname = names([c.id for c in sysd.contexts], "k")
    flip = {p.id for p in sysd.properties if rng.random() < 0.5}
    props = [Property(pname[p.id], p.alphabet[::-1] if p.id in flip else p.alphabet)
             for p in sysd.properties]
    contexts, bunches = [], {}
    for c in sysd.contexts:
        contexts.append(Context(cname[c.id], tuple(pname[q] for q in c.properties)))
        pmf = sysd.bunches[c.id]
        alphas = [a[::-1] if q in flip else a for q, a in zip(c.properties, pmf.alphabets)]
        bunches[cname[c.id]] = Pmf(alphas, pmf.items())
    return System(props, contexts, bunches)


def _outcome(sysd: System, method: str):
    """(delta, delta0, measure), or the type of the error measure raises."""
    try:
        rep = measure(sysd, method)
    except ContextualityError as exc:
        return type(exc)
    return rep.delta, rep.delta0, rep.measure


def test_renaming_ids_and_reversing_alphabets_preserves_measures():
    # Renaming reorders properties and contexts, and with them the columns
    # and rows of every program, so each solve takes another path.  cbd's
    # programs past 2x2 binary (4096 columns and more) are left out: each
    # solves by two phases in about a second.
    rng = random.Random(37)
    every = ("present", "np", "np_inside", "cbd")
    shaped = [(random_system(SystemShape(m, n, alphabet_size=a, consistent=c, seed=s)),
               every if (m, n, a) == (2, 2, 2) else every[:3])
              for m, n, a, seeds in ((2, 2, 2, 3), (2, 3, 2, 2), (2, 2, 3, 2))
              for c in (False, True) for s in range(seeds)]
    contextual = [(noisy_pr_box(2, 2, 0, F(3, 4)), every),
                  (noisy_pr_box(2, 3, 0, F(3, 4)), every[:3]),
                  *((cyclic_system(5, s, F(7, 8)), every) for s in range(2))]
    outcomes = set()
    for sysd, methods in [*shaped, *contextual]:
        renamed = _renamed(sysd, rng)
        for method in methods:
            outcome = _outcome(sysd, method)
            assert _outcome(renamed, method) == outcome, method
            outcomes.add("error" if isinstance(outcome, type) else outcome[2] > 0)
    assert outcomes == {"error", False, True}


def test_np_inside_inconsistent_certifies_or_raises_typed_error():
    """Programs with redundant rows: every seed gets a certified optimum that
    agrees with the float solver, or a typed error where none exists."""
    outcomes = set()
    for seed in range(40):
        sysd = random_system(SystemShape(2, 2, consistent=False, seed=seed))
        approx = solve_float(build_lp(sysd, "np_inside"))
        try:
            rep = measure(sysd, "np_inside")
        except ContextualityError:
            assert approx.status == "infeasible", seed
            outcomes.add("error")
            continue
        assert rep.certified
        assert approx.status == "optimal", seed
        assert abs(float(rep.delta) - approx.objective) <= FLOAT_TOL, seed
        outcomes.add("optimal")
    assert "optimal" in outcomes


# ---------------------------------------------------------------------------
# Shape templates: built once per shape, right-hand side filled in per call
# ---------------------------------------------------------------------------

GOLDEN = Path(__file__).resolve().parent / "golden"
ANALYZE_METHODS = ("present", "cbd", "np", "np_inside")


@pytest.fixture
def empty_cache():
    builders._cached_template.cache_clear()
    yield
    builders._cached_template.cache_clear()


def same_shape(sysd: System, seed: int) -> System:
    """`sysd` with every bunch replaced by a random one over the same alphabets."""
    rng = random.Random(seed)
    return System(sysd.properties, sysd.contexts,
                  {c.id: random_pmf(rng, sysd.bunch(c.id).alphabets) for c in sysd.contexts})


def solved(lp):
    sol = solve_exact(lp)
    return sol.status, sol.objective, sol.primal, sol.dual, sol.basis


@pytest.mark.parametrize("name,method", [
    (name, method) for name in ("prbox", "disjoint") for method in ANALYZE_METHODS
    if (name, method) != ("disjoint", "np")
])
def test_cached_template_matches_golden_and_fresh_build(empty_cache, name, method):
    sysd = pr_box() if name == "prbox" else disjoint_support_system()
    other = random_system(SystemShape(2, 2, seed=3)) if name == "prbox" else same_shape(sysd, 3)
    warm = build_lp(other, method)  # fills the cache with other data
    lp = build_lp(sysd, method)
    assert lp._template is warm._template is not None
    assert lp.rhs != warm.rhs
    assert dump_lp(lp) == (GOLDEN / f"{name}.{method}.lp").read_text(encoding="utf-8")
    got = solved(lp)
    builders._cached_template.cache_clear()
    fresh = build_lp(sysd, method)
    assert fresh._template is not lp._template
    assert dump_lp(fresh) == dump_lp(lp)
    assert solved(fresh) == got


def test_fixed_model_template_matches_golden(empty_cache):
    model = epr_model([0, 90], [180, 270]).system.bunches
    build_fixed_model_lp(random_system(SystemShape(2, 2, seed=4)), model)
    lp = build_fixed_model_lp(pr_box(), model)
    assert dump_lp(lp) == (GOLDEN / "prbox.fixed_model.lp").read_text(encoding="utf-8")


def test_templates_key_on_printed_labels(empty_cache):
    # Property accepts both alphabets and they compare equal, but names
    # print them apart, so each gets its own template.
    def system(alphabet):
        return System([Property("p", alphabet), Property("q", alphabet)],
                      [Context("c", ("p", "q"))],
                      {"c": Pmf([alphabet, alphabet], {(alphabet[0], alphabet[1]): 1})})

    ints, bools = system((1, 0)), system((True, False))
    assert ints == bools
    for method in ANALYZE_METHODS:
        a, b = build_lp(ints, method), build_lp(bools, method)
        assert a._template is not b._template
        assert any("1,0" in v for v in a.variables)
        assert all("True" not in v for v in a.variables)
        assert any("True" in v for v in b.variables)
        builders._cached_template.cache_clear()
        assert dump_lp(build_lp(bools, method)) == dump_lp(b)
        assert dump_lp(build_lp(ints, method)) == dump_lp(a)


def test_atom_cap_applies_to_cached_shapes(empty_cache, monkeypatch):
    sysd = pr_box()
    for method in ANALYZE_METHODS:
        build_lp(sysd, method)
    monkeypatch.setattr(builders, "ATOM_CAP", 8)
    with pytest.raises(AlphabetTooLarge, match=JOINT_OVER_CAP):
        build_present_lp(sysd)
    with pytest.raises(AlphabetTooLarge, match=r"^coupling of all bunches has 256 atoms \(cap 8\)$"):
        build_cbd_lp(sysd)
    with pytest.raises(AlphabetTooLarge, match=JOINT_OVER_CAP):
        build_np_lp(sysd)
    with pytest.raises(AlphabetTooLarge, match=JOINT_OVER_CAP):
        build_np_inside_lp(sysd, delta0_present(sysd))
    with pytest.raises(AlphabetTooLarge, match=JOINT_OVER_CAP):
        measure(sysd, "present")


def one_context(count: int) -> System:
    """One context over `count` binary properties, all mass on (1, ..., 1)."""
    props = [Property(f"p{i:02d}", PM) for i in range(count)]
    return System(props, [Context("c", tuple(p.id for p in props))],
                  {"c": Pmf([PM] * count, {(1,) * count: 1})})


def test_atom_cap_bounds_every_coupling_block(empty_cache, monkeypatch):
    # a 4-atom joint, and a 16-atom block w[c] coupling the bunch to it
    sysd = one_context(2)
    refused = [build_present_lp, lambda s: build_np_inside_lp(s, delta0_present(s)),
               lambda s: build_fixed_model_lp(s, s.bunches)]
    for build in refused:  # cached at the real cap first
        build(sysd)
    monkeypatch.setattr(builders, "ATOM_CAP", 8)
    for build in refused:
        with pytest.raises(AlphabetTooLarge,
                           match=r"^coupling block of context c has 16 atoms \(cap 8\)$"):
            build(sysd)
    assert build_np_lp(sysd).column_count == 8
    assert build_cbd_lp(sysd).column_count == 4


def test_np_inside_is_refused_before_its_floor(monkeypatch):
    monkeypatch.setattr(builders, "delta0_present",
                        lambda sysd: pytest.fail("the floor ran before the size gate"))
    monkeypatch.setattr(builders, "ATOM_CAP", 8)
    with pytest.raises(AlphabetTooLarge, match="coupling block of context c"):
        build_lp(one_context(2), "np_inside")


def test_atom_cap_admits_np_and_cbd_over_a_wide_context(empty_cache):
    # 11 binary properties: a 2048-atom joint, but 2048**2 atoms in w[c]
    sysd = one_context(11)
    assert build_np_lp(sysd).column_count == 2 * 2048
    assert build_cbd_lp(sysd).column_count == 2048
    block = r"^coupling block of context c has 4194304 atoms \(cap 1048576\)$"
    for method in ("present", "np_inside"):
        with pytest.raises(AlphabetTooLarge, match=block):
            build_lp(sysd, method)
    with pytest.raises(AlphabetTooLarge, match=block):
        build_fixed_model_lp(sysd, sysd.bunches)


def model_sizes(family: str, sysd: System) -> tuple[int, int, int]:
    """The size model's summed columns, rows and nonzeros of `family` on `sysd`."""
    blocks = builders._blocks(family, builders._shape_key(sysd))
    return tuple(sum(block[i] for block in blocks) for i in (2, 3, 4))


MODEL_SYSTEMS = {
    "1x3": lambda: random_system(SystemShape(1, 3, seed=1)),
    "2x2": lambda: random_system(SystemShape(2, 2, seed=2)),
    "2x3": lambda: random_system(SystemShape(2, 3, seed=3)),
    "ternary-2x2": lambda: random_system(SystemShape(2, 2, alphabet_size=3, seed=4)),
    "cyclic-4": lambda: cyclic_system(4, 0, F(3, 4), noise="white"),
}


@pytest.mark.parametrize("name", MODEL_SYSTEMS)
@pytest.mark.parametrize("family", builders.METHODS)
def test_size_model_matches_the_built_program(empty_cache, family, name):
    # Consistently connected systems, each its own model, so np and fixed_model build.
    sysd = MODEL_SYSTEMS[name]()
    lp = build_lp(sysd, family, model=sysd.bunches)
    built = (lp.column_count, lp.row_count, sum(map(len, lp.rows)))
    assert model_sizes(family, sysd) == built


def test_gate_bounds_the_whole_program(empty_cache, monkeypatch):
    # pr_box at a cap of 16: every block fits (16 atoms each, cbd's 256 aside),
    # but each program but cbd has more columns than that in all.
    sysd = pr_box()
    monkeypatch.setattr(builders, "ATOM_CAP", 16)
    columns = {"present": 80, "np": 32, "np_inside": 97, "fixed_model": 64}
    for family, count in columns.items():
        with pytest.raises(AlphabetTooLarge, match=rf"^{family} program has {count} columns \(cap 16\)$"):
            build_lp(sysd, family, model=sysd.bunches)
    with pytest.raises(AlphabetTooLarge, match=r"^coupling of all bunches has 256 atoms \(cap 16\)$"):
        build_lp(sysd, "cbd")
    monkeypatch.setattr(builders, "ATOM_CAP", 80)
    assert build_lp(sysd, "present").column_count == 80


def test_template_rows_are_read_only(empty_cache):
    for method in ANALYZE_METHODS:
        lp = build_lp(pr_box(), method)
        with pytest.raises(TypeError):
            lp.rows[0][0] = F(5)
        with pytest.raises(TypeError):
            del lp.rows[0][next(iter(lp.rows[0]))]
        with pytest.raises(TypeError):
            lp.rows[-1].update({0: F(1)})
        assert dump_lp(build_lp(pr_box(), method)) == dump_lp(lp)


def test_template_programs_copy_as_plain_programs(empty_cache):
    lp = build_lp(pr_box(), "present")
    plain = LinearProgram(lp.variables, lp.cost, tuple(map(dict, lp.rows)), lp.rhs)
    for back in (pickle.loads(pickle.dumps(lp)), copy.deepcopy(lp)):
        assert back == lp and not hasattr(back, "_template")
        assert all(type(row) is dict for row in back.rows)
        assert solved(back) == solved(plain)
    assert dataclasses.asdict(lp)["rows"] == lp.rows
    row = lp.rows[0]
    for back in (copy.copy(row), copy.deepcopy(row), pickle.loads(pickle.dumps(row))):
        assert type(back) is dict and back == row


def test_large_templates_are_not_retained(empty_cache):
    # 6561 columns and 26244 nonzeros: above the ceiling, so built per call.
    sysd = random_system(SystemShape(2, 2, alphabet_size=3, seed=0))
    lp = build_lp(sysd, "cbd")
    assert sum(map(len, lp.rows)) > builders._CACHE_MAX_NONZEROS
    assert builders._cached_template.cache_info().currsize == 0
    assert not hasattr(lp, "_template")
    build_lp(sysd, "present")
    assert builders._cached_template.cache_info().currsize == 1


def test_template_cache_is_bounded(empty_cache):
    for k in range(builders._CACHE_TEMPLATES + 5):
        sysd = System([Property(f"p{k}", PM)], [Context("c", (f"p{k}",))],
                      {"c": Pmf([PM], {(1,): 1})})
        build_present_lp(sysd)
    assert builders._cached_template.cache_info().currsize == builders._CACHE_TEMPLATES


def test_second_same_shape_measure_builds_nothing(empty_cache, monkeypatch):
    first = random_system(SystemShape(2, 2, consistent=True, seed=5))
    second = random_system(SystemShape(2, 2, consistent=True, seed=6))
    model = epr_model([0, 90], [180, 270]).system.bunches
    methods = ANALYZE_METHODS + ("fixed_model",)
    expected = {}
    for method in methods:  # each from a freshly built template
        builders._cached_template.cache_clear()
        expected[method] = measure(second, method, model=model)
    builders._cached_template.cache_clear()
    for method in methods:
        measure(first, method, model=model)

    def refuse(*args, **kwargs):
        raise AssertionError("a builder block ran for a cached shape")

    for name in ("_coupling_block", "_fibers", "_joint_atoms", "_cbd_template"):
        monkeypatch.setattr(builders, name, refuse)
    for method in methods:
        assert measure(second, method, model=model) == expected[method]


def test_certificate_never_reads_the_solver_form(empty_cache):
    # Poisoning the solver's form leaves every verdict as it was, on the
    # np_inside and on the cbd program, both from a cached template.
    for method in ("np_inside", "cbd"):
        builders._cached_template.cache_clear()
        lp = build_lp(pr_box(), method)
        sol = solve_exact(lp)
        template = lp._template
        assert template.solver is not None
        step = F(1, 64)
        certificates = [sol, dataclasses.replace(sol, objective=sol.objective + step)]
        for k in range(len(sol.dual)):
            dual = list(sol.dual)
            dual[k] += step
            certificates.append(dataclasses.replace(sol, dual=tuple(dual)))
        verdicts = [verify_certificate(lp, s) for s in certificates]
        assert verdicts[0] and not all(verdicts)
        template.solver = "not a solver form"
        assert [verify_certificate(lp, s) for s in certificates] == verdicts
        # Its matrix is the one a plain program with the same rows gives.
        plain = LinearProgram(lp.variables, lp.cost, tuple(map(dict, lp.rows)), lp.rhs)
        assert template.certificate == _certificate_matrix(plain)
    # A template above the cache ceiling is still not kept once solved.
    ternary_system = random_system(SystemShape(2, 2, alphabet_size=3, seed=0))
    ternary = build_lp(ternary_system, "cbd")
    assert model_sizes("cbd", ternary_system)[2] == 26244 == sum(map(len, ternary.rows))
    assert solve_exact(ternary).status == "optimal"
    assert not hasattr(ternary, "_template")
    assert builders._cached_template.cache_info().currsize == 1
    assert build_lp(pr_box(), "cbd")._template is template


def test_template_cache_under_threads(empty_cache):
    # More threads than cores share one cache that keeps evicting: every
    # program stays exact and the cache stays within its bound.
    half = F(1, 2)
    systems = [System([Property(f"p{k}", PM), Property("q", PM)], [Context("c", (f"p{k}", "q"))],
                      {"c": Pmf([PM, PM], {(1, 1): half, (-1, -1): half})})
               for k in range(builders._CACHE_TEMPLATES + 4)]
    expected = [dump_lp(build_present_lp(s)) for s in systems]
    solutions = []
    for s in systems:  # each from an empty cache
        builders._cached_template.cache_clear()
        solutions.append(solve_certified(build_present_lp(s)))
    builders._cached_template.cache_clear()
    errors = []
    barrier = threading.Barrier(4)

    def work(seed):
        rng = random.Random(seed)  # about one call in five misses and evicts
        try:
            # All four threads make the first solve of one fresh template at once.
            for k, s in enumerate(systems[:8]):
                barrier.wait()
                if seed == 0:
                    builders._cached_template.cache_clear()
                    assert build_present_lp(s)._template.start is None
                barrier.wait()
                if solve_certified(build_present_lp(s)) != solutions[k]:
                    errors.append(k)
            for r in range(6000):
                k = rng.randrange(len(systems))
                lp = build_present_lp(systems[k])
                if r % 10 == 0 and (dump_lp(lp) != expected[k]
                                    or solve_certified(lp) != solutions[k]):
                    errors.append(k)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)
            barrier.abort()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert builders._cached_template.cache_info().currsize <= builders._CACHE_TEMPLATES


START_SYSTEMS = {
    "prbox": pr_box, "disjoint": disjoint_support_system,
    **{f"{m}x{n}": (lambda m=m, n=n: random_system(SystemShape(m, n, consistent=False, seed=m)))
       for m, n in ((1, 3), (2, 2), (2, 3), (3, 3))},
    "ternary-2x2": lambda: random_system(SystemShape(2, 2, alphabet_size=3, seed=4)),
    **{f"cyclic-{n}": (lambda n=n: cyclic_system(n, 0, F(3, 4))) for n in (3, 4, 5)},
}


@pytest.mark.parametrize("name", START_SYSTEMS)
def test_every_cached_template_has_a_start(empty_cache, name):
    # The program of each shape's product system has an optimum, so no
    # template the cache keeps falls back to two phases.
    shape = builders._shape_key(START_SYSTEMS[name]())
    for family in builders.METHODS:
        if builders._check_blocks(family, shape) > builders._CACHE_MAX_NONZEROS:
            continue  # built per call, with no start
        template = builders._cached_template(family, shape)
        assert template.start_rhs is not None
        lp = template.program(template.start_rhs)
        assert lp_module._form(lp, "start", lp_module._start) is not None, family


# Results depend on the input only, and the fallback to two phases
# ---------------------------------------------------------------------------

def uniform_model(sysd: System) -> dict[str, Pmf]:
    """Every context's bunch uniform: a consistently connected model."""
    return {c.id: Pmf(sysd.bunch(c.id).alphabets,
                      {a: F(1, len(list(sysd.bunch(c.id).atoms())))
                       for a in sysd.bunch(c.id).atoms()})
            for c in sysd.contexts}


HISTORY_SYSTEMS = {"prbox": pr_box, "disjoint": disjoint_support_system,
                   **{f"cyclic4-seed{seed}": (lambda seed=seed: cyclic_system(4, seed, F(3, 4)))
                      for seed in range(6)}}


def reports(sysd: System, model) -> dict:
    """Every family's full report on `sysd`, or its error's type and message."""
    out = {}
    for method in builders.METHODS:
        try:
            out[method] = measure(sysd, method, model=model)
        except ContextualityError as exc:
            out[method] = (type(exc), str(exc))
    return out


@pytest.mark.parametrize("name", HISTORY_SYSTEMS)
def test_reports_do_not_depend_on_history(empty_cache, name):
    sysd = HISTORY_SYSTEMS[name]()
    model = uniform_model(sysd)
    fresh = {}
    for method in builders.METHODS:  # each from an empty cache
        builders._cached_template.cache_clear()
        fresh[method] = reports(sysd, model)[method]
    assert any(isinstance(r, builders.MeasureReport) and not r.noncontextual
               for r in fresh.values())
    others = [same_shape(sysd, seed) for seed in (7, 8, 9)]
    for order in (others, others[::-1]):  # after other same-shape systems
        builders._cached_template.cache_clear()
        for other in order:
            reports(other, model)
        assert reports(sysd, model) == fresh
    for k in range(builders._CACHE_TEMPLATES):  # evicted, then rebuilt
        build_present_lp(System([Property(f"p{k}", PM)], [Context("c", (f"p{k}",))],
                                {"c": Pmf([PM], {(1,): 1})}))
    hits = builders._cached_template.cache_info().hits
    assert reports(sysd, model) == fresh
    assert builders._cached_template.cache_info().hits == hits  # every template rebuilt


def test_dual_path_proves_infeasibility_like_two_phases(empty_cache):
    # A floor below the system's, a system without an optimal signed joint,
    # and a right-hand side that breaks the rows' redundancy: the dual
    # simplex proves each infeasible without the two-phase path, and each
    # raises the same Infeasible on either path.
    sysd = cyclic_system(4, 0, F(3, 4))
    floor = delta0_present(sysd)
    assert measure(sysd, "present").measure > 0
    # The first context's weights halved: the dual simplex alone would end
    # at an optimum here, and only a redundant row's basic artificial shows
    # that the rows are inconsistent.
    np_lp = build_np_lp(cyclic_system(4, 0, F(3, 4), noise="white"))
    halved = [b / 2 if i < 4 else b for i, b in enumerate(np_lp.rhs)]
    programs = [build_np_inside_lp(sysd, floor - F(1, 64)),
                build_lp(disjoint_support_system(), "np_inside"),
                np_lp._template.program(halved)]
    for lp in programs:
        assert lp_module._form(lp, "start", lp_module._start) is not None
        with mock.patch.object(lp_module, "_two_phase", None):  # calling it raises
            assert solve_exact(lp) == LpSolution("infeasible")
            with pytest.raises(Infeasible) as dual:
                solve_certified(lp)
        plain = copy.copy(lp)  # no template, so two phases
        assert solve_exact(plain) == LpSolution("infeasible")
        with pytest.raises(Infeasible) as two_phase:
            solve_certified(plain)
        assert str(dual.value) == str(two_phase.value)
