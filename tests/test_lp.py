import copy
import dataclasses
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from reference_simplex import reference_dual_solve, reference_solve, reference_verify_certificate

from contextuality import lp as lp_module
from contextuality.analytic import build_delta_p_lp
from contextuality.builders import build_lp, measure
from contextuality.errors import DimensionMismatch, ParseError, SolverError
from contextuality.io import dump_lp, parse_lp
from contextuality.lp import (
    LinearProgram,
    solve_certified,
    solve_exact,
    verify_certificate,
)
from contextuality.oracle import SystemShape, cyclic_system, random_system


def lp_of(names, cost, rows, rhs):
    return LinearProgram(
        tuple(names),
        tuple(F(c) for c in cost),
        tuple({j: F(v) for j, v in row.items()} for row in rows),
        tuple(F(b) for b in rhs),
    )


def test_forced_optimum():
    lp = lp_of(["q1", "q2"], [1, 0], [{0: 1, 1: 1}], [1])
    sol = solve_exact(lp)
    assert sol.status == "optimal"
    assert sol.objective == 0
    assert sol.primal == (0, 1)
    assert verify_certificate(lp, sol)


def test_negative_rhs_with_nonnegative_variable_is_infeasible():
    lp = lp_of(["q1"], [0], [{0: 1}], [-1])
    assert solve_exact(lp).status == "infeasible"


def test_unbounded():
    lp = lp_of(["x", "y"], [-1, 0], [{1: 1}], [1])
    assert solve_exact(lp).status == "unbounded"


def test_degenerate_and_redundant_rows():
    lp = lp_of(["x", "y"], [3, 5], [{0: 1, 1: 1}, {0: 1, 1: 1}], [1, 1])
    sol = solve_exact(lp)
    assert sol.status == "optimal" and sol.objective == 3
    assert verify_certificate(lp, sol)


def test_inconsistent_redundant_rows_infeasible():
    lp = lp_of(["x", "y"], [0, 0], [{0: 1, 1: 1}, {0: 1, 1: 1}], [1, 2])
    assert solve_exact(lp).status == "infeasible"


def test_fractional_vertex():
    # x + 2y = 4, 3x + y = 6 with slacks driven out -> x = 8/5, y = 6/5
    lp = lp_of(["x", "y"], [-1, -1], [{0: 1, 1: 2}, {0: 3, 1: 1}], [4, 6])
    sol = solve_exact(lp)
    assert sol.objective == F(-14, 5)
    assert sol.primal == (F(8, 5), F(6, 5))
    assert verify_certificate(lp, sol)


def test_certificate_rejects_perturbed_objective():
    lp = lp_of(["q1", "q2"], [1, 0], [{0: 1, 1: 1}], [1])
    sol = solve_exact(lp)
    bad = dataclasses.replace(sol, objective=sol.objective + F(1, 7))
    assert not verify_certificate(lp, bad)


def test_certificate_rejects_negative_primal():
    lp = lp_of(["q1", "q2"], [1, 0], [{0: 1, 1: 1}], [1])
    sol = solve_exact(lp)
    bad = dataclasses.replace(sol, primal=(F(-1), F(2)))
    assert not verify_certificate(lp, bad)


def test_certificate_rejects_infeasible_primal():
    lp = lp_of(["q1", "q2"], [1, 0], [{0: 1, 1: 1}], [1])
    sol = solve_exact(lp)
    bad = dataclasses.replace(sol, primal=(F(1, 2), F(1, 4)))
    assert not verify_certificate(lp, bad)


def test_certificate_rejects_wrong_length_primal():
    lp = lp_of(["q1", "q2"], [1, 0], [{0: 1, 1: 1}], [1])
    sol = solve_exact(lp)
    assert not verify_certificate(lp, dataclasses.replace(sol, primal=sol.primal + (F(0),)))


def test_certificate_rejects_non_optimal_status():
    lp = lp_of(["q1"], [0], [{0: 1}], [-1])
    assert not verify_certificate(lp, solve_exact(lp))


def test_permuted_columns_same_objective():
    rng = random.Random(12)
    names = ["a", "b", "c", "d"]
    cost = [F(2), F(-1), F(3), F(1)]
    rows = [{0: F(1), 1: F(1), 2: F(1)}, {1: F(2), 3: F(1)}]
    rhs = [F(1), F(1)]
    base = LinearProgram(tuple(names), tuple(cost), tuple(rows), tuple(rhs))
    ref = solve_exact(base).objective
    for _ in range(5):
        perm = list(range(4))
        rng.shuffle(perm)
        inv = {old: new for new, old in enumerate(perm)}
        lp = LinearProgram(
            tuple(names[j] for j in perm),
            tuple(cost[j] for j in perm),
            tuple({inv[j]: v for j, v in row.items()} for row in rows),
            tuple(rhs),
        )
        assert solve_exact(lp).objective == ref


def test_solver_is_deterministic():
    lp = lp_of(["x", "y", "z"], [1, 1, 1], [{0: 1, 1: 1}, {1: 1, 2: 1}], [1, 1])
    a, b = solve_exact(lp), solve_exact(lp)
    assert a == b


def test_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        LinearProgram(("x",), (F(1), F(2)), (), ())
    with pytest.raises(DimensionMismatch):
        LinearProgram(("x",), (F(1),), ({0: F(1)},), ())
    with pytest.raises(DimensionMismatch):
        LinearProgram(("x", "x"), (F(1), F(1)), (), ())
    with pytest.raises(DimensionMismatch):
        LinearProgram(("x",), (F(1),), ({3: F(1)},), (F(0),))
    with pytest.raises(DimensionMismatch):
        LinearProgram(("bad name",), (F(1),), (), ())


def test_solve_certified_raises_on_infeasible():
    from contextuality.errors import Infeasible

    lp = lp_of(["q1"], [0], [{0: 1}], [-1])
    with pytest.raises(Infeasible):
        solve_certified(lp)


def test_template_without_an_optimal_start_is_a_solver_error():
    # x0 + x1 = -1 has no x >= 0, so the template has no start; its
    # programs are refused rather than solved another way.
    template = lp_module._Template(("x0", "x1"), (F(1), F(0)), ({0: F(1), 1: F(1)},), (F(-1),))
    lp = template.program((F(1),))
    assert solve_exact(copy.copy(lp)).status == "optimal"
    for solve in (solve_exact, solve_certified):
        with pytest.raises(SolverError, match="^a template's start program is infeasible$"):
            solve(lp)
    assert template.start is None


def test_dump_round_trip():
    lp = lp_of(
        ["x", "y", "s"],
        [F(1, 3), 0, -2],
        [{0: F(2, 7), 2: 1}, {1: 1}],
        [F(5, 2), 0],
    )
    text = dump_lp(lp)
    again = parse_lp(text)
    assert again == lp
    assert dump_lp(again) == text


def test_dump_round_trip_preserves_zero_rows():
    lp = lp_of(["x"], [1], [dict()], [0])
    assert parse_lp(dump_lp(lp)) == lp


def test_parse_rejects_malformed():
    with pytest.raises(ParseError):
        parse_lp("not a dump\n")
    ok = dump_lp(lp_of(["x"], [1], [{0: 1}], [1]))
    with pytest.raises(ParseError):
        parse_lp(ok.replace("end", "a 0 y 1/1\nend"))  # unknown variable
    with pytest.raises(ParseError):
        parse_lp(ok.replace("end", "a 7 x 1/1\nend"))  # row out of range
    with pytest.raises(ParseError):
        parse_lp(ok.replace("end", ""))  # truncated
    with pytest.raises(ParseError):
        parse_lp(ok.replace("1/1", "1/0"))


OK_DUMP = dump_lp(lp_of(["x"], [1], [{0: 1}], [1]))  # one line per entry, "end" on line 9


@pytest.mark.parametrize("text,line", [
    (OK_DUMP.replace("end", "c x 5/1\nend"), 9),  # repeated cost
    (OK_DUMP.replace("end", "a 0 x 2/1\nend"), 9),  # repeated matrix entry
    (OK_DUMP.replace("end", "rhs 0 3/1\nend"), 9),  # repeated right-hand side
    (OK_DUMP.replace("minimize\n", ""), 2),
    (OK_DUMP.replace("vars 1", "vars one"), 3),  # bad count
    (OK_DUMP.replace("rows 1", "rows -1"), 5),  # negative count
    (OK_DUMP.replace("rows 1", "rows 10000000000"), 5),  # more rows than characters
    (OK_DUMP.replace("vars 1\nvar x\n", ""), 3),  # missing vars
    (OK_DUMP.replace("vars 1\nvar x", "vars 2\nvar x\nvar x"), 5),  # duplicate name
    (OK_DUMP.replace("vars 1\nvar x", "vars 3\nvar x\nvar x\nvar y"), 5),  # repeat, then more
    (OK_DUMP.replace("end", "b 0 x 1/1\nend"), 9),  # unrecognized line
])
def test_parse_lp_refusals_name_their_line(text, line):
    with pytest.raises(ParseError) as err:
        parse_lp(text)
    assert err.value.line == line
    assert str(err.value).startswith(f"line {line}: ")


@pytest.mark.parametrize("sep", [" ", "\x1c"])
def test_whitespace_in_names_rejected(sep):
    ok = dump_lp(lp_of(["x"], [1], [{0: 1}], [1]))
    with pytest.raises(ParseError):
        parse_lp(ok.replace("var x", f"var x{sep}y"))
    with pytest.raises(DimensionMismatch):
        LinearProgram((f"x{sep}y",), (F(1),), (), ())


def _random_lps(seed, count, rhs_low=0, denominators=(), cost_denominators=()):
    """Random programs; with ``denominators``, each matrix entry and
    right-hand side is divided by one drawn from it, and with
    ``cost_denominators`` each cost entry by one drawn from that."""
    rng = random.Random(seed)

    def scaled(v, choices=denominators):
        return F(v, rng.choice(choices)) if choices else F(v)

    for _ in range(count):
        n = rng.randint(1, 6)
        m = rng.randint(1, 4)
        names = tuple(f"x{j}" for j in range(n))
        cost = tuple(scaled(rng.randint(-4, 4), cost_denominators) for _ in range(n))
        rows = tuple(
            {j: scaled(rng.randint(-3, 3)) for j in range(n) if rng.random() < 0.7}
            for _ in range(m)
        )
        rhs = tuple(scaled(rng.randint(rhs_low, 5)) for _ in range(m))
        yield LinearProgram(names, cost, rows, rhs)


def test_random_lps_always_certify():
    for lp in _random_lps(13, 40):
        sol = solve_exact(lp)
        if sol.status == "optimal":
            assert verify_certificate(lp, sol)


# ---------------------------------------------------------------------------
# Pivot-for-pivot agreement with the Fraction reference simplex
# ---------------------------------------------------------------------------

def _with_redundant_rows(lp):
    """Append a copy of row 0 and the sum of all rows (both implied)."""
    total = {}
    for row in lp.rows:
        for j, v in row.items():
            total[j] = total.get(j, 0) + v
    total = {j: v for j, v in total.items() if v}
    return dataclasses.replace(
        lp,
        rows=lp.rows + (lp.rows[0], total),
        rhs=lp.rhs + (lp.rhs[0], sum(lp.rhs, F(0))),
    )


FRACTIONAL = (1, 2, 3, 64)


def _small_programs():
    yield lp_of(["q1", "q2"], [1, 0], [{0: 1, 1: 1}], [1])
    yield lp_of(["x", "y"], [3, 5], [{0: 1, 1: 1}, {0: 1, 1: 1}], [1, 1])
    yield lp_of(["x", "y"], [0, 0], [{0: 1, 1: 1}, {0: 1, 1: 1}], [1, 2])
    yield lp_of(["x", "y"], [-1, -1], [{0: 1, 1: 2}, {0: 3, 1: 1}], [4, 6])
    yield lp_of(["x", "y"], [-1, 0], [{1: 1}], [1])
    yield lp_of(["q1"], [0], [{0: 1}], [-1])
    yield lp_of(["x"], [1], [dict()], [0])
    yield lp_of(["x", "y", "s"], [F(1, 3), 0, -2], [{0: F(2, 7), 2: 1}, {1: 1}], [F(5, 2), 0])
    yield from _random_lps(13, 40)
    yield from _random_lps(14, 40, rhs_low=-5)
    yield from map(_with_redundant_rows, _random_lps(15, 40, rhs_low=-5))
    yield from _random_lps(16, 40, denominators=FRACTIONAL)
    yield from _random_lps(17, 40, rhs_low=-5, denominators=FRACTIONAL)
    yield from map(_with_redundant_rows,
                   _random_lps(18, 40, rhs_low=-5, denominators=FRACTIONAL))
    # Most random programs are infeasible; these 120 give 23 optima.
    yield from _random_lps(19, 120, denominators=FRACTIONAL, cost_denominators=FRACTIONAL)


def _perturbed_certificates(sol):
    """The optimum, then copies changed one way at a time."""
    yield sol
    step = F(1, 64)
    j = next((j for j, v in enumerate(sol.primal) if v), 0)
    k = next((k for k, v in enumerate(sol.dual) if v), 0)
    for delta in (step, -step):
        if sol.primal:
            primal = list(sol.primal)
            primal[j] += delta
            yield dataclasses.replace(sol, primal=tuple(primal))
        if sol.dual:
            dual = list(sol.dual)
            dual[k] += delta
            yield dataclasses.replace(sol, dual=tuple(dual))
        yield dataclasses.replace(sol, objective=sol.objective + delta)
    if sol.primal:
        primal = list(sol.primal)
        primal[j] = -primal[j]
        yield dataclasses.replace(sol, primal=tuple(primal))


def _traced_solve(lp):
    """solve_exact's solution of lp, and its pivots as (entering column,
    leaving column)."""
    path = []
    pivot = lp_module.Revised.pivot

    def traced(state, leave, enter, column, cost):
        path.append((enter, state.basis[leave]))
        pivot(state, leave, enter, column, cost)

    with mock.patch.object(lp_module.Revised, "pivot", traced):
        return solve_exact(lp), path


def _reduced_costs(lp, dual):
    """c_j - y'A_j on every column j of lp."""
    reduced = list(lp.cost)
    for yi, row in zip(dual, lp.rows):
        for j, a in row.items():
            reduced[j] -= yi * a
    return reduced


def assert_dual_prices_basis(lp, sol):
    """The dual comes from the reported basis: every basic column's reduced
    cost c_j - y'A_j is exactly zero.  (verify_certificate accepts any
    optimal dual.)"""
    reduced = _reduced_costs(lp, sol.dual)
    assert [reduced[j] for j in sol.basis] == [0] * len(sol.basis)


def assert_matches_reference(lp):
    """solve_exact takes the reference's pivots to the reference's
    solution on lp, a program without a start, its dual prices the basis,
    and the certificate check agrees with the reference's on the optimum
    and on perturbed copies."""
    ref_path = []
    ref = reference_solve(lp, ref_path)
    sol, path = _traced_solve(lp)
    assert path == ref_path
    assert (sol.status, sol.objective, sol.primal, sol.basis) == tuple(ref)
    if sol.status == "optimal":
        assert len(sol.dual) == lp.row_count
        assert_dual_prices_basis(lp, sol)
        verdicts = [verify_certificate(lp, s) for s in _perturbed_certificates(sol)]
        assert verdicts[0]
        assert not all(verdicts)
        assert verdicts == [reference_verify_certificate(lp, s)
                            for s in _perturbed_certificates(sol)]
    return sol.status


def test_small_programs_match_reference():
    programs = list(_small_programs())
    statuses = [assert_matches_reference(lp) for lp in programs]
    assert set(statuses) == {"optimal", "infeasible", "unbounded"}
    # Artificial column k is -e_k where b_k < 0, so the dual reader is
    # checked on optima with a negative right-hand side too.
    assert any(status == "optimal" and any(b < 0 for b in lp.rhs)
               for lp, status in zip(programs, statuses))


def test_artificial_columns_never_enter():
    # An artificial column that leaves the basis is dropped for good, in
    # phase one as in phase two.
    plain = [copy.copy(build_lp(sysd, method, model=model))
             for sysd, method, model in (p.values for p in _builder_programs())]
    for lp in [*_small_programs(), *plain]:
        _, path = _traced_solve(lp)
        assert [enter for enter, _ in path if enter >= lp.column_count] == []


def test_cost_rows_are_priced_from_the_basis():
    # _cost_row at every two-phase optimum, the phase-two row that the
    # pivots carried there, and each template start's stored cost row equal
    # c - y'A on every column as rationals, with y the optimum's dual.
    built = [build_lp(sysd, method, model=model)
             for sysd, method, model in (p.values for p in _builder_programs())]
    optima = 0
    for lp in [*_small_programs(), *map(copy.copy, built)]:
        form = lp_module._solver_form(lp)
        rows = []
        bland = lp_module.Revised.bland
        with mock.patch.object(lp_module.Revised, "bland",
                               lambda state, row: rows.append(row) or bland(state, row)):
            status, state = lp_module._two_phase(lp, form)
        if status == "optimal":
            optima += 1
            dual = lp_module._solution(state, form).dual
            cost_den, cost = form[3]
            for row in (rows[-1], lp_module._cost_row(state, cost, cost_den)):
                assert [F(v, row[-1]) for v in row[:-1]] == _reduced_costs(lp, dual)
    assert optima >= 60
    for lp in built:
        template = lp._template
        start = lp_module._form(lp, "start", lp_module._start)
        dual = solve_exact(template.program(template.start_rhs)).dual
        assert [F(v, start.cost[-1]) for v in start.cost[:-1]] == _reduced_costs(lp, dual)


def test_objective_is_cost_times_primal():
    # The objective is read as y'b; on both paths it equals c'x: the small
    # programs and plain copies by two phases, template programs by the
    # dual simplex.
    built = [build_lp(sysd, method, model=model)
             for sysd, method, model in (p.values for p in
                                         [*_builder_programs(), *_cyclic_programs()])]
    fractional = optima = 0
    for lp in [*_small_programs(), *built, *map(copy.copy, built)]:
        sol = solve_exact(lp)
        if sol.status != "optimal":
            continue
        optima += 1
        assert sol.objective == sum((c * x for c, x in zip(lp.cost, sol.primal)), F(0))
        fractional += any(c.denominator != 1 and x for c, x in zip(lp.cost, sol.primal))
    assert fractional >= 10
    assert optima >= 100


def _builder_programs():
    for m, n in ((2, 2), (3, 3)):
        for consistent in (False, True):
            shape = SystemShape(m, n, consistent=consistent, seed=0)
            sysd = random_system(shape)
            model = random_system(dataclasses.replace(shape, consistent=True, seed=1)).bunches
            methods = ["present", "np_inside", "fixed_model"]
            if consistent:
                methods.append("np")
            if m * n <= 4:
                methods.append("cbd")
            for method in methods:
                label = f"{method}-{m}x{n}-{'consistent' if consistent else 'inconsistent'}"
                yield pytest.param(sysd, method, model, id=label)


@pytest.mark.parametrize("sysd,method,model", _builder_programs())
def test_builder_programs_match_reference(sysd, method, model):
    # A plain copy has no template, so it solves by two phases.
    assert_matches_reference(copy.copy(build_lp(sysd, method, model=model)))


@pytest.mark.parametrize("consistent", [False, True])
def test_ternary_floor_programs_match_reference(consistent):
    sysd = random_system(SystemShape(2, 2, alphabet_size=3, consistent=consistent, seed=0))
    for prop in sysd.properties:
        assert_matches_reference(build_delta_p_lp(sysd, prop.id))


def _wide_lps(seed, count, denominators=()):
    """Random programs with four to six times as many columns as rows and
    right-hand sides of either sign; entries are 0 or +-1, or with
    ``denominators`` small integers each divided by one drawn from it."""
    rng = random.Random(seed)

    def entry():
        if denominators:
            return F(rng.randint(-3, 3), rng.choice(denominators))
        return F(rng.choice((-1, 0, 0, 1, 1)))

    for _ in range(count):
        m = rng.randint(1, 4)
        n = rng.randint(4 * m, 6 * m)
        names = tuple(f"x{j}" for j in range(n))
        cost = tuple(F(rng.randint(-1, 4)) for _ in range(n))
        rows = tuple({j: v for j in range(n) if (v := entry())} for _ in range(m))
        rhs = tuple(F(rng.randint(-2, 6)) * abs(entry() or 1) for _ in range(m))
        yield LinearProgram(names, cost, rows, rhs)


@pytest.mark.parametrize("denominators", [(), FRACTIONAL])
def test_wide_programs_match_reference(denominators):
    statuses = [assert_matches_reference(lp) for lp in _wide_lps(23, 80, denominators)]
    assert set(statuses) == {"optimal", "infeasible", "unbounded"}


EDGE_PROGRAMS = [
    pytest.param(lp_of(["x", "y"], [1, 0], [], []), "optimal", id="no rows"),
    pytest.param(lp_of(["x", "y"], [1, -1], [], []), "unbounded", id="no rows unbounded"),
    pytest.param(LinearProgram((), (), ({},), (F(0),)), "optimal", id="no columns"),
    pytest.param(LinearProgram((), (), ({},), (F(1),)), "infeasible", id="no columns infeasible"),
    pytest.param(lp_of(["x", "y", "z", "w", "v"], [1, 2, 3, 0, 1], [{0: 1, 1: 1, 3: -1}], [1]),
                 "optimal", id="empty column"),
    pytest.param(lp_of(["x", "y", "z", "w", "v"], [1, 2, -3, 0, 1], [{0: 1, 1: 1, 3: -1}], [1]),
                 "unbounded", id="empty column unbounded"),
    # The zero row's artificial stays basic; its dual entry must survive.
    pytest.param(lp_of([f"x{j}" for j in range(12)], [2, 1, 3, 1] + [5] * 8,
                       [{0: 1, 1: 1, 4: F(1, 2)}, {}, {2: 1, 3: -1, 5: 3}], [1, 0, F(-1, 2)]),
                 "optimal", id="zero row"),
]


@pytest.mark.parametrize("lp,status", EDGE_PROGRAMS)
def test_edge_programs_match_reference(lp, status):
    assert assert_matches_reference(lp) == status


# Dual simplex from a template's start, against the Fraction reference
# ---------------------------------------------------------------------------

CYCLIC_LAMBDA = F(3, 4)


def _cyclic_programs():
    """Rank-4 cyclic systems with random noise, seeds 0-5, each method with
    a consistently connected model (np needs one, so it is left out)."""
    model = cyclic_system(4, 0, CYCLIC_LAMBDA, noise="white").bunches
    for seed in range(6):
        sysd = cyclic_system(4, seed, CYCLIC_LAMBDA)
        for method in ("present", "cbd", "np_inside", "fixed_model"):
            yield pytest.param(sysd, method, model, id=f"{method}-cyclic4-seed{seed}")


_reference_starts: dict[str, tuple] = {}


def _reference_start_basis(template):
    """reference_solve's basis at the template's start right-hand side,
    once per program (both 3x3 systems share their shapes)."""
    start = template.program(template.start_rhs)
    key = dump_lp(start)
    if key not in _reference_starts:
        ref = reference_solve(start)
        assert ref.status == "optimal"
        _reference_starts[key] = ref.basis
    return _reference_starts[key]


def assert_dual_matches_reference(lp, degenerate_run):
    """The dual simplex from lp's start takes the reference's pivots to the
    reference's solution or verdict of infeasibility; solve_certified
    returns that solution, its dual prices the basis, and the certificate
    check agrees with the reference's on it and on perturbed copies."""
    template = lp._template
    basis = _reference_start_basis(template)
    start = lp_module._form(lp, "start", lp_module._start)  # its pivots are not on the path
    assert tuple(sorted(b for b in start.basis if b < lp.column_count)) == basis
    ref_path = []
    ref = reference_dual_solve(lp, basis, degenerate_run, ref_path)
    sol, path = _traced_solve(lp)
    assert path == ref_path
    assert (sol.status, sol.objective, sol.primal, sol.basis) == tuple(ref)
    if sol.status != "optimal":
        return path
    assert solve_certified(lp) == sol
    assert_dual_prices_basis(lp, sol)
    verdicts = [verify_certificate(lp, s) for s in _perturbed_certificates(sol)]
    assert verdicts[0] and not all(verdicts)
    assert verdicts == [reference_verify_certificate(lp, s) for s in _perturbed_certificates(sol)]
    return path


@pytest.mark.parametrize("sysd,method,model", [*_builder_programs(), *_cyclic_programs()])
def test_dual_simplex_matches_reference(sysd, method, model):
    lp = build_lp(sysd, method, model=model)
    assert assert_dual_matches_reference(lp, lp_module._DEGENERATE_RUN) is not None
    # Two phases on a plain copy reach the same status and optimum.
    sol, two_phase = solve_exact(lp), solve_exact(copy.copy(lp))
    assert (sol.status, sol.objective) == (two_phase.status, two_phase.objective)


def test_cyclic_dual_inputs_are_contextual():
    for seed in range(6):
        assert measure(cyclic_system(4, seed, CYCLIC_LAMBDA), "present").measure > 0


def test_dual_simplex_switches_to_blands_rule(monkeypatch):
    # After one degenerate pivot the lowest basis index leaves; on some of
    # these programs that changes the path, and it still matches.
    programs = [build_lp(p.values[0], p.values[1], model=p.values[2])
                for p in _cyclic_programs()]
    default = [_traced_solve(lp)[1] for lp in programs]
    monkeypatch.setattr(lp_module, "_DEGENERATE_RUN", 1)
    switched = [assert_dual_matches_reference(lp, 1) for lp in programs]
    assert switched != default
