"""Typed refusals that no other test reaches: each row calls the package
with one bad input and expects the documented error type."""
from fractions import Fraction as F

import pytest

from contextuality.analytic import (
    BinaryStats,
    bunch_set_distance,
    coupling_mismatch_lp,
    max_coupling_probability,
    median_binary,
    min_mismatch,
    pmf_from_mean,
)
from contextuality.builders import MeasureReport, build_fixed_model_lp, measure, problem_sizes
from contextuality.errors import (
    AlphabetMismatch,
    CertificationFailure,
    DuplicateOutcome,
    MeanOutOfRange,
    NegativeWeight,
    NumericalFailure,
    ShapeMismatch,
    SolverError,
    UnknownContext,
    UnrealizableStats,
    ValidationError,
)
from contextuality.examples import disjoint_support_system, pr_box
from contextuality.lp import LinearProgram, LpSolution, solve_certified
from contextuality.oracle import cross_check, cyclic_system, noisy_pr_box
from contextuality.system import Context, Pmf, Property, System, as_fraction

PM = (1, -1)
P = Property("p", PM)
C = Context("c", ("p",))
HALVES = Pmf([PM], {(1,): F(1, 2), (-1,): F(1, 2)})
TERNARY = Pmf([(0, 1, 2)], {(0,): F(1)})


def _fixed_model_with_a_wrong_alphabet():
    sysd = pr_box()
    model = {c.id: Pmf([(0, 1), (0, 1)], {(0, 0): 1}) for c in sysd.contexts}
    build_fixed_model_lp(sysd, model)


def _bunch_set_distance_over_other_contexts():
    other = System([P], [Context("d", ("p",))], {"d": HALVES})
    bunch_set_distance(System([P], [C], {"c": HALVES}), other)


def refusal(id, call, error, match):
    return pytest.param(call, error, match, id=id)


UNBOUNDED = LinearProgram(("x", "y"), (F(-1), F(0)), ({0: F(1), 1: F(-1)},), (F(0),))


@pytest.mark.parametrize("call,error,match", [
    # system
    refusal("as-fraction", lambda: as_fraction("x"), ValidationError, "not a rational"),
    refusal("pmf-no-position", lambda: Pmf([], {}), ValidationError, "at least one position"),
    refusal("pmf-empty-alphabet", lambda: Pmf([()], {}), ValidationError, "empty alphabet"),
    refusal("pmf-repeated-symbol", lambda: Pmf([(1, 1)], {(1,): 1}), DuplicateOutcome,
            "duplicate symbol"),
    refusal("pmf-outcome-length", lambda: Pmf([PM], {(1, 1): 1}), AlphabetMismatch,
            "has 2 positions, expected 1"),
    # a message gives a number past Python's 4300-digit str limit by its size
    refusal("pmf-huge-negative-weight",
            lambda: Pmf([PM], {(1,): F(-1, 10**4400), (-1,): 1 + F(1, 10**4400)}),
            NegativeWeight, r"^weight a 1-digit numerator over a 4401-digit denominator of"),
    refusal("pmf-unknown-symbol", lambda: Pmf([PM], {(2,): 1}), AlphabetMismatch,
            "not in alphabet"),
    refusal("property-one-symbol", lambda: Property("p", (1,)), ValidationError, ">= 2 symbols"),
    refusal("property-repeated-symbol", lambda: Property("p", (1, 1)), DuplicateOutcome,
            "duplicate symbols"),
    refusal("property-empty-id", lambda: Property("", PM), ValidationError, "must be nonempty"),
    refusal("context-repeated-property", lambda: Context("c", ("p", "p")), DuplicateOutcome,
            "duplicate property"),
    refusal("system-no-context", lambda: System([], [], {}), ValidationError,
            "at least one context"),
    refusal("system-duplicate-property", lambda: System([P, P], [C], {"c": HALVES}),
            ValidationError, "duplicate property id"),
    refusal("system-duplicate-context", lambda: System([P], [C, C], {"c": HALVES}),
            ValidationError, "duplicate context id"),
    refusal("system-missing-bunch", lambda: System([P], [C], {}), ValidationError,
            "missing bunch"),
    refusal("system-unknown-bunch", lambda: System([P], [C], {"c": HALVES, "d": HALVES}),
            UnknownContext, "unknown contexts"),
    refusal("system-context-lookup", lambda: pr_box().context("nope"), UnknownContext,
            "unknown context"),
    # analytic
    refusal("max-coupling-one-marginal", lambda: max_coupling_probability([HALVES]),
            AlphabetMismatch, "at least two marginals"),
    refusal("pmf-from-mean", lambda: pmf_from_mean(2), MeanOutOfRange, "outside"),
    refusal("coupling-mismatch-lp", lambda: coupling_mismatch_lp(HALVES, TERNARY),
            AlphabetMismatch, "alphabets differ"),
    refusal("min-mismatch", lambda: min_mismatch(HALVES, TERNARY), AlphabetMismatch,
            "alphabets differ"),
    refusal("bunch-set-distance", _bunch_set_distance_over_other_contexts, ShapeMismatch,
            "different contexts"),
    # builders
    refusal("fixed-model-misfit", _fixed_model_with_a_wrong_alphabet, ShapeMismatch,
            "model does not fit"),
    refusal("report-negative-measure",
            lambda: MeasureReport("present", F(1), F(2), F(-1), False, {}, True),
            ValidationError, "inconsistent present report"),
    refusal("report-verdict", lambda: MeasureReport("present", F(1), F(0), F(1), True, {}, True),
            ValidationError, "inconsistent present report"),
    # lp: min -x subject to x - y = 0 has no lower bound
    refusal("solve-unbounded", lambda: solve_certified(UNBOUNDED), SolverError, "unbounded"),
    refusal("named-primal", lambda: LpSolution("infeasible").named_primal(UNBOUNDED),
            SolverError, "no primal point in a solution of status 'infeasible'"),
    # oracle
    refusal("cross-check-infeasible", lambda: cross_check(disjoint_support_system(), "np_inside"),
            NumericalFailure, "infeasible/infeasible"),
])
def test_refusal_is_typed(call, error, match):
    with pytest.raises(error, match=match):
        call()


# Just above 1, with 5001 digits in each part: past Python's 4300-digit str limit.
HUGE = F(10**5000 + 1, 10**5000)


@pytest.mark.parametrize("call,error", [
    pytest.param(lambda: pmf_from_mean(HUGE), MeanOutOfRange, id="pmf-from-mean"),
    pytest.param(lambda: median_binary([HUGE]), MeanOutOfRange, id="median-binary"),
    pytest.param(lambda: BinaryStats(HUGE, F(0), F(0)), MeanOutOfRange, id="binary-stats"),
    pytest.param(lambda: cyclic_system(4, 0, HUGE), ValidationError, id="cyclic-system"),
    pytest.param(lambda: BinaryStats(2 - HUGE, 2 - HUGE, F(-1)), UnrealizableStats,
                 id="unrealizable-stats"),
    pytest.param(lambda: MeasureReport("present", F(1), HUGE, 1 - HUGE, False, {}, True),
                 ValidationError, id="report"),
    pytest.param(lambda: cyclic_system(10**5000, 0, 2), ValidationError, id="cyclic-system-rank"),
    pytest.param(lambda: noisy_pr_box(0, 10**5000, 0, 1), ValidationError, id="noisy-pr-box"),
    pytest.param(lambda: problem_sizes(10**5000, 1), ValidationError, id="problem-sizes"),
])
def test_range_checks_name_huge_numbers_by_their_size(call, error):
    with pytest.raises(error) as err:
        call()
    assert len(str(err.value)) < 300


def test_floor_past_the_digit_limit_is_named_by_its_size(monkeypatch):
    monkeypatch.setattr("contextuality.builders.delta0_present", lambda sysd: HUGE)
    with pytest.raises(CertificationFailure, match="is below the floor a 5001-digit") as err:
        measure(pr_box(), "present")
    assert len(str(err.value)) < 300
