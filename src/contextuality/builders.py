"""Compilation of contextuality measures into exact linear programs.

Four program families over a shared canonical layout (joint block first,
then per-context coupling blocks in context order, atoms lexicographic):

* ``present`` - one nonnegative joint over all properties plus, per context,
  a coupling of the observed bunch with the joint's marginal there; cost is
  the total mass on disagreeing positions.  The optimum is the smallest
  distance from the data to any single-indexed approximating system.
* ``cbd`` - one joint coupling of all bunches at once (a column per
  assignment of an outcome tuple to every context); cost is the per-property
  mass where a connection's copies are not all equal.
* ``np`` - a signed joint over all properties, split into positive and
  negative parts, constrained to reproduce every bunch; cost is the total
  negative mass.  Requires consistent connectedness.
* ``np_inside`` - signed joint plus coupling blocks; the couplings force
  every context marginal of the signed joint to be a proper distribution
  and pin the approximation distance to its floor, while minimizing the
  negative mass.  Infeasible when no optimally-approximating signed joint
  exists.

``fixed_model`` couples the data against one externally supplied
consistently connected model (no free joint block).
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from .analytic import NEG_ONE, _atom_label, _coupling_block, delta0_cbd, delta0_present
from .errors import (
    AlphabetTooLarge,
    InconsistentlyConnected,
    ModelNotConsistentlyConnected,
    ShapeMismatch,
    ValidationError,
)
from .lp import LinearProgram, solve_certified
from .system import Pmf, System, consistency_report

ZERO = Fraction(0)
ONE = Fraction(1)

METHODS = ("present", "cbd", "np", "np_inside", "fixed_model")

DEFAULT_ATOM_CAP = 1 << 20

# problem_sizes refuses m*n above this, before computing 4**(m*n); every
# count it reports then also prints under Python's default int-to-str limit
# of 4300 digits (4**7142 is the largest power of 4 that does).
_MAX_SIZES_CONTEXTS = 4096


@dataclass(frozen=True)
class MeasureReport:
    """Result of one measure computation.

    ``measure`` equals ``delta - delta0``; for the negative-probability
    methods the baseline is zero, so the measure is the negative mass
    itself.  ``witness`` is the nonzero part of the optimal primal point,
    keyed by variable name.  Reports are only emitted after the exact
    certificate check passes, so ``certified`` is always True.
    """

    method: str
    delta: Fraction
    delta0: Fraction
    measure: Fraction
    noncontextual: bool
    witness: dict[str, Fraction]
    certified: bool

    def __post_init__(self):
        assert self.measure == self.delta - self.delta0 >= 0
        assert self.noncontextual == (self.measure == 0)


@dataclass(frozen=True)
class ProblemSizes:
    method: str
    variable_count: int
    equality_count: int
    inequality_count: int


def _joint_atoms(sys: System, cap: int) -> list[tuple]:
    sizes = [len(p.alphabet) for p in sys.properties]
    count = math.prod(sizes)
    if count > cap:
        raise AlphabetTooLarge(
            f"joint over all properties has {count} atoms (cap {cap})"
        )
    return list(itertools.product(*(p.alphabet for p in sys.properties)))


def _fibers(sys: System, cid: str, joint: list[tuple]) -> dict[tuple, list[int]]:
    """Indices of the joint atoms over each context atom, in context-atom order."""
    positions = [sys.property_index[pid] for pid in sys.context(cid).properties]
    fibers: dict[tuple, list[int]] = {v: [] for v in sys.bunch(cid).atoms()}
    key = operator.itemgetter(*positions)
    if len(positions) == 1:
        for j, z in enumerate(joint):
            fibers[(key(z),)].append(j)
    else:
        for j, z in enumerate(joint):
            fibers[key(z)].append(j)
    return fibers


def build_present_lp(sys: System, max_joint_atoms: int = DEFAULT_ATOM_CAP) -> LinearProgram:
    """Program whose optimum is the minimal approximating-system distance."""
    joint = _joint_atoms(sys, max_joint_atoms)
    names = [f"q[{_atom_label(z)}]" for z in joint]
    cost: list[Fraction] = [ZERO] * len(joint)
    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    for ctx in sys.contexts:
        tied = _coupling_block(names, cost, rows, rhs, f"w[{ctx.id}]", sys.bunch(ctx.id))
        for row, fiber in zip(tied, _fibers(sys, ctx.id, joint).values()):
            for qcol in fiber:  # approximating-side marginal = joint
                row[qcol] = NEG_ONE
        rows += tied
        rhs += [ZERO] * len(tied)
    return LinearProgram(tuple(names), tuple(cost), tuple(rows), tuple(rhs))


def build_cbd_lp(sys: System, max_joint_atoms: int = DEFAULT_ATOM_CAP) -> LinearProgram:
    """Program whose optimum is the minimal total connection disagreement."""
    ctx_atoms = [list(sys.bunch(c.id).atoms()) for c in sys.contexts]
    count = math.prod(len(a) for a in ctx_atoms)
    if count > max_joint_atoms:
        raise AlphabetTooLarge(
            f"coupling of all bunches has {count} atoms (cap {max_joint_atoms})"
        )
    # Where each property sits inside each of its contexts.
    slots: list[list[tuple[int, int]]] = []
    for p in sys.properties:
        where = []
        for t, ctx in enumerate(sys.contexts):
            if p.id in ctx.properties:
                where.append((t, ctx.properties.index(p.id)))
        slots.append(where)
    names: list[str] = []
    cost: list[Fraction] = []
    broken_cost = [Fraction(k) for k in range(len(slots) + 1)]
    buckets: dict[tuple[int, tuple], dict[int, Fraction]] = {}
    for t, atoms in enumerate(ctx_atoms):
        for u in atoms:
            buckets[(t, u)] = {}
    ctx_labels = [[_atom_label(u) for u in atoms] for atoms in ctx_atoms]
    columns = zip(itertools.product(*ctx_atoms), itertools.product(*ctx_labels))
    for col, (assign, labels) in enumerate(columns):
        names.append("z[" + ";".join(labels) + "]")
        broken = 0
        for where in slots:
            if len(where) < 2:
                continue
            first = assign[where[0][0]][where[0][1]]
            if any(assign[t][k] != first for t, k in where[1:]):
                broken += 1
        cost.append(broken_cost[broken])
        for t, u in enumerate(assign):
            buckets[(t, u)][col] = ONE
    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    for t, ctx in enumerate(sys.contexts):
        bunch = sys.bunch(ctx.id)
        for u in ctx_atoms[t]:
            rows.append(buckets[(t, u)])
            rhs.append(bunch[u])
    return LinearProgram(tuple(names), tuple(cost), tuple(rows), tuple(rhs))


def build_np_lp(sys: System, max_joint_atoms: int = DEFAULT_ATOM_CAP) -> LinearProgram:
    """Program whose optimum is the minimal negative mass of a signed joint.

    Only defined for consistently connected systems.  The unit-total-mass
    condition is implied by any one context's marginal rows, so no separate
    normalization row is added.
    """
    if not consistency_report(sys).consistent:
        raise InconsistentlyConnected(
            "a signed joint with context marginals equal to the bunches "
            "requires consistent connectedness"
        )
    joint = _joint_atoms(sys, max_joint_atoms)
    n = len(joint)
    names = [f"pos[{_atom_label(z)}]" for z in joint]
    names += [f"neg[{_atom_label(z)}]" for z in joint]
    cost = [ZERO] * n + [ONE] * n
    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    for ctx in sys.contexts:
        bunch = sys.bunch(ctx.id)
        for v, fiber in _fibers(sys, ctx.id, joint).items():
            row: dict[int, Fraction] = {}
            for j in fiber:
                row[j] = ONE
                row[n + j] = NEG_ONE
            rows.append(row)
            rhs.append(bunch[v])
    return LinearProgram(tuple(names), tuple(cost), tuple(rows), tuple(rhs))


def build_np_inside_lp(
    sys: System, delta0: Fraction, max_joint_atoms: int = DEFAULT_ATOM_CAP
) -> LinearProgram:
    """Minimal negative mass over optimally-approximating signed joints.

    `delta0` must be the per-property floor of the system; the distance
    expression is pinned to it through one slack variable (the distance can
    never go below the floor, so the inequality binds exactly).  The
    coupling blocks are nonnegative, which forces every context marginal of
    the signed joint to be a proper distribution.
    """
    joint = _joint_atoms(sys, max_joint_atoms)
    n = len(joint)
    names = [f"pos[{_atom_label(z)}]" for z in joint]
    names += [f"neg[{_atom_label(z)}]" for z in joint]
    cost: list[Fraction] = [ZERO] * n + [ONE] * n
    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    for ctx in sys.contexts:
        tied = _coupling_block(names, cost, rows, rhs, f"w[{ctx.id}]", sys.bunch(ctx.id))
        for row, fiber in zip(tied, _fibers(sys, ctx.id, joint).values()):
            for z in fiber:
                row[z] = NEG_ONE
                row[n + z] = ONE
        rows += tied
        rhs += [ZERO] * len(tied)
    # The blocks' Hamming costs make up the distance row, not the objective.
    delta_row = {j: c for j, c in enumerate(cost[2 * n:], 2 * n) if c}
    cost[2 * n:] = [ZERO] * (len(cost) - 2 * n)
    names.append("slack")
    cost.append(ZERO)
    delta_row[len(names) - 1] = ONE
    rows.append(delta_row)
    rhs.append(Fraction(delta0))
    return LinearProgram(tuple(names), tuple(cost), tuple(rows), tuple(rhs))


def build_fixed_model_lp(sys: System, model: Mapping[str, Pmf]) -> LinearProgram:
    """Distance from the data to one fixed consistently connected model."""
    want = {c.id for c in sys.contexts}
    have = set(model)
    if want != have:
        raise ShapeMismatch(
            f"model contexts {sorted(have)} do not match system contexts {sorted(want)}"
        )
    try:
        model_sys = System(sys.properties, sys.contexts, dict(model))
    except ValidationError as exc:
        raise ShapeMismatch(f"model does not fit the system: {exc}") from exc
    if not consistency_report(model_sys).consistent:
        raise ModelNotConsistentlyConnected(
            "approximating model must have context-independent marginals"
        )
    names: list[str] = []
    cost: list[Fraction] = []
    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    for ctx in sys.contexts:
        tied = _coupling_block(names, cost, rows, rhs, f"w[{ctx.id}]", sys.bunch(ctx.id))
        rows += tied
        rhs += [model[ctx.id][v] for v in sys.bunch(ctx.id).atoms()]
    return LinearProgram(tuple(names), tuple(cost), tuple(rows), tuple(rhs))


def build_lp(
    sys: System,
    method: str,
    model: Optional[Mapping[str, Pmf]] = None,
    max_joint_atoms: int = DEFAULT_ATOM_CAP,
) -> LinearProgram:
    """Build the program for any supported method (dispatch helper)."""
    if method == "present":
        return build_present_lp(sys, max_joint_atoms)
    if method == "cbd":
        return build_cbd_lp(sys, max_joint_atoms)
    if method == "np":
        return build_np_lp(sys, max_joint_atoms)
    if method == "np_inside":
        return build_np_inside_lp(sys, delta0_present(sys), max_joint_atoms)
    if method == "fixed_model":
        if model is None:
            raise ShapeMismatch("fixed_model requires a model")
        return build_fixed_model_lp(sys, model)
    raise ValueError(f"unknown method {method!r}; choose from {METHODS}")


def measure(
    sys: System,
    method: str,
    model: Optional[Mapping[str, Pmf]] = None,
    max_joint_atoms: int = DEFAULT_ATOM_CAP,
) -> MeasureReport:
    """Build, solve exactly, certify, and compare against the baseline.

    For ``present``/``cbd``/``fixed_model`` the measure is the excess of
    the optimal distance over the floor forced by the marginals alone; for
    ``np``/``np_inside`` it is the minimal negative mass (baseline zero).
    """
    lp = build_lp(sys, method, model=model, max_joint_atoms=max_joint_atoms)
    if method in ("present", "fixed_model"):
        delta0 = delta0_present(sys)
    elif method == "cbd":
        delta0 = delta0_cbd(sys)
    else:
        delta0 = ZERO
    sol = solve_certified(lp)
    delta = sol.objective
    return MeasureReport(
        method=method,
        delta=delta,
        delta0=delta0,
        measure=delta - delta0,
        noncontextual=(delta == delta0),
        witness=sol.named_primal(lp),
        certified=True,
    )


def problem_sizes(m: int, n: int) -> list[ProblemSizes]:
    """Program dimensions for a binary system with m-by-n paired contexts.

    The coupling-of-all-bunches program has 4**(m*n) columns (each of the
    m*n contexts contributes a factor of 4, its number of outcome pairs).
    Shapes with more than 4096 contexts are refused before any power is
    computed.
    """
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    mn = m * n
    if mn > _MAX_SIZES_CONTEXTS:
        raise ValueError(f"m*n = {mn} exceeds {_MAX_SIZES_CONTEXTS} paired contexts")
    return [
        ProblemSizes("cbd", 4**mn, 4 * mn, 0),
        ProblemSizes("np", 2 ** (m + n + 1), 4 * mn, 0),
        ProblemSizes("present", 2 ** (m + n) + 16 * mn, 8 * mn, 0),
    ]
