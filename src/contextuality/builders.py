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

Each family compiles in two steps.  Names, costs and rows depend only on
the system's shape (property ids and printed alphabets, context ids and
members), so they form a template (``lp._Template``) that is built once
per shape and kept in a small private cache.  Every call then adds only
the right-hand side: each context's bunch weights in atom order, followed
by zeros for the rows that tie a coupling block to the joint (the model's
weights for ``fixed_model``), and ``delta0`` last for ``np_inside``.  The
atom cap, np's consistency check, every floor, every solve and every
certificate check still run on every call.

The atom cap is the module constant ``ATOM_CAP``: a joint over all
properties (``present``, ``np``, ``np_inside``) or a coupling of all
bunches (``cbd``) with more atoms is refused with ``AlphabetTooLarge``
before its template is looked up or built.
"""
from __future__ import annotations

import itertools
import math
import operator
import threading
from collections import OrderedDict
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
from .lp import LinearProgram, _Template, solve_certified
from .system import Pmf, System, _atom_weights, _slots, consistency_report

ZERO = Fraction(0)
ONE = Fraction(1)

METHODS = ("present", "cbd", "np", "np_inside", "fixed_model")

ATOM_CAP = 1 << 20

# problem_sizes refuses m*n above this, before computing 4**(m*n); every
# count it reports then also prints under Python's default int-to-str limit
# of 4300 digits (4**7142 is the largest power of 4 that does).
_MAX_SIZES_CONTEXTS = 4096

# Templates of recently used shapes, least recently used first.  At most
# _CACHE_TEMPLATES are kept, and a template with more than
# _CACHE_MAX_NONZEROS matrix entries is never kept: it is built on every
# call, which costs little beside solving it.
_CACHE_TEMPLATES = 16
_CACHE_MAX_NONZEROS = 1 << 13
_templates: OrderedDict[tuple, _Template] = OrderedDict()
_templates_lock = threading.Lock()


@dataclass(frozen=True)
class MeasureReport:
    """Result of one measure computation.

    ``measure`` equals ``delta - delta0``; for the negative-probability
    methods the baseline is zero, so the measure is the negative mass
    itself.  ``witness`` is the nonzero part of the optimal primal point,
    keyed by variable name.  Reports are only emitted after the exact
    certificate check passes, so ``certified`` is always True.  It is kept
    because the goldens, the reports and the benchmark's checks read it.
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
    """One method's program dimensions for an m-by-n paired binary system.

    Every program is in equality form, so ``inequality_count`` is always
    0.  It is kept because the ``sizes`` table and JSON, and the
    benchmark's checks, read it.
    """

    method: str
    variable_count: int
    equality_count: int
    inequality_count: int


def _shape_key(sys: System) -> tuple:
    """Everything a template depends on: property ids with their alphabets'
    printed labels, and context ids with their members.  Labels, not
    symbols, because names hold labels: 1 == True, but they print apart."""
    return (tuple((p.id, tuple(map(str, p.alphabet))) for p in sys.properties),
            tuple((c.id, c.properties) for c in sys.contexts))


def _cached_template(family: str, sys: System, build) -> _Template:
    """The cached template of `family` for the shape of `sys`, or `build(sys)`."""
    key = (family, _shape_key(sys))
    with _templates_lock:
        template = _templates.get(key)
        if template is not None:
            _templates.move_to_end(key)
            return template
    template = build(sys)
    if template.nonzeros <= _CACHE_MAX_NONZEROS:
        with _templates_lock:
            _templates[key] = template
            if len(_templates) > _CACHE_TEMPLATES:
                _templates.popitem(last=False)
    return template


def _check_atoms(count: int, what: str) -> None:
    if count > ATOM_CAP:
        raise AlphabetTooLarge(f"{what} has {count} atoms (cap {ATOM_CAP})")


def _check_joint(sys: System) -> None:
    _check_atoms(math.prod(len(p.alphabet) for p in sys.properties),
                 "joint over all properties")


def _joint_atoms(sys: System) -> list[tuple]:
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


def _joint_names(prefix: str, joint: list[tuple]) -> list[str]:
    return [f"{prefix}[{_atom_label(z)}]" for z in joint]


def _coupled_to_joint(sys: System, names: list[str], cost: list[Fraction],
                      joint: list[tuple], signed: bool) -> list[dict[int, Fraction]]:
    """One coupling block per context whose second side is the joint's
    marginal there: q for an unsigned joint, pos - neg for a signed one."""
    n = len(joint)
    rows: list[dict[int, Fraction]] = []
    for ctx in sys.contexts:
        tied = _coupling_block(names, cost, rows, f"w[{ctx.id}]", sys.bunch(ctx.id).alphabets)
        for row, fiber in zip(tied, _fibers(sys, ctx.id, joint).values()):
            for j in fiber:
                row[j] = NEG_ONE
                if signed:
                    row[n + j] = ONE
        rows += tied
    return rows


def _present_template(sys: System) -> _Template:
    joint = _joint_atoms(sys)
    names = _joint_names("q", joint)
    cost: list[Fraction] = [ZERO] * len(joint)
    rows = _coupled_to_joint(sys, names, cost, joint, signed=False)
    return _Template(names, cost, rows)


def _cbd_template(sys: System) -> _Template:
    ctx_atoms = [list(sys.bunch(c.id).atoms()) for c in sys.contexts]
    slots = [_slots(sys, p.id) for p in sys.properties]
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
    rows = [buckets[(t, u)] for t, atoms in enumerate(ctx_atoms) for u in atoms]
    return _Template(names, cost, rows)


def _np_template(sys: System) -> _Template:
    joint = _joint_atoms(sys)
    n = len(joint)
    names = _joint_names("pos", joint) + _joint_names("neg", joint)
    cost = [ZERO] * n + [ONE] * n
    rows: list[dict[int, Fraction]] = []
    for ctx in sys.contexts:
        for fiber in _fibers(sys, ctx.id, joint).values():
            row: dict[int, Fraction] = {}
            for j in fiber:
                row[j] = ONE
                row[n + j] = NEG_ONE
            rows.append(row)
    return _Template(names, cost, rows)


def _np_inside_template(sys: System) -> _Template:
    joint = _joint_atoms(sys)
    n = len(joint)
    names = _joint_names("pos", joint) + _joint_names("neg", joint)
    cost: list[Fraction] = [ZERO] * n + [ONE] * n
    rows = _coupled_to_joint(sys, names, cost, joint, signed=True)
    # The blocks' Hamming costs make up the distance row, not the objective.
    delta_row = {j: c for j, c in enumerate(cost[2 * n:], 2 * n) if c}
    cost[2 * n:] = [ZERO] * (len(cost) - 2 * n)
    names.append("slack")
    cost.append(ZERO)
    delta_row[len(names) - 1] = ONE
    rows.append(delta_row)
    return _Template(names, cost, rows)


def _fixed_model_template(sys: System) -> _Template:
    names: list[str] = []
    cost: list[Fraction] = []
    rows = _coupled_to_joint(sys, names, cost, [], signed=False)
    return _Template(names, cost, rows)


def _bunch_rhs(sys: System) -> list[Fraction]:
    """Every context's bunch weights in atom order."""
    return [w for ctx in sys.contexts for w in _atom_weights(sys.bunches[ctx.id])]


def _coupled_rhs(sys: System, model: Optional[Mapping[str, Pmf]] = None) -> list[Fraction]:
    """Every context's bunch weights, each followed by its coupling block's
    other side: the model's weights, or zeros where it is tied to a joint."""
    rhs: list[Fraction] = []
    for ctx in sys.contexts:
        weights = _atom_weights(sys.bunches[ctx.id])
        rhs += weights
        rhs += [ZERO] * len(weights) if model is None else _atom_weights(model[ctx.id])
    return rhs


def build_present_lp(sys: System) -> LinearProgram:
    """Program whose optimum is the minimal approximating-system distance."""
    _check_joint(sys)
    return _cached_template("present", sys, _present_template).program(_coupled_rhs(sys))


def build_cbd_lp(sys: System) -> LinearProgram:
    """Program whose optimum is the minimal total connection disagreement."""
    _check_atoms(math.prod(len(sys.property(pid).alphabet)
                           for c in sys.contexts for pid in c.properties),
                 "coupling of all bunches")
    return _cached_template("cbd", sys, _cbd_template).program(_bunch_rhs(sys))


def build_np_lp(sys: System) -> LinearProgram:
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
    _check_joint(sys)
    return _cached_template("np", sys, _np_template).program(_bunch_rhs(sys))


def build_np_inside_lp(sys: System, delta0: Fraction) -> LinearProgram:
    """Minimal negative mass over optimally-approximating signed joints.

    `delta0` must be the per-property floor of the system; the distance
    expression is pinned to it through one slack variable (the distance can
    never go below the floor, so the inequality binds exactly).  The
    coupling blocks are nonnegative, which forces every context marginal of
    the signed joint to be a proper distribution.
    """
    _check_joint(sys)
    template = _cached_template("np_inside", sys, _np_inside_template)
    return template.program(_coupled_rhs(sys) + [Fraction(delta0)])


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
    template = _cached_template("fixed_model", sys, _fixed_model_template)
    return template.program(_coupled_rhs(sys, model_sys.bunches))


def build_lp(
    sys: System, method: str, model: Optional[Mapping[str, Pmf]] = None
) -> LinearProgram:
    """Build the program for any supported method (dispatch helper)."""
    if method == "present":
        return build_present_lp(sys)
    if method == "cbd":
        return build_cbd_lp(sys)
    if method == "np":
        return build_np_lp(sys)
    if method == "np_inside":
        return build_np_inside_lp(sys, delta0_present(sys))
    if method == "fixed_model":
        if model is None:
            raise ShapeMismatch("fixed_model requires a model")
        return build_fixed_model_lp(sys, model)
    raise ValidationError(f"unknown method {method!r}; choose from {METHODS}")


def measure(
    sys: System, method: str, model: Optional[Mapping[str, Pmf]] = None
) -> MeasureReport:
    """Build, solve exactly, certify, and compare against the baseline.

    For ``present``/``cbd``/``fixed_model`` the measure is the excess of
    the optimal distance over the floor forced by the marginals alone; for
    ``np``/``np_inside`` it is the minimal negative mass (baseline zero).
    """
    lp = build_lp(sys, method, model=model)
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
    An empty shape, or one with more than 4096 contexts, is refused with
    ValidationError before any power is computed.
    """
    if m < 1 or n < 1:
        raise ValidationError("m and n must be >= 1")
    mn = m * n
    if mn > _MAX_SIZES_CONTEXTS:
        raise ValidationError(f"m*n = {mn} exceeds {_MAX_SIZES_CONTEXTS} paired contexts")
    return [
        ProblemSizes("cbd", 4**mn, 4 * mn, 0),
        ProblemSizes("np", 2 ** (m + n + 1), 4 * mn, 0),
        ProblemSizes("present", 2 ** (m + n) + 16 * mn, 8 * mn, 0),
    ]
