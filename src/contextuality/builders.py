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
the shape that ``_shape_key`` gives (property ids and printed alphabets,
context ids and members), so they are built from that key alone, from
the shape's product system (``_product_system``).  Every call then adds
only the right-hand side (``_rhs``): each context's bunch weights in atom
order, each followed by its coupling block's other side (zeros where it
is tied to the joint, the model's weights for ``fixed_model``), and
``delta0`` last for ``np_inside``.  The atom cap, np's consistency check,
every floor, every solve and every certificate check still run on every
call.  Up to ``_CACHE_MAX_NONZEROS`` matrix entries, the names, costs
and rows form a template (``lp._Template``), kept in a small private
cache.  Its start is the program of the shape's product system (with
floor 0): solve_exact, and so solve_certified, solves every program of
the shape from the optimal basis there (see ``lp``), so a witness, one
optimum among possibly many, depends on the input and its shape alone.
A larger shape gets a plain program on every call, solved by two phases.

Program sizes have one model, ``_blocks``: from the shape alone it gives
each block's atoms, columns, rows and nonzeros.  The atom cap is the
module constant ``ATOM_CAP``.  Before a template is looked up or built,
``AlphabetTooLarge`` refuses the joint over all properties (``present``,
``np``, ``np_inside``) or the coupling of all bunches (``cbd``) with more
atoms, then each context's coupling block ``w[c]`` with |A_c|^2 atoms
(``present``, ``np_inside``, ``fixed_model``), then a program with more
columns in all, and then one with more than ``NONZERO_CAP`` matrix
entries.  The same model decides whether a template is cached and gives
the ``sizes`` table (``problem_sizes``).
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Optional

from . import examples
from .analytic import NEG_ONE, _atom_label, _coupling_block, delta0_cbd, delta0_present
from .errors import (
    AlphabetTooLarge,
    CertificationFailure,
    InconsistentlyConnected,
    ModelNotConsistentlyConnected,
    ShapeMismatch,
    ValidationError,
)
from .lp import LinearProgram, _Template, solve_certified
from .system import (Context, Pmf, Property, System, _atom_weights, _id_list, _quoted, _shown,
                     _slots, consistency_report)

ZERO = Fraction(0)
ONE = Fraction(1)

METHODS = ("present", "cbd", "np", "np_inside", "fixed_model")

ATOM_CAP = 1 << 20
# _check_blocks refuses a program with more matrix entries than this: cbd's
# columns each hold one entry per context, so 10 pair contexts fit the
# atom cap with 10 times as many entries, while 3x3 cbd has 2 359 296.
NONZERO_CAP = 1 << 22

# problem_sizes refuses m*n above this, before computing 4**(m*n); every
# count it reports then also prints under Python's default int-to-str limit
# of 4300 digits (4**7142 is the largest power of 4 that does).
_MAX_SIZES_CONTEXTS = 4096

# _cached_template keeps the templates of the _CACHE_TEMPLATES most
# recently used shapes (functools.lru_cache, which is thread-safe); a shape
# with more than _CACHE_MAX_NONZEROS matrix entries gets a plain program on
# every call instead, which costs little beside solving it.
_CACHE_TEMPLATES = 16
_CACHE_MAX_NONZEROS = 1 << 13


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
        if not (self.measure == self.delta - self.delta0 >= 0
                and self.noncontextual == (self.measure == 0)):
            measure = _shown(self.measure)
            raise ValidationError(f"inconsistent {self.method} report (measure {measure})")


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


def _blocks(family: str, shape: tuple) -> list[tuple[str, int, int, int, int]]:
    """(name, atoms, columns, rows, nonzeros) of every block that `family`'s
    template builds for `shape`, a `_shape_key`, by arithmetic alone.

    A block owns its columns, the rows it adds and the entries in its
    columns.  With J joint atoms, k atoms in a context and |C| contexts: the
    joint's J columns (pos and neg, 2J, when signed) sit in one row per
    context; w[c] has k^2 columns, 2k rows and two entries a column, plus
    one in np_inside's distance row for each of its k^2 - k nonzero costs;
    that row adds one slack column.
    """
    props, contexts = shape
    size = {pid: len(labels) for pid, labels in props}
    width = [(cid, math.prod(size[p] for p in members)) for cid, members in contexts]
    rows = sum(k for _, k in width)
    if family == "cbd":
        atoms = math.prod(k for _, k in width)
        return [("coupling of all bunches", atoms, atoms, rows, len(width) * atoms)]
    blocks = []
    if family != "fixed_model":
        joint = math.prod(size.values())
        columns = joint if family == "present" else 2 * joint
        blocks.append(("joint over all properties", joint, columns,
                       rows if family == "np" else 0, columns * len(width)))
    if family != "np":
        inside = family == "np_inside"
        blocks += [(f"coupling block of context {cid}", k * k, k * k, 2 * k,
                    3 * k * k - k if inside else 2 * k * k) for cid, k in width]
    if family == "np_inside":
        blocks.append(("distance row", 0, 1, 1, 1))
    return blocks


def _check_blocks(family: str, shape: tuple) -> int:
    """Refuse a template of `family` for `shape` with a block of more than
    ATOM_CAP atoms (the joint or the coupling of all bunches first, then
    each w[c]), with more than ATOM_CAP columns in all, or with more than
    NONZERO_CAP nonzeros; else return its nonzeros."""
    blocks = _blocks(family, shape)
    for name, atoms, _, _, _ in blocks:
        if atoms > ATOM_CAP:
            raise AlphabetTooLarge(f"{name} has {atoms} atoms (cap {ATOM_CAP})")
    columns = sum(block[2] for block in blocks)
    if columns > ATOM_CAP:
        raise AlphabetTooLarge(f"{family} program has {columns} columns (cap {ATOM_CAP})")
    nonzeros = sum(block[4] for block in blocks)
    if nonzeros > NONZERO_CAP:
        raise AlphabetTooLarge(f"{family} program has {nonzeros} nonzeros (cap {NONZERO_CAP})")
    return nonzeros


def _program_maker(family: str, sys: System) -> Callable[[tuple], LinearProgram]:
    """The cached template's `program` for `family` on the shape of `sys`, or,
    above _CACHE_MAX_NONZEROS, a maker of plain programs for this call alone."""
    key = (family, _shape_key(sys))
    if _check_blocks(*key) > _CACHE_MAX_NONZEROS:
        return functools.partial(LinearProgram, *_build(family, _product_system(key[1])))
    return _cached_template(*key).program


@functools.lru_cache(maxsize=_CACHE_TEMPLATES)
def _cached_template(family: str, shape: tuple) -> _Template:
    """`family`'s template for `shape`, started at the shape's product system."""
    product = _product_system(shape)
    return _Template(*_build(family, product), _rhs(family, product, product.bunches, ZERO))


def _build(family: str, sys: System) -> tuple[tuple, tuple, tuple]:
    """`family`'s names, costs and rows for `sys`."""
    parts = {"present": _present_template, "cbd": _cbd_template, "np": _np_template,
             "np_inside": _np_inside_template, "fixed_model": _fixed_model_template}[family](sys)
    return tuple(map(tuple, parts))


def _product_system(shape: tuple) -> System:
    """The product system of `shape`, a `_shape_key`: each property over its
    printed labels, the i-th of a labels weighted 2 (a - i) / (a (a + 1)),
    each bunch the product of its members' weights.  It is consistently
    connected, so its floor is 0, and it is its own model."""
    props, contexts = shape
    alphabet = dict(props)
    bunch: dict[tuple, Pmf] = {}  # one for each tuple of alphabets
    for _, members in contexts:
        alphabets = tuple(map(alphabet.get, members))
        if alphabets not in bunch:
            weights = [[Fraction(2 * (len(a) - i), len(a) * (len(a) + 1)) for i in range(len(a))]
                       for a in alphabets]
            bunch[alphabets] = Pmf(alphabets, zip(itertools.product(*alphabets),
                                                  map(math.prod, itertools.product(*weights))))
    return System(itertools.starmap(Property, props), itertools.starmap(Context, contexts),
                  {cid: bunch[tuple(map(alphabet.get, members))] for cid, members in contexts})


def _rhs(family: str, sys: System, model: Optional[Mapping[str, Pmf]],
         delta0: Fraction) -> tuple[Fraction, ...]:
    """`family`'s right-hand side for `sys`: every context's bunch weights
    in atom order, each followed by its coupling block's other side (zeros
    where it is tied to a joint, `model`'s weights for ``fixed_model``), and
    `delta0` last for ``np_inside``."""
    rhs: list[Fraction] = []
    for ctx in sys.contexts:
        weights = _atom_weights(sys.bunches[ctx.id])
        rhs += weights
        if family in ("present", "np_inside"):
            rhs += [ZERO] * len(weights)
        elif family == "fixed_model":
            rhs += _atom_weights(model[ctx.id])
    return tuple(rhs + [delta0] if family == "np_inside" else rhs)


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


def _present_template(sys: System) -> tuple[list, list, list]:
    joint = _joint_atoms(sys)
    names = _joint_names("q", joint)
    cost: list[Fraction] = [ZERO] * len(joint)
    rows = _coupled_to_joint(sys, names, cost, joint, signed=False)
    return names, cost, rows


def _cbd_template(sys: System) -> tuple[list, list, list]:
    ctx_atoms = [list(sys.bunch(c.id).atoms()) for c in sys.contexts]
    slots = [_slots(sys, p.id) for p in sys.properties]
    names: list[str] = []
    cost: list[Fraction] = []
    broken_cost = [Fraction(k) for k in range(len(slots) + 1)]
    buckets = {(t, u): {} for t, atoms in enumerate(ctx_atoms) for u in atoms}
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
    return names, cost, rows


def _np_template(sys: System) -> tuple[list, list, list]:
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
    return names, cost, rows


def _np_inside_template(sys: System) -> tuple[list, list, list]:
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
    return names, cost, rows


def _fixed_model_template(sys: System) -> tuple[list, list, list]:
    names: list[str] = []
    cost: list[Fraction] = []
    rows = _coupled_to_joint(sys, names, cost, [], signed=False)
    return names, cost, rows


def build_present_lp(sys: System) -> LinearProgram:
    """Program whose optimum is the minimal approximating-system distance."""
    return _program_maker("present", sys)(_rhs("present", sys, None, ZERO))


def build_cbd_lp(sys: System) -> LinearProgram:
    """Program whose optimum is the minimal total connection disagreement."""
    return _program_maker("cbd", sys)(_rhs("cbd", sys, None, ZERO))


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
    return _program_maker("np", sys)(_rhs("np", sys, None, ZERO))


def build_np_inside_lp(sys: System, delta0: Fraction) -> LinearProgram:
    """Minimal negative mass over optimally-approximating signed joints.

    `delta0` must be the per-property floor of the system; the distance
    expression is pinned to it through one slack variable (the distance can
    never go below the floor, so the inequality binds exactly).  The
    coupling blocks are nonnegative, which forces every context marginal of
    the signed joint to be a proper distribution.
    """
    return _program_maker("np_inside", sys)(_rhs("np_inside", sys, None, Fraction(delta0)))


def build_fixed_model_lp(sys: System, model: Mapping[str, Pmf]) -> LinearProgram:
    """Distance from the data to one fixed consistently connected model."""
    want = {c.id for c in sys.contexts}
    have = set(model)
    if want != have:
        raise ShapeMismatch(
            f"model contexts {_id_list(have)} do not match system contexts {_id_list(want)}"
        )
    try:
        model_sys = System(sys.properties, sys.contexts, dict(model))
    except ValidationError as exc:
        raise ShapeMismatch(f"model does not fit the system: {exc}") from exc
    if not consistency_report(model_sys).consistent:
        raise ModelNotConsistentlyConnected(
            "approximating model must have context-independent marginals"
        )
    return _program_maker("fixed_model", sys)(_rhs("fixed_model", sys, model_sys.bunches, ZERO))


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
        # The gate and the template before the floor, whose LP blocks are no larger.
        return _program_maker(method, sys)(_rhs(method, sys, None, delta0_present(sys)))
    if method == "fixed_model":
        if model is None:
            raise ShapeMismatch("fixed_model requires a model")
        return build_fixed_model_lp(sys, model)
    raise ValidationError(f"unknown method {_quoted(method)}; choose from {METHODS}")


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
    if delta < delta0:
        raise CertificationFailure(
            f"certified optimum {_shown(delta)} is below the floor {_shown(delta0)}")
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
    """Program dimensions for a binary system with m-by-n paired contexts,
    summed from the size model over the shape ``examples._paired_system``
    lays out.

    The coupling-of-all-bunches program has 4**(m*n) columns (each of the
    m*n contexts contributes a factor of 4, its number of outcome pairs).
    An empty shape, or one with more than 4096 contexts, is refused with
    ValidationError before any power is computed.
    """
    if m < 1 or n < 1:
        raise ValidationError("m and n must be >= 1")
    mn = m * n
    if mn > _MAX_SIZES_CONTEXTS:
        raise ValidationError(f"m*n = {_shown(mn)} exceeds {_MAX_SIZES_CONTEXTS} paired contexts")
    pm = examples.PM
    point = Pmf([pm, pm], {(1, 1): ONE})
    shape = _shape_key(examples._paired_system(m, n, pm, lambda i, j: point))
    blocks = {family: _blocks(family, shape) for family in ("cbd", "np", "present")}
    return [ProblemSizes(f, sum(b[2] for b in bs), sum(b[3] for b in bs), 0)
            for f, bs in blocks.items()]
