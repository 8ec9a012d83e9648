"""Closed-form measure components, with small LPs for general alphabets.

The quantities here are the building blocks of the contextuality measures:

* maximal coupling probability of a family of same-alphabet marginals,
  sum over outcomes of the smallest probability assigned by any marginal;
* total variation distance, 1 minus the maximal coupling probability of a
  pair (equivalently half the L1 distance, and half the absolute difference
  of means for +/-1-valued variables);
* the per-property floor `delta_p`: the smallest achievable sum of TV
  distances from one approximating distribution to all marginals of a
  connection (for +/-1 variables this is an L1 median problem, solved by
  the median of the means; general alphabets go through a small LP);
* the per-context minimal mismatch between a bunch and an approximating
  bunch over all couplings (closed form for two binary properties,
  otherwise an optimal-transport LP with Hamming cost).

`_coupling_block` writes every transport block of the package: the
mismatch program's, one per context of the delta_p program, and the
builders' blocks that couple each bunch to a joint or a fixed model.
Weights are read through `system`.  The closed forms (the median, the
maximal coupling, `delta0_present` and `delta0_cbd`) compute on the ints
over one denominator d that `system._connections` and `system._scaled`
return, and each makes one `Fraction` per value it returns; only a
delta_p that needs its LP reads rationals.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import (
    AlphabetMismatch,
    MeanOutOfRange,
    ShapeMismatch,
    UnrealizableStats,
)
from .lp import LinearProgram, solve_certified
from .system import (
    Pmf,
    System,
    _atom_weights,
    _check_symbols,
    _connections,
    _denominator,
    _scaled,
    _shown,
    _unmatched,
    expectation,
    is_plus_minus,
    product_expectation,
)

ZERO = Fraction(0)
ONE = Fraction(1)
NEG_ONE = Fraction(-1)
HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Couplings of marginals
# ---------------------------------------------------------------------------

def max_coupling_probability(marginals: Sequence[Pmf]) -> Fraction:
    """Largest achievable probability that coupled copies all agree."""
    if len(marginals) < 2:
        raise AlphabetMismatch("need at least two marginals")
    alphas = marginals[0].alphabets
    for m in marginals[1:]:
        if m.alphabets != alphas:
            raise AlphabetMismatch(f"alphabets differ: {m.alphabets} vs {alphas}")
    d, weights = _scaled(marginals)
    return Fraction(sum(map(min, *weights)), d)


def tv_distance(a: Pmf, b: Pmf) -> Fraction:
    """Total variation distance = 1 - maximal coupling probability."""
    return ONE - max_coupling_probability([a, b])


def pmf_from_mean(mean: Fraction) -> Pmf:
    """The +/-1-valued pmf with the given expectation."""
    mean = Fraction(mean)
    if not -1 <= mean <= 1:
        raise MeanOutOfRange(f"mean {_shown(mean)} outside [-1, 1]")
    return Pmf([(1, -1)], {(1,): (1 + mean) / 2, (-1,): (1 - mean) / 2})


# ---------------------------------------------------------------------------
# Binary pair statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinaryStats:
    """Means and product expectation of a +/-1-valued pair.

    Validity requires the standard realizability bounds
    |mean1 + mean2| - 1 <= product <= 1 - |mean1 - mean2|,
    which are exactly nonnegativity of the four joint atoms.
    """

    mean1: Fraction
    mean2: Fraction
    product: Fraction

    def __post_init__(self):
        for name in ("mean1", "mean2", "product"):
            v = Fraction(getattr(self, name))
            object.__setattr__(self, name, v)
            if not -1 <= v <= 1:
                raise MeanOutOfRange(f"{name}={_shown(v)} outside [-1, 1]")
        if not abs(self.mean1 + self.mean2) - 1 <= self.product <= 1 - abs(self.mean1 - self.mean2):
            raise UnrealizableStats(
                f"no +/-1 pair has means ({_shown(self.mean1)}, {_shown(self.mean2)}) "
                f"and product mean {_shown(self.product)}"
            )

    @classmethod
    def from_pmf(cls, pmf: Pmf) -> "BinaryStats":
        return cls(
            mean1=expectation(pmf.marginal([0])),
            mean2=expectation(pmf.marginal([1])),
            product=product_expectation(pmf),
        )

    def to_pmf(self) -> Pmf:
        weights = {}
        for a, b in itertools.product((1, -1), repeat=2):
            weights[(a, b)] = (1 + a * self.mean1 + b * self.mean2 + a * b * self.product) / 4
        return Pmf([(1, -1), (1, -1)], weights)


def cyclic2_min_partial(q: BinaryStats, r: BinaryStats) -> Fraction:
    """Minimal mismatch sum for one two-binary-property context.

    Over all couplings of two bunches with these statistics, the smallest
    possible value of Pr[first components differ] + Pr[second differ].
    """
    return HALF * max(
        abs(q.product - r.product),
        abs(q.mean1 - r.mean1) + abs(q.mean2 - r.mean2),
    )


# ---------------------------------------------------------------------------
# Per-property floor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MedianResult:
    """Median interval of the connection means and the floor it attains.

    Every q in [lo, hi] minimizes half the summed absolute deviations; the
    canonical representative is the interval midpoint.
    """

    lo: Fraction
    hi: Fraction
    delta_p: Fraction

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


@dataclass(frozen=True)
class DeltaP:
    value: Fraction
    optimizer: Union[Pmf, MedianResult]


def _median(values: Sequence[int]) -> tuple[int, int, int]:
    """(lo, hi, spread): the median interval of the ints `values` and the sum
    of their distances to lo, which every point of [lo, hi] attains."""
    vals = sorted(values)
    lo, hi = vals[(len(vals) - 1) // 2], vals[len(vals) // 2]
    return lo, hi, sum(abs(v - lo) for v in vals)


def median_binary(means: Sequence[Fraction]) -> MedianResult:
    """L1-optimal approximating mean for a binary connection."""
    if not means:
        raise MeanOutOfRange("empty list of means")
    vals = [Fraction(m) for m in means]
    for v in vals:
        if not -1 <= v <= 1:
            raise MeanOutOfRange(f"mean {_shown(v)} outside [-1, 1]")
    d = _denominator(vals)
    lo, hi, spread = _median([v.numerator * (d // v.denominator) for v in vals])
    return MedianResult(Fraction(lo, d), Fraction(hi, d), Fraction(spread, 2 * d))


def _closed_floor(alpha: tuple, d: int, weights: list[tuple[int, ...]]) -> int | None:
    """d times delta_p of a connection read as ints over d, or None where
    delta_p needs its LP.  For +/-1 the means 2 w(+1)/d - 1 have their
    median at the median of the w(+1), and half their spread is that of the
    w(+1) over d."""
    if is_plus_minus(alpha):
        return _median([w[alpha.index(1)] for w in weights])[2]
    return _unmatched(d, weights) if len(weights) <= 2 else None


def delta_p(sys: System, pid: str) -> DeltaP:
    """Smallest sum of TV distances from one distribution to a connection.

    +/-1 alphabets use the median characterization on the means, read
    off the connection's ints.  Other alphabets with at most two contexts
    have the closed form 1 - max coupling probability (0 for one context),
    attained at the first marginal: by the triangle inequality no q does
    better than the two marginals' own TV distance.  Anything else solves
    the equivalent small LP (see delta_p_via_lp).
    """
    alpha = sys.property(pid).alphabet
    d, conns = _connections(sys, (pid,))
    weights = conns[pid]
    floor = _closed_floor(alpha, d, weights)
    if floor is None:
        return delta_p_via_lp(sys, pid)
    if is_plus_minus(alpha):
        lo, hi, _ = _median([w[alpha.index(1)] for w in weights])
        median = MedianResult(Fraction(2 * lo - d, d), Fraction(2 * hi - d, d), Fraction(floor, d))
        return DeltaP(median.delta_p, median)
    return DeltaP(Fraction(floor, d), Pmf([alpha], zip(alpha, (Fraction(n, d) for n in weights[0]))))


def build_delta_p_lp(sys: System, pid: str) -> LinearProgram:
    """Program for delta_p over any finite alphabet.

    Variables: the approximating distribution q (first |alphabet| columns,
    in alphabet order) plus one coupling block per context; each block's
    q-side marginal is tied to q and its other marginal to the observed
    one, with mismatch mass as cost.
    """
    alpha = sys.property(pid).alphabet
    names = [f"q[{_atom_label((s,))}]" for s in alpha]
    cost = [ZERO] * len(alpha)
    rows: list[dict[int, Fraction]] = []
    rhs: list[Fraction] = []
    d, conns = _connections(sys, (pid,))
    for cid, w in zip(sys.contexts_of[pid], conns[pid]):
        # q is the block's first side, so its columns read w[cid][x|y].
        q_side: list[dict[int, Fraction]] = []
        observed = _coupling_block(names, cost, q_side, f"w[{cid}]", [alpha])
        for x, row in enumerate(q_side):
            row[x] = NEG_ONE
        rows += observed + q_side
        rhs += [Fraction(n, d) for n in w] + [ZERO] * len(alpha)
    return LinearProgram(tuple(names), tuple(cost), tuple(rows), tuple(rhs))


def delta_p_via_lp(sys: System, pid: str) -> DeltaP:
    """LP route for delta_p; the optimizer is read off the q block."""
    alpha = sys.property(pid).alphabet
    lp = build_delta_p_lp(sys, pid)
    sol = solve_certified(lp)
    q = Pmf([alpha], {(s,): sol.primal[j] for j, s in enumerate(alpha)})
    return DeltaP(sol.objective, q)


def delta0_present(sys: System) -> Fraction:
    """Sum of the per-property floors delta_p.

    The closed forms are summed as ints over the reader's d and made one
    Fraction; a property that needs its LP (three or more contexts, not
    +/-1) adds that LP's optimum.
    """
    d, conns = _connections(sys)
    total, solved = 0, ZERO
    for p in sys.properties:
        floor = _closed_floor(p.alphabet, d, conns[p.id])
        if floor is None:
            solved += solve_certified(build_delta_p_lp(sys, p.id)).objective
        else:
            total += floor
    return Fraction(total, d) + solved


def delta0_cbd(sys: System) -> Fraction:
    """Per-property minimal disagreement mass over couplings of connections.

    Each property with two or more contexts contributes 1 minus the maximal
    coupling probability of its connection, summed as ints over the
    reader's d.
    """
    d, conns = _connections(sys)
    return Fraction(sum(_unmatched(d, weights) for weights in conns.values()), d)


# ---------------------------------------------------------------------------
# Per-context minima and the bunch-set distance
# ---------------------------------------------------------------------------

def hamming(u: tuple, v: tuple) -> int:
    return sum(map(operator.ne, u, v))


def _atom_label(atom: tuple) -> str:
    """The text of an outcome tuple inside a variable name."""
    return ",".join(map(str, atom))


def _coupling_block(names: list[str], cost: list[Fraction], rows: list[dict[int, Fraction]],
                    prefix: str, alphabets: Sequence[Sequence]) -> list[dict[int, Fraction]]:
    """Append a transport block between two sides over the same `alphabets`.

    Adds columns ``{prefix}[u|v]`` for every pair of atoms (u on the first
    side, v on the second) with Hamming cost, and appends to `rows` the
    first side's marginal rows, one per u in atom order.  Returns the second
    side's marginal rows, one per v in atom order, for the caller to
    complete and append.  Right-hand sides are the caller's.
    """
    base = len(names)
    atoms = list(itertools.product(*alphabets))
    labels = [_atom_label(u) for u in atoms]
    distance = [Fraction(k) for k in range(len(alphabets) + 1)]
    for u, lu in zip(atoms, labels):
        for v, lv in zip(atoms, labels):
            names.append(f"{prefix}[{lu}|{lv}]")
            cost.append(distance[hamming(u, v)])
    na = len(atoms)
    for i in range(na):
        rows.append({base + i * na + j: ONE for j in range(na)})
    return [{base + i * na + j: ONE for i in range(na)} for j in range(na)]


def coupling_mismatch_lp(observed: Pmf, approx: Pmf) -> LinearProgram:
    """Transport program between two same-alphabet joints, Hamming cost.

    Bare pmfs skip the symbol check of `Property`, so it is made here:
    a symbol holding a name delimiter, or two symbols that print alike,
    is a ValidationError.
    """
    if observed.alphabets != approx.alphabets:
        raise AlphabetMismatch(
            f"alphabets differ: {observed.alphabets} vs {approx.alphabets}"
        )
    for alpha in observed.alphabets:
        _check_symbols(alpha, "symbol")
    names: list[str] = []
    cost: list[Fraction] = []
    rows: list[dict[int, Fraction]] = []
    tied = _coupling_block(names, cost, rows, "w", observed.alphabets)
    rows += tied
    rhs = _atom_weights(observed) + _atom_weights(approx)
    return LinearProgram(tuple(names), tuple(cost), tuple(rows), tuple(rhs))


def min_mismatch(observed: Pmf, approx: Pmf) -> Fraction:
    """Minimal expected number of disagreeing positions over all couplings.

    The alphabets choose the route: a single variable reduces to TV
    distance, two +/-1-valued variables use the cyclic-2 closed form, and
    everything else solves the transport LP `coupling_mismatch_lp`.  That
    LP is also the reference the closed forms are tested against.
    """
    if observed.alphabets != approx.alphabets:
        raise AlphabetMismatch(
            f"alphabets differ: {observed.alphabets} vs {approx.alphabets}"
        )
    if len(observed.alphabets) == 1:
        return tv_distance(observed, approx)
    if len(observed.alphabets) == 2 and all(is_plus_minus(a) for a in observed.alphabets):
        return cyclic2_min_partial(BinaryStats.from_pmf(approx), BinaryStats.from_pmf(observed))
    return solve_certified(coupling_mismatch_lp(observed, approx)).objective


def per_context_min_delta(sys: System, q_joint: Pmf, cid: str) -> Fraction:
    """Minimal mismatch sum in one context against a joint approximator.

    `q_joint` must be a distribution over the full property tuple in
    canonical (sorted-by-id) property order; its marginal on the context's
    properties plays the approximating bunch.
    """
    expected = tuple(p.alphabet for p in sys.properties)
    if q_joint.alphabets != expected:
        raise ShapeMismatch(
            f"q_joint alphabets {q_joint.alphabets} do not match the "
            f"system's property alphabets {expected}"
        )
    ctx = sys.context(cid)
    positions = [sys.property_index[pid] for pid in ctx.properties]
    return min_mismatch(sys.bunch(cid), q_joint.marginal(positions))


def bunch_set_distance(a: System, b: System) -> Fraction:
    """Sum over contexts of the per-context minimal mismatch.

    This is a metric on systems sharing properties and contexts: zero iff
    all bunch distributions coincide, symmetric, triangle inequality.
    """
    if [c.id for c in a.contexts] != [c.id for c in b.contexts]:
        raise ShapeMismatch("systems have different contexts")
    return sum(
        (min_mismatch(a.bunch(c.id), b.bunch(c.id)) for c in a.contexts),
        ZERO,
    )
