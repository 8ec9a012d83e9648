"""Independent verification paths: float solver, enumeration oracles,
seeded random system generation, and the cross-check used by selftest.

The floating-point route goes through scipy's HiGHS interface - a separate
implementation with its own pivoting - so agreement with the exact solver
is evidence against correlated bugs rather than a tautology.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .analytic import (
    BinaryStats,
    coupling_mismatch_lp,
    cyclic2_min_partial,
    delta_p,
    delta_p_via_lp,
    max_coupling_probability,
    median_binary,
    pmf_from_mean,
    tv_distance,
)
from .builders import build_lp, measure
from .errors import AlphabetMismatch, NumericalFailure, TooLarge, ValidationError
from .examples import PM, _paired_system, disjoint_support_system, pr_box
from .lp import LinearProgram, solve_certified, solve_exact, verify_certificate
from .system import Context, Pmf, Property, RationalLike, System, _quoted, _shown, as_fraction

FLOAT_TOL = 1e-7


@dataclass(frozen=True)
class SystemShape:
    """Recipe for a reproducible random paired system."""

    m: int
    n: int
    alphabet_size: int = 2
    consistent: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.m < 1 or self.n < 1:
            raise ValidationError("m and n must be >= 1")
        if self.alphabet_size < 2:
            raise ValidationError("alphabet_size must be >= 2")


@dataclass(frozen=True)
class FloatSolution:
    status: str
    objective: Optional[float]
    primal: Optional[Sequence[float]]


@dataclass(frozen=True)
class CrossCheck:
    exact: Fraction
    approx: float
    agree: bool


def solve_float(lp: LinearProgram) -> FloatSolution:
    """Floating-point solve of the same standard-form program via HiGHS."""
    # The package's only use of numpy and scipy, neither of which it
    # requires: they are imported here, so exact-only use never loads them.
    try:
        import numpy as np
        from scipy.optimize import linprog
    except ImportError as exc:
        raise NumericalFailure(f"the float solver needs {exc.name}, which cannot be imported "
                               f"({exc}); install scipy, which brings numpy with it") from exc

    n, m = lp.column_count, lp.row_count
    c = np.array([float(v) for v in lp.cost])
    a = np.zeros((m, n))
    for i, row in enumerate(lp.rows):
        for j, v in row.items():
            a[i, j] = float(v)
    b = np.array([float(v) for v in lp.rhs])
    res = linprog(c, A_eq=a if m else None, b_eq=b if m else None,
                  bounds=(0, None), method="highs")
    if res.status == 0:
        return FloatSolution("optimal", float(res.fun), res.x)
    if res.status == 2:
        return FloatSolution("infeasible", None, None)
    if res.status == 3:
        return FloatSolution("unbounded", None, None)
    raise NumericalFailure(f"linprog failed: status {res.status} ({res.message})")


def cross_check(sys: System, method: str) -> CrossCheck:
    """Exact-vs-float agreement on the raw optimal distance for one method."""
    lp = build_lp(sys, method)
    sol = solve_exact(lp)
    certified = verify_certificate(lp, sol)
    approx = solve_float(lp)
    if sol.status != "optimal" or approx.status != "optimal":
        raise NumericalFailure(
            f"cross_check needs an optimal instance, got {sol.status}/{approx.status}"
        )
    agree = certified and abs(float(sol.objective) - approx.objective) <= FLOAT_TOL
    return CrossCheck(exact=sol.objective, approx=approx.objective, agree=agree)


# ---------------------------------------------------------------------------
# Brute-force coupling oracle
# ---------------------------------------------------------------------------

def build_max_coupling_lp(marginals: Sequence[Pmf]) -> LinearProgram:
    """Coupling program whose negated optimum is the maximal all-equal mass.

    Independent of the closed-form minimum-sum formula; capped at 4
    marginals over at most 6 atoms each.
    """
    if len(marginals) < 2:
        raise AlphabetMismatch("need at least two marginals")
    if len(marginals) > 4:
        raise TooLarge(f"{len(marginals)} marginals exceeds the brute-force cap of 4")
    alphas = marginals[0].alphabets
    for p in marginals[1:]:
        if p.alphabets != alphas:
            raise AlphabetMismatch(f"alphabets differ: {p.alphabets} vs {alphas}")
    atoms = list(marginals[0].atoms())
    if len(atoms) > 6:
        raise TooLarge(f"{len(atoms)} atoms exceeds the brute-force cap of 6")
    k = len(marginals)
    cols = list(itertools.product(range(len(atoms)), repeat=k))
    names = tuple("w[" + ";".join(str(i) for i in assign) + "]" for assign in cols)
    cost = tuple(
        Fraction(-1) if all(i == assign[0] for i in assign) else Fraction(0)
        for assign in cols
    )
    rows = []
    rhs = []
    for pos in range(k):
        for ai, atom in enumerate(atoms):
            rows.append({
                j: Fraction(1) for j, assign in enumerate(cols) if assign[pos] == ai
            })
            rhs.append(marginals[pos][atom])
    return LinearProgram(names, cost, tuple(rows), tuple(rhs))


def brute_force_max_coupling(marginals: Sequence[Pmf]) -> Fraction:
    """Maximal all-equal mass by direct LP over the full coupling joint."""
    lp = build_max_coupling_lp(marginals)
    return -solve_certified(lp).objective


# ---------------------------------------------------------------------------
# Seeded random generation
# ---------------------------------------------------------------------------

DENOMINATOR_CAP = 64


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    bounds = [0] + cuts + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def random_pmf(rng: random.Random, alphabets: Sequence[Sequence]) -> Pmf:
    atoms = list(itertools.product(*alphabets))
    parts = _composition(rng, DENOMINATOR_CAP, len(atoms))
    return Pmf(alphabets, {a: Fraction(w, DENOMINATOR_CAP) for a, w in zip(atoms, parts)})


def random_binary_stats(rng: random.Random) -> BinaryStats:
    """Realizable by construction: statistics of a random binary pair pmf."""
    return BinaryStats.from_pmf(random_pmf(rng, [(1, -1), (1, -1)]))


def random_means(rng: random.Random, count: int) -> list[Fraction]:
    return [Fraction(rng.randint(0, 64) - 32, 32) for _ in range(count)]


def _consistent_pair_pmf(rng: random.Random, pa: Fraction, pb: Fraction) -> Pmf:
    """Random joint over {+1,-1}^2 with the given single-variable weights.

    The joint probability of (+1, +1) ranges over the interval allowed by
    the marginals; sampling it at denominator 64 keeps all atoms at
    denominator <= 64.
    """
    lo = max(Fraction(0), pa + pb - 1)
    hi = min(pa, pb)
    t = rng.randint(int(lo * 64), int(hi * 64))
    pp = Fraction(t, 64)
    return Pmf(
        [(1, -1), (1, -1)],
        {
            (1, 1): pp,
            (1, -1): pa - pp,
            (-1, 1): pb - pp,
            (-1, -1): 1 - pa - pb + pp,
        },
    )


def random_system(shape: SystemShape) -> System:
    """Deterministic pseudo-random paired system for the given shape.

    With the consistency flag set, every context's bunch is built around
    one fixed per-property marginal (binary alphabets get a free correlation
    inside the allowed interval; larger alphabets use product bunches), so
    the result is exactly consistently connected.
    """
    rng = random.Random(shape.seed)
    s = shape.alphabet_size
    alpha = (1, -1) if s == 2 else tuple(range(s))
    marg: dict[str, list[Fraction]] = {}
    if shape.consistent:  # every marginal, a1..am then b1..bn, before any bunch
        for pid in ([f"a{i}" for i in range(1, shape.m + 1)]
                    + [f"b{j}" for j in range(1, shape.n + 1)]):
            if s == 2:
                marg[pid] = [Fraction(rng.randint(0, 16), 16)]
            else:
                parts = _composition(rng, 8, s)
                marg[pid] = [Fraction(w, 8) for w in parts]

    def bunch(i: int, j: int) -> Pmf:
        if not shape.consistent:
            return random_pmf(rng, [alpha, alpha])
        wa, wb = marg[f"a{i}"], marg[f"b{j}"]
        if s == 2:
            return _consistent_pair_pmf(rng, wa[0], wb[0])
        return Pmf([alpha, alpha], {(x, y): wa[xi] * wb[yi]
                                    for xi, x in enumerate(alpha) for yi, y in enumerate(alpha)})

    return _paired_system(shape.m, shape.n, alpha, bunch)


def _mixed(lam: Fraction, sign: int, noise: Pmf) -> Pmf:
    """lam * pattern + (1 - lam) * noise over two +/-1 positions, where the
    pattern puts 1/2 on each pair with product ``sign``."""
    return Pmf([PM, PM], {(x, y): (lam / 2 if x * y == sign else 0) + (1 - lam) * noise[x, y]
                          for x, y in itertools.product(PM, PM)})


def cyclic_system(n: int, seed: int, lam: RationalLike, noise: str = "random") -> System:
    """Rank-n cyclic binary system mixing a contextual pattern with noise.

    Properties p0..p{n-1}; context c{i} measures (p_i, p_{i+1 mod n}).  Each
    bunch is lam * pattern + (1 - lam) * noise, where the pattern is
    perfectly correlated in every context but the last, which is perfectly
    anticorrelated.  The noise is ``random_pmf`` drawn from
    ``random.Random(seed)`` in context order, or uniform ("white"), which
    makes the system consistently connected.
    """
    lam = as_fraction(lam)
    if n < 2 or not 0 <= lam <= 1 or noise not in ("random", "white"):
        raise ValidationError(f"cyclic_system needs n >= 2, 0 <= lam <= 1 and noise 'random' "
                              f"or 'white'; got {_shown(n)}, {_shown(lam)}, {_quoted(noise)}")
    rng = random.Random(seed)
    white = Pmf([PM, PM], {xy: Fraction(1, 4) for xy in itertools.product(PM, PM)})
    bunches = {f"c{i}": _mixed(lam, -1 if i == n - 1 else 1,
                               random_pmf(rng, [PM, PM]) if noise == "random" else white)
               for i in range(n)}
    props = [Property(f"p{i}", PM) for i in range(n)]
    contexts = [Context(f"c{i}", (f"p{i}", f"p{(i + 1) % n}")) for i in range(n)]
    return System(props, contexts, bunches)


def noisy_pr_box(m: int, n: int, seed: int, lam: RationalLike) -> System:
    """The m-by-n paired binary system of a PR box mixed with noise.

    Each bunch is lam * pattern + (1 - lam) * ``random_pmf`` noise drawn
    from ``random.Random(seed)`` in context order.  The pattern is
    perfectly correlated in every context but (a_m, b_n), which is
    perfectly anticorrelated.
    """
    lam = as_fraction(lam)
    if m < 1 or n < 1 or not 0 <= lam <= 1:
        raise ValidationError(f"noisy_pr_box needs m, n >= 1 and 0 <= lam <= 1; "
                              f"got {_shown(m)}, {_shown(n)}, {_shown(lam)}")
    rng = random.Random(seed)
    return _paired_system(m, n, PM, lambda i, j: _mixed(
        lam, -1 if (i, j) == (m, n) else 1, random_pmf(rng, [PM, PM])))


# ---------------------------------------------------------------------------
# Self-test suites (shared by the CLI selftest command)
# ---------------------------------------------------------------------------

def run_selftest(seed: int = 2024, count: int = 25) -> list[tuple[str, int, int]]:
    """Run every verification suite; returns (name, passed, total) rows.

    Each suite is a (name, total, check) entry; ``check(t)`` runs case t
    and says whether it passed.  The checks draw from one
    ``random.Random(seed)`` in table order.  Raises ValidationError for a
    count below 1 (which would report empty suites as passes).
    """
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count!r}")
    rng = random.Random(seed)
    k = max(2, count // 4)

    def max_coupling(t: int) -> bool:
        n_margs = rng.randint(2, 4)
        alpha = tuple(range(rng.randint(2, 4)))
        margs = [random_pmf(rng, [alpha]) for _ in range(n_margs)]
        return brute_force_max_coupling(margs) == max_coupling_probability(margs)

    def binary_tv(t: int) -> bool:
        m1, m2 = random_means(rng, 2)
        return tv_distance(pmf_from_mean(m1), pmf_from_mean(m2)) == abs(m1 - m2) / 2

    def median_floor(t: int) -> bool:
        means = random_means(rng, rng.randint(2, 5))
        sysd = _connection_system(means)
        return (delta_p(sysd, "p").value == delta_p_via_lp(sysd, "p").value
                == median_binary(means).delta_p)

    def cyclic2(t: int) -> bool:
        q, r = random_binary_stats(rng), random_binary_stats(rng)
        lp = coupling_mismatch_lp(r.to_pmf(), q.to_pmf())
        return cyclic2_min_partial(q, r) == solve_certified(lp).objective

    def present_cbd(t: int) -> bool:
        sysd = random_system(SystemShape(2, 2, consistent=bool(t % 2), seed=seed + 1000 + t))
        return measure(sysd, "present").measure == measure(sysd, "cbd").measure

    def np_inside(t: int) -> bool:
        sysd = random_system(SystemShape(2, 2, consistent=True, seed=seed + 2000 + t))
        return measure(sysd, "np").measure == measure(sysd, "np_inside").measure

    def float_agree(t: int) -> bool:
        sysd = random_system(SystemShape(2, 2, consistent=bool(t % 2), seed=seed + 3000 + t))
        return cross_check(sysd, "present").agree and cross_check(sysd, "cbd").agree

    def cyclic_closed_form(t: int) -> bool:
        # lam from just below the threshold (n - 2)/n up to 1
        n = rng.randint(3, 6)
        lam = Fraction(rng.randint(4 * n - 9, 4 * n), 4 * n)
        want = max(Fraction(0), n * lam - (n - 2)) / 2
        return measure(cyclic_system(n, seed, lam, "white"), "present").measure == want

    suites = [
        ("max-coupling closed form vs brute-force LP", count, max_coupling),
        ("binary TV equals half the mean gap", count, binary_tv),
        ("median floor equals LP floor", count, median_floor),
        ("cyclic-2 closed form vs transport LP", count, cyclic2),
        ("present measure equals CbD measure (rank-2 systems)", k, present_cbd),
        ("np measure equals np-inside measure (consistent)", k, np_inside),
        (f"float cross-check within {FLOAT_TOL:g}", k, float_agree),
        ("golden example systems", 4, _golden_example),
        ("present equals the cyclic closed form", k, cyclic_closed_form),
    ]
    return [(name, sum(check(t) for t in range(total)), total)
            for name, total, check in suites]


def _golden_example(t: int) -> bool:
    """Condition t of the four known values on the bundled examples."""
    d, p = disjoint_support_system(), pr_box()
    if t == 0:
        rep = measure(d, "present")
        return (rep.delta, rep.delta0, rep.measure) == (3, 2, 1)
    if t == 1:
        return measure(d, "cbd").measure == 0
    if t == 2:
        return measure(p, "present").measure == 1 and measure(p, "cbd").measure == 1
    return measure(p, "np").measure == measure(p, "np_inside").measure == Fraction(1, 2)


def _connection_system(means) -> System:
    """One binary property observed in len(means) single-property contexts."""
    contexts = [Context(f"c{i}", ("p",)) for i in range(len(means))]
    bunches = {f"c{i}": pmf_from_mean(m) for i, m in enumerate(means)}
    return System([Property("p", (1, -1))], contexts, bunches)
