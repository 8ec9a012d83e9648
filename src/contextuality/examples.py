"""Built-in example systems and model generators.

Naming convention for paired systems: Alice's properties are ``a1..am``,
Bob's are ``b1..bn``, and the context measuring (ai, bj) is ``a{i}b{j}``
with the pair ordered (Alice, Bob).  ``_paired_system`` writes this
layout for ``ab_system`` and ``oracle.random_system``.  The examples
here are binary, over {+1, -1}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .analytic import BinaryStats
from .errors import UnrealizableStats, ValidationError
from .system import Context, Pmf, Property, System

PM = (1, -1)
HALF = Fraction(1, 2)


def _paired_system(m: int, n: int, alphabet: Sequence,
                   bunch: Callable[[int, int], Pmf]) -> System:
    """The m-by-n paired system over ``alphabet`` whose context a{i}b{j}
    has the bunch ``bunch(i, j)``; bunches are made row by row."""
    props = [Property(f"a{i}", alphabet) for i in range(1, m + 1)]
    props += [Property(f"b{j}", alphabet) for j in range(1, n + 1)]
    contexts = []
    bunches = {}
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cid = f"a{i}b{j}"
            contexts.append(Context(cid, (f"a{i}", f"b{j}")))
            bunches[cid] = bunch(i, j)
    return System(props, contexts, bunches)


def ab_system(m: int, n: int, stats: Mapping[tuple[int, int], BinaryStats]) -> System:
    """Assemble an m-by-n paired binary system from per-context statistics.

    `stats` maps 1-based (alice_setting, bob_setting) to the context's
    means/product triple, and must hold exactly the pairs in 1..m x 1..n.
    """
    pairs = {(i, j) for i in range(1, m + 1) for j in range(1, n + 1)}
    if stats.keys() != pairs:
        raise ValidationError(
            f"stats for a {m}x{n} system must hold exactly the pairs in "
            f"1..{m} x 1..{n}; missing {sorted(pairs - stats.keys())}, "
            f"extra {sorted(stats.keys() - pairs, key=repr)}")
    return _paired_system(m, n, PM, lambda i, j: stats[(i, j)].to_pmf())


def pr_box() -> System:
    """Uniform marginals, three perfect correlations and one perfect
    anticorrelation: the canonical maximally contextual consistently
    connected paired system."""
    z = Fraction(0)
    one = Fraction(1)
    return ab_system(2, 2, {
        (1, 1): BinaryStats(z, z, one),
        (1, 2): BinaryStats(z, z, one),
        (2, 1): BinaryStats(z, z, one),
        (2, 2): BinaryStats(z, z, -one),
    })


def disjoint_support_system() -> System:
    """Four bunches over the same two binary properties.

    Two contexts are uniform with perfect (anti)correlation; the other two
    are opposite point masses, so each property's marginals in those two
    contexts have disjoint supports.  Every connection couples maximally,
    yet no single approximating system gets closer than distance 3 while
    the marginal-forced floor is 2.
    """
    z = Fraction(0)
    one = Fraction(1)
    props = [Property("p1", PM), Property("p2", PM)]
    contexts = [Context(f"c{k}", ("p1", "p2")) for k in (1, 2, 3, 4)]
    bunches = {
        "c1": BinaryStats(z, z, one).to_pmf(),
        "c2": BinaryStats(z, z, -one).to_pmf(),
        "c3": BinaryStats(one, one, one).to_pmf(),
        "c4": BinaryStats(-one, -one, one).to_pmf(),
    }
    return System(props, contexts, bunches)


# ---------------------------------------------------------------------------
# EPR-style model
# ---------------------------------------------------------------------------

_EXACT_COS = {
    Fraction(0): Fraction(1),
    Fraction(60): Fraction(1, 2),
    Fraction(90): Fraction(0),
    Fraction(120): Fraction(-1, 2),
    Fraction(180): Fraction(-1),
    Fraction(240): Fraction(-1, 2),
    Fraction(270): Fraction(0),
    Fraction(300): Fraction(1, 2),
}

COS_SIGNIFICANT_DIGITS = 12


def cos_degrees(angle: Fraction) -> tuple[Fraction, bool]:
    """Cosine of an angle in degrees as an exact rational when possible.

    Multiples of 60 or 90 degrees are exact; anything else is rounded to
    12 significant digits (the flag reports which case applied).
    """
    d = Fraction(angle) % 360
    if d in _EXACT_COS:
        return _EXACT_COS[d], True
    approx = math.cos(math.radians(float(d)))
    return Fraction(f"{approx:.{COS_SIGNIFICANT_DIGITS - 1}e}"), False


@dataclass(frozen=True)
class EprModel:
    """A consistently connected paired model with means one-half and
    correlations -cos(alpha_i - beta_j); `rounded` lists the contexts whose
    cosine was not exactly representable, with the rational actually used."""

    system: System
    rounded: dict[str, Fraction]


def epr_model(alice_angles: Sequence[Fraction], bob_angles: Sequence[Fraction]) -> EprModel:
    """Build the photon-pair model at the given angles (degrees).

    With means fixed at one-half, a correlation is realizable as a proper
    joint only within [0, 1], i.e. for cos(alpha_i - beta_j) in [-1, 0];
    angle pairs outside that range raise UnrealizableStats.
    """
    stats = {}
    rounded: dict[str, Fraction] = {}
    for i, a in enumerate(alice_angles, start=1):
        for j, b in enumerate(bob_angles, start=1):
            cos, exact = cos_degrees(Fraction(a) - Fraction(b))
            corr = -cos
            cid = f"a{i}b{j}"
            try:
                stats[(i, j)] = BinaryStats(HALF, HALF, corr)
            except UnrealizableStats as exc:
                raise UnrealizableStats(
                    f"context {cid}: correlation {corr} with means 1/2 is not "
                    f"a proper joint (needs 0 <= correlation <= 1); pick angles "
                    f"with cos(alpha-beta) in [-1, 0]"
                ) from exc
            if not exact:
                rounded[cid] = cos
    return EprModel(ab_system(len(alice_angles), len(bob_angles), stats), rounded)
