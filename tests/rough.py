"""Rough test data: weights over large, pairwise coprime denominators.

The package's generators draw weights over small powers of two.  These
draw them over the Mersenne primes below 10**40, so the denominators of
a system's weights share no factor and their lcm grows with every bunch.
"""
import itertools
import random
from fractions import Fraction as F
from typing import Sequence

from contextuality.system import Pmf

# 2**p - 1 is prime for these p; the largest is about 1.7 * 10**38.
PRIMES = tuple(2 ** p - 1 for p in (31, 61, 89, 107, 127))


def rough_weight(rng: random.Random, bound: F) -> F:
    """A weight in [0, bound] over one of PRIMES, zero one time in five."""
    q = rng.choice(PRIMES)
    return F(0) if rng.random() < 0.2 else F(rng.randint(0, int(bound * q)), q)


def rough_pmf(rng: random.Random, alphabets: Sequence[Sequence]) -> Pmf:
    """A pmf over `alphabets`: every atom but the last weighs at most 1/k of
    the k atoms, over one of PRIMES, and the last takes the rest."""
    atoms = list(itertools.product(*alphabets))
    weights = {u: rough_weight(rng, F(1, len(atoms))) for u in atoms[:-1]}
    weights[atoms[-1]] = 1 - sum(weights.values())
    return Pmf(alphabets, weights)


def rough_mean(rng: random.Random) -> F:
    """A mean in [-1, 1] over one of PRIMES."""
    return 2 * rough_weight(rng, F(1)) - 1
