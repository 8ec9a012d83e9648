"""Seeded inputs for the benchmark workloads.

Every system is a paired system: properties a1..am and b1..bn, one context
a<i>b<j> per pair.  A consistently connected system fixes one marginal per
property and builds each bunch around it; an inconsistently connected one
draws every bunch independently.  The generator mirrors the shape of
``contextuality.random_system`` but lives here, so that a change to the
package cannot change the benchmark's inputs.

Each workload draws from a fixed pool: round r's system of a case is named
by (workload, r, case) and is the same system, byte for byte under
``write_system_text``, in every run.  A run takes the first rounds of the
pool (``rounds_for``) and ``--seed`` sets the order of their operations.
The seed does not draw the systems: the exact simplex's cost varies two- to
threefold between random systems of one kind, so a few rounds of ``large``
drawn per seed spread the per-run timings by more than the benchmark's
bounds, and bug 1 (``StopIteration`` on inconsistently connected np_inside)
triggers on a system-dependent subset, so the failures would differ between
seeds.  With a fixed pool a run's attempted and failed operations are the
same for every seed and every host.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from contextuality import Context, Pmf, Property, System, write_system

BINARY = (1, -1)
TERNARY = (0, 1, 2)
DENOMINATOR = 64


@dataclass(frozen=True)
class Case:
    """One kind of input system in a round."""

    name: str
    m: int
    n: int
    alphabet: tuple
    consistent: bool


# Operations of one round: (case name, method).
SMALL_CASES = (
    Case("c22", 2, 2, BINARY, True),
    Case("i22", 2, 2, BINARY, False),
)
SMALL_ORDER = (("c22", "present"), ("i22", "present"), ("c22", "np_inside"),
               ("i22", "np_inside"), ("c22", "np"))

LARGE_CASES = (
    Case("c33", 3, 3, BINARY, True),
    Case("i33", 3, 3, BINARY, False),
    Case("c22", 2, 2, BINARY, True),
    Case("i22", 2, 2, BINARY, False),
    Case("t22c", 2, 2, TERNARY, True),
    Case("t22i", 2, 2, TERNARY, False),
)
LARGE_ORDER = (("c33", "present"), ("c22", "cbd"), ("i33", "np_inside"),
               ("t22c", "present"), ("c33", "np"), ("i33", "present"),
               ("i22", "cbd"), ("c33", "np_inside"), ("t22i", "present"))

# Wall time of one round at the seed state (x86_64, 2 cores, Fraction
# arithmetic).  A run of S seconds does round(S / ROUND_SECONDS) rounds, at
# least one, however fast the host is that day: so the operations attempted,
# and which of them fail, depend on the workload, the seed and S only.
ROUND_SECONDS = {"cli": 15.0, "small": 0.45, "large": 9.5}

LIBRARY_PLANS = {
    "small": ({c.name: c for c in SMALL_CASES}, SMALL_ORDER),
    "large": ({c.name: c for c in LARGE_CASES}, LARGE_ORDER),
}

# Files written at set-up for each round of the cli workload.
CLI_CASES = (
    Case("cons", 2, 2, BINARY, True),
    Case("incons", 2, 2, BINARY, False),
)

# One round of CLI invocations.  '{cons}' and '{incons}' stand for the
# round's generated system files.
CLI_ROUND = (
    ("analyze", "bundled:prbox", "--method", "present,np,np_inside", "--json"),
    ("analyze", "{cons}", "--method", "present,np,np_inside"),
    ("analyze", "bundled:disjoint", "--method", "present,np_inside", "--json"),
    ("analyze", "{incons}", "--method", "present,np_inside", "--json"),
    ("analyze", "bundled:disjoint", "--method", "np", "--json"),
    ("sizes", "4", "4", "--json"),
    ("analyze", "bundled:prbox", "--method", "present,np,np_inside"),
    ("analyze", "bundled:disjoint", "--method", "np"),
    ("dump-lp", "bundled:prbox", "--method", "present"),
    ("analyze", "{cons}", "--method", "present,np,np_inside", "--json"),
    ("analyze", "bundled:disjoint", "--method", "present,np_inside"),
    ("approx", "bundled:prbox", "--epr"),
    ("analyze", "{incons}", "--method", "present"),
)


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def rng_for(*key) -> random.Random:
    """A generator seeded by a string, which Python hashes deterministically."""
    return random.Random(":".join(str(k) for k in key))


def _composition(rng: random.Random, total: int, parts: int) -> list[int]:
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    bounds = [0] + cuts + [total]
    return [bounds[i + 1] - bounds[i] for i in range(parts)]


def _random_pmf(rng: random.Random, alphabets) -> Pmf:
    atoms = list(itertools.product(*alphabets))
    parts = _composition(rng, DENOMINATOR, len(atoms))
    return Pmf(alphabets, {a: Fraction(w, DENOMINATOR) for a, w in zip(atoms, parts)})


def _binary_pair(rng: random.Random, pa: Fraction, pb: Fraction) -> Pmf:
    """Joint over {+1,-1}^2 with P(+1) = pa, pb; P(+1,+1) drawn at denominator 64."""
    lo = max(Fraction(0), pa + pb - 1)
    hi = min(pa, pb)
    pp = Fraction(rng.randint(int(lo * DENOMINATOR), int(hi * DENOMINATOR)), DENOMINATOR)
    return Pmf([BINARY, BINARY], {(1, 1): pp, (1, -1): pa - pp,
                                  (-1, 1): pb - pp, (-1, -1): 1 - pa - pb + pp})


def paired_system(rng: random.Random, case: Case) -> System:
    alpha = case.alphabet
    ids = [f"a{i}" for i in range(1, case.m + 1)] + [f"b{j}" for j in range(1, case.n + 1)]
    props = [Property(pid, alpha) for pid in ids]
    marg: dict[str, list[Fraction]] = {}
    if case.consistent:
        # Every symbol gets positive mass: degenerate marginals make programs
        # that solve in a few pivots, which would only widen the spread of
        # the timings.
        for pid in ids:
            if alpha == BINARY:
                marg[pid] = [Fraction(rng.randint(1, 15), 16)]
            else:
                parts = _composition(rng, 8 - len(alpha), len(alpha))
                marg[pid] = [Fraction(w + 1, 8) for w in parts]
    contexts, bunches = [], {}
    for i in range(1, case.m + 1):
        for j in range(1, case.n + 1):
            a, b, cid = f"a{i}", f"b{j}", f"a{i}b{j}"
            contexts.append(Context(cid, (a, b)))
            if not case.consistent:
                bunches[cid] = _random_pmf(rng, [alpha, alpha])
            elif alpha == BINARY:
                bunches[cid] = _binary_pair(rng, marg[a][0], marg[b][0])
            else:
                bunches[cid] = Pmf([alpha, alpha], {
                    (x, y): marg[a][xi] * marg[b][yi]
                    for xi, x in enumerate(alpha) for yi, y in enumerate(alpha)})
    return System(props, contexts, bunches)


def system_for(workload: str, rnd: int, case: Case) -> System:
    """The pool's system of kind ``case`` in round ``rnd``."""
    return paired_system(rng_for(workload, rnd, case.name), case)


def library_ops(workload: str, seed: int, rounds: int):
    """(round, case, method, system) for every operation of the pool's first
    ``rounds`` rounds of small/large, in the order ``seed`` sets.

    The methods of one round share its system, so np and np_inside can be
    compared on the same consistent system.
    """
    cases, order = LIBRARY_PLANS[workload]
    ops = [(rnd, name, method) for rnd in range(rounds) for name, method in order]
    rng_for(workload, "order", seed).shuffle(ops)
    systems = {}
    for rnd, name, method in ops:
        if (rnd, name) not in systems:
            systems[rnd, name] = system_for(workload, rnd, cases[name])
        yield rnd, cases[name], method, systems[rnd, name]


def cli_round_files(rnd: int) -> dict[str, System]:
    return {case.name: system_for("cli", rnd, case) for case in CLI_CASES}


def cli_commands(seed: int, workdir: Path, rounds: int) -> list[list[str]]:
    """CLI argument lists for the pool's first ``rounds`` rounds, in the
    order ``seed`` sets.  Every round's system files are written to
    ``workdir`` first."""
    commands = []
    for rnd in range(rounds):
        files = {}
        for name, sys in cli_round_files(rnd).items():
            files[name] = str(workdir / f"r{rnd}_{name}.system")
            write_system(sys, files[name])
        commands += [[a.format(**files) for a in template] for template in CLI_ROUND]
    rng_for("cli", "order", seed).shuffle(commands)
    return commands
