"""Measurement systems: properties, contexts, bunches, and connections.

A *system* records, for every context, the joint distribution (a *bunch*)
of the properties measured together in that context.  The *connection* of a
property is the family of its single-variable marginals across the contexts
containing it.  Everything is exact: weights are `fractions.Fraction` and
validation rejects anything that is not a genuine probability distribution.

Outcome symbols are arbitrary hashable values (ints after file parsing,
but strings work too), and no two symbols of an alphabet may print alike.
Binary fast paths elsewhere in the package require the alphabet to be
exactly the pair {+1, -1} of ints.

This module is also the one reader of stored weights for the rest of the
package: a bunch's weights in atom order, where a property sits in its
contexts, and the connections.  The connection reader ``_connections``
works in ints: it scales every weight it reads to one common denominator
d and returns each connection as tuples of ints over d, each summing to
d.  The floors, the maximal coupling and the consistency check compute on
those ints (``_unmatched`` gives d times 1 minus the maximal coupling
probability) and make a `Fraction` only for each value they return.
"""
from __future__ import annotations

import decimal
import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

from .errors import (
    AlphabetMismatch,
    DuplicateOutcome,
    EmptyContext,
    InvalidPosition,
    NegativeWeight,
    NonBinaryAlphabet,
    NonNormalizedPmf,
    UnknownContext,
    UnknownProperty,
    ValidationError,
)

Symbol = Union[int, str]
Outcome = tuple  # tuple of Symbol
RationalLike = Union[Fraction, int, str]

ONE = Fraction(1)
ZERO = Fraction(0)


def as_fraction(x: RationalLike) -> Fraction:
    """Convert exactly; accepts Fraction, int, and 'num/den' or decimal strings.

    The package's one reader of rationals from text.  Fraction computes
    10**exponent without a bound, so a decimal exponent of magnitude 4300
    (Python's default int-digit limit) or more is refused.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise ValidationError(
            f"refusing inexact float {x!r}; pass a Fraction or a string"
        )
    try:
        if isinstance(x, str):
            _, e, exponent = x.lower().partition("e")
            if e and abs(int(exponent)) >= 4300:
                raise ValidationError(f"refusing {_quoted(x)}: exponent of magnitude 4300 or more")
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"not a rational number: {_quoted(x)}") from exc


def _quoted(token: object) -> str:
    """``repr(token)`` for a message, or, for a token of more than 60
    characters, the repr of its head and its length."""
    text = token if isinstance(token, str) else repr(token)
    if len(text) <= 60:
        return repr(token)
    return f"{text[:20]!r}... ({len(text)} characters)"


def _bounded(message: str) -> str:
    """``message`` with each token of more than 60 characters, quoted or
    bare, named as by ``_quoted``; an apostrophe inside a word opens no
    quote."""
    return re.sub(r"(?<!\w)'[^'\n]{61,}'|\S{61,}", lambda t: _quoted(t[0].strip("'")), message)


def _id_list(ids: Iterable[str]) -> str:
    """The sorted ids as a list for a message, as by ``_listed``."""
    return _listed(sorted(ids), "ids")


def _listed(items: Sequence[str], noun: str) -> str:
    """``items`` as a list for a message, each as by ``_quoted``; past
    three, the first three and the count of ``noun``."""
    head = ", ".join(map(_quoted, items[:3]))
    return f"[{head}]" if len(items) <= 3 else f"[{head}, ...] ({len(items)} {noun})"


def _shown(x: Union[Fraction, int]) -> str:
    """``str(x)`` for a message, or, where that has more than 60 characters,
    the digit counts of its parts (``str`` stops at 4300 digits)."""
    num, den = x.as_integer_ratio()
    a, b = (len(str(decimal.Decimal(abs(n)))) for n in (num, den))
    if (num < 0) + a + (den > 1) * (1 + b) <= 60:
        return str(x)
    return (f"a {a}-digit integer" if den == 1
            else f"a {a}-digit numerator over a {b}-digit denominator")


def is_plus_minus(alphabet: Sequence[Symbol]) -> bool:
    return len(alphabet) == 2 and set(alphabet) == {1, -1}


class Pmf:
    """Probability mass function over a product of finite alphabets.

    `alphabets` is a tuple of per-position alphabets (ordered, no duplicate
    symbols).  Weights are exact rationals, nonnegative, summing to one.
    Zero-weight atoms are dropped; iteration follows the lexicographic order
    induced by the declared alphabet orders.
    """

    __slots__ = ("alphabets", "_weights")

    def __init__(
        self,
        alphabets: Sequence[Sequence[Symbol]],
        weights: Union[Mapping[Outcome, RationalLike], Iterable[tuple[Outcome, RationalLike]]],
    ):
        alphas = tuple(tuple(a) for a in alphabets)
        if not alphas:
            raise ValidationError("pmf needs at least one position")
        for a in alphas:
            if not a:
                raise ValidationError("empty alphabet")
            if len(set(a)) != len(a):
                raise DuplicateOutcome(f"duplicate symbol in alphabet {a}")
        items = weights.items() if isinstance(weights, Mapping) else weights
        acc: dict[Outcome, Fraction] = {}
        for outcome, w in items:
            key = tuple(outcome) if isinstance(outcome, (tuple, list)) else (outcome,)
            if len(key) != len(alphas):
                raise AlphabetMismatch(
                    f"outcome {key} has {len(key)} positions, expected {len(alphas)}"
                )
            for sym, a in zip(key, alphas):
                if sym not in a:
                    raise AlphabetMismatch(f"symbol {_quoted(sym)} not in alphabet {a}")
            if key in acc:
                raise DuplicateOutcome(f"outcome {key} listed twice")
            wf = as_fraction(w)
            if wf < 0:
                raise NegativeWeight(f"weight {_shown(wf)} of outcome {key} is negative")
            acc[key] = wf
        total = sum(acc.values(), ZERO)
        if total != 1:
            raise NonNormalizedPmf(f"weights sum to {_shown(total)}, expected 1")
        self.alphabets = alphas
        self._weights = {k: v for k, v in acc.items() if v != 0}

    # -- mapping-style access ------------------------------------------------
    def __getitem__(self, outcome) -> Fraction:
        key = tuple(outcome) if isinstance(outcome, (tuple, list)) else (outcome,)
        return self._weights.get(key, ZERO)

    def atoms(self) -> Iterable[Outcome]:
        """All outcomes of the declared product alphabet, lexicographic."""
        return itertools.product(*self.alphabets)

    def items(self) -> list[tuple[Outcome, Fraction]]:
        """Nonzero (outcome, weight) pairs in lexicographic order."""
        order = {a: {s: i for i, s in enumerate(a)} for a in self.alphabets}
        key = lambda kv: tuple(order[a][s] for s, a in zip(kv[0], self.alphabets))
        return sorted(self._weights.items(), key=key)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pmf):
            return NotImplemented
        return self.alphabets == other.alphabets and self._weights == other._weights

    def __hash__(self):
        return hash((self.alphabets, frozenset(self._weights.items())))

    def __repr__(self) -> str:
        body = ", ".join(f"{o}: {w}" for o, w in self.items())
        return f"Pmf({{{body}}})"

    # -- operations ------------------------------------------------------------
    def marginal(self, keep: Sequence[int]) -> "Pmf":
        """Exact marginal on the positions in `keep`, in the given order."""
        keep = tuple(keep)
        if not keep:
            raise InvalidPosition("keep must be nonempty")
        n = len(self.alphabets)
        if len(set(keep)) != len(keep) or any(not (0 <= i < n) for i in keep):
            raise InvalidPosition(f"invalid positions {keep} for {n}-position pmf")
        out: dict[Outcome, Fraction] = {}
        for outcome, w in self._weights.items():
            sub = tuple(outcome[i] for i in keep)
            out[sub] = out.get(sub, ZERO) + w
        return Pmf([self.alphabets[i] for i in keep], out)


marginal = Pmf.marginal


def point_mass(alphabets: Sequence[Sequence[Symbol]], outcome: Outcome) -> Pmf:
    return Pmf(alphabets, {tuple(outcome): ONE})


@dataclass(frozen=True)
class Property:
    """A measurable property with its finite outcome alphabet."""

    id: str
    alphabet: tuple[Symbol, ...]

    def __post_init__(self):
        _check_id(self.id, "property")
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        if len(self.alphabet) < 2:
            raise ValidationError(f"property {self.id}: alphabet must have >= 2 symbols")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise DuplicateOutcome(f"property {self.id}: duplicate symbols")
        _check_symbols(self.alphabet, f"property {self.id}: symbol")


@dataclass(frozen=True)
class Context:
    """A set of properties measured jointly, in a fixed order."""

    id: str
    properties: tuple[str, ...]

    def __post_init__(self):
        _check_id(self.id, "context")
        object.__setattr__(self, "properties", tuple(self.properties))
        if not self.properties:
            raise EmptyContext(f"context {self.id} lists no properties")
        if len(set(self.properties)) != len(self.properties):
            raise DuplicateOutcome(f"context {self.id}: duplicate property")


def _check_id(ident: str, kind: str) -> None:
    if not ident:
        raise ValidationError(f"{kind} id must be nonempty")
    _check_name_part(ident, f"{kind} id")


def _check_name_part(text: str, what: str) -> None:
    """Ids and symbols are joined into LP variable names (``w[c][u1,u2|v1,v2]``,
    ``z[u;v]``), where whitespace or a delimiter would break or merge names."""
    bad = next((ch for ch in text if ch.isspace() or ch in ",;|[]"), None)
    if bad is not None:
        raise ValidationError(
            f"{what} {_quoted(text)} contains {bad!r}, which LP names cannot hold")


def _check_symbols(alphabet: Sequence[Symbol], what: str) -> None:
    """Symbols are printed into LP variable names, so each must print as a
    valid name part and no two may print alike (1 and '1' would share names)."""
    labels = [str(s) for s in alphabet]
    for label in labels:
        _check_name_part(label, what)
    if len(set(labels)) != len(labels):
        raise ValidationError(f"{what}s {alphabet!r} include two that print alike, "
                              "which LP names cannot tell apart")


@dataclass(frozen=True)
class Connection:
    """Per-context single-variable marginals of one property."""

    property_id: str
    contexts: tuple[str, ...]
    marginals: tuple[Pmf, ...]


@dataclass(frozen=True)
class ConsistencyReport:
    consistent: bool
    max_tv: dict[str, Fraction]  # property id -> largest pairwise TV in its connection


class System:
    """A validated measurement system.

    Construction checks every invariant (one normalized bunch per context,
    contexts referencing known properties, every property used somewhere)
    and canonicalizes: properties and contexts are sorted by id.  Each
    bunch's alphabets must equal its context's.  Instances are
    immutable; all derived indices are precomputed.
    """

    __slots__ = ("properties", "contexts", "bunches", "property_index",
                 "context_index", "contexts_of")

    def __init__(
        self,
        properties: Iterable[Property],
        contexts: Iterable[Context],
        bunches: Mapping[str, Pmf],
    ):
        props = sorted(properties, key=lambda p: p.id)
        ctxs = sorted(contexts, key=lambda c: c.id)
        if len({p.id for p in props}) != len(props):
            raise ValidationError("duplicate property id")
        if len({c.id for c in ctxs}) != len(ctxs):
            raise ValidationError("duplicate context id")
        pindex = {p.id: i for i, p in enumerate(props)}
        used: set[str] = set()
        for c in ctxs:
            for pid in c.properties:
                if pid not in pindex:
                    raise UnknownProperty(
                        f"context {c.id} references unknown property {_quoted(pid)}")
                used.add(pid)
        missing = [p.id for p in props if p.id not in used]
        if missing:
            raise ValidationError(f"properties in no context: {_id_list(missing)}")
        if not ctxs:
            raise ValidationError("a system needs at least one context")
        fixed: dict[str, Pmf] = {}
        for c in ctxs:
            if c.id not in bunches:
                raise ValidationError(f"missing bunch for context {c.id}")
            pmf = bunches[c.id]
            expected = tuple(props[pindex[pid]].alphabet for pid in c.properties)
            if pmf.alphabets != expected:
                raise AlphabetMismatch(
                    f"bunch for {c.id}: alphabets {pmf.alphabets} != context's {expected}"
                )
            fixed[c.id] = pmf
        extra = set(bunches) - {c.id for c in ctxs}
        if extra:
            raise UnknownContext(f"bunches for unknown contexts: {_id_list(extra)}")

        self.properties: tuple[Property, ...] = tuple(props)
        self.contexts: tuple[Context, ...] = tuple(ctxs)
        self.bunches: dict[str, Pmf] = fixed
        self.property_index: dict[str, int] = pindex
        self.context_index: dict[str, int] = {c.id: i for i, c in enumerate(ctxs)}
        co: dict[str, list[str]] = {p.id: [] for p in props}
        for c in ctxs:
            for pid in c.properties:
                co[pid].append(c.id)
        self.contexts_of: dict[str, tuple[str, ...]] = {k: tuple(v) for k, v in co.items()}

    # -- lookups ----------------------------------------------------------------
    def property(self, pid: str) -> Property:
        try:
            return self.properties[self.property_index[pid]]
        except KeyError:
            raise UnknownProperty(f"unknown property {_quoted(pid)}") from None

    def context(self, cid: str) -> Context:
        try:
            return self.contexts[self.context_index[cid]]
        except KeyError:
            raise UnknownContext(f"unknown context {_quoted(cid)}") from None

    def bunch(self, cid: str) -> Pmf:
        self.context(cid)
        return self.bunches[cid]

    def __eq__(self, other) -> bool:
        if not isinstance(other, System):
            return NotImplemented
        return (self.properties == other.properties
                and self.contexts == other.contexts
                and self.bunches == other.bunches)

    def __repr__(self) -> str:
        return (f"System({len(self.properties)} properties, "
                f"{len(self.contexts)} contexts)")


validate_system = System  # validates the raw pieces; the instance is canonical


def _slots(sys: System, pid: str) -> list[tuple[int, int]]:
    """Where `pid` sits: (context index, position in that context) for each
    context in `sys.contexts_of[pid]`."""
    slots = []
    for cid in sys.contexts_of[pid]:
        t = sys.context_index[cid]
        slots.append((t, sys.contexts[t].properties.index(pid)))
    return slots


def _denominator(weights: Iterable[Fraction]) -> int:
    """The lcm of the denominators of `weights` (1 for none)."""
    return math.lcm(*{x.denominator for x in weights})


def _connections(sys: System, pids: Optional[Iterable[str]] = None
                 ) -> tuple[int, dict[str, list[tuple[int, ...]]]]:
    """(d, connections): the marginal weights of each property in `pids` (every
    property by default) as ints over one common denominator d, one tuple per
    context in `sys.contexts_of[pid]`, each in alphabet order and summing to d.

    This is the one reader of connections.  It takes one lcm over the
    weights of the bunches that hold a wanted property, then reads each of
    those bunches once, adding each weight, scaled to d, to its symbol's
    entry for every wanted property of the context.  It reads only a
    weight's `numerator` and `denominator` and makes no Fraction.
    """
    if pids is None:
        props, contexts = sys.properties, sys.contexts
    else:
        props = [sys.property(pid) for pid in pids]
        held = {cid for p in props for cid in sys.contexts_of[p.id]}
        contexts = [c for c in sys.contexts if c.id in held]
    index = {p.id: {s: i for i, s in enumerate(p.alphabet)} for p in props}
    bunches = [sys.bunches[c.id]._weights for c in contexts]
    d = _denominator(x for weights in bunches for x in weights.values())
    out: dict[str, list[tuple[int, ...]]] = {pid: [] for pid in index}
    for ctx, weights in zip(contexts, bunches):
        slots = [(k, index[pid], [0] * len(index[pid]), out[pid])
                 for k, pid in enumerate(ctx.properties) if pid in index]
        for outcome, x in weights.items():
            n = x.numerator * (d // x.denominator)
            for k, where, acc, _ in slots:
                acc[where[outcome[k]]] += n
        for _, _, acc, conn in slots:
            conn.append(tuple(acc))
    return d, out


def _atom_weights(pmf: Pmf) -> list[Fraction]:
    """The weight of every atom of `pmf`, in atom order."""
    weights = pmf._weights
    return [weights.get(u, ZERO) for u in itertools.product(*pmf.alphabets)]


def _scaled(pmfs: Sequence[Pmf]) -> tuple[int, list[tuple[int, ...]]]:
    """(d, weights): the weight of every atom of each pmf, in atom order, as
    ints over the common denominator d of all their weights."""
    d = _denominator(x for pmf in pmfs for x in pmf._weights.values())
    return d, [tuple(x.numerator * (d // x.denominator) for x in _atom_weights(pmf))
               for pmf in pmfs]


def _unmatched(d: int, weights: Sequence[Sequence[int]]) -> int:
    """d times 1 minus the maximal coupling probability of same-alphabet
    weight tuples over d (d times their total variation distance for two);
    0 for a single one."""
    if len(weights) < 2:
        return 0
    return d - sum(map(min, *weights))


def connection_of(sys: System, pid: str) -> Connection:
    """Marginals of property `pid` in each context containing it."""
    alpha = sys.property(pid).alphabet
    d, conns = _connections(sys, (pid,))
    margs = tuple(Pmf([alpha], zip(alpha, (Fraction(n, d) for n in w))) for w in conns[pid])
    return Connection(pid, sys.contexts_of[pid], margs)


def consistency_report(sys: System) -> ConsistencyReport:
    """Check consistent connectedness; report the worst TV gap per property.

    The system is consistently connected iff every property's marginals
    agree exactly across its contexts (max pairwise total variation 0).
    The gaps are found in ints over the reader's d; each property's largest
    is then made one Fraction.
    """
    d, conns = _connections(sys)
    gaps = {pid: max((_unmatched(d, pair) for pair in itertools.combinations(ws, 2)), default=0)
            for pid, ws in conns.items()}
    return ConsistencyReport(not any(gaps.values()),
                             {pid: Fraction(gap, d) for pid, gap in gaps.items()})


def _require_plus_minus(pmf: Pmf, positions: int) -> None:
    if len(pmf.alphabets) != positions:
        raise NonBinaryAlphabet(
            f"expected a {positions}-variable pmf, got {len(pmf.alphabets)} positions"
        )
    for a in pmf.alphabets:
        if not is_plus_minus(a):
            raise NonBinaryAlphabet(f"alphabet {a} is not the pair {{+1, -1}}")


def expectation(pmf: Pmf) -> Fraction:
    """Mean of a single +/-1-valued variable."""
    _require_plus_minus(pmf, 1)
    return sum((w * o[0] for o, w in pmf.items()), ZERO)


def product_expectation(pmf: Pmf) -> Fraction:
    """Mean of the product of the components of a +/-1-valued pair."""
    _require_plus_minus(pmf, 2)
    return sum((w * o[0] * o[1] for o, w in pmf.items()), ZERO)
