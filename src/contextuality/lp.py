"""Exact rational linear programming.

Standard form only: minimize c'x subject to Ax = b, x >= 0, with equality
rows and named columns.  The solver is a two-phase revised simplex over
exact rationals with Bland's pivoting rule (anti-cycling, deterministic
given the column order), or a dual simplex from a template's start
(below).  Optimal solutions carry a primal vector, a dual vector, and the
optimal basis, so optimality can be re-verified independently: primal
feasibility, dual feasibility (y'A <= c'), and zero duality gap.

One state object (Revised) holds the whole simplex state: the basis
inverse B^-1, each row's entry of B^-1 b, and the basis.  Its rows, and
the one cost row beside it, are lists of Python int numerators over one
positive int denominator.  A pivot is one method of the state.  It
updates the rows of B^-1 with a nonzero in the entering column (built
from B^-1 and the program's columns) and their right-hand sides, adds
the pivot row, a sum of the program's rows weighted by the pivot's row
of B^-1, into the cost row, and updates the basis.  A row is brought to
lowest terms when its denominator changes (the pivot row always is); an
update that keeps the denominator takes no gcd.  Each entry of B^-1 b is
a separate reduced (numerator, denominator) pair: the right-hand sides
of this package's programs are probabilities, so a row holding its own
would almost never have denominator 1, and without it the rows nearly
always do.  An artificial column that leaves the basis never returns, so
a cost row prices the original columns alone.  One reader, _prices,
gives y' = c_B' B^-1 at a basis: every optimum's dual, its objective y'b,
and through the one writer _cost_row every cost row c - y'A, where each
phase or a template's start begins.  Both simplex loops return a status
string.  The public API is Fraction end to end.  verify_certificate
re-checks every optimum against the program alone, independently of the
solver, in Python ints over common denominators.

A program whose matrix does not depend on its data can be made from a
template (``_Template``): names, costs and read-only rows checked once,
and a nonnegative start right-hand side; each call adds only its own
right-hand side.  The template keeps two integer forms of its rows, each
computed on first use: the solver's (each row's lcm, and the scaled rows
by row and by column, with the scaled cost) and verify_certificate's own
scaling of the rows, derived from the rows by its own code and never
from the solver's form.  Its start, also filled on first use by _form, is
the two-phase optimum at the start right-hand side (SolverError if there
is none), a basis that stays dual feasible for every program of the
template.  solve_exact starts there, takes B^-1 b from the program and
runs an exact dual simplex, so every solution depends on its program
alone.  Every other program, copies and pickles included, and the
start's own program solve by two phases from the artificial basis; both
paths make their state with Revised(lp, form, start).
"""
from __future__ import annotations

import itertools
import operator
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .errors import CertificationFailure, DimensionMismatch, Infeasible, SolverError

# Dual simplex pivots in a row at a zero reduced cost before Bland's rule.
_DEGENERATE_RUN = 100


@dataclass(frozen=True)
class LinearProgram:
    """min cost'x  s.t.  rows[i] . x = rhs[i] for all i,  x >= 0.

    Rows are sparse maps from column index to a nonzero coefficient.
    """

    variables: tuple[str, ...]
    cost: tuple[Fraction, ...]
    rows: tuple[Mapping[int, Fraction], ...]
    rhs: tuple[Fraction, ...]

    def __post_init__(self):
        _check_matrix(self.variables, self.cost, self.rows)
        _check_rhs(self.rows, self.rhs)

    def __reduce__(self):
        # Copies and pickles are plain programs, without a template.
        rows = tuple(dict(row) for row in self.rows)
        return LinearProgram, (self.variables, self.cost, rows, self.rhs)

    @property
    def column_count(self) -> int:
        return len(self.variables)

    @property
    def row_count(self) -> int:
        return len(self.rows)


def _check_matrix(variables, cost, rows) -> None:
    n = len(variables)
    if len(cost) != n:
        raise DimensionMismatch(f"{len(cost)} cost entries for {n} variables")
    if len(set(variables)) != n:
        raise DimensionMismatch("duplicate variable names")
    for name in variables:
        if name.split() != [name]:
            raise DimensionMismatch(f"bad variable name {name!r}")
    for i, row in enumerate(rows):
        for j in row:
            if not (0 <= j < n):
                raise DimensionMismatch(f"row {i} references column {j} (n={n})")


def _check_rhs(rows, rhs) -> None:
    if len(rows) != len(rhs):
        raise DimensionMismatch(f"{len(rows)} rows but {len(rhs)} right-hand sides")


class _ReadOnlyRow(dict):
    """A template's row: a dict whose mutating methods raise TypeError.
    Its copies and pickles are plain dicts."""

    __slots__ = ()

    def _read_only(self, *args, **kwargs):
        raise TypeError("the rows of a program made from a template are read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        return dict, (dict(self),)


# Where a Revised state starts, read-only: row i of M has counts[i]
# nonzeros over dens[i], their positions (one int object per column) and
# entries in turn from the flat sequences, and basic column basis[i]; cost
# is a template start's cost row, from _cost_row in _start; None for two phases.
_Start = namedtuple("_Start", "positions entries counts dens basis cost")


class _Template:
    """Names, costs and rows of every program of one shape, checked once.

    Rows are kept read-only, so neither a template nor a program made from
    it can be changed.  ``solver`` is the integer form of the rows used by
    solve_exact and ``certificate`` the one used by verify_certificate,
    each filled in on first use by _form, as is ``start``, the optimal
    state of the program at ``start_rhs``.  Nothing else depends on a right-hand side.
    """

    __slots__ = ("variables", "cost", "rows", "start_rhs", "solver", "certificate", "start")

    def __init__(self, variables: Sequence[str], cost: Sequence[Fraction],
                 rows: Sequence[Mapping[int, Fraction]], start_rhs: Sequence[Fraction]):
        self.variables = tuple(variables)
        self.cost = tuple(cost)
        self.rows = tuple(map(_ReadOnlyRow, rows))
        _check_matrix(self.variables, self.cost, self.rows)
        self.start_rhs = tuple(start_rhs)
        self.solver = self.certificate = self.start = None

    def program(self, rhs: Sequence[Fraction]) -> LinearProgram:
        """The template's program with right-hand side ``rhs``."""
        rhs = tuple(rhs)
        _check_rhs(self.rows, rhs)
        lp = object.__new__(LinearProgram)  # the matrix is already checked
        for name, value in (("variables", self.variables), ("cost", self.cost),
                            ("rows", self.rows), ("rhs", rhs), ("_template", self)):
            object.__setattr__(lp, name, value)
        return lp


def _form(lp: LinearProgram, slot: str, make):
    """``make(lp)``, computed once per template for programs made from one."""
    template = getattr(lp, "_template", None)
    if template is None:
        return make(lp)
    form = getattr(template, slot)
    if form is None:
        form = make(lp)
        setattr(template, slot, form)
    return form


@dataclass(frozen=True)
class LpSolution:
    """Solver output; primal/dual/basis are populated only when optimal."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Fraction | None = None
    primal: tuple[Fraction, ...] | None = None
    dual: tuple[Fraction, ...] | None = None
    basis: tuple[int, ...] | None = None

    def named_primal(self, lp: LinearProgram) -> dict[str, Fraction]:
        """Nonzero primal entries keyed by variable name."""
        if self.status != "optimal" or self.primal is None:
            raise SolverError(f"no primal point in a solution of status {self.status!r}")
        return {name: v for name, v in zip(lp.variables, self.primal) if v != 0}


class Revised:
    """The simplex state: the basis inverse as M = B^-1 D^-1, one list per
    row, each row's entry of B^-1 b, and the basis.

    D holds each row's lcm, so the solver form's integer rows are D A and
    B^-1 A = M (D A).  The state starts at a ``_Start``'s basis and rows
    of M: for two phases the artificial basis, whose column n + k is s_k
    e_k with s_k the sign of b_k, so row i of M is s_i e_i over D_i; for
    the dual simplex a template's start.  ``support[k]`` holds the rows
    where column k of M is nonzero.  ``rhs[i]`` is row i's right-hand side,
    taken from lp, as a reduced (numerator, positive denominator) pair, and
    ``basis[i]`` the column basic in row i.  The entering column is a sum
    of M's columns, weighted by the column form of D A.  The pivot row of
    B^-1 A is a sum of the rows of D A weighted by the pivot's row of M; it
    is never stored.  The one cost row, written at a basis by _cost_row,
    is kept beside the state and takes the pivot row entry by entry.
    """

    def __init__(self, lp: LinearProgram, form, start: _Start):
        dens, self.by_row, self.by_column, _ = form
        self.n = lp.column_count
        self.basis = list(start.basis)
        # Row i's entry of B^-1 b = M D b is M_i . D b over its denominator.
        bd = lcm(*(b.denominator for b in lp.rhs))
        db = [d * b.numerator * (bd // b.denominator) for d, b in zip(dens, lp.rhs)]
        self.db = db, bd  # y'b is y . db over yd * bd
        self.rows, self.rhs = [], []
        self.support = support = [set() for _ in dens]
        positions, entries = iter(start.positions), iter(start.entries)
        for i, (count, den) in enumerate(zip(start.counts, start.dens)):
            row = [0] * len(dens)
            row.append(den)
            num = 0
            # islice first, so zip stops there without taking an extra entry.
            for k, v in zip(itertools.islice(positions, count), entries):
                row[k] = v
                support[k].add(i)
                num += v * db[k]
            self.rows.append(row)
            den *= bd
            g = gcd(num, den)
            self.rhs.append((num // g, den // g))

    def column(self, j: int) -> list[int]:
        """Column j of B^-1 A, entry i over rows[i][-1]."""
        rows, support = self.rows, self.support
        out = [0] * len(rows)
        plus, minus, other = self.by_column[j]
        for k in plus:
            for i in support[k]:
                out[i] += rows[i][k]
        for k in minus:
            for i in support[k]:
                out[i] -= rows[i][k]
        for k, a in other:
            for i in support[k]:
                out[i] += a * rows[i][k]
        return out

    def row(self, i: int) -> list[int]:
        """Row i of B^-1 A, times a positive number, in its first n entries."""
        out = [0] * (self.n + 1)
        self._subtract(out, -1, self.rows[i])
        return out

    def pivot(self, leave: int, enter: int, column: list[int],
              cost: list[int] | None) -> None:
        """Make column ``enter``, whose entries are ``column``, basic in row
        ``leave``; the rows, their right-hand sides, the cost row (if any)
        and the basis are updated in place.

        Row ``leave`` is divided by its entry and brought to lowest terms.
        Every other row becomes row/d - (f/d) * mrow/pd, with f its entry
        in the column, and d and pd the rows' denominators, and its
        right-hand side b_i becomes b_i - (f/d) * b_leave.  Every
        right-hand side is left in lowest terms.
        """
        rows, support, rhs = self.rows, self.support, self.rhs
        mrow = rows[leave]
        piv = column[leave]
        # Dividing by piv/d leaves the numerators over piv and scales b by d/piv.
        bn, bd = rhs[leave]
        bn *= mrow[-1]
        bd *= piv
        mrow[-1] = piv
        if piv < 0:
            mrow[:] = [-v for v in mrow]
            bn, bd = -bn, -bd
        if mrow[-1] != 1:
            g = gcd(*mrow)
            if g != 1:
                mrow[:] = [v // g for v in mrow]
        g = gcd(bn, bd)
        bn, bd = bn // g, bd // g
        rhs[leave] = (bn, bd)
        nz = list(itertools.compress(range(len(mrow) - 1), mrow))
        pd = mrow[-1]
        entries = [(k, mrow[k], support[k]) for k in nz]
        for i in itertools.compress(range(len(column)), column):
            if i == leave:
                continue
            row = rows[i]
            f, d = column[i], row[-1]
            if bn:  # b_i - (f/d) * bn/bd, with d the row's denominator before the update
                cn, cd = rhs[i]
                num, den = cn * d * bd - f * bn * cd, cd * d * bd
                g = gcd(num, den)
                rhs[i] = (num // g, den // g)
            if f % pd:  # the row is rescaled by s = pd / gcd(f, pd) > 1
                g = gcd(f, pd)
                s, t = pd // g, f // g
                row[:] = [v * s - t * p for v, p in zip(row, mrow)]
                row[-1] = d * s
                # mrow is in lowest terms and s divides pd, so no prime of s
                # divides every new entry: a common factor must divide d.
                if d != 1:
                    g = gcd(d, *row)
                    if g != 1:
                        row[:] = [v // g for v in row]
                for k, _, sup in entries:
                    if row[k]:
                        sup.add(i)
                    else:
                        sup.discard(i)
            else:  # the denominator stays: no gcd, and the supports follow
                t = f // pd
                for k, p, sup in entries:
                    v = row[k]
                    row[k] = w = v - t * p
                    if not w:
                        sup.discard(i)
                    elif not v:
                        sup.add(i)
        # The cost row becomes (cost * s - t * mrow (D A)) / (d * s)
        # and is then brought to lowest terms.
        if cost is not None and (f := cost[enter]):
            g = gcd(f, pd)
            s, t = pd // g, f // g
            if s != 1:
                cost[:] = [v * s for v in cost]
            self._subtract(cost, t, mrow)
            if s != 1:
                g = gcd(*cost)
                if g != 1:
                    cost[:] = [v // g for v in cost]
        self.basis[leave] = enter

    def bland(self, cost_row: list[int]) -> str:
        """Run simplex iterations until optimal or unbounded (Bland's rule):
        the first original column with a negative entry of ``cost_row``
        enters."""
        rows, rhs, basis = self.rows, self.rhs, self.basis
        while True:
            enter = next((j for j in range(self.n) if cost_row[j] < 0), -1)
            if enter < 0:
                return "optimal"
            column = self.column(enter)
            # Row i's ratio is (bn/bd) / (a/d) = (bn*d) / (bd*a); rows compare
            # by cross-multiplying (a > 0 and bd > 0 on candidates).
            leave = -1
            best_n = best_d = 0
            for i in itertools.compress(range(len(column)), column):
                a = column[i]
                if a > 0:
                    bn, bd = rhs[i]
                    num, den = bn * rows[i][-1], bd * a
                    lhs, r = num * best_d, best_n * den
                    if leave < 0 or lhs < r or (lhs == r and basis[i] < basis[leave]):
                        leave, best_n, best_d = i, num, den
            if leave < 0:
                return "unbounded"
            self.pivot(leave, enter, column, cost_row)

    def dual(self, cost_row: list[int]) -> str:
        """Dual simplex iterations from a basis whose reduced costs
        ``cost_row`` are nonnegative on the original columns: "optimal"
        once no row's value is negative, "infeasible" at a negative row with
        no negative entry in an original column.  The most negative row
        leaves, the lowest basis index among equal ones; after
        _DEGENERATE_RUN pivots in a row with a zero reduced cost entering,
        the negative row of lowest basis index (Bland's rule, which cannot
        cycle).  The column with the smallest d_j / -a_j enters, the lowest
        j among equal ones."""
        rhs, basis = self.rhs, self.basis
        run = 0
        while True:
            leave = -1
            for i, (bn, bd) in enumerate(rhs):
                if bn < 0:
                    # d has the sign of row i's value less the leaving row's.
                    d = -1 if leave < 0 else 0 if run >= _DEGENERATE_RUN else (
                        bn * least_d - least_n * bd)
                    if d < 0 or (d == 0 and basis[i] < basis[leave]):
                        leave, least_n, least_d = i, bn, bd
            if leave < 0:
                return "optimal"
            row = self.row(leave)
            enter = -1
            for j in itertools.compress(range(self.n), row):
                a = row[j]
                if a < 0 and (enter < 0 or cost_row[j] * best_a > best_d * a):
                    enter, best_d, best_a = j, cost_row[j], a
            if enter < 0:
                return "infeasible"
            run = run + 1 if best_d == 0 else 0
            self.pivot(leave, enter, self.column(enter), cost_row)

    def _subtract(self, row: list[int], t: int, mrow: list[int]) -> None:
        """row -= t * mrow (D A) in place; entries of mrow past the m-th
        are unused."""
        by_row = self.by_row
        for k in itertools.compress(range(len(by_row)), mrow):
            c = t * mrow[k]
            plus, minus, other = by_row[k]
            for j in plus:
                row[j] -= c
            for j in minus:
                row[j] += c
            for j, a in other:
                row[j] -= c * a


def _solver_form(lp: LinearProgram):
    """The rows as D A, with D holding each row's lcm: (D's entries, the
    rows of D A, its columns, (cost lcm, scaled cost)).  Each row and
    column is given as the indices of its entries 1, the indices of its
    entries -1, and its other (index, entry) pairs."""
    dens = []
    by_row = []
    columns: list[list] = [[] for _ in range(lp.column_count)]
    for k, entries in enumerate(lp.rows):
        den, nums = _scaled(entries.values())
        pairs = tuple(zip(entries, nums))
        for j, a in pairs:
            columns[j].append((k, a))
        dens.append(den)
        by_row.append(_signed(pairs))
    cost_den, cost = _scaled(lp.cost)
    return tuple(dens), tuple(by_row), tuple(map(_signed, columns)), (cost_den, tuple(cost))


def _signed(pairs) -> tuple[tuple, tuple, tuple]:
    pairs = tuple(pairs)
    return (tuple(i for i, a in pairs if a == 1), tuple(i for i, a in pairs if a == -1),
            tuple((i, a) for i, a in pairs if a != 1 and a != -1))


def _two_phase(lp: LinearProgram, form) -> tuple[str, Revised]:
    """(status, final state) of two phases from the artificial basis."""
    n, m = lp.column_count, lp.row_count
    dens, _, _, (cost_den, cost) = form

    # Sign-normalize so every right-hand side is nonnegative.
    sign = [1 if b >= 0 else -1 for b in lp.rhs]
    state = Revised(lp, form, _Start(range(m), sign, (1,) * m, dens, range(n, n + m), None))

    # Phase one minimizes the artificial mass, each artificial at cost 1;
    # one that leaves the basis is dropped.
    status = state.bland(_cost_row(state, (), 1, artificial=1))
    assert status == "optimal"  # phase one is bounded below by zero
    if _stuck(state):
        return "infeasible", state

    # Drive leftover artificials out of the basis.  A row with no original
    # column left is redundant: its artificial stays basic at level zero.
    for i in range(m):
        if state.basis[i] >= n:
            row = state.row(i)
            enter = next((j for j in range(n) if row[j]), -1)
            if enter >= 0:
                state.pivot(i, enter, state.column(enter), None)

    # Phase two starts where phase one stops.
    return state.bland(_cost_row(state, cost, cost_den)), state


def _stuck(state: Revised) -> bool:
    """Whether a basic artificial has a nonzero value, so no x >= 0 solves the rows."""
    return any(bi >= state.n and b[0] for bi, b in zip(state.basis, state.rhs))


def _cost_row(state: Revised, cost: Sequence[int], den: int, artificial: int = 0) -> list[int]:
    """c - y'A over yd * den, its last entry, with (y, yd) from _prices at the
    state's basis; ``cost`` is c * den (empty for c = 0), ``artificial`` as there."""
    y, yd = _prices(state, cost, artificial)
    row = [c * yd for c in cost] if cost else [0] * state.n
    row.append(yd * den)
    state._subtract(row, 1, y)
    return row


def _prices(state: Revised, cost: Sequence[int], artificial: int = 0) -> tuple[list[int], int]:
    """y' = c_B' B^-1 = c_B' M D at the state's basis as (y, yd), y' = y D / yd:
    y sums the basic rows of M weighted by their nonzero costs (``cost`` for an
    original column, zero if it is empty, ``artificial`` for the others) over
    the lcm yd of their denominators."""
    basic = [(c, row) for bi, row in zip(state.basis, state.rows)
             if (c := artificial if bi >= state.n else cost[bi] if cost else 0)]
    yd = lcm(*(row[-1] for _, row in basic))
    y = [0] * len(state.rows)
    for c, row in basic:
        c *= yd // row[-1]
        for k in itertools.compress(range(len(y)), row):
            y[k] += c * row[k]
    return y, yd


def _solution(state: Revised, form) -> LpSolution:
    """The optimum at the state's basis, its objective read as y'b."""
    n = state.n
    dens, _, _, (cost_den, cost) = form
    primal = [Fraction(0)] * n
    for (bn, bd), bi in zip(state.rhs, state.basis):
        if bi < n:
            primal[bi] = Fraction(bn, bd)
    y, yd = _prices(state, cost)
    yd *= cost_den
    db, bd = state.db
    return LpSolution("optimal", Fraction(sum(map(operator.mul, y, db)), yd * bd), tuple(primal),
                      tuple(Fraction(v * d, yd) for v, d in zip(y, dens)),
                      tuple(sorted(b for b in state.basis if b < n)))


def _start(lp: LinearProgram) -> _Start:
    """The start of lp's template: the two-phase optimum at its start
    right-hand side, with its cost row.  SolverError if that program has
    no optimum.  Filled on first use through _form."""
    template = lp._template
    lp = template.program(template.start_rhs)
    form = _form(lp, "solver", _solver_form)
    status, state = _two_phase(lp, form)
    if status != "optimal":
        raise SolverError(f"a template's start program is {status}")
    rows = [row[:-1] for row in state.rows]
    columns = tuple(range(len(rows)))
    cost_den, cost = form[3]
    return _Start(
        tuple(itertools.chain(*(itertools.compress(columns, r) for r in rows))),
        tuple(itertools.chain(*(itertools.compress(r, r) for r in rows))),
        tuple(len(r) - r.count(0) for r in rows), tuple(row[-1] for row in state.rows),
        tuple(state.basis), tuple(_cost_row(state, cost, cost_den)))


def solve_exact(lp: LinearProgram) -> LpSolution:
    """lp's solution: by two phases for a program without a template, and
    by dual simplex from its template's start for one made from a template.
    From the start, lp is infeasible where a row of B^-1 A x = B^-1 b has no
    x >= 0: a basic artificial's row with a nonzero value (_stuck), or a
    negative row that Revised.dual finds with no negative entry."""
    form = _form(lp, "solver", _solver_form)
    if getattr(lp, "_template", None) is None:
        status, state = _two_phase(lp, form)
    else:
        start = _form(lp, "start", _start)
        state = Revised(lp, form, start)
        status = "infeasible" if _stuck(state) else state.dual(list(start.cost))
    return _solution(state, form) if status == "optimal" else LpSolution(status)


def solve_certified(lp: LinearProgram) -> LpSolution:
    """solve_exact, insisting on a verified optimum.

    Raises Infeasible/SolverError on non-optimal statuses and
    CertificationFailure if the exact certificate check fails.
    """
    sol = solve_exact(lp)
    if sol.status == "infeasible":
        raise Infeasible("linear program has no feasible point")
    if sol.status != "optimal":
        raise SolverError(f"unexpected solver status {sol.status!r}")
    if not verify_certificate(lp, sol):
        raise CertificationFailure("optimal solution failed exact certification")
    return sol


def verify_certificate(lp: LinearProgram, sol: LpSolution) -> bool:
    """Exact re-check of an optimal solution against the original program.

    True iff the primal satisfies Ax = b and x >= 0, the dual satisfies
    y'A <= c' componentwise, and y'b = c'x = objective, all in exact
    arithmetic.  Any violation returns False.  Each side of every check
    is a Python int over a common denominator (the lcm of the x, y and
    matrix denominators), so no Fraction is built per term.
    """
    if sol.status != "optimal" or sol.primal is None or sol.dual is None:
        return False
    n, m = lp.column_count, lp.row_count
    if len(sol.primal) != n or len(sol.dual) != m or sol.objective is None:
        return False
    xd, x = _scaled(sol.primal)
    if any(v < 0 for v in x):
        return False
    yd, y = _scaled(sol.dual)
    ad, matrix, (cd, c) = _form(lp, "certificate", _certificate_matrix)
    # Ax = b row by row (each row's sum is over ad * xd), while y'A
    # accumulates over ad * yd.
    pulled = [0] * n
    for (cols, nums), b, yi in zip(matrix, lp.rhs, y):
        total = sum(map(operator.mul, nums, map(x.__getitem__, cols)))
        if total * b.denominator != b.numerator * ad * xd:
            return False
        if yi:
            for j, a in zip(cols, nums):
                pulled[j] += yi * a
    if any(p * cd > cj * ad * yd for p, cj in zip(pulled, c)):
        return False
    bd, b = _scaled(lp.rhs)
    primal_obj = sum(cj * xj for cj, xj in zip(c, x))  # over cd * xd
    dual_obj = sum(yi * bi for yi, bi in zip(y, b))  # over yd * bd
    obj = sol.objective
    return (primal_obj * obj.denominator == obj.numerator * cd * xd
            and dual_obj * obj.denominator == obj.numerator * yd * bd)


_numerator = operator.attrgetter("numerator")


def _certificate_matrix(lp: LinearProgram):
    """The rows over one common denominator ad, as (ad, [(columns, entries
    times ad)]), and the cost as (lcm, scaled entries).  Derived from the
    program alone, not from the solver's form."""
    ad = lcm(*(v.denominator for row in lp.rows for v in row.values()))
    matrix = []
    shared: dict[tuple, tuple] = {}  # rows with equal entries share one tuple
    for row in lp.rows:
        values = row.values()
        nums = tuple(map(_numerator, values) if ad == 1 else
                     (v.numerator * (ad // v.denominator) for v in values))
        matrix.append((tuple(row), shared.setdefault(nums, nums)))
    cd, c = _scaled(lp.cost)
    return ad, tuple(matrix), (cd, tuple(c))


def _scaled(values) -> tuple[int, list[int]]:
    """(d, [v * d for v in values]) with d the lcm of the denominators."""
    pairs = [v.as_integer_ratio() for v in values]
    d = lcm(*(q for _, q in pairs))
    return d, [p * (d // q) for p, q in pairs]
