"""Exact rational linear programming.

Standard form only: minimize c'x subject to Ax = b, x >= 0, with equality
rows and named columns.  The solver is a two-phase revised simplex over
exact rationals with Bland's pivoting rule (anti-cycling, deterministic
given the column order).  Optimal solutions carry a primal vector, a dual
vector, and the optimal basis, so optimality can be re-verified
independently: primal feasibility, dual feasibility (y'A <= c'), and zero
duality gap.

One state object (Revised) holds the whole simplex state: the basis
inverse B^-1, each row's entry of B^-1 b, and the basis.  Its rows, and
the full cost rows beside it, are lists of Python int numerators over
one positive int denominator.  A pivot is one method of the state.  It
updates the rows of B^-1 with a nonzero in the entering column (built
from B^-1 and the program's columns) and their right-hand sides, adds
the pivot row, a sum of the program's rows weighted by the pivot's row
of B^-1, into the cost rows, and updates the basis.  A row is brought to
lowest terms when its denominator changes (the pivot row always is); an
update that keeps the denominator takes no gcd.  Each entry of B^-1 b is
a separate reduced (numerator, denominator) pair: the right-hand sides
of this package's programs are probabilities, so a row holding its own
would almost never have denominator 1, and without it the rows nearly
always do.  The cost rows keep the phase-one artificial columns (which
never re-enter in phase two), whose reduced costs give the dual.
The public API is Fraction end to end.  verify_certificate re-checks
every optimum against the program alone, independently of the solver,
in Python ints over common denominators.

A program whose matrix does not depend on its data can be made from a
template (``_Template``): names, costs and read-only rows checked once,
to which each call adds only its right-hand side.  The template keeps
two integer forms of its rows, each computed on first use: the solver's
(each row's lcm, and the scaled rows by row and by column, with the
scaled cost) and verify_certificate's own scaling of the rows, derived
from the rows by its own code and never from the solver's form.
"""
from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

from .errors import CertificationFailure, DimensionMismatch, Infeasible, ParseError, SolverError


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


class _Template:
    """Names, costs and rows of every program of one shape, checked once.

    Rows are kept read-only, so neither a template nor a program made from
    it can be changed.  ``solver`` is the integer form of the rows used by
    solve_exact and ``certificate`` the one used by verify_certificate,
    each filled in on first use.  Nothing here depends on a program's
    right-hand side.
    """

    __slots__ = ("variables", "cost", "rows", "nonzeros", "solver", "certificate")

    def __init__(self, variables: Sequence[str], cost: Sequence[Fraction],
                 rows: Sequence[Mapping[int, Fraction]]):
        self.variables = tuple(variables)
        self.cost = tuple(cost)
        self.rows = tuple(map(_ReadOnlyRow, rows))
        _check_matrix(self.variables, self.cost, self.rows)
        self.nonzeros = sum(map(len, self.rows))
        self.solver = self.certificate = None

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
        assert self.status == "optimal" and self.primal is not None
        return {name: v for name, v in zip(lp.variables, self.primal) if v != 0}


class Revised:
    """The simplex state: the basis inverse as M = B^-1 S D^-1, one list
    per row, each row's entry of B^-1 b, and the basis.

    S is the sign normalization and D holds each row's lcm, so the solver
    form's integer rows are D A and B^-1 A = M (D A).  Row i of M starts
    as s_i e_i over D_i.  ``support[k]`` holds the rows where column k of
    M is nonzero.  ``rhs[i]`` is row i's right-hand side as a reduced
    (numerator, positive denominator) pair, and ``basis[i]`` the column
    basic in row i, first the artificial n + i.  The entering column is a
    sum of M's columns, weighted by the column form of D A.  The pivot row
    of (B^-1 A | B^-1) is a sum of the rows of D A weighted by the pivot's
    row of M; it is never stored, each cost row takes it entry by entry.
    """

    def __init__(self, lp: LinearProgram, form, sign: list[int]):
        dens, self.by_row, self.by_column, _ = form
        self.n = lp.column_count
        self.scale = [s * d for s, d in zip(sign, dens)]  # B^-1 = M S D
        self.rows = []
        for i, d in enumerate(dens):
            row = [0] * (len(dens) + 1)
            row[i], row[-1] = sign[i], d
            self.rows.append(row)
        self.support = [{k} for k in range(len(dens))]
        self.rhs = [(s * b.numerator, b.denominator) for s, b in zip(sign, lp.rhs)]
        self.basis = list(range(self.n, self.n + len(dens)))

    def column(self, j: int) -> list[int]:
        """Column j of (B^-1 A | B^-1), entry i over rows[i][-1]."""
        rows, support = self.rows, self.support
        out = [0] * len(rows)
        if j >= self.n:  # artificial column j - n, a column of B^-1
            k = j - self.n
            for i in support[k]:
                out[i] = rows[i][k] * self.scale[k]
            return out
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
        out = [0] * (self.n + len(self.rows) + 1)
        self._subtract(out, -1, self.rows[i])
        return out

    def pivot(self, leave: int, enter: int, column: list[int],
              cost_rows: list[list[int]]) -> None:
        """Make column ``enter``, whose entries are ``column``, basic in row
        ``leave``; the rows, their right-hand sides, the cost rows and the
        basis are updated in place.

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
        # Each cost row becomes (row * s - t * mrow (D A | S D)) / (d * s)
        # and is then brought to lowest terms.
        for row in cost_rows:
            f = row[enter]
            if f:
                g = gcd(f, pd)
                s, t = pd // g, f // g
                if s != 1:
                    row[:] = [v * s for v in row]
                self._subtract(row, t, mrow)
                if s != 1:
                    g = gcd(*row)
                    if g != 1:
                        row[:] = [v // g for v in row]
        self.basis[leave] = enter

    def bland(self, cost_rows: list[list[int]], ncols: int) -> str:
        """Run simplex iterations until optimal or unbounded (Bland's rule),
        entering only columns below ``ncols``.

        ``cost_rows[0]`` chooses the entering column; any further rows ride
        along through the pivots.
        """
        cost_row = cost_rows[0]
        rows, rhs, basis = self.rows, self.rhs, self.basis
        while True:
            enter = next((j for j in range(ncols) if cost_row[j] < 0), -1)
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
            self.pivot(leave, enter, column, cost_rows)

    def _subtract(self, row: list[int], t: int, mrow: list[int]) -> None:
        """row -= t * mrow (D A | S D) in place; entries of mrow past the
        m-th are unused."""
        n, by_row, scale = self.n, self.by_row, self.scale
        for k in itertools.compress(range(len(by_row)), mrow):
            c = t * mrow[k]
            plus, minus, other = by_row[k]
            for j in plus:
                row[j] -= c
            for j in minus:
                row[j] += c
            for j, a in other:
                row[j] -= c * a
            row[n + k] -= c * scale[k]


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


def solve_exact(lp: LinearProgram) -> LpSolution:
    """Two-phase simplex; returns an exactly certified optimum when one exists."""
    n = lp.column_count
    m = lp.row_count
    form = _form(lp, "solver", _solver_form)
    dens, _, _, (cost_den, cost) = form

    # Sign-normalize so every right-hand side is nonnegative.
    sign = [1 if b >= 0 else -1 for b in lp.rhs]
    state = Revised(lp, form, sign)

    # Phase one minimizes the artificial mass: its cost row is (0 | 1) minus
    # the sum of the sign-normalized rows (s_k A_k | e_k), over their lcm,
    # that is, less the rows (D A | S D) weighted by s_k * den / D_k.  The
    # phase-two cost row rides along, so it is already reduced against the
    # final phase-one basis.
    den = lcm(*dens)
    cost1 = [0] * n + [den] * (m + 1)
    state._subtract(cost1, 1, [s * (den // d) for s, d in zip(sign, dens)])
    cost2 = [*cost, *[0] * m, cost_den]
    status = state.bland([cost1, cost2], n + m)
    assert status == "optimal"  # phase one is bounded below by zero
    # The artificial mass is the sum of the basic artificials' values.
    if any(bi >= n and b[0] for bi, b in zip(state.basis, state.rhs)):
        return LpSolution(status="infeasible")

    # Drive leftover artificials out of the basis.  A row with no original
    # column left is redundant: its artificial stays basic at level zero.
    for i in range(m):
        if state.basis[i] >= n:
            row = state.row(i)
            enter = next((j for j in range(n) if row[j]), -1)
            if enter >= 0:
                state.pivot(i, enter, state.column(enter), [cost2])

    # Phase two over the original columns; artificials never re-enter.
    if state.bland([cost2], n) == "unbounded":
        return LpSolution(status="unbounded")

    # c'x = sum of cost[bi] * bn / bd over the basic columns, all over
    # cost_den; the terms are summed in ints over the lcm of their bd.
    primal = [Fraction(0)] * n
    terms = []
    for (bn, bd), bi in zip(state.rhs, state.basis):
        if bi < n:
            primal[bi] = Fraction(bn, bd)
            if bn and cost[bi]:
                terms.append((cost[bi] * bn, bd))
    den = lcm(*(bd for _, bd in terms))
    objective = Fraction(sum(t * (den // bd) for t, bd in terms), den * cost_den)
    # The artificial columns hold B^-1, so their reduced costs are -y'.
    dual = tuple(Fraction(-sign[k] * cost2[n + k], cost2[-1]) for k in range(m))
    return LpSolution(
        status="optimal",
        objective=objective,
        primal=tuple(primal),
        dual=dual,
        basis=tuple(sorted(b for b in state.basis if b < n)),
    )


def solve_certified(lp: LinearProgram) -> LpSolution:
    """Solve and insist on a verified optimum.

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


# ---------------------------------------------------------------------------
# Textual dump format (bit-exact round trip)
# ---------------------------------------------------------------------------

def fmt_rational(v: Fraction) -> str:
    """``num/den`` in lowest terms, as in dumps, system files and reports."""
    return f"{v.numerator}/{v.denominator}"


def dump_lp(lp: LinearProgram) -> str:
    """Serialize: header, variables in column order, nonzero cost entries,
    one line per nonzero matrix entry, nonzero right-hand sides."""
    out = ["lp-dump 1", "minimize", f"vars {lp.column_count}"]
    out.extend(f"var {name}" for name in lp.variables)
    out.append(f"rows {lp.row_count}")
    for j, c in enumerate(lp.cost):
        if c:
            out.append(f"c {lp.variables[j]} {fmt_rational(c)}")
    for i, row in enumerate(lp.rows):
        for j in sorted(row):
            out.append(f"a {i} {lp.variables[j]} {fmt_rational(row[j])}")
    for i, b in enumerate(lp.rhs):
        if b:
            out.append(f"rhs {i} {fmt_rational(b)}")
    out.append("end")
    return "\n".join(out) + "\n"


def parse_lp(text: str) -> LinearProgram:
    """Inverse of dump_lp; raises ParseError with a line number on bad input."""
    lines = text.splitlines()
    idx = 0

    def take() -> tuple[int, list[str]]:
        nonlocal idx
        while idx < len(lines):
            ln = lines[idx].strip()
            idx += 1
            if ln and not ln.startswith("#"):
                return idx, ln.split()
        raise ParseError("unexpected end of input", idx)

    lineno, tok = take()
    if tok != ["lp-dump", "1"]:
        raise ParseError("expected 'lp-dump 1' header", lineno)
    lineno, tok = take()
    if tok != ["minimize"]:
        raise ParseError("expected 'minimize'", lineno)
    def count(s: str, lineno: int) -> int:
        try:
            v = int(s)
        except ValueError as exc:
            raise ParseError(f"bad count {s!r}", lineno) from exc
        if v < 0:
            raise ParseError(f"negative count {v}", lineno)
        return v

    lineno, tok = take()
    if len(tok) != 2 or tok[0] != "vars":
        raise ParseError("expected 'vars <count>'", lineno)
    nvars = count(tok[1], lineno)
    col: dict[str, int] = {}
    for j in range(nvars):
        lineno, tok = take()
        if len(tok) != 2 or tok[0] != "var":
            raise ParseError("expected 'var <name>'", lineno)
        if col.setdefault(tok[1], j) != j:
            raise ParseError("duplicate variable name", lineno)
    lineno, tok = take()
    if len(tok) != 2 or tok[0] != "rows":
        raise ParseError("expected 'rows <count>'", lineno)
    nrows = count(tok[1], lineno)
    cost = [Fraction(0)] * nvars
    rows: list[dict[int, Fraction]] = [dict() for _ in range(nrows)]
    rhs = [Fraction(0)] * nrows

    def rational(s: str, lineno: int) -> Fraction:
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {s!r}", lineno) from exc

    def column(s: str, lineno: int) -> int:
        try:
            return col[s]
        except KeyError:
            raise ParseError(f"unknown variable {s!r}", lineno) from None

    def rowref(s: str, lineno: int) -> int:
        i = count(s, lineno)
        if i >= nrows:
            raise ParseError(f"row {i} out of range", lineno)
        return i

    given: set[tuple] = set()  # entries read so far; dump_lp writes each once

    def once(key: tuple, lineno: int) -> None:
        if key in given:
            raise ParseError(f"repeated entry {' '.join(tok[:-1])!r}", lineno)
        given.add(key)

    while True:
        lineno, tok = take()
        if tok == ["end"]:
            break
        if tok[0] == "c" and len(tok) == 3:
            j = column(tok[1], lineno)
            once(("c", j), lineno)
            cost[j] = rational(tok[2], lineno)
        elif tok[0] == "a" and len(tok) == 4:
            i, j = rowref(tok[1], lineno), column(tok[2], lineno)
            once(("a", i, j), lineno)
            rows[i][j] = rational(tok[3], lineno)
        elif tok[0] == "rhs" and len(tok) == 3:
            i = rowref(tok[1], lineno)
            once(("rhs", i), lineno)
            rhs[i] = rational(tok[2], lineno)
        else:
            raise ParseError(f"unrecognized line {' '.join(tok)!r}", lineno)
    return LinearProgram(tuple(col), tuple(cost), tuple(rows), tuple(rhs))
