"""Exact rational linear programming.

Standard form only: minimize c'x subject to Ax = b, x >= 0, with equality
rows and named columns.  The solver is a two-phase simplex over exact
rationals with Bland's pivoting rule (anti-cycling, deterministic given the
column order).  Optimal solutions carry a primal vector, a dual vector, and
the optimal basis, so optimality can be re-verified independently:
primal feasibility, dual feasibility (y'A <= c'), and zero duality gap.

Two kernels carry the pivots; both take the same pivots and return the
same solution.  Each keeps its rows as lists of Python int numerators over
one positive int denominator.  A row is brought to lowest terms when its
denominator changes (the pivot row always is); an update that keeps the
denominator takes no gcd.  Each row's entry of B^-1 b is kept beside it
as a separate reduced (numerator, denominator) pair: the right-hand sides
of this package's programs are probabilities, so a row holding its own
would almost never have denominator 1, and without it the rows nearly
always do.  The phase-one artificial columns stay (they never re-enter in
phase two) and hold B^-1, so the dual is read off their reduced costs.

- The tableau (_Tableau) keeps every row of (B^-1 A | B^-1).  A pivot
  updates each row with a nonzero in the entering column across the pivot
  row's nonzeros.
- The revised kernel (``_revised.Revised``) keeps only B^-1, which is the
  tableau's artificial block, and the full cost rows.  A pivot builds the
  entering column from B^-1 and the program's columns, updates the rows
  of B^-1 with a nonzero in it, and adds the pivot row, a sum of the
  program's rows weighted by the pivot's row of B^-1, into the cost rows.

Bland's entering scan, the cross-multiplied ratio test with its
basis-index tie-break, the right-hand-side update, the pivot row's
division and the row update are shared; the revised kernel repeats the
row update inline for rows that keep their denominator, where it also
tracks which entries of B^-1 are nonzero.  solve_exact runs the revised
kernel on programs with at least _WIDE = 3 times as many columns as rows.
There the tableau spends most of each pivot on columns that the pivot
barely touches; on narrower programs the revised kernel's own work per
pivot (the entering column and the pivot row, rebuilt from the program
each time) costs more than it saves.  The measurement is beside _WIDE.
The public API is Fraction end to end.  verify_certificate re-checks
every optimum against the program alone, independently of either kernel,
in Python ints over common denominators.

A program whose matrix does not depend on its data can be made from a
template (``_Template``): names, costs and read-only rows checked once,
to which each call adds only its right-hand side.  The template keeps
three integer forms of its rows, each computed on first use: the sparse
rows (row lcm plus column/numerator pairs) that solve_exact seeds its
kernels from, the same rows by row and by column that the revised kernel
prices and builds columns from, and verify_certificate's own scaling of
the rows, derived from the rows by its own code and never from the
solver's forms.
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
    it can be changed.  ``seed`` and ``columns`` are the integer forms of
    the rows used by solve_exact (``columns`` by its revised kernel only),
    ``certificate`` the one used by verify_certificate, each filled in on
    first use.  Nothing here depends on a program's right-hand side.
    """

    __slots__ = ("variables", "cost", "rows", "nonzeros", "seed", "columns", "certificate")

    def __init__(self, variables: Sequence[str], cost: Sequence[Fraction],
                 rows: Sequence[Mapping[int, Fraction]]):
        self.variables = tuple(variables)
        self.cost = tuple(cost)
        self.rows = tuple(map(_ReadOnlyRow, rows))
        _check_matrix(self.variables, self.cost, self.rows)
        self.nonzeros = sum(map(len, self.rows))
        self.seed = self.columns = self.certificate = None

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


# solve_exact runs the revised kernel on programs with at least _WIDE
# times as many columns as rows, and the tableau on the rest.  Measured as
# the tableau's time over the revised kernel's (best of three, x86_64,
# Python 3.11) on 114 present, np, np_inside, cbd and ternary delta_p
# programs of random systems from 1x3 to 4x4: below 2.5 times as wide as
# tall, 0.58 to 0.94; from 2.5 to 3 times, 0.68 to 1.15 on present and np
# but 1.17 to 1.34 on 2x2 np_inside; from 3 to 4 times, 0.92 to 1.69; from
# 4 times on, 1.20 to 3.68, apart from one 1x4 np program of under a
# millisecond at 0.36 (1.10 in an earlier run).
_WIDE = 3


class _Tableau:
    """The full tableau (B^-1 A | B^-1), one list per row.

    Row i starts as A's row i, sign-normalized, then e_i, over the lcm of
    the row's denominators (which leaves it in lowest terms).
    """

    def __init__(self, lp: LinearProgram, seed, sign: list[int]):
        n, m = lp.column_count, lp.row_count
        self.rows = []
        for i, (den, cols, nums) in enumerate(seed):
            row = [0] * (n + m + 1)
            s = sign[i]
            for j, a in zip(cols, nums):
                row[j] = s * a
            row[n + i] = row[-1] = den
            self.rows.append(row)

    def column(self, j: int) -> list[int]:
        """Column j of (B^-1 A | B^-1), entry i over rows[i][-1]."""
        return [row[j] for row in self.rows]

    def row(self, i: int) -> list[int]:
        """Row i of B^-1 A, times a positive number, in its first n entries."""
        return self.rows[i]

    def pivot(self, leave: int, column: list[int], cost_rows: list[list[int]],
              enter: int) -> None:
        """Eliminate column ``enter``, whose entries are ``column``, from
        every row but row ``leave`` and from the cost rows; _pivot has
        divided row ``leave`` by its entry already."""
        prow = self.rows[leave]
        nz = list(itertools.compress(range(len(prow) - 1), prow))
        _eliminate(zip(self.rows, column), prow, nz)
        _eliminate([(row, row[enter]) for row in cost_rows], prow, nz)


def _eliminate(pairs, prow: list[int], nz: list[int]) -> None:
    """row/d - (f/d) * prow/pd in place, for each (row, f) of ``pairs``
    with f != 0 and row not prow; d and pd are the rows' last entries,
    prow is in lowest terms and nz lists its nonzero entries before the
    last.  Rescaled rows are left in lowest terms."""
    pd = prow[-1]
    for row, f in pairs:
        if not f or row is prow:
            continue
        d = row[-1]
        g = gcd(f, pd)
        s, t = pd // g, f // g
        if s == 1:
            for j in nz:
                row[j] -= t * prow[j]
        else:
            row[:] = [v * s - t * p for v, p in zip(row, prow)]
            row[-1] = d * s
            # prow is in lowest terms and s divides pd, so no prime of s
            # divides every new entry: a common factor must divide d.
            if d != 1:
                g = gcd(d, *row)
                if g != 1:
                    row[:] = [v // g for v in row]


def _pivot(state, rhs: list[tuple[int, int]], basis: list[int], cost_rows: list[list[int]],
           leave: int, enter: int, column: list[int]) -> None:
    """Make column ``enter`` basic in row ``leave``, given the column's
    entries ``column``; the kernel state, ``rhs`` and the cost rows are
    updated in place.

    Every row stores integer numerators followed by one positive integer
    denominator, and ``rhs`` holds each row's right-hand side as a
    separate (numerator, positive denominator) pair.  The pivot row and
    every right-hand side are left in lowest terms.
    """
    rows = state.rows
    prow = rows[leave]
    piv = column[leave]
    # Dividing by piv/d leaves the numerators over piv and scales b by d/piv.
    bn, bd = rhs[leave]
    bn *= prow[-1]
    bd *= piv
    prow[-1] = piv
    if piv < 0:
        prow[:] = [-v for v in prow]
        bn, bd = -bn, -bd
    if prow[-1] != 1:
        g = gcd(*prow)
        if g != 1:
            prow[:] = [v // g for v in prow]
    g = gcd(bn, bd)
    bn, bd = bn // g, bd // g
    rhs[leave] = (bn, bd)
    if bn:
        for i in itertools.compress(range(len(column)), column):
            if i != leave:
                # b_i - (f/d) * bn/bd
                f, d = column[i], rows[i][-1]
                cn, cd = rhs[i]
                num, den = cn * d * bd - f * bn * cd, cd * d * bd
                g = gcd(num, den)
                rhs[i] = (num // g, den // g)
    state.pivot(leave, column, cost_rows, enter)
    basis[leave] = enter


def _bland(state, rhs: list[tuple[int, int]], basis: list[int],
           cost_rows: list[list[int]], ncols: int) -> str:
    """Run simplex iterations until optimal or unbounded (Bland's rule).

    ``cost_rows[0]`` chooses the entering column; any further rows ride
    along through the pivots.
    """
    cost_row = cost_rows[0]
    rows = state.rows
    while True:
        enter = next((j for j in range(ncols) if cost_row[j] < 0), -1)
        if enter < 0:
            return "optimal"
        column = state.column(enter)
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
        _pivot(state, rhs, basis, cost_rows, leave, enter, column)


_numerator = operator.attrgetter("numerator")
_denominator = operator.attrgetter("denominator")


def _solver_seed(lp: LinearProgram):
    """Each row as (lcm of its denominators, its columns, its entries times
    that lcm), and the cost as (lcm, scaled entries)."""
    rows = []
    shared: dict[tuple, tuple] = {}  # rows with equal entries share one tuple
    for entries in lp.rows:
        values = entries.values()
        den = lcm(*map(_denominator, values))
        nums = tuple(map(_numerator, values) if den == 1 else
                     (v.numerator * (den // v.denominator) for v in values))
        rows.append((den, tuple(entries), shared.setdefault(nums, nums)))
    cost_den, cost = _scaled(lp.cost)
    return tuple(rows), (cost_den, tuple(cost))


def solve_exact(lp: LinearProgram) -> LpSolution:
    """Two-phase simplex; returns an exactly certified optimum when one exists."""
    if lp.column_count < _WIDE * lp.row_count:
        return _solve(lp, _Tableau)
    from ._revised import Revised  # compiled on the first wide program only
    return _solve(lp, Revised)


def _solve(lp: LinearProgram, kernel) -> LpSolution:
    """solve_exact on ``kernel`` (_Tableau or _revised.Revised); both take
    the same pivots and give the same solution."""
    n = lp.column_count
    m = lp.row_count
    seed, (cost_den, cost) = _form(lp, "seed", _solver_seed)

    # Sign-normalize so every right-hand side is nonnegative; b_i is kept
    # beside its row as a reduced pair.
    sign = [1 if b >= 0 else -1 for b in lp.rhs]
    state = kernel(lp, seed, sign)
    rhs = [(s * b.numerator, b.denominator) for s, b in zip(sign, lp.rhs)]
    basis = list(range(n, n + m))

    # Phase one minimizes the artificial mass: its cost row is minus the sum
    # of the sign-normalized rows, over their lcm.  The phase-two cost row
    # rides along, so it is already reduced against the final phase-one basis.
    den = lcm(*(d for d, _, _ in seed))
    cost1 = [0] * (n + m + 1)
    for s, (d, cols, nums) in zip(sign, seed):
        k = s * (den // d)
        for j, a in zip(cols, nums):
            cost1[j] -= k * a
    cost1[-1] = den
    cost2 = [*cost, *[0] * m, cost_den]
    status = _bland(state, rhs, basis, [cost1, cost2], n + m)
    assert status == "optimal"  # phase one is bounded below by zero
    # The artificial mass is the sum of the basic artificials' values.
    if any(bi >= n and b[0] for bi, b in zip(basis, rhs)):
        return LpSolution(status="infeasible")

    # Drive leftover artificials out of the basis.  A row with no original
    # column left is redundant: its artificial stays basic at level zero.
    for i in range(m):
        if basis[i] >= n:
            row = state.row(i)
            enter = next((j for j in range(n) if row[j]), -1)
            if enter >= 0:
                _pivot(state, rhs, basis, [cost2], i, enter, state.column(enter))

    # Phase two over the original columns; artificials never re-enter.
    if _bland(state, rhs, basis, [cost2], n) == "unbounded":
        return LpSolution(status="unbounded")

    # c'x = sum of cost[bi] * bn / bd over the basic columns, all over
    # cost_den; the terms are summed in ints over the lcm of their bd.
    primal = [Fraction(0)] * n
    terms = []
    for (bn, bd), bi in zip(rhs, basis):
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
        basis=tuple(sorted(b for b in basis if b < n)),
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


def _certificate_matrix(lp: LinearProgram):
    """The rows over one common denominator ad, as (ad, [(columns, entries
    times ad)]), and the cost as (lcm, scaled entries).  Derived from the
    program alone, not from the solver's seed."""
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
    names: list[str] = []
    for _ in range(nvars):
        lineno, tok = take()
        if len(tok) != 2 or tok[0] != "var":
            raise ParseError("expected 'var <name>'", lineno)
        names.append(tok[1])
    col = {name: j for j, name in enumerate(names)}
    if len(col) != nvars:
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
    return LinearProgram(tuple(names), tuple(cost), tuple(rows), tuple(rhs))
