"""Exact rational linear programming.

Standard form only: minimize c'x subject to Ax = b, x >= 0, with equality
rows and named columns.  The solver is a dense two-phase simplex over exact
rationals with Bland's pivoting rule (anti-cycling, deterministic given the
column order).  Optimal solutions carry a primal vector, a dual vector, and
the optimal basis, so optimality can be re-verified independently:
primal feasibility, dual feasibility (y'A <= c'), and zero duality gap.

Internally each tableau row holds the matrix part (B^-1 A | B^-1) as a
list of Python int numerators over one positive int denominator.  A row
is brought to lowest terms when its denominator changes (the pivot row
always is); an update that keeps the denominator takes no gcd.  The
right-hand side is not in the row: each row's entry of B^-1 b is a
separate reduced (numerator, denominator) pair.  The right-hand sides of
this package's programs are probabilities, so a row holding its own
would almost never have denominator 1; without it the matrix part nearly
always does, and a row update then touches only the pivot row's
nonzeros.  Ratio tests compare by cross-multiplication.  The phase-one
artificial columns stay in the tableau (they never re-enter in phase two)
and hold B^-1, so the dual is read off their reduced costs.  The public
API is Fraction end to end.  verify_certificate re-checks every optimum
against the program alone, independently of the tableau, in Python ints
over common denominators.

A program whose matrix does not depend on its data can be made from a
template (``_Template``): names, costs and read-only rows checked once,
to which each call adds only its right-hand side.  The template keeps the
two integer forms of its rows, each computed on first use: the sparse
rows (row lcm plus column/numerator pairs) that solve_exact seeds its
tableau from, and verify_certificate's own scaling of the rows, derived
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
    it can be changed.  ``seed`` and ``certificate`` are
    the integer forms of the rows used by solve_exact and
    verify_certificate, filled in on first use.  Nothing here depends on a
    program's right-hand side.
    """

    __slots__ = ("variables", "cost", "rows", "nonzeros", "seed", "certificate")

    def __init__(self, variables: Sequence[str], cost: Sequence[Fraction],
                 rows: Sequence[Mapping[int, Fraction]]):
        self.variables = tuple(variables)
        self.cost = tuple(cost)
        self.rows = tuple(map(_ReadOnlyRow, rows))
        _check_matrix(self.variables, self.cost, self.rows)
        self.nonzeros = sum(map(len, self.rows))
        self.seed = self.certificate = None

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


def _pivot(tableau: list[list[int]], rhs: list[tuple[int, int]], basis: list[int],
           cost_rows: list[list[int]], leave: int, enter: int) -> None:
    """Make column ``enter`` basic in row ``leave``; rows are updated in place.

    Every row stores integer numerators followed by one positive integer
    denominator, and ``rhs`` holds each row's right-hand side as a separate
    (numerator, positive denominator) pair.  The pivot row, every rescaled
    row and every right-hand side are left in lowest terms.
    """
    prow = tableau[leave]
    piv = prow[enter]
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
    pd = prow[-1]
    nz = list(itertools.compress(range(len(prow) - 1), prow))
    m = len(tableau)
    for i, row in enumerate(itertools.chain(tableau, cost_rows)):
        f = row[enter]
        if not f or row is prow:
            continue
        d = row[-1]
        if bn and i < m:
            # b_i - (f/d) * bn/bd
            cn, cd = rhs[i]
            num, den = cn * d * bd - f * bn * cd, cd * d * bd
            g = gcd(num, den)
            rhs[i] = (num // g, den // g)
        # row/d - (f/d) * prow/pd  ==  (row * s - t * prow) / (d * s)
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
    basis[leave] = enter


def _bland(tableau: list[list[int]], rhs: list[tuple[int, int]], basis: list[int],
           cost_rows: list[list[int]], ncols: int) -> str:
    """Run simplex iterations until optimal or unbounded (Bland's rule).

    ``cost_rows[0]`` chooses the entering column; any further rows ride
    along through the pivots.
    """
    cost_row = cost_rows[0]
    while True:
        enter = next((j for j in range(ncols) if cost_row[j] < 0), -1)
        if enter < 0:
            return "optimal"
        # Row i's ratio is (bn/bd) / (a/d) = (bn*d) / (bd*a); rows compare
        # by cross-multiplying (a > 0 and bd > 0 on candidates).
        leave = -1
        best_n = best_d = 0
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                bn, bd = rhs[i]
                num, den = bn * row[-1], bd * a
                lhs, r = num * best_d, best_n * den
                if leave < 0 or lhs < r or (lhs == r and basis[i] < basis[leave]):
                    leave, best_n, best_d = i, num, den
        if leave < 0:
            return "unbounded"
        _pivot(tableau, rhs, basis, cost_rows, leave, enter)


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
    n = lp.column_count
    m = lp.row_count
    seed, (cost_den, cost) = _form(lp, "seed", _solver_seed)

    # Sign-normalize so every right-hand side is nonnegative, then append
    # the artificial identity: row i is [A_i | e_i] over the least common
    # denominator of its entries (which leaves it in lowest terms), and b_i
    # is kept beside it as a reduced pair.
    sign = [1 if b >= 0 else -1 for b in lp.rhs]
    tableau: list[list[int]] = []
    for i, (den, cols, nums) in enumerate(seed):
        row = [0] * (n + m + 1)
        s = sign[i]
        for j, a in zip(cols, nums):
            row[j] = s * a
        row[n + i] = row[-1] = den
        tableau.append(row)
    rhs = [(s * b.numerator, b.denominator) for s, b in zip(sign, lp.rhs)]
    basis = list(range(n, n + m))

    # Phase one minimizes the artificial mass.  The phase-two cost row rides
    # along, so it is already reduced against the final phase-one basis.
    den = lcm(*(row[-1] for row in tableau))
    cost1 = [0] * (n + m + 1)
    for row, (_, cols, _) in zip(tableau, seed):
        k = den // row[-1]
        for j in cols:
            cost1[j] -= k * row[j]
    cost1[-1] = den
    cost2 = [*cost, *[0] * m, cost_den]
    status = _bland(tableau, rhs, basis, [cost1, cost2], n + m)
    assert status == "optimal"  # phase one is bounded below by zero
    # The artificial mass is the sum of the basic artificials' values.
    if any(bi >= n and b[0] for bi, b in zip(basis, rhs)):
        return LpSolution(status="infeasible")

    # Drive leftover artificials out of the basis.  A row with no original
    # column left is redundant: its artificial stays basic at level zero.
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if tableau[i][j]), -1)
            if enter >= 0:
                _pivot(tableau, rhs, basis, [cost2], i, enter)

    # Phase two over the original columns; artificials never re-enter.
    if _bland(tableau, rhs, basis, [cost2], n) == "unbounded":
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

    while True:
        lineno, tok = take()
        if tok == ["end"]:
            break
        if tok[0] == "c" and len(tok) == 3:
            cost[column(tok[1], lineno)] = rational(tok[2], lineno)
        elif tok[0] == "a" and len(tok) == 4:
            rows[rowref(tok[1], lineno)][column(tok[2], lineno)] = rational(tok[3], lineno)
        elif tok[0] == "rhs" and len(tok) == 3:
            rhs[rowref(tok[1], lineno)] = rational(tok[2], lineno)
        else:
            raise ParseError(f"unrecognized line {' '.join(tok)!r}", lineno)
    return LinearProgram(tuple(names), tuple(cost), tuple(rows), tuple(rhs))
