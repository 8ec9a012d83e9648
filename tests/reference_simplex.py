"""Test-only references over ``fractions.Fraction``.

``reference_solve`` is the straightforward rational tableau that
``lp.solve_exact`` must reproduce pivot for pivot on a program without a
template's start, by two phases: same entering scan over the original
columns only (an artificial column that leaves never returns), same ratio
test and basis-index tie-break, same handling of leftover artificials.
It returns no dual; the solver's dual is checked by ``verify_certificate``
instead.  Given a list ``path``, it appends each pivot as (entering
column, leaving column).

``reference_dual_solve`` is the dual simplex that ``lp.solve_exact`` runs
from a template's start: the tableau of a program is brought to a given
basis, such as ``reference_solve``'s at the start's right-hand side, and
then takes the same leaving, entering and switch rules.

``reference_verify_certificate`` is the certificate check written with one
``Fraction`` per term; ``lp.verify_certificate`` must give the same verdict.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import NamedTuple, Optional

from contextuality.lp import LinearProgram, LpSolution

ZERO = Fraction(0)
ONE = Fraction(1)


class ReferenceSolution(NamedTuple):
    status: str
    objective: Optional[Fraction] = None
    primal: Optional[tuple[Fraction, ...]] = None
    basis: Optional[tuple[int, ...]] = None


def _pivot(tableau, basis, cost_row, leave, enter, path):
    if path is not None:
        path.append((enter, basis[leave]))
    prow = tableau[leave]
    piv = prow[enter]
    if piv != 1:
        for j, v in enumerate(prow):
            if v:
                prow[j] = v / piv
    nz = [j for j, v in enumerate(prow) if v]
    for row in itertools.chain(tableau, (cost_row,)):
        if row is prow:
            continue
        f = row[enter]
        if f:
            for j in nz:
                row[j] -= f * prow[j]
    basis[leave] = enter


def _bland(tableau, basis, cost_row, ncols, path):
    while True:
        enter = -1
        for j in range(ncols):
            if cost_row[j] < 0:
                enter = j
                break
        if enter < 0:
            return "optimal"
        leave = -1
        best = None
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                ratio = row[-1] / a
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            return "unbounded"
        _pivot(tableau, basis, cost_row, leave, enter, path)


def reference_solve(lp: LinearProgram, path: Optional[list] = None) -> ReferenceSolution:
    n = lp.column_count
    m = lp.row_count

    tableau = []
    for i in range(m):
        s = -1 if lp.rhs[i] < 0 else 1
        row = [ZERO] * n
        for j, v in lp.rows[i].items():
            row[j] = Fraction(v) * s
        row.extend(ONE if k == i else ZERO for k in range(m))
        row.append(Fraction(lp.rhs[i]) * s)
        tableau.append(row)
    basis = list(range(n, n + m))
    cost_row = [ZERO] * (n + m + 1)
    for row in tableau:
        for j in range(n):
            if row[j]:
                cost_row[j] -= row[j]
        cost_row[-1] -= row[-1]
    assert _bland(tableau, basis, cost_row, n, path) == "optimal"
    if cost_row[-1] != 0:
        return ReferenceSolution("infeasible")

    keep = []
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if tableau[i][j]), -1)
            if enter < 0:
                continue  # zero row: redundant constraint
            _pivot(tableau, basis, cost_row, i, enter, path)
        keep.append(i)

    tab2 = [tableau[i][:n] + [tableau[i][-1]] for i in keep]
    basis2 = [basis[i] for i in keep]
    cost = [Fraction(c) for c in lp.cost]
    cost_row = cost[:] + [ZERO]
    for i, bi in enumerate(basis2):
        cb = cost[bi]
        if cb:
            for j in range(n + 1):
                if tab2[i][j]:
                    cost_row[j] -= cb * tab2[i][j]
    if _bland(tab2, basis2, cost_row, n, path) == "unbounded":
        return ReferenceSolution("unbounded")

    primal = [ZERO] * n
    for i, bi in enumerate(basis2):
        primal[bi] = tab2[i][-1]
    objective = sum((c * x for c, x in zip(cost, primal) if x), ZERO)
    return ReferenceSolution("optimal", objective, tuple(primal), tuple(sorted(basis2)))


def reference_dual_solve(lp: LinearProgram, basis: tuple[int, ...], degenerate_run: int,
                         path: Optional[list] = None) -> ReferenceSolution:
    """Dual simplex from ``basis``, a set of original columns whose
    reduced costs are nonnegative; infeasible where a row the basis leaves
    over has a nonzero right-hand side, or a negative row has no negative
    entry.

    The most negative row leaves, the lowest basis index among equal ones,
    and after ``degenerate_run`` pivots in a row with a zero reduced cost
    entering, the negative row of lowest basis index.  The entering column
    has the smallest d_j / -a_j over the row's negative entries, the lowest
    j among equal ones."""
    n = lp.column_count
    tableau = []
    for row, b in zip(lp.rows, lp.rhs):
        full = [ZERO] * (n + 1)
        for j, v in row.items():
            full[j] = Fraction(v)
        full[-1] = Fraction(b)
        tableau.append(full)
    # Bring the tableau to the basis, lowest column first, each on the
    # first row not yet used with a nonzero entry; no cost row yet.
    at = [None] * len(tableau)  # each row's basic column
    for j in sorted(basis):
        i = next(i for i, row in enumerate(tableau) if at[i] is None and row[j])
        _pivot(tableau, at, [ZERO] * (n + 1), i, j, None)
    if any(row[-1] for row, j in zip(tableau, at) if j is None):
        return ReferenceSolution("infeasible")
    tab = [row for row, j in zip(tableau, at) if j is not None]
    bas = [j for j in at if j is not None]
    cost = [Fraction(c) for c in lp.cost]
    cost_row = cost + [ZERO]
    for row, bj in zip(tab, bas):
        if cost[bj]:
            for j in range(n + 1):
                cost_row[j] -= cost[bj] * row[j]
    assert all(d >= 0 for d in cost_row[:n])
    run = 0
    while True:
        negative = [r for r, row in enumerate(tab) if row[-1] < 0]
        if not negative:
            break
        if run >= degenerate_run:
            leave = min(negative, key=lambda r: bas[r])
        else:
            leave = min(negative, key=lambda r: (tab[r][-1], bas[r]))
        entering = [j for j in range(n) if tab[leave][j] < 0]
        if not entering:
            return ReferenceSolution("infeasible")
        enter = min(entering, key=lambda j: (cost_row[j] / -tab[leave][j], j))
        run = run + 1 if cost_row[enter] == 0 else 0
        _pivot(tab, bas, cost_row, leave, enter, path)
    primal = [ZERO] * n
    for row, bj in zip(tab, bas):
        primal[bj] = row[-1]
    objective = sum((c * x for c, x in zip(cost, primal) if x), ZERO)
    return ReferenceSolution("optimal", objective, tuple(primal), tuple(sorted(bas)))


def reference_verify_certificate(lp: LinearProgram, sol: LpSolution) -> bool:
    """True iff x >= 0, Ax = b, y'A <= c' and y'b = c'x = objective."""
    if sol.status != "optimal" or sol.primal is None or sol.dual is None:
        return False
    n, m = lp.column_count, lp.row_count
    x, y = sol.primal, sol.dual
    if len(x) != n or len(y) != m:
        return False
    if any(v < 0 for v in x):
        return False
    for row, b in zip(lp.rows, lp.rhs):
        if sum((coef * x[j] for j, coef in row.items()), ZERO) != b:
            return False
    pulled = [ZERO] * n
    for yi, row in zip(y, lp.rows):
        if yi:
            for j, coef in row.items():
                pulled[j] += yi * coef
    if any(pulled[j] > lp.cost[j] for j in range(n)):
        return False
    primal_obj = sum((c * v for c, v in zip(lp.cost, x)), ZERO)
    dual_obj = sum((yi * b for yi, b in zip(y, lp.rhs)), ZERO)
    return primal_obj == dual_obj == sol.objective
