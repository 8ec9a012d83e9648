"""The revised simplex kernel of ``lp``: the basis inverse alone.

solve_exact imports this module on its first program with at least
``lp._WIDE`` times as many columns as rows, so a process that solves only
narrower programs never compiles it.  The kernel takes the tableau's
pivots and shares the rest of the simplex with it (see ``lp``).
"""
from __future__ import annotations

import itertools
from math import gcd

from .lp import LinearProgram, _eliminate, _form, _solver_seed


class Revised:
    """The basis inverse alone, as M = B^-1 S D^-1, one list per row.

    S is the sign normalization and D holds each row's lcm, so the seed's
    integer rows are D A and B^-1 A = M (D A).  Row i of M is the
    tableau's artificial block up to S D: it starts as s_i e_i over D_i
    and takes the tableau's row update.  ``support[k]`` holds the rows
    where column k of M is nonzero.  The entering column is a sum of M's
    columns, weighted by the cached column form of D A.  The pivot row of
    (B^-1 A | B^-1) is a sum of the seed's rows weighted by the pivot's
    row of M; it is never stored, each cost row takes it entry by entry.
    """

    def __init__(self, lp: LinearProgram, seed, sign: list[int]):
        m = lp.row_count
        self.n = lp.column_count
        self.by_row, self.by_column = _form(lp, "columns", _column_form)
        self.scale = [s * den for s, (den, _, _) in zip(sign, seed)]  # B^-1 = M S D
        self.rows = []
        for i, (den, _, _) in enumerate(seed):
            row = [0] * (m + 1)
            row[i], row[-1] = sign[i], den
            self.rows.append(row)
        self.support = [{k} for k in range(m)]

    def column(self, j: int) -> list[int]:
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
        out = [0] * (self.n + len(self.rows) + 1)
        self._subtract(out, -1, self.rows[i])
        return out

    def pivot(self, leave: int, column: list[int], cost_rows: list[list[int]],
              enter: int) -> None:
        rows, support = self.rows, self.support
        mrow = rows[leave]
        nz = list(itertools.compress(range(len(mrow) - 1), mrow))
        pd = mrow[-1]
        entries = [(k, mrow[k], support[k]) for k in nz]
        for i in itertools.compress(range(len(column)), column):
            row = rows[i]
            if row is mrow:
                continue
            f = column[i]
            if f % pd:  # the row is rescaled: _eliminate, then read its zeros
                _eliminate([(row, f)], mrow, nz)
                for k, _, sup in entries:
                    if row[k]:
                        sup.add(i)
                    else:
                        sup.discard(i)
            else:  # _eliminate's first case, keeping the supports
                t = f // pd
                for k, p, sup in entries:
                    v = row[k]
                    row[k] = w = v - t * p
                    if not w:
                        sup.discard(i)
                    elif not v:
                        sup.add(i)
        # Each cost row becomes (row * s - t * mrow (D A | S D)) / (d * s),
        # as in _eliminate, and is then brought to lowest terms.
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

    def _subtract(self, row: list[int], t: int, mrow: list[int]) -> None:
        """row -= t * mrow (D A | S D) in place; mrow's last entry is unused."""
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


def _column_form(lp: LinearProgram):
    """The seed's integer rows by row and by column, each as the indices of
    its entries 1, the indices of its entries -1, and its other (index,
    entry) pairs."""
    seed = _form(lp, "seed", _solver_seed)[0]
    columns: list[list] = [[] for _ in range(lp.column_count)]
    for k, (_, cols, nums) in enumerate(seed):
        for j, a in zip(cols, nums):
            columns[j].append((k, a))
    return (tuple(_signed(zip(cols, nums)) for _, cols, nums in seed),
            tuple(map(_signed, columns)))


def _signed(pairs) -> tuple[tuple, tuple, tuple]:
    pairs = tuple(pairs)
    return (tuple(i for i, a in pairs if a == 1), tuple(i for i, a in pairs if a == -1),
            tuple((i, a) for i, a in pairs if a != 1 and a != -1))
