"""Exact dense linear algebra over the rationals: the one exact row
reduction (a fraction-free echelon) with the rank and nullspace built on it,
and the shared-minor determinant for matrices with entries in a commutative
subring.  Matrices are plain row lists here; the block-model matrices are
``reps.BlockMatrix``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .rings import _int_scaled


class Echelon:
    """Exact reduced row echelon form, built one row at a time and kept
    fraction-free (Bareiss, Math. Comp. 22, 1968).

    Each row is a primitive integer vector whose first nonzero entry is a
    positive entry at its pivot, and it is zero at every other row's pivot.
    So it is the unique positive integer multiple of the reduced row over the
    rationals with the same pivot, and the pivots are those of the reduced
    row echelon form of the rows added.  A vector enters as ints, read as
    they are; ``rank`` and ``nullspace`` scale rational rows to integer
    numerators over the lcm of their denominators first.
    """

    __slots__ = ("rows", "pivots")

    def __init__(self, rows=()):
        self.rows = []
        self.pivots = []
        for row in rows:
            self.add(row)

    def reduce(self, vec) -> list:
        """A positive integer multiple of the residual of vec modulo the rows.

        Rows are zero at each other's pivots, so with L the lcm of the pivot
        entries used, L*v - sum_i (L / r_i[p_i]) * v[p_i] * r_i clears every
        pivot in one pass.
        """
        v = list(vec)
        used = [(row, p) for row, p in zip(self.rows, self.pivots) if v[p]]
        if not used:
            return v
        lcm = math.lcm(*[row[p] for row, p in used])
        res = [lcm * x for x in v]
        for row, p in used:
            f = lcm // row[p] * v[p]
            res = [x - f * y for x, y in zip(res, row)]
        return res

    def add(self, vec) -> bool:
        """Insert the residual of vec if it is nonzero; returns True when the
        rank grew."""
        v = self.reduce(vec)
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        g = math.gcd(*v)
        if v[piv] < 0:
            g = -g
        v = [x // g for x in v]
        vp = v[piv]
        for i, row in enumerate(self.rows):
            f = row[piv]
            if f:
                # the row's own pivot entry becomes vp * row[p] > 0
                row = [vp * x - f * y for x, y in zip(row, v)]
                g = math.gcd(*row)
                self.rows[i] = [x // g for x in row]
        self.rows.append(v)
        self.pivots.append(piv)
        return True

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))


def rank(rows) -> int:
    return len(Echelon(_int_scaled(row)[1] for row in rows).rows)


def nullspace(rows):
    """Basis of the right nullspace of the matrix given as a row list, as read
    off its reduced row echelon form: one vector per free column fc, in
    increasing order, with 1 at fc, 0 at the other free columns and
    -row[fc] / row[pc] at the pivot pc of each echelon row."""
    if not rows:
        return []
    ech = Echelon(_int_scaled(row)[1] for row in rows)
    pivot_rows = dict(zip(ech.pivots, ech.rows))
    ncols = len(rows[0])
    basis = []
    for fc in range(ncols):
        if fc in pivot_rows:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pc, row in pivot_rows.items():
            v[pc] = Fraction(-row[fc], row[pc])
        basis.append(v)
    return basis


def det(entries):
    """Determinant by Laplace expansion along the rows from the bottom up,
    each minor shared by every expansion that reaches its column set: at most
    k * 2^(k-1) ring products against the k! * (k-1) of the permutation one.
    Each term keeps its factors in row order and only the grouping of the sums
    differs, so the result equals the permutation expansion in any associative
    ring (the determinant when the entries commute); with no surviving term it
    is the zero ``entries[0][0] * 0``."""
    k = len(entries)
    if k == 0:
        raise ValueError("empty determinant")
    # minors[cols]: the minor on the rows below the current one and on the
    # sorted column tuple cols; absent when no term of it survives
    minors = {(j,): e for j, e in enumerate(entries[k - 1]) if e}
    for i in range(k - 2, -1, -1):
        row = entries[i]
        level = {}
        for cols in combinations(range(k), k - i):
            acc = None
            for t, j in enumerate(cols):
                rest = minors.get(cols[:t] + cols[t + 1:])
                if rest is None or not row[j]:
                    continue
                term = row[j] * rest
                if acc is None:
                    acc = -term if t % 2 else term
                else:
                    acc = acc - term if t % 2 else acc + term
            if acc is not None:
                level[cols] = acc
        minors = level
    return minors.get(tuple(range(k)), entries[0][0] * 0)
