"""Exact dense linear algebra over the rationals: matrices, row reduction,
nullspaces, characteristic polynomials, and the permutation-expansion
determinant for matrices with entries in a commutative subring.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations as _itperms
from operator import mul

from .rings import UPoly, _int_scaled
from .permutations import _inversion_sign


class Matrix:
    """Dense matrix of exact rationals (int or Fraction entries).

    The matrix product scales both factors to integer numerators over their
    lcm denominators and returns Fraction entries; any other entry type
    raises TypeError there.  Sums and scalar multiples keep whatever the
    entries are.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]

    @classmethod
    def zeros(cls, r: int, c: int) -> "Matrix":
        return cls([[Fraction(0)] * c for _ in range(r)])

    @classmethod
    def identity(cls, d: int) -> "Matrix":
        return cls(
            [[Fraction(1) if i == j else Fraction(0) for j in range(d)] for i in range(d)]
        )

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __eq__(self, other):
        if isinstance(other, Matrix):
            if self.shape != other.shape:
                return False
            return all(
                a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
            )
        return NotImplemented

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def __add__(self, other):
        return Matrix(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __sub__(self, other):
        return Matrix(
            [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)]
        )

    def __neg__(self):
        return Matrix([[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            r, k = self.shape
            k2, c = other.shape
            if k != k2:
                raise ValueError("shape mismatch")
            # exact: integer numerators over each factor's lcm denominator
            da, a = _int_scaled(self.flatten())
            db, b = _int_scaled(other.flatten())
            d = da * db
            arows = [a[i * k:(i + 1) * k] for i in range(r)]
            bcols = [b[j::c] for j in range(c)]
            return Matrix(
                [[Fraction(sum(map(mul, row, col)), d) for col in bcols] for row in arows]
            )
        return Matrix([[a * other for a in r] for r in self.rows])

    def __rmul__(self, other):
        return Matrix([[other * a for a in r] for r in self.rows])

    def trace(self):
        acc = self.rows[0][0]
        for i in range(1, len(self.rows)):
            acc = acc + self.rows[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(not a for r in self.rows for a in r)

    def __bool__(self):
        return not self.is_zero()

    def flatten(self) -> list:
        return [a for r in self.rows for a in r]

    def apply_vec(self, v: list) -> list:
        return [sum((a * x for a, x in zip(r, v)), Fraction(0)) for r in self.rows]

    def to_json(self):
        return [
            [f"{a.numerator}/{a.denominator}" if isinstance(a, Fraction) else a for a in r]
            for r in self.rows
        ]

    def __repr__(self):
        return f"Matrix({self.rows!r})"


def rref(rows):
    """Reduced row echelon form over the rationals; returns (rows, pivot cols).

    The input is a list of coefficient lists and is not modified.
    """
    m = [list(r) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(m)):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Fraction(1) / m[r][c] if isinstance(m[r][c], Fraction) else 1.0 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows) -> int:
    return len(rref(rows)[0])


def nullspace(rows):
    """Basis of the right nullspace of the matrix given as a row list."""
    if not rows:
        return []
    red, pivots = rref(rows)
    ncols = len(rows[0])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def charpoly(mat: Matrix) -> UPoly:
    """Characteristic polynomial det(xI - M), exact over the rationals
    (Faddeev-LeVerrier)."""
    d = mat.shape[0]
    if d != mat.shape[1]:
        raise ValueError("charpoly of a non-square matrix")
    coeffs = [Fraction(1)]  # of x^d, then x^{d-1}, ...
    M = mat
    c = M.trace()
    coeffs.append(-c)
    Mk = M
    for k in range(2, d + 1):
        Mk = mat * (Mk - c * Matrix.identity(d))
        c = Mk.trace() / k
        coeffs.append(-c)
    return UPoly(list(reversed(coeffs)))


def det_perm_expansion(entries):
    """Determinant of a square matrix via the full permutation expansion.

    The entries must pairwise commute (the caller is responsible for checking
    that precondition; it is what makes the expansion well-defined).  Works for
    entries in any ring with +, *, unary -.  When every term vanishes the
    result is the zero of the entries' ring, ``entries[0][0] * 0``.
    """
    k = len(entries)
    if k == 0:
        raise ValueError("empty determinant")
    acc = None
    for perm in _itperms(range(k)):
        term = None
        skip = False
        for i in range(k):
            e = entries[i][perm[i]]
            if not e:
                skip = True
                break
            term = e if term is None else term * e
        if skip:
            continue
        if _inversion_sign(perm) < 0:
            term = -term
        acc = term if acc is None else acc + term
    if acc is None:
        return entries[0][0] * 0
    return acc
