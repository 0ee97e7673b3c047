"""Tensor-space cross-checks: the permutation action on tensor powers, partial
trace over trailing factors, the polynomial differential operator whose
coefficients realize the generator images, and evaluation-module transfer
matrices with exact rational-function entries.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product as _itproduct

from .rings import UPoly, poly_divmod, poly_gcd, scalar_root_poly
from .permutations import all_permutations, inverse, sign


def _sparse_add(A: dict, B: dict, zero) -> dict:
    """Sum of two sparse matrices {(row, col): entry}; ``zero`` is the
    entries' additive identity, and zero sums are dropped."""
    out = dict(A)
    for k, v in B.items():
        s = out.get(k, zero) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _sparse_mul(A: dict, B: dict, zero) -> dict:
    """Product of two sparse matrices, as for ``_sparse_add``."""
    rows = {}
    for (r, c), v in B.items():
        rows.setdefault(r, []).append((c, v))
    out = {}
    for (r, k), a in A.items():
        for c, b in rows.get(k, ()):
            key = (r, c)
            s = out.get(key, zero) + a * b
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


class TensorOperator:
    """Sparse exact operator on the n-th tensor power of an N-dimensional
    space; entries indexed by (row, col) flat base-N indices."""

    __slots__ = ("N", "n", "entries")

    def __init__(self, N: int, n: int, entries=None):
        self.N = N
        self.n = n
        self.entries = {}
        if entries:
            for k, v in entries.items():
                if v:
                    self.entries[k] = v

    @property
    def dim(self) -> int:
        return self.N**self.n

    @classmethod
    def identity(cls, N: int, n: int) -> "TensorOperator":
        return cls(N, n, {(i, i): Fraction(1) for i in range(N**n)})

    @classmethod
    def zero(cls, N: int, n: int) -> "TensorOperator":
        return cls(N, n)

    def _check(self, other):
        if self.N != other.N or self.n != other.n:
            raise ValueError("tensor size mismatch")

    def __add__(self, other):
        self._check(other)
        return TensorOperator(self.N, self.n, _sparse_add(self.entries, other.entries, 0))

    def __mul__(self, other):
        if isinstance(other, TensorOperator):
            self._check(other)
            return TensorOperator(
                self.N, self.n, _sparse_mul(self.entries, other.entries, 0)
            )
        return TensorOperator(
            self.N, self.n, {k: v * other for k, v in self.entries.items()}
        )

    def __eq__(self, other):
        if isinstance(other, TensorOperator):
            return (
                self.N == other.N and self.n == other.n and self.entries == other.entries
            )
        return NotImplemented

    def __bool__(self):
        return bool(self.entries)

    def flatten_rows(self) -> list:
        d = self.dim
        return [self.entries.get((r, c), Fraction(0)) for r in range(d) for c in range(d)]


def _flat(N: int, key) -> int:
    idx = 0
    for i in key:
        idx = idx * N + (i - 1)
    return idx


def varpi_perm(p: tuple, N: int) -> TensorOperator:
    """Permutation of tensor factors: factor a of the image carries the factor
    formerly at position p^{-1}(a)."""
    n = len(p)
    pinv = inverse(p)
    entries = {}
    for key in _itproduct(range(1, N + 1), repeat=n):
        img = tuple(key[b - 1] for b in pinv)
        entries[(_flat(N, img), _flat(N, key))] = Fraction(1)
    return TensorOperator(N, n, entries)


def varpi(a, N: int) -> TensorOperator:
    """Image of a group-algebra element (or bare permutation) on the tensor
    power; linear and multiplicative."""
    if isinstance(a, tuple):
        return varpi_perm(a, N)
    acc = TensorOperator.zero(N, a.n)
    for p, c in a.terms.items():
        acc = acc + varpi_perm(p, N) * c
    return acc


def elementary(N: int, n: int, a: int, i: int, j: int) -> TensorOperator:
    """E_{i,j} acting on the a-th tensor factor (1-based everywhere)."""
    entries = {}
    for key in _itproduct(range(1, N + 1), repeat=n):
        if key[a - 1] == j:
            img = key[: a - 1] + (i,) + key[a:]
            entries[(_flat(N, img), _flat(N, key))] = Fraction(1)
    return TensorOperator(N, n, entries)


def partial_trace(X: TensorOperator, m: int) -> TensorOperator:
    """Trace over the last m tensor factors."""
    if m < 0 or m > X.n:
        raise ValueError("bad number of traced factors")
    N, n = X.N, X.n - m
    block = N**m
    out = {}
    for (r, c), v in X.entries.items():
        if r % block != c % block:
            continue
        key = (r // block, c // block)
        s = out.get(key, 0) + v
        if s:
            out[key] = s
        else:
            out.pop(key, None)
    return TensorOperator(N, n, out)


class RationalFunc:
    """Exact rational function in one variable: numerator / denominator over
    the rationals, reduced, with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: UPoly, den: UPoly | None = None, reduce: bool = True):
        if den is None:
            den = UPoly([Fraction(1)])
        if not den.coeffs:
            raise ZeroDivisionError("zero denominator")
        if reduce and num.coeffs:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = poly_divmod(num, g)[0]
                den = poly_divmod(den, g)[0]
        if not num.coeffs:
            den = UPoly([Fraction(1)])
        lead = den.lead()
        if lead != 1:
            inv = Fraction(1) / lead
            num = num * inv
            den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def const(cls, c) -> "RationalFunc":
        return cls(UPoly([Fraction(c)]), UPoly([Fraction(1)]), reduce=False)

    def __bool__(self):
        return bool(self.num.coeffs)

    def __eq__(self, other):
        if isinstance(other, RationalFunc):
            return self.num * other.den == other.num * self.den
        if isinstance(other, (int, Fraction)):
            return self.num == self.den * Fraction(other)
        return NotImplemented

    def __add__(self, other):
        other = other if isinstance(other, RationalFunc) else RationalFunc.const(other)
        return RationalFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __mul__(self, other):
        other = other if isinstance(other, RationalFunc) else RationalFunc.const(other)
        return RationalFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def deriv(self) -> "RationalFunc":
        return RationalFunc(
            self.num.deriv() * self.den - self.num * self.den.deriv(),
            self.den * self.den,
        )

    def shift_arg(self, c) -> "RationalFunc":
        return RationalFunc(self.num.shift_arg(c), self.den.shift_arg(c))

    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def as_polynomial(self) -> UPoly:
        if not self.is_polynomial():
            raise ValueError("not a polynomial")
        return self.num

    def eval_at(self, x):
        return self.num.eval_at(x) / self.den.eval_at(x)

    def __repr__(self):
        return f"RationalFunc({self.num.coeffs}/{self.den.coeffs})"


RF_ZERO = RationalFunc(UPoly())


def _mat_scale(A: dict, c) -> dict:
    return {k: v * c for k, v in A.items() if v * c}


def _mat_deriv(A: dict) -> dict:
    out = {}
    for k, v in A.items():
        d = v.deriv()
        if d:
            out[k] = d
    return out


class DiffOperator:
    """Differential operator with matrix coefficients of rational functions:
    a list per derivation power; composition uses (d/du) f = f (d/du) + f'."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)
        while self.coeffs and not self.coeffs[-1]:
            self.coeffs.pop()

    def __mul__(self, other: "DiffOperator") -> "DiffOperator":
        out = [dict() for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, A in enumerate(self.coeffs):
            if not A:
                continue
            for j, B in enumerate(other.coeffs):
                if not B:
                    continue
                # d^i B = sum_l C(i,l) B^{(i-l)} d^l
                deriv = B
                binom = 1
                for l in range(i, -1, -1):
                    # at this point deriv = B^{(i-l)} and binom = C(i, l)
                    scaled = _mat_scale(deriv, RationalFunc.const(binom))
                    term = _sparse_mul(A, scaled, RF_ZERO)
                    out[l + j] = _sparse_add(out[l + j], term, RF_ZERO)
                    if l > 0:
                        deriv = _mat_deriv(deriv)
                        binom = binom * l // (i - l + 1)
        return DiffOperator(out)

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        k = max(len(self.coeffs), len(other.coeffs))
        out = []
        for i in range(k):
            A = self.coeffs[i] if i < len(self.coeffs) else {}
            B = other.coeffs[i] if i < len(other.coeffs) else {}
            out.append(_sparse_add(A, B, RF_ZERO))
        return DiffOperator(out)

    def __neg__(self):
        return DiffOperator([_mat_scale(A, RationalFunc.const(-1)) for A in self.coeffs])

    def scale(self, rf: RationalFunc) -> "DiffOperator":
        return DiffOperator([_mat_scale(A, rf) for A in self.coeffs])


def gaudin_diffop_coeffs(N: int, n: int, z) -> dict:
    """Coefficient table of the polynomial differential operator: the signed
    sum of first-order operators times the root product.  Polynomiality of
    every entry is checked, not assumed.  Returns (i, j) -> TensorOperator."""
    z = tuple(z)
    if len(set(z)) != n:
        raise ValueError("parameters must be distinct")
    # A[i][j] = sum_a E^(a)_{ij} / (u - z_a), sparse over the tensor space
    pole = {
        a: RationalFunc(UPoly([Fraction(1)]), UPoly([-z[a - 1], Fraction(1)]))
        for a in range(1, n + 1)
    }
    ident = {
        (r, r): RationalFunc.const(1) for r in range(N**n)
    }

    def amat(i, j):
        out = {}
        for a in range(1, n + 1):
            e = elementary(N, n, a, i, j)
            out = _sparse_add(out, {key: pole[a] * RationalFunc.const(v)
                                    for key, v in e.entries.items()}, RF_ZERO)
        return out

    xops = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            order0 = _mat_scale(amat(i, j), RationalFunc.const(-1))
            order1 = ident if i == j else {}
            xops[(i, j)] = DiffOperator([order0, order1])

    total = None
    for sigma in all_permutations(N):
        term = None
        for col in range(1, N + 1):
            op = xops[(sigma[col - 1], col)]
            term = op if term is None else term * op
        if sign(sigma) < 0:
            term = -term
        total = term if total is None else total + term
    total = total.scale(RationalFunc(scalar_root_poly(z)))

    table = {}
    for power, mat in enumerate(total.coeffs):
        i = N - power
        if i < 0 or i > n:
            if any(v for v in mat.values()):
                raise AssertionError("unexpected derivation power")
            continue
        polys = {}
        maxdeg = -1
        for key, v in mat.items():
            if not v.is_polynomial():
                raise AssertionError("operator entry failed the polynomiality check")
            p = v.as_polynomial()
            polys[key] = p
            maxdeg = max(maxdeg, p.degree)
        if maxdeg > n - i:
            raise AssertionError("entry degree exceeds the structured bound")
        for j in range(0, n - i + 1):
            entries = {}
            for key, p in polys.items():
                c = p.coeff(n - i - j)
                if c:
                    entries[key] = Fraction((-1) ** i) * c
            table[(i, j)] = TensorOperator(N, n, entries)
    return table


def yangian_l_matrix(N: int, n: int, a: int, x) -> list:
    """Evaluation building block on the a-th factor: the N x N matrix with
    (i, j) entry delta_ij + E_{ji}/(u - x), as operator-valued rational
    functions."""
    out = []
    pole = RationalFunc(UPoly([Fraction(1)]), UPoly([-x, Fraction(1)]))
    for i in range(1, N + 1):
        row = []
        for j in range(1, N + 1):
            ident = {(r, r): RationalFunc.const(1) for r in range(N**n)} if i == j else {}
            e = elementary(N, n, a, j, i)
            row.append(_sparse_add(ident, {key: pole * RationalFunc.const(v)
                                           for key, v in e.entries.items()}, RF_ZERO))
        out.append(row)
    return out


def yangian_generator_image(N: int, n: int, x) -> list:
    """The full table psi(t_{i,j}(u)) on n evaluation factors: the ordered
    product of the per-factor blocks over the auxiliary index, last factor
    leftmost (fixed by the coproduct)."""
    x = tuple(x)
    acc = yangian_l_matrix(N, n, 1, x[0])
    for a in range(2, n + 1):
        L = yangian_l_matrix(N, n, a, x[a - 1])
        nxt = []
        for i in range(N):
            row = []
            for j in range(N):
                cell = {}
                for k in range(N):
                    term = _sparse_mul(L[i][k], acc[k][j], RF_ZERO)
                    cell = _sparse_add(cell, term, RF_ZERO)
                row.append(cell)
            nxt.append(row)
        acc = nxt
    return acc


def yangian_transfer(N: int, n: int, m: int, x) -> dict:
    """Evaluation image of the m-th transfer series: the antisymmetrized sum
    of shifted generator products; returns a sparse matrix of rational
    functions on the tensor space."""
    if not (1 <= m <= N):
        raise ValueError("need 1 <= m <= N")
    x = tuple(x)
    base = yangian_generator_image(N, n, x)

    def shifted(i, j, s):
        # entry table for t_{i,j}(u - s)
        return {k: v.shift_arg(Fraction(-s)) for k, v in base[i - 1][j - 1].items()}

    total = {}
    for combo in combinations(range(1, N + 1), m):
        for sigma in all_permutations(m):
            term = None
            for a in range(m):
                # a-th factor carries argument u - m + 1 + a
                mat = shifted(combo[sigma[a] - 1], combo[a], m - 1 - a)
                term = mat if term is None else _sparse_mul(term, mat, RF_ZERO)
            if sign(sigma) < 0:
                term = _mat_scale(term, RationalFunc.const(-1))
            total = _sparse_add(total, term, RF_ZERO)
    return total
