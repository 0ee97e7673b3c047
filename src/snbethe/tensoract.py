"""Tensor-space cross-checks: the permutation action on tensor powers, partial
trace over trailing factors, the polynomial differential operator whose
coefficients realize the generator images, and evaluation-module transfer
matrices.

Every operator is a ``TensorOperator`` over Q or over Q[u] (``UPoly``
entries).  A rational function of u appears only as a polynomial numerator
over a denominator known in advance: a power of the root product
D = prod_a (u - z_a) in the differential operator, and a product of shifted
root products for a transfer matrix.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product as _itproduct

from .rings import UPoly, poly_divmod, scalar_root_poly
from .permutations import all_permutations, inverse, sign


class TensorOperator:
    """Sparse exact operator on the n-th tensor power of an N-dimensional
    space; entries indexed by (row, col) flat base-N indices, each a
    rational or a polynomial in u.  The constructor drops zero entries, so
    sums and products drop what cancels."""

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
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, 0) + v
        return TensorOperator(self.N, self.n, out)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        """Operator product, or every entry times a scalar or polynomial."""
        if not isinstance(other, TensorOperator):
            return self.map_entries(lambda v: v * other)
        self._check(other)
        rows = {}
        for (r, c), v in other.entries.items():
            rows.setdefault(r, []).append((c, v))
        out = {}
        for (r, k), a in self.entries.items():
            for c, b in rows.get(k, ()):
                out[(r, c)] = out.get((r, c), 0) + a * b
        return TensorOperator(self.N, self.n, out)

    def map_entries(self, f) -> "TensorOperator":
        """f applied to every entry, zero results dropped."""
        return TensorOperator(self.N, self.n, {k: f(v) for k, v in self.entries.items()})

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
        out[key] = out.get(key, 0) + v
    return TensorOperator(N, n, out)


def gaudin_diffop_coeffs(N: int, n: int, z) -> dict:
    """Coefficient table of the polynomial differential operator
    D cdet(delta_ij d/du - A_ij), with D = prod_a (u - z_a) and
    A_ij = sum_a E^(a)_ij / (u - z_a) = R_ij / D, R_ij polynomial.
    Polynomiality of every entry is checked, not assumed.  Returns
    (i, j) -> TensorOperator."""
    z = tuple(z)
    if len(set(z)) != n:
        raise ValueError("parameters must be distinct")
    D = scalar_root_poly(z)
    dD = D.deriv()
    R = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            R[(i, j)] = TensorOperator.zero(N, n)
            for a in range(1, n + 1):
                R[(i, j)] += elementary(N, n, a, i, j) * scalar_root_poly(z[:a - 1] + z[a:])

    # Left-multiplying sum_l (p_l / D^k) d^l by delta d/du - R/D gives
    # sum_l (q_l / D^(k+1)) d^l, q_l = delta (p_l' D - k p_l D' + p_(l-1) D) - R p_l,
    # so each signed column product is numerators p_l over D^N.
    ident = TensorOperator.identity(N, n) * UPoly([Fraction(1)])
    total = [TensorOperator.zero(N, n)] * (N + 1)
    for sigma in all_permutations(N):
        ps = [ident]
        for k, col in enumerate(range(N, 0, -1)):
            row = sigma[col - 1]
            qs = [R[(row, col)] * p * -1 for p in ps] + [TensorOperator.zero(N, n)]
            if row == col:
                for l, p in enumerate(ps):
                    qs[l] += p.map_entries(UPoly.deriv) * D - p * (dD * k)
                    qs[l + 1] += p * D
            ps = qs
        total = [t + p * sign(sigma) for t, p in zip(total, ps)]

    # D times the operator: numerators over D^(N-1), which must divide them
    Dpow = D ** (N - 1)
    table = {}
    for power, mat in enumerate(total):
        i = N - power
        if i < 0 or i > n:
            if mat:
                raise AssertionError("unexpected derivation power")
            continue
        polys = {}
        for key, v in mat.entries.items():
            q, r = poly_divmod(v, Dpow)
            if r:
                raise AssertionError("operator entry failed the polynomiality check")
            polys[key] = q
        if max((p.degree for p in polys.values()), default=-1) > n - i:
            raise AssertionError("entry degree exceeds the structured bound")
        for j in range(0, n - i + 1):
            table[(i, j)] = TensorOperator(
                N, n, {key: (-1) ** i * p.coeff(n - i - j) for key, p in polys.items()})
    return table


def yangian_generator_image(N: int, n: int, x) -> list:
    """Numerators of the table psi(t_{i,j}(u)) on n evaluation factors, over
    prod_a (u - x_a): the ordered product over the auxiliary index of the
    per-factor blocks (u - x_a) delta_ij + E^(a)_{ji}, last factor leftmost
    (fixed by the coproduct)."""
    x = tuple(x)
    one = UPoly([Fraction(1)])
    acc = None
    for a in range(1, n + 1):
        lin = TensorOperator.identity(N, n) * UPoly([-x[a - 1], Fraction(1)])
        L = [[elementary(N, n, a, j, i) * one for j in range(1, N + 1)]
             for i in range(1, N + 1)]
        for i in range(N):
            L[i][i] += lin
        if acc is not None:
            L = [[sum((L[i][k] * acc[k][j] for k in range(1, N)), L[i][0] * acc[0][j])
                  for j in range(N)] for i in range(N)]
        acc = L
    return acc


def yangian_transfer(N: int, n: int, m: int, x) -> tuple:
    """Evaluation image of the m-th transfer series as (P, Q): the operator P
    with entries in Q[u], the antisymmetrized sum of shifted generator
    numerator products, over the scalar Q = prod_{s<m} prod_a (u - s - x_a)."""
    if not (1 <= m <= N):
        raise ValueError("need 1 <= m <= N")
    x = tuple(x)
    base = yangian_generator_image(N, n, x)

    def shifted(i, j, s):
        # numerator of t_{i,j}(u - s)
        return base[i - 1][j - 1].map_entries(lambda v: v.shift_arg(Fraction(-s)))

    P = TensorOperator.zero(N, n)
    for combo in combinations(range(1, N + 1), m):
        for sigma in all_permutations(m):
            term = None
            for a in range(m):
                # a-th factor carries argument u - m + 1 + a
                mat = shifted(combo[sigma[a] - 1], combo[a], m - 1 - a)
                term = mat if term is None else term * mat
            P += term * sign(sigma)
    return P, scalar_root_poly([xa + s for s in range(m) for xa in x])


def transfer_at(transfer: tuple, u0) -> TensorOperator:
    """The value P(u0) / Q(u0) of a ``yangian_transfer`` (P, Q); a zero of Q
    raises ZeroDivisionError."""
    P, Q = transfer
    return P.map_entries(lambda v: v.eval_at(u0)) * (Fraction(1) / Q.eval_at(u0))
