"""Representation theory of the symmetric group over exact rationals:
partitions, irreducible characters, central idempotents, content polynomials,
Young's seminormal matrices on standard tableaux, and the faithful block model
of the group algebra as a direct sum of matrix algebras.

A block-model matrix (``BlockMatrix``) holds integer numerators over one
denominator, in the canonical form the group-algebra elements use, so the
permutation images, ``represent`` and the block arithmetic run on Python ints;
only the seminormal generators are Fraction rows.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from operator import mul

from .rings import UPoly, _int_scaled, scalar_root_poly
from .permutations import (
    GroupAlgebraElement,
    _reduced,
    identity,
    inverse,
    typed_permutations,
)

Partition = tuple


def partitions_of(n: int) -> list:
    """All partitions of n in reverse-lexicographic (descending) order."""
    if n < 1:
        raise ValueError("n must be positive")

    out = []

    def rec(remaining, maxpart, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(maxpart, remaining), 0, -1):
            rec(remaining - p, p, prefix + [p])

    rec(n, n, [])
    return out


def partition_parts(la, n: int) -> list:
    """Parts padded with zeros to length n."""
    return list(la) + [0] * (n - len(la))


@lru_cache(maxsize=None)
def _character_beta(la: Partition, mu: Partition) -> Fraction:
    # Murnaghan-Nakayama recursion on beta-sets: removing a border strip of
    # length k is subtracting k from one beta number, keeping them distinct.
    if not mu:
        return Fraction(1)
    m = len(la) if la else 1
    beta = [la[i] + (m - 1 - i) if i < len(la) else (m - 1 - i) for i in range(m)]
    k = mu[0]
    rest = mu[1:]
    total = Fraction(0)
    beta_set = set(beta)
    for i, b in enumerate(beta):
        nb = b - k
        if nb < 0 or nb in beta_set:
            continue
        newbeta = sorted([x for j, x in enumerate(beta) if j != i] + [nb], reverse=True)
        height = sum(1 for x in beta if nb < x < b)
        newla = tuple(
            x - (m - 1 - j) for j, x in enumerate(newbeta) if x - (m - 1 - j) > 0
        )
        total += Fraction((-1) ** height) * _character_beta(newla, rest)
    return total


def character(la, mu) -> Fraction:
    """Irreducible character value of shape la on the class of cycle type mu."""
    la = tuple(la)
    mu = tuple(sorted((m for m in mu if m), reverse=True))
    if sum(la) != sum(mu):
        raise ValueError("partition sizes differ")
    return _character_beta(la, mu)


@lru_cache(maxsize=None)
def standard_tableaux(la: Partition) -> tuple:
    """Standard tableaux of the given shape, in last-letter order: the tableau
    whose largest differing entry sits in the lower row comes first."""
    la = tuple(la)
    n = sum(la)

    results = []

    def rec(filled_rows, next_symbol):
        if next_symbol > n:
            results.append(tuple(tuple(r) for r in filled_rows))
            return
        for i in range(len(la)):
            if len(filled_rows[i]) < la[i] and (
                i == 0 or len(filled_rows[i - 1]) > len(filled_rows[i])
            ):
                filled_rows[i].append(next_symbol)
                rec(filled_rows, next_symbol + 1)
                filled_rows[i].pop()

    rec([[] for _ in la], 1)

    def rowseq(t):
        pos = {}
        for i, row in enumerate(t):
            for x in row:
                pos[x] = i
        return tuple(pos[k] for k in range(n, 0, -1))

    results.sort(key=rowseq, reverse=True)
    return tuple(results)


def tableau_positions(t) -> dict:
    """symbol -> (row, col), 1-based."""
    pos = {}
    for i, row in enumerate(t):
        for j, x in enumerate(row):
            pos[x] = (i + 1, j + 1)
    return pos


def tableau_content(t, k: int) -> int:
    i, j = tableau_positions(t)[k]
    return j - i


def dimension(la) -> int:
    return len(standard_tableaux(tuple(la)))


class IrrepAction:
    """Exact seminormal matrices of the adjacent transpositions on the
    standard-tableau basis, as Fraction rows (``gens``).  Matrices act on
    coordinate columns.  The image of an arbitrary permutation is one sparse
    generator step from the cached image of a neighbour with one inversion
    fewer, and is cached as integer numerators over one denominator."""

    def __init__(self, la):
        self.shape = tuple(la)
        self.n = sum(self.shape)
        self.tableaux = standard_tableaux(self.shape)
        self.dim = len(self.tableaux)
        self._index = {t: i for i, t in enumerate(self.tableaux)}
        self.gens = [self._gen_matrix(i) for i in range(1, self.n)]
        # generator -> (e, per row the (column, numerator) of its nonzeros in
        # e * matrix); each row has at most two
        k = self.dim
        self._steps = [(e, [[(c, x) for c, x in enumerate(nums[r * k:(r + 1) * k]) if x]
                            for r in range(k)])
                       for e, nums in (_int_scaled(chain(*g)) for g in self.gens)]
        # permutation -> (d, row-major numerators of d * matrix), d the lcm of
        # the entries' denominators
        self._perm_cache = {identity(self.n):
                            (1, [int(i == j) for i in range(k) for j in range(k)])}

    def _gen_matrix(self, i: int) -> list:
        d = self.dim
        rows = [[Fraction(0)] * d for _ in range(d)]
        done = set()
        for t_idx, t in enumerate(self.tableaux):
            if t_idx in done:
                continue
            pos = tableau_positions(t)
            (r1, c1), (r2, c2) = pos[i], pos[i + 1]
            if r1 == r2:
                rows[t_idx][t_idx] = Fraction(1)
                done.add(t_idx)
                continue
            if c1 == c2:
                rows[t_idx][t_idx] = Fraction(-1)
                done.add(t_idx)
                continue
            swapped = self._swap_symbols(t, i)
            s_idx = self._index[swapped]
            first, second = (t_idx, s_idx) if t_idx < s_idx else (s_idx, t_idx)
            tearly = self.tableaux[first]
            d_ax = Fraction(
                tableau_content(tearly, i + 1) - tableau_content(tearly, i)
            )
            rows[first][first] = 1 / d_ax
            rows[first][second] = 1 - 1 / d_ax**2
            rows[second][first] = Fraction(1)
            rows[second][second] = -1 / d_ax
            done.add(first)
            done.add(second)
        return rows

    @staticmethod
    def _swap_symbols(t, i):
        return tuple(
            tuple(i + 1 if x == i else (i if x == i + 1 else x) for x in row)
            for row in t
        )

    def _numerators(self, p: tuple) -> tuple:
        cached = self._perm_cache.get(p)
        if cached is not None:
            return cached
        # left-multiplying by s_i swaps the VALUES i, i+1 in one-line
        # notation; where i+1 comes before i, q = s_i p has one inversion
        # fewer and p = s_i q, so rho(p) = rho(s_i) rho(q)
        pos = inverse(p)
        i = next(i for i in range(1, self.n) if pos[i] < pos[i - 1])
        q = list(p)
        q[pos[i - 1] - 1], q[pos[i] - 1] = i + 1, i
        dq, nums = self._numerators(tuple(q))
        e, rows = self._steps[i - 1]
        k = self.dim
        # each output row combines the one or two source rows of its nonzeros
        out = []
        for (c, x), *rest in rows:
            src = nums[c * k:(c + 1) * k]
            if rest:
                (c2, y), = rest
                out += [x * a + y * b for a, b in zip(src, nums[c2 * k:(c2 + 1) * k])]
            else:
                out += [x * a for a in src]
        d = dq * e
        g = math.gcd(d, *out)
        cached = self._perm_cache[p] = (d // g, [x // g for x in out])
        return cached

    def matrix_of_ga(self, a: GroupAlgebraElement) -> tuple:
        """Image of a (int or Fraction coefficients) as (d, row-major
        numerators of d * matrix): the sum of c * M_p accumulated on integer
        numerators, not reduced."""
        if a.n != self.n:
            raise ValueError(f"degree mismatch: {a.n} vs {self.n}")
        k = self.dim
        dc, coeffs = a.numerators()
        mats = [self._numerators(p) for p in coeffs]
        d = math.lcm(*(dp for dp, _ in mats))
        acc = [0] * (k * k)
        for c, (dp, nums) in zip(coeffs.values(), mats):
            f = c * (d // dp)
            acc = [x + f * y for x, y in zip(acc, nums)]
        return d * dc, acc


@lru_cache(maxsize=None)
def seminormal_rep(la: Partition) -> IrrepAction:
    return IrrepAction(tuple(la))


@lru_cache(maxsize=None)
def block_shapes(n: int) -> tuple:
    """(partition, block size) of each block of the block model of S_n, in
    ``partitions_of`` order; built once per n and shared."""
    return tuple((la, dimension(la)) for la in partitions_of(n))


class BlockMatrix:
    """One exact matrix per partition of n, in reverse-lexicographic order:
    the image of a group-algebra element in the direct sum of all irreducible
    matrix blocks.

    It holds one denominator d > 0 and, per block, the row-major integer
    numerators of d times the block.  The constructor divides d and the
    numerators by their gcd, so the form is canonical: equal matrices have
    equal forms, and the zero matrix has d = 1.  A sum merges the numerators
    over lcm(da, db), a product is one integer product per block over
    da * db, and an int or Fraction scalar c = cn / cd multiplies the
    numerators by cn and d by cd; any other scalar raises TypeError."""

    __slots__ = ("n", "d", "blocks")

    def __init__(self, n: int, d: int, blocks):
        blocks = list(blocks)
        if [len(b) for b in blocks] != [k * k for _, k in block_shapes(n)]:
            raise ValueError("one square block per partition of n required")
        if d < 1:
            raise ValueError("the denominator must be positive")
        if d > 1:
            g = math.gcd(d, *chain(*blocks))
            if g > 1:
                d //= g
                blocks = [[x // g for x in b] for b in blocks]
        self.n, self.d, self.blocks = n, d, blocks

    @classmethod
    def identity(cls, n: int) -> "BlockMatrix":
        return cls(n, 1, [[int(i == j) for i in range(k) for j in range(k)]
                          for _, k in block_shapes(n)])

    def _check(self, other):
        if other.n != self.n:
            raise ValueError(f"degree mismatch: {self.n} vs {other.n}")

    def __add__(self, other):
        self._check(other)
        da, db = self.d, other.d
        d = math.lcm(da, db)
        fa, fb = d // da, d // db
        return BlockMatrix(self.n, d, [[x * fa + y * fb for x, y in zip(a, b)]
                                       for a, b in zip(self.blocks, other.blocks)])

    def __mul__(self, other):
        if isinstance(other, BlockMatrix):
            self._check(other)
            out = []
            for (_, k), a, b in zip(block_shapes(self.n), self.blocks, other.blocks):
                cols = [b[j::k] for j in range(k)]
                out.append([sum(map(mul, a[i:i + k], col))
                            for i in range(0, k * k, k) for col in cols])
            return BlockMatrix(self.n, self.d * other.d, out)
        if type(other) is not int and type(other) is not Fraction:
            raise TypeError("block matrices scale by an int or a Fraction, got "
                            + type(other).__name__)
        c = other.numerator
        return BlockMatrix(self.n, self.d * other.denominator,
                           [[x * c for x in b] for b in self.blocks])

    def __eq__(self, other):
        if isinstance(other, BlockMatrix):
            return self.n == other.n and self.d == other.d and self.blocks == other.blocks
        return NotImplemented

    def __bool__(self):
        return any(map(any, self.blocks))


def represent(a: GroupAlgebraElement) -> BlockMatrix:
    """Image of a group-algebra element in the full block model: each block's
    numerators from ``IrrepAction.matrix_of_ga``, merged over the lcm of
    their denominators."""
    mats = [seminormal_rep(la).matrix_of_ga(a) for la, _ in block_shapes(a.n)]
    d = math.lcm(*(e for e, _ in mats))
    return BlockMatrix(a.n, d, [nums if e == d else [x * (d // e) for x in nums]
                                for e, nums in mats])


def central_idempotent(la, n: int) -> GroupAlgebraElement:
    """chi_la = (dim/n!) sum over sigma of character(la, type(sigma)) * sigma;
    built once per (la, n) and shared, so callers must not mutate it."""
    return _central_idempotent(tuple(la), n)


@lru_cache(maxsize=None)
def _central_idempotent(la: Partition, n: int) -> GroupAlgebraElement:
    """``central_idempotent`` as the numerators dim * character over n!."""
    if sum(la) != n:
        raise ValueError("partition size mismatch")
    dim = dimension(la)
    weights = {mu: dim * character(la, mu).numerator for mu in partitions_of(n)}
    return _reduced(n, math.factorial(n),
                    {p: weights[mu] for p, mu in typed_permutations(n) if weights[mu]})


def content_poly(la, n: int) -> UPoly:
    """Monic polynomial in v whose roots are the box contents of the diagram:
    the product of (v + i - j) over boxes (i, j)."""
    la = tuple(la)
    if sum(la) != n:
        raise ValueError("partition size mismatch")
    return scalar_root_poly([Fraction(j - i) for i, part in enumerate(la, start=1)
                             for j in range(1, part + 1)])


@lru_cache(maxsize=None)
def content_product_all(n: int) -> UPoly:
    """Sum over partitions of chi_la times the content polynomial, as a
    polynomial in v with group-algebra coefficients; built once per n and
    shared, so callers must not mutate it."""
    acc = UPoly()
    for la in partitions_of(n):
        chi = central_idempotent(la, n)
        acc = acc + content_poly(la, n).map_coeffs(lambda c, chi=chi: c * chi)
    return acc


def sum_of_dims(n: int) -> int:
    return sum(k for _, k in block_shapes(n))
