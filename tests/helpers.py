"""Shared test helpers."""

import math
from fractions import Fraction
from itertools import combinations

from snbethe.permutations import (
    GroupAlgebraElement, all_permutations, antisymmetrizer, embed, ga_lift, sign,
)
from snbethe.reps import BlockMatrix, block_shapes
from snbethe.rings import MultiPoly, UPoly, _int_scaled, poly_divmod
from snbethe.spectra import annihilate
from snbethe.xxx import s_k_poly


def distinct_rationals(rng, k: int, spread: int = 40) -> list:
    """k pairwise distinct rationals with all pairwise differences != 1,
    drawn from the ``SeededRandom`` rng."""
    out = []
    while len(out) < k:
        q = Fraction(rng.integer(-spread, spread), rng.integer(1, 3))
        if all(q != z and abs(q - z) != 1 for z in out):
            out.append(q)
    return out


def s1_coeff_elements(params) -> list:
    """The normalized coefficients of the first-order polynomial: strips the
    powers of hbar so that the k-th entry is the sum of increasing
    (k+1)-cycles at z = 0."""
    n, hbar = params.n, params.hbar
    s1 = s_k_poly(params, 1)
    out = []
    for i in range(1, n):
        out.append(s1.coeff(n - i - 1) * (Fraction(1) / hbar ** (i + 1)))
    return out


def bivariate(rows):
    """The polynomial with coefficient rows[i][j] at u^i v^j: a UPoly in u
    whose every coefficient is a UPoly in v."""
    return UPoly([UPoly(r) for r in rows])


def series_mul_oracle(a, b, order):
    """The product of the coefficient lists a and b up to u^order, as a list
    of order + 1 coefficients (0 where no pair lands): the list-based series
    product, kept as the oracle of ``UPoly.mul_trunc``."""
    out = [0] * (order + 1)
    for i, x in enumerate(a[:order + 1]):
        for j, y in enumerate(b[:order + 1 - i]):
            if x and y:
                out[i + j] = out[i + j] + x * y
    return out


def poly_gcd(f, g):
    """Monic gcd of two UPolys over a field (Fraction coefficients): the
    oracle of ``spectra._coprime_to_derivative``."""
    a, b = f, g
    while b.coeffs:
        a, b = b, poly_divmod(a, b)[1]
    if a.coeffs:
        a = a * (Fraction(1) / a.lead())
    return a


def multi_variable(nvars, i, c=Fraction(1)):
    """The MultiPoly c*x_i in nvars variables."""
    e = [0] * nvars
    e[i] = 1
    return MultiPoly(nvars, {tuple(e): c})


def scalar_root_poly_oracle(roots):
    """prod (u - r) over the roots as the polynomial product forms it, one
    ``UPoly`` product per factor: the oracle of ``scalar_root_poly``'s
    coefficient recurrence, coefficient types included."""
    poly = UPoly([Fraction(1)])
    for r in roots:
        poly = poly * UPoly([-r, Fraction(1)])
    return poly


def phi_polys_oracle(n: int, z):
    """``gaudin.phi_polys`` with the per-subset loop: i! times the
    antisymmetrizer embedded afresh on each i-subset r, times the complement
    root product formed afresh for each r."""
    z = tuple(z)
    polys = []
    for i in range(1, n + 1):
        signed = antisymmetrizer(i) * Fraction(math.factorial(i))
        subsets = [
            (scalar_root_poly_oracle([z[a - 1] for a in range(1, n + 1) if a not in r]),
             embed(signed, r, n))
            for r in combinations(range(1, n + 1), i)
        ]
        polys.append(UPoly([GroupAlgebraElement.dot([(rest.coeff(k), ga) for rest, ga in subsets])
                            for k in range(n - i + 1)]))
    table = {(i, j): ga_lift(n, poly.coeff(n - i - j))
             for i, poly in enumerate(polys, start=1) for j in range(n - i + 1)}
    return polys, table


def phi_gen_fixed_points_oracle(n: int, z):
    """``gaudin.phi_gen_fixed_points`` with the per-permutation loop: the
    product over each permutation's fixed points formed afresh, each term
    written as a Fraction."""
    z = tuple(z)
    slots = [[{} for _ in range(n + 1)] for _ in range(n + 1)]
    for p in all_permutations(n):
        factor = UPoly([UPoly([Fraction(1)])])
        for b in range(1, n + 1):
            if p[b - 1] == b:
                factor = factor * UPoly([UPoly([Fraction(1), z[b - 1]]),
                                         UPoly([0, Fraction(-1)])])
        signed = Fraction((-1) ** n * sign(p))
        for i, row in enumerate(factor.coeffs):
            for j, c in enumerate(row.coeffs):
                if c:
                    slots[i][j][p] = signed * c
    return UPoly([UPoly([GroupAlgebraElement(n, terms) for terms in row]) for row in slots])


def coeff_uv(p, i: int, j: int):
    """The coefficient of u^i v^j of a polynomial in u over polynomials in v,
    0 beyond either degree."""
    return p.coeff(i).coeff(j) if 0 <= i <= p.degree else 0


def v_coeff(p, j: int):
    """The coefficient of v^j of a polynomial in u over polynomials in v, as
    a polynomial in u."""
    return UPoly([c.coeff(j) for c in p.coeffs])


def lift_u(p):
    """A polynomial in u read as one in u over polynomials in v."""
    return p.map_coeffs(lambda c: UPoly([c]))


def _v_degree(F) -> int:
    return max((c.degree for c in F.coeffs), default=-1)


def annihilator_oracle(F, p, hbar, variant):
    """The image of p under the operator of F's v-expansion, n the v-degree
    of F, as the annihilator loop formed it: the sum over k of the v^k
    coefficient times p differentiated k times ("differential") or
    p(u - hbar*(n - k)) ("discrete")."""
    n = _v_degree(F)
    acc = UPoly()
    for k in range(n + 1):
        if variant == "differential":
            tap = p
            for _ in range(k):
                tap = tap.deriv()
        else:
            tap = p.shift_arg(-hbar * (n - k))
        acc = acc + v_coeff(F, k) * tap
    return acc


def annihilator_residual(F, p, hbar=Fraction(1), variant="discrete"):
    """Largest coefficient of ``spectra.annihilate(F, p, hbar, variant)``;
    zero exactly when p lies in the subspace F was built from."""
    return max((abs(c) for c in annihilate(F, p, hbar, variant).coeffs),
               default=Fraction(0))


def kernel_column_oracle(F, d: int, hbar, variant):
    """The image of u^d under the operator of F's v-expansion, expanded by
    hand as the kernel matrix of the reconstruction was: the binomial
    expansion of (u - hbar*(n - k))^d ("discrete") or the falling factorial
    d!/(d - k)! times u^(d - k) ("differential"), times the v^k coefficient,
    n the v-degree of F."""
    n = _v_degree(F)
    col = {}
    for k in range(n + 1):
        fk = v_coeff(F, k).coeffs
        if variant == "discrete":
            s = hbar * (n - k)
            terms = [(t, math.comb(d, t) * (-s) ** (d - t)) for t in range(d + 1)]
        else:
            terms = [(d - k, math.perm(d, k))] if d >= k else []
        for t, c in terms:
            for e, fc in enumerate(fk):
                col[e + t] = col.get(e + t, 0) + fc * c
    return UPoly([col.get(i, 0) for i in range(max(col, default=-1) + 1)])


# Fraction-rows oracle of the block model: a block matrix read as one list of
# Fraction rows per block, and the arithmetic written on those rows.

def block_rows(bm):
    """The blocks of a BlockMatrix as lists of Fraction rows."""
    out = []
    for (_, k), b in zip(block_shapes(bm.n), bm.blocks):
        out.append([[Fraction(x, bm.d) for x in b[i:i + k]] for i in range(0, k * k, k)])
    return out


def block_entries(bm):
    """The entries of a BlockMatrix, block after block, row-major."""
    return [x for rows in block_rows(bm) for row in rows for x in row]


def from_entries(n, entries):
    """The BlockMatrix of S_n with the given flat int or Fraction entries,
    block after block, row-major (the inverse of ``block_entries``)."""
    d, nums = _int_scaled(entries)
    blocks, at = [], 0
    for _, k in block_shapes(n):
        blocks.append(nums[at:at + k * k])
        at += k * k
    return BlockMatrix(n, d, blocks)


def identity_rows(k):
    return [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]


def matmul(a, b):
    """Product of two matrices given as rows, one multiply-add per nonzero
    entry pair."""
    if len(a[0]) != len(b):
        raise ValueError("shape mismatch")
    return [[sum((x * y for x, y in zip(row, col) if x and y), Fraction(0))
             for col in zip(*b)] for row in a]


def oracle_mul(a, b):
    return [matmul(x, y) for x, y in zip(a, b)]


def oracle_add(a, b):
    return [[[x + y for x, y in zip(ra, rb)] for ra, rb in zip(x, y)] for x, y in zip(a, b)]


def oracle_scale(a, c):
    return [[[x * c for x in row] for row in rows] for rows in a]
