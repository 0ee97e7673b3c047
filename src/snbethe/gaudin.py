"""Gaudin-type commuting families in the symmetric group algebra: the
generator polynomials and their bivariate generating function, the rational
commuting elements built from pairwise-distinct parameters, Jucys-Murphy and
related spanning sets, the determinant presentations over one builder of
det((u - Z)(v - Q) - R) and one signed v-expansion (both shared with ``xxx``
and ``homogeneous``), and the residual readers of the two scalar relation
families, each reading one determinant built once per family.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .rings import UPoly, poly_divmod, scalar_root_poly
from .linalg import det
from .permutations import (
    GroupAlgebraElement,
    _reduced,
    antisymmetrizer,
    class_sum,
    commutators,
    embed,
    ga_lift,
    ga_transposition,
    typed_permutations,
)
from .reps import content_poly, content_product_all, partition_parts, partitions_of

V = UPoly([UPoly([0, Fraction(1)])])  # the variable v, in u over v


class ParameterSet(namedtuple("ParameterSet", "z")):
    """Parameter tuple z_1..z_n with a distinctness flag."""

    __slots__ = ()

    @property
    def distinct(self) -> bool:
        return len(set(self.z)) == len(self.z)

    @property
    def at_most_pairs(self) -> bool:
        """No value occurs three or more times."""
        return all(self.z.count(x) < 3 for x in set(self.z))


@lru_cache(maxsize=None)
def embedded_antisymmetrizers(n: int, i: int) -> tuple:
    """(r, i! times the antisymmetrizer of S_i embedded on the symbols r) for
    each i-subset r of 1..n, in ``combinations`` order: the z-free factors of
    ``phi_polys``, built once per (n, i) and shared, so callers must not
    mutate them."""
    signed = antisymmetrizer(i) * Fraction(math.factorial(i))
    return tuple((r, embed(signed, r, n)) for r in combinations(range(1, n + 1), i))


def complement_root_polys(n: int, z) -> dict:
    """rest -> prod over a in rest of (u - z_a), in a order, for every
    increasing tuple rest of fewer than n symbols of 1..n (the complement of
    a nonempty subset).  Each is formed once, by one linear factor from the
    product over rest without its last symbol, the complement of the next
    larger subset."""
    z = tuple(z)
    prods = {(): scalar_root_poly(())}
    for size in range(1, n):
        for rest in combinations(range(1, n + 1), size):
            prods[rest] = scalar_root_poly([z[rest[-1] - 1]], prods[rest[:-1]])
    return prods


def phi_polys(n: int, z):
    """The generator polynomials and their coefficient table.

    Returns (polys, table): polys[i-1] is the degree n-i polynomial for
    i = 1..n, i! times the sum over i-subsets r of the antisymmetrizer
    embedded on r times the root product over the complement of r, each
    coefficient one sum of products over the subsets; table[(i, j)] is the
    coefficient of u^(n-i-j), as a group-algebra element.
    """
    rests = complement_root_polys(n, z)
    polys = []
    for i in range(1, n + 1):
        subsets = [(rests[tuple(a for a in range(1, n + 1) if a not in r)], ga)
                   for r, ga in embedded_antisymmetrizers(n, i)]
        polys.append(UPoly([GroupAlgebraElement.dot([(rest.coeff(k), ga) for rest, ga in subsets])
                            for k in range(n - i + 1)]))
    table = {}
    for i, poly in enumerate(polys, start=1):
        for j in range(0, n - i + 1):
            table[(i, j)] = ga_lift(n, poly.coeff(n - i - j))
    return polys, table


def phi_gen_fixed_points(n: int, z) -> UPoly:
    """Fixed-point expansion of the generating function: (-1)^n times the sum
    over permutations of sign * sigma * prod over fixed points of
    (1 - v(u - z_b)).  The product is formed once per fixed-point set, by one
    factor from the set without its largest point, and each coefficient is
    written as integer numerators over one denominator."""
    z = tuple(z)
    products = {(): UPoly([UPoly([Fraction(1)])])}

    def product(fixed: tuple) -> UPoly:
        got = products.get(fixed)
        if got is None:
            # times 1 - v*(u - z_b) for the largest fixed point b
            got = products[fixed] = product(fixed[:-1]) * UPoly(
                [UPoly([Fraction(1), z[fixed[-1] - 1]]), UPoly([0, Fraction(-1)])])
        return got

    # (-1)^n sign(p) is (-1) to the number of cycles, fixed points included
    rows = [(p, tuple(b for b, x in enumerate(p, 1) if x == b), (-1) ** len(mu))
            for p, mu in typed_permutations(n)]
    coeffs = {fixed: [(i, j, c) for i, row in enumerate(product(fixed).coeffs)
                      for j, c in enumerate(row.coeffs) if c]
              for _, fixed, _ in rows}
    dens = [[1] * (n + 1) for _ in range(n + 1)]
    for entries in coeffs.values():
        for i, j, c in entries:
            dens[i][j] = math.lcm(dens[i][j], c.denominator)
    slots = [[{} for _ in range(n + 1)] for _ in range(n + 1)]
    scaled = {fixed: [(slots[i][j], c.numerator * (dens[i][j] // c.denominator))
                      for i, j, c in entries]
              for fixed, entries in coeffs.items()}
    for p, fixed, s in rows:
        for slot, x in scaled[fixed]:
            slot[p] = x if s > 0 else -x
    return UPoly([UPoly([_reduced(n, d, nums) for d, nums in zip(drow, row)])
                  for drow, row in zip(dens, slots)])


def v_expansion(polys, base=V) -> UPoly:
    """sum_m (-1)^m P_m(u) base^(n-m) over ``polys`` = [P_0, ..., P_n], a
    polynomial in u over polynomials in v.  The sign goes into the scalar
    power of ``base`` before the one product with P_m, so float coefficients
    are only negated."""
    n = len(polys) - 1
    acc = UPoly()
    for m, poly in enumerate(polys):
        acc = acc + (poly.map_coeffs(lambda c: UPoly([c]))
                     * (base ** (n - m) * Fraction((-1) ** m)))
    return acc


def phi_expansion(n: int, z, polys) -> UPoly:
    """The generating function expanded in v from the generator polynomials
    ``polys`` (``phi_polys(n, z)[0]``):
    prod (u - z_a) v^n + sum_i (-1)^i phi_i(u) v^(n-i)."""
    return ga_lift(n, v_expansion([scalar_root_poly(z), *polys]))


def phi_gen(n: int, z, polys) -> UPoly:
    """Bivariate generating function of the generator polynomials ``polys``
    (``phi_polys(n, z)[0]``); verified on construction against the
    independent fixed-point expansion."""
    acc = phi_expansion(n, z, polys)
    if acc != ga_lift(n, phi_gen_fixed_points(n, z)):
        raise AssertionError("generating-function expansions disagree")
    return acc


def kz_elements(n: int, z, polys) -> list:
    """The n pairwise commuting rational elements for distinct parameters,
    H_a = sum over b != a of s(a,b)/(z_a - z_b); verified on construction
    against the second generator polynomial of ``polys`` (``phi_polys(n,
    z)[0]``) and for pairwise commutativity."""
    z = tuple(z)
    if len(set(z)) != n:
        raise ValueError("parameters must be pairwise distinct")
    elems = []
    for a in range(1, n + 1):
        h = GroupAlgebraElement.zero(n)
        for b in range(1, n + 1):
            if b == a:
                continue
            h = h + ga_transposition(n, a, b) * (Fraction(1) / (z[a - 1] - z[b - 1]))
        elems.append(h)
    # cheap construction-time cross-checks of the sign conventions
    total = GroupAlgebraElement.zero(n)
    for h in elems:
        total = total + h
        if h.dagger() != h:
            raise AssertionError("family member is not antiinvolution-fixed")
    if total:
        raise AssertionError("commuting family does not sum to zero")
    if n >= 2:
        acc = UPoly()
        for a in range(1, n + 1):
            s = sum(
                (Fraction(1) / (z[a - 1] - z[b - 1]) for b in range(1, n + 1) if b != a),
                Fraction(0),
            )
            coeff = -elems[a - 1] + GroupAlgebraElement.scalar(n, s)
            rest = scalar_root_poly([z[b - 1] for b in range(1, n + 1) if b != a])
            acc = acc + rest.map_coeffs(lambda c, coeff=coeff: c * coeff)
        if acc != polys[1]:
            raise AssertionError("second-generator identity failed")
    if any(commutators(elems)):
        raise AssertionError("family is not commutative")
    return elems


def jm_elements(n: int):
    """J_a = sum over b < a of s(a,b); J_1 = 0."""
    out = [GroupAlgebraElement.zero(n)]
    for a in range(2, n + 1):
        j = GroupAlgebraElement.zero(n)
        for b in range(1, a):
            j = j + ga_transposition(n, a, b)
        out.append(j)
    return out


@lru_cache(maxsize=None)
def jm_content_product(n: int) -> UPoly:
    """prod_k (v - J_k) over the Jucys-Murphy elements, in k order, as a
    polynomial in v with group-algebra coefficients.  Jucys' theorem says it
    equals ``content_product_all(n)``.  Built once per n and shared, so
    callers must not mutate it."""
    one = GroupAlgebraElement.scalar(n, Fraction(1))
    prod = UPoly([one])
    for jm in jm_elements(n):
        prod = prod * UPoly([-jm, one])
    return prod


def gz_spanning_set(n: int):
    """Embedded class sums of every smaller symmetric group: a spanning set of
    the Gelfand-Zetlin subalgebra."""
    out = []
    for m in range(1, n + 1):
        for mu in partitions_of(m):
            cs = class_sum(m, mu)
            out.append(embed(cs, range(1, m + 1), n))
    return out


def diagonal(values) -> list:
    """The square matrix with ``values`` on the diagonal and 0 elsewhere."""
    return [[x if a == b else 0 for b in range(len(values))] for a, x in enumerate(values)]


def v_minus(q, on_diagonal: bool) -> UPoly:
    """v - q on the diagonal and -q off it, in u over polynomials in v."""
    return UPoly([UPoly([-q, Fraction(1)] if on_diagonal else [-q])])


def presentation_det(Z, Q, R) -> UPoly:
    """det((u - Z)(v - Q) - R) for n x n matrices: Z of scalars, Q and R of
    scalars or ring elements that pairwise commute; a polynomial in u over
    polynomials in v.

    Entry (a, b) is (u - Z_aa)(v d_ab - Q_ab), minus Z_ac (v d_cb - Q_cb) for
    each nonzero off-diagonal Z_ac, minus R_ab.  ``linalg.det`` does no row
    reduction, so commutativity is a hard precondition; each caller checks
    it on the elements its Q and R are scalar combinations of."""
    n = len(Z)

    def entry(a: int, b: int) -> UPoly:
        e = UPoly([UPoly([-Z[a][a]]), UPoly([Fraction(1)])]) * v_minus(Q[a][b], a == b)
        for c in range(n):
            if c != a and Z[a][c]:
                e = e - Z[a][c] * v_minus(Q[c][b], c == b)
        return e - UPoly([UPoly([R[a][b]])])

    return det([[entry(a, b) for b in range(n)] for a in range(n)])


def det_presentation(variant: str, n: int, z, h):
    """Determinant presentations over the commutative subring generated by the
    scalars and the supplied commuting family h (group-algebra elements or
    plain numbers), with Z = diag(z) and Q the matrix with h on the diagonal
    and 1/(z_a - z_b) off it.

    variant "P":       det of (u - Z)(v - Q) - 1          -> UPoly in u over v
    variant "Ptilde":  det of (u - Z)(v - ZQ) - Z         -> UPoly in u over v
    variant "Ptilde0": det of (v - ZQ)                    -> UPoly in v
    """
    z = tuple(z)
    h = list(h)
    if len(h) != n or len(z) != n:
        raise ValueError("need n parameters and n family elements")
    if len(set(z)) != n:
        raise ValueError("parameters must be pairwise distinct")
    if any(commutators(h)):
        raise ValueError("supplied family does not pairwise commute")
    q = [[h[a] if a == b else Fraction(1) / (z[a] - z[b]) for b in range(n)]
         for a in range(n)]
    if variant == "P":
        return presentation_det(diagonal(z), q, diagonal([Fraction(1)] * n))
    zq = [[z[a] * x for x in row] for a, row in enumerate(q)]
    if variant == "Ptilde":
        return presentation_det(diagonal(z), zq, diagonal(z))
    if variant != "Ptilde0":
        raise ValueError(f"unknown variant {variant!r}")
    d = det([[v_minus(zq[a][b], a == b) for b in range(n)] for a in range(n)])
    if d.degree > 0:
        raise AssertionError("variant Ptilde0 must not involve u")
    return d.coeff(0)


def phi_tilde_coeff(n: int, z, polys, k: int) -> UPoly:
    """The u^k coefficient of the second generating function
    ``phi_tilde(n, z, polys)``, formed alone: a polynomial in v over the
    group algebra.  Its numerator, the u^k coefficient of
    prod (u - z_a) D(v) + sum_i (-1)^i u^i phi_i(u) prod_{j>i} (v + j) with
    D(v) = prod_{j<=n} (v + j), is multiplied by the content product at v+1
    and divided by D exactly; a nonzero remainder raises AssertionError.

    The content product at v+1 enters as its n sparse Jucys-Murphy factors
    v + 1 - J_k, not as its dense coefficients.  That it is their product is
    checked exactly first: ``jm_content_product(n)`` must equal
    ``content_product_all(n)``, else AssertionError."""
    if jm_content_product(n) != content_product_all(n):
        raise AssertionError("Jucys-Murphy factors do not give the content product")

    def vfactors(lo: int, hi: int) -> UPoly:
        return scalar_root_poly([Fraction(-j) for j in range(lo, hi + 1)])

    denom = vfactors(1, n)
    pairs = [(scalar_root_poly(z).coeff(k), denom)]
    for i, poly in enumerate(polys, start=1):
        c = poly.coeff(k - i) if k >= i else 0
        if c:
            pairs.append((c * Fraction((-1) ** i), vfactors(i + 1, n)))
    num = ga_lift(n, UPoly.dot(pairs))
    one = GroupAlgebraElement.scalar(n, Fraction(1))
    for jm in jm_elements(n):
        num = num * UPoly([one - jm, one])
    quot, rem = poly_divmod(num, denom)
    if rem:
        raise AssertionError("generating function is not polynomial in v")
    return quot


def phi_tilde(n: int, z, polys) -> UPoly:
    """Second generating function: the content product at v+1 times the sum of
    the shifted generator polynomials ``polys`` (``phi_polys(n, z)[0]``) over
    the partial denominators, a polynomial in u of degree n over polynomials
    in v.  The rational expression is assembled over the common denominator
    and the exact divisibility is verified rather than assumed, one
    coefficient at a time (``phi_tilde_coeff``)."""
    return UPoly([phi_tilde_coeff(n, z, polys, k) for k in range(n + 1)])


def relation_residuals(la, det: UPoly) -> list:
    """Residuals of a scalar relation family read off a determinant
    presentation det(u, w), a polynomial in u over polynomials in w, at a
    partition la of n, each zero when the relations hold: the coefficients
    of u^(n-j) w^(n-i) with j < i, and the coefficients of the difference of
    the two sides of the diagonal identity
    sum_i [u^(n-i) w^(n-i)] prod_{j>i} (w + j) = prod_j (w + j - la_j)."""
    n = sum(la)

    def coeff(i: int, j: int):  # det.coeff(i) is the int 0 above the u-degree
        return (det.coeff(i) or UPoly()).coeff(j)

    lhs = UPoly()
    for i in range(n + 1):
        tail = scalar_root_poly([Fraction(-j) for j in range(i + 1, n + 1)])
        lhs = lhs + tail * coeff(n - i, n - i)
    rhs = scalar_root_poly([Fraction(lam - j)
                            for j, lam in enumerate(partition_parts(la, n), start=1)])
    return ([coeff(n - j, n - i) for i in range(n + 1) for j in range(i)]
            + (lhs - rhs).coeffs)


def shifted_relation_residuals(la, det: UPoly) -> list:
    """Residuals of the second (conjectural) relation family read off the
    shifted presentation det(u, v) (``det_presentation("Ptilde", ...)``) at
    a partition la of n, each zero when the relations hold: the top
    coefficient minus the content polynomial of the partition, and the
    remainder of each further coefficient against the shifted content
    polynomial."""
    n = sum(la)
    pila = content_poly(la, n)
    pila1 = pila.shift_arg(Fraction(1))
    out = (det.coeff(n) - pila).coeffs  # coefficient of u^n, polynomial in v
    for i in range(1, n + 1):
        tail = scalar_root_poly([Fraction(-j) for j in range(1, n - i + 1)])
        out += poly_divmod(det.coeff(n - i) * tail, pila1)[1].coeffs
    return out
