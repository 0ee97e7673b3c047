"""Gaudin-type commuting families in the symmetric group algebra: the
generator polynomials and their bivariate generating function, the rational
commuting elements built from pairwise-distinct parameters, Jucys-Murphy and
related spanning sets, the three determinant presentations, and the residual
checkers for the two scalar relation families.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .rings import BiPoly, UPoly, poly_divmod
from .linalg import det_perm_expansion
from .permutations import (
    GroupAlgebraElement,
    all_permutations,
    antisymmetrizer,
    class_sum,
    embed,
    ga_lift,
    ga_transposition,
    sign,
)
from .reps import content_poly, content_product_all, partition_parts, partitions_of


@dataclass(frozen=True)
class ParameterSet:
    """Parameter tuple z_1..z_n with a distinctness flag."""

    z: tuple

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def distinct(self) -> bool:
        return len(set(self.z)) == len(self.z)

    @property
    def at_most_pairs(self) -> bool:
        """No value occurs three or more times."""
        return all(self.z.count(x) < 3 for x in set(self.z))


def scalar_root_poly(z) -> UPoly:
    """prod (u - z_a) with scalar coefficients."""
    poly = UPoly([Fraction(1)])
    for za in z:
        poly = poly * UPoly([-za, Fraction(1)])
    return poly


def signed_symmetrizer_sum(n: int, i: int, z) -> UPoly:
    """i! * sum over i-subsets of the embedded antisymmetrizer times the
    complementary root product; a polynomial in u with group-algebra
    coefficients of degree n - i."""
    z = tuple(z)
    acc = UPoly()
    signed = antisymmetrizer(i) * Fraction(math.factorial(i))
    for r in combinations(range(1, n + 1), i):
        ga = embed(signed, r, n)
        rest = [z[a - 1] for a in range(1, n + 1) if a not in r]
        poly = scalar_root_poly(rest)
        acc = acc + poly.map_coeffs(lambda c, ga=ga: c * ga)
    return acc


def phi_polys(n: int, z):
    """The generator polynomials and their coefficient table.

    Returns (polys, table): polys[i-1] is the degree n-i polynomial for
    i = 1..n; table[(i, j)] is the coefficient of u^(n-i-j), as a
    group-algebra element.
    """
    z = tuple(z)
    polys = [signed_symmetrizer_sum(n, i, z) for i in range(1, n + 1)]
    table = {}
    for i, poly in enumerate(polys, start=1):
        for j in range(0, n - i + 1):
            table[(i, j)] = ga_lift(n, poly.coeff(n - i - j))
    return polys, table


def phi_gen_fixed_points(n: int, z) -> BiPoly:
    """Fixed-point expansion of the generating function: (-1)^n times the sum
    over permutations of sign * sigma * prod over fixed points of
    (1 - v(u - z_b))."""
    z = tuple(z)
    acc = BiPoly()
    for p in all_permutations(n):
        factor = BiPoly.const(Fraction(1))
        for b in range(1, n + 1):
            if p(b) == b:
                # 1 - v*(u - z_b)
                factor = factor * BiPoly([[Fraction(1), z[b - 1]], [0, Fraction(-1)]])
        ga = GroupAlgebraElement.from_perm(p, Fraction(sign(p)))
        acc = acc + factor.map_coeffs(lambda c, ga=ga: c * ga)
    return Fraction((-1) ** n) * acc


def phi_gen(n: int, z) -> BiPoly:
    """Bivariate generating function of the generator polynomials; verified on
    construction against the independent fixed-point expansion."""
    z = tuple(z)
    polys, _ = phi_polys(n, z)
    lead = scalar_root_poly(z)
    acc = ga_lift(n, BiPoly.from_upoly_u(lead)) * BiPoly([[0] * n + [Fraction(1)]])
    for i, poly in enumerate(polys, start=1):
        term = BiPoly.from_upoly_u(poly) * BiPoly([[0] * (n - i) + [Fraction((-1) ** i)]])
        acc = acc + ga_lift(n, term)
    alt = ga_lift(n, phi_gen_fixed_points(n, z))
    if acc != alt:
        raise AssertionError("generating-function expansions disagree")
    return acc


@dataclass
class KZFamily:
    """The n pairwise commuting rational elements for distinct parameters."""

    z: tuple
    elements: list = field(default_factory=list)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]

    def __len__(self):
        return len(self.elements)


def kz_elements(n: int, z) -> KZFamily:
    """H_a = sum over b != a of s(a,b)/(z_a - z_b); verified on construction
    against the second-generator identity and for pairwise commutativity."""
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
        polys, _ = phi_polys(n, z)
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
    if not check_commuting_family(elems):
        raise AssertionError("family is not commutative")
    return KZFamily(z, elems)


def jm_elements(n: int):
    """J_a = sum over b < a of s(a,b); J_1 = 0."""
    out = [GroupAlgebraElement.zero(n)]
    for a in range(2, n + 1):
        j = GroupAlgebraElement.zero(n)
        for b in range(1, a):
            j = j + ga_transposition(n, a, b)
        out.append(j)
    return out


def gz_spanning_set(n: int):
    """Embedded class sums of every smaller symmetric group: a spanning set of
    the Gelfand-Zetlin subalgebra."""
    out = []
    for m in range(1, n + 1):
        for mu in partitions_of(m):
            cs = class_sum(m, mu)
            out.append(embed(cs, range(1, m + 1), n))
    return out


def check_commuting_family(h) -> bool:
    items = list(h)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            a, b = items[i], items[j]
            if isinstance(a, GroupAlgebraElement) or isinstance(b, GroupAlgebraElement):
                if a * b != b * a:
                    return False
    return True


def _bp_u_minus(c) -> BiPoly:
    return BiPoly([[-c], [Fraction(1)]])


def det_presentation(variant: str, n: int, z, h):
    """Determinant presentations over the commutative subring generated by the
    scalars and the supplied commuting family h (group-algebra elements or
    plain numbers).

    variant "P":       det of (u - Z)(v - Q) - 1          -> BiPoly
    variant "Ptilde":  det of (u - Z)(v - ZQ) - Z         -> BiPoly
    variant "Ptilde0": det of (v - ZQ)                    -> UPoly in v

    The determinant is the permutation expansion; there is no row reduction,
    which is why pairwise commutativity of h is a hard precondition.
    """
    z = tuple(z)
    h = list(h)
    if len(h) != n or len(z) != n:
        raise ValueError("need n parameters and n family elements")
    if len(set(z)) != n:
        raise ValueError("parameters must be pairwise distinct")
    if not check_commuting_family(h):
        raise ValueError("supplied family does not pairwise commute")

    def q_entry(a: int, b: int):
        if a == b:
            return h[a - 1]
        return Fraction(1) / (z[a - 1] - z[b - 1])

    one = BiPoly.const(Fraction(1))
    v = BiPoly([[0, Fraction(1)]])
    entries = []
    for a in range(1, n + 1):
        row = []
        for b in range(1, n + 1):
            if variant == "P":
                vq = (v if a == b else BiPoly()) - BiPoly.const(q_entry(a, b))
                e = _bp_u_minus(z[a - 1]) * vq - (one if a == b else BiPoly())
            elif variant == "Ptilde":
                vzq = (v if a == b else BiPoly()) - BiPoly.const(
                    z[a - 1] * q_entry(a, b)
                )
                e = _bp_u_minus(z[a - 1]) * vzq - (
                    BiPoly.const(z[a - 1]) if a == b else BiPoly()
                )
            elif variant == "Ptilde0":
                e = (v if a == b else BiPoly()) - BiPoly.const(
                    z[a - 1] * q_entry(a, b)
                )
            else:
                raise ValueError(f"unknown variant {variant!r}")
            row.append(e)
        entries.append(row)
    det = det_perm_expansion(entries)
    if variant == "Ptilde0":
        if det.deg_u > 0:
            raise AssertionError("variant Ptilde0 must not involve u")
        return det.u_coeff(0)
    return det


def phi_tilde(n: int, z) -> BiPoly:
    """Second generating function: the content product at v+1 times the sum of
    the shifted generator polynomials over the partial denominators.  The
    rational expression is assembled over the common denominator and the exact
    divisibility is verified rather than assumed."""
    z = tuple(z)
    polys, _ = phi_polys(n, z)
    pi_shift = content_product_all(n).shift_arg(Fraction(1))  # in v, GA coeffs

    def vfactors(lo: int, hi: int) -> UPoly:
        poly = UPoly([Fraction(1)])
        for j in range(lo, hi + 1):
            poly = poly * UPoly([Fraction(j), Fraction(1)])
        return poly

    denom = vfactors(1, n)
    lead = scalar_root_poly(z)
    num = BiPoly.from_upoly_u(lead) * BiPoly.from_upoly_v(denom)
    num = ga_lift(n, num)
    for i, poly in enumerate(polys, start=1):
        u_part = BiPoly.from_upoly_u(poly) * BiPoly(
            [[Fraction((-1) ** i)] if k == i else [0] for k in range(i + 1)]
        )
        term = ga_lift(n, u_part) * ga_lift(n, BiPoly.from_upoly_v(vfactors(i + 1, n)))
        num = num + term
    num = num * ga_lift(n, BiPoly.from_upoly_v(pi_shift))
    rows = []
    for i in range(num.deg_u + 1):
        quot, rem = poly_divmod(num.u_coeff(i), denom)
        if rem:
            raise AssertionError("generating function is not polynomial in v")
        rows.append(quot.coeffs)
    return BiPoly(rows)


def check_relations_H(la, z, h) -> dict:
    """Residuals of the scalar relation family attached to the first
    determinant presentation, at concrete parameter values h.

    Returns a report with the largest lower-triangular coefficient (which the
    relations say must vanish) and the coefficient residual of the diagonal
    identity against the partition data.  Nothing is asserted here; callers
    decide what counts as a failure.
    """
    n = sum(la)
    return relation_residuals(la, det_presentation("P", n, tuple(z), list(h)))


def relation_residuals(la, det: BiPoly) -> dict:
    """Residuals of a scalar relation family read off a determinant
    presentation det(u, w) at a partition la of n: the largest coefficient of
    u^(n-j) w^(n-i) with j < i, which must vanish, and the largest
    coefficient of the difference of the two sides of the diagonal identity
    sum_i [u^(n-i) w^(n-i)] prod_{j>i} (w + j) = prod_j (w + j - la_j)."""
    la = tuple(la)
    n = sum(la)
    offdiag = max(
        (abs(det.coeff(n - j, n - i)) for i in range(n + 1) for j in range(i)),
        default=Fraction(0),
    )
    lhs = UPoly()
    for i in range(n + 1):
        tail = UPoly([Fraction(1)])
        for j in range(i + 1, n + 1):
            tail = tail * UPoly([Fraction(j), Fraction(1)])
        lhs = lhs + tail * det.coeff(n - i, n - i)
    rhs = UPoly([Fraction(1)])
    for j, lam in enumerate(partition_parts(la, n), start=1):
        rhs = rhs * UPoly([Fraction(j - lam), Fraction(1)])
    diff = lhs - rhs
    diagonal = max((abs(c) for c in diff.coeffs), default=Fraction(0))
    return {
        "partition": la,
        "offdiag_residual": offdiag,
        "diagonal_residual": diagonal,
        "max_residual": max(offdiag, diagonal),
    }


def check_relations_Ht(la, z, h) -> dict:
    """Residuals of the second (conjectural) relation family: the top
    coefficient must reproduce the content polynomial of the partition, and
    each remaining coefficient must have vanishing fractional part against the
    shifted content polynomial."""
    la = tuple(la)
    n = sum(la)
    z = tuple(z)
    det = det_presentation("Ptilde", n, z, list(h))
    pila = content_poly(la, n)
    pila1 = pila.shift_arg(Fraction(1))
    top = det.u_coeff(n)  # coefficient of u^n, polynomial in v
    diff = top - pila
    top_residual = max((abs(c) for c in diff.coeffs), default=Fraction(0))
    frac_residual = Fraction(0)
    for i in range(1, n + 1):
        tail = UPoly([Fraction(1)])
        for j in range(1, n - i + 1):
            tail = tail * UPoly([Fraction(j), Fraction(1)])
        numer = det.u_coeff(n - i) * tail
        _, rem = poly_divmod(numer, pila1)
        r = max((abs(c) for c in rem.coeffs), default=Fraction(0))
        frac_residual = max(frac_residual, r)
    return {
        "partition": la,
        "top_residual": top_residual,
        "fractional_residual": frac_residual,
        "max_residual": max(top_residual, frac_residual),
    }
