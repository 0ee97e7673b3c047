"""XXX-type commuting families: the trace-built generator polynomials
T_m(u; p; hbar), the p-independent family S_k(u; hbar), the ordered-product
commuting elements, the bivariate generating polynomial and the
shifted-Cauchy determinant presentation, on which the conjectural scalar
relation family is read in powers of u and w = v - 1.

T_m is the cycle-deletion trace of the antisymmetrized ordered product in
the group algebra of S_{n+m} with polynomial coefficients.  Because the trace
is constant on the conjugacy classes of the top S_m, the m!-term
antisymmetrizer is replaced by one representative per cycle type, weighted
sgn(mu)/z_mu (p(m) terms); ``t_m_poly`` gives the argument, and the literal
m!-term construction is kept in the tests as the oracle.

T_m has one form, symbolic in the trace parameter p: each coefficient in u
is a ``UPoly`` in p over the group algebra, and ``t_at`` reads it at a
rational p.  A verification run forms each T_m once, in its store
(``suites.t_poly``), and every claim evaluates it at its own p.

The binomial transform ``ts_transform`` writes T_m exactly through S_k, a
sum over k-subsets in S_n; with sign -1 it inverts from the T_k.  The
generator tables that spans and block images are built from (``t_m_table``)
come from the transform, so no algebra builder works in S_{n+m}.  The
literal trace stays where the trace is the claim: the transform, symmetry,
saturation and p-independence claims (through the transform that span is
S_1..S_{n-1}'s for every p), the Schur-Weyl transfer match, the family that
``t_gen`` takes (its T-against-S equality is its own cross-check) and the
CLI's ``emit t``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from .rings import UPoly, falling_binomial, scalar_root_poly
from .permutations import (
    GroupAlgebraElement,
    antisymmetrizer,
    antisymmetrizer_classes,
    commutators,
    embed,
    ga_lift,
    ga_transposition,
    top_embed,
    trace_at,
    trace_map,
)
from .gaudin import V, diagonal, presentation_det, v_expansion


class XXXParams(namedtuple("XXXParams", "z hbar")):
    """Parameters (z_1..z_n, hbar)."""

    __slots__ = ()

    def __new__(cls, z: tuple, hbar: Fraction):
        if not hbar:
            raise ValueError("hbar must be nonzero")
        return super().__new__(cls, z, hbar)

    @property
    def n(self) -> int:
        return len(self.z)

    @property
    def distinct(self) -> bool:
        return len(set(self.z)) == len(self.z)

    @property
    def hbar_separated(self) -> bool:
        """True iff z_a - z_b != hbar for all a, b (invertibility hypothesis)."""
        return all(
            self.z[a] - self.z[b] != self.hbar
            for a in range(self.n)
            for b in range(self.n)
        )


def xxx_params(z, hbar=Fraction(1)) -> XXXParams:
    return XXXParams(tuple(Fraction(x) for x in z), Fraction(hbar))


def t_m_poly(params: XXXParams, m: int, p=None) -> UPoly:
    """The m-th generator polynomial, degree n in u, built in the group
    algebra of S_{n+m} and traced down symbolically in the trace parameter
    p: each coefficient is a ``UPoly`` in p over the group algebra of S_n
    (see ``trace_map``).  Given a p, its value there (``t_at``).

    T_m(u) = tr(A_m X(u)), with A_m the antisymmetrizer of the top S_m (the
    symbols n+1..n+m) and X(u) the ordered product of the factors
    u - z_a + hbar sum_i (a, n+i).  Conjugation by g in the top S_m sends
    (a, n+i) to (a, n+g(i)), so it fixes every factor and X commutes with g.
    It only relabels symbols above n, which the trace deletes, so
    tr(g Y g^-1) = tr(Y).  Hence tr(s X) = tr(g s g^-1 X) depends only on the
    cycle type of s, and tr(A_m X) = sum_mu sgn(mu)/z_mu tr(s_mu X) with one
    representative s_mu per cycle type (``antisymmetrizer_classes``)."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    n, z, hbar = params.n, params.z, params.hbar
    if m == 0:
        poly = ga_lift(n, scalar_root_poly(z)).map_coeffs(lambda c: UPoly([c]))
    else:
        big = n + m
        acc = UPoly([top_embed(antisymmetrizer_classes(m), n, m)])
        for a in range(n, 0, -1):
            const = GroupAlgebraElement.scalar(big, -z[a - 1])
            for i in range(1, m + 1):
                const = const + ga_transposition(big, a, n + i) * hbar
            acc = acc * UPoly([const, GroupAlgebraElement.scalar(big, Fraction(1))])
        poly = UPoly([trace_map(c, n, m, UPoly.gen()) for c in acc.coeffs])
    return poly if p is None else t_at(poly, n, p)


def t_at(poly: UPoly, n: int, p) -> UPoly:
    """A symbolic T_m(u) over S_n (``t_m_poly`` with no p) at the trace
    parameter p, each u-coefficient read by ``trace_at``."""
    return poly.map_coeffs(lambda c: trace_at(c, n, p))


def t_m_table(params: XXXParams, p, ms, rows) -> dict:
    """(m, i) -> the coefficient of u^(n-i) in T_m(u; p), lifted into the
    group algebra, for m in ms and i in rows; the keys run m-major, which is
    the order span closures receive them in.  The tables come from the
    binomial transform of the S_k, each built once in S_n, not from S_{n+m};
    the literal T_m, traced once per run and read at each claim's own p, is
    for the trace claims and ``emit t`` (see the module docstring)."""
    n, ms = params.n, list(ms)
    s_family = [s_k_poly(params, k) for k in range(max(ms, default=0) + 1)]
    out = {}
    for m in ms:
        poly = ts_transform(s_family, m, p)
        for i in rows:
            out[(m, i)] = ga_lift(n, poly.coeff(n - i))
    return out


def s_k_poly(params: XXXParams, k: int) -> UPoly:
    """The p-independent generator polynomial of order k; zero for k > n."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    n, z, hbar = params.n, params.z, params.hbar
    if k > n:
        return UPoly()
    if k == 0:
        return ga_lift(n, scalar_root_poly(z))
    signed = antisymmetrizer(k) * Fraction(math.factorial(k))
    total = UPoly()
    for r in combinations(range(1, n + 1), k):
        acc = UPoly([embed(signed, r, n)])
        for a in range(n, 0, -1):  # ordered product, larger index to the left
            if a in r:
                continue
            const = GroupAlgebraElement.scalar(n, -z[a - 1])
            for rj in r:
                if rj < a:
                    const = const + ga_transposition(n, rj, a) * hbar
            acc = acc * UPoly([const, GroupAlgebraElement.scalar(n, Fraction(1))])
        total = total + acc
    return total * hbar**k


def qkz_elements(params: XXXParams) -> list:
    """The commuting elements K_a, each the ordered product of linear
    factors; invertible iff the parameters are hbar-separated.  Verified on
    construction against the first-order polynomial evaluated at z_a (which
    carries one extra overall factor of hbar), and the full product against
    its closed scalar form."""
    n, z, hbar = params.n, params.z, params.hbar
    elems = []
    for a in range(1, n + 1):
        acc = GroupAlgebraElement.scalar(n, Fraction(1))
        for b in (*range(a - 1, 0, -1), *range(n, a, -1)):
            acc = acc * (GroupAlgebraElement.scalar(n, z[a - 1] - z[b - 1])
                         + ga_transposition(n, a, b) * hbar)
        elems.append(acc)
    s1 = s_k_poly(params, 1)
    for a in range(1, n + 1):
        if s1.eval_at(z[a - 1]) != elems[a - 1] * hbar:
            raise AssertionError("ordered product disagrees with S_1 at z_a")
    prod = GroupAlgebraElement.scalar(n, Fraction(1))
    for e in elems:
        prod = prod * e
    scalar = math.prod(z[a] - z[b] + hbar for a in range(n) for b in range(n) if a != b)
    if prod != GroupAlgebraElement.scalar(n, scalar):
        raise AssertionError("product of the family disagrees with closed form")
    return elems


def t_gen(params: XXXParams, t_family) -> UPoly:
    """Bivariate generating polynomial of ``t_family``, T_0..T_n at the trace
    parameter p = n; both the T-expansion in v and the S-expansion in v-1 are
    computed and their equality is enforced."""
    n = params.n
    lhs = ga_lift(n, v_expansion(t_family))
    rhs = ga_lift(n, v_expansion([s_k_poly(params, k) for k in range(n + 1)], V - Fraction(1)))
    if lhs != rhs:
        raise AssertionError("the two generating expansions disagree")
    return lhs


def det_P_hbar(params: XXXParams, q: UPoly) -> UPoly:
    """Determinant presentation det((u - Z)(v - Q) - hbar Q) with Z = diag(z)
    and the shifted Cauchy-type Q_ab = c_a / (z_a - z_b + hbar), where
    c_a = q(z_a) / prod_{b != a} (z_a - z_b).  q must have pairwise commuting
    coefficients; the parameters must be distinct and hbar-separated."""
    n, z, hbar = params.n, params.z, params.hbar
    if not params.distinct:
        raise ValueError("parameters must be pairwise distinct")
    if not params.hbar_separated:  # z_a - z_b + hbar = 0 for some a, b
        raise ValueError("entry denominator vanishes: z_a - z_b = -hbar")
    if any(commutators(q.coeffs)):
        raise ValueError("coefficients of q do not pairwise commute")
    # each c_a, hence each entry, is a scalar combination of q's
    # coefficients, so the guard above covers every entry
    c_vals = []
    for a in range(1, n + 1):
        c = q.eval_at(z[a - 1])
        for b in range(1, n + 1):
            if b != a:
                c = c * (Fraction(1) / (z[a - 1] - z[b - 1]))
        c_vals.append(c)
    qh = [[c * (Fraction(1) / (z[a] - z[b] + hbar)) for b in range(n)]
          for a, c in enumerate(c_vals)]
    return presentation_det(diagonal(z), qh, [[hbar * x for x in row] for row in qh])


def ts_transform(family, m: int, p, sign: int = 1) -> UPoly:
    """The binomial transform sum_k sign^(m-k) F_k/(m-k)! *
    prod_{i=1..m-k}(p - m + i) of ``family``, F_0..F_m built once by the
    caller and shared across orders.  Of the S_k it equals T_m for every p;
    with sign -1, of the T_k at p, it equals S_m (``st_transform``).  For the
    symbolic ``UPoly.gen()`` each weight is a ``UPoly`` in p, so a
    coefficient of the output is one too, or an element where only F_m
    contributes to it."""
    acc = UPoly()
    for k in range(0, m + 1):
        scale = falling_binomial(p - k, m - k) * sign ** (m - k)
        acc = acc + family[k].map_coeffs(lambda c, s=scale: c * s)
    return acc


def st_transform(t_family, m: int, p) -> UPoly:
    """The inverse transform: S_m from T_0..T_m at p."""
    return ts_transform(t_family, m, p, -1)
