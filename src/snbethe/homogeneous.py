"""The homogeneous commuting family: increasing-cycle sums, the long-cycle
shift element, local charges obtained from the logarithm of the shifted
first-order generating polynomial, the window densities that rebuild each
charge as a cyclic sum, and the Taylor-coefficient determinant presentation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .rings import MultiPoly, UPoly, log1p, series_inverse, series_log
from .permutations import (
    GroupAlgebraElement,
    commutators,
    compose,
    cycle,
    embed,
    ga_perm,
    identity,
    inverse,
    permutation,
    transposition,
)
from .gaudin import presentation_det
from .xxx import XXXParams, xxx_params


def gamma_perm(n: int) -> tuple:
    """The long cycle i -> i+1 (mod n); equals the product of the adjacent
    transpositions s(1,2) s(2,3) ... s(n-1,n)."""
    return cycle(n, range(1, n + 1))


def g_cycles(n: int, k: int) -> GroupAlgebraElement:
    """Sum of all increasing k-cycles (i1 i2 ... ik), i1 < ... < ik."""
    if not (2 <= k <= n):
        raise ValueError("need 2 <= k <= n")
    acc = GroupAlgebraElement.zero(n)
    for combo in combinations(range(1, n + 1), k):
        acc = acc + ga_perm(cycle(n, combo))
    return acc


def homogeneous_params(n: int, hbar=Fraction(1), z1=Fraction(0)) -> XXXParams:
    """Coincident-parameter point whose commuting family is the homogeneous one."""
    return xxx_params([z1] * n, hbar)


def s1_homogeneous(n: int) -> UPoly:
    """First-order generating polynomial at the homogeneous point, built from
    the increasing-cycle sums: n u^{n-1} + sum_k G_k u^{n-k}."""
    coeffs = [GroupAlgebraElement.zero(n)] * n
    coeffs[n - 1] = GroupAlgebraElement.scalar(n, Fraction(n))
    for k in range(2, n + 1):
        coeffs[n - k] = g_cycles(n, k)
    return UPoly(coeffs)


def local_charges(n: int) -> list:
    """Charges I_1..I_{n-2} from the series logarithm of the inverse-shifted
    first-order polynomial."""
    if n < 3:
        raise ValueError("charges need n >= 3")
    order = n - 2
    gam_inv = ga_perm(inverse(gamma_perm(n)))
    poly = s1_homogeneous(n).map_coeffs(lambda c: gam_inv * c)
    log = series_log(poly, order)
    return [log.coeff(k) for k in range(1, order + 1)]


def _adjacent_wrapped(n: int, i: int) -> tuple:
    # s(n, n+1) is read cyclically as s(1, n)
    if i == n:
        return transposition(n, 1, n)
    return transposition(n, i, i + 1)


def increasing_cycle_word(n: int, subset) -> tuple:
    """The ordered product of wrapped adjacent transpositions attached to a
    subset i_1 < ... < i_k: the factors below the cut come first (descending),
    then the factors above the cut (descending).  The cut must sit at a cyclic
    gap of the subset; the result is independent of which gap is chosen, and
    that independence is asserted."""
    idx = list(subset)
    k = len(idx)

    def build(m: int) -> tuple:
        p = identity(n)
        for j in range(m, 0, -1):
            p = compose(p, _adjacent_wrapped(n, idx[j - 1]))
        for j in range(k, m, -1):
            p = compose(p, _adjacent_wrapped(n, idx[j - 1]))
        return p

    if k == 1:
        return build(1)
    valid = [m for m in range(1, k) if idx[m] - idx[m - 1] > 1]
    if idx[0] + n - idx[-1] > 1:
        valid.append(k)
    if not valid:
        raise ValueError(f"subset {subset} has no cyclic gap")
    results = [build(m) for m in valid]
    for r in results[1:]:
        if r != results[0]:
            raise AssertionError(f"cut-point dependence for subset {subset}")
    return results[0]


def _window_table(n: int, bound: int) -> MultiPoly:
    """Multivariable log of 1 + sum over subsets of the ordered word times the
    matching squarefree monomial, truncated at the given total degree."""
    X = MultiPoly(n)
    for k in range(1, min(n - 2, bound) + 1):
        for subset in combinations(range(1, n + 1), k):
            e = [0] * n
            for i in subset:
                e[i - 1] = 1
            X = X + MultiPoly(n, {tuple(e): ga_perm(increasing_cycle_word(n, subset))})
    # construction-time anchor: grouping by subset size recovers the shifted
    # increasing-cycle sums
    gam_inv = ga_perm(inverse(gamma_perm(n)))
    for k in range(1, min(n - 2, bound) + 1):
        grouped = GroupAlgebraElement.zero(n)
        for e, c in X.terms.items():
            if sum(e) == k and all(x <= 1 for x in e):
                grouped = grouped + c
        if grouped != gam_inv * g_cycles(n, n - k):
            raise AssertionError("ordered words do not regroup to cycle sums")
    return log1p(X, bound)


def _compositions(k: int, m: int):
    if m == 1:
        yield (k,)
        return
    for first in range(1, k - m + 2):
        for rest in _compositions(k - first, m - 1):
            yield (first,) + rest


def local_density(k: int) -> GroupAlgebraElement:
    """The window density of order k: an element on k+1 symbols whose cyclic
    sum of shifted embeddings reproduces the k-th local charge for every n.

    Works at n = k + 2 (the smallest degree where the multivariable expansion
    is faithful), extracts the coefficients with trailing zeros, and asserts
    the structural properties of the expansion: cyclic equivariance of the
    coefficients and vanishing of every split-support coefficient.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = k + 2
    table = _window_table(n, k)
    gam = gamma_perm(n)
    gam_ga, gam_inv = ga_perm(gam), ga_perm(inverse(gam))
    zero = GroupAlgebraElement.zero(n)
    for e, c in table.terms.items():
        rot = e[1:] + e[:1]
        if table.terms.get(rot, zero) != gam_inv * c * gam_ga:
            raise AssertionError("coefficient table is not cyclically equivariant")
        # split support with a trailing zero must vanish; this is what confines
        # each charge to cyclic windows
        if e[-1] == 0:
            supp = [i for i, x in enumerate(e) if x]
            if supp and any(
                e[b] == 0 for b in range(supp[0] + 1, supp[-1])
            ):
                raise AssertionError(f"split-support coefficient {e} is nonzero")
    acc = zero
    for m in range(1, k + 1):
        for comp in _compositions(k, m):
            e = tuple(list(comp) + [0] * (n - m))
            acc = acc + table.terms.get(e, zero)
    for p in acc.terms:
        if any(p[i - 1] != i for i in range(k + 2, n + 1)):
            raise AssertionError("density does not live on the first k+1 symbols")
    terms = {}
    for p, c in acc.terms.items():
        terms[permutation(p[: k + 1])] = c
    return GroupAlgebraElement(k + 1, terms)


def charge_from_density(n: int, k: int, density: GroupAlgebraElement) -> GroupAlgebraElement:
    """Cyclic sum of the shifted embeddings of a window density."""
    gam = gamma_perm(n)
    gam_ga, gam_inv = ga_perm(gam), ga_perm(inverse(gam))
    cur = embed(density, range(1, k + 2), n)
    acc = GroupAlgebraElement.zero(n)
    for _ in range(n):
        acc = acc + cur
        cur = gam_ga * cur * gam_inv
    return acc


def det_P_hat(n: int, q: UPoly) -> UPoly:
    """Determinant presentation at the homogeneous point: the structured
    matrix has the upper shift in place of the diagonal parameters and Taylor
    coefficients of q(u)/(u+1)^b in place of the Cauchy entries."""
    if any(commutators(q.coeffs)):
        raise ValueError("coefficients of q do not pairwise commute")
    # Q[a][b] = coefficient of u^{n-a} in q(u) * (1+u)^{-b}
    cols = [q.mul_trunc(series_inverse(UPoly([Fraction(1), Fraction(1)]) ** b, n - 1), n - 1)
            for b in range(1, n + 1)]
    hat_q = [[col.coeff(n - a) for col in cols] for a in range(1, n + 1)]
    # M = (u - Zhat)(v - Qhat) - Qhat, with Zhat the upper shift
    shift = [[1 if b == a + 1 else 0 for b in range(n)] for a in range(n)]
    return presentation_det(shift, hat_q, hat_q)


def homogeneous_generators(n: int) -> list:
    """The increasing-cycle sums, the standard generating set."""
    return [g_cycles(n, k) for k in range(2, n + 1)]
