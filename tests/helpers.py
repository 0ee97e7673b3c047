"""Shared test helpers, and the float oracle of the spectral claims: joint
eigenvectors, polynomial-subspace reconstruction and the scalar relation
checks at joint eigenvalues.  Only the oracle uses numpy, imported where
used."""

import math
from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from snbethe.gaudin import det_presentation, relation_residuals, shifted_relation_reader
from snbethe.homogeneous import homogeneous_generators
from snbethe.permutations import (
    GroupAlgebraElement, all_permutations, antisymmetrizer, embed, ga_lift, sign,
    typed_permutations,
)
from snbethe.reps import BlockMatrix, block_shapes, partition_parts, partitions_of
from snbethe.rings import MultiPoly, UPoly, _int_scaled, poly_divmod
from snbethe.spectra import _v_coeffs, annihilate, casorati
from snbethe.suites import certificate, homogeneous_f, t_images
from snbethe.xxx import XXXParams, det_P_hbar, s_k_poly, t_gen, t_m_poly


def distinct_rationals(rng, k: int, spread: int = 40) -> list:
    """k pairwise distinct rationals with all pairwise differences != 1,
    drawn from the ``SeededRandom`` rng."""
    out = []
    while len(out) < k:
        q = Fraction(rng.integer(-spread, spread), rng.integer(1, 3))
        if all(q != z and abs(q - z) != 1 for z in out):
            out.append(q)
    return out


def class_sum(n: int, mu) -> GroupAlgebraElement:
    """Sum of all permutations of S_n with the given cycle type."""
    mu = tuple(sorted(mu, reverse=True))
    return GroupAlgebraElement(n, {p: Fraction(1) for p, t in typed_permutations(n)
                                   if t == mu})


def gz_spanning_set(n: int) -> list:
    """The class-sum oracle of the Gelfand-Zetlin algebra, by its definition:
    the class sums of each S_m, m = 1..n, embedded on the symbols 1..m, which
    generate the algebra of the centres of S_1 < ... < S_n."""
    return [embed(class_sum(m, mu), range(1, m + 1), n)
            for m in range(1, n + 1) for mu in partitions_of(m)]


def literal_t_gen(params: XXXParams) -> UPoly:
    """``xxx.t_gen`` of the literal T_0..T_n at the trace parameter p = n."""
    n = params.n
    return t_gen(params, [t_m_poly(params, m, p=Fraction(n)) for m in range(n + 1)])


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


# The float oracle of the spectral claims: the float path that decided
# spectra.fiber-loop, and the scalar relation checks read at joint
# eigenvalues (acceptance 11 and the relation tests).

def echelon_polys(polys, tol: float = 0.0) -> list:
    """A basis of the span of the polynomials (exact or float coefficients)
    in reduced echelon form, ordered by decreasing degree; with a positive
    tol, coefficients below tol times the largest one count as zero."""
    work = [list(p.coeffs) for p in polys]

    def top(cs):
        limit = max((abs(x) for x in cs), default=0) * tol
        for k in range(len(cs) - 1, -1, -1):
            if (abs(cs[k]) > limit) if tol else cs[k]:
                return k
        return -1

    out = []
    while work:
        work = [cs for cs in work if top(cs) >= 0]
        if not work:
            break
        work.sort(key=lambda cs: top(cs), reverse=True)
        lead = work.pop(0)
        d = top(lead)
        inv = (Fraction(1) / lead[d]) if isinstance(lead[d], Fraction) else 1.0 / lead[d]
        lead = [c * inv for c in lead[: d + 1]]
        nxt = []
        for cs in work:
            t = top(cs)
            if t == d:
                cs = [x - cs[d] * y for x, y in zip(cs, lead + [0] * (len(cs) - d - 1))]
            nxt.append(cs)
        out.append(lead)
        work = nxt
    # back-substitute so every pivot degree appears in exactly one basis element
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            dj = len(out[j]) - 1
            if dj < len(out[i]) and out[i][dj]:
                f = out[i][dj]
                out[i] = [
                    x - f * y
                    for x, y in zip(out[i], out[j] + [0] * (len(out[i]) - len(out[j])))
                ]
    return [UPoly(cs) for cs in out]


EigenRecord = namedtuple("EigenRecord", "partition eigenvalues residual vector",
                         defaults=(None,))


def joint_eigen(cert: dict, generators: dict, tol: float = 1e-8):
    """Numeric joint eigenrecords: eigen-decompose the squarefree element of
    a ``certificate`` blockwise and read off every generator eigenvalue by
    Rayleigh quotient; an uncertified element or a residual above tol
    raises."""
    import numpy as np

    if not cert["squarefree"]:
        raise ValueError("simple spectrum not certified for this seed")
    combo = cert["element"]
    records = []
    for bi, (la, k) in enumerate(block_shapes(combo.n)):
        # x / d is correctly rounded, as float(Fraction) is
        M = np.array([x / combo.d for x in combo.blocks[bi]]).reshape(k, k)
        _, vecs = np.linalg.eig(M)
        for col in range(k):
            v = vecs[:, col]
            v = v / np.linalg.norm(v)
            eigs = {}
            worst = 0.0
            for name, g in generators.items():
                G = np.array([x / g.d for x in g.blocks[bi]]).reshape(k, k)
                mu = (np.conj(v) @ (G @ v)) / (np.conj(v) @ v)
                res = float(np.linalg.norm(G @ v - mu * v))
                scale = max(1.0, float(np.max(np.abs(G))))
                worst = max(worst, res / scale)
                eigs[name] = complex(mu).real if abs(complex(mu).imag) < tol else complex(mu)
            if worst > tol:
                raise ValueError(f"eigen residual {worst} above tolerance")
            records.append(EigenRecord(tuple(la), eigs, worst, v))
    return records


def reconstruct_subspace(
    F: UPoly, n: int, degree_bound: int, hbar=1.0, variant: str = "discrete",
    tol: float = 1e-6,
):
    """Polynomial kernel of the operator that ``annihilate`` reads off from
    the v-expansion of a scalar eigenvalue polynomial, degree-bounded;
    returns the ``echelon_polys`` basis, raising if the kernel dimension is
    not n.  Column d of the kernel matrix is the image of u^d, over complex
    coefficients."""
    import numpy as np

    Fc = F.map_coeffs(lambda c: c.map_coeffs(complex))
    D = degree_bound
    A = np.zeros((max((fk.degree for fk in _v_coeffs(Fc) if fk), default=0) + D + 1,
                  D + 1), dtype=complex)
    for d in range(D + 1):
        image = annihilate(Fc, UPoly([0j] * d + [1 + 0j]), hbar, variant).coeffs
        A[:len(image), d] = image
    _, sv, vt = np.linalg.svd(A)
    smax = sv[0] if len(sv) else 1.0
    kernel = [np.conj(vt[i]) for i in range(len(vt)) if i >= len(sv) or sv[i] < tol * smax]
    if len(kernel) != n:
        raise ValueError(f"kernel dimension {len(kernel)} != {n}")
    polys = []
    for vec in kernel:
        if np.max(np.abs(vec.imag)) < 1e-9 * max(np.max(np.abs(vec)), 1.0):
            polys.append(UPoly([float(x) for x in vec.real]))
        else:
            polys.append(UPoly([complex(x) for x in vec]))
    return echelon_polys(polys, tol=1e-9)


def theta_membership_residual(basis, n: int) -> float:
    """Relative distance of the Casorati determinant of the basis from the
    line through (u+1)^n (unit shift)."""
    import numpy as np

    c = casorati(basis, 1.0)
    target = UPoly([float(math.comb(n, k)) for k in range(n + 1)])
    size = max(len(c.coeffs), len(target.coeffs))
    cv = np.array([complex(c.coeff(k)) for k in range(size)])
    tv = np.array([complex(target.coeff(k)) for k in range(size)])
    alpha = np.vdot(tv, cv) / np.vdot(tv, tv)
    if not alpha:
        return 1.0
    return float(np.linalg.norm(cv - alpha * tv) / np.linalg.norm(cv))


def homogeneous_eigen(b, n: int, seed: int):
    """Float joint eigenrecords of the homogeneous family's T_m,i images, a
    builder of the run's store ``suites.Builds``."""
    return joint_eigen(b(certificate, n, tuple(homogeneous_generators(n)), seed),
                       b(t_images, n))


def homogeneous_f_from_record(n: int, rec) -> UPoly:
    """``suites.homogeneous_f`` at the recorded generator eigenvalues."""
    return homogeneous_f(n, {(m, i): rec.eigenvalues[f"T{m}c{i}"]
                             for m in range(1, n + 1) for i in range(n + 1)})


def float_fiber_loop(b, n: int, seed: int) -> bool:
    """The float fiber loop at n: on every eigen record of the homogeneous
    family, the reconstructed kernel has the degrees la_i + n - i and a
    unit-shift Casorati near the line through (u+1)^n; False on the first
    record that misses either or whose kernel has not n polynomials."""
    for rec in b(homogeneous_eigen, n, seed):
        la = rec.partition
        try:
            space = reconstruct_subspace(homogeneous_f_from_record(n, rec), n,
                                         degree_bound=la[0] + n - 1, hbar=1.0,
                                         variant="discrete", tol=1e-6)
        except ValueError as exc:
            if "kernel dimension" not in str(exc):
                raise
            return False
        want = [part + n - i for i, part in enumerate(partition_parts(la, n), start=1)]
        if (sorted(p.degree for p in space) != sorted(want)
                or theta_membership_residual(space, n) > 1e-6):
            return False
    return True


def check_relations_H(la, z, h) -> list:
    """Residuals of the scalar relation family attached to the first
    determinant presentation at a commuting family h: scalars (the joint
    eigenvalues on one line of block la) or group-algebra elements (read on
    block la through its central idempotent).  See
    ``gaudin.relation_residuals``; nothing is asserted here."""
    n = sum(la)
    return relation_residuals(la, det_presentation("P", n, tuple(z), list(h)))


def check_relations_Ht(la, z, h) -> list:
    """Residuals of the second (conjectural) relation family at a commuting
    family h, scalars or elements as in ``check_relations_H``; see
    ``gaudin.shifted_relation_reader``."""
    n = sum(la)
    return shifted_relation_reader(n, det_presentation("Ptilde", n, tuple(z), list(h)))(la)


def check_relations_Hh(la, params: XXXParams, q: UPoly) -> list:
    """Residuals of the conjectural scalar relation family, each zero when
    the relations hold: the determinant presentation at q in powers of u and
    w = v - 1, read as in ``gaudin.relation_residuals``.  q(u) = q_1 u^(n-1)
    + ... + q_n has pairwise commuting coefficients: scalars (eigenvalues on
    one line of block la) or elements (the first-order polynomial itself)."""
    if params.n != sum(la):
        raise ValueError("partition size must match the parameter count")
    return relation_residuals(la, det_P_hbar(params, q).map_coeffs(lambda c: c.shift_arg(1)))
