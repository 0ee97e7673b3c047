"""Wronskian and Casorati utilities, fiber-relation checkers, exact spans in
the block model, the cyclic-element certificate of the spectral claims,
numeric joint eigenanalysis, reconstruction of polynomial subspaces from
eigenvalue data, cyclic vectors, and the exact chordal distance between spans.

The Wronskian and Casorati determinants, ``f_bivariate`` and the operator
``annihilate`` read off from it take their rows from ``_rows``, the one place
that picks derivatives ("differential") or shifts ("discrete"); any other
variant name raises ValueError.

Everything dimension-like is exact rational or a one-sided certificate mod a
prime; floating point enters only for eigenvectors and reconstruction.  Only
those float functions import numpy, so the exact checks never load it.  The
block-model kernels read a ``BlockMatrix``'s integer numerators over its one
denominator d: the span echelon takes the numerators as they are (scaling a
vector keeps its span), the Krylov chain inverts d once mod p, and the eigen
floats are x / d per entry.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import chain
from operator import mul

from .rings import MultiPoly, SeededRandom, UPoly
from .linalg import Echelon, det, nullspace
from .reps import BlockMatrix, block_shapes, partition_parts, seminormal_rep


def _rows(fs, count, variant, hbar=Fraction(1)) -> list:
    """Rows 0, ..., count - 1 of the matrix of ``variant`` on the polynomials
    fs: row r holds their r-th derivatives ("differential") or their values
    at u - hbar*r ("discrete", hbar nonzero), each shift formed once."""
    if variant == "differential":
        rows, cur = [], list(fs)
        for _ in range(count):
            rows.append(cur)
            cur = [f.deriv() for f in cur]
        return rows
    if variant != "discrete":
        raise ValueError(f"unknown variant {variant!r}")
    if not hbar:
        raise ValueError("hbar must be nonzero")
    return [[f.shift_arg(-hbar * r) for f in fs] for r in range(count)]


def _v_power(variant, n: int, r: int) -> int:
    """The power of v that row r of the n + 1 rows of ``f_bivariate``
    carries, r or n - r; as its own inverse it also gives the row of v^r."""
    return r if variant == "differential" else n - r


def wronskian(fs) -> UPoly:
    """Determinant of the derivative matrix (row i holds the (i-1)-st
    derivatives)."""
    fs = list(fs)
    return det(_rows(fs, len(fs), "differential"))


def casorati(fs, hbar) -> UPoly:
    """Determinant of the shift matrix (row i holds f_j(u - hbar*(i-1)))."""
    fs = list(fs)
    return det(_rows(fs, len(fs), "discrete", hbar))


def f_bivariate(fs, hbar=Fraction(1), variant: str = "discrete") -> UPoly:
    """Bivariate eigenvalue polynomial of a polynomial subspace, in u over
    polynomials in v: the bordered shift (or derivative) determinant with the
    exponential column expanded symbolically in v.

    The border matrix has the n + 1 rows of ``_rows``; deleting row r and
    signing its cofactor gives the coefficient of v^(n-r) ("discrete") or
    v^r ("differential") directly.
    """
    fs = list(fs)
    n = len(fs)
    rows = _rows(fs, n + 1, variant, hbar)
    out = UPoly()
    for r in range(n + 1):
        minor_rows = [rows[i] for i in range(n + 1) if i != r]
        minor = det(minor_rows) if n else UPoly([Fraction(1)])
        s = Fraction((-1) ** (n + r))  # (-1)^{(r+1) + (n+1)}
        power = _v_power(variant, n, r)
        out = out + (minor * s).map_coeffs(lambda c: UPoly([0] * power + [c]))
    return out


def _v_coeffs(F: UPoly) -> list:
    """The coefficients of v^0, ..., v^d, d the v-degree, of a polynomial in
    u over polynomials in v, as polynomials in u."""
    d = max((c.degree for c in F.coeffs), default=-1)
    return [UPoly([c.coeff(k) for c in F.coeffs]) for k in range(d + 1)]


def annihilate(F: UPoly, p: UPoly, hbar=Fraction(1), variant="discrete") -> UPoly:
    """The image of p under the operator read off from the v-expansion of F,
    a polynomial of v-degree n: the sum over k of the coefficient of v^k
    times the row of ``_rows`` on p that carries v^k in ``f_bivariate``.
    It is zero exactly when p lies in the subspace F was built from."""
    fks = _v_coeffs(F)
    n = len(fks) - 1
    rows = _rows([p], n + 1, variant, hbar)
    return UPoly.dot((fk, rows[_v_power(variant, n, k)][0]) for k, fk in enumerate(fks))


def annihilator_residual(F: UPoly, p: UPoly, hbar=Fraction(1), variant="discrete"):
    """Largest coefficient of ``annihilate(F, p, hbar, variant)``; zero
    exactly when p lies in the defining subspace."""
    return max((abs(c) for c in annihilate(F, p, hbar, variant).coeffs),
               default=Fraction(0))


def check_O_relations(la, a, fs, variant: str = "differential", hbar=Fraction(1)) -> dict:
    """Residual report for the fiber relations: the (discrete) Wronskian of
    the given polynomials against the prescribed right-hand side, plus the
    degree and missing-coefficient constraints on each basis polynomial."""
    la = tuple(la)
    fs = list(fs)
    m = len(fs)
    n = len(a)
    parts = partition_parts(la, m)
    w = det(_rows(fs, m, variant, hbar))
    prefactor = Fraction(1)
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            prefactor *= parts[j - 1] - parts[i - 1] + i - j
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    for s, as_ in enumerate(a, start=1):
        coeffs[n - s] = Fraction((-1) ** s) * as_
    rhs = UPoly(coeffs) * prefactor
    diff = w - rhs
    wr_residual = max((abs(c) for c in diff.coeffs), default=Fraction(0))
    degree_violations = []
    gap_violations = []
    for i in range(1, m + 1):
        f = fs[i - 1]
        want_deg = parts[i - 1] + m - i
        if f.degree != want_deg or f.lead() != 1:
            degree_violations.append(i)
        for s in range(i + 1, m + 1):
            missing = parts[s - 1] + m - s
            if 0 <= missing <= f.degree and f.coeff(missing):
                gap_violations.append((i, s))
    return {
        "partition": la,
        "wronskian_residual": wr_residual,
        "degree_violations": degree_violations,
        "gap_violations": gap_violations,
        "ok": wr_residual == 0 and not degree_violations and not gap_violations,
    }


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


class SpanBasis:
    """Span of block matrices, held as the exact echelon of their flattened
    numerators (``linalg.Echelon``); its rows are a canonical basis."""

    def __init__(self, n: int):
        self.n = n
        self.echelon = Echelon()

    @property
    def dim(self) -> int:
        return len(self.echelon.rows)

    def add(self, bm: BlockMatrix) -> bool:
        """Insert if independent; returns True when the dimension grew."""
        return self.echelon.add(chain(*bm.blocks))

    def contains(self, bm: BlockMatrix) -> bool:
        return self.echelon.contains(chain(*bm.blocks))

    def same_span(self, other: "SpanBasis") -> bool:
        # each echelon row is the unique primitive positive multiple of its
        # reduced row, so equal spans have equal (pivot, row) pairs
        return (sorted(zip(self.echelon.pivots, self.echelon.rows))
                == sorted(zip(other.echelon.pivots, other.echelon.rows)))


def linear_span(mats) -> SpanBasis:
    mats = list(mats)
    if not mats:
        raise ValueError("empty generating set")
    sb = SpanBasis(mats[0].n)
    for m in mats:
        sb.add(m)
    return sb


def algebra_span(generators) -> SpanBasis:
    """Span of the unital algebra generated by the generators: 1 and the
    generators, closed under left products by the generators that enlarged
    it.  A unital subspace closed under each L_g holds every word in the g,
    and a dependent g = c*1 + sum_i c_i g_i has L_g = c + sum_i c_i L_{g_i}."""
    generators = list(generators)
    if not generators:
        raise ValueError("empty generating set")
    n = generators[0].n
    sb = SpanBasis(n)
    sb.add(BlockMatrix.identity(n))
    gens = [g for g in generators if sb.add(g)]
    queue = list(gens)
    while queue:
        new = queue.pop()
        for g in gens:
            prod = g * new
            if sb.add(prod):
                queue.append(prod)
    return sb


# 2^61 - 1 is prime; each test of the certificate mod p is one-sided
CERT_PRIME = 2**61 - 1
# A family with simple spectrum has a squarefree random element off a proper
# subvariety, so a few further draws certify a seed whose first draw landed
# on it; a family without simple spectrum never certifies.
CERT_DRAWS = 10


def certificate(gens, seed: int) -> dict:
    """Certify that the unital algebra A generated by the block images
    ``gens`` (at least one) is Q[x] = C_B(x), B the full block algebra,
    for x = sum_i c_i g_i with seeded integers c_i; draw again (up to
    CERT_DRAWS times) until x is also squarefree.  The witness holds the last
    x ("element"), "cyclic", "squarefree", its ``_krylov_relation`` "chi" and
    the "degree" of chi, the "prime" and the number of "draws".

    x lies in A, and A lies in C_B(x) once each g_i commutes with x (checked
    exactly; else nothing is certified).  If v, xv, ..., x^(N-1)v are
    independent mod p for a seeded v in V = sum_la Q^(d_la), of dimension N,
    they are independent over Q, so x is cyclic on V: its minimal polynomial
    is chi = prod_la charpoly(x_la), so the x_la are nonderogatory with
    coprime charpolys, and C_B(x) = sum_la Q[x_la] = Q[x] has dimension N.
    So A = Q[x] = C_B(x) has dimension N and is maximal commutative.  If
    also gcd(chi, chi') = 1 over F_p, the discriminant of chi is nonzero over
    Q: x has N distinct eigenvalues on V, so A has simple spectrum and
    ``joint_eigen`` can diagonalize x."""
    rng, p = SeededRandom(seed), CERT_PRIME
    size = sum(k for _, k in block_shapes(gens[0].n))
    for draws in range(1, CERT_DRAWS + 1):
        coeffs = [rng.integer(-999, 999) for _ in gens]
        x = sum((g * c for g, c in zip(gens[1:], coeffs[1:])), gens[0] * coeffs[0])
        v = [rng.integer(0, p - 1) for _ in range(size)]
        commuting = all(g * x == x * g for g in gens)
        chi = _krylov_relation(x, v, p) if commuting else ()
        cyclic = len(chi) == size + 1
        squarefree = cyclic and _coprime_to_derivative(chi, p)
        if squarefree or not commuting:
            break
    return {"element": x, "cyclic": cyclic, "squarefree": squarefree, "chi": chi,
            "degree": len(chi) - 1, "prime": p, "draws": draws}


def _krylov_relation(x: BlockMatrix, v: list, p: int) -> tuple:
    """The monic relation sum_j chi[j] x^j v = 0 mod p, low degree first, of
    the first vector of v, xv, x^2 v, ... that depends on those before it;
    () if p divides the denominator d of x, which is the lcm of its entries'
    reduced denominators."""
    if x.d % p == 0:
        return ()
    inv = pow(x.d, -1, p)
    mat, at = [], 0  # the rows of x mod p, each with its block's offset
    for (_, k), b in zip(block_shapes(x.n), x.blocks):
        mat += [(at, [c * inv % p for c in b[i:i + k]]) for i in range(0, k * k, k)]
        at += k
    # each row: a vector of the chain reduced to 1 at its pivot and 0 at every
    # earlier pivot, followed by its combination of the chain
    rows, w, n = [], v, len(v)
    for k in range(n + 1):
        vec = w + [0] * k + [1]
        for piv, r in rows:
            f = vec[piv]
            vec = [(a - f * b) % p for a, b in zip(vec, r)] + vec[len(r):]
        piv = next((i for i, a in enumerate(vec[:n]) if a), None)
        if piv is None:
            return tuple(vec[n:])
        inv = pow(vec[piv], -1, p)
        rows.append((piv, [a * inv % p for a in vec]))
        w = [sum(map(mul, row, w[at:at + len(row)])) % p for at, row in mat]


def _coprime_to_derivative(chi, p: int) -> bool:
    """gcd(chi, chi') = 1 over F_p, for chi monic, low degree first."""
    a, b = list(chi), [k * c % p for k, c in enumerate(chi)][1:]
    while any(b):
        while not b[-1]:
            b.pop()
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):  # a zero leading coefficient is dropped
            q, s = a[-1] * inv % p, len(a) - len(b)
            a = a[:s] + [(x - q * y) % p for x, y in zip(a[s:], b)]
            a.pop()
        a, b = b, a
    return len(a) == 1


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


def chordal_distance(a: SpanBasis, b: SpanBasis) -> Fraction:
    """Squared chordal distance ||P_a - P_b||_F^2 between two spans in the
    flattened block coordinates (Conway, Hardin and Sloane, Exp. Math. 5,
    1996): dim a + dim b - 2 tr(P_a P_b), exact.  With A, B the echelon rows,
    G = A A^T the Gram matrices and C = A B^T, tr(P_a P_b) is
    tr(G_a^-1 C G_b^-1 C^T); each G^-1 M is read off the nullspace of
    [G | M], whose vector for the free column of M's column j is
    (-G^-1 M e_j, e_j)."""
    A, B = a.echelon.rows, b.echelon.rows

    def gram(X, Y):
        return [[sum(map(mul, x, y)) for y in Y] for x in X]

    def solve(G, M):
        # row j is -(G^-1 M) e_j
        return [v[:len(G)] for v in nullspace([g + m for g, m in zip(G, M)])]

    C = gram(A, B)
    X = solve(gram(A, A), C)
    Y = solve(gram(B, B), [list(col) for col in zip(*C)])
    # tr(G_a^-1 C G_b^-1 C^T) = sum over i, j of X[j][i] * Y[i][j]
    trace = sum(x * y for xs, ys in zip(X, zip(*Y)) for x, y in zip(xs, ys))
    return len(A) + len(B) - 2 * trace


def _divided_difference_exps(e: tuple, i: int):
    """Exponent expansion of (swap_i(y^e) - y^e)/(y_i - y_{i+1})."""
    a, b = e[i], e[i + 1]
    if a == b:
        return []
    lo = min(a, b)
    hi = max(a, b)
    s = 1 if b > a else -1  # sign of the swapped-minus-original numerator
    out = []
    for t in range(hi - lo):
        exps = list(e)
        exps[i] = lo + t
        exps[i + 1] = hi - 1 - t
        out.append((tuple(exps), s))
    return out


def symmetric_action_on_poly(q: MultiPoly, i: int, hbar) -> MultiPoly:
    """Adjacent transposition acting on a polynomial: plain swap plus hbar
    times the divided difference (reduces to the swap at hbar = 0)."""
    n = q.nvars
    out = {}

    def add(e, c):
        s = out.get(e, 0) + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)

    for e, c in q.terms.items():
        se = list(e)
        se[i], se[i + 1] = se[i + 1], se[i]
        add(tuple(se), c)
        if hbar:
            for exps, s in _divided_difference_exps(e, i):
                add(exps, c * hbar * s)
    return MultiPoly(n, out)


def cyclic_vector(la, z, variant: str = "classic", hbar=Fraction(1)):
    """The (unique up to scale) invariant of minimal degree in the module
    tensored with polynomials, under either the plain permutation action
    ("classic") or its hbar deformation ("hbar"); returned as a list of
    MultiPoly coordinates in the tableau basis, normalized, together with its
    evaluation at y = z."""
    if variant not in ("classic", "hbar"):
        raise ValueError(f"unknown variant {variant!r}")
    la = tuple(la)
    n = sum(la)
    z = tuple(z)
    rep = seminormal_rep(la)
    d = rep.dim
    target = sum((i - 1) * part for i, part in enumerate(la, start=1))
    degrees = [target] if variant == "classic" else list(range(target + 1))
    monomials = []
    for deg in degrees:
        monomials.extend(_monomials(n, deg))
    index = {e: k for k, e in enumerate(monomials)}
    nvar = d * len(monomials)

    def col(t, e):
        return t * len(monomials) + index[e]

    hb = Fraction(0) if variant == "classic" else Fraction(hbar)
    system = []
    for i in range(n - 1):
        g = rep.gens[i]
        # matrix of (sigma_i - 1) acting diagonally on module and polynomial
        mat = [[Fraction(0)] * nvar for _ in range(nvar)]
        for s in range(d):
            for e in monomials:
                src = col(s, e)
                acted = symmetric_action_on_poly(MultiPoly(n, {e: Fraction(1)}), i, hb)
                for t in range(d):
                    if not g[t][s]:
                        continue
                    for e2, c in acted.terms.items():
                        mat[col(t, e2)][src] += g[t][s] * c
        for r in range(nvar):
            mat[r][r] -= Fraction(1)
        system.extend(mat)
    if system:
        basis = nullspace(system)
    else:  # n = 1: no generators, everything is invariant
        basis = [[Fraction(1) if i == j else Fraction(0) for i in range(nvar)]
                 for j in range(nvar)]
    if len(basis) != 1:
        raise AssertionError(
            f"invariant space has dimension {len(basis)}, expected 1"
        )
    vec = basis[0]
    lead = next(x for x in vec if x)
    vec = [x / lead for x in vec]
    coords = []
    for t in range(d):
        terms = {}
        for e in monomials:
            c = vec[col(t, e)]
            if c:
                terms[e] = c
        coords.append(MultiPoly(n, terms))
    value = []
    for t in range(d):
        acc = Fraction(0)
        for e, c in coords[t].terms.items():
            m = c
            for zi, ei in zip(z, e):
                m *= zi**ei
            acc += m
        value.append(acc)
    return coords, value


def _monomials(n: int, deg: int):
    if n == 1:
        return [(deg,)]
    out = []
    for first in range(deg + 1):
        for rest in _monomials(n - 1, deg - first):
            out.append((first,) + rest)
    return out
