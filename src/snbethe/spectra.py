"""Wronskian and Casorati utilities, fiber-relation checkers, exact span and
commutant computations in the block model, simple-spectrum certification,
numeric joint eigenanalysis, reconstruction of polynomial subspaces from
eigenvalue data, cyclic vectors, and a principal-angle subspace distance.

Everything dimension-like is exact rational; floating point enters only for
eigenvectors, reconstruction, and subspace distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
import numpy as np

from .rings import BiPoly, MultiPoly, SeededRandom, UPoly, _int_scaled, squarefree_test
from .linalg import det_perm_expansion, nullspace, rank
from .reps import BlockMatrix, dimension, partition_parts, partitions_of, seminormal_rep
from .linalg import charpoly


def wronskian(fs) -> UPoly:
    """Determinant of the derivative matrix (row i holds the (i-1)-st
    derivatives)."""
    fs = list(fs)
    m = len(fs)
    rows = []
    cur = fs
    for _ in range(m):
        rows.append(list(cur))
        cur = [f.deriv() for f in cur]
    return det_perm_expansion(rows)


def casorati(fs, hbar) -> UPoly:
    """Determinant of the shift matrix (row i holds f_j(u - hbar*(i-1)))."""
    if not hbar:
        raise ValueError("hbar must be nonzero")
    fs = list(fs)
    m = len(fs)
    rows = []
    for i in range(m):
        shift = -hbar * i
        rows.append([f.shift_arg(shift) for f in fs])
    return det_perm_expansion(rows)


def f_bivariate(fs, hbar=Fraction(1), variant: str = "homogeneous") -> BiPoly:
    """Bivariate eigenvalue polynomial of a polynomial subspace: the bordered
    shift (or derivative) determinant with the exponential column expanded
    symbolically in v.

    Row r of the border matrix carries the argument shift -hbar*(r-1)
    (discrete variants) or the (r-1)-st derivative (differential variant);
    deleting row r and signing cofactors gives the v-expansion directly.
    """
    fs = list(fs)
    n = len(fs)
    if variant in ("homogeneous", "general", "discrete"):
        rows = [[f.shift_arg(-hbar * r) for f in fs] for r in range(n + 1)]
        power = lambda r: n - r  # v-exponent of the row-r cofactor, rows 0-based
    elif variant == "differential":
        rows = []
        cur = fs
        for _ in range(n + 1):
            rows.append(list(cur))
            cur = [f.deriv() for f in cur]
        power = lambda r: r
    else:
        raise ValueError(f"unknown variant {variant!r}")
    out = BiPoly()
    for r in range(n + 1):
        minor_rows = [rows[i] for i in range(n + 1) if i != r]
        minor = det_perm_expansion(minor_rows) if n else UPoly([Fraction(1)])
        s = Fraction((-1) ** (n + r))  # (-1)^{(r+1) + (n+1)}
        term = BiPoly.from_upoly_u(minor * s) * BiPoly([[0] * power(r) + [Fraction(1)]])
        out = out + term
    return out


def annihilator_residual(F: BiPoly, p: UPoly, hbar=Fraction(1), variant="discrete"):
    """Largest coefficient of the image of p under the operator read off from
    the v-expansion of F; zero exactly when p lies in the defining subspace."""
    n = F.deg_v
    acc = UPoly()
    for k in range(n + 1):
        fk = F.v_coeff(k)
        if variant == "differential":
            tap = p
            for _ in range(k):
                tap = tap.deriv()
        else:
            tap = p.shift_arg(-hbar * (n - k))
        acc = acc + fk * tap
    return max((abs(c) for c in acc.coeffs), default=Fraction(0))


def check_O_relations(la, a, fs, variant: str = "differential", hbar=Fraction(1)) -> dict:
    """Residual report for the fiber relations: the (discrete) Wronskian of
    the given polynomials against the prescribed right-hand side, plus the
    degree and missing-coefficient constraints on each basis polynomial."""
    la = tuple(la)
    fs = list(fs)
    m = len(fs)
    n = len(a)
    parts = partition_parts(la, m)
    w = wronskian(fs) if variant == "differential" else casorati(fs, hbar)
    prefactor = Fraction(1)
    for i in range(1, m + 1):
        for j in range(i + 1, m + 1):
            prefactor *= parts[j - 1] - parts[i - 1] + i - j
    rhs = UPoly([Fraction(1)])
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


@dataclass
class PolySpace:
    """A space of polynomials given by a basis in reduced column-echelon form
    ordered by decreasing degree."""

    basis: list

    @property
    def dim(self) -> int:
        return len(self.basis)

    def degrees(self) -> list:
        return [p.degree for p in self.basis]

    def to_json(self):
        return [list(p.coeffs) for p in self.basis]


def echelon_polys(polys, tol: float = 0.0) -> PolySpace:
    """Reduce a list of polynomials (exact or float coefficients) to echelon
    form by degree; with a positive tol, coefficients below tol times the
    largest one count as zero."""
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
    return PolySpace([UPoly(cs) for cs in out])


class SpanBasis:
    """Linearly independent spanning list of block matrices together with an
    echelonized coordinate form for membership tests.

    The echelon is exact and fraction-free (Bareiss, Math. Comp. 22, 1968).
    Each row is a primitive integer vector with a positive entry at its pivot
    and zeros at every other row's pivot, so it is the unique positive
    integer multiple of the reduced row over the rationals with the same
    pivots.  A vector enters as integer numerators over the lcm of its
    denominators.
    """

    def __init__(self, n: int):
        self.n = n
        self.elements = []
        self._rows = []
        self._pivots = []

    @property
    def dim(self) -> int:
        return len(self.elements)

    def _reduce(self, vec):
        """A positive integer multiple of the residual of vec modulo the rows.

        Rows are zero at each other's pivots, so with L the lcm of the pivot
        entries used, L*v - sum_i (L / r_i[p_i]) * v[p_i] * r_i clears every
        pivot in one pass.
        """
        _, v = _int_scaled(vec)
        used = [(row, p) for row, p in zip(self._rows, self._pivots) if v[p]]
        if not used:
            return v
        lcm = math.lcm(*[row[p] for row, p in used])
        res = [lcm * x for x in v]
        for row, p in used:
            f = lcm // row[p] * v[p]
            res = [x - f * y for x, y in zip(res, row)]
        return res

    def add(self, bm: BlockMatrix) -> bool:
        """Insert if independent; returns True when the dimension grew."""
        v = self._reduce(bm.flatten())
        piv = next((i for i, x in enumerate(v) if x), None)
        if piv is None:
            return False
        g = math.gcd(*v)
        if v[piv] < 0:
            g = -g
        v = [x // g for x in v]
        vp = v[piv]
        for i, row in enumerate(self._rows):
            f = row[piv]
            if f:
                # the row's own pivot entry becomes vp * row[p] > 0
                row = [vp * x - f * y for x, y in zip(row, v)]
                g = math.gcd(*row)
                self._rows[i] = [x // g for x in row]
        self._rows.append(v)
        self._pivots.append(piv)
        self.elements.append(bm)
        return True

    def contains(self, bm: BlockMatrix) -> bool:
        return not any(self._reduce(bm.flatten()))

    def same_span(self, other: "SpanBasis") -> bool:
        return self.dim == other.dim and all(
            self.contains(b) for b in other.elements
        )

    def float_rows(self) -> np.ndarray:
        # the exact echelon rows span the same space and have exact zeros in
        # the other pivot columns, so their float image keeps full rank even
        # when the raw elements have extreme dynamic range (steep parameters);
        # int / int is correctly rounded, as float(Fraction) is
        rows = []
        for r in self._rows:
            m = max(abs(x) for x in r)
            rows.append([x / m for x in r])
        return np.array(rows, dtype=float)


def linear_span(mats) -> SpanBasis:
    mats = list(mats)
    if not mats:
        raise ValueError("empty generating set")
    sb = SpanBasis(mats[0].n)
    for m in mats:
        sb.add(m)
    return sb


def algebra_span(generators) -> SpanBasis:
    """Fixpoint closure of the unital span of the generators under products."""
    generators = list(generators)
    if not generators:
        raise ValueError("empty generating set")
    n = generators[0].n
    sb = SpanBasis(n)
    sb.add(BlockMatrix.identity(n))
    queue = []
    for g in generators:
        if sb.add(g):
            queue.append(g)
    while queue:
        new = queue.pop()
        partners = list(sb.elements)
        for other in partners:
            for prod in (new * other, other * new):
                if sb.add(prod):
                    queue.append(prod)
    return sb


def commutant_dim(basis: SpanBasis) -> int:
    """Dimension of the commutant of the span inside the full block algebra
    (the image of the group algebra), block by block."""
    n = basis.n
    total = 0
    for bi, la in enumerate(partitions_of(n)):
        d = dimension(la)
        rows = []
        for b in basis.elements:
            B = b.blocks[bi].rows
            for i in range(d):
                for j in range(d):
                    row = [Fraction(0)] * (d * d)
                    for k in range(d):
                        row[i * d + k] += B[k][j]
                        row[k * d + j] -= B[i][k]
                    rows.append(row)
        total += d * d - rank(rows)
    return total


def random_combination(basis: SpanBasis, rng: SeededRandom):
    coeffs = [rng.nonzero_rational(9, 1) for _ in basis.elements]
    acc = None
    for c, b in zip(coeffs, basis.elements):
        t = b * c
        acc = t if acc is None else acc + t
    return coeffs, acc


# A span with simple spectrum has a squarefree random combination except on a
# proper subvariety, so a few further draws certify a seed whose first draw
# landed on it; a span without simple spectrum never certifies.
CERT_DRAWS = 10


def simple_spectrum_cert(basis: SpanBasis, seed: int):
    """Certify simple spectrum on one copy of each irreducible block: draw
    seeded random combinations from one stream, up to CERT_DRAWS of them,
    until one has a squarefree characteristic polynomial.  A False answer is
    only 'not certified'.  The witness holds the last combination drawn (its
    coefficients and its block matrix) and the number of draws."""
    rng = SeededRandom(seed)
    for draws in range(1, CERT_DRAWS + 1):
        coeffs, combo = random_combination(basis, rng)
        poly = UPoly([Fraction(1)])
        for block in combo.blocks:
            poly = poly * charpoly(block)
        ok = squarefree_test(poly)
        if ok:
            break
    return ok, {"combination": coeffs, "element": combo,
                "charpoly_degree": poly.degree, "draws": draws}


@dataclass
class EigenRecord:
    partition: tuple
    eigenvalues: dict
    residual: float
    vector: np.ndarray = field(repr=False, default=None)

    def to_json(self):
        return {
            "partition": list(self.partition),
            "eigenvalues": {k: v for k, v in self.eigenvalues.items()},
            "residual": self.residual,
        }


def joint_eigen(basis: SpanBasis, generators: dict, seed: int, tol: float = 1e-8):
    """Numeric joint eigenrecords: eigen-decompose a certified random
    combination blockwise and read off every generator eigenvalue by Rayleigh
    quotient; residuals above tol raise."""
    ok, witness = simple_spectrum_cert(basis, seed)
    if not ok:
        raise ValueError("simple spectrum not certified for this seed")
    combo = witness["element"]
    records = []
    for bi, la in enumerate(partitions_of(basis.n)):
        M = np.array([[float(x) for x in row] for row in combo.blocks[bi].rows])
        _, vecs = np.linalg.eig(M)
        d = M.shape[0]
        for col in range(d):
            v = vecs[:, col]
            v = v / np.linalg.norm(v)
            eigs = {}
            worst = 0.0
            for name, g in generators.items():
                G = np.array([[float(x) for x in row] for row in g.blocks[bi].rows])
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
    F: BiPoly, n: int, degree_bound: int, hbar=1.0, variant: str = "discrete",
    tol: float = 1e-6,
):
    """Polynomial kernel of the operator read off from the v-expansion of a
    scalar eigenvalue polynomial, degree-bounded; returns a PolySpace, raising
    if the kernel dimension is not n."""
    taps = []
    for k in range(F.deg_v + 1):
        fk = [complex(c) for c in F.v_coeff(k).coeffs]
        taps.append(fk)
    D = degree_bound
    max_u = max((len(fk) - 1 for fk in taps if fk), default=0) + D
    A = np.zeros((max_u + 1, D + 1), dtype=complex)
    for k, fk in enumerate(taps):
        if not fk:
            continue
        for d in range(D + 1):
            if variant == "discrete":
                # p(u - hbar*(n-k)) contributes binomial expansion of (u - s)^d
                s = float(hbar) * (n - k)
                for t in range(d + 1):
                    c = math.comb(d, t) * (-s) ** (d - t)
                    if not c:
                        continue
                    for e, fc in enumerate(fk):
                        A[e + t, d] += fc * c
            elif variant == "differential":
                # k-th derivative of u^d
                if d - k < 0:
                    continue
                c = math.perm(d, k)
                for e, fc in enumerate(fk):
                    A[e + d - k, d] += fc * c
            else:
                raise ValueError(f"unknown variant {variant!r}")
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


def theta_membership_residual(space: PolySpace, n: int) -> float:
    """Relative distance of the Casorati determinant of the basis from the
    line through (u+1)^n (unit shift)."""
    c = casorati(space.basis, 1.0)
    target = UPoly([float(math.comb(n, k)) for k in range(n + 1)])
    size = max(len(c.coeffs), len(target.coeffs))
    cv = np.array([complex(c.coeff(k)) for k in range(size)])
    tv = np.array([complex(target.coeff(k)) for k in range(size)])
    alpha = np.vdot(tv, cv) / np.vdot(tv, tv)
    if not alpha:
        return 1.0
    return float(np.linalg.norm(cv - alpha * tv) / np.linalg.norm(cv))


def span_distance(a: SpanBasis, b: SpanBasis) -> float:
    """Principal-angle distance between two spans in the flattened block
    coordinates; capped at 1 for unequal dimensions."""
    A = a.float_rows()
    B = b.float_rows()
    qa = np.linalg.svd(A, full_matrices=False)[2]
    qb = np.linalg.svd(B, full_matrices=False)[2]
    if qa.shape[0] != qb.shape[0]:
        return 1.0
    sv = np.linalg.svd(qa @ qb.T, compute_uv=False)
    smin = min(1.0, float(sv.min()))
    return math.sqrt(max(0.0, 1.0 - smin * smin))


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
    tensored with polynomials, under either the plain permutation action or
    its hbar deformation; returned as a list of MultiPoly coordinates in the
    tableau basis, normalized, together with its evaluation at y = z."""
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
                    if not g.rows[t][s]:
                        continue
                    for e2, c in acted.terms.items():
                        mat[col(t, e2)][src] += g.rows[t][s] * c
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


def cyclicity_verdict(basis: SpanBasis, block_vectors: dict) -> bool:
    """True iff mapping every span element to the tuple of its block images of
    the given vectors is injective, i.e. the vectors generate the span's
    module."""
    rows = []
    parts = partitions_of(basis.n)
    for b in basis.elements:
        row = []
        for bi, la in enumerate(parts):
            w = block_vectors[tuple(la)]
            row.extend(b.blocks[bi].apply_vec(w))
        rows.append(row)
    return rank(rows) == basis.dim
