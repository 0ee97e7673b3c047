"""Wronskian utilities, span machinery, the cyclic-element certificate
against its exact oracles (closure, commutant, Fraction charpolys), joint
eigenanalysis, fiber reconstruction, cyclic vectors, and the exact chordal
distance against a float principal-angle oracle."""

import math
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from helpers import (
    annihilator_oracle,
    annihilator_residual,
    block_entries,
    block_rows,
    coeff_uv,
    echelon_polys,
    float_fiber_loop,
    from_entries,
    gz_spanning_set,
    homogeneous_eigen,
    homogeneous_f_from_record,
    identity_rows,
    joint_eigen,
    kernel_column_oracle,
    matmul,
    poly_gcd,
    reconstruct_subspace,
    theta_membership_residual,
    v_coeff,
)
from snbethe import suites
from snbethe.rings import MultiPoly, SeededRandom, UPoly
from snbethe.linalg import rank
from snbethe.permutations import (
    GroupAlgebraElement,
    all_permutations,
    ga_perm,
    ga_transposition,
)
from snbethe.reps import (
    BlockMatrix,
    block_shapes,
    central_idempotent,
    dimension,
    partitions_of,
    represent,
    sum_of_dims,
)
from snbethe.gaudin import jm_elements, kz_elements, phi_polys
from snbethe.homogeneous import gamma_perm, homogeneous_generators
from snbethe.xxx import t_m_poly, t_m_table, xxx_params
from snbethe.suites import STEEP, Builds, contracts, gaudin_span, gz_span, span_of
from snbethe.spectra import (
    CERT_DRAWS,
    SpanBasis,
    _krylov_relation,
    algebra_span,
    annihilate,
    casorati,
    check_O_relations,
    certificate,
    chordal_distance,
    cyclic_vector,
    f_bivariate,
    kernel_degrees,
    linear_span,
    symmetric_action_on_poly,
    wronskian,
)

F = Fraction


def P(*cs):
    return UPoly([F(c) for c in cs])


def test_wronskian_examples():
    assert wronskian([P(1), P(0, 1)]) == P(1)
    # Wr[u, u^2] = det([[u, u^2], [1, 2u]]) = u^2
    assert wronskian([P(0, 1), P(0, 0, 1)]) == P(0, 0, 1)
    assert wronskian([P(1, 2, 3), P(1, 2, 3)]) == UPoly()


def test_casorati_examples():
    hb = F(1)
    assert casorati([P(1), P(0, 1)], hb) == P(-1)
    assert casorati([P(3, 1), P(3, 1)], F(2)) == UPoly()
    # three-element shift determinant: the Vandermonde of the shifts 0,-1,-2
    c = casorati([P(1), P(0, 1), P(0, 0, 1)], hb)
    assert c.degree == 0 and c.coeffs[0] == F(-2)
    with pytest.raises(ValueError):
        casorati([P(1)], F(0))


def test_f_bivariate_discrete_kernel():
    rng = SeededRandom(3)
    fs = [
        UPoly([rng.rational(4, 2) for _ in range(2)] + [F(1)]),
        UPoly([rng.rational(4, 2) for _ in range(4)] + [F(1)]),
    ]
    Fb = f_bivariate(fs, F(1), "discrete")
    for f in fs:
        assert annihilator_residual(Fb, f, F(1), "discrete") == 0
    combo = fs[0] * F(2, 3) - fs[1] * F(5)
    assert annihilator_residual(Fb, combo, F(1), "discrete") == 0
    outside = P(1, 1, 0, 0, 0, 7)
    assert annihilator_residual(Fb, outside, F(1), "discrete") != 0


def test_f_bivariate_differential_kernel():
    fs = [P(3, 1), P(-1, 0, 0, 1)]
    Fb = f_bivariate(fs, F(1), "differential")
    for f in fs:
        assert annihilator_residual(Fb, f, F(1), "differential") == 0
    assert annihilator_residual(Fb, P(0, 0, 1), F(1), "differential") != 0


def test_f_bivariate_degree_structure():
    fs = [P(1, 1), P(2, 0, 1), P(0, 1, 0, 1)]
    Fb = f_bivariate(fs, F(1), "discrete")
    assert max(c.degree for c in Fb.coeffs) == 3  # the v-degree
    # the top v-coefficient is the signed shifted Casorati of the basis
    top = v_coeff(Fb, 3)
    assert top == casorati(fs, F(1)).shift_arg(F(-1)) * F((-1) ** 3)


def test_check_O_relations_rank_one():
    # m = n = 1, partition (1): the relation forces f = u - a1
    a1 = F(5)
    rep = check_O_relations((1,), [a1], [P(-5, 1)], "differential")
    assert rep["ok"]
    rep = check_O_relations((1,), [a1], [P(3, 1)], "differential")
    assert rep["wronskian_residual"] != 0


def test_check_O_relations_gap_constraints():
    # lambda = (2, 0), m = 2: f_2 must omit the coefficient of u^{lambda_1 + m - 1 - ...}
    la = (2,)
    fs = [P(0, 0, 0, 1), P(0, 1)]  # degrees 3 and 1? degree pattern for (2,0): 3, 0
    rep = check_O_relations(la, [F(0), F(0)], fs, "differential")
    assert rep["degree_violations"]


def test_unknown_variants_raise():
    # an unknown name is refused, not read as "discrete"; "general" and
    # "homogeneous" were once names of the discrete variant
    fs = [P(3, 1), P(-1, 0, 0, 1)]
    Fb = f_bivariate(fs)
    for call in (
        lambda v: f_bivariate(fs, F(1), v),
        lambda v: annihilate(Fb, P(1, 1), F(1), v),
        lambda v: annihilator_residual(Fb, P(1, 1), F(1), v),
        lambda v: check_O_relations((1, 1), [F(0), F(0)], fs, v),
        lambda v: reconstruct_subspace(Fb.map_coeffs(lambda c: c.map_coeffs(float)),
                                       2, degree_bound=3, variant=v),
        lambda v: cyclic_vector((1,), (F(5),), v),
    ):
        for name in ("bogus", "general", "homogeneous"):
            with pytest.raises(ValueError, match="unknown variant"):
                call(name)


@pytest.mark.parametrize("variant", ["discrete", "differential"])
@pytest.mark.parametrize("hbar", [F(1), F(2, 3)])
def test_annihilate_matches_the_loop_and_the_hand_expanded_column(variant, hbar):
    rng = SeededRandom(61)
    for size in (1, 2, 3):
        fs = [UPoly([rng.rational(4, 3) for _ in range(rng.integer(0, 3) + i)] + [F(1)])
              for i in range(size)]
        Fb = f_bivariate(fs, hbar, variant)
        assert Fb
        for f in fs + [P(1, 1, 0, 0, 0, 7), fs[0] * F(2, 3) + P(0, 1)]:
            assert annihilate(Fb, f, hbar, variant) == annihilator_oracle(Fb, f, hbar, variant)
        for f in fs:
            assert not annihilate(Fb, f, hbar, variant)
        for d in range(5):
            monomial = UPoly([F(0)] * d + [F(1)])
            assert (annihilate(Fb, monomial, hbar, variant)
                    == kernel_column_oracle(Fb, d, hbar, variant))


def test_intro_example_span_n3():
    z = (F(0), F(1), F(3))
    _, table = phi_polys(3, z)
    span = algebra_span([represent(g) for g in table.values()])
    assert span.dim == 4
    one = GroupAlgebraElement.scalar(3, F(1))
    s12, s13, s23 = (
        ga_transposition(3, 1, 2),
        ga_transposition(3, 1, 3),
        ga_transposition(3, 2, 3),
    )
    explicit = [
        one,
        s12 + s13 + s23,
        s12 * s23 + s23 * s12,
        s23 * z[0] + s13 * z[1] + s12 * z[2],
    ]
    assert span.same_span(linear_span([represent(g) for g in explicit]))


def test_intro_example_span_n3_deformed():
    z = (F(0), F(1), F(3))
    hb = F(1)
    pr = xxx_params(z, hb)
    gens = []
    for m in (1, 2):
        poly = t_m_poly(pr, m, p=F(2))
        for i in range(1, 4):
            c = poly.coeff(3 - i)
            gens.append(
                represent(c if isinstance(c, GroupAlgebraElement)
                          else GroupAlgebraElement.scalar(3, c))
            )
    span = algebra_span(gens)
    assert span.dim == 4
    one = GroupAlgebraElement.scalar(3, F(1))
    s12, s13, s23 = (
        ga_transposition(3, 1, 2),
        ga_transposition(3, 1, 3),
        ga_transposition(3, 2, 3),
    )
    explicit = [
        one,
        s12 + s13 + s23,
        s12 * s23 + s23 * s12,
        s23 * z[0] + s13 * z[1] + s12 * z[2] - s12 * s23 * hb,
    ]
    assert span.same_span(linear_span([represent(g) for g in explicit]))


def oracle_reduce(rows, pivots, vec):
    v = list(vec)
    for row, piv in zip(rows, pivots):
        if v[piv]:
            f = v[piv]
            v = [x - f * y for x, y in zip(v, row)]
    return v


def oracle_span(mats):
    """The span echelon as first written, over the rationals: (accepted,
    rows, pivots), each row 1 at its pivot and 0 at every other pivot."""
    accepted, rows, pivots = [], [], []
    for bm in mats:
        v = oracle_reduce(rows, pivots, block_entries(bm))
        piv = next((i for i, x in enumerate(v) if x), None)
        accepted.append(piv is not None)
        if piv is None:
            continue
        inv = Fraction(1) / v[piv]
        v = [x * inv for x in v]
        for i, row in enumerate(rows):
            if row[piv]:
                f = row[piv]
                rows[i] = [x - f * y for x, y in zip(row, v)]
        rows.append(v)
        pivots.append(piv)
    return accepted, rows, pivots


def random_block_matrix(rng, n):
    return from_entries(n, [rng.rational(9, 4) for _, k in block_shapes(n)
                            for _ in range(k * k)])


def combination(rng, mats):
    acc = mats[0] * rng.rational(5, 3)
    for m in mats[1:]:
        acc = acc + m * rng.rational(5, 3)
    return acc


def echelon_elements(sb):
    """The span's echelon rows as block matrices: a basis of the span."""
    return [from_entries(sb.n, row) for row in sb.echelon.rows]


def assert_matches_oracle(mats, probes=()):
    """SpanBasis against the Fraction echelon: same answers from add, same
    pivots, integer rows that are primitive positive multiples of the
    oracle rows, and the same membership."""
    sb = SpanBasis(mats[0].n)
    got = [sb.add(m) for m in mats]
    accepted, rows, pivots = oracle_span(mats)
    assert got == accepted
    assert sb.dim == len(rows) == sum(accepted)
    assert sb.echelon.pivots == pivots
    for irow, frow, p in zip(sb.echelon.rows, rows, pivots):
        assert all(type(x) is int for x in irow)
        assert irow[p] > 0 and math.gcd(*irow) == 1
        assert [irow[p] * x for x in frow] == irow
    for m in [*mats, *probes]:
        want = not any(oracle_reduce(rows, pivots, block_entries(m)))
        assert sb.contains(m) == want
    return sb


@pytest.mark.parametrize("n", [3, 4])
def test_span_basis_matches_fraction_oracle(n):
    rng = SeededRandom(2027 + n)
    for rank in (1, 3, 5):
        base = [random_block_matrix(rng, n) for _ in range(rank)]
        # dependent vectors: combinations of the base, zero, and duplicates
        mats = base + [combination(rng, base) for _ in range(4)]
        mats += [BlockMatrix.identity(n) * 0, base[0] * F(-7, 3)]
        probes = [random_block_matrix(rng, n) for _ in range(3)]
        probes += [combination(rng, base) for _ in range(3)]
        sb = assert_matches_oracle(mats, probes)
        assert sb.dim == rank
        other = linear_span(list(reversed(mats)))
        assert sb.same_span(other) and other.same_span(sb)
        assert sb.same_span(linear_span([rng.choice(mats) for _ in mats] + base))
        if rank > 1:
            assert not sb.same_span(linear_span(base[1:]))
            assert not sb.same_span(linear_span(base[1:] + [probes[0]]))


@pytest.mark.parametrize("n, gens", [
    # steep parameters: extreme dynamic range in the raw elements
    (3, lambda: phi_polys(3, (F(1), F(10**4), F(10**8)))[1].values()),
    (3, lambda: phi_polys(3, (F(1), F(10**6), F(10**12)))[1].values()),
    (3, lambda: phi_polys(3, (F(0), F(1, 7), F(-5, 3)))[1].values()),
    (4, lambda: homogeneous_generators(4)),
])
def test_span_basis_matches_oracle_on_closures(n, gens):
    gens = [represent(g) for g in gens()]
    span = algebra_span(gens)
    assert span.dim == sum_of_dims(n)
    # the raw closure products, not the reduced echelon rows, go through the
    # elimination that is compared with the oracle
    _, elements = oracle_algebra_span(gens)
    probes = [represent(ga_perm(p)) for p in all_permutations(n)[:8]]
    sb = assert_matches_oracle(elements, probes)
    assert sb.same_span(span)


def test_center_span_dimension():
    for n in (3, 4, 5):
        z = tuple(F(k * k) for k in range(n))
        _, table = phi_polys(n, z)
        ctr = algebra_span([represent(table[(i, 0)]) for i in range(1, n + 1)])
        assert ctr.dim == len(partitions_of(n))


def test_identity_span():
    span = algebra_span([BlockMatrix.identity(3)])
    assert span.dim == 1


def oracle_algebra_span(generators):
    """The closure algebra_span replaced: every element that enters is
    multiplied by every basis element, on both sides, until nothing new
    enters.  Returns the span and the raw elements it accepted."""
    n = generators[0].n
    sb = SpanBasis(n)
    sb.add(BlockMatrix.identity(n))
    queue = [g for g in generators if sb.add(g)]
    elements = [BlockMatrix.identity(n)] + queue
    while queue:
        new = queue.pop()
        for other in list(elements):
            for prod in (new * other, other * new):
                if sb.add(prod):
                    queue.append(prod)
                    elements.append(prod)
    return sb, elements


def family_generators(family, n):
    z = tuple(F(v) for v in (0, 1, 3, 7)[:n])
    if family == "gaudin":
        gens = phi_polys(n, z)[1].values()
    elif family == "xxx":
        p = F(2)
        gens = t_m_table(xxx_params(z, F(1)), p, range(1, n), range(1, n + 1)).values()
    elif family == "homogeneous":
        gens = homogeneous_generators(n)
    elif family == "gz":
        gens = gz_spanning_set(n)
    else:
        # the whole group algebra, from two noncommuting generators
        gens = [ga_transposition(n, 1, 2), ga_perm(gamma_perm(n))]
    return [represent(g) for g in gens]


def assert_closure_matches_oracle(gens):
    got, (want, _) = algebra_span(gens), oracle_algebra_span(gens)
    assert got.dim == want.dim
    assert got.same_span(want) and want.same_span(got)
    return got


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("family", ["gaudin", "xxx", "homogeneous", "gz", "group"])
def test_algebra_span_matches_all_pairs_oracle(family, n):
    span = assert_closure_matches_oracle(family_generators(family, n))
    if family == "group":
        assert span.dim == math.factorial(n)
    else:
        assert span.dim == sum_of_dims(n)


@pytest.mark.parametrize("n", [3, 4])
def test_algebra_span_identity_and_dependent_generators(n):
    one = BlockMatrix.identity(n)
    for family in ("homogeneous", "group"):
        gens = family_generators(family, n)
        a, b = gens[0], gens[1]
        dependent = one * F(5) + a * F(-2, 3) + b * F(7)
        want = algebra_span(gens)
        for variant in ([one] + gens, gens + [one], [dependent] + gens,
                        gens + [dependent], [a, dependent] + gens[2:]):
            got = assert_closure_matches_oracle(variant)
            assert got.same_span(want)
    assert algebra_span([one]).dim == algebra_span([one * F(3)]).dim == 1


def oracle_commutant_dim(basis: SpanBasis) -> int:
    """Dimension of the commutant of the span inside the full block algebra,
    block by block: the rank of the commutator map on each block."""
    elements = echelon_elements(basis)
    total = 0
    for bi, la in enumerate(partitions_of(basis.n)):
        d = dimension(la)
        rows = []
        for b in elements:
            B = block_rows(b)[bi]
            for i in range(d):
                for j in range(d):
                    row = [Fraction(0)] * (d * d)
                    for k in range(d):
                        row[i * d + k] += B[k][j]
                        row[k * d + j] -= B[i][k]
                    rows.append(row)
        total += d * d - rank(rows)
    return total


def oracle_charpoly(mat: list) -> UPoly:
    """det(xI - M), exact over the rationals (Faddeev-LeVerrier), for M given
    as Fraction rows."""
    d = len(mat)

    def trace(m):
        return sum(m[i][i] for i in range(d))

    coeffs = [Fraction(1)]  # of x^d, then x^{d-1}, ...
    c = trace(mat)
    coeffs.append(-c)
    Mk = mat
    for k in range(2, d + 1):
        Mk = matmul(mat, [[a - c * (i == j) for j, a in enumerate(row)]
                          for i, row in enumerate(Mk)])
        c = trace(Mk) / k
        coeffs.append(-c)
    return UPoly(list(reversed(coeffs)))


def oracle_chi(x: BlockMatrix) -> UPoly:
    """The product of the exact charpolys of the blocks."""
    chi = UPoly([Fraction(1)])
    for block in block_rows(x):
        chi = chi * oracle_charpoly(block)
    return chi


def mod_p(q: Fraction, p: int) -> int:
    return q.numerator * pow(q.denominator, -1, p) % p


def unital(n, elements):
    return [BlockMatrix.identity(n)] + [represent(g) for g in elements]


def test_oracle_charpoly_examples():
    assert oracle_charpoly([[F(2), F(1)], [F(0), F(3)]]) == P(6, -5, 1)
    assert oracle_charpoly([[F(0), F(-1)], [F(1), F(0)]]) == P(1, 0, 1)
    assert oracle_charpoly(identity_rows(3)) == P(-1, 3, -3, 1)


@pytest.mark.parametrize("n", [3, 4])
def test_commutant_examples(n):
    z = tuple(F(v) for v in (0, 1, 3, 7)[:n])
    _, table = phi_polys(n, z)
    gens = unital(n, table.values())
    span = algebra_span(gens)
    assert span.dim == sum_of_dims(n)
    assert oracle_commutant_dim(span) == span.dim  # maximal commutative
    assert certificate(gens, 5)["cyclic"]
    # the centre: each block is a scalar, so no element of it is cyclic
    center = unital(n, [table[(i, 0)] for i in range(1, n + 1)])
    assert oracle_commutant_dim(algebra_span(center)) == math.factorial(n)
    cert = certificate(center, 5)
    assert not cert["cyclic"] and cert["degree"] == len(partitions_of(n))
    idempotents = unital(n, [central_idempotent(la, n) for la in partitions_of(n)])
    assert not certificate(idempotents, 5)["cyclic"]
    full = algebra_span([represent(ga_perm(p)) for p in all_permutations(n)])
    assert oracle_commutant_dim(full) == len(partitions_of(n))


def test_coincidence_pair_and_triple():
    pair = phi_polys(4, (F(0), F(0), F(1), F(3)))[1].values()
    span_pair = algebra_span(unital(4, pair))
    assert oracle_commutant_dim(span_pair) == span_pair.dim
    assert certificate(unital(4, pair), 5)["cyclic"]
    triple = phi_polys(4, (F(0), F(0), F(0), F(1)))[1].values()
    span_triple = algebra_span(unital(4, triple))
    assert oracle_commutant_dim(span_triple) > span_triple.dim
    cert = certificate(unital(4, triple), 5)
    assert not cert["cyclic"] and not cert["squarefree"]
    # the triple argument (s(1,2) and s(2,3) commute with every generator)
    # cannot fire on the pair: s(2,3) moves the third, unpaired symbol
    s23 = ga_transposition(4, 2, 3)
    assert any(s23 * g != g * s23 for g in pair)


def test_certificates():
    cert = certificate(unital(3, homogeneous_generators(3)), 12345)
    assert cert["cyclic"] and cert["squarefree"] and cert["draws"] == 1
    assert cert["degree"] == len(cert["chi"]) - 1 == 4
    assert cert["prime"] == 2**61 - 1
    # real-parameter certificate at n = 4
    gens = unital(4, phi_polys(4, (F(0), F(1), F(3), F(7)))[1].values())
    assert certificate(gens, 999)["squarefree"]


def test_certificate_never_certifies_a_noncommuting_family():
    # one transposition added: it does not commute with the family, so the
    # first draw ends the certificate
    z = (F(0), F(1), F(3), F(7))
    gens = unital(4, phi_polys(4, z)[1].values()) + [represent(ga_transposition(4, 1, 2))]
    for seed in (1, 2, 3):
        cert = certificate(gens, seed)
        assert not cert["cyclic"] and not cert["squarefree"] and cert["draws"] == 1


def test_certificate_rejects_proper_subalgebras():
    # the Jucys-Murphy elements generate the Gelfand-Zetlin algebra; without
    # the last one they generate a proper subalgebra
    jm = jm_elements(4)
    assert certificate(unital(4, jm), 3)["squarefree"]
    cert = certificate(unital(4, jm[:-1]), 3)
    assert not cert["cyclic"] and cert["draws"] == CERT_DRAWS
    assert certificate(unital(4, gz_spanning_set(4)), 3)["squarefree"]


def test_certificate_cyclic_without_simple_spectrum():
    # the deformed family at a pair of pairs one hbar apart: A = Q[x] for a
    # cyclic x, but no element of A is squarefree
    gens = unital(4, t_m_table(xxx_params((F(0), F(0), F(1), F(1)), F(1)), F(2),
                               range(1, 4), range(1, 5)).values())
    cert = certificate(gens, 11)
    assert cert["cyclic"] and not cert["squarefree"] and cert["draws"] == CERT_DRAWS
    assert not oracle_squarefree(oracle_chi(cert["element"]))


def test_certificate_n1():
    # B = Q: the identity alone generates it
    cert = certificate([BlockMatrix.identity(1)], 1)
    assert cert["cyclic"] and cert["squarefree"] and cert["degree"] == 1


def test_krylov_relation_is_empty_when_p_divides_the_denominator():
    # blocks (1/3), [[1, 2], [0, 1]] and (1): the entry 1/3 makes d = 3, so x
    # has no image mod 3; mod 5 the chain of v stops at the minimal
    # polynomial (x - 1/3)(x - 1)^2
    x = from_entries(3, [F(1, 3), 1, 2, 0, 1, 1])
    assert x.d == 3
    v = [1, 2, 3, 4]
    assert _krylov_relation(x, v, 3) == ()
    assert _krylov_relation(x * 2, v, 3) == ()
    want = (F(-1, 3), F(5, 3), F(-7, 3), F(1))
    assert _krylov_relation(x, v, 5) == tuple(mod_p(c, 5) for c in want)


def oracle_squarefree(f: UPoly) -> bool:
    """gcd(f, f') over the rationals is constant."""
    return poly_gcd(f, f.deriv()).degree == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_mod_p_chi_is_the_exact_charpoly_product(n):
    z = tuple(F(v) for v in (0, 1, 3, 7, 12)[:n])
    families = [phi_polys(n, z)[1].values(), homogeneous_generators(n)]
    if n <= 4:
        families += [gz_spanning_set(n), t_m_table(xxx_params(z, F(1, 2)), F(2),
                                                   range(1, n), range(1, n + 1)).values()]
    for elements in families:
        cert = certificate(unital(n, elements), 21)
        assert cert["squarefree"]
        want = oracle_chi(cert["element"])
        assert cert["chi"] == tuple(mod_p(c, cert["prime"]) for c in want.coeffs)


SWEEP = [
    # (n, z, hbar): distinct, pairs, pairs one hbar apart, a triple, and z
    # that are not hbar-separated
    (3, (0, 1, 3), 1), (3, (0, 0, 1), 1), (3, (0, 1, 2), 1), (3, (0, 0, 0), 1),
    (3, (0, 0, 1), F(1, 2)), (3, (2, 1, 0), -1),
    (4, (0, 1, 3, 7), 1), (4, (0, 0, 1, 3), 1), (4, (0, 0, 1, 1), 1),
    (4, (0, 1, 2, 3), 1), (4, (0, 0, 0, 1), 1), (4, (0, 1, 1, 2), F(1, 2)),
    (4, (0, 0, 1, 1), 2), (4, (3, 2, 1, 0), -1), (4, (0, 0, 2, 2), 2),
]


@pytest.mark.parametrize("n, z, hbar", SWEEP)
def test_certificate_matches_the_exact_oracles(n, z, hbar):
    z, hbar = tuple(F(v) for v in z), F(hbar)
    families = [phi_polys(n, z)[1].values(),
                t_m_table(xxx_params(z, hbar), F(2), range(1, n), range(1, n + 1)).values()]
    for elements in families:
        gens = unital(n, elements)
        span = algebra_span(gens)
        maximal = span.dim == sum_of_dims(n) and oracle_commutant_dim(span) == span.dim
        cert = certificate(gens, 4)
        assert cert["cyclic"] == maximal
        assert cert["squarefree"] == oracle_squarefree(oracle_chi(cert["element"]))


def test_certificate_draws_again_and_eigen_reuses_it():
    # at seed 169 the first element drawn in the homogeneous algebra at n = 4
    # is not squarefree; the certificate draws again from its stream
    gens = homogeneous_generators(4)
    cert = certificate(unital(4, gens), 169)
    assert cert["squarefree"] and cert["draws"] == 2
    named = {f"G{k}": represent(g) for k, g in enumerate(gens)}
    recs = joint_eigen(cert, named)
    assert len(recs) == sum_of_dims(4)
    # the eigenvectors are those of the certified element
    parts = partitions_of(4)
    for rec in recs:
        block = block_rows(cert["element"])[parts.index(rec.partition)]
        M = np.array([[float(x) for x in row] for row in block])
        v = rec.vector
        mu = np.conj(v) @ (M @ v)
        assert np.linalg.norm(M @ v - mu * v) < 1e-8 * max(1.0, np.abs(M).max())
    # an element that is not squarefree is no witness
    with pytest.raises(ValueError):
        joint_eigen(certificate(unital(4, jm_elements(4)[:-1]), 3), named)


def test_joint_eigen_rounds_each_entry_once():
    # the numerator 2^53 + 5 is no float: read as one first it becomes
    # 2^53 + 4, whose third rounds to a float other than that of (2^53 + 5) / 3
    x = BlockMatrix(1, 3, [[2**53 + 5]])
    recs = joint_eigen({"squarefree": True, "element": x}, {"x": x})
    assert recs[0].eigenvalues["x"] == float(F(2**53 + 5, 3)) == 3002399751580332.5
    assert float(2**53 + 5) / 3 == 3002399751580332.0
    # the certified element's own block: its eigenvectors are those of the
    # correctly rounded entries, and rounding the numerators first moves them
    blk = [2**53 + 5, 1, 0, 1]
    y = BlockMatrix(3, 3, [[1], blk, [2]])
    recs = joint_eigen({"squarefree": True, "element": y}, {"y": y})
    _, vecs = np.linalg.eig(np.array([float(F(v, 3)) for v in blk]).reshape(2, 2))
    _, twice = np.linalg.eig((np.array(blk, dtype=float) / 3).reshape(2, 2))
    assert not np.array_equal(vecs, twice)
    assert [rec.partition for rec in recs[1:3]] == [(2, 1)] * 2
    for col, rec in enumerate(recs[1:3]):
        assert np.array_equal(rec.vector, vecs[:, col] / np.linalg.norm(vecs[:, col]))


def test_joint_eigen_n2_homogeneous_values():
    # two eigenvectors: symmetric and antisymmetric; the bivariate eigenvalues
    # are u^2(v-1)^2 - (2u+1)(v-1) and u^2(v-1)^2 - (2u-1)(v-1) + 2
    gens = {"g2": represent(homogeneous_generators(2)[0])}
    cert = certificate(unital(2, homogeneous_generators(2)), 777)
    assert cert["squarefree"]
    recs = joint_eigen(cert, gens)
    assert len(recs) == 2
    by_partition = {rec.partition: rec for rec in recs}
    assert by_partition[(2,)].eigenvalues["g2"] == pytest.approx(1.0)
    assert by_partition[(1, 1)].eigenvalues["g2"] == pytest.approx(-1.0)
    # sigma -> +1: u^2 w^2 - (2u+1)w;  sigma -> -1: u^2 w^2 - (2u-1)w + 2
    expected = {
        (2,): {(1, 1): -2.0, (0, 1): -1.0, (0, 0): 0.0},
        (1, 1): {(1, 1): -2.0, (0, 1): 1.0, (0, 0): 2.0},
    }
    for rec in homogeneous_eigen(Builds(), 2, 777):
        Fb = homogeneous_f_from_record(2, rec)
        # shared leading data and block-specific lower coefficients
        assert complex(coeff_uv(Fb, 2, 2)).real == pytest.approx(1.0)
        shifted = Fb.map_coeffs(lambda c: c.shift_arg(1))  # in u and w = v - 1
        for (i, j), val in expected[rec.partition].items():
            got = complex(coeff_uv(shifted, i, j))
            assert got.real == pytest.approx(val, abs=1e-9)
            assert got.imag == pytest.approx(0.0, abs=1e-9)


def test_joint_eigen_counts_and_h_sum():
    for n in (3, 4):
        z = tuple(F(v) for v in (0, 1, 3, 7)[:n])
        fam = kz_elements(n, z, phi_polys(n, z)[0])
        gens = {f"H{a}": represent(h) for a, h in enumerate(fam, start=1)}
        cert = certificate(unital(n, phi_polys(n, z)[1].values()), 424242)
        assert cert["squarefree"]
        recs = joint_eigen(cert, gens)
        assert len(recs) == sum_of_dims(n)
        for rec in recs:
            total = sum(rec.eigenvalues[f"H{a}"] for a in range(1, n + 1))
            assert abs(total) < 1e-9  # the family sums to zero


@pytest.mark.parametrize("images", ["kz_images", "t_images"])
def test_eigen_count_fails_on_an_image_that_does_not_commute(monkeypatch, images):
    # the exact eigen-count reads every generator image it used to count
    # eigenvectors of; s_1 = (1 2) commutes with neither certified element
    from snbethe import cli, suites

    cfg = cli.config_from_args(cli.build_parser().parse_args(["run", "spectra", "--n", "3"]))
    assert suites.spectra_eigen_count(cfg, None, Builds()) is True
    real = getattr(suites, images)
    s1 = represent(ga_transposition(3, 1, 2))
    monkeypatch.setattr(suites, images, lambda *args: {**real(*args), "s1": s1})
    assert suites.spectra_eigen_count(cfg, None, Builds()) is False


def fiber_cfg(n: int, seed: int = 20260801):
    from snbethe import cli

    return cli.config_from_args(cli.build_parser().parse_args(
        ["run", "spectra", "--n", str(n), "--seed", str(seed)]))


# Perturbations of the homogeneous table T[(m, i)], the coefficient of
# u^(n-i) in T_m: a central T_1 coefficient leaves no kernel in degree 0 on
# the blocks that want one, and a T_n coefficient moves T_n(u) off (u + 1)^n.
TABLE_PERTURBATIONS = {
    "T1 central": lambda n, table: {**table, (1, 2): table[(1, 2)] + 1},
    "Tn": lambda n, table: {**table, (n, 1): table[(n, 1)] + 1},
}


def perturb(monkeypatch, perturbation):
    """Patch the suite's homogeneous builders with one perturbation: a table
    entry, or "image", an image s_1 = (1 2) that does not commute with x."""
    from snbethe import suites

    if perturbation == "image":
        real = suites.t_images
        monkeypatch.setattr(suites, "t_images", lambda b, n: {
            **real(b, n), "s1": represent(ga_transposition(n, 1, 2))})
    elif perturbation is not None:
        real = suites.t_table
        monkeypatch.setattr(suites, "t_table", lambda b, n: TABLE_PERTURBATIONS[
            perturbation](n, real(b, n)))


@pytest.mark.parametrize("perturbation", ["T1 central", "Tn", "image"])
def test_fiber_loop_fails_on_a_perturbation(monkeypatch, capsys, perturbation):
    import json

    from snbethe import cli, spectra, suites

    perturb(monkeypatch, perturbation)
    assert cli.main(["run", "spectra", "--n", "4", "--format", "json"]) == 1
    record = next(c for c in json.loads(capsys.readouterr().out)["checks"]
                  if c["check"] == "spectra.fiber-loop")
    assert (record["status"], record["residual"]) == ("FAIL", "1/1")
    if perturbation != "T1 central":
        # Abel's check and the commutation check see theirs before any kernel
        def refuse(*args):
            raise AssertionError("the kernel was read")

        monkeypatch.setattr(spectra, "kernel_degrees", refuse)
        assert suites.spectra_fiber_loop(fiber_cfg(3), None, Builds()) is False


@pytest.mark.parametrize("perturbation", [None, "T1 central", "Tn"])
@pytest.mark.parametrize("seed", [20260801, 1, 7])
def test_fiber_loop_agrees_with_the_float_oracle(monkeypatch, seed, perturbation):
    from snbethe import suites

    perturb(monkeypatch, perturbation)
    b = Builds()
    for n in (3, 4):
        exact = suites.spectra_fiber_loop(fiber_cfg(n, seed), None, b)
        assert exact is float_fiber_loop(b, n, seed) is (perturbation is None)


def test_fiber_loop_names_its_cap(capsys):
    import json

    from snbethe import cli

    assert cli.main(["run", "spectra", "--n", "2", "--format", "json"]) == 0
    record = next(c for c in json.loads(capsys.readouterr().out)["checks"]
                  if c["check"] == "spectra.fiber-loop")
    assert (record["status"], record["detail"], record["params"]) == (
        "SKIPPED", "needs 3 <= n <= 5", {"n": 2})


def test_fiber_loop_keeps_the_uncertified_error(monkeypatch):
    from snbethe import suites

    monkeypatch.setattr(suites, "certificate", lambda b, n, elements, seed: {
        "squarefree": False, "element": None})
    with pytest.raises(ValueError, match="simple spectrum not certified"):
        suites.spectra_fiber_loop(fiber_cfg(3), None, Builds())


def test_kernel_degrees_read_each_eigenline():
    # one line (n = 1) with the kernel spanned by polynomials of degrees 1
    # and 3, read up to degree 4 and up to degree 2
    u = UPoly.gen()
    lines = [f_bivariate([P(3, 1), P(-1, 0, 0, 1)]), f_bivariate([P(2), P(0, 0, 0, 1)])]
    images = [[annihilate(F, u ** d) for d in range(5)] for F in lines]
    one = [[from_entries(1, [c]) for c in image.coeffs] for image in images[0]]
    assert sorted(kernel_degrees(one, 0, 1)) == [1, 3]
    assert kernel_degrees(one[:3], 0, 1) == [1]
    # two lines on the block (2, 1) of S_3, the operator diagonal there, with
    # kernel degrees 1, 3 and 0, 3
    two = []
    for a, c in zip(*images):
        size = max(a.degree, c.degree) + 1
        two.append([from_entries(3, [0, a.coeff(j), 0, 0, c.coeff(j), 0])
                    for j in range(size)])
    assert sorted(kernel_degrees(two, 1, 2)) == [0, 1, 3, 3]


def test_reconstruction_roundtrip():
    fs = [P(3, 1), P(-1, 0, 0, 1)]
    Fb = f_bivariate(fs, F(1), "discrete").map_coeffs(lambda c: c.map_coeffs(float))
    basis = reconstruct_subspace(Fb, 2, degree_bound=3, hbar=1.0, variant="discrete")
    assert len(basis) == 2
    assert sorted(p.degree for p in basis) == [1, 3]
    for p in basis:
        assert annihilator_residual(Fb, p, 1.0, "discrete") < 1e-8


def test_reconstruction_differential_roundtrip():
    fs = [P(1, 1), P(0, -2, 0, 1)]
    Fb = f_bivariate(fs, F(1), "differential").map_coeffs(lambda c: c.map_coeffs(float))
    basis = reconstruct_subspace(
        Fb, 2, degree_bound=3, hbar=1.0, variant="differential"
    )
    assert len(basis) == 2
    for p in basis:
        assert annihilator_residual(Fb, p, 1.0, "differential") < 1e-8


def test_echelon_polys_degrees():
    basis = echelon_polys([P(1, 1, 1), P(1, 1), P(0, 1)])
    assert [p.degree for p in basis] == [2, 1, 0]


def test_cyclic_vector_trivial_and_sign():
    coords, value = cyclic_vector((1,), (F(5),), "classic")
    assert coords[0].terms == {(0,): F(1)}
    coords, value = cyclic_vector((3,), (F(0), F(1), F(3)), "classic")
    assert coords[0].terms == {(0, 0, 0): F(1)}
    coords, value = cyclic_vector((1, 1), (F(0), F(1)), "classic")
    terms = coords[0].terms
    assert set(terms) == {(1, 0), (0, 1)}
    assert terms[(1, 0)] == -terms[(0, 1)]


def test_deformed_action_is_an_action():
    rng = SeededRandom(63)
    hb = F(1, 2)
    n = 4
    for _ in range(5):
        q = MultiPoly(
            n,
            {
                tuple(rng.integer(0, 2) for _ in range(n)): rng.rational(5, 2)
                for _ in range(3)
            },
        )
        for i in range(n - 1):
            assert symmetric_action_on_poly(
                symmetric_action_on_poly(q, i, hb), i, hb
            ) == q
        for i in range(n - 2):
            aba = symmetric_action_on_poly(
                symmetric_action_on_poly(symmetric_action_on_poly(q, i, hb), i + 1, hb),
                i, hb,
            )
            bab = symmetric_action_on_poly(
                symmetric_action_on_poly(symmetric_action_on_poly(q, i + 1, hb), i, hb),
                i + 1, hb,
            )
            assert aba == bab
        for i in range(n - 3):
            ab = symmetric_action_on_poly(
                symmetric_action_on_poly(q, i, hb), i + 2, hb
            )
            ba = symmetric_action_on_poly(
                symmetric_action_on_poly(q, i + 2, hb), i, hb
            )
            assert ab == ba


def cyclicity_verdict(basis: SpanBasis, block_vectors: dict) -> bool:
    """True iff mapping every span element to the tuple of its block images of
    the given vectors is injective, i.e. the vectors generate the span's
    module; the map is linear, so it is applied to the echelon rows."""
    vectors = [block_vectors[la] for la in partitions_of(basis.n)]
    rows = []
    for r in basis.echelon.rows:
        blocks = block_rows(from_entries(basis.n, r))
        rows.append([sum(map(mul, br, w)) for b, w in zip(blocks, vectors) for br in b])
    return rank(rows) == basis.dim


@pytest.mark.parametrize("variant,hbar", [("classic", F(1)), ("hbar", F(1, 2))])
def test_cyclic_vector_degrees_and_cyclicity(variant, hbar):
    n = 3
    z = (F(0), F(1), F(3))
    vectors = {}
    for la in partitions_of(n):
        coords, value = cyclic_vector(la, z, variant, hbar)
        deg = max((sum(e) for c in coords for e in c.terms), default=0)
        assert deg == sum((i - 1) * part for i, part in enumerate(la, start=1))
        vectors[la] = value
    span = algebra_span([represent(g) for g in phi_polys(n, z)[1].values()])
    assert cyclicity_verdict(span, vectors)
    # a zero vector in one block: the span's central idempotent of that block
    # maps to zero, so the vectors do not generate the module
    for la in partitions_of(n):
        assert not cyclicity_verdict(span, {**vectors, la: [F(0)] * len(vectors[la])})


def oracle_chordal_distance(a, b):
    """|dim a - dim b| + 2 * sum of sin^2 of the principal angles, from the
    SVD of the float images of the two echelons (each row scaled by its
    largest entry): the float path the exact distance replaced, sound on
    spans of modest dynamic range only."""
    def orthonormal(sb):
        rows = [[x / max(map(abs, r)) for x in r] for r in sb.echelon.rows]
        return np.linalg.svd(np.array(rows, dtype=float), full_matrices=False)[2]

    cosines = np.linalg.svd(orthonormal(a) @ orthonormal(b).T, compute_uv=False)
    return abs(a.dim - b.dim) + 2 * sum(1 - min(1.0, c) ** 2 for c in cosines)


def test_span_distance_basics():
    span = algebra_span([represent(g) for g in homogeneous_generators(3)])
    assert chordal_distance(span, span) == 0
    # orthogonal one-dimensional spans: k_a + k_b
    a = linear_span([represent(GroupAlgebraElement.scalar(2, F(1)) +
                               ga_transposition(2, 1, 2))])
    b = linear_span([represent(GroupAlgebraElement.scalar(2, F(1)) -
                               ga_transposition(2, 1, 2))])
    assert chordal_distance(a, b) == 2
    # nested spans: k_b - k_a, either way round
    scalars = linear_span([BlockMatrix.identity(3)])
    assert chordal_distance(scalars, span) == chordal_distance(span, scalars) == span.dim - 1
    assert type(chordal_distance(a, b)) is Fraction


def test_chordal_distance_matches_principal_angle_oracle():
    rng = SeededRandom(24)
    spans = [algebra_span([represent(g) for g in gz_spanning_set(3)]),
             algebra_span([represent(g) for g in homogeneous_generators(3)])]
    for z in [(F(0), F(1), F(3)), (F(-2), F(1, 2), F(5))]:
        spans.append(algebra_span([represent(g) for g in phi_polys(3, z)[1].values()]))
        for hbar in (F(1), F(1, 10)):
            spans.append(linear_span([represent(g) for g in
                                      t_m_table(xxx_params(z, hbar), F(2), range(1, 3),
                                                range(1, 4)).values()]))
    spans += [linear_span([random_block_matrix(rng, 3) for _ in range(k)])
              for k in (1, 3, 5)]
    for a in spans:
        for b in spans:
            assert (float(chordal_distance(a, b))
                    == pytest.approx(oracle_chordal_distance(a, b), abs=1e-9))


def test_span_distance_trend_to_tower():
    n = 3
    gz = algebra_span([represent(g) for g in gz_spanning_set(n)])
    dists = []
    for s in (F(100), F(10000), F(1000000)):
        z = (F(1), s, s * s)
        span = algebra_span([represent(g) for g in phi_polys(n, z)[1].values()])
        dists.append(chordal_distance(span, gz))
    assert dists[0] > dists[1] > dists[2] > 0


def test_contracts_can_fail():
    n, b = 3, Builds()
    steep = [b(gaudin_span, n, (F(1), s, s * s)) for s in STEEP]
    assert contracts(steep, b(gz_span, n))
    assert not contracts(steep[::-1], b(gz_span, n))
    assert not contracts([steep[0], steep[0]], b(gz_span, n))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gz_span_is_the_class_sum_algebra(n):
    # the Jucys-Murphy elements generate the algebra of the tower's centres
    # (Okounkov-Vershik), checked against the class sums of its definition
    assert gz_span(Builds(), n).same_span(span_of(n, gz_spanning_set(n)))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_jucys_murphy_certificate_is_cyclic(n):
    # the Gelfand-Zetlin certificate of spectra.maximality, at the seed of
    # the goldens and the default one
    for seed in (7, 20260801):
        assert suites.certificate(Builds(), n, tuple(jm_elements(n)), seed)["cyclic"]


def test_maximality_reads_the_jucys_murphy_elements(capsys, monkeypatch):
    # without J_n the elements generate a proper subalgebra of GZ, which is
    # not maximal commutative; the claims that read the families still pass
    import json

    from snbethe import cli

    monkeypatch.setattr(suites, "jm_elements", lambda n: jm_elements(n)[:-1])
    assert cli.main(["run", "spectra", "--n", "4", "--format", "json"]) == 1
    status = {c["check"]: c["status"] for c in json.loads(capsys.readouterr().out)["checks"]}
    assert status.pop("spectra.maximality") == "FAIL"
    assert set(status.values()) == {"PASS"}


def test_theta_membership_residual_soundness():
    good = echelon_polys([P(1, 1), P(0, 1) * P(0, 1) + P(0, F(1, 2))])
    # build an actual fiber point for n = 2: basis with unit-shift Casorati
    # (u + 1)^2: take p1 = u^2 + c, p2 = u + d and solve by hand:
    # casorati = p1(u)p2(u-1) - p2(u)p1(u-1)
    # choose p1 = u^2 + u + 1/2?  verify via residual instead
    import itertools

    found = None
    for c1, c0, d0 in itertools.product(
        [F(a, 2) for a in range(-4, 5)], repeat=3
    ):
        p1 = UPoly([c0, c1, F(1)])
        p2 = UPoly([d0, F(1)])
        cas = casorati([p1, p2], F(1))
        if cas == P(1, 2, 1):
            found = [p1, p2]
            break
    assert found is not None
    assert theta_membership_residual(echelon_polys(found), 2) < 1e-12
    bad = echelon_polys([P(0, 0, 1), P(5, 1)])
    assert theta_membership_residual(bad, 2) > 1e-3
