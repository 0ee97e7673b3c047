"""Wronskian utilities, span and commutant machinery, certificates, joint
eigenanalysis, fiber reconstruction, cyclic vectors, and subspace distance."""

import math
from fractions import Fraction

import numpy as np
import pytest

from snbethe.rings import MultiPoly, SeededRandom, UPoly
from snbethe.linalg import Matrix
from snbethe.permutations import (
    GroupAlgebraElement,
    all_permutations,
    ga_perm,
    ga_transposition,
)
from snbethe.reps import (
    BlockMatrix,
    central_idempotent,
    dimension,
    partitions_of,
    represent,
    sum_of_dims,
)
from snbethe.gaudin import gz_spanning_set, kz_elements, phi_polys
from snbethe.homogeneous import homogeneous_generators
from snbethe.xxx import t_m_poly, xxx_params
from snbethe.spectra import (
    SpanBasis,
    algebra_span,
    annihilator_residual,
    casorati,
    check_O_relations,
    commutant_dim,
    cyclic_vector,
    cyclicity_verdict,
    echelon_polys,
    f_bivariate,
    joint_eigen,
    linear_span,
    reconstruct_subspace,
    simple_spectrum_cert,
    span_distance,
    symmetric_action_on_poly,
    theta_membership_residual,
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
    Fb = f_bivariate(fs, F(1), "homogeneous")
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
    Fb = f_bivariate(fs, F(1), "general")
    assert Fb.deg_v == 3
    # the top v-coefficient is the signed shifted Casorati of the basis
    top = Fb.v_coeff(3)
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
        v = oracle_reduce(rows, pivots, bm.flatten())
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


def oracle_float_rows(rows):
    return np.array(
        [[float(x / max(abs(y) for y in r)) for x in r] for r in rows], dtype=float
    )


def random_block_matrix(rng, n):
    return BlockMatrix(n, [
        Matrix([[rng.rational(9, 4) for _ in range(dimension(la))]
                for _ in range(dimension(la))])
        for la in partitions_of(n)
    ])


def combination(rng, mats):
    acc = mats[0] * rng.rational(5, 3)
    for m in mats[1:]:
        acc = acc + m * rng.rational(5, 3)
    return acc


def assert_matches_oracle(mats, probes=()):
    """SpanBasis against the Fraction echelon: same answers from add, same
    pivots, integer rows that are primitive positive multiples of the
    oracle rows, bit-identical float rows, and the same membership."""
    sb = SpanBasis(mats[0].n)
    got = [sb.add(m) for m in mats]
    accepted, rows, pivots = oracle_span(mats)
    assert got == accepted
    assert sb.dim == len(rows) == sum(accepted)
    assert sb._pivots == pivots
    for irow, frow, p in zip(sb._rows, rows, pivots):
        assert all(type(x) is int for x in irow)
        assert irow[p] > 0 and math.gcd(*irow) == 1
        assert [irow[p] * x for x in frow] == irow
    assert sb.float_rows().tobytes() == oracle_float_rows(rows).tobytes()
    for m in [*mats, *probes]:
        want = not any(oracle_reduce(rows, pivots, m.flatten()))
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
    span = algebra_span([represent(g) for g in gens()])
    assert span.dim == sum_of_dims(n)
    probes = [represent(ga_perm(p)) for p in all_permutations(n)[:8]]
    assert_matches_oracle(span.elements, probes)


def test_center_span_dimension():
    for n in (3, 4, 5):
        z = tuple(F(k * k) for k in range(n))
        _, table = phi_polys(n, z)
        ctr = algebra_span([represent(table[(i, 0)]) for i in range(1, n + 1)])
        assert ctr.dim == len(partitions_of(n))


def test_identity_span():
    span = algebra_span([BlockMatrix.identity(3)])
    assert span.dim == 1


@pytest.mark.parametrize("n", [3, 4])
def test_commutant_examples(n):
    z = tuple(F(v) for v in (0, 1, 3, 7)[:n])
    _, table = phi_polys(n, z)
    span = algebra_span([represent(g) for g in table.values()])
    assert span.dim == sum_of_dims(n)
    assert commutant_dim(span) == span.dim  # maximal commutative
    ctr = algebra_span([represent(table[(i, 0)]) for i in range(1, n + 1)])
    assert commutant_dim(ctr) == math.factorial(n)
    full = algebra_span([represent(ga_perm(p)) for p in all_permutations(n)])
    assert commutant_dim(full) == len(partitions_of(n))


def test_coincidence_pair_and_triple():
    span_pair = algebra_span(
        [represent(g) for g in phi_polys(4, (F(0), F(0), F(1), F(3)))[1].values()]
    )
    assert commutant_dim(span_pair) == span_pair.dim
    span_triple = algebra_span(
        [represent(g) for g in phi_polys(4, (F(0), F(0), F(0), F(1)))[1].values()]
    )
    assert commutant_dim(span_triple) > span_triple.dim


def test_certificates():
    gens = [represent(g) for g in homogeneous_generators(3)]
    span = algebra_span(gens)
    ok, witness = simple_spectrum_cert(span, 12345)
    assert ok and witness["charpoly_degree"] == 4
    # the center is never certified: eigenvalues are constant on blocks
    ctr = algebra_span(
        [represent(central_idempotent(la, 3)) for la in partitions_of(3)]
    )
    ok, _ = simple_spectrum_cert(ctr, 12345)
    assert not ok
    # real-parameter certificate at n = 4
    span4 = algebra_span(
        [represent(g) for g in phi_polys(4, (F(0), F(1), F(3), F(7)))[1].values()]
    )
    ok, _ = simple_spectrum_cert(span4, 999)
    assert ok


def test_certificate_draws_again_and_eigen_reuses_it():
    # at seed 2 the first combination drawn in the homogeneous span at n = 4
    # has a repeated eigenvalue; the certificate draws again from its stream
    gens = homogeneous_generators(4)
    span = algebra_span([represent(g) for g in gens])
    ok, witness = simple_spectrum_cert(span, 2)
    assert ok and witness["draws"] == 2
    recs = joint_eigen(span, {f"G{k}": represent(g) for k, g in enumerate(gens)}, 2)
    assert len(recs) == sum_of_dims(4)
    # the eigenvectors are those of the certified combination
    parts = partitions_of(4)
    for rec in recs:
        block = witness["element"].blocks[parts.index(rec.partition)]
        M = np.array([[float(x) for x in row] for row in block.rows])
        v = rec.vector
        mu = np.conj(v) @ (M @ v)
        assert np.linalg.norm(M @ v - mu * v) < 1e-8 * max(1.0, np.abs(M).max())


def test_joint_eigen_n2_homogeneous_values():
    # two eigenvectors: symmetric and antisymmetric; the bivariate eigenvalues
    # are u^2(v-1)^2 - (2u+1)(v-1) and u^2(v-1)^2 - (2u-1)(v-1) + 2
    gens = {"g2": represent(homogeneous_generators(2)[0])}
    span = algebra_span(list(gens.values()))
    recs = joint_eigen(span, gens, 777)
    assert len(recs) == 2
    by_partition = {rec.partition: rec for rec in recs}
    assert by_partition[(2,)].eigenvalues["g2"] == pytest.approx(1.0)
    assert by_partition[(1, 1)].eigenvalues["g2"] == pytest.approx(-1.0)
    from snbethe.suites import homogeneous_eigen, homogeneous_f_from_record

    # sigma -> +1: u^2 w^2 - (2u+1)w;  sigma -> -1: u^2 w^2 - (2u-1)w + 2
    expected = {
        (2,): {(1, 1): -2.0, (0, 1): -1.0, (0, 0): 0.0},
        (1, 1): {(1, 1): -2.0, (0, 1): 1.0, (0, 0): 2.0},
    }
    for rec in homogeneous_eigen(2, 777):
        Fb = homogeneous_f_from_record(2, rec)
        # shared leading data and block-specific lower coefficients
        assert complex(Fb.coeff(2, 2)).real == pytest.approx(1.0)
        for (i, j), val in expected[rec.partition].items():
            got = complex(Fb.subst_v_shift(1).coeff(i, j))
            assert got.real == pytest.approx(val, abs=1e-9)
            assert got.imag == pytest.approx(0.0, abs=1e-9)


def test_joint_eigen_counts_and_h_sum():
    for n in (3, 4):
        z = tuple(F(v) for v in (0, 1, 3, 7)[:n])
        fam = kz_elements(n, z)
        gens = {f"H{a}": represent(h) for a, h in enumerate(fam, start=1)}
        span = algebra_span([represent(g) for g in phi_polys(n, z)[1].values()])
        recs = joint_eigen(span, gens, 424242)
        assert len(recs) == sum_of_dims(n)
        for rec in recs:
            total = sum(rec.eigenvalues[f"H{a}"] for a in range(1, n + 1))
            assert abs(total) < 1e-9  # the family sums to zero


def test_reconstruction_roundtrip():
    fs = [P(3, 1), P(-1, 0, 0, 1)]
    Fb = f_bivariate(fs, F(1), "homogeneous").map_coeffs(float)
    space = reconstruct_subspace(Fb, 2, degree_bound=3, hbar=1.0, variant="discrete")
    assert space.dim == 2
    assert sorted(space.degrees()) == [1, 3]
    for p in space.basis:
        assert annihilator_residual(Fb, p, 1.0, "discrete") < 1e-8


def test_reconstruction_differential_roundtrip():
    fs = [P(1, 1), P(0, -2, 0, 1)]
    Fb = f_bivariate(fs, F(1), "differential").map_coeffs(float)
    space = reconstruct_subspace(
        Fb, 2, degree_bound=3, hbar=1.0, variant="differential"
    )
    assert space.dim == 2
    for p in space.basis:
        assert annihilator_residual(Fb, p, 1.0, "differential") < 1e-8


def test_echelon_polys_degrees():
    space = echelon_polys([P(1, 1, 1), P(1, 1), P(0, 1)])
    assert space.degrees() == [2, 1, 0]


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


def test_span_distance_basics():
    span = algebra_span([represent(g) for g in homogeneous_generators(3)])
    assert span_distance(span, span) < 1e-6
    e1 = BlockMatrix(2, [represent(ga_transposition(2, 1, 2)).blocks[0],
                         represent(GroupAlgebraElement.zero(2)).blocks[1]])
    # orthogonal one-dimensional spans: distance 1
    a = linear_span([represent(GroupAlgebraElement.scalar(2, F(1)) +
                               ga_transposition(2, 1, 2))])
    b = linear_span([represent(GroupAlgebraElement.scalar(2, F(1)) -
                               ga_transposition(2, 1, 2))])
    assert span_distance(a, b) == pytest.approx(1.0)


def test_span_distance_trend_to_tower():
    n = 3
    gz = algebra_span([represent(g) for g in gz_spanning_set(n)])
    dists = []
    for s in (F(100), F(10000), F(1000000)):
        z = (F(1), s, s * s)
        span = algebra_span([represent(g) for g in phi_polys(n, z)[1].values()])
        dists.append(span_distance(span, gz))
    assert dists[0] > dists[1] > dists[2]


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
    space = echelon_polys(found)
    assert theta_membership_residual(space, 2) < 1e-12
    bad = echelon_polys([P(0, 0, 1), P(5, 1)])
    assert theta_membership_residual(bad, 2) > 1e-3
