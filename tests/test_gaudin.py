"""Gaudin-type family: generators, generating functions, rational commuting
elements, determinant presentations, and the scalar relation checkers."""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from helpers import (
    bivariate, check_relations_H, check_relations_Ht, coeff_uv, distinct_rationals, lift_u,
    phi_gen_fixed_points_oracle, phi_polys_oracle, v_coeff,
)
from snbethe import gaudin, suites
from snbethe.rings import SeededRandom, UPoly, poly_divmod, scalar_root_poly
from snbethe.permutations import (
    GroupAlgebraElement,
    all_permutations,
    commutators,
    ga_lift,
    ga_perm,
    ga_transposition,
    inverse,
)
from snbethe.reps import central_idempotent, content_product_all, partitions_of, represent
from snbethe.gaudin import (
    ParameterSet,
    det_presentation,
    gz_spanning_set,
    jm_elements,
    kz_elements,
    phi_gen,
    phi_gen_fixed_points,
    phi_polys,
    phi_tilde,
    phi_tilde_coeff,
    presentation_det,
    v_expansion,
)
from snbethe.homogeneous import det_P_hat
from snbethe.suites import default_z
from snbethe.xxx import det_P_hbar, xxx_params

F = Fraction


def lift_poly(n, p):
    return p.map_coeffs(
        lambda c: c if isinstance(c, GroupAlgebraElement) else GroupAlgebraElement.scalar(n, c)
    )


def test_parameter_set_flags():
    assert ParameterSet((F(0), F(1))).distinct
    assert not ParameterSet((F(1), F(1))).distinct


def test_phi_polys_n2():
    polys, table = phi_polys(2, (F(0), F(1)))
    # (u - 1) + u = 2u - 1
    assert polys[0] == lift_poly(2, UPoly([F(-1), F(2)]))
    one = GroupAlgebraElement.scalar(2, F(1))
    assert polys[1] == UPoly([one - ga_transposition(2, 1, 2)])
    assert table[(1, 0)] == GroupAlgebraElement.scalar(2, F(2))
    assert table[(2, 0)] == one - ga_transposition(2, 1, 2)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_phi_top_is_signed_sum(n):
    # the last polynomial is constant in u: the full signed permutation sum
    from snbethe.permutations import sign

    rng = SeededRandom(5)
    z = tuple(rng.rational(6, 2) for _ in range(n))
    polys, _ = phi_polys(n, z)
    want = GroupAlgebraElement(
        n, {p: F(sign(p)) for p in all_permutations(n)}
    )
    assert polys[n - 1] == UPoly([want])


def test_phi_gen_n2_and_n1():
    g = phi_gen(2, (F(0), F(1)), phi_polys(2, (F(0), F(1)))[0])
    # u(u-1)v^2 - (2u-1)v + 1 - s12
    assert coeff_uv(g, 2, 2) == F(1)
    assert coeff_uv(g, 1, 2) == F(-1)
    assert coeff_uv(g, 1, 1) == F(-2)
    assert coeff_uv(g, 0, 1) == F(1)
    assert coeff_uv(g, 0, 0) == GroupAlgebraElement.scalar(2, F(1)) - ga_transposition(2, 1, 2)
    g1 = phi_gen(1, (F(5),), phi_polys(1, (F(5),))[0])
    assert coeff_uv(g1, 1, 1) == F(1)
    assert coeff_uv(g1, 0, 1) == F(-5)
    assert coeff_uv(g1, 0, 0) == F(-1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_phi_gen_leading_v_coefficient(n):
    rng = SeededRandom(n)
    z = tuple(rng.rational(5, 2) for _ in range(n))
    g = phi_gen(n, z, phi_polys(n, z)[0])
    assert v_coeff(g, n) == lift_poly(n, scalar_root_poly(z))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fixed_point_expansion_matches(n):
    rng = SeededRandom(n + 10)
    z = tuple(rng.rational(5, 2) for _ in range(n))
    polys, _ = phi_polys(n, z)
    acc = ga_lift(
        n, lift_u(scalar_root_poly(z)) * bivariate([[0] * n + [F(1)]])
    )
    for i, poly in enumerate(polys, start=1):
        acc = acc + ga_lift(
            n, lift_u(poly) * bivariate([[0] * (n - i) + [F((-1) ** i)]])
        )
    assert acc == ga_lift(n, phi_gen_fixed_points(n, z))


@pytest.mark.parametrize("n,sets", [(2, 3), (3, 3), (4, 2), (5, 1)])
def test_commutativity(n, sets):
    rng = SeededRandom(1000 + n)
    for _ in range(sets):
        z = tuple(distinct_rationals(rng, n))
        _, table = phi_polys(n, z)
        gens = list(table.values())
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                assert gens[i] * gens[j] == gens[j] * gens[i]


def test_kz_n2_and_n3():
    fam = kz_elements(2, (F(0), F(1)), phi_polys(2, (F(0), F(1)))[0])
    t = ga_transposition(2, 1, 2)
    assert fam[0] == -t and fam[1] == t
    z3 = (F(0), F(1), F(3))
    fam3 = kz_elements(3, z3, phi_polys(3, z3)[0])
    want = -ga_transposition(3, 1, 2) - ga_transposition(3, 1, 3) * F(1, 3)
    assert fam3[0] == want


def test_kz_checks_the_given_generator_polynomials():
    # the construction check reads the second generator polynomial it is
    # given, so the polynomials of other parameters fail it
    z, other = (F(0), F(1), F(3)), (F(0), F(1), F(4))
    with pytest.raises(AssertionError, match="second-generator identity"):
        kz_elements(3, z, phi_polys(3, other)[0])


def test_kz_rejects_coincident_parameters():
    with pytest.raises(ValueError):
        kz_elements(2, (F(1), F(1)), phi_polys(2, (F(1), F(1)))[0])


def test_kz_steep_limit_contracts_to_jm():
    # (z_a - z_1) H_a at z = (1, s, s^2) numerically approaches J_a
    n = 3
    s = F(10) ** 6
    z = (F(1), s, s * s)
    fam = kz_elements(n, z, phi_polys(n, z)[0])
    jms = jm_elements(n)
    for a in range(2, n + 1):
        scaled = fam[a - 1] * (z[a - 1] - z[0])
        diff = scaled - jms[a - 1]
        err = max(abs(float(c)) for c in diff.terms.values())
        assert err < 1e-4


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generating_det_presentation(n):
    rng = SeededRandom(n + 77)
    z = tuple(distinct_rationals(rng, n))
    polys = phi_polys(n, z)[0]
    fam = kz_elements(n, z, polys)
    det = det_presentation("P", n, z, list(fam))
    assert ga_lift(n, det) == phi_gen(n, z, polys)


def test_det_presentation_zero_family():
    # h = 0 leaves the off-diagonal inverse-difference entries in place:
    # hand expansion gives (uv-1)((u-1)v-1) + u(u-1)
    det = det_presentation("P", 2, (F(0), F(1)), [F(0), F(0)])
    u = bivariate([[0], [F(1)]])
    v = bivariate([[0, F(1)]])
    one = bivariate([[F(1)]])
    want = (u * v - one) * ((u - one) * v - one) + u * (u - one)
    assert det == want


def test_presentation_det_forms_each_entry_from_z_q_r():
    # a 2 x 2 with an off-diagonal Z entry, against the matrix product
    Z = [[F(1), F(2)], [0, F(3)]]
    Q = [[F(1, 2), F(5)], [F(-1), F(7)]]
    R = [[F(2), 0], [F(1), F(-4)]]
    u = bivariate([[0], [F(1)]])
    v = bivariate([[0, F(1)]])
    zero = UPoly()

    def const(c):
        return bivariate([[c]])

    def entry(a, b):
        return sum((((u if a == c else zero) - const(Z[a][c]))
                    * ((v if c == b else zero) - const(Q[c][b])) for c in range(2)),
                   zero) - const(R[a][b])

    want = entry(0, 0) * entry(1, 1) - entry(0, 1) * entry(1, 0)
    assert presentation_det(Z, Q, R) == want


def test_v_expansion_signs_and_base():
    polys = [UPoly([F(1)]), UPoly([F(2), F(1)]), UPoly([F(3)])]
    p0, p1, p2 = (lift_u(p) for p in polys)
    v = bivariate([[0, F(1)]])
    w = v - F(1)
    assert v_expansion(polys) == p0 * v * v - p1 * v + p2
    assert v_expansion(polys, w) == p0 * w * w - p1 * w + p2
    # float coefficients are only negated
    got = v_expansion([UPoly([0.1]), UPoly([0.3])])
    assert got.coeffs == [UPoly([-0.3, 0.1])]
    assert [type(c) for c in got.coeffs[0].coeffs] == [float, float]


Z3 = (F(0), F(2), F(5))  # distinct and 1-separated
# each determinant presentation on three entries: the family, or q's coefficients
DET_BUILDERS = {
    "det_presentation": lambda h: det_presentation("P", 3, Z3, h),
    "det_P_hbar": lambda h: det_P_hbar(xxx_params(Z3, 1), UPoly(h)),
    "det_P_hat": lambda h: det_P_hat(3, UPoly(h)),
}


@pytest.mark.parametrize("builder", DET_BUILDERS)
def test_det_presentation_requires_commuting_family(builder):
    a = ga_transposition(3, 1, 2)
    b = ga_transposition(3, 2, 3)
    with pytest.raises(ValueError, match="(do|does) not pairwise commute"):
        DET_BUILDERS[builder]([a, b, a])


@pytest.mark.parametrize("builder", DET_BUILDERS)
def test_det_presentation_accepts_scalar_and_float_entries(builder):
    # float eigenvalues reach the guards from check_relations_H and _Hh
    DET_BUILDERS[builder]([F(1, 3), 0.5, 2.0])
    DET_BUILDERS[builder]([F(1, 3), 5, ga_transposition(3, 1, 2) * F(2)])
    # an element holds no float coefficient
    with pytest.raises(TypeError, match="float"):
        DET_BUILDERS[builder]([F(1, 3), 0.5, ga_transposition(3, 1, 2) * F(2)])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_shifted_det_presentation_and_content(n):
    rng = SeededRandom(n + 99)
    z = tuple(distinct_rationals(rng, n))
    fam = (
        kz_elements(n, z, phi_polys(n, z)[0])
        if n >= 2
        else [GroupAlgebraElement.zero(1)]
    )
    det = det_presentation("Ptilde", n, z, list(fam))
    assert ga_lift(n, det) == phi_tilde(n, z, phi_polys(n, z)[0])
    det0 = det_presentation("Ptilde0", n, z, list(fam))
    assert lift_poly(n, det0) == lift_poly(n, content_product_all(n))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_phi_tilde_edge_coefficients(n):
    rng = SeededRandom(n + 3)
    z = tuple(rng.rational(5, 2) for _ in range(n))
    pt = phi_tilde(n, z, phi_polys(n, z)[0])
    pi = content_product_all(n)
    assert pt.coeff(n) == lift_poly(n, pi)
    zprod = F(1)
    for x in z:
        zprod *= x
    assert pt.coeff(0) == lift_poly(n, pi.shift_arg(F(1)) * (F((-1) ** n) * zprod))


def oracle_phi_tilde(n, z, polys):
    """phi_tilde as first written: the assembled numerator times the dense
    content product at v+1, then divided exactly."""
    pi_shift = content_product_all(n).shift_arg(F(1))

    def vfactors(lo, hi):
        return scalar_root_poly([F(-j) for j in range(lo, hi + 1)])

    denom = vfactors(1, n)
    num = ga_lift(n, lift_u(scalar_root_poly(z)) * UPoly([denom]))
    for i, poly in enumerate(polys, start=1):
        u_part = lift_u(poly) * bivariate([[F((-1) ** i)] if k == i else [0]
                                           for k in range(i + 1)])
        num = num + ga_lift(n, u_part) * ga_lift(n, UPoly([vfactors(i + 1, n)]))
    num = num * ga_lift(n, UPoly([pi_shift]))
    quotients = []
    for c in num.coeffs:
        quot, rem = poly_divmod(c, denom)
        assert not rem
        quotients.append(quot)
    return UPoly(quotients)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_phi_tilde_matches_the_dense_product(n):
    rng = SeededRandom(n + 41)
    for z in (default_z(n), tuple(distinct_rationals(rng, n))):
        polys = phi_polys(n, z)[0]
        assert phi_tilde(n, z, polys) == oracle_phi_tilde(n, z, polys)


def test_phi_tilde_checks_the_jucys_murphy_factors(monkeypatch):
    n = 3
    z = default_z(n)
    polys = phi_polys(n, z)[0]
    jm = gaudin.jm_content_product(n)
    assert jm == content_product_all(n)
    perturbed = jm + UPoly([GroupAlgebraElement.zero(n), ga_transposition(n, 1, 2)])
    monkeypatch.setattr(gaudin, "jm_content_product", lambda m: perturbed)
    with pytest.raises(AssertionError, match="Jucys-Murphy"):
        phi_tilde(n, z, polys)


def test_phi_tilde_n1_explicit():
    # (v+1)(u - z) - u, so the u-coefficient is v and the constant is -z(v+1)
    pt = phi_tilde(1, (F(2),), phi_polys(1, (F(2),))[0])
    assert pt.coeff(1) == lift_poly(1, UPoly([F(0), F(1)]))
    assert pt.coeff(0) == lift_poly(1, UPoly([F(-2), F(-2)]))


def test_scaling_and_shift_covariance():
    rng = SeededRandom(12)
    n = 3
    z = tuple(distinct_rationals(rng, n))
    s = rng.nonzero_rational(5, 2)
    _, table = phi_polys(n, z)
    _, table_s = phi_polys(n, tuple(s * x for x in z))
    for (i, j), g in table.items():
        assert table_s[(i, j)] == g * s**j
    sh = rng.rational(5, 2)
    polys_sh = phi_polys(n, tuple(x + sh for x in z))[0]
    polys = phi_polys(n, z)[0]
    for a, b in zip(polys_sh, polys):
        assert a.shift_arg(sh) == b


def test_conjugation_equivariance():
    rng = SeededRandom(13)
    n = 4
    z = tuple(distinct_rationals(rng, n))
    for _ in range(3):
        sig = rng.choice(all_permutations(n))
        zperm = tuple(z[b - 1] for b in sig)
        g, ginv = ga_perm(sig), ga_perm(inverse(sig))
        for pp, p0 in zip(phi_polys(n, zperm)[0], phi_polys(n, z)[0]):
            assert pp.map_coeffs(lambda c: g * c * ginv) == p0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dagger_and_star_fix_generators(n):
    rng = SeededRandom(n)
    z = tuple(rng.rational(5, 2) for _ in range(n))
    _, table = phi_polys(n, z)
    for g in table.values():
        assert g.dagger() == g
        assert g.star() == g


def test_jm_and_gz_spanning():
    jms = jm_elements(3)
    assert not jms[0]
    assert jms[1] == ga_transposition(3, 1, 2)
    assert jms[2] == ga_transposition(3, 1, 3) + ga_transposition(3, 2, 3)
    from snbethe.spectra import algebra_span

    span = algebra_span([represent(g) for g in gz_spanning_set(3)])
    assert span.dim == 4


def test_check_relations_H_examples():
    # n = 1: the single lower coefficient is -h
    assert not any(check_relations_H((1,), (F(5),), [F(0)]))
    # at z = 0 the diagonal identity holds for every h; the lower one does not
    assert any(check_relations_H((1,), (F(0),), [F(5)]))
    # n = 2, trivial block: H_a act by sums of inverse differences
    z = (F(0), F(1))
    assert not any(check_relations_H((2,), z, [F(-1), F(1)]))
    # soundness: perturbed values give a nonzero residual
    assert any(check_relations_H((2,), z, [F(-1), F(1, 2)]))


def test_check_relations_Ht_examples():
    assert not any(check_relations_Ht((1,), (F(4),), [F(0)]))
    assert any(check_relations_Ht((1,), (F(4),), [F(1, 3)]))


@pytest.mark.parametrize("check", [check_relations_H, check_relations_Ht])
def test_relations_on_elements_hold_block_by_block(check):
    # the family itself satisfies each block's relations through its central
    # idempotent, and a block's relations fail on some other block
    z = default_z(3)
    fam = kz_elements(3, z, phi_polys(3, z)[0])
    for la in partitions_of(3):
        residuals = check(la, z, fam)
        assert all(central_idempotent(la, 3) * r == 0 for r in residuals)
        assert any(central_idempotent(mu, 3) * r
                   for mu in partitions_of(3) if mu != la for r in residuals)


def test_fused_commutator_reports_the_unfused_residual():
    # ab - ba formed as one sum of products must not hide a failure
    from snbethe.suites import max_abs, max_commutator

    a, b = ga_transposition(3, 1, 2), ga_transposition(3, 2, 3)
    want = max_abs(a * b - b * a)
    assert want == 1 and type(want) is Fraction
    got = max_commutator([a, b])
    assert got == want and type(got) is type(want)
    # a scalar entry commutes with everything; two scalars form no commutator
    items = [a, F(2), b, F(1, 3)]
    want = [x * y - y * x for i, x in enumerate(items) for y in items[i + 1:]
            if isinstance(x, GroupAlgebraElement) or isinstance(y, GroupAlgebraElement)]
    got = commutators(items)
    assert got == want and len(got) == 5
    assert [set(map(type, c.terms.values())) for c in got] == \
        [set(map(type, c.terms.values())) for c in want]
    assert max_commutator(items) == 1


# Fraction z, one set pairwise distinct and one with a repeated value, per n
BUILDER_Z = {
    n: ((F(1, 2), F(-3, 4), F(3), F(-7, 3), F(5, 2))[:n],
        (F(1, 2), F(-3, 4), F(3), F(-7, 3), F(5, 2))[:n - 1] + (F(1, 2),))
    for n in (2, 3, 4, 5)
}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_builders_match_their_per_subset_and_per_permutation_oracles(n):
    # the shared embedded antisymmetrizers and complement products, and the
    # one product per fixed-point set, against the loops that form each
    # afresh; each z builds the shared factors' cache entry or reuses it
    for z in BUILDER_Z[n]:
        polys, table = phi_polys(n, z)
        want_polys, want_table = phi_polys_oracle(n, z)
        assert polys == want_polys
        assert list(table) == list(want_table) and table == want_table
        assert phi_gen_fixed_points(n, z) == phi_gen_fixed_points_oracle(n, z)
    rests = gaudin.complement_root_polys(n, BUILDER_Z[n][0])
    assert len(rests) == 2 ** n - 1
    for rest, poly in rests.items():
        assert poly == scalar_root_poly([BUILDER_Z[n][0][a - 1] for a in rest])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_phi_tilde_coefficients_alone_match_the_whole(n):
    for z in BUILDER_Z[n]:
        polys = phi_polys(n, z)[0]
        whole = oracle_phi_tilde(n, z, polys)
        assert whole.degree == n
        for k in range(n + 1):
            assert phi_tilde_coeff(n, z, polys, k) == whole.coeff(k)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_perturbed_generator_fails_the_edge_path(n, monkeypatch):
    # phi_n enters the u^n coefficient over no partial denominator, so a
    # transposition added to it leaves a remainder in v; the edge claim
    # forms only u^0 and u^n and must still raise
    for z in BUILDER_Z[n]:
        polys = phi_polys(n, z)[0]
        bad = polys[:-1] + [polys[-1] + ga_transposition(n, 1, 2)]
        with pytest.raises(AssertionError, match="not polynomial in v"):
            phi_tilde_coeff(n, z, bad, n)
        with pytest.raises(AssertionError):
            oracle_phi_tilde(n, z, bad)
        monkeypatch.setattr(suites, "gaudin_polys", lambda b, m, zz: bad)
        with pytest.raises(AssertionError, match="not polynomial in v"):
            suites.gaudin_shifted_edges(SimpleNamespace(n=n, z=z), None, suites.Builds())
