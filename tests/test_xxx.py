"""XXX-type family: trace-built generators, the p-free family, binomial
transforms, ordered products, the generating polynomial, determinant
presentation, and symmetry identities."""

from fractions import Fraction

import pytest

from helpers import (
    bivariate, check_relations_Hh, distinct_rationals, homogeneous_eigen, lift_u,
    s1_coeff_elements, v_coeff,
)
from snbethe.rings import SeededRandom, UPoly, scalar_root_poly
from snbethe.permutations import (
    GroupAlgebraElement,
    antisymmetrizer,
    antisymmetrizer_classes,
    cycle_type,
    ga_lift,
    ga_perm,
    ga_transposition,
    inverse,
    permutation,
    top_embed,
    trace_map,
)
from snbethe.reps import central_idempotent, partitions_of
from snbethe.xxx import (
    det_P_hbar,
    qkz_elements,
    s_k_poly,
    st_transform,
    t_gen,
    t_m_poly,
    t_m_table,
    XXXParams,
    ts_transform,
    xxx_params,
)
from snbethe import xxx as xxx_module

F = Fraction


def ga(n, c):
    return GroupAlgebraElement.scalar(n, F(c))


def lift(n, poly):
    return poly.map_coeffs(
        lambda c: c if isinstance(c, GroupAlgebraElement) else GroupAlgebraElement.scalar(n, c)
    )


def oracle_t_m_poly(params, m, p):
    """T_m built literally: the full m!-term antisymmetrizer of the top S_m
    times the ordered product in S_{n+m}, traced down."""
    n, z, hbar = params.n, params.z, params.hbar
    big = n + m
    acc = UPoly([top_embed(antisymmetrizer(m), n, m)])
    for a in range(n, 0, -1):
        const = ga(big, -z[a - 1])
        for i in range(1, m + 1):
            const = const + ga_transposition(big, a, n + i) * hbar
        acc = acc * UPoly([const, ga(big, 1)])
    return UPoly([trace_map(c, n, m, p) for c in acc.coeffs])


def layout(poly):
    """Every coefficient's terms in key order, with the type of each
    coefficient; a coefficient that is a polynomial in p lays out each of
    its own coefficients."""
    def terms(e):
        if isinstance(e, UPoly):
            return "UPoly", [terms(x) for x in e.coeffs]
        return [(q, type(c).__name__, c) for q, c in e.terms.items()]

    return [terms(e) for e in poly.coeffs]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_t_m_poly_matches_literal_oracle(n):
    distinct = [F(k, 3) - 1 for k in range(n)]
    coincident = [F(k // 2) for k in range(n)]  # z_1 = z_2, z_3 = z_4
    for z in (distinct, coincident):
        params = xxx_params(z, F(1, 2))
        for p in (UPoly.gen(), F(2), F(n)):
            for m in range(1, 5):
                got = layout(t_m_poly(params, m, p=p))
                assert got == layout(oracle_t_m_poly(params, m, p)), (z, p, m)


def literal_table(params, p, ms, rows):
    """t_m_table as first written: one literal t_m_poly per order."""
    n = params.n
    out = {}
    for m in ms:
        poly = t_m_poly(params, m, p=p)
        for i in rows:
            out[(m, i)] = ga_lift(n, poly.coeff(n - i))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_t_m_table_matches_literal_trace(n, monkeypatch):
    pr = xxx_params([F(k, 3) - 1 for k in range(n)], F(1, 2))
    for p in (F(2), F(n), UPoly.gen()):
        # the orders of xxx_table (none at n = 1) and of t_table
        for ms, rows in ((range(1, n), range(1, n + 1)),
                         (range(1, n + 1), range(n + 1))):
            want = literal_table(pr, p, ms, rows)
            with monkeypatch.context() as patched:
                patched.setattr(xxx_module, "t_m_poly", None)
                patched.setattr(xxx_module, "trace_map", None)
                got = t_m_table(pr, p, ms, rows)
            assert list(got) == list(want)
            for key, g in got.items():
                # at the symbolic p an element is a constant polynomial in p
                assert not g - want[key]


def test_span_and_eigen_builders_stay_in_s_n(monkeypatch):
    from types import SimpleNamespace

    from snbethe import suites

    def refuse(*args, **kwargs):
        raise AssertionError("an algebra builder traced down from S_{n+m}")

    monkeypatch.setattr(xxx_module, "t_m_poly", refuse)
    monkeypatch.setattr(xxx_module, "trace_map", refuse)
    n, z, b = 3, (F(0), F(1), F(3)), suites.Builds()
    assert b(suites.xxx_span, n, z, F(1)).dim == 4
    assert suites.homog_well_defined(SimpleNamespace(n=n), None, b)
    assert len(b(homogeneous_eigen, n, 7)) == 4


def test_p_independence_claim_uses_the_literal_trace(monkeypatch):
    from types import SimpleNamespace

    from snbethe import suites

    cfg = SimpleNamespace(n=3, z=(F(0), F(1), F(3)), hbar=F(1))
    assert suites.xxx_p_independence(cfg, None, suites.Builds()) is True

    def refuse(*args, **kwargs):
        raise AssertionError("literal trace called")

    with monkeypatch.context() as patched:
        patched.setattr(suites, "t_m_poly", refuse)
        with pytest.raises(AssertionError, match="literal trace called"):
            suites.xxx_p_independence(cfg, None, suites.Builds())

    # a trace whose coefficients moved with p is caught
    def drifting(params, m, p=None):
        poly = t_m_poly(params, m, p=p)
        if p == 17 and m == 1:
            poly = poly + UPoly([ga_transposition(params.n, 1, 2)])
        return poly

    monkeypatch.setattr(suites, "t_m_poly", drifting)
    assert suites.xxx_p_independence(cfg, None, suites.Builds()) is False


def test_antisymmetrizer_classes():
    partition_counts = [1, 2, 3, 5, 7, 11]
    for m, count in enumerate(partition_counts, start=1):
        classes = antisymmetrizer_classes(m)
        assert len({cycle_type(q) for q in classes.terms}) == len(classes.terms) == count
        total = sum(classes.terms.values())
        assert total == sum(antisymmetrizer(m).terms.values()) == (1 if m == 1 else 0)


def test_params_flags():
    p = xxx_params([0, 1], 1)
    assert p.distinct and not p.hbar_separated
    p = xxx_params([0, 2], 1)
    assert p.distinct and p.hbar_separated
    with pytest.raises(ValueError, match="hbar must be nonzero"):
        xxx_params([0, 1], 0)
    with pytest.raises(ValueError, match="hbar must be nonzero"):
        XXXParams((F(0), F(1)), F(0))
    assert XXXParams((F(0), F(1)), F(1, 2)).n == 2


def test_t0_is_root_product():
    pr = xxx_params([3, -1, F(1, 2)], F(2))
    assert t_m_poly(pr, 0, p=F(5)) == lift(3, scalar_root_poly(pr.z))


def test_t1_n1_symbolic():
    pr = xxx_params([F(5)], F(1, 2))
    p = UPoly.gen()
    got = t_m_poly(pr, 1)
    want = UPoly([ga_lift(1, p * F(-5) + UPoly([F(1, 2)])), ga_lift(1, p)])
    assert got == want


def test_saturation_at_integer_p():
    # at p = m >= n the trace family collapses to the shifted root product
    pr = xxx_params([F(1), F(7, 2)], F(2, 3))
    want = lift(2, scalar_root_poly([x - pr.hbar for x in pr.z]))
    for m in (2, 3):
        assert t_m_poly(pr, m, p=F(m)) == want
    assert t_m_poly(pr, 3, p=F(2)) == UPoly()
    pr3 = xxx_params([F(0), F(2), F(5)], F(1))
    want3 = lift(3, scalar_root_poly([x - 1 for x in pr3.z]))
    assert t_m_poly(pr3, 3, p=F(3)) == want3
    assert t_m_poly(pr3, 4, p=F(3)) == UPoly()


def test_s_polys_n2_zero_parameters():
    pr = xxx_params([0, 0], 1)
    t = ga_transposition(2, 1, 2)
    assert s_k_poly(pr, 1) == UPoly([t, ga(2, 2)])
    assert s_k_poly(pr, 2) == UPoly([ga(2, 1) - t])
    total = s_k_poly(pr, 0) + s_k_poly(pr, 1) + s_k_poly(pr, 2)
    assert total == UPoly([ga(2, 1), ga(2, 2), ga(2, 1)])  # (u+1)^2
    assert s_k_poly(pr, 3) == UPoly()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sum_rule(n):
    rng = SeededRandom(n + 40)
    pr = xxx_params(distinct_rationals(rng, n), rng.nonzero_rational(3, 2))
    acc = UPoly()
    for k in range(0, n + 1):
        acc = acc + s_k_poly(pr, k)
    assert acc == lift(n, scalar_root_poly([x - pr.hbar for x in pr.z]))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_binomial_transform_symbolic(n):
    rng = SeededRandom(n + 50)
    pr = xxx_params(distinct_rationals(rng, n), rng.nonzero_rational(3, 2))
    p = UPoly.gen()
    family = [s_k_poly(pr, k) for k in range(0, min(n + 1, 4) + 1)]
    for m in range(0, min(n + 1, 4) + 1):
        assert not t_m_poly(pr, m) - ts_transform(family, m, p)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symbolic_t_m_poly_evaluates_to_the_rational_one(n):
    # each coefficient in u is a polynomial in p over the group algebra
    rng = SeededRandom(n + 70)
    pr = xxx_params(distinct_rationals(rng, n), rng.nonzero_rational(3, 2))
    for m in range(0, 5):
        symbolic = t_m_poly(pr, m)
        assert all(isinstance(c, UPoly) for c in symbolic.coeffs)
        for p in (F(2), F(-1, 3), F(17)):
            assert symbolic.map_coeffs(lambda c: c.eval_at(p)) == t_m_poly(pr, m, p=p)


def test_trace_family_at_special_p_gives_s():
    # specializing the trace parameter to m - 1 collapses the transform
    rng = SeededRandom(314)
    for n in (2, 3):
        pr = xxx_params(distinct_rationals(rng, n), F(1, 2))
        for m in (1, 2, 3):
            assert t_m_poly(pr, m, p=F(m - 1)) == s_k_poly(pr, m)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inverse_transform_symbolic(n):
    rng = SeededRandom(n + 60)
    pr = xxx_params(distinct_rationals(rng, n), rng.nonzero_rational(3, 2))
    p = UPoly.gen()
    for m in range(0, min(n + 1, 4) + 1):
        assert not s_k_poly(pr, m) - st_transform(pr, m, p)


def test_qkz_examples():
    t = ga_transposition(2, 1, 2)
    fam = qkz_elements(xxx_params([0, 1], 1))
    assert fam[0] == t - ga(2, 1)
    assert fam[1] == t + ga(2, 1)
    assert not xxx_params([0, 1], 1).hbar_separated  # the product is 0 * 2 = 0
    prod = fam[0] * fam[1]
    assert not prod
    fam = qkz_elements(xxx_params([0, 2], 1))
    assert fam[0] * fam[1] == ga(2, -3)
    assert xxx_params([0, 2], 1).hbar_separated
    fam1 = qkz_elements(xxx_params([F(3)], 1))
    assert fam1[0] == ga(1, 1)


def test_qkz_matches_first_order_values():
    rng = SeededRandom(71)
    pr = xxx_params(distinct_rationals(rng, 4), F(1, 3))
    fam = qkz_elements(pr)
    s1 = s_k_poly(pr, 1)
    for a, el in enumerate(fam, start=1):
        # the first-order polynomial carries one overall factor of hbar
        assert s1.eval_at(pr.z[a - 1]) == el * pr.hbar
    for i in range(len(fam)):
        for j in range(i + 1, len(fam)):
            assert fam[i] * fam[j] == fam[j] * fam[i]


def test_t_gen_n2_explicit():
    pr = xxx_params([0, 0], 1)
    t = ga_transposition(2, 1, 2)
    T = t_gen(pr)
    w = bivariate([[F(-1), F(1)]])  # v - 1
    want = (
        bivariate([[0], [0], [F(1)]]) * w * w
        - lift_u(UPoly([t, ga(2, 2)])) * w
        + bivariate([[ga(2, 1) - t]])
    )
    assert T == ga_lift(2, want)


def test_t_gen_n1_and_leading_coefficient():
    pr = xxx_params([F(3)], F(2))
    T = t_gen(pr)
    # (u - 3)v - (u - 3 + 2) = (u - 3)v - (u - 1)
    assert v_coeff(T, 1) == lift(1, UPoly([F(-3), F(1)]))
    assert v_coeff(T, 0) == lift(1, UPoly([F(1), F(-1)]))
    pr3 = xxx_params([0, 2, 5], 1)
    assert v_coeff(t_gen(pr3), 3) == lift(3, scalar_root_poly(pr3.z))


def test_det_P_hbar_scalar_and_zero():
    # 1 x 1 scalar case
    pr = xxx_params([F(2)], F(3))
    q = UPoly([F(7)])
    det = det_P_hbar(pr, q)
    c1 = F(7)
    u = bivariate([[F(-2)], [F(1)]])
    v = bivariate([[0, F(1)]])
    want = u * (v - bivariate([[c1 / 3]])) - bivariate([[F(3) * (c1 / 3)]])
    assert det == want
    # q = 0: v^n times the root product
    pr3 = xxx_params([0, 2, 5], 1)
    det0 = det_P_hbar(pr3, UPoly())
    want0 = lift_u(scalar_root_poly(pr3.z)) * bivariate([[0, 0, 0, F(1)]])
    assert det0 == want0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generating_det_presentation(n):
    rng = SeededRandom(n + 81)
    while True:
        z = tuple(distinct_rationals(rng, n))
        pr = xxx_params(z, F(1))
        if pr.hbar_separated:
            break
    T = t_gen(pr)
    D = det_P_hbar(pr, s_k_poly(pr, 1))
    assert T == ga_lift(n, D)


def test_det_P_hbar_rejects_bad_denominators():
    with pytest.raises(ValueError):
        det_P_hbar(xxx_params([0, 1], 1), UPoly([F(1)]))


def test_check_relations_Hh_n1():
    assert not any(check_relations_Hh((1,), xxx_params([F(4)], F(1)), UPoly([F(1)])))
    assert any(check_relations_Hh((1,), xxx_params([F(4)], F(1)), UPoly([F(2)])))


def test_check_relations_Hh_on_elements():
    # at n = 3 the first-order polynomial itself satisfies the relations on
    # each block, read through the central idempotent, and only there
    pr = xxx_params([F(0), F(2), F(5)], F(1))
    q = s_k_poly(pr, 1)
    for la in partitions_of(3):
        chi = central_idempotent(la, 3)
        residuals = check_relations_Hh(la, pr, q)
        assert residuals and all(chi * r == 0 for r in residuals)
        assert any(central_idempotent(mu, 3) * r
                   for mu in partitions_of(3) if mu != la for r in residuals)


@pytest.mark.parametrize("n,sets", [(2, 3), (3, 3), (4, 2), (5, 1)])
def test_commutativity(n, sets):
    rng = SeededRandom(2000 + n)
    for _ in range(sets):
        pr = xxx_params(distinct_rationals(rng, n), rng.nonzero_rational(3, 2))
        gens = []
        for m in range(1, n):
            poly = t_m_poly(pr, m, p=F(7, 2))
            for i in range(1, n + 1):
                c = poly.coeff(n - i)
                gens.append(
                    c if isinstance(c, GroupAlgebraElement) else GroupAlgebraElement.scalar(n, c)
                )
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                assert gens[i] * gens[j] == gens[j] * gens[i]


def test_telescoping_lemma():
    from snbethe.permutations import antisymmetrizer, top_embed

    hbar = F(1, 2)
    for n in (1, 2):
        for m in (2, 3):
            big = n + m
            A = top_embed(antisymmetrizer(m), n, m)
            for a in range(1, n + 1):
                lhs = UPoly([A])
                for j in range(1, m + 1):
                    lhs = lhs * UPoly(
                        [ga_transposition(big, a, n + j) * hbar - ga(big, 0)
                         - GroupAlgebraElement.scalar(big, F(m - j) * hbar),
                         GroupAlgebraElement.scalar(big, F(1))]
                    )
                ssum = GroupAlgebraElement.zero(big)
                for i in range(1, m + 1):
                    ssum = ssum + ga_transposition(big, a, n + i) * hbar
                rhs = UPoly([A]) * UPoly([ssum, GroupAlgebraElement.scalar(big, F(1))])
                for i in range(1, m):
                    rhs = rhs * UPoly(
                        [GroupAlgebraElement.scalar(big, -F(i) * hbar),
                         GroupAlgebraElement.scalar(big, F(1))]
                    )
                assert lhs == rhs


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cycle_shift(n):
    rng = SeededRandom(n + 91)
    pr = xxx_params(distinct_rationals(rng, n), F(1, 3))
    from snbethe.homogeneous import gamma_perm

    gam = gamma_perm(n)
    g, ginv = ga_perm(gam), ga_perm(inverse(gam))
    zrot = pr.z[1:] + pr.z[:1]
    prot = xxx_params(zrot, pr.hbar)
    for m in range(1, n + 1):
        lhs = t_m_poly(prot, m, p=F(2)).map_coeffs(lambda c: g * c * ginv)
        assert lhs == t_m_poly(pr, m, p=F(2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_swap_intertwiner(n):
    rng = SeededRandom(n + 101)
    pr = xxx_params(distinct_rationals(rng, n), F(2, 3))
    for a in range(1, n):
        w = ga_transposition(n, a, a + 1) * (pr.z[a - 1] - pr.z[a]) + GroupAlgebraElement.scalar(
            n, pr.hbar
        )
        zs = list(pr.z)
        zs[a - 1], zs[a] = zs[a], zs[a - 1]
        pswap = xxx_params(tuple(zs), pr.hbar)
        for m in range(1, n + 1):
            lhs = t_m_poly(pr, m, p=F(2)).map_coeffs(lambda c: w * c)
            rhs = t_m_poly(pswap, m, p=F(2)).map_coeffs(lambda c: c * w)
            assert lhs == rhs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reversal_and_dagger(n):
    rng = SeededRandom(n + 111)
    pr = xxx_params(distinct_rationals(rng, n), F(1, 2))
    N = n
    rho = ga_perm(permutation([n + 1 - i for i in range(1, n + 1)]))
    pneg = xxx_params(tuple(-x for x in pr.z), pr.hbar)
    prev = xxx_params(tuple(reversed(pr.z)), pr.hbar)
    for m in range(0, N + 1):
        mirror = t_m_poly(pneg, N - m, p=F(N)).subst_linear(
            GroupAlgebraElement.scalar(n, F(-1)),
            GroupAlgebraElement.scalar(n, -pr.hbar),
        ) * F((-1) ** n)
        lhs = t_m_poly(prev, m, p=F(N)).map_coeffs(lambda c: rho * c * rho)
        assert lhs == mirror
        dag = t_m_poly(pr, m, p=F(N)).map_coeffs(lambda c: c.dagger())
        assert dag == mirror


def test_p_independence_of_unital_span():
    from snbethe.reps import BlockMatrix, represent
    from snbethe.spectra import linear_span

    n = 3
    rng = SeededRandom(121)
    z = tuple(distinct_rationals(rng, n))
    spans = []
    for p in (F(1), F(2), F(17)):
        pr = xxx_params(z, F(1, 2))
        mats = [BlockMatrix.identity(n)]
        for m in range(1, n):
            poly = t_m_poly(pr, m, p=p)
            for i in range(1, n + 1):
                c = poly.coeff(n - i)
                mats.append(
                    represent(
                        c if isinstance(c, GroupAlgebraElement)
                        else GroupAlgebraElement.scalar(n, c)
                    )
                )
        spans.append(linear_span(mats))
    assert spans[0].same_span(spans[1])
    assert spans[0].same_span(spans[2])


def test_scaling_shift_covariance():
    rng = SeededRandom(131)
    n = 3
    pr = xxx_params(distinct_rationals(rng, n), F(1, 2))
    s = rng.nonzero_rational(4, 2)
    sh = rng.rational(4, 2)
    pscale = xxx_params(tuple(s * x for x in pr.z), s * pr.hbar)
    pshift = xxx_params(tuple(x + sh for x in pr.z), pr.hbar)
    for m in (1, 2):
        base = t_m_poly(pr, m, p=F(2))
        scaled = t_m_poly(pscale, m, p=F(2))
        assert scaled.subst_linear(
            GroupAlgebraElement.scalar(n, s), GroupAlgebraElement.scalar(n, F(0))
        ) == base * s**n
        shifted = t_m_poly(pshift, m, p=F(2))
        assert shifted.shift_arg(sh) == base


def test_s1_coefficient_normalization():
    # the normalized coefficients at z = 0 are the increasing-cycle sums
    from snbethe.homogeneous import g_cycles

    n = 4
    pr = xxx_params([0] * n, F(1, 3))
    els = s1_coeff_elements(pr)
    for k, el in enumerate(els, start=2):
        assert el == g_cycles(n, k)
