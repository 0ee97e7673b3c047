"""Homogeneous family: cycle sums, local charges, window densities, and the
Taylor-coefficient determinant presentation."""

import math
from fractions import Fraction

import pytest

from helpers import bivariate, series_mul_oracle
from snbethe import homogeneous
from snbethe.rings import UPoly
from snbethe.permutations import (
    GroupAlgebraElement,
    compose,
    cycle,
    ga_lift,
    ga_perm,
    ga_transposition,
    identity,
    inverse,
    transposition,
)
from snbethe.homogeneous import (
    charge_from_density,
    det_P_hat,
    g_cycles,
    gamma_perm,
    homogeneous_generators,
    homogeneous_params,
    local_charges,
    local_density,
    s1_homogeneous,
)
from snbethe.xxx import s_k_poly, t_gen, t_m_poly, xxx_params

F = Fraction


def ga(n, c):
    return GroupAlgebraElement.scalar(n, F(c))


def test_g_cycles_examples():
    assert g_cycles(3, 2) == (
        ga_transposition(3, 1, 2) + ga_transposition(3, 1, 3) + ga_transposition(3, 2, 3)
    )
    assert g_cycles(3, 3) == ga_perm(cycle(3, [1, 2, 3]))
    with pytest.raises(ValueError):
        g_cycles(3, 4)
    with pytest.raises(ValueError):
        g_cycles(3, 1)


def test_gamma_is_product_of_adjacent_transpositions():
    for n in (3, 4, 5):
        prod = identity(n)
        for i in range(1, n):
            prod = compose(prod, transposition(n, i, i + 1))
        assert prod == gamma_perm(n)
        assert g_cycles(n, n) == ga_perm(gamma_perm(n))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_s1_from_cycle_sums(n):
    assert s1_homogeneous(n) == s_k_poly(homogeneous_params(n), 1)


def test_charge_one_examples():
    # the first charge is the full transposition sum
    charges = local_charges(3)
    assert charges[0] == g_cycles(3, 2)
    # and the cyclic sum of the one-window density at every n
    for n in (3, 4, 5, 6):
        charges = local_charges(n)
        acc = GroupAlgebraElement.zero(n)
        gam = ga_perm(gamma_perm(n))
        gam_inv = ga_perm(inverse(gamma_perm(n)))
        cur = ga_transposition(n, 1, 2)
        for _ in range(n):
            acc = acc + cur
            cur = gam * cur * gam_inv
        assert acc == charges[0]


def test_density_closed_forms():
    assert local_density(1) == ga_transposition(2, 1, 2)
    s12 = ga_transposition(3, 1, 2)
    s23 = ga_transposition(3, 2, 3)
    want = (s23 * s12 - s12 * s23 - ga(3, 1)) * F(1, 2)
    assert local_density(2) == want


@pytest.mark.parametrize("k,ns", [(1, (3, 4, 5, 6)), (2, (4, 5, 6)), (3, (5, 6))])
def test_densities_rebuild_charges(k, ns):
    th = local_density(k)
    for n in ns:
        charges = local_charges(n)
        assert charge_from_density(n, k, th) == charges[k - 1]


def test_local_charges_requires_three_symbols():
    with pytest.raises(ValueError):
        local_charges(2)


def test_charges_commute_with_shift_and_each_other():
    for n in (4, 5):
        gam = ga_perm(gamma_perm(n))
        charges = local_charges(n)
        for c in charges:
            assert c * gam == gam * c
        for i in range(len(charges)):
            for j in range(i + 1, len(charges)):
                assert charges[i] * charges[j] == charges[j] * charges[i]


def test_det_P_hat_zero_polynomial():
    # q = 0: determinant of (u - shift)(v) is u^n v^n
    det = det_P_hat(3, UPoly())
    want = bivariate([[0] * 4, [0] * 4, [0] * 4, [0, 0, 0, F(1)]])
    assert det == want


def test_det_P_hat_n2_hand_value():
    # q = 2u + s: the hand-expanded 2x2 determinant equals the generating
    # polynomial at the homogeneous point
    s = ga_transposition(2, 1, 2)
    q = UPoly([s, ga(2, 2)])
    det = ga_lift(2, det_P_hat(2, q))
    assert det == t_gen(homogeneous_params(2))


def test_det_P_hat_n1_scalar():
    # n = 1, q(u) = 1: entry q/(u+1) has Taylor coefficient 1 at order 0
    det = det_P_hat(1, UPoly([F(1)]))
    # (u)(v - 1) - 1
    want = bivariate([[F(-1)], [F(-1), F(1)]])
    assert det == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_det_P_hat_taylor_matrix_matches_per_entry_oracle(n, monkeypatch):
    # Q[a][b] = coefficient of u^(n-a) in q(u) (1+u)^(-b), each entry formed
    # on its own from the closed form of (1+u)^(-b) and a list product
    q = s_k_poly(homogeneous_params(n), 1)
    seen = []
    monkeypatch.setattr(homogeneous, "presentation_det", lambda Z, Q, R: seen.append((Q, R)))
    det_P_hat(n, q)
    want = []
    for a in range(1, n + 1):
        row = []
        for b in range(1, n + 1):
            inv = [(-1) ** j * math.comb(b + j - 1, j) for j in range(n - a + 1)]
            row.append(series_mul_oracle(q.coeffs, inv, n - a)[n - a])
        want.append(row)
    assert seen == [(want, want)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generating_det_presentation(n):
    params = homogeneous_params(n)
    lhs = t_gen(params)
    rhs = ga_lift(n, det_P_hat(n, s_k_poly(params, 1)))
    assert lhs == rhs


@pytest.mark.parametrize("n", [3, 4, 5])
def test_charges_generate_the_algebra(n):
    from snbethe.reps import represent
    from snbethe.spectra import algebra_span

    gens1 = [represent(ga_perm(gamma_perm(n)))] + [
        represent(c) for c in local_charges(n)
    ]
    gens2 = [represent(g) for g in homogeneous_generators(n)]
    assert algebra_span(gens1).same_span(algebra_span(gens2))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_well_defined_across_parameters(n):
    from snbethe.reps import represent
    from snbethe.spectra import algebra_span

    spans = []
    for (hb, z1) in ((F(1), F(0)), (F(2), F(0)), (F(1), F(5))):
        pr = xxx_params((z1,) * n, hb)
        gens = []
        for m in range(1, n):
            poly = t_m_poly(pr, m, p=F(2))
            for i in range(1, n + 1):
                c = poly.coeff(n - i)
                gens.append(
                    represent(
                        c if isinstance(c, GroupAlgebraElement)
                        else GroupAlgebraElement.scalar(n, c)
                    )
                )
        if not gens:  # n = 1 edge: the family is scalar
            continue
        spans.append(algebra_span(gens))
    for other in spans[1:]:
        assert spans[0].same_span(other)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dagger_star_invariance(n):
    from snbethe.reps import represent
    from snbethe.spectra import algebra_span

    base = algebra_span([represent(g) for g in homogeneous_generators(n)])
    dag = algebra_span([represent(g.dagger()) for g in homogeneous_generators(n)])
    star = algebra_span([represent(g.star()) for g in homogeneous_generators(n)])
    assert base.same_span(dag)
    assert base.same_span(star)


def test_dagger_invariant_claim_is_a_membership_check(monkeypatch):
    from types import SimpleNamespace

    from snbethe import suites

    cfg = SimpleNamespace(n=3)
    assert suites.homog_dagger_invariant(cfg, None, suites.Builds()) is True
    # x = s(1,2) + (1 2 3): alg(x) has dimension 3 and does not hold x^dagger
    x = ga_transposition(3, 1, 2) + ga_perm(cycle(3, [1, 2, 3]))
    span = suites.span_of(3, [x])
    assert span.dim == 3
    monkeypatch.setattr(suites, "homogeneous_generators", lambda n: [x])
    monkeypatch.setattr(suites, "homogeneous_span", lambda b, n: span)
    assert suites.homog_dagger_invariant(cfg, None, suites.Builds()) is False
