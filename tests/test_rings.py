"""Exact core: polynomials, series, squarefree test, seeded randomness."""

from fractions import Fraction

import pytest

from snbethe.rings import (
    BiPoly,
    MultiPoly,
    SeededRandom,
    UPoly,
    _int_scaled,
    falling_binomial,
    poly_divmod,
    poly_gcd,
    series_exp,
    series_inverse,
    series_log,
    squarefree_test,
)
from snbethe.permutations import GroupAlgebraElement, ga_transposition

F = Fraction


def P(*coeffs):
    return UPoly([F(c) for c in coeffs])


def test_mul_example():
    # (u+1)(u-1) = u^2 - 1
    assert P(1, 1) * P(-1, 1) == P(-1, 0, 1)


def test_shift_example():
    # u^2 at u -> u - 1
    assert P(0, 0, 1).shift_arg(F(-1)) == P(1, -2, 1)


def test_int_scaled():
    assert _int_scaled([F(1, 2), 3, F(-2, 3), F(0)]) == (6, [3, 18, -4, 0])
    assert _int_scaled(iter([1, -2])) == (1, [1, -2])
    assert _int_scaled([]) == (1, [])
    for bad in (0.5, P(1)):
        with pytest.raises(TypeError):
            _int_scaled([F(1), bad])


def test_cancellation_gives_canonical_zero():
    f = P(2, 0, 5)
    z = f + (-f)
    assert z.coeffs == []
    assert z.degree == -1
    assert not z


def test_subst_linear_and_eval():
    f = P(1, 2, 3)
    g = f.subst_linear(F(2), F(-1))  # f(2u - 1)
    for u0 in (F(0), F(1), F(-3, 2)):
        assert g.eval_at(u0) == f.eval_at(2 * u0 - 1)


def test_divmod_and_gcd():
    f = P(-1, 0, 1) * P(3, 1) + P(7)
    q, r = poly_divmod(f, P(-1, 0, 1))
    assert q == P(3, 1) and r == P(7)
    g = poly_gcd(P(-1, 0, 1) * P(5, 1), P(-1, 1) * P(5, 1))
    assert g == P(-5, 4, 1)  # (u+5)(u-1), monic


def test_series_log_example():
    assert series_log(P(1, 1), 3) == P(0, 1, F(-1, 2), F(1, 3))


def test_series_inverse_example():
    assert series_inverse(P(1, 1) * P(1, 1), 2) == P(1, -2, 3)


def test_series_roundtrip_example():
    f = P(1, 1, 1)
    assert series_exp(series_log(f, 4), 4) == f


def test_series_roundtrip_group_algebra():
    # group-algebra-valued series with unit constant term
    s = ga_transposition(3, 1, 2)
    t = ga_transposition(3, 2, 3)
    one = GroupAlgebraElement.scalar(3, F(1))
    f = UPoly([one, s * F(1, 2) + t, t * F(-2), s * t])
    assert series_exp(series_log(f, 5), 5) == f


def test_series_preconditions():
    with pytest.raises(ValueError):
        series_log(P(2, 1), 3)
    with pytest.raises(ValueError):
        series_inverse(P(0, 1), 3)
    with pytest.raises(ValueError):
        series_exp(P(1, 1), 3)


def test_squarefree_examples():
    assert squarefree_test(P(-1, 0, 1)) is True
    assert squarefree_test(P(1, -2, 1)) is False
    # u^3 - 2u^2 + u = u(u-1)^2
    assert squarefree_test(P(0, 1, -2, 1)) is False
    with pytest.raises(ValueError):
        squarefree_test(UPoly())


def test_squarefree_shared_factor_products():
    rng = SeededRandom(7)
    for _ in range(20):
        c = rng.rational(5, 2)
        common = P(0, 1) + UPoly([c])
        f = common * (P(1, 1) + UPoly([rng.rational(5, 2)]))
        g = common * (P(2, 0, 1) + UPoly([rng.rational(5, 2)]))
        if poly_gcd(f, g).degree > 0:
            assert squarefree_test(f * g) is False


def _random_poly(rng, deg):
    return UPoly([rng.rational(6, 3) for _ in range(deg + 1)])


def test_ring_axioms_random_triples():
    rng = SeededRandom(2024)
    for _ in range(25):
        a, b, c = (_random_poly(rng, rng.integer(0, 4)) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


def test_bipoly_ring_axioms_random():
    rng = SeededRandom(99)

    def rand_bp():
        return BiPoly(
            [[rng.rational(4, 2) for _ in range(rng.integer(1, 3))]
             for _ in range(rng.integer(1, 3))]
        )

    for _ in range(20):
        a, b, c = rand_bp(), rand_bp(), rand_bp()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_bipoly_coefficients_and_shifts():
    # (u + v)^2
    b = BiPoly([[0, 0, 1], [0, 2], [1]])
    assert b.deg_u == 2 and b.deg_v == 2
    assert b.coeff(1, 1) == 2
    assert b.v_coeff(0) == P(0, 0, 1)
    shifted = b.subst_v_shift(F(1))  # (u + v + 1)^2
    for u0, v0 in ((F(0), F(0)), (F(2), F(-1)), (F(1, 3), F(5))):
        assert shifted.eval(u0, v0) == (u0 + v0 + 1) ** 2


def test_multipoly_truncated_products():
    x = MultiPoly.variable(3, 0)
    y = MultiPoly.variable(3, 1)
    p = (x + y).mul_trunc(x + y, 2)
    assert p.coeff((1, 1, 0)) == 2
    assert (x * y).mul_trunc(x, 2).total_degree() == -1  # truncated away


def test_seeded_random_reproducible():
    a = SeededRandom(123)
    b = SeededRandom(123)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    c = SeededRandom(124)
    assert [a.rational() for _ in range(5)] != [c.rational() for _ in range(5)]


def test_falling_binomial_matches_integer_binomials():
    import math

    for p in range(0, 8):
        for m in range(0, 5):
            assert falling_binomial(F(p), m) == math.comb(p, m)
