"""Exact core: polynomials, gcds, series, seeded randomness."""

import math
from fractions import Fraction

import pytest

from helpers import (
    bivariate, coeff_uv, multi_variable, poly_gcd, scalar_root_poly_oracle, series_mul_oracle,
    v_coeff,
)
from snbethe.rings import (
    MultiPoly,
    SeededRandom,
    UPoly,
    _int_scaled,
    falling_binomial,
    log1p,
    poly_divmod,
    scalar_root_poly,
    series_exp,
    series_inverse,
    series_log,
)
from snbethe.permutations import (
    GroupAlgebraElement,
    all_permutations,
    ga_lift,
    ga_transposition,
)

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


def test_scalar_minus_polynomial():
    assert 0 - P(1) == P(-1)
    assert 2 - P(1, 3) == P(1, -3)
    assert F(1, 2) - P(0, 1) == P(F(1, 2), -1)
    assert F(1, 2) - P(F(1, 2)) == UPoly() and (0 - UPoly()) == UPoly()
    # a nested read above the u-degree is the int 0
    p, q = bivariate([[F(1), F(2)]]), bivariate([[F(1)], [F(3), F(0), F(4)]])
    assert p.coeff(1) == 0
    assert p.coeff(1) - q.coeff(1) == UPoly([F(-3), F(0), F(-4)])
    assert [p.coeff(i) - q.coeff(i) for i in range(2)] == (p - q).coeffs


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
    # (1+u)^(-b) = sum_j (-1)^j C(b+j-1, j) u^j, as Fractions
    for b in range(1, 6):
        got = series_inverse(P(1, 1) ** b, 6).coeffs
        assert got == [(-1) ** j * math.comb(b + j - 1, j) for j in range(7)]
        assert all(type(c) is Fraction for c in got)


@pytest.mark.parametrize("poly", [P(1, 1), bivariate([[F(1), F(1)]])])
def test_negative_power_raises(poly):
    with pytest.raises(ValueError, match="negative power"):
        poly ** -1


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


def cut(p, order):
    """p with every term above u^order dropped."""
    return UPoly(p.coeffs[:order + 1])


S12, S23 = ga_transposition(3, 1, 2), ga_transposition(3, 2, 3)
# pairs of polynomials over the rationals, over the group algebra of S_3 and
# over polynomials in v
MUL_TRUNC_CASES = {
    "fraction": (P(1, -2, 0, 3), P(F(1, 2), 1, 4)),
    "group-algebra": (UPoly([S12, S23, S12 * S23]), UPoly([S23 * F(2), S12 + S23])),
    "nested": (bivariate([[F(1), F(2)], [], [F(3), F(0), F(1)]]),
               bivariate([[F(0), F(1)], [F(1, 2)]])),
}


@pytest.mark.parametrize("case", MUL_TRUNC_CASES)
def test_mul_trunc_is_the_product_cut_at_the_order(case):
    a, b = MUL_TRUNC_CASES[case]
    full = a * b
    # order 0 up to orders above the product's degree
    for order in range(full.degree + 3):
        got = a.mul_trunc(b, order)
        assert got == cut(full, order)
        assert got == UPoly(series_mul_oracle(a.coeffs, b.coeffs, order))
        assert UPoly.dot(((a, b), (b, a)), order) == cut(a * b + b * a, order)


def test_nested_truncated_product_keeps_polynomial_slots():
    # u-coefficient 1 of a is zero and b has one u-coefficient, so slot 1 of
    # the product has no pairs; it stays a polynomial in v
    a, b = MUL_TRUNC_CASES["nested"][0], bivariate([[F(0), F(1)]])
    for order in (2, 3, 5):
        got = a.mul_trunc(b, order)
        assert got.coeffs[1] == UPoly()
        assert all(type(c) is UPoly for c in got.coeffs)


def series_log_oracle(f, order):
    """log f up to u^order on coefficient lists, each power a list product:
    the list-based logarithm, kept as the oracle of ``series_log``."""
    one = f.coeffs[0]
    g = (f.coeffs + [0] * order)[:order + 1]
    g[0] = g[0] - one
    acc, power = [0] * (order + 1), [one] + [0] * order
    for k in range(1, order + 1):
        power = series_mul_oracle(power, g, order)
        acc = [x + F((-1) ** (k + 1), k) * y for x, y in zip(acc, power)]
    return UPoly(acc)


def test_series_log_matches_the_list_oracle():
    one = GroupAlgebraElement.scalar(3, F(1))
    for f in (P(1, 1), P(1, 3, 0, F(-1, 2)),
              UPoly([one, S12 * F(1, 2) + S23, S23 * F(-2), S12 * S23])):
        for order in range(6):
            assert series_log(f, order) == series_log_oracle(f, order)


def test_log1p_of_a_multipoly_is_the_truncated_log_series():
    # the sum of (-1)^(t+1) X^t / t over t <= 3, every power a truncated
    # product: the window-table loop of the homogeneous charges
    x, y, z = (multi_variable(3, i, c) for i, c in enumerate((S12, S23, S12 * S23)))
    X = x + y * F(1, 2) + x * z - y * y
    bound = 3
    want = MultiPoly(3)
    power = MultiPoly.const(3, GroupAlgebraElement.scalar(3, F(1)))
    for t in range(1, bound + 1):
        power = power.mul_trunc(X, bound)
        want = want + F((-1) ** (t + 1), t) * power
    assert total_degree(want) == bound
    assert log1p(X, bound) == want


def test_series_preconditions():
    with pytest.raises(ValueError):
        series_log(P(2, 1), 3)
    with pytest.raises(ValueError):
        series_inverse(P(0, 1), 3)
    with pytest.raises(ValueError):
        series_exp(P(1, 1), 3)


def test_squarefree_examples():
    # gcd(f, f') is constant exactly when f has no repeated root;
    # u^3 - 2u^2 + u = u(u-1)^2
    for f, repeated in ((P(-1, 0, 1), False), (P(1, -2, 1), True),
                        (P(0, 1, -2, 1), True)):
        assert (poly_gcd(f, f.deriv()).degree > 0) == repeated


def test_squarefree_shared_factor_products():
    rng = SeededRandom(7)
    for _ in range(20):
        c = rng.rational(5, 2)
        common = P(0, 1) + UPoly([c])
        f = common * (P(1, 1) + UPoly([rng.rational(5, 2)]))
        g = common * (P(2, 0, 1) + UPoly([rng.rational(5, 2)]))
        if poly_gcd(f, g).degree > 0:
            assert poly_gcd(f * g, (f * g).deriv()).degree > 0


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
        return bivariate(
            [[rng.rational(4, 2) for _ in range(rng.integer(1, 3))]
             for _ in range(rng.integer(1, 3))]
        )

    for _ in range(20):
        a, b, c = rand_bp(), rand_bp(), rand_bp()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def bipoly_eval(b, u0, v0):
    """b(u0, v0): each coefficient's polynomial in v at v0, then the
    u-polynomial at u0."""
    return UPoly([c.eval_at(v0) for c in b.coeffs]).eval_at(u0)


def test_bipoly_coefficients_and_shifts():
    # (u + v)^2, read through the coefficients in v of its u-coefficients
    b = bivariate([[0, 0, 1], [0, 2], [1]])
    assert b.degree == 2 and max(c.degree for c in b.coeffs) == 2
    assert coeff_uv(b, 1, 1) == 2 and coeff_uv(b, 3, 0) == coeff_uv(b, 2, 1) == 0
    assert v_coeff(b, 0) == P(0, 0, 1)
    shifted = b.map_coeffs(lambda c: c.shift_arg(F(1)))  # (u + v + 1)^2
    for u0, v0 in ((F(0), F(0)), (F(2), F(-1)), (F(1, 3), F(5))):
        assert bipoly_eval(shifted, u0, v0) == (u0 + v0 + 1) ** 2


def total_degree(p: MultiPoly) -> int:
    """The largest total degree of a term of p, -1 for the zero polynomial."""
    return max((sum(e) for e in p.terms), default=-1)


def test_multipoly_truncated_products():
    x = multi_variable(3, 0)
    y = multi_variable(3, 1)
    p = (x + y).mul_trunc(x + y, 2)
    assert p.coeff((1, 1, 0)) == 2 and total_degree(p) == 2
    assert total_degree((x * y).mul_trunc(x, 2)) == -1  # truncated away


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


def test_division_by_an_int_lead_is_exact():
    # an int leading coefficient is inverted exactly, a float one as a float
    q, r = poly_divmod(UPoly([F(1), F(2), F(3)]), UPoly([1, 1]))
    assert (q, r) == (UPoly([F(-1), F(3)]), UPoly([F(2)]))
    assert all(type(c) is Fraction for c in q.coeffs + r.coeffs)
    inv = series_inverse(UPoly([2, 1]), 3)
    assert inv.coeffs == [F(1, 2), F(-1, 4), F(1, 8), F(-1, 16)]
    assert all(type(c) is Fraction for c in inv.coeffs)
    assert all(type(c) is float for c in series_inverse(UPoly([2.0, 1]), 3).coeffs)
    assert all(type(c) is float
               for c in poly_divmod(UPoly([F(1), F(2), F(3)]), UPoly([1.0, 1.0]))[0].coeffs)
    # over the group algebra the int divisor divides like the Fraction one
    f = UPoly([ga_transposition(3, 1, 2), ga_transposition(3, 1, 3), ga_transposition(3, 2, 3)])
    assert poly_divmod(f, UPoly([1, 1])) == poly_divmod(f, UPoly([F(1), F(1)]))


# --- the dict-keyed oracle for polynomials in u over polynomials in v ------


def as_dict(p) -> dict:
    """{(i, j): coefficient of u^i v^j} over the nonzero coefficients of a
    polynomial in u over polynomials in v."""
    return {(i, j): c for i, row in enumerate(p.coeffs)
            for j, c in enumerate(row.coeffs) if c}


def oracle_mul(a: dict, b: dict) -> dict:
    """Each u^i v^j coefficient of a*b as one sum of the products of its term
    pairs, collected in lexicographic (i, j) order of a's terms: one
    ``GroupAlgebraElement.dot`` when an element is among them, else added
    left to right."""
    slots = {}
    for (i, j), x in sorted(a.items()):
        for (k, l), y in sorted(b.items()):
            slots.setdefault((i + k, j + l), []).append((x, y))
    out = {}
    for key, pairs in slots.items():
        if any(isinstance(x, GroupAlgebraElement) for pair in pairs for x in pair):
            c = GroupAlgebraElement.dot(pairs)
        else:
            c = pairs[0][0] * pairs[0][1]
            for x, y in pairs[1:]:
                c = c + x * y
        if c:
            out[key] = c
    return out


def oracle_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, y in b.items():
        out[key] = out[key] + y if key in out else y
    return {key: c for key, c in out.items() if c}


def oracle_pow(a: dict, e: int) -> dict:
    """a**e, e >= 1, by the squarings and products of ``UPoly.__pow__``."""
    result, base = None, a
    while True:
        if e & 1:
            result = base if result is None else oracle_mul(result, base)
        e >>= 1
        if not e:
            return result
        base = oracle_mul(base, base)


def assert_matches_oracle(got, want: dict):
    """The same nonzero coefficients, of the same types, an element's terms
    in the same key order, and only polynomials as coefficients in u."""
    assert all(isinstance(c, UPoly) for c in got.coeffs)
    have = as_dict(got)
    assert list(have) == sorted(want)
    for key, c in want.items():
        assert type(have[key]) is type(c)
        assert have[key] == c
        if isinstance(c, GroupAlgebraElement):
            assert list(have[key].terms.items()) == list(c.terms.items())


PERMS3 = all_permutations(3)
BIVARIATE_KINDS = {
    "fraction": lambda rng: rng.rational(5, 3),
    "float": lambda rng: float(rng.rational(9, 7)) / 3,
    "element": lambda rng: GroupAlgebraElement(
        3, {rng.choice(PERMS3): rng.rational(3, 2) for _ in range(rng.integer(1, 3))}),
}


@pytest.mark.parametrize("kind", sorted(BIVARIATE_KINDS))
def test_bivariate_arithmetic_matches_the_dict_oracle(kind):
    coeff = BIVARIATE_KINDS[kind]
    rng = SeededRandom(4242)

    def draw():
        return bivariate([[coeff(rng) if rng.integer(0, 3) else 0
                           for _ in range(rng.integer(0, 3))]
                          for _ in range(rng.integer(1, 3))])

    for _ in range(12):
        a, b = draw(), draw()
        da, db = as_dict(a), as_dict(b)
        assert_matches_oracle(a * b, oracle_mul(da, db))
        assert_matches_oracle(a + b, oracle_add(da, db))
        assert_matches_oracle(a - b, oracle_add(da, {k: -c for k, c in db.items()}))
        for e in (1, 2, 3):
            assert_matches_oracle(a ** e, oracle_pow(da, e))


def test_polynomials_over_polynomials_keep_polynomial_coefficients():
    s = ga_transposition(3, 1, 2)
    v = bivariate([[0, F(1)]])
    u = bivariate([[0], [F(1)]])
    p = (u * u - v * s) * (v - F(1))
    # a constant, a zeroth power and a scalar polynomial are read as
    # constants in a product, whose empty slots are zero polynomials
    for q in (p * bivariate([[F(2)]]), p * p ** 0, p ** 0 * p, p * UPoly([F(2)]),
              u * u * u, ga_lift(3, p)):
        assert q.coeffs and all(isinstance(c, UPoly) for c in q.coeffs)
    assert p ** 0 == UPoly([F(1)])
    assert p * p ** 0 == p ** 0 * p == p
    assert (u * u * u).coeffs[:3] == [UPoly(), UPoly(), UPoly()]
    assert UPoly.dot([(p, F(2)), (F(-1), p)]) == p
    assert UPoly.dot([]) == UPoly()


def test_divmod_of_polynomials_over_polynomials_is_the_step_by_step_division():
    rng = SeededRandom(808)
    element = BIVARIATE_KINDS["element"]
    for coeff in (lambda r: r.rational(5, 3), element):
        for _ in range(6):
            f = bivariate([[coeff(rng) for _ in range(rng.integer(1, 3))]
                           for _ in range(rng.integer(2, 5))])
            g = UPoly([rng.rational(3, 2) for _ in range(rng.integer(0, 2))]
                      + [rng.nonzero_rational(3, 2)])
            q, r = poly_divmod(f, g)
            assert all(isinstance(c, UPoly) for c in q.coeffs + r.coeffs)
            assert q * g + r == f


def test_a_quotient_slot_that_no_step_reaches_is_the_zero_of_the_coefficients():
    # a*u^3 + b divided by u^2 + 1, and by u: each step below the top finds
    # a zero remainder coefficient and is skipped
    a, b = UPoly([F(1), F(2)]), UPoly([F(-3), 0, F(1, 2)])
    f = UPoly([b, UPoly(), UPoly(), a])
    for g, want in ((UPoly([F(1), 0, F(1)]), [UPoly(), a]),
                    (UPoly([0, F(1)]), [UPoly(), UPoly(), a])):
        q, r = poly_divmod(f, g)
        assert q.coeffs == want
        assert all(type(c) is UPoly for c in q.coeffs + r.coeffs)
        assert q * g + r == f
    # over the group algebra the skipped slot is the scalar zero
    s, t = ga_transposition(3, 1, 2), ga_transposition(3, 2, 3)
    q, r = poly_divmod(UPoly([t, GroupAlgebraElement.zero(3), s]), UPoly([0, F(1)]))
    assert q.coeffs == [0, s] and type(q.coeffs[0]) is int
    assert r.coeffs == [t]


def typed(p):
    return [(type(c), c) for c in p.coeffs]


def test_scalar_root_poly_recurrence_matches_the_polynomial_product():
    # values and coefficient types: a slot that no nonzero term reaches is
    # the int 0, and which slots those are depends on the root order
    # ((u - 0)(u - 1)(u + 1) has the Fraction 0 at u^2, (u - 1)(u + 1)(u - 0)
    # the int 0), so the recurrence must leave out exactly the terms the
    # product leaves out
    import itertools

    values = (0, F(0), 1, -1, F(1, 2), F(-1, 2), F(3))
    for k in range(5):
        for roots in itertools.product(values, repeat=k):
            got = scalar_root_poly(roots)
            assert typed(got) == typed(scalar_root_poly_oracle(roots))
            for cut in range(k + 1):
                continued = scalar_root_poly(roots[cut:], scalar_root_poly(roots[:cut]))
                assert typed(continued) == typed(got)
    assert typed(scalar_root_poly([0, 1, -1]))[2] == (F, 0)
    assert typed(scalar_root_poly([1, -1, 0]))[2] == (int, 0)
    assert typed(scalar_root_poly([])) == [(F, 1)]


def test_nested_constant_equals_a_constant_read_as_a_scalar():
    # (V - V) - 2 adds the scalar to the zero polynomial and so holds a
    # bare scalar where the nested form holds UPoly([-2]); equality reads
    # any non-polynomial ring element as the constant polynomial
    from snbethe.gaudin import V

    flat = (V - V) - F(2)
    nested = UPoly([UPoly([F(-2)])])
    assert flat.coeffs == [F(-2)]
    assert flat == nested and nested == flat
    assert ga_lift(3, flat) == ga_lift(3, nested)
    assert ga_lift(3, nested) == ga_lift(3, flat)
    assert ga_lift(3, flat) != ga_lift(3, UPoly([UPoly([F(2)])]))
    assert ga_lift(3, flat) != ga_lift(3, UPoly([UPoly([F(-2), F(1)])]))
    g = ga_transposition(3, 1, 2)
    assert UPoly([g]) == g and g == UPoly([g]) and UPoly([UPoly([g])]) == g
    assert UPoly() == GroupAlgebraElement.zero(3) and UPoly([g]) != GroupAlgebraElement.zero(3)
    assert UPoly([g, g]) != g
