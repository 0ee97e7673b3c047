"""Symmetric group layer: composition convention, cycle data, embeddings,
group-algebra arithmetic, antiinvolutions, and the cycle-deletion trace."""

import itertools
import math
import re
from fractions import Fraction

import pytest

from helpers import bivariate, block_entries
from snbethe.rings import (
    SeededRandom,
    UPoly,
    _division_weights,
    falling_binomial,
    poly_divmod,
)
from snbethe.permutations import (
    CAYLEY_MAX_DEGREE,
    GroupAlgebraElement,
    all_permutations,
    antiinvolution,
    commutators,
    antisymmetrizer,
    class_sum,
    compose,
    cycle,
    cycle_data,
    embed,
    ga_lift,
    ga_perm,
    ga_transposition,
    identity,
    inverse,
    permutation,
    sign,
    top_embed,
    trace_map,
    transposition,
    _cayley,
    _embed_perm,
)
from snbethe import permutations
from snbethe.reps import IrrepAction, central_idempotent, partitions_of, represent

F = Fraction


def s(n, a, b):
    return transposition(n, a, b)


def test_increasing_cycle_convention():
    # s(1,2) s(2,3) must be the 3-cycle 1->2->3->1 (right factor acts first)
    assert compose(s(3, 1, 2), s(3, 2, 3)) == cycle(3, [1, 2, 3]) == (2, 3, 1)
    # and in general the chained product of s(i_k, i_{k+1}) is the increasing cycle
    p = compose(compose(s(5, 1, 3), s(5, 3, 4)), s(5, 4, 5))
    assert p == cycle(5, [1, 3, 4, 5])


def test_compose_inverse_and_cycle_order():
    rng = SeededRandom(3)
    perms = all_permutations(4)
    for _ in range(10):
        p = rng.choice(perms)
        assert compose(p, inverse(p)) == compose(inverse(p), p) == identity(4)
        q, r = rng.choice(perms), rng.choice(perms)
        assert compose(compose(p, q), r) == compose(p, compose(q, r))
        # the right factor acts first: (p*q)(i) = p(q(i))
        assert compose(p, q) == tuple(p[q[i] - 1] for i in range(4))
    g = cycle(3, [1, 2, 3])
    assert compose(compose(g, g), g) == identity(3)  # order of an n-cycle is n
    assert compose((1,), (1,)) == (1,) and compose((), ()) == ()


def test_compose_degree_mismatch():
    with pytest.raises(ValueError, match="degree mismatch: 2 vs 3"):
        compose(identity(2), identity(3))


def test_public_constructor_validates():
    for bad in ([1, 1, 2], [2, 3], [0, 1]):
        with pytest.raises(ValueError, match="not a permutation"):
            permutation(bad)
    assert permutation([2, 3, 1]) == (2, 3, 1)
    assert type(permutation(range(1, 4))) is tuple
    for a, b in ((1, 1), (0, 2), (1, 4)):
        with pytest.raises(ValueError, match="bad transposition"):
            transposition(3, a, b)
    assert transposition(4, 1, 3) == (3, 2, 1, 4)
    # a repeated symbol or one outside 1..n is named, not read modulo n
    for symbols, named in (([1, 1], "[1]"), ([0, 2], "[0]"), ([1, 4], "[4]"),
                           ([2, 3, 2, 5], "[2, 5]")):
        with pytest.raises(ValueError, match=re.escape(f"bad cycle symbols {named} in degree 3")):
            cycle(3, symbols)
    assert cycle(3, [1, 2, 3]) == (2, 3, 1) and cycle(3, []) == identity(3)


def test_element_keys_are_permutations_of_the_degree():
    # every key the constructor is given must be a tuple permutation of 1..n,
    # a zero coefficient's key too; the error names the key
    for bad in ((1, 2), (1, 2, 3, 4), (1, 1, 3), (0, 1, 2), "123", 3):
        with pytest.raises(ValueError, match=re.escape(f"not a permutation of 1..3: {bad!r}")):
            GroupAlgebraElement(3, {bad: 1})
        with pytest.raises(ValueError, match="not a permutation"):
            GroupAlgebraElement(3, {(2, 1, 3): F(1, 2), bad: 0})
    assert GroupAlgebraElement(3, {(3, 1, 2): 2}).terms == {(3, 1, 2): F(2)}
    assert GroupAlgebraElement(0, {(): 1}) == GroupAlgebraElement.scalar(0, 1)


def test_cycle_data_examples():
    d = cycle_data(identity(4))
    assert d.orbit_count == 4 and d.sign == 1
    sigma = compose(compose(cycle(9, [1, 3, 7]), cycle(9, [2, 5, 6])), cycle(9, [8, 9]))
    assert cycle_data(sigma).orbit_count == 4  # the fixed point 4 counts
    d = cycle_data(s(3, 1, 2))
    assert d.orbit_count == 2 and d.sign == -1


def test_sign_homomorphism_random():
    rng = SeededRandom(8)
    perms = all_permutations(5)
    for _ in range(20):
        p, q = rng.choice(perms), rng.choice(perms)
        assert sign(compose(p, q)) == sign(p) * sign(q)


def test_embed_examples():
    e = embed(ga_transposition(2, 1, 2), (1, 3), 4)
    assert e == ga_transposition(4, 1, 3)
    e = embed(GroupAlgebraElement.scalar(2, F(1)), (2, 4), 4)
    assert e == GroupAlgebraElement.scalar(4, F(1))
    a2 = embed(antisymmetrizer(2), (2, 4), 4)
    want = (GroupAlgebraElement.scalar(4, F(1)) - ga_transposition(4, 2, 4)) * F(1, 2)
    assert a2 == want
    with pytest.raises(ValueError):
        embed(antisymmetrizer(2), (1, 1), 4)
    with pytest.raises(ValueError):
        embed(antisymmetrizer(2), (1, 9), 4)


def test_ga_multiply_examples():
    a = ga_transposition(3, 1, 2) + GroupAlgebraElement.scalar(3, F(2))
    assert a * GroupAlgebraElement.scalar(3, F(1)) == a
    for m in (1, 2, 3, 4):
        A = antisymmetrizer(m)
        assert A * A == A
    t = ga_transposition(2, 1, 2)
    assert t * (GroupAlgebraElement.scalar(2, F(1)) + t) == GroupAlgebraElement.scalar(
        2, F(1)
    ) + t


def dict_product(x: dict, y: dict) -> dict:
    """The group-algebra product as first written, on plain dicts of
    coefficients: one validated permutation and one coefficient multiply-add
    per term pair."""
    out = {}
    for p, a in x.items():
        for q, b in y.items():
            r = permutation(p[j - 1] for j in q)
            s = out.get(r, 0) + a * b
            if not s:
                out.pop(r, None)
            else:
                out[r] = s
    return out


def oracle_product(x, y):
    return GroupAlgebraElement(x.n, dict_product(x.terms, y.terms))


# kind -> (coefficient of the identity, coefficient of a transposition,
#          random coefficient); "mixed" draws an int or a Fraction per term,
#          so that an element is built from a dict of both, and it also
#          multiplies all-int by all-Fraction factors
COEFF_KINDS = {
    "fraction": (F(1), F(1), lambda rng: rng.rational(2, 3)),
    "int": (1, 1, lambda rng: rng.integer(-2, 2)),
    "mixed": (1, F(1), lambda rng: rng.integer(-2, 2) if rng.integer(0, 1)
              else rng.rational(2, 3)),
}


def on_cayley_table(x, y):
    """The module docstring's selection rule for one product: neither
    factor c*1 alone (that product is a linear combination), the degree at
    most CAYLEY_MAX_DEGREE, and at least n! term pairs."""
    def unit(a):
        return list(a.terms) == [identity(a.n)]

    return (x.n <= CAYLEY_MAX_DEGREE and not (unit(x) or unit(y))
            and len(x.terms) * len(y.terms) >= math.factorial(x.n))


def assert_same_product(x, y):
    """x*y has the oracle's keys, values and types, its keys in sorted image
    order on the Cayley table and in the oracle's order otherwise; returns
    whether the product took the table."""
    got, want = x * y, oracle_product(x, y)
    dense = on_cayley_table(x, y)
    assert got.terms == want.terms
    assert list(got.terms) == (
        sorted(want.terms) if dense else list(want.terms))
    assert [type(c) for c in got.terms.values()] == [
        type(c) for c in want.terms.values()
    ]
    return dense


@pytest.mark.parametrize("kind", sorted(COEFF_KINDS))
def test_product_matches_oracle(kind):
    one_c, s_c, coeff = COEFF_KINDS[kind]
    rng = SeededRandom(61)
    paths = set()
    for n in (2, 3, 4):
        perms = all_permutations(n)
        for _ in range(15):
            # few small coefficients over few permutations, so partial sums
            # often cancel and keys drop out and come back
            x, y = (
                GroupAlgebraElement(n, {
                    rng.choice(perms): coeff(rng)
                    for _ in range(rng.integer(1, 8))
                })
                for _ in range(2)
            )
            paths.add(assert_same_product(x, y))
        one = GroupAlgebraElement.scalar(n, one_c)
        s_ = GroupAlgebraElement.from_perm(transposition(n, 1, 2), s_c)
        assert_same_product(one - s_, one + s_)
        assert not (one - s_) * (one + s_)
        if n > 2:
            t = GroupAlgebraElement.from_perm(transposition(n, 2, 3), s_c)
            assert_same_product(one - s_, one + s_ + t)
            assert_same_product(t + one - s_, one + s_)
    # every kind reaches both the table and the dict product
    assert paths == {True, False}


@pytest.mark.parametrize("n", [3, 4])
def test_dense_products_with_cancellation(n):
    # products on the Cayley table whose sums cancel: the central
    # idempotents are orthogonal idempotents, and 1 - s(2,3) kills the part
    # of an element that is fixed by right multiplication with s(2,3)
    chis = [central_idempotent(la, n) for la in partitions_of(n)]
    for i, x in enumerate(chis):
        for j, y in enumerate(chis):
            assert assert_same_product(x, y)
            assert x * y == (x if i == j else GroupAlgebraElement.zero(n))
    rng = SeededRandom(83)
    t = s(n, 2, 3)
    for coeff in (lambda: rng.integer(1, 5), lambda: rng.nonzero_rational(3, 3)):
        # full support; on the permutations fixing 1 (a union of cosets
        # {g, g*t}) the coefficients are constant on each coset, elsewhere
        # they are pairwise distinct
        terms = {}
        for k, p in enumerate(all_permutations(n)):
            pt = compose(p, t)
            terms[p] = terms[pt] if p[0] == 1 and pt in terms else coeff() + 10 * k
        x = GroupAlgebraElement(n, terms)
        for one in (1, F(1)):
            y = GroupAlgebraElement(n, {identity(n): one, t: -one})
            assert assert_same_product(x, y)
            got = x * y
            assert len(x.terms) == math.factorial(n)
            assert len(got.terms) == math.factorial(n) - math.factorial(n - 1)
            assert all(p[0] != 1 for p in got.terms)


def test_cayley_table_matches_permutation_product():
    for n in range(1, CAYLEY_MAX_DEGREE + 1):
        index, perms, rows = _cayley(n)
        assert perms == all_permutations(n)
        assert all(index[p] == i for i, p in enumerate(perms))
        assert len(rows) == len(perms)
        rng = SeededRandom(89 + n)
        # every entry to n = 5, a sample of 40 columns of every row at n = 6
        columns = (range(len(perms)) if n <= 5
                   else sorted({rng.integer(0, len(perms) - 1) for _ in range(40)}))
        for i, p in enumerate(perms):
            assert len(rows[i]) == len(perms)
            for j in columns:
                assert perms[rows[i][j]] == compose(p, perms[j])


def oracle_dot(n, pairs):
    def plain(x):
        return x.terms if isinstance(x, GroupAlgebraElement) else x

    return GroupAlgebraElement(n, dict_dot(n, [(plain(a), plain(b)) for a, b in pairs]))


@pytest.mark.parametrize("kind", sorted(COEFF_KINDS))
def test_dot_matches_sum_of_oracle_products(kind):
    _, _, coeff = COEFF_KINDS[kind]
    rng = SeededRandom(67)
    for n in (2, 3, 4):
        perms = all_permutations(n)

        def element():
            if not rng.integer(0, 5):
                return GroupAlgebraElement.zero(n)
            return GroupAlgebraElement(n, {
                rng.choice(perms): coeff(rng) for _ in range(rng.integer(1, 6))
            })

        def scalar():
            # the kind's own scalars, and sometimes a scalar of the other
            # kind, so that pairs of different kinds meet
            roll = rng.integer(0, 5)
            return (0 if roll == 0 else rng.integer(-2, 2) if roll == 1
                    else rng.rational(2, 3) if roll == 2 else coeff(rng))

        for _ in range(25):
            pairs = []
            for _ in range(rng.integer(1, 4)):
                shape = rng.integer(0, 3)
                a = scalar() if shape == 1 else element()
                b = scalar() if shape == 2 else element()
                pairs.append((a, b))
                if shape == 3:
                    # a pair that cancels the last one
                    pairs.append((-a, b))
            got = GroupAlgebraElement.dot(pairs)
            assert got.n == n
            assert got.terms == oracle_dot(n, pairs).terms
        # one pair is the product itself
        x, y = element(), element()
        assert GroupAlgebraElement.dot([(x, y)]).terms == (x * y).terms
        s_ = GroupAlgebraElement.from_perm(transposition(n, 1, 2), coeff(rng))
        assert not GroupAlgebraElement.dot([(s_, s_), (-s_, s_)])


def test_dot_rejects_mixed_degrees():
    with pytest.raises(ValueError, match="degree mismatch"):
        GroupAlgebraElement.dot([(ga_perm(s(2, 1, 2)), ga_perm(s(3, 1, 2)))])


def test_dot_of_no_pairs_has_no_degree():
    with pytest.raises(ValueError, match="no pairs has no degree"):
        GroupAlgebraElement.dot([])
    # pairs of two scalars alone are a scalar sum of products
    assert GroupAlgebraElement.dot([(2, F(1, 3)), (F(1, 2), 4)]) == F(8, 3)


def flat_coeffs(p) -> list:
    """The coefficients of a polynomial, or of each coefficient in turn of a
    polynomial over polynomials."""
    return [c for x in p.coeffs for c in (x.coeffs if isinstance(x, UPoly) else [x])]


@pytest.mark.parametrize("kind", ["fraction", "int", "mixed"])
def test_polynomial_products_over_the_group_algebra_match_the_generic_loop(
        kind, monkeypatch):
    # the products and divisions with the ``dot`` hook against the same ones
    # once the hook is gone, which is the loop the polynomial code ran
    # before it
    _, _, coeff = COEFF_KINDS[kind]
    rng = SeededRandom(71)
    n = 3
    perms = all_permutations(n)

    def entry():
        roll = rng.integer(0, 4)
        if roll == 0:
            return 0
        if roll == 1:
            return coeff(rng)  # scalar coefficients beside elements
        return GroupAlgebraElement(n, {
            rng.choice(perms): coeff(rng) for _ in range(rng.integer(1, 4))
        })

    def multiply(f, g):
        return [f * g]

    def divide(f, g):
        return list(poly_divmod(f, g))

    cases = []
    for _ in range(12):
        f = UPoly([entry() for _ in range(rng.integer(1, 4))] + [ga_perm(s(n, 1, 2))])
        g = UPoly([entry() for _ in range(rng.integer(1, 4))] + [entry() or 1])
        cases.append((multiply, f, g))
        rows = [[entry() for _ in range(3)] for _ in range(rng.integer(1, 3))]
        cases.append((multiply, bivariate(rows + [[ga_perm(s(n, 2, 3))]]),
                      bivariate([[entry(), entry()], [entry(), coeff(rng) or 1]])))
        divisor = UPoly([rng.rational(3, 3) for _ in range(rng.integer(0, 3))]
                        + [rng.nonzero_rational(3, 3)])
        cases.append((divide, f * f, divisor))
    hooked = [op(f, g) for op, f, g in cases]
    monkeypatch.delattr(GroupAlgebraElement, "dot")
    for got, (op, f, g) in zip(hooked, cases):
        for x, y in zip(got, op(f, g), strict=True):
            assert type(x) is type(y)
            xs, ys = (flat_coeffs(p) for p in (x, y))
            assert len(xs) == len(ys)
            for a, b in zip(xs, ys):
                if type(a) is not type(b):
                    # a zero output of a division may be the empty element
                    # on one side and the scalar 0 on the other
                    assert op is divide and not a and not b
                elif isinstance(a, GroupAlgebraElement):
                    assert a.terms == b.terms
                else:
                    assert a == b


def test_division_weights_are_shared_per_divisor_and_type():
    # the weights depend on len(f.coeffs) and g alone; equal divisors of
    # another coefficient type (1.0 == 1 == F(1)) get their own weights
    n = 3
    f = UPoly([ga_perm(s(n, 1, 2)), ga_transposition(n, 1, 3) * F(1, 2),
               GroupAlgebraElement.scalar(n, F(3))])
    _division_weights.cache_clear()
    got = poly_divmod(f, UPoly([F(1), F(1)]))
    assert poly_divmod(f, UPoly([F(1), F(1)])) == got
    rational = _division_weights(len(f.coeffs), (F(1), F(1)), (F, F))
    floats = _division_weights(len(f.coeffs), (1.0, 1.0), (float, float))
    info = _division_weights.cache_info()
    assert (info.misses, info.hits) == (2, 2)
    assert floats == rational and floats is not rational
    assert {type(x) for part in floats for w in part.coeffs for x in w.coeffs
            if x} == {float}
    for part in got:
        for c in part.coeffs:
            assert {type(v) for v in c.terms.values()} == {F}
    # an element holds no float coefficient, so a float divisor is refused
    with pytest.raises(TypeError, match="float"):
        poly_divmod(f, UPoly([1.0, 1.0]))


def test_antisymmetrizer_examples():
    assert antisymmetrizer(1) == GroupAlgebraElement.scalar(1, F(1))
    want = (GroupAlgebraElement.scalar(2, F(1)) - ga_transposition(2, 1, 2)) * F(1, 2)
    assert antisymmetrizer(2) == want
    a3 = antisymmetrizer(3)
    assert len(a3.terms) == 6
    assert all(abs(c) == F(1, 6) for c in a3.terms.values())
    for p in all_permutations(3):
        assert ga_perm(p) * a3 == a3 * F(sign(p))
    with pytest.raises(ValueError):
        antisymmetrizer(0)


def test_antiinvolution_examples():
    a = ga_perm(compose(s(3, 1, 2), s(3, 2, 3)))
    assert antiinvolution(a, "dagger") == ga_perm(compose(s(3, 2, 3), s(3, 1, 2)))
    rng = SeededRandom(17)
    for _ in range(10):
        x = ga_perm(rng.choice(all_permutations(4))) * rng.rational(3, 2)
        y = ga_perm(rng.choice(all_permutations(4))) + GroupAlgebraElement.scalar(
            4, rng.rational(3, 2)
        )
        assert (x * y).dagger() == y.dagger() * x.dagger()
    # star coincides with dagger on rational coefficients
    assert antiinvolution(a, "star") == antiinvolution(a, "dagger")


def test_phi_generators_dagger_fixed_n3():
    from snbethe.gaudin import phi_polys

    _, table = phi_polys(3, (F(0), F(1), F(3)))
    for g in table.values():
        assert g.dagger() == g


def oracle_trace_map(a, n, m, p):
    """The trace map as first written: each permutation's cycle record loses
    the symbols above n, and each term adds c * p**lost."""
    assert a.n == n + m
    acc = {}
    for perm, c in a.terms.items():
        im = list(range(1, n + 1))
        lost = 0
        for cyc in cycle_data(perm).cycles:
            kept = [s for s in cyc if s <= n]
            if not kept:
                lost += 1
                continue
            for i, s in enumerate(kept):
                im[s - 1] = kept[(i + 1) % len(kept)]
        tau = permutation(im)
        acc[tau] = acc.get(tau, 0) + c * p**lost
    if isinstance(p, UPoly):
        # the sums are polynomials in p; T_l collects their p^l coefficients
        top = max((c.degree for c in acc.values()), default=-1)
        return UPoly([GroupAlgebraElement(n, {t: c.coeff(l) for t, c in acc.items()})
                      for l in range(top + 1)])
    return GroupAlgebraElement(n, acc)


def typed_terms(a):
    """Every term in key order with the type of its coefficient; for a
    polynomial in p, those of each of its coefficients."""
    if isinstance(a, UPoly):
        return [typed_terms(c) for c in a.coeffs]
    return [(q, type(c).__name__, c) for q, c in a.terms.items()]


TRACE_SHAPES = ((1, 0), (1, 1), (2, 2), (3, 3), (2, 4), (4, 2))


@pytest.mark.parametrize("kind", ["fraction", "int"])
@pytest.mark.parametrize("n,m", TRACE_SHAPES)
def test_trace_map_matches_cycle_record_oracle(kind, n, m):
    _, unit, coeff = COEFF_KINDS[kind]
    rng = SeededRandom(97 + 10 * n + m)
    perms = all_permutations(n + m)
    elements = [GroupAlgebraElement(n + m)]
    for _ in range(6):
        elements.append(GroupAlgebraElement(n + m, {
            rng.choice(perms): coeff(rng) for _ in range(rng.integer(1, 12))}))
    if m > 1:
        # x and g x g^-1, g in the top S_m, leave the same residual and lose
        # as many orbits, so c (x - g x g^-1) traces to zero and cancels
        # against any other term on the same residual
        tops = [_embed_perm(g, range(n + 1, n + m + 1), n + m)
                for g in all_permutations(m)[1:]]
        for _ in range(4):
            x, g, c = rng.choice(perms), rng.choice(tops), coeff(rng) or unit
            cancel = GroupAlgebraElement(n + m, {x: c}) - GroupAlgebraElement(
                n + m, {compose(compose(g, x), inverse(g)): c})
            elements += [cancel, cancel + elements[1]]
    if m:
        # the identity loses m orbits and (n, n+1) one fewer, on the same
        # residual, so this cancels at p = 2
        elements.append(GroupAlgebraElement(n + m, {
            identity(n + m): unit,
            transposition(n + m, n, n + 1): -2 * unit}))
    for p in (2, F(2), F(-1, 3), UPoly.gen()):
        for a in elements:
            got, want = trace_map(a, n, m, p), oracle_trace_map(a, n, m, p)
            assert got == want
            assert typed_terms(got) == typed_terms(want), (a, p)
            if isinstance(p, UPoly):
                assert all(type(x) is Fraction
                           for c in got.coeffs for x in c.terms.values())
    if m:
        assert not trace_map(elements[-1], n, m, 2)
    if m > 1:
        assert any(a and not trace_map(a, n, m, UPoly.gen()) for a in elements)


def test_trace_map_rejects_other_parameters():
    a = GroupAlgebraElement.scalar(3, F(1))
    with pytest.raises(TypeError):
        trace_map(a, 2, 1, 0.5)
    with pytest.raises(ValueError):
        trace_map(a, 2, 1, UPoly.gen() + 1)
    with pytest.raises(TypeError):
        trace_map(GroupAlgebraElement.scalar(3, 0.5), 2, 1, F(2))


@pytest.mark.parametrize("kind", ["fraction", "int"])
def test_symbolic_trace_evaluates_to_the_rational_traces(kind):
    # the polynomial in p over the group algebra, evaluated at p, is the
    # trace at that p, for every n + m <= 6
    _, _, coeff = COEFF_KINDS[kind]
    rng = SeededRandom(211)
    for big in range(1, 7):
        perms = all_permutations(big)
        for m in range(big + 1):
            n = big - m
            for _ in range(3):
                a = GroupAlgebraElement(big, {
                    rng.choice(perms): coeff(rng) for _ in range(rng.integer(1, 10))})
                symbolic = trace_map(a, n, m, UPoly.gen())
                assert isinstance(symbolic, UPoly)
                for p in (2, F(-1, 3), F(17)):
                    assert symbolic.eval_at(p) == trace_map(a, n, m, p), (a, n, m, p)


def test_trace_map_worked_example():
    sigma = compose(compose(cycle(9, [1, 3, 7]), cycle(9, [2, 5, 6])), cycle(9, [8, 9]))
    p = UPoly.gen()
    got = trace_map(GroupAlgebraElement.from_perm(sigma), 4, 5, p)
    assert got == p * ga_perm(cycle(4, [1, 3]))


def test_trace_map_identity_and_binomial():
    p = UPoly.gen()
    for n, m in ((2, 3), (3, 2), (1, 4)):
        got = trace_map(GroupAlgebraElement.scalar(n + m, F(1)), n, m, p)
        assert got == ga_lift(n, p**m)
    for m in range(1, 5):
        A = top_embed(antisymmetrizer(m), 2, m)
        got = trace_map(A, 2, m, p)
        assert got == ga_lift(2, falling_binomial(p, m))
    # concrete p works too and agrees with the polynomial specialization
    got = trace_map(top_embed(antisymmetrizer(3), 1, 3), 1, 3, F(5))
    assert got == GroupAlgebraElement.scalar(1, F(math.comb(5, 3)))


def test_trace_map_degree_check():
    with pytest.raises(ValueError):
        trace_map(GroupAlgebraElement.scalar(4, F(1)), 2, 3, F(2))


def test_trace_cyclicity_exhaustive_small():
    # collections overlapping only above n: exhaustive at n = m = 1 over S_2
    p = UPoly.gen()
    n, m = 1, 1
    for X in all_permutations(2):
        for Y in all_permutations(2):
            a = embed(GroupAlgebraElement.from_perm(X), (1, 2), 2)
            b = embed(GroupAlgebraElement.from_perm(Y), (2, 1), 2)
            assert trace_map(a * b, n, m, p) == trace_map(b * a, n, m, p)


def test_trace_cyclicity_random():
    p = UPoly.gen()
    rng = SeededRandom(23)
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            big = n + m
            for _ in range(6):
                k = rng.integer(1, big)
                pool = list(range(1, big + 1))
                rs = []
                for _ in range(k):
                    c = rng.choice(pool)
                    pool.remove(c)
                    rs.append(c)
                allowed = [x for x in range(1, big + 1) if x > n or x not in rs]
                if not allowed:
                    continue
                l = rng.integer(1, len(allowed))
                pool = list(allowed)
                ss = []
                for _ in range(l):
                    c = rng.choice(pool)
                    pool.remove(c)
                    ss.append(c)
                a = embed(
                    GroupAlgebraElement.from_perm(rng.choice(all_permutations(k))),
                    rs, big,
                )
                b = embed(
                    GroupAlgebraElement.from_perm(rng.choice(all_permutations(l))),
                    ss, big,
                )
                assert trace_map(a * b, n, m, p) == trace_map(b * a, n, m, p)


def test_trace_nested_antisymmetrizer_reduction():
    p = UPoly.gen()
    rng = SeededRandom(31)
    for n in (1, 2):
        for k in (0, 1, 2):
            for m in range(max(k, 1), 5):
                X = rng.choice(all_permutations(n + k))
                outer = top_embed(antisymmetrizer(m), n, m) * embed(
                    GroupAlgebraElement.from_perm(X), range(1, n + k + 1), n + m
                )
                lhs = trace_map(outer, n, m, p)
                inner = trace_map(
                    top_embed(antisymmetrizer(k), n, k) * GroupAlgebraElement.from_perm(X)
                    if k else GroupAlgebraElement.from_perm(X),
                    n, k, p,
                )
                factor = UPoly([F(1)])
                for i in range(1, m - k + 1):
                    factor = factor * (p + F(i - m)) * F(1, m + 1 - i)
                assert lhs == inner * factor


def test_trace_respects_dagger():
    p = UPoly.gen()
    rng = SeededRandom(37)
    for n, k in ((2, 1), (2, 2), (3, 2)):
        for _ in range(6):
            X = GroupAlgebraElement.from_perm(rng.choice(all_permutations(n + k)))
            assert trace_map(X.dagger(), n, k, p) == \
                trace_map(X, n, k, p).map_coeffs(GroupAlgebraElement.dagger)


def test_group_algebra_ring_axioms_random():
    rng = SeededRandom(43)
    perms = all_permutations(4)

    def rand_elem():
        out = GroupAlgebraElement.zero(4)
        for _ in range(3):
            out = out + ga_perm(rng.choice(perms)) * rng.rational(4, 2)
        return out

    for _ in range(12):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_class_sum_sizes():
    assert len(class_sum(4, (2, 1, 1)).terms) == 6
    assert len(class_sum(4, (4,)).terms) == 6
    assert len(class_sum(4, (2, 2)).terms) == 3


def test_every_key_is_a_tuple(monkeypatch):
    # a permutation is its image tuple wherever an element or a cache keys
    # one, and every coefficient an element reads is a Fraction, for
    # int-built elements too: products through each of the three loops, the
    # element operations, the trace map at a rational and the symbolic p,
    # and the irreducible action's cache of permutation images
    loops = set()
    for name in ("_combination", "_cayley_dot", "_accumulate"):
        def spy(*args, name=name, real=getattr(permutations, name)):
            out = real(*args)
            if out is not None:
                loops.add(name)
            return out
        monkeypatch.setattr(permutations, name, spy)

    def keys(a):
        if isinstance(a, UPoly):
            return [k for c in a.coeffs for k in keys(c)]
        return list(a.numerators()[1]) + list(a.terms)

    def terms(a):
        if isinstance(a, UPoly):
            return [c for x in a.coeffs for c in terms(x)]
        return list(a.terms.values())

    n = 4
    x = class_sum(n, (3, 1)) * F(1, 2) + ga_perm(cycle(n, [1, 2]))
    y = class_sum(n, (2, 1, 1)) - 3
    t = GroupAlgebraElement(n, {transposition(n, 1, 2): 1, transposition(n, 3, 4): 1})
    three = GroupAlgebraElement.scalar(n, 3)
    built = [x, y, t, three, -x, -t, t + t, t - 1, x * F(2, 3), x.dagger(), t.dagger(),
             embed(t, (1, 2, 4, 5), 5), top_embed(x, 2, n), antisymmetrizer(3),
             class_sum(5, (2, 2, 1))]
    built += [x * 2, 2 * x, t * 2, x * three, x * y, t * t, three * three,
              GroupAlgebraElement.dot([(x, y), (t, t), (y, 5)]),
              GroupAlgebraElement.dot([(t, t), (three, t)])]
    assert loops == {"_combination", "_cayley_dot", "_accumulate"}
    wide = top_embed(x, 2, n) * embed(t, (1, 2, 3, 6), 6)
    ints = embed(t * t, (1, 2, 3, 6), 6)
    built += [trace_map(a, 2, n, p) for a in (wide, ints) for p in (2, F(1, 3), UPoly.gen())]
    rep = IrrepAction((2, 1, 1))
    rep.matrix_of_ga(x * y)
    assert len(rep._perm_cache) > 1
    for a in built:
        assert keys(a) and all(type(k) is tuple for k in keys(a)), a
        assert all(type(c) is F for c in terms(a)), a
    assert all(type(k) is tuple for k in rep._perm_cache)
    assert all(type(p) is tuple for p in all_permutations(n))


def test_json_round_shapes():
    a = ga_transposition(2, 1, 2) * F(1, 3) + GroupAlgebraElement.scalar(2, F(2))
    j = a.to_json()
    assert j == [
        {"perm": [1, 2], "coeff": "2/1"},
        {"perm": [2, 1], "coeff": "1/3"},
    ]


def test_all_permutations_match_the_validated_list():
    # rng.choice draws depend on this order
    for n in range(1, 5):
        validated = [permutation(im) for im in itertools.permutations(range(1, n + 1))]
        assert all_permutations(n) == validated
        assert identity(n) == permutation(range(1, n + 1))


# The element operations against plain dicts of coefficients: the same keys
# and values, and the key order where the operation fixes one (a sum lists
# self's keys then other's new ones).

def dict_add(x: dict, y: dict) -> dict:
    out = dict(x)
    for p, c in y.items():
        s = out.get(p, 0) + c
        if s:
            out[p] = s
        else:
            out.pop(p, None)
    return out


def dict_neg(x: dict) -> dict:
    return {p: -c for p, c in x.items()}


def dict_lift(n: int, c) -> dict:
    return {identity(n): c} if c else {}


def dict_times(x: dict, c, left: bool) -> dict:
    out = {p: c * v if left else v * c for p, v in x.items()}
    return {p: v for p, v in out.items() if v}


def dict_dot(n: int, pairs) -> dict:
    """A sum of products as the polynomial loop first formed it: each pair
    of dicts or scalars through ``dict_product``, scalars read on the
    identity, the products added left to right."""
    def plain(x):
        return x if isinstance(x, dict) else dict_lift(n, x)

    acc = {}
    for a, b in pairs:
        acc = dict_add(acc, dict_product(plain(a), plain(b)))
    return acc


def assert_matches(got, want: dict, ordered=True):
    assert got.terms == want
    if ordered:
        assert list(got.terms) == list(want)
    assert bool(got) == bool(want)
    built = GroupAlgebraElement(got.n, want)
    assert got == built and hash(got) == hash(built)


# input kind -> one random coefficient; "mixed" starts with an int and ends
# with a Fraction, so that its dict holds both
ELEMENT_KINDS = {
    "int": lambda rng: rng.integer(-3, 3),
    "fraction": lambda rng: rng.rational(3, 4),
    "mixed": lambda rng: (rng.integer(-3, 3) if rng.integer(0, 1)
                          else rng.rational(3, 4)),
    "empty": None,
}
SCALARS = (
    lambda rng: 0,
    lambda rng: rng.integer(-3, 3),
    lambda rng: rng.rational(3, 4),
)


def random_plain(rng, perms, kind) -> dict:
    draw = ELEMENT_KINDS[kind]
    if draw is None:
        return {}
    out = {rng.choice(perms): draw(rng) for _ in range(rng.integer(1, 6))}
    if kind == "mixed":
        out[perms[0]], out[perms[-1]] = rng.integer(1, 3), rng.nonzero_rational(3, 4)
    return {p: c for p, c in out.items() if c}


@pytest.mark.parametrize("n", [3, 4])
def test_element_operations_match_plain_dicts(n):
    rng = SeededRandom(101 + n)
    perms = all_permutations(n)
    # (element, its plain dict); results take the place of one of the copies
    # in the second half, so operations also see elements that the kernels
    # built
    pool = []
    for kind in ELEMENT_KINDS:
        for _ in range(3):
            x = random_plain(rng, perms, kind)
            pool.append((GroupAlgebraElement(n, x), x))
    base = len(pool)
    pool += pool
    for a, x in pool:
        assert_matches(a, x)
    seen = set()
    for _ in range(300):
        (a, x), (b, y) = rng.choice(pool), rng.choice(pool)
        c = SCALARS[rng.integer(0, len(SCALARS) - 1)](rng)
        op = rng.integer(0, 9)
        seen.add(op)
        if op == 0:
            got, want = a + b, dict_add(x, y)
        elif op == 1:
            got, want = a - b, dict_add(x, dict_neg(y))
        elif op == 2:
            got, want = -a, dict_neg(x)
        elif op == 3:
            got, want = c * a, dict_times(x, c, True)
        elif op == 4:
            got, want = a * c, dict_times(x, c, False)
        elif op == 5 and rng.integer(0, 1):
            got, want = a + c, dict_add(x, dict_lift(n, c))
        elif op == 5:
            got, want = c - a, dict_add(dict_neg(x), dict_lift(n, c))
        elif op in (6, 7):
            pairs = [((a, x), (b, y))] + [
                rng.choice([(rng.choice(pool), c), (c, rng.choice(pool)),
                            (rng.choice(pool), rng.choice(pool))])
                for _ in range(rng.integer(0, 2))]
            got = GroupAlgebraElement.dot(
                [tuple(f[0] if isinstance(f, tuple) else f for f in pair)
                 for pair in pairs])
            plain = [tuple(f[1] if isinstance(f, tuple) else f for f in pair)
                     for pair in pairs]
            assert_matches(got, dict_dot(n, plain), ordered=False)
            continue
        elif op == 8:
            e, z = rng.choice(pool)
            got = commutators([a, c, b, e] if c else [a, b, e])
            plains = [x, c, y, z] if c else [x, y, z]
            want = []
            for i, u in enumerate(plains):
                for v in plains[i + 1:]:
                    if isinstance(u, dict) or isinstance(v, dict):
                        pairs = [(u, v), (dict_neg(v) if isinstance(v, dict) else -v, u)]
                        want.append(dict_dot(n, pairs))
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert_matches(g, w, ordered=False)
            continue
        else:
            (e, z) = rng.choice(pool)
            blocks = block_entries(represent(e))
            want = [0] * len(blocks)
            for p, v in z.items():
                image = block_entries(represent(ga_perm(p)))
                want = [w + v * m for w, m in zip(want, image)]
            assert blocks == want
            m = rng.integer(1, n - 1)
            for t in (2, F(-1, 3), UPoly.gen()):
                got = trace_map(e, n - m, m, t)
                want = oracle_trace_map(GroupAlgebraElement(n, z), n - m, m, t)
                if isinstance(t, UPoly):
                    assert got == want and typed_terms(got) == typed_terms(want)
                else:
                    assert_matches(got, want.terms)
            continue
        assert_matches(got, want)
        pool[rng.integer(base, len(pool) - 1)] = (got, want)
        for e, z in pool:
            assert (got == e) == (want == z)
    assert seen == set(range(10))
    # a dict of ints and Fractions traces like its plain dict, to Fractions
    x = {perms[0]: 1, perms[-1]: F(1, 2), perms[1]: 2}
    got = trace_map(GroupAlgebraElement(n, x), n - 1, 1, 2)
    assert got.terms and {type(v) for v in got.terms.values()} == {F}
    assert got == oracle_trace_map(GroupAlgebraElement(n, x), n - 1, 1, 2)
    # equal int and Fraction coefficients build equal elements with one hash
    ints = GroupAlgebraElement(n, {p: k + 1 for k, p in enumerate(perms[:3])})
    fracs = GroupAlgebraElement(n, {p: F(k + 1) for k, p in enumerate(perms[:3])})
    assert ints == fracs and hash(ints) == hash(fracs)
    assert list(ints.terms.items()) == list(fracs.terms.items())


def test_hash_reads_the_form():
    # equal elements built from int and Fraction coefficients hash equal, as
    # the keys of a cache of elements need, and hashing builds no terms
    perms = all_permutations(3)
    ints = GroupAlgebraElement(3, {p: k + 1 for k, p in enumerate(perms[:3])})
    fracs = GroupAlgebraElement(3, {p: F(k + 1) for k, p in enumerate(perms[:3])})
    halves = fracs * F(1, 2)
    doubled = halves * 2
    elements = (ints, fracs, halves, doubled)
    assert ints == fracs == doubled != halves
    assert hash(ints) == hash(fracs) == hash(doubled) != hash(halves)
    assert {(ints,): "cached"}[(fracs,)] == "cached"
    assert all(a._terms is None for a in elements)


def test_elements_hold_only_int_and_fraction_coefficients():
    t = transposition(3, 1, 2)
    for bad in (0.5, 0.0, True, UPoly.gen(), UPoly([F(1)])):
        with pytest.raises(TypeError, match=type(bad).__name__):
            GroupAlgebraElement(3, {t: bad})
    a = ga_perm(t)
    for op in (lambda: a * 0.5, lambda: 0.5 * a, lambda: a + 0.5, lambda: a - 0.5,
               lambda: GroupAlgebraElement.dot([(a, 0.5)])):
        with pytest.raises(TypeError, match="float"):
            op()
    # with a polynomial the element steps aside, and the polynomial's
    # reflected operator takes the element as a coefficient
    x = UPoly.gen()
    for op in (a.__add__, a.__mul__, a.__eq__):
        assert op(x) is NotImplemented and op(bivariate([[F(2)]])) is NotImplemented
    assert a * x == x * a == UPoly([GroupAlgebraElement.zero(3), a])
    assert a + x == UPoly([a, GroupAlgebraElement.scalar(3, 1)])
    assert a - x == UPoly([a, GroupAlgebraElement.scalar(3, -1)])
    assert a * bivariate([[F(2)]]) == bivariate([[a * 2]])


def shuffled(rng, items) -> list:
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.integer(0, i)
        out[i], out[j] = out[j], out[i]
    return out


@pytest.mark.parametrize("n", [3, 4])
def test_scalar_side_dots_match_plain_dicts(n):
    # dots in which every live pair has a factor c*1 alone are linear
    # combinations: the same keys and values as the plain dicts, and
    # the key order of the accumulation, even at n! term pairs, where a
    # product would take the Cayley table
    rng = SeededRandom(301 + n)
    perms = all_permutations(n)
    one = identity(n)
    draws = {int: lambda: rng.integer(-3, 3), F: lambda: rng.rational(3, 4)}

    def dot(case):
        return GroupAlgebraElement.dot([
            tuple(GroupAlgebraElement(n, f) if isinstance(f, dict) else f for f in pair)
            for pair in case])

    for kind, draw in draws.items():
        # n! terms in a shuffled key order, so that sorted order shows
        full = {p: draw() or kind(1) for p in shuffled(rng, perms)}
        other = {p: draw() or kind(2) for p in shuffled(rng, perms)[: len(perms) // 2]}
        c = kind(2) if kind is int else F(-2, 3)
        cases = [
            [(full, c)],                                  # a bare scalar on the right
            [(c, full)],                                  # and on the left
            [({one: c}, full)],                           # an identity-only element
            [(full, {one: c}), (other, c)],
            [(full, 1), (full, -1), (other, c)],          # every key dropped, then new ones
            [(full, c), (other, -c), (other, c), ({one: c}, {one: -c})],
            [({one: c}, c), (c, {one: -c})],              # both factors c*1, summing to 0
            [(full, {one: c}), (-c, full)],               # zero
        ]
        for _ in range(20):
            x = random_plain(rng, perms, "int" if kind is int else "fraction")
            cases.append([
                rng.choice([(x, draw()), (draw(), x), ({one: draw() or c}, x),
                            (full, -draw())])
                if x else (full, draw())
                for _ in range(rng.integer(1, 4))])
        for case in cases:
            assert_matches(dot(case), dict_dot(n, case))
        # one true product beside a scalar pair stays on the product path:
        # n! term pairs on the Cayley table, so its keys come in sorted order
        case = [(full, c), ({transposition(n, 1, 2): kind(1)}, full)]
        got, want = dot(case), dict_dot(n, case)
        assert_matches(got, want, ordered=False)
        assert list(got.terms) == sorted(want) != list(want)


def test_rational_elements_build_no_terms_until_read():
    from snbethe.gaudin import phi_polys

    # the table that suites.gaudin_table caches, built afresh so that no
    # other test has read it
    table = phi_polys(4, (F(0), F(1, 2), F(3), F(7, 3)))[1]
    built = list(table.values()) + commutators(list(table.values()))
    assert built and all(a._terms is None for a in built)
    for a in built:
        terms = a.terms
        assert a._terms is terms and all(type(c) is F for c in terms.values())


# Commutators: the one-product form ab - (ab)† of dagger-fixed pairs against
# the two-pair dot ab + (-b)a, compared as elements.

def two_pair_commutators(items) -> list:
    return [GroupAlgebraElement.dot(((a, b), (-b, a)))
            for i, a in enumerate(items) for b in items[i + 1:]
            if isinstance(a, GroupAlgebraElement) or isinstance(b, GroupAlgebraElement)]


@pytest.mark.parametrize("n", [3, 4])
def test_self_adjoint_commutators_match_the_two_pair_dot(n):
    from snbethe.gaudin import phi_polys

    table = list(phi_polys(n, (F(1, 2), F(-3, 4), F(3), F(-7, 3))[:n])[1].values())
    assert all(a.dagger() == a for a in table)
    got, want = commutators(table), two_pair_commutators(table)
    assert len(got) == len(want) == len(table) * (len(table) - 1) // 2
    assert got == want and not any(got)


def test_self_adjoint_commutator_needs_both_supports():
    # s(1,2) and s(2,3) are dagger-fixed and do not commute: ab is (1 2 3)
    # and (ab)† = ba is (1 3 2), a key outside supp(ab)
    a, b = ga_transposition(3, 1, 2), ga_transposition(3, 2, 3)
    want = ga_perm(cycle(3, [1, 2, 3])) - ga_perm(cycle(3, [1, 3, 2]))
    assert (a * b).support() == [cycle(3, [1, 2, 3])]
    [got] = commutators([a, b])
    assert got == want == a * b - b * a
    assert got.support() == sorted([cycle(3, [1, 2, 3]), cycle(3, [1, 3, 2])])
    assert commutators([b, a]) == [-want]


def test_commutator_of_an_unfixed_element_takes_the_two_pair_dot():
    c = ga_perm(cycle(4, [1, 2, 3])) + ga_perm(cycle(4, [1, 2, 3, 4])) * F(1, 2)
    s = ga_transposition(4, 3, 4) * 3
    assert c.dagger() != c and s.dagger() == s
    items = [c, s, c * s]
    got = commutators(items)
    assert got == two_pair_commutators(items)
    assert got == [x * y - y * x for i, x in enumerate(items) for y in items[i + 1:]]
    assert all(got)


def test_commutators_with_scalars():
    a = ga_transposition(3, 1, 2) * F(2, 3) + ga_perm(cycle(3, [1, 2, 3]))
    s = ga_transposition(3, 2, 3)
    items = [F(2), s, 3, a, F(-1, 5)]
    got = commutators(items)
    # two scalars form no commutator; a scalar commutes with everything,
    # on the one-product path beside s and on the two-pair dot beside a,
    # which the dagger does not fix
    assert a.dagger() != a
    assert len(got) == 10 - 3
    assert got == two_pair_commutators(items)
    assert [bool(g) for g in got] == [False, False, False, True, False, False, False]
    assert commutators([F(1), 2]) == []


def test_max_commutator_forms_one_product_per_dagger_fixed_pair(monkeypatch):
    # the term pairs that reach the two product loops on the n = 4 gaudin
    # table: |a||b| once for each pair of elements neither of which is c*1
    # alone (those are linear combinations and form none), and twice as
    # many for the two-pair dot
    from snbethe.gaudin import phi_polys
    from snbethe.suites import default_z, max_commutator

    pairs = []
    real_cayley, real_accumulate = permutations._cayley_dot, permutations._accumulate

    def cayley_dot(n, scaled):
        scaled = [(list(left), list(right)) for left, right in scaled]
        pairs.append(sum(len(left) * len(right) for left, right in scaled))
        return real_cayley(n, scaled)

    def accumulate(acc, left, right):
        left, right = list(left), list(right)
        pairs.append(len(left) * len(right))
        return real_accumulate(acc, left, right)

    monkeypatch.setattr(permutations, "_cayley_dot", cayley_dot)
    monkeypatch.setattr(permutations, "_accumulate", accumulate)
    table = list(phi_polys(4, default_z(4))[1].values())
    one = identity(4)
    sizes = [len(a.numerators()[1]) for a in table
             if set(a.numerators()[1]) != {one}]
    once = sum(x * y for i, x in enumerate(sizes) for y in sizes[i + 1:])
    assert once > 0
    assert max_commutator(table) == 0
    assert sum(pairs) == once
    pairs.clear()
    two_pair_commutators(table)
    assert sum(pairs) == 2 * once


@pytest.mark.parametrize("n", [3, 4])
def test_conjugate_relabels_as_the_two_products(n):
    from snbethe.permutations import conjugate

    rng = SeededRandom(501 + n)
    perms = all_permutations(n)
    for _ in range(20):
        a = GroupAlgebraElement(n, random_plain(rng, perms, "mixed"))
        s = rng.choice(perms)
        got = conjugate(a, s)
        assert got == ga_perm(s) * a * ga_perm(inverse(s))
        assert got.numerators()[0] == a.numerators()[0]
    with pytest.raises(ValueError, match="degree mismatch"):
        conjugate(ga_perm(identity(n)), identity(n + 1))
