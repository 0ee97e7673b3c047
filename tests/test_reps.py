"""Representation theory: partitions, characters, idempotents, content
polynomials, seminormal matrices, and the faithful block model."""

import math
from fractions import Fraction

import pytest

from helpers import (
    block_entries,
    block_rows,
    from_entries,
    identity_rows,
    matmul,
    oracle_add,
    oracle_mul,
    oracle_scale,
)
from snbethe.rings import SeededRandom, UPoly
from snbethe.linalg import rank
from snbethe.permutations import (
    GroupAlgebraElement,
    all_permutations,
    antisymmetrizer,
    cycle_type,
    ga_lift,
    ga_perm,
    ga_transposition,
    sign,
)
from snbethe.reps import (
    BlockMatrix,
    block_shapes,
    central_idempotent,
    character,
    content_poly,
    content_product_all,
    dimension,
    partition_parts,
    partitions_of,
    represent,
    seminormal_rep,
    standard_tableaux,
    sum_of_dims,
)
from snbethe.gaudin import jm_elements, phi_polys

F = Fraction


def hook_length_dimension(la):
    """Independent dimension oracle: the hook-length formula."""
    la = tuple(la)
    n = sum(la)
    conj = [sum(1 for p in la if p > j) for j in range(la[0])]
    prod = 1
    for i, p in enumerate(la):
        for j in range(p):
            prod *= (p - j) + (conj[j] - i) - 1
    return math.factorial(n) // prod


def test_partitions_examples():
    assert partitions_of(3) == [(3,), (2, 1), (1, 1, 1)]
    assert len(partitions_of(4)) == 5
    assert len(partitions_of(7)) == 15


def test_character_trivial_and_sign():
    for n in (2, 3, 4, 5):
        for mu in partitions_of(n):
            assert character((n,), mu) == 1
            perm_sign = (-1) ** (n - len(mu))
            assert character((1,) * n, mu) == perm_sign


def test_character_dimension_from_hooks():
    # frozen from the hook-length oracle: 3!/(3*1*1) = 2
    assert hook_length_dimension((2, 1)) == 2
    assert character((2, 1), (1, 1, 1)) == 2
    for n in (4, 5, 6):
        for la in partitions_of(n):
            assert character(la, (1,) * n) == hook_length_dimension(la)
            assert dimension(la) == hook_length_dimension(la)


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        character((2, 1), (2, 2))


def test_idempotents_n2():
    one = GroupAlgebraElement.scalar(2, F(1))
    t = ga_transposition(2, 1, 2)
    assert central_idempotent((2,), 2) == (one + t) * F(1, 2)
    assert central_idempotent((1, 1), 2) == (one - t) * F(1, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_numerator_built_tables_match_fraction_oracles(n):
    # central_idempotent and antisymmetrizer write their numerators
    # directly and are cached; the oracles form one Fraction per permutation
    perms = all_permutations(n)
    for la in partitions_of(n):
        c = F(dimension(la), math.factorial(n))
        want = {p: c * character(la, cycle_type(p)) for p in perms}
        want = {p: x for p, x in want.items() if x}
        got = central_idempotent(list(la), n)  # a list works with the cache
        assert got is central_idempotent(la, n)
        assert list(got.terms.items()) == list(want.items())
        assert all(type(x) is F for x in got.terms.values())
    got = antisymmetrizer(n)
    assert got is antisymmetrizer(n)
    want = {p: F(sign(p), math.factorial(n)) for p in perms}
    assert list(got.terms.items()) == list(want.items())
    assert all(type(x) is F for x in got.terms.values())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_idempotents_complete_and_orthogonal(n):
    chis = {la: central_idempotent(la, n) for la in partitions_of(n)}
    total = GroupAlgebraElement.zero(n)
    for la, chi in chis.items():
        total = total + chi
        assert chi * chi == chi
    assert total == GroupAlgebraElement.scalar(n, F(1))
    las = list(chis)
    for i in range(len(las)):
        for j in range(i + 1, len(las)):
            assert not chis[las[i]] * chis[las[j]]


def _scaled_int_products(n, elements, scale):
    """All pairwise products of central elements with integer n!*coefficients,
    via one composition table and int64 accumulation (bounds asserted)."""
    import numpy as np

    perms = all_permutations(n)
    index = {p: i for i, p in enumerate(perms)}
    order = len(perms)
    table = np.empty((order, order), dtype=np.int32)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[x - 1] for x in q)]
    vecs = []
    for el in elements:
        v = np.zeros(order, dtype=np.int64)
        for p, c in el.terms.items():
            num = c * scale
            assert num.denominator == 1
            v[index[p]] = int(num)
        assert np.max(np.abs(v)) < 2**20  # int64 accumulation is exact
        vecs.append(v)

    def product(a, b):
        out = np.zeros(order, dtype=np.int64)
        for i in np.nonzero(a)[0]:
            np.add.at(out, table[i], a[i] * b)
        return out

    return vecs, product


def test_idempotents_complete_and_orthogonal_n6():
    # at n = 6 the direct products are done in exact scaled-integer form;
    # the fast path is cross-checked against plain multiplication at n = 4
    n4 = 4
    chis4 = [central_idempotent(la, n4) for la in partitions_of(n4)]
    vecs4, product4 = _scaled_int_products(n4, chis4, math.factorial(n4))
    for i, chi in enumerate(chis4):
        direct = chi * chis4[(i + 1) % len(chis4)]
        fast = product4(vecs4[i], vecs4[(i + 1) % len(chis4)])
        lookup = {p: k for k, p in enumerate(all_permutations(n4))}
        for p in all_permutations(n4):
            got = F(int(fast[lookup[p]]), math.factorial(n4) ** 2)
            assert got == direct.coeff(p)

    n = 6
    scale = math.factorial(n)
    chis = [central_idempotent(la, n) for la in partitions_of(n)]
    total = GroupAlgebraElement.zero(n)
    for chi in chis:
        total = total + chi
    assert total == GroupAlgebraElement.scalar(n, F(1))
    vecs, product = _scaled_int_products(n, chis, scale)
    import numpy as np

    for i in range(len(vecs)):
        assert np.array_equal(product(vecs[i], vecs[i]), vecs[i] * scale)
        for j in range(i + 1, len(vecs)):
            assert not product(vecs[i], vecs[j]).any()


def test_content_poly_examples():
    assert content_poly((1,), 1) == UPoly([F(0), F(1)])
    # boxes of (2): contents 0, 1 -> v(v-1)
    assert content_poly((2,), 2) == UPoly([F(0), F(-1), F(1)])
    # boxes of (1,1): contents 0, -1 -> v(v+1)
    assert content_poly((1, 1), 2) == UPoly([F(0), F(1), F(1)])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_content_poly_shift_ratio(n):
    # cross-multiplied form of the shifted-ratio identity
    for la in partitions_of(n):
        pila = content_poly(la, n)
        lhs = pila
        rhs = pila.shift_arg(F(1))
        for i, lam in enumerate(partition_parts(la, n), start=1):
            lhs = lhs * UPoly([F(i), F(1)])
            rhs = rhs * UPoly([F(i - lam), F(1)])
        assert lhs == rhs


def test_seminormal_one_dimensional_shapes():
    for n in (2, 3, 4, 5):
        triv = seminormal_rep((n,))
        assert all(g == [[F(1)]] for g in triv.gens)
        sgn = seminormal_rep((1,) * n)
        assert all(g == [[F(-1)]] for g in sgn.gens)


def test_seminormal_two_one():
    rep = seminormal_rep((2, 1))
    assert rep.gens[0] == [[F(1), F(0)], [F(0), F(-1)]]
    assert rep.gens[1] == [[F(-1, 2), F(3, 4)], [F(1), F(1, 2)]]
    assert all(type(x) is Fraction for g in rep.gens for row in g for x in row)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_seminormal_relations(n):
    for la in partitions_of(n):
        rep = seminormal_rep(la)
        ident = identity_rows(rep.dim)
        for g in rep.gens:
            assert matmul(g, g) == ident
        for i in range(len(rep.gens) - 1):
            a, b = rep.gens[i], rep.gens[i + 1]
            assert matmul(matmul(a, b), a) == matmul(matmul(b, a), b)
        for i in range(len(rep.gens)):
            for j in range(i + 2, len(rep.gens)):
                assert matmul(rep.gens[i], rep.gens[j]) == matmul(rep.gens[j], rep.gens[i])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_jm_content_diagonal(n):
    # J_k acts diagonally with the content of the box holding k
    from snbethe.reps import tableau_positions

    for la in partitions_of(n):
        rep = seminormal_rep(la)
        for k, jm in enumerate(jm_elements(n), start=1):
            d, nums = rep.matrix_of_ga(jm)
            for t_idx, t in enumerate(rep.tableaux):
                pos = tableau_positions(t)[k]
                content = F(pos[1] - pos[0])
                for c in range(rep.dim):
                    want = content if c == t_idx else F(0)
                    assert F(nums[t_idx * rep.dim + c], d) == want


def assert_canonical(bm):
    """The block-matrix form: integer numerators over d > 0 with gcd 1, and
    d = 1 for the zero matrix."""
    nums = [x for b in bm.blocks for x in b]
    assert type(bm.d) is int and bm.d > 0
    assert all(type(x) is int for x in nums)
    assert math.gcd(bm.d, *nums) == 1
    assert bool(bm) == any(nums)
    if not bm:
        assert bm.d == 1


def random_blocks(rng, n, draw):
    """One Fraction-rows block per partition of n, entries from draw()."""
    return [[[F(draw()) for _ in range(k)] for _ in range(k)] for _, k in block_shapes(n)]


def from_blocks(n, rows):
    return from_entries(n, [x for blk in rows for row in blk for x in row])


def test_matrix_product_matches_oracle():
    # block products of every kind of entries, against the Fraction rows
    rng = SeededRandom(4099)
    kinds = {
        "fraction": lambda: rng.rational(3, 5),
        "int": lambda: rng.integer(-3, 3),
        "mixed": lambda: rng.integer(-3, 3) if rng.integer(0, 1) else rng.rational(3, 5),
        "zero": lambda: 0,
    }
    for ka, kb in [(ka, kb) for ka in kinds for kb in kinds]:
        for n in (1, 2, 3, 4):
            a = random_blocks(rng, n, kinds[ka])
            b = random_blocks(rng, n, kinds[kb])
            got = from_blocks(n, a) * from_blocks(n, b)
            assert_canonical(got)
            assert block_rows(got) == oracle_mul(a, b)
    # a seminormal image product, large denominators included
    g = [represent(ga_transposition(5, i, i + 1)) for i in (1, 2, 3)]
    big = g[0] * Fraction(10**12, 7) + g[2] * Fraction(-3, 10**9)
    got = big * g[1]
    assert_canonical(got)
    assert block_rows(got) == oracle_mul(block_rows(big), block_rows(g[1]))


@pytest.mark.parametrize("entry", [0.5, UPoly([Fraction(1), Fraction(1)])])
def test_matrix_product_rejects_non_rational_entries(entry):
    # the scalars are ints and Fractions, the numerators ints
    rational = represent(ga_transposition(2, 1, 2) * F(1, 3))
    with pytest.raises(TypeError):
        rational * entry
    with pytest.raises(TypeError):
        BlockMatrix(2, 3, [[1], [entry]])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_matrix_arithmetic_matches_the_fraction_rows_oracle(n):
    rng = SeededRandom(577 + n)
    draws = (lambda: rng.rational(9, 4), lambda: rng.integer(-5, 5), lambda: 0)
    pool = [(from_blocks(n, rows), rows)
            for rows in [random_blocks(rng, n, rng.choice(draws)) for _ in range(6)]]
    one = BlockMatrix.identity(n)
    pool.append((one, [identity_rows(k) for _, k in block_shapes(n)]))
    for bm, rows in pool:
        assert_canonical(bm)
        assert block_rows(bm) == rows
    for _ in range(40):
        (a, ra), (b, rb) = rng.choice(pool), rng.choice(pool)
        c = rng.choice([0, 1, -3, F(0), F(5, 6), F(-10**9, 7), rng.rational(7, 3)])
        for got, want in ((a * b, oracle_mul(ra, rb)), (a + b, oracle_add(ra, rb)),
                          (a * c, oracle_scale(ra, c)),
                          (a * b + a * c, oracle_add(oracle_mul(ra, rb), oracle_scale(ra, c)))):
            assert_canonical(got)
            assert block_rows(got) == want
            # equal matrices have equal forms, however they were reached
            assert got == from_blocks(n, want)
            pool.append((got, want))
        assert (a == b) == (ra == rb)
        assert a * 1 == a == a * F(1) and a + a * -1 == a * 0 == one * 0
        assert one * a == a * one == a
    zero = one * F(0)
    assert zero.d == 1 and not zero and zero == BlockMatrix(n, 7, [[0] * len(b) for b in one.blocks])
    half = BlockMatrix(n, 4, [[2 * x for x in b] for b in one.blocks])
    assert (half.d, half.blocks) == (2, one.blocks) and half == one * F(1, 2)
    assert one != one * 2 and one != BlockMatrix.identity(n + 1)


def test_block_matrix_degree_mismatch():
    a, b = represent(ga_transposition(3, 1, 2)), represent(ga_transposition(4, 1, 2))
    for op in (lambda: a + b, lambda: a * b, lambda: b + a, lambda: b * a):
        with pytest.raises(ValueError, match="degree mismatch: [34] vs [34]"):
            op()
    # an irreducible action of S_4 applied to an element of S_3
    with pytest.raises(ValueError, match="degree mismatch: 3 vs 4"):
        seminormal_rep((3, 1)).matrix_of_ga(ga_transposition(3, 1, 2))
    with pytest.raises(ValueError):
        BlockMatrix(3, 1, BlockMatrix.identity(4).blocks)
    with pytest.raises(ValueError):
        BlockMatrix(3, 0, BlockMatrix.identity(3).blocks)


def oracle_matrix_of(rep, p):
    """The seminormal image of a permutation as a dense Fraction product along
    its bubble-sort word, as first written."""
    pos = {v: i for i, v in enumerate(p)}
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(1, rep.n):
            if pos[i + 1] < pos[i]:
                word.append(i)
                pos[i], pos[i + 1] = pos[i + 1], pos[i]
                changed = True
    m = identity_rows(rep.dim)
    for i in word:
        m = matmul(m, rep.gens[i - 1])
    return m


def oracle_matrix_of_ga(rep, a):
    """One Fraction matrix per term, summed."""
    acc = [[F(0)] * rep.dim for _ in range(rep.dim)]
    for p, c in a.terms.items():
        m = oracle_matrix_of(rep, p)
        acc = [[x + c * y if y else x for x, y in zip(r, s)] for r, s in zip(acc, m)]
    return acc


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_matrix_of_ga_matches_per_term_oracle(n):
    rng = SeededRandom(211 + n)
    perms = all_permutations(n)
    elements = [GroupAlgebraElement.zero(n), GroupAlgebraElement.scalar(n, 3)]
    elements += [GroupAlgebraElement.from_perm(p, F(-2, 7)) for p in perms]
    for draw in (lambda: rng.rational(3, 5), lambda: rng.integer(-4, 4)):
        for _ in range(4):
            elements.append(GroupAlgebraElement(n, {
                rng.choice(perms): draw() for _ in range(rng.integer(1, 10))}))
    for la in partitions_of(n):
        # a fresh action, so the cache fills in the order the terms ask for it
        rep = seminormal_rep.__wrapped__(la)
        k = rep.dim
        for a in elements:
            d, nums = rep.matrix_of_ga(a)
            assert type(d) is int and d > 0 and all(type(x) is int for x in nums)
            got = [[F(x, d) for x in nums[i:i + k]] for i in range(0, k * k, k)]
            assert got == oracle_matrix_of_ga(rep, a)


def test_matrix_of_ga_rejects_non_rational_coefficients():
    rep = seminormal_rep((2, 1))
    with pytest.raises(TypeError):
        rep.matrix_of_ga(GroupAlgebraElement.scalar(3, 0.5))


def test_represent_identity_and_burnside():
    bm = represent(GroupAlgebraElement.scalar(4, F(1)))
    assert bm == BlockMatrix.identity(4) and bm.d == 1
    assert block_rows(bm) == [identity_rows(dimension(la)) for la in partitions_of(4)]
    assert sum(dimension(la) ** 2 for la in partitions_of(5)) == 120
    assert sum_of_dims(3) == 4
    assert sum_of_dims(4) == 10
    assert sum_of_dims(5) == 26


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_represent_multiplicative_random_sparse(n):
    rng = SeededRandom(61)
    perms = all_permutations(n)
    for _ in range(4):
        a = ga_perm(rng.choice(perms)) * rng.rational(4, 2) + ga_perm(
            rng.choice(perms)
        )
        b = ga_perm(rng.choice(perms)) - ga_perm(rng.choice(perms)) * rng.rational(4, 2)
        assert represent(a * b) == represent(a) * represent(b)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_represent_injective_on_group(n):
    rows = [block_entries(represent(ga_perm(p))) for p in all_permutations(n)]
    assert rank(rows) == math.factorial(n)


def test_represent_idempotent_blocks():
    n = 4
    for la in partitions_of(n):
        bm = represent(central_idempotent(la, n))
        for mu, block in zip(partitions_of(bm.n), block_rows(bm)):
            if mu == la:
                assert block == identity_rows(dimension(mu))
            else:
                assert not any(x for row in block for x in row)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_center_poly_identity(n):
    # sum of signed top coefficients against the idempotent expansion, in t
    _, table = phi_polys(n, tuple(F(k * (k + 1) // 2) for k in range(n)))
    lhs = UPoly()
    for i in range(0, n + 1):
        top = GroupAlgebraElement.scalar(n, F(1)) if i == 0 else table[(i, 0)]
        tail = UPoly([GroupAlgebraElement.scalar(n, F(1))])
        for j in range(i + 1, n + 1):
            tail = tail * UPoly(
                [GroupAlgebraElement.scalar(n, F(j)),
                 GroupAlgebraElement.scalar(n, F(1))]
            )
        lhs = lhs + tail.map_coeffs(lambda c, t=top: c * t * F((-1) ** i))
    rhs = UPoly()
    for la in partitions_of(n):
        chi = central_idempotent(la, n)
        prod = UPoly([GroupAlgebraElement.scalar(n, F(1))])
        for j, lam in enumerate(partition_parts(la, n), start=1):
            prod = prod * UPoly(
                [GroupAlgebraElement.scalar(n, F(j - lam)),
                 GroupAlgebraElement.scalar(n, F(1))]
            )
        rhs = rhs + prod.map_coeffs(lambda c, chi=chi: c * chi)
    assert lhs == rhs


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_content_product_three_forms(n):
    pi = content_product_all(n)
    prod = UPoly([GroupAlgebraElement.scalar(n, F(1))])
    for jm in jm_elements(n):
        prod = prod * UPoly([-jm, GroupAlgebraElement.scalar(n, F(1))])
    assert pi == prod
    from snbethe.permutations import cycle_data

    coeffs = [GroupAlgebraElement.zero(n) for _ in range(n + 1)]
    for p in all_permutations(n):
        c = cycle_data(p).orbit_count
        coeffs[c] = coeffs[c] + ga_perm(p) * F(sign(p))
    assert pi == UPoly(coeffs)


def test_represent_polynomial_input():
    z = (F(0), F(1), F(3))
    poly = phi_polys(3, z)[0][0]
    img = ga_lift(3, poly).map_coeffs(represent)
    assert isinstance(img, UPoly)
    # coefficientwise image agrees with evaluating first
    u0 = F(2, 3)
    evaluated = represent(
        poly.eval_at(GroupAlgebraElement.scalar(3, u0))
    )
    acc = None
    for k, bm in enumerate(img.coeffs):
        t = bm * u0**k
        acc = t if acc is None else acc + t
    assert acc == evaluated


def test_tableaux_count_and_order():
    tabs = standard_tableaux((2, 1))
    assert tabs == (((1, 2), (3,)), ((1, 3), (2,)))
    assert len(standard_tableaux((3, 2))) == 5
