"""Representation theory: partitions, characters, idempotents, content
polynomials, seminormal matrices, and the faithful block model."""

import math
from fractions import Fraction

import pytest

from snbethe.rings import SeededRandom, UPoly
from snbethe.linalg import Matrix, rank
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
        assert got._kind is F
        assert list(got.terms.items()) == list(want.items())
        assert all(type(x) is F for x in got.terms.values())
    got = antisymmetrizer(n)
    assert got is antisymmetrizer(n) and got._kind is F
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
    index = {p.images: i for i, p in enumerate(perms)}
    order = len(perms)
    table = np.empty((order, order), dtype=np.int32)
    for i, p in enumerate(perms):
        pim = p.images
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(pim[x - 1] for x in q.images)]
    vecs = []
    for el in elements:
        v = np.zeros(order, dtype=np.int64)
        for p, c in el.terms.items():
            num = c * scale
            assert num.denominator == 1
            v[index[p.images]] = int(num)
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
        lookup = {p.images: k for k, p in enumerate(all_permutations(n4))}
        for p in all_permutations(n4):
            got = F(int(fast[lookup[p.images]]), math.factorial(n4) ** 2)
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
        assert all(g == Matrix([[F(1)]]) for g in triv.gens)
        sgn = seminormal_rep((1,) * n)
        assert all(g == Matrix([[F(-1)]]) for g in sgn.gens)


def test_seminormal_two_one():
    rep = seminormal_rep((2, 1))
    assert rep.gens[0] == Matrix([[F(1), F(0)], [F(0), F(-1)]])
    assert rep.gens[1] == Matrix([[F(-1, 2), F(3, 4)], [F(1), F(1, 2)]])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_seminormal_relations(n):
    for la in partitions_of(n):
        rep = seminormal_rep(la)
        ident = Matrix.identity(rep.dim)
        for g in rep.gens:
            assert g * g == ident
        for i in range(len(rep.gens) - 1):
            a, b = rep.gens[i], rep.gens[i + 1]
            assert a * b * a == b * a * b
        for i in range(len(rep.gens)):
            for j in range(i + 2, len(rep.gens)):
                assert rep.gens[i] * rep.gens[j] == rep.gens[j] * rep.gens[i]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_jm_content_diagonal(n):
    # J_k acts diagonally with the content of the box holding k
    from snbethe.reps import tableau_positions

    for la in partitions_of(n):
        rep = seminormal_rep(la)
        for k, jm in enumerate(jm_elements(n), start=1):
            m = rep.matrix_of_ga(jm)
            for t_idx, t in enumerate(rep.tableaux):
                pos = tableau_positions(t)[k]
                content = F(pos[1] - pos[0])
                for c in range(rep.dim):
                    want = content if c == t_idx else F(0)
                    assert m.rows[t_idx][c] == want


def oracle_matmul(a, b):
    """The Matrix product as first written: a generic multiply-add over the
    nonzero entry pairs, Fraction(0) where none is left."""
    out = []
    for row in a.rows:
        orow = []
        for col in zip(*b.rows):
            acc = None
            for x, y in zip(row, col):
                if x and y:
                    acc = x * y if acc is None else acc + x * y
            orow.append(Fraction(0) if acc is None else acc)
        out.append(orow)
    return out


def test_matrix_product_matches_oracle():
    rng = SeededRandom(4099)
    kinds = {
        "fraction": lambda: rng.rational(3, 5),
        "int": lambda: rng.integer(-3, 3),
        "mixed": lambda: rng.integer(-3, 3) if rng.integer(0, 1) else rng.rational(3, 5),
        "zero": lambda: Fraction(0),
    }
    for ka, kb in [(ka, kb) for ka in kinds for kb in kinds]:
        for r, k, c in ((1, 1, 1), (2, 3, 2), (3, 3, 3), (4, 2, 5), (3, 1, 4)):
            a = Matrix([[kinds[ka]() for _ in range(k)] for _ in range(r)])
            b = Matrix([[kinds[kb]() for _ in range(c)] for _ in range(k)])
            got, want = a * b, oracle_matmul(a, b)
            assert got.rows == want
            assert all(type(x) is Fraction for row in got.rows for x in row)
    # a seminormal block product, large denominators included
    g = seminormal_rep((3, 2)).gens
    big = g[0] * Fraction(10**12, 7) + g[2] * Fraction(-3, 10**9)
    assert (big * g[1]).rows == oracle_matmul(big, g[1])
    with pytest.raises(ValueError):
        Matrix([[1, 2]]) * Matrix([[1, 2]])


@pytest.mark.parametrize("entry", [0.5, UPoly([Fraction(1), Fraction(1)])])
def test_matrix_product_rejects_non_rational_entries(entry):
    rational = Matrix([[Fraction(1), Fraction(2)], [Fraction(0), Fraction(1, 3)]])
    other = Matrix([[Fraction(1), entry], [Fraction(2), Fraction(0)]])
    with pytest.raises(TypeError):
        rational * other
    with pytest.raises(TypeError):
        other * rational


def oracle_matrix_of(rep, p):
    """The seminormal image of a permutation as a dense Fraction product along
    its bubble-sort word, as first written."""
    pos = {v: i for i, v in enumerate(p.images)}
    word = []
    changed = True
    while changed:
        changed = False
        for i in range(1, rep.n):
            if pos[i + 1] < pos[i]:
                word.append(i)
                pos[i], pos[i + 1] = pos[i + 1], pos[i]
                changed = True
    m = Matrix.identity(rep.dim)
    for i in word:
        m = m * rep.gens[i - 1]
    return m


def oracle_matrix_of_ga(rep, a):
    """One Fraction Matrix per term, summed."""
    acc = Matrix.zeros(rep.dim, rep.dim)
    for p, c in a.terms.items():
        acc = acc + oracle_matrix_of(rep, p) * c
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
        for a in elements:
            got = rep.matrix_of_ga(a)
            assert got.rows == oracle_matrix_of_ga(rep, a).rows
            assert all(type(x) is Fraction for row in got.rows for x in row)


def test_matrix_of_ga_rejects_non_rational_coefficients():
    rep = seminormal_rep((2, 1))
    with pytest.raises(TypeError):
        rep.matrix_of_ga(GroupAlgebraElement.scalar(3, 0.5))


def test_represent_identity_and_burnside():
    bm = represent(GroupAlgebraElement.scalar(4, F(1)))
    for la, block in zip(partitions_of(bm.n), bm.blocks):
        assert block == Matrix.identity(dimension(la))
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
    rows = [represent(ga_perm(p)).flatten() for p in all_permutations(n)]
    assert rank(rows) == math.factorial(n)


def test_represent_idempotent_blocks():
    n = 4
    for la in partitions_of(n):
        bm = represent(central_idempotent(la, n))
        for mu, block in zip(partitions_of(bm.n), bm.blocks):
            want = Matrix.identity(dimension(mu)) if mu == la else None
            if want is not None:
                assert block == want
            else:
                assert block.is_zero()


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
