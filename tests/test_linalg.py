"""The one exact row reduction: the fraction-free echelon, and the rank and
nullspace built on it, against the Gauss-Jordan reduction they replaced; the
shared-minor determinant against the permutation expansion it replaced."""

from fractions import Fraction
from itertools import permutations

import pytest

from helpers import bivariate
from snbethe import gaudin, homogeneous, linalg, spectra
from snbethe.linalg import Echelon, det, nullspace, rank
from snbethe.permutations import GroupAlgebraElement, all_permutations, ga_perm
from snbethe.reps import partitions_of, represent
from snbethe.rings import SeededRandom, UPoly, _int_scaled
from snbethe.tensoract import varpi_perm
from snbethe.xxx import s_k_poly

F = Fraction


def oracle_rref(rows):
    """Reduced row echelon form over the rationals by Gauss-Jordan
    elimination, as rank and nullspace were first computed: (rows, pivot
    columns).  The input is not modified."""
    m = [list(r) for r in rows]
    if not m:
        return [], []
    pivots = []
    r = 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = F(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def oracle_nullspace(rows):
    if not rows:
        return []
    red, pivots = oracle_rref(rows)
    ncols = len(rows[0])
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [F(0)] * ncols
        v[fc] = F(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def assert_matches_oracle(rows):
    """Same rank, the same nullspace vectors in the same order with Fraction
    entries, and echelon rows that are positive integer multiples of the
    reduced rows with the same pivots."""
    red, pivots = oracle_rref(rows)
    assert rank(rows) == len(red)
    got = nullspace(rows)
    assert got == oracle_nullspace(rows)
    assert all(type(x) is Fraction for v in got for x in v)
    ech = Echelon(_int_scaled(row)[1] for row in rows)
    assert sorted(ech.pivots) == pivots
    want = dict(zip(pivots, red))
    for row, p in zip(ech.rows, ech.pivots):
        assert row[p] > 0 and [row[p] * x for x in want[p]] == row


def test_cyclic_vector_systems_match_oracle(monkeypatch):
    systems = []

    def recording(rows):
        systems.append(rows)
        return nullspace(rows)

    monkeypatch.setattr(spectra, "nullspace", recording)
    for n in (1, 2, 3):
        z = tuple(F(v) for v in (0, 1, 3)[:n])
        for la in partitions_of(n):
            spectra.cyclic_vector(la, z, "classic")
            spectra.cyclic_vector(la, z, "hbar", F(1, 2))
    assert len(systems) == 10  # n = 1 has no generators, so no system
    for rows in systems:
        assert len(nullspace(rows)) == 1  # the invariant is unique
        assert_matches_oracle(rows)


@pytest.mark.parametrize("N, n", [(2, 2), (3, 3)])
def test_faithful_rows_match_oracle(N, n):
    rows = [varpi_perm(p, N).flatten_rows() for p in all_permutations(n)]
    assert_matches_oracle(rows)


def test_empty_and_zero_rows():
    assert rank([]) == 0 and nullspace([]) == [] == oracle_nullspace([])
    zero = [[F(0)] * 4 for _ in range(3)]
    assert_matches_oracle(zero)
    assert nullspace(zero) == [[F(int(i == j)) for i in range(4)] for j in range(4)]


def test_echelon_reads_integer_rows_as_they_are(monkeypatch):
    # a span adds integer numerators, so the echelon scales none of them;
    # rank and nullspace scale each rational row once
    calls = []

    def counted(values):
        calls.append(1)
        return _int_scaled(values)

    monkeypatch.setattr(linalg, "_int_scaled", counted)
    gens = [represent(g) for g in homogeneous.homogeneous_generators(3)]
    span = spectra.algebra_span(gens)
    assert span.dim == 4 and span.contains(gens[0] * gens[1]) and not calls
    ech = Echelon([[2, 4, 0], [0, 3, 3]])
    assert ech.rows == [[1, 0, -2], [0, 1, 1]] and ech.reduce(iter([1, 1, -1])) == [0, 0, 0]
    rows = [[F(1, 2), F(1)], [F(1, 3), F(2, 3)]]
    assert rank(rows) == 1 and nullspace(rows) == [[F(-2), F(1)]]
    assert len(calls) == 4


@pytest.mark.parametrize("nrows, ncols, rank_bound", [(4, 9, 4), (9, 6, 3)])
def test_random_rational_matrices_match_oracle(nrows, ncols, rank_bound):
    # the tall matrix is a random combination of rank_bound random rows, so
    # its nullspace is not empty
    rng = SeededRandom(4049 + nrows)
    base = [[rng.rational(9, 4) for _ in range(ncols)] for _ in range(rank_bound)]
    rows = []
    for _ in range(nrows):
        coeffs = [rng.rational(5, 3) for _ in base]
        rows.append([sum((k * b[c] for k, b in zip(coeffs, base)), F(0))
                     for c in range(ncols)])
    assert rank(rows) == rank_bound
    assert_matches_oracle(rows)


def oracle_det(entries):
    """The permutation expansion the determinant replaced: the sum over all k!
    permutations s of sign(s) * entries[0][s(0)] * ... * entries[k-1][s(k-1)],
    factors in row order, starting from the zero ``entries[0][0] * 0``."""
    k = len(entries)
    if k == 0:
        raise ValueError("empty determinant")
    acc = entries[0][0] * 0
    for perm in permutations(range(k)):
        term = entries[0][perm[0]]
        for i in range(1, k):
            term = term * entries[i][perm[i]]
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        acc = acc - term if inversions % 2 else acc + term
    return acc


def random_matrix(rng, k, entry):
    return [[entry(rng) for _ in range(k)] for _ in range(k)]


def sparse_rational(rng):
    # about half the entries vanish, so whole minors drop out
    return rng.rational(3, 2) if rng.integer(0, 1) else F(0)


def random_upoly(rng):
    return UPoly([rng.rational(5, 3) for _ in range(rng.integer(0, 3))])


def random_bipoly(rng):
    return bivariate([[rng.rational(5, 3) for _ in range(rng.integer(1, 2))]
                      for _ in range(rng.integer(0, 2))])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_det_matches_permutation_expansion(k):
    rng = SeededRandom(6007 + k)
    for entry in (lambda r: r.rational(9, 4), sparse_rational):
        for _ in range(3):
            m = random_matrix(rng, k, entry)
            got = det(m)
            assert got == oracle_det(m) and type(got) is Fraction


def test_det_of_empty_matrix_raises():
    with pytest.raises(ValueError):
        det([])


@pytest.mark.parametrize("k", [1, 2, 4])
def test_det_zero_row_or_column(k):
    rng = SeededRandom(7001 + k)
    for i in range(k):
        rows = random_matrix(rng, k, lambda r: r.nonzero_rational(9, 4))
        rows[i] = [F(0)] * k
        cols = [[F(0) if j == i else x for j, x in enumerate(r)]
                for r in random_matrix(rng, k, lambda r: r.nonzero_rational(9, 4))]
        for m in (rows, cols):
            got = det(m)
            assert got == oracle_det(m) == 0 and type(got) is Fraction


@pytest.mark.parametrize("entry", [random_upoly, random_bipoly])
def test_det_polynomial_entries(entry):
    rng = SeededRandom(8009)
    for k in (1, 2, 3, 4):
        m = random_matrix(rng, k, entry)
        assert det(m) == oracle_det(m)


@pytest.mark.parametrize("n", [3, 4])
def test_det_p_hat_matches_permutation_expansion(n, monkeypatch):
    # entries in u over polynomials in v over the group algebra; det_P_hat reaches the
    # determinant through gaudin.presentation_det
    q = s_k_poly(homogeneous.homogeneous_params(n), 1)
    got = homogeneous.det_P_hat(n, q)
    monkeypatch.setattr(gaudin, "det", oracle_det)
    assert got == homogeneous.det_P_hat(n, q)


def test_det_keeps_row_order_over_noncommuting_entries():
    # group-algebra entries of S_3 that do not commute: the expansion equals
    # the row-ordered permutation expansion term by term, and a swap of the
    # factors in any product would change it
    rng = SeededRandom(9011)
    perms = all_permutations(3)

    def element(r):
        acc = GroupAlgebraElement.zero(3)
        for _ in range(2):
            acc = acc + ga_perm(r.choice(perms)) * r.nonzero_rational(5, 2)
        return acc

    m = random_matrix(rng, 3, element)
    flat = [x for row in m for x in row]
    assert any(a * b != b * a for a in flat for b in flat)
    transposed = [list(col) for col in zip(*m)]
    assert oracle_det(m) != oracle_det(transposed)
    assert det(m) == oracle_det(m)
    assert det(transposed) == oracle_det(transposed)
