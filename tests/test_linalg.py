"""The one exact row reduction: the fraction-free echelon, and the rank and
nullspace built on it, against the Gauss-Jordan reduction they replaced."""

from fractions import Fraction

import pytest

from snbethe import spectra
from snbethe.linalg import Echelon, nullspace, rank
from snbethe.permutations import all_permutations
from snbethe.reps import partitions_of
from snbethe.rings import SeededRandom
from snbethe.tensoract import varpi_perm

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
    ech = Echelon(rows)
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
