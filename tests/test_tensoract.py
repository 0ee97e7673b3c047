"""Tensor-space cross-checks: the permutation action, partial trace, the
differential-operator coefficient table, and evaluation transfer matrices."""

import math
from fractions import Fraction

import pytest

from snbethe.rings import SeededRandom, UPoly, scalar_root_poly
from snbethe.linalg import rank
from snbethe.permutations import (
    GroupAlgebraElement,
    all_permutations,
    antisymmetrizer,
    compose,
    identity,
    trace_map,
    transposition,
)
from snbethe.gaudin import phi_polys
from snbethe.xxx import t_m_poly, xxx_params
from snbethe import tensoract
from snbethe.tensoract import (
    TensorOperator,
    elementary,
    gaudin_diffop_coeffs,
    partial_trace,
    transfer_at,
    varpi,
    varpi_perm,
    yangian_transfer,
)

F = Fraction


def test_identity_and_swap():
    ident = varpi(GroupAlgebraElement.scalar(2, F(1)), 3)
    assert ident == TensorOperator.identity(3, 2)
    swap = varpi_perm(transposition(2, 1, 2), 2)
    # the 4x4 swap matrix: basis order 11, 12, 21, 22
    assert swap.entries == {
        (0, 0): F(1), (1, 2): F(1), (2, 1): F(1), (3, 3): F(1)
    }


def test_varpi_multiplicative():
    rng = SeededRandom(5)
    perms = all_permutations(3)
    for _ in range(8):
        p, q = rng.choice(perms), rng.choice(perms)
        assert varpi_perm(compose(p, q), 2) == varpi_perm(p, 2) * varpi_perm(q, 2)


@pytest.mark.parametrize("N,n", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_antisymmetrizer_kernel(N, n):
    img = varpi(antisymmetrizer(n), N)
    assert bool(img) == (N >= n)


def test_partial_trace_identity_and_factorized():
    X = TensorOperator.identity(2, 3)
    t = partial_trace(X, 2)
    assert t == TensorOperator.identity(2, 1) * F(4)
    # X (x) Y traces to X * tr(Y) for random small factors
    rng = SeededRandom(9)
    for _ in range(5):
        xe = {(r, c): rng.rational(3, 2) for r in range(2) for c in range(2)}
        ye = {(r, c): rng.rational(3, 2) for r in range(2) for c in range(2)}
        big = {}
        for (r1, c1), a in xe.items():
            for (r2, c2), b in ye.items():
                if a * b:
                    big[(r1 * 2 + r2, c1 * 2 + c2)] = a * b
        X2 = TensorOperator(2, 2, big)
        tr_y = ye[(0, 0)] + ye[(1, 1)]
        want = TensorOperator(2, 1, {k: v * tr_y for k, v in xe.items()})
        assert partial_trace(X2, 1) == want


def test_trace_of_swap():
    got = partial_trace(varpi_perm(transposition(2, 1, 2), 2), 1)
    assert got == TensorOperator.identity(2, 1)


@pytest.mark.parametrize("N", [2, 3])
def test_trace_compatibility_random(N):
    rng = SeededRandom(13 + N)
    for (n, m) in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (2, 3), (3, 2), (1, 4)):
        if n + m > 5:
            continue
        for _ in range(4):
            sig = rng.choice(all_permutations(n + m))
            lhs = partial_trace(varpi_perm(sig, N), m)
            rhs = varpi(trace_map(GroupAlgebraElement.from_perm(sig), n, m, F(N)), N)
            assert lhs == rhs


def test_diffop_coefficients_N1():
    # N = 1, n = 2: the operator is prod(u - z_a)(d/du - sum 1/(u - z_a));
    # the order-zero coefficient row must match the first generator polynomial
    z = (F(0), F(1))
    table = gaudin_diffop_coeffs(1, 2, z)
    polys, _ = phi_polys(2, z)
    # C_{1,j} are the coefficients of Phi_1 (scalar multiples of the identity)
    for j in range(0, 2):
        c = polys[0].coeff(2 - 1 - j)
        scalar = c.coeff(identity(2)) if isinstance(c, GroupAlgebraElement) else c
        assert table[(1, j)] == TensorOperator.identity(1, 2) * scalar
    # leading row: coefficients of the root product
    root = scalar_root_poly(z)
    for j in range(0, 3):
        assert table[(0, j)] == TensorOperator.identity(1, 2) * root.coeff(2 - j)


@pytest.mark.parametrize("N,n", [(2, 2), (3, 2), (3, 3)])
def test_schur_weyl_coefficient_match(N, n):
    z = tuple(F(v) for v in ((0, 1) if n == 2 else (0, 1, 3)))
    table = gaudin_diffop_coeffs(N, n, z)
    _, phis = phi_polys(n, z)
    for key, phi in phis.items():
        assert table[key] == varpi(phi, N)


def test_diffop_rejects_coincident_parameters():
    with pytest.raises(ValueError):
        gaudin_diffop_coeffs(2, 2, (F(1), F(1)))


def test_diffop_polynomiality_check_catches_perturbed_residues(monkeypatch):
    # with every residue E^(a) doubled, D times the column determinant is no
    # longer polynomial, and the division by D^(N-1) must say so
    real = tensoract.elementary
    monkeypatch.setattr(tensoract, "elementary", lambda *args: real(*args) * 2)
    with pytest.raises(AssertionError, match="polynomiality"):
        gaudin_diffop_coeffs(2, 2, (F(0), F(1)))


def test_diffop_degree_check_catches_an_entry_above_the_bound(monkeypatch):
    # every quotient gains a factor u^(n+1) and keeps its zero remainder, so
    # the table passes the polynomiality check and must fail the degree bound
    n = 2
    real = tensoract.poly_divmod

    def raised(f, g):
        q, r = real(f, g)
        return q * UPoly([F(0)] * (n + 1) + [F(1)]), r

    monkeypatch.setattr(tensoract, "poly_divmod", raised)
    with pytest.raises(AssertionError, match="entry degree exceeds the structured bound"):
        gaudin_diffop_coeffs(2, n, (F(0), F(1)))


def test_polynomial_entries_drop_what_cancels():
    u = UPoly.gen()
    A = TensorOperator(2, 1, {(0, 0): u + F(1), (0, 1): u, (1, 1): UPoly()})
    assert set(A.entries) == {(0, 0), (0, 1)}
    assert (A - A).entries == {}
    assert (A + A * -1) == TensorOperator.zero(2, 1)
    assert (A * UPoly()).entries == {}
    # (0, 0) of the product is u*u + u*(-u) = 0; (0, 1) is u*u
    X = TensorOperator(2, 1, {(0, 0): u, (0, 1): u})
    Y = TensorOperator(2, 1, {(0, 0): u, (1, 0): -u, (1, 1): u})
    assert (X * Y).entries == {(0, 1): u * u}
    assert (X * Y - X * Y).entries == {}


@pytest.mark.parametrize("N,n", [(2, 2), (3, 3)])
def test_faithfulness(N, n):
    rows = [varpi_perm(p, N).flatten_rows() for p in all_permutations(n)]
    assert rank(rows) == math.factorial(n)


def test_transfer_m1_n1():
    # psi = (2u - 9) / (u - 5) times the identity, so P (u - 5) = (2u - 9) Q
    P, Q = yangian_transfer(2, 1, 1, [F(5)])
    for r in range(2):
        assert P.entries[(r, r)] * UPoly([F(-5), F(1)]) == UPoly([F(-9), F(2)]) * Q
    assert all(r == c for (r, c) in P.entries)


def test_transfer_at_is_the_value_and_refuses_a_zero_of_the_denominator():
    T = yangian_transfer(2, 1, 1, [F(5)])
    assert transfer_at(T, F(7)) == TensorOperator.identity(2, 1) * F(5, 2)
    with pytest.raises(ZeroDivisionError):
        transfer_at(T, F(5))
    # the family of sw.transfer-commute, at its poles u = 0, 2 (m = 1) and
    # also u = 1, 3 (the shifted factor of m = 2)
    x = (F(0), F(2))
    for m, poles in ((1, (0, 2)), (2, (0, 1, 2, 3))):
        T = yangian_transfer(2, 2, m, x)
        transfer_at(T, F(7))
        for u0 in poles:
            with pytest.raises(ZeroDivisionError):
                transfer_at(T, F(u0))


def test_transfer_top_is_scalar_on_one_factor():
    # m = N: the antisymmetrized product acts as a scalar on a single factor;
    # the entries share the denominator Q, so their numerators are equal
    N = 2
    P, _ = yangian_transfer(N, 1, N, [F(3)])
    diag = {k: v for k, v in P.entries.items() if k[0] == k[1]}
    assert set(P.entries) == set(diag)
    vals = list(diag.values())
    assert len(vals) == N
    for v in vals[1:]:
        assert v == vals[0]


def test_transfer_matrices_commute_at_points():
    # P1(u0) P2(v0) = P2(v0) P1(u0) with Q1(u0), Q2(v0) nonzero is the
    # commutation of the transfer values, cross-multiplied
    N, n = 2, 2
    x = (F(0), F(2))
    P1, Q1 = yangian_transfer(N, n, 1, x)
    P2, Q2 = yangian_transfer(N, n, 2, x)
    d = N**n

    def ev(P, u0):
        M = [[F(0)] * d for _ in range(d)]
        for (r, c), v in P.entries.items():
            M[r][c] = v.eval_at(u0)
        return M

    def mm(A, B):
        return [
            [sum(A[i][k] * B[k][j] for k in range(d)) for j in range(d)]
            for i in range(d)
        ]

    for u0, v0 in ((F(7), F(9)), (F(1, 3), F(11, 2))):
        assert Q1.eval_at(u0) and Q2.eval_at(v0)
        A, B = ev(P1, u0), ev(P2, v0)
        assert mm(A, B) == mm(B, A)


@pytest.mark.parametrize("m", [1, 2])
def test_transfer_matches_traced_family(m):
    # the traced family at rescaled argument, divided by the root product,
    # equals the evaluation image P / Q of the transfer series:
    # numer Q = P Ph entry by entry
    N, n = 2, 2
    z = (F(0), F(2))
    hb = F(2)
    pr = xxx_params(z, hb)
    tm = t_m_poly(pr, m, p=F(N))
    mats = [
        varpi(
            c if isinstance(c, GroupAlgebraElement) else GroupAlgebraElement.scalar(n, c),
            N,
        ) * hb**k
        for k, c in enumerate(tm.coeffs)
    ]
    Ph = scalar_root_poly(z).subst_linear(hb, F(0))
    P, Q = yangian_transfer(N, n, m, [x / hb for x in z])
    d = N**n
    for r in range(d):
        for c in range(d):
            numer = UPoly([mats[k].entries.get((r, c), F(0)) for k in range(len(mats))])
            assert numer * Q == P.entries.get((r, c), UPoly()) * Ph


@pytest.mark.parametrize("n", [3, 4])
def test_heisenberg_exchange_form(n):
    from snbethe.homogeneous import local_charges

    N = 2
    lhs = varpi(local_charges(n)[0], N)
    rhs = TensorOperator.zero(N, n)
    for a in range(1, n + 1):
        nxt = a + 1 if a < n else 1
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                rhs = rhs + elementary(N, n, a, i, j) * elementary(N, n, nxt, j, i)
    assert lhs == rhs
