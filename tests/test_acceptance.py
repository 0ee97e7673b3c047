"""Acceptance criteria, one test per numbered criterion.  Each test prints a
single line ACCEPT-<k> ... PASS on success (pytest fails it otherwise), and
pins the tolerance or time budget stated for that criterion.
"""

import math
import time
from fractions import Fraction

from snbethe.rings import SeededRandom, UPoly, falling_binomial
from snbethe.permutations import (
    GroupAlgebraElement,
    Permutation,
    all_permutations,
    antisymmetrizer,
    embed,
    ga_perm,
    ga_transposition,
    lift_coeffs_to_upoly,
    top_embed,
    trace_map,
)
from snbethe.reps import (
    central_idempotent,
    content_product_all,
    partition_parts,
    partitions_of,
    represent,
    seminormal_rep,
    sum_of_dims,
    tableau_positions,
)
from snbethe.linalg import Matrix
from snbethe.gaudin import (
    check_relations_H,
    det_presentation,
    jm_elements,
    kz_elements,
    phi_gen,
    phi_polys,
    phi_tilde,
    scalar_root_poly,
)
from snbethe.xxx import (
    det_P_hbar,
    s_k_poly,
    st_transform,
    t_gen,
    t_m_poly,
    ts_transform,
    xxx_params,
)
from snbethe.homogeneous import (
    charge_from_density,
    det_P_hat,
    gamma_perm,
    homogeneous_params,
    local_charges,
    local_density,
)
from snbethe.tensoract import (
    RF_ZERO,
    RationalFunc,
    gaudin_diffop_coeffs,
    partial_trace,
    varpi,
    varpi_perm,
    yangian_transfer,
)
from snbethe import spectra as sp
from snbethe.suites import (
    default_z,
    gaudin_eigen,
    gaudin_span,
    gz_span,
    homogeneous_eigen,
    homogeneous_f_from_record,
    homogeneous_span,
    xxx_span,
    xxx_table,
)

F = Fraction
SEED = 20260801


def lift(n, obj):
    return obj.map_coeffs(
        lambda c: c if isinstance(c, GroupAlgebraElement) else GroupAlgebraElement.scalar(n, c)
    )


def announce(k, label):
    print(f"ACCEPT-{k:02d} {label}: PASS")


def test_acceptance_01_intro_example():
    t0 = time.time()
    z = (F(0), F(1), F(3))
    span = sp.algebra_span([represent(g) for g in phi_polys(3, z)[1].values()])
    assert span.dim == 4
    one = GroupAlgebraElement.scalar(3, F(1))
    s12 = ga_transposition(3, 1, 2)
    s13 = ga_transposition(3, 1, 3)
    s23 = ga_transposition(3, 2, 3)
    explicit = [one, s12 + s13 + s23, s12 * s23 + s23 * s12,
                s23 * z[0] + s13 * z[1] + s12 * z[2]]
    assert span.same_span(sp.linear_span([represent(g) for g in explicit]))
    hb = F(1)
    gens = []
    for (m, i), g in xxx_table(3, z, hb, F(2)).items():
        gens.append(represent(g))
    span_x = sp.algebra_span(gens)
    assert span_x.dim == 4
    explicit_x = [one, s12 + s13 + s23, s12 * s23 + s23 * s12,
                  s23 * z[0] + s13 * z[1] + s12 * z[2] - s12 * s23 * hb]
    assert span_x.same_span(sp.linear_span([represent(g) for g in explicit_x]))
    assert time.time() - t0 < 1.0
    announce(1, "rank-3 example spans, both families")


def test_acceptance_02_commutativity_to_n5():
    t0 = time.time()
    rng = SeededRandom(SEED)
    for n in (2, 3, 4, 5):
        for _ in range(3):
            z = tuple(rng.distinct_rationals(n))
            gens = list(phi_polys(n, z)[1].values())
            for i in range(len(gens)):
                for j in range(i + 1, len(gens)):
                    assert gens[i] * gens[j] == gens[j] * gens[i]
            pr = xxx_params(z, rng.nonzero_rational(3, 2))
            tgens = []
            for m in range(1, n):
                poly = t_m_poly(pr, m, p=F(7, 2))
                for i in range(1, n + 1):
                    c = poly.coeff(n - i)
                    tgens.append(
                        c if isinstance(c, GroupAlgebraElement)
                        else GroupAlgebraElement.scalar(n, c)
                    )
            for i in range(len(tgens)):
                for j in range(i + 1, len(tgens)):
                    assert tgens[i] * tgens[j] == tgens[j] * tgens[i]
    elapsed = time.time() - t0
    assert elapsed < 60.0, f"commutativity sweep took {elapsed:.1f}s"
    announce(2, f"pairwise commutativity to n=5 ({elapsed:.1f}s)")


def test_acceptance_03_dimension_law():
    t0 = time.time()
    for n, want in ((3, 4), (4, 10), (5, 26)):
        z = default_z(n)
        assert sum_of_dims(n) == want
        assert gaudin_span(n, z).dim == want
        assert xxx_span(n, z, F(1)).dim == want
        assert homogeneous_span(n).dim == want
    elapsed = time.time() - t0
    assert elapsed < 600.0
    announce(3, f"span dimensions 4/10/26 for all three families ({elapsed:.0f}s)")


def test_acceptance_04_maximality_and_coincidences():
    for n in (2, 3, 4):
        z = default_z(n)
        for span in (gaudin_span(n, z), xxx_span(n, z, F(1)),
                     homogeneous_span(n)):
            assert sp.commutant_dim(span) == span.dim
    pair = sp.algebra_span(
        [represent(g) for g in phi_polys(4, (F(0), F(0), F(1), F(3)))[1].values()]
    )
    assert sp.commutant_dim(pair) == pair.dim
    triple = sp.algebra_span(
        [represent(g) for g in phi_polys(4, (F(0), F(0), F(0), F(1)))[1].values()]
    )
    assert sp.commutant_dim(triple) > triple.dim
    announce(4, "maximality at n<=4; pair survives, triple fails")


def test_acceptance_05_determinant_presentations():
    t0 = time.time()
    rng = SeededRandom(SEED + 5)
    for n in (1, 2, 3, 4):
        z = tuple(rng.distinct_rationals(n))
        fam = list(kz_elements(n, z)) if n >= 2 else [GroupAlgebraElement.zero(1)]
        assert lift(n, det_presentation("P", n, z, fam)) == phi_gen(n, z)
        assert lift(n, det_presentation("Ptilde", n, z, fam)) == phi_tilde(n, z)
        assert lift(n, det_presentation("Ptilde0", n, z, fam)) == lift(
            n, content_product_all(n)
        )
        pr = xxx_params(z, F(1))
        if pr.hbar_separated:
            assert t_gen(pr) == lift(n, det_P_hbar(pr, s_k_poly(pr, 1)))
        prh = homogeneous_params(n)
        assert t_gen(prh) == lift(n, det_P_hat(n, s_k_poly(prh, 1)))
    elapsed = time.time() - t0
    assert elapsed < 120.0
    announce(5, f"all four determinant presentations exact to n=4 ({elapsed:.0f}s)")


def test_acceptance_06_trace_calculus():
    p = UPoly.gen()
    # worked example
    sigma = (Permutation.cycle(9, [1, 3, 7]) * Permutation.cycle(9, [2, 5, 6])
             * Permutation.cycle(9, [8, 9]))
    got = trace_map(GroupAlgebraElement.from_perm(sigma), 4, 5, p)
    assert got == GroupAlgebraElement(
        4, {Permutation.cycle(4, [1, 3]): UPoly([F(0), F(1)])}
    )
    # binomial identity with symbolic p
    for m in range(1, 5):
        got = trace_map(top_embed(antisymmetrizer(m), 2, m), 2, m, p)
        assert got == lift_coeffs_to_upoly(
            GroupAlgebraElement.scalar(2, falling_binomial(p, m))
        )
    # nested reduction and symmetry of the trace
    rng = SeededRandom(SEED + 6)
    for n in (1, 2, 3):
        for mm in (1, 2, 3):
            big = n + mm
            for _ in range(4):
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
                a = embed(GroupAlgebraElement.from_perm(
                    rng.choice(all_permutations(k))), rs, big)
                b = embed(GroupAlgebraElement.from_perm(
                    rng.choice(all_permutations(l))), ss, big)
                assert trace_map(a * b, n, mm, p) == trace_map(b * a, n, mm, p)
    for n in (1, 2):
        for k in (0, 1, 2):
            for m in range(max(k, 1), 5):
                X = rng.choice(all_permutations(n + k))
                lhs = trace_map(
                    top_embed(antisymmetrizer(m), n, m)
                    * embed(GroupAlgebraElement.from_perm(X),
                            range(1, n + k + 1), n + m),
                    n, m, p,
                )
                inner = (
                    trace_map(top_embed(antisymmetrizer(k), n, k)
                              * GroupAlgebraElement.from_perm(X), n, k, p)
                    if k
                    else lift_coeffs_to_upoly(
                        trace_map(GroupAlgebraElement.from_perm(X), n, 0, p))
                )
                factor = UPoly([F(1)])
                for i in range(1, m - k + 1):
                    factor = factor * (p + F(i - m)) * F(1, m + 1 - i)
                assert lhs == inner.map_coeffs(lambda c: c * factor)
    # binomial transform and its inverse, symbolic p, n <= 4
    for n in (1, 2, 3, 4):
        pr = xxx_params(tuple(rng.distinct_rationals(n)),
                        rng.nonzero_rational(3, 2))
        for m in range(0, min(n + 1, 4) + 1):
            assert t_m_poly(pr, m).map_coeffs(lift_coeffs_to_upoly) == \
                ts_transform(pr, m, p).map_coeffs(lift_coeffs_to_upoly)
            assert s_k_poly(pr, m).map_coeffs(lift_coeffs_to_upoly) == \
                st_transform(pr, m, p).map_coeffs(lift_coeffs_to_upoly)
    # saturation, sum rule, telescoping
    pr = xxx_params((F(1), F(7, 2), F(-2)), F(2, 3))
    shifted = lift(3, scalar_root_poly([x - pr.hbar for x in pr.z]))
    assert t_m_poly(pr, 3, p=F(3)) == shifted
    assert t_m_poly(pr, 4, p=F(3)) == UPoly()
    acc = UPoly()
    for k in range(0, 4):
        acc = acc + s_k_poly(pr, k)
    assert acc == shifted
    hbar = F(1, 2)
    for n in (1, 2):
        for m in (2, 3):
            big = n + m
            A = top_embed(antisymmetrizer(m), n, m)
            for a in range(1, n + 1):
                lhs = UPoly([A])
                for j in range(1, m + 1):
                    lhs = lhs * UPoly(
                        [ga_transposition(big, a, n + j) * hbar
                         - GroupAlgebraElement.scalar(big, F(m - j) * hbar),
                         GroupAlgebraElement.scalar(big, F(1))])
                ssum = GroupAlgebraElement.zero(big)
                for i in range(1, m + 1):
                    ssum = ssum + ga_transposition(big, a, n + i) * hbar
                rhs = UPoly([A]) * UPoly(
                    [ssum, GroupAlgebraElement.scalar(big, F(1))])
                for i in range(1, m):
                    rhs = rhs * UPoly(
                        [GroupAlgebraElement.scalar(big, -F(i) * hbar),
                         GroupAlgebraElement.scalar(big, F(1))])
                assert lhs == rhs
    announce(6, "trace-map calculus, all identities exact")


def test_acceptance_07_symmetries():
    rng = SeededRandom(SEED + 7)
    for n in (2, 3, 4):
        z = tuple(rng.distinct_rationals(n))
        pr = xxx_params(z, F(1, 3))
        gam = gamma_perm(n)
        g, ginv = ga_perm(gam), ga_perm(gam.inverse())
        zrot = z[1:] + z[:1]
        for m in (1, 2):
            lhs = t_m_poly(xxx_params(zrot, pr.hbar), m, p=F(2)).map_coeffs(
                lambda c: g * c * ginv)
            assert lhs == t_m_poly(pr, m, p=F(2))
        for a in range(1, n):
            w = ga_transposition(n, a, a + 1) * (z[a - 1] - z[a]) + \
                GroupAlgebraElement.scalar(n, pr.hbar)
            zs = list(z)
            zs[a - 1], zs[a] = zs[a], zs[a - 1]
            pswap = xxx_params(tuple(zs), pr.hbar)
            for m in (1, 2):
                assert t_m_poly(pr, m, p=F(2)).map_coeffs(lambda c: w * c) == \
                    t_m_poly(pswap, m, p=F(2)).map_coeffs(lambda c: c * w)
        # scaling/shift covariance for both families
        sc = rng.nonzero_rational(4, 2)
        sh = rng.rational(4, 2)
        table = phi_polys(n, z)[1]
        table_s = phi_polys(n, tuple(sc * x for x in z))[1]
        for (i, j), gg in table.items():
            assert table_s[(i, j)] == gg * sc**j
        for a, b in zip(phi_polys(n, tuple(x + sh for x in z))[0],
                        phi_polys(n, z)[0]):
            assert a.shift_arg(sh) == b
        pscale = xxx_params(tuple(sc * x for x in z), sc * pr.hbar)
        base = t_m_poly(pr, 1, p=F(2))
        assert t_m_poly(pscale, 1, p=F(2)).subst_linear(
            GroupAlgebraElement.scalar(n, sc),
            GroupAlgebraElement.scalar(n, F(0))) == base * sc**n
        # conjugation equivariance
        sig = rng.choice(all_permutations(n))
        zperm = tuple(z[sig(a) - 1] for a in range(1, n + 1))
        gs, gsi = ga_perm(sig), ga_perm(sig.inverse())
        for pp, p0 in zip(phi_polys(n, zperm)[0], phi_polys(n, z)[0]):
            assert pp.map_coeffs(lambda c: gs * c * gsi) == p0
        # both antiinvolutions fix the rational generators
        for gg in table.values():
            assert gg.dagger() == gg and gg.star() == gg
    # mirror identities at n <= 3 (need the full range of orders)
    for n in (1, 2, 3):
        z = tuple(rng.distinct_rationals(n))
        pr = xxx_params(z, F(1, 2))
        N = n
        rho = ga_perm(Permutation([n + 1 - i for i in range(1, n + 1)]))
        pneg = xxx_params(tuple(-x for x in z), pr.hbar)
        prev = xxx_params(tuple(reversed(z)), pr.hbar)
        for m in range(0, N + 1):
            mirror = t_m_poly(pneg, N - m, p=F(N)).subst_linear(
                GroupAlgebraElement.scalar(n, F(-1)),
                GroupAlgebraElement.scalar(n, -pr.hbar)) * F((-1) ** n)
            assert t_m_poly(prev, m, p=F(N)).map_coeffs(
                lambda c: rho * c * rho) == mirror
            assert t_m_poly(pr, m, p=F(N)).map_coeffs(
                lambda c: c.dagger()) == mirror
    announce(7, "cycle, swap, mirror, covariance, and involution symmetries")


def test_acceptance_08_representation_theory():
    # top-coefficient expansion and the content product, exact at n <= 5
    rng = SeededRandom(SEED + 8)
    for n in (2, 3, 4, 5):
        z = tuple(rng.rational(5, 2) for _ in range(n))
        table = phi_polys(n, z)[1]
        lhs = UPoly()
        for i in range(0, n + 1):
            top = GroupAlgebraElement.scalar(n, F(1)) if i == 0 else table[(i, 0)]
            tail = UPoly([GroupAlgebraElement.scalar(n, F(1))])
            for j in range(i + 1, n + 1):
                tail = tail * UPoly([GroupAlgebraElement.scalar(n, F(j)),
                                     GroupAlgebraElement.scalar(n, F(1))])
            lhs = lhs + tail.map_coeffs(lambda c, t=top: c * t * F((-1) ** i))
        rhs = UPoly()
        for la in partitions_of(n):
            chi = central_idempotent(la, n)
            prod = UPoly([GroupAlgebraElement.scalar(n, F(1))])
            for j, lam in enumerate(partition_parts(la, n), start=1):
                prod = prod * UPoly([GroupAlgebraElement.scalar(n, F(j - lam)),
                                     GroupAlgebraElement.scalar(n, F(1))])
            rhs = rhs + prod.map_coeffs(lambda c, chi=chi: c * chi)
        assert lhs == rhs
        pi = content_product_all(n)
        prod = UPoly([GroupAlgebraElement.scalar(n, F(1))])
        for jm in jm_elements(n):
            prod = prod * UPoly([-jm, GroupAlgebraElement.scalar(n, F(1))])
        assert pi == prod
    # seminormal relations and content diagonality at n <= 6
    for n in (2, 3, 4, 5, 6):
        for la in partitions_of(n):
            rep = seminormal_rep(la)
            ident = Matrix.identity(rep.dim)
            for gmat in rep.gens:
                assert gmat * gmat == ident
            for i in range(len(rep.gens) - 1):
                a, b = rep.gens[i], rep.gens[i + 1]
                assert a * b * a == b * a * b
            for i in range(len(rep.gens)):
                for j in range(i + 2, len(rep.gens)):
                    assert rep.gens[i] * rep.gens[j] == rep.gens[j] * rep.gens[i]
            for k, jm in enumerate(jm_elements(n), start=1):
                mat = rep.matrix_of_ga(jm)
                for t_idx, t in enumerate(rep.tableaux):
                    r, c = tableau_positions(t)[k]
                    for cc in range(rep.dim):
                        want = F(c - r) if cc == t_idx else F(0)
                        assert mat.rows[t_idx][cc] == want
    # idempotent completeness and orthogonality at n <= 6 (direct to n = 5,
    # scaled-integer products at n = 6 -- see test_reps for the cross-check)
    for n in (2, 3, 4, 5):
        chis = [central_idempotent(la, n) for la in partitions_of(n)]
        total = GroupAlgebraElement.zero(n)
        for chi in chis:
            total = total + chi
            assert chi * chi == chi
        assert total == GroupAlgebraElement.scalar(n, F(1))
        for i in range(len(chis)):
            for j in range(i + 1, len(chis)):
                assert not chis[i] * chis[j]
    from test_reps import _scaled_int_products
    import numpy as np

    n = 6
    chis = [central_idempotent(la, n) for la in partitions_of(n)]
    total = GroupAlgebraElement.zero(n)
    for chi in chis:
        total = total + chi
    assert total == GroupAlgebraElement.scalar(n, F(1))
    vecs, product = _scaled_int_products(n, chis, math.factorial(n))
    for i in range(len(vecs)):
        assert np.array_equal(product(vecs[i], vecs[i]), vecs[i] * math.factorial(n))
        for j in range(i + 1, len(vecs)):
            assert not product(vecs[i], vecs[j]).any()
    announce(8, "block-model representation theory exact to n=6")


def test_acceptance_09_local_charges():
    th1, th2 = local_density(1), local_density(2)
    for n in (4, 5, 6):
        charges = local_charges(n)
        assert charge_from_density(n, 1, th1) == charges[0]
        assert charge_from_density(n, 2, th2) == charges[1]
    th3 = local_density(3)
    for n in (5, 6):
        assert charge_from_density(n, 3, th3) == local_charges(n)[2]
    for n in (3, 4, 5):
        gens1 = [represent(ga_perm(gamma_perm(n)))] + [
            represent(c) for c in local_charges(n)]
        span1 = sp.algebra_span(gens1)
        assert span1.same_span(homogeneous_span(n))
    announce(9, "window densities and charge generation to n=6 / n=5")


def test_acceptance_10_tensor_crosschecks():
    rng = SeededRandom(SEED + 10)
    for N in (2, 3):
        for (n, m) in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (2, 3), (3, 2)):
            if n + m > 5:
                continue
            for _ in range(4):
                sig = rng.choice(all_permutations(n + m))
                assert partial_trace(varpi_perm(sig, N), m) == varpi(
                    trace_map(GroupAlgebraElement.from_perm(sig), n, m, F(N)), N)
    for (N, n) in ((2, 2), (3, 2), (3, 3)):
        z = default_z(n)
        table = gaudin_diffop_coeffs(N, n, z)
        for key, phi in phi_polys(n, z)[1].items():
            assert table[key] == varpi(phi, N)
    N, n = 2, 2
    z = (F(0), F(2))
    hb = F(2)
    pr = xxx_params(z, hb)
    Ph = scalar_root_poly(z).subst_linear(hb, F(0))
    for m in (1, 2):
        tm = t_m_poly(pr, m, p=F(N))
        mats = [varpi(c if isinstance(c, GroupAlgebraElement)
                      else GroupAlgebraElement.scalar(n, c), N) * hb**k
                for k, c in enumerate(tm.coeffs)]
        psi = yangian_transfer(N, n, m, [x / hb for x in z])
        d = N**n
        for r in range(d):
            for c in range(d):
                numer = UPoly([mats[k].entries.get((r, c), F(0))
                               for k in range(len(mats))])
                assert RationalFunc(numer, Ph) == psi.get((r, c), RF_ZERO)
    announce(10, "trace compatibility, operator table, transfer matrices")


def test_acceptance_11_spectra():
    for n in (2, 3, 4, 5):
        z = default_z(n)
        ok, _ = sp.simple_spectrum_cert(gaudin_span(n, z), SEED)
        assert ok, f"rational-family certificate failed at n={n}"
        ok, _ = sp.simple_spectrum_cert(homogeneous_span(n), SEED)
        assert ok, f"homogeneous certificate failed at n={n}"
        if n <= 4:
            zx = tuple(F(3 - i) for i in range(n))
            ok, _ = sp.simple_spectrum_cert(xxx_span(n, zx, F(1, 2)), SEED)
            assert ok, f"deformed certificate failed at n={n}"
    for n in (2, 3, 4):
        z = default_z(n)
        assert len(gaudin_eigen(n, z, SEED)) == sum_of_dims(n)
        assert len(homogeneous_eigen(n, SEED)) == sum_of_dims(n)
    for n in (2, 3):
        z = default_z(n)
        for rec in gaudin_eigen(n, z, SEED):
            h = [rec.eigenvalues[f"H{a}"] for a in range(1, n + 1)]
            rep = check_relations_H(rec.partition, z, h)
            assert float(rep["max_residual"]) < 1e-8
    for n in (3, 4):
        for rec in homogeneous_eigen(n, SEED):
            Fb = homogeneous_f_from_record(n, rec)
            la = rec.partition
            space = sp.reconstruct_subspace(
                Fb, n, degree_bound=la[0] + n - 1, hbar=1.0,
                variant="discrete", tol=1e-6)
            degrees = sorted(space.degrees(), reverse=True)
            want = sorted(
                (partition_parts(la, n)[i] + n - i - 1 for i in range(n)),
                reverse=True)
            assert degrees == want, f"degrees {degrees} vs block {la}"
            assert sp.theta_membership_residual(space, n) < 1e-6
    announce(11, "certificates, eigencounts, relations, fiber loop")


def test_acceptance_12_limit_trends():
    for n in (3, 4):
        base = gz_span(n)
        dists_g, dists_x = [], []
        for s in (F(100), F(10000), F(1000000)):
            z = tuple(s**k for k in range(n))
            dists_g.append(sp.span_distance(gaudin_span(n, z), base))
            dists_x.append(sp.span_distance(xxx_span(n, z, F(1)), base))
        assert dists_g[0] > dists_g[1] > dists_g[2]
        assert dists_x[0] > dists_x[1] > dists_x[2]
        z = default_z(n)
        ref = gaudin_span(n, z)
        dists_h = [sp.span_distance(xxx_span(n, z, hb), ref)
                   for hb in (F(1), F(1, 10), F(1, 100))]
        assert dists_h[0] > dists_h[1] > dists_h[2]
    announce(12, "steep-parameter and small-deformation contraction trends")


def test_acceptance_13_conjecture_probes():
    from snbethe.cli import SuiteConfig
    from snbethe.suites import run_suite

    cfg = SuiteConfig(
        suite="conjectures", n=3, z=default_z(3), hbar=F(1), lam=None,
        seed=SEED, tol=1e-8, slow=False, strict=False, timings=False,
        fmt="json", out=None)
    report = run_suite(cfg)
    assert not report.internal_error
    statuses = {c.check_id: c.status for c in report.checks}
    assert set(statuses) == {
        "conjecture.shifted-relations", "conjecture.deformed-relations"}
    for status in statuses.values():
        assert status in ("CONJECTURE-PASS", "CONJECTURE-FAIL")
    assert not report.failed  # conjecture outcomes never fail the suite
    announce(13, f"conjecture probes emitted with statuses {sorted(statuses.values())}")
