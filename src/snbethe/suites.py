"""Named verification suites.  Each check computes an exact or numeric
residual for one verified statement; the runner turns residuals into PASS or
FAIL records (CONJECTURE-* for the two conjecture probes), collects timings,
and never lets a conjecture outcome break the run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .rings import BiPoly, SeededRandom, UPoly, falling_binomial
from .permutations import (
    GroupAlgebraElement,
    Permutation,
    all_permutations,
    antisymmetrizer,
    embed,
    ga_lift,
    ga_perm,
    ga_transposition,
    lift_coeffs_to_upoly,
    top_embed,
    trace_map,
)
from .reps import (
    BlockMatrix,
    central_idempotent,
    partition_parts,
    partitions_of,
    represent,
    sum_of_dims,
)
from .gaudin import (
    ParameterSet,
    check_relations_H,
    check_relations_Ht,
    det_presentation,
    gz_spanning_set,
    kz_elements,
    phi_gen,
    phi_gen_fixed_points,
    phi_polys,
    phi_tilde,
    scalar_root_poly,
)
from .xxx import (
    check_relations_Hh,
    det_P_hbar,
    qkz_elements,
    s1_coeff_elements,
    s_k_poly,
    st_transform,
    t_gen,
    t_m_poly,
    t_m_table,
    ts_transform,
    xxx_params,
)
from .homogeneous import (
    charge_from_density,
    det_P_hat,
    gamma_perm,
    homogeneous_generators,
    homogeneous_params,
    local_charges,
    local_density,
    s1_homogeneous,
)
from .tensoract import (
    TensorOperator,
    elementary,
    gaudin_diffop_coeffs,
    partial_trace,
    varpi,
    varpi_perm,
    yangian_transfer,
    RationalFunc,
    RF_ZERO,
)
from . import spectra as sp
from .reports import (
    CONJECTURE_FAIL,
    CONJECTURE_PASS,
    FAIL,
    PASS,
    SKIPPED,
    CheckRecord,
    Timer,
    VerificationReport,
)

DEFAULT_Z = (0, 2, 5, 9, 14, 20, 27)


def default_z(n: int) -> tuple:
    return tuple(Fraction(v) for v in DEFAULT_Z[:n])


def ga_max_abs(a: GroupAlgebraElement) -> Fraction:
    out = Fraction(0)
    for c in a.terms.values():
        if isinstance(c, UPoly):
            out = max(out, max((abs(x) for x in c.coeffs), default=Fraction(0)))
        else:
            out = max(out, abs(c))
    return out


def poly_max_abs(p: UPoly) -> Fraction:
    out = Fraction(0)
    for c in p.coeffs:
        out = max(out, ga_max_abs(c) if isinstance(c, GroupAlgebraElement) else abs(c))
    return out


def bipoly_max_abs(b: BiPoly) -> Fraction:
    out = Fraction(0)
    for row in b.rows:
        for c in row:
            out = max(
                out, ga_max_abs(c) if isinstance(c, GroupAlgebraElement) else abs(c)
            )
    return out


def poly_diff_residual(a: UPoly, b: UPoly):
    return poly_max_abs(a - b)


def bipoly_diff_residual(a: BiPoly, b: BiPoly):
    return bipoly_max_abs(a - b)


def max_commutator(elements) -> Fraction:
    """Largest coefficient of any pairwise commutator ab - ba."""
    worst = Fraction(0)
    for i in range(len(elements)):
        for j in range(i + 1, len(elements)):
            a, b = elements[i], elements[j]
            worst = max(worst, ga_max_abs(a * b - b * a))
    return worst


DISTINCT_Z = "needs pairwise-distinct z"
AT_MOST_PAIRS_Z = "needs no z value repeated three times"


# ---------------------------------------------------------------------------
# shared cached objects


@lru_cache(maxsize=None)
def gaudin_table(n: int, z: tuple):
    return phi_polys(n, z)[1]


@lru_cache(maxsize=None)
def gaudin_span(n: int, z: tuple):
    return sp.algebra_span([represent(g) for g in gaudin_table(n, z).values()])


@lru_cache(maxsize=None)
def xxx_table(n: int, z: tuple, hbar: Fraction, p: Fraction):
    return t_m_table(xxx_params(z, hbar, p), p, range(1, n), range(1, n + 1))


@lru_cache(maxsize=None)
def xxx_span(n: int, z: tuple, hbar: Fraction, p: Fraction = Fraction(2)):
    return sp.algebra_span([represent(g) for g in xxx_table(n, z, hbar, p).values()])


@lru_cache(maxsize=None)
def homogeneous_span(n: int):
    return sp.algebra_span([represent(g) for g in homogeneous_generators(n)])


@lru_cache(maxsize=None)
def gz_span(n: int):
    return sp.algebra_span([represent(g) for g in gz_spanning_set(n)])


@lru_cache(maxsize=None)
def spectrum_cert(span, seed: int):
    """``simple_spectrum_cert`` of a cached span, computed once per seed."""
    return sp.simple_spectrum_cert(span, seed)


def certified_combination(span, seed: int):
    ok, witness = spectrum_cert(span, seed)
    if not ok:
        raise ValueError("simple spectrum not certified for this seed")
    return witness["element"]


@lru_cache(maxsize=None)
def gaudin_eigen(n: int, z: tuple, seed: int):
    fam = kz_elements(n, z)
    gens = {f"H{a}": represent(h) for a, h in enumerate(fam, start=1)}
    return sp.joint_eigen(certified_combination(gaudin_span(n, z), seed), gens)


@lru_cache(maxsize=None)
def xxx_eigen(n: int, z: tuple, hbar: Fraction, seed: int):
    params = xxx_params(z, hbar)
    gens = {
        f"S{i}": represent(el)
        for i, el in enumerate(s1_coeff_elements(params), start=1)
    }
    return sp.joint_eigen(certified_combination(xxx_span(n, z, hbar), seed), gens)


@lru_cache(maxsize=None)
def homogeneous_eigen(n: int, seed: int):
    table = t_m_table(homogeneous_params(n), Fraction(n), range(1, n + 1),
                      range(n + 1))
    gens = {f"T{m}c{i}": represent(g) for (m, i), g in table.items()}
    return sp.joint_eigen(certified_combination(homogeneous_span(n), seed), gens)


def homogeneous_f_from_record(n: int, rec) -> BiPoly:
    """Assemble the scalar bivariate eigenvalue polynomial from the recorded
    generator eigenvalues."""
    polys = []
    t0 = [0.0] * (n + 1)
    t0[n] = 1.0
    polys.append(UPoly(t0))
    for m in range(1, n + 1):
        cs = [rec.eigenvalues[f"T{m}c{i}"] for i in range(n + 1)]
        polys.append(UPoly(list(reversed(cs))))
    out = BiPoly()
    for m, poly in enumerate(polys):
        out = out + BiPoly.from_upoly_u(poly) * BiPoly(
            [[0.0] * (n - m) + [(-1.0) ** m]]
        )
    return out


# ---------------------------------------------------------------------------
# check runner


class Suite:
    def __init__(self, report: VerificationReport, tol: float):
        self.report = report
        self.tol = tol

    def run(self, check_id, anchor, params, fn, conjecture=False):
        with Timer() as t:
            try:
                residual = fn()
                error = None
            except Exception as exc:  # noqa: BLE001 - recorded, not swallowed
                residual = None
                error = exc
        if error is not None:
            self.report.internal_error = True
            self.report.add(
                CheckRecord(
                    check_id, anchor, params, FAIL, "error", t.ms,
                    detail=f"{type(error).__name__}: {error}",
                )
            )
            return
        if isinstance(residual, bool):
            ok = residual
            shown = "0" if ok else "1/1"
        elif isinstance(residual, float):
            ok = residual <= self.tol
            shown = repr(residual)
        else:
            ok = residual == 0
            shown = (
                f"{residual.numerator}/{residual.denominator}"
                if isinstance(residual, Fraction)
                else str(residual)
            )
        if conjecture:
            status = CONJECTURE_PASS if ok else CONJECTURE_FAIL
        else:
            status = PASS if ok else FAIL
        self.report.add(CheckRecord(check_id, anchor, params, status, shown, t.ms))

    def skip(self, check_id, anchor, params, why):
        self.report.add(CheckRecord(check_id, anchor, params, SKIPPED, "-", 0.0, why))


# ---------------------------------------------------------------------------
# gaudin identities


def suite_gaudin(s: Suite, cfg):
    n, z = cfg.n, cfg.z
    table = gaudin_table(n, z)
    rng = SeededRandom(cfg.seed)

    s.run("gaudin.commuting", "pairwise commutativity of the rational family",
          {"n": n, "z": [str(x) for x in z]},
          lambda: max_commutator(list(table.values())))

    if 2 <= n <= 4 and ParameterSet(z).distinct:
        fam = kz_elements(n, z)

        def generating_det():
            return bipoly_diff_residual(
                phi_gen(n, z), ga_lift(n, det_presentation("P", n, z, list(fam)))
            )

        s.run("gaudin.generating-det",
              "generating function equals the first determinant presentation",
              {"n": n}, generating_det)

        def shifted_det():
            return bipoly_diff_residual(
                phi_tilde(n, z),
                ga_lift(n, det_presentation("Ptilde", n, z, list(fam))),
            )

        s.run("gaudin.shifted-det",
              "shifted generating function equals the second presentation",
              {"n": n}, shifted_det)

        def content_det():
            from .reps import content_product_all

            return poly_diff_residual(
                ga_lift(n, det_presentation("Ptilde0", n, z, list(fam))),
                ga_lift(n, content_product_all(n)),
            )

        s.run("gaudin.content-det",
              "parameter-free determinant equals the content product",
              {"n": n}, content_det)
    elif n >= 2:
        why = "presentation checks run at n <= 4" if n > 4 else DISTINCT_Z
        for cid in ("gaudin.generating-det", "gaudin.shifted-det",
                    "gaudin.content-det"):
            s.skip(cid, "determinant presentation", {"n": n}, why)

    def dagger_fixed():
        worst = Fraction(0)
        for g in table.values():
            worst = max(worst, ga_max_abs(g.dagger() - g))
            worst = max(worst, ga_max_abs(g.star() - g))
        return worst

    s.run("gaudin.dagger-fixed", "generators fixed by both antiinvolutions",
          {"n": n}, dagger_fixed)

    def covariance():
        sscale = rng.nonzero_rational(5, 3)
        sshift = rng.rational(5, 3)
        zs = tuple(sscale * x for x in z)
        table_s = gaudin_table(n, zs)
        worst = Fraction(0)
        for (i, j), g in table.items():
            worst = max(worst, ga_max_abs(table_s[(i, j)] - g * sscale**j))
        zt = tuple(x + sshift for x in z)
        polys_t = phi_polys(n, zt)[0]
        polys_0 = phi_polys(n, z)[0]
        for pt, p0 in zip(polys_t, polys_0):
            worst = max(worst, poly_diff_residual(pt.shift_arg(sshift), p0))
        return worst

    s.run("gaudin.covariance", "scaling and shift covariance of the family",
          {"n": n}, covariance)

    def equivariance():
        worst = Fraction(0)
        for _ in range(3):
            sig = rng.choice(all_permutations(n))
            zperm = tuple(z[sig(a) - 1] for a in range(1, n + 1))
            polys_p = phi_polys(n, zperm)[0]
            polys_0 = phi_polys(n, z)[0]
            g = ga_perm(sig)
            ginv = ga_perm(sig.inverse())
            for pp, p0 in zip(polys_p, polys_0):
                conj = pp.map_coeffs(lambda c: g * c * ginv)
                worst = max(worst, poly_diff_residual(conj, p0))
        return worst

    s.run("gaudin.equivariance", "conjugation permutes the parameters",
          {"n": n}, equivariance)

    def fixed_points():
        polys, _ = phi_polys(n, z)
        acc = BiPoly.from_upoly_u(scalar_root_poly(z)) * BiPoly([[0] * n + [Fraction(1)]])
        acc = ga_lift(n, acc)
        for i, poly in enumerate(polys, start=1):
            term = BiPoly.from_upoly_u(poly) * BiPoly(
                [[0] * (n - i) + [Fraction((-1) ** i)]]
            )
            acc = acc + ga_lift(n, term)
        return bipoly_diff_residual(acc, ga_lift(n, phi_gen_fixed_points(n, z)))

    s.run("gaudin.fixed-points", "fixed-point expansion of the generating function",
          {"n": n}, fixed_points)

    def center_poly():
        lhs = UPoly()
        for i in range(0, n + 1):
            top = (
                GroupAlgebraElement.scalar(n, Fraction(1))
                if i == 0
                else table[(i, 0)]
            )
            tail = UPoly([GroupAlgebraElement.scalar(n, Fraction(1))])
            for j in range(i + 1, n + 1):
                tail = tail * UPoly(
                    [GroupAlgebraElement.scalar(n, Fraction(j)),
                     GroupAlgebraElement.scalar(n, Fraction(1))]
                )
            lhs = lhs + tail.map_coeffs(lambda c, t=top: c * t * Fraction((-1) ** i))
        rhs = UPoly()
        for la in partitions_of(n):
            chi = central_idempotent(la, n)
            prod = UPoly([GroupAlgebraElement.scalar(n, Fraction(1))])
            for j, lam in enumerate(partition_parts(la, n), start=1):
                prod = prod * UPoly(
                    [GroupAlgebraElement.scalar(n, Fraction(j - lam)),
                     GroupAlgebraElement.scalar(n, Fraction(1))]
                )
            rhs = rhs + prod.map_coeffs(lambda c, chi=chi: c * chi)
        return poly_diff_residual(lhs, rhs)

    s.run("gaudin.center-poly", "top coefficients expand the central idempotents",
          {"n": n}, center_poly)

    def content_jm():
        from .gaudin import jm_elements
        from .reps import content_product_all

        pi = content_product_all(n)
        prod = UPoly([GroupAlgebraElement.scalar(n, Fraction(1))])
        for jm in jm_elements(n):
            prod = prod * UPoly([-jm, GroupAlgebraElement.scalar(n, Fraction(1))])
        worst = poly_diff_residual(pi, prod)
        from .permutations import cycle_data, sign

        coeffs = [GroupAlgebraElement.zero(n) for _ in range(n + 1)]
        for p in all_permutations(n):
            c = cycle_data(p).orbit_count
            coeffs[c] = coeffs[c] + ga_perm(p) * Fraction(sign(p))
        worst = max(worst, poly_diff_residual(pi, UPoly(coeffs)))
        return worst

    s.run("gaudin.content-jm",
          "content product equals both closed forms",
          {"n": n}, content_jm)

    def shifted_edges():
        from .reps import content_product_all

        pt = phi_tilde(n, z)
        pi = content_product_all(n)
        worst = poly_diff_residual(pt.u_coeff(n), ga_lift(n, pi))
        zprod = Fraction(1)
        for x in z:
            zprod *= x
        tail = pi.shift_arg(Fraction(1)) * (Fraction((-1) ** n) * zprod)
        worst = max(worst, poly_diff_residual(pt.u_coeff(0), ga_lift(n, tail)))
        return worst

    s.run("gaudin.shifted-edges", "edge coefficients of the shifted function",
          {"n": n}, shifted_edges)


# ---------------------------------------------------------------------------
# xxx identities


def suite_xxx(s: Suite, cfg):
    n, z, hbar = cfg.n, cfg.z, cfg.hbar
    params = xxx_params(z, hbar)
    rng = SeededRandom(cfg.seed)
    psym = UPoly.gen()

    def ts():
        worst = Fraction(0)
        for m in range(0, min(n + 1, 4) + 1):
            direct = t_m_poly(params, m).map_coeffs(lift_coeffs_to_upoly)
            via_s = ts_transform(params, m, psym).map_coeffs(lift_coeffs_to_upoly)
            worst = max(worst, poly_diff_residual(direct, via_s))
        return worst

    s.run("xxx.binomial-transform", "trace family from the p-free family, symbolic p",
          {"n": n, "m_max": min(n + 1, 4)}, ts)

    def st():
        worst = Fraction(0)
        for m in range(0, min(n + 1, 4) + 1):
            direct = s_k_poly(params, m).map_coeffs(lift_coeffs_to_upoly)
            via_t = st_transform(params, m, psym).map_coeffs(lift_coeffs_to_upoly)
            worst = max(worst, poly_diff_residual(direct, via_t))
        return worst

    s.run("xxx.inverse-transform", "p-free family from the trace family, symbolic p",
          {"n": n}, st)

    def tnn():
        worst = Fraction(0)
        target = ga_lift(n, scalar_root_poly([x - hbar for x in z]))
        orders = (n, n + 1) if n <= 4 else (n,)
        for m in orders:
            tm = t_m_poly(params, m, p=Fraction(m))
            worst = max(worst, poly_diff_residual(tm, target))
        if n <= 4:
            high = t_m_poly(params, n + 1, p=Fraction(n))
            worst = max(worst, poly_max_abs(high))
        return worst

    s.run("xxx.saturation", "trace family saturates at integer p",
          {"n": n}, tnn)

    def snn():
        acc = UPoly()
        for k in range(0, n + 1):
            acc = acc + s_k_poly(params, k)
        target = ga_lift(n, scalar_root_poly([x - hbar for x in z]))
        return poly_diff_residual(acc, target)

    s.run("xxx.sum-rule", "the p-free family sums to the shifted root product",
          {"n": n}, snn)

    def tlem():
        worst = Fraction(0)
        for nn in (1, 2):
            for m in (2, 3):
                big = nn + m
                A = top_embed(antisymmetrizer(m), nn, m)
                for a in range(1, nn + 1):
                    lhs = UPoly([A])
                    # factor with shift (m-j)*hbar carries the j-th added symbol
                    for j in range(1, m + 1):
                        lhs = lhs * UPoly(
                            [ga_transposition(big, a, nn + j) * hbar
                             - GroupAlgebraElement.scalar(big, Fraction(m - j) * hbar),
                             GroupAlgebraElement.scalar(big, Fraction(1))]
                        )
                    ssum = GroupAlgebraElement.zero(big)
                    for i in range(1, m + 1):
                        ssum = ssum + ga_transposition(big, a, nn + i) * hbar
                    rhs = UPoly([A]) * UPoly(
                        [ssum, GroupAlgebraElement.scalar(big, Fraction(1))]
                    )
                    for i in range(1, m):
                        rhs = rhs * UPoly(
                            [GroupAlgebraElement.scalar(big, -Fraction(i) * hbar),
                             GroupAlgebraElement.scalar(big, Fraction(1))]
                        )
                    worst = max(worst, poly_diff_residual(lhs, rhs))
        return worst

    s.run("xxx.telescoping", "antisymmetrizer telescoping identity",
          {"hbar": str(hbar)}, tlem)

    def cycle_shift():
        gam = gamma_perm(n)
        g, ginv = ga_perm(gam), ga_perm(gam.inverse())
        zrot = z[1:] + z[:1]
        prot = xxx_params(zrot, hbar)
        worst = Fraction(0)
        for m in range(1, min(n, 3) + 1):
            lhs = t_m_poly(prot, m, p=Fraction(2)).map_coeffs(lambda c: g * c * ginv)
            rhs = t_m_poly(params, m, p=Fraction(2))
            worst = max(worst, poly_diff_residual(lhs, rhs))
        return worst

    s.run("xxx.cycle-shift", "long-cycle conjugation rotates the parameters",
          {"n": n}, cycle_shift)

    def swap_intertwiner():
        worst = Fraction(0)
        for a in range(1, n):
            w = ga_transposition(n, a, a + 1) * (z[a - 1] - z[a]) + \
                GroupAlgebraElement.scalar(n, hbar)
            zs = list(z)
            zs[a - 1], zs[a] = zs[a], zs[a - 1]
            pswap = xxx_params(tuple(zs), hbar)
            for m in range(1, min(n, 3) + 1):
                lhs = t_m_poly(params, m, p=Fraction(2)).map_coeffs(lambda c: w * c)
                rhs = t_m_poly(pswap, m, p=Fraction(2)).map_coeffs(lambda c: c * w)
                worst = max(worst, poly_diff_residual(lhs, rhs))
        return worst

    s.run("xxx.swap-intertwiner", "adjacent swap intertwines neighbouring parameters",
          {"n": n}, swap_intertwiner)

    if n <= 3:
        rho = Permutation([n + 1 - i for i in range(1, n + 1)])

        def reversal():
            worst = Fraction(0)
            N = n
            r = ga_perm(rho)
            zrev = tuple(reversed(z))
            zneg = tuple(-x for x in z)
            prev = xxx_params(zrev, hbar)
            pneg = xxx_params(zneg, hbar)
            for m in range(0, N + 1):
                lhs = t_m_poly(prev, m, p=Fraction(N)).map_coeffs(lambda c: r * c * r)
                rhs = t_m_poly(pneg, N - m, p=Fraction(N)).subst_linear(
                    GroupAlgebraElement.scalar(n, Fraction(-1)),
                    GroupAlgebraElement.scalar(n, -hbar),
                ) * Fraction((-1) ** n)
                worst = max(worst, poly_diff_residual(lhs, rhs))
            return worst

        s.run("xxx.reversal", "order reversal exchanges the family with its mirror",
              {"n": n, "N": n}, reversal)

        def dagger_reversal():
            worst = Fraction(0)
            N = n
            zneg = tuple(-x for x in z)
            pneg = xxx_params(zneg, hbar)
            for m in range(0, N + 1):
                lhs = t_m_poly(params, m, p=Fraction(N)).map_coeffs(lambda c: c.dagger())
                rhs = t_m_poly(pneg, N - m, p=Fraction(N)).subst_linear(
                    GroupAlgebraElement.scalar(n, Fraction(-1)),
                    GroupAlgebraElement.scalar(n, -hbar),
                ) * Fraction((-1) ** n)
                worst = max(worst, poly_diff_residual(lhs, rhs))
            return worst

        s.run("xxx.dagger-reversal", "antiinvolution image of the trace family",
              {"n": n, "N": n}, dagger_reversal)
    else:
        s.skip("xxx.reversal", "order reversal exchanges the family with its mirror",
               {"n": n}, "checked for n <= 3 (needs the full mirror range)")
        s.skip("xxx.dagger-reversal", "antiinvolution image of the trace family",
               {"n": n}, "checked for n <= 3")

    def p_independent():
        spans = []
        for p in (Fraction(1), Fraction(2), Fraction(17)):
            mats = [BlockMatrix.identity(n)] + [
                represent(g) for g in xxx_table(n, z, hbar, p).values()
            ]
            spans.append(sp.linear_span(mats))
        return spans[0].same_span(spans[1]) and spans[0].same_span(spans[2])

    s.run("xxx.p-independence", "the unital generator span does not depend on p",
          {"n": n, "p": [1, 2, 17]}, p_independent)

    def binomial_trace():
        worst = Fraction(0)
        for m in range(1, 5):
            A = top_embed(antisymmetrizer(m), 2, m)
            got = trace_map(A, 2, m, psym)
            want = lift_coeffs_to_upoly(
                GroupAlgebraElement.scalar(2, falling_binomial(psym, m))
            )
            worst = max(worst, ga_max_abs(got - want))
        return worst

    s.run("xxx.binomial-trace", "traced antisymmetrizers give binomial coefficients",
          {"m_max": 4}, binomial_trace)

    def trace_example():
        sigma = (
            Permutation.cycle(9, [1, 3, 7])
            * Permutation.cycle(9, [2, 5, 6])
            * Permutation.cycle(9, [8, 9])
        )
        got = trace_map(GroupAlgebraElement.from_perm(sigma), 4, 5, psym)
        want = GroupAlgebraElement(
            4, {Permutation.cycle(4, [1, 3]): UPoly([Fraction(0), Fraction(1)])}
        )
        return ga_max_abs(got - want)

    s.run("xxx.trace-example", "worked cycle-deletion example",
          {}, trace_example)

    def trace_product_reduction():
        worst = Fraction(0)
        for nn in (1, 2):
            for k in (0, 1, 2):
                for m in range(max(k, 1), 5):
                    X = rng.choice(all_permutations(nn + k))
                    lhs = trace_map(
                        top_embed(antisymmetrizer(m), nn, m)
                        * embed(GroupAlgebraElement.from_perm(X),
                                range(1, nn + k + 1), nn + m),
                        nn, m, psym,
                    )
                    inner = (
                        trace_map(
                            top_embed(antisymmetrizer(k), nn, k)
                            * GroupAlgebraElement.from_perm(X),
                            nn, k, psym,
                        )
                        if k
                        else lift_coeffs_to_upoly(
                            trace_map(GroupAlgebraElement.from_perm(X), nn, 0, psym)
                        )
                    )
                    factor = UPoly([Fraction(1)])
                    for i in range(1, m - k + 1):
                        factor = factor * (psym + Fraction(i - m)) * Fraction(1, m + 1 - i)
                    lhs2 = inner.map_coeffs(lambda c: c * factor)
                    worst = max(worst, ga_max_abs(lhs - lhs2))
        return worst

    s.run("xxx.trace-reduction", "nested antisymmetrizer traces collapse",
          {"n_max": 2, "m_max": 4}, trace_product_reduction)

    def trace_commutes():
        worst = Fraction(0)
        for nn in (1, 2, 3):
            for m in (1, 2, 3):
                big = nn + m
                perms = all_permutations(big)
                for _ in range(4):
                    k = rng.integer(1, big)
                    l = rng.integer(1, big)
                    rs = []
                    pool = list(range(1, big + 1))
                    for _ in range(k):
                        c = rng.choice(pool)
                        pool.remove(c)
                        rs.append(c)
                    ss_pool = [x for x in range(1, big + 1)
                               if x > nn or x not in rs]
                    if len(ss_pool) < l:
                        continue
                    ssel = []
                    pool = list(ss_pool)
                    for _ in range(l):
                        c = rng.choice(pool)
                        pool.remove(c)
                        ssel.append(c)
                    X = rng.choice(all_permutations(k))
                    Y = rng.choice(all_permutations(l))
                    a = embed(GroupAlgebraElement.from_perm(X), rs, big)
                    b = embed(GroupAlgebraElement.from_perm(Y), ssel, big)
                    worst = max(
                        worst,
                        ga_max_abs(
                            trace_map(a * b, nn, m, psym)
                            - trace_map(b * a, nn, m, psym)
                        ),
                    )
        return worst

    s.run("xxx.trace-commutes",
          "trace is symmetric for collections overlapping only above n",
          {"n_max": 3, "m_max": 3}, trace_commutes)

    def trace_dagger():
        worst = Fraction(0)
        for nn in (2, 3):
            for k in (1, 2):
                for _ in range(5):
                    X = GroupAlgebraElement.from_perm(
                        rng.choice(all_permutations(nn + k))
                    )
                    lhs = trace_map(X.dagger(), nn, k, psym)
                    rhs = trace_map(X, nn, k, psym).dagger()
                    worst = max(worst, ga_max_abs(lhs - rhs))
        return worst

    s.run("xxx.trace-dagger", "trace commutes with the antiinvolution",
          {}, trace_dagger)

    # the construction self-checks the value and the product
    s.run("xxx.ordered-products", "ordered-product family: value, product, commutativity",
          {"n": n, "invertible": params.hbar_separated},
          lambda: max_commutator(qkz_elements(params).elements))

    if params.distinct and params.hbar_separated and n <= 4:

        def generating_det():
            lhs = t_gen(params)
            rhs = ga_lift(n, det_P_hbar(params, s_k_poly(params, 1)))
            return bipoly_diff_residual(lhs, rhs)

        s.run("xxx.generating-det",
              "generating polynomial equals the shifted-Cauchy determinant",
              {"n": n}, generating_det)
    else:
        s.skip("xxx.generating-det",
               "generating polynomial equals the shifted-Cauchy determinant",
               {"n": n},
               "needs distinct, hbar-separated parameters and n <= 4")

    s.run("xxx.commuting", "pairwise commutativity of the trace family",
          {"n": n},
          lambda: max_commutator(list(xxx_table(n, z, hbar, Fraction(2)).values())))

    def scaling():
        sc = rng.nonzero_rational(4, 2)
        sh = rng.rational(4, 2)
        worst = Fraction(0)
        pscale = xxx_params(tuple(sc * x for x in z), sc * hbar)
        for m in range(1, min(n, 3) + 1):
            base = t_m_poly(params, m, p=Fraction(2))
            scaled = t_m_poly(pscale, m, p=Fraction(2))
            # T(s*u; p; s*hbar; s*z) = s^n T(u; p; hbar; z)
            worst = max(
                worst,
                poly_diff_residual(
                    scaled.subst_linear(
                        GroupAlgebraElement.scalar(n, sc),
                        GroupAlgebraElement.scalar(n, Fraction(0)),
                    ),
                    base * sc**n,
                ),
            )
            pshift = xxx_params(tuple(x + sh for x in z), hbar)
            shifted = t_m_poly(pshift, m, p=Fraction(2))
            worst = max(
                worst, poly_diff_residual(shifted.shift_arg(sh), base)
            )
        return worst

    s.run("xxx.covariance", "simultaneous scaling and shift covariance",
          {"n": n}, scaling)


# ---------------------------------------------------------------------------
# homogeneous suite


def suite_homogeneous(s: Suite, cfg):
    n = cfg.n

    def s1_cycles():
        return poly_diff_residual(
            s1_homogeneous(n), s_k_poly(homogeneous_params(n), 1)
        )

    s.run("homog.s1-cycles", "first-order polynomial from increasing-cycle sums",
          {"n": n}, s1_cycles)

    if n <= 4:

        def generating_det():
            params = homogeneous_params(n)
            lhs = t_gen(params)
            rhs = ga_lift(n, det_P_hat(n, s_k_poly(params, 1)))
            return bipoly_diff_residual(lhs, rhs)

        s.run("homog.generating-det",
              "generating polynomial equals the Taylor-coefficient determinant",
              {"n": n}, generating_det)
    else:
        s.skip("homog.generating-det",
               "generating polynomial equals the Taylor-coefficient determinant",
               {"n": n}, "presentation checks run at n <= 4")

    if n >= 3:

        def charges_match():
            worst = Fraction(0)
            charges = local_charges(n)
            for k in range(1, min(n - 2, 3) + 1):
                th = local_density(k)
                worst = max(
                    worst,
                    ga_max_abs(charge_from_density(n, k, th) - charges[k - 1]),
                )
            return worst

        s.run("homog.charge-densities",
              "window densities rebuild the charges as cyclic sums",
              {"n": n, "k_max": min(n - 2, 3)}, charges_match)

        def gamma_commute():
            gam = ga_perm(gamma_perm(n))
            worst = Fraction(0)
            for ik in local_charges(n):
                worst = max(worst, ga_max_abs(ik * gam - gam * ik))
            return worst

        s.run("homog.charge-shift-commute", "charges commute with the long cycle",
              {"n": n}, gamma_commute)

        def charges_generate():
            gens1 = [represent(ga_perm(gamma_perm(n)))] + [
                represent(ik) for ik in local_charges(n)
            ]
            span1 = sp.algebra_span(gens1)
            return span1.same_span(homogeneous_span(n))

        s.run("homog.charges-generate",
              "long cycle and charges generate the same algebra",
              {"n": n}, charges_generate)

    def well_defined():
        base = homogeneous_span(n)
        for (hb, z1) in ((Fraction(2), Fraction(0)), (Fraction(1), Fraction(5))):
            table = t_m_table(xxx_params((z1,) * n, hb), Fraction(2), range(1, n),
                              range(1, n + 1))
            gens = [represent(g) for g in table.values()]
            if not sp.algebra_span(gens).same_span(base):
                return False
        return True

    s.run("homog.well-defined",
          "coincident-parameter families agree for different scales and centers",
          {"n": n}, well_defined)

    def dagger_invariant():
        base = homogeneous_span(n)
        gens = [represent(g.dagger()) for g in homogeneous_generators(n)]
        return sp.algebra_span(gens).same_span(base)

    s.run("homog.dagger-invariant", "the homogeneous span is antiinvolution-stable",
          {"n": n}, dagger_invariant)


# ---------------------------------------------------------------------------
# schur-weyl / yangian suite


def suite_schur_weyl(s: Suite, cfg):
    rng = SeededRandom(cfg.seed)

    def trace_compat():
        for N in (2, 3):
            for (nn, m) in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (2, 3), (3, 2)):
                if nn + m > 5:
                    continue
                for _ in range(4):
                    sig = rng.choice(all_permutations(nn + m))
                    lhs = partial_trace(varpi_perm(sig, N), m)
                    rhs = varpi(
                        trace_map(GroupAlgebraElement.from_perm(sig), nn, m,
                                  Fraction(N)),
                        N,
                    )
                    if lhs != rhs:
                        return False
        return True

    s.run("sw.trace-compat", "partial trace matches the cycle-deletion trace",
          {"N": [2, 3]}, trace_compat)

    def diffop_image():
        for (N, nn) in ((2, 2), (3, 2), (3, 3)):
            if nn > cfg.n:
                continue
            z = default_z(nn)
            table = gaudin_diffop_coeffs(N, nn, z)
            _, phis = phi_polys(nn, z)
            for key, phi in phis.items():
                if table[key] != varpi(phi, N):
                    return False
        return True

    s.run("sw.diffop-image", "generator images equal the differential-operator table",
          {"pairs": "(2,2),(3,2),(3,3)"}, diffop_image)

    def faithful():
        for (N, nn) in ((2, 2), (3, 3)):
            rows = [varpi_perm(p, N).flatten_rows() for p in all_permutations(nn)]
            from .linalg import rank

            if rank(rows) != math.factorial(nn):
                return False
        return True

    s.run("sw.faithful", "the tensor action is faithful for N >= n",
          {}, faithful)

    def transfer_match():
        N, nn = 2, 2
        z = (Fraction(0), Fraction(2))
        hb = Fraction(2)
        params = xxx_params(z, hb)
        Ph = scalar_root_poly(z).subst_linear(hb, Fraction(0))
        for m in (1, 2):
            tm = t_m_poly(params, m, p=Fraction(N))
            mats = [varpi(ga_lift(nn, c), N) * (hb**k)
                    for k, c in enumerate(tm.coeffs)]
            psi = yangian_transfer(N, nn, m, [x / hb for x in z])
            d = N**nn
            for r in range(d):
                for c in range(d):
                    numer = UPoly([mats[k].entries.get((r, c), Fraction(0))
                                   for k in range(len(mats))])
                    if RationalFunc(numer, Ph) != psi.get((r, c), RF_ZERO):
                        return False
        return True

    s.run("sw.transfer-match",
          "traced family maps onto the evaluation transfer matrices",
          {"N": 2, "n": 2, "m": [1, 2]}, transfer_match)

    def transfer_commute():
        N, nn = 2, 2
        x = (Fraction(0), Fraction(2))
        T1 = yangian_transfer(N, nn, 1, x)
        T2 = yangian_transfer(N, nn, 2, x)
        d = N**nn

        def ev(T, u0):
            M = [[Fraction(0)] * d for _ in range(d)]
            for (r, c), v in T.items():
                M[r][c] = v.eval_at(u0)
            return M

        def mm(A, B):
            return [
                [sum(A[i][k] * B[k][j] for k in range(d)) for j in range(d)]
                for i in range(d)
            ]

        for (u0, v0) in ((Fraction(7), Fraction(9)), (Fraction(1, 3), Fraction(11, 2))):
            for (TA, TB) in ((T1, T2), (T1, T1)):
                A, B = ev(TA, u0), ev(TB, v0)
                if mm(A, B) != mm(B, A):
                    return False
        return True

    s.run("sw.transfer-commute", "transfer matrices commute at sample points",
          {"N": 2, "n": 2}, transfer_commute)

    def heisenberg():
        N = 2
        for nn in (3, 4):
            if nn > max(cfg.n, 3):
                continue
            lhs = varpi(local_charges(nn)[0], N)
            rhs = TensorOperator.zero(N, nn)
            for a in range(1, nn + 1):
                nxt = a + 1 if a < nn else 1
                for i in range(1, N + 1):
                    for j in range(1, N + 1):
                        rhs = rhs + elementary(N, nn, a, i, j) * elementary(
                            N, nn, nxt, j, i
                        )
            if lhs != rhs:
                return False
        return True

    s.run("sw.heisenberg", "first charge maps to the nearest-neighbour exchange sum",
          {"N": 2}, heisenberg)


# ---------------------------------------------------------------------------
# spectra suite


def suite_spectra(s: Suite, cfg):
    n, z, hbar, seed, tol = cfg.n, cfg.z, cfg.hbar, cfg.seed, cfg.tol

    def dims():
        want = sum_of_dims(n)
        if gaudin_span(n, z).dim != want:
            return False
        if xxx_span(n, z, hbar).dim != want:
            return False
        if homogeneous_span(n).dim != want:
            return False
        return True

    # the rational family keeps the dimension law, maximality and simple
    # spectrum while parameters coincide at most in pairs (spectra.coincidences)
    at_most_pairs = ParameterSet(z).at_most_pairs
    slow_skip = None if n <= 4 or cfg.slow else "enable --slow for n = 5"
    span_skip = slow_skip if at_most_pairs else AT_MOST_PAIRS_Z

    if span_skip is None:
        s.run("spectra.dimension-law", "all three spans have the standard dimension",
              {"n": n, "expect": sum_of_dims(n)}, dims)
    else:
        s.skip("spectra.dimension-law", "all three spans have the standard dimension",
               {"n": n}, span_skip)

    def maximality():
        for span in (gaudin_span(n, z), xxx_span(n, z, hbar), homogeneous_span(n),
                     gz_span(n)):
            if sp.commutant_dim(span) != span.dim:
                return False
        return True

    if span_skip is None:
        s.run("spectra.maximality", "each family is its own commutant",
              {"n": n}, maximality)
    else:
        s.skip("spectra.maximality", "each family is its own commutant",
               {"n": n}, span_skip)

    def coincidences():
        zp = (Fraction(0), Fraction(0), Fraction(1), Fraction(3))
        span_pair = sp.algebra_span(
            [represent(g) for g in phi_polys(4, zp)[1].values()]
        )
        if sp.commutant_dim(span_pair) != span_pair.dim:
            return False
        zt = (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
        span_triple = sp.algebra_span(
            [represent(g) for g in phi_polys(4, zt)[1].values()]
        )
        return sp.commutant_dim(span_triple) > span_triple.dim

    if cfg.n >= 4:
        s.run("spectra.coincidences",
              "maximality survives a pair but fails on a triple",
              {"n": 4}, coincidences)
    else:
        s.skip("spectra.coincidences",
               "maximality survives a pair but fails on a triple",
               {"n": 4}, "check fixed at n = 4; raise --n")

    def certs():
        ok1, _ = spectrum_cert(gaudin_span(n, z), seed)
        zx = tuple(Fraction(3 - i) for i in range(n))
        ok2, _ = spectrum_cert(xxx_span(n, zx, Fraction(1, 2)), seed)
        ok3, _ = spectrum_cert(homogeneous_span(n), seed)
        return ok1 and ok2 and ok3

    if at_most_pairs:
        s.run("spectra.simple-spectrum", "random combinations have squarefree charpoly",
              {"n": n, "seed": seed}, certs)
    else:
        s.skip("spectra.simple-spectrum", "random combinations have squarefree charpoly",
               {"n": n, "seed": seed}, AT_MOST_PAIRS_Z)

    def eigen_counts():
        want = sum_of_dims(n)
        return (
            len(gaudin_eigen(n, z, seed)) == want
            and len(homogeneous_eigen(n, seed)) == want
        )

    if ParameterSet(z).distinct:
        s.run("spectra.eigen-count", "one joint eigenvector per standard tableau",
              {"n": n}, eigen_counts)
    else:
        s.skip("spectra.eigen-count", "one joint eigenvector per standard tableau",
               {"n": n}, DISTINCT_Z)

    def relations_h():
        nn = min(n, 3)
        zz = z[:nn]
        worst = 0.0
        for rec in gaudin_eigen(nn, zz, seed):
            h = [rec.eigenvalues[f"H{a}"] for a in range(1, nn + 1)]
            rep = check_relations_H(rec.partition, zz, h)
            worst = max(worst, float(rep["max_residual"]))
        return worst

    if ParameterSet(z[:3]).distinct:
        s.run("spectra.relations", "eigenvalue data satisfies the scalar relations",
              {"n": min(n, 3)}, relations_h)
    else:
        s.skip("spectra.relations", "eigenvalue data satisfies the scalar relations",
               {"n": min(n, 3)}, DISTINCT_Z)

    def theta_loop():
        for nn in (3, 4):
            if nn > n:
                continue
            for rec in homogeneous_eigen(nn, seed):
                F = homogeneous_f_from_record(nn, rec)
                la = rec.partition
                space = sp.reconstruct_subspace(
                    F, nn, degree_bound=la[0] + nn - 1, hbar=1.0,
                    variant="discrete", tol=1e-6,
                )
                degrees = sorted(space.degrees(), reverse=True)
                want = [la[i] + nn - i - 1 if i < len(la) else nn - i - 1
                        for i in range(nn)]
                if degrees != sorted(want, reverse=True):
                    raise AssertionError(
                        f"degrees {degrees} do not match the block {la}"
                    )
                resid = sp.theta_membership_residual(space, nn)
                if resid > 1e-6:
                    raise AssertionError(f"unit-shift residual {resid}")
        return True

    s.run("spectra.fiber-loop",
          "eigen data reconstructs polynomial subspaces with the right shape",
          {"n_range": [3, 4]}, theta_loop)

    def cyclic_vectors():
        for la in partitions_of(min(n, 4)):
            nn = sum(la)
            zz = z[:nn]
            coords, value = sp.cyclic_vector(la, zz, "classic")
            deg = max(
                (sum(e) for c in coords for e in c.terms), default=0
            )
            want = sum((i - 1) * part for i, part in enumerate(la, start=1))
            if deg != want:
                return False
        return True

    s.run("spectra.cyclic-vectors", "minimal-degree invariants exist and are unique",
          {"n": min(n, 4)}, cyclic_vectors)

    def deformed_action():
        rng = SeededRandom(seed)
        from .rings import MultiPoly

        nn = min(n, 4)
        hb = Fraction(1, 2)
        worst = Fraction(0)
        for _ in range(4):
            q = MultiPoly(
                nn,
                {
                    tuple(rng.integer(0, 2) for _ in range(nn)): rng.rational(5, 2)
                    for _ in range(3)
                },
            )
            for i in range(nn - 1):
                back = sp.symmetric_action_on_poly(
                    sp.symmetric_action_on_poly(q, i, hb), i, hb
                )
                worst = max(
                    worst,
                    max((abs(c) for c in (back - q).terms.values()), default=Fraction(0)),
                )
            for i in range(nn - 2):
                aba = sp.symmetric_action_on_poly(
                    sp.symmetric_action_on_poly(
                        sp.symmetric_action_on_poly(q, i, hb), i + 1, hb
                    ),
                    i, hb,
                )
                bab = sp.symmetric_action_on_poly(
                    sp.symmetric_action_on_poly(
                        sp.symmetric_action_on_poly(q, i + 1, hb), i, hb
                    ),
                    i + 1, hb,
                )
                worst = max(
                    worst,
                    max((abs(c) for c in (aba - bab).terms.values()),
                        default=Fraction(0)),
                )
        return worst

    s.run("spectra.deformed-action", "the divided-difference deformation is an action",
          {"n": min(n, 4)}, deformed_action)

    def trend(builder):
        dists = []
        for sv in (Fraction(100), Fraction(10000), Fraction(1000000)):
            span = builder(sv)
            dists.append(sp.span_distance(span, gz_span(n)))
        return all(a > b for a, b in zip(dists, dists[1:]))

    def steep_z(sv):
        return tuple(sv**k for k in range(n))

    if 3 <= n <= 4:
        s.run("spectra.trend-rational", "steep parameters contract to the tower span",
              {"n": n}, lambda: trend(lambda sv: gaudin_span(n, steep_z(sv))))
        s.run("spectra.trend-shifted", "the deformed family contracts likewise",
              {"n": n},
              lambda: trend(lambda sv: xxx_span(n, steep_z(sv), Fraction(1))))

        def hbar_trend():
            base = gaudin_span(n, z)
            dists = []
            for hb in (Fraction(1), Fraction(1, 10), Fraction(1, 100)):
                dists.append(sp.span_distance(xxx_span(n, z, hb), base))
            return all(a > b for a, b in zip(dists, dists[1:]))

        if at_most_pairs:
            s.run("spectra.trend-hbar",
                  "small deformation contracts to the rational family",
                  {"n": n}, hbar_trend)
        else:
            s.skip("spectra.trend-hbar",
                   "small deformation contracts to the rational family",
                   {"n": n}, AT_MOST_PAIRS_Z)
    else:
        for cid in ("spectra.trend-rational", "spectra.trend-shifted",
                    "spectra.trend-hbar"):
            s.skip(cid, "limit trend", {"n": n},
                   "trend checks run at 3 <= n <= 4 (spans coincide below)")


# ---------------------------------------------------------------------------
# conjecture probes


def suite_conjectures(s: Suite, cfg):
    n = min(cfg.n, 3)
    z = cfg.z[:n]
    seed = cfg.seed
    lam = getattr(cfg, "lam", None)

    def keep(rec):
        return lam is None or rec.partition == tuple(lam)

    def shifted_relations():
        worst = 0.0
        for rec in gaudin_eigen(n, z, seed):
            if not keep(rec):
                continue
            h = [rec.eigenvalues[f"H{a}"] for a in range(1, n + 1)]
            rep = check_relations_Ht(rec.partition, z, h)
            worst = max(worst, float(rep["max_residual"]))
        return worst

    if ParameterSet(z).distinct:
        s.run("conjecture.shifted-relations",
              "eigen data satisfies the shifted scalar relations",
              {"n": n}, shifted_relations, conjecture=True)
    else:
        s.skip("conjecture.shifted-relations",
               "eigen data satisfies the shifted scalar relations",
               {"n": n}, DISTINCT_Z)

    hbar = Fraction(1)
    params = xxx_params(z, hbar)

    def xxx_relations():
        worst = 0.0
        for rec in xxx_eigen(n, z, hbar, seed):
            if not keep(rec):
                continue
            # coefficients of the scalar image of the first-order polynomial:
            # leading term hbar*n, then the hbar-power-weighted eigenvalues
            qvals = [float(hbar * n)] + [
                float(hbar ** (i + 1)) * rec.eigenvalues[f"S{i}"]
                for i in range(1, n)
            ]
            rep = check_relations_Hh(rec.partition, params, qvals)
            worst = max(worst, float(rep["max_residual"]))
        return worst

    if params.distinct and params.hbar_separated:
        s.run("conjecture.deformed-relations",
              "eigen data satisfies the deformed scalar relations",
              {"n": n}, xxx_relations, conjecture=True)
    else:
        s.skip("conjecture.deformed-relations",
               "eigen data satisfies the deformed scalar relations",
               {"n": n}, "needs distinct, hbar-separated parameters (hbar = 1)")


SUITES = {
    "identities-gaudin": suite_gaudin,
    "identities-xxx": suite_xxx,
    "homogeneous": suite_homogeneous,
    "schur-weyl": suite_schur_weyl,
    "spectra": suite_spectra,
    "conjectures": suite_conjectures,
}


def run_suite(cfg) -> VerificationReport:
    report = VerificationReport(
        suite=cfg.suite,
        config={
            "n": cfg.n,
            "z": [f"{x.numerator}/{x.denominator}" for x in cfg.z],
            "hbar": f"{cfg.hbar.numerator}/{cfg.hbar.denominator}",
            "seed": cfg.seed,
            "tol": cfg.tol,
            "slow": cfg.slow,
        },
    )
    s = Suite(report, cfg.tol)
    if cfg.suite == "all":
        for fn in SUITES.values():
            fn(s, cfg)
    else:
        SUITES[cfg.suite](s, cfg)
    return report
