"""Named verification suites as one claim table.  Each claim computes an
exact residual or a bool for one verified statement and declares what it
needs of the configuration.  The runner turns residuals into PASS or FAIL
records (CONJECTURE-* for the two conjecture probes), writes a SKIPPED record
naming the first requirement a configuration misses, collects timings, and
never lets a conjecture outcome break the run.  The objects that claims
share (tables, spans, certificates, images) are built once per run, in the
run's store ``Builds``.  No claim computes in floats; floats live only in
the tests' oracle.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .rings import (
    MultiPoly, SeededRandom, UPoly, falling_binomial, format_rational, scalar_root_poly,
)
from .linalg import rank
from .permutations import (
    GroupAlgebraElement,
    all_permutations,
    antisymmetrizer,
    commutators,
    compose,
    conjugate,
    cycle,
    cycle_data,
    embed,
    ga_lift,
    ga_perm,
    ga_transposition,
    permutation,
    top_embed,
    trace_map,
)
from .reps import (
    BlockMatrix,
    block_shapes,
    central_idempotent,
    content_product_all,
    partition_parts,
    partitions_of,
    represent,
    sum_of_dims,
)
from .gaudin import (
    ParameterSet,
    det_presentation,
    jm_content_product,
    jm_elements,
    kz_elements,
    phi_expansion,
    phi_gen,
    phi_gen_fixed_points,
    phi_polys,
    phi_tilde_coeff,
    relation_residuals,
    shifted_relation_reader,
    v_expansion,
)
from .xxx import (
    det_P_hbar,
    qkz_elements,
    s_k_poly,
    st_transform,
    t_at,
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
    transfer_at,
    varpi,
    varpi_perm,
    yangian_transfer,
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


def max_abs(*xs) -> Fraction:
    """Largest absolute coefficient of scalars, group-algebra elements,
    MultiPolys and polynomials over them, nested polynomials too (in u and
    v, or over polynomials in p); Fraction(0) for none, so an exact zero
    reads 0/1."""
    out = Fraction(0)
    for x in xs:
        if isinstance(x, UPoly):
            x = max_abs(*x.coeffs)
        elif isinstance(x, (GroupAlgebraElement, MultiPoly)):
            x = max_abs(*x.terms.values())
        out = max(out, abs(x))
    return out


def max_commutator(elements) -> Fraction:
    """Largest coefficient of any pairwise commutator ab - ba of group-algebra
    elements."""
    return max_abs(*commutators(elements))


# ---------------------------------------------------------------------------
# the objects a run shares between its claims


class Builds(dict):
    """One run's store: ``b(builder, *key)`` is ``builder(b, *key)``, built
    on the first read of that key; each builder below takes the store first."""

    def __call__(self, builder, *key):
        k = (builder, *key)
        if k not in self:
            self[k] = builder(self, *key)
        return self[k]


def span_of(n: int, elements):
    """Algebra spanned by the block images of group-algebra elements of S_n;
    no elements span the scalars."""
    return sp.algebra_span([BlockMatrix.identity(n)] + [represent(g) for g in elements])


def gaudin_table(b, n: int, z: tuple):
    return phi_polys(n, z)[1]


def gaudin_polys(b, n: int, z: tuple):
    """The generator polynomials of ``phi_polys(n, z)``, read back from the
    stored coefficient table: table[(i, j)] is the coefficient of
    u^(n-i-j)."""
    table = b(gaudin_table, n, z)
    return [UPoly([table[(i, n - i - k)] for k in range(n - i + 1)])
            for i in range(1, n + 1)]


def gaudin_tilde_coeff(b, n: int, z: tuple, k: int):
    """The u^k coefficient of φ̃ at the rational family's polynomials."""
    return phi_tilde_coeff(n, z, gaudin_polys(b, n, z), k)


def gaudin_span(b, n: int, z: tuple):
    return span_of(n, b(gaudin_table, n, z).values())


def xxx_table(b, n: int, z: tuple, hbar: Fraction):
    # the generator table at the trace parameter p = 2
    return t_m_table(xxx_params(z, hbar), Fraction(2), range(1, n), range(1, n + 1))


def t_poly(b, params, m: int) -> UPoly:
    """The literal T_m(u) of ``params``, symbolic in the trace parameter p:
    one product in S_{n+m} per run, which claims read through ``t_value``."""
    return t_m_poly(params, m)


def t_value(b, params, m: int, p) -> UPoly:
    """The stored T_m(u) of ``params`` at the trace parameter p."""
    return t_at(b(t_poly, params, m), params.n, p)


def xxx_span(b, n: int, z: tuple, hbar: Fraction):
    return span_of(n, b(xxx_table, n, z, hbar).values())


def homogeneous_span(b, n: int):
    return span_of(n, homogeneous_generators(n))


def gz_span(b, n: int):
    """The Gelfand-Zetlin algebra GZ of S_1 < ... < S_n, as the algebra that
    the Jucys-Murphy elements J_1..J_n generate.  J_k is the transposition
    class sum of S_k minus that of S_(k-1), so alg(J) lies in GZ, which is
    commutative.  Equality is the Okounkov-Vershik theorem (Selecta Math. 2,
    1996); the tests check it against the class sums for n <= 5, and
    ``spectra_maximality`` certifies it at the run's n."""
    return span_of(n, jm_elements(n))


def certificate(b, n: int, elements: tuple, seed: int):
    """``spectra.certificate`` of the unital algebra that group-algebra
    elements of S_n generate."""
    return sp.certificate([BlockMatrix.identity(n)] + [represent(g) for g in elements], seed)


def gaudin_presentation(b, n: int, z: tuple, kind: str):
    """The rational family's determinant presentation of variant ``kind``
    ("P", "Ptilde" or "Ptilde0"), lifted into S_n."""
    fam = kz_elements(n, z, gaudin_polys(b, n, z))
    return ga_lift(n, det_presentation(kind, n, z, fam))


def kz_images(b, n: int, z: tuple) -> dict:
    """Block images of the rational family's n elements H_a."""
    fam = kz_elements(n, z, gaudin_polys(b, n, z))
    return {f"H{a}": represent(h) for a, h in enumerate(fam, start=1)}


def t_table(b, n: int) -> dict:
    """The homogeneous family's traced coefficients: (m, i) -> T_m,i, the
    coefficient of u^(n-i) in T_m(u) at p = n, for m = 1..n and i = 0..n."""
    return t_m_table(homogeneous_params(n), Fraction(n), range(1, n + 1), range(n + 1))


def t_images(b, n: int) -> dict:
    """Block images of the homogeneous family's traced coefficients T_m,i."""
    return {f"T{m}c{i}": represent(g) for (m, i), g in b(t_table, n).items()}


def homogeneous_f(n: int, T) -> UPoly:
    """u^n v^n + sum_m (-1)^m T_m(u) v^(n-m), in u over polynomials in v,
    from a table T[(m, i)] of the u^(n-i) coefficients of T_m: ``t_table``'s
    elements, or the joint eigenvalues on one line.  ``spectra.annihilate``
    reads off it the operator p(u) -> sum_m (-1)^m T_m(u) p(u - m), T_0 = u^n."""
    polys = [UPoly([0] * n + [1])]
    polys += [UPoly([T[(m, i)] for i in range(n, -1, -1)]) for m in range(1, n + 1)]
    return v_expansion(polys)


# ---------------------------------------------------------------------------
# check runner


class Suite:
    def __init__(self, report: VerificationReport):
        self.report = report

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
        else:
            ok = residual == 0
            shown = format_rational(residual) if isinstance(residual, Fraction) else str(residual)
        if conjecture:
            status = CONJECTURE_PASS if ok else CONJECTURE_FAIL
        else:
            status = PASS if ok else FAIL
        self.report.add(CheckRecord(check_id, anchor, params, status, shown, t.ms))

    def skip(self, check_id, anchor, params, why):
        self.report.add(CheckRecord(check_id, anchor, params, SKIPPED, "-", 0.0, why))


# A condition ``holds(cfg)`` on the configuration; ``text`` is the SKIP
# detail of a claim whose first unmet requirement it is.
Requirement = namedtuple("Requirement", "text holds")


def n_range(lo: int = 1, hi: int | None = None) -> Requirement:
    """lo <= n, and n <= hi unless hi is None."""
    if hi is None:
        text = f"needs n >= {lo}"
    else:
        text = f"needs n <= {hi}" if lo == 1 else f"needs {lo} <= n <= {hi}"
    return Requirement(text, lambda cfg: lo <= cfg.n and (hi is None or cfg.n <= hi))


DISTINCT_Z = Requirement("needs pairwise-distinct z",
                         lambda cfg: ParameterSet(cfg.z).distinct)
AT_MOST_PAIRS_Z = Requirement("needs no z value repeated three times",
                              lambda cfg: ParameterSet(cfg.z).at_most_pairs)
HBAR_SEPARATED = Requirement(
    "needs hbar-separated parameters",
    lambda cfg: xxx_params(cfg.z, cfg.hbar).hbar_separated)
# the deformed probe builds its presentation at hbar = 1, whatever --hbar is
SEPARATED_AT_ONE = Requirement("needs z hbar-separated at hbar = 1",
                               lambda cfg: xxx_params(cfg.z).hbar_separated)


def n_only(cfg) -> dict:
    return {"n": cfg.n}


# One check: ``fn(cfg, rng, b)`` returns its residual (an exact value, zero
# when the claim holds, or a bool), b the run's store; ``params(cfg)`` is its
# report params, and ``requires`` the requirements it is skipped without.
Claim = namedtuple("Claim", "check_id anchor fn params requires conjecture",
                   defaults=(n_only, (), False))


def run_claims(s: Suite, cfg, claims, b: Builds):
    """Run the claims in declaration order on one seeded stream and store; a
    claim with an unmet requirement is skipped, naming the first one."""
    rng = SeededRandom(cfg.seed)
    for claim in claims:
        params = claim.params(cfg)
        missing = next((r.text for r in claim.requires if not r.holds(cfg)), None)
        if missing is not None:
            s.skip(claim.check_id, claim.anchor, params, missing)
            continue
        s.run(claim.check_id, claim.anchor, params, lambda: claim.fn(cfg, rng, b),
              claim.conjecture)


# ---------------------------------------------------------------------------
# gaudin identities


def gaudin_commuting(cfg, rng, b):
    return max_commutator(list(b(gaudin_table, cfg.n, cfg.z).values()))


def gaudin_generating_det(cfg, rng, b):
    return max_abs(phi_gen(cfg.n, cfg.z, gaudin_polys(b, cfg.n, cfg.z))
                   - b(gaudin_presentation, cfg.n, cfg.z, "P"))


def gaudin_shifted_det(cfg, rng, b):
    tilde = UPoly([b(gaudin_tilde_coeff, cfg.n, cfg.z, k) for k in range(cfg.n + 1)])
    return max_abs(tilde - b(gaudin_presentation, cfg.n, cfg.z, "Ptilde"))


def gaudin_content_det(cfg, rng, b):
    return max_abs(b(gaudin_presentation, cfg.n, cfg.z, "Ptilde0")
                   - ga_lift(cfg.n, content_product_all(cfg.n)))


def gaudin_dagger_fixed(cfg, rng, b):
    return max_abs(*(h - g for g in b(gaudin_table, cfg.n, cfg.z).values()
                     for h in (g.dagger(), g.star())))


def gaudin_covariance(cfg, rng, b):
    n, z = cfg.n, cfg.z
    sscale = rng.nonzero_rational(5, 3)
    sshift = rng.rational(5, 3)
    table_s = phi_polys(n, tuple(sscale * x for x in z))[1]
    scaled = [table_s[(i, j)] - g * sscale**j
              for (i, j), g in b(gaudin_table, n, z).items()]
    polys_t = phi_polys(n, tuple(x + sshift for x in z))[0]
    return max_abs(*scaled, *(pt.shift_arg(sshift) - p0
                              for pt, p0 in zip(polys_t, gaudin_polys(b, n, z))))


def gaudin_equivariance(cfg, rng, b):
    n, z = cfg.n, cfg.z
    polys_0 = gaudin_polys(b, n, z)
    residuals = []
    for _ in range(3):
        sig = rng.choice(all_permutations(n))
        zperm = tuple(z[b - 1] for b in sig)
        polys_p = phi_polys(n, zperm)[0]
        residuals += [pp.map_coeffs(lambda c: conjugate(c, sig)) - p0
                      for pp, p0 in zip(polys_p, polys_0)]
    return max_abs(*residuals)


def gaudin_fixed_points(cfg, rng, b):
    n, z = cfg.n, cfg.z
    return max_abs(phi_expansion(n, z, gaudin_polys(b, n, z))
                   - ga_lift(n, phi_gen_fixed_points(n, z)))


def shifted_u(n: int, c) -> UPoly:
    """u + c over the group algebra of S_n, for a scalar or element c."""
    return UPoly([ga_lift(n, c), GroupAlgebraElement.scalar(n, Fraction(1))])


def gaudin_center_poly(cfg, rng, b):
    n = cfg.n
    table = b(gaudin_table, n, cfg.z)
    lhs = UPoly()
    for i in range(0, n + 1):
        top = GroupAlgebraElement.scalar(n, Fraction(1)) if i == 0 else table[(i, 0)]
        tail = scalar_root_poly([Fraction(-j) for j in range(i + 1, n + 1)])
        lhs = lhs + tail.map_coeffs(lambda c, t=top: c * t * Fraction((-1) ** i))
    rhs = UPoly()
    for la in partitions_of(n):
        chi = central_idempotent(la, n)
        prod = scalar_root_poly([Fraction(lam - j)
                                 for j, lam in enumerate(partition_parts(la, n), start=1)])
        rhs = rhs + prod.map_coeffs(lambda c, chi=chi: c * chi)
    return max_abs(lhs - rhs)


def gaudin_content_jm(cfg, rng, b):
    n = cfg.n
    pi = content_product_all(n)
    prod = jm_content_product(n)
    coeffs = [{} for _ in range(n + 1)]
    for p in all_permutations(n):
        d = cycle_data(p)
        coeffs[d.orbit_count][p] = Fraction(d.sign)
    return max_abs(pi - prod,
                   pi - UPoly([GroupAlgebraElement(n, terms) for terms in coeffs]))


def gaudin_shifted_edges(cfg, rng, b):
    # φ̃'s two edge coefficients alone, read back where shifted-det built them
    n, z = cfg.n, cfg.z
    pi = content_product_all(n)
    zprod = Fraction(1)
    for x in z:
        zprod *= x
    tail = pi.shift_arg(Fraction(1)) * (Fraction((-1) ** n) * zprod)
    return max_abs(b(gaudin_tilde_coeff, n, z, n) - ga_lift(n, pi),
                   b(gaudin_tilde_coeff, n, z, 0) - ga_lift(n, tail))


# ---------------------------------------------------------------------------
# xxx identities


# The orders m of the transform claims, and of the symmetry claims, which
# compare T_m of the run's parameters with T_m of others: each T_m is a
# product in S_{n+m}, so the orders stop at a fixed m_max whatever n is.
TRANSFORM_ORDERS = range(0, 5)
T_ORDERS = range(1, 4)


def orders_params(orders):
    return lambda cfg: {"n": cfg.n, "m_max": orders[-1]}


def transform_families(cfg, b):
    """The S_k and the stored T_k, symbolic in p, of the run's parameters
    for the orders of the transform claims (S_k = 0 for k > n)."""
    params = xxx_params(cfg.z, cfg.hbar)
    return ([s_k_poly(params, k) for k in TRANSFORM_ORDERS],
            [b(t_poly, params, k) for k in TRANSFORM_ORDERS])


def xxx_binomial_transform(cfg, rng, b):
    s_family, t_family = transform_families(cfg, b)
    return max_abs(*(t - ts_transform(s_family, m, UPoly.gen())
                     for m, t in enumerate(t_family)))


def xxx_inverse_transform(cfg, rng, b):
    s_family, t_family = transform_families(cfg, b)
    return max_abs(*(s - st_transform(t_family, m, UPoly.gen())
                     for m, s in enumerate(s_family)))


def shifted_root_target(cfg):
    return ga_lift(cfg.n, scalar_root_poly([x - cfg.hbar for x in cfg.z]))


def xxx_saturation(cfg, rng, b):
    params = xxx_params(cfg.z, cfg.hbar)
    return max_abs(t_value(b, params, cfg.n, Fraction(cfg.n)) - shifted_root_target(cfg))


def xxx_saturation_next(cfg, rng, b):
    # T_{n+1} is a product in S_{2n+1}
    n, params = cfg.n, xxx_params(cfg.z, cfg.hbar)
    return max_abs(t_value(b, params, n + 1, Fraction(n + 1)) - shifted_root_target(cfg),
                   t_value(b, params, n + 1, Fraction(n)))


def xxx_sum_rule(cfg, rng, b):
    params = xxx_params(cfg.z, cfg.hbar)
    acc = sum((s_k_poly(params, k) for k in range(0, cfg.n + 1)), UPoly())
    return max_abs(acc - shifted_root_target(cfg))


def xxx_telescoping(cfg, rng, b):
    hbar = cfg.hbar
    residuals = []
    for nn in (1, 2):
        for m in (2, 3):
            big = nn + m
            A = top_embed(antisymmetrizer(m), nn, m)
            for a in range(1, nn + 1):
                lhs = UPoly([A])
                # factor with shift (m-j)*hbar carries the j-th added symbol
                for j in range(1, m + 1):
                    lhs = lhs * shifted_u(
                        big, ga_transposition(big, a, nn + j) * hbar
                        - GroupAlgebraElement.scalar(big, Fraction(m - j) * hbar))
                ssum = GroupAlgebraElement.zero(big)
                for i in range(1, m + 1):
                    ssum = ssum + ga_transposition(big, a, nn + i) * hbar
                rhs = UPoly([A]) * shifted_u(big, ssum)
                for i in range(1, m):
                    rhs = rhs * shifted_u(big, -Fraction(i) * hbar)
                residuals.append(lhs - rhs)
    return max_abs(*residuals)


def xxx_cycle_shift(cfg, rng, b):
    n, z, hbar = cfg.n, cfg.z, cfg.hbar
    gam = gamma_perm(n)
    prot = xxx_params(z[1:] + z[:1], hbar)
    params = xxx_params(z, hbar)
    return max_abs(*(
        t_value(b, prot, m, Fraction(2)).map_coeffs(lambda c: conjugate(c, gam))
        - t_value(b, params, m, Fraction(2))
        for m in T_ORDERS
    ))


def xxx_swap_intertwiner(cfg, rng, b):
    n, z, hbar = cfg.n, cfg.z, cfg.hbar
    base = [t_value(b, xxx_params(z, hbar), m, Fraction(2)) for m in T_ORDERS]
    residuals = []
    for a in range(1, n):
        w = ga_transposition(n, a, a + 1) * (z[a - 1] - z[a]) + \
            GroupAlgebraElement.scalar(n, hbar)
        zs = list(z)
        zs[a - 1], zs[a] = zs[a], zs[a - 1]
        pswap = xxx_params(tuple(zs), hbar)
        for m, t in zip(T_ORDERS, base):
            lhs = t.map_coeffs(lambda c: w * c)
            rhs = t_value(b, pswap, m, Fraction(2)).map_coeffs(lambda c: c * w)
            residuals.append(lhs - rhs)
    return max_abs(*residuals)


def mirror_residual(cfg, b, params, conj):
    """T_m of ``params`` at p = n, conjugated coefficientwise, against
    (-1)^n T_{n-m}(-u - hbar) of the negated parameters, for m = 0..n."""
    n, hbar = cfg.n, cfg.hbar
    pneg = xxx_params(tuple(-x for x in cfg.z), hbar)
    return max_abs(*(
        t_value(b, params, m, Fraction(n)).map_coeffs(conj)
        - t_value(b, pneg, n - m, Fraction(n)).subst_linear(
            GroupAlgebraElement.scalar(n, Fraction(-1)),
            GroupAlgebraElement.scalar(n, -hbar),
        ) * Fraction((-1) ** n)
        for m in range(0, n + 1)
    ))


def xxx_reversal(cfg, rng, b):
    r = permutation([cfg.n + 1 - i for i in range(1, cfg.n + 1)])
    return mirror_residual(cfg, b, xxx_params(tuple(reversed(cfg.z)), cfg.hbar),
                           lambda c: conjugate(c, r))


def xxx_dagger_reversal(cfg, rng, b):
    return mirror_residual(cfg, b, xxx_params(cfg.z, cfg.hbar), lambda c: c.dagger())


def xxx_p_independence(cfg, rng, b):
    """Built from the literal trace, read at each p: through the binomial
    transform T_m is S_m plus lower S_k, so that span would not depend on p
    by construction."""
    n, params = cfg.n, xxx_params(cfg.z, cfg.hbar)
    spans = []
    for p in (Fraction(1), Fraction(2), Fraction(17)):
        mats = [BlockMatrix.identity(n)]
        for m in range(1, n):
            poly = t_value(b, params, m, p)
            mats += [represent(ga_lift(n, poly.coeff(n - i))) for i in range(1, n + 1)]
        spans.append(sp.linear_span(mats))
    return spans[0].same_span(spans[1]) and spans[0].same_span(spans[2])


def xxx_binomial_trace(cfg, rng, b):
    psym = UPoly.gen()
    return max_abs(*(
        trace_map(top_embed(antisymmetrizer(m), 2, m), 2, m, psym)
        - ga_lift(2, falling_binomial(psym, m))
        for m in range(1, 5)
    ))


def xxx_trace_example(cfg, rng, b):
    sigma = compose(
        compose(cycle(9, [1, 3, 7]), cycle(9, [2, 5, 6])), cycle(9, [8, 9])
    )
    got = trace_map(GroupAlgebraElement.from_perm(sigma), 4, 5, UPoly.gen())
    return max_abs(got - UPoly.gen() * ga_perm(cycle(4, [1, 3])))


def xxx_trace_reduction(cfg, rng, b):
    psym = UPoly.gen()
    residuals = []
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
                inner = trace_map(
                    top_embed(antisymmetrizer(k), nn, k) * GroupAlgebraElement.from_perm(X)
                    if k else GroupAlgebraElement.from_perm(X),
                    nn, k, psym,
                )
                factor = UPoly([Fraction(1)])
                for i in range(1, m - k + 1):
                    factor = factor * (psym + Fraction(i - m)) * Fraction(1, m + 1 - i)
                residuals.append(lhs - inner * factor)
    return max_abs(*residuals)


def draw_distinct(rng, pool, k) -> list:
    """k distinct draws from ``pool``, in draw order."""
    pool, out = list(pool), []
    for _ in range(k):
        out.append(rng.choice(pool))
        pool.remove(out[-1])
    return out


def xxx_trace_commutes(cfg, rng, b):
    psym = UPoly.gen()
    residuals = []
    for nn in (1, 2, 3):
        for m in (1, 2, 3):
            big = nn + m
            for _ in range(4):
                k = rng.integer(1, big)
                l = rng.integer(1, big)
                rs = draw_distinct(rng, range(1, big + 1), k)
                ss_pool = [x for x in range(1, big + 1)
                           if x > nn or x not in rs]
                if len(ss_pool) < l:
                    continue
                ssel = draw_distinct(rng, ss_pool, l)
                X = rng.choice(all_permutations(k))
                Y = rng.choice(all_permutations(l))
                a = embed(GroupAlgebraElement.from_perm(X), rs, big)
                b = embed(GroupAlgebraElement.from_perm(Y), ssel, big)
                residuals.append(trace_map(a * b, nn, m, psym)
                                 - trace_map(b * a, nn, m, psym))
    return max_abs(*residuals)


def xxx_trace_dagger(cfg, rng, b):
    psym = UPoly.gen()
    residuals = []
    for nn in (2, 3):
        for k in (1, 2):
            for _ in range(5):
                X = GroupAlgebraElement.from_perm(
                    rng.choice(all_permutations(nn + k))
                )
                residuals.append(trace_map(X.dagger(), nn, k, psym)
                                 - trace_map(X, nn, k, psym).map_coeffs(
                                     GroupAlgebraElement.dagger))
    return max_abs(*residuals)


def xxx_ordered_products(cfg, rng, b):
    # the construction self-checks the value and the product
    return max_commutator(qkz_elements(xxx_params(cfg.z, cfg.hbar)))


def generating_t(b, params) -> UPoly:
    """``xxx.t_gen`` of the stored T_0..T_n of ``params`` at p = n."""
    return t_gen(params, [t_value(b, params, m, Fraction(params.n))
                          for m in range(params.n + 1)])


def xxx_generating_det(cfg, rng, b):
    params = xxx_params(cfg.z, cfg.hbar)
    return max_abs(generating_t(b, params)
                   - ga_lift(cfg.n, det_P_hbar(params, s_k_poly(params, 1))))


def xxx_commuting(cfg, rng, b):
    return max_commutator(list(b(xxx_table, cfg.n, cfg.z, cfg.hbar).values()))


def xxx_covariance(cfg, rng, b):
    n, z, hbar = cfg.n, cfg.z, cfg.hbar
    params = xxx_params(z, hbar)
    sc = rng.nonzero_rational(4, 2)
    sh = rng.rational(4, 2)
    residuals = []
    pscale = xxx_params(tuple(sc * x for x in z), sc * hbar)
    for m in T_ORDERS:
        base = t_value(b, params, m, Fraction(2))
        scaled = t_value(b, pscale, m, Fraction(2))
        # T(s*u; p; s*hbar; s*z) = s^n T(u; p; hbar; z)
        residuals.append(
            scaled.subst_linear(
                GroupAlgebraElement.scalar(n, sc),
                GroupAlgebraElement.scalar(n, Fraction(0)),
            ) - base * sc**n
        )
        pshift = xxx_params(tuple(x + sh for x in z), hbar)
        shifted = t_value(b, pshift, m, Fraction(2))
        residuals.append(shifted.shift_arg(sh) - base)
    return max_abs(*residuals)


# ---------------------------------------------------------------------------
# homogeneous suite


def homog_s1_cycles(cfg, rng, b):
    return max_abs(s1_homogeneous(cfg.n) - s_k_poly(homogeneous_params(cfg.n), 1))


def homog_generating_det(cfg, rng, b):
    n = cfg.n
    params = homogeneous_params(n)
    return max_abs(generating_t(b, params) - ga_lift(n, det_P_hat(n, s_k_poly(params, 1))))


def charge_k_max(n: int) -> int:
    """The last charge I_k that homog.charge-densities rebuilds at n: I_k
    exists for k <= n - 2, and its window density is built up to k = 3."""
    return min(n - 2, 3)


def homog_charge_densities(cfg, rng, b):
    n = cfg.n
    charges = local_charges(n)
    return max_abs(*(
        charge_from_density(n, k, local_density(k)) - charges[k - 1]
        for k in range(1, charge_k_max(n) + 1)
    ))


def homog_charge_shift_commute(cfg, rng, b):
    gam = ga_perm(gamma_perm(cfg.n))
    return max_abs(*(ik * gam - gam * ik for ik in local_charges(cfg.n)))


def homog_charges_generate(cfg, rng, b):
    n = cfg.n
    gens = [ga_perm(gamma_perm(n))] + local_charges(n)
    return span_of(n, gens).same_span(b(homogeneous_span, n))


def homog_well_defined(cfg, rng, b):
    n = cfg.n
    base = b(homogeneous_span, n)
    return all(
        span_of(n, t_m_table(homogeneous_params(n, hb, z1), Fraction(2),
                             range(1, n), range(1, n + 1)).values()).same_span(base)
        for (hb, z1) in ((Fraction(2), Fraction(0)), (Fraction(1), Fraction(5)))
    )


def homog_dagger_invariant(cfg, rng, b):
    # the dagger reverses products, so the daggers of the generators generate
    # an algebra of the same dimension as the span; that algebra is the span
    # exactly when it lies in it, that is when each dagger lies in it
    span = b(homogeneous_span, cfg.n)
    return all(span.contains(represent(g.dagger()))
               for g in homogeneous_generators(cfg.n))


# ---------------------------------------------------------------------------
# schur-weyl / yangian suite


def sw_trace_compat(cfg, rng, b):
    for N in (2, 3):
        for (nn, m) in ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (2, 3), (3, 2)):
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


def sw_diffop_image(cfg, rng, b):
    for (N, nn) in ((2, 2), (3, 2), (3, 3)):
        z = default_z(nn)
        table = gaudin_diffop_coeffs(N, nn, z)
        _, phis = phi_polys(nn, z)
        for key, phi in phis.items():
            if table[key] != varpi(phi, N):
                return False
    return True


def sw_faithful(cfg, rng, b):
    return all(
        rank([varpi_perm(p, N).flatten_rows() for p in all_permutations(nn)])
        == math.factorial(nn)
        for (N, nn) in ((2, 2), (3, 3))
    )


def sw_transfer_match(cfg, rng, b):
    N, nn = 2, 2
    z = (Fraction(0), Fraction(2))
    hb = Fraction(2)
    params = xxx_params(z, hb)
    Ph = scalar_root_poly(z).subst_linear(hb, Fraction(0))
    for m in (1, 2):
        # numer / Ph, numer the traced family at the rescaled argument, must
        # equal the transfer image P / Q
        tm = t_value(b, params, m, Fraction(N))
        numer = TensorOperator.zero(N, nn)
        for k, c in enumerate(tm.coeffs):
            numer += varpi(ga_lift(nn, c), N) * UPoly([0] * k + [hb**k])
        P, Q = yangian_transfer(N, nn, m, [x / hb for x in z])
        if numer * Q != P * Ph:
            return False
    return True


def sw_transfer_commute(cfg, rng, b):
    N, nn = 2, 2
    x = (Fraction(0), Fraction(2))
    T1 = yangian_transfer(N, nn, 1, x)
    T2 = yangian_transfer(N, nn, 2, x)
    for (u0, v0) in ((Fraction(7), Fraction(9)), (Fraction(1, 3), Fraction(11, 2))):
        for (TA, TB) in ((T1, T2), (T1, T1)):
            A, B = transfer_at(TA, u0), transfer_at(TB, v0)
            if A * B != B * A:
                return False
    return True


def sw_heisenberg(cfg, rng, b):
    N = 2
    for nn in (3, 4):
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


# ---------------------------------------------------------------------------
# spectra suite


def spectra_dimension_law(cfg, rng, b):
    n, z = cfg.n, cfg.z
    return all(b(certificate, n, gens, cfg.seed)["cyclic"] for gens in (
        tuple(b(gaudin_table, n, z).values()),
        tuple(b(xxx_table, n, z, cfg.hbar).values()),
        tuple(homogeneous_generators(n))))


def spectra_maximality(cfg, rng, b):
    """A cyclic element makes its algebra maximal commutative too, so the
    certificates of the dimension law prove maximality for the three
    families.  For the Gelfand-Zetlin algebra GZ the certificate is of the
    Jucys-Murphy elements: J_k is the transposition class sum of S_k minus
    that of S_(k-1), so alg(J) lies in GZ, and GZ is commutative.  A cyclic
    certificate gives alg(J) = C_B(x) for an x in alg(J), and C_B(x) holds
    GZ since x lies in GZ, so GZ = alg(J) and GZ is maximal commutative."""
    return (spectra_dimension_law(cfg, rng, b)
            and b(certificate, cfg.n, tuple(jm_elements(cfg.n)), cfg.seed)["cyclic"])


def spectra_coincidences(cfg, rng, b):
    # the triple family is symmetric in its first three symbols: s(1,2) and
    # s(2,3), which do not commute, commute with every generator, so the
    # commutant of that algebra is not commutative, and it is not the algebra
    zp = (Fraction(0), Fraction(0), Fraction(1), Fraction(3))
    zt = (Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    return (b(certificate, 4, tuple(phi_polys(4, zp)[1].values()), cfg.seed)["cyclic"]
            and all(s * g == g * s for s in (ga_transposition(4, 1, 2),
                                             ga_transposition(4, 2, 3))
                    for g in phi_polys(4, zt)[1].values()))


def spectra_simple_spectrum(cfg, rng, b):
    n = cfg.n
    zx = tuple(Fraction(3 - i) for i in range(n))
    return all(b(certificate, n, gens, cfg.seed)["squarefree"] for gens in (
        tuple(b(gaudin_table, n, cfg.z).values()),
        tuple(b(xxx_table, n, zx, Fraction(1, 2)).values()),
        tuple(homogeneous_generators(n))))


def _one_line_per_tableau(n: int, cert: dict, images: dict) -> bool:
    """A squarefree certified x of degree sum_la d_la has that many
    eigenlines, one per standard tableau; an image that commutes with x lies
    in C_B(x) = Q[x], so it is diagonal on them too."""
    x = cert["element"]
    return (cert["squarefree"] and cert["degree"] == sum_of_dims(n)
            and all(g * x == x * g for g in images.values()))


def spectra_eigen_count(cfg, rng, b):
    n, seed = cfg.n, cfg.seed
    gaudin = tuple(b(gaudin_table, n, cfg.z).values())
    return (_one_line_per_tableau(n, b(certificate, n, gaudin, seed), b(kz_images, n, cfg.z))
            and _one_line_per_tableau(n, b(certificate, n, tuple(homogeneous_generators(n)),
                                           seed), b(t_images, n)))


def block_residual(n: int, partitions, residuals) -> Fraction:
    """Largest coefficient of e_la r over the partitions la of n and the
    residuals r in ``residuals(la)`` of a relation family R at commuting
    elements H, e_la the central idempotent: R(H) e_la = 0 exactly when R
    holds at every joint eigenvalue tuple of block la, H being diagonalizable."""
    return max_abs(*(central_idempotent(la, n) * r
                     for la in partitions for r in residuals(la)))


def spectra_relations(cfg, rng, b):
    det = b(gaudin_presentation, cfg.n, cfg.z, "P")
    return block_residual(cfg.n, partitions_of(cfg.n), lambda la: relation_residuals(la, det))


def spectra_fiber_loop(cfg, rng, b):
    # On an eigenline of x, the operator of homogeneous_f at the joint
    # eigenvalues has a_0 = u^n and a_n = (-1)^n T_n(u), so the unit-shift
    # Casorati W of its kernel has W(u - 1) a_n(u) = (-1)^n a_0(u) W(u) (Abel):
    # with T_n(u) = (u + 1)^n, W(u) / (u + 1)^n is 1-periodic, a nonzero
    # constant.  The images commute with x, so on a block the kernel in degree
    # <= e is the sum of its k lines' kernels, each growing by at most one per
    # degree: the sum grows by k at each of the distinct degrees la_i + n - i
    # and by 0 elsewhere exactly when every line has one kernel polynomial of
    # each.
    n = cfg.n
    cert = b(certificate, n, tuple(homogeneous_generators(n)), cfg.seed)
    if not cert["squarefree"]:
        raise ValueError("simple spectrum not certified for this seed")
    table = b(t_table, n)
    if not (_one_line_per_tableau(n, cert, b(t_images, n))
            and all(table[(n, i)] == math.comb(n, i) for i in range(n + 1))):
        return False
    f = homogeneous_f(n, table)
    # the images of u^d for d <= la_1 + n - 1 on every block
    images = [[represent(ga_lift(n, c))
               for c in sp.annihilate(f, UPoly([0] * d + [1])).coeffs]
              for d in range(2 * n)]
    for bi, (la, k) in enumerate(block_shapes(n)):
        degrees = [part + n - i for i, part in enumerate(partition_parts(la, n), start=1)]
        if sorted(sp.kernel_degrees(images[:degrees[0] + 1], bi, k)) != sorted(degrees * k):
            return False
    return True


def spectra_cyclic_vectors(cfg, rng, b):
    # the invariant of block la has degree sum_i (i - 1) la_i
    return all(
        max((sum(e) for c in sp.cyclic_vector(la, cfg.z, "classic")[0] for e in c.terms),
            default=0) == sum((i - 1) * part for i, part in enumerate(la, start=1))
        for la in partitions_of(cfg.n))


def spectra_deformed_action(cfg, rng, b):
    n = cfg.n

    def act(q, *indices):
        for i in indices:
            q = sp.symmetric_action_on_poly(q, i, Fraction(1, 2))
        return q

    residuals = []
    for _ in range(4):
        q = MultiPoly(
            n,
            {
                tuple(rng.integer(0, 2) for _ in range(n)): rng.rational(5, 2)
                for _ in range(3)
            },
        )
        residuals += [act(q, i, i) - q for i in range(n - 1)]
        residuals += [act(q, i, i + 1, i) - act(q, i + 1, i, i + 1)
                      for i in range(n - 2)]
    return max_abs(*residuals)


def contracts(spans, target) -> bool:
    """The exact chordal distances of the spans to ``target`` fall
    strictly."""
    dists = [sp.chordal_distance(span, target) for span in spans]
    return all(a > b for a, b in zip(dists, dists[1:]))


STEEP = (Fraction(100), Fraction(10000), Fraction(1000000))


def spectra_trend_rational(cfg, rng, b):
    n = cfg.n
    return contracts((b(gaudin_span, n, tuple(sv**k for k in range(n))) for sv in STEEP),
                     b(gz_span, n))


def spectra_trend_shifted(cfg, rng, b):
    n = cfg.n
    return contracts(
        (b(xxx_span, n, tuple(sv**k for k in range(n)), Fraction(1)) for sv in STEEP),
        b(gz_span, n))


def spectra_trend_hbar(cfg, rng, b):
    return contracts(
        (b(xxx_span, cfg.n, cfg.z, hb) for hb in (Fraction(1), Fraction(1, 10),
                                               Fraction(1, 100))),
        b(gaudin_span, cfg.n, cfg.z))


# ---------------------------------------------------------------------------
# conjecture probes


def probe_params(cfg) -> dict:
    return {"n": cfg.n, **({} if cfg.lam is None else {"lambda": list(cfg.lam)})}


def kept_partitions(cfg) -> list:
    """The partitions of n that the probes read: all, or --lambda's alone."""
    return [la for la in partitions_of(cfg.n) if cfg.lam is None or la == cfg.lam]


def conjecture_shifted_relations(cfg, rng, b):
    # the presentation reads H_1 only as z_1 H_1, so at the default z (z_1 = 0)
    # it cannot see H_1: the probe proves the relations for the given z
    det = b(gaudin_presentation, cfg.n, cfg.z, "Ptilde")
    return block_residual(cfg.n, kept_partitions(cfg), shifted_relation_reader(cfg.n, det))


def conjecture_deformed_relations(cfg, rng, b):
    params = xxx_params(cfg.z)
    # the presentation at the first-order polynomial, in powers of u and w = v - 1
    det = det_P_hbar(params, s_k_poly(params, 1)).map_coeffs(lambda c: c.shift_arg(1))
    return block_residual(cfg.n, kept_partitions(cfg), lambda la: relation_residuals(la, det))


# ---------------------------------------------------------------------------
# the claim table: per suite, in the order the checks run (which fixes each
# check's share of the suite's seeded stream)


SUITES = {
    "identities-gaudin": (
        Claim("gaudin.commuting", "pairwise commutativity of the rational family",
              gaudin_commuting, lambda cfg: {"n": cfg.n, "z": [str(x) for x in cfg.z]}),
        Claim("gaudin.generating-det",
              "generating function equals the first determinant presentation",
              gaudin_generating_det, requires=(n_range(2, 4), DISTINCT_Z)),
        Claim("gaudin.shifted-det",
              "shifted generating function equals the second presentation",
              gaudin_shifted_det, requires=(n_range(2, 4), DISTINCT_Z)),
        Claim("gaudin.content-det",
              "parameter-free determinant equals the content product",
              gaudin_content_det, requires=(n_range(2, 4), DISTINCT_Z)),
        Claim("gaudin.dagger-fixed", "generators fixed by both antiinvolutions",
              gaudin_dagger_fixed),
        Claim("gaudin.covariance", "scaling and shift covariance of the family",
              gaudin_covariance),
        Claim("gaudin.equivariance", "conjugation permutes the parameters",
              gaudin_equivariance),
        Claim("gaudin.fixed-points", "fixed-point expansion of the generating function",
              gaudin_fixed_points),
        Claim("gaudin.center-poly", "top coefficients expand the central idempotents",
              gaudin_center_poly),
        Claim("gaudin.content-jm", "content product equals both closed forms",
              gaudin_content_jm),
        Claim("gaudin.shifted-edges", "edge coefficients of the shifted function",
              gaudin_shifted_edges),
    ),
    "identities-xxx": (
        Claim("xxx.binomial-transform", "trace family from the p-free family, symbolic p",
              xxx_binomial_transform, orders_params(TRANSFORM_ORDERS)),
        Claim("xxx.inverse-transform", "p-free family from the trace family, symbolic p",
              xxx_inverse_transform, orders_params(TRANSFORM_ORDERS)),
        Claim("xxx.saturation", "trace family saturates at integer p", xxx_saturation),
        Claim("xxx.saturation-next",
              "the next trace polynomial saturates at p = n + 1 and vanishes at p = n",
              xxx_saturation_next, lambda cfg: {"n": cfg.n, "m": cfg.n + 1},
              requires=(n_range(hi=5),)),
        Claim("xxx.sum-rule", "the p-free family sums to the shifted root product",
              xxx_sum_rule),
        Claim("xxx.telescoping", "antisymmetrizer telescoping identity",
              xxx_telescoping, lambda cfg: {"hbar": str(cfg.hbar)}),
        Claim("xxx.cycle-shift", "long-cycle conjugation rotates the parameters",
              xxx_cycle_shift, orders_params(T_ORDERS)),
        Claim("xxx.swap-intertwiner", "adjacent swap intertwines neighbouring parameters",
              xxx_swap_intertwiner, orders_params(T_ORDERS)),
        Claim("xxx.reversal", "order reversal exchanges the family with its mirror",
              xxx_reversal, lambda cfg: {"n": cfg.n, "N": cfg.n},
              requires=(n_range(hi=3),)),
        Claim("xxx.dagger-reversal", "antiinvolution image of the trace family",
              xxx_dagger_reversal, lambda cfg: {"n": cfg.n, "N": cfg.n},
              requires=(n_range(hi=3),)),
        Claim("xxx.p-independence", "the unital generator span does not depend on p",
              xxx_p_independence, lambda cfg: {"n": cfg.n, "p": [1, 2, 17]}),
        Claim("xxx.binomial-trace", "traced antisymmetrizers give binomial coefficients",
              xxx_binomial_trace, lambda cfg: {"m_max": 4}),
        Claim("xxx.trace-example", "worked cycle-deletion example",
              xxx_trace_example, lambda cfg: {}),
        Claim("xxx.trace-reduction", "nested antisymmetrizer traces collapse",
              xxx_trace_reduction, lambda cfg: {"n_max": 2, "m_max": 4}),
        Claim("xxx.trace-commutes",
              "trace is symmetric for collections overlapping only above n",
              xxx_trace_commutes, lambda cfg: {"n_max": 3, "m_max": 3}),
        Claim("xxx.trace-dagger", "trace commutes with the antiinvolution",
              xxx_trace_dagger, lambda cfg: {}),
        Claim("xxx.ordered-products",
              "ordered-product family: value, product, commutativity",
              xxx_ordered_products,
              lambda cfg: {"n": cfg.n,
                           "invertible": xxx_params(cfg.z, cfg.hbar).hbar_separated}),
        Claim("xxx.generating-det",
              "generating polynomial equals the shifted-Cauchy determinant",
              xxx_generating_det,
              requires=(n_range(hi=5), DISTINCT_Z, HBAR_SEPARATED)),
        Claim("xxx.commuting", "pairwise commutativity of the trace family",
              xxx_commuting),
        Claim("xxx.covariance", "simultaneous scaling and shift covariance",
              xxx_covariance, orders_params(T_ORDERS)),
    ),
    "homogeneous": (
        Claim("homog.s1-cycles", "first-order polynomial from increasing-cycle sums",
              homog_s1_cycles),
        Claim("homog.generating-det",
              "generating polynomial equals the Taylor-coefficient determinant",
              homog_generating_det, requires=(n_range(hi=5),)),
        Claim("homog.charge-densities",
              "window densities rebuild the charges as cyclic sums",
              homog_charge_densities,
              lambda cfg: {"n": cfg.n, "k_max": charge_k_max(cfg.n)},
              requires=(n_range(3),)),
        Claim("homog.charge-shift-commute", "charges commute with the long cycle",
              homog_charge_shift_commute, requires=(n_range(3),)),
        Claim("homog.charges-generate",
              "long cycle and charges generate the same algebra",
              homog_charges_generate, requires=(n_range(3),)),
        Claim("homog.well-defined",
              "coincident-parameter families agree for different scales and centers",
              homog_well_defined),
        Claim("homog.dagger-invariant", "the homogeneous span is antiinvolution-stable",
              homog_dagger_invariant),
    ),
    "schur-weyl": (
        Claim("sw.trace-compat", "partial trace matches the cycle-deletion trace",
              sw_trace_compat, lambda cfg: {"N": [2, 3]}),
        Claim("sw.diffop-image", "generator images equal the differential-operator table",
              sw_diffop_image, lambda cfg: {"pairs": "(2,2),(3,2),(3,3)"}),
        Claim("sw.faithful", "the tensor action is faithful for N >= n",
              sw_faithful, lambda cfg: {}),
        Claim("sw.transfer-match",
              "traced family maps onto the evaluation transfer matrices",
              sw_transfer_match, lambda cfg: {"N": 2, "n": 2, "m": [1, 2]}),
        Claim("sw.transfer-commute", "transfer matrices commute at sample points",
              sw_transfer_commute, lambda cfg: {"N": 2, "n": 2}),
        Claim("sw.heisenberg", "first charge maps to the nearest-neighbour exchange sum",
              sw_heisenberg, lambda cfg: {"N": 2, "n": [3, 4]}),
    ),
    # the rational family keeps the dimension law, maximality and simple
    # spectrum while parameters coincide at most in pairs (spectra.coincidences)
    "spectra": (
        Claim("spectra.dimension-law", "all three spans have the standard dimension",
              spectra_dimension_law,
              lambda cfg: {"n": cfg.n, "expect": sum_of_dims(cfg.n)},
              requires=(AT_MOST_PAIRS_Z,)),
        Claim("spectra.maximality", "each family is its own commutant",
              spectra_maximality, requires=(AT_MOST_PAIRS_Z,)),
        Claim("spectra.coincidences",
              "maximality survives a pair but fails on a triple, at n = 4 with fixed parameters",
              spectra_coincidences, lambda cfg: {"n": 4}, requires=(n_range(4),)),
        Claim("spectra.simple-spectrum", "random combinations have squarefree charpoly",
              spectra_simple_spectrum, lambda cfg: {"n": cfg.n, "seed": cfg.seed},
              requires=(AT_MOST_PAIRS_Z,)),
        Claim("spectra.eigen-count", "one joint eigenvector per standard tableau",
              spectra_eigen_count, requires=(DISTINCT_Z,)),
        Claim("spectra.relations", "eigenvalue data satisfies the scalar relations",
              spectra_relations, requires=(n_range(hi=6), DISTINCT_Z)),
        Claim("spectra.fiber-loop",
              "eigen data reconstructs polynomial subspaces with the right shape",
              spectra_fiber_loop, requires=(n_range(3, 5),)),
        Claim("spectra.cyclic-vectors", "minimal-degree invariants exist and are unique",
              spectra_cyclic_vectors, requires=(n_range(hi=4),)),
        Claim("spectra.deformed-action", "the divided-difference deformation is an action",
              spectra_deformed_action),
        Claim("spectra.trend-rational", "steep parameters contract to the tower span",
              spectra_trend_rational, requires=(n_range(3, 4),)),
        Claim("spectra.trend-shifted", "the deformed family contracts likewise",
              spectra_trend_shifted, requires=(n_range(3, 4),)),
        Claim("spectra.trend-hbar", "small deformation contracts to the rational family",
              spectra_trend_hbar, requires=(n_range(3, 4), AT_MOST_PAIRS_Z)),
    ),
    "conjectures": (
        Claim("conjecture.shifted-relations",
              "eigen data satisfies the shifted scalar relations",
              conjecture_shifted_relations, probe_params,
              requires=(n_range(hi=5), DISTINCT_Z), conjecture=True),
        Claim("conjecture.deformed-relations",
              "eigen data satisfies the deformed scalar relations",
              conjecture_deformed_relations, probe_params,
              requires=(n_range(hi=5), DISTINCT_Z, SEPARATED_AT_ONE), conjecture=True),
    ),
}


def run_suite(cfg) -> VerificationReport:
    report = VerificationReport(
        suite=cfg.suite,
        config={
            "n": cfg.n,
            "z": [format_rational(x) for x in cfg.z],
            "hbar": format_rational(cfg.hbar),
            "seed": cfg.seed,
        },
    )
    s, b = Suite(report), Builds()
    for name, claims in SUITES.items():
        if cfg.suite in ("all", name):
            run_claims(s, cfg, claims, b)
    return report
