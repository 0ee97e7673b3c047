"""Exact coefficient substrate: rationals, dense polynomials in one or two
variables, truncated power series, and a seeded randomness source.

Every ring element used by the library (Fraction, UPoly, BiPoly, group-algebra
elements) supports +, -, *, == and truthiness (bool(x) is False iff x == 0),
so the polynomial code below is ring-generic.  All arithmetic is exact; floats
enter only through the spectral pipeline, which reuses the same classes with
float coefficients but never relies on canonical trimming there.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from numbers import Number


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _int_scaled(values):
    """(d, [c*d for c in values]) with d the lcm of the values' denominators.

    The exact kernels (group-algebra numerator form, block-matrix product,
    span echelon) run on these integer numerators.  Every value must be an int or
    a Fraction; anything else raises TypeError.
    """
    values = list(values)
    try:
        dens = [c.denominator for c in values]
    except AttributeError:
        raise TypeError(
            "integer scaling needs int or Fraction values, got "
            + ", ".join(sorted({type(c).__name__ for c in values}))
        ) from None
    d = math.lcm(*dens)
    return d, [c.numerator * (d // e) for c, e in zip(values, dens)]


def _dot_hook(*samples):
    """The ``dot`` (sum of products over pairs) of the first sample whose
    type has one, else None; the polynomial products sum each output slot
    with it."""
    for c in samples:
        dot = getattr(c, "dot", None)
        if dot is not None:
            return dot
    return None


def _sum_of_products(pairs):
    """a*b added left to right over the pairs: an output slot of a
    polynomial product whose coefficients have no ``dot``."""
    acc = None
    for a, b in pairs:
        t = a * b
        acc = t if acc is None else acc + t
    return acc


def ring_one(sample):
    """Multiplicative unit of the ring that `sample` lives in."""
    if isinstance(sample, Number):
        return Fraction(1) if isinstance(sample, Fraction) else type(sample)(1)
    one = getattr(sample, "ring_one", None)
    if one is None:
        raise TypeError(f"no unit known for {type(sample).__name__}")
    return one()


class UPoly:
    """Dense polynomial in one variable, lowest degree first.

    Coefficients live in any commutative ring; trailing zero coefficients are
    stripped so equal polynomials compare equal.  The zero polynomial has the
    sentinel degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = cs

    @classmethod
    def gen(cls) -> "UPoly":
        """The variable itself, over the rationals."""
        return cls([Fraction(0), Fraction(1)])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def coeff(self, k: int):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        if isinstance(other, UPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, Number):
            if not self.coeffs:
                return other == 0
            return len(self.coeffs) == 1 and self.coeffs[0] == other
        return NotImplemented

    def __neg__(self) -> "UPoly":
        return UPoly([-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, UPoly):
            a, b = self.coeffs, other.coeffs
            if len(a) < len(b):
                a, b = b, a
            out = list(a)
            for i, c in enumerate(b):
                out[i] = out[i] + c
            return UPoly(out)
        if not self.coeffs:
            return UPoly([other])
        out = list(self.coeffs)
        out[0] = out[0] + other
        return UPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, UPoly):
            if not self.coeffs or not other.coeffs:
                return UPoly()
            slots = [[] for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        if b:
                            slots[i + j].append((a, b))
            total = _dot_hook(self.coeffs[-1], other.coeffs[-1]) or _sum_of_products
            return UPoly([total(pairs) if pairs else 0 for pairs in slots])
        return UPoly([c * other for c in self.coeffs])

    def __rmul__(self, other):
        return UPoly([other * c for c in self.coeffs])

    def __pow__(self, e: int) -> "UPoly":
        if e < 0:
            raise ValueError("negative power")
        result = None
        base = self
        while True:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if not e:
                break
            base = base * base
        if result is None:
            return UPoly([Fraction(1)])
        return result

    def eval_at(self, x):
        """Horner evaluation; x may live in any ring containing the coefficients."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def subst_linear(self, a, b) -> "UPoly":
        """f(u) -> f(a*u + b), exact."""
        lin = UPoly([b, a])
        acc = UPoly()
        for c in reversed(self.coeffs):
            acc = acc * lin + UPoly([c])
        return acc

    def shift_arg(self, c) -> "UPoly":
        """f(u) -> f(u + c)."""
        return self.subst_linear(1, c)

    def deriv(self) -> "UPoly":
        return UPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def map_coeffs(self, f) -> "UPoly":
        return UPoly([f(c) for c in self.coeffs])

    def to_json(self):
        out = []
        for c in self.coeffs:
            if isinstance(c, Fraction):
                out.append(format_rational(c))
            elif hasattr(c, "to_json"):
                out.append(c.to_json())
            else:
                out.append(c)
        return out

    def __repr__(self):
        return f"UPoly({self.coeffs!r})"


def scalar_root_poly(roots) -> UPoly:
    """prod (u - r) over the roots, in order: monic, with a Fraction leading
    coefficient, so ``poly_divmod`` divides by it exactly.  Pass Fraction
    roots so that every coefficient is a Fraction (``to_json`` writes ints
    and Fractions differently)."""
    poly = UPoly([Fraction(1)])
    for r in roots:
        poly = poly * UPoly([-r, Fraction(1)])
    return poly


def poly_divmod(f: UPoly, g: UPoly):
    """Division with remainder.  The leading coefficient of g must be an
    invertible scalar (Fraction or float); the coefficients of f may live in
    any ring on which that scalar acts.

    Each output coefficient is a combination of f's coefficients with scalar
    weights.  When f's coefficients have a ``dot`` hook, the division runs
    on the weights (f_k read as t^k) and each output is one ``dot``: the
    same values, though where coefficients mix int and Fraction terms an
    output term's type, which follows the order of the additions, can
    differ from the step-by-step division's.  The weights depend only on
    len(f.coeffs) and g, so ``_division_weights`` computes them once per
    such pair."""
    if not g.coeffs:
        raise ZeroDivisionError("polynomial division by zero")
    lead = g.lead()
    if not isinstance(lead, Number):
        raise ValueError("divisor must have scalar leading coefficient")
    dot = _dot_hook(f.coeffs[-1]) if f.coeffs else None
    if dot is not None:
        def combine(weights):
            pairs = [(c, w) for c, w in zip(f.coeffs, weights.coeffs) if c and w]
            return dot(pairs) if pairs else 0

        divisor = tuple(g.coeffs)
        return tuple(UPoly([combine(w) if w else 0 for w in part.coeffs])
                     for part in _division_weights(len(f.coeffs), divisor,
                                                   tuple(map(type, divisor))))
    inv = Fraction(1) / lead if isinstance(lead, Fraction) else 1.0 / lead
    rem = list(f.coeffs)
    dg = g.degree
    qcoeffs = [0] * max(len(rem) - dg, 0)
    for k in range(len(rem) - dg - 1, -1, -1):
        c = rem[k + dg]
        if not c:
            continue
        q = c * inv
        qcoeffs[k] = q
        for i, gc in enumerate(g.coeffs):
            rem[k + i] = rem[k + i] - q * gc
    return UPoly(qcoeffs), UPoly(rem[:dg])


@lru_cache(maxsize=None)
def _division_weights(size: int, divisor: tuple, types: tuple):
    """(quotient, remainder) of sum_k t^k u^k, k < size, by the polynomial
    of the coefficients ``divisor``: the weights of ``poly_divmod``'s dot
    path, shared, so callers must not mutate them.  ``types`` keys the
    cache by coefficient type too, since 1 == 1.0 == Fraction(1)."""
    units = UPoly([UPoly([0] * k + [1]) for k in range(size)])
    return poly_divmod(units, UPoly(divisor))


def poly_gcd(f: UPoly, g: UPoly) -> UPoly:
    """Monic gcd over a field (Fraction coefficients)."""
    a, b = f, g
    while b.coeffs:
        a, b = b, poly_divmod(a, b)[1]
    if a.coeffs:
        inv = Fraction(1) / a.lead()
        a = a * inv
    return a


def _series_trim(coeffs, order):
    return list(coeffs[: order + 1]) + [0] * max(0, order + 1 - len(coeffs))


def series_mul(a, b, order):
    out = [0] * (order + 1)
    for i, x in enumerate(a[: order + 1]):
        if not x:
            continue
        for j, y in enumerate(b[: order + 1 - i]):
            if not y:
                continue
            out[i + j] = out[i + j] + x * y
    return out


def series_log(f: UPoly, order: int) -> UPoly:
    """log f as a truncated series; the constant term of f must be the unit."""
    if not f.coeffs:
        raise ValueError("log of zero")
    one = ring_one(f.coeffs[0])
    if not (f.coeffs[0] == one):
        raise ValueError("log needs unit constant term")
    g = _series_trim(f.coeffs, order)
    g[0] = g[0] - one
    acc = [0] * (order + 1)
    power = [one] + [0] * order
    for k in range(1, order + 1):
        power = series_mul(power, g, order)
        c = Fraction((-1) ** (k + 1), k)
        for i in range(order + 1):
            if power[i]:
                acc[i] = acc[i] + c * power[i]
    return UPoly(acc)


def series_exp(f: UPoly, order: int) -> UPoly:
    """exp f as a truncated series; the constant term of f must vanish."""
    if f.coeffs and f.coeffs[0]:
        raise ValueError("exp needs zero constant term")
    g = _series_trim(f.coeffs, order)
    sample = next((c for c in g if c), None)
    one = Fraction(1) if sample is None else ring_one(sample)
    acc = [one] + [0] * order
    power = [one] + [0] * order
    fact = 1
    for k in range(1, order + 1):
        power = series_mul(power, g, order)
        fact *= k
        c = Fraction(1, fact)
        for i in range(order + 1):
            if power[i]:
                acc[i] = acc[i] + c * power[i]
    return UPoly(acc)


def series_inverse(f: UPoly, order: int) -> UPoly:
    """1/f as a truncated series; the constant term must be an invertible scalar."""
    if not f.coeffs or not f.coeffs[0]:
        raise ValueError("inverse needs invertible constant term")
    c0 = f.coeffs[0]
    if not isinstance(c0, Number):
        raise ValueError("inverse implemented for scalar constant terms")
    inv0 = Fraction(1) / c0 if isinstance(c0, Fraction) else 1.0 / c0
    g = _series_trim(f.coeffs, order)
    out = [inv0] + [0] * order
    for k in range(1, order + 1):
        s = 0
        for j in range(1, k + 1):
            if g[j]:
                s = s + g[j] * out[k - j]
        out[k] = -inv0 * s
    return UPoly(out)


class BiPoly:
    """Dense polynomial in two variables u, v; rows[i][j] is the coefficient
    of u^i v^j.  Canonical form trims outer all-zero rows and columns."""

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        rs = [list(r) for r in rows]
        while rs and all(not c for c in rs[-1]):
            rs.pop()
        width = 0
        for r in rs:
            w = len(r)
            while w and not r[w - 1]:
                w -= 1
            width = max(width, w)
        self.rows = [r[:width] + [0] * (width - len(r[:width])) for r in rs]

    @classmethod
    def const(cls, c) -> "BiPoly":
        return cls([[c]])

    @classmethod
    def from_upoly_u(cls, p: UPoly) -> "BiPoly":
        return cls([[c] for c in p.coeffs])

    @classmethod
    def from_upoly_v(cls, p: UPoly) -> "BiPoly":
        return cls([list(p.coeffs)])

    @property
    def deg_u(self) -> int:
        return len(self.rows) - 1

    @property
    def deg_v(self) -> int:
        return (len(self.rows[0]) - 1) if self.rows else -1

    def coeff(self, i: int, j: int):
        if 0 <= i < len(self.rows) and 0 <= j < len(self.rows[i]):
            return self.rows[i][j]
        return 0

    def u_coeff(self, i: int) -> UPoly:
        """Coefficient of u^i, as a polynomial in v."""
        if 0 <= i < len(self.rows):
            return UPoly(self.rows[i])
        return UPoly()

    def v_coeff(self, j: int) -> UPoly:
        """Coefficient of v^j, as a polynomial in u."""
        return UPoly([self.coeff(i, j) for i in range(len(self.rows))])

    def __bool__(self):
        return bool(self.rows)

    def __eq__(self, other):
        if isinstance(other, BiPoly):
            a, b = self.rows, other.rows
            if len(a) != len(b):
                return False
            for ra, rb in zip(a, b):
                if len(ra) != len(rb):
                    return False
                for x, y in zip(ra, rb):
                    if not (x == y):
                        return False
            return True
        return NotImplemented

    def __neg__(self):
        return BiPoly([[-c for c in r] for r in self.rows])

    def __add__(self, other):
        if not isinstance(other, BiPoly):
            other = BiPoly.const(other)
        nr = max(len(self.rows), len(other.rows))
        nc = max(self.deg_v + 1, other.deg_v + 1, 0)
        rows = [[0] * nc for _ in range(nr)]
        for src in (self, other):
            for i, r in enumerate(src.rows):
                for j, c in enumerate(r):
                    if c:
                        rows[i][j] = rows[i][j] + c
        return BiPoly(rows)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, BiPoly):
            other = BiPoly.const(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, BiPoly):
            if not self.rows or not other.rows:
                return BiPoly()
            nr = len(self.rows) + len(other.rows) - 1
            nc = self.deg_v + other.deg_v + 1
            slots = [[[] for _ in range(nc)] for _ in range(nr)]
            for i, ra in enumerate(self.rows):
                for j, a in enumerate(ra):
                    if a:
                        for k, rb in enumerate(other.rows):
                            out = slots[i + k]
                            for l, b in enumerate(rb):
                                if b:
                                    out[j + l].append((a, b))
            # the last row of a nonzero BiPoly has a nonzero entry
            total = _dot_hook(next(filter(None, self.rows[-1])),
                              next(filter(None, other.rows[-1]))) or _sum_of_products
            return BiPoly([[total(pairs) if pairs else 0 for pairs in r] for r in slots])
        return BiPoly([[c * other for c in r] for r in self.rows])

    def __rmul__(self, other):
        return BiPoly([[other * c for c in r] for r in self.rows])

    def __pow__(self, e: int) -> "BiPoly":
        if e < 0:
            raise ValueError("negative power")
        result = BiPoly.const(Fraction(1))
        for _ in range(e):
            result = result * self
        return result

    def map_coeffs(self, f) -> "BiPoly":
        return BiPoly([[f(c) for c in r] for r in self.rows])

    def subst_v_shift(self, c) -> "BiPoly":
        """P(u, v) -> P(u, v + c)."""
        return BiPoly([UPoly(r).shift_arg(c).coeffs for r in self.rows])

    def __repr__(self):
        return f"BiPoly({self.rows!r})"


class MultiPoly:
    """Sparse polynomial in several variables: dict exponent-tuple -> coeff.

    Used for truncated multivariable expansions (total degree bounded) and for
    exact symmetric-group actions on polynomial rings.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                if c:
                    self.terms[tuple(e)] = c

    @classmethod
    def const(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i, c=Fraction(1)):
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): c})

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.nvars, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, MultiPoly):
            other = MultiPoly.const(self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            out = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    p = c1 * c2
                    s = out.get(e, 0) + p
                    if s:
                        out[e] = s
                    else:
                        out.pop(e, None)
            return MultiPoly(self.nvars, out)
        return MultiPoly(self.nvars, {e: c * other for e, c in self.terms.items()})

    def __rmul__(self, other):
        return MultiPoly(self.nvars, {e: other * c for e, c in self.terms.items()})

    def mul_trunc(self, other: "MultiPoly", bound: int) -> "MultiPoly":
        out = {}
        for e1, c1 in self.terms.items():
            d1 = sum(e1)
            if d1 > bound:
                continue
            for e2, c2 in other.terms.items():
                if d1 + sum(e2) > bound:
                    continue
                e = tuple(a + b for a, b in zip(e1, e2))
                p = c1 * c2
                s = out.get(e, 0) + p
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return MultiPoly(self.nvars, out)

    def coeff(self, exps):
        return self.terms.get(tuple(exps), 0)


class SeededRandom:
    """Deterministic stream of small rationals and integers (splitmix64).

    Identical seed  =>  identical stream, across platforms and Python versions.
    """

    __slots__ = ("state",)

    MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self.MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def integer(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi]."""
        return lo + self.next_u64() % (hi - lo + 1)

    def rational(self, num_bound: int = 9, den_bound: int = 4) -> Fraction:
        num = self.integer(-num_bound, num_bound)
        den = self.integer(1, den_bound)
        return Fraction(num, den)

    def nonzero_rational(self, num_bound: int = 9, den_bound: int = 4) -> Fraction:
        while True:
            q = self.rational(num_bound, den_bound)
            if q:
                return q

    def choice(self, seq):
        return seq[self.next_u64() % len(seq)]


def falling_binomial(p, m: int):
    """binomial(p, m) = p(p-1)...(p-m+1)/m! for numeric or polynomial p."""
    acc = None
    for i in range(m):
        f = p - i
        acc = f if acc is None else acc * f
    if acc is None:
        return Fraction(1)
    return acc * Fraction(1, math.factorial(m))
