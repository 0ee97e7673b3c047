"""Exact coefficient substrate: rationals, dense polynomials, truncated power
series, sparse multivariable polynomials and a seeded randomness source.

A truncated power series is a ``UPoly``.  ``mul_trunc(other, order)``, on
``UPoly`` and on ``MultiPoly``, forms a product with no term above the order
(the degree in u, or the total degree), and ``log1p`` is the one logarithm,
written once for both classes.

Every ring element used by the library (Fraction, UPoly, group-algebra
elements) supports +, -, *, == and truthiness (bool(x) is False iff x == 0),
so the polynomial code below is ring-generic.  All arithmetic is exact; floats
enter only through the spectral pipeline, which reuses the same classes with
float coefficients but never relies on canonical trimming there.

``UPoly`` is the one dense polynomial class.  A polynomial in u and v is a
UPoly in u whose every coefficient is a UPoly in v, so the coefficient of
u^i v^j is ``P.coeff(i).coeff(j)`` for i up to the u-degree; a constant c is
``UPoly([UPoly([c])])``.  Invariant: every coefficient of such a polynomial,
a zero one included, is a UPoly; were a bare ring element among them, the
group-algebra ``dot`` would receive a UPoly factor and raise.  Products,
quotients, ``map_coeffs`` into UPolys and ``ga_lift`` keep it, since an empty
product or quotient slot over polynomials is ``UPoly()``.  A scalar
polynomial such as ``P ** 0`` (``UPoly([Fraction(1)])``) is not of this form,
but ``UPoly.dot`` reads a scalar factor c as ``UPoly([c])``, so its product
with P is.

``UPoly.dot`` forms a sum of products of polynomial pairs in one pass, with
one coefficient ``dot`` per output slot (``_dot_hook`` finds it), and a
product is ``dot`` on one pair.  For polynomials over polynomials over the
group algebra each u^i v^j coefficient of a product is one group-algebra
``dot``, its term pairs in lexicographic (i, j) order of the left factor.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Number


def format_rational(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _int_scaled(values):
    """(d, [c*d for c in values]) with d the lcm of the values' denominators.

    The exact kernels (group-algebra numerator form, seminormal generator
    steps, span echelon) run on these integer numerators.  Every value must
    be an int or a Fraction; anything else raises TypeError.
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


def _dot_hook(samples):
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


def _empty_slot(total):
    """An output slot with no pairs, or a quotient slot that no division
    step reaches, when the slots are summed by ``total``: ``UPoly()`` for
    ``UPoly.dot``, so that a polynomial over polynomials has only polynomial
    coefficients, else 0."""
    return UPoly() if total is UPoly.dot else 0


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
        # any other ring element is the constant polynomial, so a nested
        # constant equals one whose inner polynomial was read as a scalar
        if not self.coeffs:
            return other == 0
        return len(self.coeffs) == 1 and self.coeffs[0] == other

    def __neg__(self) -> "UPoly":
        return UPoly([-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, UPoly):
            a, b = self.coeffs, other.coeffs
            return UPoly([x + y for x, y in zip(a, b)] + a[len(b):] + b[len(a):])
        if not self.coeffs:
            return UPoly([other])
        out = list(self.coeffs)
        out[0] = out[0] + other
        return UPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    @staticmethod
    def dot(pairs, order=None) -> "UPoly":
        """Sum of a*b over pairs (a, b) of polynomials, a scalar factor c read
        as UPoly([c]), in one pass: output coefficient k is one sum of the
        coefficient products a_i * b_j with i + j = k, in pair order and then
        i order, formed by the ``dot`` of the first coefficient that has one
        (see the module docstring).  With an ``order``, no product above
        u^order is formed."""
        slots, samples = [], []
        for a, b in pairs:
            a = a.coeffs if isinstance(a, UPoly) else [a]
            b = b.coeffs if isinstance(b, UPoly) else [b]
            samples += a
            samples += b
            if order is not None:
                a, b = a[:order + 1], b[:order + 1]
            slots += [[] for _ in range(len(a) + len(b) - 1 - len(slots))]
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b if order is None else b[:order + 1 - i]):
                        if y:
                            slots[i + j].append((x, y))
        total = _dot_hook(samples) or _sum_of_products
        zero = _empty_slot(total)
        return UPoly([total(s) if s else zero for s in slots])

    def __mul__(self, other):
        if isinstance(other, UPoly):
            return UPoly.dot(((self, other),))
        return UPoly([c * other for c in self.coeffs])

    def __rmul__(self, other):
        return UPoly([other * c for c in self.coeffs])

    def mul_trunc(self, other: "UPoly", order: int) -> "UPoly":
        """The product with every term above u^order dropped, never formed."""
        return UPoly.dot(((self, other),), order)

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


def scalar_root_poly(roots, prefix=None) -> UPoly:
    """prod (u - r) over the roots, in order: monic, with a Fraction leading
    coefficient, so ``poly_divmod`` divides by it exactly.  Pass Fraction
    roots so that every coefficient is a Fraction (``to_json`` writes ints
    and Fractions differently).  ``prefix``, the ``scalar_root_poly`` of
    earlier roots, is continued: ``scalar_root_poly(b, scalar_root_poly(a))``
    equals ``scalar_root_poly(a + b)``, coefficient types included.

    Each factor is one coefficient recurrence, the product with u - r as
    ``UPoly.dot`` forms it: slot k is c_(k-1) plus c_k * (-r), a term with a
    zero factor left out, and the int 0 where both are."""
    cs = [Fraction(1)] if prefix is None else prefix.coeffs
    for r in roots:
        cs = [(prev or 0) + (c * -r if c and r else 0)
              for prev, c in zip([0, *cs], [*cs, 0])]
    return UPoly(cs)


def poly_divmod(f: UPoly, g: UPoly):
    """(quotient, remainder) of f by g, the step-by-step division.  The
    leading coefficient of g must be an invertible scalar: an int or
    Fraction, inverted exactly, or a float, inverted as a float; the
    coefficients of f may live in any ring on which that scalar acts.  A
    quotient slot that no step reaches is the zero of f's coefficients:
    ``UPoly()`` over polynomials (see the module docstring), else 0."""
    if not g.coeffs:
        raise ZeroDivisionError("polynomial division by zero")
    lead = g.lead()
    if not isinstance(lead, Number):
        raise ValueError("divisor must have scalar leading coefficient")
    inv = 1.0 / lead if isinstance(lead, float) else Fraction(1) / lead
    rem = list(f.coeffs)
    dg = g.degree
    qcoeffs = [_empty_slot(_dot_hook(rem))] * max(len(rem) - dg, 0)
    for k in range(len(rem) - dg - 1, -1, -1):
        c = rem[k + dg]
        if not c:
            continue
        q = c * inv
        qcoeffs[k] = q
        for i, gc in enumerate(g.coeffs):
            rem[k + i] = rem[k + i] - q * gc
    return UPoly(qcoeffs), UPoly(rem[:dg])


def poly_gcd(f: UPoly, g: UPoly) -> UPoly:
    """Monic gcd over a field (Fraction coefficients)."""
    a, b = f, g
    while b.coeffs:
        a, b = b, poly_divmod(a, b)[1]
    if a.coeffs:
        inv = Fraction(1) / a.lead()
        a = a * inv
    return a


def log1p(x, order: int):
    """log(1 + x) = sum_t (-1)^(t+1) x^t / t up to degree ``order``, each
    power a ``mul_trunc``: for a ``UPoly`` (the order in u) or a
    ``MultiPoly`` (the total degree).  x has no constant term and no term
    above the order."""
    acc = power = x
    for t in range(2, order + 1):
        power = power.mul_trunc(x, order)
        acc = acc + Fraction((-1) ** (t + 1), t) * power
    return acc


def series_log(f: UPoly, order: int) -> UPoly:
    """log f as a truncated series; the constant term of f must be the unit."""
    one = ring_one(f.coeff(0))
    if not (f.coeff(0) == one):
        raise ValueError("log needs unit constant term")
    return log1p(UPoly((f - one).coeffs[:order + 1]), order)


def series_exp(f: UPoly, order: int) -> UPoly:
    """exp f as a truncated series; the constant term of f must vanish."""
    if f.coeff(0):
        raise ValueError("exp needs zero constant term")
    x = UPoly(f.coeffs[:order + 1])
    acc = power = UPoly([ring_one(next(filter(None, x.coeffs), Fraction(1)))])
    for k in range(1, order + 1):
        power = power.mul_trunc(x, order)
        acc = acc + Fraction(1, math.factorial(k)) * power
    return acc


def series_inverse(f: UPoly, order: int) -> UPoly:
    """1/f as a truncated series; the constant term must be an invertible scalar."""
    c0 = f.coeff(0)
    if not (c0 and isinstance(c0, Number)):
        raise ValueError("inverse needs an invertible scalar constant term")
    inv0 = 1.0 / c0 if isinstance(c0, float) else Fraction(1) / c0
    out = [inv0]
    for k in range(1, order + 1):
        s = sum(f.coeffs[j] * out[k - j] for j in range(1, min(k, f.degree) + 1))
        out.append(-inv0 * s)
    return UPoly(out)


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
            return self.mul_trunc(other, math.inf)
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
