"""Permutations, the sparse group algebra of the symmetric group over
pluggable coefficient rings, embeddings, the antisymmetrizer, the two
antiinvolutions, and the parametrized cycle-deletion trace map.

Composition convention: in a product p*q the RIGHT factor acts first,
(p*q)(i) = p(q(i)).  This is pinned by the requirement that the product of
transpositions s(i1,i2) s(i2,i3) ... s(i_{k-1},i_k) is the increasing k-cycle
(i1 i2 ... ik); see tests.

The group-algebra product is the kernel every identity check runs through,
so it avoids per-term-pair overhead in three ways:

* Index composition.  Each permutation q lazily builds an
  ``operator.itemgetter`` over its zero-based images, kept in a slot, so the
  images of p*q are ``getter(p.images)``: one C call per term pair.
* Trusted construction.  A product (or inverse, embedding, trace residue) of
  permutations is a permutation by construction, so internal sites build the
  result through ``Permutation._trusted``, which skips the validation that
  the public ``Permutation(images)`` performs.  The product accumulates on
  image tuples and builds one ``Permutation`` per output term.
* Integer scaling.  When every coefficient of a factor is an ``int``, or
  every one a ``Fraction``, the factor is rewritten as integer numerators
  over the lcm of its denominators.  The term pairs then accumulate Python
  ints, and each nonzero output term becomes one ``Fraction(s, da*db)`` (or
  stays an ``int`` when both factors are all-``int``).  This is exact: the
  scaled partial sum is the true partial sum times da*db, so it is zero
  exactly when the true one is.  The accumulator drops a key whenever its
  partial sum reaches zero, as the generic path does, so the output keeps
  the key order of the generic accumulation.  Factors mixing ``int`` and
  ``Fraction`` coefficients take the generic path, because the type of each
  output coefficient then depends on which term pairs reached it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Number
from itertools import permutations as _itperms
from operator import itemgetter

from .rings import BiPoly, UPoly, _int_scaled


class Permutation:
    """Permutation of {1..n} in one-line notation: images[i] = image of i+1."""

    __slots__ = ("images", "_hash", "_getter")

    def __init__(self, images):
        self.images = tuple(images)
        self._hash = hash(self.images)
        self._getter = None
        if sorted(self.images) != list(range(1, len(self.images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(self.images)}: {images}")

    @classmethod
    def _trusted(cls, images: tuple) -> "Permutation":
        """Permutation from a tuple already known to be a permutation of 1..n."""
        p = object.__new__(cls)
        p.images = images
        p._hash = hash(images)
        p._getter = None
        return p

    def _composer(self):
        """Callable g with g(p.images) == (p * self).images, built on first use."""
        g = self._getter
        if g is None:
            im = self.images
            # itemgetter of a single index returns an item, not a tuple
            g = itemgetter(*[j - 1 for j in im]) if len(im) > 1 else tuple
            self._getter = g
        return g

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n: int, a: int, b: int) -> "Permutation":
        if not (1 <= a <= n and 1 <= b <= n and a != b):
            raise ValueError(f"bad transposition ({a},{b}) in degree {n}")
        im = list(range(1, n + 1))
        im[a - 1], im[b - 1] = b, a
        return cls(im)

    @classmethod
    def cycle(cls, n: int, symbols) -> "Permutation":
        im = list(range(1, n + 1))
        syms = list(symbols)
        for i, s in enumerate(syms):
            im[s - 1] = syms[(i + 1) % len(syms)]
        return cls(im)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # right factor acts first: (p*q)(i) = p(q(i))
        if len(self.images) != len(other.images):
            raise ValueError("degree mismatch")
        return Permutation._trusted(other._composer()(self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j - 1] = i + 1
        return Permutation._trusted(tuple(inv))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return f"Permutation({list(self.images)})"

    def to_json(self):
        return list(self.images)


@dataclass(frozen=True)
class CycleData:
    cycles: tuple
    orbit_count: int
    sign: int


def cycle_data(p: Permutation) -> CycleData:
    """Cycle decomposition with fixed points kept as 1-cycles."""
    n = p.degree
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = p(start)
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p(j)
        cycles.append(tuple(cyc))
    c = len(cycles)
    return CycleData(tuple(cycles), c, (-1) ** (n - c))


def sign(p: Permutation) -> int:
    return cycle_data(p).sign


def cycle_type(p: Permutation) -> tuple:
    return tuple(sorted((len(c) for c in cycle_data(p).cycles), reverse=True))


def all_permutations(n: int):
    return [Permutation(im) for im in _itperms(range(1, n + 1))]


def _inversion_sign(seq) -> int:
    """Sign of a permutation in one-line form (any distinct comparable
    entries), by counting inversions."""
    k = len(seq)
    inv = sum(1 for i in range(k) for j in range(i + 1, k) if seq[i] > seq[j])
    return -1 if inv % 2 else 1


def _as_coeff_zero_test(c):
    return not c


def _rational_kind(terms):
    """int or Fraction when every coefficient has exactly that type, else None."""
    kinds = set(map(type, terms.values()))
    if len(kinds) == 1 and kinds <= {int, Fraction}:
        return kinds.pop()
    return None


class GroupAlgebraElement:
    """Sparse element of the group algebra of S_n: dict Permutation -> coeff.

    Coefficients may be Fractions, floats, or UPoly (auxiliary variables);
    scalars occurring in mixed arithmetic are read as scalar multiples of the
    identity permutation.  Zero coefficients are never stored.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.terms = {}
        if terms:
            for p, c in terms.items():
                if not _as_coeff_zero_test(c):
                    self.terms[p] = c

    @classmethod
    def zero(cls, n: int) -> "GroupAlgebraElement":
        return cls(n)

    @classmethod
    def scalar(cls, n: int, c) -> "GroupAlgebraElement":
        return cls(n, {Permutation.identity(n): c})

    @classmethod
    def from_perm(cls, p: Permutation, c=Fraction(1)) -> "GroupAlgebraElement":
        return cls(p.degree, {p: c})

    def ring_one(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement.scalar(self.n, Fraction(1))

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, p: Permutation):
        return self.terms.get(p, 0)

    def _coerce(self, other) -> "GroupAlgebraElement":
        if isinstance(other, GroupAlgebraElement):
            if other.n != self.n:
                raise ValueError(f"degree mismatch: {self.n} vs {other.n}")
            return other
        return GroupAlgebraElement.scalar(self.n, other)

    def __eq__(self, other):
        if isinstance(other, GroupAlgebraElement):
            return self.n == other.n and self.terms == other.terms
        if isinstance(other, (Number, UPoly)):
            return self == GroupAlgebraElement.scalar(self.n, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __neg__(self):
        return GroupAlgebraElement(self.n, {p: -c for p, c in self.terms.items()})

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for p, c in other.terms.items():
            s = out.get(p, 0) + c
            if _as_coeff_zero_test(s):
                out.pop(p, None)
            else:
                out[p] = s
        return GroupAlgebraElement(self.n, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, GroupAlgebraElement):
            if other.n != self.n:
                raise ValueError(f"degree mismatch: {self.n} vs {other.n}")
            # see the module docstring for the exactness and key-order argument
            kinds = (_rational_kind(self.terms), _rational_kind(other.terms))
            d = None  # common denominator of the scaled output, if any
            if None in kinds:
                left, right = self.terms.items(), other.terms.items()
            else:
                da, left = _int_scaled(self.terms.values())
                db, right = _int_scaled(other.terms.values())
                left, right = zip(self.terms, left), zip(other.terms, right)
                if Fraction in kinds:
                    d = da * db
            right = [(q._composer(), b) for q, b in right]
            acc = {}
            get, pop = acc.get, acc.pop
            for p, a in left:
                pim = p.images
                for compose, b in right:
                    r = compose(pim)
                    s = get(r, 0) + a * b
                    if s:
                        acc[r] = s
                    else:
                        pop(r, None)
            trusted = Permutation._trusted
            out = GroupAlgebraElement(self.n)
            # acc holds no zero, so its terms need not pass the constructor
            if d is None:
                out.terms = {trusted(r): s for r, s in acc.items()}
            else:
                out.terms = {trusted(r): Fraction(s, d) for r, s in acc.items()}
            return out
        return GroupAlgebraElement(
            self.n, {p: c * other for p, c in self.terms.items()}
        )

    def __rmul__(self, other):
        return GroupAlgebraElement(
            self.n, {p: other * c for p, c in self.terms.items()}
        )

    def map_coeffs(self, f) -> "GroupAlgebraElement":
        return GroupAlgebraElement(self.n, {p: f(c) for p, c in self.terms.items()})

    def dagger(self) -> "GroupAlgebraElement":
        """Linear antiinvolution: each permutation goes to its inverse."""
        return GroupAlgebraElement(
            self.n, {p.inverse(): c for p, c in self.terms.items()}
        )

    def star(self) -> "GroupAlgebraElement":
        """Semilinear antiinvolution: inverse permutations, conjugated coefficients."""
        return GroupAlgebraElement(
            self.n, {p.inverse(): _conjugate(c) for p, c in self.terms.items()}
        )

    def support(self):
        return sorted(self.terms.keys(), key=lambda p: p.images)

    def to_json(self):
        out = []
        for p in self.support():
            c = self.terms[p]
            if isinstance(c, Fraction):
                cj = f"{c.numerator}/{c.denominator}"
            elif hasattr(c, "to_json"):
                cj = c.to_json()
            else:
                cj = c
            out.append({"perm": list(p.images), "coeff": cj})
        return out

    def __repr__(self):
        parts = [f"{c!r}*{list(p.images)}" for p, c in sorted(
            self.terms.items(), key=lambda t: t[0].images)]
        return "GA(" + (" + ".join(parts) if parts else "0") + ")"


def _conjugate(c):
    conj = getattr(c, "conjugate", None)
    if conj is not None:
        return conj()
    if isinstance(c, UPoly):
        return c.map_coeffs(_conjugate)
    return c


def ga_perm(p: Permutation) -> GroupAlgebraElement:
    return GroupAlgebraElement.from_perm(p)


def ga_transposition(n: int, a: int, b: int) -> GroupAlgebraElement:
    return ga_perm(Permutation.transposition(n, a, b))


def antisymmetrizer(m: int) -> GroupAlgebraElement:
    """(1/m!) sum of sign(s)*s over S_m; idempotent."""
    if m < 1:
        raise ValueError("antisymmetrizer needs m >= 1")
    c = Fraction(1, math.factorial(m))
    terms = {}
    for p in all_permutations(m):
        terms[p] = c * sign(p)
    return GroupAlgebraElement(m, terms)


def embed_perm(p: Permutation, positions, n: int) -> Permutation:
    """Image of p under symbol i -> positions[i-1]; the positions must be
    distinct symbols of 1..n, one per symbol of p (``embed`` checks this)."""
    pos = list(positions)
    im = list(range(1, n + 1))
    for i, r in enumerate(pos):
        im[r - 1] = pos[p(i + 1) - 1]
    return Permutation._trusted(tuple(im))


def embed(a: GroupAlgebraElement, positions, n: int) -> GroupAlgebraElement:
    """Image of a under the embedding sending symbol i to positions[i-1]."""
    pos = list(positions)
    if len(set(pos)) != len(pos):
        raise ValueError("positions must be distinct")
    if any(not (1 <= r <= n) for r in pos):
        raise ValueError("positions out of range")
    if len(pos) != a.n:
        raise ValueError("positions must match the degree of the element")
    return GroupAlgebraElement(
        n, {embed_perm(p, pos, n): c for p, c in a.terms.items()}
    )


def top_embed(a: GroupAlgebraElement, n: int, m: int) -> GroupAlgebraElement:
    """Embedding of S_m onto the last m symbols of S_{n+m}."""
    return embed(a, range(n + 1, n + m + 1), n + m)


def trace_perm(p: Permutation, n: int):
    """Delete symbols > n from the cycle record; return (residual permutation,
    number of orbits lost entirely)."""
    data = cycle_data(p)
    im = list(range(1, n + 1))
    lost = 0
    for cyc in data.cycles:
        kept = [s for s in cyc if s <= n]
        if not kept:
            lost += 1
            continue
        for i, s in enumerate(kept):
            im[s - 1] = kept[(i + 1) % len(kept)]
    return Permutation._trusted(tuple(im)), lost


def trace_map(a: GroupAlgebraElement, n: int, m: int, p) -> GroupAlgebraElement:
    """Cycle-deletion trace from the group algebra of S_{n+m} down to S_n.

    Each permutation is rewritten as cycles, symbols above n are removed, and
    the term is weighted by p to the number of orbits lost.  p may be a
    Fraction, a float, or a UPoly generator (symbolic parameter); with a
    symbolic p every output coefficient is lifted into the polynomial ring.
    """
    if a.n != n + m:
        raise ValueError(f"trace_map: element has degree {a.n}, expected {n + m}")
    symbolic = isinstance(p, UPoly)
    out = GroupAlgebraElement.zero(n)
    acc = {}
    for perm, c in a.terms.items():
        tau, lost = trace_perm(perm, n)
        if symbolic:
            w = c * p ** lost
        else:
            w = c * p**lost
        s = acc.get(tau, 0) + w
        acc[tau] = s
    if symbolic:
        acc = {
            t: (c if isinstance(c, UPoly) else UPoly([c])) for t, c in acc.items()
        }
    out = GroupAlgebraElement(n, acc)
    return out


def antiinvolution(a: GroupAlgebraElement, kind: str = "dagger") -> GroupAlgebraElement:
    if kind == "dagger":
        return a.dagger()
    if kind == "star":
        return a.star()
    raise ValueError(f"unknown antiinvolution {kind!r}")


def ga_lift(n: int, x):
    """Read scalars as multiples of the identity of S_n.

    A scalar becomes a group-algebra element and a group-algebra element is
    returned as it is.  A UPoly or BiPoly is lifted coefficientwise: its
    scalar coefficients are lifted and its group-algebra ones kept.
    """
    if isinstance(x, (UPoly, BiPoly)):
        return x.map_coeffs(lambda c: _lift_scalar(n, c))
    return _lift_scalar(n, x)


def _lift_scalar(n: int, c):
    if isinstance(c, GroupAlgebraElement):
        return c
    return GroupAlgebraElement.scalar(n, c)


def lift_coeffs_to_upoly(a: GroupAlgebraElement) -> GroupAlgebraElement:
    """Wrap every scalar coefficient into a constant UPoly (symbolic-parameter ring)."""
    return a.map_coeffs(lambda c: c if isinstance(c, UPoly) else UPoly([c]))


def class_sum(n: int, mu) -> GroupAlgebraElement:
    """Sum of all permutations of S_n with the given cycle type."""
    mu = tuple(sorted(mu, reverse=True))
    terms = {}
    for p in all_permutations(n):
        if cycle_type(p) == mu:
            terms[p] = Fraction(1)
    return GroupAlgebraElement(n, terms)
