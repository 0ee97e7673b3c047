"""Permutations as image tuples, the sparse group algebra of the symmetric
group over the rationals and its pairwise commutators, embeddings, the
antisymmetrizer and its conjugacy-class form, the two antiinvolutions, and
the parametrized cycle-deletion trace map.

A permutation of {1..n} is the plain tuple of its images: p[i-1] is the
image of i.  ``permutation(images)`` validates a tuple built from a list;
``identity``, ``transposition``, ``cycle``, ``compose`` and ``inverse``
build the rest.

Composition convention: in a product compose(p, q) the RIGHT factor acts
first, compose(p, q)[i-1] = p[q[i-1]-1].  This is pinned by the requirement
that the product of transpositions s(i1,i2) s(i2,i3) ... s(i_{k-1},i_k) is
the increasing k-cycle (i1 i2 ... ik); see tests.

The group-algebra arithmetic is the kernel every identity check runs
through, so it avoids per-term overhead in three ways:

* Index composition.  The images of compose(p, q) are
  ``itemgetter(q[0]-1, ..., q[n-1]-1)(p)``: one C call per term pair.  The
  products build one such getter per term of the right factor and apply it
  to every term of the left factor.
* Numerator form.  Every element holds integer numerators over one
  denominator d (see ``GroupAlgebraElement``), so sums, negations, multiples
  by an int or Fraction and products run on Python ints: a sum merges the
  numerators over lcm(da, db), a scalar cn/cd multiplies them by cn and d by
  cd, and each result is divided by the gcd of d and its numerators
  (``_reduced``, which builds the result with no zero filter or type scan:
  an operation's numerators are nonzero ints by construction).  The
  form is canonical, so ``==`` and ``hash`` read it directly.  ``terms``
  builds the Fractions on first read; ``represent`` and ``trace_map`` read
  the numerators.  Polynomials (``UPoly``, also nested: a polynomial in u
  and v, or in u over polynomials in the trace parameter p) hold elements
  as coefficients, so an operation of an element with a polynomial returns
  NotImplemented and the polynomial's reflected operator applies.
* One sum-of-products kernel.  ``GroupAlgebraElement.dot(pairs)`` is the
  sum of a*b over pairs (a, b) of elements, a scalar factor read on the
  identity.  A product is ``dot`` on one pair, and polynomial products and
  divisions find ``dot`` on their coefficients to form each output
  coefficient in one pass.  Every term pair goes through one of three
  loops: a linear combination, the Cayley table or ``_accumulate`` (the
  dict product).

  - Denominators: a dot reads the numerators of its live pairs (both
    factors nonzero) as they are, all term pairs accumulate Python ints over
    D, the lcm of the live pairs' da*db (a pair's left numerators times
    D/(da*db)), and the nonzero sums are the output's numerators over D.
  - Exactness: the scaled partial sum is the true partial sum times D, so it
    is zero exactly when the true one is.
  - Linear combinations.  When every live pair of a dot has a factor c*1
    alone (a scalar, or an element whose one term is the identity), no
    permutation is composed: each pair adds the other factor's numerators
    times c*D/(da*db) on its own keys.
  - Cayley table.  For n <= CAYLEY_MAX_DEGREE, any other dot whose term
    pairs (the sum of |a|*|b| over its pairs) number at least n! runs on
    permutation ids: ``_cayley(n)``, built on first use, holds
    rows[i][j] = the id of compose(images[i], images[j]), and the sums go
    into a list of n! ints.  Every other dot goes through ``_accumulate``.
  - Key order: a dot on the Cayley table lists its terms in lexicographic
    image order.  A linear combination and ``_accumulate`` drop a key
    whenever its partial sum reaches zero, so they keep the key order of
    the term-pair accumulation (for a linear combination, the other
    factors' keys in pair order).  A sum of several products is one
    accumulation over all their term pairs: the keys and values of adding
    the products one by one, the key order possibly not.  A sum ``a + b``
    lists a's keys, then b's new ones.

* One product per self-adjoint commutator.  The dagger reverses products,
  so when a and b are both fixed by it (a scalar always is), ba = (ab)†
  and ``commutators`` forms [a, b] as ab - (ab)†: one product, then one
  pass that subtracts each term again at its inverse.  Each element is
  tested once; a pair with an unfixed element is the two-pair dot
  ab + (-b)a.  Up to CAYLEY_MAX_DEGREE the dagger reads the inverses off
  the Cayley table.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from itertools import permutations as _itperms
from operator import itemgetter

from .rings import UPoly, _int_scaled, format_rational

# The Cayley table of S_n holds (n!)^2 ids: 518,400 (about 4 MB) at n = 6,
# 25.4M (about 200 MB) at n = 7, so larger degrees keep the dict product.
CAYLEY_MAX_DEGREE = 6


def permutation(images) -> tuple:
    """The permutation of 1..n with the given images, as a tuple; anything
    else raises ValueError."""
    p = tuple(images)
    if sorted(p) != list(range(1, len(p) + 1)):
        raise ValueError(f"not a permutation of 1..{len(p)}: {images}")
    return p


def identity(n: int) -> tuple:
    return tuple(range(1, n + 1))


def transposition(n: int, a: int, b: int) -> tuple:
    if not (1 <= a <= n and 1 <= b <= n and a != b):
        raise ValueError(f"bad transposition ({a},{b}) in degree {n}")
    im = list(range(1, n + 1))
    im[a - 1], im[b - 1] = b, a
    return tuple(im)


def cycle(n: int, symbols) -> tuple:
    syms = list(symbols)
    bad = sorted({s for s in syms if not 1 <= s <= n or syms.count(s) > 1})
    if bad:
        raise ValueError(f"bad cycle symbols {bad} in degree {n}")
    im = list(range(1, n + 1))
    for i, s in enumerate(syms):
        im[s - 1] = syms[(i + 1) % len(syms)]
    return tuple(im)


def _gather(q: tuple):
    """Callable g with g(p) == compose(p, q)."""
    # itemgetter of a single index returns an item, not a tuple
    return itemgetter(*[j - 1 for j in q]) if len(q) > 1 else tuple


def compose(p: tuple, q: tuple) -> tuple:
    """The product p*q: the right factor acts first, (p*q)(i) = p(q(i))."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return _gather(q)(p)


def inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, j in enumerate(p, 1):
        inv[j - 1] = i
    return tuple(inv)


CycleData = namedtuple("CycleData", "cycles orbit_count sign")


def cycle_data(p: tuple) -> CycleData:
    """Cycle decomposition with fixed points kept as 1-cycles."""
    n = len(p)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cyc = [start]
        seen[start] = True
        j = p[start - 1]
        while j != start:
            cyc.append(j)
            seen[j] = True
            j = p[j - 1]
        cycles.append(tuple(cyc))
    c = len(cycles)
    return CycleData(tuple(cycles), c, (-1) ** (n - c))


def sign(p: tuple) -> int:
    return cycle_data(p).sign


def cycle_type(p: tuple) -> tuple:
    return tuple(sorted((len(c) for c in cycle_data(p).cycles), reverse=True))


def all_permutations(n: int):
    return list(_itperms(range(1, n + 1)))


@lru_cache(maxsize=None)
def typed_permutations(n: int) -> tuple:
    """(p, cycle_type(p)) for p in ``all_permutations(n)`` order; built once
    per n and shared."""
    return tuple((p, cycle_type(p)) for p in all_permutations(n))


@lru_cache(maxsize=None)
def _cayley(n: int):
    """(index, images, rows) for S_n: index maps permutations to ids in
    lexicographic order, images[i] is the permutation of id i, and rows[i][j]
    is the id of compose(images[i], images[j]).  A breadth-first walk from
    the identity over the adjacent transpositions s fills the rows: the row
    of s*t is the row of s gathered along the row of t."""
    images = list(_itperms(range(1, n + 1)))
    index = {im: i for i, im in enumerate(images)}
    gens = [tuple(index[_gather(q)(s)] for q in images)
            for s in (transposition(n, k, k + 1) for k in range(1, n))]
    rows = [None] * len(images)
    rows[0] = tuple(range(len(images)))  # the identity comes first
    order = [0]
    for t in order:
        for row_s in gens:
            st = row_s[t]
            if rows[st] is None:
                rows[st] = itemgetter(*rows[t])(row_s)
                order.append(st)
    return index, images, rows


@lru_cache(maxsize=None)
def _inverter(n: int):
    """p -> inverse(p) on S_n: for n <= CAYLEY_MAX_DEGREE a lookup read off
    the Cayley table (images[i] has the inverse images[j] with rows[i][j] ==
    0), built once per n, else ``inverse`` itself."""
    if n > CAYLEY_MAX_DEGREE:
        return inverse
    _, images, rows = _cayley(n)
    return {p: images[row.index(0)] for p, row in zip(images, rows)}.__getitem__


def _accumulate(acc, left, right):
    """The product loop: acc[r] += a*b over the term pairs (p, a) of ``left``
    and (q, b) of ``right``, r = compose(p, q); a partial sum that reaches
    zero drops its key."""
    right = [(_gather(q), b) for q, b in right]
    get, pop = acc.get, acc.pop
    for p, a in left:
        for gather, b in right:
            r = gather(p)
            s = get(r, 0) + a * b
            if s:
                acc[r] = s
            else:
                pop(r, None)
    return acc


def _merge(acc: dict, items, c: int) -> dict:
    """acc[p] += x*c over the (p, x) of ``items``; a sum that reaches zero
    drops its key."""
    get, pop = acc.get, acc.pop
    for p, x in items:
        s = get(p, 0) + x * c
        if s:
            acc[p] = s
        else:
            pop(p, None)
    return acc


def _rational(c):
    """c itself when it is an int or a Fraction, the only coefficients an
    element holds; anything else raises TypeError naming its type."""
    if type(c) is int or type(c) is Fraction:
        return c
    raise TypeError("group-algebra coefficients must be int or Fraction, got "
                    + type(c).__name__)


def _reduced(n: int, d: int, nums: dict) -> "GroupAlgebraElement":
    """The element of the nonzero numerators ``nums`` over d, with d and the
    numerators divided by their gcd: its canonical form (see
    ``GroupAlgebraElement``)."""
    if not nums:
        d = 1
    elif d > 1:
        g = math.gcd(d, *nums.values())
        if g > 1:
            d //= g
            nums = {p: x // g for p, x in nums.items()}
    a = object.__new__(GroupAlgebraElement)
    a.n, a._d, a._nums, a._terms = n, d, nums, None
    return a


def _factor(x, n: int):
    """(d, nums) of a factor of ``dot``: an element's own form, a scalar's
    on the identity; nums is empty for a zero factor."""
    if isinstance(x, GroupAlgebraElement):
        return x._d, x._nums
    return _rational(x).denominator, {identity(n): x.numerator} if x else {}


def _dot(pairs) -> "GroupAlgebraElement":
    """Sum of a*b over pairs (a, b) of group-algebra elements of one degree
    or int and Fraction scalars (see the module docstring).  Pairs of two
    scalars alone sum to a scalar; no pairs at all raise ValueError."""
    pairs = list(pairs)
    if not pairs:
        raise ValueError("a dot of no pairs has no degree")
    degrees = {x.n for pair in pairs for x in pair
               if isinstance(x, GroupAlgebraElement)}
    if len(degrees) > 1:
        raise ValueError("degree mismatch: " + " vs ".join(map(str, sorted(degrees))))
    if not degrees:
        return sum(a * b for a, b in pairs)
    n = degrees.pop()
    live, d = [], 1
    for a, b in pairs:
        (da, na), (db, nb) = _factor(a, n), _factor(b, n)
        if na and nb:
            live.append((na, nb, da * db))
            d = math.lcm(d, da * db)
    combination = _combination(n, live, d)
    if combination is not None:
        return _reduced(n, d, combination)
    scaled = [(na.items() if dp == d else [(p, x * (d // dp)) for p, x in na.items()],
               nb.items()) for na, nb, dp in live]
    if (n <= CAYLEY_MAX_DEGREE
            and sum(len(na) * len(nb) for na, nb, _ in live) >= math.factorial(n)):
        return _reduced(n, d, _cayley_dot(n, scaled))
    acc = {}
    for left, right in scaled:
        _accumulate(acc, left, right)
    return _reduced(n, d, acc)


def _combination(n: int, live, d: int):
    """The dot over D = d as a linear combination, or None when
    some live pair (na, nb, da*db) has no factor c*1 alone: each pair adds
    its other factor's numerators times c*D/(da*db) on their own keys, in
    pair order, and a sum that reaches zero drops its key."""
    one = identity(n)
    parts = []
    for na, nb, dp in live:
        if len(na) == 1 and one in na:
            parts.append((nb, na[one] * (d // dp)))
        elif len(nb) == 1 and one in nb:
            parts.append((na, nb[one] * (d // dp)))
        else:
            return None
    acc = {}
    for nums, c in parts:
        _merge(acc, nums.items(), c)
    return acc


def _cayley_dot(n: int, scaled) -> dict:
    """The dot on the Cayley table: the nonzero sums of the term
    pairs of the (left, right) numerator items in ``scaled``, keyed by
    permutation in id order."""
    index, images, rows = _cayley(n)
    acc = [0] * len(images)
    for left, right in scaled:
        right = [(index[q], b) for q, b in right]
        for p, a in left:
            row = rows[index[p]]
            for j, b in right:
                acc[row[j]] += a * b
    return {images[i]: s for i, s in enumerate(acc) if s}


class GroupAlgebraElement:
    """Sparse element of the group algebra of S_n over the rationals:
    permutation (image tuple of 1..n) -> Fraction coefficient, built from
    int or Fraction coefficients.

    Scalars occurring in mixed arithmetic are read as scalar multiples of
    the identity permutation.  Zero coefficients are never stored; any other
    key raises ValueError and any other coefficient type TypeError.

    The form: ``nums``, permutation -> integer numerator over one
    denominator d, the lcm of the coefficients' reduced denominators (1 for
    the empty element); ``terms`` is built from it on first read.
    """

    __slots__ = ("n", "_d", "_nums", "_terms")

    def __init__(self, n: int, terms=None):
        self.n = n
        self._terms = None
        terms = terms or {}
        symbols = set(range(1, n + 1))
        for p in terms:
            if type(p) is not tuple or len(p) != n or set(p) != symbols:
                raise ValueError(f"not a permutation of 1..{n}: {p!r}")
        coeffs = {p: c for p, c in terms.items() if _rational(c)}
        self._d, nums = _int_scaled(coeffs.values())
        self._nums = dict(zip(coeffs, nums))

    @property
    def terms(self) -> dict:
        """permutation -> Fraction coefficient, in the form's key order."""
        t = self._terms
        if t is None:
            d = self._d
            t = self._terms = {p: Fraction(x, d) for p, x in self._nums.items()}
        return t

    def numerators(self):
        """(d, permutation -> integer numerator over d)."""
        return self._d, self._nums

    @classmethod
    def zero(cls, n: int) -> "GroupAlgebraElement":
        return cls(n)

    @classmethod
    def scalar(cls, n: int, c) -> "GroupAlgebraElement":
        return cls(n, {identity(n): c})

    @classmethod
    def from_perm(cls, p: tuple, c=Fraction(1)) -> "GroupAlgebraElement":
        return cls(len(p), {p: c})

    def ring_one(self) -> "GroupAlgebraElement":
        return GroupAlgebraElement.scalar(self.n, Fraction(1))

    def __bool__(self):
        return bool(self._nums)

    def coeff(self, p: tuple):
        return self.terms.get(p, 0)

    def __eq__(self, other):
        if isinstance(other, GroupAlgebraElement):
            return self.n == other.n and self._d == other._d and self._nums == other._nums
        if type(other) is int or type(other) is Fraction:
            return self == GroupAlgebraElement.scalar(self.n, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self._d, frozenset(self._nums.items())))

    def __neg__(self):
        return _reduced(self.n, self._d, {p: -x for p, x in self._nums.items()})

    def __add__(self, other):
        if isinstance(other, UPoly):
            return NotImplemented
        if not isinstance(other, GroupAlgebraElement):
            other = GroupAlgebraElement.scalar(self.n, other)
        elif other.n != self.n:
            raise ValueError(f"degree mismatch: {self.n} vs {other.n}")
        if not other._nums:
            return self
        if not self._nums:
            return other
        # the numerators merge over the lcm of the denominators
        da, db = self._d, other._d
        d = da if da == db else math.lcm(da, db)
        f = d // da
        out = dict(self._nums) if f == 1 else {p: x * f for p, x in self._nums.items()}
        return _reduced(self.n, d, _merge(out, other._nums.items(), d // db))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, c):
        """self times an int or Fraction c, on the numerators."""
        cn = _rational(c).numerator
        return _reduced(self.n, self._d * c.denominator,
                        {p: x * cn for p, x in self._nums.items()} if cn else {})

    def __mul__(self, other):
        if isinstance(other, GroupAlgebraElement):
            return _dot(((self, other),))
        if isinstance(other, UPoly):
            return NotImplemented
        return self._scaled(other)

    # scalars commute with every element
    __rmul__ = _scaled

    # the sum of a*b over pairs (a, b); see the module docstring
    dot = staticmethod(_dot)

    def _rekeyed(self, n: int, f) -> "GroupAlgebraElement":
        """The element of S_n with each permutation p replaced by f(p); f
        must be injective."""
        return _reduced(n, self._d, {f(p): x for p, x in self._nums.items()})

    def dagger(self) -> "GroupAlgebraElement":
        """Linear antiinvolution: each permutation goes to its inverse."""
        return self._rekeyed(self.n, _inverter(self.n))

    def star(self) -> "GroupAlgebraElement":
        """Semilinear antiinvolution: inverse permutations, conjugated
        coefficients.  A rational coefficient is its own conjugate, so this
        is ``dagger``."""
        return self.dagger()

    def support(self):
        return sorted(self.terms)

    def to_json(self):
        terms = self.terms
        return [{"perm": list(p), "coeff": format_rational(terms[p])}
                for p in self.support()]

    def __repr__(self):
        parts = [f"{c!r}*{list(p)}" for p, c in sorted(self.terms.items())]
        return "GA(" + (" + ".join(parts) if parts else "0") + ")"


def _minus_dagger(x: GroupAlgebraElement) -> GroupAlgebraElement:
    """x - x† in one pass: each term of x is subtracted again at its inverse
    permutation, also where x has no term."""
    inv = _inverter(x.n)
    return _reduced(x.n, x._d, _merge(dict(x._nums),
                                      [(inv(p), c) for p, c in x._nums.items()], -1))


def commutators(elements) -> list:
    """ab - ba for every pair a, b of ``elements`` (group-algebra elements or
    scalars) that is not two scalars: ab - (ab)†, one product, when both are
    fixed by the dagger, else one sum of products (see the module
    docstring)."""
    items = list(elements)
    fixed = [not isinstance(x, GroupAlgebraElement) or x.dagger() == x for x in items]
    out = []
    for i, a in enumerate(items):
        for j in range(i + 1, len(items)):
            b = items[j]
            if not (isinstance(a, GroupAlgebraElement) or isinstance(b, GroupAlgebraElement)):
                continue
            if fixed[i] and fixed[j]:
                out.append(_minus_dagger(_dot(((a, b),))))
            else:
                out.append(_dot(((a, b), (-b, a))))
    return out


def conjugate(a: GroupAlgebraElement, s: tuple) -> GroupAlgebraElement:
    """s a s^-1 for a permutation s of a's degree, with no product: each
    term p moves to s p s^-1."""
    if len(s) != a.n:
        raise ValueError(f"degree mismatch: {a.n} vs {len(s)}")
    back = _gather(inverse(s))
    return a._rekeyed(a.n, lambda p: back(_gather(p)(s)))


def ga_perm(p: tuple) -> GroupAlgebraElement:
    return GroupAlgebraElement.from_perm(p)


def ga_transposition(n: int, a: int, b: int) -> GroupAlgebraElement:
    return ga_perm(transposition(n, a, b))


@lru_cache(maxsize=None)
def antisymmetrizer(m: int) -> GroupAlgebraElement:
    """(1/m!) sum of sign(s)*s over S_m; idempotent.  Built once per m as
    the numerators sign(s) over m! and shared, so callers must not mutate
    it."""
    if m < 1:
        raise ValueError("antisymmetrizer needs m >= 1")
    return _reduced(m, math.factorial(m), {p: sign(p) for p in all_permutations(m)})


def antisymmetrizer_classes(m: int) -> GroupAlgebraElement:
    """The antisymmetrizer of S_m with each conjugacy class collapsed onto one
    member: sum over cycle types mu of (sgn(mu)/z_mu) sigma_mu, with sigma_mu
    the first permutation of type mu in ``all_permutations`` order (the
    identity first) and sgn(mu)/z_mu = sgn(mu)|C_mu|/m!.  p(m) terms instead
    of m!; it stands in for the antisymmetrizer under any linear map that is
    constant on conjugacy classes."""
    if m < 1:
        raise ValueError("antisymmetrizer needs m >= 1")
    reps, sizes = {}, {}
    for p, mu in typed_permutations(m):
        reps.setdefault(mu, p)
        sizes[mu] = sizes.get(mu, 0) + 1
    c = Fraction(1, math.factorial(m))
    return GroupAlgebraElement(
        m, {p: c * sizes[mu] * sign(p) for mu, p in reps.items()}
    )


def _embed_perm(p: tuple, positions, n: int) -> tuple:
    """Image of p under symbol i -> positions[i-1]; the positions must be
    distinct symbols of 1..n, one per symbol of p (``embed`` checks this)."""
    im = list(range(1, n + 1))
    for i, r in enumerate(positions):
        im[r - 1] = positions[p[i] - 1]
    return tuple(im)


def embed(a: GroupAlgebraElement, positions, n: int) -> GroupAlgebraElement:
    """Image of a under the embedding sending symbol i to positions[i-1]."""
    pos = list(positions)
    if len(set(pos)) != len(pos):
        raise ValueError("positions must be distinct")
    if any(not (1 <= r <= n) for r in pos):
        raise ValueError("positions out of range")
    if len(pos) != a.n:
        raise ValueError("positions must match the degree of the element")
    return a._rekeyed(n, lambda p: _embed_perm(p, pos, n))


def top_embed(a: GroupAlgebraElement, n: int, m: int) -> GroupAlgebraElement:
    """Embedding of S_m onto the last m symbols of S_{n+m}."""
    return embed(a, range(n + 1, n + m + 1), n + m)


def trace_map(a: GroupAlgebraElement, n: int, m: int, p):
    """Cycle-deletion trace from the group algebra of S_{n+m} down to S_n.

    Each permutation loses the symbols above n from its cycles, and the term
    is weighted by p to the number of orbits lost entirely.  p is a rational
    (int or Fraction) or the symbolic generator ``UPoly.gen()``.  For a
    rational p the trace is an element of S_n.  For the symbolic p it is the
    polynomial in p ``UPoly([T_0, T_1, ...])`` over the group algebra, T_l
    the element of S_n that is the coefficient of p^l.

    One pass over integer numerators over one denominator d: each term sends
    every symbol i <= n to the next symbol <= n on its orbit, marking the top
    symbols passed; the unmarked ones form the lost orbits.  Sums s_l are kept
    per (residual, l lost orbits).  A rational p builds each output term
    once, as sum_l s_l p^l / d, in the order its residual first occurs; the
    symbolic p puts s_l / d on that residual in T_l.
    """
    if a.n != n + m:
        raise ValueError(f"trace_map: element has degree {a.n}, expected {n + m}")
    symbolic = isinstance(p, UPoly)
    if symbolic:
        if p != UPoly.gen():
            raise ValueError("a symbolic trace parameter must be UPoly.gen()")
    elif not isinstance(p, (int, Fraction)):
        raise TypeError(f"trace parameter must be rational, got {type(p).__name__}")
    d, nums = a.numerators()
    top = range(n, n + m)  # zero-based top symbols
    acc = {}  # residual images -> {orbits lost: scaled sum}
    for im, s in nums.items():
        passed = [False] * (n + m)
        res = []
        for j in im[:n]:
            while j > n:
                passed[j - 1] = True
                j = im[j - 1]
            res.append(j)
        lost = 0
        for t in top:
            if not passed[t]:
                lost += 1
                while not passed[t]:
                    passed[t] = True
                    t = im[t] - 1
        sums = acc.setdefault(tuple(res), {})
        sums[lost] = sums.get(lost, 0) + s
    # k, the most orbits any term loses
    k = max((max(sums) for sums in acc.values()), default=0)
    if symbolic:
        coeffs = [{} for _ in range(k + 1)]
        for res, sums in acc.items():
            for l, s in sums.items():
                if s:
                    coeffs[l][res] = s
        return UPoly([_reduced(n, d, c) for c in coeffs])
    # every sum over d * pd**k
    pn, pd = p.numerator, p.denominator
    out = {}
    for res, sums in acc.items():
        total = sum(s * pn**l * pd ** (k - l) for l, s in sums.items())
        if total:
            out[res] = total
    return _reduced(n, d * pd**k, out)


def antiinvolution(a: GroupAlgebraElement, kind: str = "dagger") -> GroupAlgebraElement:
    if kind == "dagger":
        return a.dagger()
    if kind == "star":
        return a.star()
    raise ValueError(f"unknown antiinvolution {kind!r}")


def ga_lift(n: int, x):
    """Read scalars as multiples of the identity of S_n.

    A scalar becomes a group-algebra element and a group-algebra element is
    returned as it is.  A UPoly is lifted coefficientwise, into nested
    polynomials too, so a polynomial over polynomials stays one.
    """
    if isinstance(x, UPoly):
        return x.map_coeffs(lambda c: ga_lift(n, c))
    if isinstance(x, GroupAlgebraElement):
        return x
    return GroupAlgebraElement.scalar(n, x)


def class_sum(n: int, mu) -> GroupAlgebraElement:
    """Sum of all permutations of S_n with the given cycle type."""
    mu = tuple(sorted(mu, reverse=True))
    return GroupAlgebraElement(n, {p: Fraction(1) for p, t in typed_permutations(n)
                                   if t == mu})
