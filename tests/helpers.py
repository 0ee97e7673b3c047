"""Shared test helpers."""

from fractions import Fraction

from snbethe.rings import UPoly


def distinct_rationals(rng, k: int, spread: int = 40) -> list:
    """k pairwise distinct rationals with all pairwise differences != 1,
    drawn from the ``SeededRandom`` rng."""
    out = []
    while len(out) < k:
        q = Fraction(rng.integer(-spread, spread), rng.integer(1, 3))
        if all(q != z and abs(q - z) != 1 for z in out):
            out.append(q)
    return out


def bivariate(rows):
    """The polynomial with coefficient rows[i][j] at u^i v^j: a UPoly in u
    whose every coefficient is a UPoly in v."""
    return UPoly([UPoly(r) for r in rows])


def coeff_uv(p, i: int, j: int):
    """The coefficient of u^i v^j of a polynomial in u over polynomials in v,
    0 beyond either degree."""
    return p.coeff(i).coeff(j) if 0 <= i <= p.degree else 0


def v_coeff(p, j: int):
    """The coefficient of v^j of a polynomial in u over polynomials in v, as
    a polynomial in u."""
    return UPoly([c.coeff(j) for c in p.coeffs])


def lift_u(p):
    """A polynomial in u read as one in u over polynomials in v."""
    return p.map_coeffs(lambda c: UPoly([c]))
