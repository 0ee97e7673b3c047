"""Shared test helpers."""

from fractions import Fraction


def distinct_rationals(rng, k: int, spread: int = 40) -> list:
    """k pairwise distinct rationals with all pairwise differences != 1,
    drawn from the ``SeededRandom`` rng."""
    out = []
    while len(out) < k:
        q = Fraction(rng.integer(-spread, spread), rng.integer(1, 3))
        if all(q != z and abs(q - z) != 1 for z in out):
            out.append(q)
    return out
