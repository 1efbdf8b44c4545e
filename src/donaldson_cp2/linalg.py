"""Exact linear algebra over the integers: fraction-free Bareiss
elimination for determinants and ranks, and a rank certified modulo a
prime that falls back to Bareiss when the certificate fails."""

from fractions import Fraction
from math import lcm

P = 2**61 - 1  # a Mersenne prime


def clear_denominators(row) -> list[int]:
    """Scale a row of Fractions/ints to integers by the lcm of denominators."""
    fracs = [Fraction(x) for x in row]
    scale = lcm(*(x.denominator for x in fracs))
    return [int(x * scale) for x in fracs]


def _eliminate(matrix) -> tuple[int, int, int]:
    """Bareiss fraction-free Gaussian elimination of an integer matrix.
    All intermediate entries stay integral.

    Returns (rank, sign, last pivot), where sign is that of the row
    permutation; for a square matrix of full rank, sign * last pivot is
    the determinant.
    """
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if m else 0
    rank, sign, prev = 0, 1, 1
    for c in range(cols):
        if rank == rows:
            break
        pivot = next((j for j in range(rank, rows) if m[j][c] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        for j in range(rank + 1, rows):
            for cc in range(c + 1, cols):
                m[j][cc] = (m[rank][c] * m[j][cc] - m[j][c] * m[rank][cc]) // prev
            m[j][c] = 0
        prev = m[rank][c]
        rank += 1
    return rank, sign, prev


def bareiss_rank(matrix) -> int:
    """Rank of an integer matrix by Bareiss elimination."""
    return _eliminate(matrix)[0]


def bareiss_det(matrix) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("matrix must be square")
    rank, sign, last = _eliminate(matrix)
    return sign * last if rank == len(matrix) else 0


def _rank_mod_p(matrix) -> int:
    """Rank of an integer matrix reduced modulo P, by Gaussian elimination
    over F_P."""
    m = [[x % P for x in row] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if m else 0
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        pivot = next((j for j in range(rank, rows) if m[j][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inverse = pow(m[rank][c], -1, P)
        top = [x * inverse % P for x in m[rank][c + 1:]]
        for j in range(rank + 1, rows):
            f = m[j][c]
            if f:
                m[j][c + 1:] = [(x - f * t) % P for x, t in zip(m[j][c + 1:], top)]
        rank += 1
    return rank


def rank(matrix) -> int:
    """Exact rank of an integer matrix.

    Reduction modulo P is a ring map, so every minor that vanishes over Z
    vanishes modulo P, and the rank modulo P is at most the rank over Q,
    which is at most min(rows, cols).  A full rank modulo P is therefore
    the exact rank; anything less falls back to Bareiss elimination over Z,
    so the result never depends on the choice of P.
    """
    full = min(len(matrix), len(matrix[0]) if matrix else 0)
    if _rank_mod_p(matrix) == full:
        return full
    return bareiss_rank(matrix)
