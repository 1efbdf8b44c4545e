"""Exact linear algebra over the integers: fraction-free Bareiss
elimination for determinants and ranks, and a rank modulo a prime that
eliminates whole rows packed into 64-bit slots; `rank_mod_p` derives why
no slot carries."""

from math import lcm
from struct import Struct

P = 2**26 - 5  # the largest prime below 2**26; see rank_mod_p
_WIDTH = 64  # bits per slot, one struct "Q"
_LOW_BITS = P.bit_length()  # 26: the part of a slot a fold keeps in place
_FOLD = 2**_LOW_BITS - P  # 5 = 2**26 modulo P: what a fold multiplies the rest by
MAX_MOD_P_ROWS = 2**11  # rank_mod_p's slots hold fewer rows than this


def clear_denominators(row) -> list[int]:
    """Scale a row of ints or Fractions to integers by the lcm of denominators."""
    for j, x in enumerate(row):
        if isinstance(x, float):
            raise TypeError(f"entry {j} is the float {x!r}, not an exact int or Fraction")
    ratios = [x.as_integer_ratio() for x in row]
    scale = lcm(*(d for _, d in ratios))
    return [n * (scale // d) for n, d in ratios]


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


def rank_mod_p(matrix) -> int:
    """Rank of an integer matrix reduced modulo P, by Gaussian elimination
    over F_P on packed rows.

    Each row is one int with a 64-bit slot per column, column 0 in the
    lowest slot, packed by one struct.pack of the row's residues modulo
    P.  Eliminating a row is one multiply-add on the whole row, row + (P -
    f) * top, where f is the row's entry in the pivot column and top the
    rest of the pivot row scaled by the pivot's inverse.  top is
    fold(fold(fold(fold(rest)) * inverse)), where fold(x) = (x & LOW) + 5
    * (x >> 26 & HIGH) replaces each slot s by (s mod 2**26) + 5 * (s >>
    26), the same class modulo P as 2**26 is 5 modulo P.  A slot of rest
    is below 2**64; one fold brings it below 2**26 + 5 * 2**38 < 2**41 and
    a second below 2**26 + 5 * 2**15 < 2 * P.  The multiply by inverse <
    P leaves it below 2 * P**2 < 2**53, and two more folds bring it below
    2**26 + 5 * 2**27 < 2**30 and then below 2**26 + 5 * 2**4 < 2 * P
    again.  A row takes at most one step per other row, each adding less
    than 2 * P**2 to a slot that started below P, so for fewer than
    MAX_MOD_P_ROWS = 2**11 rows a slot stays below P + rows * 2 * P**2 <
    2**64: it never goes negative and never carries into its neighbour.
    More rows are refused.  A slot is reduced modulo P only when it is
    read.  After each column every row drops its lowest slot, so the pivot
    column is always the lowest.
    """
    rows = len(matrix)
    if rows >= MAX_MOD_P_ROWS:
        raise ValueError(f"{rows} rows: the 64-bit slots hold fewer than {MAX_MOD_P_ROWS}")
    cols = len(matrix[0]) if matrix else 0
    mask = (1 << _WIDTH) - 1
    ones = ((1 << _WIDTH * cols) - 1) // mask  # a 1 in the lowest bit of every slot
    low = ones * ((1 << _LOW_BITS) - 1)
    high = ones * ((1 << _WIDTH - _LOW_BITS) - 1)

    def fold(x):
        return (x & low) + _FOLD * (x >> _LOW_BITS & high)

    pack = Struct(f"<{cols}Q").pack
    live = [int.from_bytes(pack(*map(P.__rmod__, row)), "little") for row in matrix]
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        factors = [(row & mask) % P for row in live]
        live = [row >> _WIDTH for row in live]
        pivot = next((j for j, f in enumerate(factors) if f), None)
        if pivot is None:
            continue
        inverse = pow(factors.pop(pivot), -1, P)
        top = fold(fold(fold(fold(live.pop(pivot))) * inverse))
        live = [row + (P - f) * top if f else row for row, f in zip(live, factors)]
        rank += 1
    return rank
