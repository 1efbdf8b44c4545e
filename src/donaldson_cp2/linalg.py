"""Exact linear algebra over the integers: fraction-free Bareiss
elimination for determinants and ranks, and a rank certified modulo a
prime that falls back to Bareiss when the certificate fails.

The modular rank packs each row into one int, one slot per column, of
width 2 * P.bit_length() + rows.bit_length() + 1 bits: a slot stays
below P + rows * P**2, so elimination never carries between slots."""

from math import lcm

P = 2**30 - 35  # the largest prime below 2**30: a reduced entry is one CPython digit


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


def _rank_mod_p(matrix) -> int:
    """Rank of an integer matrix reduced modulo P, by Gaussian elimination
    over F_P on packed rows.

    Each row is one int with a width-bit slot per column, column 0 in the
    lowest slot.  Eliminating a row is one multiply-add on the whole row,
    row + (P - f) * top, where f is the row's entry in the pivot column and
    top the rest of the pivot row, reduced and scaled by the pivot's
    inverse.  A row takes at most one such step per pivot, each adding
    less than P**2 to a slot that started below P, so a slot stays below
    P + rows * P**2 < 2**width: it never goes negative and never carries
    into its neighbour.  A slot is reduced modulo P only when it is read.
    After each column every row drops its lowest slot, so the pivot
    column is always the lowest.
    """
    rows = len(matrix)
    cols = len(matrix[0]) if matrix else 0
    width = 2 * P.bit_length() + rows.bit_length() + 1
    mask = (1 << width) - 1

    def pack(slots):
        return sum(x % P << width * k for k, x in enumerate(slots))

    live = [pack(row) for row in matrix]
    rank = 0
    for c in range(cols):
        if rank == rows:
            break
        factors = [(row & mask) % P for row in live]
        live = [row >> width for row in live]
        pivot = next((j for j, f in enumerate(factors) if f), None)
        if pivot is None:
            continue
        inverse = pow(factors.pop(pivot), -1, P)
        rest = live.pop(pivot)
        top = pack([(rest >> width * k & mask) * inverse for k in range(cols - c - 1)])
        live = [row + (P - f) * top if f else row for row, f in zip(live, factors)]
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
