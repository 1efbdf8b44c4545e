"""Fraction-free Bareiss elimination over the integers: determinants and
ranks.  It is the exact oracle that `verify` and the tests check against;
the witness in `barth` never loads it."""


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
