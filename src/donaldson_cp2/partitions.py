"""Integer partitions and triples of partitions indexing the torus-fixed
points of the Hilbert scheme of points on the projective plane.

A length-m subscheme of P^2 fixed by the diagonal 2-torus is a disjoint
union of monomial-ideal subschemes supported at the three coordinate
points, so fixed points are triples of partitions with total size m.
"""

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, NamedTuple


class Cell(NamedTuple):
    """A box of a Young diagram with its arm and leg lengths."""

    row: int
    col: int
    arm: int
    leg: int


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers (empty allowed)."""

    parts: tuple[int, ...]

    def __post_init__(self):
        for j in range(len(self.parts) - 1):
            if self.parts[j] < self.parts[j + 1]:
                raise ValueError(f"parts not weakly decreasing: {self.parts}")
        if self.parts and self.parts[-1] <= 0:
            raise ValueError(f"parts must be positive: {self.parts}")

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)


EMPTY = Partition(())


def cells(p: Partition) -> list[Cell]:
    """All cells of the Young diagram of p, row by row.

    Cell (r, c) exists when c < parts[r].  The arm counts cells strictly
    to the right in the same row, the leg cells strictly below in the
    same column.
    """
    parts = p.parts
    # heights[c]: the number of rows longer than c, the height of column c
    heights = [sum(pr > c for pr in parts) for c in range(parts[0] if parts else 0)]
    return [Cell(r, c, pr - c - 1, heights[c] - r - 1)
            for r, pr in enumerate(parts) for c in range(pr)]


@lru_cache(maxsize=None)
def _partition_tuples(m: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if m == 0:
        return ((),)
    out = []
    for first in range(min(m, max_part), 0, -1):
        for rest in _partition_tuples(m - first, first):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_partitions(m: int) -> list[Partition]:
    """All partitions of m in reverse-lexicographic order.

    The order is deterministic: (m) first, (1,...,1) last.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return [Partition(t) for t in _partition_tuples(m, m)]


@dataclass(frozen=True)
class FixedPoint:
    """A torus-fixed point of Hilb^m(P^2): one partition per coordinate chart."""

    mu: tuple[Partition, Partition, Partition]

    @property
    def size(self) -> int:
        return sum(p.size for p in self.mu)


def enumerate_fixed_points(m: int) -> list[FixedPoint]:
    """All fixed points of Hilb^m(P^2) in a fixed deterministic order.

    Chart sizes (a, b, c) with a+b+c = m are iterated lexicographically,
    partitions within a chart in reverse-lexicographic order.  The count
    is the q^m coefficient of prod_k (1-q^k)^-3.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = []
    for a in range(m + 1):
        for b in range(m - a + 1):
            c = m - a - b
            for p0 in enumerate_partitions(a):
                for p1 in enumerate_partitions(b):
                    for p2 in enumerate_partitions(c):
                        out.append(FixedPoint((p0, p1, p2)))
    return out
