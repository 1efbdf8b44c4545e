"""Exact construction of the determinantal curve attached to a
non-split extension over a finite point set, and the Darboux incidence
checks it must satisfy.

Given n+1 points of P^2 in general position (no three collinear) and a
nonzero extension vector, the curve of exceptional lines is the
determinant of multiplication by a variable linear form between two
explicit n-dimensional spaces: the kernel of the extension functional on
functions-on-Z twisted by O(-1), and functions-on-Z modulo constants.
The result is a degree-n curve in the dual plane passing through every
intersection point of the dual lines of the configuration.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd

from .linalg import bareiss_det, bareiss_rank, clear_denominators

Point = tuple[Fraction, Fraction, Fraction]


class SamplingExhausted(Exception):
    """Random sampling failed to produce a generic object."""


class DegenerateDatum(Exception):
    """The determinant vanished identically; the extension is non-generic."""


def _cross(p: Point, q: Point) -> Point:
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def _det3(p: Point, q: Point, r: Point) -> Fraction:
    return (
        p[0] * (q[1] * r[2] - q[2] * r[1])
        - p[1] * (q[0] * r[2] - q[2] * r[0])
        + p[2] * (q[0] * r[1] - q[1] * r[0])
    )


def _normalize(p: Point) -> Point:
    """Divide by the first nonvanishing coordinate (fixed trivialization
    of O(-1) at the point)."""
    for c in p:
        if c != 0:
            return tuple(x / c for x in p)  # type: ignore[return-value]
    raise ValueError("zero vector is not a projective point")


@dataclass(frozen=True)
class PlaneConfiguration:
    """n+1 points of P^2 in general position; their dual lines form the
    polygon whose nodes the determinantal curve must pass through."""

    points: tuple[Point, ...]

    @property
    def n(self) -> int:
        return len(self.points) - 1

    def nodes(self) -> list[Point]:
        """Pairwise intersections of the dual lines, n(n+1)/2 points."""
        return [_cross(p, q) for p, q in combinations(self.points, 2)]

    def is_generic(self) -> bool:
        for p, q in combinations(self.points, 2):
            if all(c == 0 for c in _cross(p, q)):
                return False  # projectively equal points
        for p, q, r in combinations(self.points, 3):
            if _det3(p, q, r) == 0:
                return False  # three collinear points / concurrent dual lines
        return True


@dataclass(frozen=True)
class HulsbergenDatum:
    config: PlaneConfiguration
    extension: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.extension) != len(self.config.points):
            raise ValueError("extension length must be n+1")
        if all(e == 0 for e in self.extension):
            raise ValueError("extension vector must be nonzero (non-split)")


def monomials(degree: int) -> list[tuple[int, int, int]]:
    """Exponent triples of the degree-d monomials in the dual coordinates,
    in a fixed (lexicographic, first exponent descending) order."""
    return [
        (i, j, degree - i - j)
        for i in range(degree, -1, -1)
        for j in range(degree - i, -1, -1)
    ]


@dataclass(frozen=True)
class PlaneCurve:
    """A nonzero degree-d form on the dual plane, coefficients in the
    monomials(degree) order, primitive integers up to sign."""

    degree: int
    coefficients: tuple[int, ...]

    def evaluate(self, line: Point) -> Fraction:
        total = Fraction(0)
        for (i, j, k), c in zip(monomials(self.degree), self.coefficients):
            if c:
                total += c * line[0] ** i * line[1] ** j * line[2] ** k
        return total


def sample_configuration(n: int, seed: int, coord_range: int = 30,
                         max_tries: int = 1000) -> PlaneConfiguration:
    """n+1 random small-integer points satisfying the genericity
    condition; deterministic per seed."""
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = random.Random(seed)
    for _ in range(max_tries):
        points = tuple(
            (Fraction(rng.randint(-coord_range, coord_range)),
             Fraction(rng.randint(-coord_range, coord_range)),
             Fraction(1))
            for _ in range(n + 1)
        )
        config = PlaneConfiguration(points)
        if config.is_generic():
            return config
    raise SamplingExhausted(f"no generic configuration in {max_tries} tries")


def sample_datum(n: int, seed: int) -> HulsbergenDatum:
    """A generic configuration plus a random nonzero extension vector."""
    config = sample_configuration(n, seed)
    rng = random.Random(seed ^ 0x5EED)
    while True:
        ext = tuple(Fraction(rng.randint(-9, 9)) for _ in range(n + 1))
        if any(e != 0 for e in ext):
            return HulsbergenDatum(config, ext)


def _expand_product(forms) -> list:
    """Coefficients, in monomials(len(forms)) order, of the product of
    the linear forms given by their coefficient triples."""
    poly = {(0, 0, 0): 1}
    for form in forms:
        product: dict = {}
        for (i, j, k), c in poly.items():
            for exp, a in zip(((i + 1, j, k), (i, j + 1, k), (i, j, k + 1)), form):
                product[exp] = product.get(exp, 0) + c * a
        poly = product
    return [poly.get(exp, 0) for exp in monomials(len(forms))]


def barth_curve(datum: HulsbergenDatum) -> PlaneCurve:
    """The degree-n determinantal curve of the datum.

    The multiplication-by-ell map sends a vector s in the kernel of the
    extension functional to the vector (ell(z_j) * s_j), read modulo
    constants; its determinant is a degree-n form in the coordinates of
    the variable line ell.  The map is P * diag(ell(zhat_j)) * K, with K
    the kernel basis as columns and P the difference matrix, row r equal
    to e_r - e_0; by Cauchy-Binet its determinant is

        sum_j det(P without column j) det(K without row j)
              prod_{i != j} ell(zhat_i).
    """
    config, ext = datum.config, datum.extension
    n = config.n
    zhat = [_normalize(p) for p in config.points]

    # basis of the kernel of s -> sum(ext_j * s_j), n columns in Z^{n+1};
    # scaling a column scales every maximal minor alike, so the
    # normalized curve does not depend on it
    pivot = next(j for j, e in enumerate(ext) if e != 0)
    kernel = []
    for j in range(n + 1):
        if j == pivot:
            continue
        vec = [Fraction(0)] * (n + 1)
        vec[j] = Fraction(1)
        vec[pivot] = -ext[j] / ext[pivot]
        kernel.append(clear_denominators(vec))
    differences = [[-1] + [int(c == r) for c in range(1, n + 1)]
                   for r in range(1, n + 1)]

    total = [Fraction(0)] * len(monomials(n))
    for j in range(n + 1):
        minor = (bareiss_det([row[:j] + row[j + 1:] for row in differences])
                 * bareiss_det([[vec[i] for vec in kernel]
                                for i in range(n + 1) if i != j]))
        if minor:
            product = _expand_product(zhat[:j] + zhat[j + 1:])
            total = [t + minor * c for t, c in zip(total, product)]
    if not any(total):
        raise DegenerateDatum("determinant vanishes identically")

    ints = clear_denominators(total)
    g = gcd(*ints)
    ints = [v // g for v in ints]
    lead = next(v for v in ints if v != 0)
    if lead < 0:
        ints = [-v for v in ints]
    return PlaneCurve(n, tuple(ints))


def verify_darboux(config: PlaneConfiguration, curve: PlaneCurve) -> bool:
    """True iff the curve vanishes at every node of the dual-line
    configuration (exact evaluation)."""
    if curve.degree != config.n:
        raise ValueError("curve degree must equal n")
    return all(curve.evaluate(node) == 0 for node in config.nodes())


def darboux_system_dimension(config: PlaneConfiguration) -> int:
    """Projective dimension of the system of degree-n dual-plane curves
    through all nodes, by exact rank of the node-evaluation matrix."""
    n = config.n
    mons = monomials(n)
    rows = []
    for node in config.nodes():
        row = [node[0] ** i * node[1] ** j * node[2] ** k for (i, j, k) in mons]
        rows.append(clear_denominators(row))
    rank = bareiss_rank(rows)
    return len(mons) - 1 - rank
