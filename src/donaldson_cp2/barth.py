"""Exact construction of the determinantal curve attached to a
non-split extension over a finite point set, and the Darboux incidence
checks it must satisfy.

Given n+1 points of P^2 in general position (no three collinear) and a
nonzero extension vector, the curve of exceptional lines is the
determinant of multiplication by a variable linear form between two
explicit n-dimensional spaces: the kernel of the extension functional on
functions-on-Z twisted by O(-1), and functions-on-Z modulo constants.
The result is a degree-n curve in the dual plane passing through every
intersection point of the dual lines of the configuration.  Everything
is computed over the integers: `clear_denominators` scales rational input
once, and `rank_mod_p` certifies the system dimension.  Of the package,
the module imports only the record base, `_Record`, from the package root.
"""

import random
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm, prod
from operator import mul
from struct import Struct

from . import _Record

Point = tuple[int, int, int]

COORD_RANGE = 30  # sampled coordinates lie in [-COORD_RANGE, COORD_RANGE]
MAX_TRIES = 1000  # configurations drawn before sampling gives up
# Largest n sampled.  Every seed tried succeeds up to n = 29, but one witness
# (sample, curve, incidence and rank) took 0.11-0.19 s at n = 24, mean
# 0.15 s, and 0.26-0.55 s at n = 29, up to 0.08 s of it redraws (seeds 0-9,
# two rounds of fresh processes, a 2-core box, Python 3.11); the curve is
# 0.9-2.9 ms of it, incidence with the node matrix 31-52 ms at n = 24 and
# the rank most of the rest.
MAX_N = 24

P = 2**26 - 5  # the largest prime below 2**26; see rank_mod_p
_WIDTH = 64  # bits per slot, one struct "Q"
_LOW_BITS = P.bit_length()  # 26: the part of a slot a fold keeps in place
_FOLD = 2**_LOW_BITS - P  # 5 = 2**26 modulo P: what a fold multiplies the rest by
MAX_MOD_P_ROWS = 2**11  # rank_mod_p's slots hold fewer rows than this


class SamplingExhausted(ArithmeticError):
    """Random sampling failed to produce a generic object."""


class DegenerateDatum(ArithmeticError):
    """The determinant vanished identically; the extension is non-generic."""


def clear_denominators(row) -> list[int]:
    """Scale a row of ints or Fractions to integers by the lcm of denominators."""
    for j, x in enumerate(row):
        if isinstance(x, float):
            raise TypeError(f"entry {j} is the float {x!r}, not an exact int or Fraction")
    ratios = [x.as_integer_ratio() for x in row]
    scale = lcm(*(d for _, d in ratios))
    return [n * (scale // d) for n, d in ratios]


def _cross(p: Point, q: Point) -> Point:
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def _node_class(node: Point):
    """The node over its signed gcd, so that proportional nodes share one
    class, with a positive first nonzero coordinate; None at a zero node."""
    a, b, c = node
    g = gcd(a, b, c) if (a or b or c) > 0 else -gcd(a, b, c)
    return (a // g, b // g, c // g) if g else None


@lru_cache(maxsize=1)
def _generic_nodes(points):
    """The nodes of a generic configuration, one cross product per pair p
    < q in `nodes` order, or None as soon as one node is zero or repeats
    the class of an earlier one.

    That one scan decides genericity.  The cross product of p and q is
    zero exactly when they name the same point; otherwise it is the line
    through them.  Two pairs of distinct points give proportional nodes
    exactly when they span one line, and two pairs on one line put three
    distinct points on it, as the pairs share at most one point.
    Conversely, three collinear points p, q, r give the proportional nodes
    of p, q and of p, r.  So the points are generic, pairwise distinct with
    no three collinear, iff every node is nonzero and no two are
    proportional.  Sampling and the node matrix read the same points, so
    the last answer is kept and shared, hence a tuple."""
    nodes, classes = [], set()
    for p, q in combinations(points, 2):
        node = _cross(p, q)
        key = _node_class(node)
        if key is None or key in classes:
            return None
        classes.add(key)
        nodes.append(node)
    return tuple(nodes)


class PlaneConfiguration(_Record):
    """n+1 points of P^2 in general position; their dual lines form the
    polygon whose nodes the determinantal curve must pass through.  A
    point is projective, so rational coordinates are scaled once, here,
    to an integer vector naming the same point."""

    __slots__ = ()

    def __new__(cls, points):
        points = tuple(tuple(clear_denominators(p)) for p in points)
        if not points:
            raise ValueError("a configuration has at least one point")
        if any(len(p) != 3 or not any(p) for p in points):
            raise ValueError("a point of P^2 is a nonzero vector of three coordinates")
        return tuple.__new__(cls, (points,))

    @property
    def n(self) -> int:
        return len(self.points) - 1

    def nodes(self) -> list[Point]:
        """Pairwise intersections of the dual lines, n(n+1)/2 points."""
        return [_cross(p, q) for p, q in combinations(self.points, 2)]

    def is_generic(self) -> bool:
        """True iff no two points are projectively equal and no three are
        collinear, so that no three dual lines are concurrent."""
        return _generic_nodes(self.points) is not None


class HulsbergenDatum(_Record):
    """A configuration and an extension vector, one entry per point.  The
    curve does not change when the extension is scaled, so a rational
    extension is scaled once, here, to an integer vector."""

    __slots__ = ()

    def __new__(cls, config, extension):
        if len(extension) != len(config.points):
            raise ValueError("extension length must be n+1")
        if all(e == 0 for e in extension):
            raise ValueError("extension vector must be nonzero (non-split)")
        return tuple.__new__(cls, (config, tuple(clear_denominators(extension))))


def monomials(degree: int) -> list[tuple[int, int, int]]:
    """Exponent triples of the degree-d monomials in the dual coordinates,
    in a fixed (lexicographic, first exponent descending) order."""
    return [
        (i, j, degree - i - j)
        for i in range(degree, -1, -1)
        for j in range(degree - i, -1, -1)
    ]


def monomial_values(degree: int, point) -> list:
    """Every degree-d monomial at a point, in monomials order: row 0 of
    `_monomial_rows` at that point alone."""
    return list(_monomial_rows(degree, [point])[0])


class PlaneCurve(_Record):
    """A nonzero degree-d form on the dual plane, coefficients in the
    monomials(degree) order, primitive integers up to sign."""

    __slots__ = ()

    def __new__(cls, degree, coefficients):
        if degree < 0 or len(coefficients) != (degree + 1) * (degree + 2) // 2:
            raise ValueError("a degree-d form has (d+1)(d+2)/2 coefficients, d >= 0")
        if not any(coefficients):
            raise ValueError("a plane curve is a nonzero form")
        return tuple.__new__(cls, (degree, coefficients))

    def evaluate(self, line):
        """The form at a line, exactly: an int at an integer line and a
        rational at a rational one."""
        return sum(c * v for c, v in zip(self.coefficients,
                                         monomial_values(self.degree, line)) if c)


def sample_configuration(n: int, seed: int) -> PlaneConfiguration:
    """n+1 random small-integer points satisfying the genericity
    condition; deterministic per seed."""
    if not 2 <= n <= MAX_N:
        raise ValueError(f"n must be in 2..{MAX_N}, got {n}")
    rng = random.Random(seed)
    for _ in range(MAX_TRIES):
        points = tuple(
            (rng.randint(-COORD_RANGE, COORD_RANGE),
             rng.randint(-COORD_RANGE, COORD_RANGE),
             1)
            for _ in range(n + 1)
        )
        if _generic_nodes(points) is not None:
            return PlaneConfiguration(points)
    raise SamplingExhausted(f"no generic configuration in {MAX_TRIES} tries")


def sample_datum(n: int, seed: int) -> HulsbergenDatum:
    """A generic configuration plus a random nonzero extension vector."""
    config = sample_configuration(n, seed)
    rng = random.Random(seed ^ 0x5EED)
    while True:
        ext = tuple(rng.randint(-9, 9) for _ in range(n + 1))
        if any(e != 0 for e in ext):
            return HulsbergenDatum(config, ext)


def barth_curve(datum: HulsbergenDatum) -> PlaneCurve:
    """The degree-n determinantal curve of the datum.

    The multiplication-by-ell map sends a vector s in the kernel of the
    extension functional to the vector (ell(zhat_j) * s_j), read modulo
    constants, with zhat_j = z_j / f_j and f_j the first nonzero
    coordinate of z_j; its determinant is a degree-n form in ell.  The map
    is P * diag(ell(zhat_j)) * K, with K the kernel basis as columns and
    P the difference matrix, row r equal to e_r - e_0.  By Cauchy-Binet,
    and as prod_{i != j} ell(zhat_i) is f_j prod_{i != j} ell(z_i) over
    prod_i f_i, the determinant times prod_i f_i is the integer form

        sum_j det(P without column j) det(K without row j) f_j
              prod_{i != j} ell(z_i).

    P = [-1 | I_n], so det(P without column j) is (-1)^j: without column 0
    it is I_n, and without column j > 0, j - 1 swaps move the column of
    -1s to place j, where it is I_n's only changed column and contributes
    its diagonal -1.  K has the columns ext_p e_j - ext_j e_p (j != p),
    with p the first index of a nonzero ext_p, and its maximal minors are
    its Pluecker coordinates, det(K without row j) = (-1)^(p+j)
    ext_p^(n-1) ext_j: without row p it is ext_p I_n, and without row
    j != p column j keeps only its entry -ext_j in row p, whose cofactor
    is ext_p I_(n-1).  The constant (-1)^p ext_p^(n-1) drops out in the
    normalization, so the curve is

        sum_j ext_j f_j prod_{i != j} ell(z_i),

    made primitive with a positive leading coefficient; no determinant is
    taken.

    The sum is swept over the points with every form held as one int, a
    Kronecker substitution: the coefficient of x0^i x1^j x2^k sits in the
    signed slot j + (n+1) k, W bits wide, so that multiplying by
    ell = (a, b, c) is a F + (b F << W) + (c F << W (n+1)).  Each
    coefficient of a product of linear forms is at most the product of
    their l1 norms, so every coefficient of every partial product is at
    most prod_i ||z_i||_1, and every coefficient of every partial sum at
    most sum_j |ext_j f_j| times that.  W is that bound's bit length plus
    a sign bit, so each slot holds its coefficient in [-2^(W-1), 2^(W-1)).
    The int arithmetic is exact for any W; the width matters only when
    the slots are read back, after 2^(W-1) is added to each of them.
    """
    n, points = datum.config.n, datum.config.points
    weights = [e * next(c for c in p if c != 0) for e, p in zip(datum.extension, points)]
    bound = sum(map(abs, weights)) * prod(abs(a) + abs(b) + abs(c) for a, b, c in points)
    width = bound.bit_length() + 1
    row = width * (n + 1)  # the shift that raises the x2 exponent by one

    def times(form, line):
        a, b, c = line
        return a * form + (b * form << width) + (c * form << row)

    # one sweep: after point j, total is the sum above restricted to the
    # points 0..j, and product is prod_{i <= j} ell(z_i); the last product,
    # of degree n + 1, is never read
    total, product = 0, 1
    for weight, point in zip(weights, points):
        total = times(total, point) + weight * product
        product = times(product, point)
    if not total:
        raise DegenerateDatum("determinant vanishes identically")

    # read back: with half added to every slot, each slot holds its
    # coefficient plus half, in [0, 2^W); ones, a 1 in every slot, is
    # (2^(W slots) - 1) / (2^W - 1), an exact division
    half = 1 << width - 1
    slots = (n + 1) ** 2
    ones = ((1 << width * slots) - 1) // ((1 << width) - 1)
    biased = total + half * ones
    rows = [biased >> row * k & (1 << row) - 1 for k in range(n + 1)]
    mask = (1 << width) - 1
    coefficients = [(rows[k] >> width * j & mask) - half for _, j, k in monomials(n)]

    # primitive, with a positive leading coefficient
    lead = next(v for v in coefficients if v != 0)
    g = gcd(*coefficients) if lead > 0 else -gcd(*coefficients)
    return PlaneCurve(n, tuple(v // g for v in coefficients))


def _powers(coords, degree: int) -> list[tuple]:
    """Powers 0..degree of every coordinate at once: entry k is the tuple
    of the k-th powers, from c ** 0, which keeps each coordinate's type."""
    table = [tuple(c ** 0 for c in coords)]
    for _ in range(degree):
        table.append(tuple(map(mul, table[-1], coords)))
    return table


def _monomial_rows(degree: int, points) -> tuple:
    """One row per point, its degree-d monomials in monomials order,
    exact: built by columns, each monomial at every point at once from one
    `_powers` table per coordinate, and transposed."""
    x, y, z = (_powers([point[c] for point in points], degree) for c in range(3))
    return tuple(zip(*(map(mul, map(mul, x[i], y[j]), z[k])
                       for i, j, k in monomials(degree))))


@lru_cache(maxsize=1)
def _node_rows(config: PlaneConfiguration) -> tuple:
    """The node-evaluation matrix: `_monomial_rows` at one node per point
    of the dual plane.  A generic configuration keeps every node in order,
    as `_generic_nodes` found them.  Otherwise zero nodes (equal points)
    are dropped and, of proportional nodes (concurrent dual lines), the
    first is kept unscaled; the row at c * p is c**n times the row at p.
    Incidence and the system read the same configuration, so the last
    matrix is kept and shared, hence tuples."""
    nodes = _generic_nodes(config.points)
    if nodes is None:
        distinct = {}
        for node in config.nodes():
            key = _node_class(node)
            if key is not None:
                distinct.setdefault(key, node)
        nodes = list(distinct.values())
    return _monomial_rows(config.n, nodes)


def verify_darboux(config: PlaneConfiguration, curve: PlaneCurve) -> bool:
    """True iff the curve vanishes at every node of the dual-line
    configuration (exact evaluation)."""
    if curve.degree != config.n:
        raise ValueError("curve degree must equal n")
    return all(sum(map(mul, curve.coefficients, row)) == 0 for row in _node_rows(config))


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


def darboux_system_dimension(config: PlaneConfiguration) -> int:
    """Projective dimension of the system of degree-n dual-plane curves
    through all nodes: C(n+2, 2) - 1 minus the number of distinct nodes
    (n(n+1)/2 when generic; one point has none, and its system is the one
    curve of degree 0).

    The distinct nodes of d <= n+1 distinct dual lines impose independent
    conditions on degree-n forms.  For a node s, the product of the lines
    not through s has degree at most d - 2 <= n - 1 and is nonzero at s;
    any other node lies on two or more lines, at most one through s, so
    the product vanishes there.  Times a power of a linear form nonzero at s,
    it is a degree-n form vanishing at every node but s.  Reduction modulo
    P can only lower a rank, so `rank_mod_p` equal to the row count
    certifies this; a lower one is a bug, or P dividing every maximal minor."""
    rows = _node_rows(config)
    if rank_mod_p(rows) != len(rows):
        raise ArithmeticError(f"{len(rows)} distinct node rows fall short of full rank modulo P")
    n = config.n
    return (n + 1) * (n + 2) // 2 - 1 - len(rows)
