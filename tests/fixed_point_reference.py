"""The per-fixed-point evaluation of the fixed-point formula: the oracle
the tests check the engine's chart sum against.

It lists the fixed points of Hilb^m(P^2), triples of partitions (tuples)
of total size m, by its own recursion, apart from the engine's.  At each
it builds the tangent weights, the E-weights and the weight of L as
integer forms (a, b), meaning a*w1 + b*w2, in the chart frames
(u, v, line) of `engine.chart_frames`, and inverts the fixed point's
Chern series.  Summing `integrand_at` over `enumerate_fixed_points(m)`
gives what `engine.fixed_point_sum` gives chart by chart.
"""

from fractions import Fraction

from donaldson_cp2.engine import (
    DEFAULT_FRAMES,
    DegenerateSpecialization,
    IntegrandSpec,
    Specialization,
)

ZERO = (0, 0)


def form(x: int, f, y: int, g):
    """The weight form x*f + y*g."""
    return (x * f[0] + y * g[0], x * f[1] + y * g[1])


def evaluate(f, w1: int, w2: int) -> int:
    """The form f = (a, b) at the torus parameters: a*w1 + b*w2."""
    return f[0] * w1 + f[1] * w2


def enumerate_partitions(m: int, max_part=None) -> list[tuple[int, ...]]:
    """All partitions of m, parts at most max_part (default m), in
    reverse-lexicographic order: (m) first, (1,...,1) last."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m == 0:
        return [()]
    top = m if max_part is None else min(m, max_part)
    return [(first,) + rest for first in range(top, 0, -1)
            for rest in enumerate_partitions(m - first, first)]


def enumerate_fixed_points(m: int) -> list[tuple[tuple[int, ...], ...]]:
    """All fixed points of Hilb^m(P^2), one partition per chart.

    Chart sizes (a, b, c) with a+b+c = m are iterated lexicographically,
    partitions within a chart in reverse-lexicographic order.  The count
    is the q^m coefficient of prod_k (1-q^k)^-3.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return [(p0, p1, p2)
            for a in range(m + 1) for b in range(m - a + 1)
            for p0 in enumerate_partitions(a)
            for p1 in enumerate_partitions(b)
            for p2 in enumerate_partitions(m - a - b)]


def cells(p) -> list[tuple[int, int, int, int]]:
    """(row, col, arm, leg) of every cell of the Young diagram of p, row
    by row.  Cell (r, c) exists when c < p[r]; the arm counts the cells
    strictly to its right, the leg the cells strictly below it."""
    return [(r, c, part - c - 1, sum(1 for below in p[r + 1:] if below > c))
            for r, part in enumerate(p) for c in range(part)]


def tangent_weights(fp, frames=DEFAULT_FRAMES) -> list:
    """Tangent weights of Hilb^m(P^2) at fp, 2m forms in total.

    In a chart with coordinate weights (u, v), each cell s of the
    chart's partition contributes (arm(s)+1)*u - leg(s)*v and
    -arm(s)*u + (leg(s)+1)*v.
    """
    return [w for (u, v, _), mu in zip(frames, fp) for _, _, arm, leg in cells(mu)
            for w in (form(arm + 1, u, -leg, v), form(leg + 1, v, -arm, u))]


def oz_weights(fp, twist: int, frames=DEFAULT_FRAMES) -> list:
    """Character forms of the m-dimensional space of functions on the
    subscheme, twisted by O(twist).  Cell (r, c) in a chart with
    coordinate weights (u, v) gives c*u + r*v + twist*line.
    """
    return [form(1, form(col, u, row, v), twist, line)
            for (u, v, line), mu in zip(frames, fp)
            for row, col, _, _ in cells(mu)]


def e_weights(fp, frames=DEFAULT_FRAMES) -> list:
    """Fiber weights of the rank-m tautological bundle E at fp.

    E is the first derived pushforward of the twisted universal ideal
    sheaf; its fiber is identified with the functions on the subscheme
    twisted by O(-1).
    """
    return oz_weights(fp, -1, frames)


def lambda_weight(fp, frames=DEFAULT_FRAMES):
    """Weight of c1(L) at fp, L = det(G) tensor det(E)^-1.

    The cell terms of the untwisted and twisted function spaces cancel,
    leaving sum over charts of |partition| * line.
    """
    total = ZERO
    for (_, _, line), mu in zip(frames, fp):
        total = form(1, total, sum(mu), line)
    return total


def euler_class(fp, w1: int, w2: int, frames=DEFAULT_FRAMES) -> int:
    """Product of the specialized tangent weights at fp.

    Raises DegenerateSpecialization if any weight vanishes at (w1, w2).
    """
    prod = 1
    for f in tangent_weights(fp, frames):
        val = evaluate(f, w1, w2)
        if val == 0:
            raise DegenerateSpecialization(
                f"tangent weight {f[0]}*w1+{f[1]}*w2 vanishes at ({w1}, {w2})"
            )
        prod *= val
    return prod


def elementary_symmetric(values, up_to: int):
    """e_0 = 1 through e_{up_to} of the given values, by the one-pass
    recurrence.  Exact for int or Fraction inputs."""
    if up_to > len(values):
        raise ValueError("up_to exceeds the number of values")
    e = [1] + [0] * up_to
    for x in values:
        for j in range(up_to, 0, -1):
            e[j] += e[j - 1] * x
    return e


def segre_coefficients(chern, k: int):
    """s_0 through s_k of a bundle with total Chern class given by the
    coefficient list chern (chern[0] must be 1).

    Inverts the Chern series: s_j = -sum_{t=1..min(j, rank)} c_t s_{j-t}.
    """
    if chern[0] != 1:
        raise ValueError("chern[0] must be 1")
    rank = len(chern) - 1
    s = [1] + [0] * k
    for j in range(1, k + 1):
        acc = 0
        for t in range(1, min(j, rank) + 1):
            acc += chern[t] * s[j - t]
        s[j] = -acc
    return s


def integrand_at(fp, spec: Specialization, integrand: IntegrandSpec,
                 frames=DEFAULT_FRAMES) -> Fraction:
    """Summand of the fixed-point formula at a single fixed point.

    The reference for `fixed_point_sum`: it builds the fixed point's
    weight forms and inverts its Chern series.  Raises
    DegenerateSpecialization if a tangent weight vanishes at spec.
    """
    w1, w2 = spec.w1, spec.w2
    euler = euler_class(fp, w1, w2, frames)
    lam = evaluate(lambda_weight(fp, frames), w1, w2)
    # Segre roots carry the dual characters -(e_j + lambda); this is the
    # sign convention under which the five published Donaldson values
    # come out right, and it is pinned by the acceptance suite.
    roots = [-(evaluate(f, w1, w2) + lam) for f in e_weights(fp, frames)]
    k = integrand.k
    chern = elementary_symmetric(roots, min(k, len(roots)))
    s = segre_coefficients(chern, k)
    return Fraction(lam**integrand.i * s[k], euler)
