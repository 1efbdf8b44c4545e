"""The per-fixed-point evaluation of the fixed-point formula: the oracle
the tests check the engine's chart sum against.

At each torus-fixed point of Hilb^m(P^2) it builds the tangent weights,
the E-weights and the weight of L as integer linear forms in the torus
parameters, in the chart frames of `donaldson_cp2.weights`, and inverts
the fixed point's Chern series.  Summing `integrand_at` over
`enumerate_fixed_points(m)` gives what `engine.fixed_point_sum` gives
chart by chart.
"""

from fractions import Fraction

from donaldson_cp2.engine import IntegrandSpec, Specialization
from donaldson_cp2.partitions import FixedPoint, cells
from donaldson_cp2.weights import (
    DEFAULT_FRAMES,
    ZERO,
    DegenerateSpecialization,
    WeightForm,
)


def tangent_weights(fp: FixedPoint, frames=DEFAULT_FRAMES) -> list[WeightForm]:
    """Tangent weights of Hilb^m(P^2) at fp, 2m forms in total.

    In a chart with coordinate weights (u, v), each cell s of the
    chart's partition contributes (arm(s)+1)*u - leg(s)*v and
    -arm(s)*u + (leg(s)+1)*v.
    """
    out = []
    for frame, mu in zip(frames, fp.mu):
        u, v = frame.coord_weights
        for s in cells(mu):
            out.append(u.scale(s.arm + 1) - v.scale(s.leg))
            out.append(v.scale(s.leg + 1) - u.scale(s.arm))
    return out


def oz_weights(fp: FixedPoint, twist: int, frames=DEFAULT_FRAMES) -> list[WeightForm]:
    """Character forms of the m-dimensional space of functions on the
    subscheme, twisted by O(twist).  Cell (r, c) in a chart with
    coordinate weights (u, v) gives c*u + r*v + twist*line_weight.
    """
    out = []
    for frame, mu in zip(frames, fp.mu):
        u, v = frame.coord_weights
        lw = frame.line_weight.scale(twist)
        for s in cells(mu):
            out.append(u.scale(s.col) + v.scale(s.row) + lw)
    return out


def e_weights(fp: FixedPoint, frames=DEFAULT_FRAMES) -> list[WeightForm]:
    """Fiber weights of the rank-m tautological bundle E at fp.

    E is the first derived pushforward of the twisted universal ideal
    sheaf; its fiber is identified with the functions on the subscheme
    twisted by O(-1).
    """
    return oz_weights(fp, -1, frames)


def lambda_weight(fp: FixedPoint, frames=DEFAULT_FRAMES) -> WeightForm:
    """Weight of c1(L) at fp, L = det(G) tensor det(E)^-1.

    The cell terms of the untwisted and twisted function spaces cancel,
    leaving sum over charts of |partition| * line_weight.
    """
    total = ZERO
    for frame, mu in zip(frames, fp.mu):
        total = total + frame.line_weight.scale(mu.size)
    return total


def euler_class(fp: FixedPoint, w1: int, w2: int, frames=DEFAULT_FRAMES) -> int:
    """Product of the specialized tangent weights at fp.

    Raises DegenerateSpecialization if any weight vanishes at (w1, w2).
    """
    prod = 1
    for form in tangent_weights(fp, frames):
        val = form.evaluate(w1, w2)
        if val == 0:
            raise DegenerateSpecialization(
                f"tangent weight {form.a}*w1+{form.b}*w2 vanishes at ({w1}, {w2})"
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


def integrand_at(fp: FixedPoint, spec: Specialization, integrand: IntegrandSpec,
                 frames=DEFAULT_FRAMES) -> Fraction:
    """Summand of the fixed-point formula at a single fixed point.

    The reference for `fixed_point_sum`: it builds the fixed point's
    weight forms and inverts its Chern series.  Raises
    DegenerateSpecialization if a tangent weight vanishes at spec.
    """
    w1, w2 = spec.w1, spec.w2
    euler = euler_class(fp, w1, w2, frames)
    lam = lambda_weight(fp, frames).evaluate(w1, w2)
    # Segre roots carry the dual characters -(e_j + lambda); this is the
    # sign convention under which the five published Donaldson values
    # come out right, and it is pinned by the acceptance suite.
    roots = [-(form.evaluate(w1, w2) + lam) for form in e_weights(fp, frames)]
    k = integrand.k
    chern = elementary_symmetric(roots, min(k, len(roots)))
    s = segre_coefficients(chern, k)
    return Fraction(lam**integrand.i * s[k], euler)
