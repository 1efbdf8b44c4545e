"""Equivariant weight data at torus-fixed points of Hilb^m(P^2).

All weights are integer linear forms a*w1 + b*w2 in the two torus
parameters.  The torus acts by t.[x0:x1:x2] = [x0 : t1*x1 : t2*x2]; the
local coordinates at the three fixed charts of P^2 then carry the
characters (w1, w2), (-w1, w2-w1), (-w2, w1-w2).  The section basis
{x0, x1, x2} of O(1) carries characters {0, w1, w2}, and each chart is
trivialized by the section not vanishing there.
"""

from dataclasses import dataclass

from .partitions import FixedPoint, cells


class DegenerateSpecialization(Exception):
    """A tangent weight specialized to zero; the caller should resample."""


@dataclass(frozen=True)
class WeightForm:
    """The integer linear form a*w1 + b*w2."""

    a: int
    b: int

    def __add__(self, other: "WeightForm") -> "WeightForm":
        return WeightForm(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "WeightForm") -> "WeightForm":
        return WeightForm(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "WeightForm":
        return WeightForm(-self.a, -self.b)

    def scale(self, k: int) -> "WeightForm":
        return WeightForm(k * self.a, k * self.b)

    def evaluate(self, w1: int, w2: int) -> int:
        return self.a * w1 + self.b * w2

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0


ZERO = WeightForm(0, 0)
W1 = WeightForm(1, 0)
W2 = WeightForm(0, 1)


@dataclass(frozen=True)
class ChartFrame:
    """Local equivariant data of one fixed chart of P^2."""

    chart: int
    coord_weights: tuple[WeightForm, WeightForm]
    line_weight: WeightForm


def chart_frames(shift: WeightForm = ZERO) -> tuple[ChartFrame, ChartFrame, ChartFrame]:
    """The three chart frames, with the O(1) linearization shifted by a
    global character.  The shift changes every line weight but no
    coordinate weight; well-formed integrals are insensitive to it.
    """
    return (
        ChartFrame(0, (W1, W2), ZERO + shift),
        ChartFrame(1, (-W1, W2 - W1), W1 + shift),
        ChartFrame(2, (-W2, W1 - W2), W2 + shift),
    )


DEFAULT_FRAMES = chart_frames()


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
