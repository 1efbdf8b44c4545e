"""The torus convention on P^2: the equivariant frames of its three fixed
charts, from which the engine builds its chart tables.

A weight is an integer linear form a*w1 + b*w2 in the two torus
parameters.  The torus acts by t.[x0:x1:x2] = [x0 : t1*x1 : t2*x2]; the
local coordinates at the three fixed charts of P^2 then carry the
characters (w1, w2), (-w1, w2-w1), (-w2, w1-w2).  The section basis
{x0, x1, x2} of O(1) carries characters {0, w1, w2}, and each chart is
trivialized by the section not vanishing there, whose character is the
chart's line weight.
"""

from dataclasses import dataclass


class DegenerateSpecialization(ArithmeticError):
    """A tangent weight specialized to zero."""


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


ZERO = WeightForm(0, 0)
W1 = WeightForm(1, 0)
W2 = WeightForm(0, 1)


@dataclass(frozen=True)
class ChartFrame:
    """Local equivariant data of one fixed chart of P^2."""

    coord_weights: tuple[WeightForm, WeightForm]
    line_weight: WeightForm


def chart_frames(shift: WeightForm = ZERO) -> tuple[ChartFrame, ChartFrame, ChartFrame]:
    """The three chart frames, with the O(1) linearization shifted by a
    global character.  The shift changes every line weight but no
    coordinate weight; well-formed integrals are insensitive to it.
    """
    return (
        ChartFrame((W1, W2), ZERO + shift),
        ChartFrame((-W1, W2 - W1), W1 + shift),
        ChartFrame((-W2, W1 - W2), W2 + shift),
    )


DEFAULT_FRAMES = chart_frames()
