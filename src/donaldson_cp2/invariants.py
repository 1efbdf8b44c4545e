"""Donaldson coefficients of CP^2 and Darboux-configuration counts.

Darboux counts are the integrals c1(L)^i * s_{2n+2-i}(E tensor L) on
Hilb^{n+1}(P^2).  The coefficient q_{4n-3} is one of them times an exact
rational prefactor: 1/2^(5-n) times the count with i = 5-n for
2 <= n <= 5, and 2/5 times the count with i = 0 in the special case n = 6.
"""

from dataclasses import dataclass
from fractions import Fraction

from .engine import IntegralResult, IntegrandSpec, integrate


class OutOfRange(Exception):
    """Arguments outside the range the formulas are valid for."""


@dataclass(frozen=True)
class DonaldsonResult:
    n: int
    q: int
    raw_integral: Fraction
    prefactor: Fraction
    detail: IntegralResult


@dataclass(frozen=True)
class DarbouxCount:
    n: int
    i: int
    count: int
    validated: bool  # False for n > 6: beyond the published range
    detail: IntegralResult


def _as_integer(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise ArithmeticError(f"{what} is not an integer: {value}")
    return value.numerator


def donaldson_q(n: int, *, seed: int = 0) -> DonaldsonResult:
    """The Donaldson coefficient q_{4n-3} of CP^2, for 2 <= n <= 6: a
    prefactor times a Darboux count.  For n <= 5 it is 1/2^(5-n) times
    darboux_count(n, 5-n); at n = 6 it is 2/5 times darboux_count(6, 0).

    The n = 6 prefactor is a special case and the formula must not be
    extrapolated past it.
    """
    if not 2 <= n <= 6:
        raise OutOfRange(f"donaldson_q requires 2 <= n <= 6, got {n}")
    prefactor = Fraction(1, 2 ** (5 - n)) if n <= 5 else Fraction(2, 5)
    row = darboux_count(n, max(5 - n, 0), seed=seed)
    q = _as_integer(prefactor * row.count, f"q_{4 * n - 3}")
    return DonaldsonResult(n, q, row.detail.value, prefactor, row.detail)


def darboux_count(n: int, i: int, *, seed: int = 0) -> DarbouxCount:
    """Number of Darboux configurations (Pi, C) with the (n+1)-gon Pi
    through i given points and the degree-n curve C through 3n+2-i given
    points, counted on the compactification."""
    if n < 2:
        raise OutOfRange(f"darboux_count requires n >= 2, got {n}")
    if not 0 <= i <= 2 * n + 2:
        raise OutOfRange(f"darboux_count requires 0 <= i <= {2 * n + 2}, got {i}")
    result = integrate(n + 1, IntegrandSpec(i=i, k=2 * n + 2 - i), seed=seed)
    count = _as_integer(result.value, f"darboux count (n={n}, i={i})")
    return DarbouxCount(n, i, count, validated=n <= 6, detail=result)


def invariant_table(n_max: int, *, darboux_n: tuple[int, ...] = (),
                    seed: int = 0):
    """Donaldson rows for 2 <= n <= n_max, plus full Darboux rows (all i)
    for each n listed in darboux_n.  Deterministic for a fixed seed."""
    if not 2 <= n_max <= 6:
        raise OutOfRange(f"invariant_table requires 2 <= n_max <= 6, got {n_max}")
    rows: list = [donaldson_q(n, seed=seed) for n in range(2, n_max + 1)]
    for n in darboux_n:
        for i in range(2 * n + 3):
            rows.append(darboux_count(n, i, seed=seed))
    return rows
