"""Donaldson coefficients of CP^2 and Darboux-configuration counts.

Darboux counts are the integrals c1(L)^i * s_{2n+2-i}(E tensor L) on
Hilb^{n+1}(P^2).  The coefficient q_{4n-3} is one of them times an exact
rational prefactor: 1/2^(5-n) times the count with i = 5-n for
2 <= n <= 5, and 2/5 times the count with i = 0 in the special case n = 6.
A prefactor is held as the int pair (num, den), and q is one exact
integer division, so the module needs no `fractions`.
"""

from . import _Record
from .engine import IntegralResult, IntegrandSpec, integrate, integrate_by_m


class OutOfRange(ValueError):
    """Arguments outside the range the formulas are valid for."""


class DonaldsonResult(_Record):
    """q = raw_integral * num / den exactly, for prefactor = (num, den):
    a pair of ints in lowest terms with den > 0."""

    __slots__ = ()

    def __new__(cls, n, q, raw_integral, prefactor, detail):
        return tuple.__new__(cls, (n, q, raw_integral, prefactor, detail))


class DarbouxCount(_Record):
    """validated is False for n > 6: beyond the published range."""

    __slots__ = ()

    def __new__(cls, n, i, count, validated, detail):
        return tuple.__new__(cls, (n, i, count, validated, detail))


def _donaldson_rule(n: int) -> tuple[int, tuple[int, int]]:
    """The Darboux row (its i) behind q_{4n-3} and the prefactor on it."""
    if not 2 <= n <= 6:
        raise OutOfRange(f"donaldson_q requires 2 <= n <= 6, got {n}")
    if n <= 5:
        return 5 - n, (1, 2 ** (5 - n))
    return 0, (2, 5)


def _donaldson_result(n: int, prefactor: tuple[int, int],
                      row: DarbouxCount) -> DonaldsonResult:
    num, den = prefactor
    q, remainder = divmod(num * row.count, den)
    if remainder:
        raise ArithmeticError(f"q_{4 * n - 3} is not an integer: "
                              f"{num} * {row.count} / {den}")
    return DonaldsonResult(n, q, row.detail.value, prefactor, row.detail)


def _darboux_integrand(n: int, i: int) -> IntegrandSpec:
    """The integrand c1(L)^i * s_{2n+2-i}(E tensor L) on Hilb^{n+1}."""
    if n < 2:
        raise OutOfRange(f"darboux_count requires n >= 2, got {n}")
    if not 0 <= i <= 2 * n + 2:
        raise OutOfRange(f"darboux_count requires 0 <= i <= {2 * n + 2}, got {i}")
    return IntegrandSpec(i=i, k=2 * n + 2 - i)


def _darboux_result(n: int, i: int, result: IntegralResult) -> DarbouxCount:
    return DarbouxCount(n, i, result.value, validated=n <= 6, detail=result)


def donaldson_q(n: int, *, seed: int = 0) -> DonaldsonResult:
    """The Donaldson coefficient q_{4n-3} of CP^2, for 2 <= n <= 6: the
    module docstring's prefactor times a Darboux count.  The n = 6
    prefactor is a special case and the formula must not be extrapolated
    past it."""
    i, prefactor = _donaldson_rule(n)
    return _donaldson_result(n, prefactor, darboux_count(n, i, seed=seed))


def darboux_count(n: int, i: int, *, seed: int = 0) -> DarbouxCount:
    """Number of Darboux configurations (Pi, C) with the (n+1)-gon Pi
    through i given points and the degree-n curve C through 3n+2-i given
    points, counted on the compactification."""
    result = integrate(n + 1, _darboux_integrand(n, i), seed=seed)
    return _darboux_result(n, i, result)


def invariant_table(n_max: int, *, darboux_n: tuple[int, ...] = (),
                    seed: int = 0):
    """Donaldson rows for 2 <= n <= n_max, plus full Darboux rows (all i)
    for each n listed in darboux_n.  Deterministic for a fixed seed, and
    value for value the same as donaldson_q and darboux_count with that
    seed.

    The rows are grouped by m = n + 1 and the whole table is one
    `integrate_by_m` pass: every Hilb^m reads the same chart tables, and
    every row reports the specializations of the largest m.  A Donaldson
    row shares the integral of its Darboux row.
    """
    if not 2 <= n_max <= 6:
        raise OutOfRange(f"invariant_table requires 2 <= n_max <= 6, got {n_max}")
    donaldson = [(n, *_donaldson_rule(n)) for n in range(2, n_max + 1)]
    needed = [(n, i) for n, i, _ in donaldson]
    needed += [(n, i) for n in darboux_n for i in range(2 * n + 3)]
    by_m: dict[int, dict[IntegrandSpec, None]] = {}
    for n, i in needed:
        by_m.setdefault(n + 1, {})[_darboux_integrand(n, i)] = None
    results = {(m, result.integrand): result
               for m, by_integrand in integrate_by_m(by_m, seed=seed).items()
               for result in by_integrand}
    rows = [_darboux_result(n, i, results[n + 1, _darboux_integrand(n, i)])
            for n, i in needed]
    return ([_donaldson_result(n, prefactor, row)
             for (n, _, prefactor), row in zip(donaldson, rows)]
            + rows[len(donaldson):])
