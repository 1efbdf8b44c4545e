"""Exact Donaldson invariants of CP^2 and Darboux-configuration counts,
computed by torus localization on Hilbert schemes of points, plus an
independent determinantal-curve witness over the integers."""

from .engine import IntegrandSpec, IntegralResult, integrate, integrate_many
from .invariants import (
    DarbouxCount,
    DonaldsonResult,
    OutOfRange,
    darboux_count,
    donaldson_q,
    invariant_table,
)

__all__ = [
    "IntegrandSpec",
    "IntegralResult",
    "integrate",
    "integrate_many",
    "DarbouxCount",
    "DonaldsonResult",
    "OutOfRange",
    "darboux_count",
    "donaldson_q",
    "invariant_table",
]
