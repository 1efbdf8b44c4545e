"""Exact Donaldson invariants of CP^2 and Darboux-configuration counts,
computed by torus localization on Hilbert schemes of points, plus an
independent determinantal-curve witness over the integers.  Names load
on first use: `import donaldson_cp2.barth` loads no engine, and no module
of the package loads fractions."""

from importlib import import_module

__all__ = ["IntegrandSpec", "IntegralResult", "integrate", "integrate_many",
           "DarbouxCount", "DonaldsonResult", "OutOfRange", "darboux_count",
           "donaldson_q", "invariant_table"]

_HOMES = (dict.fromkeys(["engine", *__all__[:4]], "engine")
          | dict.fromkeys(["invariants", *__all__[4:]], "invariants"))


def __getattr__(name):
    # import_module: `from . import engine` would probe this module and recurse
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{home}", __name__)
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def __dir__():
    return sorted(globals().keys() | _HOMES.keys())
