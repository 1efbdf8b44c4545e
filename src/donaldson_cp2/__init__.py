"""Exact Donaldson invariants of CP^2 and Darboux-configuration counts,
computed by torus localization on Hilbert schemes of points, plus an
independent determinantal-curve witness over the integers.  Names load
on first use: `import donaldson_cp2.barth` loads no engine, and no module
of the package loads fractions.  The result records share `_Record`,
defined here because the root loads before any submodule."""

from importlib import import_module
from operator import itemgetter

__all__ = ["IntegrandSpec", "IntegralResult", "integrate", "integrate_many",
           "DarbouxCount", "DonaldsonResult", "OutOfRange", "darboux_count",
           "donaldson_q", "invariant_table"]

_HOMES = (dict.fromkeys(["engine", *__all__[:4]], "engine")
          | dict.fromkeys(["invariants", *__all__[4:]], "invariants"))


class _Record(tuple):
    """A tuple with named fields: the base of every result record.  A
    record declares `__slots__ = ()` and writes its constructor, e.g.
    `def __new__(cls, i, k): return tuple.__new__(cls, (i, k))`, whose
    parameters after cls name its fields, so the constructor is compiled
    with the module and, unlike collections.namedtuple's, nothing is
    evaluated at import.  _make and _replace call the constructor, so a
    record that checks or scales its fields there does so for them too."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        code = cls.__new__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        for index, name in enumerate(cls._fields):
            setattr(cls, name, property(itemgetter(index), doc=f"Field {index}"))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def _replace(self, /, **changes):
        record = self._make(map(changes.pop, self._fields, self))
        if changes:
            raise ValueError(f"unexpected field names: {list(changes)!r}")
        return record

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__name__}({fields})"

    def __getnewargs__(self):
        return tuple(self)


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
