"""The result records: tuples with named fields on the package root's
`_Record`, immutable, compared and hashed by value, with one contract
(fields, repr, _make, _replace, copy and pickle) for all eight, and
loaded without dataclasses, inspect, namedtuple or eval; the package
root, which loads the engine and the invariants only on first use; and
the CLI, which loads barth only for witness."""

import copy
import os
import pickle
import subprocess
import sys

import pytest

import donaldson_cp2
from donaldson_cp2 import (DarbouxCount, DonaldsonResult, IntegralResult, IntegrandSpec,
                           darboux_count, donaldson_q, engine, integrate, invariants)
from donaldson_cp2.barth import (HulsbergenDatum, PlaneConfiguration, PlaneCurve,
                                 barth_curve, sample_datum)
from donaldson_cp2.engine import Specialization


def _records():
    """One record of each type, with the name of one of its fields."""
    result = integrate(3, IntegrandSpec(0, 6))
    datum = sample_datum(2, seed=0)
    return [(result.integrand, "i"), (result.spec_used, "w1"), (result, "value"),
            (donaldson_q(2), "q"), (darboux_count(2, 3), "count"),
            (datum.config, "points"), (datum, "extension"),
            (barth_curve(datum), "coefficients")]


@pytest.mark.parametrize("record, field", _records(),
                         ids=lambda v: v if isinstance(v, str) else type(v).__name__)
def test_records_are_immutable(record, field):
    getattr(record, field)  # the field exists: the write below is refused, not misspelt
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_integral_results_differing_only_in_time_are_equal():
    result = integrate(3, IntegrandSpec(0, 6))
    fields = (result.m, result.integrand, result.spec_used, result.cross_check_spec,
              result.fixed_point_count)
    retimed = IntegralResult(result.value, *fields, result.elapsed_s + 1)
    assert result == retimed
    assert not result != retimed
    assert hash(result) == hash(retimed)
    other = IntegralResult(result.value + 1, *fields, result.elapsed_s)
    assert result != other
    assert not result == other


def test_integrand_repr():
    assert repr(IntegrandSpec(2, 2)) == "IntegrandSpec(i=2, k=2)"


_SPEC = Specialization(1, 5, 0)
_CONFIG = PlaneConfiguration(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
# one record of each type as (type, fields, a replacement for the last
# field, repr); the record is the type applied to the fields' values
_CONTRACTS = [
    (IntegrandSpec, {"i": 2, "k": 2}, 3, "IntegrandSpec(i=2, k=2)"),
    (Specialization, {"w1": 1, "w2": 5, "seed": 0}, 4,
     "Specialization(w1=1, w2=5, seed=0)"),
    (IntegralResult, {"value": 8, "m": 3, "integrand": IntegrandSpec(0, 6), "spec_used": _SPEC,
                      "cross_check_spec": Specialization(1, 7, 0), "fixed_point_count": 22,
                      "elapsed_s": 0.5}, 0.25,
     "IntegralResult(value=8, m=3, integrand=IntegrandSpec(i=0, k=6), "
     "spec_used=Specialization(w1=1, w2=5, seed=0), "
     "cross_check_spec=Specialization(w1=1, w2=7, seed=0), "
     "fixed_point_count=22, elapsed_s=0.5)"),
    (DonaldsonResult, {"n": 2, "q": 1, "raw_integral": 8, "prefactor": (1, 8),
                       "detail": _SPEC}, None,
     "DonaldsonResult(n=2, q=1, raw_integral=8, prefactor=(1, 8), "
     "detail=Specialization(w1=1, w2=5, seed=0))"),
    (DarbouxCount, {"n": 2, "i": 3, "count": 8, "validated": True, "detail": None},
     _SPEC, "DarbouxCount(n=2, i=3, count=8, validated=True, detail=None)"),
    (PlaneConfiguration, {"points": _CONFIG.points}, ((1, 1, 1),),
     "PlaneConfiguration(points=((1, 0, 0), (0, 1, 0), (0, 0, 1)))"),
    (HulsbergenDatum, {"config": _CONFIG, "extension": (1, -2, 3)}, (0, 0, 5),
     "HulsbergenDatum(config=PlaneConfiguration(points=((1, 0, 0), (0, 1, 0), "
     "(0, 0, 1))), extension=(1, -2, 3))"),
    (PlaneCurve, {"degree": 1, "coefficients": (1, 0, -1)}, (0, 2, 0),
     "PlaneCurve(degree=1, coefficients=(1, 0, -1))"),
]


@pytest.mark.parametrize("cls, fields, replacement, text", _CONTRACTS,
                         ids=[c[0].__name__ for c in _CONTRACTS])
def test_record_contract(cls, fields, replacement, text):
    values = tuple(fields.values())
    record = cls(*values)
    assert type(record) is cls
    assert cls._fields == tuple(fields)
    assert repr(record) == text
    # a tuple: equal to the plain tuple of its fields, iterable and orderable
    assert record == values and tuple(record) == values and record <= values
    assert cls(**fields) == record
    assert cls._make(values) == record and type(cls._make(iter(values))) is cls
    last = cls._fields[-1]
    replaced = record._replace(**{last: replacement})
    assert type(replaced) is cls
    assert replaced == cls(*values[:-1], replacement)
    assert getattr(replaced, last) == replacement
    with pytest.raises(ValueError):
        record._replace(nope=1)
    for wrong in (values[:-1], values + (None,)):
        with pytest.raises(TypeError):
            cls(*wrong)
        with pytest.raises(TypeError):
            cls._make(wrong)
    for copied in (copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert type(copied) is cls and copied == record


def test_integrand_is_a_dict_key():
    table = {IntegrandSpec(2, 2): "a", IntegrandSpec(i=0, k=4): "b"}
    assert table[IntegrandSpec(i=2, k=2)] == "a"
    assert table[IntegrandSpec(0, 4)] == "b"


def _in_fresh_interpreter(body, names):
    """The strings of `names`, an expression for a set that the child
    evaluates after running `body` in a fresh, isolated interpreter that
    sees only this package's source, with `before` the modules loaded at
    its start.  pytest loads dataclasses and decimal, and the tests load
    the engine and fractions, so nothing can be checked in this process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(donaldson_cp2.__file__)))
    child = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "sys.path.insert(0, sys.argv[1])\n"
        f"{body}\n"
        f"print(' '.join(sorted({names})))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", child, src],
                          capture_output=True, text=True, check=True)
    return proc.stdout.split()


def _newly_loaded(body, heavy):
    """The modules of `heavy` that `body` loads in a fresh interpreter."""
    return _in_fresh_interpreter(body, f"{set(heavy)!r} & (set(sys.modules) - before)")


# A child prelude that wraps namedtuple, eval and exec so that each call
# records "caller:function", the caller being the calling module's name.
# A stdlib module may call namedtuple at import, so the wrappers record
# rather than raise.
_RECORD_CALLERS = (
    "import builtins, collections\n"
    "callers = set()\n"
    "def recorded(real):\n"
    "    def call(*args, **kwargs):\n"
    "        caller = sys._getframe(1).f_globals.get('__name__', '')\n"
    "        callers.add(f'{caller}:{real.__name__}')\n"
    "        return real(*args, **kwargs)\n"
    "    return call\n"
    "collections.namedtuple = recorded(collections.namedtuple)\n"
    "builtins.eval, builtins.exec = recorded(eval), recorded(exec)"
)


def test_package_compiles_no_code_at_run_time():
    # the records' constructors are written in the source, so importing
    # the package builds no namedtuple and evaluates no string
    body = (f"{_RECORD_CALLERS}\n"
            "import donaldson_cp2.engine, donaldson_cp2.invariants, donaldson_cp2.barth\n"
            "import donaldson_cp2.verify, donaldson_cp2.cli")
    callers = _in_fresh_interpreter(body, "callers")
    assert [c for c in callers if c.startswith("donaldson_cp2")] == []


def test_caller_guard_sees_each_wrapped_call():
    # the control: the guard above records a call to each wrapped function
    body = f"{_RECORD_CALLERS}\ncollections.namedtuple('X', 'a')\neval('0')\nexec('')"
    assert {"__main__:namedtuple", "__main__:eval", "__main__:exec"} <= set(
        _in_fresh_interpreter(body, "callers"))


def test_package_import_loads_no_dataclasses_or_inspect():
    body = "import donaldson_cp2, donaldson_cp2.barth, donaldson_cp2.verify, donaldson_cp2.cli"
    assert _newly_loaded(body, {"dataclasses", "inspect", "ast", "dis"}) == []


def test_witness_loads_neither_the_engine_nor_fractions():
    body = (
        "import donaldson_cp2, donaldson_cp2.barth as barth\n"
        "datum = barth.sample_datum(3, 0)\n"
        "curve = barth.barth_curve(datum)\n"
        "assert barth.verify_darboux(datum.config, curve)\n"
        "assert barth.darboux_system_dimension(datum.config) == 3\n"
        # the n = 24 collinear case of test_barth, ranked modulo P in barth
        "points = barth.sample_configuration(24, 0).points\n"
        "last = tuple(a + 2 * b for a, b in zip(*points[:2]))\n"
        "config = barth.PlaneConfiguration(points[:-1] + (last,))\n"
        "assert barth.darboux_system_dimension(config) == 26"
    )
    heavy = {"fractions", "decimal", "numbers", "donaldson_cp2.engine",
             "donaldson_cp2.invariants", "donaldson_cp2.linalg",
             "donaldson_cp2.verify"}
    assert _newly_loaded(body, heavy) == []


def _cli_run(argv):
    """A child body that runs the CLI on argv, with its output discarded."""
    return ("import contextlib, io\n"
            "from donaldson_cp2 import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.run({argv!r}) == 0")


@pytest.mark.parametrize("argv", [["witness", "--n", "3"], ["--help"]],
                         ids=["witness", "help"])
def test_cli_witness_and_help_load_no_engine_fractions_or_verify(argv):
    heavy = {"fractions", "decimal", "numbers", "donaldson_cp2.engine",
             "donaldson_cp2.invariants", "donaldson_cp2.verify"}
    assert _newly_loaded(_cli_run(argv), heavy) == []


@pytest.mark.parametrize("argv", [["integrate", "--m", "3", "--expr", "s6(E*L)"],
                                  ["table", "--n-max", "3"], ["donaldson", "--n", "2"],
                                  ["darboux", "--n", "2", "--i", "3"]],
                         ids=["integrate", "table", "donaldson", "darboux"])
def test_cli_loads_barth_only_for_witness(argv):
    assert _newly_loaded(_cli_run(argv), {"donaldson_cp2.barth"}) == []


@pytest.mark.parametrize("body", [
    "import donaldson_cp2 as api\napi.integrate(4, api.IntegrandSpec(0, 8))",
    _cli_run(["integrate", "--m", "3", "--expr", "s6(E*L)"]),
], ids=["api", "cli"])
def test_integrate_loads_no_fractions(body):
    # an integral is an int, so neither the engine nor the CLI needs fractions
    assert _newly_loaded(body, {"fractions", "decimal", "numbers"}) == []


@pytest.mark.parametrize("body", [
    _cli_run(["donaldson", "--n", "2"]),
    _cli_run(["darboux", "--n", "2", "--i", "3"]),
    _cli_run(["table", "--n-max", "3"]),
    "import donaldson_cp2 as api\napi.invariant_table(3)",
    "import donaldson_cp2.verify",
], ids=["donaldson", "darboux", "table", "invariant_table", "verify"])
def test_no_command_loads_fractions(body):
    # a Donaldson prefactor is an int pair, so nothing needs fractions
    assert _newly_loaded(body, {"fractions", "decimal", "numbers"}) == []


def test_fractions_guard_sees_fractions():
    # the control: the guard above can see these modules once they load
    assert _newly_loaded("import fractions", {"fractions", "decimal", "numbers"}) == [
        "decimal", "fractions", "numbers"]


def test_cli_donaldson_loads_the_engine_and_the_invariants():
    # the control: the guard above can see these modules once a command needs them
    body = _cli_run(["donaldson", "--n", "2"])
    assert _newly_loaded(body, {"donaldson_cp2.engine", "donaldson_cp2.invariants"}) == [
        "donaldson_cp2.engine", "donaldson_cp2.invariants"]


def test_root_names_are_the_submodules_own():
    homes = {name: engine for name in ("IntegrandSpec", "IntegralResult", "integrate",
                                       "integrate_many")}
    homes.update((name, invariants) for name in ("DarbouxCount", "DonaldsonResult",
                                                 "OutOfRange", "darboux_count",
                                                 "donaldson_q", "invariant_table"))
    assert sorted(donaldson_cp2.__all__) == sorted(homes)
    for name, home in homes.items():
        assert getattr(donaldson_cp2, name) is getattr(home, name), name
    assert donaldson_cp2.engine is engine
    assert donaldson_cp2.invariants is invariants


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from donaldson_cp2 import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(donaldson_cp2.__all__)


def test_unknown_root_attribute_names_the_module():
    with pytest.raises(AttributeError, match="'donaldson_cp2' has no attribute 'nope'"):
        donaldson_cp2.nope


def test_root_dir_lists_the_public_names_and_submodules():
    listed = dir(donaldson_cp2)
    assert set(donaldson_cp2.__all__) | {"engine", "invariants"} <= set(listed)
    assert listed == sorted(listed)


def test_bare_import_resolves_names_and_submodules():
    # the root alone, in a fresh interpreter, before anything else is loaded
    body = (
        "import donaldson_cp2\n"
        "assert 'donaldson_cp2.engine' not in sys.modules\n"
        "from donaldson_cp2 import integrate\n"
        "assert donaldson_cp2.engine.integrate is integrate\n"
        "assert donaldson_cp2.invariants.invariant_table is donaldson_cp2.invariant_table\n"
        "assert 'integrate' in vars(donaldson_cp2)"
    )
    assert _newly_loaded(body, {"donaldson_cp2.engine", "donaldson_cp2.invariants"}) == [
        "donaldson_cp2.engine", "donaldson_cp2.invariants"]
