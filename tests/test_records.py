"""The result records: immutable, compared and hashed by value, with a
stable repr, and loaded without dataclasses or inspect; and the package
root, which loads the engine and the invariants only on first use."""

import os
import subprocess
import sys

import pytest

import donaldson_cp2
from donaldson_cp2 import (IntegralResult, IntegrandSpec, darboux_count, donaldson_q,
                           engine, integrate, invariants)
from donaldson_cp2.barth import barth_curve, sample_datum


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


def test_integrand_is_a_dict_key():
    table = {IntegrandSpec(2, 2): "a", IntegrandSpec(i=0, k=4): "b"}
    assert table[IntegrandSpec(i=2, k=2)] == "a"
    assert table[IntegrandSpec(0, 4)] == "b"


def _newly_loaded(body, heavy):
    """The modules of `heavy` that `body` loads in a fresh, isolated
    interpreter that sees only this package's source.  pytest loads
    dataclasses and decimal, and the tests load the engine and fractions,
    so nothing can be checked in this process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(donaldson_cp2.__file__)))
    child = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "sys.path.insert(0, sys.argv[1])\n"
        f"{body}\n"
        f"print(' '.join(sorted({set(heavy)!r} & (set(sys.modules) - before))))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", child, src],
                          capture_output=True, text=True, check=True)
    return proc.stdout.split()


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
