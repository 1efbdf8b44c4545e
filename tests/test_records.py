"""The result records: immutable, compared and hashed by value, with a
stable repr, and loaded without dataclasses or inspect."""

import os
import subprocess
import sys

import pytest

import donaldson_cp2
from donaldson_cp2 import (IntegralResult, IntegrandSpec, darboux_count, donaldson_q,
                           integrate)
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


def test_package_import_loads_no_dataclasses_or_inspect():
    # pytest itself loads dataclasses, so the import runs in a fresh,
    # isolated interpreter that sees only this package's source
    src = os.path.dirname(os.path.dirname(os.path.abspath(donaldson_cp2.__file__)))
    child = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import donaldson_cp2, donaldson_cp2.barth, donaldson_cp2.verify, donaldson_cp2.cli\n"
        "heavy = {'dataclasses', 'inspect', 'ast', 'dis'}\n"
        "print(' '.join(sorted(heavy & (set(sys.modules) - before))))\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", child, src],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []
