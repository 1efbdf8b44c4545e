import pytest

from donaldson_cp2 import engine, invariants
from donaldson_cp2.engine import IntegrandSpec, integrate
from donaldson_cp2.invariants import (
    DarbouxCount,
    DonaldsonResult,
    OutOfRange,
    darboux_count,
    donaldson_q,
    invariant_table,
)


def test_small_donaldson_values():
    assert donaldson_q(2).q == 1
    assert donaldson_q(3).q == 3
    assert donaldson_q(4).q == 54


def test_donaldson_prefactors():
    assert donaldson_q(2).prefactor == (1, 8)
    assert donaldson_q(5).prefactor == (1, 1)
    assert donaldson_q(6).prefactor == (2, 5)


def test_donaldson_raw_integral_is_integer():
    for n in range(2, 7):
        res = donaldson_q(n)
        num, den = res.prefactor
        assert type(res.q) is int and type(res.raw_integral) is int
        assert res.q * den == num * res.raw_integral


def test_donaldson_q_refuses_a_fractional_coefficient(monkeypatch):
    # an odd count for n = 2, whose prefactor is 1/8
    integral = invariants.integrate(3, IntegrandSpec(3, 3))
    monkeypatch.setattr(invariants, "integrate",
                        lambda *args, **kwargs: integral._replace(value=9))
    with pytest.raises(ArithmeticError, match="q_5 is not an integer"):
        donaldson_q(2)


@pytest.mark.parametrize("n", [0, 1, 7, 10])
def test_donaldson_out_of_range(n):
    with pytest.raises(OutOfRange):
        donaldson_q(n)


def test_darboux_known_value():
    res = darboux_count(2, 3)
    assert res.count == 8
    assert res.validated


def test_darboux_out_of_range():
    with pytest.raises(OutOfRange):
        darboux_count(1, 0)
    with pytest.raises(OutOfRange):
        darboux_count(3, -1)
    with pytest.raises(OutOfRange):
        darboux_count(3, 9)


def test_darboux_counts_nonnegative_integers_n2():
    for i in range(7):
        res = darboux_count(2, i)
        assert isinstance(res.count, int)
        assert res.count >= 0


def test_cross_identity_small():
    for n in (2, 3):
        assert 2 ** (5 - n) * donaldson_q(n).q == darboux_count(n, 5 - n).count


@pytest.mark.parametrize("n", range(2, 7))
def test_donaldson_is_a_prefactor_on_a_darboux_count(n):
    res = donaldson_q(n)
    row = darboux_count(n, max(5 - n, 0))
    num, den = res.prefactor
    assert res.detail == row.detail
    assert res.q * den == num * row.count


def test_invariant_table_rows():
    rows = invariant_table(4)
    assert [(r.n, r.q) for r in rows] == [(2, 1), (3, 3), (4, 54)]


def test_invariant_table_with_darboux_rows():
    rows = invariant_table(2, darboux_n=(2,))
    donaldson_rows = [r for r in rows if isinstance(r, DonaldsonResult)]
    darboux_rows = [r for r in rows if isinstance(r, DarbouxCount)]
    assert len(donaldson_rows) == 1
    assert [r.i for r in darboux_rows] == list(range(7))
    assert all(r.count >= 0 for r in darboux_rows)


def test_invariant_table_out_of_range():
    with pytest.raises(OutOfRange):
        invariant_table(7)


PAPER_TABLE = dict(n_max=6, darboux_n=(2, 3, 4, 5))


@pytest.mark.parametrize("seed", [0, 1, 5, 11])
def test_invariant_table_rows_are_standalone_integrals(seed):
    rows = invariant_table(**PAPER_TABLE, seed=seed)
    # one pass over Hilb^3..Hilb^7: every row reports the specializations
    # of Hilb^7, and its value and count are those of the integral alone
    specs = list(engine.specializations(7, seed))
    for row in rows:
        alone = integrate(row.detail.m, row.detail.integrand, seed=seed)
        assert (row.detail.value, row.detail.fixed_point_count) == \
            (alone.value, alone.fixed_point_count)
        assert [row.detail.spec_used, row.detail.cross_check_spec] == specs
    # the Donaldson row holds its Darboux row's very result, and every
    # result on one m carries the time of that m's sums
    darboux = {(r.n, r.i): r.detail for r in rows if isinstance(r, DarbouxCount)}
    for row in rows:
        if isinstance(row, DonaldsonResult) and row.n <= 5:
            assert row.detail is darboux[row.n, 5 - row.n]
    for m in {row.detail.m for row in rows}:
        assert len({row.detail.elapsed_s for row in rows if row.detail.m == m}) == 1


def test_invariant_table_builds_chart_tables_once(monkeypatch):
    builds, shapes_built = [], []
    chart_table, shapes = engine._chart_table, engine._shapes

    def counted(*args):
        builds.append(args)
        return chart_table(*args)

    def counted_shapes(m):
        shapes_built.append(m)
        return shapes(m)

    monkeypatch.setattr(engine, "_chart_table", counted)
    monkeypatch.setattr(engine, "_shapes", counted_shapes)
    invariant_table(**PAPER_TABLE)
    # 3 charts x 2 specializations, each at Hilb^7 and the largest k,
    # shared by Hilb^3..Hilb^7
    assert len(builds) == 6
    assert {(len(args[0]) - 1, args[-1]) for args in builds} == {(7, 14)}
    assert shapes_built == [7]


def test_invariant_table_rejects_bad_darboux_n():
    with pytest.raises(OutOfRange):
        invariant_table(3, darboux_n=(1,))
