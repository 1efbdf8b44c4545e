import os

import pytest

from donaldson_cp2 import engine, verify


def test_run_checks_reports_each_check_with_its_time(monkeypatch):
    ticks = iter([10.0, 11.25, 20.0, 20.5])
    monkeypatch.setattr(verify, "perf_counter", lambda: next(ticks))
    monkeypatch.setattr(verify, "CRITERIA", [
        ("first", lambda: (True, "fine")),
        ("second", lambda: (False, "broken")),
    ])
    records = list(verify.run_checks())
    assert all(r["ok"] for r in records) is False
    assert [verify.report_line(r) for r in records] == [
        "PASS first (1.25 s): fine", "FAIL second (0.50 s): broken"]


def test_a_check_that_raises_a_package_error_fails_and_the_next_still_runs(monkeypatch):
    def degenerate():
        raise engine.DegenerateSpecialization("a tangent weight vanishes")

    def usage():
        raise ValueError("m must be nonnegative")

    monkeypatch.setattr(verify, "CRITERIA", [
        ("degenerate", degenerate), ("usage", usage), ("after", lambda: (True, "fine"))])
    assert [(r["name"], r["ok"], r["detail"]) for r in verify.run_checks()] == [
        ("degenerate", False, "raised DegenerateSpecialization: a tangent weight vanishes"),
        ("usage", False, "raised ValueError: m must be nonnegative"),
        ("after", True, "fine")]


def test_a_check_that_raises_any_other_error_propagates(monkeypatch):
    def bug():
        raise TypeError("a bug in the check")

    monkeypatch.setattr(verify, "CRITERIA", [
        ("bug", bug), ("after", lambda: (True, "fine"))])
    records = verify.run_checks()
    with pytest.raises(TypeError, match="a bug in the check"):
        next(records)


def test_fixed_point_counts_build_each_size_once():
    # fixed_point_count(m) for m = 0..16 reads 17 listings, each a prefix
    # of the last: size 0 and the 16 sizes above it are built once each
    engine._level.cache_clear()
    assert verify.check_fixed_point_counts()[0]
    info = engine._level.cache_info()
    assert (info.misses, info.currsize) == (17, 17)


def test_vanishing_builds_chart_tables_once(monkeypatch):
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
    assert verify.check_vanishing() == (
        True, "all i+k < 2m integrals vanish for m <= 7, one pass")
    # 3 charts x 2 specializations, each at Hilb^7 and the largest k,
    # shared by Hilb^1..Hilb^7
    assert len(builds) == 6
    assert {(len(args[0]) - 1, args[-1]) for args in builds} == {(7, 13)}
    assert shapes_built == [7]


def test_closed_forms_build_chart_tables_once(monkeypatch):
    # on one CPU the pass keeps its cross-check in process, where every
    # table build can be counted; a forked child builds its three unseen
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
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
    assert verify.check_closed_forms() == (
        True, "c1(L)^2m = (2m-1)!! and c1(L)^(2m-1) s1(E*L) = (m-1) (2m-1)!! "
              f"for m=1..{engine.MAX_M}, one pass")
    # 3 charts x 2 specializations, each at Hilb^MAX_M and k = 1, shared
    # by Hilb^1..Hilb^MAX_M
    assert len(builds) == 6
    assert {(len(args[0]) - 1, args[-1]) for args in builds} == {(engine.MAX_M, 1)}
    assert shapes_built == [engine.MAX_M]
