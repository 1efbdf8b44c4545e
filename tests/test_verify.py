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


def test_c1_power_oracle_builds_chart_tables_once(monkeypatch):
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
    assert verify.check_c1_power_oracle() == (True, "c1(L)^2m = (2m-1)!! for m=1..9")
    # 3 charts x 2 specializations, each at Hilb^9 and k = 0, shared by
    # Hilb^1..Hilb^9
    assert len(builds) == 6
    assert {(len(args[0]) - 1, args[-1]) for args in builds} == {(9, 0)}
    assert shapes_built == [9]
