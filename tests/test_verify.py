from donaldson_cp2 import verify


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
