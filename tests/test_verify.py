from donaldson_cp2 import verify


def test_run_all_reports_each_check_with_its_time(monkeypatch):
    ticks = iter([10.0, 11.25, 20.0, 20.5])
    monkeypatch.setattr(verify, "perf_counter", lambda: next(ticks))
    monkeypatch.setattr(verify, "CRITERIA", [
        ("first", lambda: (True, "fine")),
        ("second", lambda: (False, "broken")),
    ])
    lines = []
    assert verify.run_all(report=lines.append) is False
    assert lines == ["PASS first (1.25 s): fine", "FAIL second (0.50 s): broken"]
