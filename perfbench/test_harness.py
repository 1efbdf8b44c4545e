"""Fast self-test of the benchmark harness at tiny sizes (Hilb^4,
darboux_n=(2,), witness n = 3).

    python3 -m pytest perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run
import tracing
from workloads import WORKLOADS, integrate_key, table_key

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCHMARK = json.load(f)


def _names(kind):
    return {m["name"] for m in BENCHMARK[kind]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_metric(workload, trace):
    result, report, spans = run.run_workload(workload, seed=5, seconds=0.2,
                                             trace=trace, size="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _names("per_layer" if trace else "end_to_end")
    assert report["environment"]["clock"] == "time.perf_counter"
    if trace:
        assert spans and report["samples"]["with_layers"] == report["samples"]["traced_ops"]
        assert not report["missing_boundaries"]
    else:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0
        assert report["samples"]["op_s.tail"]["ops"] == result["attempted"]


def _corrupt(oracle, workload):
    """Change the pinned value of every tiny op of the workload."""
    tiny = WORKLOADS[workload]["sizes"]["tiny"]
    if workload == "single_integral":
        key = integrate_key(tiny["m"], tiny["i"], tiny["k"])
        oracle["integrate"][key] = str(int(oracle["integrate"][key]) + 1)
    elif workload == "paper_table":
        rows = oracle["invariant_table"][table_key(tiny["n_max"], tiny["darboux_n"])]
        rows[-1][-1] += 1
    else:
        for coefficients in oracle["witness"][str(tiny["n"])].values():
            coefficients[0] += 1


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_wrong_pinned_value_is_counted_as_failed(workload, tmp_path):
    with open(run.ORACLE) as f:
        oracle = json.load(f)
    _corrupt(oracle, workload)
    wrong = tmp_path / "oracle.json"
    wrong.write_text(json.dumps(oracle))
    result, report, _ = run.run_workload(workload, seed=5, seconds=0.2, trace=False,
                                         size="tiny", oracle_path=str(wrong))
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] == 0.0
    assert report["samples"]["ok_ratio"]["failed_ratio"] == 1.0
    assert len(report["failures"]) == result["failed"]


def test_op_times_are_scaled_by_the_references_around_them():
    ops = [{"op_s": 2.0, "setup_s": 0.1, "failures": []},
           {"op_s": 6.0, "setup_s": 0.1, "failures": []},
           {"op_s": 3.0, "setup_s": 0.1, "failures": ["wrong"]}]
    refs = [0.5, 1.5, 2.5, 0.5]
    metrics, samples = run.end_to_end(ops, refs)
    nominal = run.NOMINAL_REFERENCE_S
    # 2 / mean(0.5, 1.5), 6 / mean(1.5, 2.5), 3 / mean(2.5, 0.5) = 2, 3, 2
    assert metrics["op_s.p50"] == pytest.approx(2 * nominal)
    assert metrics["op_s.tail"] == pytest.approx(2 * nominal)  # < 11 ops: the minimum
    assert metrics["setup_s"] == pytest.approx(0.1 / 1.5 * nominal)
    assert samples["op_s.p50"]["wall_s"] == 3.0
    assert samples["setup_s"]["wall_s"] == 0.1
    assert metrics["ok_ratio"] == 2 / 3
    # a host twice as slow doubles ops and references alike
    slow, _ = run.end_to_end(
        [dict(r, op_s=2 * r["op_s"], setup_s=2 * r["setup_s"]) for r in ops],
        [2 * t for t in refs])
    for name in ("op_s.p50", "op_s.tail", "setup_s"):
        assert slow[name] == pytest.approx(metrics[name])


def _span(sid, parent, name, start, end, work=None):
    return [sid, parent, name, start, end, work]


def test_bookkeeping_partitions_the_op_time():
    spans = [_span(0, -1, "engine.integrate", 1.0, 5.0, [3, 22]),
             _span(1, 0, "partitions.enumerate", 1.5, 2.0, 22),
             _span(2, 0, "weights.build", 2.0, 3.0),
             _span(3, -1, "barth.curve", 6.0, 7.0)]
    m = tracing.op_layer_metrics(spans, 0.0, 8.0)
    assert m["engine.self_s"] == 2.5 and m["partitions.enumerate_s"] == 0.5
    assert m["harness.self_s"] == 3.0 and m["barth.curve_s"] == 1.0
    assert m["engine.summands"] == 44 and m["engine.distinct_fp_ratio"] == 22


@pytest.mark.parametrize("spans", [
    # siblings overlap: their time would be counted twice
    [_span(0, -1, "barth.curve", 1.0, 3.0), _span(1, -1, "barth.sample", 2.0, 4.0)],
    # a child outlives its parent
    [_span(0, -1, "barth.curve", 1.0, 3.0), _span(1, 0, "linalg.clear", 2.0, 3.5)],
    # a span outside the op
    [_span(0, -1, "barth.curve", 1.0, 9.0)],
    # a span charged to no metric
    [_span(0, -1, "barth.unknown", 1.0, 2.0)],
])
def test_bookkeeping_rejects_double_counted_time(spans):
    with pytest.raises(tracing.TraceError):
        tracing.op_layer_metrics(spans, 0.0, 8.0)


def test_fails_without_the_program_source(tmp_path):
    """In a directory holding only the benchmark, it exits nonzero and
    prints no result."""
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "single_integral",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
