"""Cold-process benchmark of donaldson_cp2.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: single_integral, paper_table,
witness (see README.md in this directory).  The benchmark is closed-loop
with one client: each op is one public-API call in a fresh child process
(child.py), started only after the previous one ended, until S seconds
have passed.  Op inputs are drawn from the seed; every result is checked
against the pinned oracle (oracle.json).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones: op_s.p50, op_s.tail, setup_s, peak_rss_mb,
ok_ratio.  A fixed reference computation (reference.py) runs in a fresh
child before the first op and after each op.  An op's times are scaled by
the mean of the two reference times around it to seconds on a host of
nominal speed, which cancels the drift of the host's speed.
With --trace 1 every input runs twice, untraced and traced, in alternating
order, and the metrics are the per-layer ones from the traced ops plus
the tracing overhead.  The line before it is a report that records the
environment and the sample count behind each figure; a readable summary
goes to standard error, and the report (with the spans when tracing) is
also written to .bench_out/ under the root.  The only clock is
time.perf_counter.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.py")
ORACLE = os.path.join(HERE, "oracle.json")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from child import HARNESS_ERROR  # noqa: E402
from tracing import COUNT_METRICS, SELF_METRIC  # noqa: E402
from workloads import WORKLOADS, op_inputs  # noqa: E402

# An op that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 100
# The tail is the highest percentile with at least this many samples above.
TAIL_SAMPLES_ABOVE = 10

# op_s.* and setup_s are scaled to a host on which reference.py takes
# this long, near its median on the 2-vCPU box where the bounds were set.
NOMINAL_REFERENCE_S = 0.3

E2E_UNITS = {"op_s.p50": "s", "op_s.tail": "s", "setup_s": "s",
             "peak_rss_mb": "MiB", "ok_ratio": "ratio"}
LAYER_UNITS = ({m: "s" for m in SELF_METRIC.values()}
               | {m: "count" for m in COUNT_METRICS}
               | {"engine.distinct_fp_ratio": "ratio", "harness.self_s": "s",
                  "trace.overhead_s": "s"})


class HarnessError(Exception):
    """The benchmark itself cannot measure; no result is printed."""


def _child(args):
    return subprocess.run([sys.executable, "-I", CHILD, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def run_op(workload, inp, trace, oracle_path):
    """One op in a fresh child; a failed op is returned, never dropped."""
    t0 = time.perf_counter()
    try:
        proc = _child([workload, "1" if trace else "0", oracle_path, json.dumps(inp)])
    except subprocess.TimeoutExpired:
        proc = None
    wall_s = time.perf_counter() - t0
    try:
        rec = json.loads(proc.stdout.strip().splitlines()[-1])
    except (AttributeError, IndexError, ValueError):
        rec = {}
    if "harness_error" in rec:
        raise HarnessError(rec["harness_error"])
    if proc is None:
        rec = {"op_s": wall_s, "failures": [f"killed after {CHILD_TIMEOUT_S} s"]}
    elif proc.returncode != 0 or "op_s" not in rec:
        # the child's own timings are lost; the parent's wall time stands in
        rec = {"op_s": wall_s,
               "failures": [f"child exited {proc.returncode}: {proc.stderr[-2000:]}"]}
    rec.update(input=inp, traced=trace)
    return rec


def reference_s():
    """Seconds the fixed reference computation (reference.py) takes in a
    fresh child process."""
    proc = subprocess.run([sys.executable, "-I", REFERENCE], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    try:
        return float(proc.stdout)
    except ValueError:
        raise HarnessError(f"reference run failed: {proc.stderr[-2000:]}") from None


def tail(values):
    """The highest percentile of values that still has TAIL_SAMPLES_ABOVE
    samples above it, as (value, percentile, samples above); the minimum
    when there are too few samples for that."""
    ordered = sorted(values)
    rank = max(0, len(ordered) - TAIL_SAMPLES_ABOVE - 1)
    return ordered[rank], 100.0 * (rank + 1) / len(ordered), len(ordered) - rank - 1


def end_to_end(ops, refs):
    """The end-to-end metrics, and the sample count behind each.

    refs[k] and refs[k + 1] are the reference times taken just before and
    just after ops[k].  The op's op_s and setup_s are scaled by
    NOMINAL_REFERENCE_S over the mean of the two: they become seconds on a
    host where reference.py takes NOMINAL_REFERENCE_S, and the drift of
    the host's speed cancels.  The unscaled seconds go to the report."""
    scales = [2 * NOMINAL_REFERENCE_S / (before + after)
              for before, after in zip(refs, refs[1:])]
    op_s = [r["op_s"] * c for r, c in zip(ops, scales)]
    setups = [r["setup_s"] * c for r, c in zip(ops, scales) if "setup_s" in r]
    rss = [r["rss_mb"] for r in ops if "rss_mb" in r]
    failed = sum(1 for r in ops if r["failures"])
    tail_s, tail_pct, above = tail(op_s)
    metrics = {
        "op_s.p50": statistics.median(op_s),
        "op_s.tail": tail_s,
        # 0 only when no child lived to report, and then every op failed
        "setup_s": statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": max(rss) if rss else 0.0,
        "ok_ratio": (len(ops) - failed) / len(ops),
    }
    wall_setups = [r["setup_s"] for r in ops if "setup_s" in r]
    samples = {
        "op_s.p50": {"ops": len(op_s),
                     "wall_s": statistics.median(r["op_s"] for r in ops),
                     "reference_s": statistics.median(refs),
                     "references": len(refs),
                     "nominal_reference_s": NOMINAL_REFERENCE_S},
        "op_s.tail": {"ops": len(op_s), "percentile": tail_pct,
                      "samples_above": above,
                      "wall_s": tail([r["op_s"] for r in ops])[0]},
        "setup_s": {"ops": len(setups),
                    "wall_s": statistics.median(wall_setups) if wall_setups else 0.0},
        "peak_rss_mb": {"ops": len(rss)},
        "ok_ratio": {"ops": len(ops), "failed": failed,
                     "failed_ratio": failed / len(ops)},
    }
    return metrics, samples


def per_layer(plain, traced):
    """Median over traced ops of each layer metric (a count stays a count
    observed in some op), and the overhead of tracing: traced op_s median
    minus untraced op_s median."""
    layered = [r["layers"] for r in traced if "layers" in r]
    metrics = {}
    for name, unit in LAYER_UNITS.items():
        if name != "trace.overhead_s":
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = median(r[name] for r in layered) if layered else 0.0
    metrics["trace.overhead_s"] = (statistics.median(r["op_s"] for r in traced)
                                   - statistics.median(r["op_s"] for r in plain))
    samples = {"traced_ops": len(traced), "with_layers": len(layered),
               "untraced_ops": len(plain)}
    return metrics, samples


def environment(workload, seed, seconds, trace, size):
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "size": size, "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(), "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_revision": git_revision(), "src_sha256": _source_digest(),
        "clock": "time.perf_counter", "client": "closed loop, 1 client, 1 op at a time",
    }


def git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown: not a git checkout"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def _source_digest():
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def run_workload(workload, seed, seconds, trace, size="full", oracle_path=ORACLE):
    """Measure one workload for `seconds`; returns (result, report, spans)."""
    if not os.path.isfile(os.path.join(SRC, "donaldson_cp2", "__init__.py")):
        raise HarnessError(f"no package source at {SRC}")
    with open(oracle_path) as f:
        inputs = op_inputs(workload, seed, size, json.load(f))
    warm = _child(["--warmup", workload])
    if warm.returncode == HARNESS_ERROR:
        raise HarnessError(warm.stdout.strip())

    plain, traced = [], []
    refs = [] if trace else [reference_s()]
    start = time.perf_counter()
    while not plain or time.perf_counter() - start < seconds:
        inp = next(inputs)
        if not trace:
            plain.append(run_op(workload, inp, False, oracle_path))
            refs.append(reference_s())
            continue
        traced_first = len(traced) % 2 == 1
        for tracing_on in (traced_first, not traced_first):
            rec = run_op(workload, inp, tracing_on, oracle_path)
            (traced if tracing_on else plain).append(rec)

    ops = plain + traced
    failed = sum(1 for r in ops if r["failures"])
    if trace:
        metrics, samples = per_layer(plain, traced)
        units = LAYER_UNITS
    else:
        metrics, samples = end_to_end(plain, refs)
        units = E2E_UNITS
    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    report = {
        "environment": environment(workload, seed, seconds, trace, size),
        "measured_s": time.perf_counter() - start,
        "samples": samples,
        "failures": [{"input": r["input"], "failures": r["failures"]}
                     for r in ops if r["failures"]],
        "missing_boundaries": sorted({b for r in traced
                                      for b in r.get("missing_boundaries", ())}),
        "ops": [{"input": r["input"], "traced": r["traced"], "op_s": r["op_s"],
                 "setup_s": r.get("setup_s"), "rss_mb": r.get("rss_mb")}
                for r in ops],
        "reference_s": refs,
    }
    spans = [{"op": k, "input": r["input"], "spans": r["spans"]}
             for k, r in enumerate(traced) if "spans" in r]
    return result, report, spans


def _summary(result, report):
    env = report["environment"]
    lines = [f"{env['workload']} seed={env['seed']} trace={env['trace']}: "
             f"{result['attempted']} ops, {result['failed']} failed; "
             f"nproc={env['nproc']} python={env['python']} rev={env['git_revision']}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    for name, s in report["samples"].items():
        lines.append(f"  samples {name}: {s}")
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        result, report, spans = run_workload(args.workload, args.seed,
                                             args.seconds, bool(args.trace))
    except HarnessError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-trace{args.trace}.json")
    with open(out_path, "w") as f:
        json.dump({"result": result, "report": report, "spans": spans}, f)
    print(_summary(result, report), file=sys.stderr)
    print(json.dumps({"report": report["environment"] | {"samples": report["samples"]}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
