"""One op in a fresh process, as a user of the CLI would run it.

    python3 -I perfbench/child.py WORKLOAD TRACE ORACLE_PATH INPUT_JSON
    python3 -I perfbench/child.py --warmup WORKLOAD

The child times its import of the package and the modules the op uses
(setup_s), then the API call together with its result check (op_s), and
prints one JSON line: setup_s, op_s, rss_mb (this process's peak RSS),
failures (empty when the op is correct) and, when TRACE is 1, the op's
spans and per-layer metrics.  Only sys, os, time, resource and the
import-free workloads module are loaded before the setup timer starts.
"""

import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Exit status of a child whose harness, not the program, went wrong.
HARNESS_ERROR = 3


def _import_package(workload):
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    for name in workloads.WORKLOADS[workload]["modules"]:
        __import__(name)
    setup_s = time.perf_counter() - t0
    origin = os.path.dirname(os.path.abspath(sys.modules["donaldson_cp2"].__file__))
    if origin != os.path.join(SRC, "donaldson_cp2"):
        return None, f"donaldson_cp2 imported from {origin}, not from {SRC}"
    return setup_s, None


def _peak_rss_mb():
    """The peak resident set of this process's own memory, in MiB.

    Linux carries ru_maxrss across exec, so a child started by a larger
    parent would report the parent's peak; VmHWM counts only the memory
    mapped since exec."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv):
    warmup = argv[1] == "--warmup"
    workload = argv[2] if warmup else argv[1]
    setup_s, error = _import_package(workload)

    import json
    import traceback

    if error is not None:
        print(json.dumps({"harness_error": error}))
        return HARNESS_ERROR
    if warmup:
        return 0
    trace, oracle_path, inp_json = argv[2] == "1", argv[3], argv[4]

    with open(oracle_path) as f:
        oracle = json.load(f)
    inp = json.loads(inp_json)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    t1 = time.perf_counter()
    try:
        failures = workloads.run_op(workload, inp, oracle)
    except Exception as exc:  # the op failed; it is counted, not dropped
        failures = [f"raised {type(exc).__name__}: {exc}",
                    traceback.format_exc(limit=-3)]
    t2 = time.perf_counter()

    out = {
        "setup_s": setup_s,
        "op_s": t2 - t1,
        "rss_mb": _peak_rss_mb(),
        "failures": failures,
    }
    if tracer is not None:
        try:
            out["layers"] = tracing.op_layer_metrics(tracer.spans, t1, t2)
        except tracing.TraceError as exc:
            print(json.dumps({"harness_error": f"trace bookkeeping: {exc}"}))
            return HARNESS_ERROR
        out["missing_boundaries"] = tracer.missing
        out["spans"] = [[s[0], s[1], s[2], s[3] - t1, s[4] - t1, s[5]]
                        for s in tracer.spans]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
