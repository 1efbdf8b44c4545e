"""Span tracing for the benchmark's traced run.

Wrappers replace public functions at the module attributes their callers
look up (for example `invariants.integrate`, the name `donaldson_q` calls,
and `engine.fixed_point_weights`).  Each call records one span in memory:
[id, parent id, name, start, end, work], with times from perf_counter and
parent -1 for a call made by the op itself.  The program's own code is not
changed.

A layer's self time is its spans' duration minus the time their child
spans cover.  `op_layer_metrics` checks the bookkeeping before it reports
anything: children nest inside their parent, siblings never overlap, and
the self-time metrics plus the harness's own time add up to the op time.
"""

import time
from collections import defaultdict

# Which metric each span's self time is charged to.  Every span name must
# map to exactly one metric, so that the metrics partition the op time.
SELF_METRIC = {
    "partitions.enumerate": "partitions.enumerate_s",
    "weights.build": "weights.build_s",
    "engine.integrate": "engine.self_s",
    "invariants.invariant_table": "invariants.self_s",
    "invariants.donaldson_q": "invariants.self_s",
    "invariants.darboux_count": "invariants.self_s",
    "barth.sample": "barth.sample_s",
    "barth.curve": "barth.curve_s",
    "barth.incidence": "barth.incidence_s",
    "barth.dimension": "barth.dimension_self_s",
    "linalg.rank": "linalg.rank_s",
    "linalg.clear": "linalg.clear_s",
}

COUNT_METRICS = (
    "partitions.fixed_points", "partitions.enumerate_calls",
    "weights.build_calls", "engine.integrate_calls", "engine.summands",
    "invariants.calls", "barth.nodes_checked", "linalg.rank_cells",
)

TOLERANCE_S = 1e-6


class TraceError(Exception):
    """The spans of an op do not add up; no per-layer number is reported."""


def _integral_work(args, result):
    return [result.m, result.fixed_point_count]


def _wrap_points():
    """(span name, module, attribute, work counter) for every boundary."""
    from donaldson_cp2 import barth, engine, invariants

    return [
        ("engine.integrate", engine, "integrate", _integral_work),
        ("engine.integrate", invariants, "integrate", _integral_work),
        ("partitions.enumerate", engine, "enumerate_fixed_points",
         lambda args, result: len(result)),
        ("weights.build", engine, "fixed_point_weights", None),
        ("invariants.invariant_table", invariants, "invariant_table", None),
        ("invariants.donaldson_q", invariants, "donaldson_q", None),
        ("invariants.darboux_count", invariants, "darboux_count", None),
        ("barth.sample", barth, "sample_datum", None),
        ("barth.curve", barth, "barth_curve", None),
        # every node is evaluated when incidence holds, the only passing case
        ("barth.incidence", barth, "verify_darboux",
         lambda args, result: args[0].n * (args[0].n + 1) // 2),
        ("barth.dimension", barth, "darboux_system_dimension", None),
        ("linalg.rank", barth, "bareiss_rank",
         lambda args, result: len(args[0]) * len(args[0][0]) if args[0] else 0),
        ("linalg.clear", barth, "clear_denominators", None),
    ]


class Tracer:
    def __init__(self):
        self.spans = []
        self.missing = []  # boundaries the program no longer has
        self._stack = [-1]

    def install(self):
        for name, module, attr, work in _wrap_points():
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module.__name__}.{attr}")
            else:
                setattr(module, attr, self._wrap(name, fn, work))

    def _wrap(self, name, fn, work):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1], name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()
            if work is not None:
                span[5] = work(args, result)
            return result

        return traced


def _check_nested(parent, start, end, kids):
    """Children lie inside [start, end] and do not overlap one another."""
    cursor = start
    for kid in sorted(kids, key=lambda s: s[3]):
        if kid[3] < cursor or kid[4] < kid[3] or kid[4] > end:
            raise TraceError(f"span {kid[0]} ({kid[2]}) is not nested in "
                             f"{parent} or overlaps a sibling")
        cursor = kid[4]


def op_layer_metrics(spans, op_start, op_end):
    """Per-layer metrics of one op from its spans; raises TraceError when
    the spans double-count time or fail to add up to the op time."""
    children = defaultdict(list)
    for span in spans:
        if span[2] not in SELF_METRIC:
            raise TraceError(f"span name {span[2]!r} is charged to no metric")
        children[span[1]].append(span)
    _check_nested("the op", op_start, op_end, children[-1])
    for span in spans:
        _check_nested(f"span {span[0]} ({span[2]})", span[3], span[4],
                      children[span[0]])

    metrics = dict.fromkeys(sorted(set(SELF_METRIC.values())), 0.0)
    metrics.update(dict.fromkeys(COUNT_METRICS, 0))
    metrics["engine.distinct_fp_ratio"] = 0.0  # stays 0 when nothing is built
    fixed_points_by_m = {}
    for span in spans:
        name, work = span[2], span[5]  # work is None when the call raised
        covered = sum(k[4] - k[3] for k in children[span[0]])
        metrics[SELF_METRIC[name]] += (span[4] - span[3]) - covered
        if name == "partitions.enumerate":
            metrics["partitions.enumerate_calls"] += 1
            metrics["partitions.fixed_points"] += work or 0
        elif name == "weights.build":
            metrics["weights.build_calls"] += 1
        elif name == "engine.integrate":
            metrics["engine.integrate_calls"] += 1
            if work is not None:
                metrics["engine.summands"] += 2 * work[1]
                fixed_points_by_m[work[0]] = work[1]
        elif name.startswith("invariants."):
            metrics["invariants.calls"] += 1
        elif name == "barth.incidence":
            metrics["barth.nodes_checked"] += work or 0
        elif name == "linalg.rank":
            metrics["linalg.rank_cells"] += work or 0

    op_s = op_end - op_start
    metrics["harness.self_s"] = op_s - sum(s[4] - s[3] for s in children[-1])
    accounted = (sum(metrics[m] for m in set(SELF_METRIC.values()))
                 + metrics["harness.self_s"])
    if abs(accounted - op_s) > TOLERANCE_S:
        raise TraceError(f"layer self times sum to {accounted} s, op took {op_s} s")
    if metrics["weights.build_calls"]:
        metrics["engine.distinct_fp_ratio"] = (
            sum(fixed_points_by_m.values()) / metrics["weights.build_calls"])
    return metrics
