"""The benchmark's workloads: how an op's inputs are drawn from the
benchmark seed (parent side), and how one op is run through the
package's public API and checked against the pinned oracle (child side).

This module imports nothing at top level, so a child can load it before
it times its own import of the package without pre-loading anything the
package would otherwise pay for.

Sizes: "full" is what the benchmark measures; "tiny" exists for the
harness self-test (test_harness.py) and is pinned in the oracle too.
"""

WORKLOADS = {
    # One integral per op: nothing can be shared between integrals, so this
    # isolates the per-fixed-point kernel (weights + exact sum).  `barth` idle.
    "single_integral": {
        "modules": ("donaldson_cp2", "donaldson_cp2.engine"),
        "sizes": {"full": {"m": 10, "i": 0, "k": 20},
                  "tiny": {"m": 4, "i": 2, "k": 6}},
    },
    # All five Donaldson rows plus the Darboux rows n = 2..5: 45 small and
    # mid-sized integrals that repeat each m, so per-m reuse and per-call
    # overhead show here and not on single_integral.  The n = 6 row would
    # add 60 % to the op, leaving 12-17 ops in a 40 s run, too few for a
    # steady tail.
    "paper_table": {
        "modules": ("donaldson_cp2", "donaldson_cp2.invariants"),
        "sizes": {"full": {"n_max": 6, "darboux_n": [2, 3, 4, 5]},
                  "tiny": {"n_max": 2, "darboux_n": [2]}},
    },
    # The determinantal witness with the engine idle: nearly all the time is
    # in barth_curve's cofactor expansion, the rest in incidence and rank.
    "witness": {
        "modules": ("donaldson_cp2", "donaldson_cp2.barth"),
        "sizes": {"full": {"n": 7}, "tiny": {"n": 3}},
    },
}


def integrate_key(m, i, k):
    return f"m={m},i={i},k={k}"


def table_key(n_max, darboux_n):
    return f"n_max={n_max},darboux_n={','.join(map(str, darboux_n))}"


def table_record(row):
    """A row of invariant_table as a JSON-comparable list."""
    if hasattr(row, "q"):
        return ["q", row.n, row.q]
    return ["darboux", row.n, row.i, row.count]


def op_inputs(workload, seed, size, oracle):
    """Endless stream of op inputs, fixed by (workload, seed, size).

    Engine ops draw a fresh specialization seed each; the value they must
    reproduce does not depend on it.  Witness ops walk the oracle's pinned
    pool of datum seeds, reshuffled on every pass, so that a run covers the
    pool evenly and its median does not hinge on a few lucky draws.
    """
    import random

    rng = random.Random(f"{workload}:{seed}")
    params = WORKLOADS[workload]["sizes"][size]
    if workload == "witness":
        pool = sorted(int(s) for s in oracle["witness"][str(params["n"])])
        while True:
            rng.shuffle(pool)
            for datum_seed in pool:
                yield {"n": params["n"], "datum_seed": datum_seed}
    while True:
        yield dict(params, spec_seed=rng.randrange(2**31))


def run_op(workload, inp, oracle):
    """Run one op through the public API and check its result.

    Returns the list of failed checks, empty when the op is correct.  API
    functions are looked up on their modules at call time, so the traced
    run's wrappers see the same calls.
    """
    if workload == "single_integral":
        from donaldson_cp2 import engine

        m = inp["m"]
        res = engine.integrate(m, engine.IntegrandSpec(inp["i"], inp["k"]),
                               seed=inp["spec_seed"])
        failures = []
        want = oracle["integrate"][integrate_key(m, inp["i"], inp["k"])]
        if str(res.value) != want:
            failures.append(f"value {res.value} != pinned {want}")
        if res.fixed_point_count != oracle["fixed_point_series"][m]:
            failures.append(f"fixed points {res.fixed_point_count} != "
                            f"series {oracle['fixed_point_series'][m]}")
        return failures

    if workload == "paper_table":
        from donaldson_cp2 import invariants

        n_max, darboux_n = inp["n_max"], inp["darboux_n"]
        rows = invariants.invariant_table(n_max, darboux_n=tuple(darboux_n),
                                          seed=inp["spec_seed"])
        got = [table_record(r) for r in rows]
        failures = []
        if got != oracle["invariant_table"][table_key(n_max, darboux_n)]:
            failures.append("table rows differ from the pinned rows")
        q = {r[1]: r[2] for r in got if r[0] == "q"}
        published = {n: oracle["published_q"][str(n)] for n in range(2, n_max + 1)}
        if q != published:
            failures.append(f"q values {q} != published {published}")
        return failures

    if workload == "witness":
        from donaldson_cp2 import barth

        n = inp["n"]
        datum = barth.sample_datum(n, inp["datum_seed"])
        curve = barth.barth_curve(datum)
        incident = barth.verify_darboux(datum.config, curve)
        dimension = barth.darboux_system_dimension(datum.config)
        failures = []
        want = oracle["witness"][str(n)][str(inp["datum_seed"])]
        if list(curve.coefficients) != want:
            failures.append("curve coefficients differ from the pinned curve")
        if curve.degree != n:
            failures.append(f"curve degree {curve.degree} != {n}")
        if not incident:
            failures.append("curve misses a node of the configuration")
        if dimension != n:
            failures.append(f"system dimension {dimension} != {n}")
        return failures

    raise ValueError(f"unknown workload {workload!r}")
