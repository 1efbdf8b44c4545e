"""Compute the benchmark's pinned-result oracle and write oracle.json.

Run once, from the repository root, at the commit whose results are to be
pinned:

    python3 perfbench/pin_oracle.py

Every value an op must reproduce is computed here with the package's
public API and written to oracle.json together with how it was obtained.
Ops in the benchmark are then checked against these values, and against
independent checks where one exists:

- `fixed_point_series`: the coefficients of prod_k (1-q^k)^-3, from the
  package's power-series oracle `verify.fixed_point_count_series`, which
  does not enumerate partitions.  An integral's fixed-point count must
  equal the series coefficient.
- `published_q`: q5..q21 of CP^2 as published in the literature, typed
  in by hand, not computed.  invariant_table's q rows must equal them.
- Witness ops must also have incidence true and system dimension = n,
  which hold for every generic datum.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from donaldson_cp2 import barth, engine, invariants, verify  # noqa: E402
from run import git_revision  # noqa: E402
from workloads import WORKLOADS, integrate_key, table_key, table_record  # noqa: E402

PUBLISHED_Q = {"2": 1, "3": 3, "4": 54, "5": 2540, "6": 233208}

# Datum seeds pinned per witness size.  The full pool is about as large as
# the number of ops in one run, so a run covers it nearly once.
POOL_SIZE = {"full": 32, "tiny": 8}

PIN_SEEDS = (0, 1)


def _same_for_seeds(compute):
    """compute(seed) for each pin seed; they must agree."""
    values = [compute(seed) for seed in PIN_SEEDS]
    if any(v != values[0] for v in values):
        raise SystemExit(f"specialization seeds disagree: {values}")
    return values[0]


def witness_pool(n, size):
    """The first `size` datum seeds whose extension vector has no zero
    entry (the generic case, where no cofactor vanishes for free), each
    with its pinned curve coefficients."""
    pool = {}
    seed = 0
    while len(pool) < size:
        datum = barth.sample_datum(n, seed)
        if all(datum.extension):
            curve = barth.barth_curve(datum)
            if not barth.verify_darboux(datum.config, curve):
                raise SystemExit(f"incidence fails for n={n}, seed {seed}")
            if barth.darboux_system_dimension(datum.config) != n:
                raise SystemExit(f"system dimension != {n} for seed {seed}")
            pool[str(seed)] = list(curve.coefficients)
        seed += 1
    return pool


def main():
    m_max = max(p["m"] for p in WORKLOADS["single_integral"]["sizes"].values())
    oracle = {
        "how": ("written by perfbench/pin_oracle.py at git revision "
                f"{git_revision()} with Python {sys.version.split()[0]}; "
                "integrals and tables evaluated under specialization seeds "
                f"{list(PIN_SEEDS)}, which agreed; fixed_point_series from "
                "verify.fixed_point_count_series; published_q typed in from "
                "the literature; witness pools are the first datum seeds "
                "with a zero-free extension vector, each checked for "
                "incidence and system dimension n"),
        "fixed_point_series": verify.fixed_point_count_series(m_max),
        "published_q": PUBLISHED_Q,
        "integrate": {},
        "invariant_table": {},
        "witness": {},
    }
    for size in ("tiny", "full"):
        p = WORKLOADS["single_integral"]["sizes"][size]
        spec = engine.IntegrandSpec(p["i"], p["k"])
        value = _same_for_seeds(lambda s: engine.integrate(p["m"], spec, seed=s).value)
        oracle["integrate"][integrate_key(p["m"], p["i"], p["k"])] = str(value)

        p = WORKLOADS["paper_table"]["sizes"][size]
        rows = _same_for_seeds(lambda s: [
            table_record(r) for r in invariants.invariant_table(
                p["n_max"], darboux_n=tuple(p["darboux_n"]), seed=s)])
        q = {str(r[1]): r[2] for r in rows if r[0] == "q"}
        if any(q[n] != PUBLISHED_Q[n] for n in q):
            raise SystemExit(f"q values {q} differ from published {PUBLISHED_Q}")
        oracle["invariant_table"][table_key(p["n_max"], p["darboux_n"])] = rows

        n = WORKLOADS["witness"]["sizes"][size]["n"]
        oracle["witness"][str(n)] = witness_pool(n, POOL_SIZE[size])

    with open(os.path.join(HERE, "oracle.json"), "w") as f:
        json.dump(oracle, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
