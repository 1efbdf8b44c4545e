"""The verification suite: every published value and structural property
the package is accountable for, as independent named checks.

Each check returns (ok, detail).  The CLI `verify` subcommand and the
acceptance tests both run exactly these.
"""

from math import gcd, prod
from time import perf_counter

from .engine import IntegrandSpec, fixed_point_count, integrate, integrate_by_m
from .invariants import darboux_count, donaldson_q
from .linalg import bareiss_det
from . import barth

PUBLISHED_Q = {2: 1, 3: 3, 4: 54, 5: 2540, 6: 233208}


def fixed_point_count_series(m_max: int) -> list[int]:
    """Coefficients of prod_{k=1..m_max} (1-q^k)^-3 up to q^m_max,
    computed by direct power-series arithmetic (independent oracle)."""
    series = [1] + [0] * m_max
    for k in range(1, m_max + 1):
        # multiply three times by 1/(1-q^k) = 1 + q^k + q^2k + ...
        for _ in range(3):
            for j in range(k, m_max + 1):
                series[j] += series[j - k]
    return series


def check_published_invariants():
    got = {n: donaldson_q(n).q for n in range(2, 7)}
    ok = got == PUBLISHED_Q
    return ok, f"q values {got} vs published {PUBLISHED_Q}"


def check_raw_integrals():
    v6 = integrate(6, IntegrandSpec(0, 12)).value
    v7 = integrate(7, IntegrandSpec(0, 14)).value
    ok = v6 == 2540 and v7 == 583020
    return ok, f"integral over H_6 = {v6} (want 2540), over H_7 = {v7} (want 583020)"


def check_donaldson_darboux_prefactor():
    """q_{4n-3} * 2^(5-n) and darboux(n, 5-n) share one integral by
    construction, so this pins the prefactor and the integrality of q."""
    bad = []
    for n in range(2, 6):
        lhs = 2 ** (5 - n) * donaldson_q(n).q
        rhs = darboux_count(n, 5 - n).count
        if lhs != rhs:
            bad.append((n, lhs, rhs))
    return not bad, (f"mismatches: {bad}" if bad else
                     "q_(4n-3) * 2^(5-n) and darboux(n, 5-n) share one integral: "
                     "prefactor and integrality hold for n=2..5")


def check_specialization_independence():
    """The integrals behind q_5 ... q_21 agree bitwise across seeds."""
    bad = []
    for n in range(2, 7):
        values = {donaldson_q(n, seed=s).raw_integral for s in (11, 222, 3333)}
        if len(values) != 1:
            bad.append((n, values))
    return not bad, (f"disagreements at n: {bad}" if bad else
                     "3 seeds agree bitwise on the integrals behind q_5..q_21")


def check_vanishing():
    """Every integral with i + k < 2m is 0, from one pass over m = 1..7."""
    passes = {m: [IntegrandSpec(i, k) for i in range(2 * m) for k in range(2 * m - i)]
              for m in range(1, 8)}
    bad = [(m, res.integrand.i, res.integrand.k, res.value)
           for m, results in integrate_by_m(passes).items()
           for res in results if res.value != 0]
    return not bad, (f"nonzero: {bad}" if bad else
                     "all i+k < 2m integrals vanish for m <= 7, one pass")


def check_fixed_point_counts():
    """The count every IntegralResult reports, against the series."""
    oracle = fixed_point_count_series(16)
    got = [fixed_point_count(m) for m in range(17)]
    ok = got == oracle
    return ok, f"engine counts for m <= 16 {got} vs series oracle {oracle}"


def check_barth_witness():
    for n in range(2, 13):
        for seed in range(20):
            datum = barth.sample_datum(n, seed)
            curve = barth.barth_curve(datum)
            if curve.degree != n:
                return False, f"degree {curve.degree} != {n} at seed {seed}"
            if not barth.verify_darboux(datum.config, curve):
                return False, f"incidence failed at n={n}, seed {seed}"
        for seed in range(5):
            config = barth.sample_configuration(n, 1000 + seed)
            dim = barth.darboux_system_dimension(config)
            if dim != n:
                return False, f"system dimension {dim} != {n} at seed {1000 + seed}"
    return True, "degree, incidence and system dimension correct for n=2..12"


def multiplication_determinant(datum, line) -> int:
    """det(P diag(ell(z_j)) K') at one line ell, by Bareiss elimination
    over the integers: the determinant that defines the curve, with none
    of barth_curve's closed form in it.  P has the rows e_r - e_0, and K'
    has the integer kernel basis ext'_p e_j - ext'_j e_p (j != p) of the
    functional ext'_j = ext_j f_j as columns, f_j the first nonzero
    coordinate of the point z_j and p the first index of a nonzero ext'_p.
    diag(1/f_j) maps ker(ext) onto ker(ext') and ell(z_j) / f_j is
    ell(zhat_j), so this is P diag(ell(zhat_j)) K in another basis of the
    kernel: one constant times the curve at every line."""
    points = datum.config.points
    weights = [e * next(c for c in z if c) for e, z in zip(datum.extension, points)]
    values = [sum(l * c for l, c in zip(line, z)) for z in points]
    p = next(j for j, w in enumerate(weights) if w)
    # column j of diag(ell(z)) K', as a list over the points
    image = [[values[i] * (weights[p] * (i == j) - weights[j] * (i == p))
              for i in range(len(points))] for j in range(len(points)) if j != p]
    return bareiss_det([[col[r] - col[0] for col in image]
                        for r in range(1, len(points))])


def check_darboux_form_oracle():
    """barth_curve is the determinant that defines it, normalized.  The
    lines (a, b, n-a-b) with a, b, n-a-b >= 0 are unisolvent for degree-n
    forms, so values proportional there mean forms proportional
    everywhere; a primitive integral form with positive leading
    coefficient is then the normalized determinant itself."""
    bad = []
    for n in range(2, 10):
        for seed in range(3):
            datum = barth.sample_datum(n, seed)
            curve = barth.barth_curve(datum)
            # monomials(n) lists exactly the triples (a, b, n-a-b)
            pairs = [(curve.evaluate(line), multiplication_determinant(datum, line))
                     for line in barth.monomials(n)]
            ref_curve, ref_det = next(p for p in pairs if p[1])
            proportional = all(c * ref_det == d * ref_curve for c, d in pairs)
            lead = next(c for c in curve.coefficients if c)
            if not (proportional and gcd(*curve.coefficients) == 1 and lead > 0):
                bad.append((n, seed))
    return not bad, (f"curve is not the normalized determinant at (n, seed) {bad}"
                     if bad else "barth_curve = normalized det(P diag(ell(z_j)) K') "
                                 "for n=2..9, 3 seeds each")


def check_run_determinism():
    integrand = IntegrandSpec(0, 14)
    first, again = (integrate(7, integrand, seed=5) for _ in range(2))
    same_run = (first.value, first.spec_used, first.cross_check_spec) == \
        (again.value, again.spec_used, again.cross_check_spec)
    values = {integrate(7, integrand, seed=s).value for s in (5, 6, 7)}
    ok = same_run and values == {583020}
    return ok, (f"seed 5 twice: {first.value} at {first.spec_used} and "
                f"{again.value} at {again.spec_used}; seeds 5, 6, 7 give "
                f"{', '.join(sorted(map(str, values)))}")


def check_c1_power_oracle():
    """The integral of c1(L)^{2m} is (2m-1)!! (L is pulled back from
    Sym^m P^2), an independent closed form for the whole sum, from one
    pass over m = 1..9 and so for the products it shares too."""
    bad = []
    for m, (res,) in integrate_by_m({m: [IntegrandSpec(2 * m, 0)]
                                     for m in range(1, 10)}).items():
        want = prod(range(2 * m - 1, 0, -2))
        if res.value != want:
            bad.append((m, res.value, want))
    return not bad, f"mismatches: {bad}" if bad else "c1(L)^2m = (2m-1)!! for m=1..9"


CRITERIA = [
    ("published_invariants", check_published_invariants),
    ("raw_integrals", check_raw_integrals),
    ("donaldson_darboux_prefactor", check_donaldson_darboux_prefactor),
    ("specialization_independence", check_specialization_independence),
    ("vanishing", check_vanishing),
    ("fixed_point_counts", check_fixed_point_counts),
    ("barth_witness", check_barth_witness),
    ("run_determinism", check_run_determinism),
    ("c1_power_oracle", check_c1_power_oracle),
    ("darboux_form_oracle", check_darboux_form_oracle),
]


def run_checks():
    """Run the checks in CRITERIA order, yielding one record per check as
    it finishes: its name, ok, detail and elapsed_s, its monotonic time."""
    for name, check in CRITERIA:
        t0 = perf_counter()
        ok, detail = check()
        yield {"name": name, "ok": ok, "detail": detail, "elapsed_s": perf_counter() - t0}


def report_line(record: dict) -> str:
    """A check's record as its PASS/FAIL line."""
    return (f"{'PASS' if record['ok'] else 'FAIL'} {record['name']} "
            f"({record['elapsed_s']:.2f} s): {record['detail']}")
