"""The verification suite: every published value and structural property
the package is accountable for, as independent named checks.

Each check returns (ok, detail).  The CLI `verify` subcommand and the
acceptance tests both run exactly these.  The Bareiss determinant that
`darboux_form_oracle` checks the witness curve against lives here, apart
from `barth`, which never loads this module.
"""

from math import gcd, prod
from time import perf_counter

from .engine import MAX_M, IntegrandSpec, fixed_point_count, integrate, integrate_by_m
from .invariants import donaldson_q
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


def _eliminate(matrix) -> tuple[int, int, int]:
    """Bareiss fraction-free Gaussian elimination of an integer matrix.
    All intermediate entries stay integral.

    Returns (rank, sign, last pivot), where sign is that of the row
    permutation; for a square matrix of full rank, sign * last pivot is
    the determinant.
    """
    m = [list(row) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if m else 0
    rank, sign, prev = 0, 1, 1
    for c in range(cols):
        if rank == rows:
            break
        pivot = next((j for j in range(rank, rows) if m[j][c] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        for j in range(rank + 1, rows):
            for cc in range(c + 1, cols):
                m[j][cc] = (m[rank][c] * m[j][cc] - m[j][c] * m[rank][cc]) // prev
            m[j][c] = 0
        prev = m[rank][c]
        rank += 1
    return rank, sign, prev


def bareiss_det(matrix) -> int:
    """Determinant of a square integer matrix by Bareiss elimination."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("matrix must be square")
    rank, sign, last = _eliminate(matrix)
    return sign * last if rank == len(matrix) else 0


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


def check_closed_forms():
    """Two closed forms at every size the engine accepts, from one pass
    over m = 1..MAX_M: the integral of c1(L)^{2m} is (2m-1)!! (L is pulled
    back from Sym^m P^2), and that of c1(L)^{2m-1} s_1(E tensor L) is
    (m-1)(2m-1)!!, since c1(E) = -L - B/2 with B the Hilbert-Chow boundary
    and L^{2m-1}.B = 0.  Both are independent of the sum, so they pin it,
    and the tables and products it shares, at every m."""
    passes = {m: [IntegrandSpec(2 * m, 0), IntegrandSpec(2 * m - 1, 1)]
              for m in range(1, MAX_M + 1)}
    bad = []
    for m, (power, segre) in integrate_by_m(passes).items():
        double_factorial = prod(range(2 * m - 1, 0, -2))
        want = (double_factorial, (m - 1) * double_factorial)
        if (power.value, segre.value) != want:
            bad.append((m, (power.value, segre.value), want))
    return not bad, (f"mismatches: {bad}" if bad else
                     "c1(L)^2m = (2m-1)!! and c1(L)^(2m-1) s1(E*L) = (m-1) (2m-1)!! "
                     f"for m=1..{MAX_M}, one pass")


CRITERIA = [
    ("published_invariants", check_published_invariants),
    ("specialization_independence", check_specialization_independence),
    ("vanishing", check_vanishing),
    ("fixed_point_counts", check_fixed_point_counts),
    ("barth_witness", check_barth_witness),
    ("run_determinism", check_run_determinism),
    ("closed_forms", check_closed_forms),
    ("darboux_form_oracle", check_darboux_form_oracle),
]


def run_checks():
    """Run the checks in CRITERIA order, yielding one record per check as
    it finishes: its name, ok, detail and elapsed_s, its monotonic time.
    A check that raises one of the package's two error families,
    ArithmeticError or ValueError, fails with the error as its detail and
    the next check still runs; any other exception is a bug in the check
    and propagates."""
    for name, check in CRITERIA:
        t0 = perf_counter()
        try:
            ok, detail = check()
        except (ArithmeticError, ValueError) as exc:
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        yield {"name": name, "ok": ok, "detail": detail, "elapsed_s": perf_counter() - t0}


def report_line(record: dict) -> str:
    """A check's record as its PASS/FAIL line."""
    return (f"{'PASS' if record['ok'] else 'FAIL'} {record['name']} "
            f"({record['elapsed_s']:.2f} s): {record['detail']}")
