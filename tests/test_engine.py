import random
from fractions import Fraction
from math import prod

import pytest

from donaldson_cp2.engine import (
    SPAN,
    DegreeMismatch,
    IntegrandSpec,
    Specialization,
    chart_frames,
    fixed_point_count,
    fixed_point_sum,
    integrate,
    specializations,
)
from fixed_point_reference import (
    elementary_symmetric,
    enumerate_fixed_points,
    evaluate,
    integrand_at,
    segre_coefficients,
    tangent_weights,
)


def esym_bruteforce(values):
    """Expand prod_j (1 + x_j t) by explicit polynomial multiplication."""
    poly = [Fraction(1)]
    for x in values:
        poly = [a + (poly[j - 1] * x if j else 0) for j, a in enumerate(poly)] + [poly[-1] * x]
    return poly


def inverse_series_bruteforce(chern, k):
    """1 / c(t) to order k via the geometric series sum (1 - c)^t,
    valid because c - 1 has positive valuation."""
    u = [Fraction(0) - c for c in chern]
    u[0] += 1  # u = 1 - c, u[0] = 0
    out = [Fraction(0)] * (k + 1)
    power = [Fraction(1)] + [Fraction(0)] * k
    for _ in range(k + 1):
        for j in range(k + 1):
            out[j] += power[j]
        nxt = [Fraction(0)] * (k + 1)
        for a in range(k + 1):
            if power[a] == 0:
                continue
            for b in range(min(len(u), k + 1 - a)):
                nxt[a + b] += power[a] * u[b]
        power = nxt
    return out


def test_elementary_symmetric_examples():
    assert elementary_symmetric([2, 3], 2) == [1, 5, 6]
    x = Fraction(7, 3)
    assert elementary_symmetric([x], 1) == [1, x]


def test_elementary_symmetric_against_bruteforce():
    rng = random.Random(3)
    for _ in range(10):
        vals = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(6)]
        assert elementary_symmetric(vals, 6) == esym_bruteforce(vals)


def test_elementary_symmetric_rejects_excess_up_to():
    with pytest.raises(ValueError):
        elementary_symmetric([1, 2], 3)


def test_segre_low_order_identities():
    c1, c2 = Fraction(5), Fraction(-3)
    assert segre_coefficients([1, c1], 1)[1] == -c1
    assert segre_coefficients([1, c1, c2], 2)[2] == c1 * c1 - c2


def test_segre_against_series_inversion():
    rng = random.Random(4)
    for _ in range(5):
        roots = [Fraction(rng.randint(-5, 5)) for _ in range(4)]
        chern = elementary_symmetric(roots, 4)
        assert segre_coefficients(chern, 6) == inverse_series_bruteforce(chern, 6)


def test_segre_requires_unit_leading_term():
    with pytest.raises(ValueError):
        segre_coefficients([2, 1], 1)


def point_in_chart(chart):
    mu = [(), (), ()]
    mu[chart] = (1,)
    return tuple(mu)


def test_integrand_at_hand_examples():
    spec = Specialization(1, 5, seed=0)
    # chart 0: lambda specializes to 0, euler to 5
    assert integrand_at(point_in_chart(0), spec, IntegrandSpec(2, 0)) == 0
    # chart 1: lambda = w1 = 1, tangent weights {-w1, w2-w1} -> euler = -4
    assert integrand_at(point_in_chart(1), spec, IntegrandSpec(2, 0)) == Fraction(1, -4)


def test_integrand_at_trivial_numerator():
    spec = Specialization(2, 9, seed=0)
    for fp in enumerate_fixed_points(2):
        euler = 1
        for f in tangent_weights(fp):
            euler *= evaluate(f, 2, 9)
        assert integrand_at(fp, spec, IntegrandSpec(0, 0)) == Fraction(1, euler)


def test_integrate_known_value():
    assert integrate(3, IntegrandSpec(3, 3)).value == 8


@pytest.mark.parametrize("m", range(1, 13))
def test_one_segre_degree_is_a_closed_form(m):
    # c1(E) = -L - B/2 with B the Hilbert-Chow boundary, L^(2m-1).B = 0 and
    # L^2m = (2m-1)!!, so c1(L)^(2m-1) s_1(E tensor L) = (m-1) (2m-1)!!
    value = integrate(m, IntegrandSpec(2 * m - 1, 1)).value
    assert value == (m - 1) * prod(range(2 * m - 1, 0, -2))


def test_integrate_vanishing_mode():
    assert integrate(2, IntegrandSpec(1, 2)).value == 0


def test_integrate_rejects_excess_degree():
    with pytest.raises(DegreeMismatch):
        integrate(2, IntegrandSpec(3, 2))


def test_integrate_rejects_negative_exponents():
    with pytest.raises(ValueError):
        integrate(2, IntegrandSpec(-1, 2))


def test_vanishing_grid():
    for m in range(1, 4):
        for i in range(2 * m):
            for k in range(2 * m - i):
                assert integrate(m, IntegrandSpec(i, k)).value == 0, (m, i, k)


def test_specialization_independence():
    for seed in (1, 17, 99):
        assert integrate(4, IntegrandSpec(2, 6), seed=seed).value == 12


def test_manual_sign_flip_specialization():
    # summing over all fixed points, (w1, w2) and (-w1, -w2) agree
    integrand = IntegrandSpec(2, 2)
    fps = enumerate_fixed_points(2)
    plus = sum(integrand_at(fp, Specialization(3, 11, 0), integrand) for fp in fps)
    minus = sum(integrand_at(fp, Specialization(-3, -11, 0), integrand) for fp in fps)
    assert plus == minus


def test_linearization_shift_invariance():
    # fixed_point_sum is the one entry point that takes frames: at both
    # specializations the shifted sum is the default integral, chart by
    # chart and fixed point by fixed point
    frames = chart_frames((3, -2))
    for m, integrand in [(2, IntegrandSpec(4, 0)), (3, IntegrandSpec(3, 3)),
                         (3, IntegrandSpec(0, 6))]:
        value = integrate(m, integrand).value
        for spec in specializations(m, 0):
            assert fixed_point_sum(m, spec, (integrand,), frames) == (value,)
            assert sum(integrand_at(fp, spec, integrand, frames)
                       for fp in enumerate_fixed_points(m)) == value


def test_run_to_run_determinism():
    first = integrate(4, IntegrandSpec(2, 6), seed=7)
    again = integrate(4, IntegrandSpec(2, 6), seed=7)
    assert (first.value, first.spec_used, first.cross_check_spec) == \
        (again.value, again.spec_used, again.cross_check_spec)
    assert {integrate(4, IntegrandSpec(2, 6), seed=s).value for s in (7, 8, 9)} == {12}


def test_integrate_rejects_negative_m():
    with pytest.raises(ValueError, match="m must be nonnegative"):
        integrate(-1, IntegrandSpec(0, 0))


def test_result_metadata():
    res = integrate(3, IntegrandSpec(3, 3), seed=42)
    assert res.m == 3
    assert res.integrand == IntegrandSpec(3, 3)
    assert res.elapsed_s > 0
    assert res.fixed_point_count == 22
    assert res.spec_used != res.cross_check_spec


def test_fixed_point_count_is_the_number_of_fixed_points():
    for m in range(9):
        assert fixed_point_count(m) == len(enumerate_fixed_points(m))


def test_specializations_are_two_distinct_points_of_the_family():
    for m in (0, 3, 10, 40):
        for seed in range(20):
            first, second = specializations(m, seed)
            assert specializations(m, seed) == (first, second)
            assert first != second
            for spec in (first, second):
                assert spec.w1 == 1 and m + 1 < spec.w2 <= m + 1 + SPAN
                assert spec.seed == seed
        assert len({specializations(m, seed) for seed in range(20)}) > 1
    res = integrate(3, IntegrandSpec(3, 3), seed=42)
    assert (res.spec_used, res.cross_check_spec) == specializations(3, 42)
