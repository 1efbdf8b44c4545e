"""The chart-by-chart fixed-point sum against the plain sum of
`integrand_at` over every fixed point, which builds each fixed point's
weight forms and inverts its Chern series."""

import random
from fractions import Fraction

import pytest

from donaldson_cp2.engine import (
    IntegrandSpec,
    Specialization,
    fixed_point_sum,
    integrand_at,
    integrate,
    sample_specialization,
)
from donaldson_cp2.partitions import enumerate_fixed_points
from donaldson_cp2.weights import (
    DEFAULT_FRAMES,
    DegenerateSpecialization,
    WeightForm,
    chart_frames,
    lambda_weight,
)

FRAMES = {"default": DEFAULT_FRAMES, "shifted": chart_frames(WeightForm(3, -2))}


def reference_sum(fps, spec, integrand, frames):
    return sum((integrand_at(fp, spec, integrand, frames) for fp in fps), Fraction(0))


def reference_specs(fps, seed, frames):
    """The first two draws from Random(seed) at which no fixed point has a
    vanishing tangent weight."""
    rng = random.Random(seed)
    specs = []
    while len(specs) < 2:
        spec = sample_specialization(rng, seed)
        try:
            reference_sum(fps, spec, IntegrandSpec(0, 0), frames)
        except DegenerateSpecialization:
            continue
        specs.append(spec)
    return specs


def reference_table(fps, spec, m, frames):
    """Every reference_sum with i + k <= 2m at spec, from one integrand_at
    call per fixed point and k: the c1(L)^i factor of a summand is the
    i-th power of the fixed point's weight of L."""
    table = {}
    for fp in fps:
        lam = lambda_weight(fp, frames).evaluate(spec.w1, spec.w2)
        for k in range(2 * m + 1):
            summand = integrand_at(fp, spec, IntegrandSpec(0, k), frames)
            for i in range(2 * m + 1 - k):
                table[i, k] = table.get((i, k), 0) + lam**i * summand
    return table


def test_reference_table_is_the_plain_sum():
    fps = enumerate_fixed_points(3)
    spec = Specialization(5, -7, seed=0)
    for frames in FRAMES.values():
        table = reference_table(fps, spec, 3, frames)
        for (i, k), value in table.items():
            assert value == reference_sum(fps, spec, IntegrandSpec(i, k), frames)


@pytest.mark.parametrize("frames_name", sorted(FRAMES))
@pytest.mark.parametrize("m", range(7))
def test_integrate_matches_per_fixed_point_sum(m, frames_name):
    frames = FRAMES[frames_name]
    fps = enumerate_fixed_points(m)
    seed = 100 + m
    specs = reference_specs(fps, seed, frames)
    want = reference_table(fps, specs[0], m, frames)
    for i in range(2 * m + 1):
        for k in range(2 * m + 1 - i):
            res = integrate(m, IntegrandSpec(i, k), seed=seed, frames=frames)
            assert [res.spec_used, res.cross_check_spec] == specs
            assert res.fixed_point_count == len(fps)
            assert res.value == want[i, k], (m, i, k)


@pytest.mark.parametrize("frames_name", sorted(FRAMES))
@pytest.mark.parametrize("m", [1, 3, 5])
@pytest.mark.parametrize("w", [(1, 2), (2, 3), (1, -1), (3, 1), (2, -3), (5, 7),
                               (4, 4), (0, 3)])
def test_degenerate_specializations_match_reference(m, w, frames_name):
    frames = FRAMES[frames_name]
    spec = Specialization(*w, seed=0)
    integrand = IntegrandSpec(m, m)
    try:
        want = reference_sum(enumerate_fixed_points(m), spec, integrand, frames)
    except DegenerateSpecialization:
        with pytest.raises(DegenerateSpecialization):
            fixed_point_sum(m, spec, integrand, frames)
    else:
        assert fixed_point_sum(m, spec, integrand, frames) == want


def test_degenerate_examples_cover_both_outcomes():
    outcomes = set()
    for w in [(1, 2), (2, 3)]:
        for m in (3, 5):
            try:
                fixed_point_sum(m, Specialization(*w, seed=0), IntegrandSpec(0, 0))
                outcomes.add(False)
            except DegenerateSpecialization:
                outcomes.add(True)
    assert outcomes == {True, False}
