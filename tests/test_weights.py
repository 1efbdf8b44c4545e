import random

import pytest

from donaldson_cp2.engine import DEFAULT_FRAMES, DegenerateSpecialization, chart_frames
from fixed_point_reference import (
    ZERO,
    e_weights,
    enumerate_fixed_points,
    euler_class,
    evaluate,
    form,
    lambda_weight,
    oz_weights,
    tangent_weights,
)


def point_in_chart(chart):
    mu = [(), (), ()]
    mu[chart] = (1,)
    return tuple(mu)


def test_weightform_arithmetic():
    a, b = (1, 2), (3, -1)
    assert form(1, a, 1, b) == (4, 1)
    assert form(1, a, -1, b) == (-2, 3)
    assert form(-1, a, 0, b) == (-1, -2)
    assert form(3, a, 0, ZERO) == (3, 6)
    assert form(2, a, -5, b) == (-13, 9)
    assert evaluate(a, 10, 1) == 12
    assert evaluate(form(2, a, -5, b), 10, 1) == 2 * 12 - 5 * 29


def test_tangent_single_point_chart0():
    assert sorted(tangent_weights(point_in_chart(0))) == [(0, 1), (1, 0)]


def test_tangent_row_partition_hand_example():
    # mu_0 = (2): cells (0,0) arm 1 leg 0 and (0,1) arm 0 leg 0
    fp = ((2,), (), ())
    got = sorted(tangent_weights(fp))
    assert got == sorted([(2, 0), (-1, 1), (1, 0), (0, 1)])
    for f in tangent_weights(fp):
        assert f != ZERO


def test_tangent_count_is_2m():
    for fp in enumerate_fixed_points(4):
        assert len(tangent_weights(fp)) == 8


def test_oz_single_point_twists():
    fp = point_in_chart(0)
    assert oz_weights(fp, 0) == [ZERO]
    assert oz_weights(fp, -1) == [form(-1, DEFAULT_FRAMES[0][2], 0, ZERO)]
    fp1 = point_in_chart(1)
    assert oz_weights(fp1, -1) == [form(-1, DEFAULT_FRAMES[1][2], 0, ZERO)]


def test_oz_count_is_m():
    for fp in enumerate_fixed_points(5):
        for twist in (-1, 0, 2):
            assert len(oz_weights(fp, twist)) == 5


def test_e_weights_count_and_twist():
    for fp in enumerate_fixed_points(3):
        assert e_weights(fp) == oz_weights(fp, -1)
        assert len(e_weights(fp)) == 3


def test_e_weights_two_charts_example():
    fp = ((), (1,), (1,))
    # cells contribute nothing at (0,0); weights are the negated line weights
    assert sorted(e_weights(fp)) == sorted([(-1, 0), (0, -1)])


def test_lambda_single_points():
    assert lambda_weight(point_in_chart(0)) == ZERO
    assert lambda_weight(point_in_chart(1)) == (1, 0)
    assert lambda_weight(point_in_chart(2)) == (0, 1)


def test_lambda_depends_only_on_chart_sizes():
    rng = random.Random(1)
    fps = enumerate_fixed_points(6)
    for _ in range(30):
        fp = rng.choice(fps)
        sizes = tuple(map(sum, fp))
        expected = ZERO
        for size, (_, _, line) in zip(sizes, DEFAULT_FRAMES):
            expected = form(1, expected, size, line)
        assert lambda_weight(fp) == expected


def test_lambda_negates_under_global_sign_flip():
    for fp in enumerate_fixed_points(3):
        lam = lambda_weight(fp)
        assert evaluate(lam, -7, -11) == -evaluate(lam, 7, 11)


def test_line_weight_cocycle():
    (_, _, line0), (u1, _, line1), (u2, v2, line2) = DEFAULT_FRAMES
    # moving between charts shifts the trivialization by the transition
    # coordinate's character
    assert form(1, line1, -1, line0) == form(-1, u1, 0, ZERO)
    assert form(1, line2, -1, line0) == form(-1, u2, 0, ZERO)
    assert form(1, line2, -1, line1) == form(-1, v2, 0, ZERO)


def test_chart_frames_shift_moves_line_weights_only():
    chi = (3, -4)
    shifted = chart_frames(chi)
    for (u, v, line), moved in zip(DEFAULT_FRAMES, shifted):
        assert moved == (u, v, form(1, line, 1, chi))


def test_shift_effect_on_e_and_lambda():
    chi = (2, 5)
    frames = chart_frames(chi)
    for fp in enumerate_fixed_points(3):
        plain_e = e_weights(fp)
        moved_e = e_weights(fp, frames)
        assert all(b == form(1, a, -1, chi) for a, b in zip(plain_e, moved_e))
        assert lambda_weight(fp, frames) == form(1, lambda_weight(fp), sum(map(sum, fp)), chi)


def test_euler_single_point():
    assert euler_class(point_in_chart(0), 1, 5) == 5


def test_euler_row_partition():
    fp = ((2,), (), ())
    # weights {2w1, w2-w1, w1, w2} at (1, 5)
    assert euler_class(fp, 1, 5) == 2 * 4 * 1 * 5


def test_euler_degenerate_on_equal_weights():
    fp = point_in_chart(1)  # coordinate weight w2 - w1 vanishes on w1 = w2
    with pytest.raises(DegenerateSpecialization):
        euler_class(fp, 3, 3)


def test_euler_generic_sampling_succeeds():
    rng = random.Random(2)
    fps = enumerate_fixed_points(4)
    for _ in range(20):
        w1 = rng.randint(-10**6, 10**6)
        w2 = rng.randint(-10**6, 10**6)
        if w1 == 0 or w2 == 0 or w1 == w2:
            continue
        for fp in fps:
            assert euler_class(fp, w1, w2) != 0
