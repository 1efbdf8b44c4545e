import random

import pytest

from donaldson_cp2.partitions import EMPTY, FixedPoint, Partition, enumerate_fixed_points
from donaldson_cp2.weights import (
    DEFAULT_FRAMES,
    DegenerateSpecialization,
    WeightForm,
    ZERO,
    chart_frames,
)
from fixed_point_reference import (
    e_weights,
    euler_class,
    lambda_weight,
    oz_weights,
    tangent_weights,
)


def point_in_chart(chart):
    mu = [EMPTY, EMPTY, EMPTY]
    mu[chart] = Partition((1,))
    return FixedPoint(tuple(mu))


def test_weightform_arithmetic():
    a, b = WeightForm(1, 2), WeightForm(3, -1)
    assert a + b == WeightForm(4, 1)
    assert a - b == WeightForm(-2, 3)
    assert -a == WeightForm(-1, -2)
    assert a.scale(3) == WeightForm(3, 6)
    assert a.evaluate(10, 1) == 12


def test_tangent_single_point_chart0():
    got = tangent_weights(point_in_chart(0))
    assert sorted((f.a, f.b) for f in got) == [(0, 1), (1, 0)]


def test_tangent_row_partition_hand_example():
    # mu_0 = (2): cells (0,0) arm 1 leg 0 and (0,1) arm 0 leg 0
    fp = FixedPoint((Partition((2,)), EMPTY, EMPTY))
    got = sorted((f.a, f.b) for f in tangent_weights(fp))
    assert got == sorted([(2, 0), (-1, 1), (1, 0), (0, 1)])
    for f in tangent_weights(fp):
        assert f != ZERO


def test_tangent_count_is_2m():
    for fp in enumerate_fixed_points(4):
        assert len(tangent_weights(fp)) == 8


def test_oz_single_point_twists():
    fp = point_in_chart(0)
    assert oz_weights(fp, 0) == [ZERO]
    assert oz_weights(fp, -1) == [-DEFAULT_FRAMES[0].line_weight]
    fp1 = point_in_chart(1)
    assert oz_weights(fp1, -1) == [-DEFAULT_FRAMES[1].line_weight]


def test_oz_count_is_m():
    for fp in enumerate_fixed_points(5):
        for twist in (-1, 0, 2):
            assert len(oz_weights(fp, twist)) == 5


def test_e_weights_count_and_twist():
    for fp in enumerate_fixed_points(3):
        assert e_weights(fp) == oz_weights(fp, -1)
        assert len(e_weights(fp)) == 3


def test_e_weights_two_charts_example():
    fp = FixedPoint((EMPTY, Partition((1,)), Partition((1,))))
    w = e_weights(fp)
    # cells contribute nothing at (0,0); weights are the negated line weights
    assert sorted((f.a, f.b) for f in w) == sorted([(-1, 0), (0, -1)])


def test_lambda_single_points():
    assert lambda_weight(point_in_chart(0)) == ZERO
    assert lambda_weight(point_in_chart(1)) == WeightForm(1, 0)
    assert lambda_weight(point_in_chart(2)) == WeightForm(0, 1)


def test_lambda_depends_only_on_chart_sizes():
    rng = random.Random(1)
    fps = enumerate_fixed_points(6)
    for _ in range(30):
        fp = rng.choice(fps)
        sizes = tuple(p.size for p in fp.mu)
        expected = ZERO
        for size, frame in zip(sizes, DEFAULT_FRAMES):
            expected = expected + frame.line_weight.scale(size)
        assert lambda_weight(fp) == expected


def test_lambda_negates_under_global_sign_flip():
    for fp in enumerate_fixed_points(3):
        lam = lambda_weight(fp)
        assert lam.evaluate(-7, -11) == -lam.evaluate(7, 11)


def test_line_weight_cocycle():
    f0, f1, f2 = DEFAULT_FRAMES
    # moving between charts shifts the trivialization by the transition
    # coordinate's character
    assert f1.line_weight - f0.line_weight == -f1.coord_weights[0]
    assert f2.line_weight - f0.line_weight == -f2.coord_weights[0]
    assert f2.line_weight - f1.line_weight == -f2.coord_weights[1]


def test_chart_frames_shift_moves_line_weights_only():
    chi = WeightForm(3, -4)
    shifted = chart_frames(chi)
    for plain, moved in zip(DEFAULT_FRAMES, shifted):
        assert moved.coord_weights == plain.coord_weights
        assert moved.line_weight == plain.line_weight + chi


def test_shift_effect_on_e_and_lambda():
    chi = WeightForm(2, 5)
    frames = chart_frames(chi)
    for fp in enumerate_fixed_points(3):
        plain_e = e_weights(fp)
        moved_e = e_weights(fp, frames)
        assert all(b == a - chi for a, b in zip(plain_e, moved_e))
        assert lambda_weight(fp, frames) == lambda_weight(fp) + chi.scale(fp.size)


def test_euler_single_point():
    assert euler_class(point_in_chart(0), 1, 5) == 5


def test_euler_row_partition():
    fp = FixedPoint((Partition((2,)), EMPTY, EMPTY))
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
