import random

import pytest

from donaldson_cp2 import engine
from fixed_point_reference import cells, enumerate_fixed_points, enumerate_partitions


def partition_count_oracle(n):
    """Classical partition function by the two-variable recurrence
    p(n, max part k), independent of the enumeration code."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[0][k] = 1
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            table[m][k] = table[m][k - 1] + (table[m - k][min(m - k, k)] if m >= k else 0)
    return table[n][n]


def triple_count_oracle(m_max):
    """Coefficients of prod (1-q^k)^-3 by direct series multiplication."""
    series = [1] + [0] * m_max
    for k in range(1, m_max + 1):
        for _ in range(3):
            for j in range(k, m_max + 1):
                series[j] += series[j - k]
    return series


def test_partitions_of_zero():
    assert enumerate_partitions(0) == [()]


def test_partitions_of_two_order():
    assert enumerate_partitions(2) == [(2,), (1, 1)]


def test_partitions_reverse_lex_order():
    for m in range(8):
        seq = enumerate_partitions(m)
        assert seq == sorted(seq, reverse=True)


@pytest.mark.parametrize("m", range(11))
def test_partition_counts_match_oracle(m):
    assert len(enumerate_partitions(m)) == partition_count_oracle(m)


def test_p7_is_15():
    assert len(enumerate_partitions(7)) == 15


def test_partitions_distinct_and_valid():
    for m in range(9):
        seen = set()
        for p in enumerate_partitions(m):
            assert sum(p) == m
            assert all(part > 0 for part in p)
            assert list(p) == sorted(p, reverse=True)
            assert p not in seen
            seen.add(p)


def test_negative_m_rejected():
    with pytest.raises(ValueError):
        enumerate_partitions(-1)
    with pytest.raises(ValueError):
        enumerate_fixed_points(-2)


def test_fixed_point_counts_small():
    assert len(enumerate_fixed_points(1)) == 3
    assert len(enumerate_fixed_points(2)) == 9
    assert len(enumerate_fixed_points(7)) == 429


@pytest.mark.parametrize("m", range(13))
def test_fixed_point_counts_match_series_oracle(m):
    assert len(enumerate_fixed_points(m)) == triple_count_oracle(12)[m]


def test_fixed_points_distinct_and_sized():
    for m in range(6):
        seen = set()
        for fp in enumerate_fixed_points(m):
            assert sum(map(sum, fp)) == m
            assert fp not in seen
            seen.add(fp)


def test_fixed_point_order_deterministic():
    first = enumerate_fixed_points(4)
    second = enumerate_fixed_points(4)
    assert first == second
    # chart sizes iterate lexicographically, so all size goes to chart 2 first
    assert first[0] == ((), (), (4,))


def test_cells_single_box():
    assert cells((1,)) == [(0, 0, 0, 0)]


def test_cells_hook():
    by_pos = {(row, col): (arm, leg) for row, col, arm, leg in cells((2, 1))}
    assert by_pos[(0, 0)] == (1, 1)
    assert by_pos[(0, 1)] == (0, 0)
    assert by_pos[(1, 0)] == (0, 0)


def test_cells_31_example():
    by_pos = {(row, col): (arm, leg) for row, col, arm, leg in cells((3, 1))}
    assert by_pos[(0, 1)] == (1, 0)


def test_cell_invariants_random_partitions():
    rng = random.Random(0)
    for _ in range(50):
        m = rng.randint(1, 12)
        p = rng.choice(enumerate_partitions(m))
        cs = cells(p)
        assert len(cs) == m
        # heights[c]: the number of rows longer than c, the height of column c
        heights = [sum(part > c for part in p) for c in range(p[0])]
        for row, col, arm, leg in cs:
            assert col < p[row]
            assert arm + col + 1 == p[row]
            # leg recomputed from the column heights
            assert leg == heights[col] - row - 1


def test_engine_shapes_are_the_same_in_any_call_order():
    # each size is built from the one before it, once, so a listing must
    # not depend on which m asked first
    engine._level.cache_clear()
    ascending = [engine._shapes(m) for m in range(13)]
    engine._level.cache_clear()
    descending = [engine._shapes(m) for m in reversed(range(13))][::-1]
    assert ascending == descending
    for m, shapes in enumerate(ascending):
        assert shapes == ascending[-1][:m + 1]


@pytest.mark.parametrize("m", range(17))
def test_engine_shapes_list_every_partition_once_with_its_hooks(m):
    # rebuild each entry of the engine's listing from its parent chain and
    # its cell, then compare with this module's independent enumeration;
    # the hooks must be in row-major order, the layout a child's hooks are
    # derived from
    shapes = engine._shapes(m)
    assert len(shapes) == m + 1
    assert shapes[0] == ((None, None, ()),)
    previous = [()]
    for size in range(1, m + 1):
        rebuilt = []
        for parent, (row, col), hooks in shapes[size]:
            parts = list(previous[parent])
            assert row in (len(parts) - 1, len(parts))
            if row == len(parts):
                parts.append(0)
            assert col == parts[row]
            parts[row] += 1
            p = tuple(parts)
            # each hook is the int arm * _ARM + leg
            assert [divmod(hook, engine._ARM) for hook in hooks] == \
                [(arm, leg) for _, _, arm, leg in cells(p)]
            rebuilt.append(p)
        assert sorted(rebuilt) == sorted(enumerate_partitions(size))
        previous = rebuilt


def test_engine_refuses_a_partition_size_above_max_m():
    # a leg of a larger size could reach _ARM, and two hooks share an int
    with pytest.raises(ValueError, match="MAX_M"):
        engine._level(engine.MAX_M + 1)
    assert engine._level(engine.MAX_M)
