import hashlib
import json
import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm
from pathlib import Path

import pytest

from donaldson_cp2.barth import (
    MAX_MOD_P_ROWS,
    P,
    _FOLD,
    _WIDTH,
    DegenerateDatum,
    HulsbergenDatum,
    PlaneConfiguration,
    PlaneCurve,
    barth_curve,
    clear_denominators,
    darboux_system_dimension,
    monomial_values,
    monomials,
    rank_mod_p,
    sample_configuration,
    sample_datum,
    verify_darboux,
)
from donaldson_cp2 import barth, linalg
from donaldson_cp2.linalg import bareiss_det, bareiss_rank
from donaldson_cp2.verify import multiplication_determinant


def F(x):
    return Fraction(x)


UNIT_POINTS = ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))


def det3(p, q, r):
    return (p[0] * (q[1] * r[2] - q[2] * r[1])
            - p[1] * (q[0] * r[2] - q[2] * r[0])
            + p[2] * (q[0] * r[1] - q[1] * r[0]))


def fraction_det(matrix):
    """Determinant by plain Fraction Gaussian elimination."""
    work = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for c in range(len(work)):
        piv = next((r for r in range(c, len(work)) if work[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            work[c], work[piv] = work[piv], work[c]
            det = -det
        det *= work[c][c]
        for r in range(c + 1, len(work)):
            f = work[r][c] / work[c][c]
            for cc in range(c, len(work)):
                work[r][cc] -= f * work[c][cc]
    return det


def test_monomial_count():
    for d in range(1, 7):
        assert len(monomials(d)) == (d + 1) * (d + 2) // 2


def test_bareiss_rank_basics():
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert bareiss_rank([[0, 0], [0, 0]]) == 0
    assert bareiss_rank([[2, 3, 5], [4, 6, 10], [1, 1, 1]]) == 2


def test_bareiss_rank_against_fraction_elimination():
    rng = random.Random(5)
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        # naive rank by fraction Gaussian elimination
        work = [[Fraction(x) for x in row] for row in m]
        rank = 0
        for c in range(cols):
            piv = next((r for r in range(rank, rows) if work[r][c] != 0), None)
            if piv is None:
                continue
            work[rank], work[piv] = work[piv], work[rank]
            for r in range(rank + 1, rows):
                f = work[r][c] / work[rank][c]
                for cc in range(cols):
                    work[r][cc] -= f * work[rank][cc]
            rank += 1
        assert bareiss_rank(m) == rank


def test_rank_mod_p_is_at_most_bareiss_rank():
    # reduction modulo P can only lower a rank; on these seeded matrices it
    # keeps every full row rank, the only rank the witness certifies
    rng = random.Random(17)
    shapes, deficient, full = set(), 0, 0
    for _ in range(150):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        bound = rng.choice([1, 9, 2**40, 2**90])
        m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.5:
            # one row a combination of the others
            a = rng.randrange(rows)
            b, c = (rng.choice([r for r in range(rows) if r != a]) for _ in range(2))
            m[a] = [5 * x - 7 * y for x, y in zip(m[b], m[c])]
        want = bareiss_rank(m)
        assert rank_mod_p(m) <= want
        if want == rows:
            assert rank_mod_p(m) == want
            full += 1
        shapes.add((rows > cols) - (rows < cols))
        deficient += want < min(rows, cols)
    assert shapes == {-1, 0, 1}  # wide, square and tall matrices
    assert deficient >= 30
    assert full >= 30


@pytest.mark.parametrize("matrix,want", [
    ([[P, 0], [0, 1]], 2),
    ([[P, 2 * P], [3 * P, 5 * P]], 2),
    ([[1, 2, 3], [P + 1, 2, 3]], 2),
    ([[P, 0, 0], [0, P, 0], [0, 0, P]], 3),
    ([[2 * P, 0], [0, 0]], 1),
])
def test_rank_of_matrices_singular_mod_p(monkeypatch, matrix, want):
    # of lower rank modulo P than over Q: as node rows they fail the
    # certificate, and the system dimension raises instead of guessing
    assert bareiss_rank(matrix) == want
    assert rank_mod_p(matrix) < want
    monkeypatch.setattr(barth, "_node_rows", lambda config: matrix)
    with pytest.raises(ArithmeticError, match="full rank modulo P"):
        darboux_system_dimension(sample_configuration(2, 0))


def per_entry_rank_mod_p(matrix):
    """Rank modulo P by plain Gaussian elimination on lists of residues."""
    m = [[x % P for x in row] for row in matrix]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((j for j in range(rank, len(m)) if m[j][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inverse = pow(m[rank][c], -1, P)
        top = [x * inverse % P for x in m[rank]]
        for j in range(rank + 1, len(m)):
            f = m[j][c]
            m[j] = [(x - f * t) % P for x, t in zip(m[j], top)]
        rank += 1
    return rank


def test_packed_rank_mod_p_equals_per_entry_elimination():
    rng = random.Random(23)
    entries = [
        lambda: rng.randrange(P),
        lambda: rng.randrange(P - 2**10, P),  # residues near P: the largest products
        lambda: rng.randint(-P, -1),
        lambda: rng.randint(-3, 3) * P,
        lambda: rng.randint(-2**70, 2**70),
        # wider than a 64-bit slot and of either sign, as exact node
        # entries are (up to 74 bits at n = 7, 250 at n = 24): a slot
        # takes only a reduced entry
        lambda: rng.randint(-2**80, 2**80),
    ]
    shapes, deficient, largest = set(), 0, 0
    for trial in range(200):
        top = 80 if trial % 4 == 0 else 24
        rows, cols = rng.randint(1, top), rng.randint(1, top)
        m = [[rng.choice(entries)() for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.5:
            # some rows combinations of the others modulo P, lifted by
            # multiples of P so the dependence shows only modulo P
            for a in rng.sample(range(rows), rng.randint(1, rows - 1)):
                others = [r for r in range(rows) if r != a]
                b, c = rng.choice(others), rng.choice(others)
                u, v = rng.randrange(P), rng.randrange(P)
                m[a] = [(u * x + v * y) % P + rng.randint(-2, 2) * P
                        for x, y in zip(m[b], m[c])]
        want = per_entry_rank_mod_p(m)
        assert rank_mod_p(m) == want
        shapes.add((rows > cols) - (rows < cols))
        deficient += want < min(rows, cols)
        largest = max(largest, rows, cols)
    assert shapes == {-1, 0, 1}  # wide, square and tall matrices
    assert deficient >= 30
    assert largest >= 78  # n = 12 ranks 78 rows


def test_generic_system_rank_needs_no_bareiss(monkeypatch):
    # full rank modulo P certifies the rank of a generic configuration
    def no_bareiss(matrix):
        raise AssertionError("Bareiss elimination ran")

    monkeypatch.setattr(linalg, "_eliminate", no_bareiss)
    for n in range(2, 13):
        for seed in range(3):
            assert darboux_system_dimension(sample_configuration(n, seed)) == n


def test_concurrent_dual_lines_need_no_bareiss(monkeypatch):
    # three collinear points make three dual lines concurrent, so three
    # nodes name one point: the system keeps one row for it, 8 of 10
    def no_bareiss(matrix):
        raise AssertionError("Bareiss elimination ran")

    monkeypatch.setattr(linalg, "_eliminate", no_bareiss)
    config = PlaneConfiguration(((0, 0, 1), (1, 0, 1), (2, 0, 1), (0, 1, 1), (3, 5, 1)))
    assert not config.is_generic()
    assert darboux_system_dimension(config) == 6
    assert len(barth._node_rows(config)) == 8


def proportional(u, v):
    return u[0] * v[1] == u[1] * v[0] and u[0] * v[2] == u[2] * v[0] and u[1] * v[2] == u[2] * v[1]


def test_system_dimension_counts_the_distinct_nodes():
    # the proof in darboux_system_dimension against Bareiss on the whole
    # node matrix, zero and proportional nodes included
    rng = random.Random(41)
    kinds = dict.fromkeys(("repeated", "collinear", "generic"), 0)
    for _ in range(1000):
        n = rng.randint(1, 7)
        points = []
        while len(points) < n + 1:
            point = tuple(rng.randint(-3, 3) for _ in range(3))
            if any(point):
                points.append(point)
        config = PlaneConfiguration(points)
        if any(proportional(p, q) for p, q in combinations(points, 2)):
            kind = "repeated"
        elif any(det3(*triple) == 0 for triple in combinations(points, 3)):
            kind = "collinear"
        else:
            kind = "generic"
        assert config.is_generic() == (kind == "generic")
        kinds[kind] += 1
        distinct = []
        for node in config.nodes():
            if any(node) and not any(proportional(node, d) for d in distinct):
                distinct.append(node)
        free = (n + 1) * (n + 2) // 2 - 1
        assert darboux_system_dimension(config) == free - len(distinct)
        assert len(distinct) == bareiss_rank(barth._monomial_rows(n, config.nodes()))
    assert min(kinds.values()) >= 50, kinds


@pytest.mark.parametrize("kind,want", [("collinear", 26), ("repeated", 48)])
def test_non_generic_system_at_n_24_needs_no_bareiss(monkeypatch, kind, want):
    # the last point moved onto the line through p0 and p1 (one collinear
    # triple), or onto p0 itself (a zero node and 23 repeated ones)
    def no_bareiss(matrix):
        raise AssertionError("Bareiss elimination ran")

    monkeypatch.setattr(linalg, "_eliminate", no_bareiss)
    points = sample_configuration(24, 0).points
    p0, p1 = points[:2]
    last = tuple(a + 2 * b for a, b in zip(p0, p1)) if kind == "collinear" else p0
    config = PlaneConfiguration(points[:-1] + (last,))
    start = time.perf_counter()
    assert darboux_system_dimension(config) == want
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("seed", range(3))
def test_system_rank_of_136_nodes_needs_no_bareiss(monkeypatch, seed):
    # n = 16 ranks 136 rows of 153 columns, entries of over 160 bits: the
    # modular rank alone must certify full row rank
    def no_bareiss(matrix):
        raise AssertionError("Bareiss elimination ran")

    monkeypatch.setattr(linalg, "_eliminate", no_bareiss)
    assert darboux_system_dimension(sample_configuration(16, seed)) == 16


def test_modular_rank_constants():
    # P is the largest prime below 2**26, a fold multiplies by 2**26 modulo
    # P, and a slot that takes an elimination step from every other row of
    # the largest matrix the modular rank accepts still fits 64 bits
    def prime(q):
        return q > 1 and all(q % d for d in range(2, isqrt(q) + 1))

    assert prime(P) and not any(map(prime, range(P + 1, 2**26)))
    assert _FOLD == 2**26 % P == 5
    assert P + (MAX_MOD_P_ROWS - 1) * 2 * P**2 < 2**_WIDTH == 2**64
    assert P + 2 * MAX_MOD_P_ROWS * 2 * P**2 >= 2**64  # twice the rows would not
    # the largest system the witness samples has 300 node rows
    assert barth.MAX_N * (barth.MAX_N + 1) // 2 < MAX_MOD_P_ROWS


def test_packed_rank_mod_p_of_130_rows_near_p():
    # residues in [P - 2**10, P) make every product near P**2, and 130 rows
    # let a slot take 129 elimination steps, each adding nearly 2 * P**2
    rng = random.Random(29)
    for rows, cols, deficient in ((130, 134, False), (134, 130, False), (131, 131, True)):
        m = [[rng.randrange(P - 2**10, P) for _ in range(cols)] for _ in range(rows)]
        if deficient:
            # the last 20 rows combinations modulo P of two of the 20 rows
            # before them, so that they vanish only after 100 or more
            # elimination steps, when the slots are largest
            for a in range(rows - 20, rows):
                b, c = rng.sample(range(rows - 40, rows - 20), 2)
                u, v = rng.randrange(P), rng.randrange(P)
                m[a] = [(u * x + v * y) % P for x, y in zip(m[b], m[c])]
        want = per_entry_rank_mod_p(m)
        assert want == min(rows, cols) - 20 * deficient
        assert rank_mod_p(m) == want


def test_rank_mod_p_refuses_rows_beyond_its_slots():
    # the modular rank's 64-bit slots hold fewer than MAX_MOD_P_ROWS rows
    assert rank_mod_p([[1]] * (MAX_MOD_P_ROWS - 1)) == 1
    with pytest.raises(ValueError, match="fewer than 2048"):
        rank_mod_p([[1]] * MAX_MOD_P_ROWS)


def test_bareiss_det_against_fraction_elimination():
    rng = random.Random(11)
    kinds = set()
    for _ in range(60):
        size = rng.randint(1, 6)
        m = [[rng.randint(-5, 5) for _ in range(size)] for _ in range(size)]
        if rng.random() < 0.3:
            m[0][0] = 0  # the first pivot needs a row swap
        if size > 1 and rng.random() < 0.3:
            # one row a combination of other rows: singular
            a, b = rng.sample(range(size), 2)
            c = rng.choice([r for r in range(size) if r != a])
            m[a] = [2 * x - 3 * y for x, y in zip(m[b], m[c])]
        det = fraction_det(m)
        assert bareiss_det(m) == det
        kinds.add((m[0][0] == 0, det == 0))
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
    assert bareiss_det([]) == 1
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    with pytest.raises(ValueError):
        bareiss_det([[1, 2]])


def test_clear_denominators():
    assert clear_denominators([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]
    assert clear_denominators([2, -1]) == [2, -1]
    assert clear_denominators([Fraction(1, 2), True, Fraction(1, 3)]) == [3, 6, 2]
    assert clear_denominators([]) == []
    for row in ([0.5, True, Fraction(1, 3)], [2, -0.75]):
        with pytest.raises(TypeError, match="float"):
            clear_denominators(row)
    rows = ([3, Fraction(-5, 6), 0, Fraction(7, 4)],  # ints and Fractions
            [Fraction(-1, 2), 0, -4, Fraction(-9, 10)],  # negatives and zero
            [0, 0], [Fraction(1, 2), True], [Fraction(-3, 4), 2, Fraction(1, 6)], [])
    for row in rows:
        # the former rule: scale the Fractions by the lcm of their denominators
        fracs = [Fraction(x) for x in row]
        scale = lcm(*(x.denominator for x in fracs))
        got = clear_denominators(row)
        assert got == [int(x * scale) for x in fracs], row
        assert all(type(x) is int for x in got)


def test_sample_configuration_generic():
    config = sample_configuration(2, seed=0)
    assert len(config.points) == 3
    assert config.is_generic()


def test_sample_configuration_all_triples_noncollinear():
    config = sample_configuration(5, seed=3)
    for p, q, r in combinations(config.points, 3):
        assert det3(p, q, r) != 0


def test_sample_configuration_deterministic():
    assert sample_configuration(4, seed=9) == sample_configuration(4, seed=9)


@pytest.mark.parametrize("n,digest", [
    (2, "65f64235bcee6aa0de7c033224e06a0db23fe309deaf7bdce4397a1634701700"),
    (7, "71be282b0b56ad02e918484cc74fe9b8a40e00f905b69ecbe14857e4df31ecf5"),
    (12, "4774fbcd2030e600d7c889899feb9f054b34a28758f8308e762f615f44e1b04b"),
    # nearly every draw at the cap has a collinear triple and is redrawn
    (24, "de7a333e8e285d92405af77862fb43ad96e25b377083fbf90416491cd176c0b7"),
])
def test_sample_configuration_is_pinned(n, digest):
    # the sampler's points for seeds 0..9, pinned by the sha256 of their
    # repr: a change to which draws are accepted moves every witness
    points = [sample_configuration(n, seed).points for seed in range(10)]
    assert hashlib.sha256(repr(points).encode()).hexdigest() == digest


def test_collinear_configuration_detected():
    pts = ((F(0), F(0), F(1)), (F(1), F(1), F(1)), (F(2), F(2), F(1)))
    assert not PlaneConfiguration(pts).is_generic()


def test_duplicate_point_detected():
    pts = ((F(1), F(2), F(1)), (F(2), F(4), F(2)), (F(0), F(1), F(1)))
    assert not PlaneConfiguration(pts).is_generic()


def test_node_count():
    config = sample_configuration(4, seed=1)
    assert len(config.nodes()) == 10


def test_extension_must_be_nonzero():
    config = sample_configuration(2, seed=0)
    with pytest.raises(ValueError, match="nonzero"):
        HulsbergenDatum(config, (F(0), F(0), F(0)))


def test_barth_curve_unit_triangle():
    # points e0, e1, e2 with extension (1, 1, 1): the curve must be the
    # conic l1*l2 + l0*l2 + l0*l1 up to scale
    datum = HulsbergenDatum(PlaneConfiguration(UNIT_POINTS), (F(1), F(1), F(1)))
    curve = barth_curve(datum)
    assert curve.degree == 2
    coeffs = dict(zip(monomials(2), curve.coefficients))
    expected = {(0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1}
    scale = None
    for mono, c in coeffs.items():
        want = expected.get(mono, 0)
        if want == 0:
            assert c == 0
        else:
            if scale is None:
                scale = Fraction(c, want)
            assert Fraction(c, want) == scale


def test_barth_curve_scaling_invariance():
    datum = sample_datum(3, seed=2)
    scaled = HulsbergenDatum(datum.config, tuple(7 * e for e in datum.extension))
    assert barth_curve(datum) == barth_curve(scaled)


@pytest.mark.parametrize("n", range(2, 7))
def test_barth_curve_degree_and_incidence(n):
    for seed in range(5):
        datum = sample_datum(n, seed)
        curve = barth_curve(datum)
        assert curve.degree == n
        assert any(c != 0 for c in curve.coefficients)
        assert verify_darboux(datum.config, curve)


def test_random_curve_fails_incidence():
    rng = random.Random(6)
    for n in (2, 4):
        config = sample_configuration(n, seed=11)
        coeffs = tuple(rng.randint(1, 9) for _ in monomials(n))
        assert not verify_darboux(config, PlaneCurve(n, coeffs))


def test_verify_darboux_rejects_wrong_degree():
    config = sample_configuration(3, seed=0)
    with pytest.raises(ValueError):
        verify_darboux(config, PlaneCurve(2, tuple([1] * 6)))


def test_degenerate_datum_raises():
    # two coincident points make the two leading products equal, so the
    # extension (1, -1, 0) kills the determinant identically
    pts = ((F(1), F(0), F(0)), (F(1), F(0), F(0)), (F(0), F(1), F(0)))
    datum = HulsbergenDatum(PlaneConfiguration(pts), (F(1), F(-1), F(0)))
    with pytest.raises(DegenerateDatum):
        barth_curve(datum)


@pytest.mark.parametrize("n,expected", [(2, 2), (3, 3), (5, 5)])
def test_darboux_system_dimension(n, expected):
    for seed in (0, 1):
        config = sample_configuration(n, seed=seed)
        assert darboux_system_dimension(config) == expected


def test_one_point_has_a_system_of_dimension_zero():
    # n = 0: no nodes, so the one curve of degree 0 passes through all of
    # them, and the matrix has no row to read its column count from
    config = PlaneConfiguration((UNIT_POINTS[0],))
    assert config.n == 0 and config.nodes() == []
    assert darboux_system_dimension(config) == 0


def test_a_configuration_without_points_is_refused():
    with pytest.raises(ValueError, match="at least one point"):
        PlaneConfiguration(())
    with pytest.raises(ValueError, match="at least one point"):
        PlaneConfiguration(UNIT_POINTS)._replace(points=())


def test_one_witness_builds_each_node_row_once(monkeypatch):
    # the genericity scan of the one draw (seed 3 is accepted at once)
    # computes the 28 nodes, and the node matrix reads them from its cache
    calls = []
    cross = barth._cross
    monkeypatch.setattr(barth, "_cross", lambda p, q: calls.append(1) or cross(p, q))
    barth._generic_nodes.cache_clear()
    barth._node_rows.cache_clear()
    datum = sample_datum(7, 3)
    assert verify_darboux(datum.config, barth_curve(datum))
    assert darboux_system_dimension(datum.config) == 7
    assert len(calls) == 28
    info = barth._generic_nodes.cache_info()
    assert (info.misses, info.hits) == (1, 1)  # one draw, scanned once, read once
    info = barth._node_rows.cache_info()
    assert (info.misses, info.hits) == (1, 1)  # one matrix, read by both checks
    rows = barth._node_rows(datum.config)
    assert len(rows) == 28 and {len(row) for row in rows} == {36}  # n(n+1)/2 by C(n+2, 2)


def test_node_rows_are_the_monomial_values_at_the_nodes():
    # the matrix is built by columns; its rows must be monomial_values, node
    # by node, and the powers themselves, which share no code with either
    configs = [PlaneConfiguration(((3, -2, 7),)),  # n = 0: no nodes
               PlaneConfiguration(((3, -2, 7), (0, 5, -1)))]
    configs += [sample_configuration(n, seed) for n in range(2, 13) for seed in range(4)]
    for config in configs:
        want = tuple(tuple(monomial_values(config.n, node)) for node in config.nodes())
        got = barth._node_rows(config)
        assert got == want
        assert got == tuple(tuple(x ** i * y ** j * z ** k for i, j, k in monomials(config.n))
                            for x, y, z in config.nodes())
        assert all(type(v) is int for row in got for v in row)


def test_node_rows_follow_the_configuration():
    # two configurations of one n, checked alternately: a result read from
    # the other configuration's matrix would flip an answer below
    first, second = sample_datum(7, 1), sample_datum(7, 2)
    curve = barth_curve(first)
    assert any(curve.evaluate(node) for node in second.config.nodes())
    for _ in range(2):
        assert verify_darboux(first.config, curve)
        assert not verify_darboux(second.config, curve)
        assert verify_darboux(second.config, barth_curve(second))
    # three concurrent dual lines drop the rank: dimension 6, not 4
    concurrent = PlaneConfiguration(((0, 0, 1), (1, 0, 1), (2, 0, 1), (0, 1, 1), (3, 5, 1)))
    generic = sample_configuration(4, 0)
    for _ in range(2):
        assert darboux_system_dimension(concurrent) == 6
        assert darboux_system_dimension(generic) == 4
    assert darboux_system_dimension(first.config) == 7


def test_barth_curve_projective_equivariance():
    rng = random.Random(7)
    for n in (2, 3):
        datum = sample_datum(n, seed=13)
        for _ in range(3):
            while True:
                m = [[F(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
                if det3(m[0], m[1], m[2]) != 0:
                    break
            moved_pts, scales = [], []
            for p in datum.config.points:
                q = tuple(sum(m[r][c] * p[c] for c in range(3)) for r in range(3))
                moved_pts.append(q)
                # normalization factor of the image point relative to the
                # normalized source: q = f * normalize(q)
                scales.append(next(c for c in q if c != 0)
                              / next(c for c in p if c != 0))
            moved_ext = tuple(e / s for e, s in zip(datum.extension, scales))
            moved = HulsbergenDatum(PlaneConfiguration(tuple(moved_pts)), moved_ext)
            curve = barth_curve(datum)
            moved_curve = barth_curve(moved)

            def pullback(line):
                # lines transform by the transpose of the point map
                return tuple(sum(m[r][c] * line[r] for r in range(3))
                             for c in range(3))

            # moved_curve(l) is proportional to curve(m^T l): compare cross
            # products of values at random lines
            samples = [tuple(F(rng.randint(-9, 9)) for _ in range(3))
                       for _ in range(6)]
            vals = [(moved_curve.evaluate(l), curve.evaluate(pullback(l)))
                    for l in samples]
            ref = next((v for v in vals if v[0] != 0 and v[1] != 0), None)
            assert ref is not None
            for a, b in vals:
                assert a * ref[1] == b * ref[0]


@pytest.mark.parametrize("n", range(2, 7))
def test_barth_curve_is_the_determinant(n):
    # curve(ell) / det(P diag(ell(zhat)) K) is one nonzero constant, with
    # the determinant taken numerically at each line
    rng = random.Random(n)
    for seed in range(3):
        datum = sample_datum(n, seed)
        curve = barth_curve(datum)
        zhat = [tuple(Fraction(x, next(c for c in p if c)) for x in p)
                for p in datum.config.points]
        ext = datum.extension
        pivot = next(j for j, e in enumerate(ext) if e)
        kernel = [[F(j == i) - (i == pivot) * Fraction(ext[j], ext[pivot])
                   for i in range(n + 1)]
                  for j in range(n + 1) if j != pivot]
        ratios = set()
        for _ in range(4):
            line = [F(rng.randint(-20, 20)) for _ in range(3)]
            values = [sum(a * b for a, b in zip(line, z)) for z in zhat]
            image = [[values[i] * vec[i] for i in range(n + 1)] for vec in kernel]
            matrix = [[image[c][r] - image[c][0] for c in range(n)]
                      for r in range(1, n + 1)]
            det = fraction_det(matrix)
            assert det != 0
            ratios.add(curve.evaluate(line) / det)
        assert len(ratios) == 1 and 0 not in ratios


def test_barth_curve_matches_pinned_curves():
    oracle = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.json"
    pinned = json.loads(oracle.read_text())["witness"]
    assert sum(len(by_seed) for by_seed in pinned.values()) == 40
    for n, by_seed in pinned.items():
        for seed, coefficients in by_seed.items():
            curve = barth_curve(sample_datum(int(n), int(seed)))
            assert list(curve.coefficients) == coefficients, (n, seed)


def times_linear(form, degree, line):
    """A degree-d form times a linear form, coefficient lists in monomials
    order, one coefficient at a time; [] is the zero form of degree -1."""
    a, b, c = line
    out = [a * v for v in form] + [0] * (degree + 2)
    start = 0
    for e in range(degree + 1):
        for idx in range(start, start + e + 1):
            out[idx + e + 1] += b * form[idx]
            out[idx + e + 2] += c * form[idx]
        start += e + 1
    return out


def list_sweep_curve(datum):
    """barth_curve's sum, sum_j ext_j f_j prod_{i != j} ell(z_i), swept over
    the points with every form a coefficient list, made primitive with a
    positive leading coefficient."""
    total, product = [], [1]
    for j, (e, point) in enumerate(zip(datum.extension, datum.config.points)):
        weight = e * next(c for c in point if c != 0)
        total = [t + weight * c
                 for t, c in zip(times_linear(total, j - 1, point), product)]
        product = times_linear(product, j, point)
    if not any(total):
        raise DegenerateDatum("determinant vanishes identically")
    sign = 1 if next(v for v in total if v != 0) > 0 else -1
    g = sign * gcd(*total)
    return PlaneCurve(datum.config.n, tuple(v // g for v in total))


def random_datum(rng, n, coordinate, extension=lambda rng: rng.randint(-9, 9)):
    """n+1 random nonzero points with coordinates in [-coordinate,
    coordinate] and a random nonzero extension, generic or not."""
    points = []
    while len(points) < n + 1:
        point = tuple(rng.randint(-coordinate, coordinate) for _ in range(3))
        if any(point):
            points.append(point)
    ext = [extension(rng) for _ in range(n + 1)]
    if not any(ext):
        ext[rng.randrange(n + 1)] = 1
    return HulsbergenDatum(PlaneConfiguration(points), ext)


@pytest.mark.parametrize("n", range(25))
def test_barth_curve_is_the_list_sweep(n):
    rng = random.Random(2800 + n)
    data = [random_datum(rng, n, 30) for _ in range(4)]
    if n >= 2:
        data += [sample_datum(n, seed) for seed in range(3)]
    for datum in data:
        assert barth_curve(datum) == list_sweep_curve(datum), datum


@pytest.mark.parametrize("n", (0, 1, 2, 5, 9, 16, 24))
def test_barth_curve_is_the_list_sweep_on_wide_data(n):
    # coordinates up to 10^6 and a rational extension, which the datum
    # scales to integers: wide slots, with signs in every place
    rng = random.Random(2900 + n)
    for _ in range(3):
        datum = random_datum(rng, n, 10 ** 6,
                             lambda rng: Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                                  rng.randint(1, 97)))
        assert barth_curve(datum) == list_sweep_curve(datum), datum


@pytest.mark.parametrize("points", (8, 16))
def test_barth_curve_at_the_slot_bound(points):
    # n+1 copies of (1, 0, 0) with every ext_j = 1: every weight and every
    # l1 norm is 1, so the bound on the coefficients is n+1, and the sum is
    # (n+1) x0^n, whose one coefficient reaches that bound exactly
    n = points - 1
    datum = HulsbergenDatum(PlaneConfiguration(((1, 0, 0),) * points), (1,) * points)
    curve = barth_curve(datum)
    assert curve == list_sweep_curve(datum)
    assert curve.coefficients == (1,) + (0,) * ((n + 1) * (n + 2) // 2 - 1)


def test_is_generic_is_every_pair_and_every_triple():
    # small coordinates, so that repeated, proportional and collinear
    # points all occur
    rng = random.Random(28)
    seen = {"generic": 0, "repeated": 0, "proportional": 0, "collinear": 0}
    for _ in range(3000):
        config = random_datum(rng, rng.randint(2, 6), 3).config
        points = config.points
        equal = [(p, q) for p, q in combinations(points, 2)
                 if p[1] * q[2] - p[2] * q[1] == p[2] * q[0] - p[0] * q[2]
                 == p[0] * q[1] - p[1] * q[0] == 0]
        collinear = any(det3(p, q, r) == 0 for p, q, r in combinations(points, 3))
        assert config.is_generic() == (not equal and not collinear), points
        n = config.n
        assert config.is_generic() == (len(barth._node_rows(config)) == n * (n + 1) // 2)
        seen["repeated"] += any(p == q for p, q in equal)
        seen["proportional"] += any(p != q for p, q in equal)
        seen["collinear"] += collinear and not equal
        seen["generic"] += not equal and not collinear
    assert all(count > 50 for count in seen.values()), seen


@pytest.mark.parametrize("n", (2, 4, 6))
def test_rational_datum_equals_its_integer_rescaling(n):
    # points are projective and the curve ignores the scale of the
    # extension, so rational input names the same datum as integer input
    rng = random.Random(100 + n)
    for seed in range(3):
        datum = sample_datum(n, seed)
        # (d*k + 1) / d with d prime is never an integer
        point_scales = []
        for _ in datum.config.points:
            d = rng.choice([2, 3, 5, 7])
            sign = rng.choice([-1, 1])
            point_scales.append(Fraction(sign * (d * rng.randint(0, 4) + 1), d))
        ext_scale = Fraction(2 * rng.randint(0, 4) + 1, 2)
        rational = HulsbergenDatum(
            PlaneConfiguration(tuple(tuple(s * x for x in p) for s, p in
                                     zip(point_scales, datum.config.points))),
            tuple(ext_scale * e for e in datum.extension))
        for vector in rational.config.points + (rational.extension,):
            assert all(type(x) is int for x in vector)
        curve = barth_curve(rational)
        assert curve == barth_curve(datum)
        assert verify_darboux(rational.config, curve)
        assert (darboux_system_dimension(rational.config)
                == darboux_system_dimension(datum.config) == n)


def test_zero_point_is_rejected():
    with pytest.raises(ValueError):
        PlaneConfiguration(((0, 0, 0), (1, 0, 0), (0, 1, 0)))
    with pytest.raises(ValueError, match="zero vector"):
        PlaneConfiguration(((F(0), F(0), F(0)), UNIT_POINTS[0], UNIT_POINTS[1]))


@pytest.mark.parametrize("bad", ((1, 2), (1, 0, 1, 1)), ids=("two", "four"))
def test_point_without_three_coordinates_is_rejected(bad):
    # rejected when built, not later by is_generic or barth_curve
    with pytest.raises(ValueError, match="three coordinates"):
        PlaneConfiguration((bad, (0, 1, 1), (1, 0, 1)))
    with pytest.raises(ValueError, match="three coordinates"):
        PlaneConfiguration(UNIT_POINTS)._replace(points=UNIT_POINTS[:2] + (bad,))


def test_configuration_scales_rational_points_to_integer_vectors():
    config = PlaneConfiguration(((Fraction(1, 2), Fraction(1, 3), 1), (2, -4, 6),
                                 (0, Fraction(-3, 4), Fraction(1, 6))))
    assert config.points == ((3, 2, 6), (2, -4, 6), (0, -9, 2))
    assert all(type(x) is int for p in config.points for x in p)


@pytest.mark.parametrize("extension", ((1, 2), (1, 2, 3, 4)))
def test_datum_rejects_an_extension_of_the_wrong_length(extension):
    with pytest.raises(ValueError, match="length"):
        HulsbergenDatum(PlaneConfiguration(UNIT_POINTS), extension)


def test_datum_scales_a_rational_extension():
    datum = HulsbergenDatum(PlaneConfiguration(UNIT_POINTS),
                            (Fraction(1, 2), Fraction(-2, 3), 1))
    assert datum.extension == (3, -4, 6)
    assert all(type(e) is int for e in datum.extension)


def test_make_and_replace_check_and_scale_a_configuration():
    config = PlaneConfiguration(UNIT_POINTS)
    zero = (F(0), F(0), F(0))
    with pytest.raises(ValueError, match="zero vector"):
        PlaneConfiguration._make((((0, 0, 0),) + UNIT_POINTS[1:],))
    with pytest.raises(ValueError, match="zero vector"):
        config._replace(points=(zero,) + UNIT_POINTS[1:])
    rational = ((Fraction(1, 2), Fraction(1, 3), 1), (2, -4, 6),
                (0, Fraction(-3, 4), Fraction(1, 6)))
    want = ((3, 2, 6), (2, -4, 6), (0, -9, 2))
    assert PlaneConfiguration._make((rational,)).points == want
    assert config._replace(points=rational).points == want


def test_make_and_replace_check_and_scale_a_datum():
    config = PlaneConfiguration(UNIT_POINTS)
    datum = HulsbergenDatum(config, (1, 1, 1))
    with pytest.raises(ValueError, match="nonzero"):
        HulsbergenDatum._make((config, (0, 0, 0)))
    with pytest.raises(ValueError, match="nonzero"):
        datum._replace(extension=(F(0), 0, 0))
    with pytest.raises(ValueError, match="length"):
        datum._replace(extension=(1, 2))
    rational = (Fraction(1, 2), Fraction(-2, 3), 1)
    assert HulsbergenDatum._make((config, rational)).extension == (3, -4, 6)
    assert datum._replace(extension=rational).extension == (3, -4, 6)


@pytest.mark.parametrize("n", range(1, 13))
def test_difference_matrix_minors_are_alternating_signs(n):
    # barth_curve uses det(P without column j) = (-1)^j for P = [-1 | I_n]
    differences = [[-1] + [int(c == r) for c in range(1, n + 1)]
                   for r in range(1, n + 1)]
    for j in range(n + 1):
        assert bareiss_det([row[:j] + row[j + 1:] for row in differences]) == (-1) ** j


def test_sample_datum_and_curve_are_plain_ints():
    for n in (2, 5, 8):
        datum = sample_datum(n, seed=1)
        assert all(type(x) is int for p in datum.config.points for x in p)
        assert all(type(e) is int for e in datum.extension)
        curve = barth_curve(datum)
        assert all(type(c) is int for c in curve.coefficients)
        assert all(type(curve.evaluate(node)) is int
                   for node in datum.config.nodes())


def test_monomial_values_are_exact_powers_in_monomials_order():
    for degree in range(6):
        for point in ((3, -2, 7), (0, 5, -1), (F(1) / 3, F(-2) / 5, 1)):
            values = monomial_values(degree, point)
            want = [point[0] ** i * point[1] ** j * point[2] ** k
                    for i, j, k in monomials(degree)]
            assert values == want
            assert [type(v) for v in values] == [type(v) for v in want]


def test_multiplication_determinant_is_exact_on_integer_data():
    # a point whose first coordinate is not 1 weights its term by f_j:
    # f = (2, 3, 3), ell(z_j) = 3, 4, 4 at (1, 1, 1), so the curve there is
    # 2*4*4 + 3*3*4 + 3*3*4 = 104, and ext'_0 = 2 scales the determinant
    datum = HulsbergenDatum(PlaneConfiguration(((2, 1, 0), (0, 3, 1), (3, 0, 1))),
                            (1, 1, 1))
    value = multiplication_determinant(datum, (1, 1, 1))
    assert type(value) is int and value == 208 == 2 * 104
    assert barth_curve(datum).evaluate((1, 1, 1)) == 104
    # on the unit triangle the determinant is l1*l2 + l0*l2 + l0*l1, whose
    # values at the lines monomials(2) happen to be its own coefficients
    triangle = HulsbergenDatum(PlaneConfiguration(UNIT_POINTS), (1, 1, 1))
    values = [multiplication_determinant(triangle, line) for line in monomials(2)]
    assert values == list(barth_curve(triangle).coefficients) == [0, 1, 1, 0, 1, 0]


@pytest.mark.parametrize("n", range(1, 13))
def test_kernel_minors_are_pluecker_coordinates(n):
    # barth_curve uses det(K without row j) = (-1)^(p+j) ext_p^(n-1) ext_j
    # for K with the columns ext_p e_j - ext_j e_p (j != p), p the first
    # index of a nonzero ext_p
    rng = random.Random(n)
    for trial in range(6):
        ext = [rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n + 1)]
        if trial % 2:
            ext[0] = 0  # so that p > 0
        ext[rng.randrange(1, n + 1)] = rng.choice([-7, -1, 2, 5])
        p = next(j for j, e in enumerate(ext) if e)
        kernel = [[ext[p] * (i == j) - ext[j] * (i == p) for j in range(n + 1) if j != p]
                  for i in range(n + 1)]
        for j in range(n + 1):
            want = (-1) ** (p + j) * ext[p] ** (n - 1) * ext[j]
            assert bareiss_det(kernel[:j] + kernel[j + 1:]) == want, (ext, j)


def test_barth_curve_takes_no_determinant(monkeypatch):
    def no_bareiss(matrix):
        raise AssertionError("Bareiss elimination ran")

    monkeypatch.setattr(linalg, "_eliminate", no_bareiss)
    for n in range(2, 13):
        for seed in range(3):
            assert barth_curve(sample_datum(n, seed)).degree == n


@pytest.mark.parametrize("degree,coefficients", [
    (3, ()),               # no coefficients: zip ignored the missing ones
    (3, (0,) * 10),        # the zero form vanishes at every node
    (3, (1,) * 9),         # one coefficient short
    (2, (1,) * 7),         # one coefficient too many
    (-3, (1,)),            # a negative degree, though (d+1)(d+2)/2 = 1
], ids=("empty", "zero", "short", "long", "negative"))
def test_plane_curve_is_a_nonzero_form_of_its_degree(degree, coefficients):
    with pytest.raises(ValueError):
        PlaneCurve(degree, coefficients)
    with pytest.raises(ValueError):
        PlaneCurve._make((degree, coefficients))
    with pytest.raises(ValueError):
        PlaneCurve(2, (1,) * 6)._replace(degree=degree, coefficients=coefficients)
