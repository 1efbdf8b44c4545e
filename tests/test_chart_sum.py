"""The chart-by-chart fixed-point sum against the plain sum of
`integrand_at` over every fixed point, which builds each fixed point's
weight forms and inverts its Chern series (fixed_point_reference.py)."""

import random
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd

import pytest

from donaldson_cp2 import engine
from donaldson_cp2.engine import (
    DEFAULT_FRAMES,
    MAX_M,
    SPAN,
    DegenerateSpecialization,
    DegreeMismatch,
    IntegrandSpec,
    Specialization,
    chart_frames,
    fixed_point_sum,
    integrate,
    integrate_by_m,
    integrate_many,
    specializations,
)
from donaldson_cp2.invariants import invariant_table
from fixed_point_reference import (
    e_weights,
    elementary_symmetric,
    enumerate_fixed_points,
    enumerate_partitions,
    euler_class,
    evaluate,
    integrand_at,
    lambda_weight,
    segre_coefficients,
)

FRAMES = {"default": DEFAULT_FRAMES, "shifted": chart_frames((3, -2))}


def reference_sum(fps, spec, integrand, frames):
    return sum((integrand_at(fp, spec, integrand, frames) for fp in fps), Fraction(0))


def reference_specs(fps, m, seed, frames):
    """The documented rule: (1, N) and (1, N') for the two distinct N that
    Random(seed) samples from m+2..m+1+SPAN.  Both must be nondegenerate
    for the per-fixed-point reference."""
    specs = [Specialization(1, n, seed)
             for n in random.Random(seed).sample(range(m + 2, m + 2 + SPAN), 2)]
    for spec in specs:
        reference_sum(fps, spec, IntegrandSpec(0, 0), frames)  # raises if degenerate
    return specs


def reference_table(fps, spec, m, frames):
    """Every reference_sum with i + k <= 2m at spec, from one integrand_at
    call per fixed point and k: the c1(L)^i factor of a summand is the
    i-th power of the fixed point's weight of L."""
    table = {}
    for fp in fps:
        lam = evaluate(lambda_weight(fp, frames), spec.w1, spec.w2)
        for k in range(2 * m + 1):
            summand = integrand_at(fp, spec, IntegrandSpec(0, k), frames)
            for i in range(2 * m + 1 - k):
                table[i, k] = table.get((i, k), 0) + lam**i * summand
    return table


@lru_cache(maxsize=None)
def reference_run(m, frames_name):
    """The specializations `integrate` must pick at seed 100 + m, and
    reference_table at the first of them."""
    frames = FRAMES[frames_name]
    fps = enumerate_fixed_points(m)
    specs = reference_specs(fps, m, 100 + m, frames)
    return specs, len(fps), reference_table(fps, specs[0], m, frames)


def test_reference_table_is_the_plain_sum():
    fps = enumerate_fixed_points(3)
    spec = Specialization(5, -7, seed=0)
    for frames in FRAMES.values():
        table = reference_table(fps, spec, 3, frames)
        for (i, k), value in table.items():
            assert value == reference_sum(fps, spec, IntegrandSpec(i, k), frames)


def seam_values(m, integrands, specs, frames_name):
    """`fixed_point_sum`, the one entry point that takes frames, of
    integrands on Hilb^m at each of specs: the values must agree."""
    values = {fixed_point_sum(m, spec, integrands, FRAMES[frames_name]) for spec in specs}
    assert len(values) == 1, values
    return values.pop()


@pytest.mark.parametrize("frames_name", sorted(FRAMES))
@pytest.mark.parametrize("m", range(7))
def test_integrate_matches_per_fixed_point_sum(m, frames_name):
    specs, count, want = reference_run(m, frames_name)
    for i in range(2 * m + 1):
        for k in range(2 * m + 1 - i):
            if frames_name == "default":
                res = integrate(m, IntegrandSpec(i, k), seed=100 + m)
                assert [res.spec_used, res.cross_check_spec] == specs
                assert res.fixed_point_count == count
                value = res.value
            else:
                (value,) = seam_values(m, (IntegrandSpec(i, k),), specs, frames_name)
            assert value == want[i, k], (m, i, k)


@pytest.mark.parametrize("frames_name", sorted(FRAMES))
@pytest.mark.parametrize("m", range(7))
def test_integrate_many_is_the_reference_table_in_one_pass(m, frames_name):
    specs, count, want = reference_run(m, frames_name)
    integrands = [IntegrandSpec(i, k) for i in range(2 * m + 1)
                  for k in range(2 * m + 1 - i)]
    if frames_name == "default":
        results = integrate_many(m, integrands, seed=100 + m)
        assert [res.integrand for res in results] == integrands
        for res in results:
            assert [res.spec_used, res.cross_check_spec] == specs
            assert res.fixed_point_count == count
        assert len({res.elapsed_s for res in results}) == 1
        values = [res.value for res in results]
    else:
        values = seam_values(m, integrands, specs, frames_name)
    assert list(values) == [want[integrand] for integrand in integrands], m


def test_integrate_many_validates_every_integrand():
    with pytest.raises(DegreeMismatch):
        integrate_many(2, [IntegrandSpec(0, 4), IntegrandSpec(3, 2)])
    with pytest.raises(ValueError, match="exponents"):
        integrate_many(2, [IntegrandSpec(0, 4), IntegrandSpec(-1, 2)])


def every_integrand(m):
    return [IntegrandSpec(i, k) for i in range(2 * m + 1) for k in range(2 * m + 1 - i)]


@pytest.mark.parametrize("frames_name", sorted(FRAMES))
def test_integrate_by_m_is_the_reference_table_at_every_m(frames_name):
    # one pass over m = 0..6 reads tables built at m = 6 and k = 12: m = 0
    # reads the empty chart alone, and each smaller m a shorter series;
    # the pass sums in the default frames, and each m at the pass's
    # specializations through fixed_point_sum in the shifted ones
    specs = list(specializations(6, 3))
    if frames_name == "default":
        results = integrate_by_m({m: every_integrand(m) for m in range(7)}, seed=3)
        assert list(results) == list(range(7))
    for m in range(7):
        _, count, want = reference_run(m, frames_name)
        if frames_name == "default":
            by_integrand = results[m]
            assert [res.integrand for res in by_integrand] == every_integrand(m)
            for res in by_integrand:
                assert (res.m, res.fixed_point_count) == (m, count)
                assert [res.spec_used, res.cross_check_spec] == specs
            values = [res.value for res in by_integrand]
        else:
            values = seam_values(m, every_integrand(m), specs, frames_name)
        assert list(values) == [want[integrand] for integrand in every_integrand(m)], m


@pytest.mark.parametrize("frames_name", sorted(FRAMES))
def test_integrate_by_m_without_a_pure_segre_class_of_any_degree(frames_name):
    # every integrand has i > 0, so each degree's largest k is below the
    # degree and its sums start from lambda^(d - top), not lambda^0; some
    # degrees are below 2m, and Hilb^4 asks for nothing
    passes = {
        2: [IntegrandSpec(1, 3), IntegrandSpec(2, 1), IntegrandSpec(3, 0)],
        3: [IntegrandSpec(2, 4), IntegrandSpec(5, 1), IntegrandSpec(1, 3), IntegrandSpec(4, 0)],
        4: [],
        5: [IntegrandSpec(3, 7), IntegrandSpec(1, 9), IntegrandSpec(6, 2), IntegrandSpec(2, 5)],
    }
    for integrands in passes.values():
        for integrand in integrands:
            d = integrand.i + integrand.k
            assert max(other.k for other in integrands if other.i + other.k == d) < d
    specs = list(specializations(5, 11))
    if frames_name == "default":
        results = integrate_by_m(passes, seed=11)
        assert results[4] == ()
    for m, integrands in passes.items():
        _, count, want = reference_run(m, frames_name)
        if frames_name == "default":
            assert [res.integrand for res in results[m]] == integrands
            for res in results[m]:
                assert (res.m, res.fixed_point_count) == (m, count)
                assert [res.spec_used, res.cross_check_spec] == specs
            values = [res.value for res in results[m]]
        else:
            values = seam_values(m, integrands, specs, frames_name)
        assert list(values) == [want[integrand] for integrand in integrands], m


def test_integrate_by_m_answers_each_m_as_alone():
    # the largest k comes from a smaller m, and Hilb^5 asks only for k = 0
    passes = {2: [IntegrandSpec(0, 4), IntegrandSpec(1, 3)], 5: [IntegrandSpec(10, 0)],
              0: [IntegrandSpec(0, 0)], 3: [IntegrandSpec(0, 6), IntegrandSpec(6, 0)]}
    results = integrate_by_m(passes, seed=7)
    assert list(results) == list(passes)
    for m, integrands in passes.items():
        alone = integrate_many(m, integrands, seed=7)
        assert [(res.value, res.fixed_point_count) for res in results[m]] == \
            [(res.value, res.fixed_point_count) for res in alone]


def test_integrate_by_m_charges_the_shared_tables_to_the_largest_m(monkeypatch):
    # one clock reading at the start and one as each m ends: Hilb^7 goes
    # first, over the shapes and tables every m reads, and each other m is
    # charged its own sums alone, so the times add up to the call's
    ticks = iter([10.0, 10.5, 10.625, 10.75])
    monkeypatch.setattr(engine, "perf_counter", lambda: next(ticks))
    results = integrate_by_m({m: every_integrand(m) for m in (2, 7, 4)})
    assert list(results) == [2, 7, 4]
    assert {m: {res.elapsed_s for res in by_integrand}
            for m, by_integrand in results.items()} == \
        {7: {0.5}, 2: {0.125}, 4: {0.125}}


def forbid_work(monkeypatch):
    def no_work(*args):
        raise AssertionError(f"started work on {args}")

    monkeypatch.setattr(engine, "_shapes", no_work)
    monkeypatch.setattr(engine, "_chart_table", no_work)


def test_integrate_by_m_refuses_an_m_above_the_cap_before_any_work(monkeypatch):
    forbid_work(monkeypatch)
    with pytest.raises(ValueError, match=f"at most MAX_M = {MAX_M}, got {MAX_M + 1}"):
        integrate_by_m({3: [IntegrandSpec(0, 6)], MAX_M + 1: [IntegrandSpec(0, 0)]})


def test_integrate_by_m_refuses_a_degree_of_a_small_m_before_any_work(monkeypatch):
    forbid_work(monkeypatch)
    with pytest.raises(DegreeMismatch, match=r"exceeds dim Hilb\^2"):
        integrate_by_m({7: [IntegrandSpec(0, 14)], 2: [IntegrandSpec(1, 4)]})


def test_integrate_by_m_of_no_passes_builds_nothing(monkeypatch):
    forbid_work(monkeypatch)
    assert integrate_by_m({}) == {}


@pytest.mark.parametrize("m, message", [
    (-1, "m must be nonnegative"),
    (MAX_M + 1, f"at most MAX_M = {MAX_M}, got {MAX_M + 1}"),
], ids=["negative", "above_cap"])
def test_fixed_point_count_refuses_a_bad_m_before_any_work(monkeypatch, m, message):
    forbid_work(monkeypatch)
    with pytest.raises(ValueError, match=message):
        engine.fixed_point_count(m)


@pytest.mark.parametrize("m, integrands, error, message", [
    (-1, [IntegrandSpec(0, 0)], ValueError, "m must be nonnegative"),
    (MAX_M + 1, [IntegrandSpec(0, 0)], ValueError,
     f"at most MAX_M = {MAX_M}, got {MAX_M + 1}"),
    (3, [IntegrandSpec(0, 6), IntegrandSpec(-1, 3)], ValueError,
     "exponents must be nonnegative"),
    (3, [IntegrandSpec(0, 7)], DegreeMismatch, r"exceeds dim Hilb\^3"),
], ids=["negative_m", "above_cap", "negative_exponent", "degree_above_2m"])
def test_fixed_point_sum_refuses_what_integrate_refuses_before_any_work(
        monkeypatch, m, integrands, error, message):
    forbid_work(monkeypatch)
    with pytest.raises(error, match=message):
        integrate_many(m, integrands)
    with pytest.raises(error, match=message):
        fixed_point_sum(m, Specialization(1, MAX_M + 2, seed=0), integrands)


def test_frames_keyword_is_gone():
    # fixed_point_sum is the one entry point that takes frames
    with pytest.raises(TypeError):
        integrate(1, IntegrandSpec(0, 2), frames=DEFAULT_FRAMES)
    with pytest.raises(TypeError):
        integrate_many(1, [IntegrandSpec(0, 2)], frames=DEFAULT_FRAMES)
    with pytest.raises(TypeError):
        integrate_by_m({1: [IntegrandSpec(0, 2)]}, frames=DEFAULT_FRAMES)


def test_one_sum_answers_each_integrand_as_alone():
    spec = Specialization(5, -7, seed=0)
    integrands = [IntegrandSpec(0, 6), IntegrandSpec(2, 1), IntegrandSpec(6, 0),
                  IntegrandSpec(0, 6), IntegrandSpec(1, 0)]
    alone = [fixed_point_sum(3, spec, (integrand,))[0] for integrand in integrands]
    assert fixed_point_sum(3, spec, integrands) == tuple(alone)


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
            fixed_point_sum(m, spec, (integrand,), frames)
    else:
        (value,) = fixed_point_sum(m, spec, (integrand,), frames)
        assert value == want


def test_degenerate_examples_cover_both_outcomes():
    outcomes = set()
    for w in [(1, 2), (2, 3)]:
        for m in (3, 5):
            try:
                fixed_point_sum(m, Specialization(*w, seed=0), (IntegrandSpec(0, 0),))
                outcomes.add(False)
            except DegenerateSpecialization:
                outcomes.add(True)
    assert outcomes == {True, False}


@pytest.mark.parametrize("m", [5, 6])
def test_the_hook_weights_checked_are_the_hooks_of_size_at_most_m(m):
    # chart 1 at (1, m-1): the hooks (m-2, 1) and (m-1, 0) each have a
    # weight (m-1) - (m-1) = 0, and they first occur at size m, in the
    # partitions (m-1, 1) and (m); no hook of a smaller partition vanishes
    frame = DEFAULT_FRAMES[0]
    with pytest.raises(DegenerateSpecialization):
        engine._chart_table(engine._shapes(m), frame, 1, m - 1, 0)
    assert len(engine._chart_table(engine._shapes(m - 1), frame, 1, m - 1, 0)) == m


def test_no_tangent_weight_vanishes_at_any_drawable_n():
    # N can be drawn for Hilb^m exactly when m+2 <= N <= m+1+SPAN, and the
    # hooks (a, l) of Hilb^m, a + l <= m-1, grow with m: checking each N
    # at the largest m <= 40 that can draw it covers every m <= 40
    m_max = 40
    for n in range(2, m_max + 2 + SPAN):
        m = min(m_max, n - 2)
        hooks = [(a, l) for a in range(m) for l in range(m - a)]
        for frames in FRAMES.values():
            for frame in frames:
                u, v = (evaluate(form, 1, n) for form in frame[:2])
                assert all((a + 1) * u != l * v and (l + 1) * v != a * u
                           for a, l in hooks), (n, frame)


@pytest.mark.parametrize("m", range(11))
def test_drawn_pair_agrees_with_a_far_point(m):
    # the first draw of the former sampler at seed 0, far from (1, N)
    integrands = [IntegrandSpec(i, 2 * m - i) for i in range(2 * m + 1)]
    far = fixed_point_sum(m, Specialization(770880, -192083, seed=0), integrands)
    for spec in specializations(m, 0):
        assert fixed_point_sum(m, spec, integrands) == far


def reference_chart_series(chart, size, spec, k, frames):
    """sum over the partitions mu of size in chart of h_l(e^mu) / euler_mu,
    l = 0..k, from the oracle's weights: h(e) is the Segre series of the
    roots -e."""
    series = [Fraction(0)] * (k + 1)
    for mu in enumerate_partitions(size):
        fp = tuple(mu if j == chart else () for j in range(3))
        roots = [-evaluate(f, spec.w1, spec.w2) for f in e_weights(fp, frames)]
        h = segre_coefficients(elementary_symmetric(roots, min(k, len(roots))), k)
        euler = euler_class(fp, spec.w1, spec.w2, frames)
        series = [total + Fraction(h_l, euler) for total, h_l in zip(series, h)]
    return series


@pytest.mark.parametrize("frames_name", sorted(FRAMES))
@pytest.mark.parametrize("m", range(7))
def test_chart_tables_are_the_reference_series_in_lowest_terms(m, frames_name):
    frames = FRAMES[frames_name]
    for spec in specializations(m, 0):
        for chart, frame in enumerate(frames):
            table = engine._chart_table(engine._shapes(m), frame, spec.w1, spec.w2, 2 * m)
            assert len(table) == m + 1
            for size, (denom, series) in enumerate(table):
                assert denom > 0 and gcd(denom, *series) == 1, (size, denom)
                assert [Fraction(h_l, denom) for h_l in series] == \
                    reference_chart_series(chart, size, spec, 2 * m, frames)


@pytest.mark.parametrize("m", range(1, 11))
def test_one_pass_multiplies_only_the_nonempty_charts(m, monkeypatch):
    # a triple of sizes with three nonempty charts costs two products, one
    # with one empty chart costs one, and one with two costs none
    products = []
    convolve = engine._convolve

    def counted(p, q):
        products.append(len(p))
        return convolve(p, q)

    monkeypatch.setattr(engine, "_convolve", counted)
    integrands = [IntegrandSpec(i, 2 * m - i) for i in range(2 * m + 1)]
    fixed_point_sum(m, specializations(m, 0)[0], integrands)
    assert len(products) == 2 * comb(m - 1, 2) + 3 * (m - 1)
    assert set(products) <= {2 * m + 1}


@pytest.mark.parametrize("m", range(15))
def test_chart_volumes_are_the_hilbert_chow_closed_form(m):
    # Hilbert-Chow maps Hilb^n(C^2) properly onto Sym^n(C^2), which has one
    # fixed point: sum over |mu| = n of 1/euler_mu = 1/(n! (uv)^n), so the
    # l = 0 entry of size n is that fraction in lowest terms
    for spec in specializations(m, 0):
        for frame in DEFAULT_FRAMES:
            u, v = (evaluate(form, spec.w1, spec.w2) for form in frame[:2])
            table = engine._chart_table(engine._shapes(m), frame, spec.w1, spec.w2, 0)
            for size, entry in enumerate(table):
                volume = (u * v) ** size
                assert entry == (factorial(size) * abs(volume),
                                 [1 if volume > 0 else -1]), (spec, frame, size)


# chart 1 with the v weight (0, 2) in place of (0, 1): no longer the
# tangent weights of a torus action on P^2
WRONG_FRAMES = (((1, 0), (0, 2), (0, 0)),) + DEFAULT_FRAMES[1:]


@pytest.mark.parametrize("i, k", [(0, 6), (6, 0), (2, 4)])
def test_a_non_integral_sum_is_refused(i, k):
    for spec in specializations(3, 0):
        with pytest.raises(ArithmeticError, match="not an integer"):
            fixed_point_sum(3, spec, (IntegrandSpec(i, k),), WRONG_FRAMES)


def test_values_are_ints():
    m = 4
    assert type(integrate(m, IntegrandSpec(0, 2 * m)).value) is int
    integrands = [IntegrandSpec(i, 2 * m - i) for i in range(2 * m + 1)]
    assert all(type(res.value) is int for res in integrate_many(m, integrands))
    # above dim Hilb^m the sum is still an integer polynomial in (w1, w2);
    # fixed_point_sum refuses such an integrand, so sum the tables directly
    integrands.append(IntegrandSpec(3, 2 * m))
    for spec in specializations(m, 0) + (Specialization(5, -7, seed=0),):
        tables = [engine._chart_table(engine._shapes(m), frame, spec.w1, spec.w2, 2 * m)
                  for frame in DEFAULT_FRAMES]
        values = engine._chart_sum(m, spec, tables, engine._pair_products(tables, m),
                                   DEFAULT_FRAMES, integrands)
        assert all(type(value) is int for value in values)


def count_products(monkeypatch):
    """The length of p in every `_convolve(p, q)` from now on."""
    products = []
    convolve = engine._convolve

    def counted(p, q):
        products.append(len(p))
        return convolve(p, q)

    monkeypatch.setattr(engine, "_convolve", counted)
    return products


def pass_products(ms, m_top):
    """Products per specialization of a pass over ms: each chart-1 x
    chart-2 product once, then per m one product with chart 3 for every
    triple with chart 3 and chart 1 or 2 nonempty."""
    return comb(m_top, 2) + sum((m - 1) * (m + 2) // 2 for m in ms)


def test_paper_table_multiplies_each_pair_product_once(monkeypatch):
    products = count_products(monkeypatch)
    invariant_table(6, darboux_n=(2, 3, 4, 5))
    # Hilb^3..Hilb^7 at two specializations: 96 products each, where one
    # pass per m would make sum (m-1)(m+1) = 130
    assert pass_products(range(3, 8), 7) == 96
    assert len(products) == 2 * 96


def test_a_pass_shares_pair_products_at_the_largest_k(monkeypatch):
    # the largest m asks only for k = 0 and the largest k comes from
    # Hilb^5: the pair products are built at Hilb^9 and k = 9, and each
    # m multiplies by chart 3 at its own largest k
    passes = {2: [IntegrandSpec(0, 4)], 5: [IntegrandSpec(1, 9), IntegrandSpec(10, 0)],
              9: [IntegrandSpec(18, 0)]}
    products = count_products(monkeypatch)
    built = []
    pair_products = engine._pair_products

    def recorded(tables, m):
        built.append((m, pair_products(tables, m)))
        return built[-1][1]

    monkeypatch.setattr(engine, "_pair_products", recorded)
    results = integrate_by_m(passes, seed=5)
    # per specialization: 36 pair products of length 10, then 2 products
    # of length 5 on Hilb^2, 14 of length 10 on Hilb^5 and 44 of length 1
    # on Hilb^9
    assert pass_products(passes, 9) == 36 + 2 + 14 + 44
    assert sorted(products) == sorted([10] * 2 * (36 + 14) + [5] * 2 * 2 + [1] * 2 * 44)
    assert len(built) == 2
    for m, pairs in built:
        assert m == 9
        assert set(pairs) == {(a, b) for a in range(1, 9) for b in range(1, 10 - a)}
        assert {len(product) for product in pairs.values()} == {10}
    for m, integrands in passes.items():
        alone = integrate_many(m, integrands, seed=5)
        assert [(res.value, res.fixed_point_count) for res in results[m]] == \
            [(res.value, res.fixed_point_count) for res in alone]


def schoolbook(p, q):
    return [sum(p[j] * q[l - j] for j in range(l + 1)) for l in range(len(p))]


@pytest.mark.parametrize("n, extra", [(1, 0), (1, 5), (7, 0), (7, 4), (21, 20)])
def test_convolve_is_the_product_truncated_to_p(n, extra):
    rng = random.Random(n * 100 + extra)
    for _ in range(20):
        p = [rng.randint(-10**30, 10**30) for _ in range(n)]
        q = [rng.randint(-10**30, 10**30) for _ in range(n + extra)]
        assert engine._convolve(engine._prefixes(p), q) == schoolbook(p, q)


def test_binomials_are_the_segre_basis_row():
    # m = 0 admits only k = 0, whose row is (1,): comb(-1, 0) raises
    assert engine._binomials(0, 0) == (1,)
    for m in range(1, MAX_M + 1):
        for k in range(2 * m + 1):
            assert engine._binomials(m, k) == \
                tuple(comb(m - 1 + k, k - l) for l in range(k + 1))
