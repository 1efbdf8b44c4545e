"""Exact evaluation of tautological integrals on Hilb^m(P^2) by
fixed-point summation.

An integrand is c1(L)^i * s_k(E tensor L).  At each fixed point the
summand is lambda^i * s_k / (product of tangent weights), all specialized
at integer torus parameters (w1, w2); the sum over fixed points is a
constant (independent of the parameters) whenever i + k <= 2m and no
tangent weight vanishes.  Every integral is evaluated at the two
specializations (1, N) and (1, N'), N != N', that `specializations`
draws, and the results must agree bitwise.  A pass over several m draws
them at its largest m, m_top.

No tangent weight vanishes at (1, N) with N > m, so no draw is ever
rejected, and N > m_top >= m serves every m of a pass.  A cell with arm
a and leg l has a + l <= m-1 and the tangent weights (a+1)u - l*v and
(l+1)v - a*u, where the chart parameters (u, v) are (1, N), (-1, N-1)
and (-N, 1-N):
- chart 1 would need l*N = a+1 or a = (l+1)*N, and either forces
  N <= m-1;
- in chart 2 the first weight is negative and the second positive;
- chart 3 would need l = N*(l-a-1) or l+1 = N*(l+1-a), so N | l or
  N | l+1, impossible for 0 < l+1 <= m < N; at l = 0 the first weight
  is -(a+1)N.
Shifted frames (`chart_frames(shift)`) move only the line weights, so
the proof holds for them too.  `_chart_table` still checks every weight.

The sum is taken per chart, not per fixed point.  A fixed point is a
triple of partitions, one per chart of P^2, since a fixed subscheme is a
union of monomial ideals at the three coordinate points.  Its tangent
weights and its E-weights e_j depend on each chart's partition alone,
and the weight lambda of L on the chart sizes (a, b, c) alone.  The
Segre class of the roots -(e_j + lambda) is s_k = h_k(e + lambda), and

    h_k(e_1 + y, ..., e_r + y) = sum_l C(r-1+k, k-l) y^(k-l) h_l(e).

So the fixed points with chart sizes (a, b, c) contribute lambda^i times
the rank-m shift by lambda of the product X of three chart series
sum_{mu |- size} h(e^mu) / euler_mu, each of which depends on the chart
and the size alone; the chart tables hold them as reduced fractions, and
the series of an empty chart is 1.  Summed over the triples,

    sum lambda^i s_k = sum_l C(m-1+k, k-l) sum lambda^(i+k-l) X_l,

so the shift needs, per degree d = i + k, one vector of sums
sum lambda^(d-l) X_l over the triples, and each integrand is a binomial
dot product with it: the Segre-basis sum.  The per-fixed-point summand,
which builds each fixed point's weight forms and inverts its Chern
series, lives in tests/fixed_point_reference.py as the oracle the tests
check the chart sum against.

The unit of work is one pass over several Hilb^m at one pair of
specializations: `integrate_by_m` evaluates any number of integrands on
each m from one set of chart tables per specialization, built once at
the largest m and the largest k of the pass.  A table's entry of size s
depends on the frame, the specialization and the truncation alone,
never on m, and its H_l on H_0..H_(l-1) alone, so each m reads the first
m+1 entries of each table and the first k+1 terms of each series.  A
product of two series truncated at the largest k is exact on every
prefix for the same reason, so the products of chart 1's and chart 2's
series, the same in every m with room for both sizes, are shared across
the pass (`_pair_products`).  Each integral is a different linear
functional on the same per-triple series, so the products with chart 3
and the Segre-basis sums of each degree are shared within an m
(`_chart_sum`).  A series that meets several partners, chart 1's in the
shared products and chart 3's within an m, is reversed once, prefix by
prefix (`_prefixes`).  `integrate_many` is the pass over one m and
`integrate` the one-integrand pass.

The two specializations of a pass share no chart table, so a large
enough pass runs the cross-check specialization in a forked child while
this process runs the first; `integrate_by_m` says when, and what
happens when the child fails.

Every value is an int: the fixed-point sum of an integral class on the
smooth projective Hilb^m(P^2) is its equivariant integral, a polynomial
in (w1, w2) with integer coefficients.  The pass divides exactly, and a
remainder, which only wrong weights leave, raises ArithmeticError.
"""

import marshal
import os
import random
import sys
from functools import lru_cache
from math import comb, gcd, lcm, prod
from operator import mul
from time import perf_counter

from . import _Record


class DegreeMismatch(ValueError):
    """Integrand degree exceeds 2m; the equivariant sum is not a number."""


class DegenerateSpecialization(ArithmeticError):
    """A tangent weight specialized to zero."""


SPAN = 64  # N is drawn from (m+1, m+1+SPAN]
# the largest Hilb^m integrated: on a 2-core box, s_{2m}(E tensor L) at
# both specializations took 0.85-1.2 s at m = 24 with the cross-check
# forked and 1.5-1.8 s in one process (five fresh processes each) and, in
# an earlier sitting, 5.7 s at m = 26 in one process; the time about
# doubles for each step of 2
MAX_M = 24
# the work estimate from which integrate_by_m forks its cross-check.
# The fork costs about 2 ms: on a 2-core box (medians
# of 30 fresh processes) a forked pass took 4.5 ms where one process took
# 2.5 ms at m = 10, k = 0 (work 2640), 5.6 against 4.8 ms at m = 12,
# k = 0 (7868), 6.0 against 6.4 ms at m = 10, k = 10 (29 040) and 10.4
# against 12.7 ms at m = 10, k = 20 (55 440)
FORK_WORK = 30_000


def chart_frames(shift=(0, 0)):
    """The torus convention on P^2: one frame (u, v, line) per fixed
    chart, each weight an integer pair (a, b) meaning a*w1 + b*w2.

    The torus acts by t.[x0:x1:x2] = [x0 : t1*x1 : t2*x2]; the local
    coordinates (u, v) at the three fixed charts then carry the
    characters (w1, w2), (-w1, w2-w1), (-w2, w1-w2).  The section basis
    {x0, x1, x2} of O(1) carries characters {0, w1, w2}, and each chart
    is trivialized by the section not vanishing there, whose character
    is the chart's line weight.  The shift, a global character, moves
    every line weight and no coordinate weight; well-formed integrals
    are insensitive to it.
    """
    s1, s2 = shift
    return (((1, 0), (0, 1), (s1, s2)),
            ((-1, 0), (-1, 1), (1 + s1, s2)),
            ((0, -1), (1, -1), (s1, 1 + s2)))


DEFAULT_FRAMES = chart_frames()


class IntegrandSpec(_Record):
    """The class c1(L)^i * s_k(E tensor L)."""

    __slots__ = ()

    def __new__(cls, i, k):
        return tuple.__new__(cls, (i, k))


class Specialization(_Record):
    """Integer values for the torus parameters, with the sampling seed."""

    __slots__ = ()

    def __new__(cls, w1, w2, seed):
        return tuple.__new__(cls, (w1, w2, seed))


class IntegralResult(_Record):
    """One integral with how it was computed; value is an exact int.
    elapsed_s is seconds on perf_counter: a measurement, not part of the
    result, so equality and hashing skip it."""

    __slots__ = ()

    def __new__(cls, value, m, integrand, spec_used, cross_check_spec, fixed_point_count,
                elapsed_s):
        return tuple.__new__(cls, (value, m, integrand, spec_used, cross_check_spec,
                                   fixed_point_count, elapsed_s))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self[:-1] == other[:-1]

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash(self[:-1])


def specializations(m: int, seed: int) -> tuple[Specialization, Specialization]:
    """The two specializations (1, N) and (1, N') of Hilb^m at seed: two
    distinct N from (m+1, m+1+SPAN], drawn by Random(seed)."""
    return tuple(Specialization(1, n, seed)
                 for n in random.Random(seed).sample(range(m + 2, m + 2 + SPAN), 2))


def _shapes(m: int):
    """For each size 0..m, one entry per partition of that size:
    (parent, cell, hooks).  The partition is its parent (an index into the
    previous size's list) plus the cell (row, col) at the end of its last
    row; hooks holds one int per cell, in row-major order, the cell's
    arm * _ARM + leg.  The empty partition has parent and cell None.  Each
    size is built once per process, from the size before it (`_level`),
    whatever m comes first, and shared by every caller, hence tuples
    throughout."""
    return tuple(map(_level, range(m + 1)))


# a hook's int is arm * _ARM + leg: a leg is at most MAX_M - 1, so the
# hooks of the sizes `_level` accepts never share an int
_ARM = MAX_M + 1


@lru_cache(maxsize=None)
def _level(size: int):
    """The entries of `_shapes` of one size, built from those of size-1.
    Each parent grows by a new row of one cell, and by one more cell in its
    last row when that row stays no longer than the row above; removing
    the last cell of the last row undoes exactly one of the two, so each
    partition is listed once.

    The rows are read off the parent's row-major hooks: a row's length is
    its first cell's arm + 1.  A child's hooks are its parent's with the
    new cell's effect: a new row raises the leg of the first cell of every
    row by 1, and the cell (r, c) at the end of row r raises the arm of
    that row's c cells, the last c entries, by _ARM, and the leg of the
    cell (i, c) of every earlier row, each of which is longer than c, by 1.
    Either way the new cell's hook, 0, comes last.  Raises ValueError for a
    size above MAX_M, whose legs could reach _ARM."""
    if size > MAX_M:
        raise ValueError(f"a partition size must be at most MAX_M = {MAX_M}, got {size}")
    if size == 0:
        return ((None, None, ()),)
    by_size = []
    for parent, (_, _, hooks) in enumerate(_level(size - 1)):
        # the offset of each row's first cell
        starts, start = [], 0
        while start < len(hooks):
            starts.append(start)
            start += hooks[start] // _ARM + 1
        rows = len(starts)
        child = list(hooks)
        for start in starts:
            child[start] += 1
        child.append(0)
        by_size.append((parent, (rows, 0), tuple(child)))
        if not starts:
            continue
        c = len(hooks) - starts[-1]  # the last row's length
        if rows == 1 or c < starts[-1] - starts[-2]:
            child = list(hooks[:-c])
            for start in starts[:-1]:
                child[start + c] += 1
            child += [hook + _ARM for hook in hooks[-c:]]
            child.append(0)
            by_size.append((parent, (rows - 1, c), tuple(child)))
    return tuple(by_size)


def _count_triples(counts, m: int) -> int:
    """The triples of partitions of total size m, from the number of
    partitions of each size up to m."""
    return sum(counts[a] * counts[b] * counts[m - a - b]
               for a in range(m + 1) for b in range(m - a + 1))


def fixed_point_count(m: int) -> int:
    """The number of torus-fixed points of Hilb^m(P^2): the triples of
    partitions of total size m that the chart sum runs over.  An m that
    `integrate` refuses is refused here too, before any work."""
    _checked(m, ())
    return _count_triples([len(by_size) for by_size in _shapes(m)], m)


def _chart_table(shapes, frame, w1: int, w2: int, k: int):
    """One chart's series, per size: (D, H) with H[l] / D the sum over the
    partitions mu of that size of h_l(e^mu) / euler_mu, for l = 0..k, in
    lowest terms: gcd(D, *H) = 1 and D > 0.

    euler_mu is the product of mu's tangent weights and e^mu its
    E-weights.  A cell's two tangent weights depend on its hook alone, so
    their product is read from one list indexed by the hook's int, filled
    for every (arm, leg) with arm + leg <= m-1, m the largest size: the
    hook partition (arm+1, 1^leg) has size arm + leg + 1 <= m, so the list
    holds exactly the hooks that occur, and None elsewhere.  Filling it
    checks every tangent weight, once per hook, and raises
    DegenerateSpecialization if one vanishes, before any series is built.
    h(e^mu) extends its parent's series by the one new cell, and the
    partitions are summed over the lcm of their euler_mu before the entry
    is reduced.
    """
    u, v, line = (a * w1 + b * w2 for a, b in frame)
    m = len(shapes) - 1
    weight = [None] * (m * _ARM)
    for arm in range(m):
        for leg in range(m - arm):
            t1 = (arm + 1) * u - leg * v
            t2 = (leg + 1) * v - arm * u
            if t1 == 0 or t2 == 0:
                raise DegenerateSpecialization(
                    f"a tangent weight of the cell with arm {arm} and leg "
                    f"{leg} vanishes at ({w1}, {w2})"
                )
            weight[arm * _ARM + leg] = t1 * t2
    table, parent_hs = [], [[1] + [0] * k]
    for by_size in shapes[1:]:
        eulers, hs = [], []
        for parent, (row, col), hooks in by_size:
            e = col * u + row * v - line
            h, acc = [], 0
            for x in parent_hs[parent]:
                acc = x + e * acc
                h.append(acc)
            eulers.append(prod(map(weight.__getitem__, hooks)))
            hs.append(h)
        denom = lcm(*eulers)
        scales = [denom // euler for euler in eulers]
        series = [sum(map(mul, scales, coeffs)) for coeffs in zip(*hs)]
        g = gcd(denom, *series)
        table.append((denom // g, [h_l // g for h_l in series]))
        parent_hs = hs
    return [(1, [1] + [0] * k)] + table


def _prefixes(p):
    """Every prefix of the series p, reversed: p[l::-1] for l = 0..len(p)-1,
    the operand `_convolve` takes, built once per series that meets several
    partners."""
    return [p[l::-1] for l in range(len(p))]


def _convolve(prefixes, q):
    """The product of the series p and q truncated to the length of p,
    from `_prefixes(p)`; q may be longer.  Term l is q against p's
    reversed prefix of length l+1: map stops at the shorter operand."""
    return [sum(map(mul, q, rev)) for rev in prefixes]


def _pair_products(tables, m: int):
    """(a, b) -> chart 1's series of size a times chart 2's of size b, for
    a, b >= 1 with a + b <= m, at the tables' length: the products every
    Hilb^m of a pass shares (see the module docstring)."""
    first, second = tables[0], tables[1]
    pairs = {}
    for a in range(1, m):
        prefixes = _prefixes(first[a][1])
        for b in range(1, m - a + 1):
            pairs[a, b] = _convolve(prefixes, second[b][1])
    return pairs


@lru_cache(maxsize=None)
def _binomials(m: int, k: int) -> tuple[int, ...]:
    """The Segre-basis row C(m-1+k, k-l) for l = 0..k, built once per
    (m, k) per process; the last is written as 1 because comb(-1, 0)
    raises at m = 0."""
    return tuple(comb(m - 1 + k, k - l) for l in range(k)) + (1,)


def fixed_point_sum(m: int, spec: Specialization, integrands,
                    frames=DEFAULT_FRAMES) -> tuple[int, ...]:
    """The fixed-point formula at spec: the sum over all fixed points of
    Hilb^m of lambda^i * s_k / euler, one value per integrand, as the pass
    of the module docstring over Hilb^m alone at one specialization.  The one
    entry point that takes frames; the others sum in DEFAULT_FRAMES.  An
    m or integrand that `integrate` refuses is refused here too, before
    any work."""
    integrands = _checked(m, integrands)
    k_max = max((integrand.k for integrand in integrands), default=0)
    return next(_pass_values(_shapes(m), spec, k_max, {m: integrands}, (m,), frames))


def _chart_sum(m: int, spec: Specialization, tables, pairs, frames, integrands):
    """The fixed-point sum over Hilb^m at spec, one int per integrand,
    from chart tables of at least m+1 sizes and at least the largest k
    terms, in lowest terms or not, and their `_pair_products` for at least
    this m: the Segre-basis sum of the module docstring.

    Each triple of chart sizes (a, b, c) carries its denominator, its
    lambda and its product series X, truncated at the largest k: the pair
    product when a and b are both nonempty, the one nonempty series of
    the two otherwise, or the empty chart's series 1, times chart 3's
    series of size c when c is nonempty.  The X are transposed once into
    columns, term l of every triple.  For each degree d = i + k, with top
    its largest k, S_l is one dot product of column l with a weight
    column, per triple its scale to the common denominator times
    lambda^(d-l): lambda^(d-top) at l = top, one more factor lambda per
    term below.  Each integral is one dot product of S with its
    `_binomials` row, a numerator over the common denominator, divided
    exactly.  Raises ArithmeticError on a remainder; the tables raise
    DegenerateSpecialization.
    """
    w1, w2 = spec.w1, spec.w2
    k_max = max((integrand.k for integrand in integrands), default=0)
    first, second, third = tables
    # chart 3's series of size c < m, reversed once; size m meets only
    # the empty charts
    rev_thirds = [None] + [_prefixes(h[:k_max + 1]) for _, h in third[1:m]]
    lines = [a * w1 + b * w2 for _, _, (a, b) in frames]
    # per degree d = i + k, the largest k: its sums run over l = 0..k
    tops = {}
    for integrand in integrands:
        d = integrand.i + integrand.k
        tops[d] = max(integrand.k, tops.get(d, 0))
    triples = []
    for a in range(m + 1):
        for b in range(m - a + 1):
            c = m - a - b
            # an empty chart's series is 1, so at a = b = 0 the second
            # chart's entry 0 stands for both
            product = pairs[a, b] if a and b else first[a][1] if a else second[b][1]
            if c:
                product = (_convolve(rev_thirds[c], product) if a or b
                           else third[c][1][:k_max + 1])
            triples.append((first[a][0] * second[b][0] * third[c][0], product,
                            a * lines[0] + b * lines[1] + c * lines[2]))
    denominator = lcm(*(den for den, _, _ in triples))
    scales = [denominator // den for den, _, _ in triples]
    lams = [lam for _, _, lam in triples]
    # columns[l]: term l of every triple's product
    columns = list(zip(*(product for _, product, _ in triples)))
    sums = {}
    for d, top in tops.items():
        # scale * lam^(d-l) per triple, from l = top down, one more power
        # of lam per term
        weights = (scales if d == top else
                   [scale * lam ** (d - top) for scale, lam in zip(scales, lams)])
        acc = [0] * (top + 1)
        for l in range(top, -1, -1):
            acc[l] = sum(map(mul, weights, columns[l]))
            if l:
                weights = list(map(mul, weights, lams))
        sums[d] = acc
    values = []
    for integrand in integrands:
        k = integrand.k
        value, remainder = divmod(sum(map(mul, _binomials(m, k), sums[integrand.i + k])),
                                  denominator)
        if remainder:
            raise ArithmeticError(f"the sum of {integrand} at {spec} is not an integer")
        values.append(value)
    return tuple(values)


def _checked(m: int, integrands) -> tuple[IntegrandSpec, ...]:
    """integrands as a tuple, once m and each of them are valid."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    if m > MAX_M:
        raise ValueError(f"m must be at most MAX_M = {MAX_M}, got {m}")
    integrands = tuple(integrands)
    for integrand in integrands:
        if integrand.i < 0 or integrand.k < 0:
            raise ValueError("integrand exponents must be nonnegative")
        if integrand.i + integrand.k > 2 * m:
            raise DegreeMismatch(
                f"i+k = {integrand.i + integrand.k} exceeds dim Hilb^{m} = {2 * m}"
            )
    return integrands


def _pass_values(shapes, spec: Specialization, k_top: int, passes, order, frames):
    """Each m's values at spec in frames, for the m of passes in order,
    from one set of chart tables and pair products built at
    m_top = len(shapes) - 1 and k_top (see the module docstring)."""
    tables = [_chart_table(shapes, frame, spec.w1, spec.w2, k_top) for frame in frames]
    pairs = _pair_products(tables, len(shapes) - 1)
    for m in order:
        yield _chart_sum(m, spec, tables, pairs, frames, passes[m])


def _may_fork() -> bool:
    """Whether a fork can run beside this process: os.fork exists, the
    process may run on two CPUs or more, and it runs one thread (a fork
    with threads can deadlock the child, and Python 3.12 warns on it)."""
    if not hasattr(os, "fork"):
        return False
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    threading = sys.modules.get("threading")
    return cpus >= 2 and (threading is None or threading.active_count() == 1)


def _fork(values):
    """(pid, read end) of a forked child that sends list(values) back
    over a pipe with marshal and always leaves by os._exit, so that it
    runs no cleanup and flushes no buffer of this process; None when the
    pipe or the fork fails."""
    try:
        read_end, write_end = os.pipe()
    except OSError:
        return None
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(marshal.dumps(list(values)))
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return pid, read_end


def _received(pid: int, read_end: int):
    """The list the child sent; None when the read fails, the child exits
    nonzero or its data is short.  The one place that closes the read
    end and reaps the child: the child is reaped, and killed first unless
    the read came to the end of the pipe, before this returns or raises."""
    data = None
    try:
        with open(read_end, "rb") as pipe:
            data = pipe.read()
    except OSError:
        pass
    finally:
        if data is None:
            _kill(pid)
        status = os.waitpid(pid, 0)[1]
    if status == 0:
        try:
            return marshal.loads(data)
        except (EOFError, ValueError):
            pass
    return None


def _kill(pid: int):
    import signal

    os.kill(pid, signal.SIGKILL)


def integrate_by_m(passes, *, seed: int = 0) -> dict[int, tuple[IntegralResult, ...]]:
    """Integrate, for each m of passes, every c1(L)^i * s_k(E tensor L)
    in passes[m] over Hilb^m(P^2) exactly, in one pass in DEFAULT_FRAMES
    (see the module docstring).

    Each integrand requires i + k <= 2m; for i + k < 2m the value is 0
    by degree reasons, which the summation confirms.  Every m and every
    integrand is checked, and an m above MAX_M refused, before any work.
    The sums are evaluated at the two `specializations(m_top, seed)`, m_top
    the largest m, where the tables are built up to the largest k, k_top,
    and each m's values must agree across them.  Returns m -> one result
    per integrand, in order.

    When fixed_point_count(m_top) * (k_top + 1) reaches FORK_WORK and
    `_may_fork`, the cross-check specialization's tables, pair products
    and sums run in a forked child, from the shapes built here, beside
    this process's work on the first; the child sends each m's values
    back over a pipe with marshal and is reaped before the call returns
    or raises.  Otherwise, or if the pipe, the fork or the child fails,
    the cross-check runs here, m by m, so every error keeps its type and
    message.

    Each result's elapsed_s is the wall time of its m's own sums and
    cross-check in this process; m_top is charged the shared shapes, the
    first specialization's tables and pair products, and, for a forked
    pass, the wait for the child, so the times of the m add up to no more
    than the call.  The child's CPU time is not counted.
    """
    passes = {m: _checked(m, integrands) for m, integrands in passes.items()}
    if not passes:
        return {}
    m_top = max(passes)
    k_top = max((integrand.k for integrands in passes.values()
                 for integrand in integrands), default=0)
    t0 = perf_counter()
    shapes = _shapes(m_top)
    counts = [len(by_size) for by_size in shapes]
    specs = specializations(m_top, seed)
    # m_top goes first, so that its clock runs over the shared work too
    order = sorted(passes, key=lambda m: m != m_top)
    # generators: checks is started in the child or here but never in both
    firsts, checks = (_pass_values(shapes, spec, k_top, passes, order, DEFAULT_FRAMES)
                      for spec in specs)
    child = (_fork(checks) if _count_triples(counts, m_top) * (k_top + 1) >= FORK_WORK
             and _may_fork() else None)
    results = {}
    try:
        for m, values in zip(order, firsts):
            if child is not None:
                # _received reaps the child whether it returns or raises
                forked, child = child, None
                received = _received(*forked)
                if received is not None:
                    checks = iter(received)
            for integrand, value, check_value in zip(passes[m], values, next(checks)):
                if value != check_value:
                    raise ArithmeticError(
                        f"specialization cross-check failed for {integrand} on "
                        f"Hilb^{m}: {value} != {check_value}"
                    )
            t1 = perf_counter()
            fixed_points = _count_triples(counts, m)
            results[m] = tuple(IntegralResult(value, m, integrand, *specs,
                                              fixed_points, t1 - t0)
                               for integrand, value in zip(passes[m], values))
            t0 = t1
    finally:
        if child is not None:
            # a child left unread is killed; _received reaps it
            _kill(child[0])
            _received(*child)
    return {m: results[m] for m in passes}


def integrate_many(m: int, integrands, *, seed: int = 0) -> tuple[IntegralResult, ...]:
    """Integrate every c1(L)^i * s_k(E tensor L) in integrands over
    Hilb^m(P^2) exactly, in one pass: the one-m case of `integrate_by_m`,
    at the two `specializations(m, seed)`."""
    return integrate_by_m({m: integrands}, seed=seed)[m]


def integrate(m: int, integrand: IntegrandSpec, *, seed: int = 0) -> IntegralResult:
    """Integrate c1(L)^i * s_k(E tensor L) over Hilb^m(P^2) exactly: the
    one-integrand case of `integrate_many`."""
    return integrate_many(m, (integrand,), seed=seed)[0]
