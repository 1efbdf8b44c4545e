"""The cross-check specialization in a forked child: a pass that forks
gives the results and the errors of one that does not, and leaves no
child behind, whatever goes wrong."""

import os
import subprocess
import sys

import pytest

import donaldson_cp2
from donaldson_cp2 import engine
from donaldson_cp2.engine import (IntegrandSpec, fixed_point_count, integrate, integrate_by_m,
                                  integrate_many, specializations)
from donaldson_cp2.invariants import invariant_table


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_forks(monkeypatch):
    """A list that gains one entry per child a pass starts from now on;
    every pass may fork, whatever the CPUs and threads of this process."""
    forks = []
    fork = engine._fork

    def counted(values):
        forks.append(values)
        return fork(values)

    monkeypatch.setattr(engine, "_fork", counted)
    monkeypatch.setattr(engine, "_may_fork", lambda: True)
    return forks


def both_paths(monkeypatch, run):
    """run() in this process and with the cross-check forked."""
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(engine, "FORK_WORK", float("inf"))
    here = run()
    assert forks == []
    monkeypatch.setattr(engine, "FORK_WORK", 0)
    forked = run()
    assert len(forks) == 1
    return here, forked


@pytest.mark.parametrize("m", [10, 11, 12])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_forked_integral_equals_one_in_process(m, seed, monkeypatch):
    here, forked = both_paths(monkeypatch,
                              lambda: integrate(m, IntegrandSpec(0, 2 * m), seed=seed))
    # equality covers every field but elapsed_s
    assert forked == here
    assert (forked.spec_used, forked.cross_check_spec) == specializations(m, seed)
    assert forked.fixed_point_count == fixed_point_count(m)


def test_the_threshold_forks_a_pass_by_its_largest_m_and_k(monkeypatch):
    # Hilb^9 alone is below FORK_WORK and Hilb^10 at k = 20 above it; a
    # pass over both forks once, and answers each m as alone
    assert fixed_point_count(9) * 19 < engine.FORK_WORK <= fixed_point_count(10) * 21
    passes = {9: [IntegrandSpec(0, 18), IntegrandSpec(2, 16)], 10: [IntegrandSpec(0, 20)],
              4: [IntegrandSpec(8, 0)]}
    forks = count_forks(monkeypatch)
    results = integrate_by_m(passes, seed=4)
    assert len(forks) == 1
    for m, integrands in passes.items():
        assert [res.value for res in results[m]] == \
            [res.value for res in integrate_many(m, integrands, seed=4)]
    # Hilb^10 forks alone too, the others do not
    assert len(forks) == 2
    monkeypatch.setattr(engine, "FORK_WORK", float("inf"))
    assert integrate_by_m(passes, seed=4) == results
    assert len(forks) == 2


def test_the_paper_table_stays_in_process(monkeypatch):
    forks = count_forks(monkeypatch)
    invariant_table(6, darboux_n=(2, 3, 4, 5))
    integrate(10, IntegrandSpec(0, 0))
    assert forks == []
    integrate(10, IntegrandSpec(0, 20))
    assert len(forks) == 1



def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


def no_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")


@pytest.mark.parametrize("refuse", [one_cpu, no_fork])
def test_one_cpu_or_no_fork_keeps_a_pass_in_process(refuse, monkeypatch):
    # _may_fork itself decides, unpatched: a pass whose work is above
    # FORK_WORK starts no child
    forks = []
    fork = engine._fork
    monkeypatch.setattr(engine, "_fork", lambda values: forks.append(values) or fork(values))
    refuse(monkeypatch)
    assert engine._may_fork() is False
    assert fixed_point_count(10) * 21 >= engine.FORK_WORK
    assert integrate(10, IntegrandSpec(0, 20)).value == 2598958192572
    assert forks == []


CHECK = specializations(10, 3)[1]


def corrupt_a_chart_table(monkeypatch):
    """Chart 1's series of size 1 at the cross-check specialization alone
    is off by one in its last term: its sum is no integer."""
    chart_table = engine._chart_table

    def corrupted(shapes, frame, w1, w2, k):
        table = chart_table(shapes, frame, w1, w2, k)
        if (w1, w2) == CHECK[:2] and frame == engine.DEFAULT_FRAMES[0]:
            denom, series = table[1]
            table[1] = (denom, series[:-1] + [series[-1] + 1])
        return table

    monkeypatch.setattr(engine, "_chart_table", corrupted)
    return f"the sum of {IntegrandSpec(0, 20)} at {CHECK} is not an integer"


def corrupt_a_chart_sum(monkeypatch):
    """The cross-check specialization's sums alone are off by one: an
    integer, but not the first specialization's."""
    chart_sum = engine._chart_sum

    def corrupted(m, spec, *args):
        values = chart_sum(m, spec, *args)
        return tuple(value + 1 for value in values) if spec == CHECK else values

    monkeypatch.setattr(engine, "_chart_sum", corrupted)
    return (f"specialization cross-check failed for {IntegrandSpec(0, 20)} on Hilb^10: "
            "2598958192572 != 2598958192573")


@pytest.mark.parametrize("corrupt", [corrupt_a_chart_table, corrupt_a_chart_sum])
def test_a_failed_cross_check_raises_the_same_error_on_both_paths(corrupt, monkeypatch):
    message = corrupt(monkeypatch)

    def run():
        with pytest.raises(ArithmeticError) as raised:
            integrate(10, IntegrandSpec(0, 20), seed=3)
        return raised.value

    here, forked = both_paths(monkeypatch, run)
    assert type(here) is type(forked) is ArithmeticError
    assert str(here) == str(forked) == message


def test_a_short_read_computes_the_cross_check_in_process(monkeypatch):
    # the child's data loses its last byte, so the pass computes the
    # cross-check here
    marshal = engine.marshal

    class Truncating:
        loads = staticmethod(marshal.loads)

        @staticmethod
        def dumps(value):
            return marshal.dumps(value)[:-1]

    forks = count_forks(monkeypatch)
    monkeypatch.setattr(engine, "FORK_WORK", 0)
    monkeypatch.setattr(engine, "marshal", Truncating)
    result = integrate(10, IntegrandSpec(0, 20), seed=6)
    assert len(forks) == 1
    monkeypatch.undo()
    assert result == integrate(10, IntegrandSpec(0, 20), seed=6)


def test_a_failed_fork_computes_the_cross_check_in_process(monkeypatch):
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(engine, "FORK_WORK", 0)

    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    result = integrate(10, IntegrandSpec(0, 20), seed=2)
    assert len(forks) == 1
    monkeypatch.undo()
    assert result == integrate(10, IntegrandSpec(0, 20), seed=2)


def test_a_parent_that_raises_kills_and_reaps_its_child(monkeypatch):
    # the first specialization's sums fail in this process while the
    # child is still running
    forks = count_forks(monkeypatch)
    monkeypatch.setattr(engine, "FORK_WORK", 0)
    used = specializations(12, 0)[0]
    chart_sum = engine._chart_sum

    class Interrupted(Exception):
        pass

    def failing(m, spec, *args):
        if spec == used:
            raise Interrupted
        return chart_sum(m, spec, *args)

    monkeypatch.setattr(engine, "_chart_sum", failing)
    with pytest.raises(Interrupted):
        integrate(12, IntegrandSpec(0, 24))
    assert len(forks) == 1


def run_fresh(body, *flags):
    """body's standard output in a fresh, isolated interpreter that sees
    only this package's source; its standard output is a pipe, so print
    buffers."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(donaldson_cp2.__file__)))
    child = "import sys\nsys.path.insert(0, sys.argv[1])\n" + body
    proc = subprocess.run([sys.executable, "-I", *flags, "-c", child, src],
                          capture_output=True, text=True, check=True, timeout=60)
    assert proc.stderr == ""
    return proc.stdout


WARN = ("-W", "error::DeprecationWarning")
COUNTED = (
    "from donaldson_cp2 import engine\n"
    "forks = []\n"
    "fork = engine._fork\n"
    "engine._fork = lambda values: forks.append(1) or fork(values)\n"
)


def test_a_line_buffered_before_a_fork_is_written_once():
    body = COUNTED + (
        "engine._may_fork = lambda: True\n"
        "print('before')\n"
        "value = engine.integrate(10, engine.IntegrandSpec(0, 20)).value\n"
        "print(len(forks), value)\n"
    )
    assert run_fresh(body, *WARN) == "before\n1 2598958192572\n"


def test_a_pass_with_a_second_thread_stays_in_process():
    body = COUNTED + (
        "import threading\n"
        "done = threading.Event()\n"
        "thread = threading.Thread(target=done.wait)\n"
        "thread.start()\n"
        "print(engine._may_fork())\n"
        "value = engine.integrate(10, engine.IntegrandSpec(0, 20)).value\n"
        "done.set()\n"
        "thread.join()\n"
        "print(len(forks), value)\n"
    )
    assert run_fresh(body, *WARN) == "False\n0 2598958192572\n"
