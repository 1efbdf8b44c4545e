import json
import os
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

import donaldson_cp2
from donaldson_cp2 import barth, cli, engine, verify
from donaldson_cp2.barth import DegenerateDatum, SamplingExhausted
from donaldson_cp2.cli import ParseError, parse_integrand, run
from donaldson_cp2.engine import (
    DegenerateSpecialization,
    DegreeMismatch,
    IntegrandSpec,
    integrate,
)
from donaldson_cp2.invariants import OutOfRange


def test_parse_segre_only():
    expr = parse_integrand("s12(E*L)")
    assert (expr.i, expr.k) == (0, 12)


def test_parse_product():
    assert parse_integrand("c1(L)^2 * s2(E*L)") == IntegrandSpec(2, 2)


def test_parse_c1_without_exponent():
    assert parse_integrand("c1(L)").i == 1
    assert parse_integrand("c1(L) * c1(L)^3").i == 4


def test_parse_rejects_two_segre_factors():
    with pytest.raises(ParseError):
        parse_integrand("s3(E*L) * s2(E*L)")


def test_parse_rejects_garbage_with_offset():
    with pytest.raises(ParseError) as err:
        parse_integrand("c1(L) + s2(E*L)")
    assert err.value.offset == 6
    with pytest.raises(ParseError) as err:
        parse_integrand("s2(F*L)")
    assert err.value.expected == {"(E*L)"}


@pytest.mark.parametrize("text, offset", [
    ("s\u00b2(E*L)", 1),         # superscript two
    ("s\u0661\u0662(E*L)", 1),  # Arabic-Indic one, two
    ("c1(L)^\u00b3", 6),         # superscript three
])
def test_parse_takes_only_ascii_digits(text, offset):
    with pytest.raises(ParseError) as err:
        parse_integrand(text)
    assert (err.value.offset, err.value.expected) == (offset, {"integer"})


def test_parse_rejects_empty():
    with pytest.raises(ParseError):
        parse_integrand("")


# each branch of the grammar: an (i, k) pair, or the (offset, expected) of
# its ParseError
@pytest.mark.parametrize("text, want", [
    ("c1(L) *", (7, {"c1(L)", "s<k>(E*L)"})),        # a '*' with no term after it
    ("c1(L) c1(L)", (6, {"*", "end of input"})),     # two terms with no '*'
    ("c1(L) ^ 2", (2, 0)),                           # whitespace around '^'
    ("s 2(E*L)", (1, {"integer"})),                  # no whitespace inside s<k>
    ("s3(E*L) * s2(E*L)", (17, {"at most one Segre factor"})),  # after the second
    ("", (0, {"c1(L)", "s<k>(E*L)"})),
    ("c1(L)^", (6, {"integer"})),                    # '^' at the end of input
    ("  s4(E*L)  ", (0, 4)),                         # leading and trailing whitespace
])
def test_parse_every_branch(text, want):
    if isinstance(want[1], set):
        with pytest.raises(ParseError) as err:
            parse_integrand(text)
        assert (err.value.offset, err.value.expected) == want
    else:
        assert parse_integrand(text) == IntegrandSpec(*want)


def test_donaldson_command(capsys):
    assert run(["donaldson", "--n", "5"]) == 0
    out = capsys.readouterr().out
    assert "q_17 = 2540" in out


@pytest.mark.parametrize("n, line", [
    (2, "q_5 = 1  (raw integral 8, prefactor 1/8, 22 fixed points)"),
    (5, "q_17 = 2540  (raw integral 2540, prefactor 1, 221 fixed points)"),
    (6, "q_21 = 233208  (raw integral 583020, prefactor 2/5, 429 fixed points)"),
], ids=["n2", "n5", "n6"])
def test_donaldson_text_prints_the_prefactor_as_num_over_den(capsys, n, line):
    assert run(["donaldson", "--n", str(n)]) == 0
    assert capsys.readouterr().out == line + "\n"


def test_donaldson_out_of_range(capsys):
    assert run(["donaldson", "--n", "9"]) == 2
    assert "OutOfRange" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert run(["donaldson"]) == 2
    assert run(["no-such-command"]) == 2


def test_integrate_command(capsys):
    assert run(["integrate", "--m", "3", "--expr", "c1(L)^3 * s3(E*L)"]) == 0
    assert "= 8" in capsys.readouterr().out


def test_integrate_bad_expression(capsys):
    assert run(["integrate", "--m", "3", "--expr", "junk"]) == 2


def test_integrate_degree_mismatch(capsys):
    assert run(["integrate", "--m", "1", "--expr", "s5(E*L)"]) == 2
    assert "DegreeMismatch" in capsys.readouterr().err


def test_json_output_schema(capsys):
    assert run(["--format", "json", "integrate", "--m", "3",
                "--expr", "c1(L)^3 * s3(E*L)"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["command"] == "integrate"
    assert record["n"] == 3 and record["i"] == 3 and record["k"] == 3
    assert record["value"] == "8"
    assert record["fixed_points"] == 22
    assert set(record["spec"]) == {"w1", "w2", "seed"}
    assert isinstance(record["elapsed_ms"], float)


@pytest.mark.parametrize("argv,m", [
    (["integrate", "--m", "3", "--expr", "c1(L)^3 * s3(E*L)"], 3),
    (["darboux", "--n", "3", "--i", "2"], 4),
    (["donaldson", "--n", "3"], 4),
    (["table", "--n-max", "3"], 4),
])
def test_json_records_carry_both_specializations(capsys, argv, m):
    assert run(["--format", "json", "--seed", "9", *argv]) == 0
    payload = json.loads(capsys.readouterr().out)
    record = payload[-1] if isinstance(payload, list) else payload
    res = integrate(m, IntegrandSpec(record["i"], record["k"]), seed=9)
    assert record["spec"] == {"w1": str(res.spec_used.w1),
                              "w2": str(res.spec_used.w2), "seed": 9}
    assert record["check_spec"] == {"w1": str(res.cross_check_spec.w1),
                                    "w2": str(res.cross_check_spec.w2), "seed": 9}
    assert record["check_spec"] != record["spec"]


@pytest.mark.parametrize("argv", [
    ["integrate", "--m", "3", "--expr", "c1(L)^3 * s3(E*L)"],
    ["darboux", "--n", "2", "--i", "3"],
    ["donaldson", "--n", "3"],
])
def test_json_elapsed_ms_is_the_integral_time(monkeypatch, capsys, argv):
    # the integral starts its clock at 10 s and stops it at 10.25 s
    ticks = iter([10.0, 10.25])
    monkeypatch.setattr(engine, "perf_counter", lambda: next(ticks))
    assert run(["--format", "json", *argv]) == 0
    assert json.loads(capsys.readouterr().out)["elapsed_ms"] == 250


def test_json_darboux(capsys):
    assert run(["--format", "json", "darboux", "--n", "2", "--i", "3"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["value"] == "8"


def test_table_text_and_csv(capsys):
    assert run(["table", "--n-max", "4"]) == 0
    out = capsys.readouterr().out
    assert "q_5 = 1" in out and "q_9 = 3" in out and "q_13 = 54" in out
    assert run(["--format", "csv", "table", "--n-max", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["command,n,i,k,value,fixed_points",
                   "table,2,3,3,1,22", "table,3,2,6,3,51"]


@pytest.mark.parametrize("argv,rows", [
    (["donaldson", "--n", "3"], ["donaldson,3,2,6,3,51"]),
    (["darboux", "--n", "2", "--i", "3"], ["darboux,2,3,3,8,22"]),
    (["integrate", "--m", "3", "--expr", "c1(L)^3 * s3(E*L)"],
     ["integrate,3,3,3,8,22"]),
    (["table", "--n-max", "2"], ["table,2,3,3,1,22"]),
])
def test_csv_has_one_header_and_one_column_set(capsys, argv, rows):
    assert run(["--format", "csv", *argv]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["command,n,i,k,value,fixed_points", *rows]


def test_table_json_rows_carry_their_integrand(capsys):
    t0 = time.perf_counter()
    assert run(["--format", "json", "table", "--n-max", "6"]) == 0
    wall_ms = (time.perf_counter() - t0) * 1000
    rows = json.loads(capsys.readouterr().out)
    assert [row["n"] for row in rows] == [2, 3, 4, 5, 6]
    for row in rows[:-1]:
        assert (row["i"], row["k"]) == (5 - row["n"], 3 * row["n"] - 3)
    assert (rows[-1]["i"], rows[-1]["k"]) == (0, 14)
    # each row carries its own time, not the whole table's, and a time
    # under a millisecond is not truncated to 0
    assert all(isinstance(row["elapsed_ms"], float) for row in rows)
    assert all(row["elapsed_ms"] > 0 for row in rows)
    assert sum(row["elapsed_ms"] for row in rows) <= wall_ms


def test_witness_command(capsys):
    assert run(["witness", "--n", "2", "--seed", "3", "--samples", "2"]) == 0
    out = capsys.readouterr().out
    assert "all verified" in out


def test_witness_json(capsys):
    assert run(["--format", "json", "witness", "--n", "3", "--samples", "1"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["all_verified"] is True
    assert record["results"][0]["system_dimension"] == 3


def test_witness_csv(capsys):
    assert run(["--format", "csv", "witness", "--n", "3", "--seed", "4",
                "--samples", "2"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == ["seed,verified,degree,system_dimension",
                   "4,True,3,3", "5,True,3,3"]


def test_seed_flag_changes_specialization(capsys):
    assert run(["--format", "json", "--seed", "1", "integrate", "--m", "2",
                "--expr", "s4(E*L)"]) == 0
    rec1 = json.loads(capsys.readouterr().out)
    assert run(["--format", "json", "--seed", "2", "integrate", "--m", "2",
                "--expr", "s4(E*L)"]) == 0
    rec2 = json.loads(capsys.readouterr().out)
    assert rec1["spec"] != rec2["spec"]
    assert rec1["value"] == rec2["value"]


def test_run_to_run_determinism(capsys):
    records = []
    for seed in ("4", "4", "5", "6"):
        assert run(["--format", "json", "--seed", seed, "integrate", "--m", "3",
                    "--expr", "c1(L)^3 * s3(E*L)"]) == 0
        record = json.loads(capsys.readouterr().out)
        del record["elapsed_ms"]
        records.append(record)
    assert records[0] == records[1]
    assert {r["value"] for r in records} == {"8"}


def test_threads_flag_is_gone(capsys):
    assert run(["--threads", "4", "donaldson", "--n", "3"]) == 2


def test_integrate_negative_m(capsys):
    assert run(["integrate", "--m", "-1", "--expr", "s0(E*L)"]) == 2
    err = capsys.readouterr().err
    assert "ValueError: m must be nonnegative" in err
    assert "DegreeMismatch" not in err


def test_m_cap(monkeypatch, capsys):
    # at the cap, one cheap integrand (k = 0) through both commands
    cap = engine.MAX_M
    records = []
    for argv in (["integrate", "--m", str(cap), "--expr", f"c1(L)^{2 * cap}"],
                 ["darboux", "--n", str(cap - 1), "--i", str(2 * cap)]):
        assert run(["--format", "json", *argv]) == 0
        records.append(json.loads(capsys.readouterr().out))
    assert records[0]["value"] == records[1]["value"]
    assert {r["fixed_points"] for r in records} == {engine.fixed_point_count(cap)}

    # above it, refused before any shape or table is built
    def no_shapes(m):
        raise AssertionError(f"built the shapes of Hilb^{m}")

    monkeypatch.setattr(engine, "_shapes", no_shapes)
    for argv, m in ((["integrate", "--m", str(cap + 1), "--expr", "s0(E*L)"], cap + 1),
                    (["integrate", "--m", "40", "--expr", "s80(E*L)"], 40),
                    (["darboux", "--n", str(cap), "--i", "0"], cap + 1),
                    (["darboux", "--n", "40", "--i", "0"], 41)):
        t0 = time.perf_counter()
        assert run(argv) == 2
        assert time.perf_counter() - t0 < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: ValueError: m must be at most MAX_M = {cap}, got {m}\n"


@pytest.mark.parametrize("samples", ["0", "-2", str(cli.MAX_SAMPLES + 1)])
def test_witness_refuses_samples_outside_range(monkeypatch, capsys, samples):
    # with no sample checked, nothing may be reported as verified; above
    # the cap, the call is refused before the first sample is drawn
    def no_sampling(n, seed):
        raise AssertionError("sampled before the check")

    monkeypatch.setattr(barth, "sample_datum", no_sampling)
    for fmt in ("text", "json"):
        assert run(["--format", fmt, "witness", "--n", "3", "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--samples must be in 1..{cli.MAX_SAMPLES}, got {samples}" in captured.err


def test_witness_n_cap(monkeypatch, capsys):
    assert run(["--format", "json", "witness", "--n", str(barth.MAX_N)]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["all_verified"] is True
    assert record["results"][0]["system_dimension"] == barth.MAX_N

    # refused before any sampling: no generator is ever made
    def no_sampling(seed):
        raise AssertionError(f"sampled with seed {seed}")

    monkeypatch.setattr(barth, "random", SimpleNamespace(Random=no_sampling))
    for n in (barth.MAX_N + 1, 1):
        assert run(["witness", "--n", str(n)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == \
            f"error: ValueError: n must be in 2..{barth.MAX_N}, got {n}\n"


def test_witness_seed_both_spellings(capsys):
    # the global --seed and the subcommand's --seed set one value
    for argv in (["--format", "json", "--seed", "7", "witness", "--n", "3"],
                 ["--format", "json", "witness", "--n", "3", "--seed", "7"]):
        assert run(argv) == 0
        record = json.loads(capsys.readouterr().out)
        assert [r["seed"] for r in record["results"]] == [7]
    assert run(["--format", "json", "--seed", "2", "witness", "--n", "3",
                "--seed", "7", "--samples", "2"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert [r["seed"] for r in record["results"]] == [7, 8]
    assert run(["--format", "json", "witness", "--n", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["results"][0]["seed"] == 0


RESULT_HEADER = "command,n,i,k,value,fixed_points"
FORMAT_CASES = {
    "donaldson": (["donaldson", "--n", "3"], RESULT_HEADER),
    "darboux": (["darboux", "--n", "2", "--i", "3"], RESULT_HEADER),
    "integrate": (["integrate", "--m", "3", "--expr", "s6(E*L)"], RESULT_HEADER),
    "table": (["table", "--n-max", "3"], RESULT_HEADER),
    "witness": (["witness", "--n", "3", "--samples", "2"],
                "seed,verified,degree,system_dimension"),
    "verify": (["verify"], "name,ok,elapsed_s"),
}


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("cmd", list(FORMAT_CASES))
def test_every_command_honours_format(monkeypatch, capsys, cmd, fmt):
    # two cheap checks stand in for the full suite; a comma in a detail
    # must not reach the CSV
    monkeypatch.setattr(verify, "CRITERIA", [
        ("first", lambda: (True, "fine, with a comma")),
        ("second", lambda: (True, "fine")),
    ])
    argv, header = FORMAT_CASES[cmd]
    assert run(["--format", fmt, *argv]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        payload = json.loads(out)
        if cmd == "verify":
            assert [r["name"] for r in payload] == ["first", "second"]
            assert all(set(r) == {"name", "ok", "detail", "elapsed_s"} for r in payload)
    else:
        lines = out.strip().splitlines()
        assert lines[0] == header and lines.count(header) == 1
        assert all(line.count(",") == header.count(",") for line in lines)


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_verify_rounds_elapsed_s_to_the_microsecond(monkeypatch, capsys, fmt):
    # JSON and CSV round as value records round elapsed_ms; the text line
    # keeps its two decimals
    ticks = iter([10.0, 11.2345678, 20.0, 20.0049996])
    monkeypatch.setattr(verify, "perf_counter", lambda: next(ticks))
    monkeypatch.setattr(verify, "CRITERIA", [
        ("first", lambda: (True, "fine")),
        ("second", lambda: (True, "fine")),
    ])
    assert run(["--format", fmt, "verify"]) == 0
    out = capsys.readouterr().out
    if fmt == "json":
        assert [r["elapsed_s"] for r in json.loads(out)] == [1.234568, 0.005]
    elif fmt == "csv":
        assert out.splitlines()[1:] == ["first,True,1.234568", "second,True,0.005"]
    else:
        assert out.splitlines() == ["PASS first (1.23 s): fine", "PASS second (0.00 s): fine"]


@pytest.mark.parametrize("exc,code", [
    pytest.param(exc, code, id=type(exc).__name__) for exc, code in [
        (ParseError(0, {"integer"}), 2),
        (OutOfRange("out of range"), 2),
        (DegreeMismatch("too high"), 2),
        (DegenerateSpecialization("zero weight"), 1),
        (SamplingExhausted("no luck"), 1),
        (DegenerateDatum("vanishes"), 1),
    ]
])
def test_exit_code_rule(monkeypatch, capsys, exc, code):
    # usage errors are ValueErrors (2), failed computations ArithmeticErrors (1)
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(donaldson_cp2, "donaldson_q", fail)
    assert run(["donaldson", "--n", "3"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {type(exc).__name__}: {exc}\n"


def test_witness_failure_path(monkeypatch, capsys):
    # x0^n has the right degree but misses every node off the line x0 = 0
    def missing_curve(datum):
        n = datum.config.n
        return barth.PlaneCurve(n, (1,) + (0,) * (len(barth.monomials(n)) - 1))

    monkeypatch.setattr(barth, "barth_curve", missing_curve)
    assert run(["witness", "--n", "3", "--samples", "2"]) == 1
    out = capsys.readouterr().out
    assert "incidence FAILED" in out and out.endswith("witness n=3: FAILURES\n")
    assert run(["--format", "json", "witness", "--n", "3"]) == 1
    assert json.loads(capsys.readouterr().out)["all_verified"] is False
    ok, detail = verify.check_barth_witness()
    assert ok is False and detail == "incidence failed at n=2, seed 0"


@pytest.mark.parametrize("argv", [["table", "--n-max", "6"],
                                  ["--format", "csv", "witness", "--n", "3"]])
def test_a_reader_that_closes_stdout_early_gets_no_traceback(argv):
    # as in `donaldson-cp2 table --n-max 6 | head -n 1`, but with the read
    # end closed before the child starts, so that its first write fails
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "donaldson_cp2.cli", *argv],
                              env=dict(os.environ, PYTHONPATH=src), stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == 1


def test_python_m_runs_the_cli():
    # `python -m donaldson_cp2` reaches cli.main from an uninstalled checkout
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "donaldson_cp2", "integrate", "--m", "3",
                           "--expr", "c1(L)^3 * s3(E*L)"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "integral over H_3 = 8\n", "")
    proc = subprocess.run([sys.executable, "-m", "donaldson_cp2", "--help"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.startswith("usage: donaldson-cp2")
