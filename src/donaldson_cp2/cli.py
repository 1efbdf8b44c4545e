"""Command-line interface.

Subcommands: donaldson, darboux, integrate, table, witness, verify.
Results go to stdout, in the --format that `_emit` alone reads.  Exit
code 0 on success; package errors carry their own code: a usage error
is a ValueError (2) and a failed computation an ArithmeticError (1).  A
reader that closes stdout early gets exit code 1 and no traceback.
Big numerics are serialized as decimal strings in JSON because the
values routinely exceed 64-bit range.
"""

import argparse
import json
import os
import sys

import donaldson_cp2 as api  # read per call: a command loads only its layers


class ParseError(ValueError):
    """Integrand expression rejected; carries the byte offset and the
    tokens that would have been accepted there."""

    def __init__(self, offset: int, expected: set[str]):
        self.offset = offset
        self.expected = expected
        super().__init__(
            f"parse error at offset {offset}: expected {' or '.join(sorted(expected))}"
        )


def parse_integrand(text: str) -> "api.IntegrandSpec":
    """Parse expr := term ('*' term)*, term := 'c1(L)' ['^' int]
    | 's' int '(E*L)', with at most one Segre factor.  Exponents of
    repeated c1(L) factors accumulate."""

    def spaced(pos: int) -> int:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        return pos

    def integer(pos: int) -> tuple[int, int]:
        # the value and end of the ASCII digits at pos: str.isdigit also
        # takes superscripts, which int() refuses, and other scripts'
        # digits, which it reads
        start = pos
        while pos < len(text) and text[pos] in "0123456789":
            pos += 1
        if pos == start:
            raise ParseError(start, {"integer"})
        return int(text[start:pos]), pos

    i_total, k_total, seen_segre = 0, 0, False
    pos = 0
    while True:  # one term per turn
        pos = spaced(pos)
        if text.startswith("c1(L)", pos):
            pos = spaced(pos + len("c1(L)"))
            if text.startswith("^", pos):
                i, pos = integer(spaced(pos + 1))
                i_total += i
            else:
                i_total += 1
        elif text.startswith("s", pos):
            k, pos = integer(pos + 1)
            if not text.startswith("(E*L)", pos):
                raise ParseError(pos, {"(E*L)"})
            pos += len("(E*L)")
            if seen_segre:
                raise ParseError(pos, {"at most one Segre factor"})
            seen_segre = True
            k_total = k
        else:
            raise ParseError(pos, {"c1(L)", "s<k>(E*L)"})
        pos = spaced(pos)
        if pos == len(text):
            return api.IntegrandSpec(i_total, k_total)
        if not text.startswith("*", pos):
            raise ParseError(pos, {"*", "end of input"})
        pos += 1


CSV_KEYS = ("command", "n", "i", "k", "value", "fixed_points")
# Most witness samples in one call: at the time of one witness at
# barth.MAX_N (see its comment), 100 take under half a minute.
MAX_SAMPLES = 100


def _emit(fmt: str, payload, rows, keys, text: str):
    """The one place that reads --format: JSON prints the payload, CSV one
    header row of keys and then one line per row, text the text."""
    if fmt == "json":
        print(json.dumps(payload))
    elif fmt == "csv":
        print(",".join(keys))
        for row in rows:
            print(",".join(str(row[key]) for key in keys))
    else:
        print(text)


def _spec(spec) -> dict:
    return {"w1": str(spec.w1), "w2": str(spec.w2), "seed": spec.seed}


def _record(command: str, n, value, detail) -> dict:
    """One result as a record, with both specializations; elapsed_ms is
    the time of its integral, in ms rounded to the microsecond."""
    return {
        "command": command,
        "n": n,
        "i": detail.integrand.i,
        "k": detail.integrand.k,
        "value": str(value),
        "fixed_points": detail.fixed_point_count,
        "spec": _spec(detail.spec_used),
        "check_spec": _spec(detail.cross_check_spec),
        "elapsed_ms": round(detail.elapsed_s * 1000, 3),
    }


def _cmd_donaldson(args) -> int:
    res = api.donaldson_q(args.n, seed=args.seed)
    spec = res.detail
    rec = _record("donaldson", args.n, res.q, spec)
    num, den = res.prefactor
    prefactor = f"{num}/{den}" if den != 1 else str(num)
    _emit(args.format, rec, [rec], CSV_KEYS,
          f"q_{4 * args.n - 3} = {res.q}  (raw integral {res.raw_integral}, "
          f"prefactor {prefactor}, {spec.fixed_point_count} fixed points)")
    return 0


def _cmd_darboux(args) -> int:
    res = api.darboux_count(args.n, args.i, seed=args.seed)
    rec = _record("darboux", args.n, res.count, res.detail)
    if not res.validated:
        rec["note"] = "unvalidated against the published values (n > 6)"
    _emit(args.format, rec, [rec], CSV_KEYS,
          f"darboux(n={args.n}, i={args.i}) = {res.count}"
          + ("" if res.validated else "  [unvalidated: n > 6]"))
    return 0


def _cmd_integrate(args) -> int:
    res = api.integrate(args.m, parse_integrand(args.expr), seed=args.seed)
    rec = _record("integrate", args.m, res.value, res)
    _emit(args.format, rec, [rec], CSV_KEYS, f"integral over H_{args.m} = {res.value}")
    return 0


def _cmd_table(args) -> int:
    rows = api.invariant_table(args.n_max, seed=args.seed)
    records = [_record("table", row.n, row.q, row.detail) for row in rows]
    _emit(args.format, records, records, CSV_KEYS,
          "\n".join(f"n={row.n}  q_{4 * row.n - 3} = {row.q}" for row in rows))
    return 0


def _cmd_witness(args) -> int:
    from . import barth
    if not 1 <= args.samples <= MAX_SAMPLES:
        raise ValueError(f"--samples must be in 1..{MAX_SAMPLES}, got {args.samples}")
    results = []
    for offset in range(args.samples):
        seed = args.seed + offset
        datum = barth.sample_datum(args.n, seed)
        curve = barth.barth_curve(datum)
        ok = curve.degree == args.n and barth.verify_darboux(datum.config, curve)
        dim = barth.darboux_system_dimension(datum.config)
        results.append({"seed": seed, "verified": ok, "degree": curve.degree,
                        "system_dimension": dim})
    all_ok = all(r["verified"] and r["system_dimension"] == args.n for r in results)
    lines = [f"seed {r['seed']}: degree {r['degree']}, "
             f"incidence {'ok' if r['verified'] else 'FAILED'}, "
             f"system dimension {r['system_dimension']}" for r in results]
    lines.append(f"witness n={args.n}: {'all verified' if all_ok else 'FAILURES'}")
    _emit(args.format, {"command": "witness", "n": args.n, "samples": args.samples,
                        "all_verified": all_ok, "results": results},
          results, ("seed", "verified", "degree", "system_dimension"), "\n".join(lines))
    return 0 if all_ok else 1


def _cmd_verify(args) -> int:
    from . import verify
    records = list(verify.run_checks())
    text = "\n".join(map(verify.report_line, records))
    # JSON and CSV round elapsed_s to the microsecond, as _record rounds
    # elapsed_ms; the text line keeps its own two decimals
    for record in records:
        record["elapsed_s"] = round(record["elapsed_s"], 6)
    _emit(args.format, records, records, ("name", "ok", "elapsed_s"), text)
    return 0 if all(r["ok"] for r in records) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="donaldson-cp2",
        description="Exact Donaldson invariants of CP^2 and Darboux counts "
                    "via fixed-point localization on Hilbert schemes.",
    )
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("donaldson", help="Donaldson coefficient q_{4n-3}")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_donaldson)

    p = sub.add_parser("darboux", help="Darboux configuration count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--i", type=int, required=True)
    p.set_defaults(func=_cmd_darboux)

    p = sub.add_parser("integrate", help="ad-hoc tautological integral")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--expr", type=str, required=True,
                   help='e.g. "c1(L)^2 * s2(E*L)"')
    p.set_defaults(func=_cmd_integrate)

    p = sub.add_parser("table", help="table of Donaldson coefficients")
    p.add_argument("--n-max", type=int, required=True)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("witness", help="determinantal-curve incidence witness")
    p.add_argument("--n", type=int, required=True)
    # the same value as the global --seed, which it overrides when given
    p.add_argument("--seed", dest="seed", type=int, default=argparse.SUPPRESS)
    p.add_argument("--samples", type=int, default=1)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        # flushed here, so that a reader gone early is met in this try
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python flushes stdout again at exit: point it at os.devnull, as
        # the signal module's documentation advises, and exit 1 quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ArithmeticError) as exc:
        # usage errors subclass ValueError, failed computations ArithmeticError
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
