"""Command-line front door: encode, decode, bench, selftest.

Exit codes: 0 success, 2 input validation error (a malformed file included),
3 undecodable (too many erasures). Problem files are UTF-8 JSON; field
elements may be written as integers or in "a^i" form.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bench import large_profile_problem, random_problem
from .decoder import decode_direct, decode_reduced
from .galois import GF8_POLY, Field
from .koetter import InterpolationPoint, InterpolationProblem, format_trace_row, n_constraints
from .polynomials import UniPoly
from .reencoding import TooManyErasures
from .rs_codec import CodeSpec, encode, json_int, json_key

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_UNDECODABLE = 3

# The work of a decode grows with the constraint count, which a file sets through
# `mult` without bound. 2^16 is about 9.5x the large profile's 6912 and admits a
# hard-decision word of GF(2^16) at mult 1.
MAX_CONSTRAINTS = 1 << 16


def load_code(path: str) -> CodeSpec:
    with open(path, encoding="utf-8") as fh:
        return CodeSpec.from_json(json.load(fh))


def load_problem(path: str) -> tuple[InterpolationProblem, CodeSpec, int | None]:
    """Read a problem file; any missing key or malformed shape or value raises ValueError."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        raise ValueError(f"problem must be a JSON object, got {type(obj).__name__}")
    code = CodeSpec.from_json(json_key(obj, "code"))
    f, points = code.field, json_key(obj, "points")
    if not isinstance(points, list) or not all(isinstance(p, dict) for p in points):
        raise ValueError("points must be a list of JSON objects")
    points = [
        InterpolationPoint(
            f.parse_element(json_key(p, "x")), f.parse_element(json_key(p, "y")), json_int(p.get("mult", 1), "mult")
        )
        for p in points
    ]
    tau = None if obj.get("tau") is None else json_int(obj["tau"], "tau")
    return InterpolationProblem(f, points, code.k), code, tau


def cmd_encode(args) -> int:
    try:
        code = load_code(args.code)
        coeffs = [code.field.parse_element(c) for c in args.coefficient]
        word = encode(code, UniPoly(code.field, coeffs))
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(" ".join(code.field.format_element(c, not args.ints) for c in word))
    return EXIT_OK


def cmd_decode(args) -> int:
    try:
        problem, code, file_tau = load_problem(args.problem)
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    tau = args.tau if args.tau is not None else file_tau
    if tau is not None and not 1 <= tau <= code.n:
        # problem input, checked on both paths; on the reduced path it sets the
        # Roth-Ruckenstein depth 2 tau, so a bound on tau is a bound on the work
        print(f"error: tau={tau} outside [1, n={code.n}]", file=sys.stderr)
        return EXIT_VALIDATION
    n_cons = n_constraints(p.mult for p in problem.points)
    if n_cons > MAX_CONSTRAINTS:
        print(f"error: {n_cons} constraints exceed the cap of {MAX_CONSTRAINTS}", file=sys.stderr)
        return EXIT_VALIDATION
    try:
        if args.path == "direct":
            report = decode_direct(problem, collect_trace=args.trace)
        else:
            # rules (a)-(d) alone can accept an f that is no Y-root of Q; rule (e) demotes it
            report = decode_reduced(problem, tau, verify=True, collect_trace=args.trace)
    except TooManyErasures as exc:
        print(f"undecodable: {exc}", file=sys.stderr)
        return EXIT_UNDECODABLE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    if args.trace and report.trace:
        for row in report.trace:
            print(format_trace_row(problem.field, row), file=sys.stderr)
    print(json.dumps(report.to_json(problem.field, not args.ints), sort_keys=True, indent=2))
    return EXIT_OK


BENCH_COLUMNS = "{:<8} {:<17} {:>11} {:>16} {:>12} {:>8}"


def cmd_bench(args) -> int:
    """Decode each instance on both paths; print per-phase counts and each decode's wall time."""
    try:
        if args.repeat < 1:
            raise ValueError(f"--repeat {args.repeat} < 1")
        if args.random:
            n, k, seed = args.random
            problems = [random_problem(n, k, seed + rep)[0] for rep in range(args.repeat)]
        else:
            problems = [large_profile_problem(seed=args.seed + rep)[0] for rep in range(args.repeat)]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    print(BENCH_COLUMNS.format("path", "phase", "constraints", "multiplications", "additions", "seconds"))
    interp_mults = []
    for problem in problems:
        for decode in (decode_direct, decode_reduced):
            t0 = time.perf_counter()
            report = decode(problem)
            seconds = time.perf_counter() - t0
            _print_bench_report(report, seconds)
            interp_mults.append(report.counters["interpolation"]["multiplications"])
    print(f"interpolation ratio reduced/direct: {sum(interp_mults[1::2]) / sum(interp_mults[0::2]):.6f}")
    return EXIT_OK


def _print_bench_report(report, seconds: float) -> None:
    """One row per phase, then a `decode` row with the totals and the wall time.

    The interpolation row gives the constraints that loop solved, the decode
    row the problem's constraint count.
    """
    solved = report.n_constraints if report.reduced_constraints is None else report.reduced_constraints
    for phase, c in report.counters.items():
        cons = solved if phase == "interpolation" else "-"
        print(BENCH_COLUMNS.format(report.path, phase, cons, c["multiplications"], c["additions"], "-"))
    mults = sum(c["multiplications"] for c in report.counters.values())
    adds = sum(c["additions"] for c in report.counters.values())
    print(BENCH_COLUMNS.format(report.path, "decode", report.n_constraints, mults, adds, f"{seconds:.3f}"))


def _worked_problem() -> InterpolationProblem:
    f = Field(3, GF8_POLY)
    a = f.from_exponent
    pts = [
        InterpolationPoint(a(1), a(4), 2),
        InterpolationPoint(a(2), a(6), 1),
        InterpolationPoint(a(2), a(3), 1),
        InterpolationPoint(a(3), 1, 1),
        InterpolationPoint(a(3), a(1), 1),
        InterpolationPoint(1, a(1), 1),
        InterpolationPoint(1, 1, 1),
    ]
    return InterpolationProblem(f, pts, 2)


def cmd_selftest(args) -> int:
    """Decode the worked GF(8) instance both ways and check the known answers."""
    problem = _worked_problem()
    f = problem.field
    a = f.from_exponent
    expected = {(a(5), a(6)), (a(6), a(2))}
    direct, reduced = decode_direct(problem), decode_reduced(problem, tau=4)
    checks = {
        "direct path candidates": direct.accepted_set() == expected,
        "reduced path candidates": reduced.accepted_set() == expected,
        "constraint counts (9 -> 5)": reduced.reduced_constraints == 5 and direct.n_constraints == 9,
    }
    for name, ok in checks.items():
        print(f"{name}: {'ok' if ok else 'FAIL'}")
    failures = sum(not ok for ok in checks.values())
    print("selftest:", "ok" if failures == 0 else f"{failures} failures")
    return EXIT_OK if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rslist", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_enc = sub.add_parser("encode", help="evaluate a message polynomial on the code support")
    p_enc.add_argument("code", help="JSON code file")
    p_enc.add_argument("coefficient", nargs="+", help="message coefficients, ascending powers")
    p_enc.add_argument("--ints", action="store_true", help="print elements as integers")
    p_enc.set_defaults(func=cmd_encode)

    p_dec = sub.add_parser("decode", help="list-decode an interpolation problem file")
    p_dec.add_argument("problem", help="JSON problem file")
    p_dec.add_argument("--path", choices=["direct", "reduced"], default="reduced")
    p_dec.add_argument("--tau", type=int, default=None, help="reduced path: re-encoding error bound")
    p_dec.add_argument("--trace", action="store_true", help="emit per-iteration bases on stderr")
    p_dec.add_argument("--ints", action="store_true", help="print elements as integers")
    p_dec.set_defaults(func=cmd_decode)

    p_bench = sub.add_parser("bench", help="direct vs reduced decode: per-phase counts and wall time")
    p_bench.add_argument("--random", nargs=3, type=int, metavar=("N", "K", "SEED"), default=None)
    p_bench.add_argument("--repeat", type=int, default=1)
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.set_defaults(func=cmd_bench)

    p_self = sub.add_parser("selftest", help="decode the built-in worked example")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
