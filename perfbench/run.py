"""End-to-end decode benchmark for rslist, with a separate traced run per layer.

Run from the repository root:

    python3 perfbench/run.py --workload soft-large-reduced --seed 1 --seconds 55 --trace 0

The load is a closed loop in one process on one thread: one decode at a time,
cycling through a pool of seeded instances until `--seconds` have been spent
decoding. Every decode goes through the public `rslist.decoder` entry points
and must list the planted message; a decode that raises or misses it is
counted as failed, not raised.

`--trace 0` prints the end-to-end metrics, measured with tracing off.
`--trace 1` alternates untraced and traced decodes of the same instances and
prints the per-layer metrics recorded by `tracing.Tracer`. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; a readable table and any failed check go to standard
error. Without the package sources next to this directory the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORT_PROBES = 9
SETUP_REPEATS = 9
POOL_STRIDE = 1000  # instance seeds of workload seed s: s, s + 1000, s + 2000, ...
EXIT_NO_PROGRAM = 2

# Time to import the package, measured in a fresh interpreter.
IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import rslist.decoder, rslist.rs_codec
print(time.perf_counter() - t, rslist.__file__)
"""


@dataclass(frozen=True)
class Workload:
    generator: str  # name of the generator in instances.py
    pool: int  # instances per run; an untraced run decodes each at least once
    path: str  # "reduced" or "direct"
    tau: int | None = None
    cross_tau: int | None = None  # also decode the first instance reduced with this tau and compare


# Why each workload: soft-large-reduced is the paper's headline instance, where
# every reduced-path layer does a real share of the work. soft-large-direct
# decodes the same instances without re-encoding; the Koetter engine dominates
# and re-encoding is never called, so changes to re-encoding or correction
# must not move it. hard-rs255-reduced is a hard-decision RS(255, 223) word
# with 8 to 16 errors: interpolation is only 32 constraints and the two
# Lagrange interpolations dominate, so Koetter gains must not show here and
# Lagrange or correction gains show most. BENCHMARK.json declares only the two
# soft-large workloads, so that each run can be long enough to be steady on a
# small shared host; hard-rs255-reduced can still be run by hand.
WORKLOADS = {
    "soft-large-reduced": Workload("soft_large", pool=4, path="reduced", tau=6),
    "soft-large-direct": Workload("soft_large", pool=3, path="direct", cross_tau=6),
    "hard-rs255-reduced": Workload("hard_rs255", pool=8, path="reduced", tau=16),
}

# Per-layer metric -> the span it is read from. The suffix picks the figure:
# _s wall seconds, _mults counted multiplications, _calls calls, per decode.
LAYER_SPANS = {
    "reencoding.select_s": "reencoding.select",
    "reencoding.select_mults": "reencoding.select",
    "reencoding.context_s": "reencoding.context",
    "reencoding.context_mults": "reencoding.context",
    "reencoding.solve_s": "reencoding.solve",
    "reencoding.solve_mults": "reencoding.solve",
    "polynomials.lagrange_s": "polynomials.lagrange",
    "polynomials.lagrange_mults": "polynomials.lagrange",
    "polynomials.lagrange_calls": "polynomials.lagrange",
    "koetter.solve_s": "koetter.solve",
    "koetter.solve_mults": "koetter.solve",
    "koetter.update_calls": "koetter.update",
    "factorization.rr_s": "factorization.rr",
    "factorization.rr_mults": "factorization.rr",
    "factorization.bm_s": "factorization.bm",
    "factorization.roots_s": "factorization.roots",
    "factorization.roots_mults": "factorization.roots",
    "factorization.errvals_s": "factorization.errvals",
    "factorization.correct_s": "factorization.correct",
    "factorization.correct_mults": "factorization.correct",
    "factorization.y_roots_s": "factorization.y_roots",
    "factorization.y_roots_mults": "factorization.y_roots",
}

# Spans directly below the decoder span whose counts make up each report phase.
PHASE_SPANS = {
    "reencoding_setup": ("reencoding.select", "reencoding.context"),
    "interpolation": ("reencoding.solve", "koetter.solve"),
    "factorization": ("factorization.factor", "factorization.y_roots"),
}


class NoProgram(Exception):
    """The package sources are missing or are not the ones next to the benchmark."""


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_PROBES):
        res = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True, text=True, timeout=120
        )
        if res.returncode != 0:
            raise NoProgram(res.stderr.strip().splitlines()[-1] if res.stderr.strip() else "import failed")
        seconds, location = res.stdout.strip().split(" ", 1)
        if not Path(location).resolve().is_relative_to(SRC.resolve()):
            raise NoProgram(f"imported rslist from {location}, not from {SRC}")
        times.append(float(seconds))
    return statistics.median(times)


def load_program() -> None:
    sys.path.insert(0, str(SRC))
    import rslist

    if not Path(rslist.__file__).resolve().is_relative_to(SRC.resolve()):
        raise NoProgram(f"imported rslist from {rslist.__file__}, not from {SRC}")


def make_pool(wl: Workload, seed: int):
    """A fresh field and the workload's instances; returns (pool, seconds)."""
    import instances
    from rslist.galois import GF256_POLY, Field

    t0 = time.perf_counter()
    f = Field(8, GF256_POLY)
    gen = getattr(instances, wl.generator)
    pool = [gen(f, seed + POOL_STRIDE * i) for i in range(wl.pool)]
    return pool, time.perf_counter() - t0


def decode(problem, path: str, tau: int | None):
    from rslist import decoder

    if path == "direct":
        return decoder.decode_direct(problem)
    return decoder.decode_reduced(problem, tau=tau)


def signature(report):
    cands = [
        (c.status, None if c.f is None else tuple(c.f.to_json()), tuple(c.error_positions), tuple(c.branch_indices))
        for c in report.candidates
    ]
    return cands, report.counters


def totals(report) -> tuple[int, int]:
    ctrs = report.counters.values()
    return sum(c["multiplications"] for c in ctrs), sum(c["additions"] for c in ctrs)


class Tally:
    """Decode outcomes of one run, with the checks every decode must pass."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[int, tuple] = {}  # instance seed -> signature of its first decode
        self.counts: dict[int, tuple[int, int]] = {}  # instance seed -> (mults, adds)

    def decode(self, wl: Workload, inst):
        """Time one decode and check it; returns (report or None, wall seconds)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            report = decode(inst.problem, wl.path, wl.tau)
        except Exception:  # a raising decode is counted as failed, and the run goes on
            dt = time.perf_counter() - t0
            traceback.print_exc()
            self.failed += 1
            return None, dt
        dt = time.perf_counter() - t0
        if inst.planted not in report.accepted_set():
            self.failed += 1
            self.problems.append(f"instance {inst.seed}: planted message not in the accepted list")
            return None, dt
        sig = signature(report)
        if self.first.setdefault(inst.seed, sig) != sig:
            self.problems.append(f"instance {inst.seed}: candidates or counters differ between decodes")
        self.counts.setdefault(inst.seed, totals(report))
        return report, dt


def worked_example_check(tally: Tally) -> None:
    """Decode the worked GF(8) example both ways; also warms the code paths."""
    import instances
    from rslist import decoder
    from rslist.galois import GF8_POLY, Field

    problem, expected = instances.worked_gf8(Field(3, GF8_POLY))
    for path, report in (("direct", decoder.decode_direct(problem)), ("reduced", decoder.decode_reduced(problem, tau=4))):
        if report.accepted_set() != expected:
            tally.problems.append(f"worked GF(8) example: wrong {path} candidates")


def run_untraced(wl: Workload, pool, seconds: float, tally: Tally) -> tuple[list[float], float]:
    """Decode the pool round-robin for about `seconds`; returns (seconds per decode, loop seconds)."""
    times = []
    t_start = time.perf_counter()
    while True:
        times.append(tally.decode(wl, pool[len(times) % len(pool)])[1])
        loop_s = time.perf_counter() - t_start
        if len(times) >= len(pool) and loop_s + statistics.median(times) / 2 >= seconds:
            return times, loop_s


def cross_check(wl: Workload, inst, tally: Tally) -> None:
    """Both paths must accept the same messages on a shared instance; untimed."""
    cands = tally.first.get(inst.seed)
    if cands is None:
        return
    mine = {c[1] for c in cands[0] if c[0] == "accepted"}
    if mine != decode(inst.problem, "reduced", wl.cross_tau).accepted_set():
        tally.problems.append(f"instance {inst.seed}: direct and reduced accepted sets differ")


def end_to_end(wl: Workload, pool, seconds: float, tally: Tally) -> tuple[dict, dict]:
    times, loop_s = run_untraced(wl, pool, seconds, tally)
    if wl.cross_tau is not None:
        cross_check(wl, pool[0], tally)
    counts = [tally.counts[i.seed] for i in pool if i.seed in tally.counts] or [(0, 0)]
    metrics = {
        "decode_s.p50": statistics.median(times),
        "decodes_per_s": (tally.attempted - tally.failed) / loop_s,
        "mults_per_decode": statistics.mean(c[0] for c in counts),
        "adds_per_decode": statistics.mean(c[1] for c in counts),
    }
    return metrics, {"samples": len(times), "decode_s": [round(t, 4) for t in sorted(times)]}


def check_phases(report, spans, missing, tally: Tally) -> None:
    """The spans below the decoder must add up to each phase counter."""
    top = next(i for i, s in enumerate(spans) if s.parent is None)
    children = [s for s in spans if s.parent == top]
    for phase, ctr in report.counters.items():
        names = PHASE_SPANS.get(phase)
        if names is None or any(n in missing for n in names):
            continue
        mine = [s for s in children if s.name in names]
        got = (sum(s.mults or 0 for s in mine), sum(s.adds or 0 for s in mine))
        if got != (ctr["multiplications"], ctr["additions"]):
            tally.problems.append(f"phase {phase}: spans count {got}, report counts {ctr}")


@dataclass
class TracedDecode:
    spans: dict  # span name -> {"s", "mults", "calls", "outputs"} summed over the decode
    self_s: float  # decoder time not covered by a child span
    accepted: int
    branches: int  # RR branches (reduced path) or polynomial Y-roots (direct path)
    solved: int  # constraints the interpolation loop imposed
    base: int  # constraints of the original problem

    @classmethod
    def of(cls, report, spans) -> "TracedDecode":
        """Sum the spans of one decode."""
        agg = defaultdict(lambda: {"s": 0.0, "mults": 0, "calls": 0, "outputs": 0})
        for s in spans:
            a = agg[s.name]
            a["s"] += s.wall_s
            a["mults"] += s.mults or 0
            a["calls"] += 1
            a["outputs"] += s.outputs or 0
        reduced = report.reduced_constraints
        return cls(
            agg,
            next(s for s in spans if s.parent is None).self_s,
            len(report.accepted()),
            agg["factorization.rr"]["outputs"] + agg["factorization.y_roots"]["outputs"],
            reduced if reduced is not None else report.n_constraints,
            report.n_constraints,
        )


def per_layer(wl: Workload, pool, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Alternate untraced and traced decodes of each instance; per-layer figures from the traced ones."""
    from tracing import Tracer

    tracer = Tracer()
    plain_times, traced_times, rates = [], [], []
    per_decode: list[TracedDecode] = []
    t_start = time.perf_counter()
    while True:
        inst = pool[len(traced_times) % len(pool)]
        # Swap which of the pair goes first each time, so host drift favours neither.
        for traced_turn in (len(traced_times) % 2 == 1, len(traced_times) % 2 == 0):
            if traced_turn:
                with tracer.installed(inst.problem.field) as spans:
                    report, dt = tally.decode(wl, inst)
                traced_times.append(dt)
                if report is not None:
                    per_decode.append(TracedDecode.of(report, spans))
                    check_phases(report, spans, tracer.missing, tally)
            else:
                report, dt = tally.decode(wl, inst)
                plain_times.append(dt)
                if report is not None:
                    rates.append(totals(report)[0] / dt)
        pair_s = statistics.median(plain_times) + statistics.median(traced_times)
        if time.perf_counter() - t_start + pair_s / 2 >= seconds:
            break

    def median_of(fn):
        return statistics.median(fn(d) for d in per_decode) if per_decode else 0.0

    metrics = {}
    for name, span in LAYER_SPANS.items():
        if span not in tracer.missing:
            figure = name.rsplit("_", 1)[1]
            metrics[name] = median_of(lambda d: d.spans[span][figure])
    if "koetter.update" not in tracer.missing:
        calls = sum(d.spans["koetter.update"]["calls"] for d in per_decode)
        busy = sum(d.spans["koetter.update"]["s"] for d in per_decode)
        metrics["koetter.update_us"] = 1e6 * busy / calls if calls else 0.0
    if "factorization.rr" not in tracer.missing:
        metrics["factorization.rr_branches"] = median_of(lambda d: d.spans["factorization.rr"]["outputs"])
    metrics["factorization.accept_ratio"] = median_of(lambda d: d.accepted / d.branches if d.branches else 0.0)
    metrics["reencoding.constraint_ratio"] = median_of(lambda d: d.solved / d.base)
    metrics["reencoding.constraint_base"] = median_of(lambda d: d.base)
    metrics["galois.mults_per_s"] = statistics.median(rates) if rates else 0.0
    if "decoder.decode" not in tracer.missing:
        metrics["decoder.self_s"] = median_of(lambda d: d.self_s)
    metrics["decoder.trace_overhead_ratio"] = statistics.median(traced_times) / statistics.median(plain_times)
    extra = {"samples": len(plain_times), "traced_samples": len(traced_times), "missing_spans": tracer.missing}
    return metrics, extra


def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in the order BENCHMARK.json declares them."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    try:
        import_s = import_seconds()
        load_program()
    except (NoProgram, ImportError) as exc:
        print(f"perfbench: cannot load rslist from {SRC}: {exc}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    gen_times = []
    for _ in range(SETUP_REPEATS):
        pool, gen_s = make_pool(wl, args.seed)
        gen_times.append(gen_s)
    setup_s = import_s + statistics.median(gen_times)

    tally = Tally()
    worked_example_check(tally)
    if args.trace:
        metrics, extra = per_layer(wl, pool, args.seconds, tally)
    else:
        metrics, extra = end_to_end(wl, pool, args.seconds, tally)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    units = declared_units("per_layer" if args.trace else "end_to_end")
    undeclared = set(metrics) - set(units)
    if undeclared:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")

    first = pool[0]
    print(
        f"{args.workload} seed {args.seed}: instance seeds {[i.seed for i in pool]}, "
        f"errors {[i.errors for i in pool]}; {extra}",
        file=sys.stderr,
    )
    if first.seed in tally.first:
        print(f"  instance {first.seed} phase counters: {tally.first[first.seed][1]}", file=sys.stderr)
    print(f"  failed_ratio {tally.failed / tally.attempted:.4f} ({tally.failed} of {tally.attempted})", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:>16.6g} {units[name]}", file=sys.stderr)
    for problem in tally.problems:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)

    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items() if name in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
