"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/record.py --runs 10 [--first-seed 1] [--trace 0]
        [--workloads NAME ...] [--label TEXT]

Reads the command, run length and workloads from BENCHMARK.json, runs every
workload once per seed, one run at a time, and prints per metric the median,
the quartiles and the spread (q3 - q1) / median. With --label, appends the
summary, the machine and the software to perfbench/trajectory.json.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRAJECTORY = ROOT / "perfbench" / "trajectory.json"


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "unknown"
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": rev,
    }


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--label")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    summary = {}
    for name in names:
        values: dict[str, list[float]] = {}
        units = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if res.returncode != 0:
                print(res.stderr, file=sys.stderr)
                return 1
            out = json.loads(res.stdout.strip().splitlines()[-1])
            line = f"{name} seed {seed}: correct={out['correct']} attempted={out['attempted']} failed={out['failed']}"
            print(line + "".join(f" {k}={v['value']:.6g}" for k, v in out["metrics"].items()), flush=True)
            if not out["correct"]:
                print(res.stderr, file=sys.stderr)
            for k, v in out["metrics"].items():
                values.setdefault(k, []).append(v["value"])
                units[k] = v["unit"]
        summary[name] = {k: dict(summarise(v), unit=units[k]) for k, v in values.items()}
        for k, s in summary[name].items():
            print(
                f"  {name} {k:30s} median {s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                f"spread {s['spread']:.4f} {s['unit']}",
                flush=True,
            )

    if args.label:
        data = json.loads(TRAJECTORY.read_text(encoding="utf-8")) if TRAJECTORY.exists() else {"entries": []}
        data["entries"].append(
            {
                "label": args.label,
                "date": datetime.date.today().isoformat(),
                "machine": machine(),
                "run_seconds": bench["run_seconds"],
                "seeds": [args.first_seed, args.first_seed + args.runs - 1],
                "trace": args.trace,
                "workloads": summary,
            }
        )
        TRAJECTORY.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
