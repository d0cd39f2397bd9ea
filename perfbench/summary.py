"""Run perfbench/run.py over every workload and seed and print one table.

    python3 perfbench/summary.py [--seeds 1-10] [--trace 0|1]

Run from the root of a checkout.  Each run lasts BENCHMARK.json's
run_seconds.  With one seed it prints every metric of every workload by
name, with its unit and sample count, and the fail ratio with its base.
With several seeds it also prints, per metric, the median over seeds,
the quartiles and their distance as a share of the median (the
run-to-run spread), next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = SPEC["run_seconds"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """run.py's result object and its {metric: sample count} object, the
    last two lines of its stdout."""
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    *_, samples, result = proc.stdout.strip().splitlines()
    return json.loads(result), json.loads(samples)["samples"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    for workload in WORKLOADS:
        results = []
        for seed in seeds:
            result, samples = run_once(workload, seed, args.trace)
            results.append((result, samples))
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"fail_ratio={result['failed']}/{result['attempted']}", flush=True)
        print(f"\n{workload} ({len(seeds)} run(s), seeds {args.seeds})")
        first, first_samples = results[0]
        for name, metric in first["metrics"].items():
            values = [r["metrics"][name]["value"] for r, _ in results]
            med = statistics.median(values)
            line = f"  {name:48s} {med:14.6g} {metric['unit']:6s} n={first_samples[name]}/run"
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else 0.0
                line += f"  q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f}"
                if name in BOUNDS:
                    line += f" (bound {BOUNDS[name]})"
            print(line, flush=True)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
