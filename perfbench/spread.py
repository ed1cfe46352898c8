"""Run-to-run spread of every end-to-end metric, next to its median and bound.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --runs 10 [--workload NAME ...] [--first-seed 1]

Runs perfbench/run.py once per seed, one run at a time, for each workload
(all of BENCHMARK.json's by default).  For each metric it prints the median,
the quartiles as statistics.quantiles(values, n=4) gives them, and their
distance as a share of the median.  A spread above a third of the metric's
bound is flagged "wide"; above the bound, "over".  setup_s is reported but
not flagged, since its bound applies to medians only.  Exits 1 if a run
fails, reports correct=false, or a spread is over its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    bad = False
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            result = run_once(workload, seed, spec["run_seconds"], 0)
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']} "
                  + " ".join(f"{k}={m['value']:.5g}"
                             for k, m in result["metrics"].items()),
                  flush=True)
            bad |= not result["correct"]
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            share = (q3 - q1) / med
            flag = ""
            if m["name"] != "setup_s":
                if share > m["bound"]:
                    flag, bad = "  over", True
                elif share > m["bound"] / 3:
                    flag = "  wide"
            print(f"{workload:18s} {m['name']:12s} median {med:<11.5g} "
                  f"{m['unit']:4s} q1 {q1:<11.5g} q3 {q3:<11.5g} "
                  f"spread {share:6.2%} bound {m['bound']:.0%}{flag}",
                  flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
