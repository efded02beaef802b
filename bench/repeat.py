#!/usr/bin/env python3
"""Run one workload over several seeds and print each metric's median and quartiles.

    python3 bench/repeat.py --workload paper_fit --seeds 1-10 [--trace 0] [--save runs.jsonl]

Quartiles are ``statistics.quantiles(values, n=4)``; the spread is
(Q3 - Q1) / median, the figure each end-to-end bound in BENCHMARK.json is
set against.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(results: list[dict]) -> str:
    lines = [f"{'metric':34s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}"]
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        lines.append(f"{name:34s} {first['unit']:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%}")
    failed = {r["failed"] / r["attempted"] for r in results}
    lines.append(f"runs {len(results)}, all correct: {all(r['correct'] for r in results)}, failed shares: {sorted(failed)}")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", default="50")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--save", type=Path, help="append each run's JSON line to this file")
    args = parser.parse_args()

    results = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        line = done.stdout.strip().splitlines()[-1]
        results.append(json.loads(line))
        print(f"seed {seed} ({time.perf_counter() - start:.1f} s): {line}", file=sys.stderr)
        if args.save:
            with open(args.save, "a") as fh:
                fh.write(json.dumps({"workload": args.workload, "seed": seed, **results[-1]}) + "\n")
    print(summarize(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
