#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

The spread is the interquartile range of the per-seed values as a share
of their median, compared against a third of the metric's bound in
``BENCHMARK.json``::

    python3 perfbench/steadiness.py --workload kernel-mix --seeds 1-10
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hrmsbench import ROOT  # noqa: E402
from hrmsbench.stats import spread  # noqa: E402


def seed_range(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        completed = subprocess.run(
            [
                *config["command"],
                "--workload", args.workload,
                "--seed", str(seed),
                "--seconds", str(args.seconds),
                "--trace", "0",
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=False,
        )
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            print(completed.stdout + completed.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()
        ), flush=True)

    steady = True
    for entry in config["end_to_end"]:
        name = entry["name"]
        series = values[name]
        share = spread(series)
        ok = name == "setup_s" or share < entry["bound"] / 3
        steady &= ok
        print(
            f"{name:20s} median {statistics.median(series):12.6g} "
            f"spread {share:7.4f} bound/3 {entry['bound'] / 3:7.4f} "
            f"{'ok' if ok else 'WIDE'}"
        )
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
