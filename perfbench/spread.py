#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --workload <name>

Runs `perfbench/run.py` once for each of the seeds 1 to 10 with
BENCHMARK.json's `run_seconds`, then prints, per end-to-end metric,
the median and the distance between the first and third quartile (as
`statistics.quantiles(values, n=4)` gives them) as a share of the
median, next to the metric's bound. A spread above a third of its bound
is flagged. Run it from the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        definition = json.load(f)
    values = {m["name"]: [] for m in definition["end_to_end"]}
    failures = 0
    for seed in SEEDS:
        cmd = [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
            "--seed", str(seed), "--seconds", str(definition["run_seconds"]), "--trace", "0",
        ]
        ran = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        last = ran.stdout.rstrip("\n").rsplit("\n", 1)[-1]
        if ran.returncode != 0 or not last.startswith("{"):
            failures += 1
            print(f"seed {seed}: exit {ran.returncode}", file=sys.stderr)
            continue
        result = json.loads(last)
        row = []
        for name in values:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            row.append(f"{name}={v:.6g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    print(f"{args.workload}: {len(SEEDS) - failures} of {len(SEEDS)} runs succeeded")
    for m in definition["end_to_end"]:
        v = values[m["name"]]
        if len(v) < 2:
            continue
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / statistics.median(v)
        flag = "" if spread <= m["bound"] / 3 else "  <-- above a third of the bound"
        print(
            f"  {m['name']:<14} median {statistics.median(v):.6g} {m['unit']:<4} "
            f"IQR/median {spread * 100:5.2f} %  (bound {m['bound'] * 100:.0f} %){flag}"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
