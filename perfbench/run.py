#!/usr/bin/env python3
"""Build and run the GreenGPU reproduction's benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds `perfbench/` (a cargo package
of its own that depends on the repository's crates by path) in release
mode into $CARGO_TARGET_DIR (default `.bench_build`), runs the binary
single-threaded, and passes its output through. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`; with `--trace 0` the metrics are the `end_to_end` ones of
BENCHMARK.json, with `--trace 1` the `per_layer` ones. The exit code is
non-zero, and no result line is printed, when the build fails, the
repository's crates are missing, or the output does not match
BENCHMARK.json; it is non-zero with `"correct": false` when a run fails
its correctness gate. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("repro_all", "fleet_busy_1k", "geo_idle_10k")
BUILD_TIMEOUT_S = 700
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_timeout_s(seconds):
    """Seconds the binary may take: its budget plus the runs it must make
    beyond it (a warm-up, two timed runs of `geo_idle_10k`), with room for
    a host that is slower than usual, and below the 180 s an invocation
    is allowed."""
    return min(170, 60 + 4 * seconds)


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    return 1


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        definition = json.load(f)
    section = definition["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    """Problems with the binary's result line, as a list of strings."""
    try:
        result = json.loads(line)
    except ValueError as e:
        return [f"last line is not JSON ({e})"]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys are {sorted(result) if isinstance(result, dict) else type(result)}"]
    problems = []
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append("attempted must be a whole number of at least 1")
    if not (isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]):
        problems.append("failed must be a whole number within attempted")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        problems.append(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}"
        )
    for name, unit in want.items():
        m = got.get(name)
        if m is not None and (m.get("unit") != unit or not isinstance(m.get("value"), (int, float))):
            problems.append(f"metric {name} is {m}, expected a number in {unit}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        return fail("--seed must be non-negative and --seconds at least 1")

    if not os.path.isfile(os.path.join(ROOT, "crates", "cluster", "Cargo.toml")):
        return fail(f"the repository's crates are missing under {ROOT}; nothing to benchmark")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"build did not finish within {BUILD_TIMEOUT_S} s")
    if built.returncode != 0:
        return fail(f"build failed with exit code {built.returncode}")

    exe = os.path.join(target, "release", "perfbench")
    spans = os.path.join(target, "perfbench-spans", f"{args.workload}-{args.seed}.tsv")
    cmd = [
        exe, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.trace:
        cmd += ["--spans", spans]
    timeout = run_timeout_s(args.seconds)
    try:
        ran = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return fail(f"benchmark did not finish within {timeout} s")
    out = ran.stdout
    last = out.rstrip("\n").rsplit("\n", 1)[-1]
    if ran.returncode != 0 and not last.startswith("{"):
        sys.stderr.write(out)
        return fail(f"benchmark exited with code {ran.returncode}")
    problems = check_result(last, args.trace)
    if problems:
        sys.stderr.write(out)
        for p in problems:
            print(f"run.py: {p}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
