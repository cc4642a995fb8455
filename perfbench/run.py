#!/usr/bin/env python3
"""Benchmark front end: builds the llbench harness from this checkout, runs
one workload, checks its outputs and prints the result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The harness and the simulator libraries it
links are built (CMake, RelWithDebInfo) into $CARGO_TARGET_DIR, default
.bench_build. With --trace 0 the result carries every end-to-end metric of
BENCHMARK.json, with --trace 1 every per-layer metric (a layer the workload
does not exercise reports 0). The last line of stdout is the result object;
the exit code is non-zero when the build fails or any output check fails.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds llbench and lltrace; False on failure."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", build_dir, "-j", jobs, "--target", "llbench", "lltrace"]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"run.py: unknown workload {args.workload!r}")
        return 2

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(build_dir):
        log("run.py: build failed")
        return 1

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, f"{args.workload}-{args.seed}.json")
    cmd = [os.path.join(build_dir, "llbench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}", f"--trace-out={trace_path}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: llbench did not finish within {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.rstrip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"run.py: llbench exited with {proc.returncode}")
        return 1
    measured = json.loads(lines[-1])
    attempted = measured["attempted"]
    failed = measured["failed"]

    def check(ok, what):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            log(f"run.py: CHECK FAILED: {what}")

    # Output digests recorded for seed 42 (see README.md).
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f).get(args.workload, {}).get(str(args.seed))
    if expected is not None:
        check(measured["digest"] == expected,
              f"digest {measured['digest']} != recorded {expected} for seed {args.seed}")

    if args.trace:
        lltrace = subprocess.run([os.path.join(build_dir, "lltrace"), trace_path],
                                 stdout=subprocess.DEVNULL)
        check(lltrace.returncode == 0, f"lltrace rejected {trace_path}")

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        value = measured["metrics"].get(m["name"])
        if value is None and section == "per_layer":
            value = 0.0  # layer not exercised by this workload
        check(value is not None and math.isfinite(value),
              f"metric {m['name']} missing or not finite ({value})")
        if value is not None and not math.isfinite(value):
            value = None
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    for line in lines[:-1]:
        print(line)
    for name, m in metrics.items():
        print(f"  {name:<24} {m['value']!s:>22} {m['unit']}")
    print(f"  {'fail_frac':<24} {failed / attempted if attempted else 0.0:>22} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
