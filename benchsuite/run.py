#!/usr/bin/env python3
"""Builds bench_suite from source and runs one workload.

Usage (from the repository root):
    python3 benchsuite/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The engine and the suite are compiled into .bench_build/ (CMake, Release)
on first use; later runs only re-check the build. The last line of standard
output is the JSON result bench_suite prints. Its metric names and units are
checked against BENCHMARK.json (end_to_end with --trace 0, per_layer with
--trace 1). The exit code is nonzero when the build fails, a self-check
fails, or the result does not match BENCHMARK.json.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "bench_suite")
# Leave headroom under the 180 s a run may take.
RUN_TIMEOUT_S = 170
BUILD_JOBS = max(1, min(4, os.cpu_count() or 1))


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds bench_suite; build output goes to stderr."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
                shutil.rmtree(BUILD_DIR, ignore_errors=True)
                return False
        compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", "bench_suite",
                       "-j", str(BUILD_JOBS)]
        return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns an error message, or None when `line` is a valid result."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys are %s" % sorted(result)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(got) & set(want) if got[n] != want[n])
        return "metrics differ from BENCHMARK.json: missing %s extra %s unit %s" % (
            missing, extra, units)
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        log("run.py: build failed")
        return 2

    data_dir = os.path.join(BUILD_DIR, "data", "run-%d" % os.getpid())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--out-dir", os.path.join(HERE, "out"), "--data-dir", data_dir]
    if args.trace:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run.py: bench_suite exceeded %d s" % RUN_TIMEOUT_S)
        return 3
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").splitlines()
    error = check_result(lines[-1], args.trace) if lines else "no output"
    sys.stdout.write("\n".join(lines[:-1] if error else lines) + "\n")
    sys.stdout.flush()
    if error:
        log("run.py: " + error)
        return 4
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
