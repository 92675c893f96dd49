#!/usr/bin/env python3
"""Builds and runs the repository benchmark (README.md in this directory).

    python3 perfbench/run.py --workload train_directed --seed 1 --seconds 40 --trace 0

Builds ``perfbench`` from this checkout's sources into ``.bench_build/`` (an
optimised build; the first run compiles the library), runs one workload in
its own process and prints the benchmark's lines. The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``. Any failure to build or run exits non-zero without that line.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("no src/ next to perfbench/: nothing to build")
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build tree configured for another copy of the sources is stale.
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(BUILD_DIR)
    if not os.path.exists(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR] + generator,
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        log(f"perfbench: build failed: {error}")
        return 1

    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    # The run's checkpoint file lives in a directory of its own, removed
    # afterwards even when the run fails.
    work_dir = tempfile.mkdtemp(prefix="work-", dir=BUILD_ROOT)
    command = [binary, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}",
               f"--work_dir={work_dir}", f"--trace_dir={trace_dir}",
               f"--commit={commit()}"]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: no result within {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = run.stdout.splitlines()
    # On any failure the benchmark's lines go to stderr, so standard output
    # never ends in a result line.
    if run.returncode != 0 or not lines:
        log(run.stdout + f"perfbench: exited with code {run.returncode}")
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(run.stdout + "perfbench: the last line is not a JSON result")
        return 1

    expected = expected_metrics(bool(args.trace))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        log(run.stdout + f"perfbench: metrics differ from BENCHMARK.json: got "
            f"{sorted(got)}, expected {sorted(expected)}")
        return 1
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
