#!/usr/bin/env python3
"""Run one benchmark measurement and print its JSON result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script builds the benchmark binary
(into $CARGO_TARGET_DIR, default .bench_build), makes sure reference
outputs exist for the workload and seed, runs the measurement and prints
the binary's result object as the last line of standard output. Stored
references live in perfbench/refs/; a seed without one gets its
reference computed once, through the repository's reference path, into
.bench_refs/. Workloads, seeds and tolerances: perfbench/spec.json.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 880
REFERENCE_TIMEOUT_S = 90
MEASURE_MARGIN_S = 50
# glibc raises its mmap threshold after the first large free, which makes
# peak RSS depend on allocation history (up to +13 % between runs of one
# workload); a fixed threshold (glibc's initial default) keeps it steady.
ALLOCATOR_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, env=None, capture=False):
    """Runs cmd to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(
            cmd,
            env=dict(os.environ, **ALLOCATOR_ENV) if env is None else env,
            timeout=timeout,
            stdout=subprocess.PIPE if capture else sys.stderr,
            text=True,
        )
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")


def reference_file(exe, workload, seed):
    stored = os.path.join(HERE, "refs", f"{workload}-{seed}.json")
    if os.path.exists(stored):
        return stored
    cached = os.path.join(ROOT, ".bench_refs", f"{workload}-{seed}.json")
    if not os.path.exists(cached):
        os.makedirs(os.path.dirname(cached), exist_ok=True)
        tmp = f"{cached}.{os.getpid()}.tmp"
        cmd = [exe, "reference", "--workload", workload, "--seed", str(seed), "--out", tmp]
        if run(cmd, REFERENCE_TIMEOUT_S).returncode != 0:
            fail(f"reference run failed for {workload} seed {seed}")
        os.replace(tmp, cached)
    return cached


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    build = run(["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest], BUILD_TIMEOUT_S, env)
    if build.returncode != 0:
        fail("build failed")
    exe = os.path.join(target, "release", "perfbench")

    ref = reference_file(exe, a.workload, a.seed)
    cmd = [
        exe, "measure",
        "--workload", a.workload,
        "--seed", str(a.seed),
        "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--ref", ref,
    ]
    proc = run(cmd, a.seconds + MEASURE_MARGIN_S, capture=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        fail(f"measurement failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"unexpected result keys {sorted(result)}")
    print(lines[-1])


if __name__ == "__main__":
    main()
