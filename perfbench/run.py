#!/usr/bin/env python3
"""Builds and runs the dmasim benchmark (see perfbench/NOTES.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload storage-sweep --seed 0 \\
        --seconds 35 --trace 0

The first run configures and builds perfbench/ (which compiles ../src)
into .bench_build/perfbench; later runs only check that build. The
program's report goes to standard output; its last line is one JSON
object with the keys correct, attempted, failed and metrics. A detailed
record (host, passes, digests, fidelity and, with --trace 1, the spans)
is written to .bench_build/results/. The script exits non-zero without
printing a result when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 175


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return [m["name"] for m in bench[key]]


def source_id():
    """Names the sources the benchmark builds: the git commit when the
    checkout is a git repository, and always a digest of src/ and
    perfbench/ (the checkout the benchmark runs in need not be one)."""
    commit = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL, timeout=10).stdout.decode().strip()
        except (OSError, subprocess.TimeoutExpired):
            commit = ""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    ident = "sha256:" + digest.hexdigest()[:16]
    return "git:%s,%s" % (commit, ident) if commit else ident


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=max(1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0", 2)

    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("dmasim sources (src/) not found next to perfbench/")
    build()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR, "%s-seed%d-trace%d.json" %
                       (args.workload, args.seed, args.trace))
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--references",
               os.path.join(ROOT, "perfbench", "reference_digests.txt"),
               "--out", out, "--source-id", source_id()]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run timed out after %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.decode(errors="replace").splitlines()
    if done.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        sys.stdout.write("\n".join(lines) + "\n")
        fail("benchmark exited with code %d" % done.returncode)

    result = json.loads(lines[-1][len("RESULT "):])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result keys: %s" % sorted(result))
    wanted = metric_names(args.trace)
    if sorted(result["metrics"]) != sorted(wanted):
        fail("metrics %s do not match BENCHMARK.json %s" %
             (sorted(result["metrics"]), sorted(wanted)))
    for line in lines[:-1]:
        print(line)
    print("record: " + os.path.relpath(out, ROOT))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
