#!/usr/bin/env python3
"""Builds and runs the ConfCard benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [benchmark settings...]

Run from the root of a checkout. Builds perfbench/ and the library under
src/ into .bench_build (a CMake build, reused across runs), runs the
benchmark binary with every argument, and passes its output through. The
last line of output is the result JSON; its metric names and units are
checked against BENCHMARK.json before it is printed. Exits non-zero,
without printing a result, when the build or the run fails.
"""
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
HERE = os.path.dirname(os.path.abspath(__file__))


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    # The build's own output goes to stderr: stdout carries only results.
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j",
         str(os.cpu_count() or 1)],
    ]
    if os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main(argv):
    if "--trace" not in argv[:-1]:
        fail("missing --trace")
    trace = argv[argv.index("--trace") + 1] == "1"
    workload = argv[argv.index("--workload") + 1] if "--workload" in argv[:-1] else ""
    expected = expected_metrics(trace)
    build()
    cmd = [os.path.join(BUILD_DIR, "perfbench"), *argv]
    if trace:
        cmd += ["--trace-out", os.path.join(BUILD_DIR, f"trace-{workload}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("last line of benchmark output is not JSON")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(expected))}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))


if __name__ == "__main__":
    main(sys.argv[1:])
