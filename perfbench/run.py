#!/usr/bin/env python3
"""Build wrt_perfbench from this checkout and run one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload ring_clean --seed 1 --seconds 20 --trace 0

The first run configures the repository's own CMake project into
.bench_build/cmake (with perfbench/inject.cmake hooked in, so the benchmark
is compiled with the repository's build type, options and flags) and builds
only the benchmark and the libraries it links.  Later runs rebuild what
changed.  Build output goes to stderr; the benchmark's stdout is passed
through unchanged, so its last line is the JSON result.

--out FILE appends one JSON line per run ({"record": ..., "result": ...})
for perfbench/compare.py.  With --trace 1 the spans are written as Chrome
trace_event JSON under .bench_build/traces/.

Exit status: the benchmark's (0 ok, 1 failed output check), 2 on a usage
or build error, 3 when the benchmark overran its time limit.
"""
import argparse
import json
import os
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "cmake")
BINARY = os.path.join(BUILD_DIR, "wrt_perfbench")
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    here = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        fail("run from the repository root: no CMakeLists.txt / src here")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ".", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-DWRT_WERROR=OFF",
                      "-DCMAKE_PROJECT_INCLUDE=" +
                      os.path.join(here, "inject.cmake")])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "wrt_perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  check=False)
        except OSError as error:
            fail(f"cannot run {step[0]}: {error}")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--out", help="append this run to a JSON-lines file")
    args = parser.parse_args()

    build()
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out", os.path.join(
            traces, f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"benchmark overran {RUN_TIMEOUT_S} s", code=3)
    if done.returncode not in (0, 1):
        fail(f"benchmark exited with status {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    if args.out and len(lines) >= 2:
        record = json.loads(lines[-2])["perfbench_record"]
        with open(args.out, "a", encoding="utf-8") as out:
            out.write(json.dumps({"record": record,
                                  "result": json.loads(lines[-1])}) + "\n")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
