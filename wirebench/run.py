#!/usr/bin/env python3
"""Builds and runs the wire benchmark for one workload.

Usage (from the repository root):

    python3 wirebench/run.py --workload exact_read --seed 1 --seconds 20 --trace 0
    python3 wirebench/run.py --self-test

The C++ benchmark (wirebench/*.cc) is configured and built with CMake into
.bench_build/wirebench on first use.  Each run prints a human-readable
report as '#' lines, then one JSON line: {"correct", "attempted",
"failed", "metrics"}.  Untraced runs (--trace 0) carry every end-to-end
metric of BENCHMARK.json, traced runs (--trace 1) every per-layer metric;
the names are checked against BENCHMARK.json both ways before the line is
printed.  The exit status is nonzero on a wrong answer, an invalid run, a
build failure, or a name mismatch.
"""

import argparse
import json
import os
import re
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "wirebench")
RUN_ROOT = ".wirebench_runs"
TIMEOUT_S = 175
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fail(message):
    print("wirebench: " + message, file=sys.stderr)
    sys.exit(1)


def declared():
    """(end_to_end, per_layer) from BENCHMARK.json as {name: unit}."""
    path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    lists = []
    for key in ("end_to_end", "per_layer"):
        metrics = {m["name"]: m["unit"] for m in spec[key]}
        for name in metrics:
            if not NAME.match(name):
                fail("BENCHMARK.json: bad metric name %r" % name)
        lists.append(metrics)
    return lists


def commit():
    """The checkout's git commit, or 'unknown' outside a git checkout."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def build():
    """Configures (once) and builds; returns the binary's path."""
    binary = os.path.join(BUILD_DIR, "wirebench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"] + generator,
            stdout=sys.stderr, stderr=sys.stderr)
        if configure.returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    compiled = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                              stdout=sys.stderr, stderr=sys.stderr)
    if compiled.returncode != 0 or not os.path.exists(binary):
        fail("build failed")
    return binary


def run_checked(argv, timeout):
    """Runs argv in its own process group; kills the group on timeout."""
    process = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        out, _ = process.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        fail("run timed out after %d s" % timeout)
    return process.returncode, out


def self_test(binary):
    code, out = run_checked([binary, "selftest"], 60)
    sys.stderr.write(out)
    if code != 0:
        fail("harness self-tests failed")
    code, out = run_checked([binary, "names"], 60)
    printed = ({}, {})
    for line in out.splitlines():
        kind, name, unit = line.split()
        printed[0 if kind == "end_to_end" else 1][name] = unit
    for kind, want, got in zip(("end_to_end", "per_layer"), declared(),
                               printed):
        if want != got:
            fail("%s metrics differ from BENCHMARK.json: declared only %s, "
                 "printed only %s, unit mismatches %s" % (
                     kind, sorted(set(want) - set(got)),
                     sorted(set(got) - set(want)),
                     sorted(n for n in want if n in got and want[n] != got[n])))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    binary = build()
    self_test(binary)
    if args.self_test:
        print("self-test: harness checks and metric names agree with "
              "BENCHMARK.json")
        return 0
    if not args.workload:
        fail("--workload is required")

    run_dir = os.path.join(RUN_ROOT, "%s-%d-%d" % (args.workload, args.seed,
                                                    os.getpid()))
    try:
        code, out = run_checked(
            [binary, "run", "--workload=" + args.workload,
             "--seed=%d" % args.seed, "--seconds=%d" % args.seconds,
             "--trace=%d" % args.trace, "--dir=" + run_dir,
             "--commit=" + commit()], TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if os.path.isdir(RUN_ROOT) and not os.listdir(RUN_ROOT):
            os.rmdir(RUN_ROOT)

    lines = out.rstrip("\n").splitlines()
    report = [line for line in lines if line.startswith("#")]
    sys.stdout.write("".join(line + "\n" for line in report))
    if not lines or not lines[-1].startswith("{"):
        fail("run printed no result (exit status %d)" % code)
    result = json.loads(lines[-1])
    want = declared()[args.trace]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        fail("printed metrics differ from BENCHMARK.json: missing %s, "
             "undeclared %s" % (sorted(set(want) - set(got)),
                                sorted(set(got) - set(want))))
    print(lines[-1])
    sys.stdout.flush()
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
