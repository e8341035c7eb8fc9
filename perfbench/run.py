#!/usr/bin/env python3
"""Build and run the PASS benchmark.

Run from the repository root:

  python3 perfbench/run.py --workload capture --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --selftest

The first run configures and builds perfbench/ (which compiles the
repository's src/ tree) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset. The benchmark's last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics. --selftest runs the benchmark's self-test and checks the Chrome trace
it writes with tools/check_trace.py.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("capture", "audit_stream", "portal_query")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    """Configure and build the benchmark; returns the binary's path."""
    if not os.path.isfile(os.path.join("src", "cluster", "cluster.h")):
        fail("run from the repository root: no src/ tree here")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    with open(log_path, "w") as log:
        for cmd in (["cmake", "-S", "perfbench", "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"],
                    ["cmake", "--build", out, "-j", jobs]):
            done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT)
            if done.returncode != 0:
                fail(f"build failed: {' '.join(cmd)} (see {log_path})")
    binary = os.path.join(out, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no perfbench binary")
    return binary


def run(cmd, timeout):
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                              text=True)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    return proc


def check_names(result, trace):
    """The printed metrics must be exactly BENCHMARK.json's, unit for unit."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    have = {k: v["unit"] for k, v in result["metrics"].items()}
    if have != want:
        fail(f"metrics differ from BENCHMARK.json: "
             f"{sorted(set(have.items()) ^ set(want.items()))}")


def check_trace(path):
    """Validate a written Chrome trace with the repository's checker."""
    checker = os.path.join("tools", "check_trace.py")
    check = subprocess.run([sys.executable, checker, path],
                           stdout=subprocess.PIPE, text=True)
    if check.returncode != 0:
        fail(f"tools/check_trace.py rejected {path}")
    return check.stdout.strip()


def selftest(binary):
    trace = os.path.join(build_dir(), "selftest-trace.json")
    proc = run([binary, "--selftest", "--trace-out", trace], RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail("self-test failed")
    print(f"selftest: {check_trace(trace)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    binary = build()
    if args.selftest:
        selftest(binary)
        return
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace = os.path.join(build_dir(), f"trace-{args.workload}.json")
    if args.trace:
        cmd += ["--trace-out", trace]
    proc = run(cmd, RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        fail(f"benchmark exited with {proc.returncode} and no result")
    check_names(json.loads(lines[-1]), args.trace)
    if args.trace:
        lines.insert(-1, f"trace file: {check_trace(trace)}")
    sys.stdout.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
