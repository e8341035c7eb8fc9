#!/usr/bin/env python3
"""Snapshot the PASS benchmark into BENCH_<workload>.json files.

Run from the repository root:

  python3 tools/bench_snapshot.py [--out-dir DIR]   # default: the repo root

For every workload BENCHMARK.json declares, this runs one untraced
`perfbench/run.py --workload <w> --seed <s> --seconds <run_seconds>
--trace 0` per seed 1-3 and writes BENCH_<workload>.json: the per-seed
values and the median of every end-to-end metric, whether every run was
correct with 0 failed, and the commit the runs were built from (with
`dirty` set when src/ or perfbench/ differ from it). Later changes compare
against these files.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

SEEDS = (1, 2, 3)


def fail(msg):
    print(f"bench_snapshot: {msg}", file=sys.stderr)
    sys.exit(1)


def git(*args):
    done = subprocess.run(["git", *args], stdout=subprocess.PIPE, text=True)
    return done.stdout.strip() if done.returncode == 0 else ""


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    print(f"== {' '.join(cmd)}", file=sys.stderr)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not lines[-1].startswith("{"):
        fail(f"{workload} seed {seed} produced no result")
    return json.loads(lines[-1])


def snapshot(workload, seconds, commit, dirty):
    runs = [run_once(workload, seed, seconds) for seed in SEEDS]
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        metrics[name] = {"unit": first["unit"],
                         "median": statistics.median(values),
                         "runs": values}
    return {"workload": workload,
            "commit": commit,
            "dirty": dirty,
            "seeds": list(SEEDS),
            "seconds": seconds,
            "correct": all(run["correct"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default=".")
    args = parser.parse_args()
    if not os.path.isfile("BENCHMARK.json"):
        fail("run from the repository root: no BENCHMARK.json here")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    commit = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--", "src", "perfbench"))
    os.makedirs(args.out_dir, exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        result = snapshot(workload, spec["run_seconds"], commit, dirty)
        path = os.path.join(args.out_dir, f"BENCH_{workload}.json")
        with open(path, "w") as f:
            json.dump(result, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"{path}: correct={result['correct']} "
              f"failed={result['failed']}")


if __name__ == "__main__":
    main()
