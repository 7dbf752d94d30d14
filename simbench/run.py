#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 simbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
simbench (and the simulator libraries it links) under .bench_build/simbench;
later calls only rebuild what changed. The benchmark runs in a fresh process
per call, so its peak resident set is per workload. The last line of stdout
is the result JSON.

    python3 simbench/run.py --workload all --seconds S

runs every workload BENCHMARK.json lists, each in its own process, one after
the other. A workload left out of BENCHMARK.json still runs by its name.

    python3 simbench/run.py --pin

re-measures the digests of every workload at the default seed and rewrites
simbench/pinned_digests.txt. Do that only for a change that is meant to alter
simulated results, and say so where the change is described.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "simbench")
BINARY = os.path.join(BUILD, "simbench")
PINNED = os.path.join(HERE, "pinned_digests.txt")
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ["paper_2vm", "fattree_scaleout", "lanes_allreduce",
             "lanes_allreduce_leaf", "sweep_parallel"]
PIN_SEED = 1
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"simbench/run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the simbench target; False on failure."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        steps.append(["cmake", "--build", BUILD, "--target", "simbench",
                      "-j", jobs])
        for cmd in steps:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stdout[-4000:])
                log(f"build step failed: {' '.join(cmd)}")
                return False
    return True


def run(args, workload):
    cmd = [BINARY, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pinned", PINNED]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return None, 1
    lines = proc.stdout.rstrip("\n").splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-4000:])
        log(f"benchmark exited with code {proc.returncode}")
        return None, 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        sys.stderr.write(proc.stdout[-4000:])
        log("benchmark printed no result line")
        return None, 1
    return proc.stdout, 0


def pin():
    lines = ["# Digests of each workload's simulated outputs at the default "
             "seed.", "# Regenerate with: python3 simbench/run.py --pin"]
    for w in WORKLOADS:
        out = subprocess.run([BINARY, "--workload", w, "--seed", str(PIN_SEED),
                              "--seconds", "1", "--trace", "0"],
                             stdout=subprocess.PIPE, text=True).stdout
        digest = next((ln.split()[1] for ln in out.splitlines()
                       if ln.startswith("digest ")), None)
        if digest is None:
            log(f"{w}: no digest (every trial failed); not pinned")
            continue
        lines.append(f"{w} {PIN_SEED} {digest}")
    with open(PINNED, "w") as f:
        f.write("\n".join(lines) + "\n")
    log(f"wrote {PINNED}")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=PIN_SEED)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--pin", action="store_true")
    args = p.parse_args()
    if not args.pin and args.workload is None:
        p.error("--workload is required")
    if not build():
        return 1
    if args.pin:
        return pin()
    if args.workload == "all":
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            workloads = [w["name"] for w in json.load(f)["workloads"]]
    else:
        workloads = [args.workload]
    worst = 0
    for w in workloads:
        stdout, code = run(args, w)
        if stdout is not None:
            sys.stdout.write(stdout)
            sys.stdout.flush()
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
