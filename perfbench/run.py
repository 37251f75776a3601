#!/usr/bin/env python3
"""Builds the simulator benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --record [<workload> ...]   # re-record the reference
    python3 perfbench/run.py --test                      # the benchmark's own tests

Run from the root of a checkout. The build goes to .bench_build/perfbench
(CMake, Release); the last line of standard output is the run's JSON result.
The build's own output goes to standard error.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
REFERENCE = os.path.join(BENCH, "reference.tsv")
WORKLOADS = ["wan_record", "lan_ladder", "fabric_matrix", "doctor_timeline"]


def build(target):
    """Configures once and builds `target`, serialised by a lock file."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            configure = ["cmake", "-S", BENCH, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=Release"]
            if subprocess.call(configure, stdout=sys.stderr) != 0:
                # A half-configured tree would be taken as configured next
                # time; leave none behind.
                cache = os.path.join(BUILD, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                sys.exit("perfbench: cmake configure failed")
        cmd = ["cmake", "--build", BUILD, "-j", jobs, "--target", target]
        if subprocess.call(cmd, stdout=sys.stderr) != 0:
            sys.exit("perfbench: build failed")
    return os.path.join(BUILD, target)


def source_id():
    """Git commit when the checkout is a repository, plus a digest of src/."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.check_output(
                ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                stderr=subprocess.DEVNULL, text=True).strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "%s src-sha256:%s" % (commit, digest.hexdigest()[:12])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", nargs="*", metavar="WORKLOAD")
    parser.add_argument("--test", action="store_true")
    args = parser.parse_args()

    if args.test:
        binary = build("perfbench_tests")
        sys.exit(subprocess.call([binary]))

    if args.record is not None:
        binary = build("xgbe_perfbench")
        golden = os.path.join(ROOT, "bench", "golden", "fig6.json")
        for workload in args.record or WORKLOADS:
            code = subprocess.call([binary, "--workload", workload,
                                    "--record", REFERENCE,
                                    "--golden-fig6", golden])
            if code != 0:
                sys.exit(code)
        return

    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    binary = build("xgbe_perfbench")
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", REFERENCE, "--commit", source_id()]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    sys.exit(subprocess.call(cmd))


if __name__ == "__main__":
    main()
