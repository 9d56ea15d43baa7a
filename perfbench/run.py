#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the tsb_perfbench measuring
program from the checkout's sources (CMake, into $CARGO_TARGET_DIR or
.bench_build), then runs one workload through it. Its standard output
ends with one JSON line: with --trace 0 the end-to-end metrics, with
--trace 1 the per-layer ones.

setup_s is measured here: process start to the first engine call,
over several separate process starts (--setup-only), reported as the
median. A campaign workload needs the certificate of its resident twin
(adversary-N) recorded by this build; when none is recorded yet, one
untimed twin run records it first.

Exit status: tsb_perfbench's (0 all checks passed, 1 a check failed), or 2
when the build or tsb_perfbench failed without producing a result.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 7


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_root():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = Path(target)
    return path if path.is_absolute() else ROOT / path


def build(out_dir):
    """Configure and build tsb_perfbench; returns the binary path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out_dir / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(out_dir)],
                           check=True, stdout=sys.stderr)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(out_dir), "--target",
                        "tsb_perfbench", "-j", jobs],
                       check=True, stdout=sys.stderr)
    return out_dir / "tsb_perfbench"


def build_id(binary):
    digest = hashlib.sha256()
    with open(binary, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()[:16]


def measure_setup(binary, workload):
    """Median seconds from process start to the first engine call."""
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic_ns()
        out = subprocess.run([str(binary), "--workload", workload,
                              "--setup-only"],
                             check=True, capture_output=True, text=True).stdout
        done = int(out.strip().rsplit("=", 1)[1])
        samples.append((done - start) / 1e9)
    return statistics.median(samples)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    help="adversary-6, explore-5, campaign-6, or an n = 4 "
                         "smoke variant (adversary-4, explore-4, campaign-4)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--doctor-certificate", action="store_true",
                    help="drop one covering pair before the certificate "
                         "check (tests that the gate fails)")
    args = ap.parse_args()

    broot = build_root()
    try:
        binary = build(broot / "perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        log(f"perfbench: build failed: {e}")
        return 2
    state_dir = broot / "perfbench-state" / build_id(binary)
    work_dir = broot / "perfbench-work" / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    state_dir.mkdir(parents=True, exist_ok=True)
    common = ["--state-dir", str(state_dir), "--work-dir", str(work_dir)]

    if args.workload.startswith("campaign-"):
        twin = "adversary-" + args.workload.split("-", 1)[1]
        if not (state_dir / f"exact-{twin}.txt").exists():
            log(f"perfbench: recording {twin} for the campaign to match")
            subprocess.run([str(binary), "--workload", twin, "--seed", "0",
                            "--seconds", "0", "--trace", "0",
                            "--state-dir", str(state_dir),
                            "--work-dir", str(broot / "perfbench-work" / twin)],
                           stdout=sys.stderr)

    setup_s = None
    if args.trace == 0:
        try:
            setup_s = measure_setup(binary, args.workload)
        except (subprocess.CalledProcessError, ValueError, IndexError) as e:
            log(f"perfbench: set-up probe failed: {e}")
            return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + common
    if args.doctor_certificate:
        cmd.append("--doctor-certificate")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    shutil.rmtree(work_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        log(f"perfbench: tsb_perfbench exited {proc.returncode} "
            "without a result")
        return 2
    for line in lines[:-1]:
        print(line)
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        print(f"  {'setup_s':<34} {setup_s:16.6g} s  "
              f"(median of {SETUP_REPEATS} process starts)")
    print(json.dumps(result), flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
