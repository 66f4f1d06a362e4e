#!/usr/bin/env python3
"""Build mcbench from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later runs
rebuild only what changed. Build output goes to stderr, so the last line of
stdout is mcbench's JSON result. mcbench checks the argument values and
exits 2 on a bad one. With --trace 1 the traced run's spans are
written to .bench_build/traces/<workload>-seed<n>.json.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("serve-read", "serve-write-zipf", "cache-direct")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "svc" / "machcached.h").is_file():
        fail(f"machlock sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja") is not None:
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs], check=True, stdout=sys.stderr,
                   timeout=BUILD_TIMEOUT_S)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    cmd = [str(BUILD / "mcbench"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = ROOT / ".bench_build" / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"mcbench did not finish within {RUN_TIMEOUT_S} s", code=3)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
