#!/usr/bin/env python3
"""Build bench_gpurel from this checkout and run one benchmark workload.

    python3 perfbench/run.py --workload study --seed 42 --seconds 15 --trace 0

The first run configures and builds the gpurel library and the benchmark in
Release mode (into $CARGO_TARGET_DIR, default .bench_build, at the checkout
root); later runs only re-check the build. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. The exit code is the
benchmark's: non-zero when the build fails or any op fails its checks.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("study", "fork-masked", "due-tail", "beam")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(out):
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    steps = [["cmake", "--build", out, "--target", "bench_gpurel", "-j", jobs]]
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, configure)
    for cmd in steps:
        subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "bench_gpurel")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.SubprocessError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    tmp = os.path.join(out, "tmp", f"run-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--tmp", tmp,
           "--digests", os.path.join(HERE, "digests.json")]
    if args.trace:
        cmd.append("--traced")
    env = {k: v for k, v in os.environ.items() if not k.startswith("GPUREL_")}
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
