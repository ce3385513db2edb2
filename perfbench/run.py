#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout; build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. Traced runs also
write their host-time spans to $CARGO_TARGET_DIR/perfbench-spans/.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", out, "--parallel", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def child_env():
    """The environment minus the library's and OpenMP's tuning variables:
    the benchmark fixes every one of those itself."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith(("CAGMRES_", "OMP_", "GOMP_"))}


def run(binary, extra_args):
    """Runs the binary, relays its stdout, and returns its exit code."""
    try:
        proc = subprocess.run([binary] + extra_args, env=child_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        # subprocess.run kills the child and waits for it before raising.
        sys.stdout.write(e.stdout or "")
        print("perfbench: timed out after %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    cmd = ["--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(build_dir(), "..", "perfbench-spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-out", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    return run(binary, cmd)


if __name__ == "__main__":
    sys.exit(main())
