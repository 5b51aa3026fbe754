#!/usr/bin/env python3
"""Build the benchmark and the endpoint daemon from source, then run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace 0|1 [--smoke]

Run from the repository root. Both programs are built with cargo into
$CARGO_TARGET_DIR (default: .bench_build): the repository's own
`unifaas-endpointd` daemon, and the `perfbench` package beside this file.
The benchmark's standard output is passed through; its last line is the
JSON result. Exits non-zero without a result when a build or the run fails.
"""

import argparse
import os
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["fabric-dag", "sim-drug"]
# A run must end within 180 s; leave room for the builds' up-to-date check.
RUN_TIMEOUT_S = 170


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "unifaas-cli",
         "--bin", "unifaas-endpointd"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: build failed: {' '.join(cmd)}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="small inputs, for the self-test")
    args = p.parse_args()

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build(target)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--daemon", os.path.join(target, "release", "unifaas-endpointd"),
    ]
    if args.smoke:
        cmd.append("--smoke")
    # Own process group, so a timeout also stops the endpoint daemons.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit(f"run.py: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
