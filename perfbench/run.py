#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` package (a Cargo workspace of its own that depends
on the repository's crates by path) in release mode into
`$CARGO_TARGET_DIR` (default: `perfbench/target`), pins the process to one
CPU and runs it with the given arguments. The benchmark prints its metrics
and, as the last line of standard output, one JSON object; the exit code is
the benchmark's, or non-zero when the build fails.

Why one CPU: on the 2-vCPU reference host, cross-CPU wake-ups between the
TCP client, connection and shard threads made identical `tcp_demand` runs
read anywhere from 65 to 464 ops/s; pinned, their spread fell to a few
percent. Every workload is pinned, so all of them measure the same way.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(env):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        # Cargo's output goes to stderr: stdout carries only results.
        return subprocess.run(cmd, stdout=sys.stderr, env=env).returncode
    except OSError as e:
        print(f"perfbench: cannot run cargo: {e}", file=sys.stderr)
        return 1


def pin_to_one_cpu():
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    env["CARGO_TARGET_DIR"] = target
    code = build(env)
    if code != 0:
        print("perfbench: build failed", file=sys.stderr)
        return code
    pin_to_one_cpu()
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
