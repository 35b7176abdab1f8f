#!/usr/bin/env python3
"""Build `hacc` and `hacbench` from source, then run `hacbench`.

Usage, from the root of the repository:

    python3 hacbench/run.py [--workload W] [--seed N] [--seconds S] [--trace 0|1]

Both programs build in release mode into $CARGO_TARGET_DIR (default:
./target), so `hacbench` finds `hacc` beside itself. Build output goes to
stderr; the last line of stdout is the benchmark's JSON result.
"""

import os
import subprocess
import sys


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", "target"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", "Cargo.toml", "--bin", "hacc"],
        ["--manifest-path", os.path.join("hacbench", "Cargo.toml")],
    ]
    for args in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
        code = subprocess.call(cmd, env=env, stdout=sys.stderr)
        if code != 0:
            return code
    exe = os.path.join(target, "release", "hacbench")
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
