#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload quick-suite --seed 247470488 --seconds 15 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR
(default `.bench_build`); the binary's stdout, whose last line is the
JSON result, passes through unchanged. A failed build exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    env = dict(os.environ)
    target_dir = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--bins",
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"error: building the benchmark failed ({build.returncode})", file=sys.stderr)
        return 1
    # With glibc's defaults, how much freed memory stays resident depends
    # on which per-thread arena freed it and on an mmap threshold that
    # moves as large blocks are freed, so the peak RSS of one process
    # swings by a quarter from run to run. One arena and a fixed
    # threshold (the default's starting value) make it repeat.
    env.setdefault("MALLOC_ARENA_MAX", "1")
    env.setdefault("MALLOC_MMAP_THRESHOLD_", "131072")
    exe = os.path.join(target_dir, "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
