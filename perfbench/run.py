#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <suite|sim-firewall|sim-ips> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the workspace crates by path. It is built with the release
profile into $CARGO_TARGET_DIR (default: .bench_build). Build output
goes to stderr, so the last line of stdout is the benchmark's JSON
result. The exit code is the benchmark's: nonzero when the build fails,
the arguments are wrong, or any output check fails.
"""

import os
import subprocess
import sys


def main() -> int:
    env = dict(os.environ)
    target_dir = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join("perfbench", "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target_dir, "release", "apples-perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
