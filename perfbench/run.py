#!/usr/bin/env python3
"""Builds the perfbench binary from source, then runs one workload.

    python3 perfbench/run.py --workload <offline|online|serve> --seed <n> \
        --seconds <s> --trace <0|1>

Runs from the repository root. The build goes to $CARGO_TARGET_DIR
(default: .bench_build). The report goes to standard output; its last
line is the JSON result. The exit code is the benchmark's: non-zero when
the build fails or an output check fails.
"""

import os
import subprocess
import sys

# The benchmark itself must end within this many seconds.
RUN_TIMEOUT_S = 170


def main():
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    try:
        return subprocess.run([exe] + sys.argv[1:], env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
