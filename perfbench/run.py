#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The binary is built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build`). Traced runs also write their
spans to `<target dir>/perfbench-trace/<workload>-seed<n>.tsv`. The last
line of standard output is the JSON result. Exits non-zero, without a
result, if the build fails or the run does not finish in time.
"""

import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
# The whole command, build excluded, must end within this many seconds.
RUN_BUDGET_S = 170
# A cold build of the workspace crates.
BUILD_BUDGET_S = 840


def main() -> int:
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_BUDGET_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build did not finish: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    binary = target / "release" / "perfbench"
    cmd = [str(binary), *sys.argv[1:], "--trace-dir", str(target / "perfbench-trace")]
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: run exceeded {RUN_BUDGET_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        print(f"perfbench: run failed after {time.monotonic() - start:.1f} s", file=sys.stderr)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
