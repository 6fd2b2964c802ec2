#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload <repro|session|chaos-rr|fleet-warm> \\
        --seed <n> --seconds <n> --trace <0|1>

Run it from the repository root. It builds the `harmonia-perfbench` package
from source (release profile, offline, into `$CARGO_TARGET_DIR`, default
`perfbench/target`), then runs one workload in its own process and passes
its output through: human-readable lines, then one JSON result line. It
exits non-zero, printing no result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run ends well inside three minutes; anything longer is a hang.
RUN_TIMEOUT_S = 170


def revision():
    """The git revision of the checkout, or "unversioned" outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
        return out.stdout.strip() or "unversioned"
    except (OSError, subprocess.SubprocessError):
        return "unversioned"


def main(argv):
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", os.path.join("perfbench", "target")))
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "--target-dir", target,
        ],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "harmonia-perfbench")
    try:
        run = subprocess.run(
            [binary, *argv, "--rev", revision()],
            cwd=ROOT,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
