#!/usr/bin/env python3
"""Build and run the colscore benchmark.

Run from the root of a colscore checkout:

    python3 colbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The first call configures and builds colbench (a Release build of the
library plus the benchmark program in colbench/src) under $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls only rebuild what changed. The
program's output is passed through: human-readable lines, then one JSON line
with the metrics. With --trace 1 the Chrome trace-event JSON of the traced
run is written next to the build, under traces/.

Exit status: the program's (0 only when every correctness check passed);
2 when the checkout holds no colscore sources, 3 when the build fails.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 175


def fail(code: int, message: str) -> None:
    print(f"colbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id(root: str) -> str:
    """Digest of the library sources and build file: names the measured code
    even where the checkout is not a git repository."""
    digest = hashlib.sha1()
    paths = [os.path.join(root, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(root, "src")):
        dirs.sort()
        paths += [os.path.join(base, f) for f in sorted(files)]
    for path in paths:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build(root: str, build_dir: str) -> str:
    """Configures (when the sources changed) and builds; returns the binary."""
    sid = source_id(root)
    stamp = os.path.join(build_dir, "source_id")
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    configured = os.path.exists(os.path.join(build_dir, "CMakeCache.txt"))
    if configured and os.path.exists(stamp):
        with open(stamp) as f:
            configured = f.read() == sid
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not configured:
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release", f"-DCOLBENCH_SOURCE_ID={sid}"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "colbench"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail(3, f"build failed: {' '.join(cmd)} (log: {log_path})")
    with open(stamp, "w") as f:
        f.write(sid)
    return os.path.join(build_dir, "colbench")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test sizes (self-test only)")
    args = parser.parse_args()

    root = os.getcwd()
    if not (os.path.isdir(os.path.join(root, "src")) and
            os.path.isfile(os.path.join(root, "CMakeLists.txt"))):
        fail(2, "run from the root of a colscore checkout (no src/ or CMakeLists.txt here)")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(target), "colbench")
    binary = build(root, build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(4, f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
