#!/usr/bin/env python3
"""Build and run the radiocast end-to-end benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload decay-gnp-dense --seed 1 --seconds 20 --trace 0

It configures and builds perfbench/ (which compiles the library from the
checkout's own sources) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the perfbench binary. Build output goes to
stderr; the last line of stdout is the binary's result object. Extra
flags (--scale tiny, --expect-digest HEX) pass through to the binary.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def git_rev(root):
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def build(root, build_dir):
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    parser.add_argument("--expect-digest", default="")
    args = parser.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        fail(f"{root} is not a radiocast source checkout (no CMakeLists.txt or src/)")
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = (target if target.is_absolute() else root / target) / "perfbench"
    binary = build(root, build_dir)

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--scale", args.scale,
           "--out", str(build_dir / "out"), "--rev", git_rev(root)]
    if args.expect_digest:
        cmd += ["--expect-digest", args.expect_digest]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=root).returncode)


if __name__ == "__main__":
    main()
