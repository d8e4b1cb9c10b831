#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) built offline against the repository's
crates into $CARGO_TARGET_DIR (default .bench_build). The last line of
standard output is the result JSON; build output goes to standard
error. Exits non-zero without a result when the crates are missing,
the build fails or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("image_gamma", "image_contrast")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_id():
    """The commit when the root is a git work tree, else a digest of the
    sources the benchmark builds from."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if len(top) == 2 and os.path.realpath(top[0]) == os.path.realpath(ROOT):
            return "git:" + top[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for base in ("crates", "perfbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, base))):
            dirs[:] = sorted(d for d in dirs if d != "target")
            for name in sorted(files):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(directory, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "tree:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if not 0 < args.seconds <= 120:
        fail(f"--seconds {args.seconds} is outside (0, 120]")

    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    for needed in (manifest, os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        if not os.path.isfile(needed):
            fail(f"{os.path.relpath(needed, ROOT)} is missing; run from a full checkout")

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--manifest-path", manifest, "--bins"],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if build.returncode != 0:
        fail(f"build failed with exit code {build.returncode}")

    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--worker", os.path.join(release, "perfbench_worker"),
        "--commit", source_id(),
    ]
    proc = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"run failed with exit code {proc.returncode}")
    sys.stdout.write(out)


if __name__ == "__main__":
    main()
