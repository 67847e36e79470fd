#!/usr/bin/env python3
"""Build and run the rtft end-to-end benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --selfcheck

Run from the root of an rtft source tree. The first call configures and
builds the benchmark (Release) under .bench_build/ (or $CARGO_TARGET_DIR
when set); later calls rebuild only what changed. Result documents and
span logs go to .bench_out/. The last line of stdout is the run's JSON
summary; the exit status is nonzero when a correctness gate fails, the
build fails, or the run reports other metrics than BENCHMARK.json
declares.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep-exec", "sweep-analysis", "admission-mixed")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no rtft sources (CMakeLists.txt, src/) next to the benchmark")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    # One build at a time per build directory.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_build_step(cmd)
        run_build_step(["cmake", "--build", out, "--target", "e2ebench",
                        "-j", "4"])
    return os.path.join(out, "e2ebench")


def run_build_step(cmd):
    # Build chatter goes to stderr: stdout ends with the JSON summary.
    done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        fail(f"build step failed: {' '.join(cmd)}")


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources, in path order."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", os.path.basename(HERE)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, f) for f in sorted(filenames)
                      if not f.endswith(".pyc")]
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def declared_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.selfcheck:
        sys.exit(subprocess.run([binary, "--selfcheck"]).returncode)
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", os.path.join(ROOT, ".bench_out"),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 1)
    lines = done.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        fail("the benchmark printed no result", 1)
    summary = json.loads(lines[-1])

    declared = declared_metrics(args.trace == 1)
    if declared is not None:
        reported = {k: v["unit"] for k, v in summary["metrics"].items()}
        if reported != declared:
            print(lines[-1])
            fail("reported metrics differ from BENCHMARK.json", 1)
    print(lines[-1])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
