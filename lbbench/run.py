#!/usr/bin/env python3
"""Build and run the lbsim benchmark.

    python3 lbbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 lbbench/run.py --verify-wiring [--workload <name|all>] [--seed <n>]
                           [--write-digests]

Run from the root of a checkout. The first call configures and builds the
simulator library and the lbbench executable from source (RelWithDebInfo,
the repository's default LBSIM_CHECKS=full and LTO) into the directory
named by $CARGO_TARGET_DIR, or .bench_build by default; later calls only
rebuild what changed. Build output goes to stderr, so the last line of
stdout is always the benchmark's JSON result. Spans of a traced run are
written under .bench_out/.

Exit codes: 0 ok, 1 an output check failed, 2 bad usage or a missing or
unbuildable source tree (no result line is printed), 3 the run timed out.
"""

import argparse
import hashlib
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# The benchmark contract: a run ends within 180 s.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def fail(message, code=2):
    print(f"lbbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_id():
    """Git commit when available, else a digest of the source tree."""
    try:
        top, sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        # Only this checkout's own repository, not an enclosing one.
        if os.path.samefile(top, ROOT):
            return "git:" + sha
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "lbbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, _, names in os.walk(path) for f in names
        )
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def build(build_dir):
    """Configure (once) and build lbbench; returns the executable path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        fail(f"no lbsim source tree at {ROOT}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "--target", "lbbench",
                  "-j", jobs])
    for step in steps:
        try:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                    timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as error:
            fail(f"build step failed: {error}")
        if result.returncode != 0:
            fail(f"build step failed ({result.returncode}): {' '.join(step)}")
    exe = os.path.join(build_dir, "lbbench")
    if not os.path.isfile(exe):
        fail(f"build produced no {exe}")
    return exe


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # Values are validated by the lbbench executable, which knows the
    # workloads; it exits 2 with a usage message on bad input.
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--verify-wiring", action="store_true")
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()
    if args.workload is None:
        if not args.verify_wiring:
            fail("--workload is required")
        args.workload = "all"

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    exe = build(build_dir)

    command = [exe, "--workload", args.workload, "--seed", args.seed,
               "--digests", os.path.join(BENCH_DIR, "digests")]
    if args.verify_wiring:
        command.append("--verify-wiring")
        if args.write_digests:
            command.append("--write-digests")
    else:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        command += ["--seconds", args.seconds, "--trace", args.trace,
                    "--out", out_dir,
                    "--source", source_id()]
    sys.stdout.flush()
    timeout = None if args.verify_wiring else RUN_TIMEOUT_S
    try:
        result = subprocess.run(command, cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout} s", code=3)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
