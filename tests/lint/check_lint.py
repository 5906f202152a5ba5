#!/usr/bin/env python3
"""Fixture-driven tests for the lbsim lint suite.

The oracle is embedded in the fixtures themselves: every line that a
check must flag carries a trailing `// EXPECT(check-name)` comment, and
a fixture with no EXPECT comments must come out silent.

  fixtures       run tools/lint/lbsim_lint.py over the corpus and
                 compare (file, line, check) triples against EXPECTs
  tree           run the lint over the real source tree with production
                 settings; any finding fails (the tree is kept
                 finding-clean)
  thread-safety  compile the thread_safety_{good,bad}.cpp fixtures with
                 clang -Wthread-safety -Werror; good must pass, bad must
                 fail. Exits 77 (ctest SKIP_RETURN_CODE) when no clang
                 is on the PATH.

Exit status: 0 pass, 1 fail, 77 skipped, 2 usage/environment error.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
FIXTURE_DIR = os.path.join(HERE, "fixtures")
LINT_PY = os.path.join(REPO, "tools", "lint", "lbsim_lint.py")

EXPECT_RE = re.compile(r"//\s*EXPECT\(([\w-]+)\)")
FINDING_RE = re.compile(r"^(.+?):(\d+):\d+:\s+warning:.*\[([\w-]+)\]")

SKIP = 77


def lint_fixtures():
    """Fixture files for the lint checks (thread-safety fixtures are
    compile tests, not lint inputs)."""
    names = sorted(f for f in os.listdir(FIXTURE_DIR)
                   if f.endswith(".cpp")
                   and not f.startswith("thread_safety"))
    return [os.path.join(FIXTURE_DIR, f) for f in names]


def expectations(paths):
    expected = set()
    for path in paths:
        with open(path, "r", encoding="utf-8") as f:
            for line_no, line in enumerate(f, start=1):
                for m in EXPECT_RE.finditer(line):
                    expected.add((os.path.basename(path), line_no,
                                  m.group(1)))
    return expected


def parse_findings(output):
    found = set()
    for line in output.splitlines():
        m = FINDING_RE.match(line.strip())
        if m:
            found.add((os.path.basename(m.group(1)), int(m.group(2)),
                       m.group(3)))
    return found


def compare(expected, found):
    missing = sorted(expected - found)
    surplus = sorted(found - expected)
    for item in missing:
        print("MISSING  %s:%d [%s]  (lint did not report it)"
              % (item[0], item[1], item[2]))
    for item in surplus:
        print("SURPLUS  %s:%d [%s]  (lint reported it, no EXPECT)"
              % (item[0], item[1], item[2]))
    if missing or surplus:
        return 1
    print("PASS: lint matched all %d expectations" % len(expected))
    return 0


def cmd_fixtures(_args):
    paths = lint_fixtures()
    if not paths:
        print("no fixtures under %s" % FIXTURE_DIR)
        return 2
    cmd = [sys.executable, LINT_PY, "--model-dirs", ""] + paths
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        sys.stderr.write(proc.stderr)
        print("lint exited %d" % proc.returncode)
        return 2
    return compare(expectations(paths), parse_findings(proc.stdout))


def cmd_tree(_args):
    files = []
    for root, dirs, names in os.walk(os.path.join(REPO, "src")):
        dirs.sort()
        for name in sorted(names):
            if name.endswith((".cpp", ".hpp", ".h")):
                files.append(os.path.relpath(
                    os.path.join(root, name), REPO))
    cmd = [sys.executable, LINT_PY] + files
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=REPO)
    if proc.returncode == 0:
        print("PASS: source tree is finding-clean (%d files)"
              % len(files))
        return 0
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    print("FAIL: the tree must stay finding-clean; fix the findings "
          "above or suppress with // NOLINT(check) and a rationale")
    return 1


def cmd_thread_safety(args):
    compiler = args.compiler or shutil.which("clang++")
    if not compiler or not shutil.which(compiler):
        print("SKIP: no clang++ on PATH (thread-safety analysis is "
              "clang-only)")
        return SKIP
    base = [compiler, "-fsyntax-only", "-std=c++20", "-Wthread-safety",
            "-Werror", "-I", os.path.join(REPO, "src")]
    good = os.path.join(FIXTURE_DIR, "thread_safety_good.cpp")
    bad = os.path.join(FIXTURE_DIR, "thread_safety_bad.cpp")

    proc = subprocess.run(base + [good], capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print("FAIL: thread_safety_good.cpp must compile cleanly")
        return 1

    proc = subprocess.run(base + [bad], capture_output=True, text=True)
    if proc.returncode == 0:
        print("FAIL: thread_safety_bad.cpp compiled; -Wthread-safety "
              "did not fire")
        return 1
    if "thread-safety" not in proc.stderr:
        sys.stderr.write(proc.stderr)
        print("FAIL: thread_safety_bad.cpp failed for a reason other "
              "than -Wthread-safety")
        return 1
    print("PASS: -Wthread-safety accepts the good fixture and rejects "
          "the bad one")
    return 0


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="mode", required=True)

    fx = sub.add_parser("fixtures", help="fixture corpus vs. EXPECTs")
    fx.set_defaults(func=cmd_fixtures)

    tr = sub.add_parser("tree", help="whole-tree finding-clean check")
    tr.set_defaults(func=cmd_tree)

    ts = sub.add_parser("thread-safety",
                        help="clang -Wthread-safety fixture compile")
    ts.add_argument("--compiler", default="",
                    help="clang++ binary (default: first on PATH)")
    ts.set_defaults(func=cmd_thread_safety)

    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
