#!/usr/bin/env python3
"""Exit-code contract tests for the lbsim command-line tools.

The exit codes are API: scripts and CI jobs branch on them, so they are
pinned here end-to-end against the real binary.

  lbsim_cli:  0 ok, 1 rejected or unknown flag (with a one-line
              message),
              3 watchdog trip (with a parseable JSON hang report next
              to it)
  benches:    1 missing, malformed or out-of-range --threads/--sms
              value (with a one-line message, before a later --help
              is read)

Usage: check_cli.py <lbsim_cli> <bench binary, e.g. bench_table1_config>
"""

import json
import os
import subprocess
import sys
import tempfile

FAILURES = []


def check(name, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print(f"[{status}] {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        FAILURES.append(name)


def run(cmd, **kwargs):
    return subprocess.run(cmd, capture_output=True, text=True, **kwargs)


def test_cli_hang_exit_code(cli, tmp):
    """A wedged run exits 3 and writes a parseable JSON hang report."""
    plan = os.path.join(tmp, "wedge.fault")
    with open(plan, "w") as f:
        # An interconnect wedge from cycle 0: every response is delayed
        # past the cycle budget, so the watchdog must trip.
        f.write("fault=icnt-delay,0,1000000000,1000000000\n")
    report = os.path.join(tmp, "hang.json")
    proc = run([
        cli, "--app", "GA", "--scheme", "baseline", "--sms", "1",
        "--warmup", "0", "--cycles", "120000", "--timeout-cycles", "8000",
        "--no-cache", "--fault-plan", plan, "--hang-report", report,
    ])
    check("cli wedged run exits 3", proc.returncode == 3,
          f"rc={proc.returncode} stderr={proc.stderr[-400:]}")
    try:
        with open(report) as f:
            doc = json.load(f)
        check("hang report parses as JSON", True)
        check("hang report names the trip",
              "watchdog" in json.dumps(doc).lower(), json.dumps(doc)[:200])
    except (OSError, ValueError) as e:
        check("hang report parses as JSON", False, str(e))


def test_cli_ok_exit_code(cli, tmp):
    """A healthy smoke run exits 0."""
    proc = run([
        cli, "--app", "S2", "--scheme", "baseline", "--sms", "1",
        "--warmup", "20000", "--cycles", "30000", "--no-cache", "--csv",
    ])
    check("cli healthy run exits 0", proc.returncode == 0,
          f"rc={proc.returncode} stderr={proc.stderr[-400:]}")


def test_cli_rejects_bad_flags(cli):
    """A bad or unknown flag exits 1 with a one-line message naming it,
    before any simulation runs, never a panic or a silent default."""
    for flag, value in (("--l1-kb", "0"), ("--sms", "0"),
                        ("--l1-kb", "5000000"),
                        ("--cycles", "abc"), ("--warmup", "1e5"),
                        ("--timeout-cycles", "-1"), ("--warp-limit", "0"),
                        ("--threads", "4x"),
                        ("--bogus-flag", "3"),
                        # The removed parallel SM engine's flag is now
                        # just an unknown flag, not a silent no-op.
                        ("--sm-threads", "4")):
        base = {"--warmup": "0", "--cycles": "1000"}
        base.pop(flag, None)
        proc = run([
            cli, "--app", "S2", "--scheme", "baseline", flag, value,
            *(arg for item in base.items() for arg in item), "--no-cache",
        ])
        lines = proc.stderr.strip().splitlines()
        check(f"cli {flag} {value} exits 1", proc.returncode == 1,
              f"rc={proc.returncode} stderr={proc.stderr[-400:]}")
        check(f"cli {flag} {value} explains itself in one line",
              len(lines) == 1 and flag in lines[0], proc.stderr[-400:])


def test_cli_rejects_repeated_flag(cli):
    """Only a flag's first occurrence is read, so a second one exits 1
    instead of being silently ignored."""
    proc = run([
        cli, "--app", "S2", "--scheme", "baseline", "--warmup", "0",
        "--cycles", "1000", "--cycles", "abc", "--no-cache",
    ])
    lines = proc.stderr.strip().splitlines()
    check("cli repeated --cycles exits 1", proc.returncode == 1,
          f"rc={proc.returncode} stderr={proc.stderr[-400:]}")
    check("cli repeated --cycles explains itself in one line",
          len(lines) == 1 and "--cycles" in lines[0], proc.stderr[-400:])


def test_bench_rejects_bad_values(bench, tmp):
    """The shared bench arguments reject a value that is not a number in
    range with exit 1 and a one-line message naming the flag, instead
    of reading it as 0 ("hardware threads" / "the 2-SM slice")."""
    for args, flag in ((["--sms", "abc"], "--sms"),
                       (["--sms", "0"], "--sms"),
                       (["--sms", "4294967296"], "--sms"),
                       (["--threads", "xyz"], "--threads"),
                       (["--threads", "-1"], "--threads"),
                       # --threads 0 still means "auto", so the --sms
                       # after it is the value that is refused.
                       (["--threads", "0", "--sms", "2x"], "--sms"),
                       (["--sms", "abc", "--threads", "xyz", "--help"],
                        "--sms")):
        proc = run([bench, *args, "--no-json"], cwd=tmp)
        name = "bench " + " ".join(args)
        lines = proc.stderr.strip().splitlines()
        check(f"{name} exits 1", proc.returncode == 1,
              f"rc={proc.returncode} stderr={proc.stderr[-400:]}")
        check(f"{name} explains itself in one line",
              len(lines) == 1 and flag in lines[0], proc.stderr[-400:])
    # A flag with no value after it is a missing value, not an unknown
    # flag (which would exit 2 with the usage text).
    for flag in ("--threads", "--sms"):
        proc = run([bench, "--no-json", flag], cwd=tmp)
        name = f"bench {flag} without a value"
        lines = proc.stderr.strip().splitlines()
        check(f"{name} exits 1", proc.returncode == 1,
              f"rc={proc.returncode} stderr={proc.stderr[-400:]}")
        check(f"{name} explains itself in one line",
              len(lines) == 1 and flag in lines[0], proc.stderr[-400:])


def main():
    if len(sys.argv) != 3:
        print(__doc__)
        return 2
    cli, bench = sys.argv[1], sys.argv[2]
    with tempfile.TemporaryDirectory(prefix="lbsim_cli_test_") as tmp:
        # Keep every artifact (and the memo cache) inside the sandbox.
        os.environ["LBSIM_CACHE_PATH"] = os.path.join(tmp, "cache.journal")
        test_cli_ok_exit_code(cli, tmp)
        test_cli_hang_exit_code(cli, tmp)
        test_cli_rejects_bad_flags(cli)
        test_cli_rejects_repeated_flag(cli)
        test_bench_rejects_bad_values(bench, tmp)
    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed: {', '.join(FAILURES)}")
        return 1
    print("all exit-code checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
