#!/usr/bin/env python3
"""Exit-code contract tests for the lbsim command-line tools.

The exit codes are API: scripts and CI jobs branch on them, so they are
pinned here end-to-end against the real binary.

  lbsim_cli:  0 ok, 1 rejected flag (with a one-line message),
              3 watchdog trip (with a parseable JSON hang report next
              to it)

Usage: check_cli.py <lbsim_cli>
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
    """An out-of-range flag exits 1 with a one-line message, never a panic."""
    for flag, value in (("--l1-kb", "0"), ("--sms", "0"),
                        ("--l1-kb", "5000000")):
        proc = run([
            cli, "--app", "S2", "--scheme", "baseline", flag, value,
            "--warmup", "0", "--cycles", "1000", "--no-cache",
        ])
        lines = proc.stderr.strip().splitlines()
        check(f"cli {flag} {value} exits 1", proc.returncode == 1,
              f"rc={proc.returncode} stderr={proc.stderr[-400:]}")
        check(f"cli {flag} {value} explains itself in one line",
              len(lines) == 1 and flag in lines[0], proc.stderr[-400:])


def main():
    if len(sys.argv) != 2:
        print(__doc__)
        return 2
    cli = sys.argv[1]
    with tempfile.TemporaryDirectory(prefix="lbsim_cli_test_") as tmp:
        # Keep every artifact (and the memo cache) inside the sandbox.
        os.environ["LBSIM_CACHE_PATH"] = os.path.join(tmp, "cache.journal")
        test_cli_ok_exit_code(cli, tmp)
        test_cli_hang_exit_code(cli, tmp)
        test_cli_rejects_bad_flags(cli)
    if FAILURES:
        print(f"{len(FAILURES)} check(s) failed: {', '.join(FAILURES)}")
        return 1
    print("all exit-code checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
