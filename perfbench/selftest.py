#!/usr/bin/env python3
"""Self-test of the benchmark's checks: injects each fault the checks look
for and shows that the benchmark then exits non-zero, naming the check.

    python3 perfbench/selftest.py

Run from the repository root (it builds through perfbench/run.py). Exits 0
when every fault was caught by the checks expected to catch it.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (fault, workload, checks that must report FAILED)
CASES = [
    ("corrupt", "miss", ["payload"]),
    ("shed", "miss", ["status"]),
    ("error", "miss", ["status"]),
    ("conserve", "hit", ["conservation"]),
    ("count", "hit", ["picks", "hit.preload"]),
    ("count", "miss", ["picks", "miss.calls"]),
    ("expire", "hit", ["hit.window"]),
    ("dupfetch", "churn", ["single_flight"]),
    ("lostcalls", "churn", ["churn.bounds"]),
    ("inflatecalls", "churn", ["churn.bounds"]),
]


def run(fault: str, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "3", "--trace", "0", "--fault", fault],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def main() -> int:
    clean = run("none", "hit")
    ok = clean.returncode == 0
    print(f"{'none':12s} {'hit':6s} exit {clean.returncode}: "
          f"{'passes' if ok else 'FAILS without a fault'}")
    for fault, workload, expected in CASES:
        done = run(fault, workload)
        failed = [line.split()[2] for line in done.stderr.splitlines()
                  if line.startswith("perfbench: check ") and " FAILED" in line]
        caught = done.returncode not in (0, 2) and all(c in failed for c in expected)
        ok = ok and caught
        print(f"{fault:12s} {workload:6s} exit {done.returncode}: failed checks {failed} "
              f"-> {'caught' if caught else 'NOT CAUGHT (expected ' + ', '.join(expected) + ')'}")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
