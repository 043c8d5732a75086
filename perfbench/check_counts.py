"""Test that the traced run's counts are exact: two runs, one seed, same counts.

    python3 perfbench/check_counts.py [--workload NAME ...] [--seed N]

Runs `run.py --trace 1` twice per workload in fresh interpreters and fails
(exit 1) unless every count metric (value-table lookups and inserts,
make_node calls, eliminate calls, walk visits, ...) is identical in both runs
and both runs report correct output. Times are expected to differ and are
not compared.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
import workloads as wl


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(wl.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: {result['failed']} failed checks: {proc.stderr}")
    return {name: result["metrics"][name]["value"] for name in run.COUNTS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    bad = 0
    for workload in args.workload or wl.WORKLOADS:
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        for name, value in first.items():
            if second[name] != value:
                bad += 1
                print(f"FAIL {workload} {name}: {value} then {second[name]}")
        print(f"{workload}: {len(first)} counts compared", flush=True)
    print("FAIL" if bad else "PASS")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
