"""Record the reference CSV rows that `run.py` compares every pass against.

    python3 perfbench/record_golden.py --seeds 0-63

Runs one pass of each workload per seed and stores its rows in golden.json.
Run it only on a commit whose results are known good: later commits are
checked against what it writes. Rows are recorded only when every other
check on them holds.
"""

from __future__ import annotations

import argparse
import json
import sys

import workloads as wl


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="first-last, inclusive")
    parser.add_argument("--workload", action="append", choices=wl.WORKLOADS)
    args = parser.parse_args(argv)
    first, last = (int(s) for s in args.seeds.split("-"))
    wl.import_ddapprox()
    golden = wl.load_golden()
    for workload in args.workload or wl.WORKLOADS:
        for seed in range(first, last + 1):
            inputs = wl.make_inputs(workload, seed)
            result = wl.run_pass(inputs)
            failures = [m for m in wl.check_pass(inputs, result, None) if m]
            if failures:
                print(f"{workload} seed {seed}: not recorded: {failures}", file=sys.stderr)
                return 1
            golden.setdefault(workload, {})[str(seed)] = result.rows
            wl.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
            print(f"{workload} seed {seed}: {result.sweep_s:.2f} s", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
