"""One set-up, timed in a fresh interpreter; prints the seconds it took.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Set-up is importing ddapprox (and numpy with it), generating the workload's
inputs from the seed and constructing a package: everything before a state
is built. `run.py` starts this several times and reports the median.
"""

import sys
import time

t0 = time.perf_counter()
import workloads as wl  # noqa: E402  (the import is part of what is timed)

wl.import_ddapprox().DDPackage()
wl.make_inputs(sys.argv[1], int(sys.argv[2]), write=False)
print(repr(time.perf_counter() - t0))
