"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is what a user pays before the first call into the workload: import
svealab.cli (with numpy and scipy), resolve settings, and build the grid and
initial state.  The clock starts at this script's first statement.

    python3 perfbench/setup_probe.py <checkout root> <workload> <argv as JSON>
"""

import time

_start = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from workloads import WORKLOADS  # noqa: E402

root, workload, argv = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path.insert(0, f"{root}/src")
import svealab.cli  # noqa: E402,F401

WORKLOADS[workload].setup(argv)
print(repr(time.perf_counter() - _start))
