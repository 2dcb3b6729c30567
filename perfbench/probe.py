"""Set-up probe: a fresh interpreter imports numpy and ratsys, builds one
workload's inputs, and prints its import times as one JSON line.

Usage: python3 perfbench/probe.py <workload> <seed> <scale> <workdir>
"""

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
import numpy  # noqa: E402,F401

t1 = time.perf_counter()
from checkout import import_ratsys  # noqa: E402

import_ratsys()
t2 = time.perf_counter()
import workloads  # noqa: E402

name, seed, scale, workdir = sys.argv[1:5]
workloads.WORKLOADS[name](int(seed), Path(workdir), float(scale))
print(json.dumps({"numpy_s": t1 - t0, "ratsys_s": t2 - t1}), flush=True)
