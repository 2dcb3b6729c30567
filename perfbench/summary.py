#!/usr/bin/env python3
"""Run every workload once, each in a fresh process, and print one table.

This covers long-orbit too, which BENCHMARK.json does not list.

Run from the repository root:

    python3 perfbench/summary.py --seed 1 [--seconds N]

For each workload it prints the end-to-end metrics under the workload's
own names with their units, and the ops attempted and failed.  --seconds
defaults to BENCHMARK.json's run_seconds.  The layer split comes from
`perfbench/run.py --trace 1`.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from checkout import import_ratsys

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    import_ratsys()
    from workloads import WORKLOADS
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"{workload}: exit code {proc.returncode}")
        lines = proc.stdout.splitlines()
        result = json.loads(lines[-1])
        named = json.loads(next(line[len("named "):] for line in lines
                                if line.startswith("named ")))
        print(f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for name, metric in named.items():
            extra = ", ".join(f"{k} {v}" for k, v in metric.items() if k not in ("value", "unit"))
            print(f"  {name:<16} {metric['value']:>14.6g} {metric['unit']:<4} {extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
