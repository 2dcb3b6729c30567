#!/usr/bin/env python3
"""Benchmark for ratsys: one workload per run, checked and timed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload orbit-batch --seed 1 --seconds 30 --trace 0

Workloads: orbit-batch, long-orbit, stability-map (see workloads.py and
perfbench/README.md); BENCHMARK.json lists orbit-batch and stability-map,
and long-orbit is run by name.  The run imports ratsys from the checkout's src/,
builds the workload's inputs from the seed, runs one untimed reference
pass, then repeats the pass for --seconds of timed work.  Every timed pass
must reproduce the reference outputs, and the last one is checked in full
after peak memory is read.

With --trace 0 the last stdout line holds the end-to-end metrics named in
BENCHMARK.json; with --trace 1 it holds the per-layer metrics, taken from
traced passes that alternate with untraced ones.  Earlier stdout lines
give the run record and the workload's own metric names.  The exit code
is 0 whenever a result is printed (its "correct" field reports the
checks) and non-zero, with no result, when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checkout import ROOT, THREAD_CAPS, MissingProgram, cap_threads, import_ratsys

HERE = Path(__file__).resolve().parent
WORK_ROOT = ROOT / ".perfbench_work"
SETUP_PROBES = 12
# On a shared host the same pass (and the same set-up probe) runs at a
# sustained speed with bursts up to ~1.7x faster that come and go over
# seconds.  A high percentile of the pass or probe times tracks the sustained
# speed; the median moves with the share of the run that fell in bursts, and
# the slowest pass drifts with the number of passes (perfbench/README.md).
SUSTAINED_QUANTILE = 90
PROBE_TIMEOUT_S = 60
CLI_COMMANDS = ("simulate", "analyze", "bounds", "rate", "sweep")
STABILITY_CLASSES = ("globally-asymptotically-stable", "locally-asymptotically-stable",
                     "unstable", "inconclusive")

# ROADMAP baseline ranges (2 vCPU Xeon, Python 3.11.7, numpy 2.4.6), per unit
# of work, for comparison with the traced run's per-layer figures.
BASELINE = {
    "dynamics.simulate.ns_per_step": (730.0, 880.0, "0.44 ms / 500 steps, 7.3 ms / 10,000"),
    "analysis.semicycles.ns_per_index": (4573.0, 4573.0, "2.3 ms on a 500-step orbit"),
    "bounds.audit_bounds.ns_per_value": (500.0, 800.0, "0.5-0.8 ms on a 500-step orbit"),
    "stability.classify.us_per_call": (550.0, 760.0, "0.55-0.76 ms per classify"),
    "analysis.find_period2.ms_per_call": (140.0, 165.0, "140-165 ms per 11^4 grid"),
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed work per run, in seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    """Metric names and units, from the BENCHMARK.json beside perfbench/."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def probe_setup(workload: str, seed: int, scale: float, target: Path) -> tuple:
    """Time one fresh interpreter from spawn until ratsys is imported and
    the workload's inputs are built; returns that time and its import times.
    """
    target.mkdir(parents=True)
    env = dict(os.environ)
    cap_threads(env)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "probe.py"), workload, str(seed), repr(scale), str(target)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()}")
    record = json.loads(line)
    return elapsed, record["numpy_s"], record["ratsys_s"]


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, 0 <= q <= 100."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def layer_values(agg: dict, tally, wall_ns: int) -> dict:
    """Per-layer figures of one traced pass."""
    calls, busy = agg["calls"], agg["busy_ns"]
    n = tally.n

    def b(name):
        return busy.get(name, 0) / 1e9

    def c(name):
        return calls.get(name, 0)

    def per(num, den, factor=1.0):
        return num / den * factor if den else 0.0

    v = {
        "dynamics.simulate.calls": c("dynamics.simulate"),
        "dynamics.simulate.busy_s": b("dynamics.simulate"),
        "dynamics.simulate.ns_per_step": per(busy.get("dynamics.simulate", 0), n.get("steps", 0)),
        "dynamics.steps": n.get("steps", 0),
        "dynamics.term.overflow": n.get("term.overflow", 0),
        "dynamics.term.nan": n.get("term.nan", 0),
        "analysis.semicycles.calls": c("analysis.semicycles"),
        "analysis.semicycles.busy_s": b("analysis.semicycles"),
        "analysis.semicycles.ns_per_index": per(busy.get("analysis.semicycles", 0),
                                                n.get("semicycle_indices", 0)),
        "analysis.semicycles.cycles": n.get("cycles", 0),
        "analysis.resolved_prefix.busy_s": b("analysis.resolved_prefix"),
        "analysis.check_semicycle_rule.busy_s": b("analysis.check_semicycle_rule"),
        "analysis.rule.violations": n.get("rule_violations", 0),
        "analysis.classify_oscillation.busy_s": b("analysis.classify_oscillation"),
        "analysis.detect_monotone_tail.busy_s": b("analysis.detect_monotone_tail"),
        "analysis.find_period2.calls": c("analysis.find_period2"),
        "analysis.find_period2.busy_s": b("analysis.find_period2"),
        "analysis.find_period2.converged": n.get("p2_converged", 0),
        "analysis.find_period2.diverged": n.get("p2_diverged", 0),
        "analysis.find_period2.stalled": n.get("p2_stalled", 0),
        "analysis.find_period2.useful_ratio": per(n.get("p2_converged", 0), n.get("p2_starts", 0)),
        "bounds.audit_bounds.calls": c("bounds.audit_bounds"),
        "bounds.audit_bounds.busy_s": b("bounds.audit_bounds"),
        "bounds.audit_bounds.values_checked": n.get("values_checked", 0),
        "bounds.audit_bounds.ns_per_value": per(busy.get("bounds.audit_bounds", 0),
                                                n.get("values_checked", 0)),
        "bounds.violations": n.get("bound_violations", 0),
        "stability.classify.calls": c("stability.classify"),
        "stability.classify.busy_s": b("stability.classify"),
        "stability.classify.us_per_call": per(busy.get("stability.classify", 0),
                                              c("stability.classify"), 1e-3),
        "stability.classify.convergence_errors": n.get("label.convergence-error", 0),
        "stability.eigenvalues.busy_s": b("stability.eigenvalues"),
        "convergence.rate_report.calls": c("convergence.rate_report"),
        "convergence.rate_report.busy_s": b("convergence.rate_report"),
        "convergence.rate_report.insufficient": n.get("rate_insufficient", 0),
        "convergence.usable_norms.mean": (statistics.fmean(tally.usable_norms)
                                          if tally.usable_norms else 0.0),
        "convergence.ratio_root_disagree": n.get("ratio_root_disagree", 0),
        "scenarios.load.busy_s": b("scenarios.load"),
        "cli.bytes_out": n.get("bytes_out", 0),
        "trace.wall_s": wall_ns / 1e9,
        "trace.coverage": per(agg["layer_ns"], wall_ns),
    }
    for label in STABILITY_CLASSES:
        v["stability.label." + label] = n.get("label." + label, 0)
    for command in CLI_COMMANDS:
        # the replay makes the command's calls directly; the rest is the CLI's own
        v[f"cli.{command}.busy_s"] = b("cli." + command)
        v[f"cli.{command}.self_s"] = b("cli." + command) - b("replay." + command)
    replay_ns = sum(ns for name, ns in busy.items() if name.startswith("replay."))
    v["_untraced_equivalent_s"] = (wall_ns - replay_ns) / 1e9
    return v


def run(args, spec, workdir: Path, scale: float, probes: int) -> int:
    ratsys = import_ratsys()
    import numpy
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    probe_dirs = (workdir / f"probe{i}" for i in itertools.count())

    def probe():
        return probe_setup(args.workload, args.seed, scale, next(probe_dirs))

    probe()    # warms bytecode and file caches, as a user's later runs find them
    setups = []
    inputs = workdir / "inputs"
    inputs.mkdir()
    wl = workloads.WORKLOADS[args.workload](args.seed, inputs, scale)

    # the reference pass warms caches; every timed pass must reproduce it
    gc.collect()
    ref = wl.run_pass(spans.NULL_TRACER)
    ref_signatures = wl.signatures(ref)
    del ref
    mismatched = []                      # per timed pass: ops that differ from ref

    plain, traced = [], []
    timed_ns = 0
    last = None
    tracers = (spans.NULL_TRACER, spans.Tracer()) if args.trace else (spans.NULL_TRACER,)
    while timed_ns < args.seconds * 1e9 or not plain:
        for tr in tracers:
            last = None                  # one pass's outputs are held at a time
            gc.collect()
            res = wl.run_pass(tr)
            timed_ns += res.wall_ns
            mismatched.append({i for i, sig in enumerate(wl.signatures(res))
                               if sig != ref_signatures[i]})
            if tr.enabled:
                traced.append(layer_values(spans.aggregate(tr.drain()), res.tally, res.wall_ns))
            else:
                plain.append((res.wall_ns, res.units, res.unit_ns, res.latencies_ns))
            last, res = res, None
        # set-up probes are spread over the run, between passes, so that
        # they sample the same machine states as the passes
        if len(setups) < probes:
            setups.append(probe())
    while len(setups) < probes:
        setups.append(probe())
    # read before the checks, whose own parsing and references are not the program's
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # the last pass is checked in full against independent references; an op
    # fails in every pass if it fails there, and in any pass that differs
    # from the reference pass
    checked = wl.check(last)
    del last
    failures = dict(checked)
    attempted = failed = 0
    for bad in mismatched:
        for i in bad:
            failures.setdefault(i, "output differs from the reference pass")
        attempted += wl.ops_per_pass
        failed += len(bad | checked.keys())
    setup = {"setup_s": percentile([s[0] for s in setups], SUSTAINED_QUANTILE),
             "import.numpy_s": statistics.median(s[1] for s in setups),
             "import.ratsys_s": statistics.median(s[2] for s in setups)}

    latencies_ms = [ns / 1e6 for p in plain for ns in p[3]]
    wall_s = percentile([p[0] / 1e9 for p in plain], SUSTAINED_QUANTILE)
    throughput = plain[0][1] / (percentile([p[2] for p in plain], SUSTAINED_QUANTILE) / 1e9)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": {"reference": 1, "untraced": len(plain),
                                        "traced": len(traced)},
        "cpu": cpu_model(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "ratsys": ratsys.__version__, "git_revision": git_revision(),
        "thread_caps": THREAD_CAPS,
        # the checks run after peak_rss_mb is read; this is the peak with them
        "peak_rss_mb_after_checks": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print("run_record " + json.dumps(record, sort_keys=True))
    print(f"ops: attempted {attempted}, failed {failed}, "
          f"ops_failed_frac {failed / attempted!r}")
    for i, reason in sorted(failures.items())[:5]:
        print(f"failed op {i}: {reason}", file=sys.stderr)

    if args.trace:
        values = {name: statistics.median(t[name] for t in traced) for name in traced[0]}
        untraced_eq = values.pop("_untraced_equivalent_s")
        values.update({k: setup[k] for k in ("import.numpy_s", "import.ratsys_s")})
        plain_wall = statistics.median(p[0] / 1e9 for p in plain)
        values["trace.overhead_frac"] = (untraced_eq - plain_wall) / plain_wall
        values["op.p50_ms"] = percentile(latencies_ms, 50)
        values["op.p99_ms"] = percentile(latencies_ms, 99)
        values["op.samples"] = len(latencies_ms)
        print_layers(values)
    else:
        values = {"setup_s": setup["setup_s"], "wall_s": wall_s,
                  "throughput_per_s": throughput, "peak_rss_mb": peak_rss_mb}
        print("named " + json.dumps(named_metrics(wl, values, spec[0], latencies_ms,
                                                  attempted, failed)))

    units = spec[args.trace]
    if set(values) != set(units):
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: "
                           f"{sorted(set(values) ^ set(units))}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def named_metrics(wl, values, units, latencies_ms, attempted, failed) -> dict:
    """The workload's metrics under their own names (orbits_per_s,
    steps_per_s, nodes_per_s, per-op latencies with their sample counts),
    each with its unit; BENCHMARK.json carries the generic names."""
    out = {name: {"value": values[name], "unit": units[name]}
           for name in ("setup_s", "wall_s", "peak_rss_mb")}
    out["ops_failed_frac"] = {"value": failed / attempted, "unit": "1",
                              "attempted": attempted, "failed": failed}
    rate = {"value": values["throughput_per_s"], "unit": units["throughput_per_s"]}
    n = len(latencies_ms)

    def latency(q):
        return {"value": percentile(latencies_ms, q), "unit": "ms", "samples": n}

    if wl.name == "orbit-batch":
        out["orbits_per_s"] = rate
        out["orbit_p50_ms"] = latency(50)
        out["orbit_p99_ms"] = latency(99)
    elif wl.name == "long-orbit":
        out["steps_per_s"] = rate
        out["command_p50_ms"] = latency(50)
    else:
        out["nodes_per_s"] = rate
        out["period2_p50_ms"] = latency(50)
    return out


def print_layers(values: dict) -> None:
    """Busy time per layer, largest first, and the ROADMAP comparison."""
    busy = {k[:-len(".busy_s")]: v for k, v in values.items()
            if k.endswith(".busy_s") and v > 0 and not k.startswith("cli.")}
    for command in CLI_COMMANDS:
        if values[f"cli.{command}.busy_s"] > 0:
            busy[f"cli.{command} (own)"] = values[f"cli.{command}.self_s"]
    total = sum(busy.values())
    print("layers (s per traced pass, share of the named layers' time): " + ", ".join(
        f"{name} {sec:.4f} ({sec / total:.0%})"
        for name, sec in sorted(busy.items(), key=lambda kv: -kv[1])))
    calls = values["analysis.find_period2.calls"]
    derived = dict(values)
    derived["analysis.find_period2.ms_per_call"] = (
        values["analysis.find_period2.busy_s"] / calls * 1e3 if calls else 0.0)
    for name, (lo, hi, note) in BASELINE.items():
        if derived[name] > 0:
            print(f"baseline {name}: {derived[name]:.1f}, ROADMAP {lo:g}-{hi:g} ({note}), "
                  f"ratio to its midpoint {2 * derived[name] / (lo + hi):.2f}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def main(argv=None, scale: float = 1.0, probes: int = SETUP_PROBES) -> int:
    """Run one workload; `scale` shrinks the inputs for the self-test."""
    args = parse_args(argv)
    try:
        spec = load_spec()
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    cap_threads()                        # before numpy is imported
    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        workdir.mkdir(parents=True)
        return run(args, spec, workdir, scale, probes)
    except MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
