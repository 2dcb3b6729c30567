"""The benchmark's three workloads: seeded inputs, one timed pass, checks.

Each workload builds its inputs once from the seed, then runs the same
pass over them again and again.  A pass returns per-op latencies and the
outputs the checks read; checks run outside the timed region.  Every pass
must reproduce the first pass's outputs exactly, and the last pass of a
run is checked in full against independent references.

With a live tracer a pass also records a span around each public call it
makes into the package.  CLI commands run in-process through
``ratsys.cli.main``; in a traced pass each command is followed by a
direct-call replay of the same inputs, so the layers inside the command
can be timed without touching the program.
"""

from __future__ import annotations

import io
import json
import time
import traceback
from contextlib import redirect_stderr
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ratsys import analysis, bounds, cli, convergence, dynamics, scenarios, stability
from ratsys.errors import ConvergenceError, InsufficientDataError

FIRST_INDEX = -2           # orbits hold indices -2, -1, 0, 1, ...
RADIUS_TOL = 1e-12         # sweep radius against numpy.linalg.eigvals
RADIUS_BAND = 2e-6         # around rho = 1, where any verdict is accepted
MODULUS_TOL = 1e-9         # rate's matched modulus against numpy moduli
RATIO_ROOT_TOL = 1e-2      # acceptance criterion 8's |ratio - root| bound
ENVELOPE_SLACK = 1e-9      # the audit's default slack above the envelope

clock = time.perf_counter_ns


@dataclass
class PassResult:
    """One pass: op latencies, outputs for the checks, and work done."""

    latencies_ns: list[int]
    outputs: list                  # one entry per op, in op order
    units: int                     # orbits, orbit steps, or sweep nodes
    unit_ns: int                   # time spent producing those units
    wall_ns: int                   # the whole pass
    tally: "Tally | None" = None   # work counts, kept for traced passes


@dataclass
class Failed:
    """An op that raised instead of returning."""

    error: str

    def signature(self):
        return ("error", self.error)


def _capture_failure() -> Failed:
    return Failed(traceback.format_exc(limit=4))


# --------------------------------------------------------------------------
# Independent references used by the checks


def naive_orbit(alpha, p, q, x_init, y_init, n_steps, cap):
    """Plain loop over the recurrence, written apart from the package.

    Stops where the package documents truncation: a power that overflows
    or a value above `cap` ("overflow"), a value not above alpha ("nan").
    """
    xs = [float(v) for v in x_init]
    ys = [float(v) for v in y_init]
    for k in range(1, n_steps + 1):
        try:
            x = alpha + (ys[-1] / ys[-3]) ** p
            y = alpha + (xs[-1] / xs[-3]) ** q
        except OverflowError:
            return xs, ys, ("overflow", k)
        if x > cap or y > cap:
            return xs, ys, ("overflow", k)
        if not (x > alpha and y > alpha):
            return xs, ys, ("nan", k)
        xs.append(x)
        ys.append(y)
    return xs, ys, ("completed", None)


def linearization(alpha, p, q) -> np.ndarray:
    """Jacobians at the fixed point for arrays of parameters, shape (N, 6, 6).

    State order (x[n], x[n-1], x[n-2], y[n], y[n-1], y[n-2]).
    """
    alpha, p, q = (np.atleast_1d(np.asarray(v, dtype=np.float64)) for v in (alpha, p, q))
    u = p / (alpha + 1.0)
    v = q / (alpha + 1.0)
    a = np.zeros((len(alpha), 6, 6))
    a[:, 0, 3], a[:, 0, 5] = u, -u
    a[:, 3, 0], a[:, 3, 2] = v, -v
    a[:, 1, 0] = a[:, 2, 1] = a[:, 4, 3] = a[:, 5, 4] = 1.0
    return a


def eig_moduli(alpha, p, q) -> np.ndarray:
    return np.abs(np.linalg.eigvals(linearization(alpha, p, q)))


def component_runs_problem(starts, lengths, positive, values, bar) -> str | None:
    """Per-component semi-cycles must partition the orbit, alternate in
    sign, and carry the sign of the values they cover."""
    starts = np.asarray(starts, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    positive = np.asarray(positive, dtype=bool)
    if len(starts) == 0 or starts[0] != FIRST_INDEX or np.any(lengths < 1):
        return "runs do not start at the first index"
    if lengths.sum() != len(values) or np.any(starts[1:] != starts[:-1] + lengths[:-1]):
        return "runs do not partition the indices"
    if np.any(positive[1:] == positive[:-1]):
        return "run signs do not alternate"
    if not np.array_equal(np.repeat(positive, lengths), np.asarray(values) >= bar):
        return "run sign disagrees with the values"
    return None


def joint_runs_problem(starts, lengths, positive, xs, ys, bar) -> str | None:
    """Joint semi-cycles must be ordered, maximal, and cover exactly the
    indices where both components sit on their run's side."""
    starts = np.asarray(starts, dtype=np.int64) - FIRST_INDEX
    lengths = np.asarray(lengths, dtype=np.int64)
    positive = np.asarray(positive, dtype=bool)
    px = np.asarray(xs) >= bar
    py = np.asarray(ys) >= bar
    if len(starts) == 0:
        return None if not np.any(px == py) else "agreeing indices left uncovered"
    ends = starts + lengths
    if np.any(lengths < 1) or starts[0] < 0 or ends[-1] > len(px) \
            or np.any(starts[1:] < ends[:-1]):
        return "joint runs overlap or leave the orbit"
    touching = starts[1:] == ends[:-1]
    if np.any(touching & (positive[1:] == positive[:-1])):
        return "joint runs are not maximal"
    offsets = np.arange(lengths.sum()) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    idx = np.repeat(starts, lengths) + offsets
    sign = np.repeat(positive, lengths)
    if not (np.all(px[idx] == sign) and np.all(py[idx] == sign)):
        return "joint run covers an index off its side"
    if len(idx) != np.count_nonzero(px == py):
        return "agreeing indices left uncovered"
    return None


def envelope_problem(violations, alpha, p, q, xs, ys) -> str | None:
    """Audit violations the envelope theorem does not excuse.

    `xs`, `ys` hold the orbit from index -2.  The envelope steps each even
    or odd branch by x[k+2] <= a*x[k] + B.  The step from index 2 to index
    4 divides by the component's index-0 value and needs it above alpha;
    every later step uses iterates, which are.  So an orbit whose index-0
    value is at or below alpha may overshoot the audit's envelope at index
    4, and its later even indices are checked against the envelope
    re-seeded from its own index-4 value.  Every other violation, and any
    value not above alpha, is a failure.
    """
    a = alpha ** -(p + q)
    for index, component, value in violations:
        values = xs if component == "x" else ys
        drive = alpha ** (1.0 - (p if component == "x" else q)) + alpha
        start = values[0 - FIRST_INDEX]
        if not (value > alpha and index >= 4 and index % 2 == 0 and start <= alpha):
            return f"envelope violated at {component}[{index}] = {value!r}"
        if index > 4:
            an = a ** ((index - 4) // 2)
            upper = values[4 - FIRST_INDEX] * an + drive / (1.0 - a) * (1.0 - an)
            if value - upper > ENVELOPE_SLACK:
                return (f"{component}[{index}] = {value!r} exceeds the envelope "
                        f"re-seeded at index 4, {upper!r}")
    return None


def rate_problem(ratio, matched, gap, moduli, gap_rel_tol=0.0) -> str | None:
    if np.min(np.abs(moduli - matched)) > MODULUS_TOL:
        return f"matched modulus {matched!r} is not an eigenvalue modulus"
    expected = abs(ratio - matched)
    if abs(gap - expected) > gap_rel_tol * expected:
        return f"gap {gap!r} is not |ratio - matched| = {expected!r}"
    return None


# --------------------------------------------------------------------------
# Calls into the package, shared by the workloads


def analyse(tr, orbit, eq) -> dict:
    """The calls `ratsys analyze` makes after simulating."""
    with tr.span("analysis.semicycles"):
        dec = analysis.semicycles(orbit, eq)
    # the length rule is judged before the orbit settles into rounding noise
    with tr.span("analysis.resolved_prefix"):
        core = analysis.resolved_prefix(orbit, eq)
    with tr.span("analysis.semicycles"):
        core_dec = analysis.semicycles(core, eq)
    with tr.span("analysis.check_semicycle_rule"):
        rule = analysis.check_semicycle_rule(core_dec.joint)
    with tr.span("analysis.classify_oscillation"):
        osc = analysis.classify_oscillation(orbit, eq)
    return {"dec": dec, "core": core, "core_dec": core_dec, "rule": rule, "osc": osc}


def rate(tr, orbit, eq, eigs, **kwargs) -> dict:
    with tr.span("convergence.rate_report"):
        try:
            return {"rate": convergence.rate_report(orbit, eq, eigs, **kwargs)}
        except InsufficientDataError:
            return {"rate": None}


class Tally:
    """Per-pass work counts for the per-layer metrics."""

    def __init__(self):
        self.n = {}
        self.usable_norms: list[int] = []

    def add(self, key, amount=1):
        self.n[key] = self.n.get(key, 0) + amount

    def record(self, rec: dict) -> None:
        """Count what one op's (or replay's) returned objects hold."""
        orbit = rec.get("orbit")
        if orbit is not None:
            self.add("steps", len(orbit) - 3)
            self.add("term." + orbit.termination.kind)
        if "dec" in rec:
            for dec, length in ((rec["dec"], len(orbit)), (rec["core_dec"], len(rec["core"]))):
                self.add("semicycle_indices", length)
                self.add("cycles", len(dec.x) + len(dec.y) + len(dec.joint))
            if not rec["rule"].holds:
                self.add("rule_violations")
        if rec.get("audit") is not None:
            self.add("values_checked", rec["audit"].checked)
            self.add("bound_violations", len(rec["audit"].violations))
        if "rate" in rec:
            est = rec["rate"]
            if est is None:
                self.add("rate_insufficient")
            else:
                self.usable_norms.append(est.usable_range[1] + 1)
                if abs(est.ratio_estimate - est.root_estimate) >= RATIO_ROOT_TOL:
                    self.add("ratio_root_disagree")
        if "label" in rec:
            self.add("label." + rec["label"])
        if "period2" in rec:
            res = rec["period2"]
            self.add("p2_converged", res.converged)
            self.add("p2_diverged", res.diverged)
            self.add("p2_stalled", res.stalled)
            self.add("p2_starts", rec["starts"])


# --------------------------------------------------------------------------
# orbit-batch

ORBIT_FAMILIES = (
    # convergent: alpha > 1 and p, q <= 1 (example1, example2, and the edge p = q = 1)
    (2.0, 0.6, 0.9), (1.3, 0.9, 0.8), (2.0, 1.0, 1.0),
    # bounded but non-convergent: alpha < 1 (example3, example4)
    (0.6, 0.8, 1.9), (0.3, 1.2, 1.5),
    # grows past the magnitude cap and terminates with an overflow record
    (0.1, 3.0, 3.0),
)
ORBIT_STEPS = 300
ORBITS_PER_FAMILY = 40
NAIVE_EVERY = 4            # every k-th orbit is compared with the naive loop


class OrbitBatch:
    """Many short orbits, each simulated, decomposed, audited and rated."""

    name = "orbit-batch"

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0):
        rng = np.random.default_rng(seed)
        per_family = max(1, round(ORBITS_PER_FAMILY * scale))
        self.families = []
        for alpha, p, q in ORBIT_FAMILIES:
            params = dynamics.Params(alpha, p, q)
            inits = [dynamics.InitialConditions(tuple(rng.uniform(0.1, 10.0, 3)),
                                                tuple(rng.uniform(0.1, 10.0, 3)))
                     for _ in range(per_family)]
            self.families.append((params, dynamics.equilibrium(params), inits))
        self.ops_per_pass = per_family * len(ORBIT_FAMILIES)

    def run_pass(self, tr) -> PassResult:
        latencies, outputs = [], []
        start = clock()
        for params, eq, inits in self.families:
            with tr.span("op.family"):
                with tr.span("stability.eigenvalues"):
                    eigs, _ = stability.eigenvalues(stability.jacobian(params))
            audited = params.alpha > 1.0
            for init in inits:
                t0 = clock()
                with tr.span("op.orbit", len(outputs)):
                    try:
                        with tr.span("dynamics.simulate"):
                            orbit = dynamics.simulate(params, init, ORBIT_STEPS)
                        rec = analyse(tr, orbit, eq)
                        with tr.span("analysis.detect_monotone_tail"):
                            rec["tail"] = analysis.detect_monotone_tail(orbit)
                        rec["audit"] = None
                        if audited:
                            with tr.span("bounds.audit_bounds"):
                                rec["audit"] = bounds.audit_bounds(orbit, params)
                        rec.update(rate(tr, orbit, eq, eigs))
                        rec.update(orbit=orbit, params=params, init=init, eq=eq)
                    except Exception:
                        rec = _capture_failure()
                latencies.append(clock() - t0)
                outputs.append(rec)
        wall = clock() - start
        tally = None
        if tr.enabled:
            tally = Tally()
            for rec in outputs:
                if isinstance(rec, dict):
                    tally.record(rec)
        return PassResult(latencies, outputs, len(outputs), wall, wall, tally)

    @staticmethod
    def signature(rec):
        if isinstance(rec, Failed):
            return rec.signature()
        orbit, dec, est, audit = rec["orbit"], rec["dec"], rec["rate"], rec["audit"]
        # a hash keeps no reference to the pass's objects alive
        return hash((orbit.xs.tobytes(), orbit.ys.tobytes(), orbit.termination,
                     dec.x, dec.y, dec.joint, dec.misaligned_count,
                     rec["rule"], rec["osc"], rec["tail"],
                     None if audit is None else (audit.checked, audit.violations),
                     None if est is None else (est.ratio_estimate, est.root_estimate,
                                               est.matched_modulus, est.gap)))

    def signatures(self, result: PassResult) -> list:
        return [self.signature(rec) for rec in result.outputs]

    def check(self, result: PassResult) -> dict[int, str]:
        failures = {}
        moduli = {}
        for i, rec in enumerate(result.outputs):
            if isinstance(rec, Failed):
                failures[i] = "raised: " + rec.error
                continue
            problem = self._check_orbit(i, rec, moduli)
            if problem:
                failures[i] = problem
        return failures

    def _check_orbit(self, i, rec, moduli) -> str | None:
        params, init, orbit, eq = rec["params"], rec["init"], rec["orbit"], rec["eq"]
        alpha = params.alpha
        if i % NAIVE_EVERY == 0:
            xs, ys, (kind, index) = naive_orbit(alpha, params.p, params.q, init.x, init.y,
                                                ORBIT_STEPS, dynamics.DEFAULT_CAP)
            if not (np.array_equal(orbit.xs, xs) and np.array_equal(orbit.ys, ys)):
                return "orbit differs from the naive loop"
            if (orbit.termination.kind, orbit.termination.index) != (kind, index):
                return f"termination {orbit.termination} but the naive loop gives {kind} at {index}"
        if not (np.all(orbit.xs[3:] > alpha) and np.all(orbit.ys[3:] > alpha)):
            return "an iterate from index 1 on is not above alpha"
        dec = rec["dec"]
        for cycles, values in ((dec.x, orbit.xs), (dec.y, orbit.ys)):
            problem = component_runs_problem(
                [c.start for c in cycles], [c.length for c in cycles],
                [c.sign == analysis.SIGN_POSITIVE for c in cycles], values, eq.x_bar)
            if problem:
                return problem
        joint = dec.joint
        problem = joint_runs_problem(
            [c.start for c in joint], [c.length for c in joint],
            [c.sign == analysis.SIGN_POSITIVE for c in joint], orbit.xs, orbit.ys, eq.x_bar)
        if problem:
            return problem
        if dec.misaligned_count != np.count_nonzero((orbit.xs >= eq.x_bar) != (orbit.ys >= eq.y_bar)):
            return "misaligned count disagrees with the values"
        if orbit.termination.completed and not rec["rule"].holds:
            return f"length rule violated at joint cycle #{rec['rule'].violation}"
        if rec["audit"] is not None and params.p <= 1.0 and params.q <= 1.0:
            problem = envelope_problem(
                [(v.index, v.component, v.value) for v in rec["audit"].violations],
                alpha, params.p, params.q, orbit.xs, orbit.ys)
            if problem:
                return problem
        est = rec["rate"]
        if est is not None:
            key = (alpha, params.p, params.q)
            if key not in moduli:
                moduli[key] = eig_moduli(*key)[0]
            return rate_problem(est.ratio_estimate, est.matched_modulus, est.gap, moduli[key])
        return None


# --------------------------------------------------------------------------
# long-orbit

LONG_STEPS = 50_000
LONG_SCENARIOS = (
    # bounded and oscillating (alpha < 1): over ten thousand semi-cycles per component
    ("bounded", "example4", ("simulate", "analyze")),
    # convergent (alpha > 1, p, q <= 1): the envelope audit and the rate apply
    ("convergent", "example1", ("simulate", "analyze", "bounds", "rate")),
)
INIT_JITTER = 0.05         # initial values within +-5% of the preset's


def _cli_argv(command: str, config: Path, out: Path) -> list[str]:
    argv = [command, "--config", str(config), "--out", str(out)]
    if command != "rate":
        argv += ["--format", "csv"]
    return argv


class LongOrbit:
    """Two 5e4-step scenario files driven through the CLI in-process."""

    name = "long-orbit"

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0):
        rng = np.random.default_rng(seed)
        n_steps = max(10, round(LONG_STEPS * scale))
        self.commands = []     # (command, scenario label, config path, out path)
        self.scenarios = {}
        for label, preset, commands in LONG_SCENARIOS:
            base = scenarios.PRESETS[preset]
            x_init = [float(v) for v in np.array(base.init.x) * rng.uniform(
                1 - INIT_JITTER, 1 + INIT_JITTER, 3)]
            y_init = [float(v) for v in np.array(base.init.y) * rng.uniform(
                1 - INIT_JITTER, 1 + INIT_JITTER, 3)]
            params = base.params
            config = workdir / f"{label}.json"
            config.write_text(json.dumps({
                "alpha": params.alpha, "p": params.p, "q": params.q,
                "x_init": x_init, "y_init": y_init, "n_steps": n_steps}))
            self.scenarios[label] = (params, x_init, y_init, n_steps)
            for command in commands:
                self.commands.append((command, label, config,
                                      workdir / f"{label}.{command}.out"))
        self.ops_per_pass = len(self.commands)
        self.steps_per_pass = n_steps * len(self.commands)

    def run_pass(self, tr) -> PassResult:
        latencies, codes = [], []
        tally = Tally() if tr.enabled else None
        for _command, _label, _config, out in self.commands:
            out.unlink(missing_ok=True)    # a command that writes nothing must show
        start = clock()
        for i, (command, _label, config, out) in enumerate(self.commands):
            err = io.StringIO()
            t0 = clock()
            with tr.span("op.cli", i):
                with tr.span("cli." + command):
                    try:
                        with redirect_stderr(err):
                            code = cli.main(_cli_argv(command, config, out))
                    except Exception:
                        code = _capture_failure()
            latencies.append(clock() - t0)
            codes.append((code, err.getvalue()))
            if tally is not None:
                with tr.span("replay." + command, i):
                    rec = self._replay(tr, command, config)
                tally.record(rec)
        wall = clock() - start
        outputs = []
        for (command, _label, _config, out), (code, err) in zip(self.commands, codes):
            if isinstance(code, Failed):
                outputs.append(code)
            else:
                outputs.append((code, out.read_bytes() if out.exists() else b"", err))
        if tally is not None:
            tally.add("bytes_out", sum(len(out[1]) for out in outputs
                                       if not isinstance(out, Failed)))
        return PassResult(latencies, outputs, self.steps_per_pass, wall, wall, tally)

    @staticmethod
    def _replay(tr, command, config) -> dict:
        """The calls `ratsys <command> --config <config>` makes, made directly."""
        with tr.span("scenarios.load"):
            sc = scenarios.load_scenario(config)
        with tr.span("dynamics.simulate"):
            orbit = dynamics.simulate(sc.params, sc.init, sc.n_steps, sc.cap)
        eq = dynamics.equilibrium(sc.params)
        rec = {"orbit": orbit}
        if command == "analyze":
            rec.update(analyse(tr, orbit, eq))
        elif command == "bounds":
            with tr.span("bounds.audit_bounds"):
                rec["audit"] = bounds.audit_bounds(orbit, sc.params,
                                                   slack=sc.tolerances.bound_slack)
        elif command == "rate":
            with tr.span("stability.eigenvalues"):
                eigs, _ = stability.eigenvalues(stability.jacobian(sc.params),
                                                tol=sc.tolerances.eigen_tol)
            rec.update(rate(tr, orbit, eq, eigs,
                            convergence_tol=sc.tolerances.convergence_tol))
        return rec

    @staticmethod
    def signatures(result: PassResult) -> list:
        return [out.signature() if isinstance(out, Failed) else out[:2]
                for out in result.outputs]

    def check(self, result: PassResult) -> dict[int, str]:
        failures = {}
        naive = {}
        for i, ((command, label, _config, _out), out) in enumerate(
                zip(self.commands, result.outputs)):
            if isinstance(out, Failed):
                failures[i] = "raised: " + out.error
                continue
            code, data, err = out
            if code != cli.EXIT_OK:
                failures[i] = f"exit code {code}: {err.strip()[-200:]}"
                continue
            params, x_init, y_init, n_steps = self.scenarios[label]
            if label not in naive:
                xs, ys, term = naive_orbit(params.alpha, params.p, params.q,
                                           x_init, y_init, n_steps, dynamics.DEFAULT_CAP)
                naive[label] = (np.array(xs), np.array(ys), term)
            xs, ys, _term = naive[label]
            try:
                problem = getattr(self, "_check_" + command)(
                    data.decode(), params, xs, ys)
            except (ValueError, IndexError, KeyError) as exc:
                problem = f"unreadable {command} output: {exc!r}"
            if problem:
                failures[i] = f"{command} ({label}): {problem}"
        return failures

    @staticmethod
    def _check_simulate(text, params, xs, ys):
        lines = text.splitlines()
        if lines[0] != "n,x,y":
            return "header is not n,x,y"
        rows = [line.split(",") for line in lines[1:]]
        if [int(r[0]) for r in rows] != list(range(FIRST_INDEX, FIRST_INDEX + len(rows))):
            return "indices are not consecutive from -2"
        if not (np.array_equal(np.array([float(r[1]) for r in rows]), xs)
                and np.array_equal(np.array([float(r[2]) for r in rows]), ys)):
            return "values differ from the naive loop"
        return None

    @staticmethod
    def _check_analyze(text, params, xs, ys):
        lines = text.splitlines()
        if lines[0] != "component,sign,start,length":
            return "header is not component,sign,start,length"
        runs = {"x": [], "y": [], "joint": []}
        for line in lines[1:]:
            component, sign, start, length = line.split(",")
            runs[component].append((sign, int(start), length))
        bar = params.alpha + 1.0
        parsed = {}
        for component, rows in runs.items():
            if any(length == "open" for _s, _st, length in rows[:-1]):
                return f"an inner {component} run is marked open"
            starts = [start for _s, start, _l in rows]
            lengths = [len(xs) + FIRST_INDEX - start if length == "open" else int(length)
                       for _s, start, length in rows]
            parsed[component] = (starts, lengths, [s == "positive" for s, _st, _l in rows])
        for component, values in (("x", xs), ("y", ys)):
            problem = component_runs_problem(*parsed[component], values, bar)
            if problem:
                return f"{component}: {problem}"
        return joint_runs_problem(*parsed["joint"], xs, ys, bar)

    @staticmethod
    def _check_bounds(text, params, xs, ys):
        lines = text.splitlines()
        if lines[0] != "index,component,value,lower,upper":
            return "header is not index,component,value,lower,upper"
        violations = []
        for line in lines[1:]:
            index, component, value, _lower, _upper = line.split(",")
            violations.append((int(index), component, float(value)))
        return envelope_problem(violations, params.alpha, params.p, params.q, xs, ys)

    @staticmethod
    def _check_rate(text, params, xs, ys):
        fields = dict(line.split(": ", 1) for line in text.splitlines())
        moduli = eig_moduli(params.alpha, params.p, params.q)[0]
        # the text format prints the gap with seven significant digits
        return rate_problem(float(fields["ratio estimate"]),
                            float(fields["matched eigenvalue modulus"]),
                            float(fields["gap"]), moduli, gap_rel_tol=1e-6)


# --------------------------------------------------------------------------
# stability-map

SWEEP_COUNT = 10           # nodes per axis
PERIOD2_TRIPLES = 2
PERIOD2_GRID = 11
SWEEP_HEADER = "alpha,p,q,spectral_radius,classification"


class StabilityMap:
    """A `ratsys sweep` over a 3-D grid plus a few period-2 searches."""

    name = "stability-map"

    def __init__(self, seed: int, workdir: Path, scale: float = 1.0):
        rng = np.random.default_rng(seed)
        count = max(2, round(SWEEP_COUNT * scale))
        # alpha on both sides of 1 and p, q up to about 3: every verdict occurs
        self.axes = {
            "alpha": [0.2 + 0.1 * rng.random(), 3.0 + 0.2 * rng.random(), count],
            "p": [0.1 + 0.05 * rng.random(), 3.0 + 0.1 * rng.random(), count],
            "q": [0.1 + 0.05 * rng.random(), 3.0 + 0.1 * rng.random(), count],
        }
        self.config = workdir / "sweep.json"
        self.config.write_text(json.dumps(self.axes))
        self.out = workdir / "sweep.csv"
        self.nodes = count ** 3
        n_triples = max(1, round(PERIOD2_TRIPLES * scale))
        self.triples = [dynamics.Params(float(rng.uniform(0.2, 3.0)),
                                        float(rng.uniform(0.1, 3.0)),
                                        float(rng.uniform(0.1, 3.0)))
                        for _ in range(n_triples)]
        self.ops_per_pass = self.nodes + len(self.triples)

    def run_pass(self, tr) -> PassResult:
        latencies = []
        tally = Tally() if tr.enabled else None
        self.out.unlink(missing_ok=True)   # a sweep that writes nothing must show
        start = clock()
        err = io.StringIO()
        t0 = clock()
        with tr.span("op.cli", 0):
            with tr.span("cli.sweep"):
                try:
                    with redirect_stderr(err):
                        code = cli.main(["sweep", "--config", str(self.config),
                                         "--out", str(self.out)])
                except Exception:
                    code = _capture_failure()
        sweep_ns = clock() - t0
        if tally is not None:
            with tr.span("replay.sweep", 0):
                labels = self._replay(tr)
            for label in labels:
                tally.record({"label": label})
        period2 = []
        for i, params in enumerate(self.triples):
            t0 = clock()
            with tr.span("op.period2", self.nodes + i):
                try:
                    with tr.span("analysis.find_period2"):
                        res = analysis.find_period2(params, grid_points=PERIOD2_GRID)
                except Exception:
                    res = _capture_failure()
            latencies.append(clock() - t0)
            period2.append(res)
        wall = clock() - start
        if tally is not None:
            for res in period2:
                if not isinstance(res, Failed):
                    tally.record({"period2": res, "starts": PERIOD2_GRID ** 4})
        if isinstance(code, Failed):
            rows = [code] * self.nodes
        else:
            text = self.out.read_text() if self.out.exists() else ""
            if tally is not None:
                tally.add("bytes_out", len(text))
            lines = text.splitlines() or [""]
            rows = [(code, err.getvalue(), lines[0], row)
                    for row in (lines[1:] + [""] * self.nodes)[:self.nodes]]
        return PassResult(latencies, rows + period2, self.nodes, sweep_ns, wall, tally)

    def _replay(self, tr) -> list[str]:
        """The classification `ratsys sweep` makes per node, made directly."""
        with tr.span("scenarios.load"):
            spec = scenarios.load_sweep(self.config)
        labels = []
        for alpha in spec.alpha.values():
            for p in spec.p.values():
                for q in spec.q.values():
                    params = dynamics.Params(float(alpha), float(p), float(q))
                    with tr.span("stability.classify"):
                        try:
                            label = stability.classify(params).classification
                        except ConvergenceError:
                            label = "convergence-error"
                    labels.append(label)
        return labels

    @staticmethod
    def signatures(result: PassResult) -> list:
        return [out.signature() if isinstance(out, Failed)
                else (out[0], out[3]) if isinstance(out, tuple)
                else repr(out) for out in result.outputs]

    def grid(self) -> np.ndarray:
        """Expected (alpha, p, q) per row, in the sweep's nesting order."""
        axes = [np.linspace(lo, hi, n) for lo, hi, n in
                (self.axes["alpha"], self.axes["p"], self.axes["q"])]
        return np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)

    def check(self, result: PassResult) -> dict[int, str]:
        failures = {}
        rows = result.outputs[:self.nodes]
        grid = self.grid()
        rho = eig_moduli(grid[:, 0], grid[:, 1], grid[:, 2]).max(axis=1)
        for i, (row, (alpha, p, q)) in enumerate(zip(rows, grid)):
            if isinstance(row, Failed):
                failures[i] = "raised: " + row.error
                continue
            code, err, header, line = row
            if code != cli.EXIT_OK:
                failures[i] = f"exit code {code}: {err.strip()[-200:]}"
            elif header != SWEEP_HEADER:
                failures[i] = f"header is {header!r}"
            else:
                problem = self._check_row(line, alpha, p, q, rho[i])
                if problem:
                    failures[i] = f"node ({alpha!r}, {p!r}, {q!r}): {problem}"
        for i, res in enumerate(result.outputs[self.nodes:], start=self.nodes):
            if isinstance(res, Failed):
                failures[i] = "raised: " + res.error
            elif res.found_nontrivial:
                failures[i] = f"nontrivial period-2 pair, residual {res.residual!r}"
            elif res.converged != PERIOD2_GRID ** 4:
                failures[i] = (f"only {res.converged} of {PERIOD2_GRID ** 4} starts "
                               f"converged ({res.diverged} diverged, {res.stalled} stalled)")
        return failures

    @staticmethod
    def _check_row(line, alpha, p, q, rho) -> str | None:
        cells = line.split(",")
        if len(cells) != 5:
            return f"malformed row {line!r}"
        if (float(cells[0]), float(cells[1]), float(cells[2])) != (alpha, p, q):
            return f"row is for ({cells[0]}, {cells[1]}, {cells[2]})"
        if not cells[3]:
            return f"no spectral radius ({cells[4]})"
        radius, label = float(cells[3]), cells[4]
        if not abs(radius - rho) <= RADIUS_TOL:
            return f"spectral radius {radius!r}, numpy gives {rho!r}"
        if alpha > 1.0 and p <= 1.0 and q <= 1.0:
            expected = stability.CLASS_GLOBAL
        elif abs(rho - 1.0) <= RADIUS_BAND:
            return None
        elif 2.0 * p * q < (alpha + 1.0) ** 2:
            expected = stability.CLASS_LOCAL
        else:
            expected = stability.CLASS_UNSTABLE
        if label != expected:
            return f"classified {label}, expected {expected}"
        return None


WORKLOADS = {cls.name: cls for cls in (OrbitBatch, LongOrbit, StabilityMap)}
