"""Command-line interface: simulate, analyze, bounds, stability, rate, sweep.

Exit codes: 0 success, 2 validation or parse error, 3 numeric
non-convergence, 4 insufficient data.
"""

from __future__ import annotations

import argparse
import csv
import sys
from contextlib import contextmanager

from . import analysis, bounds, convergence, stability
from .dynamics import InitialConditions, Orbit, Params, equilibrium, simulate
from .errors import (ConvergenceError, DomainError, InsufficientDataError,
                     ParseError, UnknownPresetError)
from .scenarios import PRESETS, Scenario, Tolerances, load_scenario, load_sweep

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_NO_DATA = 4


def _fmt(value: float) -> str:
    """Shortest round-trip decimal representation of a float."""
    return repr(float(value))


def _fmt_complex(z: complex) -> str:
    # a part that rounds to zero prints as +0, whatever the sign of its noise
    real, imag = (round(v, 12) + 0.0 for v in (z.real, z.imag))
    return f"{real:+.12f}{imag:+.12f}j"


@contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        try:
            handle = open(path, "w", newline="")
        except OSError as exc:
            raise OSError(f"cannot write {path}: {exc.strerror}") from exc
        try:
            yield handle
        finally:
            handle.close()


def _load_from_args(args) -> Scenario:
    if getattr(args, "config", None):
        return load_scenario(args.config)
    if getattr(args, "preset", None):
        return PRESETS[args.preset]
    raise ParseError("one of --preset or --config is required")


def _final_convergence(orbit: Orbit, tol: float) -> tuple[bool, float]:
    """Whether a completed orbit ends within `tol`, and its final deviation."""
    eq = equilibrium(orbit.params)
    last = orbit.last_index
    dev = max(abs(orbit.x_at(last) - eq.x_bar), abs(orbit.y_at(last) - eq.y_bar))
    return orbit.termination.completed and dev < tol, dev


def _summary_lines(scenario: Scenario, orbit: Orbit) -> list[str]:
    eq = equilibrium(scenario.params)
    last = orbit.last_index
    converged, dev = _final_convergence(orbit, scenario.tolerances.convergence_tol)
    return [
        f"final point: n={last}, x={_fmt(orbit.x_at(last))}, y={_fmt(orbit.y_at(last))}",
        f"equilibrium: ({_fmt(eq.x_bar)}, {_fmt(eq.y_bar)})",
        f"converged: {'yes' if converged else 'no'} "
        f"(final deviation {dev:.3e}, tol {scenario.tolerances.convergence_tol:g})",
        f"termination: {orbit.termination.kind}"
        + (f" at index {orbit.termination.index}" if orbit.termination.index is not None else ""),
    ]


def cmd_simulate(args) -> int:
    scenario = _load_from_args(args)
    orbit = simulate(scenario.params, scenario.init, scenario.n_steps, scenario.cap)
    with _open_out(args.out) as out:
        if args.format == "csv":
            out.write("n,x,y\n")
            for n in orbit.indices:
                out.write(f"{n},{_fmt(orbit.x_at(n))},{_fmt(orbit.y_at(n))}\n")
            for line in _summary_lines(scenario, orbit):
                print(line, file=sys.stderr)
        else:
            for line in _summary_lines(scenario, orbit):
                out.write(line + "\n")
    return EXIT_OK


def cmd_analyze(args) -> int:
    scenario = _load_from_args(args)
    orbit = simulate(scenario.params, scenario.init, scenario.n_steps, scenario.cap)
    eq = equilibrium(scenario.params)
    decomp = analysis.semicycles(orbit, eq)
    # the length rule is judged before the orbit settles into rounding noise
    core = analysis.resolved_prefix(orbit, eq)
    rule = analysis.check_semicycle_rule(analysis.semicycles(core, eq).joint)
    report = analysis.classify_oscillation(orbit, eq)

    def cycle_rows():
        for cycles in (decomp.x, decomp.y, decomp.joint):
            for c in cycles:
                length = "open" if c.open_ended else str(c.length)
                yield c.component, c.sign, c.start, length

    with _open_out(args.out) as out:
        if args.format == "csv":
            out.write("component,sign,start,length\n")
            for component, sign, start, length in cycle_rows():
                out.write(f"{component},{sign},{start},{length}\n")
            info = sys.stderr
        else:
            out.write(f"{'component':<10} {'sign':<9} {'start':>6} {'length':>7}\n")
            for component, sign, start, length in cycle_rows():
                out.write(f"{component:<10} {sign:<9} {start:>6} {length:>7}\n")
            info = out
        print(f"oscillation: x={report.x_status}, y={report.y_status}, "
              f"joint={report.joint_status}", file=info)
        note = "" if core.last_index == orbit.last_index else \
            f" (judged on n<={core.last_index}, settled after)"
        print(f"semi-cycle length rule: {'holds' if rule.holds else 'violated'}"
              + (f" (joint cycle #{rule.violation})" if rule.violation is not None else "")
              + note, file=info)
        print(f"misaligned indices: {decomp.misaligned_count}", file=info)
    return EXIT_OK


def cmd_bounds(args) -> int:
    scenario = _load_from_args(args)
    orbit = simulate(scenario.params, scenario.init, scenario.n_steps, scenario.cap)
    audit = bounds.audit_bounds(orbit, scenario.params,
                                slack=scenario.tolerances.bound_slack)
    with _open_out(args.out) as out:
        if args.format == "csv":
            out.write("index,component,value,lower,upper\n")
            for v in audit.violations:
                upper = "" if v.upper is None else _fmt(v.upper)
                out.write(f"{v.index},{v.component},{_fmt(v.value)},{_fmt(v.lower)},{upper}\n")
            info = sys.stderr
        else:
            info = out
        print(f"checked: {audit.checked} values", file=info)
        print(f"violations: {len(audit.violations)}"
              + (f" (+{len(audit.early_violations)} at seed indices 2-3)"
                 if audit.early_violations else ""), file=info)
        print(f"max slack used: {audit.max_slack_used:.3e}", file=info)
    return EXIT_OK


def _params_from_args(args) -> Params:
    if args.alpha is not None or args.p is not None or args.q is not None:
        if None in (args.alpha, args.p, args.q):
            raise ParseError("--alpha, --p, and --q must be given together")
        try:
            return Params(args.alpha, args.p, args.q)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    return _load_from_args(args).params


def _stability_text(params: Params, report: stability.StabilityReport,
                    out) -> None:
    out.write(f"parameters: alpha={_fmt(params.alpha)}, p={_fmt(params.p)}, "
              f"q={_fmt(params.q)}\n")
    out.write("eigenvalues:\n")
    for z in report.eigenvalues:
        out.write(f"  {_fmt_complex(z)}  (modulus {abs(z):.12f})\n")
    out.write(f"spectral radius: {report.spectral_radius:.12f}\n")
    out.write(f"characteristic residual: {report.char_residual:.3e}\n")
    if report.certificate is not None:
        cert = report.certificate
        out.write(f"certificate: epsilon={cert.epsilon:.9f}, "
                  f"weighted-matrix infinity norm={cert.norm_value:.9f} "
                  f"({'< 1, certifies' if cert.certifies else 'not < 1'})\n")
    else:
        out.write(f"certificate refused: {report.certificate_refusal}\n")
    if report.meets_global_conditions:
        out.write("global conditions (alpha > 1 and 0 < p, q <= 1): met\n")
    else:
        out.write("global conditions (alpha > 1 and 0 < p, q <= 1): violated\n")
    out.write(f"classification: {report.classification}\n")


def cmd_stability(args) -> int:
    params = _params_from_args(args)
    report = stability.classify(params)
    with _open_out(args.out) as out:
        if args.format == "csv":
            out.write("alpha,p,q,spectral_radius,classification\n")
            out.write(f"{_fmt(params.alpha)},{_fmt(params.p)},{_fmt(params.q)},"
                      f"{_fmt(report.spectral_radius)},{report.classification}\n")
        else:
            _stability_text(params, report, out)
    return EXIT_OK


def _orbit_from_csv(path: str, params: Params) -> Orbit:
    rows = []
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader, None)
            if header is None or [c.strip() for c in header[:3]] != ["n", "x", "y"]:
                raise ParseError(f"{path}: orbit CSV must start with header n,x,y")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    rows.append((int(row[0]), float(row[1]), float(row[2])))
                except (ValueError, IndexError):
                    raise ParseError(f"{path}: bad orbit row at line {lineno}") from None
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror}") from exc
    if not rows or rows[0][0] != Orbit.FIRST_INDEX:
        raise ParseError(f"{path}: orbit rows must start at n={Orbit.FIRST_INDEX}")
    try:
        return Orbit(params, [r[1] for r in rows], [r[2] for r in rows])
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None


def cmd_rate(args) -> int:
    scenario = _load_from_args(args)
    params = scenario.params
    eq = equilibrium(params)
    if args.orbit:
        orbit = _orbit_from_csv(args.orbit, params)
    else:
        orbit = simulate(params, scenario.init, scenario.n_steps, scenario.cap)
    eigs = stability.classify(params, eigen_tol=scenario.tolerances.eigen_tol).eigenvalues
    estimate = convergence.rate_report(
        orbit, eq, eigs,
        burn_in=args.burn_in, window=args.window,
        convergence_tol=scenario.tolerances.convergence_tol)
    with _open_out(args.out) as out:
        if args.format == "csv":
            out.write("ratio,root,matched_modulus,gap\n")
            out.write(f"{_fmt(estimate.ratio_estimate)},{_fmt(estimate.root_estimate)},"
                      f"{_fmt(estimate.matched_modulus)},{_fmt(estimate.gap)}\n")
        else:
            out.write(f"ratio estimate: {_fmt(estimate.ratio_estimate)}\n")
            out.write(f"root estimate: {_fmt(estimate.root_estimate)}\n")
            out.write(f"matched eigenvalue modulus: {_fmt(estimate.matched_modulus)}\n")
            out.write(f"gap: {estimate.gap:.6e}\n")
            out.write(f"usable range: n={estimate.usable_range[0]}.."
                      f"{estimate.usable_range[1]}\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    sweep = load_sweep(args.config)
    rows = []
    for alpha in sweep.alpha.values():
        for p in sweep.p.values():
            for q in sweep.q.values():
                params = Params(float(alpha), float(p), float(q))
                try:
                    report = stability.classify(params)
                    radius = _fmt(report.spectral_radius)
                    label = report.classification
                except ConvergenceError:
                    radius = ""
                    label = "convergence-error"
                row = [_fmt(params.alpha), _fmt(params.p), _fmt(params.q),
                       radius, label]
                if sweep.simulate_steps is not None:
                    init = InitialConditions(sweep.x_init, sweep.y_init)
                    converged, _dev = _final_convergence(
                        simulate(params, init, sweep.simulate_steps),
                        Tolerances().convergence_tol)
                    row.append("yes" if converged else "no")
                rows.append(row)
    header = ["alpha", "p", "q", "spectral_radius", "classification"]
    if sweep.simulate_steps is not None:
        header.append("converged")
    with _open_out(args.out) as out:
        if args.format == "text":
            widths = [max(len(header[i]), max((len(r[i]) for r in rows), default=0))
                      for i in range(len(header))]
            out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip() + "\n")
            for row in rows:
                out.write("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n")
        else:
            out.write(",".join(header) + "\n")
            for row in rows:
                out.write(",".join(row) + "\n")
    return EXIT_OK


def _add_scenario_args(sub):
    sub.add_argument("--preset", choices=sorted(PRESETS),
                     help="built-in scenario name")
    sub.add_argument("--config", metavar="PATH", help="scenario JSON file")
    sub.add_argument("--out", metavar="PATH", default=None,
                     help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratsys",
        description="Simulate and analyze the coupled third-order rational "
                    "difference system x[n+1] = alpha + (y[n]/y[n-2])**p, "
                    "y[n+1] = alpha + (x[n]/x[n-2])**q.")
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="run an orbit and emit n,x,y rows")
    _add_scenario_args(sim)
    sim.add_argument("--format", choices=("csv", "text"), default="csv")
    sim.set_defaults(handler=cmd_simulate)

    ana = subs.add_parser("analyze", help="semi-cycle table and oscillation report")
    _add_scenario_args(ana)
    ana.add_argument("--format", choices=("csv", "text"), default="text")
    ana.set_defaults(handler=cmd_analyze)

    bnd = subs.add_parser("bounds", help="audit an orbit against its envelopes")
    _add_scenario_args(bnd)
    bnd.add_argument("--format", choices=("csv", "text"), default="text")
    bnd.set_defaults(handler=cmd_bounds)

    stab = subs.add_parser("stability", help="eigenvalues, certificate, classification")
    _add_scenario_args(stab)
    stab.add_argument("--alpha", type=float, default=None)
    stab.add_argument("--p", type=float, default=None)
    stab.add_argument("--q", type=float, default=None)
    stab.add_argument("--format", choices=("csv", "text"), default="text")
    stab.set_defaults(handler=cmd_stability)

    rate = subs.add_parser("rate", help="error decay rate matched to the spectrum")
    _add_scenario_args(rate)
    rate.add_argument("--orbit", metavar="PATH", default=None,
                      help="analyze an existing orbit CSV instead of simulating")
    rate.add_argument("--burn-in", type=int, default=None, dest="burn_in")
    rate.add_argument("--window", type=int, default=None)
    rate.add_argument("--format", choices=("csv", "text"), default="text")
    rate.set_defaults(handler=cmd_rate)

    swp = subs.add_parser("sweep", help="stability map over a parameter grid")
    swp.add_argument("--config", metavar="PATH", required=True,
                     help="sweep JSON file with alpha/p/q [lo, hi, count] triples")
    swp.add_argument("--out", metavar="PATH", default=None)
    swp.add_argument("--format", choices=("csv", "text"), default="csv")
    swp.set_defaults(handler=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ParseError, UnknownPresetError, DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except InsufficientDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_DATA
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
