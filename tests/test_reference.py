"""The array code in `analysis`, `bounds`, `stability` and `ratsys sweep`
against loop references.

The references below are the plain loops these functions used to be.
Every comparison is `==`, so floats must agree bit for bit.  The
generated orbits cover the six orbit families of the benchmark's
`orbit-batch` workload, plus hand-built orbits with values exactly at
the equilibrium, constant and three-valued orbits, strictly alternating
orbits, and starts below alpha (which overshoot the envelope at index 4).
"""

import json
import math
import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratsys import (ConvergenceError, Equilibrium, InitialConditions, Orbit,
                    Params, Tolerances, audit_bounds, classify, classify_batch,
                    classify_oscillation, detect_monotone_tail, equilibrium,
                    final_convergence, find_period2, semicycles, simulate)
from ratsys import stability
from ratsys.analysis import (MIN_ORBIT_POINTS, MIN_TAIL_LEN, MonotoneTail,
                             Period2Result, SemiCycle, SemiCycleDecomposition,
                             resolved_prefix, settling_index)
from ratsys.bounds import BoundsAudit, Violation, envelope_coeffs
from ratsys.cli import main
from ratsys.scenarios import sweep_from_dict

ORBIT_FAMILIES = (
    (2.0, 0.6, 0.9), (1.3, 0.9, 0.8), (2.0, 1.0, 1.0),  # convergent
    (0.6, 0.8, 1.9), (0.3, 1.2, 1.5),                   # bounded, alpha < 1
    (0.1, 3.0, 3.0),                                    # overflows the cap
)
ORBITS_PER_FAMILY = 510


# --------------------------------------------------------------------------
# Loop references


def ref_semicycles(orbit, eq):
    first = orbit.FIRST_INDEX
    last_pos = len(orbit.xs) - 1
    # Python lists index faster than numpy arrays in these loops
    px = (orbit.xs >= eq.x_bar).tolist()
    py = (orbit.ys >= eq.y_bar).tolist()

    def sign_runs(positive):
        runs = []
        start = 0
        for i in range(1, len(positive)):
            if positive[i] != positive[i - 1]:
                runs.append((start, i - 1))
                start = i
        runs.append((start, len(positive) - 1))
        return runs

    def component_cycles(pos_mask, component):
        return tuple(SemiCycle(sign="positive" if pos_mask[s] else "negative",
                               start=first + s, length=e - s + 1,
                               open_ended=(e == last_pos), component=component)
                     for s, e in sign_runs(pos_mask))

    x_cycles = component_cycles(px, "x")
    y_cycles = component_cycles(py, "y")
    x_bounds = {(c.start, c.start + c.length - 1) for c in x_cycles}
    y_bounds = {(c.start, c.start + c.length - 1) for c in y_cycles}

    agree = [a == b for a, b in zip(px, py)]
    joint = []
    i = 0
    n = len(agree)
    while i < n:
        if not agree[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and agree[j + 1] and px[j + 1] == px[i]:
            j += 1
        bounds = (first + i, first + j)
        joint.append(SemiCycle(sign="positive" if px[i] else "negative",
                               start=first + i, length=j - i + 1,
                               open_ended=(j == last_pos), component="joint",
                               aligned=(bounds in x_bounds and bounds in y_bounds)))
        i = j + 1
    return SemiCycleDecomposition(x=x_cycles, y=y_cycles, joint=tuple(joint),
                                  misaligned_count=agree.count(False))


def ref_settling_index(orbit, eq, tol=1e-12):
    close = (np.abs(orbit.xs - eq.x_bar) <= tol) & (np.abs(orbit.ys - eq.y_bar) <= tol)
    if not close[-1]:
        return None
    i = len(close) - 1
    while i > 0 and close[i - 1]:
        i -= 1
    return orbit.FIRST_INDEX + i


def ref_resolved_end(orbit, eq):
    """Last index of the resolved prefix; None when the orbit is kept whole."""
    settled = ref_settling_index(orbit, eq)
    if settled is None or settled >= orbit.last_index:
        return None
    return max(settled, orbit.FIRST_INDEX + 2)


def ref_classify_component(values, bar, eq_tol=1e-12, min_tail=MIN_TAIL_LEN):
    dev = values - bar
    if np.all(np.abs(dev) <= eq_tol):
        return "at-equilibrium"
    k = len(dev)
    while abs(dev[k - 1]) <= eq_tol:
        k -= 1
    positive = dev[:k] >= 0.0
    side = positive[-1]
    j = k - 1
    while j >= 0 and positive[j] == side:
        j -= 1
    if j < 0 or k - 1 - j >= max(min_tail, k // 4):
        return "nonoscillatory-positive" if side else "nonoscillatory-negative"
    return "oscillatory"


def ref_monotone_tail(values, first_index, min_len=MIN_TAIL_LEN):
    n = len(values)
    i = n - 1
    while i > 0 and values[i - 1] <= values[i]:
        i -= 1
    nondecr = (i, n - i)
    i = n - 1
    while i > 0 and values[i - 1] >= values[i]:
        i -= 1
    noninc = (i, n - i)
    start, length = nondecr
    if length >= min_len and np.any(values[start:-1] < values[start + 1:]):
        return MonotoneTail("increasing", first_index + start, length)
    start, length = noninc
    if length >= min_len and np.any(values[start:-1] > values[start + 1:]):
        return MonotoneTail("decreasing", first_index + start, length)
    return MonotoneTail("none", None, 0)


def ref_audit_bounds(orbit, params, slack=1e-9):
    alpha = params.alpha
    coeffs = envelope_coeffs(params)
    # first index of the even and odd branches: an even branch starts at
    # index 4 when the component's index-0 value is below alpha
    firsts = {"x": (2 if orbit.x_at(0) >= alpha else 4, 3),
              "y": (2 if orbit.y_at(0) >= alpha else 4, 3)}
    drives = {"x": coeffs.b / (1.0 - coeffs.a), "y": coeffs.c / (1.0 - coeffs.a)}
    checked = 0
    violations, early = [], []
    max_slack_used = 0.0
    for k in range(1, orbit.last_index + 1):
        for component in ("x", "y"):
            at = orbit.x_at if component == "x" else orbit.y_at
            value = at(k)
            first = firsts[component][k % 2]
            upper = None
            if k >= first:
                an = coeffs.a ** ((k - first) // 2)
                upper = at(first) * an + drives[component] * (1.0 - an)
            checked += 1
            if not value > alpha:
                violations.append(Violation(k, component, value, alpha, upper))
                continue
            if upper is not None:
                overshoot = value - upper
                if overshoot > slack:
                    v = Violation(k, component, value, alpha, upper)
                    (early if k == first else violations).append(v)
                elif overshoot > max_slack_used:
                    max_slack_used = overshoot
    return BoundsAudit(checked=checked, violations=tuple(violations),
                       early_violations=tuple(early),
                       max_slack_used=max(0.0, max_slack_used))


def ref_cubic_spectrum(params, tol=1e-12, max_iter=500):
    """Durand-Kerner on the cubic with the stop test tol * max(1, s)."""
    s = math.sqrt(params.p * params.q) / (params.alpha + 1.0)
    coeffs = np.array([1.0, -s, 0.0, s], dtype=np.complex128)
    coeffs = coeffs / coeffs[0]
    radius = 1.0 + float(np.max(np.abs(coeffs[1:])))
    roots = radius * np.exp(1j * (2.0 * np.pi * np.arange(3) / 3 + 0.4))
    for _ in range(max_iter):
        pvals = np.polyval(coeffs, roots)
        diffs = roots[:, None] - roots[None, :]
        np.fill_diagonal(diffs, 1.0)
        delta = pvals / diffs.prod(axis=1)
        roots = roots - delta
        if float(np.max(np.abs(delta))) <= tol * max(1.0, s):
            break
    else:
        raise ConvergenceError("reference iteration did not converge")
    lam = np.concatenate([roots, -roots])
    residual = float(np.max(np.abs(lam**6 - s * s * (lam**2 - 1.0) ** 2)))
    ordered = sorted((complex(z) for z in lam), key=lambda z: (z.real, z.imag))
    return tuple(ordered), residual


def ref_sweep_rows(nodes):
    """The per-node loop `ratsys sweep` ran: one `classify` per node, giving
    (spectral radius, classification), or None where it raises."""
    rows = []
    # the residual, which no row reads, overflows for couplings above ~1e51
    with np.errstate(all="ignore"):
        for par in nodes:
            try:
                report = classify(par)
            except ConvergenceError:
                rows.append(None)
            else:
                rows.append((report.spectral_radius, report.classification))
    return rows


def ref_find_period2(params, grid_points=11, box=None):
    """Three applications of the second-iterate map to every start of the
    4-d grid of alternating states (A, B, A, B, ...)."""
    alpha, p, q = params.alpha, params.p, params.q
    bar = alpha + 1.0

    def second_iterate(ax, ay, bx, by):
        return (alpha + (bar / by) ** p, alpha + (bar / bx) ** q,
                np.full_like(bx, bar), np.full_like(by, bar))

    with np.errstate(all="ignore"):
        if box is None:
            axis = np.linspace(alpha, alpha + 10.0, grid_points + 1)[1:]
        elif box[0] == box[1]:
            axis = np.array([float(box[0])])
        else:
            axis = np.linspace(float(box[0]), float(box[1]), grid_points)
        state = np.stack([g.ravel() for g in np.meshgrid(axis, axis, axis, axis)])
        diverged = np.zeros(state.shape[1], dtype=bool)
        for _ in range(3):
            prev = state
            state = np.stack(second_iterate(*state))
            diverged |= ~np.all(np.isfinite(state) & (state > 0.0), axis=0)
    moved = np.any(state != prev, axis=0) & ~diverged
    converged = ~moved & ~diverged
    counts = (int(np.count_nonzero(converged)), int(np.count_nonzero(diverged)),
              int(np.count_nonzero(moved)))
    if counts[0] == 0:
        return Period2Result(False, None, float("nan"), *counts)
    conv = state[:, converged]
    residuals = np.max(np.abs(conv - bar), axis=0)
    worst = int(np.argmax(residuals))
    witness = ((float(conv[0, worst]), float(conv[1, worst])),
               (float(conv[2, worst]), float(conv[3, worst])))
    return Period2Result(bool(residuals[worst] > 1e-6), witness,
                         float(residuals[worst]), *counts)


# --------------------------------------------------------------------------
# Generated orbits


def _hand_built(rng):
    """(params, orbit) pairs built from values: ties, constants, three
    values and strict alternation around the equilibrium 3 of alpha = 2."""
    par = Params(2.0, 0.6, 0.9)
    bar = par.alpha + 1.0
    out = []
    for level in (bar, bar + 1.0, bar - 0.5, bar + 1e-13):
        for n in (3, 4, 10, 40):
            out.append((par, Orbit(par, [level] * n, [level] * n)))
    three = np.array([bar - 1.0, bar, bar + 1.0])
    for _ in range(150):
        n = int(rng.integers(3, 80))
        out.append((par, Orbit(par, rng.choice(three, n), rng.choice(three, n))))
        # ties: mostly the equilibrium, with a few values off it
        ties = np.where(rng.random((2, n)) < 0.8, bar, rng.choice(three, (2, n)))
        out.append((par, Orbit(par, ties[0], ties[1])))
        # a settled tail at the equilibrium after a noisy head
        head = rng.uniform(bar - 1.5, bar + 1.5, (2, n))
        tail = np.full((2, int(rng.integers(1, 20))), bar)
        out.append((par, Orbit(par, *np.concatenate([head, tail], axis=1))))
    for n in (3, 4, 11, 50, 51):
        alt = np.where(np.arange(n) % 2 == 0, bar + 1.0, bar - 1.0)
        out.append((par, Orbit(par, alt, alt)))
        out.append((par, Orbit(par, alt, alt[::-1].copy())))
        out.append((par, Orbit(par, alt, np.roll(alt, 1))))
    return out


@lru_cache(maxsize=None)
def generated_orbits():
    """The benchmark families with random starts and lengths, starts
    below alpha, and the hand-built orbits."""
    rng = np.random.default_rng(2024)
    out = []
    for alpha, p, q in ORBIT_FAMILIES:
        par = Params(alpha, p, q)
        for _ in range(ORBITS_PER_FAMILY):
            init = InitialConditions(tuple(rng.uniform(0.1, 10.0, 3)),
                                     tuple(rng.uniform(0.1, 10.0, 3)))
            out.append((par, simulate(par, init, int(rng.integers(3, 120)))))
        if alpha > 1.0:
            for _ in range(40):
                init = InitialConditions(tuple(rng.uniform(0.1, alpha, 3)),
                                         tuple(rng.uniform(0.1, alpha, 3)))
                out.append((par, simulate(par, init, int(rng.integers(3, 60)))))
    # random convergent parameters vary the envelope ratio
    for _ in range(150):
        par = Params(rng.uniform(1.05, 4.0), rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0))
        init = InitialConditions(tuple(rng.uniform(0.1, 10.0, 3)),
                                 tuple(rng.uniform(0.1, 10.0, 3)))
        out.append((par, simulate(par, init, int(rng.integers(3, 120)))))
    # long converging orbits reach their settled tail
    for alpha, p, q in ORBIT_FAMILIES[:3]:
        par = Params(alpha, p, q)
        for _ in range(20):
            init = InitialConditions(tuple(rng.uniform(0.1, 10.0, 3)),
                                     tuple(rng.uniform(0.1, 10.0, 3)))
            out.append((par, simulate(par, init, 400)))
    return tuple(out + _hand_built(rng))


def test_generated_batch_covers_the_cases():
    cases = generated_orbits()
    family_orbits = [o for par, o in cases if o.deviations is not None
                     and (par.alpha, par.p, par.q) in ORBIT_FAMILIES]
    assert len(family_orbits) >= 3000
    assert sum(not o.termination.completed for o in family_orbits) > 100
    settled = [o for par, o in cases
               if settling_index(o, equilibrium(par)) not in (None, o.last_index)]
    assert len(settled) > 100
    leaks = [v for par, o in cases if par.alpha > 1.0 and o.last_index >= 3
             for v in audit_bounds(o, par).violations if v.index == 4]
    assert leaks, "expected starts below alpha to overshoot at index 4"


# boxes through 0, below 0, spanning the float range, with non-finite
# ends, and single points; None is the default axis above alpha
INF, NAN = float("inf"), float("nan")
PERIOD2_BOXES = (None, (0.0, 2.0), (-1.0, 2.0), (-2.0, -0.5), (1e-300, 1e300),
                 (-1e300, 1e300), (INF, 1.0), (1.0, INF), (-INF, INF),
                 (NAN, 1.0), (3.0, 3.0), (0.0, 0.0))


def period2_params():
    """Non-integer, integer (negative bases stay finite), huge and tiny
    exponents, and alphas from 1e-300 to 1e300."""
    rng = np.random.default_rng(11)
    out = [Params(*rng.uniform(0.05, 5.0, 3)) for _ in range(3)]
    out += [Params(rng.uniform(0.05, 5.0), float(rng.integers(1, 5)),
                   float(rng.integers(1, 5))) for _ in range(3)]
    out += [Params(1e-300, 300.0, 1e-9), Params(1e300, 0.5, 7.0)]
    return out


# --------------------------------------------------------------------------
# Comparisons


def test_semicycles_match_reference():
    for par, orbit in generated_orbits():
        eq = equilibrium(par)
        assert semicycles(orbit, eq) == ref_semicycles(orbit, eq), orbit


FIELD_TYPES = {"sign": str, "start": int, "length": int,
               "open_ended": bool, "component": str, "aligned": bool}


def test_semicycle_records_have_plain_field_types():
    # tuple == would also accept plain tuples or numpy scalar fields
    records = 0
    for par, orbit in generated_orbits():
        dec = semicycles(orbit, equilibrium(par))
        for cycles in (dec.x, dec.y, dec.joint):
            for c in cycles:
                assert type(c) is SemiCycle
                for name, kind in FIELD_TYPES.items():
                    assert type(getattr(c, name)) is kind, (name, c)
            records += len(cycles)
    assert records > 100_000


def test_settling_and_resolved_prefix_match_reference():
    for par, orbit in generated_orbits():
        eq = equilibrium(par)
        assert settling_index(orbit, eq) == ref_settling_index(orbit, eq)
        core, end = resolved_prefix(orbit, eq), ref_resolved_end(orbit, eq)
        if end is None:
            assert core is orbit
        else:
            assert core is not orbit and core.last_index == end


def test_classify_oscillation_matches_reference():
    compared = 0
    for par, orbit in generated_orbits():
        eq = equilibrium(par)
        report = classify_oscillation(orbit, eq)
        if len(orbit) < MIN_ORBIT_POINTS:
            assert report.x_status == "insufficient-data"
            continue
        assert report.x_status == ref_classify_component(orbit.xs, eq.x_bar)
        assert report.y_status == ref_classify_component(orbit.ys, eq.y_bar)
        compared += 1
    assert compared > 2500


def test_detect_monotone_tail_matches_reference():
    for par, orbit in generated_orbits():
        tails = detect_monotone_tail(orbit)
        if len(orbit) < MIN_ORBIT_POINTS:
            continue
        assert tails.x == ref_monotone_tail(orbit.xs, orbit.FIRST_INDEX)
        assert tails.y == ref_monotone_tail(orbit.ys, orbit.FIRST_INDEX)


def test_audit_bounds_matches_reference():
    violations = early = 0
    for par, orbit in generated_orbits():
        if par.alpha <= 1.0 or orbit.last_index < 3:
            continue
        audit = audit_bounds(orbit, par)
        assert audit == ref_audit_bounds(orbit, par)
        if orbit.deviations is not None:  # simulated, not hand-built
            violations += len(audit.violations)
        # a negative slack turns every envelope value into a reported
        # upper bound, so all of them are compared bit for bit
        audit = audit_bounds(orbit, par, slack=-1.0)
        assert audit == ref_audit_bounds(orbit, par, slack=-1.0)
        early += len(audit.early_violations)
    assert violations == 0 and early > 1000


def test_classify_matches_reference_spectrum():
    rng = np.random.default_rng(7)
    side = 5.196152422706632  # the double root of the cubic at alpha = 1
    triples = [Params(1.0, 2.0 * s, 2.0 * s) for s in np.geomspace(1e-3, 1e7, 400)]
    triples += [Params(*rng.uniform(0.05, 5.0, 3)) for _ in range(400)]
    triples.append(Params(1.0, side, side))
    for par in triples:
        report = classify(par)
        eigs, residual = ref_cubic_spectrum(par)
        assert report.eigenvalues == eigs
        assert report.char_residual == residual
        assert report.spectral_radius == max(abs(z) for z in eigs)


DOUBLE_ROOT_SIDE = 5.196152422706632  # p = q at the cubic's double root, alpha = 1


def map_sweep(seed, count):
    """A sweep file on the benchmark's stability-map axis recipe."""
    rng = np.random.default_rng(seed)
    return {"alpha": [0.2 + 0.1 * rng.random(), 3.0 + 0.2 * rng.random(), count],
            "p": [0.1 + 0.05 * rng.random(), 3.0 + 0.1 * rng.random(), count],
            "q": [0.1 + 0.05 * rng.random(), 3.0 + 0.1 * rng.random(), count]}


def sweep_nodes(data):
    """The nodes of a sweep file, in the sweep's row order."""
    spec = sweep_from_dict(data)
    return [Params(float(a), float(p), float(q)) for a in spec.alpha.values()
            for p in spec.p.values() for q in spec.q.values()]


def test_classify_batch_matches_the_per_node_loop():
    maps = [par for seed in range(4) for par in sweep_nodes(map_sweep(seed, 6))]
    log_s = [Params(1.0, 2.0 * s, 2.0 * s) for s in np.geomspace(1e-3, 1e7, 400)]
    band = [Params(1.0, float(v), float(v)) for v in np.linspace(
        DOUBLE_ROOT_SIDE * (1 - 1e-10), DOUBLE_ROOT_SIDE * (1 + 1e-10), 801)]
    couplings = np.geomspace(1e40, 1e300, 40)
    overflow = [Params(alpha, float(v), float(w)) for alpha in (0.5, 1.0, 3.0)
                for v in couplings for w in (float(v), 0.7)]
    raised = []
    for nodes in (maps, log_s, band, overflow):
        rows = classify_batch(nodes)
        assert rows == ref_sweep_rows(nodes)
        raised.append(rows.count(None))
    assert raised[:3] == [0, 0, 131] and 0 < raised[3] < len(overflow)


def test_sweep_spectrum_settles_the_margin_exactly(monkeypatch):
    on = [(1.0, 2.0, 1.0), (3.0, 8.0, 1.0)]  # 2pq == (alpha+1)**2 in binary64
    near = [tuple(math.nextafter(v, toward) if j == i else v for j, v in enumerate(t))
            for t in on for i in range(3) for toward in (0.0, math.inf)]
    spread = [(alpha, s * (alpha + 1.0), s * (alpha + 1.0)) for alpha in (0.5, 3.0)
              for s in np.geomspace(1e-6, 1e300, 120).tolist()]
    triples = on + near + spread
    fallback = []
    exact_sign = stability._jury_sign
    monkeypatch.setattr(stability, "_jury_sign",
                        lambda *t: fallback.append(t) or exact_sign(*t))
    radius, labels = stability.sweep_spectrum(*map(np.array, zip(*triples)))
    monkeypatch.undo()
    nodes = [Params(*t) for t in triples]
    assert labels == [stability._label(par) for par in nodes]
    assert labels[:2] == ["inconclusive"] * 2
    assert set(labels[2:14]) == {"unstable", "locally-asymptotically-stable"}
    raised = 0
    for par, r in zip(nodes, radius.tolist()):
        try:
            expected = classify(par).spectral_radius
        except ConvergenceError:
            raised += 1
            assert math.isnan(r)
        else:
            assert r == expected
    # the boundary, its neighbours, and every row whose 2pq overflows
    overflowing = sum(math.isinf(2.0 * p * q) for _alpha, p, q in spread)
    assert len(fallback) == len(on) + len(near) + overflowing
    assert overflowing > 0 and raised > 0


SWEEP_FILES = {
    "map": map_sweep(0, 6),
    "overflow": {"alpha": [0.5, 3.0, 3], "p": [1e40, 1e200, 6], "q": [0.5, 1e200, 5]},
    "simulate": dict(map_sweep(1, 5), simulate={
        "n_steps": 40, "x_init": [2.5, 6.0, 2.0], "y_init": [4.0, 2.0, 5.0]}),
}


@pytest.mark.parametrize("fmt", ["csv", "text"])
@pytest.mark.parametrize("name", sorted(SWEEP_FILES))
def test_sweep_output_equals_the_reference_rows(tmp_path, capsys, name, fmt):
    data = SWEEP_FILES[name]
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps(data))
    assert main(["sweep", "--config", str(cfg), "--format", fmt]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    nodes = sweep_nodes(data)
    rows = ref_sweep_rows(nodes)
    assert (None in rows) == (name == "overflow")
    sim = data.get("simulate")
    expected = []
    for par, row in zip(nodes, rows):
        cells = [repr(par.alpha), repr(par.p), repr(par.q)]
        cells += ["", "convergence-error"] if row is None else [repr(row[0]), row[1]]
        if sim is not None:
            orbit = simulate(par, InitialConditions(sim["x_init"], sim["y_init"]),
                             sim["n_steps"])
            converged, _ = final_convergence(orbit, equilibrium(par),
                                             Tolerances().convergence_tol)
            cells.append("yes" if converged else "no")
        expected.append(cells)
    lines = out.out.splitlines()
    assert len(lines) == 1 + len(nodes)
    if fmt == "csv":
        assert [line.split(",") for line in lines[1:]] == expected
    else:
        assert [line.split() for line in lines[1:]] == [
            [c for c in cells if c] for cells in expected]


def test_find_period2_matches_reference_loop():
    results = []
    for par in period2_params():
        for grid_points in range(1, 12):
            for box in PERIOD2_BOXES:
                res = find_period2(par, grid_points=grid_points, box=box)
                assert repr(res) == repr(ref_find_period2(par, grid_points, box))
                results.append(res)
    assert len(results) >= 1000
    starts = [r.converged + r.diverged for r in results]
    assert sum(r.converged == 0 for r in results) > 100
    assert sum(0 < r.converged < n for r, n in zip(results, starts)) > 100
    assert sum(r.converged == n for r, n in zip(results, starts)) > 100


def test_find_period2_raises_no_runtime_warning():
    # the loop warns here: division by 0, negative bases, overflow, inf - inf
    for par in period2_params():
        for box in PERIOD2_BOXES:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                find_period2(par, grid_points=5, box=box)


# --------------------------------------------------------------------------
# Properties on generated sign patterns

BAR = 3.0
levels = st.sampled_from((BAR - 1.0, BAR, BAR + 1.0))
patterns = st.integers(3, 40).flatmap(lambda n: st.tuples(
    st.lists(levels, min_size=n, max_size=n), st.lists(levels, min_size=n, max_size=n)))


def decompose(pattern):
    xs, ys = pattern
    orbit = Orbit(Params(2.0, 1.0, 1.0), xs, ys)
    return orbit, semicycles(orbit, Equilibrium(BAR, BAR))


def covered(cycles):
    return [i for c in cycles for i in range(c.start, c.start + c.length)]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(patterns)
def test_component_runs_partition_with_alternating_signs(pattern):
    orbit, dec = decompose(pattern)
    for cycles, values in ((dec.x, orbit.xs), (dec.y, orbit.ys)):
        assert covered(cycles) == list(orbit.indices)
        assert all(a.sign != b.sign for a, b in zip(cycles, cycles[1:]))
        assert [c.open_ended for c in cycles] == [False] * (len(cycles) - 1) + [True]
        for c in cycles:
            seg = values[c.start + 2: c.start + 2 + c.length]
            assert np.all((seg >= BAR) == (c.sign == "positive"))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(patterns)
def test_joint_runs_cover_exactly_the_agreeing_indices(pattern):
    orbit, dec = decompose(pattern)
    px, py = orbit.xs >= BAR, orbit.ys >= BAR
    agreeing = [i for i in orbit.indices if px[i + 2] == py[i + 2]]
    assert covered(dec.joint) == agreeing
    assert dec.misaligned_count == len(orbit) - len(agreeing)
    for c in dec.joint:
        assert np.all(px[c.start + 2: c.start + 2 + c.length] == (c.sign == "positive"))
    assert dec == ref_semicycles(orbit, Equilibrium(BAR, BAR))


def test_hand_built_audit_reports_lower_bound_misses_in_index_order():
    par = Params(2.0, 0.6, 0.9)
    xs = [3.0, 3.0, 3.0, 1.5, 3.0, 2.0, 3.0]
    ys = [3.0, 3.0, 3.0, 3.0, 1.0, 1.0, 3.0]
    orbit = Orbit(par, xs, ys)
    audit = audit_bounds(orbit, par)
    assert [(v.index, v.component) for v in audit.violations] == [
        (1, "x"), (2, "y"), (3, "x"), (3, "y")]
    assert audit.violations[0].upper is None
    assert audit == ref_audit_bounds(orbit, par)
