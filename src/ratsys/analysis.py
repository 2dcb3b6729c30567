"""Orbit classification against the equilibrium.

Semi-cycles are maximal runs of consecutive terms on one side of the
equilibrium: a positive run covers terms >= the equilibrium value, a
negative run covers terms strictly below it (the tie sits with the
positive side, and comparisons are exact, no tolerance).  A joint
semi-cycle exists where the x-run and y-run carry the same sign; it is
"aligned" when both component runs start and end at the same indices.

The length rule checked here: once a closed aligned joint semi-cycle
with at least two terms has occurred, every later closed aligned joint
semi-cycle must have at least three terms.  The trailing open run is
exempt because its true length is unknown.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Equilibrium, Orbit, Params

SIGN_POSITIVE = "positive"
SIGN_NEGATIVE = "negative"

OSC_OSCILLATORY = "oscillatory"
OSC_NONOSC_POSITIVE = "nonoscillatory-positive"
OSC_NONOSC_NEGATIVE = "nonoscillatory-negative"
OSC_AT_EQUILIBRIUM = "at-equilibrium"
OSC_INSUFFICIENT = "insufficient-data"

EQUILIBRIUM_TOL = 1e-12
MIN_ORBIT_POINTS = 10
MIN_TAIL_LEN = 6


@dataclass(frozen=True)
class SemiCycle:
    sign: str             # "positive" | "negative"
    start: int            # orbit index of the first covered term
    length: int           # number of covered terms
    open_ended: bool      # reaches the end of the finite orbit
    component: str        # "x" | "y" | "joint"
    aligned: bool = True  # joint only: x-run and y-run boundaries coincide


@dataclass(frozen=True)
class SemiCycleDecomposition:
    x: tuple[SemiCycle, ...]
    y: tuple[SemiCycle, ...]
    joint: tuple[SemiCycle, ...]
    misaligned_count: int  # indices where the x-sign and y-sign disagree


@dataclass(frozen=True)
class RuleCheck:
    holds: bool
    violation: int | None  # position in the supplied joint list, if any


@dataclass(frozen=True)
class OscillationReport:
    x_status: str
    y_status: str
    joint_status: str


@dataclass(frozen=True)
class MonotoneTail:
    direction: str        # "increasing" | "decreasing" | "none"
    start: int | None     # orbit index where the tail begins
    length: int


@dataclass(frozen=True)
class MonotoneTailReport:
    x: MonotoneTail
    y: MonotoneTail


@dataclass(frozen=True)
class Period2Result:
    found_nontrivial: bool
    witness: tuple[tuple[float, float], tuple[float, float]] | None
    residual: float
    converged: int
    diverged: int
    stalled: int


def _sign_runs(positive: np.ndarray) -> list[tuple[int, int]]:
    """Maximal constant-value runs of a boolean array, as (start, end) positions."""
    runs = []
    start = 0
    for i in range(1, len(positive)):
        if positive[i] != positive[i - 1]:
            runs.append((start, i - 1))
            start = i
    runs.append((start, len(positive) - 1))
    return runs


def semicycles(orbit: Orbit, eq: Equilibrium) -> SemiCycleDecomposition:
    """Decompose an orbit into per-component and joint semi-cycles.

    Per-component lists partition the full index range with strictly
    alternating signs.  Joint entries cover only the index ranges where
    both components sit on the same side; misaligned indices are counted,
    not covered.
    """
    first = orbit.FIRST_INDEX
    last_pos = len(orbit.xs) - 1
    px = orbit.xs >= eq.x_bar
    py = orbit.ys >= eq.y_bar

    def component_cycles(pos_mask: np.ndarray, component: str) -> tuple[SemiCycle, ...]:
        out = []
        for s, e in _sign_runs(pos_mask):
            out.append(SemiCycle(
                sign=SIGN_POSITIVE if pos_mask[s] else SIGN_NEGATIVE,
                start=first + s,
                length=e - s + 1,
                open_ended=(e == last_pos),
                component=component,
            ))
        return tuple(out)

    x_cycles = component_cycles(px, "x")
    y_cycles = component_cycles(py, "y")

    x_bounds = {(c.start, c.start + c.length - 1) for c in x_cycles}
    y_bounds = {(c.start, c.start + c.length - 1) for c in y_cycles}

    agree = px == py
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
        joint.append(SemiCycle(
            sign=SIGN_POSITIVE if px[i] else SIGN_NEGATIVE,
            start=first + i,
            length=j - i + 1,
            open_ended=(j == last_pos),
            component="joint",
            aligned=(bounds in x_bounds and bounds in y_bounds),
        ))
        i = j + 1
    return SemiCycleDecomposition(
        x=x_cycles,
        y=y_cycles,
        joint=tuple(joint),
        misaligned_count=int(np.count_nonzero(~agree)),
    )


def settling_index(orbit: Orbit, eq: Equilibrium,
                   tol: float = EQUILIBRIUM_TOL) -> int | None:
    """First index from which the orbit stays within tol of the equilibrium.

    Beyond this point deviations sit at rounding scale, where sign
    structure reflects floating-point dust rather than the dynamics.
    Returns None when the orbit never settles.
    """
    close = (np.abs(orbit.xs - eq.x_bar) <= tol) & (np.abs(orbit.ys - eq.y_bar) <= tol)
    if not close[-1]:
        return None
    i = len(close) - 1
    while i > 0 and close[i - 1]:
        i -= 1
    return orbit.FIRST_INDEX + i


def resolved_prefix(orbit: Orbit, eq: Equilibrium,
                    tol: float = EQUILIBRIUM_TOL) -> Orbit:
    """The orbit up to (and including) its first settled index.

    Orbits that never settle come back unchanged; the settled tail is cut
    so that exact-comparison classifiers do not chew on rounding noise.
    """
    settled = settling_index(orbit, eq, tol)
    if settled is None or settled >= orbit.last_index:
        return orbit
    return orbit.prefix(max(settled, orbit.FIRST_INDEX + 2))


def check_semicycle_rule(joint: tuple[SemiCycle, ...] | list[SemiCycle]) -> RuleCheck:
    """Check the joint semi-cycle length rule on aligned closed cycles.

    Within every maximal streak of contiguous aligned cycles (each flip
    between them is a joint flip, so the three-term argument chains), a
    closed cycle shorter than three terms arriving after a closed cycle
    of length >= 2 is a violation; its list position is returned.  The
    trailing open cycle is exempt, and a misaligned entry or a coverage
    gap breaks the streak and disarms the rule.
    """
    armed = False
    prev: SemiCycle | None = None
    for i, sc in enumerate(joint):
        if not sc.aligned:
            armed = False
            prev = sc
            continue
        if prev is not None and (not prev.aligned
                                 or prev.start + prev.length != sc.start):
            armed = False
        prev = sc
        if sc.open_ended:
            continue
        if armed and sc.length < 3:
            return RuleCheck(holds=False, violation=i)
        if sc.length >= 2:
            armed = True
    return RuleCheck(holds=True, violation=None)


def _classify_component(values: np.ndarray, bar: float,
                        eq_tol: float, min_tail: int) -> str:
    dev = values - bar
    if np.all(np.abs(dev) <= eq_tol):
        return OSC_AT_EQUILIBRIUM
    # drop the converged tail so float-exact settling does not mask oscillation
    k = len(dev)
    while abs(dev[k - 1]) <= eq_tol:
        k -= 1
    core = dev[:k]
    positive = core >= 0.0
    side = positive[-1]
    j = k - 1
    while j >= 0 and positive[j] == side:
        j -= 1
    run_len = k - 1 - j
    if j < 0 or run_len >= max(min_tail, k // 4):
        return OSC_NONOSC_POSITIVE if side else OSC_NONOSC_NEGATIVE
    return OSC_OSCILLATORY


def classify_oscillation(orbit: Orbit, eq: Equilibrium,
                         eq_tol: float = EQUILIBRIUM_TOL,
                         min_points: int = MIN_ORBIT_POINTS,
                         min_tail: int = MIN_TAIL_LEN) -> OscillationReport:
    """Classify each component as oscillatory, one-sided, or settled.

    The tail settled within `eq_tol` of the equilibrium is trimmed first.
    A component whose trimmed core ends with a long strictly-one-sided
    run (at least max(min_tail, quarter of the core)) counts as
    non-oscillatory on that side; recurring sign changes up to the end
    count as oscillatory.  Orbits shorter than `min_points` report
    insufficient data.
    """
    if len(orbit) < min_points:
        return OscillationReport(OSC_INSUFFICIENT, OSC_INSUFFICIENT, OSC_INSUFFICIENT)
    x_status = _classify_component(orbit.xs, eq.x_bar, eq_tol, min_tail)
    y_status = _classify_component(orbit.ys, eq.y_bar, eq_tol, min_tail)
    if x_status == OSC_AT_EQUILIBRIUM and y_status == OSC_AT_EQUILIBRIUM:
        joint = OSC_AT_EQUILIBRIUM
    elif OSC_OSCILLATORY in (x_status, y_status):
        joint = OSC_OSCILLATORY
    else:
        joint = "nonoscillatory"
    return OscillationReport(x_status, y_status, joint)


def _monotone_tail(values: np.ndarray, first_index: int, min_len: int) -> MonotoneTail:
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


def detect_monotone_tail(orbit: Orbit, min_len: int = MIN_TAIL_LEN) -> MonotoneTailReport:
    """Longest monotone suffix per component (non-strict comparisons).

    A tail counts only if it spans at least `min_len` terms and contains
    at least one strict move; constant tails report "none".
    """
    if len(orbit) < MIN_ORBIT_POINTS:
        none = MonotoneTail("none", None, 0)
        return MonotoneTailReport(none, none)
    return MonotoneTailReport(
        x=_monotone_tail(orbit.xs, orbit.FIRST_INDEX, min_len),
        y=_monotone_tail(orbit.ys, orbit.FIRST_INDEX, min_len),
    )


def second_iterate_map(params: Params, ax, ay, bx, by):
    """Two steps of the recurrence on the period-2 ansatz.

    States alternate A, B, A, B, ... with the lag-2 entry equal to the
    current one.  The first step then forms the ratio of a state with
    itself, pinning the new B at (alpha + 1, alpha + 1); the second step
    divides that by the old B.
    """
    alpha, p, q = params.alpha, params.p, params.q
    bar = alpha + 1.0
    new_bx = np.full_like(np.asarray(bx, dtype=np.float64), bar)
    new_by = np.full_like(np.asarray(by, dtype=np.float64), bar)
    new_ax = alpha + (bar / np.asarray(by, dtype=np.float64)) ** p
    new_ay = alpha + (bar / np.asarray(bx, dtype=np.float64)) ** q
    return new_ax, new_ay, new_bx, new_by


def find_period2(params: Params,
                 grid_points: int = 11,
                 box: tuple[float, float] | None = None,
                 tol: float = 1e-6) -> Period2Result:
    """Search a grid of alternating-state starts for period-2 fixed points.

    Every start lands on the equilibrium after two applications of the
    second-iterate map (see `second_iterate_map`); a third application
    confirms that no start moves.  A start whose state turns non-finite or
    non-positive at any application diverged; one that still moves on the
    third is stalled; the rest converged.  A converged point farther than
    `tol` from the equilibrium in max-norm is a nontrivial witness.
    """
    alpha = params.alpha
    bar = alpha + 1.0
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
        state = np.stack(second_iterate_map(params, *state))
        diverged |= ~np.all(np.isfinite(state) & (state > 0.0), axis=0)
    moved = np.any(state != prev, axis=0) & ~diverged

    stalled = int(np.count_nonzero(moved))
    diverged_count = int(np.count_nonzero(diverged))
    converged_mask = ~moved & ~diverged
    converged_count = int(np.count_nonzero(converged_mask))

    if converged_count == 0:
        return Period2Result(False, None, float("nan"),
                             0, diverged_count, stalled)
    conv = state[:, converged_mask]
    residuals = np.max(np.abs(conv - bar), axis=0)
    worst = int(np.argmax(residuals))
    residual = float(residuals[worst])
    witness = ((float(conv[0, worst]), float(conv[1, worst])),
               (float(conv[2, worst]), float(conv[3, worst])))
    return Period2Result(
        found_nontrivial=bool(residual > tol),
        witness=witness,
        residual=residual,
        converged=converged_count,
        diverged=diverged_count,
        stalled=stalled,
    )
