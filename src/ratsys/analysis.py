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
from itertools import repeat
from typing import NamedTuple

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
WITNESS_TOL = 1e-6  # a period-2 point farther from the equilibrium is nontrivial


class SemiCycle(NamedTuple):
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


def _runs(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First and last positions of the maximal constant runs of a 1-d array."""
    flip = np.flatnonzero(a[1:] != a[:-1])
    return np.concatenate(([0], flip + 1)), np.append(flip, len(a) - 1)


def _after_last(mask: np.ndarray) -> int:
    """Position just after the last true entry of `mask`; 0 when none is true."""
    hits = np.flatnonzero(mask)
    return int(hits[-1]) + 1 if len(hits) else 0


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
    agree = px == py

    def cycles(starts, ends, positive, component, aligned) -> tuple[SemiCycle, ...]:
        return tuple(map(SemiCycle._make, zip(
            map((SIGN_NEGATIVE, SIGN_POSITIVE).__getitem__, positive[starts].tolist()),
            (starts + first).tolist(), (ends - starts + 1).tolist(),
            (ends == last_pos).tolist(), repeat(component), aligned)))

    x_starts, x_ends = _runs(px)
    y_starts, y_ends = _runs(py)
    # joint runs are runs of the x-sign (0/1) where the components agree,
    # with 2 marking the disagreeing indices, whose runs are dropped
    code = np.where(agree, px, 2)
    starts, ends = _runs(code)
    keep = code[starts] != 2
    starts, ends = starts[keep], ends[keep]
    # boundary i sits before position i; count the components with a
    # run boundary there (every run ends before the next one starts)
    shared = np.zeros(len(px) + 1, dtype=np.int8)
    shared[x_starts] += 1
    shared[y_starts] += 1
    shared[-1] = 2
    aligned = (shared[starts] == 2) & (shared[ends + 1] == 2)
    return SemiCycleDecomposition(
        x=cycles(x_starts, x_ends, px, "x", repeat(True)),
        y=cycles(y_starts, y_ends, py, "y", repeat(True)),
        joint=cycles(starts, ends, px, "joint", aligned.tolist()),
        misaligned_count=int(np.count_nonzero(~agree)),
    )


def settling_index(orbit: Orbit, eq: Equilibrium) -> int | None:
    """First index from which the orbit stays within EQUILIBRIUM_TOL of eq.

    Beyond this point deviations sit at rounding scale, where sign
    structure reflects floating-point dust rather than the dynamics.
    Returns None when the orbit never settles.
    """
    close = ((np.abs(orbit.xs - eq.x_bar) <= EQUILIBRIUM_TOL)
             & (np.abs(orbit.ys - eq.y_bar) <= EQUILIBRIUM_TOL))
    if not close[-1]:
        return None
    return orbit.FIRST_INDEX + _after_last(~close)


def resolved_prefix(orbit: Orbit, eq: Equilibrium) -> Orbit:
    """The orbit up to (and including) its first settled index.

    Orbits that never settle come back unchanged; the settled tail is cut
    so that exact-comparison classifiers do not chew on rounding noise.
    """
    settled = settling_index(orbit, eq)
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


def _classify_component(values: np.ndarray, bar: float) -> str:
    dev = values - bar
    # drop the converged tail so float-exact settling does not mask oscillation
    k = _after_last(np.abs(dev) > EQUILIBRIUM_TOL)
    if k == 0:
        return OSC_AT_EQUILIBRIUM
    positive = dev[:k] >= 0.0
    side = positive[-1]
    run_start = _after_last(positive != side)
    if run_start == 0 or k - run_start >= max(MIN_TAIL_LEN, k // 4):
        return OSC_NONOSC_POSITIVE if side else OSC_NONOSC_NEGATIVE
    return OSC_OSCILLATORY


def classify_oscillation(orbit: Orbit, eq: Equilibrium) -> OscillationReport:
    """Classify each component as oscillatory, one-sided, or settled.

    The tail settled within EQUILIBRIUM_TOL of the equilibrium is trimmed
    first.  A component whose trimmed core ends with a long
    strictly-one-sided run (at least max(MIN_TAIL_LEN, quarter of the
    core)) counts as non-oscillatory on that side; recurring sign changes
    up to the end count as oscillatory.  Orbits shorter than
    MIN_ORBIT_POINTS report insufficient data.
    """
    if len(orbit) < MIN_ORBIT_POINTS:
        return OscillationReport(OSC_INSUFFICIENT, OSC_INSUFFICIENT, OSC_INSUFFICIENT)
    x_status = _classify_component(orbit.xs, eq.x_bar)
    y_status = _classify_component(orbit.ys, eq.y_bar)
    if x_status == OSC_AT_EQUILIBRIUM and y_status == OSC_AT_EQUILIBRIUM:
        joint = OSC_AT_EQUILIBRIUM
    elif OSC_OSCILLATORY in (x_status, y_status):
        joint = OSC_OSCILLATORY
    else:
        joint = "nonoscillatory"
    return OscillationReport(x_status, y_status, joint)


def _monotone_tail(values: np.ndarray, first_index: int) -> MonotoneTail:
    up = values[:-1] < values[1:]
    down = values[:-1] > values[1:]
    # each monotone suffix begins just after the last step the other way
    for direction, moves, against in (("increasing", up, down), ("decreasing", down, up)):
        start = _after_last(against)
        length = len(values) - start
        if length >= MIN_TAIL_LEN and np.any(moves[start:]):
            return MonotoneTail(direction, first_index + start, length)
    return MonotoneTail("none", None, 0)


def detect_monotone_tail(orbit: Orbit) -> MonotoneTailReport:
    """Longest monotone suffix per component (non-strict comparisons).

    A tail counts only if it spans at least MIN_TAIL_LEN terms and contains
    at least one strict move; constant tails report "none".
    """
    if len(orbit) < MIN_ORBIT_POINTS:
        none = MonotoneTail("none", None, 0)
        return MonotoneTailReport(none, none)
    return MonotoneTailReport(
        x=_monotone_tail(orbit.xs, orbit.FIRST_INDEX),
        y=_monotone_tail(orbit.ys, orbit.FIRST_INDEX),
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
                 box: tuple[float, float] | None = None) -> Period2Result:
    """Search a grid of alternating-state starts for period-2 fixed points.

    Every start lands on the equilibrium after two applications of the
    second-iterate map (see `second_iterate_map`); a third application
    confirms that no start moves.  A start whose state turns non-finite or
    non-positive at any application diverged; one that still moves on the
    third is stalled; the rest converged.  A converged point farther than
    WITNESS_TOL from the equilibrium in max-norm is a nontrivial witness.
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
        found_nontrivial=bool(residual > WITNESS_TOL),
        witness=witness,
        residual=residual,
        converged=converged_count,
        diverged=diverged_count,
        stalled=stalled,
    )
