"""Error-vector tracking and decay-rate estimation for converging orbits.

The deviation of a converging orbit from the equilibrium, stacked over
three lags of both components, contracts asymptotically at a rate equal
to the modulus of one eigenvalue of the linearization.  The rate is
estimated two ways: the geometric mean of successive error-norm ratios
over a trailing window, and the n-th root of the last usable norm.

The deviations come from the orbit's deviation channel when it has one
(every simulated orbit does), which stays accurate until the squared
norm leaves the normal binary64 range.  Orbits built from values alone
fall back to value - equilibrium, which cancellation swamps below about
1e-13; their norm sequence stops there.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import Equilibrium, Orbit
from .errors import InsufficientDataError

NORM_FLOOR = 1e-13
# smallest norm whose square is a normal binary64 number (about 1.5e-154)
UNDERFLOW_FLOOR = math.sqrt(sys.float_info.min)
DEFAULT_WINDOW = 50
MIN_BURN_IN = 10  # fewest leading norms `fit_window` leaves out


@dataclass(frozen=True)
class ErrorVector:
    """Deviations from the equilibrium at lags 0, 1, 2 of both components."""

    n: int
    x_dev: float
    x_dev_prev: float
    x_dev_prev2: float
    y_dev: float
    y_dev_prev: float
    y_dev_prev2: float
    norm: float


@dataclass(frozen=True)
class RateEstimate:
    ratio_estimate: float
    root_estimate: float
    matched_modulus: float | None
    gap: float | None
    usable_range: tuple[int, int]


def _deviations(orbit: Orbit, eq: Equilibrium) -> tuple[np.ndarray, np.ndarray, float]:
    """Deviations of both components from `eq`, with their default floor.

    The orbit's deviation channel is used when it measures from the same
    point; otherwise the deviations are value - equilibrium, trustworthy
    only down to NORM_FLOOR.
    """
    bar = orbit.params.alpha + 1.0
    if orbit.deviations is not None and eq.x_bar == bar and eq.y_bar == bar:
        dx, dy = orbit.deviations
        return dx, dy, UNDERFLOW_FLOOR
    return orbit.xs - eq.x_bar, orbit.ys - eq.y_bar, NORM_FLOOR


def error_norms(orbit: Orbit, eq: Equilibrium, floor: float | None = None) -> np.ndarray:
    """Euclidean norms of the stacked error vectors for n >= 0.

    The sequence stops at the first norm below `floor`.  By default that
    is UNDERFLOW_FLOOR for an orbit with a deviation channel, below which
    the squares in the norm turn subnormal, and NORM_FLOOR for an orbit
    of values alone, below which cancellation noise in value - equilibrium
    dominates.
    """
    dx, dy, default_floor = _deviations(orbit, eq)
    norms = np.sqrt(dx[2:] ** 2 + dx[1:-1] ** 2 + dx[:-2] ** 2
                    + dy[2:] ** 2 + dy[1:-1] ** 2 + dy[:-2] ** 2)
    below = np.flatnonzero(norms < (default_floor if floor is None else floor))
    if len(below):
        norms = norms[: below[0]]
    return norms


def error_sequence(orbit: Orbit, eq: Equilibrium) -> list[ErrorVector]:
    """Stacked error vectors with norms, truncated as in `error_norms`."""
    norms = error_norms(orbit, eq)
    dx, dy, _ = _deviations(orbit, eq)
    out = []
    for i, norm in enumerate(norms):
        out.append(ErrorVector(
            n=i,
            x_dev=float(dx[i + 2]), x_dev_prev=float(dx[i + 1]), x_dev_prev2=float(dx[i]),
            y_dev=float(dy[i + 2]), y_dev_prev=float(dy[i + 1]), y_dev_prev2=float(dy[i]),
            norm=float(norm),
        ))
    return out


def estimate_rate(norms, window: int = DEFAULT_WINDOW) -> RateEstimate:
    """Decay-rate estimates from an error-norm sequence.

    ratio_estimate is the geometric mean of the last `window` consecutive
    norm ratios (telescoping to an end-point ratio); root_estimate is
    norms[N]**(1/N) at the last index.  Requires window + 1 usable norms.
    """
    norms = np.asarray(norms, dtype=np.float64)
    if window < 1:
        raise ValueError("window must be >= 1")
    if len(norms) < window + 1:
        raise InsufficientDataError(
            f"need {window + 1} usable norms (window={window}), got {len(norms)}")
    if not np.all(np.isfinite(norms)) or np.any(norms <= 0.0):
        raise InsufficientDataError("norms must be positive and finite")
    last = len(norms) - 1
    ratio = float((norms[last] / norms[last - window]) ** (1.0 / window))
    root = float(norms[last] ** (1.0 / last))
    return RateEstimate(
        ratio_estimate=ratio,
        root_estimate=root,
        matched_modulus=None,
        gap=None,
        usable_range=(last - window, last),
    )


def match_eigenvalue(estimate: float, eigs) -> tuple[float, float]:
    """Eigenvalue modulus nearest the estimate, with the gap."""
    moduli = [abs(complex(z)) for z in eigs]
    matched = min(moduli, key=lambda m: abs(estimate - m))
    return matched, abs(estimate - matched)


def fit_window(usable: int, theta: float | None = None) -> int:
    """Choose the window for a usable-norm sequence.

    The window ends at the last norm and leaves out at least the first
    quarter of the sequence (and at least MIN_BURN_IN norms).  Without a
    rotation angle it is DEFAULT_WINDOW, shrunk to an even one when that
    does not fit.  Given the rotation angle of the dominant eigenvalue,
    the window is instead aligned so window * theta sits near a multiple
    of pi: complex dominant pairs modulate the error norms at that
    frequency, and an aligned even window cancels the modulation at both
    telescoping endpoints regardless of its phase.
    """
    top = usable - 1 - max(MIN_BURN_IN, (usable - 1) // 4)
    if theta is None:
        w = min(DEFAULT_WINDOW, top)
        w -= w % 2
    else:
        best, best_score = None, None
        for w_try in range(8, top + 1, 2):
            k = round(w_try * theta / math.pi)
            score = abs(w_try * theta - k * math.pi) / w_try
            if best is None or score <= best_score - 1e-12 or (
                    abs(score - best_score) < 1e-12 and w_try > best):
                best, best_score = w_try, score
        w = 0 if best is None else best
    if w < 8:
        raise InsufficientDataError(
            f"only {usable} usable norms; too few for a rate estimate")
    return w


def final_convergence(orbit: Orbit, eq: Equilibrium,
                      tol: float) -> tuple[bool, float]:
    """Whether the orbit completed and ends within `tol` of `eq`
    (max-norm of the last point), and that final deviation."""
    last = orbit.last_index
    dev = max(abs(orbit.x_at(last) - eq.x_bar), abs(orbit.y_at(last) - eq.y_bar))
    return orbit.termination.completed and dev < tol, dev


def rate_report(orbit: Orbit, eq: Equilibrium, eigs,
                window: int | None = None,
                convergence_tol: float = 1e-6) -> RateEstimate:
    """Rate estimate for a converged orbit, matched to the spectrum.

    Raises InsufficientDataError when the orbit did not converge to the
    equilibrium (final deviation >= convergence_tol) or the usable norm
    sequence is too short.  When no window is given it is auto-fitted to
    the usable length and aligned with the dominant eigenvalue's rotation
    angle.
    """
    converged, final_dev = final_convergence(orbit, eq, convergence_tol)
    if not converged:
        raise InsufficientDataError(
            f"orbit did not converge (final deviation {final_dev:g}, "
            f"termination {orbit.termination.kind})")
    norms = error_norms(orbit, eq)
    if window is None:
        dominant = max((complex(z) for z in eigs),
                       key=lambda z: (abs(z), abs(z.imag)))
        theta = None
        if abs(dominant) > 0.0:
            theta = abs(math.atan2(dominant.imag, dominant.real))
        window = fit_window(len(norms), theta=theta)
    estimate = estimate_rate(norms, window=window)
    matched, gap = match_eigenvalue(estimate.ratio_estimate, eigs)
    return replace(estimate, matched_modulus=matched, gap=gap)
