"""Explicit geometric envelopes that majorize bounded orbits.

For alpha > 1 and exponents in (0, 1], the even and odd subsequences of
each component are dominated termwise by geometric paths

    seed * a**n + (B / (1 - a)) * (1 - a**n),

where a = alpha**-(p+q) < 1, B = alpha**(1-p) + alpha for the x-series
and alpha**(1-q) + alpha for the y-series, and the seeds are the orbit's
own values at indices 2 and 3.  Each doubled step x[k] -> x[k+2] divides
by x[k-2], so the step from index 2 to 4 needs the index-0 value to be
at least alpha; a component whose index-0 value is below alpha seeds its
even branch at index 4 instead.  The lower bound alpha holds strictly
from index 1 on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Orbit, Params
from .errors import DomainError


@dataclass(frozen=True)
class EnvelopeCoeffs:
    """Geometric ratio `a` and the per-component drive terms `b`, `c`."""

    a: float
    b: float
    c: float


@dataclass(frozen=True)
class EnvelopeSeries:
    """Upper-bound sequences seeded from an orbit's indices 2 and 3."""

    x_even: np.ndarray  # bounds for x at indices 2n+2
    x_odd: np.ndarray   # bounds for x at indices 2n+3
    y_even: np.ndarray
    y_odd: np.ndarray


@dataclass(frozen=True)
class Violation:
    index: int
    component: str
    value: float
    lower: float
    upper: float | None


@dataclass(frozen=True)
class BoundsAudit:
    checked: int
    violations: tuple[Violation, ...]
    early_violations: tuple[Violation, ...]  # upper-bound misses at seed indices
    max_slack_used: float


def envelope_coeffs(params: Params) -> EnvelopeCoeffs:
    """Envelope coefficients; defined only for alpha > 1 (so a < 1)."""
    alpha, p, q = params.alpha, params.p, params.q
    if alpha <= 1.0:
        raise DomainError(f"envelope requires alpha > 1, got alpha={alpha}")
    return EnvelopeCoeffs(
        a=alpha ** -(p + q),
        b=alpha ** (1.0 - p) + alpha,
        c=alpha ** (1.0 - q) + alpha,
    )


def envelope_at(coeffs: EnvelopeCoeffs, seed: float, n: int,
                component: str = "x") -> float:
    """Envelope value seed*a**n + (B/(1-a))*(1-a**n) after n doubled steps."""
    if n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n}")
    drive = coeffs.b if component == "x" else coeffs.c
    an = coeffs.a ** n
    return seed * an + (drive / (1.0 - coeffs.a)) * (1.0 - an)


def envelope_series(coeffs: EnvelopeCoeffs, x2: float, x3: float,
                    y2: float, y3: float, count: int) -> EnvelopeSeries:
    """The four envelope branches out to `count` doubled steps each."""
    # Python's ** per power, as in `envelope_at`: numpy's vector power
    # can differ from it in the last bit
    an = np.array([coeffs.a ** n for n in range(count)])
    bx = coeffs.b / (1.0 - coeffs.a)
    by = coeffs.c / (1.0 - coeffs.a)
    return EnvelopeSeries(
        x_even=x2 * an + bx * (1.0 - an),
        x_odd=x3 * an + bx * (1.0 - an),
        y_even=y2 * an + by * (1.0 - an),
        y_odd=y3 * an + by * (1.0 - an),
    )


def audit_bounds(orbit: Orbit, params: Params, slack: float = 1e-9) -> BoundsAudit:
    """Check every orbit value against the lower bound and upper envelopes.

    Indices >= 1 must exceed alpha strictly (no slack: each iterate is
    alpha plus a positive term).  From its seed index on (2 or 4 for the
    even branch, see the module docstring, and 3 for the odd one) each
    value must also sit below its envelope plus `slack`; misses at the
    seed indices are recorded separately rather than counted as failures
    (the envelope there is the seed itself, so only a negative slack
    records any).
    """
    alpha = params.alpha
    coeffs = envelope_coeffs(params)
    last = orbit.last_index
    if last < 3:
        raise ValueError("bounds audit needs an orbit reaching index 3")

    # row r holds index r + 1, x then y, so row-major order is index order
    values = np.stack([orbit.xs[3:], orbit.ys[3:]], axis=1)
    fx = 2 if orbit.x_at(0) >= alpha else 4
    fy = 2 if orbit.y_at(0) >= alpha else 4
    # a branch seeded past the orbit's end is empty and reads no seed
    env = envelope_series(coeffs, orbit.x_at(min(fx, last)), orbit.x_at(3),
                          orbit.y_at(min(fy, last)), orbit.y_at(3), last // 2)
    upper = np.full_like(values, np.nan)  # no envelope before a branch's seed
    seeds = np.zeros(values.shape, dtype=bool)
    for c, branches in enumerate((((fx, env.x_even), (3, env.x_odd)),
                                  ((fy, env.y_even), (3, env.y_odd)))):
        for first, branch in branches:
            slot = upper[first - 1::2, c]
            slot[:] = branch[: len(slot)]
            seeds[first - 1:first, c] = True

    above = values > alpha
    overshoot = values - upper
    missed = above & (overshoot > slack)
    used = overshoot[above & (overshoot <= slack)]

    def listed(mask) -> tuple[Violation, ...]:
        return tuple(Violation(r + 1, "xy"[c], float(values[r, c]), alpha,
                               None if np.isnan(upper[r, c]) else float(upper[r, c]))
                     for r, c in np.argwhere(mask).tolist())

    return BoundsAudit(
        checked=values.size,
        violations=listed(~above | (missed & ~seeds)),
        early_violations=listed(missed & seeds),
        max_slack_used=max(0.0, float(used.max(initial=0.0))),
    )
