"""Core recurrence: parameters, state windows, and forward simulation.

The system iterates two coupled third-order rational recurrences

    x[n+1] = alpha + (y[n] / y[n-2])**p
    y[n+1] = alpha + (x[n] / x[n-2])**q

from three positive initial values per component (indices -2, -1, 0).
Every iterate from index 1 on is strictly greater than alpha, and the
unique positive fixed point is (alpha + 1, alpha + 1).

Near that point `value - (alpha + 1)` cancels: once an iterate has
rounded to alpha + 1 its deviation reads as zero.  `simulate` therefore
also carries the deviations e = value - (alpha + 1) themselves, through
the identity

    e_x[n+1] = expm1(p * (log1p(e_y[n] / bar) - log1p(e_y[n-2] / bar)))

(bar = alpha + 1, and likewise for e_y with q and e_x).  That keeps
their relative accuracy (within 1e-11 of an 80-digit reference on the
example presets) all the way down to underflow (Higham, Accuracy and
Stability of Numerical Algorithms, 2nd ed., 1.14).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

DEFAULT_CAP = 1e12

TERM_COMPLETED = "completed"
TERM_OVERFLOW = "overflow"
TERM_NAN = "nan"


def _require_positive(name: str, value) -> float:
    v = float(value)
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"{name} must be a positive finite real, got {value!r}")
    return v


def _positive_triple(name: str, values) -> tuple[float, float, float]:
    vals = tuple(float(v) for v in values)
    if len(vals) != 3:
        raise ValueError(f"{name} must hold exactly three values, got {len(vals)}")
    for v in vals:
        if not (math.isfinite(v) and v > 0.0):
            raise ValueError(f"{name} entries must be positive finite reals, got {v!r}")
    return vals


@dataclass(frozen=True)
class Params:
    """System parameters: additive constant and the two ratio exponents."""

    alpha: float
    p: float
    q: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _require_positive("alpha", self.alpha))
        object.__setattr__(self, "p", _require_positive("p", self.p))
        object.__setattr__(self, "q", _require_positive("q", self.q))


@dataclass(frozen=True)
class InitialConditions:
    """Initial values at indices -2, -1, 0 for each component, all positive."""

    x: tuple[float, float, float]
    y: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "x", _positive_triple("x_init", self.x))
        object.__setattr__(self, "y", _positive_triple("y_init", self.y))


@dataclass(frozen=True)
class Window:
    """Sliding state (x[n-2], x[n-1], x[n]) and (y[n-2], y[n-1], y[n])."""

    x: tuple[float, float, float]
    y: tuple[float, float, float]

    def __post_init__(self):
        object.__setattr__(self, "x", _positive_triple("window.x", self.x))
        object.__setattr__(self, "y", _positive_triple("window.y", self.y))


@dataclass(frozen=True)
class Equilibrium:
    """The unique positive fixed point (alpha + 1, alpha + 1)."""

    x_bar: float
    y_bar: float


@dataclass(frozen=True)
class Termination:
    """How a simulation ended: ran to completion, or truncated at `index`
    by an over-cap value ("overflow") or a degenerate ratio ("nan")."""

    kind: str
    index: int | None = None

    @property
    def completed(self) -> bool:
        return self.kind == TERM_COMPLETED


def equilibrium(params: Params) -> Equilibrium:
    """Fixed point of the recurrence: both components equal alpha + 1."""
    bar = params.alpha + 1.0
    return Equilibrium(bar, bar)


def _advance(alpha: float, p: float, q: float,
             x_n: float, x_m2: float, y_n: float, y_m2: float,
             cap: float) -> tuple[float, float]:
    """One exact step from the window entries at lags 0 and 2."""
    rx = y_n / y_m2
    ry = x_n / x_m2
    if not (rx > 0.0 and ry > 0.0 and math.isfinite(rx) and math.isfinite(ry)):
        raise NumericError(f"degenerate ratio: y-ratio={rx!r}, x-ratio={ry!r}")
    try:
        x_next = alpha + rx**p
        y_next = alpha + ry**q
    except OverflowError:
        raise OverflowError(f"power overflow beyond cap {cap:g}") from None
    if x_next > cap or y_next > cap:
        raise OverflowError(f"iterate exceeds cap {cap:g}")
    if not (x_next > alpha and y_next > alpha):
        raise NumericError("ratio power underflowed below resolution")
    return x_next, y_next


def step(params: Params, window: Window, cap: float = DEFAULT_CAP) -> tuple[float, float]:
    """Next (x, y) from a state window.

    Raises OverflowError if a result exceeds `cap`, NumericError if a ratio
    degenerates (underflow to zero / non-finite) or a result fails to stay
    strictly above alpha.
    """
    return _advance(params.alpha, params.p, params.q,
                    window.x[2], window.x[0], window.y[2], window.y[0], cap)


class Orbit:
    """Immutable time-indexed solution, indices running -2, -1, 0, 1, ...

    Simulated orbits satisfy x[n] > alpha and y[n] > alpha for n >= 1;
    all stored values are finite and positive.

    `deviations` is the optional deviation channel: a read-only (2, len)
    array whose rows are x - (alpha + 1) and y - (alpha + 1), computed
    without cancellation (see the module docstring).  `simulate` fills
    it; orbits built from values alone, such as one read from a CSV
    file, have None.  `xs` and `ys` are the plain iterates either way.
    """

    __slots__ = ("params", "xs", "ys", "termination", "deviations")

    FIRST_INDEX = -2

    def __init__(self, params: Params, xs, ys,
                 termination: Termination = Termination(TERM_COMPLETED),
                 deviations=None):
        # copies: freezing them leaves the caller's arrays writable
        xs = np.array(xs, dtype=np.float64)
        ys = np.array(ys, dtype=np.float64)
        if xs.ndim != 1 or ys.ndim != 1 or len(xs) != len(ys):
            raise ValueError("orbit components must be 1-d arrays of equal length")
        if len(xs) < 3:
            raise ValueError("an orbit holds at least the three initial values")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))
                and np.all(xs > 0.0) and np.all(ys > 0.0)):
            raise ValueError("orbit values must be positive and finite")
        if deviations is not None:
            deviations = np.array(deviations, dtype=np.float64)
            if deviations.shape != (2, len(xs)):
                raise ValueError(f"deviations must have shape (2, {len(xs)}), "
                                 f"got {deviations.shape}")
            if not np.all(np.isfinite(deviations)):
                raise ValueError("orbit deviations must be finite")
            deviations.setflags(write=False)
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)
        object.__setattr__(self, "termination", termination)
        object.__setattr__(self, "deviations", deviations)

    def __setattr__(self, name, value):
        raise AttributeError("Orbit is immutable")

    def __len__(self) -> int:
        return len(self.xs)

    @property
    def last_index(self) -> int:
        return self.FIRST_INDEX + len(self.xs) - 1

    @property
    def indices(self) -> range:
        return range(self.FIRST_INDEX, self.last_index + 1)

    def x_at(self, n: int) -> float:
        return float(self.xs[n - self.FIRST_INDEX])

    def y_at(self, n: int) -> float:
        return float(self.ys[n - self.FIRST_INDEX])

    def point_at(self, n: int) -> tuple[float, float]:
        return self.x_at(n), self.y_at(n)

    def prefix(self, last_index: int) -> "Orbit":
        """The orbit restricted to indices -2..last_index."""
        if last_index < self.FIRST_INDEX + 2 or last_index > self.last_index:
            raise ValueError(f"prefix end {last_index} out of range "
                             f"0..{self.last_index}")
        count = last_index - self.FIRST_INDEX + 1
        devs = None if self.deviations is None else self.deviations[:, :count]
        return Orbit(self.params, self.xs[:count], self.ys[:count],
                     Termination(TERM_COMPLETED), devs)

    def __repr__(self) -> str:
        return (f"Orbit(n=-2..{self.last_index}, "
                f"termination={self.termination.kind!r})")


def _log_scaled(value: float, bar: float) -> float:
    """log(value / bar) for an initial value, exact-difference form near bar."""
    if value < 0.5 * bar:
        # value - bar would round towards -bar; the direct form is accurate
        return math.log(value / bar)
    return math.log1p((value - bar) / bar)


def simulate(params: Params, init: InitialConditions, n_steps: int,
             cap: float = DEFAULT_CAP) -> Orbit:
    """Iterate the recurrence for up to `n_steps` steps.

    The orbit holds the initial values at indices -2..0 and iterates at
    1..n_steps.  A non-finite, over-cap, or degenerate value truncates the
    orbit with a termination record instead of raising; truncation is data.
    The values are the plain binary64 iteration; the orbit's deviation
    channel is seeded with exactly value - (alpha + 1) at indices -2..0
    and iterated in the log1p/expm1 form alongside them.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    if not (cap > 0.0 and math.isfinite(cap)):
        raise ValueError(f"cap must be a positive finite real, got {cap!r}")
    alpha, p, q = params.alpha, params.p, params.q
    bar = alpha + 1.0
    expm1, log1p = math.expm1, math.log1p
    xs = list(init.x)
    ys = list(init.y)
    dxs = [v - bar for v in xs]
    dys = [v - bar for v in ys]
    # window entries at lags 2, 1, 0, and log(value / bar) at the same
    # lags: the recurrence in deviation form
    x2, x1, x0 = xs
    y2, y1, y0 = ys
    lx2, lx1, lx0 = (_log_scaled(v, bar) for v in xs)
    ly2, ly1, ly0 = (_log_scaled(v, bar) for v in ys)
    termination = Termination(TERM_COMPLETED)
    for k in range(1, n_steps + 1):
        try:
            x_next, y_next = _advance(alpha, p, q, x0, x2, y0, y2, cap)
            dx = expm1(p * (ly0 - ly2))
            dy = expm1(q * (lx0 - lx2))
        except OverflowError:
            termination = Termination(TERM_OVERFLOW, k)
            break
        except NumericError:
            termination = Termination(TERM_NAN, k)
            break
        xs.append(x_next)
        ys.append(y_next)
        dxs.append(dx)
        dys.append(dy)
        x2, x1, x0 = x1, x0, x_next
        y2, y1, y0 = y1, y0, y_next
        lx2, lx1, lx0 = lx1, lx0, log1p(dx / bar)
        ly2, ly1, ly0 = ly1, ly0, log1p(dy / bar)
    return Orbit(params, xs, ys, termination, (dxs, dys))
