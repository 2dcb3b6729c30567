"""Scenario bundles, built-in presets, and JSON load/save.

A scenario file is JSON with top-level keys alpha, p, q, x_init, y_init
(arrays ordered for indices -2, -1, 0), n_steps, cap, and tolerances.
A sweep file gives [lo, hi, count] triples for alpha, p, and q.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import DEFAULT_CAP, InitialConditions, Params
from .errors import ParseError, UnknownPresetError


@dataclass(frozen=True)
class Tolerances:
    convergence_tol: float = 1e-6
    bound_slack: float = 1e-9
    eigen_tol: float = 1e-12

    def __post_init__(self):
        for name in ("convergence_tol", "bound_slack", "eigen_tol"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be positive, got {v!r}")


@dataclass(frozen=True)
class Scenario:
    params: Params
    init: InitialConditions
    n_steps: int = 500
    cap: float = DEFAULT_CAP
    tolerances: Tolerances = Tolerances()

    def __post_init__(self):
        if self.n_steps < 10:
            raise ValueError(f"n_steps must be >= 10, got {self.n_steps}")
        if not (self.cap > 0 and math.isfinite(self.cap)):
            raise ValueError(f"cap must be positive and finite, got {self.cap!r}")


def _preset(alpha, p, q, x, y) -> Scenario:
    return Scenario(params=Params(alpha, p, q),
                    init=InitialConditions(x, y))


PRESETS: dict[str, Scenario] = {
    "example1": _preset(2.0, 0.6, 0.9, (2.5, 6.0, 2.0), (4.0, 2.0, 5.0)),
    "example2": _preset(1.3, 0.9, 0.8, (2.6, 1.8, 3.0), (3.0, 5.0, 1.0)),
    "example3": _preset(0.6, 0.8, 1.9, (1.6, 2.8, 4.0), (4.0, 1.5, 6.0)),
    "example4": _preset(0.3, 1.2, 1.5, (6.0, 8.0, 3.0), (3.0, 5.0, 1.0)),
}


def _require(data: dict, key: str, kind, source: str):
    if key not in data:
        raise ParseError(f"{source}: missing key", field=key)
    return _check(data[key], kind, key, source)


def _check(value, kind, key: str, source: str):
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # a JSON integer beyond the float range
            raise ParseError(f"{source}: integer out of float range", field=key) from None
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is list and isinstance(value, list):
        return value
    raise ParseError(f"{source}: expected {kind.__name__}, got {type(value).__name__}",
                     field=key)


def _floats(data: dict, key: str, source: str) -> tuple[float, ...]:
    """A list field whose every entry passes the float check, under its own key."""
    return tuple(_check(v, float, key, source) for v in _require(data, key, list, source))


def scenario_from_dict(data: dict, source: str = "scenario") -> Scenario:
    """Build a validated Scenario; ParseError names the offending field."""
    if not isinstance(data, dict):
        raise ParseError(f"{source}: top level must be an object")
    known = {"alpha", "p", "q", "x_init", "y_init", "n_steps", "cap", "tolerances"}
    for key in data:
        if key not in known:
            raise ParseError(f"{source}: unknown key", field=key)
    alpha = _require(data, "alpha", float, source)
    p = _require(data, "p", float, source)
    q = _require(data, "q", float, source)
    x_init = _floats(data, "x_init", source)
    y_init = _floats(data, "y_init", source)
    try:
        params = Params(alpha, p, q)
        init = InitialConditions(x_init, y_init)
    except ValueError as exc:
        field = str(exc).split(" ", 1)[0]
        raise ParseError(f"{source}: {exc}", field=field) from None

    kwargs = {}
    if "n_steps" in data:
        kwargs["n_steps"] = _require(data, "n_steps", int, source)
    if "cap" in data:
        kwargs["cap"] = _require(data, "cap", float, source)
    if "tolerances" in data:
        tols = data["tolerances"]
        if not isinstance(tols, dict):
            raise ParseError(f"{source}: tolerances must be an object", field="tolerances")
        tkw = {}
        for key in ("convergence_tol", "bound_slack", "eigen_tol"):
            if key in tols:
                tkw[key] = _require(tols, key, float, source)
        extra = set(tols) - {"convergence_tol", "bound_slack", "eigen_tol"}
        if extra:
            raise ParseError(f"{source}: unknown tolerance key",
                             field=sorted(extra)[0])
        try:
            kwargs["tolerances"] = Tolerances(**tkw)
        except ValueError as exc:
            raise ParseError(f"{source}: {exc}", field="tolerances") from None
    try:
        return Scenario(params=params, init=init, **kwargs)
    except ValueError as exc:
        field = str(exc).split(" ", 1)[0]
        raise ParseError(f"{source}: {exc}", field=field) from None


def scenario_to_dict(scenario: Scenario) -> dict:
    return {
        "alpha": scenario.params.alpha,
        "p": scenario.params.p,
        "q": scenario.params.q,
        "x_init": list(scenario.init.x),
        "y_init": list(scenario.init.y),
        "n_steps": scenario.n_steps,
        "cap": scenario.cap,
        "tolerances": {
            "convergence_tol": scenario.tolerances.convergence_tol,
            "bound_slack": scenario.tolerances.bound_slack,
            "eigen_tol": scenario.tolerances.eigen_tol,
        },
    }


def save_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from None


def load_scenario(source) -> Scenario:
    """Load a scenario from a preset name or a JSON file path."""
    name = str(source)
    if name in PRESETS:
        return PRESETS[name]
    path = Path(source)
    if not path.exists():
        if name.endswith(".json") or "/" in name:
            raise FileNotFoundError(f"scenario file not found: {path}")
        raise UnknownPresetError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    return scenario_from_dict(_read_json(path), source=str(path))


@dataclass(frozen=True)
class AxisSpec:
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.lo <= 0:
            raise ValueError(f"axis lo must be > 0, got {self.lo}")
        if self.count < 1:
            raise ValueError(f"axis count must be >= 1, got {self.count}")
        if self.count == 1:
            if self.lo != self.hi:
                raise ValueError("single-node axis needs lo == hi")
        elif not self.lo < self.hi:
            raise ValueError(f"axis needs lo < hi, got lo={self.lo}, hi={self.hi}")

    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.lo])
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class SweepSpec:
    alpha: AxisSpec
    p: AxisSpec
    q: AxisSpec
    simulate_steps: int | None = None  # optional short orbit per node
    x_init: tuple[float, float, float] | None = None
    y_init: tuple[float, float, float] | None = None


def _axis_from(data: dict, key: str, source: str) -> AxisSpec:
    triple = _require(data, key, list, source)
    if len(triple) != 3:
        raise ParseError(f"{source}: axis must be [lo, hi, count]", field=key)
    lo, hi, count = triple
    if isinstance(count, bool) or not isinstance(count, int):
        raise ParseError(f"{source}: axis count must be an integer", field=key)
    lo, hi = (_check(v, float, key, source) for v in (lo, hi))
    try:
        return AxisSpec(lo, hi, count)
    except ValueError as exc:
        raise ParseError(f"{source}: {exc}", field=key) from None


def sweep_from_dict(data: dict, source: str = "sweep") -> SweepSpec:
    if not isinstance(data, dict):
        raise ParseError(f"{source}: top level must be an object")
    known = {"alpha", "p", "q", "simulate"}
    for key in data:
        if key not in known:
            raise ParseError(f"{source}: unknown key", field=key)
    kwargs = {}
    if "simulate" in data:
        sim = data["simulate"]
        if not isinstance(sim, dict):
            raise ParseError(f"{source}: simulate must be an object", field="simulate")
        for key in sim:
            if key not in ("n_steps", "x_init", "y_init"):
                raise ParseError(f"{source}: unknown simulate key", field=key)
        kwargs["simulate_steps"] = _require(sim, "n_steps", int, source)
        x_init = _floats(sim, "x_init", source)
        y_init = _floats(sim, "y_init", source)
        try:
            init = InitialConditions(x_init, y_init)
        except ValueError as exc:
            field = str(exc).split(" ", 1)[0]
            raise ParseError(f"{source}: {exc}", field=field) from None
        kwargs["x_init"] = init.x
        kwargs["y_init"] = init.y
    return SweepSpec(
        alpha=_axis_from(data, "alpha", source),
        p=_axis_from(data, "p", source),
        q=_axis_from(data, "q", source),
        **kwargs,
    )


def load_sweep(path) -> SweepSpec:
    path = Path(path)
    return sweep_from_dict(_read_json(path), source=str(path))
