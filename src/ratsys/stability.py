"""Linearization at the equilibrium and spectral stability tests.

The update map on the stacked state (x[n], x[n-1], x[n-2], y[n], y[n-1],
y[n-2]) linearizes at the fixed point to a sparse 6x6 matrix whose only
couplings are +/-p/(alpha+1) from the y-lags into x and +/-q/(alpha+1)
from the x-lags into y, over two shift chains.  Its characteristic
polynomial lambda^6 - s^2 (lambda^2 - 1)^2, s = sqrt(pq)/(alpha+1), has as
roots those of the cubic lambda^3 - s lambda^2 + s and their negatives;
`classify` solves the cubic by a Durand-Kerner iteration, so no external
eigensolver is involved.  `eigenvalues` handles any square matrix through
Faddeev-LeVerrier coefficients.  Both run the one engine, `_durand_kerner`,
which iterates an (N, n) block of roots in which each row stops on its own
test.  The cubic's Jury conditions reduce to 2pq < (alpha+1)^2, which
`_label` decides exactly.

`ratsys sweep` calls the array core `sweep_spectrum` once for its grid
(`classify_batch` adapts it to a list of `Params`); it equals `classify`
bit for bit by taking radii from libm's `np.hypot`, not the SIMD `np.abs`,
and labels from the exact `_jury_sign` within `JURY_MARGIN` of the boundary.

A diagonal similarity with weights (1, 1-2e, 1-3e) per chain makes the
induced infinity norm of the conjugated matrix a cheap certificate: when
the norm is below one, so is the spectral radius.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .dynamics import Params
from .errors import ConvergenceError

CLASS_GLOBAL = "globally-asymptotically-stable"
CLASS_LOCAL = "locally-asymptotically-stable"
CLASS_UNSTABLE = "unstable"
CLASS_INCONCLUSIVE = "inconclusive"

DEFAULT_EIGEN_TOL = 1e-12
DEFAULT_MAX_ITER = 500
RADIUS_MARGIN = 1e-6  # radius band tests exclude when comparing a radius to one


@dataclass(frozen=True)
class EpsilonCertificate:
    """Weights making the conjugated matrix's infinity norm (ideally) < 1."""

    epsilon: float
    weights: tuple[float, float, float, float, float, float]
    norm_value: float

    @property
    def certifies(self) -> bool:
        return self.norm_value < 1.0


@dataclass(frozen=True)
class CertificateRefusal:
    reason: str


@dataclass(frozen=True)
class StabilityReport:
    eigenvalues: tuple[complex, ...]
    spectral_radius: float
    char_residual: float
    certificate: EpsilonCertificate | None
    certificate_refusal: str | None
    meets_global_conditions: bool  # alpha > 1 and 0 < p, q <= 1
    classification: str


def jacobian(params: Params) -> np.ndarray:
    """6x6 linearization of the update map at the equilibrium."""
    u = params.p / (params.alpha + 1.0)
    v = params.q / (params.alpha + 1.0)
    a = np.zeros((6, 6))
    a[0, 3] = u
    a[0, 5] = -u
    a[1, 0] = 1.0
    a[2, 1] = 1.0
    a[3, 0] = v
    a[3, 2] = -v
    a[4, 3] = 1.0
    a[5, 4] = 1.0
    return a


def char_poly(matrix: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients, highest power first.

    Faddeev-LeVerrier recurrence: c_k = -tr(A M_k)/k with
    M_1 = I, M_(k+1) = A M_k + c_k I.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError("char_poly needs a square matrix")
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    m = np.eye(n)
    for k in range(1, n + 1):
        am = matrix @ m
        c = -np.trace(am) / k
        coeffs[k] = c
        m = am + c * np.eye(n)
    return coeffs


def _durand_kerner(coeffs: np.ndarray, tol: float,
                   max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Roots of each row of an (N, n+1) coefficient block, and which rows
    converged.

    Each row is normalized to monic and iterated as `polynomial_roots`
    describes.  It freezes after the iteration in which its own largest
    correction passes its own stop test, so every row does exactly the
    arithmetic of a one-row call.  A non-finite root makes the row's next
    correction NaN (Horner starts from 0 * root), which no stop test
    passes, so that row retires at once, silently and unconverged; so does
    a row still moving after `max_iter` iterations.  Unconverged rows hold
    NaN roots.
    """
    with np.errstate(all="ignore"):
        coeffs = coeffs / coeffs[:, :1]
        rows, n = coeffs.shape[0], coeffs.shape[1] - 1
        # libm's hypot and pow, as Python's abs(complex) and ** call them;
        # fmax skips NaN as max(1.0, ...) does
        magnitudes = np.hypot(coeffs.real[:, 1:], coeffs.imag[:, 1:])
        radius = 1.0 + magnitudes.max(axis=1)
        scale = np.float_power(magnitudes, 1.0 / np.arange(1, n + 1))
        stops = tol * np.fmax.reduce(scale, axis=1, initial=1.0)
        angles = 2.0 * np.pi * np.arange(n) / n + 0.4
        roots = radius[:, None] * np.exp(1j * angles)
        found = np.full((rows, n), complex(math.nan, math.nan))
        converged = np.zeros(rows, dtype=bool)
        active = np.arange(rows)
        terms = list(coeffs.T[:, :, None])
        for _ in range(max_iter):
            if not active.size:
                break
            pvals = np.zeros(roots.shape, dtype=np.complex128)  # Horner, as np.polyval
            for c in terms:
                pvals = pvals * roots + c
            diffs = roots[:, :, None] - roots[:, None, :]
            diffs.reshape(-1, n * n)[:, ::n + 1] = 1.0
            delta = pvals / diffs.prod(axis=2)
            roots = roots - delta
            error = np.abs(delta).max(axis=1)  # NaN: neither done nor kept
            done, keep = error <= stops, error > stops
            if not keep.all():
                found[active[done]] = roots[done]
                converged[active[done]] = True
                active, stops, roots = active[keep], stops[keep], roots[keep]
                terms = [c[keep] for c in terms]
    return found, converged


def polynomial_roots(coeffs: np.ndarray,
                     tol: float = DEFAULT_EIGEN_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> np.ndarray:
    """All complex roots of a polynomial by the Durand-Kerner iteration.

    Roots are updated simultaneously until the largest correction falls
    below `tol` times the root scale max(1, max_k |c_k|**(1/k)) of the
    monic coefficients (Fujiwara: no root exceeds twice it), so rounding
    cannot keep large roots from passing the test; exhausting `max_iter`,
    or a root overflowing to a non-finite value, raises ConvergenceError.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if len(coeffs) < 2 or coeffs[0] == 0:
        raise ValueError("polynomial must have a nonzero leading coefficient")
    roots, converged = _durand_kerner(coeffs[None, :], tol, max_iter)
    if not converged[0]:
        raise ConvergenceError(
            f"root iteration did not reach tol={tol:g} within {max_iter} iterations")
    return roots[0]


def eigenvalues(matrix: np.ndarray,
                tol: float = DEFAULT_EIGEN_TOL) -> tuple[tuple[complex, ...], float]:
    """All eigenvalues (via the characteristic polynomial) plus a residual.

    The residual is the largest magnitude of the characteristic polynomial
    evaluated at the computed roots.
    """
    coeffs = char_poly(matrix)
    roots = polynomial_roots(coeffs, tol=tol)
    residual = float(np.max(np.abs(np.polyval(coeffs.astype(np.complex128), roots))))
    ordered = sorted((complex(r) for r in roots), key=lambda z: (z.real, z.imag))
    return tuple(ordered), residual


def spectral_radius(eigs) -> float:
    """Largest eigenvalue modulus."""
    return float(max(abs(complex(z)) for z in eigs))


def epsilon_certificate(params: Params) -> EpsilonCertificate | CertificateRefusal:
    """Certificate weights, or a refusal when no admissible epsilon exists.

    Epsilon must stay below (alpha+1-2p)/(3(alpha+1)) and the q analogue;
    half the smaller bound is used.  Both bound numerators must be
    positive, i.e. p, q < (alpha+1)/2.
    """
    s = params.alpha + 1.0
    bound_p = (s - 2.0 * params.p) / (3.0 * s)
    bound_q = (s - 2.0 * params.q) / (3.0 * s)
    if bound_p <= 0.0 or bound_q <= 0.0:
        failing = []
        if bound_p <= 0.0:
            failing.append(f"alpha+1-2p = {s - 2.0 * params.p:g} <= 0")
        if bound_q <= 0.0:
            failing.append(f"alpha+1-2q = {s - 2.0 * params.q:g} <= 0")
        return CertificateRefusal(reason="; ".join(failing))
    epsilon = min(bound_p, bound_q) / 2.0
    epsilon = min(epsilon, 1.0 / 3.0 - 1e-9)  # keep every weight positive
    d = np.array([1.0, 1.0 - 2.0 * epsilon, 1.0 - 3.0 * epsilon,
                  1.0, 1.0 - 2.0 * epsilon, 1.0 - 3.0 * epsilon])
    # row sums of |diag(d) @ jacobian @ diag(1/d)|; the shift rows repeat per chain
    u, v, inv = params.p / s, params.q / s, 1.0 / d[5]
    norm_value = float(max(u + u * inv, v + v * inv, d[1], d[2] * (1.0 / d[1])))
    return EpsilonCertificate(
        epsilon=float(epsilon),
        weights=tuple(float(w) for w in d),
        norm_value=norm_value,
    )


def _coupling(params: Params) -> float:
    """s = sqrt(pq)/(alpha+1), the one coefficient of the cubic."""
    return math.sqrt(params.p * params.q) / (params.alpha + 1.0)


def _closed_form_spectrum(params: Params,
                          tol: float) -> tuple[tuple[complex, ...], float]:
    """Eigenvalues of `jacobian(params)` from the cubic, and the largest
    |lambda^6 - s^2 (lambda^2 - 1)^2| over them as the residual.

    From couplings of about 1e51 up, where the cubic still converges, the
    terms lambda^6 and s^2 (lambda^2 - 1)^2 overflow binary64; the
    residual is then reported as inf, meaning "not representable".
    """
    s = _coupling(params)
    roots = polynomial_roots(np.array([1.0, -s, 0.0, s]), tol=tol)
    lam = np.concatenate([roots, -roots])
    with np.errstate(all="ignore"):
        residual = float(np.max(np.abs(lam**6 - s * s * (lam**2 - 1.0) ** 2)))
    if math.isnan(residual):  # inf - inf or inf * 0 among the overflowed terms
        residual = math.inf
    ordered = sorted((complex(z) for z in lam), key=lambda z: (z.real, z.imag))
    return tuple(ordered), residual


def _jury_sign(alpha: float, p: float, q: float) -> int:
    """Exact sign (-1, 0 or 1) of 2pq - (alpha+1)^2 on the binary64 inputs."""
    (an, ad), (pn, pd), (qn, qd) = (v.as_integer_ratio() for v in (alpha, p, q))
    # both sides scaled by the positive pd * qd * ad^2
    diff = 2 * pn * qn * ad * ad - (an + ad) ** 2 * pd * qd
    return (diff > 0) - (diff < 0)


def _meets_global_conditions(alpha, p, q):
    """alpha > 1 and 0 < p, q <= 1, on floats or elementwise on arrays."""
    return (alpha > 1.0) & (0.0 < p) & (p <= 1.0) & (0.0 < q) & (q <= 1.0)


# indexed by the Jury sign + 1, and 3 for the global verdict
_LABELS = (CLASS_LOCAL, CLASS_INCONCLUSIVE, CLASS_UNSTABLE, CLASS_GLOBAL)


def _label(params: Params) -> str:
    """The classification of a parameter triple.

    The global verdict needs alpha > 1 and 0 < p, q <= 1; otherwise the
    label is the exact sign of 2pq - (alpha+1)^2 (see `_jury_sign`), with
    "inconclusive" only on the boundary itself.  Within about 1e-15 of
    the boundary the computed radius may sit on the other side of one.
    """
    if _meets_global_conditions(params.alpha, params.p, params.q):
        return CLASS_GLOBAL
    return _LABELS[_jury_sign(params.alpha, params.p, params.q) + 1]


def classify(params: Params,
             eigen_tol: float = DEFAULT_EIGEN_TOL) -> StabilityReport:
    """Full stability report for a parameter triple, labelled by `_label`."""
    eigs, residual = _closed_form_spectrum(params, eigen_tol)
    cert = epsilon_certificate(params)
    classification = _label(params)
    return StabilityReport(
        eigenvalues=eigs,
        spectral_radius=spectral_radius(eigs),
        char_residual=residual,
        certificate=cert if isinstance(cert, EpsilonCertificate) else None,
        certificate_refusal=cert.reason if isinstance(cert, CertificateRefusal) else None,
        meets_global_conditions=classification == CLASS_GLOBAL,
        classification=classification,
    )


# the float d = 2pq - (alpha+1)^2 is off by less than 5e-16 times
# 2pq + (alpha+1)^2, so beyond this multiple of that sum its sign is exact
JURY_MARGIN = 1e-14


def sweep_spectrum(alpha: np.ndarray, p: np.ndarray,
                   q: np.ndarray) -> tuple[np.ndarray, list[str]]:
    """Spectral radius and classification of every triple (alpha[i], p[i],
    q[i]) of positive finite floats, equal bit for bit to what `classify`
    reports, from one Durand-Kerner iteration over all their cubics.

    The radius is NaN where `classify` raises ConvergenceError.  It is the
    largest `np.hypot` of a row's roots: hypot is libm's, as in Python's
    abs(complex), while `np.abs` on complex128 may take a SIMD loop that
    differs in the last bit.  The label decides the Jury sign in float
    where |2pq - (alpha+1)^2| exceeds `JURY_MARGIN` times 2pq + (alpha+1)^2,
    and by the exact `_jury_sign` elsewhere: on and next to the boundary,
    and where the float terms are not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.sqrt(p * q) / (alpha + 1.0)
        cubics = np.zeros((len(s), 4), dtype=np.complex128)
        cubics[:, 0], cubics[:, 1], cubics[:, 3] = 1.0, -s, s
        roots, _ = _durand_kerner(cubics, DEFAULT_EIGEN_TOL, DEFAULT_MAX_ITER)
        radius = np.hypot(roots.real, roots.imag).max(axis=1)
        two_pq, shift = 2.0 * p * q, (alpha + 1.0) ** 2
        d = two_pq - shift
        index = np.sign(d).astype(np.intp) + 1
        exact = np.flatnonzero(~(np.abs(d) > JURY_MARGIN * (two_pq + shift)))
    for i in exact.tolist():
        index[i] = _jury_sign(float(alpha[i]), float(p[i]), float(q[i])) + 1
    index[_meets_global_conditions(alpha, p, q)] = 3
    return radius, [_LABELS[i] for i in index.tolist()]


def classify_batch(nodes: Sequence[Params]) -> list[tuple[float, str] | None]:
    """(spectral radius, classification) of every triple, equal to what
    `classify` reports; None where `classify` raises ConvergenceError.
    An adapter over `sweep_spectrum`, the array core `ratsys sweep` calls."""
    alpha, p, q = np.array([(n.alpha, n.p, n.q) for n in nodes],
                           dtype=np.float64).reshape(-1, 3).T
    radius, labels = sweep_spectrum(alpha, p, q)
    return [None if math.isnan(r) else (r, label)
            for r, label in zip(radius.tolist(), labels)]
