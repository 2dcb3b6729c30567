"""Linearization at the equilibrium and spectral stability tests.

The update map on the stacked state (x[n], x[n-1], x[n-2], y[n], y[n-1],
y[n-2]) linearizes at the fixed point to a sparse 6x6 matrix whose only
couplings are +/-p/(alpha+1) from the y-lags into x and +/-q/(alpha+1)
from the x-lags into y, over two shift chains.  Its characteristic
polynomial lambda^6 - s^2 (lambda^2 - 1)^2, s = sqrt(pq)/(alpha+1), has as
roots those of the cubic lambda^3 - s lambda^2 + s and their negatives;
`classify` solves the cubic by a Durand-Kerner iteration, so no external
eigensolver is involved.  `eigenvalues` handles any square matrix through
Faddeev-LeVerrier coefficients and the same iteration.

A diagonal similarity with weights (1, 1-2e, 1-3e) per chain makes the
induced infinity norm of the conjugated matrix a cheap certificate: when
the norm is below one, so is the spectral radius.
"""

from __future__ import annotations

import math
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
RADIUS_MARGIN = 1e-6


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


def polynomial_roots(coeffs: np.ndarray,
                     tol: float = DEFAULT_EIGEN_TOL,
                     max_iter: int = DEFAULT_MAX_ITER) -> np.ndarray:
    """All complex roots of a polynomial by the Durand-Kerner iteration.

    Roots are updated simultaneously until the largest correction falls
    below `tol`; exhausting `max_iter` raises ConvergenceError.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if len(coeffs) < 2 or coeffs[0] == 0:
        raise ValueError("polynomial must have a nonzero leading coefficient")
    coeffs = coeffs / coeffs[0]
    n = len(coeffs) - 1
    radius = 1.0 + float(np.max(np.abs(coeffs[1:])))
    angles = 2.0 * np.pi * np.arange(n) / n + 0.4
    roots = radius * np.exp(1j * angles)
    for _ in range(max_iter):
        pvals = np.polyval(coeffs, roots)
        diffs = roots[:, None] - roots[None, :]
        np.fill_diagonal(diffs, 1.0)
        delta = pvals / diffs.prod(axis=1)
        roots = roots - delta
        if float(np.max(np.abs(delta))) <= tol:
            return roots
    raise ConvergenceError(
        f"root iteration did not reach tol={tol:g} within {max_iter} iterations")


def eigenvalues(matrix: np.ndarray,
                tol: float = DEFAULT_EIGEN_TOL,
                max_iter: int = DEFAULT_MAX_ITER) -> tuple[tuple[complex, ...], float]:
    """All eigenvalues (via the characteristic polynomial) plus a residual.

    The residual is the largest magnitude of the characteristic polynomial
    evaluated at the computed roots.
    """
    coeffs = char_poly(matrix)
    roots = polynomial_roots(coeffs, tol=tol, max_iter=max_iter)
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
    weighted = np.diag(d) @ jacobian(params) @ np.diag(1.0 / d)
    norm_value = float(np.max(np.abs(weighted).sum(axis=1)))
    return EpsilonCertificate(
        epsilon=float(epsilon),
        weights=tuple(float(w) for w in d),
        norm_value=norm_value,
    )


def _closed_form_spectrum(params: Params,
                          tol: float) -> tuple[tuple[complex, ...], float]:
    """Eigenvalues of `jacobian(params)` from the cubic, and the largest
    |lambda^6 - s^2 (lambda^2 - 1)^2| over them as the residual."""
    s = math.sqrt(params.p * params.q) / (params.alpha + 1.0)
    # for large s the largest root is near s, and rounding keeps its
    # corrections above an absolute tol; the test is scaled to the roots
    roots = polynomial_roots(np.array([1.0, -s, 0.0, s]), tol=tol * max(1.0, s))
    lam = np.concatenate([roots, -roots])
    residual = float(np.max(np.abs(lam**6 - s * s * (lam**2 - 1.0) ** 2)))
    ordered = sorted((complex(z) for z in lam), key=lambda z: (z.real, z.imag))
    return tuple(ordered), residual


def classify(params: Params,
             eigen_tol: float = DEFAULT_EIGEN_TOL,
             margin: float = RADIUS_MARGIN) -> StabilityReport:
    """Full stability report for a parameter triple.

    The global verdict needs alpha > 1 and 0 < p, q <= 1; otherwise the
    classification falls back on the spectral radius with an
    `margin`-wide inconclusive band around radius one.
    """
    eigs, residual = _closed_form_spectrum(params, eigen_tol)
    rho = spectral_radius(eigs)
    cert = epsilon_certificate(params)
    certificate = cert if isinstance(cert, EpsilonCertificate) else None
    refusal = cert.reason if isinstance(cert, CertificateRefusal) else None
    meets_global = params.alpha > 1.0 and 0.0 < params.p <= 1.0 and 0.0 < params.q <= 1.0
    if meets_global:
        classification = CLASS_GLOBAL
    elif rho < 1.0 - margin:
        classification = CLASS_LOCAL
    elif rho > 1.0 + margin:
        classification = CLASS_UNSTABLE
    else:
        classification = CLASS_INCONCLUSIVE
    return StabilityReport(
        eigenvalues=eigs,
        spectral_radius=rho,
        char_residual=residual,
        certificate=certificate,
        certificate_refusal=refusal,
        meets_global_conditions=meets_global,
        classification=classification,
    )
