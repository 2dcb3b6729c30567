"""Toolkit for a coupled pair of third-order rational difference equations.

Simulates x[n+1] = alpha + (y[n]/y[n-2])**p, y[n+1] = alpha +
(x[n]/x[n-2])**q from positive initial data, and provides semi-cycle
analysis, boundedness envelopes, spectral stability classification, and
error decay-rate estimation around the fixed point (alpha+1, alpha+1).
"""

from .analysis import (OscillationReport, Period2Result, RuleCheck, SemiCycle,
                       SemiCycleDecomposition, check_semicycle_rule,
                       classify_oscillation, detect_monotone_tail, find_period2,
                       semicycles)
from .bounds import (BoundsAudit, EnvelopeCoeffs, EnvelopeSeries, audit_bounds,
                     envelope_at, envelope_coeffs, envelope_series)
from .convergence import (ErrorVector, RateEstimate, error_norms,
                          error_sequence, estimate_rate, final_convergence,
                          match_eigenvalue, rate_report)
from .dynamics import (DEFAULT_CAP, Equilibrium, InitialConditions, Orbit,
                       Params, Termination, Window, equilibrium, simulate, step)
from .errors import (ConvergenceError, DomainError, InsufficientDataError,
                     NumericError, ParseError, RatsysError, UnknownPresetError)
from .scenarios import (PRESETS, Scenario, SweepSpec, Tolerances,
                        load_scenario, load_sweep, save_scenario)
from .stability import (CertificateRefusal, EpsilonCertificate,
                        StabilityReport, char_poly, classify, classify_batch,
                        eigenvalues, epsilon_certificate, jacobian,
                        polynomial_roots, spectral_radius)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CAP", "PRESETS", "__version__",
    "Params", "InitialConditions", "Window", "Equilibrium", "Orbit",
    "Termination", "equilibrium", "step", "simulate",
    "SemiCycle", "SemiCycleDecomposition", "RuleCheck", "OscillationReport",
    "Period2Result", "semicycles", "check_semicycle_rule",
    "classify_oscillation", "detect_monotone_tail", "find_period2",
    "EnvelopeCoeffs", "EnvelopeSeries", "BoundsAudit", "envelope_coeffs",
    "envelope_at", "envelope_series", "audit_bounds",
    "StabilityReport", "EpsilonCertificate", "CertificateRefusal",
    "jacobian", "char_poly", "polynomial_roots", "eigenvalues",
    "spectral_radius", "epsilon_certificate", "classify", "classify_batch",
    "ErrorVector", "RateEstimate", "error_norms", "error_sequence",
    "estimate_rate", "final_convergence", "match_eigenvalue", "rate_report",
    "Scenario", "SweepSpec", "Tolerances", "load_scenario", "load_sweep",
    "save_scenario",
    "RatsysError", "NumericError", "DomainError", "ConvergenceError",
    "InsufficientDataError", "ParseError", "UnknownPresetError",
]
