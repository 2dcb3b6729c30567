import math

import numpy as np
import pytest

from ratsys import (Equilibrium, InitialConditions, InsufficientDataError,
                    Orbit, Params, eigenvalues, equilibrium, error_norms,
                    error_sequence, estimate_rate, final_convergence, jacobian,
                    match_eigenvalue, rate_report, simulate)
from ratsys.convergence import MIN_BURN_IN, NORM_FLOOR, UNDERFLOW_FLOOR, fit_window
from ratsys.scenarios import PRESETS

# frozen first-iterate deviations for example1 (40-digit mpmath)
EX1_E1 = 0.14326262981831587
EX1_E2 = -0.18194785394914166
# frozen geometric-mean estimate for norms 3 * 0.7**n * (2 + cos n),
# window=50, 200 entries
COSINE_RATIO = 0.6978988913024136


class TestErrorSequence:
    def test_constant_orbit_truncates_immediately(self):
        par = Params(2, 0.6, 0.9)
        bar = par.alpha + 1.0
        orbit = simulate(par, InitialConditions((bar,) * 3, (bar,) * 3), 50)
        assert error_sequence(orbit, equilibrium(par)) == []
        assert len(error_norms(orbit, equilibrium(par))) == 0

    def test_example1_first_entries(self):
        sc = PRESETS["example1"]
        orbit = simulate(sc.params, sc.init, 50)
        seq = error_sequence(orbit, equilibrium(sc.params))
        e1 = seq[1]
        assert e1.n == 1
        assert abs(e1.x_dev - EX1_E1) < 1e-12
        assert abs(e1.y_dev - EX1_E2) < 1e-12
        assert e1.x_dev_prev == orbit.x_at(0) - 3.0
        assert e1.y_dev_prev2 == orbit.y_at(-1) - 3.0
        hand = math.sqrt(sum(v * v for v in (
            e1.x_dev, e1.x_dev_prev, e1.x_dev_prev2,
            e1.y_dev, e1.y_dev_prev, e1.y_dev_prev2)))
        assert abs(e1.norm - hand) < 1e-15

    def test_norms_eventually_decrease_for_example1(self):
        sc = PRESETS["example1"]
        orbit = simulate(sc.params, sc.init, 300)
        norms = error_norms(orbit, equilibrium(sc.params))
        assert len(norms) > 40
        assert norms[-1] < norms[20] < norms[0] * 10


class TestNormSource:
    def test_channel_outlasts_cancellation_floor(self):
        sc = PRESETS["example1"]
        eq = equilibrium(sc.params)
        orbit = simulate(sc.params, sc.init, 500)
        values_only = Orbit(sc.params, orbit.xs, orbit.ys)
        assert len(error_norms(orbit, eq)) == 501
        norms = error_norms(values_only, eq)
        assert 40 < len(norms) < 100 and np.all(norms >= NORM_FLOOR)

    def test_channel_ignored_for_another_point(self):
        sc = PRESETS["example1"]
        orbit = simulate(sc.params, sc.init, 100)
        other = Equilibrium(2.5, 2.5)
        values_only = Orbit(sc.params, orbit.xs, orbit.ys)
        assert np.array_equal(error_norms(orbit, other), error_norms(values_only, other))

    def test_explicit_floor_is_honored(self):
        sc = PRESETS["example1"]
        orbit = simulate(sc.params, sc.init, 500)
        norms = error_norms(orbit, equilibrium(sc.params), floor=1e-6)
        assert np.all(norms >= 1e-6) and len(norms) < 60

    def test_underflow_guard_on_long_example1(self):
        sc = PRESETS["example1"]
        eq = equilibrium(sc.params)
        orbit = simulate(sc.params, sc.init, 2000)
        dx, dy = orbit.deviations
        raw = np.sqrt(dx[2:] ** 2 + dx[1:-1] ** 2 + dx[:-2] ** 2
                      + dy[2:] ** 2 + dy[1:-1] ** 2 + dy[:-2] ** 2)
        assert np.any(raw == 0.0)  # the squares underflow before n = 2000
        norms = error_norms(orbit, eq)
        assert len(norms) < 2001
        assert np.all(norms >= UNDERFLOW_FLOOR)
        eigs, _ = eigenvalues(jacobian(sc.params))
        assert rate_report(orbit, eq, eigs).gap < 1e-3


class TestEstimateRate:
    def test_pure_geometric_sequence(self):
        norms = 0.5 ** np.arange(120)
        est = estimate_rate(norms)
        assert est.ratio_estimate == 0.5
        assert abs(est.root_estimate - 0.5) < 1e-12
        assert est.usable_range == (69, 119)

    def test_cosine_modulated_sequence(self):
        n = np.arange(200)
        norms = 3.0 * 0.7**n * (2.0 + np.cos(n))
        est = estimate_rate(norms, window=50)
        assert abs(est.ratio_estimate - 0.7) < 1e-2
        assert abs(est.ratio_estimate - COSINE_RATIO) < 1e-12

    def test_insufficient_norms(self):
        with pytest.raises(InsufficientDataError,
                           match=r"need 51 usable norms \(window=50\), got 50"):
            estimate_rate(0.5 ** np.arange(50), window=50)
        assert estimate_rate(0.5 ** np.arange(51), window=50).usable_range == (0, 50)

    def test_invalid_norms(self):
        bad = 0.5 ** np.arange(90)
        bad[40] = 0.0
        with pytest.raises(InsufficientDataError):
            estimate_rate(bad)

    def test_scale_invariance_power_of_two(self):
        norms = 0.7 ** np.arange(150) * (2.0 + np.cos(np.arange(150)))
        base = estimate_rate(norms)
        scaled = estimate_rate(norms * 1024.0)
        assert scaled.ratio_estimate == base.ratio_estimate

    def test_root_scale_drift_small_at_200(self):
        n = np.arange(201)
        norms = 0.6 ** n
        base = estimate_rate(norms)
        scaled = estimate_rate(norms * 1.0001)
        assert abs(scaled.root_estimate - base.root_estimate) < 1e-6
        assert scaled.ratio_estimate == pytest.approx(base.ratio_estimate, abs=1e-15)


class TestMatching:
    def test_exact_hit(self):
        matched, gap = match_eigenvalue(0.5, [0.2 + 0j, 0.5 + 0j, 0.9j])
        assert matched == 0.5 and gap == 0.0

    def test_zero_estimate_zero_spectrum(self):
        matched, gap = match_eigenvalue(0.0, [0j] * 6)
        assert matched == 0.0 and gap == 0.0

    def test_nearest_wins(self):
        matched, gap = match_eigenvalue(0.64, [0.553 + 0j, 0.665 + 0j])
        assert matched == 0.665
        assert abs(gap - 0.025) < 1e-12


class TestFitWindow:
    def test_defaults_kept_when_they_fit(self):
        assert fit_window(200) == 50
        # leaving out the first quarter leaves room for it from 67 norms on
        assert [fit_window(u) for u in range(64, 70)] == [48, 48, 48, 50, 50, 50]

    def test_shrinks_to_even_window(self):
        w = fit_window(40)
        assert w == 28  # 40 - 1 - MIN_BURN_IN = 29, made even
        assert w % 2 == 0 and w + 1 + MIN_BURN_IN <= 40

    def test_too_short_raises(self):
        with pytest.raises(InsufficientDataError):
            fit_window(12)

    def test_phase_alignment_prefers_near_multiples_of_pi(self):
        theta = 0.9257  # example1's dominant rotation angle
        w = fit_window(77, theta=theta)
        k = round(w * theta / math.pi)
        assert abs(w * theta - k * math.pi) / w < 0.01
        assert w % 2 == 0 and w + 1 + (77 - 1) // 4 <= 77


class TestRateReport:
    def test_example1_matches_spectrum(self):
        sc = PRESETS["example1"]
        eq = equilibrium(sc.params)
        orbit = simulate(sc.params, sc.init, 500)
        eigs, _ = eigenvalues(jacobian(sc.params))
        est = rate_report(orbit, eq, eigs)
        assert est.gap is not None and est.gap < 1e-3
        assert est.matched_modulus in [abs(z) for z in eigs]

    def test_example2_matches_spectrum(self):
        sc = PRESETS["example2"]
        eq = equilibrium(sc.params)
        orbit = simulate(sc.params, sc.init, 500)
        eigs, _ = eigenvalues(jacobian(sc.params))
        est = rate_report(orbit, eq, eigs)
        assert est.gap < 1e-3
        assert abs(est.ratio_estimate - est.root_estimate) < 1e-2

    def test_nonconvergent_orbit_rejected(self):
        sc = PRESETS["example4"]
        eq = equilibrium(sc.params)
        orbit = simulate(sc.params, sc.init, 500)
        eigs, _ = eigenvalues(jacobian(sc.params))
        with pytest.raises(InsufficientDataError):
            rate_report(orbit, eq, eigs)

    def test_explicit_window_is_honored(self):
        sc = PRESETS["example2"]
        eq = equilibrium(sc.params)
        orbit = simulate(sc.params, sc.init, 500)
        eigs, _ = eigenvalues(jacobian(sc.params))
        est = rate_report(orbit, eq, eigs, window=40)
        assert est.usable_range[1] - est.usable_range[0] == 40


class TestFinalConvergence:
    def test_converged_orbit_reports_its_last_deviation(self):
        sc = PRESETS["example1"]
        orbit = simulate(sc.params, sc.init, 300)
        converged, dev = final_convergence(orbit, equilibrium(sc.params), 1e-6)
        assert converged
        assert dev == max(abs(orbit.x_at(300) - 3.0), abs(orbit.y_at(300) - 3.0))

    def test_bounded_orbit_and_truncated_orbit_do_not_converge(self):
        sc = PRESETS["example4"]
        orbit = simulate(sc.params, sc.init, 300)
        assert not final_convergence(orbit, equilibrium(sc.params), 1e-6)[0]
        par = Params(0.1, 3.0, 3.0)  # overflows the magnitude cap
        orbit = simulate(par, InitialConditions((0.2, 5.0, 0.3), (4.0, 0.2, 6.0)), 300)
        assert not orbit.termination.completed
        assert not final_convergence(orbit, equilibrium(par), math.inf)[0]

    def test_rate_report_names_the_final_deviation(self):
        sc = PRESETS["example4"]
        orbit = simulate(sc.params, sc.init, 500)
        eigs, _ = eigenvalues(jacobian(sc.params))
        _, dev = final_convergence(orbit, equilibrium(sc.params), 1e-6)
        with pytest.raises(InsufficientDataError,
                           match=f"final deviation {dev:g}, termination completed"):
            rate_report(orbit, equilibrium(sc.params), eigs)
