import numpy as np
import pytest

from ratsys import (DomainError, InitialConditions, Orbit, Params,
                    audit_bounds, envelope_at, envelope_coeffs,
                    envelope_series, simulate)
from ratsys.scenarios import PRESETS

# frozen against 40-digit mpmath evaluations of 2**-1.5, 2**0.4 + 2, 2**0.1 + 2
EX1_A = 0.3535533905932737622
EX1_B = 3.3195079107728942594
EX1_C = 3.0717734625362931642
EX1_X_LIMIT = 5.1350070716889662763  # b / (1 - a)


class TestCoeffs:
    def test_example1_values(self):
        c = envelope_coeffs(Params(2, 0.6, 0.9))
        assert abs(c.a - EX1_A) < 1e-15
        assert abs(c.b - EX1_B) < 1e-14
        assert abs(c.c - EX1_C) < 1e-14

    def test_equal_exponents_equal_drives(self):
        c = envelope_coeffs(Params(1.7, 0.8, 0.8))
        assert c.b == c.c

    def test_unit_exponents(self):
        c = envelope_coeffs(Params(2, 1, 1))
        assert c.a == 0.25
        assert c.b == 3.0 and c.c == 3.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_rejects_alpha_at_or_below_one(self, alpha):
        with pytest.raises(DomainError):
            envelope_coeffs(Params(alpha, 0.5, 0.5))


class TestEnvelopeAt:
    def test_n_zero_returns_seed(self):
        c = envelope_coeffs(Params(2, 0.6, 0.9))
        assert envelope_at(c, 4.25, 0, "x") == 4.25
        assert envelope_at(c, 4.25, 0, "y") == 4.25

    def test_limit_value(self):
        c = envelope_coeffs(Params(2, 0.6, 0.9))
        assert abs(envelope_at(c, 4.0, 200, "x") - EX1_X_LIMIT) < 1e-12

    def test_hand_arithmetic_case(self):
        c = envelope_coeffs(Params(2, 1, 1))  # a = 0.25, b = 3
        assert envelope_at(c, 4.0, 1, "x") == 4.0  # 4*0.25 + 4*0.75, limit 4

    def test_recurrence_matches_closed_form(self):
        c = envelope_coeffs(Params(1.6, 0.45, 0.95))
        for component, drive in (("x", c.b), ("y", c.c)):
            for seed in (1.7, 6.2):
                for n in range(101):
                    closed = envelope_at(c, seed, n + 1, component)
                    stepped = c.a * envelope_at(c, seed, n, component) + drive
                    assert abs(closed - stepped) <= 1e-12 * abs(stepped)

    def test_monotone_approach_to_limit(self):
        c = envelope_coeffs(Params(2, 0.6, 0.9))
        limit = c.b / (1.0 - c.a)
        ulp = np.spacing(limit)  # converged tail may wobble by one ulp
        for seed in (limit + 2.0, limit - 2.0):
            values = np.array([envelope_at(c, seed, n, "x") for n in range(60)])
            diffs = np.diff(values)
            if seed > limit:
                assert np.all(diffs <= ulp)
                assert values[0] > values[-1]
            else:
                assert np.all(diffs >= -ulp)
                assert values[0] < values[-1]
            assert abs(values[-1] - limit) < 1e-12

    def test_series_matches_pointwise(self):
        # bit for bit: numpy's vector power differs from ** in the last
        # bit for some ratios, and the audit reads the series
        rng = np.random.default_rng(23)
        cases = [(Params(2, 0.6, 0.9), (4.0, 4.5, 3.5, 3.8))]
        cases += [(Params(*rng.uniform((1.05, 0.05, 0.05), (4.0, 1.0, 1.0))),
                   tuple(rng.uniform(1.0, 10.0, 4))) for _ in range(30)]
        for par, seeds in cases:
            c = envelope_coeffs(par)
            series = envelope_series(c, *seeds, 150)
            for n in range(150):
                assert series.x_even[n] == envelope_at(c, seeds[0], n, "x")
                assert series.x_odd[n] == envelope_at(c, seeds[1], n, "x")
                assert series.y_even[n] == envelope_at(c, seeds[2], n, "y")
                assert series.y_odd[n] == envelope_at(c, seeds[3], n, "y")


class TestAudit:
    @pytest.mark.parametrize("preset", ["example1", "example2"])
    def test_presets_clean_over_500_steps(self, preset):
        sc = PRESETS[preset]
        orbit = simulate(sc.params, sc.init, 500)
        audit = audit_bounds(orbit, sc.params, slack=1e-9)
        assert audit.violations == ()
        assert audit.early_violations == ()
        assert audit.checked == 2 * 500

    def test_injected_low_value_is_flagged(self):
        sc = PRESETS["example1"]
        orbit = simulate(sc.params, sc.init, 60)
        xs = orbit.xs.copy()
        xs[22] = 1.9  # index n = 20, at or below alpha = 2
        tampered = Orbit(sc.params, xs, orbit.ys.copy())
        audit = audit_bounds(tampered, sc.params, slack=1e-9)
        assert len(audit.violations) == 1
        v = audit.violations[0]
        assert (v.index, v.component, v.value) == (20, "x", 1.9)
        assert v.lower == 2.0

    def test_alpha_at_most_one_rejected(self):
        sc = PRESETS["example3"]  # alpha = 0.6
        orbit = simulate(sc.params, sc.init, 50)
        with pytest.raises(DomainError):
            audit_bounds(orbit, sc.params)

    def test_short_orbit_rejected(self):
        sc = PRESETS["example1"]
        orbit = simulate(sc.params, sc.init, 10).prefix(2)
        with pytest.raises(ValueError):
            audit_bounds(orbit, sc.params)

    def test_majorant_batch_with_initials_above_alpha(self):
        rng = np.random.default_rng(17)
        for a in (1.5, 2.0, 3.0):
            for p in (0.5, 1.0):
                for q in (0.5, 1.0):
                    par = Params(a, p, q)
                    for _ in range(40):
                        init = InitialConditions(tuple(rng.uniform(a, 10, 3)),
                                                 tuple(rng.uniform(a, 10, 3)))
                        orbit = simulate(par, init, 300)
                        audit = audit_bounds(orbit, par, slack=1e-9)
                        assert audit.violations == (), (a, p, q)
                        assert audit.early_violations == ()

    def test_sub_alpha_initials_can_leak_at_index_four(self):
        # The even-index envelope is seeded at index 2 but its first
        # derivable step is index 6; initial values far below alpha can
        # push the true index-4 value over it.  The audit reports this
        # honestly, and only at even indices >= 4.
        rng = np.random.default_rng(11)
        leaks = []
        for a in (1.5, 2.0, 3.0):
            for p in (0.5, 1.0):
                for q in (0.5, 1.0):
                    par = Params(a, p, q)
                    for _ in range(84):
                        init = InitialConditions(tuple(rng.uniform(0.1, 10, 3)),
                                                 tuple(rng.uniform(0.1, 10, 3)))
                        orbit = simulate(par, init, 50)
                        audit = audit_bounds(orbit, par, slack=1e-9)
                        leaks.extend(audit.violations)
        assert leaks, "expected the documented index-4 envelope leak to occur"
        assert all(v.index >= 4 and v.index % 2 == 0 for v in leaks)
        assert all(v.upper is not None and v.value > v.upper for v in leaks)

    def test_max_slack_used_reported(self):
        sc = PRESETS["example1"]
        orbit = simulate(sc.params, sc.init, 200)
        audit = audit_bounds(orbit, sc.params, slack=1e-9)
        assert 0.0 <= audit.max_slack_used <= 1e-9
