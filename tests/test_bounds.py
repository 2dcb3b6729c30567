import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_no_violations_for_any_start_up_to_ten(self):
        # starts anywhere in (0, 10], many below alpha: such a
        # component's even branch is seeded at index 4, and no value
        # leaves its envelope
        rng = np.random.default_rng(11)
        reseeded = 0
        for a in (1.5, 2.0, 3.0):
            for p in (0.5, 1.0):
                for q in (0.5, 1.0):
                    par = Params(a, p, q)
                    for _ in range(84):
                        init = InitialConditions(tuple(10.0 - rng.uniform(0, 10, 3)),
                                                 tuple(10.0 - rng.uniform(0, 10, 3)))
                        orbit = simulate(par, init, 50)
                        audit = audit_bounds(orbit, par, slack=1e-9)
                        assert audit.violations == (), (par, init)
                        assert audit.early_violations == ()
                        reseeded += init.x[2] < a or init.y[2] < a
        assert reseeded > 300

    def test_sub_alpha_start_moves_the_even_seed_to_index_four(self):
        par = Params(2.0, 0.6, 0.9)
        orbit = simulate(par, InitialConditions((3.0, 4.0, 0.5), (3.0, 4.0, 5.0)), 10)
        c = envelope_coeffs(par)
        # an infinite negative slack reports every envelope value: the x
        # seeds sit at indices 3 and 4, the y seeds at 2 and 3
        audit = audit_bounds(orbit, par, slack=-np.inf)
        assert [(v.index, v.component) for v in audit.early_violations] == [
            (2, "y"), (3, "x"), (3, "y"), (4, "x")]
        uppers = {(v.index, v.component): v.upper for v in audit.violations}
        assert (2, "x") not in uppers
        assert uppers[6, "x"] == envelope_at(c, orbit.x_at(4), 1, "x")
        assert uppers[8, "x"] == envelope_at(c, orbit.x_at(4), 2, "x")
        assert uppers[4, "y"] == envelope_at(c, orbit.y_at(2), 1, "y")
        xs = orbit.xs.copy()
        xs[4] = 1.0  # x[2] at or below alpha, with no envelope above it
        audit = audit_bounds(Orbit(par, xs, orbit.ys.copy()), par)
        assert [(v.index, v.component, v.upper) for v in audit.violations] == [(2, "x", None)]
        # a 3-step orbit ends before index 4, so its x even branch is empty
        short = simulate(par, InitialConditions((3.0, 4.0, 0.5), (3.0, 4.0, 5.0)), 3)
        audit = audit_bounds(short, par, slack=-np.inf)
        assert [(v.index, v.component) for v in audit.early_violations] == [
            (2, "y"), (3, "x"), (3, "y")]

    def test_start_at_alpha_keeps_the_index_two_seed(self):
        # the step from index 2 to 4 divides by x[0]; x[0] = alpha is enough
        par = Params(2.0, 0.6, 0.9)
        orbit = simulate(par, InitialConditions((3.0, 4.0, 2.0), (3.0, 4.0, 5.0)), 10)
        audit = audit_bounds(orbit, par, slack=-np.inf)
        assert [(v.index, v.component) for v in audit.early_violations] == [
            (2, "x"), (2, "y"), (3, "x"), (3, "y")]
        assert audit_bounds(orbit, par).violations == ()

    def test_max_slack_used_reported(self):
        sc = PRESETS["example1"]
        orbit = simulate(sc.params, sc.init, 200)
        audit = audit_bounds(orbit, sc.params, slack=1e-9)
        assert 0.0 <= audit.max_slack_used <= 1e-9


@st.composite
def convergent_orbits(draw):
    """Orbits with alpha in [1.05, 4], exponents in [0.05, 1] and starts in
    [1e-3, 10] or exactly at alpha, so index-0 values below, at and above
    alpha all occur."""
    alpha = draw(st.floats(1.05, 4.0))
    p, q = draw(st.floats(0.05, 1.0)), draw(st.floats(0.05, 1.0))
    start = st.one_of(st.floats(1e-3, 10.0), st.just(alpha))
    init = InitialConditions(tuple(draw(start) for _ in range(3)),
                             tuple(draw(start) for _ in range(3)))
    par = Params(alpha, p, q)
    return par, simulate(par, init, 40)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(convergent_orbits())
def test_envelope_recurrence_holds_where_it_is_derived(case):
    # x[k+2] <= a*x[k] + B chains x[k+2] <= alpha + alpha**-p * y[k+1]
    # (which needs y[k-1] >= alpha) and y[k+1] <= alpha + alpha**-q * x[k]
    # (which needs x[k-2] >= alpha); both also need y[k+1] and x[k] of at
    # least one, which every iterate (k >= 1) is.  Every such step whose
    # divisors are at least alpha must obey it, and the audit, which
    # starts a branch only where they are, is clean.
    par, orbit = case
    c = envelope_coeffs(par)
    steps = 0
    for v, w, drive in ((orbit.xs, orbit.ys, c.b), (orbit.ys, orbit.xs, c.c)):
        for i in range(3, len(v) - 2):  # v[i] holds index k = i - 2
            if v[i - 2] >= par.alpha and w[i - 1] >= par.alpha:
                assert v[i + 2] <= c.a * v[i] + drive + 1e-9
                steps += 1
    assert steps > 0
    audit = audit_bounds(orbit, par)
    assert audit.violations == () and audit.early_violations == ()
