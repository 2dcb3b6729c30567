import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratsys import (InitialConditions, NumericError, Orbit, Params, Window,
                    equilibrium, semicycles, simulate, step)
from ratsys.scenarios import PRESETS

# frozen against a 40-digit mpmath evaluation of 2+(5/4)**0.6 and 2+(2/2.5)**0.9
EX1_X1 = 3.143262629818315866
EX1_Y1 = 2.818052146050858342


def reference_orbit(alpha, p, q, x_init, y_init, n_steps):
    """Independent inline iteration of the recurrence (no package code)."""
    xs = list(x_init)
    ys = list(y_init)
    for _ in range(n_steps):
        xs.append(alpha + (ys[-1] / ys[-3]) ** p)
        ys.append(alpha + (xs[-2] / xs[-4]) ** q)
    return xs, ys


class TestParams:
    def test_accepts_positive(self):
        par = Params(2, 0.6, 0.9)
        assert (par.alpha, par.p, par.q) == (2.0, 0.6, 0.9)

    @pytest.mark.parametrize("bad", [
        dict(alpha=0.0), dict(alpha=-1.0), dict(p=0.0), dict(q=-0.5),
        dict(alpha=float("nan")), dict(p=float("inf")),
    ])
    def test_rejects_nonpositive(self, bad):
        kwargs = dict(alpha=2.0, p=0.6, q=0.9)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            Params(**kwargs)

    def test_initial_conditions_reject_nonpositive(self):
        with pytest.raises(ValueError):
            InitialConditions((1.0, 2.0, 0.0), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            InitialConditions((1.0, 2.0), (1.0, 1.0, 1.0))


class TestEquilibrium:
    @pytest.mark.parametrize("params,expected", [
        (Params(2, 0.6, 0.9), 3.0),
        (Params(0.6, 0.8, 1.9), 1.6),
        (Params(1, 1, 1), 2.0),
    ])
    def test_alpha_plus_one(self, params, expected):
        eq = equilibrium(params)
        assert eq.x_bar == expected
        assert eq.y_bar == expected


class TestStep:
    def test_example1_first_iterate(self):
        sc = PRESETS["example1"]
        x1, y1 = step(sc.params, Window(sc.init.x, sc.init.y))
        assert abs(x1 - EX1_X1) < 1e-12
        assert abs(y1 - EX1_Y1) < 1e-12

    def test_equilibrium_window_is_fixed(self):
        par = Params(2, 0.6, 0.9)
        x1, y1 = step(par, Window((3, 3, 3), (3, 3, 3)))
        assert (x1, y1) == (3.0, 3.0)

    def test_symmetric_exponents_equal_components(self):
        par = Params(1.7, 0.8, 0.8)
        w = Window((1.2, 4.0, 2.5), (1.2, 4.0, 2.5))
        x1, y1 = step(par, w)
        assert x1 == y1

    def test_overflow_above_cap(self):
        par = Params(0.3, 3.0, 3.0)
        w = Window((1e-3, 1.0, 1e3), (1e-3, 1.0, 1e3))
        with pytest.raises(OverflowError):
            step(par, w, cap=10.0)

    def test_degenerate_ratio_raises_numeric_error(self):
        par = Params(2.0, 5.0, 5.0)
        w = Window((1e300, 1.0, 1e-300), (1e-300, 1.0, 1e300))
        with pytest.raises((NumericError, OverflowError)):
            step(par, w)


class TestSimulate:
    def test_example1_converges_by_200(self):
        sc = PRESETS["example1"]
        orbit = simulate(sc.params, sc.init, 200)
        assert abs(orbit.x_at(200) - 3.0) < 1e-6
        assert abs(orbit.y_at(200) - 3.0) < 1e-6

    def test_matches_independent_reference(self):
        sc = PRESETS["example1"]
        orbit = simulate(sc.params, sc.init, 100)
        xs, ys = reference_orbit(2.0, 0.6, 0.9, sc.init.x, sc.init.y, 100)
        assert np.array_equal(orbit.xs, np.array(xs))
        assert np.array_equal(orbit.ys, np.array(ys))

    def test_matches_high_precision_reference(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 50
        sc = PRESETS["example1"]
        alpha, p, q = (mp.mpf(2), mp.mpf("0.6"), mp.mpf("0.9"))
        xs = [mp.mpf(v) for v in sc.init.x]
        ys = [mp.mpf(v) for v in sc.init.y]
        for _ in range(60):
            xs.append(alpha + (ys[-1] / ys[-3]) ** p)
            ys.append(alpha + (xs[-2] / xs[-4]) ** q)
        orbit = simulate(sc.params, sc.init, 60)
        for i in range(63):
            assert abs(orbit.xs[i] - float(xs[i])) < 1e-9
            assert abs(orbit.ys[i] - float(ys[i])) < 1e-9

    def test_fixed_point_is_constant(self):
        par = Params(1.8, 0.7, 0.4)
        bar = par.alpha + 1.0
        orbit = simulate(par, InitialConditions((bar,) * 3, (bar,) * 3), 1000)
        assert orbit.termination.completed
        assert np.all(np.abs(orbit.xs - bar) < 1e-12)
        assert np.all(np.abs(orbit.ys - bar) < 1e-12)

    def test_swap_symmetry(self):
        x_init = (2.5, 6.0, 2.0)
        y_init = (4.0, 2.0, 5.0)
        fwd = simulate(Params(2, 0.6, 0.9), InitialConditions(x_init, y_init), 300)
        swp = simulate(Params(2, 0.9, 0.6), InitialConditions(y_init, x_init), 300)
        assert np.array_equal(fwd.xs, swp.ys)
        assert np.array_equal(fwd.ys, swp.xs)

    def test_persistence_strict(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            par = Params(rng.uniform(0.2, 4), rng.uniform(0.1, 2), rng.uniform(0.1, 2))
            init = InitialConditions(tuple(rng.uniform(0.1, 10, 3)),
                                     tuple(rng.uniform(0.1, 10, 3)))
            orbit = simulate(par, init, 200)
            assert np.all(orbit.xs[3:] > par.alpha)
            assert np.all(orbit.ys[3:] > par.alpha)

    def test_determinism(self):
        sc = PRESETS["example2"]
        a = simulate(sc.params, sc.init, 250)
        b = simulate(sc.params, sc.init, 250)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)

    def test_overflow_truncates_with_record(self):
        sc = PRESETS["example4"]
        orbit = simulate(sc.params, sc.init, 1000, cap=100.0)
        assert orbit.termination.kind == "overflow"
        k = orbit.termination.index
        assert k is not None and orbit.last_index == k - 1
        assert np.all(np.isfinite(orbit.xs)) and np.all(orbit.xs <= 100.0)

    def test_truncation_is_data_not_failure(self):
        sc = PRESETS["example4"]
        orbit = simulate(sc.params, sc.init, 1000, cap=100.0)
        assert len(orbit) >= 3  # no exception escaped

    def test_rejects_bad_step_count(self):
        sc = PRESETS["example1"]
        with pytest.raises(ValueError):
            simulate(sc.params, sc.init, 0)


# parameters reach the overflow cap (alpha 0.1, p = q = 3 does) as well
# as convergent and bounded orbits
positives = st.floats(0.05, 4.0)
starts = st.tuples(*[st.floats(0.1, 10.0)] * 3)
orbit_cases = st.tuples(positives, positives, positives, starts, starts,
                        st.integers(1, 250))
PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                             database=None)


@PROPERTY_SETTINGS
@given(orbit_cases)
def test_swap_symmetry_property(case):
    alpha, p, q, x_init, y_init, n_steps = case
    fwd = simulate(Params(alpha, p, q), InitialConditions(x_init, y_init), n_steps)
    swp = simulate(Params(alpha, q, p), InitialConditions(y_init, x_init), n_steps)
    assert np.array_equal(fwd.xs, swp.ys) and np.array_equal(fwd.ys, swp.xs)
    assert np.array_equal(fwd.deviations, swp.deviations[::-1])
    assert fwd.termination == swp.termination
    eq = equilibrium(Params(alpha, p, q))
    dec, dec_swp = semicycles(fwd, eq), semicycles(swp, eq)
    relabel = lambda cycles, component: [c._replace(component=component) for c in cycles]
    assert relabel(dec.x, "y") == list(dec_swp.y)
    assert relabel(dec.y, "x") == list(dec_swp.x)
    assert dec.joint == dec_swp.joint
    assert dec.misaligned_count == dec_swp.misaligned_count


@PROPERTY_SETTINGS
@given(orbit_cases)
def test_persistence_property(case):
    alpha, p, q, x_init, y_init, n_steps = case
    orbit = simulate(Params(alpha, p, q), InitialConditions(x_init, y_init), n_steps)
    for values in (orbit.xs, orbit.ys):
        assert np.all(np.isfinite(values)) and np.all(values > 0.0)
        assert np.all(values[3:] > alpha)


class TestOrbit:
    def test_indexing(self):
        orbit = Orbit(Params(1, 1, 1), [1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0])
        assert orbit.x_at(-2) == 1.0
        assert orbit.y_at(1) == 8.0
        assert orbit.last_index == 1
        assert list(orbit.indices) == [-2, -1, 0, 1]

    def test_immutable(self):
        orbit = Orbit(Params(1, 1, 1), [1.0, 2.0, 3.0], [5.0, 6.0, 7.0])
        with pytest.raises(AttributeError):
            orbit.xs = np.zeros(3)
        with pytest.raises(ValueError):
            orbit.xs[0] = 9.0

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            Orbit(Params(1, 1, 1), [1.0, -2.0, 3.0], [5.0, 6.0, 7.0])

    def test_caller_arrays_stay_writable_and_detached(self):
        xs = np.array([1.0, 2.0, 3.0])
        ys = np.array([5.0, 6.0, 7.0])
        devs = np.array([[-2.0, -1.0, 0.0], [2.0, 3.0, 4.0]])
        orbit = Orbit(Params(2, 1, 1), xs, ys, deviations=devs)
        xs[0] = ys[0] = 9.0
        devs[0, 0] = 9.0
        assert orbit.x_at(-2) == 1.0 and orbit.y_at(-2) == 5.0
        assert orbit.deviations[0, 0] == -2.0
        with pytest.raises(ValueError):
            orbit.xs[0] = 9.0

    def test_prefix(self):
        sc = PRESETS["example1"]
        orbit = simulate(sc.params, sc.init, 50)
        pre = orbit.prefix(10)
        assert pre.last_index == 10
        assert np.array_equal(pre.xs, orbit.xs[:13])
        with pytest.raises(ValueError):
            orbit.prefix(51)


def high_precision_deviations(params, init, n_steps, dps=80):
    """value - (alpha + 1) of the exact orbit from the binary64 inputs,
    rounded to binary64 at the end."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(dps):
        alpha, p, q = mp.mpf(params.alpha), mp.mpf(params.p), mp.mpf(params.q)
        xs = [mp.mpf(v) for v in init.x]
        ys = [mp.mpf(v) for v in init.y]
        for _ in range(n_steps):
            xs.append(alpha + (ys[-1] / ys[-3]) ** p)
            ys.append(alpha + (xs[-2] / xs[-4]) ** q)
        bar = alpha + 1
        return (np.array([float(v - bar) for v in xs]),
                np.array([float(v - bar) for v in ys]))


class TestDeviationChannel:
    def test_simulated_orbit_carries_read_only_channel(self):
        sc = PRESETS["example1"]
        orbit = simulate(sc.params, sc.init, 40)
        assert orbit.deviations.shape == (2, len(orbit))
        with pytest.raises(ValueError):
            orbit.deviations[0, 5] = 0.0
        for i in range(3):
            assert orbit.deviations[0, i] == orbit.xs[i] - 3.0
            assert orbit.deviations[1, i] == orbit.ys[i] - 3.0

    def test_orbit_from_values_has_no_channel(self):
        orbit = Orbit(Params(1, 1, 1), [1.0, 2.0, 3.0], [5.0, 6.0, 7.0])
        assert orbit.deviations is None
        assert orbit.prefix(0).deviations is None

    def test_prefix_slices_channel(self):
        sc = PRESETS["example2"]
        orbit = simulate(sc.params, sc.init, 50)
        pre = orbit.prefix(10)
        assert np.array_equal(pre.deviations, orbit.deviations[:, :13])

    def test_rejects_malformed_channel(self):
        par = Params(1, 1, 1)
        with pytest.raises(ValueError):
            Orbit(par, [1.0, 2.0, 3.0], [5.0, 6.0, 7.0], deviations=np.zeros((2, 4)))
        with pytest.raises(ValueError):
            Orbit(par, [1.0, 2.0, 3.0], [5.0, 6.0, 7.0],
                  deviations=[[0.0, 0.0, float("inf")], [0.0, 0.0, 0.0]])

    def test_truncated_orbit_keeps_channel_length(self):
        sc = PRESETS["example4"]
        orbit = simulate(sc.params, sc.init, 1000, cap=100.0)
        assert orbit.termination.kind == "overflow"
        assert orbit.deviations.shape == (2, len(orbit))

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_agrees_with_values_away_from_equilibrium(self, name):
        sc = PRESETS[name]
        orbit = simulate(sc.params, sc.init, 500)
        bar = sc.params.alpha + 1.0
        for values, devs in ((orbit.xs, orbit.deviations[0]),
                             (orbit.ys, orbit.deviations[1])):
            naive = values - bar
            far = np.abs(naive) > 1e-6
            assert np.count_nonzero(far) > 20
            assert np.max(np.abs(devs[far] - naive[far]) / np.abs(naive[far])) < 1e-9

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_matches_80_digit_reference(self, name):
        sc = PRESETS[name]
        ref_x, ref_y = high_precision_deviations(sc.params, sc.init, 300)
        orbit = simulate(sc.params, sc.init, 300)
        for devs, ref in ((orbit.deviations[0], ref_x), (orbit.deviations[1], ref_y)):
            assert np.max(np.abs((devs - ref) / ref)) < 1e-10

    def test_tiny_initial_value_keeps_channel_finite(self):
        # 1e-300 - bar rounds to -bar, whose log1p form would be -inf
        par = Params(2.0, 0.01, 0.01)
        init = InitialConditions((1.0, 2.0, 3.0), (1e-300, 2.0, 1.0))
        orbit = simulate(par, init, 30)
        assert orbit.termination.completed
        assert np.all(np.isfinite(orbit.deviations))
        naive = orbit.xs - 3.0
        far = np.abs(naive) > 1e-6
        assert np.max(np.abs(orbit.deviations[0, far] - naive[far]) / np.abs(naive[far])) < 1e-9
