import numpy as np
import pytest

from ratsys import (Equilibrium, InitialConditions, Orbit, Params,
                    check_semicycle_rule, classify_oscillation,
                    detect_monotone_tail, equilibrium, find_period2,
                    semicycles, simulate)
from ratsys.analysis import SemiCycle, resolved_prefix, settling_index
from ratsys.scenarios import PRESETS

MODULE_BATCH = [(a, p, q) for a in (1.5, 2.0, 3.0) for p in (0.5, 1.0) for q in (0.5, 1.0)]


def orbit_from(values_x, values_y, params=Params(2, 1, 1)):
    return Orbit(params, list(values_x), list(values_y))


def synthetic_joint(lengths, open_last=True, start=-2):
    """Contiguous aligned joint cycles with alternating signs."""
    cycles = []
    pos = start
    for i, ln in enumerate(lengths):
        cycles.append(SemiCycle(
            sign="positive" if i % 2 == 0 else "negative",
            start=pos, length=ln,
            open_ended=(open_last and i == len(lengths) - 1),
            component="joint"))
        pos += ln
    return cycles


class TestSemicycles:
    def test_constant_orbit_single_open_positive(self):
        par = Params(2, 0.6, 0.9)
        orbit = orbit_from([3.0] * 10, [3.0] * 10, par)
        dec = semicycles(orbit, equilibrium(par))
        for cycles in (dec.x, dec.y, dec.joint):
            assert len(cycles) == 1
            assert cycles[0].sign == "positive"
            assert cycles[0].open_ended
            assert cycles[0].start == -2 and cycles[0].length == 10

    def test_example1_negative_cycle_ends_at_zero(self):
        sc = PRESETS["example1"]
        orbit = simulate(sc.params, sc.init, 5)
        dec = semicycles(orbit, equilibrium(sc.params))
        covering = [c for c in dec.x if c.start <= 0 <= c.start + c.length - 1]
        assert len(covering) == 1
        assert covering[0].sign == "negative"
        assert covering[0].start + covering[0].length - 1 == 0
        following = [c for c in dec.x if c.start == 1]
        assert following and following[0].sign == "positive"

    def test_record_is_an_immutable_named_tuple(self):
        sc = SemiCycle(sign="negative", start=-2, length=4, open_ended=False,
                       component="x")
        assert sc.aligned is True
        assert len(sc) == 6
        sign, start, length, open_ended, component, aligned = sc
        assert (sign, start, length, open_ended, component, aligned) == (
            "negative", -2, 4, False, "x", True)
        assert sc == ("negative", -2, 4, False, "x", True)
        assert sc._replace(aligned=False).aligned is False and sc.aligned is True
        with pytest.raises(AttributeError):
            sc.length = 5

    def test_alternating_orbit_all_length_one(self):
        vals = [4.0, 2.0] * 8
        orbit = orbit_from(vals, vals)
        dec = semicycles(orbit, Equilibrium(3.0, 3.0))
        assert all(c.length == 1 for c in dec.x)
        assert len(dec.x) == 16
        assert all(c.aligned for c in dec.joint)

    def test_partition_and_alternation(self):
        rng = np.random.default_rng(5)
        for a, p, q in MODULE_BATCH[:6]:
            par = Params(a, p, q)
            eq = equilibrium(par)
            init = InitialConditions(tuple(rng.uniform(0.1, 10, 3)),
                                     tuple(rng.uniform(0.1, 10, 3)))
            orbit = simulate(par, init, 200)
            dec = semicycles(orbit, eq)
            for cycles in (dec.x, dec.y):
                covered = []
                for c in cycles:
                    covered.extend(range(c.start, c.start + c.length))
                assert covered == list(orbit.indices)
                for prev, cur in zip(cycles, cycles[1:]):
                    assert prev.sign != cur.sign
                assert sum(c.open_ended for c in cycles) == 1
                assert cycles[-1].open_ended

    def test_definition_fidelity(self):
        sc = PRESETS["example2"]
        orbit = simulate(sc.params, sc.init, 300)
        eq = equilibrium(sc.params)
        dec = semicycles(orbit, eq)
        for c in dec.x:
            seg = orbit.xs[c.start + 2: c.start + 2 + c.length]
            if c.sign == "positive":
                assert np.min(seg) >= eq.x_bar
            else:
                assert np.max(seg) < eq.x_bar

    def test_joint_covers_only_agreement(self):
        xs = [4.0, 4.0, 2.0, 2.0, 4.0, 4.0, 4.0]
        ys = [4.0, 2.0, 2.0, 4.0, 4.0, 4.0, 4.0]
        orbit = orbit_from(xs, ys)
        dec = semicycles(orbit, Equilibrium(3.0, 3.0))
        covered = sorted(i for c in dec.joint
                         for i in range(c.start, c.start + c.length))
        # indices -1 (pos/neg) and 1 (neg/pos) disagree
        assert covered == [-2, 0, 2, 3, 4]
        assert dec.misaligned_count == 2


class TestSemicycleRule:
    def test_rule_arms_after_length_two(self):
        rc = check_semicycle_rule(synthetic_joint([1, 1, 2, 3, 4, 7]))
        assert rc.holds and rc.violation is None

    def test_violation_at_second_cycle(self):
        rc = check_semicycle_rule(synthetic_joint([2, 2], open_last=False))
        assert not rc.holds
        assert rc.violation == 1

    def test_open_cycle_exempt(self):
        rc = check_semicycle_rule(synthetic_joint([2, 2], open_last=True))
        assert rc.holds

    def test_all_singletons_exempt(self):
        rc = check_semicycle_rule(synthetic_joint([1] * 9))
        assert rc.holds

    def test_misaligned_entry_disarms(self):
        cycles = synthetic_joint([2, 3, 1, 2], open_last=False)
        broken = list(cycles)
        broken[2] = SemiCycle(sign=broken[2].sign, start=broken[2].start,
                              length=1, open_ended=False, component="joint",
                              aligned=False)
        assert not check_semicycle_rule(cycles).holds
        assert check_semicycle_rule(broken).holds

    def test_coverage_gap_disarms(self):
        cycles = synthetic_joint([2], open_last=False) + synthetic_joint(
            [2], open_last=False, start=5)
        assert check_semicycle_rule(cycles).holds

    def test_batch_random_orbits(self):
        rng = np.random.default_rng(11)
        for a, p, q in MODULE_BATCH:
            par = Params(a, p, q)
            eq = equilibrium(par)
            for _ in range(84):
                init = InitialConditions(tuple(rng.uniform(0.1, 10, 3)),
                                         tuple(rng.uniform(0.1, 10, 3)))
                orbit = resolved_prefix(simulate(par, init, 300), eq)
                rc = check_semicycle_rule(semicycles(orbit, eq).joint)
                assert rc.holds, (a, p, q, rc.violation)


class TestOscillation:
    def test_constant_equilibrium_orbit(self):
        par = Params(2, 0.6, 0.9)
        orbit = orbit_from([3.0] * 20, [3.0] * 20, par)
        rep = classify_oscillation(orbit, equilibrium(par))
        assert rep.x_status == rep.y_status == "at-equilibrium"
        assert rep.joint_status == "at-equilibrium"

    def test_example1_oscillatory_or_settled(self):
        sc = PRESETS["example1"]
        orbit = simulate(sc.params, sc.init, 300)
        rep = classify_oscillation(orbit, equilibrium(sc.params))
        assert rep.x_status in ("oscillatory", "at-equilibrium")
        assert rep.y_status in ("oscillatory", "at-equilibrium")

    def test_one_sided_decay_is_nonoscillatory_positive(self):
        n = np.arange(-2, 40)
        vals = 3.0 + 2.0 ** -(n + 2.0)
        orbit = orbit_from(vals, vals)
        rep = classify_oscillation(orbit, Equilibrium(3.0, 3.0))
        assert rep.x_status == "nonoscillatory-positive"

    def test_short_orbit_insufficient(self):
        par = Params(2, 1, 1)
        orbit = orbit_from([3.0] * 5, [3.0] * 5, par)
        rep = classify_oscillation(orbit, equilibrium(par))
        assert rep.x_status == "insufficient-data"

    def test_batch_never_nonoscillatory_negative(self):
        rng = np.random.default_rng(11)
        for a, p, q in MODULE_BATCH:
            par = Params(a, p, q)
            eq = equilibrium(par)
            for _ in range(84):
                init = InitialConditions(tuple(rng.uniform(0.1, 10, 3)),
                                         tuple(rng.uniform(0.1, 10, 3)))
                orbit = simulate(par, init, 300)
                rep = classify_oscillation(orbit, eq)
                assert "nonoscillatory-negative" not in (rep.x_status, rep.y_status)


class TestMonotoneTail:
    def test_constant_orbit_reports_none(self):
        par = Params(2, 1, 1)
        orbit = orbit_from([3.0] * 20, [3.0] * 20, par)
        tails = detect_monotone_tail(orbit)
        assert tails.x.direction == "none" and tails.x.start is None

    def test_increasing_from_start(self):
        n = np.arange(-2, 40)
        vals = 3.0 - 2.0 ** -(n + 3.0)
        orbit = orbit_from(vals, vals)
        tails = detect_monotone_tail(orbit)
        assert tails.x.direction == "increasing"
        assert tails.x.start == -2

    def test_decreasing_tail_detected(self):
        vals = np.concatenate([[2.0, 9.0], 8.0 - 0.5 * np.arange(12)])
        vals = np.maximum(vals, 0.5)
        orbit = orbit_from(vals, vals)
        tails = detect_monotone_tail(orbit)
        assert tails.x.direction == "decreasing"

    def test_batch_no_decreasing_negative_tails(self):
        rng = np.random.default_rng(13)
        for a, p, q in MODULE_BATCH:
            par = Params(a, p, q)
            eq = equilibrium(par)
            for _ in range(40):
                init = InitialConditions(tuple(rng.uniform(0.1, 10, 3)),
                                         tuple(rng.uniform(0.1, 10, 3)))
                orbit = simulate(par, init, 300)
                rep = classify_oscillation(orbit, eq)
                tails = detect_monotone_tail(orbit)
                assert not (tails.x.direction == "decreasing"
                            and rep.x_status == "nonoscillatory-negative")
                assert not (tails.y.direction == "decreasing"
                            and rep.y_status == "nonoscillatory-negative")


class TestSettling:
    def test_settling_index_of_converging_orbit(self):
        sc = PRESETS["example1"]
        orbit = simulate(sc.params, sc.init, 300)
        eq = equilibrium(sc.params)
        settled = settling_index(orbit, eq)
        assert settled is not None
        segment_x = orbit.xs[settled + 2:]
        assert np.all(np.abs(segment_x - 3.0) <= 1e-12)
        assert abs(orbit.x_at(settled - 1) - 3.0) > 1e-12 \
            or abs(orbit.y_at(settled - 1) - 3.0) > 1e-12

    def test_never_settles(self):
        sc = PRESETS["example3"]
        orbit = simulate(sc.params, sc.init, 300)
        eq = equilibrium(sc.params)
        assert settling_index(orbit, eq) is None
        assert resolved_prefix(orbit, eq) is orbit


class TestPeriod2:
    def test_equilibrium_start_stays_put(self):
        par = PRESETS["example1"].params
        bar = par.alpha + 1.0
        res = find_period2(par, grid_points=1, box=(bar, bar))
        assert not res.found_nontrivial
        assert res.residual == 0.0
        assert res.witness == ((bar, bar), (bar, bar))

    @pytest.mark.parametrize("preset", ["example1", "example2"])
    def test_no_nontrivial_pair_on_grid(self, preset):
        par = PRESETS[preset].params
        res = find_period2(par, grid_points=5)
        assert not res.found_nontrivial
        assert res.converged == 5 ** 4
        assert res.diverged == 0 and res.stalled == 0
        assert res.residual < 1e-6
        assert res.residual == 0.0
