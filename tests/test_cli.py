import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratsys import (ParseError, UnknownPresetError, analysis, classify,
                    load_scenario, save_scenario)
from ratsys.cli import main
from ratsys.scenarios import (PRESETS, Scenario, scenario_from_dict,
                              scenario_to_dict, sweep_from_dict)

EXPECTED_PRESETS = {
    "example1": (2.0, 0.6, 0.9, (2.5, 6.0, 2.0), (4.0, 2.0, 5.0)),
    "example2": (1.3, 0.9, 0.8, (2.6, 1.8, 3.0), (3.0, 5.0, 1.0)),
    "example3": (0.6, 0.8, 1.9, (1.6, 2.8, 4.0), (4.0, 1.5, 6.0)),
    "example4": (0.3, 1.2, 1.5, (6.0, 8.0, 3.0), (3.0, 5.0, 1.0)),
}


class TestScenarios:
    def test_preset_fidelity(self):
        for name, (alpha, p, q, x, y) in EXPECTED_PRESETS.items():
            sc = PRESETS[name]
            assert (sc.params.alpha, sc.params.p, sc.params.q) == (alpha, p, q)
            assert sc.init.x == x and sc.init.y == y
            assert sc.n_steps == 500 and sc.cap == 1e12

    def test_load_by_preset_name(self):
        assert load_scenario("example1") == PRESETS["example1"]

    def test_unknown_preset(self):
        with pytest.raises(UnknownPresetError):
            load_scenario("example9")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "scenario.json"
        save_scenario(PRESETS["example2"], path)
        assert load_scenario(path) == PRESETS["example2"]

    def test_parse_error_names_field(self, tmp_path):
        data = {"alpha": 2.0, "p": -1.0, "q": 0.9,
                "x_init": [1, 2, 3], "y_init": [1, 2, 3]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError) as err:
            load_scenario(path)
        assert err.value.field == "p"

    def test_missing_key_reported(self):
        with pytest.raises(ParseError) as err:
            scenario_from_dict({"alpha": 2.0, "p": 0.5, "q": 0.5,
                                "x_init": [1, 2, 3]})
        assert err.value.field == "y_init"

    def test_invalid_json_position_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"alpha": 2.0,\n "p": }')
        with pytest.raises(ParseError) as err:
            load_scenario(path)
        assert "line 2" in str(err.value)

    @pytest.mark.parametrize("field", ["x_init", "y_init"])
    @pytest.mark.parametrize("entry", ["3", True, None, "a", [1.0], {}])
    def test_list_entries_get_the_scalar_type_check(self, field, entry):
        data = scenario_to_dict(PRESETS["example1"])
        data[field] = [entry, 1, 1]
        with pytest.raises(ParseError, match="expected float") as err:
            scenario_from_dict(data)
        assert err.value.field == field

    def test_integer_beyond_float_range_is_a_parse_error(self):
        data = scenario_to_dict(PRESETS["example1"])
        data["x_init"] = [2.5, 10 ** 400, 2.0]
        with pytest.raises(ParseError, match="out of float range") as err:
            scenario_from_dict(data)
        assert err.value.field == "x_init"

    def test_n_steps_floor(self):
        with pytest.raises(ValueError):
            Scenario(params=PRESETS["example1"].params,
                     init=PRESETS["example1"].init, n_steps=5)


BAD_SCALARS = st.sampled_from(["3", "", True, False, None, [], {}, -1.0, 0.0,
                                float("inf"), float("nan")])
BAD_TRIPLES = st.one_of(
    BAD_SCALARS.filter(lambda v: not isinstance(v, list)),
    st.lists(st.floats(0.5, 9.0), max_size=5).filter(lambda v: len(v) != 3),
    # one bad entry among three
    st.tuples(st.integers(0, 2), BAD_SCALARS).map(
        lambda t: [1.0] * t[0] + [t[1]] + [1.0] * (2 - t[0])),
)
CORRUPTIONS = st.one_of(
    st.tuples(st.sampled_from(["alpha", "p", "q", "cap"]), BAD_SCALARS),
    st.tuples(st.just("n_steps"), st.sampled_from(["500", True, None, 9, 0, -3, 12.5])),
    st.tuples(st.sampled_from(["x_init", "y_init"]), BAD_TRIPLES),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(sorted(PRESETS)), CORRUPTIONS)
def test_corrupting_one_field_names_that_field(preset, corruption):
    field, value = corruption
    data = scenario_to_dict(PRESETS[preset])
    data[field] = value
    with pytest.raises(ParseError) as err:
        scenario_from_dict(data)
    assert err.value.field == field


class TestSimulateCommand:
    def test_csv_body_and_summary(self, tmp_path, capsys):
        out = tmp_path / "orbit.csv"
        assert main(["simulate", "--preset", "example1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,x,y"
        assert lines[1] == "-2,2.5,4.0"
        assert lines[4].startswith("1,3.1432626298183157,2.8180521460508583")
        assert len(lines) == 1 + 503
        err = capsys.readouterr().err
        assert "converged: yes" in err

    def test_byte_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--preset", "example2", "--out", str(a)])
        main(["simulate", "--preset", "example2", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_equilibrium_seeded_constant_rows(self, tmp_path):
        cfg = tmp_path / "eq.json"
        cfg.write_text(json.dumps({
            "alpha": 2.0, "p": 0.6, "q": 0.9, "n_steps": 50,
            "x_init": [3.0, 3.0, 3.0], "y_init": [3.0, 3.0, 3.0]}))
        out = tmp_path / "eq.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[1:]
        assert all(r.split(",")[1:] == ["3.0", "3.0"] for r in rows)

    def test_unknown_preset_exit_code(self, capsys):
        assert main(["simulate", "--config", "nope_not_a_preset"]) == 2
        assert "unknown preset" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_equilibrium_scenario_single_open_cycles(self, tmp_path, capsys):
        cfg = tmp_path / "eq.json"
        cfg.write_text(json.dumps({
            "alpha": 2.0, "p": 0.6, "q": 0.9, "n_steps": 40,
            "x_init": [3.0, 3.0, 3.0], "y_init": [3.0, 3.0, 3.0]}))
        assert main(["analyze", "--config", str(cfg), "--format", "csv"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "component,sign,start,length"
        body = [line.split(",") for line in out[1:]]
        for component in ("x", "y"):
            rows = [r for r in body if r[0] == component]
            assert rows == [[component, "positive", "-2", "open"]]

    def test_example1_rule_holds(self, capsys):
        assert main(["analyze", "--preset", "example1"]) == 0
        text = capsys.readouterr().out
        assert "semi-cycle length rule: holds" in text

    def test_example3_smoke(self, capsys):
        assert main(["analyze", "--preset", "example3"]) == 0
        assert "oscillation:" in capsys.readouterr().out

    @pytest.mark.parametrize("preset, decompositions", [("example1", 2), ("example3", 1)])
    def test_unsettled_orbit_is_decomposed_once(self, preset, decompositions,
                                                monkeypatch, capsys):
        # example1 settles, so its rule is judged on a shorter prefix;
        # example3 never settles and its one decomposition serves both
        calls = []
        semicycles = analysis.semicycles

        def counted(orbit, eq):
            calls.append(len(orbit))
            return semicycles(orbit, eq)

        monkeypatch.setattr(analysis, "semicycles", counted)
        assert main(["analyze", "--preset", preset]) == 0
        assert len(calls) == decompositions


class TestBoundsCommand:
    def test_example1_clean(self, capsys):
        assert main(["bounds", "--preset", "example1"]) == 0
        text = capsys.readouterr().out
        assert "violations: 0" in text

    def test_alpha_below_one_is_usage_error(self, capsys):
        assert main(["bounds", "--preset", "example3"]) == 2


class TestStabilityCommand:
    def test_example1_classification(self, capsys):
        assert main(["stability", "--preset", "example1"]) == 0
        text = capsys.readouterr().out
        assert "classification: globally-asymptotically-stable" in text
        assert "global conditions (alpha > 1 and 0 < p, q <= 1): met" in text

    def test_example3_reports_violated_conditions(self, capsys):
        assert main(["stability", "--preset", "example3"]) == 0
        text = capsys.readouterr().out
        assert "global conditions (alpha > 1 and 0 < p, q <= 1): violated" in text
        assert "classification: unstable" in text
        assert "certificate refused" in text

    def test_explicit_params_csv(self, capsys):
        assert main(["stability", "--alpha", "1.5", "--p", "0.5", "--q", "0.5",
                     "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "alpha,p,q,spectral_radius,classification"
        fields = lines[1].split(",")
        assert fields[:3] == ["1.5", "0.5", "0.5"]
        assert float(fields[3]) < 1.0
        assert fields[4] == "globally-asymptotically-stable"

    def test_partial_explicit_params_rejected(self, capsys):
        assert main(["stability", "--alpha", "1.5"]) == 2

    def test_real_eigenvalues_print_positive_zero_imaginary_part(self, capsys):
        assert main(["stability", "--preset", "example2"]) == 0
        text = capsys.readouterr().out
        assert "+0.000000000000j" in text
        assert "-0.000000000000j" not in text

    def test_scenario_eigen_tol_reaches_the_root_finder(self, tmp_path, capsys):
        # rate already solves with the scenario's eigen_tol; stability must too
        data = scenario_to_dict(PRESETS["example1"])
        data["tolerances"]["eigen_tol"] = 1e-2
        cfg = tmp_path / "loose.json"
        cfg.write_text(json.dumps(data))
        params = PRESETS["example1"].params
        loose = classify(params, eigen_tol=1e-2).spectral_radius
        assert f"{loose:.12f}" != f"{classify(params).spectral_radius:.12f}"
        assert main(["rate", "--config", str(cfg), "--format", "csv"]) == 0
        matched = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
        assert main(["stability", "--config", str(cfg)]) == 0
        text = capsys.readouterr().out
        assert f"(modulus {matched:.12f})" in text
        assert f"spectral radius: {loose:.12f}\n" in text
        assert main(["stability", "--config", str(cfg), "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split(",")[3] == repr(loose)


class TestRateCommand:
    def test_example1_gap(self, capsys):
        assert main(["rate", "--preset", "example1"]) == 0
        text = capsys.readouterr().out
        gap = float(next(l for l in text.splitlines() if l.startswith("gap:")).split()[1])
        assert gap < 1e-3

    def test_example4_insufficient_data(self, capsys):
        assert main(["rate", "--preset", "example4"]) == 4
        assert "did not converge" in capsys.readouterr().err

    def test_synthetic_geometric_orbit_file(self, tmp_path, capsys):
        # x and y decay toward the fixed point at exact ratio 0.5; the
        # norm floor leaves ~43 usable entries, so the window must fit
        rows = ["n,x,y"]
        for i in range(60):
            n = i - 2
            dev = 0.5 ** (n + 3)
            rows.append(f"{n},{3.0 + dev!r},{3.0 + dev!r}")
        path = tmp_path / "orbit.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["rate", "--preset", "example1", "--orbit", str(path),
                     "--window", "30"]) == 0
        text = capsys.readouterr().out
        assert "ratio estimate: 0.5\n" in text

    def test_burn_in_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rate", "--preset", "example1", "--burn-in", "10"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --burn-in 10" in capsys.readouterr().err

    def test_window_longer_than_the_norms(self, capsys):
        assert main(["rate", "--preset", "example1", "--window", "600"]) == 4
        assert capsys.readouterr().err == (
            "error: need 601 usable norms (window=600), got 501\n")

    def test_orbit_file_bad_header(self, tmp_path, capsys):
        path = tmp_path / "orbit.csv"
        path.write_text("a,b,c\n1,2,3\n")
        assert main(["rate", "--preset", "example1", "--orbit", str(path)]) == 2

    @pytest.fixture
    def orbit_lines(self, tmp_path, capsys):
        """The 500-step example1 orbit as CSV lines; lines[k + 3] holds n = k."""
        path = tmp_path / "example1.csv"
        assert main(["simulate", "--preset", "example1", "--out", str(path)]) == 0
        capsys.readouterr()
        return path.read_text().splitlines(keepends=True)

    def rate_on(self, tmp_path, lines):
        path = tmp_path / "edited.csv"
        path.write_text("".join(lines))
        return main(["rate", "--preset", "example1", "--orbit", str(path)])

    def test_intact_orbit_file_is_read(self, tmp_path, capsys, orbit_lines):
        assert self.rate_on(tmp_path, orbit_lines) == 0
        assert "usable range: n=32..76\n" in capsys.readouterr().out

    def test_orbit_file_with_a_missing_row(self, tmp_path, capsys, orbit_lines):
        assert orbit_lines[101].startswith("98,")
        del orbit_lines[101]
        assert self.rate_on(tmp_path, orbit_lines) == 2
        assert "line 102 has n=99, expected n=98" in capsys.readouterr().err

    def test_orbit_file_with_swapped_rows(self, tmp_path, capsys, orbit_lines):
        orbit_lines[13], orbit_lines[14] = orbit_lines[14], orbit_lines[13]
        assert self.rate_on(tmp_path, orbit_lines) == 2
        assert "line 14 has n=11, expected n=10" in capsys.readouterr().err

    def test_orbit_file_with_a_relabelled_row(self, tmp_path, capsys, orbit_lines):
        assert orbit_lines[203].startswith("200,")
        orbit_lines[203] = "201," + orbit_lines[203][4:]
        assert self.rate_on(tmp_path, orbit_lines) == 2
        assert "line 204 has n=201, expected n=200" in capsys.readouterr().err


class TestSweepCommand:
    def test_grid_all_stable(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "alpha": [1.1, 3.0, 5], "p": [0.1, 1.0, 5], "q": [0.1, 1.0, 5]}))
        assert main(["sweep", "--config", str(cfg)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "alpha,p,q,spectral_radius,classification"
        assert len(lines) == 1 + 125
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[3]) < 1.0
            assert fields[4] == "globally-asymptotically-stable"

    def test_row_order_alpha_outer_q_inner(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({
            "alpha": [1.5, 2.0, 2], "p": [0.4, 0.6, 2], "q": [0.3, 0.9, 2]}))
        main(["sweep", "--config", str(cfg)])
        rows = [l.split(",")[:3] for l in capsys.readouterr().out.splitlines()[1:]]
        assert rows == [
            ["1.5", "0.4", "0.3"], ["1.5", "0.4", "0.9"],
            ["1.5", "0.6", "0.3"], ["1.5", "0.6", "0.9"],
            ["2.0", "0.4", "0.3"], ["2.0", "0.4", "0.9"],
            ["2.0", "0.6", "0.3"], ["2.0", "0.6", "0.9"],
        ]

    def test_single_node_matches_stability(self, tmp_path, capsys):
        cfg = tmp_path / "single.json"
        cfg.write_text(json.dumps({
            "alpha": [2.0, 2.0, 1], "p": [0.6, 0.6, 1], "q": [0.9, 0.9, 1]}))
        main(["sweep", "--config", str(cfg)])
        sweep_row = capsys.readouterr().out.splitlines()[1]
        main(["stability", "--preset", "example1", "--format", "csv"])
        stab_row = capsys.readouterr().out.splitlines()[1]
        assert sweep_row == stab_row

    def test_invalid_range_rejected_before_work(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "alpha": [3.0, 1.0, 5], "p": [0.1, 1.0, 5], "q": [0.1, 1.0, 5]}))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "alpha" in capsys.readouterr().err

    def test_optional_node_simulation_column(self, tmp_path, capsys):
        cfg = tmp_path / "sim.json"
        cfg.write_text(json.dumps({
            "alpha": [2.0, 2.0, 1], "p": [0.6, 0.6, 1], "q": [0.9, 0.9, 1],
            "simulate": {"n_steps": 300, "x_init": [2.5, 6.0, 2.0],
                         "y_init": [4.0, 2.0, 5.0]}}))
        main(["sweep", "--config", str(cfg)])
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith(",converged")
        assert lines[1].endswith(",yes")

    def test_missing_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "nope.json"
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read {cfg}: No such file or directory\n")

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_directory_config_is_a_read_error(self, tmp_path, capsys, command):
        assert main([command, "--config", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot read {tmp_path}: Is a directory\n")

    @pytest.mark.parametrize("bound", [0, 1])
    @pytest.mark.parametrize("entry", ["0.5", True, None])
    def test_axis_bounds_get_the_scalar_type_check(self, bound, entry):
        axis = [0.5, 3.0, 3]
        axis[bound] = entry
        data = {"alpha": [1.5, 2.0, 2], "p": axis, "q": [0.3, 0.9, 2]}
        with pytest.raises(ParseError, match="expected float") as err:
            sweep_from_dict(data)
        assert err.value.field == "p"

    @pytest.mark.parametrize("field", ["x_init", "y_init"])
    @pytest.mark.parametrize("entry", ["3", True, None, -1.0])
    def test_simulate_entries_name_their_field(self, field, entry):
        sim = {"n_steps": 20, "x_init": [2.5, 6.0, 2.0], "y_init": [4.0, 2.0, 5.0]}
        sim[field] = [1.0, entry, 1.0]
        data = {"alpha": [2.0, 2.0, 1], "p": [0.6, 0.6, 1], "q": [0.9, 0.9, 1],
                "simulate": sim}
        with pytest.raises(ParseError) as err:
            sweep_from_dict(data)
        assert err.value.field == field

    def test_unknown_simulate_key_rejected(self, tmp_path, capsys):
        data = {"alpha": [2.0, 2.0, 1], "p": [0.6, 0.6, 1], "q": [0.9, 0.9, 1],
                "simulate": {"n_steps": 20, "x_init": [2.5, 6.0, 2.0],
                             "y_init": [4.0, 2.0, 5.0], "typo": 5}}
        with pytest.raises(ParseError) as err:
            sweep_from_dict(data)
        assert err.value.field == "typo"
        cfg = tmp_path / "typo.json"
        cfg.write_text(json.dumps(data))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert "(field: typo)" in capsys.readouterr().err
