"""Command-line interface tests: subcommands, exit codes, determinism."""

import json
import math
import os
import warnings

import pytest

from zenolab.cli import main
from zenolab.sweep import csv_columns

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def qubit_scenario_file(tmp_path, **overrides):
    payload = {
        "dim": 2,
        "hamiltonian": "pauli_x",
        "state": {"eigenvalues": [0.7, 0.3], "basis": "standard"},
        "curve": {"static": {}},
        "tau": 1.0,
        "partitions": {"uniform": [2, 4, 8, 16]},
    }
    payload.update(overrides)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestRunCommand:
    def test_prints_one_line_per_record(self, tmp_path, capsys):
        rc = main(["run", qubit_scenario_file(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert len([l for l in out.splitlines() if l.strip() and not l.startswith("N ")]) >= 4

    def test_writes_csv_when_scenario_has_output(self, tmp_path, capsys):
        out_csv = str(tmp_path / "records.csv")
        rc = main(["run", qubit_scenario_file(tmp_path, output=out_csv)])
        assert rc == 0
        assert os.path.exists(out_csv)

    def test_missing_scenario_is_config_error(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "none.json")])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err

    def test_schema_violation_is_config_error(self, tmp_path, capsys):
        path = qubit_scenario_file(tmp_path, state={"eigenvalues": [0.6, 0.3]})
        rc = main(["run", path])
        assert rc == 2
        assert "eigenvalues" in capsys.readouterr().err

    @pytest.mark.parametrize("eigenvalues", [[0.5, 0.3, 0.2], [0.3, 0.25, 0.2, 0.15, 0.1]], ids=["d3", "d5"])
    def test_large_random_hamiltonian_and_generator(self, eigenvalues, tmp_path, capsys):
        # Norms of 1e4 give i[A, H] a rounding defect far above 1e-10: the run reads
        # the energy sups off the grid and must not re-check that product.
        path = qubit_scenario_file(
            tmp_path, dim=len(eigenvalues), hamiltonian={"random": {"seed": 1, "norm": 1e4}},
            state={"eigenvalues": eigenvalues},
            curve={"generated": {"generator": {"random": {"seed": 2, "norm": 1e4}}}}, partitions={"uniform": [2, 4]})
        rc = main(["run", path])
        captured = capsys.readouterr()
        assert rc == 0, captured.err
        assert [l.split()[0] for l in captured.out.splitlines()[1:]] == ["2", "4"]

    def test_broken_final_state_is_an_invariant_violation(self, capsys, monkeypatch):
        # A route defect that leaves the final state off trace is the program's
        # fault, not the scenario's: exit 1, not the configuration error's 2.
        import zenolab.measurement as measurement_mod

        channel_route = measurement_mod._channel_route
        monkeypatch.setattr(measurement_mod, "_channel_route", lambda *args: 1.001 * channel_route(*args))
        rc = main(["run", os.path.join(SCENARIOS, "unitary_approx.json")])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("invariant violation: final_state_is_a_state ")
        assert "trace 1.00" in err and "scenario='unitary_approx.json N=" in err


def _run_with(**overrides):
    return lambda tmp_path: ["run", qubit_scenario_file(tmp_path, **overrides)]


def _rate_with_row(edit):
    """rate on a sweep CSV whose first data row (file line 3) is edited."""

    def argv(tmp_path):
        out_csv = tmp_path / "sweep.csv"
        assert main(["sweep", qubit_scenario_file(tmp_path), "--output", str(out_csv)]) == 0
        lines = out_csv.read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        out_csv.write_text("\n".join(lines) + "\n")
        return ["rate", str(out_csv), "--column", "trace_distance"]

    return argv


def _csv_file(text, command="rate"):
    def argv(tmp_path):
        (tmp_path / "sweep.csv").write_text(text)
        return [command, str(tmp_path / "sweep.csv"), "--column", "trace_distance"]

    return argv


MALFORMED_INPUTS = {
    "random_hamiltonian_without_seed": (_run_with(hamiltonian={"random": {}}), "hamiltonian"),
    "generated_curve_without_generator": (_run_with(curve={"generated": {}}), "'generator'"),
    "dense_entries_not_pairs": (_run_with(hamiltonian={"dense": [[1, 2], [3, 4]]}), "hamiltonian"),
    "non_hermitian_hamiltonian": (
        _run_with(hamiltonian={"dense": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}), "hamiltonian is not Hermitian"),
    "unknown_field": (_run_with(ouput="x.csv"), "unknown field 'ouput'"),
    "removed_checks_field": (_run_with(checks=["fannes"]), "unknown field 'checks'"),
    "uniform_plan_with_a_string": (_run_with(partitions={"uniform": ["x"]}), "partitions"),
    "random_plan_without_seed": (_run_with(partitions={"random": {"n": [4]}}), "'seed'"),
    "random_basis_without_seed": (
        _run_with(state={"eigenvalues": [0.7, 0.3], "basis": {"random": {}}}),
        "state.basis.random: missing key 'seed'"),
    "null_state": (_run_with(state=None), "state must be an object"),
    "infinite_random_seed": (
        _run_with(hamiltonian={"random": {"seed": math.inf}}), "hamiltonian.random.seed must be a nonnegative integer"),
    "infinite_uniform_n": (
        _run_with(partitions={"uniform": [4, math.inf]}), "partitions.uniform[1] must be a positive integer, got inf"),
    "null_dim": (_run_with(dim=None), "dim must be a positive integer, got None"),
    "null_tau": (_run_with(tau=None), "tau must hold finite numbers only, got None"),
    "boolean_tau": (_run_with(tau=True), "tau must hold finite numbers only, got True"),
    "diagonal_not_a_list": (
        _run_with(hamiltonian={"diagonal": 3}), "hamiltonian.diagonal must be numbers of shape (2,), got 3"),
    "diagonal_of_rows": (
        _run_with(hamiltonian={"diagonal": [[1, 2], [3, 4]]}), "hamiltonian.diagonal must be numbers of shape (2,)"),
    "diagonal_entry_beyond_half_the_float_range": (
        _run_with(hamiltonian={"diagonal": [1e308, 0.0]}), "hamiltonian has an entry of size 1.000e+308"),
    "uniform_plan_with_a_numeric_string": (
        _run_with(partitions={"uniform": ["4", 2.7, True]}),
        "partitions.uniform[0] must be a positive integer, got '4'"),
    "uniform_plan_with_a_fraction": (
        _run_with(partitions={"uniform": [2, 2.7]}), "partitions.uniform[1] must be a positive integer, got 2.7"),
    "uniform_plan_with_a_boolean": (
        _run_with(partitions={"uniform": [2, True]}), "partitions.uniform[1] must be a positive integer, got True"),
    "empty_uniform_plan": (_run_with(partitions={"uniform": []}), "partitions.uniform must be a non-empty list"),
    "plan_with_two_forms": (
        _run_with(partitions={"uniform": [2], "random": {"n": [4], "seed": 1}}), "partitions must be one of"),
    "random_seed_as_a_string": (
        _run_with(hamiltonian={"random": {"seed": "7"}}), "hamiltonian.random.seed must be a nonnegative integer"),
    "random_seed_as_a_fraction": (
        _run_with(hamiltonian={"random": {"seed": 7.9}}), "hamiltonian.random.seed must be a nonnegative integer"),
    "negative_random_seed": (
        _run_with(hamiltonian={"random": {"seed": -1}}), "hamiltonian.random.seed must be a nonnegative integer"),
    "negative_basis_seed": (
        _run_with(state={"eigenvalues": [0.7, 0.3], "basis": {"random": {"seed": -1}}}),
        "state.basis.random.seed must be a nonnegative integer"),
    "negative_plan_seed": (
        _run_with(partitions={"random": {"n": [4], "seed": -1}}),
        "partitions.random.seed must be a nonnegative integer"),
    "random_norm_as_a_string": (
        _run_with(hamiltonian={"random": {"seed": 7, "norm": "2"}}), "hamiltonian.random.norm must hold finite numbers only"),
    "random_norm_as_a_boolean": (
        _run_with(hamiltonian={"random": {"seed": 7, "norm": True}}),
        "hamiltonian.random.norm must hold finite numbers only"),
    "negative_random_norm": (
        _run_with(hamiltonian={"random": {"seed": 7, "norm": -3}}),
        "hamiltonian.random.norm must be >= 0, got -3"),
    "misspelt_random_norm": (
        _run_with(hamiltonian={"random": {"seed": 7, "nrom": 1.0}}), "hamiltonian.random: unknown key 'nrom'"),
    "static_curve_with_a_param": (_run_with(curve={"static": {"speed": 3}}), "curve.static: unknown key 'speed'"),
    "generator_with_a_misspelt_norm": (
        _run_with(curve={"generated": {"generator": {"random": {"seed": 1, "nrom": 2.0}}}}),
        "curve.generated.generator.random: unknown key 'nrom'"),
    "operator_with_two_forms": (
        _run_with(hamiltonian={"diagonal": [1, 2], "dense": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]]}),
        "hamiltonian must be one of"),
    "unknown_operator_name": (_run_with(hamiltonian="pauli_w"), "hamiltonian must be one of 'pauli_x'"),
    "eigenvalues_as_strings": (
        _run_with(state={"eigenvalues": ["0.7", "0.3"]}), "state.eigenvalues must hold finite numbers only, got '0.7'"),
    "eigenvalues_as_booleans": (
        _run_with(state={"eigenvalues": [True, False]}), "state.eigenvalues must hold finite numbers only, got True"),
    "misspelt_state_basis": (
        _run_with(state={"eigenvalues": [0.7, 0.3], "basi": "curve"}), "state: unknown key 'basi'"),
    "infinite_a": (_run_with(a=math.inf), "a must hold finite numbers only, got inf"),
    "missing_frames_file": (
        _run_with(curve={"sampled": {"file": "absent.json"}}, state={"eigenvalues": [0.7, 0.3], "basis": "curve"}),
        "cannot read"),
    "frames_path_with_a_null_byte": (
        _run_with(curve={"sampled": {"file": "fr\u0000.json"}}, state={"eigenvalues": [0.7, 0.3], "basis": "curve"}),
        "cannot read"),
    "oversized_uniform_n": (
        _run_with(partitions={"uniform": [4, 10**12]}), "partitions: the plan's N + 1 sum to 1000000000006"),
    "csv_row_with_a_non_number": (_rate_with_row(lambda f: f[:3] + ["x"] + f[4:]), "line 3"),
    "csv_row_with_too_few_fields": (_rate_with_row(lambda f: f[:3]), "line 3"),
    "csv_without_header": (_csv_file("#schema=1\n"), "columns do not match"),
    "csv_without_records": (
        _csv_file("#schema=1\n" + ",".join(csv_columns(2)) + "\n", command="plot-script"), "holds no records"),
    "csv_row_with_zero_n": (_rate_with_row(lambda f: ["0"] + f[1:]), "line 3"),
    "csv_row_with_negative_n": (_rate_with_row(lambda f: ["-3"] + f[1:]), "line 3"),
    "csv_row_with_n_beyond_float_range": (_rate_with_row(lambda f: ["1" + "0" * 400] + f[1:]), "line 3"),
    "csv_row_with_nan_distance": (_rate_with_row(lambda f: f[:3] + ["nan"] + f[4:]), "line 3: trace_distance"),
    "csv_row_with_infinite_distance": (_rate_with_row(lambda f: f[:3] + ["inf"] + f[4:]), "line 3: trace_distance"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_is_config_error(case, tmp_path, capsys):
    argv, named = MALFORMED_INPUTS[case]
    args = argv(tmp_path)
    capsys.readouterr()
    rc = main(args)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("configuration error:")
    assert named in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("overrides", [
    {"tau": 1e200},
    {"hamiltonian": {"random": {"seed": 1, "norm": 1e308}}},
    {"curve": {"generated": {"generator": {"random": {"seed": 11, "norm": 1e160}}}}},
], ids=["tau", "hamiltonian_norm", "generator_norm"])
def test_scale_beyond_float_range_is_config_error(overrides, tmp_path, capsys):
    # The first two were a traceback: an OverflowError from mesh_condition at
    # this tau, a LinAlgError from the sigma_domination row at this norm. The
    # generator's eta overflows while it is computed, and still exits 2.
    with open(os.path.join(SCENARIOS, "unitary_approx.json")) as fh:
        payload = json.load(fh)
    del payload["output"]
    payload.update(overrides)
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(payload))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(["run", str(path)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("configuration error: tau, hamiltonian and curve: ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("argv, named", [
    (["--replay", "-5"], "argument --replay: must be an integer >= 0, got -5"),
    (["--seed", "-1", "--size", "2"], "argument --seed: must be an integer >= 0, got -1"),
    (["--size", "-3"], "argument --size: must be an integer >= 1, got -3"),
    (["--size", "0"], "argument --size: must be an integer >= 1, got 0"),
    (["--seed", "x"], "argument --seed: invalid integer value: 'x'"),
], ids=["negative_replay", "negative_seed", "negative_size", "zero_size", "seed_not_an_integer"])
def test_check_arguments_out_of_range_are_usage_errors(argv, named, capsys):
    # The first two were numpy's ValueError traceback; a negative size printed size=0 ... PASS.
    with pytest.raises(SystemExit) as excinfo:
        main(["check", *argv])
    err = capsys.readouterr().err
    assert excinfo.value.code == 2
    assert err.startswith("usage: ")
    assert named in err


class TestSweepCommand:
    def test_requires_some_output_path(self, tmp_path, capsys):
        rc = main(["sweep", qubit_scenario_file(tmp_path)])
        assert rc == 2

    def test_writes_csv(self, tmp_path, capsys):
        out_csv = str(tmp_path / "sweep.csv")
        rc = main(["sweep", qubit_scenario_file(tmp_path), "--output", out_csv])
        assert rc == 0
        assert open(out_csv).readline().startswith("#schema=1")


class TestRateCommand:
    def test_fits_slope_from_csv(self, tmp_path, capsys):
        out_csv = str(tmp_path / "sweep.csv")
        main(["sweep", qubit_scenario_file(tmp_path, partitions={"uniform": [2, 4, 8, 16, 32, 64]}),
              "--output", out_csv])
        capsys.readouterr()
        rc = main(["rate", out_csv, "--column", "trace_distance"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "slope=" in out

    def test_nonpositive_column_is_config_error(self, tmp_path, capsys):
        out_csv = str(tmp_path / "sweep.csv")
        main(["sweep", qubit_scenario_file(tmp_path), "--output", out_csv])
        capsys.readouterr()
        rc = main(["rate", out_csv, "--column", "a3_1"])
        assert rc == 2
        assert "positive" in capsys.readouterr().err


class TestPlotScriptCommand:
    def test_emits_gnuplot_script(self, tmp_path, capsys):
        out_csv = str(tmp_path / "sweep.csv")
        main(["sweep", qubit_scenario_file(tmp_path), "--output", out_csv])
        capsys.readouterr()
        rc = main(["plot-script", out_csv, "--column", "trace_distance"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "set logscale xy" in out
        assert "using 1:4" in out

    def test_unknown_column_is_config_error(self, tmp_path, capsys):
        out_csv = str(tmp_path / "sweep.csv")
        main(["sweep", qubit_scenario_file(tmp_path), "--output", out_csv])
        capsys.readouterr()
        rc = main(["plot-script", out_csv, "--column", "bogus"])
        assert rc == 2


class TestCheckCommand:
    def test_small_corpus_passes(self, capsys):
        rc = main(["check", "--seed", "7", "--size", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("check seed=7 size=10")
        assert out.rstrip().endswith("result: PASS")

    def test_byte_identical_reports(self, capsys):
        rc1 = main(["check", "--seed", "11", "--size", "12"])
        first = capsys.readouterr().out
        rc2 = main(["check", "--seed", "11", "--size", "12"])
        second = capsys.readouterr().out
        assert rc1 == rc2 == 0
        assert first == second

    def test_replay_single_scenario(self, capsys):
        from zenolab.corpus import scenario_seeds

        seed = scenario_seeds(7, 10)[3]
        rc = main(["check", "--replay", str(seed)])
        out = capsys.readouterr().out
        assert rc == 0
        assert f"seed={seed}" in out

    def test_battery_failure_exits_one(self, capsys, monkeypatch):
        import zenolab.cli as cli_mod
        from zenolab.corpus import ScenarioReport, SuiteResult, build_scenario, scenario_seeds

        scenario = build_scenario(scenario_seeds(7, 1)[0])
        failing = ScenarioReport(scenario=scenario, checks_run=1, failures=(("fake_check", "lhs > rhs"),))

        def fake_suite(master_seed, size):
            return SuiteResult(master_seed=master_seed, reports=(failing,))

        monkeypatch.setattr(cli_mod, "check_suite", fake_suite)
        rc = main(["check", "--seed", "7", "--size", "1"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out and "fake_check" in out


class TestShippedScenarios:
    def test_zeno_example_runs_clean(self, capsys):
        rc = main(["run", os.path.join(SCENARIOS, "zeno_diagonal.json")])
        assert rc == 0

    def test_sampled_example_runs_clean(self, capsys):
        rc = main(["run", os.path.join(SCENARIOS, "sampled_rotation.json")])
        assert rc == 0
