"""Scenario-file loading and validation tests."""

import glob
import json
import math
import os
import shutil

import numpy as np
import pytest

from zenolab.curves import GeneratedCurve, SampledCurve, StaticCurve
from zenolab.cli import main
from zenolab.errors import ValidationError
from zenolab.scenario import MAX_PLAN_TIMES, MAX_SCALE, _require_steps_fit, load_scenario
from zenolab.sweep import run_sweep

SCENARIOS = os.path.join(os.path.dirname(__file__), "..", "scenarios")
DATA = os.path.join(os.path.dirname(__file__), "data")
# A shipped scenario is pinned by its golden `zenolab run` output, tests/data/run_<name>.txt.
SHIPPED = sorted(os.path.basename(p)[len("run_"):-len(".txt")] for p in glob.glob(os.path.join(DATA, "run_*.txt")))


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def minimal_zeno(tmp_path, **overrides):
    payload = {
        "dim": 2,
        "hamiltonian": "pauli_z",
        "state": {"eigenvalues": [0.7, 0.3], "basis": "standard"},
        "curve": {"static": {}},
        "tau": 1.0,
        "partitions": {"uniform": [1, 4]},
    }
    payload.update(overrides)
    return write_json(tmp_path / "scenario.json", payload)


class TestLoadScenario:
    def test_minimal_zeno_file_loads(self, tmp_path):
        scenario = load_scenario(minimal_zeno(tmp_path))
        assert scenario.dim == 2
        assert scenario.tau == 1.0
        assert isinstance(scenario.curve, StaticCurve)
        assert [p.n for p in scenario.partitions] == [1, 4]
        np.testing.assert_array_equal(scenario.weights, [0.7, 0.3])

    def test_underscore_keys_ignored(self, tmp_path):
        path = minimal_zeno(tmp_path, _comment="ignored", _note=["also", "ignored"])
        assert load_scenario(path).dim == 2

    def test_unknown_fields_are_named_together(self, tmp_path):
        path = minimal_zeno(tmp_path, ouput="x.csv", checks=["fannes"], _comment="ignored")
        with pytest.raises(ValidationError) as excinfo:
            load_scenario(path)
        assert str(excinfo.value) == "unknown field 'ouput'; unknown field 'checks'"

    def test_bad_eigenvalue_sum_names_field(self, tmp_path):
        path = minimal_zeno(tmp_path, state={"eigenvalues": [0.6, 0.3]})
        with pytest.raises(ValidationError, match="eigenvalues sum to"):
            load_scenario(path)

    @pytest.mark.parametrize("eigenvalues, message", [
        ([math.nan, 0.3], "state.eigenvalues must hold finite numbers only, got nan"),
        ([1.2, -0.2], "state.eigenvalues must be finite and nonnegative"),
        ([0.7, 0.3 + 5e-10], "state.eigenvalues sum to 1.0000000005"),
    ])
    def test_eigenvalues_are_held_to_the_run_s_weights_check(self, tmp_path, eigenvalues, message):
        # The eigenvalues are the run's weights: a scenario rejects at load what a run would.
        path = minimal_zeno(tmp_path, state={"eigenvalues": eigenvalues})
        with pytest.raises(ValidationError, match=message):
            load_scenario(path)

    def test_every_problem_reported_at_once(self, tmp_path):
        path = write_json(
            tmp_path / "broken.json",
            {
                "dim": -3,
                "hamiltonian": "pauli_z",
                "state": {"eigenvalues": [0.5, 0.4]},
                "curve": {"static": {}},
                "tau": -1.0,
                "partitions": {"uniform": [2]},
            },
        )
        with pytest.raises(ValidationError) as excinfo:
            load_scenario(path)
        message = str(excinfo.value)
        assert "dim" in message and "tau" in message and "eigenvalues" in message

    def test_missing_file_is_schema_error(self, tmp_path):
        with pytest.raises(ValidationError, match="cannot read"):
            load_scenario(str(tmp_path / "absent.json"))

    def test_invalid_json_is_schema_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ValidationError, match="not valid JSON"):
            load_scenario(str(bad))

    def test_dimension_mismatch_between_specs(self, tmp_path):
        path = minimal_zeno(tmp_path, dim=3, state={"eigenvalues": [0.5, 0.3, 0.2]})
        with pytest.raises(ValidationError, match="dimension 2"):
            load_scenario(path)

    def test_random_partition_plan(self, tmp_path):
        path = minimal_zeno(tmp_path, partitions={"random": {"n": [1, 7], "seed": 3}})
        parts = load_scenario(path).partitions
        assert [p.n for p in parts] == [1, 7]
        again = load_scenario(path).partitions
        np.testing.assert_array_equal(parts[1].times, again[1].times)

    def test_partition_cap_is_on_n_alone(self, tmp_path):
        # A run streams its frames in blocks, so d does not enter the cap:
        # a d = 64 plan with N = 20000 loads (it is not run here).
        d = 64
        path = minimal_zeno(tmp_path, dim=d, hamiltonian={"diagonal": list(np.linspace(0.0, 1.0, d))},
                            state={"eigenvalues": [1.0 / d] * d}, partitions={"uniform": [20000]})
        assert [p.n for p in load_scenario(path).partitions] == [20000]
        path = minimal_zeno(tmp_path, partitions={"uniform": [4, MAX_PLAN_TIMES]})
        with pytest.raises(ValidationError, match=f"partitions: the plan's N \\+ 1 sum to {MAX_PLAN_TIMES + 6}, above"):
            load_scenario(path)

    @pytest.mark.parametrize("plan", [{"uniform": [2**23, 2**23]}, {"random": {"n": [2**23, 2**23], "seed": 1}}],
                             ids=["uniform", "random"])
    def test_partition_cap_is_on_the_whole_plan(self, tmp_path, monkeypatch, plan):
        # load_scenario holds every partition of a plan at once, so the cap is on
        # the plan's sum of N + 1, checked before any partition is built.
        import zenolab.scenario as scenario_mod

        def refuse(*args):
            raise AssertionError("a partition was built")

        monkeypatch.setattr(scenario_mod, "uniform_partition", refuse)
        monkeypatch.setattr(scenario_mod, "random_partition", refuse)
        with pytest.raises(ValidationError, match=f"partitions: the plan's N \\+ 1 sum to {2**24 + 2}, above the cap"):
            load_scenario(minimal_zeno(tmp_path, partitions=plan))

    def test_a_single_partition_keeps_the_cap_of_n(self):
        _require_steps_fit([MAX_PLAN_TIMES - 1])
        _require_steps_fit([2**23 - 1, 2**23 - 1])
        with pytest.raises(ValidationError, match="partitions:"):
            _require_steps_fit([MAX_PLAN_TIMES])

    def test_scale_at_the_cap_loads(self, tmp_path):
        path = minimal_zeno(tmp_path, tau=MAX_SCALE, partitions={"uniform": [1]})
        assert load_scenario(path).tau == MAX_SCALE


class TestOperatorSpecs:
    def test_named_pauli_requires_dim_two(self, tmp_path):
        path = minimal_zeno(tmp_path, dim=3, hamiltonian="pauli_x",
                            state={"eigenvalues": [0.5, 0.3, 0.2]})
        with pytest.raises(ValidationError, match="requires dimension 2"):
            load_scenario(path)

    def test_diagonal_and_dense_literals(self, tmp_path):
        dense = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        path = minimal_zeno(tmp_path, hamiltonian={"dense": dense})
        h = load_scenario(path).hamiltonian
        np.testing.assert_allclose(h.matrix, np.array([[0, 1], [1, 0]]), atol=1e-14)
        # Hermitian within tolerance is accepted and stored symmetrized, the one
        # form every sweep reads.
        dense = [[[0.3, 0.0], [0.1, -0.7]], [[0.1, 0.7 + 1e-13], [-1.9, 0.0]]]
        h = load_scenario(minimal_zeno(tmp_path, hamiltonian={"dense": dense})).hamiltonian
        written = np.array([[0.3, 0.1 - 0.7j], [0.1 + (0.7 + 1e-13) * 1j, -1.9]])
        assert np.max(np.abs(written - written.conj().T)) > 0
        np.testing.assert_array_equal(h.matrix, (written + written.conj().T) / 2)
        path = minimal_zeno(tmp_path, hamiltonian={"diagonal": [0.5, 1.5]})
        np.testing.assert_allclose(load_scenario(path).hamiltonian.matrix, np.diag([0.5, 1.5]), atol=1e-14)

    def test_non_hermitian_dense_rejected_at_load(self, tmp_path):
        path = minimal_zeno(tmp_path, hamiltonian={"dense": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]})
        with pytest.raises(ValidationError, match="hamiltonian is not Hermitian"):
            load_scenario(path)

    def test_seeded_random_with_norm(self, tmp_path):
        path = minimal_zeno(tmp_path, hamiltonian={"random": {"seed": 7, "norm": 1.0}})
        h = load_scenario(path).hamiltonian
        assert np.max(np.abs(np.linalg.eigvalsh(h.matrix))) == pytest.approx(1.0, abs=1e-12)

    def test_generated_curve_spec(self, tmp_path):
        path = minimal_zeno(tmp_path, curve={"generated": {"generator": "pauli_y"}})
        assert isinstance(load_scenario(path).curve, GeneratedCurve)


class TestSampledCurveSpecs:
    def frames_payload(self, rotate=True):
        times = [0.0, 0.5, 1.0]
        frames = []
        for t in times:
            c, s = (math.cos(t), math.sin(t)) if rotate else (1.0, 0.0)
            frames.append([[[c, 0.0], [-s, 0.0]], [[s, 0.0], [c, 0.0]]])
        return {"times": times, "frames": frames}

    def test_sampled_curve_loads_with_curve_basis(self, tmp_path):
        write_json(tmp_path / "frames.json", self.frames_payload())
        path = minimal_zeno(
            tmp_path,
            curve={"sampled": {"file": "frames.json"}},
            state={"eigenvalues": [0.7, 0.3], "basis": "curve"},
            partitions={"uniform": [2]},
        )
        scenario = load_scenario(path)
        assert isinstance(scenario.curve, SampledCurve)
        np.testing.assert_array_equal(scenario.weights, [0.7, 0.3])
        np.testing.assert_array_equal(scenario.curve.base, scenario.curve.frames[0])

    def test_underscore_keys_in_curve_spec_and_frames_file_ignored(self, tmp_path):
        payload = {"_note": "frames of a rotation", **self.frames_payload()}
        write_json(tmp_path / "frames.json", payload)
        path = minimal_zeno(
            tmp_path,
            curve={"_note": "read from a file", "sampled": {"file": "frames.json", "_note": {"_deeper": 1}}},
            state={"eigenvalues": [0.7, 0.3], "basis": "curve", "_note": "the curve's first frame"},
            partitions={"uniform": [2]},
        )
        scenario = load_scenario(path)
        assert isinstance(scenario.curve, SampledCurve)
        assert scenario.curve.times.tolist() == payload["times"]
        c, s = math.cos(0.5), math.sin(0.5)
        np.testing.assert_allclose(scenario.curve.frames[1], [[c, -s], [s, c]])

    def test_non_orthonormal_frame_rejected(self, tmp_path):
        payload = self.frames_payload()
        payload["frames"][1] = [[[1.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        write_json(tmp_path / "frames.json", payload)
        path = minimal_zeno(
            tmp_path,
            curve={"sampled": {"file": "frames.json"}},
            state={"eigenvalues": [0.7, 0.3], "basis": "curve"},
            partitions={"uniform": [2]},
        )
        with pytest.raises(ValidationError, match="orthonormal"):
            load_scenario(path)

    def test_partition_off_grid_rejected(self, tmp_path):
        write_json(tmp_path / "frames.json", self.frames_payload())
        path = minimal_zeno(
            tmp_path,
            curve={"sampled": {"file": "frames.json"}},
            state={"eigenvalues": [0.7, 0.3], "basis": "curve"},
            partitions={"uniform": [3]},
        )
        with pytest.raises(ValidationError, match="grid"):
            load_scenario(path)

    def test_mismatched_state_basis_rejected(self, tmp_path):
        write_json(tmp_path / "frames.json", self.frames_payload())
        path = minimal_zeno(
            tmp_path,
            curve={"sampled": {"file": "frames.json"}},
            state={"eigenvalues": [0.7, 0.3], "basis": "standard"},
            partitions={"uniform": [2]},
        )
        # frames start at the identity here, so "standard" happens to match
        load_scenario(path)
        payload = self.frames_payload()
        payload["frames"][0] = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
        payload["times"] = [0.0, 0.5, 1.0]
        write_json(tmp_path / "frames.json", payload)
        with pytest.raises(ValidationError, match="first frame"):
            load_scenario(path)


    def sampled_scenario(self, tmp_path, **overrides):
        return minimal_zeno(tmp_path, curve={"sampled": {"file": "frames.json"}},
                            state={"eigenvalues": [0.7, 0.3], "basis": "curve"}, partitions={"uniform": [2]},
                            **overrides)

    @pytest.mark.parametrize("edit, message", [
        (lambda p: p.update(time=[0.0]), "frames.json: unknown key 'time'"),
        (lambda p: p.pop("times"), "frames.json: missing key 'times'"),
        (lambda p: p.update(times=["0", 0.5, 1.0]), "frames.json: times must hold finite numbers only, got '0'"),
        (lambda p: p.update(times=[[0.0, 0.5, 1.0]]), "frames.json: times must be numbers of shape \\(n,\\)"),
        (lambda p: p["frames"][1].pop(), "frames.json: frames must be numbers of shape \\(n, 2, 2, 2\\)"),
        (lambda p: p["frames"][1][0][0].__setitem__(0, True), "frames.json: frames must hold finite numbers only"),
    ], ids=["unknown_key", "missing_times", "string_time", "nested_times", "short_frame", "boolean_entry"])
    def test_frames_file_is_held_to_the_same_rules(self, tmp_path, edit, message):
        payload = self.frames_payload()
        edit(payload)
        write_json(tmp_path / "frames.json", payload)
        with pytest.raises(ValidationError, match=message):
            load_scenario(self.sampled_scenario(tmp_path))

    def test_a_frames_file_that_is_no_object_is_named_in_a_short_message(self, tmp_path):
        # The message quotes at most 80 characters of the value, not a whole frame stack.
        write_json(tmp_path / "frames.json", self.frames_payload()["frames"] * 100)
        with pytest.raises(ValidationError, match=r"^frames.json must be an object, got \[\[\[\[1.0, 0.0\]") as excinfo:
            load_scenario(self.sampled_scenario(tmp_path))
        assert len(str(excinfo.value)) < 150

    def test_missing_frames_file_is_a_validation_error(self, tmp_path):
        # It escaped load_scenario as a raw FileNotFoundError.
        with pytest.raises(ValidationError, match="cannot read .*frames.json"):
            load_scenario(self.sampled_scenario(tmp_path))

    @pytest.mark.parametrize("end, rc", [(1000 - 5e-10, 0), (1000 + 5e-10, 0), (1000 - 2e-9, 2), (1000 + 2e-9, 2)],
                             ids=["short_within", "long_within", "short_beyond", "long_beyond"])
    def test_grid_end_is_held_to_one_relative_time_tolerance(self, tmp_path, capsys, end, rc):
        # The scenario's tau, the curve's grid and the run's horizon share 1e-12 * max(1, tau). The
        # short grid passed the load, then stopped with "time 1000.0 outside [0, 999.9999999995]".
        identity = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        write_json(tmp_path / "frames.json", {"times": [0.0, 500.0, end], "frames": [identity] * 3})
        assert main(["run", self.sampled_scenario(tmp_path, tau=1000.0)]) == rc
        err = capsys.readouterr().err
        assert err == "" if rc == 0 else err.startswith("configuration error: sampled grid ends at ")


class TestShippedExamples:
    @pytest.mark.parametrize("name", [f"{name}.json" for name in SHIPPED])
    def test_example_scenarios_load(self, name):
        scenario = load_scenario(os.path.join(SCENARIOS, name))
        assert scenario.dim >= 2

    @pytest.mark.parametrize("name", SHIPPED)
    def test_run_output_matches_golden(self, name, tmp_path, monkeypatch, capsys):
        # Two scenarios write their CSV relative to the working directory.
        monkeypatch.chdir(tmp_path)
        assert main(["run", os.path.join(SCENARIOS, f"{name}.json")]) == 0
        with open(os.path.join(DATA, f"run_{name}.txt")) as fh:
            assert capsys.readouterr().out == fh.read()

    def test_sweep_reads_no_file_after_load(self, tmp_path):
        for name in ("sampled_rotation.json", "rotation_frames.json"):
            shutil.copy(os.path.join(SCENARIOS, name), tmp_path / name)
        scenario = load_scenario(str(tmp_path / "sampled_rotation.json"))
        (tmp_path / "rotation_frames.json").unlink()
        expected = run_sweep(load_scenario(os.path.join(SCENARIOS, "sampled_rotation.json")))
        assert run_sweep(scenario) == expected

    def test_load_and_sweep_validate_each_operator_once(self, validations):
        # unitary_approx sweeps 10 partitions of a generated curve: H is
        # validated and decomposed once at load, the generator once in its
        # curve, and no run or check validates either again.
        names, eighs = validations
        scenario = load_scenario(os.path.join(SCENARIOS, "unitary_approx.json"))
        assert len(run_sweep(scenario)) == len(scenario.partitions) == 10
        assert names.count("hamiltonian") == 1
        assert names.count("generator") == 1
        assert "matrix" not in names
        assert len(eighs) == 2
