import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qtomo import cli, error_analysis, measurement
from qtomo.cli import _atomic_write, _csv_chunks, main, matrix_from_json, matrix_to_json
from qtomo.error_analysis import compare_batch
from qtomo.measurement import MAX_DIM
from qtomo.simulation import ConfigError
from qtomo.states import in_bloch_ball

from test_pinned_draws import GRID_SHA256


IDENTITY_ROWS = json.dumps(np.eye(3).tolist())
# --directions values that are not a 3x3 array of numbers.
MALFORMED_DIRECTIONS = (
    '"x"',
    '{"a": 1}',
    '[["a", 0, 0], [0, 1, 0], [0, 0, 1]]',
    "[[1, 0, 0], [0, 1, 0]]",
    "[[1, 0, 0], [0, 1], [0, 0, 1]]",
    "[[NaN, 0, 0], [0, 1, 0], [0, 0, 1]]",
    '[["1", 0, 0], [0, 1, 0], [0, 0, 1]]',
    "[[true, 0, 0], [0, true, 0], [0, 0, true]]",
    "[[1e400, 0, 0], [0, 1, 0], [0, 0, 1]]",
)
# --theta values with an entry that parses as a float but is not finite.
NON_FINITE_THETA = ("nan,0,0", "0,inf,0")
# sha256 of trajectory_hs-unconstrained.svg for the sim_config defaults.
TRAJECTORY_SVG_SHA256 = "75c572a211a9a6640a6c77e1e905df081aa30fec27b9fbe9b0883e874573b06a"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture()
def sim_config(tmp_path):
    def write(**overrides):
        config = {
            "state": {"bloch": [0.3, 0.2, 0.1]},
            "scheme": "minimal",
            "schedule": [20, 40],
            "trials": 400,
            "seed": 7,
            "metrics": ["hs-unconstrained", "psd-fraction"],
        }
        config.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return str(path)

    return write


class TestMatrixCodec:
    def test_round_trip(self):
        m = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.5]])
        assert np.array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_rejects_ragged(self):
        with pytest.raises(ConfigError):
            matrix_from_json([[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]])

    def test_rejects_non_pairs(self):
        with pytest.raises(ConfigError):
            matrix_from_json([[1.0, 0.0], [0.0, 1.0]])


class TestProject:
    def test_diagonal_example(self, capsys):
        matrix = matrix_to_json(np.diag([0.5, -0.5, 1.0]))
        payload = run_json(capsys, "project", "--matrix", json.dumps(matrix))
        projected = matrix_from_json(payload["projected"])
        assert np.abs(projected - np.diag([0.25, 0.0, 0.75])).max() < 1e-12
        assert payload["steps"] == 1
        assert not payload["already_psd"]
        assert payload["hs_distance"] > 0

    def test_reads_file(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(matrix_to_json(np.eye(2) / 2)))
        payload = run_json(capsys, "project", "--matrix-file", str(path))
        assert payload["steps"] == 0
        assert payload["already_psd"]

    def test_parse_failure_exits_2(self, capsys):
        code, _, err = run(capsys, "project", "--matrix", "{not json")
        assert code == 2
        assert "error" in err

    def test_invariant_failure_exits_3(self, capsys):
        bad = matrix_to_json(np.diag([1.0, 1.0]))
        code, _, _ = run(capsys, "project", "--matrix", json.dumps(bad))
        assert code == 3

    def test_missing_file_exits_4(self, capsys):
        code, _, _ = run(capsys, "project", "--matrix-file", "/nonexistent/m.json")
        assert code == 4

    def test_requires_exactly_one_source(self, capsys):
        code, _, _ = run(capsys, "project")
        assert code == 2

    def test_reads_stdin(self, capsys, monkeypatch):
        matrix = json.dumps(matrix_to_json(np.diag([0.5, -0.5, 1.0])))
        monkeypatch.setattr("sys.stdin", io.StringIO(matrix))
        payload = run_json(capsys, "project", "--matrix-file", "-")
        assert payload["steps"] == 1


class TestEstimate:
    def test_single_shot_example(self, capsys, tmp_path):
        counts = {
            "dim": 2,
            "repetitions": 1,
            "counts": {"z_1": [0, 1], "x_1_2": [1, 0], "y_1_2": [1, 0]},
        }
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(counts))
        payload = run_json(capsys, "estimate", "--counts", str(path))
        phi = matrix_from_json(payload["unconstrained"])
        assert np.abs(phi - np.array([[0, 0.5 + 0.5j], [0.5 - 0.5j, 1.0]])).max() == 0.0
        assert payload["psd"] is False
        assert payload["steps"] == 1
        sigma = matrix_from_json(payload["constrained"])
        assert np.linalg.eigvalsh(sigma)[0] >= -1e-12

    def estimate_near_pure(self, capsys, tmp_path, x_row):
        # phi = [[1, g], [g, 0]] with g half the x gap: its smallest
        # eigenvalue is about -g^2.
        counts = {
            "dim": 2,
            "repetitions": 1,
            "counts": {"z_1": [1, 0], "x_1_2": x_row, "y_1_2": [0.5, 0.5]},
        }
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(counts))
        return run_json(capsys, "estimate", "--counts", str(path))

    def test_psd_agrees_with_projection(self, capsys, tmp_path):
        # The smallest eigenvalue is about -1e-8, past the PSD slack of 1e-9,
        # so the estimate is not PSD and the projection takes one sweep.
        payload = self.estimate_near_pure(capsys, tmp_path, [0.5001, 0.4999])
        assert payload["steps"] == 1
        assert payload["psd"] is False

    def test_psd_within_slack_is_not_projected(self, capsys, tmp_path):
        # The smallest eigenvalue is about -1e-12: negative, but inside the
        # PSD slack, so the estimate counts as PSD and is returned as is.
        payload = self.estimate_near_pure(capsys, tmp_path, [0.500001, 0.499999])
        assert payload["steps"] == 0
        assert payload["psd"] is True
        assert payload["constrained"] == payload["unconstrained"]

    def test_malformed_counts_exit_2(self, capsys, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({"dim": 2, "repetitions": 1, "counts": {"z_1": [0, 1]}}))
        code, _, err = run(capsys, "estimate", "--counts", str(path))
        assert code == 2
        assert "missing" in err

    @pytest.mark.parametrize(
        "repetitions, y_row",
        [("true", "[1, 0]"), ("1", "[1e400, 0]")],
    )
    def test_non_number_counts_exit_2(self, capsys, tmp_path, repetitions, y_row):
        path = tmp_path / "counts.json"
        path.write_text(
            f'{{"dim": 2, "repetitions": {repetitions}, '
            f'"counts": {{"z_1": [0, 1], "x_1_2": [1, 0], "y_1_2": {y_row}}}}}'
        )
        code, _, err = run(capsys, "estimate", "--counts", str(path))
        assert code == 2
        assert "must be" in err

    def test_unknown_label_exit_2(self, capsys, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(
            json.dumps(
                {
                    "dim": 2,
                    "repetitions": 1,
                    "counts": {"z_1": [0, 1], "x_1_2": [1, 0], "y_1_2": [1, 0], "w_1": [1]},
                }
            )
        )
        code, _, _ = run(capsys, "estimate", "--counts", str(path))
        assert code == 2

    @pytest.mark.parametrize("dim", [MAX_DIM + 1, 2**62])
    def test_dim_above_the_bound_exit_2(self, capsys, monkeypatch, tmp_path, dim):
        monkeypatch.setattr(measurement, "_unit_matrix", None)
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({"dim": dim, "repetitions": 1, "counts": {}}))
        code, _, err = run(capsys, "estimate", "--counts", str(path))
        assert code == 2
        assert f"dimension must be an integer from 2 to {MAX_DIM}" in err

    @pytest.mark.parametrize("label", ["z_01", "x_2_1", "z_2"])
    def test_label_outside_plan_exit_2(self, capsys, tmp_path, label):
        rows = {"z_1": [0, 1], "x_1_2": [1, 0], "y_1_2": [1, 0], label: [1, 0]}
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({"dim": 2, "repetitions": 1, "counts": rows}))
        code, _, err = run(capsys, "estimate", "--counts", str(path))
        assert code == 2
        assert repr(label) in err

    def test_accepts_povm_check_labels(self, capsys, tmp_path):
        # Expected counts at the maximally mixed state, keyed by the labels
        # povm-check prints, estimate that state exactly.
        probs = run_json(capsys, "povm-check", "--scheme", "klevel-pairs", "--dim", "3")
        counts = {label: [4 * p for p in row] for label, row in probs["probabilities"].items()}
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({"dim": 3, "repetitions": 4, "counts": counts}))
        payload = run_json(capsys, "estimate", "--counts", str(path))
        phi = matrix_from_json(payload["unconstrained"])
        assert np.abs(phi - np.eye(3) / 3).max() < 1e-12

    def test_out_file(self, capsys, tmp_path):
        counts = {
            "dim": 2,
            "repetitions": 2,
            "counts": {"z_1": [1, 1], "x_1_2": [1, 1], "y_1_2": [2, 0]},
        }
        src = tmp_path / "c.json"
        src.write_text(json.dumps(counts))
        dst = tmp_path / "result.json"
        code, out, _ = run(capsys, "estimate", "--counts", str(src), "--out", str(dst))
        assert code == 0
        assert dst.exists()
        json.loads(dst.read_text())


class TestSimulate:
    def test_writes_csv(self, capsys, sim_config, tmp_path):
        out = tmp_path / "results"
        code, stdout, _ = run(capsys, "simulate", "--config", sim_config(), "--out", str(out))
        assert code == 0
        csv_path = out / "trajectory.csv"
        assert str(csv_path) in stdout
        lines = csv_path.read_text().strip().split("\n")
        assert lines[0] == "n,metric,mean,stderr,trials,seed"
        assert len(lines) == 1 + 2 * 2
        for line in lines[1:]:
            n, metric, mean, stderr, trials, seed = line.split(",")
            assert metric in ("hs-unconstrained", "psd-fraction")
            assert int(n) in (20, 40)
            assert int(trials) == 400 and int(seed) == 7
            # 17 significant digits survive a float round trip exactly.
            assert f"{float(mean):.17g}" == mean
            assert f"{float(stderr):.17g}" == stderr

    def test_byte_identical_across_runs_and_workers(self, capsys, sim_config, tmp_path):
        cfg = sim_config()
        outs = []
        for name, workers in (("a", "1"), ("b", "1"), ("c", "3")):
            out = tmp_path / name
            code, _, _ = run(
                capsys, "simulate", "--config", cfg, "--out", str(out), "--workers", workers
            )
            assert code == 0
            outs.append((out / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, capsys, sim_config, tmp_path, workers):
        code, _, err = run(
            capsys, "simulate", "--config", sim_config(), "--out", str(tmp_path),
            "--workers", workers,
        )
        assert code == 2
        assert "workers" in err

    def test_seed_override_changes_output(self, capsys, sim_config, tmp_path):
        cfg = sim_config()
        a = tmp_path / "a"
        b = tmp_path / "b"
        run(capsys, "simulate", "--config", cfg, "--out", str(a))
        run(capsys, "simulate", "--config", cfg, "--out", str(b), "--seed", "8")
        assert (a / "trajectory.csv").read_bytes() != (b / "trajectory.csv").read_bytes()

    def test_svg_output(self, capsys, sim_config, tmp_path):
        out = tmp_path / "plots"
        code, stdout, _ = run(
            capsys, "simulate", "--config", sim_config(), "--out", str(out), "--svg"
        )
        assert code == 0
        svg = (out / "trajectory_hs-unconstrained.svg").read_bytes()
        assert hashlib.sha256(svg).hexdigest() == TRAJECTORY_SVG_SHA256
        assert (out / "trajectory_psd-fraction.svg").exists()

    def test_svg_of_one_point(self, capsys, sim_config, tmp_path):
        # One schedule entry gives one x and one y: each axis spans a unit
        # from its value, so the point sits at the chart's lower left corner.
        out = tmp_path / "plots"
        config = sim_config(schedule=[20])
        code, _, err = run(capsys, "simulate", "--config", config, "--out", str(out), "--svg")
        assert code == 0, err
        svg = (out / "trajectory_hs-unconstrained.svg").read_text()
        assert '<polyline points="70.00,390.00"' in svg
        assert 'font-size="10">20</text>' in svg and 'font-size="10">21</text>' in svg

    @pytest.mark.parametrize("svg", ["false", 1, None])
    def test_config_svg_must_be_boolean(self, capsys, sim_config, svg, tmp_path):
        out = tmp_path / "plots"
        code, _, err = run(capsys, "simulate", "--config", sim_config(svg=svg), "--out", str(out))
        assert code == 2
        assert "svg must be true or false" in err
        assert not out.exists()

    def test_unknown_config_key_exit_2(self, capsys, sim_config):
        code, _, err = run(capsys, "simulate", "--config", sim_config(shots=5))
        assert code == 2
        assert "shots" in err

    def test_bad_scheme_exit_2(self, capsys, sim_config):
        code, _, _ = run(capsys, "simulate", "--config", sim_config(scheme="bogus"))
        assert code == 2

    @pytest.mark.parametrize(
        "scheme", [[1], {"a": 1}, None, 5], ids=["array", "object", "null", "number"]
    )
    def test_scheme_of_another_type_exit_2(self, capsys, sim_config, scheme):
        code, _, err = run(capsys, "simulate", "--config", sim_config(scheme=scheme))
        assert code == 2
        assert f"unknown scheme {scheme!r}" in err

    def test_invalid_state_exit_3(self, capsys, sim_config):
        bad = {"matrix": matrix_to_json(np.diag([1.4, -0.4]))}
        code, _, _ = run(capsys, "simulate", "--config", sim_config(state=bad))
        assert code == 3

    def test_state_of_another_dim_exit_2(self, capsys, sim_config):
        # Not PSD either: the qubit scheme rejects the 3-level state when the
        # config is built, before the matrix itself is judged.
        bad = {"matrix": matrix_to_json(np.diag([1.2, -0.1, -0.1]))}
        code, _, err = run(capsys, "simulate", "--config", sim_config(state=bad))
        assert code == 2
        assert "scheme 'minimal' requires a qubit state, got dim 3" in err

    def test_missing_config_exit_4(self, capsys):
        code, _, _ = run(capsys, "simulate", "--config", "/nonexistent/cfg.json")
        assert code == 4

    @pytest.mark.parametrize(
        "overrides",
        [
            {"scheme": "three-direction", "directions": [["a", 0, 0], [0, 1, 0], [0, 0, 1]]},
            {"scheme": "three-direction", "directions": [[1, 0, 0], [0, 1, 0]]},
            {"state": {"bloch": ["a", 0, 0]}},
            {"state": {"bloch": [[0.1], [0], [0]]}},
            {"state": {"random": {"dim": 2, "eigenvalues": [0.5, {"a": 1}]}}},
            {"schedule": [float("inf")]},
            {"state": {"bloch": ["0.1", 0, 0]}},
            {"state": {"bloch": [True, 0, 0]}},
            {"state": {"bloch": [10**400, 0, 0]}},
            {"state": {"random": {"dim": 2, "eigenvalues": ["0.5", 0.5]}}},
            {"state": {"random": {"dim": 2, "eigenvalues": [True, False]}}},
            {"state": {"matrix": [[[10**400, 0], [0, 0]], [[0, 0], [0, 0]]]}},
            {"schedule": [20, 40.5]},
            {"schedule": [True, 40]},
            {"schedule": ["20", 40]},
            {"trials": True},
            {"seed": False},
            {"schedule": [10**23]},
            {"schedule": [20, 2**63]},
        ],
    )
    def test_malformed_numbers_exit_2(self, capsys, sim_config, overrides, tmp_path):
        cfg = sim_config(**overrides)
        code, _, err = run(capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "o"))
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("scheme", ["klevel-pairs", "three-direction"])
    def test_copies_beyond_int64_exit_2(self, capsys, sim_config, scheme, tmp_path):
        # 2**62 shots on each of three settings: n = 3 * 2**62 has no int64.
        out = tmp_path / "o"
        cfg = sim_config(scheme=scheme, schedule=[2**62], trials=1)
        code, _, err = run(capsys, "simulate", "--config", cfg, "--out", str(out))
        assert code == 2
        assert "exceeds 9223372036854775807 copies" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, raw",
        [
            ("state", '{"bloch": [1e400, 0, 0]}'),
            ("state", '{"matrix": [[[1e400, 0], [0, 0]], [[0, 0], [0, 0]]]}'),
            ("schedule", "[20, 1e400]"),
        ],
    )
    def test_float_overflow_exit_2(self, capsys, sim_config, key, raw, tmp_path):
        # Written as raw text: json.dumps cannot produce 1e400.
        cfg = Path(sim_config(**{key: "RAW"}))
        cfg.write_text(cfg.read_text().replace('"RAW"', raw))
        code, _, err = run(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "must be" in err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"state": {"random": {}}}, 'random state must be an object with "dim"'),
            ({"state": {"random": {"eigenvalues": [0.5, 0.5]}}}, 'with "dim"'),
            ({"state": {"random": {"dim": 1}}}, "random state dim must be an integer"),
            ({"state": {"random": {"dim": 2.0, "eigenvalues": [0.5, 0.5]}}}, "dim must be"),
            ({"state": {"random": {"dim": True}}}, "random state dim must be an integer"),
            ({"out": 5}, "out must be a path string"),
            ({"state": {"random": {"dim": MAX_DIM + 1}}}, f"from 2 to {MAX_DIM}"),
        ],
    )
    def test_config_entries_exit_2(self, capsys, sim_config, overrides, message):
        code, _, err = run(capsys, "simulate", "--config", sim_config(**overrides))
        assert code == 2
        assert message in err

    def test_random_state_config(self, capsys, sim_config, tmp_path):
        cfg = sim_config(
            state={"random": {"dim": 3, "eigenvalues": [0.1186, 0.2871, 0.5943]}},
            scheme="klevel-pairs",
            schedule=[5, 10],
            metrics=["psd-fraction", "hs-constrained"],
        )
        out = tmp_path / "rand"
        code, _, _ = run(capsys, "simulate", "--config", cfg, "--out", str(out))
        assert code == 0
        assert (out / "trajectory.csv").exists()


class TestMse:
    def test_complementary_at_origin(self, capsys):
        payload = run_json(
            capsys, "mse", "--scheme", "comp", "--theta", "0,0,0", "--copies", "300"
        )
        assert np.abs(np.array(payload["mse"]) - 0.01 * np.eye(3)).max() < 1e-15
        assert payload["trace"] == pytest.approx(0.03, abs=1e-15)

    def test_standard_and_minimal(self, capsys):
        std = run_json(
            capsys, "mse", "--scheme", "standard", "--theta", "0.3,0.4,0.5", "--copies", "300"
        )
        mini = run_json(
            capsys, "mse", "--scheme", "minimal", "--theta", "0.3,0.4,0.5", "--copies", "300"
        )
        assert std["trace"] == pytest.approx(mini["trace"], abs=1e-15)
        assert np.array(std["mse"])[0, 1] != np.array(mini["mse"])[0, 1]

    def test_three_direction_with_directions(self, capsys):
        dirs = json.dumps(np.eye(3).tolist())
        payload = run_json(
            capsys,
            "mse",
            "--scheme",
            "three-direction",
            "--theta",
            "0.6,0,0",
            "--copies",
            "300",
            "--directions",
            dirs,
        )
        assert payload["mse"][0][0] == pytest.approx((1 - 0.36) / 100, abs=1e-15)

    @pytest.mark.parametrize("scheme", ["comp", "standard", "minimal"])
    def test_directions_only_for_three_direction(self, capsys, scheme):
        code, _, err = run(
            capsys, "mse", "--scheme", scheme, "--theta", "0.3,0.4,0.5", "--copies", "300",
            "--directions", IDENTITY_ROWS,
        )
        assert code == 2
        assert "three-direction" in err

    @pytest.mark.parametrize("directions", MALFORMED_DIRECTIONS)
    def test_malformed_directions_exit_2(self, capsys, directions):
        code, _, err = run(
            capsys, "mse", "--scheme", "three-direction", "--theta", "0,0,0", "--copies", "300",
            "--directions", directions,
        )
        assert code == 2
        assert "--directions" in err

    def test_divisibility_exit_2(self, capsys):
        code, _, _ = run(capsys, "mse", "--scheme", "comp", "--theta", "0,0,0", "--copies", "100")
        assert code == 2

    @pytest.mark.parametrize("scheme", ["comp", "three-direction", "standard"])
    @pytest.mark.parametrize("copies", ["0", "-3", "-1", "-2"])
    def test_copies_below_one_exit_3(self, capsys, scheme, copies):
        # Judged before divisibility by 3, so -1 and -2 read like 0 and -3.
        code, _, err = run(
            capsys, "mse", "--scheme", scheme, "--theta", "0,0,0", "--copies", copies
        )
        assert code == 3
        assert "the number of copies must be at least 1" in err
        assert "repetitions" not in err

    def test_theta_outside_ball_exit_3(self, capsys):
        code, _, _ = run(
            capsys, "mse", "--scheme", "standard", "--theta", "1.2,0,0", "--copies", "300"
        )
        assert code == 3

    def test_bad_theta_exit_2(self, capsys):
        code, _, _ = run(capsys, "mse", "--scheme", "standard", "--theta", "a,b,c", "--copies", "3")
        assert code == 2

    @pytest.mark.parametrize("theta", NON_FINITE_THETA)
    def test_non_finite_theta_exit_2(self, capsys, theta):
        code, _, err = run(
            capsys, "mse", "--scheme", "standard", "--theta", theta, "--copies", "300"
        )
        assert code == 2
        assert "finite" in err


class TestCompare:
    def test_single_theta_json(self, capsys):
        payload = run_json(capsys, "compare", "--theta", "0,0,0.5", "--copies", "300")
        assert payload["comp_dominates_standard"] is True
        assert payload["trace_comp_le_trace_min"] is True
        assert payload["trace_comp"] < payload["trace_min"]
        diff = np.array(payload["standard_minus_comp"])
        assert diff.shape == (3, 3)
        assert payload["standard_minus_comp_min_eig"] >= -1e-15
        assert payload["ball_average_det_orthogonal"] == pytest.approx(0.512, abs=1e-12)

    def test_grid_csv(self, capsys, tmp_path):
        code, stdout, _ = run(
            capsys, "compare", "--grid", "3", "--copies", "30", "--out", str(tmp_path)
        )
        assert code == 0
        lines = (tmp_path / "comparison.csv").read_text().strip().split("\n")
        # 3^3 cube points, 7 of which lie in the closed unit ball.
        assert len(lines) == 1 + 7
        header = lines[0].split(",")
        assert header[:3] == ["theta1", "theta2", "theta3"]
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[4] == "1"
            assert fields[7] == "1"

    def test_copies_divisibility(self, capsys):
        code, _, _ = run(capsys, "compare", "--theta", "0,0,0", "--copies", "31")
        assert code == 2

    @pytest.mark.parametrize("copies", ["0", "-3", "-1", "-2"])
    def test_theta_copies_below_one_exit_3(self, capsys, copies):
        code, stdout, err = run(capsys, "compare", "--theta", "0.1,0.2,0.3", "--copies", copies)
        assert code == 3
        assert "the number of copies must be at least 1" in err
        assert stdout == ""

    @pytest.mark.parametrize("copies", ["0", "-3", "-1", "-2"])
    @pytest.mark.parametrize("grid", ["2", "5"])
    def test_grid_copies_below_one_exit_3(self, capsys, tmp_path, copies, grid):
        # Checked before anything is written, also when no grid point lies
        # in the ball (grid 2), and before divisibility by 3.
        out = tmp_path / "never"
        code, _, err = run(
            capsys, "compare", "--grid", grid, "--copies", copies, "--out", str(out)
        )
        assert code == 3
        assert "at least 1" in err
        assert not out.exists()

    def test_grid_above_the_bound_exit_2(self, capsys, tmp_path):
        # Rejected before the axis, the output directory or any plane exists.
        out = tmp_path / "never"
        code, _, err = run(
            capsys, "compare", "--grid", str(10**6), "--copies", "300", "--out", str(out)
        )
        assert code == 2
        assert "from 2 to 401" in err
        assert not out.exists()

    def test_grid_bound_is_inclusive(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_MAX_GRID", 3)
        code, _, _ = run(capsys, "compare", "--grid", "3", "--copies", "3", "--out", str(tmp_path))
        assert code == 0
        code, _, _ = run(capsys, "compare", "--grid", "4", "--copies", "3", "--out", str(tmp_path))
        assert code == 2

    def test_grid_without_ball_points(self, capsys, tmp_path):
        code, _, _ = run(capsys, "compare", "--grid", "2", "--copies", "3", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "comparison.csv").read_text().count("\n") == 1

    def test_grid_memory_does_not_grow_with_the_cube(self, capsys, tmp_path):
        # Rows are scored and written a slab of t1 planes at a time: four
        # planes at grid 41, and one plane from grid 65 up. Scoring and
        # writing all 33,401 rows of grid 41 as one table peaks at about
        # 16 MiB.
        for grid in ("41", "65"):
            tracemalloc.start()
            try:
                code, _, _ = run(
                    capsys, "compare", "--grid", grid, "--copies", "300", "--out", str(tmp_path)
                )
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak < 2 * 2**20, grid

    @pytest.mark.parametrize("theta", NON_FINITE_THETA)
    def test_non_finite_theta_exit_2(self, capsys, theta):
        code, _, err = run(capsys, "compare", "--theta", theta, "--copies", "300")
        assert code == 2
        assert "finite" in err

    @pytest.mark.parametrize("copies", ["30", "0"])
    @pytest.mark.parametrize("grid", ["5", "9"])
    def test_theta_with_grid_exit_2(self, capsys, tmp_path, grid, copies):
        # An explicit --grid is rejected even at its default value, and
        # before the copy count is judged.
        out = tmp_path / "never.json"
        code, stdout, err = run(
            capsys, "compare", "--theta", "0.1,0.2,0.3", "--copies", copies, "--out", str(out),
            "--grid", grid,
        )
        assert code == 2
        assert "--theta does not take --grid" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("theta", [(), ("--theta", "0.1,0.2,0.3")], ids=["grid", "theta"])
    def test_svg_is_not_an_option(self, capsys, tmp_path, theta):
        out = tmp_path / "never"
        code, stdout, err = run(
            capsys, "compare", *theta, "--copies", "300", "--out", str(out), "--svg"
        )
        assert code == 2
        assert "unrecognized arguments: --svg" in err
        assert stdout == ""
        assert not out.exists()

    def test_grid_defaults_to_nine(self, capsys, tmp_path):
        code, _, _ = run(capsys, "compare", "--copies", "30", "--out", str(tmp_path / "a"))
        assert code == 0
        code, _, _ = run(
            capsys, "compare", "--grid", "9", "--copies", "30", "--out", str(tmp_path / "b")
        )
        assert code == 0
        default = (tmp_path / "a" / "comparison.csv").read_bytes()
        assert default == (tmp_path / "b" / "comparison.csv").read_bytes()

    @pytest.mark.parametrize("grid, copies", [(7, 30), (41, 300)])
    @pytest.mark.parametrize("planes", [0, 3, None], ids=["floor", "ragged", "whole-cube"])
    def test_slab_size_keeps_the_bytes(self, capsys, tmp_path, monkeypatch, grid, copies, planes):
        # A budget below one plane, three planes (both grids end on a
        # ragged slab), and the whole cube in one slab.
        points = grid**3 if planes is None else planes * grid**2
        monkeypatch.setattr(cli, "_SLAB_POINTS", points)
        slabs = []
        scalars = cli._comparison_scalars

        def counted(thetas, n):
            slabs.append(len(thetas))
            return scalars(thetas, n)

        monkeypatch.setattr(cli, "_comparison_scalars", counted)
        argv = ["--grid", str(grid), "--copies", str(copies), "--out", str(tmp_path)]
        code, _, _ = run(capsys, "compare", *argv)
        assert code == 0
        assert len(slabs) == {0: grid, 3: -(-grid // 3), None: 1}[planes]
        csv = (tmp_path / "comparison.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == GRID_SHA256[grid, copies]

    @pytest.mark.parametrize("grid, copies", [(2, 3), (7, 30), (40, 3), (41, 300)])
    def test_grid_tables_are_compare_batch_bit_for_bit(self, grid, copies):
        # Floats by their bits, the 0/1 columns against the flags' astype(int).
        axis = np.linspace(-1.0, 1.0, grid)
        tables = list(cli._grid_rows(axis, copies))
        for table in tables:
            thetas = np.stack(table[:3], axis=1)
            c = compare_batch(thetas, copies)
            flags = c.dominated.astype(int), c.trace_ok.astype(int)
            expected = (*thetas.T, c.min_eig, flags[0], c.trace_comp, c.trace_min, flags[1])
            assert len(table) == len(expected)
            for got, want in zip(table, expected):
                assert got.dtype == want.dtype
                if want.dtype == np.float64:
                    assert np.array_equal(got.view(np.int64), want.view(np.int64))
                else:
                    assert np.array_equal(got, want)
        cube = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        written = np.concatenate([np.stack(t[:3], axis=1) for t in tables] or [np.empty((0, 3))])
        assert np.array_equal(written, cube[in_bloch_ball(cube)])

    def test_grid_builds_no_error_matrix(self, capsys, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("the grid built a 3x3 error-matrix stack")

        monkeypatch.setattr(error_analysis, "_standard_rows", refuse)
        monkeypatch.setattr(error_analysis, "_complementary_rows", refuse)
        code, _, err = run(
            capsys, "compare", "--grid", "7", "--copies", "30", "--out", str(tmp_path)
        )
        assert code == 0, err
        csv = (tmp_path / "comparison.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == GRID_SHA256[7, 30]

    def test_largest_grid_keeps_one_plane_per_table(self):
        # A t1 plane of grid 401 holds 160,801 cube points, more than the
        # budget, so each table is one plane; only the first few, small
        # ones near t1 = -1 are computed.
        axis = np.linspace(-1.0, 1.0, cli._MAX_GRID)
        tables = cli._grid_rows(axis, 300)
        for t1 in axis[:3]:
            table = next(tables)
            assert np.array_equal(np.unique(table[0]), [t1])


def _pooled_columns(pool_size):
    # Columns drawn from a small pool, so values repeat, with the
    # special floats mixed in: signed zeros, infinities, NaN and subnormals.
    pool = st.lists(
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
        | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1.5e-310]),
        min_size=1,
        max_size=pool_size,
    )
    return pool.flatmap(lambda p: st.lists(st.sampled_from(p), max_size=60)).map(np.array)


# Column values drawn from a small pool per column, so values repeat.
_COLUMN_POOLS = {
    np.float64: st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324]),
    np.float32: st.floats(width=32),
    np.int64: st.integers(-(2**63), 2**63 - 1),
    np.int8: st.integers(-128, 127),
    np.uint64: st.integers(0, 2**64 - 1),
    bool: st.booleans(),
    str: st.text(max_size=4) | st.sampled_from(["%", "%s", "%%", "%(a)s", ","]),
}


@st.composite
def _mixed_tables(draw):
    """A header and 1-3 tables whose columns share one dtype per position."""
    dtypes = draw(st.lists(st.sampled_from(list(_COLUMN_POOLS)), min_size=1, max_size=6))
    tables = []
    for _ in range(draw(st.integers(1, 3))):
        n = draw(st.integers(0, 30))
        table = []
        for dtype in dtypes:
            pool = draw(st.lists(_COLUMN_POOLS[dtype], min_size=1, max_size=4))
            values = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
            table.append(np.array(values, dtype=object if dtype is str else dtype))
        tables.append(table)
    return [f"c{j}" for j in range(len(dtypes))], tables


def _row_by_row_csv(header, tables):
    """The CSV text built one row at a time: f"{v:.17g}" for float64, str
    for everything else."""
    lines = [",".join(header)]
    for table in tables:
        texts = [
            [f"{v:.17g}" if col.dtype == np.float64 else str(v) for v in col.tolist()]
            for col in map(np.asarray, table)
        ]
        lines += [",".join(row) for row in zip(*texts)]
    return "\n".join(lines) + "\n"


class TestCsvChunks:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_mixed_tables())
    def test_mixed_tables_match_row_by_row_text(self, case):
        header, tables = case
        assert "".join(_csv_chunks(header, tables)) == _row_by_row_csv(header, tables)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_pooled_columns(8), st.lists(st.integers(0, 60), max_size=6))
    def test_cutting_rows_into_tables_keeps_the_bytes(self, col, cuts):
        # What lets compare --grid hand the writer slabs of any size.
        col = col.astype(float)
        table = (col, np.signbit(col), col[::-1].copy(), np.arange(len(col)) % 3)
        bounds = [0, *sorted(min(c, len(col)) for c in cuts), len(col)]
        pieces = [[c[a:b] for c in table] for a, b in zip(bounds, bounds[1:])]
        header = ("a", "b", "c", "d")
        assert "".join(_csv_chunks(header, pieces)) == "".join(_csv_chunks(header, [table]))

    def test_percent_signs_are_text(self):
        # Values are never read as format directives.
        tables = [(("%", "%s", "%%", "%(a)s"), np.array([1.0, 1.0, 0.5, 1.0]), np.array([3] * 4))]
        assert "".join(_csv_chunks(("s", "f", "i"), tables)) == (
            "s,f,i\n%,1,3\n%s,1,3\n%%,0.5,3\n%(a)s,1,3\n"
        )

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(_pooled_columns(8), st.booleans())
    def test_float_column_text(self, col, as_tuple):
        col = col.astype(float)
        column = tuple(col.tolist()) if as_tuple else col
        text = "".join(_csv_chunks(("x",), [(column,)]))
        assert text == "x\n" + "".join(f"{v:.17g}\n" for v in col.tolist())

    def test_signed_zeros_and_nan_payloads_keep_their_text(self):
        col = np.array([0.0, -0.0, 0.0, math.nan, -math.nan, 1e-320, 1e-320])
        text = "".join(_csv_chunks(("x",), [(col,)]))
        assert text == "x\n0\n-0\n0\nnan\nnan\n9.9998886718268301e-321\n9.9998886718268301e-321\n"

    def test_tables_of_mixed_columns(self):
        tables = [
            (np.array([1, 0]), ("a", "b"), np.array([0.1, 0.1]), (2**64, 3)),
            (np.array([7]), ("c",), np.array([-1.5]), (5,)),
            (np.array([], dtype=int), (), np.array([]), ()),
        ]
        assert list(_csv_chunks(("i", "s", "f", "big"), tables)) == [
            "i,s,f,big\n",
            "1,a,0.10000000000000001,18446744073709551616\n0,b,0.10000000000000001,3\n",
            "7,c,-1.5,5\n",
            "",
        ]


class TestAtomicWrite:
    def test_writes_chunks_in_order(self, tmp_path):
        path = tmp_path / "sub" / "out.txt"
        _atomic_write(path, (part for part in ["a,", "b\n", "c\n"]))
        assert path.read_text() == "a,b\nc\n"
        assert list(path.parent.iterdir()) == [path]

    def test_failing_chunk_leaves_nothing(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")

        def chunks():
            yield "new\n"
            raise RuntimeError("stop")

        with pytest.raises(RuntimeError):
            _atomic_write(path, chunks())
        assert path.read_text() == "old\n"
        assert list(tmp_path.iterdir()) == [path]


class TestPovmCheck:
    def test_minimal(self, capsys):
        payload = run_json(capsys, "povm-check", "--scheme", "minimal")
        assert payload["outcomes"] == 4
        checks = payload["checks"]
        assert checks["hermitian"] and checks["psd"] and checks["sums_to_identity"]
        assert np.abs(np.array(payload["probabilities"]) - 0.25).max() < 1e-12

    def test_standard_with_theta(self, capsys):
        payload = run_json(capsys, "povm-check", "--scheme", "standard", "--theta", "0.6,0,0")
        probs = np.array(payload["probabilities"])
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert probs[0] == pytest.approx((1 + 0.6) / 6, abs=1e-12)

    def test_klevel_pairs_dim3(self, capsys):
        payload = run_json(capsys, "povm-check", "--scheme", "klevel-pairs", "--dim", "3")
        assert payload["observables"] == 8
        assert all(payload["checks"].values())
        assert payload["probabilities"]["z_1"] == pytest.approx([1 / 3, 2 / 3], abs=1e-12)

    def test_three_direction(self, capsys):
        payload = run_json(capsys, "povm-check", "--scheme", "three-direction")
        assert payload["probabilities"]["direction_1"] == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_invalid_state_exit_3(self, capsys):
        code, _, _ = run(capsys, "povm-check", "--scheme", "minimal", "--theta", "1.5,0,0")
        assert code == 3

    def test_three_direction_skew_rows(self, capsys):
        rows = [[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.6, 0.8]]
        payload = run_json(
            capsys, "povm-check", "--scheme", "three-direction", "--theta", "0.3,0.4,0.5",
            "--directions", json.dumps(rows),
        )
        assert payload["checks"] == {"unit_rows": True, "invertible": True}
        theta = np.array([0.3, 0.4, 0.5])
        for a, u in enumerate(rows):
            plus = (1 + np.dot(u, theta)) / 2
            got = payload["probabilities"][f"direction_{a + 1}"]
            assert got == pytest.approx([plus, 1 - plus], abs=1e-12)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 0, 0], [1, 0, 0], [0, 0, 1]],
            [[2, 0, 0], [0, 1, 0], [0, 0, 1]],
        ],
        ids=["singular", "non-unit"],
    )
    def test_invalid_direction_rows_exit_3(self, capsys, rows):
        code, _, _ = run(
            capsys, "povm-check", "--scheme", "three-direction", "--directions", json.dumps(rows)
        )
        assert code == 3

    @pytest.mark.parametrize("scheme", ["standard", "minimal", "klevel-pairs"])
    def test_directions_only_for_three_direction(self, capsys, scheme):
        code, _, err = run(capsys, "povm-check", "--scheme", scheme, "--directions", IDENTITY_ROWS)
        assert code == 2
        assert "three-direction" in err

    @pytest.mark.parametrize("directions", MALFORMED_DIRECTIONS)
    def test_malformed_directions_exit_2(self, capsys, directions):
        code, _, err = run(
            capsys, "povm-check", "--scheme", "three-direction", "--directions", directions
        )
        assert code == 2
        assert "--directions" in err

    @pytest.mark.parametrize("theta", NON_FINITE_THETA)
    def test_non_finite_theta_exit_2(self, capsys, theta):
        code, _, err = run(capsys, "povm-check", "--scheme", "standard", "--theta", theta)
        assert code == 2
        assert "finite" in err

    def test_klevel_pairs_defaults_to_dim_2(self, capsys):
        payload = run_json(capsys, "povm-check", "--scheme", "klevel-pairs")
        assert payload["dim"] == 2
        assert payload["observables"] == 3

    @pytest.mark.parametrize(
        "scheme, dim", [("minimal", "5"), ("standard", "1"), ("three-direction", "2")]
    )
    def test_dim_only_for_klevel_pairs(self, capsys, scheme, dim):
        code, out, err = run(capsys, "povm-check", "--scheme", scheme, "--dim", dim)
        assert code == 2
        assert out == ""
        assert "--dim only applies to scheme klevel-pairs" in err

    @pytest.mark.parametrize("dim", ["-1", "0", "1"])
    def test_dim_below_two_exit_2(self, capsys, dim):
        code, _, _ = run(capsys, "povm-check", "--scheme", "klevel-pairs", "--dim", dim)
        assert code == 2

    @pytest.mark.parametrize("dim", [MAX_DIM + 1, 2**62])
    def test_dim_above_the_bound_exit_2(self, capsys, monkeypatch, dim):
        # Neither the default state nor an observable is built.
        monkeypatch.setattr(measurement, "_unit_matrix", None)
        monkeypatch.setattr(np, "eye", None)
        code, out, err = run(capsys, "povm-check", "--scheme", "klevel-pairs", "--dim", str(dim))
        assert (code, out) == (2, "")
        assert f"--dim: dimension must be an integer from 2 to {MAX_DIM}" in err

    def test_matrix_of_another_dim_exit_2(self, capsys):
        matrix = json.dumps(matrix_to_json(np.eye(2) / 2))
        code, _, err = run(
            capsys, "povm-check", "--scheme", "klevel-pairs", "--dim", "3", "--matrix", matrix
        )
        assert code == 2
        assert "--dim 3 does not match" in err

    @pytest.mark.parametrize("scheme", ["minimal", "standard", "three-direction"])
    def test_qubit_scheme_with_matrix_of_another_dim_exit_2(self, capsys, scheme):
        matrix = json.dumps(matrix_to_json(np.eye(3) / 3))
        code, _, err = run(capsys, "povm-check", "--scheme", scheme, "--matrix", matrix)
        assert code == 2
        assert f"scheme {scheme!r} does not match the 3-level state" in err


class TestParser:
    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_command_exit_2(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exit_2(self, capsys):
        assert main(["project", "--bogus"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0

    @pytest.mark.parametrize(
        "argv, code", [(["povm-check", "--scheme", "minimal"], 0), (["frobnicate"], 2)]
    )
    def test_python_m_qtomo(self, argv, code):
        # Runs __main__.py, whose entrypoint exits with main's code.
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "qtomo", *argv],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == code, result.stderr
        if code == 0:
            assert json.loads(result.stdout)["outcomes"] == 4
