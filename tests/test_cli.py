import json

import numpy as np
import pytest

from qtomo.cli import main, matrix_from_json, matrix_to_json
from qtomo.simulation import ConfigError


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

    def test_psd_agrees_with_projection(self, capsys, tmp_path):
        # The smallest eigenvalue is about -1e-10: inside any PSD slack, but
        # negative, so the projection takes one sweep.
        counts = {
            "dim": 2,
            "repetitions": 1,
            "counts": {"z_1": [1, 0], "x_1_2": [0.50001, 0.49999], "y_1_2": [0.5, 0.5]},
        }
        path = tmp_path / "counts.json"
        path.write_text(json.dumps(counts))
        payload = run_json(capsys, "estimate", "--counts", str(path))
        assert payload["steps"] == 1
        assert payload["psd"] is False

    def test_malformed_counts_exit_2(self, capsys, tmp_path):
        path = tmp_path / "counts.json"
        path.write_text(json.dumps({"dim": 2, "repetitions": 1, "counts": {"z_1": [0, 1]}}))
        code, _, err = run(capsys, "estimate", "--counts", str(path))
        assert code == 2
        assert "missing" in err

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
        svg = out / "trajectory_hs-unconstrained.svg"
        assert svg.exists()
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "<polyline" in text
        assert (out / "trajectory_psd-fraction.svg").exists()

    def test_unknown_config_key_exit_2(self, capsys, sim_config):
        code, _, err = run(capsys, "simulate", "--config", sim_config(shots=5))
        assert code == 2
        assert "shots" in err

    def test_bad_scheme_exit_2(self, capsys, sim_config):
        code, _, _ = run(capsys, "simulate", "--config", sim_config(scheme="bogus"))
        assert code == 2

    def test_invalid_state_exit_3(self, capsys, sim_config):
        bad = {"matrix": matrix_to_json(np.diag([1.4, -0.4]))}
        code, _, _ = run(capsys, "simulate", "--config", sim_config(state=bad))
        assert code == 3

    def test_missing_config_exit_4(self, capsys):
        code, _, _ = run(capsys, "simulate", "--config", "/nonexistent/cfg.json")
        assert code == 4

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

    def test_divisibility_exit_2(self, capsys):
        code, _, _ = run(capsys, "mse", "--scheme", "comp", "--theta", "0,0,0", "--copies", "100")
        assert code == 2

    def test_theta_outside_ball_exit_3(self, capsys):
        code, _, _ = run(
            capsys, "mse", "--scheme", "standard", "--theta", "1.2,0,0", "--copies", "300"
        )
        assert code == 3

    def test_bad_theta_exit_2(self, capsys):
        code, _, _ = run(capsys, "mse", "--scheme", "standard", "--theta", "a,b,c", "--copies", "3")
        assert code == 2


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

    def test_grid_svg(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "compare", "--grid", "3", "--copies", "30", "--out", str(tmp_path), "--svg"
        )
        assert code == 0
        assert (tmp_path / "comparison.svg").read_text().startswith("<svg")

    def test_copies_divisibility(self, capsys):
        code, _, _ = run(capsys, "compare", "--theta", "0,0,0", "--copies", "31")
        assert code == 2


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


class TestParser:
    def test_unknown_command_exit_2(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_no_command_exit_2(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exit_2(self, capsys):
        assert main(["project", "--bogus"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
