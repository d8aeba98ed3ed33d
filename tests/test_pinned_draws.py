"""Pinned outputs of the seeded samplers.

Every value and hash below that a sampled count feeds was re-recorded when
count sampling moved to ``measurement._draw_counts``, which draws a setting
whose count simplex has at most ``_TABLE_CELLS`` cells, counting at least
three outcomes, by inverting its exact count CDF, one uniform per row,
instead of by ``rng.multinomial``.
They were recorded by running this module's inputs on that sampler and
printing every float with 17 significant digits.  Their law is checked
apart from them, against exact multinomial probabilities, in
``test_measurement.py``; these pins keep the draws, and the order in which
the streams are consumed, from changing unnoticed.  The ``standard`` and
``minimal`` error matrices were not re-recorded: at 300 copies their
six- and four-outcome settings lie above the cap, so ``rng.multinomial``
still draws them, bit for bit as when they were recorded at commit
e5d117f, the last commit whose trajectory and error-matrix samplers each
had their own read-out.

A single draw that differs moves the values by about 1e-4, so agreement to
1e-10 relative shows that every draw is unchanged.  The one looser value
is the qubit fidelity-constrained metric: it takes the square root of
determinants of rank-one projected estimates, which are zero up to
rounding, so ulp-level changes in the read-out move it by up to about
1e-9.  Every hash must match byte for byte, and the ``sample_plan_counts``
table of the README example exactly.  The pinned ``trajectory.csv`` runs
cover the demo configs at two seeds, a random ten-level config without a
constrained metric, a random four-level config whose PSD share runs from
under 1% at r = 10 to 98% (seed 7) and 100% (seed 42) at r = 10000, so
that both sides of the PSD screen decide rows, and the three-level demo
config scored with ``fidelity-constrained`` too, which pins a fidelity
line at k >= 3.

The ``comparison.csv`` hashes and the ``compare --theta`` payload were
recorded at commit 0e2daf5, the last commit that evaluated the comparison
grid one point at a time, by running the same commands in a separate
checkout of it.  The ``povm-check`` payload hashes were recorded at commit
c68a002, the last commit whose ``klevel-pairs`` check recomputed every
observable's structure gaps, in the same way.  Neither draws a count, and
both must match byte for byte.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qtomo.cli import main
from qtomo.error_analysis import empirical_mse
from qtomo.measurement import MeasurementPlan, sample_plan_counts, stream_rng
from qtomo.simulation import CHUNK_TRIALS, ExperimentConfig, RandomState, run_trajectory
from qtomo.states import bloch_to_matrix, random_density

CONFIGS = Path(__file__).resolve().parent.parent / "demos" / "configs"
RTOL = 1e-10
QUBIT_FIDELITY_ATOL = 1e-7
MSE_THETA = (0.3, 0.4, 0.5)
MSE_COPIES = 300
MSE_TRIALS = 4100
MSE_SEED = 7
MSE_CASES = {
    "standard": ("standard", None),
    "minimal": ("minimal", None),
    "three-direction": ("three-direction", None),
    "three-direction-skew": (
        "three-direction",
        [[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.6, 0.8]],
    ),
}

# Per config and metric: (means per schedule point, stderrs per schedule point)
# at trials = CHUNK_TRIALS + 4, i.e. one full chunk and one of four trials.
TRAJECTORIES = {
    "pure_state_determinant": {
        "det-mean": (
            (-0.5, -0.24920731707317073, -0.10083902439024392, -0.049778048780487812, -0.0049403170731707313, -0.00049236658536585046),
            (0.0, 0.0027617705054928323, 0.0014212920709589019, 0.00073603271043303669, 7.5560784400227119e-05, 7.9210532752488882e-06),
        ),
        "psd-fraction": (
            (0.0, 0.25170731707317073, 0.0, 0.06121951219512195, 0.0068292682926829268, 0.0017073170731707317),
            (0.0, 0.0067786734082093047, 0.0, 0.0037444496949951373, 0.0012863527652854873, 0.00064483273513533761),
        ),
    },
    "qubit_minimal_povm": {
        "hs-unconstrained": (
            (0.34566661564102347, 0.20035547551261707, 0.10960336965766324, 0.062920925447767118, 0.034444746976578886),
            (0.0022849448877728506, 0.0013508135186397431, 0.0007219937569247865, 0.00042899143632983998, 0.00023770143598889315),
        ),
        "hs-constrained": (
            (0.31034615594922432, 0.19414535858429091, 0.1095122545052038, 0.062920925447767118, 0.034444746976578886),
            (0.0020332913169934107, 0.0012355417537722741, 0.0007180767426435724, 0.00042899143632983998, 0.00023770143598889315),
        ),
        "fidelity-constrained": (
            (0.89828734213911166, 0.95770566639997723, 0.98816907564260226, 0.99645874973140558, 0.99896674488277903),
            (0.0011013844718735244, 0.000702753193447158, 0.00024420822333219078, 6.0312631335657596e-05, 1.6013690643101632e-05),
        ),
        "psd-fraction": (
            (0.70804878048780484, 0.89975609756097563, 0.99560975609756097, 1.0, 1.0),
            (0.0071014621596858082, 0.0046908594725874851, 0.0010326423614325825, 0.0, 0.0),
        ),
    },
    "qubit_three_direction": {
        "hs-unconstrained": (
            (0.33455367238430683, 0.19386018041343167, 0.10602438000108307, 0.060999409979529365, 0.033072092715303814),
            (0.0022269117830473915, 0.0012716038963817183, 0.00070194031326449352, 0.00041229075187179534, 0.0002215009583291964),
        ),
        "hs-constrained": (
            (0.32574234596328172, 0.193817823510469, 0.10602438000108307, 0.060999409979529365, 0.033072092715303814),
            (0.0020638264511244953, 0.0012700384859319872, 0.00070194031326449352, 0.00041229075187179534, 0.0002215009583291964),
        ),
        "psd-fraction": (
            (0.84756097560975607, 0.99707317073170731, 1.0, 1.0, 1.0),
            (0.0056142868376219462, 0.00084376838860837362, 0.0, 0.0, 0.0),
        ),
    },
    "three_level_error": {
        "hs-unconstrained": (
            (0.71809899093342433, 0.51078100111205094, 0.35764969627429904, 0.25390961013287333, 0.17840752204366994, 0.12670367408722982, 0.090158215920271345),
            (0.0027975295544214597, 0.0019924540498286155, 0.001456055226782486, 0.0010604278813874063, 0.00073887905589758171, 0.00053309314786501136, 0.0003719990388186528),
        ),
        "hs-constrained": (
            (0.52449449822835625, 0.42578901019059195, 0.33145541509097132, 0.24784080395781816, 0.17794131629942739, 0.12669797416455078, 0.090158215920271345),
            (0.0019477416382462532, 0.0015336159524553176, 0.0012143917157661028, 0.00097123345686410542, 0.00072831475409629743, 0.00053288062034114066, 0.0003719990388186528),
        ),
        "psd-fraction": (
            (0.051219512195121948, 0.21975609756097561, 0.5382926829268293, 0.81195121951219518, 0.97390243902439022, 0.99878048780487805, 1.0),
            (0.003443195104314613, 0.0064676528271390508, 0.0077867038518161262, 0.0061032515589092501, 0.0024901111220250213, 0.00054511626347015043, 0.0),
        ),
    },
}
MSE = {
    "standard": (
        (0.009563829268292693, -8.0756097560975585e-05, -0.00041917073170731698),
        (-8.0756097560975585e-05, 0.0091649756097561038, -0.00041948780487804872),
        (-0.00041917073170731698, -0.00041948780487804872, 0.0092717804878048888),
    ),
    "minimal": (
        (0.0097332128231581942, 0.002761423667990546, 0.0016156493050991242),
        (0.002761423667990546, 0.0092966719348986007, 0.0010953111985543757),
        (0.0016156493050991242, 0.0010953111985543757, 0.0090617565533914098),
    ),
    "three-direction": (
        (0.0091096585365853643, -3.5707317073170747e-05, -2.2439024390244151e-05),
        (-3.5707317073170747e-05, 0.0083028292682926826, 6.7317073170731958e-05),
        (-2.2439024390244151e-05, 6.7317073170731958e-05, 0.0075895609756097592),
    ),
    "three-direction-skew": (
        (0.0091096585365853643, -0.0068974878048780512, 0.0051559207317073167),
        (-0.0068974878048780512, 0.016797810975609753, -0.01250085823170732),
        (0.0051559207317073167, -0.01250085823170732, 0.018644134527439016),
    ),
}


def _config(path: Path) -> ExperimentConfig:
    obj = json.loads(path.read_text())
    spec = obj["state"]
    if "random" in spec:
        state = RandomState(spec["random"]["dim"], tuple(spec["random"]["eigenvalues"]))
    else:
        state = bloch_to_matrix(spec["bloch"])
    return ExperimentConfig(
        state=state,
        scheme=obj["scheme"],
        schedule=tuple(obj["schedule"]),
        trials=CHUNK_TRIALS + 4,
        seed=obj["seed"],
        metrics=tuple(obj["metrics"]),
        directions=obj.get("directions"),
    )


@pytest.mark.parametrize("name", sorted(TRAJECTORIES))
def test_trajectory_matches_pinned_values(name):
    record = run_trajectory(_config(CONFIGS / f"{name}.json"))
    assert set(record.means) == set(TRAJECTORIES[name])
    for metric, (means, stderrs) in TRAJECTORIES[name].items():
        if metric == "fidelity-constrained" and record.state.shape[0] == 2:
            tol = dict(rtol=0.0, atol=QUBIT_FIDELITY_ATOL)
        else:
            tol = dict(rtol=RTOL, atol=0.0)
        np.testing.assert_allclose(record.means[metric], means, **tol, err_msg=metric)
        np.testing.assert_allclose(record.stderrs[metric], stderrs, **tol, err_msg=metric)


@pytest.mark.parametrize("case", sorted(MSE))
def test_empirical_mse_matches_pinned_values(case):
    scheme, directions = MSE_CASES[case]
    got = empirical_mse(
        scheme, MSE_THETA, MSE_COPIES, MSE_TRIALS, MSE_SEED, directions=directions
    )
    np.testing.assert_allclose(got, MSE[case], rtol=RTOL, atol=0.0)


# (grid, copies) -> sha256 of comparison.csv
GRID_SHA256 = {
    (41, 300): "ff45143e79f3267a3b1fbef09d39d8946edc9e108e156b49714eb7b83a51cf73",
    (7, 30): "18c8006187a23a0d313a9dc24a92b1a4633dbb5cee854e54040e2a05fa5107d8",
    (40, 3): "7f846a71e5b8ee6addfab296edabf685fd125742b8a80c3e044d17e371647c80",
}
COMPARE_THETA = {
    "ball_average_det_orthogonal": 0.5120000000000001,
    "ball_average_mse_orthogonal": [[0.8, 0.0, 0.0], [0.0, 0.8, 0.0], [0.0, 0.0, 0.8]],
    "comp_dominates_standard": True,
    "copies": 300,
    "standard_minus_comp": [
        [0.0005999999999999998, -0.00039999999999999996, -0.0005],
        [-0.00039999999999999996, 0.0010666666666666672, -0.0006666666666666668],
        [-0.0005, -0.0006666666666666668, 0.001666666666666667],
    ],
    "standard_minus_comp_min_eig": 0.0,
    "theta": [0.3, 0.4, 0.5],
    "trace_comp": 0.025,
    "trace_comp_le_trace_min": True,
    "trace_min": 0.028333333333333332,
}


@pytest.mark.parametrize("grid, copies", sorted(GRID_SHA256))
def test_comparison_grid_bytes(grid, copies, tmp_path):
    argv = ["compare", "--grid", str(grid), "--copies", str(copies), "--out", str(tmp_path)]
    assert main(argv) == 0
    data = (tmp_path / "comparison.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GRID_SHA256[grid, copies]


def test_compare_theta_payload(capsys):
    assert main(["compare", "--theta", "0.3,0.4,0.5", "--copies", "300"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == COMPARE_THETA
    assert out == json.dumps(COMPARE_THETA, indent=2, sort_keys=True) + "\n"


# (config, seed) -> sha256 of trajectory.csv at trials = CHUNK_TRIALS + 4
TRAJECTORY_SHA256 = {
    ("pure_state_determinant", 42): "5a6f73b14a946090a7be14ed7c742f5fbe44535acd4d965ce3704a3ea63e73a6",
    ("pure_state_determinant", 7): "dbdc496356464ee291c9693900b198047e47005d6deea42720a47dbc22a74778",
    ("qubit_minimal_povm", 42): "fb27ace1592708d6fac4bf41694d708b50786aee95f8198286a1902b0429c3b0",
    ("qubit_minimal_povm", 7): "97101ebe59f34b23bb4167a43c9b4866c3c29d4cafc580491f4b12f168213b34",
    ("qubit_three_direction", 42): "227e8548af903ee299fdc70b2000ea0e531686832a31526bd81c549e7db74981",
    ("qubit_three_direction", 7): "75478e434c3138936d7877aaec0e143507059bc31beacce62a4408e675d2dcbf",
    ("three_level_error", 42): "66a81df57243caf0dc21b43be9b0a47b8f7301689a4fa16e27e2eb5b9a70cd64",
    ("three_level_error", 7): "218adc923f2dfade74816fd36647759a20aaaed7c5a4172133a42136f94b262b",
}


# A random ten-level state sampled at three sizes with no constrained metric,
# so psd-fraction is decided without projecting.
K10_CONFIG = {
    "state": {"random": {"dim": 10}},
    "scheme": "klevel-pairs",
    "schedule": [10, 100, 1000],
    "metrics": ["hs-unconstrained", "psd-fraction", "det-mean"],
}
# seed -> sha256 of trajectory.csv for K10_CONFIG at trials = CHUNK_TRIALS + 4
K10_TRAJECTORY_SHA256 = {
    42: "c5532687740f66f8d0a0907181feb6e393a94852af1cce89a1f88b5a20ffc758",
    7: "63c33aa11c4f4ac2792d5f53cd6395d0227791e5ad0e9ed07aa08b0abea81482",
}


# A random four-level state sampled until nearly every estimate is PSD.
K4_CONFIG = dict(K10_CONFIG, state={"random": {"dim": 4}}, schedule=[10, 100, 1000, 10000])
# seed -> sha256 of trajectory.csv for K4_CONFIG at trials = CHUNK_TRIALS + 4
K4_TRAJECTORY_SHA256 = {
    42: "dabc0921f347d0e3a1b2bcc76575476e8ee3ce6974a387ea77cc8f68b388e580",
    7: "a9897ea36843885e90114675fd6f2e28247c402bfa2e946d55e1c0530e6fa0f2",
}


# The three-level demo config with fidelity-constrained added to its metrics.
K3_FIDELITY_METRICS = ["hs-unconstrained", "hs-constrained", "fidelity-constrained", "psd-fraction"]
# seed -> sha256 of trajectory.csv for that config at trials = CHUNK_TRIALS + 4
K3_FIDELITY_TRAJECTORY_SHA256 = {
    42: "394d8fd6a60111dd36e1e677cc643e6d2247caf0becf7600426e3b888179081a",
    7: "de97c14b5858d0851290d65528a87e1eef240d0cae4b5909e57f4140274acb81",
}


def _simulate_csv(config_path: Path, seed: int, out: Path) -> bytes:
    argv = ["simulate", "--config", str(config_path), "--seed", str(seed)]
    argv += ["--trials", str(CHUNK_TRIALS + 4), "--out", str(out)]
    assert main(argv) == 0
    return (out / "trajectory.csv").read_bytes()


@pytest.mark.parametrize("name, seed", sorted(TRAJECTORY_SHA256))
def test_trajectory_csv_bytes(name, seed, tmp_path):
    data = _simulate_csv(CONFIGS / f"{name}.json", seed, tmp_path)
    assert hashlib.sha256(data).hexdigest() == TRAJECTORY_SHA256[name, seed]


@pytest.mark.parametrize("seed", sorted(K10_TRAJECTORY_SHA256))
def test_k10_psd_only_trajectory_csv_bytes(seed, tmp_path):
    config_path = tmp_path / "k10.json"
    config_path.write_text(json.dumps(K10_CONFIG))
    data = _simulate_csv(config_path, seed, tmp_path)
    assert hashlib.sha256(data).hexdigest() == K10_TRAJECTORY_SHA256[seed]


@pytest.mark.parametrize("seed", sorted(K4_TRAJECTORY_SHA256))
def test_k4_psd_only_trajectory_csv_bytes(seed, tmp_path):
    config_path = tmp_path / "k4.json"
    config_path.write_text(json.dumps(K4_CONFIG))
    data = _simulate_csv(config_path, seed, tmp_path)
    assert hashlib.sha256(data).hexdigest() == K4_TRAJECTORY_SHA256[seed]


@pytest.mark.parametrize("seed", sorted(K3_FIDELITY_TRAJECTORY_SHA256))
def test_k3_fidelity_trajectory_csv_bytes(seed, tmp_path):
    obj = json.loads((CONFIGS / "three_level_error.json").read_text())
    config_path = tmp_path / "k3.json"
    config_path.write_text(json.dumps(dict(obj, metrics=K3_FIDELITY_METRICS)))
    data = _simulate_csv(config_path, seed, tmp_path)
    assert hashlib.sha256(data).hexdigest() == K3_FIDELITY_TRAJECTORY_SHA256[seed]


# povm-check arguments -> sha256 of the JSON payload written with --out
POVM_CHECK_SHA256 = {
    ("--scheme", "klevel-pairs", "--dim", "4"): (
        "0529a855fd04c89eb5624ea91906d05a60d396df6af7ea61053ee8234b897974"
    ),
    ("--scheme", "minimal", "--theta", "0,0,0.5"): (
        "10cb5159b2093d2b1d3cfdb43f078ad45065cfb8004a495e599948eb1ac857e6"
    ),
    ("--scheme", "standard"): (
        "260e96e8dcfbdd1f414f15490787689a38b5d8e2ddfeb52dee0d4bc63415740e"
    ),
    ("--scheme", "three-direction", "--directions", "[[1,0,0],[0.6,0.8,0],[0,0.6,0.8]]"): (
        "f5317afc1d6dcdf3844009f6e28bf12db152a5d9c3f993d0336e2b0b7ac3d512"
    ),
}


@pytest.mark.parametrize("args", sorted(POVM_CHECK_SHA256), ids=lambda args: args[1])
def test_povm_check_payload_bytes(args, tmp_path):
    out = tmp_path / "check.json"
    assert main(["povm-check", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == POVM_CHECK_SHA256[args]


# The README example: plan key -> outcome counts
PLAN_COUNTS = {
    ("z", 1): [14, 36],
    ("z", 2): [14, 36],
    ("x", 1, 2): [19, 14, 17],
    ("x", 1, 3): [20, 6, 24],
    ("x", 2, 3): [7, 28, 15],
    ("y", 1, 2): [14, 17, 19],
    ("y", 1, 3): [14, 13, 23],
    ("y", 2, 3): [31, 6, 13],
}


def test_sample_plan_counts_table():
    rho = random_density(3, stream_rng(7, 0))
    counts = sample_plan_counts(MeasurementPlan(3, 50), rho, stream_rng(7, 1))
    assert list(counts) == list(PLAN_COUNTS)
    assert {key: row.tolist() for key, row in counts.items()} == PLAN_COUNTS
