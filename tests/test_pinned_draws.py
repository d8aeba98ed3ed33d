"""Pinned outputs of the seeded samplers.

The expected values below were recorded at commit e5d117f, the last commit
whose trajectory and error-matrix samplers each had their own read-out, by
running this module's inputs in a separate checkout of that commit and
printing every float with 17 significant digits.  A single draw that
differs moves these values by about 1e-4, so agreement to 1e-10 relative
shows that every multinomial draw, and the order in which the streams are
consumed, is unchanged.  The one looser value is the qubit
fidelity-constrained metric: it takes the square root of determinants of
rank-one projected estimates, which are zero up to rounding, so ulp-level
changes in the read-out move it by up to about 1e-9.

The ``comparison.csv`` hashes and the ``compare --theta`` payload were
recorded at commit 0e2daf5, the last commit that evaluated the comparison
grid one point at a time, by running the same commands in a separate
checkout of it.  They must match byte for byte.

The ``povm-check`` payload hashes were recorded at commit c68a002, the last
commit whose ``klevel-pairs`` check recomputed every observable's structure
gaps, by running the same commands in a separate checkout of it.  They must
match byte for byte.

The ``trajectory.csv`` hashes were recorded at commit 4b885b5, the last
commit whose simulation projected and scored its estimates with code of its
own, by running ``simulate`` on each demo config at two seeds in a separate
checkout of it, except the two ``qubit_minimal_povm`` entries.  Those were
re-recorded once the projection followed the PSD rule's 1e-9 slack: it no
longer projects estimates whose smallest eigenvalue is a rounding-level
negative, which moves their ``fidelity-constrained`` lines at n = 30 and
n = 90 by about 1e-11.  All must match byte for byte.

The ``trajectory.csv`` hashes of the random ten-level config were recorded
at commit 8de00ce, the last commit whose chunks without a constrained
metric took their eigenvalues from a full ``eigh``, by running the same
``simulate`` command in a separate checkout of it.  They must match byte
for byte.

The ``trajectory.csv`` hashes of the random four-level config were recorded
at commit 2c73573, the last commit whose chunks without a constrained
metric sent every row at k >= 4 to ``eigvalsh``, by running the same
``simulate`` command in a separate checkout of it.  Its PSD share runs from
0.7% at r = 10 to 98% (seed 7) and 100% (seed 42) at r = 10000, so both
sides of the PSD screen decide rows.  They must match byte for byte.

The ``sample_plan_counts`` table of the README example was recorded at
commit 00575e8, the last commit whose plan sampler drew each observable's
counts through the checked one-vector sampler ``sample_counts``, by running
the same call in a separate checkout of it.  It must match exactly.
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
            (-0.5, -0.24920731707317073, -0.10083902439024392, -0.049778048780487812, -0.0049110000000000004, -0.00049236658536585035),
            (0.0, 0.0027617705054928323, 0.0014212920709589017, 0.00073603271043303669, 7.5895412539974422e-05, 7.9210532752488831e-06),
        ),
        "psd-fraction": (
            (0.0, 0.25170731707317073, 0.0, 0.06121951219512195, 0.0051219512195121953, 0.0017073170731707317),
            (0.0, 0.0067786734082093047, 0.0, 0.0037444496949951373, 0.0011149712887249296, 0.00064483273513533761),
        ),
    },
    "qubit_minimal_povm": {
        "hs-unconstrained": (
            (0.34591530320414809, 0.20035547551261704, 0.10960336965766324, 0.062920925447767104, 0.034444746976578886),
            (0.0023300582917737843, 0.0013508135186397429, 0.0007219937569247864, 0.00042899143632983987, 0.00023770143598889307),
        ),
        "hs-constrained": (
            (0.30932838622713427, 0.19414535858429091, 0.10951225450520381, 0.062920925447767104, 0.034444746976578886),
            (0.0020591213407101139, 0.0012355417537722741, 0.00071807674264357218, 0.00042899143632983987, 0.00023770143598889307),
        ),
        "fidelity-constrained": (
            (0.89903195315924989, 0.95770566639658139, 0.9881690756425946, 0.99645874973140569, 0.99896674488277903),
            (0.00111412756075657, 0.00070275319356237975, 0.00024420822333006759, 6.0312631335657609e-05, 1.6013690643101635e-05),
        ),
        "psd-fraction": (
            (0.71195121951219509, 0.89975609756097563, 0.99560975609756097, 1.0, 1.0),
            (0.0070732528042141496, 0.0046908594725874851, 0.0010326423614325825, 0.0, 0.0),
        ),
    },
    "qubit_three_direction": {
        "hs-unconstrained": (
            (0.33422213596509515, 0.19383538838272343, 0.10587027016454179, 0.060999409979529351, 0.033072092715303814),
            (0.0022270329078562202, 0.0012682059735577124, 0.0007044317385834387, 0.0004122907518717954, 0.00022150095832919634),
        ),
        "hs-constrained": (
            (0.32504849623887305, 0.19376491931658243, 0.10587027016454179, 0.060999409979529351, 0.033072092715303814),
            (0.0020552864515970522, 0.0012652752747958963, 0.0007044317385834387, 0.0004122907518717954, 0.00022150095832919634),
        ),
        "psd-fraction": (
            (0.84414634146341461, 0.99707317073170731, 1.0, 1.0, 1.0),
            (0.0056653717526924567, 0.00084376838860837351, 0.0, 0.0, 0.0),
        ),
    },
    "three_level_error": {
        "hs-unconstrained": (
            (0.71466446250368831, 0.508562014282537, 0.3599235169996654, 0.25346536264030128, 0.17957186664173838, 0.12670367408722982, 0.090158215920271345),
            (0.0028536506338704424, 0.0020285757058263834, 0.0014404584178377459, 0.0010569412302703824, 0.00073139664360525843, 0.00053309314786501136, 0.0003719990388186528),
        ),
        "hs-constrained": (
            (0.52572769625130489, 0.42608420420123699, 0.33304541673873211, 0.24801674090965062, 0.17898709344769476, 0.12669797416455078, 0.090158215920271345),
            (0.0019749624570282879, 0.0015541854349850057, 0.0012232281320339422, 0.0009751842568178538, 0.00071798567147571084, 0.00053288062034114066, 0.0003719990388186528),
        ),
        "psd-fraction": (
            (0.059512195121951217, 0.22707317073170732, 0.53926829268292686, 0.82414634146341459, 0.96585365853658534, 0.99878048780487805, 1.0),
            (0.003695222638398533, 0.0065435457654524683, 0.0077855183809464896, 0.0059461917821735889, 0.0028365392338373266, 0.00054511626347015043, 0.0),
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
        (0.0088638048780487755, -1.0048780487804624e-05, 0.00018107317073170746),
        (-1.0048780487804624e-05, 0.0083476097560975602, -0.00012858536585365839),
        (0.00018107317073170746, -0.00012858536585365839, 0.0075900487804878153),
    ),
    "three-direction-skew": (
        (0.0088638048780487755, -0.006776756097560975, 0.0050446402439024395),
        (-0.006776756097560975, 0.016944335365853658, -0.012419897865853659),
        (0.0050446402439024395, -0.012419897865853659, 0.018447133765243897),
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
    ("pure_state_determinant", 42): "2eb5004d68c42d059c081692e12d37354a8414477252f12d2fc4665acb7ce31f",
    ("pure_state_determinant", 7): "56941ef4df5f66ee2a48ea5a65ea8018573339ed5e8eae9aec6ae1fa4b2d3d95",
    ("qubit_minimal_povm", 42): "c2391fdd8beed207cfee133264f421eac18c99d9bedf066e56383796a18d2894",
    ("qubit_minimal_povm", 7): "47a329b3885a9f0fc50ef8f7d3fea4b7f8dcb5c5b7d7722f027c5b1e7517c560",
    ("qubit_three_direction", 42): "c179f707aac7d3141e51828de50a9c1fc723efdfd04b4b47ae0ea824ee5731d1",
    ("qubit_three_direction", 7): "95b4a6d39c555e037b315737a852fa6d2de0482308fac0aa0217b08cd21b2b24",
    ("three_level_error", 42): "ec72a9c7cd13b29d6cab7291ccbed10322b337a9ba25c496927e60364cb82091",
    ("three_level_error", 7): "a26e0faea33fd9205c2fcdbbda5b84d6c410e7f45986ad191cf7aa863341e69c",
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
    42: "659d10e1dfc8b8970d6ff73a447327573a3c3ffc031180ad11cbcdec5e1ac671",
    7: "df613742b72225b4cb99cc524609083570552a869ff2b5ad4805ec10d9ec7155",
}


# A random four-level state sampled until nearly every estimate is PSD.
K4_CONFIG = dict(K10_CONFIG, state={"random": {"dim": 4}}, schedule=[10, 100, 1000, 10000])
# seed -> sha256 of trajectory.csv for K4_CONFIG at trials = CHUNK_TRIALS + 4
K4_TRAJECTORY_SHA256 = {
    42: "98e6604eac738572467a15ca438b94bc001976111e4b95bcc435db8effbe28a9",
    7: "3f7317fc53e8b7b3a14a214df7d203b71cd9ad1fd220cc0e7adec598e119c2f3",
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
    ("x", 1, 2): [19, 10, 21],
    ("x", 1, 3): [19, 7, 24],
    ("x", 2, 3): [10, 22, 18],
    ("y", 1, 2): [14, 23, 13],
    ("y", 1, 3): [10, 16, 24],
    ("y", 2, 3): [24, 11, 15],
}


def test_sample_plan_counts_table():
    rho = random_density(3, stream_rng(7, 0))
    counts = sample_plan_counts(MeasurementPlan(3, 50), rho, stream_rng(7, 1))
    assert list(counts) == list(PLAN_COUNTS)
    assert {key: row.tolist() for key, row in counts.items()} == PLAN_COUNTS
