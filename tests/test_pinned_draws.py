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
"""

import json
from pathlib import Path

import numpy as np
import pytest

from qtomo.error_analysis import empirical_mse
from qtomo.simulation import CHUNK_TRIALS, ExperimentConfig, RandomState, run_trajectory
from qtomo.states import bloch_to_matrix

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
