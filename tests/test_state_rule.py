"""Every qubit entry point accepts a Bloch vector theta exactly when
``require_density(bloch_to_matrix(theta))`` does.  Just outside the unit
sphere, |theta| = 1 + delta with delta between 0 and 2 ``PSD_ATOL``, the PSD
rule accepts rho(theta); a separate slack on |theta| or on the outcome
probabilities would reject it at some entry points and not at others."""

import numpy as np
import pytest

from qtomo.cli import main
from qtomo.error_analysis import (
    compare_batch,
    empirical_mse,
    mse_minimal,
    mse_standard,
    mse_three_direction,
)
from qtomo.linalg import InvariantError
from qtomo.measurement import SCHEMES, linear_scheme, outcome_probabilities
from qtomo.simulation import ExperimentConfig, run_trajectory
from qtomo.states import bloch_to_matrix, bloch_vector, in_bloch_ball, require_density

QUBIT_SCHEMES = ("three-direction", "standard", "minimal")
# theta = (1 + delta) u: the PSD rule accepts delta = 1.5e-9 and rejects
# delta = 2.5e-9, since the smallest eigenvalue of rho(theta) is -delta / 2.
EDGE = {
    f"{name}-{delta:g}": (1.0 + delta) * u
    for delta in (1.5e-9, 2.5e-9)
    for name, u in (("e1", np.array([1.0, 0.0, 0.0])), ("diagonal", np.ones(3) / np.sqrt(3.0)))
}

LIBRARY = {
    "compare_batch": lambda t: compare_batch(t[None], 3),
    "mse_three_direction": lambda t: mse_three_direction(t, np.eye(3), 1),
    "mse_standard": lambda t: mse_standard(t, 3),
    "mse_minimal": lambda t: mse_minimal(t, 3),
    **{
        f"empirical_mse-{scheme}": lambda t, scheme=scheme: empirical_mse(scheme, t, 3, 100, seed=0)
        for scheme in QUBIT_SCHEMES
    },
    **{
        f"outcome_probabilities-{name}-{s}": lambda t, setting=setting: outcome_probabilities(
            setting(), bloch_to_matrix(t)
        )
        for name in SCHEMES
        for s, setting in enumerate(linear_scheme(name).settings)
    },
    **{
        f"run_trajectory-{scheme}": lambda t, scheme=scheme: run_trajectory(
            ExperimentConfig(
                state=bloch_to_matrix(t),
                scheme=scheme,
                schedule=(3,),
                trials=2,
                seed=0,
                metrics=("hs-unconstrained", "psd-fraction"),
            )
        )
        for scheme in SCHEMES
    },
}

CLI = {
    **{
        f"povm-check-{scheme}": ("povm-check", "--scheme", scheme)
        for scheme in ("standard", "minimal", "three-direction")
    },
    "compare": ("compare", "--copies", "300"),
    **{
        f"mse-{scheme}": ("mse", "--scheme", scheme, "--copies", "3")
        for scheme in ("comp",) + QUBIT_SCHEMES
    },
}


def density_accepts(theta) -> bool:
    try:
        require_density(bloch_to_matrix(theta))
    except InvariantError:
        return False
    return True


@pytest.mark.parametrize("point", EDGE)
def test_the_edge_points_take_both_verdicts(point):
    assert density_accepts(EDGE[point]) == point.endswith("1.5e-09")


@pytest.mark.parametrize("point", EDGE)
def test_is_bloch_state_agrees(point):
    theta = EDGE[point]
    assert bool(in_bloch_ball(bloch_vector(theta)[None])[0]) is density_accepts(theta)


@pytest.mark.parametrize("entry", LIBRARY)
@pytest.mark.parametrize("point", EDGE)
def test_library_entry_point_agrees(point, entry):
    theta = EDGE[point]
    if density_accepts(theta):
        LIBRARY[entry](theta)
    else:
        with pytest.raises(InvariantError):
            LIBRARY[entry](theta)


@pytest.mark.parametrize("entry", CLI)
@pytest.mark.parametrize("point", EDGE)
def test_cli_entry_point_agrees(capsys, point, entry):
    theta = EDGE[point]
    code = main([*CLI[entry], "--theta", ",".join(map(repr, theta.tolist()))])
    err = capsys.readouterr().err
    assert code == (0 if density_accepts(theta) else 3), err
