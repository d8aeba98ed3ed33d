"""Point estimation of states of k-level quantum systems.

Simulates entrywise projective measurements and qubit POVMs on a known
density matrix, forms unconstrained (possibly indefinite) and constrained
(least-squares density) estimates, and compares qubit measurement schemes
through exact and empirical mean quadratic error matrices.
"""

from .error_analysis import (
    AVERAGE_MSE_COEFF,
    average_mse_over_ball,
    compare_standard_vs_complementary,
    compare_traces_min_vs_comp,
    empirical_mse,
    mse_minimal,
    mse_standard,
    mse_three_direction,
)
from .estimators import constrained_estimate, unconstrained_estimate
from .linalg import (
    EigenDecompositionError,
    InvariantError,
    determinant,
    fidelity,
    hs_distance,
    require_trace_one,
)
from .measurement import (
    TETRAHEDRON,
    MeasurementPlan,
    Observable,
    Povm,
    diag_observable_z,
    direction_observable,
    minimal_povm,
    outcome_probabilities,
    pair_observable_x,
    pair_observable_y,
    sample_plan_counts,
    standard_povm,
    stream_rng,
)
from .simulation import (
    METRICS,
    SCHEMES,
    ConfigError,
    DecayFit,
    ExperimentConfig,
    RandomState,
    TrajectoryRecord,
    indefinite_decay_rate,
    pure_state_det_mean,
    run_trajectory,
)
from .states import (
    PAULI,
    bloch_to_matrix,
    haar_unitary,
    is_bloch_state,
    random_density,
    require_density,
)

__version__ = "0.1.0"

__all__ = [
    "AVERAGE_MSE_COEFF",
    "ConfigError",
    "DecayFit",
    "EigenDecompositionError",
    "ExperimentConfig",
    "InvariantError",
    "METRICS",
    "MeasurementPlan",
    "Observable",
    "PAULI",
    "Povm",
    "RandomState",
    "SCHEMES",
    "TETRAHEDRON",
    "TrajectoryRecord",
    "average_mse_over_ball",
    "bloch_to_matrix",
    "compare_standard_vs_complementary",
    "compare_traces_min_vs_comp",
    "constrained_estimate",
    "determinant",
    "diag_observable_z",
    "direction_observable",
    "empirical_mse",
    "fidelity",
    "haar_unitary",
    "hs_distance",
    "indefinite_decay_rate",
    "is_bloch_state",
    "minimal_povm",
    "mse_minimal",
    "mse_standard",
    "mse_three_direction",
    "outcome_probabilities",
    "pair_observable_x",
    "pair_observable_y",
    "pure_state_det_mean",
    "random_density",
    "require_density",
    "require_trace_one",
    "run_trajectory",
    "sample_plan_counts",
    "standard_povm",
    "stream_rng",
    "unconstrained_estimate",
    "__version__",
]
