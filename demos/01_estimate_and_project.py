"""Walk one experiment through the whole pipeline, by hand.

Draws a random 3-level state, measures every entrywise observable r times
on fresh copies, forms the unconstrained entrywise estimate, and projects
it onto the density matrices.  With few repetitions the unconstrained
matrix usually has a negative eigenvalue; the projection removes it by
redistributing the eigenvalue mass.
"""

import numpy as np

from qtomo import (
    MeasurementPlan,
    constrained_estimate,
    fidelity,
    hs_distance,
    random_density,
    sample_plan_counts,
    stream_rng,
    unconstrained_estimate,
)

DIM = 3
REPETITIONS = 10
SEED = 42


def main():
    rho = random_density(DIM, stream_rng(SEED, 0))
    plan = MeasurementPlan(DIM, REPETITIONS)
    print(f"true state (dim {DIM}, spectrum {np.linalg.eigvalsh(rho).round(4)}):")
    print(rho.round(4))
    print(f"\nplan: {len(plan.keys)} observables x {REPETITIONS} shots "
          f"= {plan.total_copies} copies")

    counts = sample_plan_counts(plan, rho, stream_rng(SEED, 1))
    for key in plan.keys:
        print(f"  {key}: {counts[key]}")

    phi = unconstrained_estimate(plan, counts)
    print("\nunconstrained estimate:")
    print(phi.round(4))
    print("eigenvalues:", np.linalg.eigvalsh(phi).round(4))

    sigma, sweeps = constrained_estimate(phi)
    print(f"\nconstrained estimate ({sweeps} redistribution sweep(s)):")
    print(sigma.round(4))
    print("eigenvalues:", np.linalg.eigvalsh(sigma).round(4))

    print("\nhow far from the truth:")
    print(f"  HS distance, unconstrained: {hs_distance(phi, rho):.4f}")
    print(f"  HS distance, constrained:   {hs_distance(sigma, rho):.4f}")
    print(f"  fidelity, constrained:      {fidelity(sigma, rho):.4f}")


if __name__ == "__main__":
    main()
