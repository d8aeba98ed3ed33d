"""Three ways to measure a qubit, compared at an equal copy budget.

The complementary scheme measures sigma_1, sigma_2, sigma_3 on n/3 copies
each; the six-outcome axis POVM and the four-outcome tetrahedral POVM
measure all n copies with a single fixed device.  All three estimators are
unbiased; the mean quadratic error matrices tell the rest of the story.
"""

import numpy as np

from qtomo import (
    average_mse_over_ball,
    compare_batch,
    empirical_mse,
    mse_minimal,
    mse_standard,
    mse_three_direction,
)

THETA = np.array([0.3, 0.4, 0.5])
COPIES = 300
TRIALS = 50_000
SEED = 42


def show(name, matrix):
    print(f"{name}: trace {np.trace(matrix):.6f}")
    print(np.array2string(matrix, precision=6, suppress_small=True))


def main():
    print(f"theta = {THETA}, n = {COPIES} copies\n")
    comp = mse_three_direction(THETA, np.eye(3), COPIES // 3)
    show("complementary (axes, n/3 each)", comp)
    show("\nstandard six-outcome POVM", mse_standard(THETA, COPIES))
    show("\nminimal tetrahedral POVM", mse_minimal(THETA, COPIES))

    sampled = empirical_mse("minimal", THETA, COPIES, TRIALS, seed=SEED)
    gap = np.abs(sampled - mse_minimal(THETA, COPIES)).max()
    print(f"\nminimal scheme, {TRIALS} simulated experiments: "
          f"largest entry gap to the formula {gap:.2e}")

    c = compare_batch([THETA], COPIES)
    print(f"\nV_standard - V_comp is PSD: {bool(c.dominated[0])} "
          f"(eigenvalues {np.linalg.eigvalsh(c.diff[0]).round(8)})")
    print("so splitting the budget over the three axes beats the axis POVM")
    print("at every theta, in the matrix order.")

    print(f"\ntotal error: Tr V_comp = {c.trace_comp[0]:.6f} <= "
          f"Tr V_min = {c.trace_min[0]:.6f} ({bool(c.trace_ok[0])})")
    gap_matrix = mse_minimal(THETA, COPIES) - comp
    eigs = np.linalg.eigvalsh(gap_matrix)
    print(f"but V_min - V_comp has eigenvalues of both signs: {eigs.round(6)}")
    print("so the tetrahedral POVM is not dominated entrywise.")

    _, det_orth = average_mse_over_ball(np.eye(3))
    tilted = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.6, 0.8]])
    _, det_tilted = average_mse_over_ball(tilted)
    print(f"\nball-averaged MSE determinant: orthogonal axes {det_orth:.4f}, "
          f"tilted triple {det_tilted:.4f}")
    print("orthogonal direction triples minimize the averaged error volume.")


if __name__ == "__main__":
    main()
