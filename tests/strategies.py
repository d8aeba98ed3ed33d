"""Hypothesis strategies shared by the test modules: Hermitian stacks whose
rows sit near the PSD screen's edges."""

import numpy as np
from hypothesis import strategies as st

from qtomo.linalg import PSD_ATOL, SCREEN_MARGIN
from qtomo.measurement import MAX_DIM
from qtomo.states import haar_unitary

PSD_ROWS_K = [1, 2, 3, 4, 5, 10, MAX_DIM]
# Where a row's smallest eigenvalue is drawn: both edges of the screen's
# band and the PSD rule's own edge.
EDGES = [SCREEN_MARGIN, -SCREEN_MARGIN, -PSD_ATOL]


def rotated_rows(spectra, seed):
    """Each row of an (m, k) spectrum array as a Haar-rotated Hermitian."""
    rng = np.random.default_rng(seed)
    out = np.empty(spectra.shape + spectra.shape[1:], dtype=complex)
    for row, spectrum in enumerate(spectra):
        u = haar_unitary(len(spectrum), rng) if len(spectrum) > 1 else np.ones((1, 1))
        out[row] = (u * spectrum) @ u.conj().T
    return out


@st.composite
def edge_stacks(draw):
    """A stack of 1 to 8 Haar-rotated rows of one k, each with its smallest
    eigenvalue within a factor of 2 of a drawn edge, within 1e-15 of
    -PSD_ATOL, 0, or -x with x from 1e-10 to 1e6; its other eigenvalues share
    1 - lambda_min, so every row has trace one unless k = 1."""
    k = draw(st.sampled_from(PSD_ROWS_K))
    m = draw(st.integers(1, 8))
    spectra = np.empty((m, k))
    for row in range(m):
        kind = draw(st.sampled_from(["edge", "slack", "zero", "large"]))
        if kind == "edge":
            low = draw(st.sampled_from(EDGES)) * draw(st.floats(0.5, 2.0))
        elif kind == "slack":
            low = -PSD_ATOL + draw(st.floats(-1e-15, 1e-15))
        elif kind == "zero":
            low = 0.0
        else:
            low = -(10.0 ** draw(st.floats(-10.0, 6.0)))
        weights = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k - 1, max_size=k - 1)))
        spectra[row] = np.r_[low, (1.0 - low) * weights / weights.sum()]
    return rotated_rows(spectra, draw(st.integers(0, 2**32 - 1))), spectra.min(axis=1)
