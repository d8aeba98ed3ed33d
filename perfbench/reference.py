"""Fixed reference computations that measure the host's current speed.

The benchmark host is shared, and its speed drifts by tens of percent over
seconds to minutes.  Timing a fixed kernel next to every workload iteration
gives the speed the iteration actually ran at, so iteration times can be
expressed in reference units that cancel the drift.  The drift slows
interpreted Python more than numpy's compiled sampling loops, so there are
three kernels and each workload uses the one, or the blend of two, closest
to its own mix:

- ``mixed``: interpreted Python with small-object churn and float
  formatting, single small eigensolves in a loop, a batched eigensolve and
  multinomial sampling;
- ``interpreted``: a loop over points doing what a closed-form grid does
  per point: a few numpy calls on 3-vectors and 3x3 matrices, one small
  eigensolve and float formatting;
- ``sampling``: multinomial and binomial draws in blocks of 4096 with an
  error-matrix accumulation, and almost no interpreted code.

None of them touches qtomo, so no change to the package can move them.
"""

from __future__ import annotations

import time

import numpy as np

_RNG_SEED = 20061024
# Kernel passes per timing, about a quarter of a second on a 2 GHz core.
_PASSES = 6


class Reference:
    """Times one run of a reference kernel; fixed inputs, fixed work.

    Given several kinds, the run alternates their passes, for a workload whose
    mix lies between them.
    """

    def __init__(self, *kinds: str):
        rng = np.random.default_rng(_RNG_SEED)
        a = rng.standard_normal((2048, 3, 3)) + 1j * rng.standard_normal((2048, 3, 3))
        self.batch = a + a.conj().transpose(0, 2, 1)
        self.small = [m.real + m.real.T for m in self.batch[:600]]
        self.probs = np.array([0.3, 0.25, 0.2, 0.05, 0.1, 0.1])
        self.axis = np.linspace(-1.0, 1.0, 11)
        table = {
            "mixed": self._mixed_pass,
            "interpreted": self._interpreted_pass,
            "sampling": self._sampling_pass,
        }
        self._passes = [table[kind] for kind in kinds]

    def run(self) -> tuple[float, float]:
        """Wall and process CPU seconds of one kernel run."""
        t0, c0 = time.perf_counter(), time.process_time()
        for i in range(_PASSES):
            self._passes[i % len(self._passes)]()
        return time.perf_counter() - t0, time.process_time() - c0

    def _mixed_pass(self):
        rows = []
        for i in range(6000):
            x = (i * 0.37, i % 11, float(i) / 7.0)
            rows.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in x))
        text = "\n".join(rows)
        smallest = 0.0
        for m in self.small:
            smallest = min(smallest, float(np.linalg.eigvalsh(m)[0]))
        w, _ = np.linalg.eigh(self.batch)
        rng = np.random.default_rng(_RNG_SEED)
        counts = rng.multinomial(100, self.probs[:3] / self.probs[:3].sum(), size=(4, 4096))
        if not (len(text) and w.shape == (2048, 3) and counts.sum() == 100 * 4 * 4096):
            raise RuntimeError("reference kernel produced an unexpected result")

    def _interpreted_pass(self):
        rows = []
        for a in self.axis:
            for b in self.axis:
                for c in self.axis:
                    t = np.array([a, b, c])
                    inside = float(np.linalg.norm(t)) <= 1.0 + 1e-12
                    diff = (2.0 * np.diag(t * t) - np.outer(t, t)) / 300.0
                    low = float(np.linalg.eigvalsh(diff)[0])
                    row = (float(a), float(b), float(c), low, int(inside), float(t @ t))
                    rows.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
        if len(rows) != 11**3:
            raise RuntimeError("reference kernel produced an unexpected result")

    def _sampling_pass(self):
        rng = np.random.default_rng(_RNG_SEED)
        acc = np.zeros((3, 3))
        for _ in range(8):
            nu = rng.multinomial(300, self.probs, size=4096) / 300.0
            err = 3.0 * (nu[:, :3] - nu[:, 3:]) - 0.1
            acc += err.T @ err
            hits = rng.binomial(100, 0.6, size=(3, 4096))
        if not (np.all(np.isfinite(acc)) and hits.shape == (3, 4096)):
            raise RuntimeError("reference kernel produced an unexpected result")
