"""Fixed reference computations that measure how fast the host runs now.

On a shared host the same code runs 25-50% slower for seconds to
minutes at a time.  ``run.py`` runs the reference after each timed CLI
call, for a fixed share of the call's time, so its samples see the same
host states as the calls, and divides each batch's times by the mean
reference time measured during that batch: a host that is slow for the
whole batch slows both, and the ratio stays.

The computations are numpy only, never the program, so no change to
``defectseq`` can move them.  There are three kinds, one for each kind
of work in the program:

* ``dense``   products of 256 x 256 complex matrices (the cp-map step);
* ``svd``     singular values of a 384 x 192 complex matrix (the rank
  test and the commutant solve);
* ``python``  a Python loop over 4 x 4 complex matrices (the per-call
  overhead of small tuples).

Each takes 10-14 ms on an idle Xeon vCPU with one BLAS thread
(``python3 perfbench/reference.py`` prints the times).
"""

import os
import time


class Reference:
    """The reference computations on fixed, seeded inputs."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(20121126)

        def cmat(m, n):
            return (rng.standard_normal((m, n))
                    + 1j * rng.standard_normal((m, n)))

        self.np = np
        self.dense = cmat(256, 256)
        self.tall = cmat(384, 192)
        self.small = [cmat(4, 4) for _ in range(8)]

    def _dense(self):
        x = self.dense
        for _ in range(5):
            x = self.dense @ x.conj().T
            x /= self.np.linalg.norm(x)

    def _svd(self):
        self.np.linalg.svd(self.tall, compute_uv=False)

    def _python(self):
        acc = 0.0
        for _ in range(270):
            for s in self.small:
                acc += float(self.np.linalg.norm(s @ s.conj().T))

    def sample(self):
        """Run each kind once; return kind -> seconds."""
        times = {}
        for kind, fn in (("dense", self._dense), ("svd", self._svd),
                         ("python", self._python)):
            start = time.perf_counter()
            fn()
            times[kind] = time.perf_counter() - start
        return times


if __name__ == "__main__":
    # One BLAS thread, as in run.py; numpy loads in Reference().
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    ref = Reference()
    ref.sample()
    runs = [ref.sample() for _ in range(20)]
    for kind in runs[0]:
        values = sorted(run[kind] for run in runs)
        print(f"{kind}: median {1e3 * values[10]:.2f} ms, "
              f"min {1e3 * values[0]:.2f} ms over 20 samples")
