"""Host-speed calibration: a fixed kernel timed between the benchmark's passes.

On a shared host the speed of the same code drifts by a quarter or more over
minutes, which is wider than any useful regression bound. The kernel here
never changes and does not touch the program under test, so the time it
takes measures the host alone. run.py times it before every timed pass and
scales each pass's and set-up probe's time by ``REFERENCE_S`` / the
calibration time taken next to it. Changes to the program still show in
full, while the host's drift cancels out.

The kernel mixes the two kinds of work the workloads do: a Python loop of
small complex matrix products with number formatting (interpreter-bound, like
noise propagation and the scheduler), and a 256x256 complex solve (BLAS, on
as many threads as numpy's BLAS uses, like process tomography's solve).
"""

from __future__ import annotations

import time

import numpy as np

# Median calibration time on a 2-core x86-64 cloud VM (Python 3.11, numpy
# with OpenBLAS); scaled times read as if the host always ran at that speed.
REFERENCE_S = 0.30

_rng = np.random.default_rng(0)
_KRAUS = [_rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
          for _ in range(4)]
_RHO0 = np.eye(4, dtype=complex) / 4
_A = (_rng.standard_normal((256, 256)) + 1j * _rng.standard_normal((256, 256))
      + 20 * np.eye(256))
_B = _rng.standard_normal(256) + 0j
_LOOP_STEPS = 6000
_SOLVES = 40


def _kernel() -> float:
    rho = _RHO0
    for _ in range(_LOOP_STEPS):
        out = np.zeros((4, 4), dtype=complex)
        for k in _KRAUS:
            out += k @ rho @ k.conj().T
        rho = out / np.trace(out)
        text = f"{rho[0, 0].real:.12g}"
    x = _B
    for _ in range(_SOLVES):
        x = np.linalg.solve(_A, _B)
    return float(text) + float(x[0].real)


def calibrate() -> float:
    """Wall seconds of one run of the fixed kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start
