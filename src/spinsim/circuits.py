"""Gate matrices and the one propagation engine for the circuit IR.

The gate set, ``Circuit``, the protocol compilers and the circuit text
format are plain Python in ``spinsim.ir``; they are re-exported here, so
``from spinsim.circuits import compile_ising`` keeps working.  Device
timings live in ``spinsim.device``.

Conventions, pinned by the tests:

* ``XY(theta)`` is the exchange gate at quantum phase angle theta = 2|J|tau.
  It is the identity on |uu> and |dd>; on the {|ud>, |du>} block it is
  ``[[cos(theta/2), -i*j_sign*sin(theta/2)], [-i*j_sign*sin(theta/2),
  cos(theta/2)]]``.  With the device sign j_sign = -1, XY(pi) is iSWAP and
  XY(pi/2) is sqrt(iSWAP).
* ``ROT(a, phi, q)`` = exp(-i phi sigma_a / 2) on qubit q.
* ``circuit_matrix`` puts the first gate rightmost: it is applied first.
* Identities that hold only up to a global phase are compared with
  ``phase_distance``.

Propagation cost: ``circuit_matrix`` is the one engine for both the ideal 4x4
unitaries (``circuit_unitary``) and the noisy 16x16 superoperators
(``noise.simulate_noisy``).  It turns a circuit into one matrix, the ordered
product of its gates' matrices, which the caller applies to the state.  When
``ir.repeated_step`` finds a circuit whose gates are exactly ``n_steps``
copies of one step, as ``compile_ising`` builds them, only one step is
multiplied out and the product is raised to the power n by repeated squaring,
so a circuit costs one step plus O(log n) matrix products.  ``gate_unitary``
is cached and returns read-only arrays.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .hamiltonians import exact_evolve, oracle_hamiltonian
# the IR names stay importable from here
from .ir import (Circuit, EvolutionParams, Gate, circuit_from_text, circuit_to_text,
                 compile_heisenberg, compile_ising, compile_xy, repeated_step)
from .linalg import ID2, PAULIS_1Q, op_on_qubit


def _rot_matrix(axis: str, angle: float) -> np.ndarray:
    s = PAULIS_1Q[axis]
    return math.cos(angle / 2.0) * ID2 - 1j * math.sin(angle / 2.0) * s


@lru_cache(maxsize=256)
def gate_unitary(g: Gate, j_sign: int = -1) -> np.ndarray:
    """Unitary of a single gate on the two-qubit register (cached, read-only)."""
    if j_sign not in (-1, 1):
        raise ValueError(f"j_sign must be +1 or -1, got {j_sign!r}")
    if g.kind == "XY":
        c, s = math.cos(g.theta / 2.0), math.sin(g.theta / 2.0)
        u = np.eye(4, dtype=complex)
        u[1, 1] = u[2, 2] = c
        u[1, 2] = u[2, 1] = -1j * j_sign * s
    elif g.kind == "ROT":
        u = op_on_qubit(_rot_matrix(g.axis, g.angle), g.qubit)
    else:  # WAIT; Gate rejects every other kind
        u = np.eye(4, dtype=complex)
    u.flags.writeable = False
    return u


def circuit_matrix(c: Circuit, matrix_of, dim: int) -> np.ndarray:
    """The circuit as one dim x dim matrix: the product of ``matrix_of(gate)``.

    The product starts from a copy of the first gate's matrix and puts the
    first gate rightmost; the empty circuit is a fresh identity.  When
    ``repeated_step`` finds n > 1 copies of one step, it is the step's product
    raised to the power n by repeated squaring.  The result is always a new
    writeable array.
    """
    step, n = repeated_step(c)
    if not step:
        return np.eye(dim, dtype=complex)
    prod = matrix_of(step[0]).copy()  # matrix_of may return a cached read-only array
    for g in step[1:]:
        prod = matrix_of(g) @ prod
    return prod if n == 1 else np.linalg.matrix_power(prod, n)


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Ordered product of the gate unitaries: first gate applied first."""
    j_sign = int(c.metadata.get("j_sign", -1))
    return circuit_matrix(c, lambda g: gate_unitary(g, j_sign), 4)


def phase_distance(u: np.ndarray, v: np.ndarray) -> float:
    """max-norm distance between u and v after gauging away a global phase."""
    u = np.asarray(u, dtype=complex)
    v = np.asarray(v, dtype=complex)
    g = complex(np.trace(v.conj().T @ u))
    if abs(g) < 1e-12:
        k = int(np.argmax(np.abs(v)))
        num, den = u.flat[k], v.flat[k]
        if abs(den) < 1e-12 or abs(num) < 1e-12:
            return float(np.max(np.abs(u - v)))
        g = num / den
    phase = g / abs(g)
    return float(np.max(np.abs(u - phase * v)))


def trotter_fidelity(params: EvolutionParams, psi0: np.ndarray,
                     j_sign: int = -1) -> float:
    """|<psi_exact(theta)| U_circuit |psi0>|^2 against the exact Ising oracle."""
    psi0 = np.asarray(psi0, dtype=complex)
    circ = compile_ising(params, j_sign=j_sign)
    psi_circ = circuit_unitary(circ) @ psi0
    h = oracle_hamiltonian("ising", params.b_over_j, j_sign)
    psi_exact = exact_evolve(h, params.theta / 2.0, psi0)
    f = abs(np.vdot(psi_exact, psi_circ)) ** 2
    return float(min(max(f, 0.0), 1.0))
