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

Propagation cost: one product loop, ``_power_product``, composes both the
ideal 4x4 unitaries (``circuit_unitary``) and the noisy 16x16
superoperators (``circuit_matrix``, for ``noise.simulate_noisy``).  It turns
a circuit into one matrix, the ordered product of its gates' matrices, which
the caller applies to the state.  Each circuit is read as
``Circuit.step`` = (step, n), the form it is stored in: only one step is
multiplied out and the product is raised to the power n by repeated
squaring, so a circuit costs one step plus O(log n) matrix products and no
n-copy gate tuple is built.  ``circuit_unitary`` takes the product over
stacks: given many circuits, it multiplies out each group of equal (step
length, n) together, with the same matmuls and so the same bits as one
circuit at a time, and one circuit is the stack of one.
``circuit_matrix`` composes one circuit at a time; the compilers repeat one
object per distinct gate, and it calls ``matrix_of`` once per distinct gate
object of the step.  ``gate_unitary`` is cached and returns read-only
arrays.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from functools import lru_cache
from itertools import repeat

import numpy as np

from .hamiltonians import exact_evolve, oracle_hamiltonian
# the IR names stay importable from here
from .ir import (Circuit, EvolutionParams, Gate, circuit_from_text, circuit_to_text,
                 compile_heisenberg, compile_ising, compile_xy)
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


def _power_product(mats: list[np.ndarray], n: int) -> np.ndarray:
    """The product of ``mats`` with the first rightmost, raised to the power n.

    The matrices may be 2-D or stacks of them.  The product starts from a
    copy of the first, which may be a cached read-only array, and the power
    is taken by repeated squaring.
    """
    prod = mats[0].copy()
    for m in mats[1:]:
        prod = m @ prod
    return prod if n == 1 else np.linalg.matrix_power(prod, n)


def circuit_matrix(c: Circuit, matrix_of, dim: int) -> np.ndarray:
    """The circuit as one dim x dim matrix: the product of ``matrix_of(gate)``.

    The first gate is rightmost; the empty circuit is a fresh identity.  For
    ``c.step`` = (step, n) it is the step's product raised to the power n by
    repeated squaring.  ``matrix_of`` is called once per distinct gate object
    of the step.  The result is always a new writeable array.  This is the
    per-circuit composer of the noisy 16x16 superoperators;
    ``circuit_unitary`` takes the same product over stacks.
    """
    step, n = c.step
    if not step:
        return np.eye(dim, dtype=complex)
    resolved = {}
    for g in step:
        if id(g) not in resolved:
            resolved[id(g)] = matrix_of(g)
    return _power_product([resolved[id(g)] for g in step], n)


def circuit_unitary(circuits: Circuit | Iterable[Circuit]) -> np.ndarray:
    """Ordered product of the gate unitaries: first gate applied first.

    An iterable of T circuits gives the (T, 4, 4) stack of their unitaries;
    one circuit gives its 4x4 unitary, as the stack of one.  The circuits of
    equal (step length, n) are multiplied out together, each step position
    as one stack of gate matrices, so a circuit's unitary has the same bits
    in any stack.
    """
    if isinstance(circuits, Circuit):
        return circuit_unitary((circuits,))[0]
    # (step length, n) -> (indices into the result, each circuit's step matrices)
    groups: dict[tuple[int, int], tuple[list, list]] = {}
    for i, c in enumerate(circuits):
        step, n = c.step
        index, mats = groups.setdefault((len(step), n), ([], []))
        index.append(i)
        # a cache hit per gate, in C, costs less than finding repeats in Python
        mats.append(list(map(gate_unitary, step, repeat(c.j_sign))))
    total = sum(len(index) for index, _ in groups.values())
    out = np.tile(np.eye(4, dtype=complex), (total, 1, 1))
    for (length, n), (index, mats) in groups.items():
        if length:  # an empty circuit keeps its identity
            out[index] = _power_product([np.array(pos) for pos in zip(*mats)], n)
    return out


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
