"""Completely positive noise engine for the two-qubit gate protocols.

The error model combines:

* amplitude damping and pure dephasing per qubit, from T1/T2, applied after
  each gate for the gate's wall-clock duration;
* a residual ZZ phase error after each exchange (XY) gate and, accrued
  across each Trotter step's phase gates, the same fitted per-step angle;
* a constant flux-crosstalk phase offset on Q2 accrued across each Trotter
  step's phase gates;
* a depolarizing kick on the driven qubit after each microwave (x/y)
  rotation, from the benchmarked single-qubit gate fidelity.

Each gate is charged decoherence for its wall-clock footprint
``device.gate_duration_ns``; physical nanoseconds enter the package only
through ``spinsim.device``, whose ``TimingParams`` the pulse scheduler reads
too.  ``NoiseParams`` is defined there and re-exported here.

Engine: each gate together with its errors is one 16x16 Liouville
superoperator S = sum_k K_k (x) conj(K_k) acting on the row-major
vectorisation vec(rho) = rho.reshape(-1), since vec(A rho B) =
(A (x) B^T) vec(rho) (Wood, Biamonte & Cory, arXiv:1111.6950).  The Kraus
operators K_k are those of the gate unitary composed with the exchange
gate's residual ZZ, or the Q2 z-phase gate's fractional ZZ and crosstalk
rotation, then the depolarizing kick, then T1/T2 decoherence for the gate's
duration.  Superoperators are built once per distinct (gate, coupling sign,
z fraction, duration, parameters) and kept in a bounded cache.
``simulate_noisy`` applies them to vec(rho0) with ``circuits.propagate``, the
engine the ideal unitaries use too, which describes how a repeated Trotter
step is applied and what it costs.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .circuits import Circuit, Gate, gate_unitary, propagate
# the device names stay importable from here
from .device import (THETA_TO_NS, NoiseParams, TimingParams, _step_z_fraction,
                     gate_duration_ns, predicted_fidelity)
from .linalg import ID2, SX, SY, SZ, check_density_matrix, op_on_qubit


def decoherence_kraus(duration_ns: float, t1_us: float = math.inf,
                      t2_us: float = math.inf) -> list[np.ndarray]:
    """Single-qubit relaxation-plus-dephasing channel for one gate duration.

    Amplitude damping uses gamma = 1 - exp(-t/T1); the pure-dephasing rate is
    1/T_phi = 1/T2 - 1/(2*T1) and the phase-damping parameter is
    lambda = 1 - exp(-2*t/T_phi), so off-diagonals decay as exp(-t/T2).

    At most three operators, in this order: the no-jump operator
    diag(1, sqrt(1 - lambda) * sqrt(1 - gamma)); the decay jump
    [[0, sqrt(gamma)], [0, 0]] when gamma > 0; and the dephasing jump
    diag(0, sqrt(lambda) * sqrt(1 - gamma)) when that entry is nonzero.
    """
    if not (duration_ns >= 0.0 and t1_us > 0.0 and t2_us > 0.0):  # NaN fails
        raise ValueError("need duration >= 0 and T1, T2 > 0")
    r1 = 0.0 if math.isinf(t1_us) else 1.0 / t1_us
    r2 = 0.0 if math.isinf(t2_us) else 1.0 / t2_us
    r_phi = r2 - r1 / 2.0
    if r_phi < -1e-15:
        raise ValueError(f"unphysical T2 = {t2_us} > 2*T1 = {2 * t1_us}")
    r_phi = max(r_phi, 0.0)
    t = duration_ns * 1e-3
    gamma = 1.0 - math.exp(-t * r1)
    lam = 1.0 - math.exp(-2.0 * t * r_phi)
    # an overflowing rate or an infinite duration gives NaN here
    if not (0.0 <= gamma <= 1.0 and 0.0 <= lam <= 1.0):
        raise ValueError(f"gamma = {gamma} and lambda = {lam} must be in [0, 1]")
    survive = math.sqrt(1.0 - gamma)
    dephase = math.sqrt(lam) * survive
    kraus = [np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - lam) * survive]],
                      dtype=complex)]
    if gamma > 0.0:
        kraus.append(np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex))
    if dephase > 0.0:
        kraus.append(np.array([[0.0, 0.0], [0.0, dephase]], dtype=complex))
    return kraus


def depolarizing_kraus(p: float) -> list[np.ndarray]:
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if p == 0.0:
        return [ID2.copy()]
    return [
        math.sqrt(1.0 - 3.0 * p / 4.0) * ID2,
        math.sqrt(p / 4.0) * SX,
        math.sqrt(p / 4.0) * SY,
        math.sqrt(p / 4.0) * SZ,
    ]


def zz_error_unitary(angle_deg: float) -> np.ndarray:
    """exp(-i * (angle in radians) * Z(x)Z)."""
    a = math.radians(angle_deg)
    phases = np.exp(-1j * a * np.array([1.0, -1.0, -1.0, 1.0]))
    return np.diag(phases)


def _superop(kraus) -> np.ndarray:
    # row-major vec: vec(K rho K^dag) = (K (x) conj(K)) vec(rho), summed over K
    k = np.asarray(kraus)
    return np.einsum("kac,kbd->abcd", k, k.conj()).reshape(16, 16)


@lru_cache(maxsize=256)
def _gate_superop(gate: Gate, j_sign: int, z_frac: float, duration_ns: float,
                  params: NoiseParams) -> np.ndarray:
    """Liouville matrix of one gate followed by its errors (read-only)."""
    u = gate_unitary(gate, j_sign)
    if gate.kind == "XY":
        u = zz_error_unitary(params.jz_tilde_angle_deg) @ u
    if gate.kind == "ROT" and gate.axis == "z" and gate.qubit == 1:
        a = math.radians(params.crosstalk_phase_deg * z_frac)
        u = (gate_unitary(Gate.rot("z", a, 1))
             @ zz_error_unitary(params.jz_tilde_angle_deg * z_frac) @ u)
    s = _superop([u])
    if gate.kind == "ROT" and gate.axis in ("x", "y"):
        p_depol = 2.0 * (1.0 - params.single_qubit_fidelity)
        s = _superop([op_on_qubit(k, gate.qubit)
                      for k in depolarizing_kraus(p_depol)]) @ s
    ka = decoherence_kraus(duration_ns, params.t1_us[0], params.t2_us[0])
    kb = decoherence_kraus(duration_ns, params.t1_us[1], params.t2_us[1])
    # Kraus operators kron(a, b) of the two independent qubit channels
    s = _superop(np.einsum("mac,nbd->mnabcd", ka, kb).reshape(-1, 4, 4)) @ s
    s.flags.writeable = False
    return s


def simulate_noisy(circuit: Circuit, params: NoiseParams, rho0: np.ndarray) -> np.ndarray:
    """Propagate a density matrix through the circuit under the noise model."""
    vec = check_density_matrix(np.asarray(rho0, dtype=complex), "rho0").reshape(-1)
    meta = circuit.metadata
    j_sign = int(meta.get("j_sign", -1))

    def superop(g: Gate) -> np.ndarray:
        z_frac = (_step_z_fraction(g, meta)
                  if g.kind == "ROT" and g.axis == "z" and g.qubit == 1 else 0.0)
        return _gate_superop(g, j_sign, z_frac, gate_duration_ns(g, params, meta), params)

    rho = propagate(circuit, superop, vec).reshape(4, 4)
    return (rho + rho.conj().T) / 2.0
