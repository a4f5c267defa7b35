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
superoperator acting on the row-major vectorisation vec(rho) =
rho.reshape(-1), since vec(A rho B) = (A (x) B^T) vec(rho) (Wood, Biamonte &
Cory, arXiv:1111.6950).  It is built in closed form as S = L (u (x) conj(u)).
The unitary u is the gate's own matrix times its diagonal error phases: the
residual ZZ after an exchange (XY) gate, or the fractional ZZ and crosstalk
rotation on a Q2 z-phase gate.  The local channel L acts on each qubit
alone, so it is the tensor product of two one-qubit 4x4 Liouville matrices,
each the T1/T2 decay [[1, 0, 0, gamma], [0, c, 0, 0], [0, 0, c, 0], [0, 0,
0, 1 - gamma]] with c = sqrt(1 - lambda) * sqrt(1 - gamma); on the qubit a
microwave (x/y) rotation drives, the decay follows the depolarizing kick.
The coupling sign and the field are the circuit's typed fields ``j_sign``
and ``b_over_j``.  The step's crosstalk and residual ZZ are split over the
Q2 z-phase gates of ``circuit.step``'s step in proportion to their own
|angle|: a gate's z fraction is |angle| over the ``math.fsum`` of those
|angle|s, or 1 when that sum is 0; a sum beyond the float range raises
``OverflowError``.  The sum is taken only when a circuit is composed.  A
compiled Ising step repeats its one Q2 phase gate, so each copy carries
exactly half.  Superoperators are built once
per distinct (gate, coupling sign, z fraction, duration, parameters) and kept
in a bounded cache.  ``simulate_noisy`` composes the circuit's superoperators
into one 16x16 matrix S with ``circuits.circuit_matrix``, one circuit at a
time; its product loop is the one the stacked ideal unitaries use too, and
``circuits`` describes how a repeated Trotter step is composed and what it
costs.  It returns S vec(rho0).  It keeps the last
circuit's S in a one-entry memo and reuses it while the next call has the
same circuit object, whose gates and header are read-only, and the same
``params`` object, as tomography's 17 calls per circuit do; rho0 is checked
on every call.  The memo holds the circuit itself, which stores only its
step.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .circuits import Circuit, Gate, circuit_matrix, gate_unitary
# the device names stay importable from here
from .device import (THETA_TO_NS, NoiseParams, TimingParams, gate_duration_ns,
                     predicted_fidelity)
from .linalg import ID2, SX, SY, SZ, check_density_matrix, kron


def _decay_parameters(duration_ns: float, t1_us: float, t2_us: float):
    """(gamma, lambda, sqrt(1 - gamma), sqrt(1 - lambda)) of one qubit's T1/T2
    decay over one gate duration.

    Amplitude damping uses gamma = 1 - exp(-t/T1); the pure-dephasing rate is
    1/T_phi = 1/T2 - 1/(2*T1) and the phase-damping parameter is
    lambda = 1 - exp(-2*t/T_phi), so off-diagonals decay as exp(-t/T2).  Each
    factor comes from its own exponential, sqrt(1 - gamma) = exp(-t/(2*T1))
    and sqrt(1 - lambda) = exp(-t/T_phi), and gamma and lambda from expm1, so
    none of them cancels once decay is nearly complete.  A zero rate decays
    nothing, whatever the duration, an infinite one included.
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
    # a zero rate skips its products, where an infinite t would give 0 * inf
    t_r1 = t * r1 if r1 else 0.0
    gamma = -math.expm1(-t_r1)
    lam = -math.expm1(-2.0 * t * r_phi) if r_phi else 0.0
    keep = math.exp(-t * r_phi) if r_phi else 1.0
    # an overflowing rate gives NaN here
    if not (0.0 <= gamma <= 1.0 and 0.0 <= lam <= 1.0):
        raise ValueError(f"gamma = {gamma} and lambda = {lam} must be in [0, 1]")
    return gamma, lam, math.exp(-t_r1 / 2.0), keep


def decoherence_kraus(duration_ns: float, t1_us: float = math.inf,
                      t2_us: float = math.inf) -> list[np.ndarray]:
    """Single-qubit relaxation-plus-dephasing channel for one gate duration.

    At most three operators, in this order: the no-jump operator
    diag(1, sqrt(1 - lambda) * sqrt(1 - gamma)); the decay jump
    [[0, sqrt(gamma)], [0, 0]] when gamma > 0; and the dephasing jump
    diag(0, sqrt(lambda) * sqrt(1 - gamma)) when that entry is nonzero.
    ``_decay_parameters`` gives gamma, lambda and the two square roots.
    """
    gamma, lam, survive, keep = _decay_parameters(duration_ns, t1_us, t2_us)
    dephase = math.sqrt(lam) * survive
    kraus = [np.array([[1.0, 0.0], [0.0, keep * survive]], dtype=complex)]
    if gamma > 0.0:
        kraus.append(np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex))
    if dephase > 0.0:
        kraus.append(np.array([[0.0, 0.0], [0.0, dephase]], dtype=complex))
    return kraus


def _decay_liouville(duration_ns: float, t1_us: float, t2_us: float) -> np.ndarray:
    """4x4 Liouville matrix of ``decoherence_kraus``'s channel, in closed form.

    The excited population keeps exp(-t/T1) = sqrt(1 - gamma)**2.
    """
    gamma, lam, survive, keep = _decay_parameters(duration_ns, t1_us, t2_us)
    c = keep * survive
    return np.array([1.0, 0.0, 0.0, gamma, 0.0, c, 0.0, 0.0,
                     0.0, 0.0, c, 0.0, 0.0, 0.0, 0.0, survive * survive]).reshape(4, 4)


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


_ZZ_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])  # eigenvalues of Z(x)Z


def _zz_phases(angle_deg: float) -> np.ndarray:
    """The diagonal of ``zz_error_unitary(angle_deg)``."""
    return np.exp(-1j * math.radians(angle_deg) * _ZZ_SIGNS)


def zz_error_unitary(angle_deg: float) -> np.ndarray:
    """exp(-i * (angle in radians) * Z(x)Z)."""
    return np.diag(_zz_phases(angle_deg))


# np.multiply.outer(A, B) of two one-qubit Liouville matrices is indexed
# (a1 b1 c1 d1 a2 b2 c2 d2); the two-qubit channel reads it in the order
# S[(a1 a2 b1 b2), (c1 c2 d1 d2)] = A[(a1 b1), (c1 d1)] * B[(a2 b2), (c2 d2)]
_LOCAL_ORDER = (np.arange(256).reshape((2,) * 8)
                .transpose(0, 4, 1, 5, 2, 6, 3, 7).reshape(16, 16))


@lru_cache(maxsize=256)
def _gate_superop(gate: Gate, j_sign: int, z_frac: float, duration_ns: float,
                  params: NoiseParams) -> np.ndarray:
    """Liouville matrix of one gate followed by its errors (read-only)."""
    u = gate_unitary(gate, j_sign)
    if gate.kind == "XY":
        u = _zz_phases(params.jz_tilde_angle_deg)[:, None] * u
    elif gate.kind == "ROT" and gate.axis == "z" and gate.qubit == 1:
        crosstalk = Gate.rot("z", math.radians(params.crosstalk_phase_deg * z_frac), 1)
        u = (gate_unitary(crosstalk).diagonal()
             * _zz_phases(params.jz_tilde_angle_deg * z_frac))[:, None] * u
    a = _decay_liouville(duration_ns, params.t1_us[0], params.t2_us[0])
    b = _decay_liouville(duration_ns, params.t1_us[1], params.t2_us[1])
    if gate.kind == "ROT" and gate.axis in ("x", "y"):
        k = np.asarray(depolarizing_kraus(2.0 * (1.0 - params.single_qubit_fidelity)))
        depol = np.einsum("kac,kbd->abcd", k, k.conj()).reshape(4, 4)
        a, b = (a @ depol, b) if gate.qubit == 0 else (a, b @ depol)
    channel = np.multiply.outer(a, b).take(_LOCAL_ORDER)
    # the gate with its phase errors, u (x) conj(u), then the local channel
    s = channel @ kron(u, u.conj())
    s.flags.writeable = False
    return s


# the last circuit simulated: (the circuit, params, its superoperator)
_last = (None, None, None)


def simulate_noisy(circuit: Circuit, params: NoiseParams, rho0: np.ndarray) -> np.ndarray:
    """Propagate a density matrix through the circuit under the noise model."""
    global _last
    vec = check_density_matrix(np.asarray(rho0, dtype=complex), "rho0").reshape(-1)
    last, last_params, s = _last
    if not (last is circuit and params is last_params):
        j_sign, b = circuit.j_sign, circuit.b_over_j
        # the step's z rotation, carried by its Q2 phase gates; fsum raises
        # OverflowError where the sum leaves the float range
        z_total = math.fsum(abs(g.angle) for g in circuit.step[0]
                            if g.kind == "ROT" and g.axis == "z" and g.qubit == 1)

        def superop(g: Gate) -> np.ndarray:
            z_frac = 0.0  # a Q2 phase gate's share of the step's z rotation
            if g.kind == "ROT" and g.axis == "z" and g.qubit == 1:
                z_frac = abs(g.angle) / z_total if z_total > 0.0 else 1.0
            return _gate_superop(g, j_sign, z_frac, gate_duration_ns(g, params, b), params)

        s = circuit_matrix(circuit, superop, 16)
        _last = (circuit, params, s)
    rho = (s @ vec).reshape(4, 4)
    return (rho + rho.conj().T) / 2.0
