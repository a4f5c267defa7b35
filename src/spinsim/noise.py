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

Durations: an exchange gate occupies the flux pulse itself plus the two
buffer segments and the mandated post-flux wait; compiled z-phase gates are
flux pulses of the step's allotted time (split in proportion to their
rotation angle) plus the post-flux wait; microwave rotations take the fixed
single-qubit pulse length.  Physical nanoseconds enter the package only
here: ``TimingParams`` holds every device timing, and both this engine's
decoherence charge and the pulse scheduler read their durations from it.

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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuits import Circuit, Gate, gate_unitary, propagate
from .linalg import ID2, SX, SY, SZ, check_density_matrix, op_on_qubit

J_COUPLING_MHZ = 40.4

# tau[ns] = THETA_TO_NS * theta, from theta = 2 * (2*pi*J) * tau with the
# coupling read as an ordinary frequency; theta = pi maps to ~6.19 ns.
THETA_TO_NS = 1e3 / (4.0 * math.pi * J_COUPLING_MHZ)

# benchmark exchange-gate process fidelity used for predicted fidelities
F_P_XY_REFERENCE = 0.957

DEVICE_T1_US = (7.1, 6.7)
DEVICE_T2_US = (5.4, 4.9)
# Fitted systematic phase errors; they enter with the sign of the (negative)
# exchange coupling.
DEVICE_JZ_TILDE_DEG = -2.3
DEVICE_CROSSTALK_DEG = -4.6
DEVICE_SINGLE_QUBIT_FIDELITY = 0.997


@dataclass(frozen=True)
class TimingParams:
    """Device timings shared by the noise charge and the pulse scheduler."""

    single_qubit_ns: float = 24.0
    buffer_ns: float = 16.0
    post_flux_wait_ns: float = 40.0
    detuning_mhz: float = 200.0
    theta_to_ns: float = THETA_TO_NS

    def __post_init__(self):
        if not all(math.isfinite(d) and d >= 0 for d in
                   (self.single_qubit_ns, self.buffer_ns, self.post_flux_wait_ns)):
            raise ValueError("durations must be finite and non-negative")
        if not (math.isfinite(self.detuning_mhz) and self.detuning_mhz > 0):
            raise ValueError("detuning must be finite and positive")
        if not (math.isfinite(self.theta_to_ns) and self.theta_to_ns > 0):
            raise ValueError("theta_to_ns must be finite and positive")

    @property
    def phase_period_ns(self) -> float:
        # inverse detuning; 5 ns at 200 MHz
        return 1000.0 / self.detuning_mhz

    def rz_flux_ns(self, gate: Gate, metadata: dict) -> float:
        """Flux-pulse length of a compiled z-phase gate.

        The per-step z slot lasts the step's allotted interaction time; a gate
        carrying a fraction of the step's z angle takes the same fraction of
        that time.  Hand-built circuits without field metadata fall back to
        the single-qubit pulse length.
        """
        b = abs(float(metadata.get("b_over_j", 0.0)))
        if b > 0.0:
            return self.theta_to_ns * 2.0 * abs(gate.angle) / b
        return self.single_qubit_ns


@dataclass(frozen=True)
class NoiseParams:
    """Calibrated noise model parameters (per-qubit times in microseconds)."""

    t1_us: tuple[float, float] = DEVICE_T1_US
    t2_us: tuple[float, float] = DEVICE_T2_US
    jz_tilde_angle_deg: float = DEVICE_JZ_TILDE_DEG
    crosstalk_phase_deg: float = DEVICE_CROSSTALK_DEG
    single_qubit_fidelity: float = DEVICE_SINGLE_QUBIT_FIDELITY
    timing: TimingParams = TimingParams()

    def __post_init__(self):
        # tuples keep the parameters hashable, as the superoperator cache needs
        object.__setattr__(self, "t1_us", tuple(self.t1_us))
        object.__setattr__(self, "t2_us", tuple(self.t2_us))
        if len(self.t1_us) != 2 or len(self.t2_us) != 2:
            raise ValueError("t1_us and t2_us must have one entry per qubit")
        for t1, t2 in zip(self.t1_us, self.t2_us):
            # NaN fails every comparison; so short a time that 1/T overflows
            # would turn the decay parameters into NaN
            if not (t1 > 0 and t2 > 0 and math.isfinite(1 / t1) and math.isfinite(1 / t2)):
                raise ValueError("T1 and T2 must be positive, with finite rates 1/T")
            if t2 > 2.0 * t1 + 1e-12:
                raise ValueError(f"unphysical T2 = {t2} > 2*T1 = {2 * t1}")
        # the depolarizing probability 2 * (1 - F) must not exceed 1
        if not 0.5 <= self.single_qubit_fidelity <= 1.0:
            raise ValueError("single_qubit_fidelity must be in [0.5, 1]")
        if not (math.isfinite(self.jz_tilde_angle_deg)
                and math.isfinite(self.crosstalk_phase_deg)):
            raise ValueError("error angles must be finite")

    @classmethod
    def off(cls) -> "NoiseParams":
        return cls(t1_us=(math.inf, math.inf), t2_us=(math.inf, math.inf),
                   jz_tilde_angle_deg=0.0, crosstalk_phase_deg=0.0,
                   single_qubit_fidelity=1.0)


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


def _step_z_fraction(gate: Gate, metadata: dict) -> float:
    """Fraction of one Trotter step's z rotation carried by this gate."""
    theta = float(metadata.get("theta", 0.0))
    n = int(metadata.get("n_steps", 1))
    b = float(metadata.get("b_over_j", 0.0))
    full = abs(b) * theta / (2.0 * n)
    if full <= 0.0:
        return 1.0
    return abs(gate.angle) / full


def gate_duration_ns(gate: Gate, params: NoiseParams, metadata: dict) -> float:
    """Wall-clock footprint of one gate, waits included for flux pulses."""
    t = params.timing
    if gate.kind == "XY":
        return t.theta_to_ns * gate.theta + 2.0 * t.buffer_ns + t.post_flux_wait_ns
    if gate.kind == "ROT":
        if gate.axis == "z":
            return t.rz_flux_ns(gate, metadata) + t.post_flux_wait_ns
        return t.single_qubit_ns
    if gate.kind == "WAIT":
        return gate.duration_ns
    raise ValueError(f"unknown gate kind {gate.kind!r}")


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


def predicted_fidelity(n_steps: int, f_p_xy: float) -> tuple[float, float]:
    """Expected Ising process and state fidelity from the exchange-gate fidelity.

    F_p = 1 - 2n(1 - F_p,XY), clamped to [0, 1], and F_s = (d*F_p + 1)/(d + 1)
    with d = 4.
    """
    if not 0.0 <= f_p_xy <= 1.0:
        raise ValueError("f_p_xy must be in [0, 1]")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    f_p = 1.0 - 2.0 * n_steps * (1.0 - f_p_xy)
    f_p = min(max(f_p, 0.0), 1.0)
    f_s = (4.0 * f_p + 1.0) / 5.0
    return f_p, f_s
