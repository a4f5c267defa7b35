"""Device constants and timings: the one owner of physical nanoseconds.

``TimingParams`` holds every device timing and ``gate_duration_ns`` turns a
gate into its wall-clock footprint; both the noise engine's decoherence
charge (``noise``) and the pulse scheduler (``scheduler``) read their
durations from here.  ``NoiseParams`` holds the calibrated error model's
parameters, and ``predicted_fidelity`` the linear error-budget estimate.

Durations: an exchange gate occupies the flux pulse itself plus the two
buffer segments and the mandated post-flux wait; compiled z-phase gates are
flux pulses of the step's allotted time (split in proportion to their
rotation angle) plus the post-flux wait; microwave rotations take the fixed
single-qubit pulse length.

Plain Python, like ``ir``: the CLI builds its default ``NoiseParams()`` at
import, and scheduling must not load numpy.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .ir import Gate, _Record

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


class TimingParams(namedtuple("TimingParams", "single_qubit_ns buffer_ns post_flux_wait_ns "
                              "detuning_mhz theta_to_ns",
                              defaults=(24.0, 16.0, 40.0, 200.0, THETA_TO_NS)), _Record):
    """Device timings shared by the noise charge and the pulse scheduler."""

    __slots__ = ()

    def _check(self):
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

    def rz_flux_ns(self, gate: Gate, b_over_j: float) -> float:
        """Flux-pulse length of a compiled z-phase gate in a circuit whose
        field is ``b_over_j`` (``Circuit.b_over_j``).

        The per-step z slot lasts the step's allotted interaction time; a gate
        carrying a fraction of the step's z angle takes the same fraction of
        that time.  Without a field (``b_over_j`` 0) a z gate takes the
        single-qubit pulse length.
        """
        b = abs(b_over_j)
        if b > 0.0:
            return self.theta_to_ns * 2.0 * abs(gate.angle) / b
        return self.single_qubit_ns


class NoiseParams(namedtuple("NoiseParams", "t1_us t2_us jz_tilde_angle_deg "
                             "crosstalk_phase_deg single_qubit_fidelity timing"), _Record):
    """Calibrated noise model parameters (per-qubit times in microseconds)."""

    __slots__ = ()

    def __new__(cls, t1_us=DEVICE_T1_US, t2_us=DEVICE_T2_US,
                jz_tilde_angle_deg=DEVICE_JZ_TILDE_DEG, crosstalk_phase_deg=DEVICE_CROSSTALK_DEG,
                single_qubit_fidelity=DEVICE_SINGLE_QUBIT_FIDELITY, timing=TimingParams()):
        # tuples keep the parameters hashable, as the superoperator cache needs
        return super().__new__(cls, tuple(t1_us), tuple(t2_us), jz_tilde_angle_deg,
                               crosstalk_phase_deg, single_qubit_fidelity, timing)

    def _check(self):
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


def gate_duration_ns(gate: Gate, params: NoiseParams, b_over_j: float) -> float:
    """Wall-clock footprint of one gate, waits included for flux pulses, in a
    circuit whose field is ``b_over_j``."""
    t = params.timing
    if gate.kind == "XY":
        return t.theta_to_ns * gate.theta + 2.0 * t.buffer_ns + t.post_flux_wait_ns
    if gate.kind == "ROT":
        if gate.axis == "z":
            return t.rz_flux_ns(gate, b_over_j) + t.post_flux_wait_ns
        return t.single_qubit_ns
    return gate.duration_ns  # WAIT; Gate rejects every other kind


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
