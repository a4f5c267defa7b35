import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spinsim.noise
from spinsim.circuits import Circuit, EvolutionParams, Gate, circuit_unitary, \
    compile_ising, gate_unitary
from spinsim.linalg import kron, op_on_qubit
from spinsim.noise import (NoiseParams, THETA_TO_NS, TimingParams,
                           decoherence_kraus, depolarizing_kraus, gate_duration_ns,
                           predicted_fidelity, simulate_noisy, zz_error_unitary)
from spinsim.tomography import state_fidelity

from conftest import FIG3, NOISE_OFF, compiled_circuit, misleading_circuits, random_density


def kraus_completeness_defect(kraus):
    acc = sum(k.conj().T @ k for k in kraus)
    return float(np.max(np.abs(acc - np.eye(kraus[0].shape[0]))))


class TestDecoherenceKraus:
    def test_identity_channel_without_decay(self):
        ks = decoherence_kraus(100.0)
        assert len(ks) == 1
        assert np.array_equal(ks[0], np.eye(2))

    def test_full_relaxation(self):
        ks = decoherence_kraus(1e9, 7.1, 5.4)  # duration >> T1
        rho = np.array([[0.2, 0.3], [0.3, 0.8]], dtype=complex)
        out = sum(k @ rho @ k.conj().T for k in ks)
        ground = np.diag([1.0, 0.0])
        assert np.max(np.abs(out - ground)) < 1e-6

    def test_damping_probability_value(self):
        # 1 - exp(-6.2e-3 us / 7.1 us)
        ks = decoherence_kraus(6.2, 7.1, 7.1)
        gamma = abs(ks[1][0, 1]) ** 2 if ks[1][0, 1] else None
        jump = [k for k in ks if abs(k[0, 1]) > 0][0]
        gamma = abs(jump[0, 1]) ** 2
        assert gamma == pytest.approx(8.728582740197277e-4, abs=1e-12)

    def test_off_diagonal_decay_rate(self):
        dur, t1, t2 = 500.0, 7.1, 5.4
        ks = decoherence_kraus(dur, t1, t2)
        rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        out = sum(k @ rho @ k.conj().T for k in ks)
        assert abs(out[0, 1]) == pytest.approx(0.5 * math.exp(-dur * 1e-3 / t2),
                                               abs=1e-12)

    def test_completeness_over_parameter_grid(self):
        for dur in (0.0, 6.2, 78.2, 1000.0):
            for t1, t2 in ((7.1, 5.4), (6.7, 4.9), (1.0, 2.0), (math.inf, math.inf)):
                ks = decoherence_kraus(dur, t1, t2)
                assert kraus_completeness_defect(ks) < 1e-12

    def test_rejects_unphysical_t2(self):
        with pytest.raises(ValueError, match="unphysical"):
            decoherence_kraus(10.0, 1.0, 2.5)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            decoherence_kraus(-1.0, 7.1, 5.4)

    @pytest.mark.parametrize("args", [
        (math.nan, 7.1, 5.4), (math.nan, math.inf, math.inf), (10.0, math.nan, 5.4),
        (10.0, 7.1, math.nan), (10.0, -7.1, 5.4), (10.0, 7.1, -5.4),
        (10.0, 0.0, 1.0), (10.0, 7.1, 0.0), (0.0, 0.0, 0.0),
        (10.0, 1e-320, 1e-320), (0.0, 1e-320, 1e-320),
    ], ids=str)
    def test_rejects_invalid_arguments_with_value_error(self, args):
        with pytest.raises(ValueError):
            decoherence_kraus(*args)

    @pytest.mark.parametrize("t1, t2, expected", [
        (7.1, 14.2, (1.0, 0.0, 0.0, 1.0)),  # no pure dephasing
        (math.inf, 5.4, (0.0, 1.0, 1.0, 0.0)),
        (math.inf, math.inf, (0.0, 0.0, 1.0, 1.0)),
    ], ids=["t2-twice-t1", "t1-inf", "t1-t2-inf"])
    def test_infinite_duration_at_zero_rate(self, t1, t2, expected):
        """A zero rate decays nothing, whatever the duration: (gamma, lambda,
        sqrt(1 - gamma), sqrt(1 - lambda))."""
        assert spinsim.noise._decay_parameters(math.inf, t1, t2) == expected
        ks = decoherence_kraus(math.inf, t1, t2)
        assert kraus_completeness_defect(ks) == 0.0


def composed_decoherence_kraus(duration_ns, t1_us=math.inf, t2_us=math.inf):
    """Reference: phase damping after amplitude damping, zero products dropped.

    The composition that ``decoherence_kraus`` replaced, kept as it was; its
    parameters come from the same lines as ``_decay_parameters``, so the
    closed form can be compared with it bit for bit.
    """
    def amplitude_damping_kraus(gamma, survive):
        k0 = np.array([[1.0, 0.0], [0.0, survive]], dtype=complex)
        if gamma == 0.0:
            return [k0]
        return [k0, np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)]

    def dephasing_kraus(lam, keep):
        k0 = np.array([[1.0, 0.0], [0.0, keep]], dtype=complex)
        if lam == 0.0:
            return [k0]
        return [k0, np.array([[0.0, 0.0], [0.0, math.sqrt(lam)]], dtype=complex)]

    r1 = 0.0 if math.isinf(t1_us) else 1.0 / t1_us
    r2 = 0.0 if math.isinf(t2_us) else 1.0 / t2_us
    r_phi = max(r2 - r1 / 2.0, 0.0)
    t = duration_ns * 1e-3
    gamma = -math.expm1(-t * r1)
    lam = -math.expm1(-2.0 * t * r_phi)
    # sqrt(1 - gamma) and sqrt(1 - lambda)
    survive, keep = math.exp(-t * r1 / 2.0), math.exp(-t * r_phi)
    kraus = []
    for p in dephasing_kraus(lam, keep):
        for a in amplitude_damping_kraus(gamma, survive):
            k = p @ a
            if np.max(np.abs(k)) > 0.0:
                kraus.append(k)
    return kraus


@st.composite
def decoherence_args(draw):
    """Duration 0, T = inf, T2 = 2*T1, gamma -> 1 (long gates) and random values."""
    duration = draw(st.just(0.0) | st.sampled_from((1e5, 1e9)) | st.floats(0.0, 1e6))
    t1 = draw(st.just(math.inf) | st.floats(1e-3, 100.0))
    t2 = draw(st.just(2.0 * t1) | st.floats(1e-3, min(2.0 * t1, 200.0)))
    return duration, t1, t2


@settings(deadline=None, max_examples=500)
@given(args=decoherence_args())
# a wrong grouping of the dephasing product once failed here, and only in a
# full run, whose draws differ from a run of this test alone
@example(args=(3.852597536731036e-304, math.inf, 63.0))
def test_decoherence_kraus_matches_composition_bit_for_bit(args):
    ks = decoherence_kraus(*args)
    ref = composed_decoherence_kraus(*args)
    assert len(ks) == len(ref)
    for k, r in zip(ks, ref):
        assert k.dtype == r.dtype and k.tobytes() == r.tobytes()


def test_near_complete_decay_keeps_its_coherence():
    # gamma rounds to 1 at t = 100 us, T1 = 2 us, but the coherence is e^-25
    args, expected = (1e5, 2.0, 4.0), math.exp(-25.0)
    liouville = spinsim.noise._decay_liouville(*args)
    assert liouville[1, 1] == pytest.approx(expected, rel=1e-12)
    assert liouville[3, 3] == pytest.approx(math.exp(-50.0), rel=1e-12)
    assert decoherence_kraus(*args)[0][1, 1].real == pytest.approx(expected, rel=1e-12)


@settings(deadline=None, max_examples=500)
@given(args=decoherence_args())
def test_decay_liouville_matches_kraus_sum(args):
    ref = sum(kron(k, k.conj()) for k in decoherence_kraus(*args))
    assert np.max(np.abs(spinsim.noise._decay_liouville(*args) - ref)) <= 1e-15


@settings(deadline=None)
@given(args=decoherence_args(), seed=st.integers(0, 2 ** 32 - 1))
def test_decoherence_channel_action_on_general_state(args, seed):
    duration, t1, t2 = args
    rho = random_density(np.random.default_rng(seed), dim=2)
    out = sum(k @ rho @ k.conj().T for k in decoherence_kraus(*args))
    gamma = -math.expm1(-duration * 1e-3 / t1)
    assert out[0, 0] == pytest.approx(rho[0, 0] + gamma * rho[1, 1], abs=1e-12)
    # 1 - gamma is exact only to ~1e-16, so its square root, which scales the
    # coherence, only to ~1e-8 once the decay is nearly complete
    assert out[0, 1] == pytest.approx(math.exp(-duration * 1e-3 / t2) * rho[0, 1],
                                      abs=1e-8)
    assert out[1, 1] == pytest.approx((1.0 - gamma) * rho[1, 1], abs=1e-12)


class TestZZErrorUnitary:
    def test_zero_angle(self):
        assert np.allclose(zz_error_unitary(0.0), np.eye(4), atol=1e-15)

    def test_right_angle(self):
        u = zz_error_unitary(90.0)
        assert np.allclose(u, np.diag([-1j, 1j, 1j, -1j]), atol=1e-12)

    def test_small_angle_phases(self):
        u = zz_error_unitary(2.3)
        a = math.radians(2.3)
        assert np.allclose(np.angle(np.diag(u)), [-a, a, a, -a], atol=1e-12)


class TestNoiseParams:
    def test_calibrated_defaults(self):
        p = NoiseParams()
        assert p.t1_us == (7.1, 6.7)
        assert p.t2_us == (5.4, 4.9)
        assert abs(p.jz_tilde_angle_deg) == pytest.approx(2.3)
        assert abs(p.crosstalk_phase_deg) == pytest.approx(4.6)

    def test_rejects_unphysical(self):
        with pytest.raises(ValueError):
            NoiseParams(t1_us=(1.0, 1.0), t2_us=(2.5, 1.0))

    @pytest.mark.parametrize("t1, t2", [((1e-320, 7.1), (1e-320, 4.9)),
                                        ((7.1, 6.7), (5.4, 1e-320)),
                                        ((5e-324, 6.7), (5e-324, 4.9))])
    def test_rejects_times_whose_rate_overflows(self, t1, t2):
        with pytest.raises(ValueError, match="finite rates"):
            NoiseParams(t1_us=t1, t2_us=t2)

    def test_theta_to_ns_constant(self):
        # pi phase angle maps to ~6.19 ns at 40.4 MHz coupling
        assert THETA_TO_NS * math.pi == pytest.approx(6.188, abs=5e-3)


class TestGateDurations:
    def test_xy_duration_includes_buffers_and_wait(self):
        p = NoiseParams()
        d = gate_duration_ns(Gate.xy(np.pi), p, 0.0)
        assert d == pytest.approx(THETA_TO_NS * np.pi + 32.0 + 40.0)

    def test_single_qubit_duration(self):
        p = NoiseParams()
        assert gate_duration_ns(Gate.rot("x", np.pi, 0), p, 0.0) == 24.0

    def test_rz_duration_from_step_metadata(self):
        p = NoiseParams()
        c = compile_ising(EvolutionParams(2.0, 4, 3.0))
        rz = next(g for g in c.gates if g.kind == "ROT" and g.axis == "z")
        d = gate_duration_ns(rz, p, c.b_over_j)
        # half of the step's allotted flux time plus the post-flux wait
        assert d == pytest.approx(THETA_TO_NS * 2.0 / (2 * 4) + 40.0)

    def test_wait_duration(self):
        p = NoiseParams()
        assert gate_duration_ns(Gate.wait(55.5), p, 0.0) == 55.5

    def test_durations_follow_timing(self):
        p = NoiseParams(timing=TimingParams(single_qubit_ns=30.0, buffer_ns=10.0,
                                            post_flux_wait_ns=60.0, theta_to_ns=2.0))
        assert gate_duration_ns(Gate.xy(np.pi), p, 0.0) == pytest.approx(
            2.0 * np.pi + 20.0 + 60.0)
        assert gate_duration_ns(Gate.rot("y", 1.0, 1), p, 0.0) == 30.0
        # a z gate without a field takes the single-qubit pulse length
        assert gate_duration_ns(Gate.rot("z", 1.0, 0), p, 0.0) == 90.0


@pytest.mark.parametrize("bad", [
    {"single_qubit_ns": -1.0}, {"buffer_ns": math.nan},
    {"post_flux_wait_ns": math.inf}, {"detuning_mhz": 0.0},
    {"theta_to_ns": 0.0}, {"theta_to_ns": -1.0},
])
def test_timing_params_rejects_invalid(bad):
    with pytest.raises(ValueError):
        TimingParams(**bad)


class TestSimulateNoisy:
    def test_noise_off_matches_ideal(self):
        c = compile_ising(EvolutionParams(1.7, 2, 3.0))
        rho0 = np.outer(FIG3, FIG3.conj())
        rho = simulate_noisy(c, NOISE_OFF, rho0)
        u = circuit_unitary(c)
        ideal = u @ rho0 @ u.conj().T
        assert np.max(np.abs(rho - ideal)) < 1e-10

    def test_output_is_valid_density_matrix(self, rng):
        c = compile_ising(EvolutionParams(2.5, 3, 3.0))
        p = NoiseParams()
        for _ in range(10):
            rho = simulate_noisy(c, p, random_density(rng))
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-8

    def test_monotone_in_relaxation_rate(self):
        c = compile_ising(EvolutionParams(np.pi, 3, 3.0))
        rho0 = np.outer(FIG3, FIG3.conj())
        psi_ideal = circuit_unitary(c) @ FIG3
        fids = []
        for t in (16.0, 8.0, 4.0, 2.0, 1.0, 0.5):
            p = NoiseParams(t1_us=(t, t), t2_us=(t, t),
                            jz_tilde_angle_deg=0.0, crosstalk_phase_deg=0.0,
                            single_qubit_fidelity=1.0)
            fids.append(state_fidelity(simulate_noisy(c, p, rho0), psi_ideal))
        assert all(b <= a + 1e-12 for a, b in zip(fids, fids[1:]))

    def test_pure_dephasing_mixes_uniform_superposition(self):
        # strong dephasing alone drives |++> to the maximally mixed state
        plus = np.ones(4, dtype=complex) / 2.0
        rho0 = np.outer(plus, plus.conj())
        p = NoiseParams(t1_us=(1e6, 1e6), t2_us=(1e-3, 1e-3),
                        jz_tilde_angle_deg=0.0, crosstalk_phase_deg=0.0,
                        single_qubit_fidelity=1.0)
        c = Circuit(2, (Gate.wait(1000.0),))
        rho = simulate_noisy(c, p, rho0)
        # Uhlmann fidelity to I/4 reduces to (sum sqrt(w/4))^2
        w = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
        fid = float(np.sqrt(w / 4.0).sum() ** 2)
        assert fid > 1.0 - 1e-6

    def test_zz_error_cancels_in_echo_but_not_alone(self):
        # inside the echoed pair the pi pulses flip the ZZ error sign, so the
        # compiled Ising step keeps only field-stage systematics
        p_zz = NoiseParams(t1_us=(math.inf, math.inf), t2_us=(math.inf, math.inf),
                           jz_tilde_angle_deg=-2.3, crosstalk_phase_deg=0.0,
                           single_qubit_fidelity=1.0)
        rho0 = np.outer(FIG3, FIG3.conj())
        block = Circuit(2, (Gate.xy(1.0), Gate.rot("x", np.pi, 0),
                            Gate.xy(1.0), Gate.rot("x", np.pi, 0)))
        rho = simulate_noisy(block, p_zz, rho0)
        u = circuit_unitary(block)
        assert np.max(np.abs(rho - u @ rho0 @ u.conj().T)) < 1e-10
        single = Circuit(2, (Gate.xy(1.0),))
        rho1 = simulate_noisy(single, p_zz, rho0)
        u1 = circuit_unitary(single)
        assert np.max(np.abs(rho1 - u1 @ rho0 @ u1.conj().T)) > 1e-4

    def test_rejects_bad_input_state(self):
        c = Circuit(2, (Gate.xy(1.0),))
        with pytest.raises(ValueError):
            simulate_noisy(c, NoiseParams(), np.eye(4))  # trace 4


class TestPredictedFidelity:
    def test_state_fidelity_ladder(self):
        expected = [0.931, 0.862, 0.794, 0.725, 0.656]
        for n, ref in enumerate(expected, start=1):
            _, f_s = predicted_fidelity(n, 0.957)
            assert f_s == pytest.approx(ref, abs=1e-3)

    def test_perfect_gate(self):
        for n in (1, 3, 10):
            f_p, f_s = predicted_fidelity(n, 1.0)
            assert f_p == 1.0 and f_s == 1.0

    def test_clamped_at_zero(self):
        f_p, f_s = predicted_fidelity(50, 0.9)
        assert f_p == 0.0
        assert f_s == pytest.approx(0.2)

    def test_heisenberg_three_block_composition(self):
        # 1 - 3(1 - F_p,XY) lands within one point of the observed 86.3%
        f_p = 1.0 - 3.0 * (1.0 - 0.957)
        assert f_p == pytest.approx(0.871, abs=1e-12)
        assert abs(f_p - 0.863) < 0.01

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            predicted_fidelity(0, 0.9)
        with pytest.raises(ValueError):
            predicted_fidelity(1, 1.5)


def test_cptp_on_random_states(rng):
    # trace preservation and positivity through composed channels
    p = NoiseParams()
    ka = decoherence_kraus(78.2, *[(p.t1_us[0], p.t2_us[0])][0])
    ka = decoherence_kraus(78.2, p.t1_us[0], p.t2_us[0])
    kb = decoherence_kraus(78.2, p.t1_us[1], p.t2_us[1])
    two_qubit = [kron(a, b) for a in ka for b in kb]
    assert kraus_completeness_defect(two_qubit) < 1e-12
    for _ in range(200):
        rho = random_density(rng)
        out = sum(k @ rho @ k.conj().T for k in two_qubit)
        assert abs(np.trace(out).real - 1.0) < 1e-10
        assert np.linalg.eigvalsh(out).min() > -1e-8


def is_q2_phase(g):
    return g.kind == "ROT" and g.axis == "z" and g.qubit == 1


def oracle_step(circuit):
    """The circuit's Trotter step, found from its gates: the first len/n gates
    when the gates are n = header ``n_steps`` copies of them, else all gates."""
    gates, n = circuit.gates, int(circuit.metadata.get("n_steps", 1))
    k = len(gates) // n
    return gates[:k] if k * n == len(gates) and gates[:k] * n == gates else gates


def step_z_fraction(g, step):
    """The gate's share of the step's z rotation: its |angle| over the sum of
    the |angle|s of the step's Q2 phase gates, or 1 if that sum is 0."""
    full = math.fsum(abs(h.angle) for h in step if is_q2_phase(h))
    return abs(g.angle) / full if full > 0.0 else 1.0


def kraus_reference(circuit, params, rho0, z_fraction=step_z_fraction):
    """Gate-by-gate Kraus sums: the engine that the cached superoperators replace.

    ``z_fraction(gate, step)`` is the share of the step's crosstalk and
    residual ZZ that a Q2 phase gate carries.
    """
    def apply(rho, kraus):
        out = np.zeros_like(rho)
        for k in kraus:
            out += k @ rho @ k.conj().T
        return out

    meta, step = circuit.metadata, oracle_step(circuit)
    j_sign = int(meta.get("j_sign", -1))
    p_depol = 2.0 * (1.0 - params.single_qubit_fidelity)
    rho = np.asarray(rho0, dtype=complex)
    for g in circuit.gates:
        rho = apply(rho, [gate_unitary(g, j_sign)])
        if g.kind == "XY":
            rho = apply(rho, [zz_error_unitary(params.jz_tilde_angle_deg)])
        if is_q2_phase(g):
            frac = z_fraction(g, step)
            rho = apply(rho, [zz_error_unitary(params.jz_tilde_angle_deg * frac)])
            a = math.radians(params.crosstalk_phase_deg * frac)
            rho = apply(rho, [gate_unitary(Gate.rot("z", a, 1))])
        if g.kind == "ROT" and g.axis in ("x", "y"):
            rho = apply(rho, [op_on_qubit(k, g.qubit)
                              for k in depolarizing_kraus(p_depol)])
        dur = gate_duration_ns(g, params, meta.get("b_over_j", 0.0))
        ka = decoherence_kraus(dur, params.t1_us[0], params.t2_us[0])
        kb = decoherence_kraus(dur, params.t1_us[1], params.t2_us[1])
        rho = apply(rho, [kron(a, b) for a in ka for b in kb])
    return (rho + rho.conj().T) / 2.0


def kraus_superop_reference(gate, j_sign, z_frac, duration_ns, params):
    """The Kraus-einsum build that the closed-form ``_gate_superop`` replaced."""
    def superop(kraus):
        # row-major vec: vec(K rho K^dag) = (K (x) conj(K)) vec(rho), summed over K
        k = np.asarray(kraus)
        return np.einsum("kac,kbd->abcd", k, k.conj()).reshape(16, 16)

    u = gate_unitary(gate, j_sign)
    if gate.kind == "XY":
        u = zz_error_unitary(params.jz_tilde_angle_deg) @ u
    if gate.kind == "ROT" and gate.axis == "z" and gate.qubit == 1:
        a = math.radians(params.crosstalk_phase_deg * z_frac)
        u = (gate_unitary(Gate.rot("z", a, 1))
             @ zz_error_unitary(params.jz_tilde_angle_deg * z_frac) @ u)
    s = superop([u])
    if gate.kind == "ROT" and gate.axis in ("x", "y"):
        p_depol = 2.0 * (1.0 - params.single_qubit_fidelity)
        s = superop([op_on_qubit(k, gate.qubit) for k in depolarizing_kraus(p_depol)]) @ s
    ka = decoherence_kraus(duration_ns, params.t1_us[0], params.t2_us[0])
    kb = decoherence_kraus(duration_ns, params.t1_us[1], params.t2_us[1])
    return superop(np.einsum("mac,nbd->mnabcd", ka, kb).reshape(-1, 4, 4)) @ s


def assert_cptp_output(rho):
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.max(np.abs(rho - rho.conj().T)) == 0.0
    assert np.linalg.eigvalsh(rho).min() >= -1e-12


@st.composite
def noise_params(draw):
    """Each error source on at a drawn strength or off: all on, all off, or partial."""
    kw = {}
    if draw(st.booleans()):
        t1 = [draw(st.floats(0.5, 50.0)) for _ in range(2)]
        kw["t1_us"] = tuple(t1)
        kw["t2_us"] = tuple(draw(st.floats(0.05, 2.0 * t)) for t in t1)
    else:
        kw["t1_us"] = kw["t2_us"] = (math.inf, math.inf)
    kw["jz_tilde_angle_deg"] = draw(st.sampled_from((0.0, -2.3)) | st.floats(-10.0, 10.0))
    kw["crosstalk_phase_deg"] = draw(st.sampled_from((0.0, -4.6)) | st.floats(-10.0, 10.0))
    kw["single_qubit_fidelity"] = draw(st.sampled_from((1.0, 0.997)) | st.floats(0.5, 1.0))
    return NoiseParams(**kw)


angles = st.just(0.0) | st.floats(min_value=0.0, max_value=4 * np.pi)
single_gates = (st.builds(Gate.xy, angles)
                | st.builds(Gate.rot, st.sampled_from("xyz"),
                            angles | angles.map(lambda a: -a), st.sampled_from((0, 1)))
                | st.builds(Gate.wait, st.floats(min_value=0.0, max_value=1e4)))


@settings(deadline=None, max_examples=300)
@given(gate=single_gates, j_sign=st.sampled_from((-1, 1)),
       z_frac=st.sampled_from((0.0, 1.0)) | st.floats(min_value=0.0, max_value=1e3),
       duration=st.sampled_from((0.0, 1e9)) | st.floats(min_value=0.0, max_value=1e6),
       params=st.just(NoiseParams()) | st.just(NOISE_OFF) | noise_params())
def test_gate_superop_matches_kraus_einsum_build(gate, j_sign, z_frac, duration, params):
    s = spinsim.noise._gate_superop(gate, j_sign, z_frac, duration, params)
    ref = kraus_superop_reference(gate, j_sign, z_frac, duration, params)
    assert np.max(np.abs(s - ref)) <= 1e-15


@settings(deadline=None)
@given(protocol=st.sampled_from(("xy", "heisenberg", "ising")),
       theta=st.just(0.0) | st.floats(min_value=0.0, max_value=4 * np.pi),
       n=st.integers(min_value=1, max_value=30),
       b_over_j=st.floats(min_value=-5.0, max_value=5.0),
       j_sign=st.sampled_from((-1, 1)),
       params=st.just(NoiseParams()) | st.just(NOISE_OFF) | noise_params(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_superoperator_engine_matches_kraus_reference(protocol, theta, n, b_over_j,
                                                       j_sign, params, seed):
    c = compiled_circuit(protocol, theta, n, b_over_j, j_sign)
    rho0 = random_density(np.random.default_rng(seed))
    rho = simulate_noisy(c, params, rho0)
    assert np.max(np.abs(rho - kraus_reference(c, params, rho0))) <= 1e-12
    assert_cptp_output(rho)


@settings(deadline=None, max_examples=200)
@given(theta=st.integers(1, 39).map(lambda m: m * 5e-324) | st.floats(1e-3, 4 * np.pi),
       n=st.integers(1, 8),
       b_over_j=st.sampled_from((1.0, 3.0, -2.5)) | st.floats(-5.0, 5.0),
       j_sign=st.sampled_from((-1, 1)),
       params=st.just(NoiseParams()) | noise_params(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_each_compiled_q2_phase_gate_carries_half_the_step(theta, n, b_over_j, j_sign,
                                                           params, seed):
    """A compiled Ising step repeats one Q2 phase gate, so each copy carries
    exactly half of the step's crosstalk and residual ZZ, subnormal angles
    included."""
    c = compile_ising(EvolutionParams(theta, n, b_over_j), j_sign=j_sign)
    rho0 = random_density(np.random.default_rng(seed))
    rho = simulate_noisy(c, params, rho0)
    half = kraus_reference(c, params, rho0, z_fraction=lambda g, step: 0.5)
    assert np.max(np.abs(rho - half)) <= 1e-12


def test_list_times_are_hashable_and_match_tuples():
    listed = NoiseParams(t1_us=[7.1, 6.7], t2_us=[5.4, 4.9])
    assert listed == NoiseParams() and hash(listed) == hash(NoiseParams())
    c = compile_ising(EvolutionParams(2.5, 3, 3.0))
    rho0 = np.outer(FIG3, FIG3.conj())
    rho = simulate_noisy(c, listed, rho0)
    assert np.max(np.abs(rho - kraus_reference(c, listed, rho0))) <= 1e-12
    assert_cptp_output(rho)


@settings(deadline=None)
@given(c=misleading_circuits(),
       params=st.just(NoiseParams()) | st.just(NOISE_OFF) | noise_params(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_misleading_n_steps_propagates_gate_by_gate(c, params, seed):
    rho0 = random_density(np.random.default_rng(seed))
    rho = simulate_noisy(c, params, rho0)
    assert np.max(np.abs(rho - kraus_reference(c, params, rho0))) <= 1e-12
    assert_cptp_output(rho)


@st.composite
def memo_call_sequences(draw):
    """Interleaved calls over two or three single-step circuits and noise parameters.

    The last circuit is a twin of the first: equal metadata, one more gate.
    The parameters include an equal but distinct ``NoiseParams``.
    """
    circuits = [compiled_circuit(draw(st.sampled_from(("xy", "heisenberg", "ising"))),
                                 draw(angles), 1, draw(st.floats(-5.0, 5.0)),
                                 draw(st.sampled_from((-1, 1))))
                for _ in range(draw(st.integers(1, 2)))]
    first = circuits[0]
    circuits.append(Circuit(2, first.gates + (draw(single_gates),), dict(first.metadata)))
    params = [NoiseParams(), NoiseParams(), draw(noise_params())]
    calls = draw(st.lists(st.tuples(
        st.integers(0, len(circuits) - 1), st.integers(0, len(params) - 1)),
        min_size=2, max_size=16))
    return circuits, params, calls


@settings(deadline=None, max_examples=150)
@given(sequence=memo_call_sequences(), seed=st.integers(0, 2 ** 32 - 1))
def test_memo_of_last_circuit_matches_fresh_call(sequence, seed):
    circuits, params, calls = sequence
    rng = np.random.default_rng(seed)
    results = []
    for i, k in calls:
        rho0 = random_density(rng)
        rho = simulate_noisy(circuits[i], params[k], rho0)
        results.append((Circuit(2, circuits[i].gates, circuits[i].metadata), params[k],
                        rho0, rho))
    # after the sequence, so that these calls leave its memo hits as they were;
    # a new circuit and a distinct NoiseParams cannot hit the memo
    for circuit, p, rho0, rho in results:
        fresh = simulate_noisy(circuit, dataclasses.replace(p), rho0)
        assert rho.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("index", [(0, 0), (1, 2)], ids=["diagonal", "off-diagonal"])
def test_nan_rho0_is_rejected_by_name(index):
    c, params = compiled_circuit("heisenberg", 0.7, 1, 0.0, -1), NoiseParams()
    rho0 = np.eye(4, dtype=complex) / 4
    simulate_noisy(c, params, rho0)  # the next call reuses this circuit's superoperator
    rho0[index] = math.nan
    with pytest.raises(ValueError, match="^rho0 is not Hermitian"):
        simulate_noisy(c, params, rho0)


def test_failed_resolution_is_not_remembered(monkeypatch):
    c, params = compiled_circuit("ising", 1.0, 1, 2.0, -1), NoiseParams()
    rho0 = np.outer(FIG3, FIG3.conj())
    expected = simulate_noisy(c, params, rho0)
    other = Circuit(2, c.gates, c.metadata)  # an equal circuit, but a new object

    def failing(*args):
        raise ValueError("no superoperator")

    with monkeypatch.context() as m:
        m.setattr(spinsim.noise, "_gate_superop", failing)
        for _ in range(2):
            with pytest.raises(ValueError, match="no superoperator"):
                simulate_noisy(other, params, rho0)
    assert simulate_noisy(c, params, rho0).tobytes() == expected.tobytes()


def test_ising_step_power_looks_up_one_step(monkeypatch):
    c = compile_ising(EvolutionParams(2.5, 1000, 3.0))
    assert len(c.gates) == 10000 and c.metadata["gates_per_step"] == 10
    lookups = []
    cached = spinsim.noise._gate_superop

    def counted(*args, **kwargs):
        lookups.append(args[0])
        return cached(*args, **kwargs)

    monkeypatch.setattr(spinsim.noise, "_gate_superop", counted)
    rho0 = np.outer(FIG3, FIG3.conj())
    rho = simulate_noisy(c, NoiseParams(), rho0)
    assert len(lookups) <= 10
    assert_cptp_output(rho)


@pytest.mark.parametrize("params", [NoiseParams(), NOISE_OFF],
                         ids=["noisy", "off"])
def test_empty_circuit_returns_rho0(params):
    rng = np.random.default_rng(5)
    for rho0 in (np.outer(FIG3, FIG3.conj()), random_density(rng), random_density(rng, rank=1)):
        rho = simulate_noisy(Circuit(2, ()), params, rho0)
        assert np.max(np.abs(rho - rho0)) <= 1e-15
        assert_cptp_output(rho)


def test_simulate_noisy_returns_fresh_writeable_array():
    rho0 = np.outer(FIG3, FIG3.conj())
    for c in (compile_ising(EvolutionParams(2.0, 1, 3.0)),
              compile_ising(EvolutionParams(2.0, 4, 3.0))):
        rho, again = (simulate_noisy(c, NoiseParams(), rho0) for _ in range(2))
        assert rho.flags.writeable and not np.shares_memory(rho, again)
        assert not np.shares_memory(rho, rho0)
        expected = again.copy()
        rho[...] = 0.0
        assert np.array_equal(simulate_noisy(c, NoiseParams(), rho0), expected)
