import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spinsim.noise
from spinsim.circuits import Circuit, EvolutionParams, Gate, circuit_unitary, \
    compile_ising, gate_unitary
from spinsim.linalg import kron, op_on_qubit
from spinsim.noise import (NoiseParams, THETA_TO_NS, TimingParams,
                           decoherence_kraus, depolarizing_kraus, gate_duration_ns,
                           predicted_fidelity, simulate_noisy, zz_error_unitary)
from spinsim.tomography import state_fidelity

from conftest import FIG3, compiled_circuit, misleading_circuits, random_density


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
        (10.0, 1e-320, 1e-320), (0.0, 1e-320, 1e-320), (math.inf, 7.1, 14.2),
    ], ids=str)
    def test_rejects_invalid_arguments_with_value_error(self, args):
        with pytest.raises(ValueError):
            decoherence_kraus(*args)


def composed_decoherence_kraus(duration_ns, t1_us=math.inf, t2_us=math.inf):
    """Reference: phase damping after amplitude damping, zero products dropped.

    The composition that ``decoherence_kraus`` replaced, kept verbatim so
    the closed form can be compared with it bit for bit.
    """
    def amplitude_damping_kraus(gamma):
        k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - gamma)]], dtype=complex)
        if gamma == 0.0:
            return [k0]
        return [k0, np.array([[0.0, math.sqrt(gamma)], [0.0, 0.0]], dtype=complex)]

    def dephasing_kraus(lam):
        k0 = np.array([[1.0, 0.0], [0.0, math.sqrt(1.0 - lam)]], dtype=complex)
        if lam == 0.0:
            return [k0]
        return [k0, np.array([[0.0, 0.0], [0.0, math.sqrt(lam)]], dtype=complex)]

    r1 = 0.0 if math.isinf(t1_us) else 1.0 / t1_us
    r2 = 0.0 if math.isinf(t2_us) else 1.0 / t2_us
    r_phi = max(r2 - r1 / 2.0, 0.0)
    t = duration_ns * 1e-3
    gamma = 1.0 - math.exp(-t * r1)
    lam = 1.0 - math.exp(-2.0 * t * r_phi)
    kraus = []
    for p in dephasing_kraus(lam):
        for a in amplitude_damping_kraus(gamma):
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
def test_decoherence_kraus_matches_composition_bit_for_bit(args):
    ks = decoherence_kraus(*args)
    ref = composed_decoherence_kraus(*args)
    assert len(ks) == len(ref)
    for k, r in zip(ks, ref):
        assert k.dtype == r.dtype and k.tobytes() == r.tobytes()


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
        d = gate_duration_ns(Gate.xy(np.pi), p, {})
        assert d == pytest.approx(THETA_TO_NS * np.pi + 32.0 + 40.0)

    def test_single_qubit_duration(self):
        p = NoiseParams()
        assert gate_duration_ns(Gate.rot("x", np.pi, 0), p, {}) == 24.0

    def test_rz_duration_from_step_metadata(self):
        p = NoiseParams()
        c = compile_ising(EvolutionParams(2.0, 4, 3.0))
        rz = next(g for g in c.gates if g.kind == "ROT" and g.axis == "z")
        d = gate_duration_ns(rz, p, c.metadata)
        # half of the step's allotted flux time plus the post-flux wait
        assert d == pytest.approx(THETA_TO_NS * 2.0 / (2 * 4) + 40.0)

    def test_wait_duration(self):
        p = NoiseParams()
        assert gate_duration_ns(Gate.wait(55.5), p, {}) == 55.5

    def test_durations_follow_timing(self):
        p = NoiseParams(timing=TimingParams(single_qubit_ns=30.0, buffer_ns=10.0,
                                            post_flux_wait_ns=60.0, theta_to_ns=2.0))
        assert gate_duration_ns(Gate.xy(np.pi), p, {}) == pytest.approx(
            2.0 * np.pi + 20.0 + 60.0)
        assert gate_duration_ns(Gate.rot("y", 1.0, 1), p, {}) == 30.0
        # a z gate without field metadata takes the single-qubit pulse length
        assert gate_duration_ns(Gate.rot("z", 1.0, 0), p, {}) == 90.0


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
        rho = simulate_noisy(c, NoiseParams.off(), rho0)
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


def step_z_fraction(g, meta):
    """The gate's share of the step's z rotation |B| theta / (2 n)."""
    full = (abs(float(meta.get("b_over_j", 0.0))) * float(meta.get("theta", 0.0))
            / (2.0 * int(meta.get("n_steps", 1))))
    return abs(g.angle) / full if full > 0.0 else 1.0


def kraus_reference(circuit, params, rho0):
    """Gate-by-gate Kraus sums: the engine that the cached superoperators replace."""
    def apply(rho, kraus):
        out = np.zeros_like(rho)
        for k in kraus:
            out += k @ rho @ k.conj().T
        return out

    meta = circuit.metadata
    j_sign = int(meta.get("j_sign", -1))
    p_depol = 2.0 * (1.0 - params.single_qubit_fidelity)
    rho = np.asarray(rho0, dtype=complex)
    for g in circuit.gates:
        rho = apply(rho, [gate_unitary(g, j_sign)])
        if g.kind == "XY":
            rho = apply(rho, [zz_error_unitary(params.jz_tilde_angle_deg)])
        if g.kind == "ROT" and g.axis == "z" and g.qubit == 1:
            frac = step_z_fraction(g, meta)
            rho = apply(rho, [zz_error_unitary(params.jz_tilde_angle_deg * frac)])
            a = math.radians(params.crosstalk_phase_deg * frac)
            rho = apply(rho, [gate_unitary(Gate.rot("z", a, 1))])
        if g.kind == "ROT" and g.axis in ("x", "y"):
            rho = apply(rho, [op_on_qubit(k, g.qubit)
                              for k in depolarizing_kraus(p_depol)])
        dur = gate_duration_ns(g, params, meta)
        ka = decoherence_kraus(dur, params.t1_us[0], params.t2_us[0])
        kb = decoherence_kraus(dur, params.t1_us[1], params.t2_us[1])
        rho = apply(rho, [kron(a, b) for a in ka for b in kb])
    return (rho + rho.conj().T) / 2.0


def matvec_reference(circuit, params, rho0):
    """Each gate's cached superoperator applied to vec(rho0) in turn."""
    meta = circuit.metadata
    j_sign = int(meta.get("j_sign", -1))
    vec = np.asarray(rho0, dtype=complex).reshape(-1)
    for g in circuit.gates:
        z_frac = (step_z_fraction(g, meta)
                  if g.kind == "ROT" and g.axis == "z" and g.qubit == 1 else 0.0)
        vec = spinsim.noise._gate_superop(
            g, j_sign, z_frac, gate_duration_ns(g, params, meta), params) @ vec
    rho = vec.reshape(4, 4)
    return (rho + rho.conj().T) / 2.0


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


@settings(deadline=None)
@given(protocol=st.sampled_from(("xy", "heisenberg", "ising")),
       theta=st.just(0.0) | st.floats(min_value=0.0, max_value=4 * np.pi),
       n=st.integers(min_value=1, max_value=30),
       b_over_j=st.floats(min_value=-5.0, max_value=5.0),
       j_sign=st.sampled_from((-1, 1)),
       params=st.just(NoiseParams()) | st.just(NoiseParams.off()) | noise_params(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_superoperator_engine_matches_kraus_reference(protocol, theta, n, b_over_j,
                                                       j_sign, params, seed):
    c = compiled_circuit(protocol, theta, n, b_over_j, j_sign)
    rho0 = random_density(np.random.default_rng(seed))
    rho = simulate_noisy(c, params, rho0)
    assert np.max(np.abs(rho - kraus_reference(c, params, rho0))) <= 1e-12
    assert_cptp_output(rho)


@settings(deadline=None)
@given(protocol=st.sampled_from(("xy", "heisenberg", "ising")),
       theta=st.just(0.0) | st.floats(min_value=0.0, max_value=4 * np.pi),
       b_over_j=st.floats(min_value=-5.0, max_value=5.0),
       j_sign=st.sampled_from((-1, 1)),
       params=st.just(NoiseParams()) | st.just(NoiseParams.off()) | noise_params(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_single_step_circuits_propagate_gate_by_gate(protocol, theta, b_over_j,
                                                      j_sign, params, seed):
    # tomography runs these shallow circuits: one superoperator per gate, no product
    c = compiled_circuit(protocol, theta, 1, b_over_j, j_sign)
    rho0 = random_density(np.random.default_rng(seed))
    rho = simulate_noisy(c, params, rho0)
    assert rho.tobytes() == matvec_reference(c, params, rho0).tobytes()


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
       params=st.just(NoiseParams()) | st.just(NoiseParams.off()) | noise_params(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_misleading_n_steps_propagates_gate_by_gate(c, params, seed):
    rho0 = random_density(np.random.default_rng(seed))
    rho = simulate_noisy(c, params, rho0)
    assert np.max(np.abs(rho - kraus_reference(c, params, rho0))) <= 1e-12
    assert_cptp_output(rho)
    # no repeated step: the gate-by-gate loop, bit for bit
    assert rho.tobytes() == matvec_reference(c, params, rho0).tobytes()


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
