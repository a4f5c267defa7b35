import copy
import math
import pickle
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import spinsim.circuits
from spinsim.circuits import (Circuit, EvolutionParams, Gate, circuit_from_text,
                              circuit_matrix, circuit_to_text, circuit_unitary,
                              compile_heisenberg, compile_ising, compile_xy,
                              gate_unitary, phase_distance, trotter_fidelity)
from spinsim.device import TimingParams
from spinsim.hamiltonians import (SpinModelSpec, build_hamiltonian, build_heisenberg,
                                  build_ising, exact_evolve, oracle_hamiltonian)
from spinsim.ir import MAX_STEPS
from spinsim.linalg import SX, SZ, herm_expm, kron, op_on_qubit
from spinsim.noise import NoiseParams, simulate_noisy
from spinsim.scheduler import schedule, timeline_to_csv

from conftest import (FIG2, FIG3, ISWAP, SQRT_ISWAP, SWAP, compiled_circuit,
                      misleading_circuits)


class TestGateUnitary:
    def test_xy_zero_is_identity(self):
        assert np.allclose(gate_unitary(Gate.xy(0.0)), np.eye(4), atol=1e-14)

    def test_xy_pi_is_iswap(self):
        assert np.max(np.abs(gate_unitary(Gate.xy(np.pi)) - ISWAP)) < 1e-12

    def test_xy_half_pi_is_sqrt_iswap(self):
        assert np.max(np.abs(gate_unitary(Gate.xy(np.pi / 2)) - SQRT_ISWAP)) < 1e-12

    def test_xy_matches_exchange_exponential(self):
        for j_sign in (-1, 1):
            for theta in (0.3, 1.2, np.pi, 5.0):
                h = build_hamiltonian(SpinModelSpec.xy(j_sign=j_sign))
                u = herm_expm(h, theta / 2)
                g = gate_unitary(Gate.xy(theta), j_sign=j_sign)
                assert np.max(np.abs(g - u)) < 1e-12

    def test_rot_matches_exponential(self, rng):
        from spinsim.linalg import PAULIS_1Q

        for axis in ("x", "y", "z"):
            for qubit in (0, 1):
                angle = rng.uniform(-2 * np.pi, 2 * np.pi)
                g = gate_unitary(Gate.rot(axis, angle, qubit))
                h = op_on_qubit(PAULIS_1Q[axis], qubit)
                assert np.max(np.abs(g - herm_expm(h, angle / 2))) < 1e-12

    def test_sign_flip_is_z_conjugation(self):
        # conjugating by Z on either qubit flips the coupling sign
        for theta in (0.4, np.pi / 2, 2.8):
            plus = gate_unitary(Gate.xy(theta), j_sign=1)
            minus = gate_unitary(Gate.xy(theta), j_sign=-1)
            for q in (0, 1):
                z = op_on_qubit(SZ, q)
                assert np.max(np.abs(z @ plus @ z - minus)) < 1e-12

    def test_wait_is_identity(self):
        assert np.array_equal(gate_unitary(Gate("WAIT", duration_ns=100.0)), np.eye(4))

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            Gate.rot("q", 1.0, 0)

    def test_negative_theta_rejected(self):
        with pytest.raises(ValueError):
            Gate.xy(-0.1)


# invalid gates: a valid gate and the fields that break it
BAD_GATES = [
    pytest.param(Gate.xy(1.0), {"theta": -1.0}, id="xy-negative-theta"),
    pytest.param(Gate.rot("x", 1.0, 1), {"axis": "q"}, id="rot-unknown-axis"),
    pytest.param(Gate.rot("x", 1.0, 1), {"qubit": 2}, id="rot-qubit-2"),
    pytest.param(Gate.rot("x", 1.0, 1), {"qubit": -1}, id="rot-qubit-negative"),
    pytest.param(Gate.rot("x", 1.0, 1), {"angle": float("nan")}, id="rot-nan-angle"),
    pytest.param(Gate("WAIT", duration_ns=5.0), {"duration_ns": -1.0}, id="wait-negative"),
    pytest.param(Gate("WAIT", duration_ns=5.0), {"duration_ns": float("inf")}, id="wait-inf"),
    pytest.param(Gate.xy(1.0), {"kind": "SWAP"}, id="unknown-kind"),
]


class TestGateContract:
    def test_fields_defaults_and_construction_order(self):
        assert Gate._fields == ("kind", "theta", "axis", "angle", "qubit", "duration_ns")
        assert Gate._field_defaults == {"theta": 0.0, "axis": "", "angle": 0.0,
                                        "qubit": 0, "duration_ns": 0.0}
        g = Gate.rot("y", 0.5, 1)
        assert g == Gate("ROT", 0.0, "y", 0.5, 1, 0.0) == Gate(
            kind="ROT", axis="y", angle=0.5, qubit=1)
        assert Gate.xy(2.0) == Gate("XY", 2.0)
        assert (g.kind, g.theta, g.axis, g.angle, g.qubit, g.duration_ns) == tuple(g)
        assert repr(g) == ("Gate(kind='ROT', theta=0.0, axis='y', angle=0.5, qubit=1, "
                           "duration_ns=0.0)")

    def test_immutable_and_hashable(self):
        g = Gate.xy(1.0)
        with pytest.raises(AttributeError):
            g.theta = 2.0
        with pytest.raises(AttributeError):
            g.extra = 1
        assert hash(g) == hash(Gate.xy(1.0)) and {g, Gate.xy(1.0)} == {g}
        # a gate equals the plain tuple of its fields
        assert g == ("XY", 1.0, "", 0.0, 0, 0.0)

    @pytest.mark.parametrize("valid, change", BAD_GATES)
    def test_every_way_of_building_checks(self, valid, change):
        fields = {**valid._asdict(), **change}
        for build in (lambda: Gate(*fields.values()), lambda: Gate(**fields),
                      lambda: Gate._make(fields.values()), lambda: valid._replace(**change)):
            with pytest.raises(ValueError):
                build()

    def test_replace_and_make_build_valid_gates(self):
        g = Gate.rot("x", 1.0, 0)._replace(qubit=1)
        assert type(g) is Gate and g == Gate.rot("x", 1.0, 1)
        assert Gate._make(tuple(g)) == g and type(Gate._make(tuple(g))) is Gate
        with pytest.raises(ValueError, match="unexpected field"):
            g._replace(qbit=1)

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_unpickling_checks(self, protocol):
        g = Gate.xy(1.5)
        data = pickle.dumps(g, protocol)
        back = pickle.loads(data)
        assert back == g and type(back) is Gate
        # the same bytes with theta = -1.5 fail the check when loaded
        old, new = ((b"F1.5", b"F-1.5") if protocol == 0
                    else (struct.pack(">d", 1.5), struct.pack(">d", -1.5)))
        assert data.count(old) == 1
        with pytest.raises(ValueError, match="non-negative"):
            pickle.loads(data.replace(old, new))

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_circuit_pickles_and_deep_copies(self, protocol):
        c = compile_ising(EvolutionParams(1.1, 4, -2.5), j_sign=1)
        for back in (pickle.loads(pickle.dumps(c, protocol)), copy.deepcopy(c)):
            assert back == c and type(back) is Circuit
            assert back.step == c.step and back.step[1] == 4
            assert repr(dict(back.metadata)) == repr(dict(c.metadata))
            assert (back.j_sign, back.b_over_j) == (c.j_sign, c.b_over_j)
            # the copy keeps the shared gate objects of its repeated step
            assert all(a is b for a, b in zip(back.gates, back.step[0] * 4))
            with pytest.raises(TypeError):
                back.metadata["j_sign"] = -1

    def test_equal_gates_share_one_cache_entry(self):
        a, b = Gate.rot("y", 0.123456789, 1), Gate.rot("y", 0.123456789, 1)
        assert a is not b
        before = gate_unitary.cache_info()
        assert gate_unitary(a) is gate_unitary(b)
        after = gate_unitary.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)

    def test_qubit_range_is_checked_by_the_gate(self):
        with pytest.raises(ValueError, match="targets qubit 2 of 2"):
            Gate.rot("x", 1.0, 2)
        with pytest.raises(ValueError, match="non-negative"):
            Gate.rot("z", 1.0, -1)
        # only a rotation targets a qubit
        assert Gate("XY", 1.0, qubit=5).qubit == 5


@pytest.mark.parametrize("make", [
    lambda: Circuit(1, ()),
    lambda: Circuit(3, (Gate.xy(1.0),)),
    lambda: circuit_from_text("# n_qubits=3\nXY theta=1.0\n"),
    lambda: Circuit(2, (Gate.rot("x", 1.0, 2),)),
], ids=["one-qubit", "three-qubit", "three-qubit-text", "qubit-out-of-range"])
def test_circuit_is_two_qubit(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("meta", [
    {"n_steps": 0}, {"n_steps": 2.5}, {"j_sign": 5}, {"b_over_j": math.nan},
    {"b_over_j": "x"}, {"b_over_j": 10 ** 400}, {"j_sign": True}, {"n_steps": True},
    {"b_over_j": False}, {"theta": False}, {"n_steps": 10 ** 400}],
    ids=["n_steps-0", "n_steps-2.5", "j_sign-5", "b_over_j-nan", "b_over_j-text",
         "b_over_j-beyond-float", "j_sign-bool", "n_steps-bool", "b_over_j-bool",
         "theta-bool", "n_steps-beyond-float"])
def test_circuit_rejects_a_bad_header_by_name(meta):
    with pytest.raises(ValueError, match=f"^{' and '.join(meta)} "):
        Circuit(2, (Gate.xy(1.0), Gate.rot("z", 0.3, 1)), meta)


@pytest.mark.parametrize("theta", [math.nan, math.inf, 10 ** 400, "x"],
                         ids=["nan", "inf", "beyond-float", "text"])
def test_bad_header_theta_fails_at_construction(theta):
    # theta is checked when the circuit is built, like the other header keys;
    # the noise model takes a step's z rotation from its gates, not from theta
    c = compile_ising(EvolutionParams(1.0, 2, 2.0))
    with pytest.raises(ValueError, match="^theta "):
        Circuit(2, c.gates, {**c.metadata, "theta": theta})


def test_typed_header_fields():
    c = compile_ising(EvolutionParams(1.5, 3, -2.0), j_sign=1)
    assert (c.j_sign, c.b_over_j) == (1, -2.0)
    bare = Circuit(2, (Gate.xy(1.0),))
    assert (bare.j_sign, bare.b_over_j) == (-1, 0.0)


def test_circuit_is_a_read_only_object_not_a_tuple():
    c = Circuit(2, (Gate.xy(1.0),), {"j_sign": 1})
    assert Circuit(n_qubits=2, gates=c.gates, metadata={"j_sign": 1}) == c
    assert Circuit(2, c.gates).metadata == {}
    assert c.gates is c.step[0] and c.step[1] == 1  # one step: gates is that tuple
    with pytest.raises(TypeError):
        hash(c)
    for name in ("n_qubits", "gates", "metadata", "step", "j_sign", "b_over_j", "extra"):
        with pytest.raises(AttributeError):
            setattr(c, name, None)
        with pytest.raises(AttributeError):
            delattr(c, name)
    assert c != (2, c.gates, c.metadata) and c != Circuit(2, c.gates)
    with pytest.raises(TypeError):
        len(c)
    with pytest.raises(TypeError):
        iter(c)
    assert repr(c) == ("Circuit(n_qubits=2, gates=(Gate(kind='XY', theta=1.0, axis='', "
                       "angle=0.0, qubit=0, duration_ns=0.0),), "
                       "metadata=mappingproxy({'j_sign': 1}))")


def test_circuit_header_is_a_read_only_copy():
    meta = {"j_sign": -1, "n_steps": 1}
    c = Circuit(2, (Gate.xy(1.0), Gate.rot("z", 0.3, 1)), meta)
    with pytest.raises(TypeError):
        c.metadata["j_sign"] = 1
    meta["j_sign"] = 1  # the caller's dict is not the header
    assert c.metadata["j_sign"] == -1


def test_circuit_keeps_its_own_copy_of_the_gates():
    """A list of gates is copied into a tuple, so a change to the caller's
    list reaches neither the circuit nor its noisy or ideal runs; a tuple is
    kept as it is."""
    gates = [Gate.xy(1.0), Gate.rot("x", math.pi, 0)]
    c = Circuit(2, gates)
    assert type(c.gates) is tuple and c.gates == tuple(gates)
    assert c == Circuit(2, tuple(gates))
    rho0 = np.outer(FIG2, FIG2.conj())
    noisy, ideal = simulate_noisy(c, NoiseParams(), rho0), circuit_unitary(c)
    gates.append(Gate.rot("y", 1.0, 1))
    assert len(c.gates) == 2 and c.step == (c.gates, 1)
    assert np.array_equal(circuit_unitary(c), ideal)
    assert np.array_equal(simulate_noisy(Circuit(2, c.gates), NoiseParams(), rho0), noisy)
    longer = tuple(gates)
    assert Circuit(2, longer).gates is longer


class TestCircuitUnitary:
    def test_empty_circuit(self):
        c = Circuit(2, ())
        assert np.array_equal(circuit_unitary(c), np.eye(4))

    def test_same_generator_composition(self):
        c = Circuit(2, (Gate.xy(np.pi / 2), Gate.xy(np.pi / 2)))
        assert np.max(np.abs(circuit_unitary(c) - gate_unitary(Gate.xy(np.pi)))) < 1e-12

    def test_gate_order_first_applied_first(self):
        c = Circuit(2, (Gate.rot("x", np.pi / 2, 0), Gate.rot("z", np.pi / 2, 0)))
        u = (gate_unitary(Gate.rot("z", np.pi / 2, 0))
             @ gate_unitary(Gate.rot("x", np.pi / 2, 0)))
        assert np.max(np.abs(circuit_unitary(c) - u)) < 1e-14

    def test_compiled_circuits_unitary(self):
        for c in (compile_heisenberg(EvolutionParams(1.1)),
                  compile_ising(EvolutionParams(2.3, 3, 3.0))):
            u = circuit_unitary(c)
            assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-10)


def per_gate_unitary(c):
    """Reference: every gate's unitary multiplied in, first gate first."""
    j_sign = int(c.metadata.get("j_sign", -1))
    u = np.eye(4, dtype=complex)
    for g in c.gates:
        u = gate_unitary(g, j_sign) @ u
    return u


@settings(deadline=None)
@given(protocol=st.sampled_from(("xy", "heisenberg", "ising")),
       theta=st.just(0.0) | st.floats(min_value=0.0, max_value=4 * np.pi),
       n=st.integers(min_value=1, max_value=60),
       b_over_j=st.floats(min_value=-5.0, max_value=5.0),
       j_sign=st.sampled_from((-1, 1)))
def test_step_power_matches_per_gate_product(protocol, theta, n, b_over_j, j_sign):
    c = compiled_circuit(protocol, theta, n, b_over_j, j_sign)
    step, k = c.step
    assert step * k == c.gates
    assert k == (n if protocol == "ising" else 1)
    assert np.max(np.abs(circuit_unitary(c) - per_gate_unitary(c))) <= 1e-12


@settings(deadline=None)
@given(c=misleading_circuits())
def test_misleading_n_steps_is_the_per_gate_product(c):
    assert c.step == (c.gates, 1)
    assert circuit_unitary(c).tobytes() == per_gate_unitary(c).tobytes()


def test_ising_step_power_looks_up_one_step(monkeypatch):
    c = compile_ising(EvolutionParams(2.5, 1000, 3.0))
    assert len(c.gates) == 10000 and c.metadata["gates_per_step"] == 10
    lookups = []
    cached = spinsim.circuits.gate_unitary

    def counted(*args, **kwargs):
        lookups.append(args[0])
        return cached(*args, **kwargs)

    monkeypatch.setattr(spinsim.circuits, "gate_unitary", counted)
    u = circuit_unitary(c)
    assert len(lookups) <= 10
    assert np.max(np.abs(u - per_gate_unitary(c))) <= 1e-12


def test_gate_unitary_is_read_only():
    u = gate_unitary(Gate.rot("x", 0.3, 1))
    assert not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 2.0
    assert gate_unitary(Gate.rot("x", 0.3, 1)) is u


def test_gate_unitary_rejects_bad_coupling_sign():
    with pytest.raises(ValueError, match="j_sign"):
        gate_unitary(Gate.xy(1.0), j_sign=5)


@pytest.mark.parametrize("c", [
    Circuit(2, ()),
    compile_xy(EvolutionParams(1.0)),
    compile_ising(EvolutionParams(2.0, 4, 3.0)),
    Circuit(2, (Gate.xy(1.0),) * 3, {"n_steps": 2}),
], ids=["empty", "xy", "ising-n4", "misleading"])
def test_circuit_unitary_returns_fresh_writeable_array(c):
    u, v = circuit_unitary(c), circuit_unitary(c)
    assert u.flags.writeable and not np.shares_memory(u, v)
    expected = v.copy()
    u[...] = 0.0
    assert np.array_equal(circuit_unitary(c), expected)


def test_circuit_matrix_copies_a_one_gate_circuit():
    """The per-circuit composer does not hand back the cached, read-only
    matrix of a circuit's only gate."""
    c = compile_xy(EvolutionParams(1.0))
    cached = gate_unitary(c.gates[0], c.j_sign)
    m = circuit_matrix(c, lambda g: gate_unitary(g, c.j_sign), 4)
    assert len(c.gates) == 1 and np.array_equal(m, cached)
    assert m.flags.writeable and not np.shares_memory(m, cached)


# one drawn circuit: a compiled protocol (ising with n up to 25), its dump
# parsed back, or the empty circuit
angles = st.sampled_from((0.0, 5e-324)) | st.floats(min_value=0.0, max_value=4 * np.pi)
compiled_circuits = st.builds(compiled_circuit, st.sampled_from(("xy", "heisenberg", "ising")),
                              angles, st.integers(min_value=1, max_value=25),
                              st.just(0.0) | st.floats(min_value=-5.0, max_value=5.0),
                              st.sampled_from((-1, 1)))
mixed_circuits = st.lists(
    compiled_circuits
    | compiled_circuits.map(lambda c: circuit_from_text(circuit_to_text(c)))
    | st.just(Circuit(2, ())), min_size=1, max_size=8)


@settings(deadline=None)
@given(cs=mixed_circuits)
def test_stacked_unitaries_are_the_single_calls(cs):
    stack = circuit_unitary(cs)
    assert stack.shape == (len(cs), 4, 4) and stack.flags.writeable
    for c, u in zip(cs, stack):
        assert u.tobytes() == circuit_unitary(c).tobytes()
        assert np.max(np.abs(u - per_gate_unitary(c))) <= 1e-12
    assert circuit_unitary(c for c in cs).tobytes() == stack.tobytes()
    single, again = circuit_unitary(cs[0]), circuit_unitary(cs[0])
    assert single.shape == (4, 4) and single.flags.writeable
    assert not np.shares_memory(single, again)


def test_no_circuits_give_an_empty_stack():
    assert circuit_unitary([]).shape == (0, 4, 4)


def test_compile_xy_matches_exchange_oracle():
    for j_sign in (-1, 1):
        for theta in (0.0, 0.7, np.pi, 5.9):
            u = circuit_unitary(compile_xy(EvolutionParams(theta), j_sign=j_sign))
            h = oracle_hamiltonian("xy", 0.0, j_sign)
            assert np.max(np.abs(u - herm_expm(h, theta / 2.0))) < 1e-12


class TestCompileHeisenberg:
    def test_matches_isotropic_oracle(self):
        spec = SpinModelSpec.heisenberg(1, 1, 1, j_sign=-1)
        h = build_heisenberg(spec)
        for k in range(1, 21):
            theta = 0.1 * k * np.pi
            u = circuit_unitary(compile_heisenberg(EvolutionParams(theta)))
            assert np.max(np.abs(u - herm_expm(h, theta / 2))) < 1e-9

    def test_swap_at_quarter_turn(self):
        u = circuit_unitary(compile_heisenberg(EvolutionParams(np.pi / 2)))
        assert phase_distance(u, SWAP) < 1e-9

    def test_identity_at_half_turn(self):
        u = circuit_unitary(compile_heisenberg(EvolutionParams(np.pi)))
        assert phase_distance(u, np.eye(4)) < 1e-9

    def test_three_exchange_blocks(self):
        c = compile_heisenberg(EvolutionParams(0.7))
        assert sum(g.kind == "XY" for g in c.gates) == 3


class TestCompileIsing:
    def test_pure_coupling_is_exact(self):
        # the two exchange blocks commute, so zero field is exact for any n
        for theta in (0.7, np.pi, 3 * np.pi / 2):
            for n in (1, 2, 5):
                c = compile_ising(EvolutionParams(theta, n, 0.0))
                h = build_ising(SpinModelSpec.ising(jx=1.0, b=0.0, j_sign=-1))
                assert phase_distance(circuit_unitary(c), herm_expm(h, theta / 2)) < 1e-10

    def test_echo_block_is_pure_xx(self):
        # pi-sandwiched exchange pair equals the XX exponential alone
        for theta in (0.5, np.pi, 4.0):
            for n in (1, 3):
                s = theta / n
                block = Circuit(2, (Gate.xy(s), Gate.rot("x", np.pi, 0),
                                    Gate.xy(s), Gate.rot("x", np.pi, 0)))
                target = herm_expm(-kron(SX, SX), s / 2.0)  # J = -1
                assert phase_distance(circuit_unitary(block), target) < 1e-10

    def test_field_block_matches_pure_precession(self):
        # per-step z rotations reproduce the field exponential exactly
        theta, n, b = 1.3, 4, 3.0
        c = compile_ising(EvolutionParams(theta, n, b))
        rz = [g for g in c.gates if g.kind == "ROT" and g.axis == "z"]
        assert len(rz) == 4 * n
        assert all(g.angle == pytest.approx(-b * theta / (4 * n)) for g in rz)
        pair = (gate_unitary(rz[0]) @ gate_unitary(rz[1]))
        field = build_ising(SpinModelSpec.ising(jx=0.0, b=-b, j_sign=-1))
        assert np.max(np.abs(pair @ pair - herm_expm(field, theta / (2 * n)))) < 1e-12

    def test_refocusing_pair_is_net_identity(self):
        c = compile_ising(EvolutionParams(1.0, 2, 3.0))
        q2_pi = [g for g in c.gates
                 if g.kind == "ROT" and g.axis == "x" and g.qubit == 1]
        assert len(q2_pi) == 4  # one adjacent pair per step
        u = gate_unitary(q2_pi[0]) @ gate_unitary(q2_pi[1])
        assert phase_distance(u, np.eye(4)) < 1e-12

    def test_fidelity_small_angle_single_step(self):
        f = trotter_fidelity(EvolutionParams(np.pi / 4, 1, 3.0), FIG3)
        assert f > 0.98

    def test_fidelity_table_against_oracle(self):
        # frozen oracle values for the symmetric step
        expected = [0.995517250317, 0.999776493028, 0.999957640618,
                    0.999986789307, 0.999994624881]
        for n, ref in enumerate(expected, start=1):
            f = trotter_fidelity(EvolutionParams(np.pi / 4, n, 3.0), FIG3)
            assert f == pytest.approx(ref, abs=1e-9)

    def test_large_n_limit(self):
        f = trotter_fidelity(EvolutionParams(3 * np.pi / 2, 40, 3.0), FIG3)
        assert 1.0 - f < 1e-3

    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError):
            EvolutionParams(1.0, 0, 3.0)


class TestTrotterFidelity:
    def test_monotone_convergence(self):
        fids = [trotter_fidelity(EvolutionParams(np.pi, n, 3.0), FIG3)
                for n in range(1, 33)]
        diffs = np.diff(fids)
        assert all(d > -1e-12 for d in diffs[3:])
        assert fids[-1] > 0.999

    def test_more_steps_beat_one_at_large_angle(self):
        f1 = trotter_fidelity(EvolutionParams(3 * np.pi / 2, 1, 3.0), FIG3)
        f5 = trotter_fidelity(EvolutionParams(3 * np.pi / 2, 5, 3.0), FIG3)
        assert f5 > f1

    def test_convergence_is_power_law(self):
        # symmetric stepping: state infidelity falls off as 1/n^4
        ns = np.array([4, 8, 16, 32, 64])
        infid = np.array([1.0 - trotter_fidelity(EvolutionParams(np.pi, int(n), 3.0), FIG3)
                          for n in ns])
        slope = np.polyfit(np.log(ns), np.log(infid), 1)[0]
        assert -4.5 < slope < -3.5

    def test_coupling_sign_flip_with_conjugate_state(self):
        # flipping the coupling sign and conjugating the initial state leaves
        # the z observables of the protocol invariant
        ztot = [op_on_qubit(SZ, q) for q in (0, 1)]
        for theta in (0.9, 2.2):
            c_minus = compile_ising(EvolutionParams(theta, 3, 3.0), j_sign=-1)
            c_plus = compile_ising(EvolutionParams(theta, 3, 3.0), j_sign=1)
            psi_m = circuit_unitary(c_minus) @ FIG3
            psi_p = circuit_unitary(c_plus) @ FIG3.conj()
            for z in ztot:
                em = np.vdot(psi_m, z @ psi_m).real
                ep = np.vdot(psi_p, z @ psi_p).real
                assert abs(em - ep) < 1e-9


def gauged_distance(u, v):
    """min over phi of the spectral norm of u - e^{i phi} v, for unitaries.

    u - e^{i phi} v = v (v^dag u - e^{i phi}) and v^dag u is unitary with
    eigenphases a_k, so the best phi bisects the shortest arc holding every
    a_k; for an arc of width w that leaves 2 sin(w / 4).
    """
    a = np.sort(np.angle(np.linalg.eigvals(v.conj().T @ u)))
    gaps = np.diff(np.append(a, a[0] + 2.0 * np.pi))
    return 2.0 * np.sin((2.0 * np.pi - gaps.max()) / 4.0)


def commutator(a, b):
    return a @ b - b @ a


# The rounding floor of an n-step circuit is ROUNDING_C * n * eps: the step's
# matrix power drifts by about n * eps.  18,000 random draws of theta, B/J,
# j_sign and a log-uniform n up to MAX_STEPS needed at most 1.1 * n * eps
# beyond the Trotter bound.
ROUNDING_C = 4.0


@settings(deadline=None, max_examples=300)
@given(protocol=st.sampled_from(("xy", "heisenberg", "ising")),
       theta=st.just(0.0) | st.floats(min_value=0.0, max_value=4 * np.pi),
       n=st.floats(min_value=0.0, max_value=math.log10(MAX_STEPS)).map(lambda e: int(10 ** e)),
       b_over_j=st.floats(min_value=-5.0, max_value=5.0),
       j_sign=st.sampled_from((-1, 1)))
@example(protocol="ising", theta=np.pi, n=MAX_STEPS, b_over_j=3.0, j_sign=-1)
def test_circuit_error_within_trotter_bound(protocol, theta, n, b_over_j, j_sign):
    # The Ising step is the symmetric splitting e^{-iAh/2} e^{-iBh} e^{-iAh/2}
    # of H = A + B, field A outside, coupling B inside, h = t/n; its error
    # after n steps is at most n h^3 (||[B,[B,A]]||/12 + ||[A,[A,B]]||/24)
    # (Childs et al., arXiv:1912.08854), plus the rounding floor, with n
    # drawn log-uniformly in [1, MAX_STEPS].  XY and Heisenberg are exact.
    c = compiled_circuit(protocol, theta, n, b_over_j, j_sign)
    h = oracle_hamiltonian(protocol, b_over_j, j_sign)
    t = theta / 2.0
    exact = np.column_stack([exact_evolve(h, t, e) for e in np.eye(4)])
    err = gauged_distance(circuit_unitary(c), exact)
    if protocol != "ising":
        assert err <= 1e-12
        return
    coupling = oracle_hamiltonian("ising", 0.0, j_sign)
    field = h - coupling
    bound = n * (t / n) ** 3 * (
        np.linalg.norm(commutator(coupling, commutator(coupling, field)), 2) / 12.0
        + np.linalg.norm(commutator(field, commutator(field, coupling)), 2) / 24.0)
    assert err <= bound + max(1e-12, ROUNDING_C * n * np.finfo(float).eps)


# The protocols at several sizes, and a hand-built circuit with WAIT gates,
# signed zeros and a subnormal angle.
ROUND_TRIP_CIRCUITS = [compiled_circuit(*args) for args in (
    ("xy", 1.234, 1, 0.0, -1), ("heisenberg", 0.1 + 0.2, 1, 0.0, 1),
    ("ising", 1.234, 2, 3.0, -1), ("ising", np.pi / 2, 200, -2.5, 1),
    ("ising", 2.2, 57, 1e-3, -1))] + [
    Circuit(2, (Gate("WAIT", duration_ns=12.5), Gate.rot("z", -0.0, 1), Gate.xy(0.1 + 0.2),
                Gate.rot("z", -0.0, 1), Gate("WAIT", duration_ns=0.0),
                Gate.rot("x", -5e-324, 0)),
            {"protocol": "hand", "b_over_j": -0.0})]


class TestSerialization:
    def test_round_trip(self):
        # repr writes every float so that it parses back to the same bits
        for c in ROUND_TRIP_CIRCUITS:
            c2 = circuit_from_text(circuit_to_text(c))
            assert c2 == c
            assert repr(c2.gates) == repr(c.gates)  # -0.0 keeps its sign
            assert repr(dict(c2.metadata)) == repr(dict(sorted(c.metadata.items())))

    def test_repeated_lines_share_one_gate(self):
        c = compile_ising(EvolutionParams(np.pi / 2, 200, 3.0))
        c2 = circuit_from_text(circuit_to_text(c))
        # one Gate per distinct line: rz on each qubit, xy, and x on each qubit
        assert len({id(g) for g in c2.gates}) == len(set(c2.gates)) == 5
        step, n = c2.step
        assert (step, n) == (c.gates[:10], 200)
        assert all(a is b for a, b in zip(c2.gates, step * n))

    @pytest.mark.parametrize("theta, b_over_j, distinct", [
        (np.pi / 2, 3.0, 5), (np.pi / 2, 0.0, 3), (0.0, 3.0, 3), (1.1, -2.5, 5)])
    def test_ising_step_shares_its_gate_objects(self, theta, b_over_j, distinct):
        c = compile_ising(EvolutionParams(theta, 2, b_over_j))
        c2 = circuit_from_text(circuit_to_text(c))
        for circ in (c, c2):
            step, n = circ.step
            assert n == 2 and len({id(g) for g in step}) == distinct
            assert all(a is b for a, b in zip(circ.gates, step * n))
        # the same pattern of shared objects, gate by gate
        first = [[next(i for i, h in enumerate(circ.gates) if h is g) for g in circ.gates]
                 for circ in (c, c2)]
        assert first[0] == first[1]
        assert c2.step == c.step
        # sharing does not change a dump: fresh objects per gate dump the same
        unshared = Circuit(2, tuple(Gate(*g) for g in c.gates), c.metadata)
        assert circuit_to_text(unshared) == circuit_to_text(c)

    def test_shared_dump_reschedules_to_the_golden_timeline(self):
        c = circuit_from_text(circuit_to_text(compile_ising(EvolutionParams(np.pi / 2, 2, 3.0))))
        golden = Path(__file__).parent / "golden" / "ising_theta_pi2_n2_timeline.csv"
        assert timeline_to_csv(schedule(c, TimingParams())) == golden.read_text()

    def test_heisenberg_reuses_its_one_xy_gate(self):
        c = compile_heisenberg(EvolutionParams(0.7))
        xys = [g for g in c.gates if g.kind == "XY"]
        assert len(xys) == 3 and all(g is xys[0] for g in xys)

    def test_gate_line_format(self):
        c = Circuit(2, (Gate.xy(1.5), Gate.rot("y", -0.25, 1), Gate("WAIT", duration_ns=40.0)))
        text = circuit_to_text(c)
        lines = [l for l in text.splitlines() if not l.startswith("#")]
        assert lines == ["XY theta=1.5", "ROT axis=y angle=-0.25 q=1", "WAIT ns=40.0"]
