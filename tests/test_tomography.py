import json

import numpy as np
import pytest

from spinsim.circuits import (Circuit, EvolutionParams, Gate, circuit_unitary,
                              compile_heisenberg)
from spinsim.hamiltonians import SpinModelSpec, build_xy, exact_evolve
from spinsim.linalg import kron
from spinsim.tomography import (CHI_BASIS_LABELS, PAULI_LABELS_2Q,
                                CHI_BASIS, PROCESS_INPUT_STATES, TomographyRecord,
                                chi_from_json, chi_of_unitary,
                                chi_to_json, linear_inversion, negativity,
                                process_fidelity, process_tomography,
                                reconstruct_state, state_fidelity,
                                synthesize_measurements)

from conftest import (BELL, FIG2, SWAP, random_density, random_state,
                      random_unitary)


def unitary_channel(u):
    return lambda rho: u @ rho @ u.conj().T


def chi_system():
    """The 256x256 linear system for chi: vec_row(B_m rho B_n^dag) = A[:, 16m + n]."""
    return np.column_stack([np.kron(bm, bn.conj()).reshape(-1)
                            for bm in CHI_BASIS for bn in CHI_BASIS])


class TestSynthesizeMeasurements:
    def test_up_up_expectations(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        rec = synthesize_measurements(rho)
        table = dict(zip(rec.labels, rec.expectations))
        assert table["ZI"] == pytest.approx(1.0)
        assert table["IZ"] == pytest.approx(1.0)
        assert table["ZZ"] == pytest.approx(1.0)
        for label, value in table.items():
            if "X" in label or "Y" in label:
                assert value == pytest.approx(0.0, abs=1e-12)

    def test_bell_stabilizers(self):
        rec = synthesize_measurements(np.outer(BELL, BELL.conj()))
        table = dict(zip(rec.labels, rec.expectations))
        assert table["XX"] == pytest.approx(1.0)
        assert table["YY"] == pytest.approx(-1.0)
        assert table["ZZ"] == pytest.approx(1.0)

    def test_seeded_jitter_reproducible(self):
        rho = np.outer(BELL, BELL.conj())
        a = synthesize_measurements(rho, 0.02, seed=11)
        b = synthesize_measurements(rho, 0.02, seed=11)
        c = synthesize_measurements(rho, 0.02, seed=12)
        assert a.expectations == b.expectations
        assert a.expectations != c.expectations


class TestReconstructState:
    def test_noiseless_round_trip(self, rng):
        for _ in range(100):
            rho = random_density(rng)
            rec = synthesize_measurements(rho)
            assert np.max(np.abs(reconstruct_state(rec) - rho)) < 1e-10

    def test_noisy_bell_reconstruction(self):
        rho = np.outer(BELL, BELL.conj())
        fids = [state_fidelity(reconstruct_state(
                    synthesize_measurements(rho, 0.02, seed)), BELL)
                for seed in range(100)]
        assert np.mean(fids) > 0.985
        assert min(fids) > 0.97

    def test_all_zero_record_gives_maximally_mixed(self):
        rec = TomographyRecord(PAULI_LABELS_2Q, (1.0,) + (0.0,) * 15)
        assert np.allclose(reconstruct_state(rec), np.eye(4) / 4.0, atol=1e-12)

    def test_projection_never_costs_much_fidelity(self):
        # vs the raw linear inversion, on noisy records of the Bell state
        rho = np.outer(BELL, BELL.conj())
        for seed in range(100):
            rec = synthesize_measurements(rho, 0.02, seed)
            f_lin = state_fidelity(linear_inversion(rec), BELL)
            f_proj = state_fidelity(reconstruct_state(rec), BELL)
            assert f_proj >= f_lin - 0.02


class TestProcessTomography:
    def test_identity_channel(self):
        chi = process_tomography(unitary_channel(np.eye(4)))
        expected = np.zeros((16, 16))
        expected[0, 0] = 1.0
        assert np.max(np.abs(chi - expected)) < 1e-12

    def test_iswap_matches_direct_expansion(self):
        u = circuit_unitary(Circuit(2, (Gate.xy(np.pi),), {"j_sign": -1}))
        chi = process_tomography(unitary_channel(u))
        assert np.max(np.abs(chi - chi_of_unitary(u))) < 1e-10
        # iSWAP = (II + i XX + i YY + ZZ)/2; Ytilde flips the YY phase
        labels = list(CHI_BASIS_LABELS)
        for a, b, val in (("II", "II", 0.25), ("XX", "XX", 0.25),
                          ("YY", "YY", 0.25), ("ZZ", "ZZ", 0.25),
                          ("II", "XX", -0.25j), ("II", "ZZ", 0.25),
                          ("XX", "YY", -0.25)):
            assert chi[labels.index(a), labels.index(b)] == pytest.approx(val, abs=1e-10)

    def test_heisenberg_quarter_turn_is_swap(self):
        u = circuit_unitary(compile_heisenberg(EvolutionParams(np.pi / 2)))
        chi = process_tomography(unitary_channel(u))
        assert process_fidelity(chi, chi_of_unitary(SWAP)) == pytest.approx(1.0, abs=1e-9)

    def test_unitary_channels_give_rank_one_chi(self, rng):
        for _ in range(5):
            u = random_unitary(rng, 4)
            chi = process_tomography(unitary_channel(u))
            w = np.linalg.eigvalsh(chi)
            assert w[-1] > 0.999999
            assert np.max(np.abs(w[:-1])) < 1e-6

    def test_chi_system_columns_orthogonal(self):
        a = chi_system()
        assert np.max(np.abs(a.conj().T @ a - 16.0 * np.eye(256))) < 1e-12

    def test_closed_form_matches_linear_solve(self, rng):
        ins = np.column_stack([r.reshape(-1) for r in PROCESS_INPUT_STATES])
        for rank in (1, 2, 4, 16):
            # Kraus operators as the blocks of a random isometry C^4 -> C^(4 rank)
            g = rng.normal(size=(4 * rank, 4)) + 1j * rng.normal(size=(4 * rank, 4))
            v = np.linalg.qr(g)[0]
            kraus = [v[4 * i:4 * i + 4] for i in range(rank)]

            def channel(rho):
                return sum(k @ rho @ k.conj().T for k in kraus)
            outs = np.column_stack([channel(r).reshape(-1) for r in PROCESS_INPUT_STATES])
            transfer = outs @ np.linalg.inv(ins)
            ref = np.linalg.solve(chi_system(), transfer.reshape(-1)).reshape(16, 16)
            ref = (ref + ref.conj().T) / 2.0
            ref /= np.trace(ref).real
            assert np.max(np.abs(process_tomography(channel) - ref)) < 1e-12

    def test_chi_is_hermitian_unit_trace(self, rng):
        chi = process_tomography(unitary_channel(random_unitary(rng, 4)))
        assert np.max(np.abs(chi - chi.conj().T)) < 1e-9
        assert np.trace(chi).real == pytest.approx(1.0, abs=1e-12)


class TestProcessFidelity:
    def test_self_fidelity(self, rng):
        chi = chi_of_unitary(random_unitary(rng, 4))
        assert process_fidelity(chi, chi) == pytest.approx(1.0, abs=1e-12)

    def test_depolarizing_floor(self):
        chi_dep = process_tomography(
            lambda rho: np.trace(rho) * np.eye(4, dtype=complex) / 4.0)
        chi_u = chi_of_unitary(SWAP)
        assert process_fidelity(chi_dep, chi_u) == pytest.approx(1.0 / 16.0, abs=1e-9)


class TestStateFidelity:
    def test_pure_state_self(self, rng):
        psi = random_state(rng)
        assert state_fidelity(np.outer(psi, psi.conj()), psi) == pytest.approx(1.0)

    def test_maximally_mixed(self, rng):
        psi = random_state(rng)
        assert state_fidelity(np.eye(4) / 4.0, psi) == pytest.approx(0.25)

    def test_vector_input(self):
        assert state_fidelity(BELL, BELL) == pytest.approx(1.0)


class TestNegativity:
    def test_product_state(self, rng):
        rho = kron(random_density(rng, 2), random_density(rng, 2))
        assert negativity(rho) < 1e-12

    def test_bell_state(self):
        assert negativity(np.outer(BELL, BELL.conj())) == pytest.approx(0.5, abs=1e-12)

    def test_partial_exchange_peak(self):
        h = build_xy(SpinModelSpec.xy(j_sign=-1))
        psi = exact_evolve(h, np.pi / 4, FIG2)
        assert negativity(np.outer(psi, psi.conj())) == pytest.approx(0.25, abs=1e-9)

    def test_heisenberg_peak(self):
        u = circuit_unitary(compile_heisenberg(EvolutionParams(np.pi / 4)))
        psi = u @ FIG2
        assert negativity(np.outer(psi, psi.conj())) == pytest.approx(0.25, abs=1e-9)

    def test_local_unitary_invariance(self, rng):
        for _ in range(20):
            rho = random_density(rng)
            u = kron(random_unitary(rng, 2), random_unitary(rng, 2))
            n1 = negativity(rho)
            n2 = negativity(u @ rho @ u.conj().T)
            assert abs(n1 - n2) < 1e-9


class TestChiSerialization:
    def test_round_trip(self, rng):
        chi = chi_of_unitary(random_unitary(rng, 4))
        chi2 = chi_from_json(chi_to_json(chi))
        assert np.max(np.abs(chi - chi2)) < 1e-15

    def test_document_layout(self):
        doc = json.loads(chi_to_json(chi_of_unitary(np.eye(4))))
        assert doc["basis"][:4] == ["II", "IX", "IY", "IZ"]
        assert len(doc["re"]) == 16 and len(doc["im"][0]) == 16
        assert doc["re"][0][0] == pytest.approx(1.0)
