import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinsim.hamiltonians import (SpinModelSpec, build_hamiltonian, build_heisenberg,
                                  build_ising, dominant_angular_frequency, exact_evolve,
                                  oracle_hamiltonian)
from spinsim.linalg import ID2, SX, SY, SZ, kron

from conftest import FIG2, FIG3, complex_arrays, expval, hermitian_matrices, theta_grids


def test_spec_validation():
    for j_sign in (0, 2, -2):
        with pytest.raises(ValueError, match="j_sign"):
            SpinModelSpec(j_sign=j_sign)


class TestBuildXY:
    def test_spectrum_unit_coupling(self):
        h = build_hamiltonian(SpinModelSpec.xy(jx=1.0, j_sign=1))
        assert np.allclose(np.linalg.eigvalsh(h), [-1.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_zero_coupling(self):
        assert np.array_equal(build_hamiltonian(SpinModelSpec.xy(jx=0.0)), np.zeros((4, 4)))

    def test_swap_matrix_element(self):
        # <ud| H |du> equals the signed coupling
        h = build_hamiltonian(SpinModelSpec.xy(jx=1.0, j_sign=1))
        assert h[1, 2] == pytest.approx(1.0)
        h = build_hamiltonian(SpinModelSpec.xy(jx=1.0, j_sign=-1))
        assert h[1, 2] == pytest.approx(-1.0)


class TestBuildHeisenberg:
    def test_isotropic_spectrum(self):
        h = build_heisenberg(SpinModelSpec.heisenberg(1, 1, 1, j_sign=1))
        assert np.allclose(np.linalg.eigvalsh(h), [-3.0, 1.0, 1.0, 1.0], atol=1e-12)

    def test_all_zero(self):
        h = build_heisenberg(SpinModelSpec.heisenberg(0, 0, 0))
        assert np.array_equal(h, np.zeros((4, 4)))

    def test_reduces_to_twice_xy(self):
        h = build_heisenberg(SpinModelSpec.heisenberg(1, 1, 0, j_sign=-1))
        assert np.array_equal(h, 2 * build_hamiltonian(SpinModelSpec.xy(jx=1.0, j_sign=-1)))


class TestBuildIsing:
    def test_pure_field(self):
        h = build_ising(SpinModelSpec.ising(jx=0.0, b=2.0, j_sign=1))
        assert np.allclose(h, np.diag([2.0, 0.0, 0.0, -2.0]), atol=1e-14)

    def test_pure_coupling_spectrum(self):
        h = build_ising(SpinModelSpec.ising(jx=1.0, b=0.0, j_sign=1))
        assert np.allclose(np.linalg.eigvalsh(h), [-1, -1, 1, 1], atol=1e-12)

    def test_transverse_field_spectrum(self):
        # blocks {uu, dd} and {ud, du} give +-sqrt(B^2+J^2) and +-J
        h = build_ising(SpinModelSpec.ising(jx=1.0, b=3.0, j_sign=1))
        expected = sorted([-np.sqrt(10), -1.0, 1.0, np.sqrt(10)])
        assert np.allclose(np.linalg.eigvalsh(h), expected, atol=1e-12)


COUPLINGS = st.one_of(st.just(0.0), st.floats(-10.0, 10.0))


@given(jx=COUPLINGS, jy=COUPLINGS, jz=COUPLINGS, b=COUPLINGS,
       j_sign=st.sampled_from((-1, 1)))
def test_builders_are_two_spin_pauli_sums(jx, jy, jz, b, j_sign):
    """The one formula, and each named model as its own Pauli sum."""
    i2 = np.eye(2, dtype=complex)
    xx, yy, zz = (np.kron(p, p) for p in (SX, SY, SZ))
    z1, z2 = np.kron(SZ, i2), np.kron(i2, SZ)
    h = build_hamiltonian(SpinModelSpec(jx, jy, jz, b, j_sign))
    ref = (j_sign * jx) * xx + (j_sign * jy) * yy + (j_sign * jz) * zz + (b / 2.0) * (z1 + z2)
    assert np.array_equal(h, ref)
    # the models, as written before they shared one formula
    assert np.array_equal(build_hamiltonian(SpinModelSpec.xy(jx, j_sign)),
                          (j_sign * jx / 2.0) * (xx + yy))
    assert np.array_equal(build_hamiltonian(SpinModelSpec.heisenberg(jx, jy, jz, j_sign)),
                          (j_sign * jx) * xx + (j_sign * jy) * yy + (j_sign * jz) * zz)
    assert np.array_equal(build_hamiltonian(SpinModelSpec.ising(jx, b, j_sign)),
                          (j_sign * jx) * xx + (b / 2.0) * z1 + (b / 2.0) * z2)


def test_oracle_hamiltonian_per_protocol():
    for j_sign in (-1, 1):
        assert np.array_equal(oracle_hamiltonian("xy", 2.0, j_sign),
                              build_hamiltonian(SpinModelSpec.xy(j_sign=j_sign)))
        assert np.array_equal(oracle_hamiltonian("heisenberg", 2.0, j_sign),
                              build_heisenberg(SpinModelSpec.heisenberg(1, 1, 1, j_sign)))
        # the Ising field is B = j_sign * b_over_j
        assert np.array_equal(oracle_hamiltonian("ising", 2.0, j_sign),
                              build_ising(SpinModelSpec.ising(1.0, 2.0 * j_sign, j_sign)))
    with pytest.raises(ValueError):
        oracle_hamiltonian("swap", 0.0, -1)


def test_builders_exactly_hermitian():
    specs = [SpinModelSpec.xy(), SpinModelSpec.heisenberg(1, 0.7, 0.2),
             SpinModelSpec.ising(jx=1.0, b=-3.0)]
    for spec in specs:
        h = build_hamiltonian(spec)
        assert np.array_equal(h, h.conj().T)


class TestExactEvolve:
    def test_zero_time(self):
        h = build_hamiltonian(SpinModelSpec.xy())
        assert np.allclose(exact_evolve(h, 0.0, FIG2), FIG2, atol=1e-14)

    def test_rejects_non_finite_state(self):
        # the field overflows the propagator; the NaN state must not pass
        h = oracle_hamiltonian("ising", 1e308, -1)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
            exact_evolve(h, 4.0, [1, 0, 0, 0])

    def test_stacked_failure_names_its_time_and_theta(self):
        h = oracle_hamiltonian("ising", 1e308, -1)
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match=r"^evolution gave a non-finite state at t=4\.0 \(theta=8\.0\)$"):
            exact_evolve(h, [0.0, 1e-300, 4.0, 5.0], [1, 0, 0, 0])

    @settings(max_examples=60)
    @given(hermitian_matrices, complex_arrays(4), theta_grids)
    def test_stacked_times_match_single_calls(self, h, psi0, thetas):
        ts = np.array(thetas) / 2.0
        stack = exact_evolve(h, ts, psi0)
        assert stack.shape == (len(ts), 4)
        for t, psi in zip(ts, stack):
            assert exact_evolve(h, float(t), psi0).tobytes() == psi.tobytes()

    def test_exchange_full_transfer_bloch_vectors(self):
        # at phase angle pi the spins end along +y and +z
        h = build_hamiltonian(SpinModelSpec.xy(j_sign=-1))
        psi = exact_evolve(h, np.pi / 2, FIG2)
        assert expval(psi, kron(SY, ID2)) == pytest.approx(1.0, abs=1e-9)
        assert expval(psi, kron(ID2, SZ)) == pytest.approx(1.0, abs=1e-9)
        assert expval(psi, kron(SX, ID2)) == pytest.approx(0.0, abs=1e-9)

    def test_transverse_ising_correlator_frequency(self):
        h = build_ising(SpinModelSpec.ising(jx=1.0, b=3.0, j_sign=1))
        xx = kron(SX, SX)
        taus = np.linspace(0.0, 3 * np.pi / 2, 256)
        signal = [expval(exact_evolve(h, t, FIG3), xx) for t in taus]
        omega = dominant_angular_frequency(signal, taus[1] - taus[0])
        target = 2 * np.sqrt(10)
        assert abs(omega - target) / target < 0.01

    def test_energy_conservation(self):
        for spec in (SpinModelSpec.xy(), SpinModelSpec.heisenberg(1, 1, 1),
                     SpinModelSpec.ising(jx=1.0, b=-3.0)):
            h = build_hamiltonian(spec)
            e0 = expval(FIG3, h)
            for t in np.linspace(0.0, 4.0, 17):
                e = expval(exact_evolve(h, t, FIG3), h)
                assert abs(e - e0) < 1e-9

    def test_isotropic_preserves_spin_angle(self):
        # <vec(s1).vec(s2)> is conserved by the isotropic interaction
        h = build_heisenberg(SpinModelSpec.heisenberg(1, 1, 1, j_sign=-1))
        dot = kron(SX, SX) + kron(SY, SY) + kron(SZ, SZ)
        d0 = expval(FIG2, dot)
        for t in np.linspace(0.0, 3.0, 13):
            assert abs(expval(exact_evolve(h, t, FIG2), dot) - d0) < 1e-9

    def test_xy_preserves_total_magnetization(self):
        h = build_hamiltonian(SpinModelSpec.xy(j_sign=-1))
        ztot = kron(SZ, ID2) + kron(ID2, SZ)
        m0 = expval(FIG2, ztot)
        for t in np.linspace(0.0, 3.0, 13):
            assert abs(expval(exact_evolve(h, t, FIG2), ztot) - m0) < 1e-9
