import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from spinsim.linalg import (ID2, SX, SY, SZ, check_density_matrix, herm_expm, kron,
                            partial_transpose)
from spinsim.hamiltonians import SpinModelSpec, build_hamiltonian

from conftest import (BELL, FIG2, expval, hermitian_matrices, matrix_stacks,
                      random_hermitian, random_density, theta_grids)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(ID2, ID2), np.eye(4))

    def test_xx_antidiagonal(self):
        assert np.array_equal(kron(SX, SX), np.fliplr(np.eye(4)))

    def test_zz_from_factors(self):
        assert np.array_equal(kron(SZ, ID2) @ kron(ID2, SZ), kron(SZ, SZ))

    def test_associative(self):
        a, b, c = SX, SY, SZ
        assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))

    @given(st.data())
    def test_same_bits_as_numpy_kron(self, data):
        # signed zeros and subnormals included; products stay finite
        parts = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.5e-310]),
                          st.floats(-1e150, 1e150, allow_subnormal=True))
        entries = st.builds(complex, parts, parts)
        a, b = (data.draw(arrays(complex, (n, n), elements=entries))
                for n in data.draw(st.tuples(st.sampled_from([2, 4]),
                                             st.sampled_from([2, 4]))))
        assert kron(a, b).tobytes() == np.kron(a, b).tobytes()


class TestHermExpm:
    def test_zero_hamiltonian(self):
        assert np.allclose(herm_expm(np.zeros((4, 4)), 1.7), np.eye(4), atol=1e-14)

    def test_sigma_z_quarter_turn(self):
        u = herm_expm(SZ, np.pi / 2)
        expected = np.diag([np.exp(-1j * np.pi / 2), np.exp(1j * np.pi / 2)])
        assert np.allclose(u, expected, atol=1e-14)

    def test_exchange_swap_block(self):
        # full excitation swap at phase angle pi: unit-magnitude off-diagonals
        h = 0.5 * (kron(SX, SX) + kron(SY, SY))
        u = herm_expm(h, np.pi / 2)
        assert abs(abs(u[1, 2]) - 1.0) < 1e-12
        assert abs(abs(u[2, 1]) - 1.0) < 1e-12
        assert abs(u[1, 1]) < 1e-12 and abs(u[2, 2]) < 1e-12
        assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-10)

    def test_rejects_non_hermitian(self):
        bad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="asymmetry"):
            herm_expm(bad, 1.0)

    @pytest.mark.parametrize("entries", [{(1, 1): np.nan}, {(0, 1): np.nan},
                                         {(0, 1): np.inf, (1, 0): np.inf}],
                             ids=["nan-diagonal", "nan-off-diagonal", "inf-pair"])
    def test_rejects_non_finite_entries(self, entries):
        # NaN > tol is False, and inf - inf warns; both must fail the check
        h = np.eye(4, dtype=complex)
        for index, value in entries.items():
            h[index] = value
        with pytest.raises(ValueError, match="^input is not Hermitian: max asymmetry nan$"):
            herm_expm(h, 1.0)

    @pytest.mark.parametrize("t", [1.6e308, np.array([1.0, 1.6e308])], ids=["scalar", "stack"])
    def test_overflowing_phase_is_non_finite_without_warning(self, t):
        # the caller names the failure; filterwarnings = error fails on a warning
        u = herm_expm(3.0 * np.eye(4), t)
        assert not np.isfinite(u).all()

    @settings(max_examples=60)
    @given(hermitian_matrices, theta_grids)
    def test_stacked_times_match_single_calls(self, h, thetas):
        ts = np.array(thetas) / 2.0
        stack = herm_expm(h, ts)
        assert stack.shape == (len(ts), 4, 4)
        w, v = np.linalg.eigh(h)
        for t, u in zip(ts, stack):
            single = herm_expm(h, float(t))
            assert type(single) is np.ndarray and single.shape == (4, 4)
            # the bits of the one-time formula
            assert single.tobytes() == ((v * np.exp(-1j * float(t) * w)) @ v.conj().T).tobytes()
            assert single.tobytes() == u.tobytes()

    def test_additivity(self, rng):
        for _ in range(20):
            h = random_hermitian(rng)
            t1, t2 = rng.uniform(-2, 2, size=2)
            lhs = herm_expm(h, t1) @ herm_expm(h, t2)
            assert np.max(np.abs(lhs - herm_expm(h, t1 + t2))) < 1e-9

    def test_unitary_for_1000_random_inputs(self, rng):
        for _ in range(1000):
            u = herm_expm(random_hermitian(rng), rng.uniform(0, 3))
            assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-10)

    def test_matches_scipy_expm(self, rng):
        # independent route: general-matrix expm of -i*h*t
        for _ in range(10):
            h = random_hermitian(rng)
            t = rng.uniform(-2, 2)
            ref = scipy.linalg.expm(-1j * t * h)
            assert np.max(np.abs(herm_expm(h, t) - ref)) < 1e-10


class TestExpectation:
    def test_up_state_sigma_z(self):
        up = np.array([1.0, 0.0])
        assert expval(up, SZ) == pytest.approx(1.0)

    def test_bell_xx(self):
        assert expval(BELL, kron(SX, SX)) == pytest.approx(1.0)

    def test_fig2_bloch_components(self):
        assert expval(FIG2, kron(SZ, ID2)) == pytest.approx(1.0)
        assert expval(FIG2, kron(ID2, SX)) == pytest.approx(1.0)

    def test_density_matrix_input(self):
        rho = np.outer(BELL, BELL.conj())
        assert expval(rho, kron(SY, SY)) == pytest.approx(-1.0)


class TestPartialTranspose:
    def test_product_state_stays_positive(self, rng):
        rho = kron(random_density(rng, 2), random_density(rng, 2))
        w = np.linalg.eigvalsh(partial_transpose(rho))
        assert w.min() > -1e-12

    def test_bell_minimum_eigenvalue(self):
        rho = np.outer(BELL, BELL.conj())
        w = np.linalg.eigvalsh(partial_transpose(rho))
        assert w.min() == pytest.approx(-0.5, abs=1e-12)

    def test_partially_swapped_state_single_negative_eigenvalue(self):
        # oracle evolution of the perpendicular-spins state to phase pi/2
        h = build_hamiltonian(SpinModelSpec.xy(j_sign=-1))
        psi = herm_expm(h, np.pi / 4) @ FIG2
        rho = np.outer(psi, psi.conj())
        w = np.linalg.eigvalsh(partial_transpose(rho))
        assert (w < -1e-12).sum() == 1
        assert w.min() == pytest.approx(-0.25, abs=1e-9)

    def test_involution(self, rng):
        rho = random_density(rng)
        assert np.array_equal(partial_transpose(partial_transpose(rho)), rho)

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            partial_transpose(np.eye(8) / 8)

    @given(matrix_stacks)
    def test_stack_matches_single_calls(self, stack):
        out = partial_transpose(stack)
        assert out.shape == stack.shape
        for rho, pt in zip(stack.reshape(-1, 4, 4), out.reshape(-1, 4, 4)):
            assert np.array_equal(partial_transpose(rho), pt)


class TestCheckDensityMatrix:
    @pytest.mark.parametrize("rho, message", [
        (np.zeros((4, 3)), "rho0 must be square, got shape (4, 3)"),
        (np.ones(4) / 4, "rho0 must be square, got shape (4,)"),
        (np.array([[0.5, 0.1], [0.0, 0.5]]),
         "rho0 is not Hermitian: max asymmetry 1.000e-01"),
        (np.eye(4) / 2, "rho0 has trace 2+0j, expected 1"),
        (np.diag([0.75, 0.5, -0.25, 0.0]), "rho0 has negative eigenvalue -2.500e-01"),
        # the checks run in this order: Hermiticity, trace, positivity
        (np.array([[1.0, 0.1], [0.0, 1.0]]),
         "rho0 is not Hermitian: max asymmetry 1.000e-01"),
        (np.diag([1.5, -1.0, 0.0, 0.0]), "rho0 has trace 0.5+0j, expected 1"),
        (np.zeros((0, 0)), "rho0 is empty, got shape (0, 0)"),
    ], ids=["non-square", "vector", "non-hermitian", "bad-trace", "negative",
            "non-hermitian-and-bad-trace", "bad-trace-and-negative", "empty"])
    def test_rejects_with_message(self, rho, message):
        with pytest.raises(ValueError) as exc:
            check_density_matrix(rho, "rho0")
        assert str(exc.value) == message

    @pytest.mark.parametrize("index, value", [
        ((0, 0), np.nan), ((0, 1), np.nan), ((2, 2), np.inf), ((1, 2), -np.inf),
        ((3, 3), complex(np.nan, 0.0))],
        ids=["nan-diagonal", "nan-off-diagonal", "inf-diagonal", "inf-off-diagonal",
             "complex-nan-diagonal"])
    def test_non_finite_entry_fails_before_eigvalsh(self, index, value):
        rho = np.eye(4, dtype=complex) / 4
        rho[index] = value
        with pytest.raises(ValueError, match="^rho0 is not Hermitian"):
            check_density_matrix(rho, "rho0")

    def test_entries_changed_after_a_pass_are_checked_again(self):
        rho = np.eye(4, dtype=complex) / 4
        check_density_matrix(rho, "rho0")
        rho[0, 0] = 1.0
        with pytest.raises(ValueError, match="^rho0 has trace"):
            check_density_matrix(rho, "rho0")
        rho[0, 0] = 0.25
        assert check_density_matrix(rho, "rho0") is rho

    def test_valid_input_comes_back_as_the_same_array(self, rng):
        rho = random_density(rng)
        assert check_density_matrix(rho) is rho
        pure = np.outer(BELL, BELL.conj())
        assert check_density_matrix(pure, "rho0") is pure
