"""Dense complex linear algebra for the two-qubit Hilbert space.

Everything operates on plain numpy arrays: state vectors are 1-d complex
arrays of length 4, operators and density matrices are square complex
arrays.  Qubit 1 is the most significant tensor factor, |up> = |0> = (1, 0)
and sigma_z |up> = +|up>.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

HERMITICITY_TOL = 1e-12

ID2 = np.eye(2, dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

PAULIS_1Q = {"i": ID2, "x": SX, "y": SY, "z": SZ}


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two matrices; the first is the most significant factor.

    One broadcast product, the same bits as ``np.kron`` at a fraction of its
    overhead on these small matrices.
    """
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(len(a) * len(b), -1)


def op_on_qubit(op: np.ndarray, qubit: int) -> np.ndarray:
    """Embed a single-qubit operator on qubit 0 (most significant) or 1."""
    if qubit not in (0, 1):
        raise ValueError(f"qubit index {qubit} out of range for 2 qubits")
    return kron(op, ID2) if qubit == 0 else kron(ID2, op)


def max_asymmetry(m: np.ndarray) -> float:
    m = np.asarray(m)
    return float(np.max(np.abs(m - m.conj().T)))


def herm_expm(h: np.ndarray, t) -> np.ndarray:
    """exp(-i h t) for Hermitian h, via eigendecomposition.

    ``t`` is a number, or a 1-D array of times for a (T, n, n) stack of
    exponentials from the one eigendecomposition; a number gives the n x n
    matrix, with the bits of the stack's entry at that time.

    Raises ValueError for non-Hermitian input, reporting the maximum
    entrywise asymmetry; a NaN or infinite entry fails that check.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    with np.errstate(invalid="ignore"):  # an infinite entry gives inf - inf
        asym = max_asymmetry(h)
    if not asym <= HERMITICITY_TOL:  # written so that NaN fails
        raise ValueError(f"input is not Hermitian: max asymmetry {asym:.3e}")
    w, v = np.linalg.eigh(h)
    # a phase t * w beyond the float range gives a non-finite matrix, which
    # the caller names (``exact_evolve`` does), so numpy's warnings are noise
    with np.errstate(over="ignore", invalid="ignore"):
        phase = np.multiply.outer(-1j * np.asarray(t), w)
        u = np.exp(phase)
    return (v * u[..., None, :]) @ v.conj().T


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose qubit 0's indices of a two-qubit matrix, or of each matrix in
    a (..., 4, 4) stack.

    The transpose on qubit 1 is the full transpose of this one, so it has the
    same spectrum.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"partial_transpose expects a 4x4 matrix, got {rho.shape}")
    r = rho.reshape(*rho.shape[:-2], 2, 2, 2, 2)  # last axes: (i1, i2, j1, j2)
    return r.swapaxes(-4, -2).reshape(rho.shape)


def check_density_matrix(rho: np.ndarray, name: str = "rho") -> np.ndarray:
    """Validate Hermiticity (1e-10), unit trace (1e-10) and positivity (-1e-8).

    A NaN or infinite entry fails the Hermiticity check.  The verdict depends
    on the entries alone, so entries that passed once pass again without the
    eigenvalue solve: process tomography checks the same 16 inputs for every
    circuit.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"{name} must be square, got shape {rho.shape}")
    if not rho.size:
        raise ValueError(f"{name} is empty, got shape {rho.shape}")
    _check_entries(rho.tobytes(), len(rho), name)
    return rho


@lru_cache(maxsize=64)
def _check_entries(data: bytes, n: int, name: str) -> None:
    """The checks of ``check_density_matrix`` on the n x n matrix in ``data``.

    Only a pass is cached; a failure raises again on every call.
    """
    rho = np.frombuffer(data, dtype=complex).reshape(n, n)
    with np.errstate(invalid="ignore"):  # an infinite diagonal entry gives NaN
        asym = max_asymmetry(rho)
    if not asym <= 1e-10:  # written so that NaN fails
        raise ValueError(f"{name} is not Hermitian: max asymmetry {asym:.3e}")
    tr = complex(rho.trace())
    if not abs(tr - 1.0) <= 1e-10:
        raise ValueError(f"{name} has trace {tr:.12g}, expected 1")
    w_min = np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0]  # eigenvalues ascend
    if not w_min >= -1e-8:
        raise ValueError(f"{name} has negative eigenvalue {w_min:.3e}")
