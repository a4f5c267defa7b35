"""State and process tomography, fidelities and entanglement negativity.

Process matrices (chi) are expressed in the fixed two-qubit operator basis
{I, X, Ytilde, Z} (x) {I, X, Ytilde, Z} with Ytilde = -i * sigma_y, which
makes the ideal exchange-gate chi matrices real.  Measurement records use
the ordinary Hermitian Pauli strings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache

import numpy as np

from .linalg import (ID2, SX, SY, SZ, check_density_matrix, kron,
                     partial_transpose)

PAULI_1Q = {"I": ID2, "X": SX, "Y": SY, "Z": SZ}
PAULI_LABELS_2Q = tuple(a + b for a in "IXYZ" for b in "IXYZ")
PAULI_MATRICES_2Q = tuple(kron(PAULI_1Q[l[0]], PAULI_1Q[l[1]]) for l in PAULI_LABELS_2Q)

# Chi basis: Y entries mean Ytilde = -i*sigma_y.
_CHI_1Q = {"I": ID2, "X": SX, "Y": -1j * SY, "Z": SZ}
CHI_BASIS_LABELS = PAULI_LABELS_2Q
CHI_BASIS = tuple(kron(_CHI_1Q[l[0]], _CHI_1Q[l[1]]) for l in CHI_BASIS_LABELS)
_CHI_VEC = np.column_stack([b.reshape(-1) for b in CHI_BASIS])

# Informationally complete product input states for process tomography:
# {|0>, |1>, |+>, |+i>} on each qubit.
_KETS_1Q = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
)
PROCESS_INPUT_STATES = tuple(
    np.outer(np.kron(a, b), np.kron(a, b).conj())
    for a in _KETS_1Q for b in _KETS_1Q
)


@dataclass(frozen=True)
class TomographyRecord:
    """Pauli expectation values of one measured state."""

    labels: tuple[str, ...]
    expectations: tuple[float, ...]
    noise_sigma: float = 0.0

    def __post_init__(self):
        if len(self.labels) != len(self.expectations):
            raise ValueError("labels and expectations must have equal length")
        bound = 1.0 + 5.0 * self.noise_sigma + 1e-9
        for label, e in zip(self.labels, self.expectations):
            if abs(e) > bound:
                raise ValueError(f"expectation <{label}> = {e} out of range")


@dataclass(frozen=True)
class FidelityReport:
    f_state: float
    f_process: float
    negativity: float

    def __post_init__(self):
        if not 0.0 <= self.f_state <= 1.0:
            raise ValueError("f_state out of [0, 1]")
        if not 0.0 <= self.f_process <= 1.0:
            raise ValueError("f_process out of [0, 1]")
        if not 0.0 <= self.negativity <= 0.5 + 1e-12:
            raise ValueError("negativity out of [0, 0.5]")


def synthesize_measurements(rho: np.ndarray, noise_sigma: float = 0.0,
                            seed: int = 0) -> TomographyRecord:
    """Exact Pauli expectations of rho plus Gaussian jitter, seeded."""
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
    rho = check_density_matrix(rho)
    values = np.array([np.trace(rho @ p).real for p in PAULI_MATRICES_2Q])
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        values = values + rng.normal(0.0, noise_sigma, size=values.size)
        values = np.clip(values, -1.0 - 5.0 * noise_sigma, 1.0 + 5.0 * noise_sigma)
    return TomographyRecord(PAULI_LABELS_2Q, tuple(float(v) for v in values),
                            noise_sigma)


def linear_inversion(rec: TomographyRecord) -> np.ndarray:
    """rho = (1/4) sum <P> P over the 16 Pauli strings; may be non-positive."""
    if tuple(rec.labels) != PAULI_LABELS_2Q:
        raise ValueError("record must hold the 16 standard Pauli strings in order")
    rho = np.zeros((4, 4), dtype=complex)
    for e, p in zip(rec.expectations, PAULI_MATRICES_2Q):
        rho += e * p
    return rho / 4.0


def reconstruct_state(rec: TomographyRecord) -> np.ndarray:
    """Linear inversion followed by projection to the nearest PSD state.

    The projection keeps the eigenvectors and maps the eigenvalues to their
    Euclidean projection onto {w >= 0, sum w = 1}, which is the closest
    unit-trace PSD matrix in Frobenius norm.
    """
    rho = linear_inversion(rec)
    rho = (rho + rho.conj().T) / 2.0
    w, v = np.linalg.eigh(rho)
    mu = np.sort(w)[::-1]
    csum = np.cumsum(mu)
    k = max(i for i in range(1, mu.size + 1) if mu[i - 1] - (csum[i - 1] - 1.0) / i > 0)
    shift = (csum[k - 1] - 1.0) / k
    lam = np.clip(w - shift, 0.0, None)
    return (v * lam) @ v.conj().T


@cache
def _input_inverse() -> np.ndarray:
    ins = np.column_stack([r.reshape(-1) for r in PROCESS_INPUT_STATES])
    if np.linalg.cond(ins) > 1e8:
        raise RuntimeError("tomography input states are not informationally complete")
    return np.linalg.inv(ins)


def _chi_from_transfer(transfer: np.ndarray) -> np.ndarray:
    """Unnormalised chi of a row-major superoperator, in closed form.

    transfer = sum_mn chi_mn B_m (x) conj(B_n).  Regrouping its indices
    (a b),(c d) -> (a c),(b d) turns each term into vec(B_m) vec(B_n)^dag, so
    the regrouped matrix R is V chi V^dag with V the basis as vec columns,
    and V^dag V = 4 I gives chi = V^dag R V / 16.  This is A^dag vec(transfer)
    / 16 for the 256x256 chi system A, whose columns vec(B_m (x) conj(B_n))
    are orthogonal with squared norm 16, done as two 16x16 products.
    """
    r = transfer.reshape(4, 4, 4, 4).transpose(0, 2, 1, 3).reshape(16, 16)
    return _CHI_VEC.conj().T @ r @ _CHI_VEC / 16.0


def process_tomography(channel) -> np.ndarray:
    """Chi matrix of a linear CPTP map on two qubits.

    The channel is evaluated on the 16 product input states, giving its
    transfer matrix, from which chi in the fixed basis follows exactly.
    """
    outs = np.column_stack([
        np.asarray(channel(r), dtype=complex).reshape(-1)
        for r in PROCESS_INPUT_STATES
    ])
    chi = _chi_from_transfer(outs @ _input_inverse())
    chi = (chi + chi.conj().T) / 2.0
    tr = np.trace(chi).real
    if abs(tr) < 1e-12:
        raise RuntimeError("chi reconstruction produced a traceless matrix")
    return chi / tr


def chi_of_unitary(u: np.ndarray) -> np.ndarray:
    """Rank-1 chi matrix of a unitary channel, by direct basis expansion."""
    u = np.asarray(u, dtype=complex)
    c = np.array([np.trace(b.conj().T @ u) for b in CHI_BASIS]) / 4.0
    chi = np.outer(c, c.conj())
    return chi / np.trace(chi).real


def process_fidelity(chi: np.ndarray, chi_ideal: np.ndarray) -> float:
    """Tr(chi chi_ideal) for a unitary ideal process, clamped to [0, 1]."""
    val = complex(np.trace(np.asarray(chi) @ np.asarray(chi_ideal)))
    return float(min(max(val.real, 0.0), 1.0))


def state_fidelity(rho: np.ndarray, psi_target: np.ndarray) -> float:
    """<psi| rho |psi>; accepts a state vector rho as well."""
    psi = np.asarray(psi_target, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim == 1:
        val = abs(np.vdot(psi, rho)) ** 2
    else:
        val = np.vdot(psi, rho @ psi).real
    return float(min(max(val, 0.0), 1.0))


def negativity(rho: np.ndarray) -> float:
    """Sum of |negative eigenvalues| of the partial transpose (two qubits)."""
    rho = np.asarray(rho, dtype=complex)
    w = np.linalg.eigvalsh(partial_transpose(rho, 0))
    return float(abs(w[w < 0.0].sum()))


def chi_to_json(chi: np.ndarray) -> str:
    chi = np.asarray(chi, dtype=complex)
    if chi.shape != (16, 16):
        raise ValueError("chi must be 16x16")
    doc = {
        "basis": list(CHI_BASIS_LABELS),
        "re": [[float(x) for x in row] for row in chi.real],
        "im": [[float(x) for x in row] for row in chi.imag],
    }
    return json.dumps(doc, indent=1)


def chi_from_json(text: str) -> np.ndarray:
    doc = json.loads(text)
    if tuple(doc["basis"]) != CHI_BASIS_LABELS:
        raise ValueError("unexpected chi basis ordering")
    return np.array(doc["re"], dtype=float) + 1j * np.array(doc["im"], dtype=float)
