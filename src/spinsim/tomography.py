"""State and process tomography, fidelities and entanglement negativity.

Process matrices (chi) are expressed in the fixed two-qubit operator basis
{I, X, Ytilde, Z} (x) {I, X, Ytilde, Z} with Ytilde = -i * sigma_y, which
makes the ideal exchange-gate chi matrices real.  Measurement records use
the ordinary Hermitian Pauli strings.

A chi matrix is written as JSON by ``chi_to_json`` in one fixed byte format:
the layout of ``json.dumps`` with ``indent=1`` for the document {"basis",
"re", "im"}, each number as its shortest round-trip ``repr``.  The format is
filled in from a template built at import, not by json's encoder, which with
``indent`` set falls back to pure Python and takes about twice as long per
chi; the text of an entry that mirrors its Hermitian partner bit for bit is
copied from it.  Non-finite entries are rejected, because ``NaN`` and
``Infinity`` are not JSON.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .ir import _Record
from .linalg import PAULIS_1Q, SY, check_density_matrix, kron, partial_transpose

PAULI_LABELS_2Q = tuple(a + b for a in "IXYZ" for b in "IXYZ")
PAULI_MATRICES_2Q = tuple(kron(PAULIS_1Q[a], PAULIS_1Q[b]) for a in "ixyz" for b in "ixyz")

# Chi basis, labelled by PAULI_LABELS_2Q: Y entries mean Ytilde = -i*sigma_y.
_CHI_1Q = {**PAULIS_1Q, "y": -1j * SY}
CHI_BASIS = tuple(kron(_CHI_1Q[a], _CHI_1Q[b]) for a in "ixyz" for b in "ixyz")
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
_INPUT_INVERSE = np.linalg.inv(
    np.column_stack([r.reshape(-1) for r in PROCESS_INPUT_STATES]))


class TomographyRecord(namedtuple("TomographyRecord", "labels expectations noise_sigma",
                                  defaults=(0.0,)), _Record):
    """Pauli expectation values of one measured state."""

    __slots__ = ()

    def _check(self):
        if len(self.labels) != len(self.expectations):
            raise ValueError("labels and expectations must have equal length")
        bound = 1.0 + 5.0 * self.noise_sigma + 1e-9
        for label, e in zip(self.labels, self.expectations):
            if abs(e) > bound:
                raise ValueError(f"expectation <{label}> = {e} out of range")


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
    chi = _chi_from_transfer(outs @ _INPUT_INVERSE)
    chi = (chi + chi.conj().T) / 2.0
    tr = np.trace(chi).real
    if abs(tr) < 1e-12:
        raise RuntimeError("chi reconstruction produced a traceless matrix")
    return chi / tr


def chi_of_unitary(u: np.ndarray) -> np.ndarray:
    """Rank-1 chi matrix of a unitary channel: u = sum_m c_m B_m.

    The basis is orthogonal with Tr(B_m^dag B_n) = 4 delta_mn, so
    c = V^dag vec(u) / 4 with V the basis as vec columns.
    """
    c = _CHI_VEC.conj().T @ np.asarray(u, dtype=complex).reshape(-1) / 4.0
    chi = np.outer(c, c.conj())
    return chi / np.trace(chi).real


def process_fidelity(chi: np.ndarray, chi_ideal: np.ndarray) -> float:
    """Tr(chi chi_ideal) for a unitary ideal process, clamped to [0, 1]."""
    val = complex(np.trace(np.asarray(chi) @ np.asarray(chi_ideal)))
    return float(min(max(val.real, 0.0), 1.0))


def state_fidelity(rho: np.ndarray, psi_target: np.ndarray):
    """<psi| rho |psi>, clamped to [0, 1]; accepts a state vector rho as well.

    Stacks give an array: rho is (..., 4) state vectors or (..., 4, 4)
    density matrices against targets (..., 4), told apart by psi_target's
    ndim, since a 4x4 rho could be either.  One state gives a float.
    """
    psi = np.asarray(psi_target, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim == psi.ndim:
        # |<psi|rho>|^2 through libm's hypot and pow, the functions numpy's
        # scalar abs and ** call, so a stack has the bits of one state at a time
        d = np.vecdot(psi, rho)
        val = np.float_power(np.hypot(d.real, d.imag), 2)
    else:
        val = np.vecdot(psi, np.matvec(rho, psi)).real
    # min(max(val, 0.0), 1.0) elementwise: NaN and -0.0 pass unchanged
    val = np.where(val < 0.0, 0.0, np.minimum(val, 1.0))
    return float(val) if val.ndim == 0 else val


def negativity(rho: np.ndarray):
    """Sum of |negative eigenvalues| of the partial transpose (two qubits).

    A (..., 4, 4) stack gives an array, one matrix a float.
    """
    w = np.linalg.eigvalsh(partial_transpose(rho))
    # eigenvalues ascend, so the negatives sum in the order w[w < 0].sum() takes
    neg = np.abs(np.where(w < 0.0, w, 0.0).sum(axis=-1))
    return float(neg) if neg.ndim == 0 else neg


def _indent1_list(items, depth: int) -> str:
    """A JSON list laid out as json.dumps(..., indent=1) writes it at depth."""
    pad = "\n" + " " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"


# json.dumps({"basis", "re", "im"}, indent=1) of a 16x16 chi, with one %s per
# number: re row by row, then im.
_CHI_ROWS = _indent1_list([_indent1_list(["%s"] * 16, 2)] * 16, 1)
_CHI_JSON = ('{\n "basis": ' + _indent1_list([f'"{l}"' for l in PAULI_LABELS_2Q], 1)
             + ',\n "re": ' + _CHI_ROWS + ',\n "im": ' + _CHI_ROWS + "\n}")

# Flat indices of the strict lower triangle of a 16x16 matrix, and of each
# entry's mirror above the diagonal.
_LOWER = np.ravel_multi_index(np.tril_indices(16, -1), (16, 16))
_MIRROR = np.ravel_multi_index(np.tril_indices(16, -1)[::-1], (16, 16))
_SIGN_BIT = np.uint64(1 << 63)


def _entry_reprs(part: np.ndarray, negated: bool) -> list[str]:
    """repr of each entry of a real 16x16 matrix, row by row.

    A lower entry whose bits are its mirror's (with the sign bit flipped, if
    negated) takes the mirror's text (with the leading '-' removed or added)
    instead of formatting its own float.  Chi from process_tomography is
    Hermitian bit for bit, so this halves the float formatting that is most
    of the writer's time; any other entry is formatted on its own.
    """
    flat = part.ravel()
    bits = flat.view(np.uint64)
    flip = _SIGN_BIT if negated else np.uint64(0)
    mirrored = bits[_LOWER] == bits[_MIRROR] ^ flip
    lower, mirror = _LOWER[mirrored], _MIRROR[mirrored]
    own = np.ones(256, dtype=bool)
    own[lower] = False
    texts = np.empty(256, dtype=object)
    texts[own] = list(map(repr, flat[own].tolist()))
    if negated:
        texts[lower] = [t[1:] if t[0] == "-" else "-" + t for t in texts[mirror].tolist()]
    else:
        texts[lower] = texts[mirror]
    return texts.tolist()


def chi_to_json(chi: np.ndarray) -> str:
    """The bytes of json.dumps({"basis", "re", "im"}, indent=1) for chi.

    Each entry is written as ``repr(float)``, as json writes it, into a
    template of json's indent=1 layout; json's encoder itself is not used,
    because with indent set it runs one Python call per row and number.
    A non-finite entry raises ValueError: json would write it as ``NaN`` or
    ``Infinity``, which are not JSON.
    """
    chi = np.asarray(chi, dtype=complex)
    if chi.shape != (16, 16):
        raise ValueError("chi must be 16x16")
    if not np.isfinite(chi).all():
        raise ValueError("chi has non-finite entries")
    return _CHI_JSON % (*_entry_reprs(chi.real, False), *_entry_reprs(chi.imag, True))
