"""Two-spin Hamiltonians and the exact-evolution oracle.

The XY, anisotropic-Heisenberg and transverse-field-Ising models are one
two-spin exchange Hamiltonian,

    H = Jx X1X2 + Jy Y1Y2 + Jz Z1Z2 + (B/2)(Z1 + Z2),   Jk = j_sign * jk,

with different couplings; ``SpinModelSpec``'s constructors name the three,
and ``oracle_hamiltonian`` picks the one a protocol simulates.

Couplings and fields are dimensionless, in units of the exchange-coupling
magnitude |J|.  Evolution times are phase times: evolving for t = theta/2
advances the dynamics by quantum phase angle theta = 2|J|tau.  Physical
nanoseconds enter only through ``spinsim.device``.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .ir import _Record
from .linalg import ID2, SX, SY, SZ, herm_expm, kron

# the four Pauli products of the formula: X1X2, Y1Y2, Z1Z2 and Z1 + Z2
_XX, _YY, _ZZ = kron(SX, SX), kron(SY, SY), kron(SZ, SZ)
_Z_TOTAL = kron(SZ, ID2) + kron(ID2, SZ)


class SpinModelSpec(namedtuple("SpinModelSpec", "jx jy jz b j_sign",
                               defaults=(1.0, 0.0, 0.0, 0.0, -1)), _Record):
    """The two-spin model's couplings and field, in units of |J|.

    ``j_sign`` carries the sign of the device exchange coupling and
    multiplies jx/jy/jz; the field ``b`` is signed as given.
    """

    __slots__ = ()

    def _check(self):
        if self.j_sign not in (-1, 1):
            raise ValueError("j_sign must be +1 or -1")

    @classmethod
    def xy(cls, jx: float = 1.0, j_sign: int = -1) -> "SpinModelSpec":
        """(J/2)(X1X2 + Y1Y2), J = j_sign * jx."""
        return cls(jx=jx / 2.0, jy=jx / 2.0, j_sign=j_sign)

    @classmethod
    def heisenberg(cls, jx: float, jy: float, jz: float,
                   j_sign: int = -1) -> "SpinModelSpec":
        return cls(jx=jx, jy=jy, jz=jz, j_sign=j_sign)

    @classmethod
    def ising(cls, jx: float = 1.0, b: float = 0.0, j_sign: int = -1) -> "SpinModelSpec":
        return cls(jx=jx, b=b, j_sign=j_sign)


def build_hamiltonian(spec: SpinModelSpec) -> np.ndarray:
    """Jx X1X2 + Jy Y1Y2 + Jz Z1Z2 + (b/2)(Z1 + Z2), Jk = j_sign * jk."""
    j = spec.j_sign
    return ((j * spec.jx) * _XX + (j * spec.jy) * _YY + (j * spec.jz) * _ZZ
            + (spec.b / 2.0) * _Z_TOTAL)


# the names the acceptance tests import
build_heisenberg = build_ising = build_hamiltonian


def oracle_hamiltonian(protocol: str, b_over_j: float, j_sign: int) -> np.ndarray:
    """The two-spin Hamiltonian whose evolution a protocol's circuit simulates.

    xy: the exchange coupling alone; heisenberg: the isotropic coupling;
    ising: the XX coupling in the field B = j_sign * b_over_j, in units of |J|.
    """
    if protocol == "xy":
        spec = SpinModelSpec.xy(j_sign=j_sign)
    elif protocol == "heisenberg":
        spec = SpinModelSpec.heisenberg(1.0, 1.0, 1.0, j_sign=j_sign)
    elif protocol == "ising":
        spec = SpinModelSpec.ising(jx=1.0, b=j_sign * b_over_j, j_sign=j_sign)
    else:
        raise ValueError(f"unknown protocol {protocol!r}")
    return build_hamiltonian(spec)


def exact_evolve(h: np.ndarray, t, psi0: np.ndarray) -> np.ndarray:
    """exp(-i h t) |psi0>; norm is preserved to 1e-10 and the state is finite.

    ``t`` is a number, or a 1-D array of times for a (T, 4) stack of states
    from one eigendecomposition of h.  A failure in a stack names the first
    time that failed and its phase angle theta = 2t.
    """
    psi0 = np.asarray(psi0, dtype=complex)
    psi = herm_expm(h, t) @ psi0
    finite = np.isfinite(psi).all(axis=-1)
    with np.errstate(invalid="ignore", over="ignore"):  # norms of non-finite states
        # np.linalg.norm of each row, to the bit: the BLAS dot of re and of im
        norm = np.sqrt(np.vecdot(psi.real, psi.real) + np.vecdot(psi.imag, psi.imag))
        drift = np.abs(norm - np.linalg.norm(psi0))
    failed = np.flatnonzero(~finite | (drift > 1e-10))
    if failed.size:
        k = failed[0]
        tk = float(np.ravel(t)[k])
        at = f" at t={tk!r} (theta={2.0 * tk!r})" if np.ndim(t) else ""
        if not finite.flat[k]:
            raise ValueError("evolution gave a non-finite state" + at)
        raise ValueError(f"evolution broke the state norm by {drift.flat[k]:.3e}" + at)
    return psi


def dominant_angular_frequency(values, dx: float) -> float:
    """Angular frequency of the strongest non-DC FFT peak of a sampled signal.

    The signal is mean-subtracted and zero-padded (32x) so the peak location
    is resolved well below the raw bin spacing.
    """
    y = np.asarray(values, dtype=float)
    if y.size < 8:
        raise ValueError("need at least 8 samples")
    if dx <= 0:
        raise ValueError("dx must be positive")
    y = y - y.mean()
    pad = 1 << (int(np.ceil(np.log2(y.size))) + 5)
    spec = np.abs(np.fft.rfft(y, n=pad))
    k = int(np.argmax(spec[1:])) + 1
    return 2.0 * np.pi * k / (pad * dx)
