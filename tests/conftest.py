import numpy as np
import pytest
from hypothesis import settings

from spinsim.circuits import (Circuit, EvolutionParams, Gate, compile_heisenberg,
                             compile_ising)


# Property tests draw the same examples on every run, so a test run is
# repeatable and two runs compare like for like.
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")


def random_hermitian(rng, dim=4):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def random_unitary(rng, dim=2):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, dim=4, rank=None):
    rank = rank or dim
    a = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_state(rng, dim=4):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return psi / np.linalg.norm(psi)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


FIG2 = np.array([1.0, 1.0, 0.0, 0.0], dtype=complex) / np.sqrt(2.0)
FIG3 = np.array([1.0, -1.0j, 0.0, 0.0], dtype=complex) / np.sqrt(2.0)
BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / np.sqrt(2.0)

ISWAP = np.array([[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]],
                 dtype=complex)
SQRT_ISWAP = np.array(
    [[1, 0, 0, 0],
     [0, 1 / np.sqrt(2), 1j / np.sqrt(2), 0],
     [0, 1j / np.sqrt(2), 1 / np.sqrt(2), 0],
     [0, 0, 0, 1]], dtype=complex)
SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                dtype=complex)


def compiled_circuit(protocol, theta, n, b_over_j, j_sign):
    """The circuit the CLI builds for one protocol (n and b_over_j: ising only)."""
    if protocol == "ising":
        return compile_ising(EvolutionParams(theta, n, b_over_j), j_sign=j_sign)
    if protocol == "heisenberg":
        return compile_heisenberg(EvolutionParams(theta), j_sign=j_sign)
    return Circuit(2, (Gate.xy(theta),),
                   {"protocol": "xy", "theta": theta, "j_sign": j_sign})
