import warnings

import numpy as np
import pytest
from hypothesis import settings, strategies as st
from hypothesis.extra.numpy import arrays

from spinsim.circuits import (Circuit, EvolutionParams, Gate, compile_heisenberg,
                              compile_ising, compile_xy)
from spinsim.device import NoiseParams
from spinsim.hamiltonians import oracle_hamiltonian


# Derandomized property tests draw the same examples on every run of the same
# collected modules over the same source.  Hypothesis also draws constants
# that it finds in every loaded local module, and no setting turns that off,
# so collecting other test modules or changing a constant in the code changes
# the draws: a test run alone may not meet an example that the full run
# meets.  Pin such an example with ``@example``.
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")

# Hypothesis writes the report of a failing property test with a module that
# imports libcst, whose use of mypy_extensions.TypedDict warns at import.
# Under filterwarnings = ["error"] that warning ends the whole run with an
# INTERNALERROR at the first failing example, so import the module once here
# with that one warning ignored.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict",
                            DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


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


def expval(state, obs):
    """Real part of <obs> for a state vector or a density matrix."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        return np.vdot(state, obs @ state).real
    return np.trace(state @ obs).real


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


# every error source off: no decay, no phase errors, perfect rotations
NOISE_OFF = NoiseParams(t1_us=(np.inf, np.inf), t2_us=(np.inf, np.inf),
                        jz_tilde_angle_deg=0.0, crosstalk_phase_deg=0.0,
                        single_qubit_fidelity=1.0)


def compiled_circuit(protocol, theta, n, b_over_j, j_sign):
    """The circuit the CLI builds for one protocol (n and b_over_j: ising only)."""
    if protocol == "ising":
        return compile_ising(EvolutionParams(theta, n, b_over_j), j_sign=j_sign)
    if protocol == "heisenberg":
        return compile_heisenberg(EvolutionParams(theta), j_sign=j_sign)
    return compile_xy(EvolutionParams(theta), j_sign=j_sign)


any_gate = st.one_of(
    st.builds(Gate.xy, st.floats(0.0, 4 * np.pi)),
    st.builds(Gate.rot, st.sampled_from("xyz"), st.floats(-2 * np.pi, 2 * np.pi),
              st.sampled_from((0, 1))),
    st.builds(lambda ns: Gate("WAIT", duration_ns=ns), st.floats(0.0, 200.0)))


@st.composite
def misleading_circuits(draw):
    """Hand-built circuits whose ``n_steps`` metadata is not their step count.

    Three shapes: a gate count that n_steps does not divide, n_steps copies
    of a step with one gate changed, and no gates at all with n_steps = 3.
    """
    shape = draw(st.sampled_from(("non-divisor", "non-repeating", "empty")))
    j_sign = draw(st.sampled_from((-1, 1)))
    if shape == "empty":
        n, body = 3, ()
    elif shape == "non-divisor":
        n = draw(st.integers(2, 6))
        size = draw(st.integers(1, 40).filter(lambda k: k % n))
        body = tuple(draw(st.lists(any_gate, min_size=size, max_size=size)))
    else:
        n = draw(st.integers(2, 6))
        step = tuple(draw(st.lists(any_gate, min_size=1, max_size=8)))
        other = Gate.xy(0.25) if step[-1] != Gate.xy(0.25) else Gate.xy(0.5)
        body = step * (n - 1) + step[:-1] + (other,)
    return Circuit(2, body, {"n_steps": n, "j_sign": j_sign})


# Stacked and single calls are compared on these draws.
def complex_arrays(shape, max_magnitude=1.0):
    return arrays(complex, shape, elements=st.complex_numbers(
        max_magnitude=max_magnitude, allow_nan=False, allow_infinity=False))


# a phase-angle grid as the CLI takes it: 0 first, then ascending angles
theta_grids = st.lists(st.floats(0.0, 4 * np.pi, exclude_min=True), max_size=12,
                       unique=True).map(lambda angles: [0.0, *sorted(angles)])

hermitian_matrices = st.one_of(
    st.builds(oracle_hamiltonian, st.sampled_from(("xy", "heisenberg", "ising")),
              st.floats(-10.0, 10.0), st.sampled_from((-1, 1))),
    complex_arrays((4, 4)).map(lambda a: (a + a.conj().T) / 2.0))

# (..., 4, 4) stacks with one or two leading axes
matrix_stacks = st.sampled_from([(1,), (5,), (2, 3)]).flatmap(
    lambda lead: complex_arrays((*lead, 4, 4)))
