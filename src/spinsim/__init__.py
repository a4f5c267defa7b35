"""Digital quantum simulation of two-spin Heisenberg and Ising dynamics.

Each public name is imported from its home module on first use (PEP 562), so
``import spinsim`` loads no numpy; only the numeric modules (``circuits``,
``hamiltonians``, ``linalg``, ``noise``, ``tomography``) do.
"""

from importlib import import_module

# home module -> the public names it exports
_EXPORTS = {
    "ir": ("Circuit", "EvolutionParams", "Gate", "circuit_from_text", "circuit_to_text",
           "compile_heisenberg", "compile_ising", "compile_xy"),
    "device": ("NoiseParams", "THETA_TO_NS", "TimingParams", "gate_duration_ns",
               "predicted_fidelity"),
    "scheduler": ("PulseEvent", "PulseTimeline", "commensurate_padding", "schedule",
                  "timeline_to_csv", "validate"),
    "circuits": ("circuit_unitary", "gate_unitary", "phase_distance", "trotter_fidelity"),
    "hamiltonians": ("SpinModelSpec", "build_hamiltonian", "build_heisenberg",
                     "build_ising", "dominant_angular_frequency",
                     "exact_evolve", "oracle_hamiltonian"),
    "linalg": ("herm_expm", "kron", "partial_transpose"),
    "noise": ("decoherence_kraus", "simulate_noisy", "zz_error_unitary"),
    "tomography": ("TomographyRecord", "chi_of_unitary", "chi_to_json", "linear_inversion",
                   "negativity", "process_fidelity", "process_tomography",
                   "reconstruct_state", "state_fidelity", "synthesize_measurements"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name, or a submodule such as ``spinsim.cli``, on first use."""
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS or name == "cli":
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
