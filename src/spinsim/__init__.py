"""Digital quantum simulation of two-spin Heisenberg and Ising dynamics."""

from .circuits import (Circuit, EvolutionParams, Gate, circuit_from_text,
                       circuit_to_text, circuit_unitary, compile_heisenberg,
                       compile_ising, gate_unitary, phase_distance,
                       trotter_fidelity)
from .hamiltonians import (SpinModelSpec, build_hamiltonian, build_heisenberg,
                           build_ising, build_xy, dominant_angular_frequency,
                           exact_evolve)
from .linalg import (expectation, herm_expm, kron, partial_transpose)
from .noise import (NoiseParams, THETA_TO_NS, TimingParams, decoherence_kraus,
                    gate_duration_ns, predicted_fidelity, simulate_noisy,
                    zz_error_unitary)
from .scheduler import (PulseEvent, PulseTimeline, commensurate_padding,
                        gate_footprint_durations, schedule, timeline_to_csv,
                        validate)
from .tomography import (FidelityReport, TomographyRecord, chi_from_json,
                         chi_of_unitary, chi_to_json, linear_inversion,
                         negativity, process_fidelity, process_tomography,
                         reconstruct_state, state_fidelity,
                         synthesize_measurements)

__all__ = [
    "Circuit", "EvolutionParams", "FidelityReport", "Gate", "NoiseParams",
    "PulseEvent", "PulseTimeline", "SpinModelSpec", "THETA_TO_NS",
    "TimingParams", "TomographyRecord", "build_hamiltonian",
    "build_heisenberg", "build_ising", "build_xy", "chi_from_json",
    "chi_of_unitary", "chi_to_json", "circuit_from_text", "circuit_to_text",
    "circuit_unitary", "commensurate_padding", "compile_heisenberg",
    "compile_ising", "decoherence_kraus", "dominant_angular_frequency",
    "exact_evolve", "expectation", "gate_duration_ns",
    "gate_footprint_durations", "gate_unitary", "herm_expm", "kron",
    "linear_inversion", "negativity", "partial_transpose", "phase_distance",
    "predicted_fidelity", "process_fidelity", "process_tomography",
    "reconstruct_state", "schedule", "simulate_noisy", "state_fidelity",
    "synthesize_measurements", "timeline_to_csv", "trotter_fidelity",
    "validate", "zz_error_unitary",
]

__version__ = "0.1.0"
