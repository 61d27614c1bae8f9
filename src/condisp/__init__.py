"""Conditional-displacement interactions of modulated qubits in a resonator.

Simulates one or two flux-modulated qubits ultrastrongly coupled to an LC
resonator: builds the driven Hamiltonian in the lab, rotating, and
effective frames, propagates the time-dependent Schrodinger equation, and
runs the headline experiments (effective-model fidelity traces, the
conditional-displacement phase gate, Schrodinger-cat generation).

condisp.model holds the physics and the lab generator's data; the
propagators of condisp.propagate (evolve, evolve_columns, propagator)
decide what they accept, and plan, take and guard every Magnus step.
They take the lab provider, hamiltonian_fn(..., "lab-driven", ...), or
a wrapper that carries its parts; the rotating and effective frames have
single-time builders (rotating_frame_hamiltonian, effective_hamiltonian)
only.
"""
__version__ = "0.1.0"

from .numerics import bessel_j, first_zero_j0, argmax_j1, expm_skew_hermitian
from .hilbert import (HilbertLayout, Ket, Operator, identity, basis_state,
                      pauli_on, ladder, displacement, coherent, fidelity)
from .model import (SystemParams, DriveParams, ValidityCondition,
                    ValidityReport, lab_hamiltonian, driven_hamiltonian,
                    frame_transform, frame_phases, rotating_frame_hamiltonian,
                    effective_hamiltonian, effective_couplings,
                    validity_report, hamiltonian_fn)
from .propagate import (EvolutionConfig, Trajectory, FidelityTrace,
                        PropagationAccuracyError, evolve, propagator,
                        fidelity_trace, write_trace_csv)
from .gate import (GateAngle, AnalyticGate, beta_phi, analytic_unitary,
                   analytic_gate, phase_gate_matrix, makhlin_invariants,
                   gate_columns, gate_fidelity_trials, average_gate_fidelity)
from .cat import (CatDecomposition, cat_state, decompose_cat, multi_step_cat,
                  cat_fidelity_experiment, branch_probabilities)

__all__ = [
    "__version__",
    "bessel_j", "first_zero_j0", "argmax_j1", "expm_skew_hermitian",
    "HilbertLayout", "Ket", "Operator", "identity", "basis_state",
    "pauli_on", "ladder", "displacement", "coherent", "fidelity",
    "SystemParams", "DriveParams", "ValidityCondition", "ValidityReport",
    "lab_hamiltonian", "driven_hamiltonian", "frame_transform",
    "frame_phases", "rotating_frame_hamiltonian", "effective_hamiltonian",
    "effective_couplings", "validity_report", "hamiltonian_fn",
    "EvolutionConfig", "Trajectory", "FidelityTrace",
    "PropagationAccuracyError", "evolve", "propagator", "fidelity_trace",
    "write_trace_csv",
    "GateAngle", "AnalyticGate", "beta_phi", "analytic_unitary",
    "analytic_gate", "phase_gate_matrix", "makhlin_invariants",
    "gate_columns", "gate_fidelity_trials", "average_gate_fidelity",
    "CatDecomposition", "cat_state", "decompose_cat", "multi_step_cat",
    "cat_fidelity_experiment", "branch_probabilities",
]
