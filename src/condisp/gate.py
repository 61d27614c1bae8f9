"""Conditional-displacement phase gate: closed form and fidelity experiment.

With opposite effective couplings on the two qubits the resonator is
displaced along a circle conditioned on J = sigma_x^1 - sigma_x^2, and
after one resonator period the loop closes: the resonator factors out and
the qubits are left with exp(i theta) exp(-i theta sigma_x sigma_x),
theta = 4 pi (g_eff/omega_r)^2. theta = pi/4 lands in the CNOT local
class, which makhlin_invariants verifies without chasing the local
unitaries themselves.

The numerical gate is the 4 x 4 matrix of the lab evolution over one
period on the vacuum-resonator qubit states, in the rotating frame, which
is all the fidelity trials read. It meets in the middle: the lab
generator is real and symmetric and the steps are symmetric in their
nodes, so over an even number of steps the second half of the period is
the transpose of the first half under the time-mirrored drive, and for
the gate's own drive (phi = pi/2, omega_d T a multiple of 2 pi) that
mirror is the drive itself; gate_columns then propagates the four
columns over half the period only.
"""
from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .hilbert import (HilbertLayout, Operator, _check_truncation,
                      _displacement_fock)
from .model import (DriveParams, SystemParams, beta_phi, effective_couplings,
                    frame_phases, hamiltonian_fn, _mirrored, _require_quadrature,
                    _stack)
from .propagate import EvolutionConfig, _checked, evolve_columns

__all__ = [
    "beta_phi",
    "analytic_unitary",
    "phase_gate_matrix",
    "makhlin_invariants",
    "gate_columns",
    "gate_fidelity_trials",
    "average_gate_fidelity",
]

_UNITARY_TOL = 1e-8
# Largest difference, in radians modulo 2 pi, between the mirror's and the
# drive's modulation phases that gate_columns takes as equal: the roundoff
# of omega_d T - phi - pi, 7.5e-14 at eta = 100. A larger one takes the
# stacked path, which holds for any drive.
_PHASE_TOL = 1e-13
# Gate trials drawn and scored per block; bounds the per-block temporaries.
_TRIAL_BLOCK = 1024

_SX = np.array([[0.0, 1.0], [1.0, 0.0]])


def _axis_generator(layout: HilbertLayout) -> np.ndarray:
    """Qubit-space displacement axis: sigma_x for one qubit, the
    difference sigma_x^1 - sigma_x^2 for two (opposite couplings)."""
    if layout.n_qubits == 1:
        return _SX.copy()
    return np.kron(_SX, np.eye(2)) - np.kron(np.eye(2), _SX)


def analytic_unitary(g_eff_ratio: float, t: float, layout: HilbertLayout,
                     omega_r: float = 1.0) -> Operator:
    """Closed-form evolution D[beta(t) J] exp(i Phi(t) J^2) on the full space.

    J is the qubit displacement axis (see _axis_generator). Assembled in
    the J eigenbasis, where each eigenvalue lam contributes the block
    e^{i Phi lam^2} D(beta lam). Displacements beyond the truncation
    budget of the layout are rejected.
    """
    beta, phase = beta_phi(g_eff_ratio, t, omega_r)
    jq = _axis_generator(layout)
    lam, vecs = np.linalg.eigh(jq)
    for v in lam:
        if v != 0.0:
            _check_truncation(beta * v, layout.fock_dim)
    dim_q = jq.shape[0]
    u = np.zeros((layout.dim, layout.dim), dtype=complex)
    for i in range(dim_q):
        proj = np.outer(vecs[:, i], vecs[:, i].conj())
        block = complex(math.cos(phase * lam[i] ** 2), math.sin(phase * lam[i] ** 2)) \
            * _displacement_fock(beta * lam[i], layout.fock_dim)
        u += np.kron(proj, block)
    return Operator(layout, u)


def phase_gate_matrix(theta: float) -> np.ndarray:
    """Two-qubit action after one closed loop, basis {ee, eg, ge, gg}:

    e^{i theta} (cos theta I - i sin theta sigma_x (x) sigma_x).
    """
    c, s = math.cos(theta), math.sin(theta)
    m = np.array([
        [c, 0, 0, -1j * s],
        [0, c, -1j * s, 0],
        [0, -1j * s, c, 0],
        [-1j * s, 0, 0, c],
    ], dtype=complex)
    return complex(math.cos(theta), math.sin(theta)) * m


# Magic basis: sigma_x (x) sigma_x conjugation turns into transposition.
_MAGIC = np.array([
    [1, 0, 0, 1j],
    [0, 1j, 1, 0],
    [0, 1j, -1, 0],
    [1, 0, 0, -1j],
], dtype=complex) / math.sqrt(2.0)


def makhlin_invariants(u: np.ndarray) -> tuple[complex, float]:
    """Local invariants (G1, G2) of a two-qubit unitary.

    Equal for gates that differ only by single-qubit rotations; the CNOT
    class is (0, 1) and the identity class is (1, 3). Input must be a
    4 x 4 unitary within 1e-8.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise ValueError(f"expected a 4 x 4 matrix, got shape {u.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(4))) > _UNITARY_TOL:
        raise ValueError("matrix is not unitary within 1e-8")
    ub = _MAGIC.conj().T @ u @ _MAGIC
    m = ub.T @ ub
    det = np.linalg.det(u)
    tr = np.trace(m)
    g1 = tr**2 / (16.0 * det)
    g2 = (tr**2 - np.trace(m @ m)) / (4.0 * det)
    return complex(g1), float(g2.real)


def gate_columns(params: SystemParams, drive: DriveParams,
                 cfg: EvolutionConfig, layout: HilbertLayout) -> np.ndarray:
    """Numerical gate on the vacuum-resonator qubit subspace, a 4 x 4 matrix.

    M = V0^T B U(T) V0: V0 holds the four |q1 q2> (x) |0_c> columns, U(T)
    the driven lab evolution over one resonator period T = 2 pi / omega_r
    and B = conj(frame_phases(T)) the map into the rotating frame. Every
    trial state lives in the span of V0 and is scored there, so M is all
    the trials read. It meets in the middle, by the drive's time mirror.
    Each half period takes the smallest number of steps at or under the
    configured step, so the period takes the smallest even number, and
    the second half's propagation under H is the transpose of the first
    half's under the mirror H(T - tau) (model._mirrored):

        U(T) = P_m^T P,    M = diag(b) (P_m V0)^T (P V0),

    P and P_m the half-period propagations under H and the mirror, and b
    the phases of B at V0's rows, since B V0 = V0 diag(b). When the
    mirror's parts are the drive's own (phi = pi/2 and omega_d T a
    multiple of 2 pi, as in every gate preset), P_m = P and one
    propagation of the four columns over half the period serves both
    sides; otherwise the drive and its mirror propagate them together as
    a two-member stack (model._stack). The provider is checked once
    (propagate._checked), and each propagation keeps evolve_columns'
    overlap guard. The loop's largest branch displacement,
    max_s |2 G_s / omega_r| with G_s = sum_m s_m g_eff,m, must pass the
    truncation budget; ValueError otherwise, before anything is
    propagated.
    """
    if params.n_qubits != 2 or layout.n_qubits != 2:
        raise ValueError("the gate experiment needs exactly 2 qubits")
    g_eff = effective_couplings(params, drive)
    _check_truncation(2.0 * sum(abs(g) for g in g_eff) / params.omega_r,
                      layout.fock_dim)
    t_gate = 2.0 * math.pi / params.omega_r
    nf, dim = layout.fock_dim, layout.dim
    v0 = np.zeros((dim, 4), dtype=complex)
    for q in range(4):
        v0[q * nf, q] = 1.0
    h = _checked(hamiltonian_fn(params, drive, "lab-driven", layout), t_gate)
    mirror = _mirrored(h.parts, t_gate)
    if all(abs(math.remainder(a - b, 2.0 * math.pi)) <= _PHASE_TOL
           for a, b in zip(mirror.phi, h.parts.phi)):
        fwd = bwd = evolve_columns(h, v0, t_gate / 2, cfg)
    else:
        both = evolve_columns(replace(h, parts=_stack([h.parts, mirror]), layout=None),
                              np.concatenate([v0, v0]), t_gate / 2, cfg)
        fwd, bwd = both[:dim], both[dim:]
    b = np.conj(frame_phases(t_gate, params, drive, layout))[0::nf]
    return b[:, None] * (bwd.T @ fwd)


def gate_fidelity_trials(params: SystemParams, drive: DriveParams,
                         n_trials: int, seed: int, cfg: EvolutionConfig,
                         layout: HilbertLayout | None = None,
                         columns: np.ndarray | None = None) -> np.ndarray:
    """Per-trial overlap of the numerical gate with the closed form.

    Trial states are Gaussian-random qubit amplitudes (normalized) with
    the resonator in vacuum. Pass the 4 x 4 matrix from gate_columns as
    columns to reuse one propagation across seeds; it is recomputed here
    otherwise. What _trial_ratio refuses raises ValueError before anything
    is propagated.
    """
    ratio = _trial_ratio(params, drive, n_trials, seed)
    if layout is None:
        layout = HilbertLayout(n_qubits=2, fock_dim=32)
    if columns is None:
        columns = gate_columns(params, drive, cfg, layout)
    ideal_q = phase_gate_matrix(4.0 * math.pi * ratio**2)  # theta = 2 Phi(T)
    # ideal state is (qubit action) (x) |0_c>, so the overlap is the
    # quadratic form amp^dag G amp on the 4 x 4 gate matrix
    g = ideal_q.conj().T @ columns
    rng = np.random.default_rng(seed)
    fids = np.empty(n_trials)
    for lo in range(0, n_trials, _TRIAL_BLOCK):
        # row i holds trial i's real then imaginary parts, so the stream
        # matches drawing trial by trial
        z = rng.standard_normal((min(_TRIAL_BLOCK, n_trials - lo), 2, 4))
        amp = z[:, 0] + 1j * z[:, 1]
        amp /= np.linalg.norm(amp, axis=1, keepdims=True)
        fids[lo:lo + len(amp)] = np.abs(np.sum((amp.conj() @ g) * amp, axis=1)) ** 2
    return fids


def _trial_ratio(params: SystemParams, drive: DriveParams, n_trials: int,
                 seed: int) -> float:
    """g_eff/omega_r of the closed form the trials are scored against; raises
    ValueError, before any propagation, off phi = pi/2, for couplings that
    are not two opposite ones, for fewer than one trial, or for a negative
    seed, which NumPy's generator refuses."""
    _require_quadrature(drive, "the gate experiment")
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")
    if seed < 0:
        raise ValueError(f"gate.seed: must be >= 0, got {seed}")
    g_eff = effective_couplings(params, drive)
    if len(g_eff) != 2 or abs(sum(g_eff)) > 1e-8 * max(params.g, 1e-300):
        raise ValueError(
            "closed-form gate assumes opposite effective couplings "
            f"(alpha_2 = -alpha_1); got g_eff = ({', '.join(f'{g:g}' for g in g_eff)})"
        )
    return g_eff[0] / params.omega_r


def average_gate_fidelity(params: SystemParams, drive: DriveParams,
                          n_trials: int, seed: int, cfg: EvolutionConfig,
                          layout: HilbertLayout | None = None,
                          columns: np.ndarray | None = None) -> float:
    """Mean gate_fidelity_trials value; the headline benchmark number."""
    return float(np.mean(gate_fidelity_trials(
        params, drive, n_trials, seed, cfg, layout=layout, columns=columns)))
