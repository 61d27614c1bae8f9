"""Single-qubit conditional displacement: cat states and their statistics.

Half a resonator period of the effective interaction pushes the resonator
to +-beta conditioned on the qubit sigma_x eigenvalue, entangling the two.
Measuring the qubit in its energy basis then collapses the resonator onto
an even or odd superposition of |beta> and |-beta>. Repeating the half
period with the modulation restarted walks the branches further out,
amplifying the cat amplitude linearly in the step count.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hilbert import NORM_TOL, HilbertLayout, Ket, basis_state, coherent_amplitudes
from .model import (DriveParams, SystemParams, beta_phi, effective_couplings,
                    frame_phases, hamiltonian_fn, _mirrored, _require_quadrature,
                    _stack)
from .propagate import EvolutionConfig, PropagationAccuracyError, _checked, evolve_columns

__all__ = [
    "CatDecomposition",
    "cat_state",
    "decompose_cat",
    "multi_step_cat",
    "cat_fidelity_experiment",
    "branch_probabilities",
]

# Branch probability below which the odd branch is treated as absent.
_DEGENERATE_P = 1e-12

STEP_TIME_FACTOR = math.pi  # one step lasts pi / omega_r


def branch_probabilities(beta: complex) -> tuple[float, float]:
    """(p_even, p_odd) for measuring the qubit of an ideal cat state.

    p_l = (1 + (-1)^l e^{-2|beta|^2}) / 2; at beta = 0 the odd branch
    vanishes and at large |beta| both tend to 1/2.
    """
    w = math.exp(-2.0 * abs(beta) ** 2)
    return 0.5 * (1.0 + w), 0.5 * (1.0 - w)


@dataclass(frozen=True)
class CatDecomposition:
    """Qubit-conditioned resonator branches of an entangled state.

    even_state / odd_state are normalized Fock-amplitude arrays of the
    resonator factor conditioned on finding the qubit in |g> / |e>;
    odd_state is None when that branch carries no probability
    (degenerate). Probabilities are renormalized by the input norm, so
    they sum to 1 exactly even for numerically evolved inputs.
    """

    beta: complex
    norm_even: float
    norm_odd: float
    p_even: float
    p_odd: float
    even_state: np.ndarray
    odd_state: np.ndarray | None
    degenerate: bool


def _cat_ket(beta: complex, phase: float, layout: HilbertLayout) -> Ket:
    """e^{i phase} / 2 * [ |e>(|beta> - |-beta>) + |g>(|beta> + |-beta>) ]."""
    if layout.n_qubits != 1:
        raise ValueError("cat states live on a 1-qubit layout")
    plus = coherent_amplitudes(beta, layout.fock_dim)
    parity = (-1.0) ** np.arange(layout.fock_dim)  # |-beta> = parity * |beta>
    vec = np.empty(layout.dim, dtype=complex)
    half = 0.5 * complex(math.cos(phase), math.sin(phase))
    vec[:layout.fock_dim] = half * (1.0 - parity) * plus   # qubit |e>
    vec[layout.fock_dim:] = half * (1.0 + parity) * plus   # qubit |g>
    return Ket(layout, vec)


def cat_state(g_eff_ratio: float, t: float, layout: HilbertLayout,
              omega_r: float = 1.0) -> Ket:
    """Analytic entangled state grown from |g> (x) |0_c>.

    e^{i Phi(t)} / 2 * [ |e>(|beta> - |-beta>) + |g>(|beta> + |-beta>) ]
    with beta(t), Phi(t) from the closed-form displacement loop, built
    directly from coherent amplitudes.
    """
    return _cat_ket(*beta_phi(g_eff_ratio, t, omega_r), layout)


def decompose_cat(psi: Ket) -> CatDecomposition:
    """Split a 1-qubit entangled state into qubit-conditioned branches.

    Recovers the branch displacement from the annihilation-operator
    cross-overlap: a |g-branch> = beta |e-branch> for an ideal cat, so
    beta = <e-branch| a |g-branch> / ||e-branch||^2.
    """
    layout = psi.layout
    if layout.n_qubits != 1:
        raise ValueError("decompose_cat needs a 1-qubit layout")
    nf = layout.fock_dim
    u_e = psi.vec[:nf]
    u_g = psi.vec[nf:]
    total = float(np.vdot(u_e, u_e).real + np.vdot(u_g, u_g).real)
    if total <= 0.0:
        raise ValueError("state has zero norm")
    p_odd = float(np.vdot(u_e, u_e).real) / total
    p_even = 1.0 - p_odd

    degenerate = p_odd <= _DEGENERATE_P
    a_ug = np.sqrt(np.arange(1, nf)) * u_g[1:]  # (a u_g)_n = sqrt(n+1) u_{n+1}
    if degenerate:
        beta = 0.0 + 0.0j
    else:
        beta = complex(np.vdot(u_e, np.append(a_ug, 0.0))
                       / np.vdot(u_e, u_e).real)
    w = math.exp(-2.0 * abs(beta) ** 2)
    norm_even = 1.0 / math.sqrt(2.0 * (1.0 + w))
    norm_odd = math.inf if w >= 1.0 else 1.0 / math.sqrt(2.0 * (1.0 - w))

    ng = np.linalg.norm(u_g)
    if ng == 0.0:
        raise ValueError("even branch is empty; expected a state grown from |g>")
    even_state = u_g / ng
    odd_state = None if degenerate else u_e / np.linalg.norm(u_e)
    return CatDecomposition(beta, norm_even, norm_odd, p_even, p_odd,
                            even_state, odd_state, degenerate)


def multi_step_cat(g_eff_ratio: float, k: int, layout: HilbertLayout,
                   omega_r: float = 1.0) -> Ket:
    """k repetitions of the half-period analytic evolution on |g 0_c>.

    The displacements share the sigma_x axis, so branch amplitudes add:
    after k steps the branches sit at +- k beta(t0) = +- 2 k g_eff / omega_r
    with phase k Phi(t0), t0 = pi / omega_r. Built from coherent
    amplitudes, as cat_state is.
    """
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    beta, phase = beta_phi(g_eff_ratio, STEP_TIME_FACTOR / omega_r, omega_r)
    return _cat_ket(k * beta, k * phase, layout)


def cat_fidelity_experiment(params: SystemParams, drive: DriveParams, k: int,
                            cfg: EvolutionConfig,
                            layout: HilbertLayout | None = None) -> float:
    """Overlap of the numerically grown k-step cat with the analytic one.

    Each step evolves the current state under the driven lab Hamiltonian
    for t0 = pi / omega_r (the propagator U) and rotates it back into the
    modulation frame (the phase B = conj(frame_phases(t0))); the
    modulation itself restarts at every step (the linear amplitude walk
    needs the drive phase re-aligned with the resonator each half period,
    and a continuous drive instead unwinds the displacement over the
    second half). The overlap meets in the middle,

        <target| (BU)^k |g,0> = z^T (BU)^(k - k//2) |g,0>,
        z = (U_m B)^(k//2) conj(target),

    since U^dag = conj(U_m) for the propagation U_m under the mirror
    H(t0 - tau) (model._mirrored), the transpose of U. So each of k//2
    propagations carries a forward step of |g,0> and a mirror step of z
    together, on the two-member stack of the lab parts and their mirror
    (model._stack), and an odd k adds one single forward step: ceil(k/2)
    propagations in all, of the provider propagate._checked checks once.
    The analytic target assumes phi = pi/2, so any other modulation phase
    is rejected. The target is built first, so a
    displacement beyond the truncation budget raises before anything is
    propagated; a norm drift of either half beyond 1e-6 raises
    PropagationAccuracyError naming k.
    """
    if layout is None:
        layout = HilbertLayout(n_qubits=1, fock_dim=32)
    if params.n_qubits != 1:
        raise ValueError("the cat experiment needs exactly 1 qubit")
    _require_quadrature(drive, "the cat experiment")
    ratio = effective_couplings(params, drive)[0] / params.omega_r
    target = multi_step_cat(ratio, k, layout, params.omega_r)
    t0 = STEP_TIME_FACTOR / params.omega_r
    h = _checked(hamiltonian_fn(params, drive, "lab-driven", layout), t0)
    back = np.conj(frame_phases(t0, params, drive, layout))
    fwd, bwd = basis_state(layout, "g", 0).vec, np.conj(target.vec)
    if k > 1:
        pair = replace(h, parts=_stack([h.parts, _mirrored(h.parts, t0)]), layout=None)
    for _ in range(k // 2):
        both = evolve_columns(pair, np.concatenate([fwd, back * bwd]), t0, cfg)
        fwd, bwd = back * both[:layout.dim], both[layout.dim:]
    if k % 2:
        fwd = back * evolve_columns(h, fwd, t0, cfg)
    for half, vec, norm, steps in (("forward", fwd, 1.0, k - k // 2),
                                   ("backward", bwd, np.linalg.norm(target.vec), k // 2)):
        drift = abs(float(np.linalg.norm(vec)) - norm)
        if drift > NORM_TOL:
            raise PropagationAccuracyError(
                f"cat state norm drifted by {drift:.3e} (budget {NORM_TOL:g}) "
                f"over {k} steps, {steps} of them in the {half} half, "
                f"t = {k * t0:g}", step=k, time=k * t0,
            )
    return abs(bwd @ fwd) ** 2
