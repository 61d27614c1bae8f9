"""Independent oracles shared by the unit and acceptance suites.

Everything here reconstructs reference physics from scratch (explicit
matrix assembly by np.kron, finite differences) rather than calling
back into the library paths under test; reference_expmv keeps the
earlier Taylor loop, and reference_m4 (the Magnus step with both of its turns) and
reference_rk4 step dense H(t) matrices, to compare the library's
structured lab propagation against. Those two assemble a lab provider's
dense h0 and D once (dense_generator) and form each H(t) as h0 + s(t) D.
percent_csv keeps the CSV writer's earlier form, one % over every cell,
to compare its NumPy formatter against.
"""

from __future__ import annotations

import itertools
from functools import reduce

import numpy as np
import scipy.linalg
import scipy.special

from condisp import DriveParams, HilbertLayout, SystemParams
from condisp.model import (
    _assemble_parts,
    driven_hamiltonian,
    frame_transform,
    rotating_frame_hamiltonian,
)


_PAULI = {
    "x": [[0, 1], [1, 0]],
    "y": [[0, -1j], [1j, 0]],
    "z": [[1, 0], [0, -1]],
    "+": [[0, 1], [0, 0]],  # |e><g|
    "-": [[0, 0], [1, 0]],  # |g><e|
}


def pauli_on(m: int, axis: str, layout: HilbertLayout) -> np.ndarray:
    """Pauli operator on qubit m (0-based), dense on the full space by
    np.kron, in the qubit basis (|e>, |g>); axis is one of 'x', 'y', 'z',
    '+' (|g> to |e>) and '-'."""
    if not 0 <= m < layout.n_qubits:
        raise ValueError(f"qubit index {m} outside layout with {layout.n_qubits} qubit(s)")
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of {sorted(_PAULI)}, got {axis!r}")
    factors = [np.eye(2)] * layout.n_qubits + [np.eye(layout.fock_dim)]
    factors[m] = np.array(_PAULI[axis], dtype=complex)
    return reduce(np.kron, factors)


def ladder(layout: HilbertLayout) -> np.ndarray:
    """Resonator annihilation operator a, identity on the qubits, dense."""
    a = np.diag(np.sqrt(np.arange(1.0, layout.fock_dim)), k=1)
    return np.kron(np.eye(2 ** layout.n_qubits), a).astype(complex)


def closed_form_rotating(
    params: SystemParams, drive: DriveParams, layout: HilbertLayout, t: float
) -> np.ndarray:
    """Rotating-frame Hamiltonian assembled directly with exact
    exp(+-i alpha cos(theta)) phase factors (no sideband expansion)."""
    a = ladder(layout)
    ad = a.conj().T
    sp = [pauli_on(m, "+", layout) for m in range(layout.n_qubits)]
    sm = [pauli_on(m, "-", layout) for m in range(layout.n_qubits)]
    al = drive.alpha
    th = drive.omega_d * t - drive.phi
    d_minus = params.omega_r - params.omega_q
    d_plus = params.omega_r + params.omega_q
    h = np.zeros((layout.dim, layout.dim), dtype=complex)
    for m in range(layout.n_qubits):
        c1 = params.g * np.exp(1j * d_minus * t) * np.exp(1j * al[m] * np.cos(th))
        c2 = params.g * np.exp(1j * d_plus * t) * np.exp(-1j * al[m] * np.cos(th))
        for c, op in ((c1, ad @ sm[m]), (c2, ad @ sp[m])):
            h += c * op + np.conj(c) * op.conj().T
    for m in range(layout.n_qubits):
        for n in range(layout.n_qubits):
            if m == n:
                continue
            c3 = (
                params.d_coupling
                * np.exp(2j * params.omega_q * t)
                * np.exp(-1j * (al[m] + al[n]) * np.cos(th))
            )
            c4 = params.d_coupling * np.exp(-1j * (al[m] - al[n]) * np.cos(th))
            for c, op in ((c3, sp[m] @ sp[n]), (c4, sp[m] @ sm[n])):
                h += c * op + np.conj(c) * op.conj().T
    return h


def exact_effective_states(params: SystemParams, drive: DriveParams,
                           layout: HilbertLayout, psi0: np.ndarray, times) -> np.ndarray:
    """States of H_eff(t) = e^{i omega_r t} W + h.c., W = sum_m g J_1(alpha_m)
    a^dag sigma_x^m, at the given times, one row each, without a step.

    H_eff(t) = e^{i omega_r N t} H_eff(0) e^{-i omega_r N t}, so in the frame
    rotating with omega_r N the generator is the static H_eff(0) + omega_r N
    and psi(t) = e^{i omega_r N t} e^{-i (H_eff(0) + omega_r N) t} psi0,
    from one eigendecomposition.
    """
    a = ladder(layout)
    w = sum(params.g * scipy.special.jv(1, alpha) * (a.conj().T @ pauli_on(m, "x", layout))
            for m, alpha in enumerate(drive.alpha))
    n = (a.conj().T @ a).diagonal().real
    e, v = np.linalg.eigh(w + w.conj().T + params.omega_r * np.diag(n))
    t = np.asarray(times, dtype=float)[:, None]
    in_frame = (np.exp(-1j * e * t) * (v.conj().T @ psi0)) @ v.T
    return np.exp(1j * params.omega_r * n * t) * in_frame


def reference_expmv(apply, v: np.ndarray, members=None) -> tuple[np.ndarray, int]:
    """exp(-i A) @ v by the Taylor product, apply(x) = A @ x, and the
    number of terms.

    The earlier loop: term_k = (-i / k) A term_{k-1}, added to the
    partial sum as it goes; it stops once ||term||^2 <= 1e-32 ||partial
    sum||^2, both squared norms taken afresh at every term, and raises
    RuntimeError after 200 terms. members, slices of v's flat view, makes
    the partial sum's squared norm that of its smallest member.
    """
    out = v.astype(complex, copy=True)
    term = out
    parts = [slice(None)] if members is None else members
    for k in range(1, 201):
        term = (-1j / k) * apply(term)
        out += term
        flat = out.reshape(-1)
        scale = min(np.vdot(flat[m], flat[m]).real for m in parts)
        if np.vdot(term, term).real <= 1e-32 * scale:
            return out, k
    raise RuntimeError("Taylor series did not converge in 200 terms")


def dense_generator(h):
    """t -> H(t) of a lab provider h (of one drive or a stack), dense in
    the product basis: h0 + sum_p sin(omega_d t - p) D_p, with h0 and one
    D_p per distinct phi p of h's sectors assembled once."""
    parts = h.parts
    h0 = _assemble_parts((1.0, 0.0), parts)
    phis = sorted(set(parts.phi.tolist()))
    ds = [_assemble_parts((0.0, 1.0 * (parts.phi == p)), parts) for p in phis]

    def at(t: float) -> np.ndarray:
        return h0 + sum(np.sin(parts.omega_d * t - p) * d for p, d in zip(phis, ds))
    return at


def reference_m4(h, v0: np.ndarray, times: np.ndarray, n_sub: int) -> list[np.ndarray]:
    """States at the sample times by the fourth-order Magnus step with both
    of its turns, e^{-iK} exp(-i dt Hbar) e^{+iK}, on dense matrices.

    Hbar = (H_1 + H_2)/2 and K = (sqrt(3)/12) dt (H_2 - H_1) at the Gauss
    nodes t + (1/2 -+ sqrt(3)/6) dt; the exponential is reference_expmv's
    and the turns SciPy's expm. Every step takes dt = times[-1] / (n_sub
    (len(times) - 1)), the j-th of a sample interval starting at
    times[i] + j dt, as the library's schedule does. h is a lab provider,
    whose H(t) dense_generator forms.
    """
    h = dense_generator(h)
    nodes = np.array([0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0])
    dt = float(times[-1]) / (n_sub * (len(times) - 1))
    v = np.asarray(v0, dtype=complex)
    out = [v.copy()]
    for t in times[:-1]:
        for j in range(n_sub):
            h1, h2 = (h(s) for s in t + j * dt + dt * nodes)
            k = np.sqrt(3.0) / 12.0 * dt * (h2 - h1)
            a = 0.5 * dt * (h1 + h2)
            v = scipy.linalg.expm(1j * k) @ v
            v = reference_expmv(lambda x: a @ x, v)[0]
            v = scipy.linalg.expm(-1j * k) @ v
        out.append(v.copy())
    return out


def reference_rk4(h, v0: np.ndarray, times: np.ndarray, n_sub: int) -> list[np.ndarray]:
    """States at the sample times by classical RK4 on dense matrices.

    A step from t takes its slopes k = -i dt h(s) x at s = t, t + dt/2
    (twice) and t + dt, and moves v to v + (k1 + 2 k2 + 2 k3 + k4)/6. Every
    step takes dt = times[-1] / (n_sub (len(times) - 1)), the j-th of a
    sample interval starting at times[i] + j dt, as reference_m4's
    schedule does. h is a lab provider, whose H(t) dense_generator forms.
    """
    h = dense_generator(h)
    dt = float(times[-1]) / (n_sub * (len(times) - 1))
    v = np.asarray(v0, dtype=complex)
    out = [v.copy()]
    for t in times[:-1]:
        for j in range(n_sub):
            h1, h2, h3 = (h(s) for s in t + j * dt + dt * np.array([0.0, 0.5, 1.0]))
            k1 = -1j * dt * (h1 @ v)
            k2 = -1j * dt * (h2 @ (v + 0.5 * k1))
            k3 = -1j * dt * (h2 @ (v + 0.5 * k2))
            k4 = -1j * dt * (h3 @ (v + k3))
            v = v + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        out.append(v.copy())
    return out


def max_expansion_residual(
    params: SystemParams,
    drive: DriveParams,
    layout: HilbertLayout,
    times,
    l_max: int = 20,
) -> float:
    """Worst |sideband expansion - closed form| over the given times."""
    worst = 0.0
    for t in times:
        ours = rotating_frame_hamiltonian(params, drive, float(t), layout, l_max=l_max).mat
        worst = max(worst, float(np.max(np.abs(ours - closed_form_rotating(
            params, drive, layout, float(t))))))
    return worst


def max_generator_residual(
    params: SystemParams,
    drive: DriveParams,
    layout: HilbertLayout,
    n_grid: int = 200,
    fd_step_periods: float = 1e-6,
) -> float:
    """Worst |U^dag H U - i U^dag dU/dt - H_rot| over one drive period.

    dU/dt is a central finite difference with step ``fd_step_periods``
    drive periods.
    """
    period = 2 * np.pi / drive.omega_d
    h_fd = fd_step_periods * period
    worst = 0.0
    for t in np.linspace(0.0, period, n_grid):
        u = frame_transform(t, params, drive, layout).mat
        up = frame_transform(t + h_fd, params, drive, layout).mat
        um = frame_transform(t - h_fd, params, drive, layout).mat
        dudt = (up - um) / (2 * h_fd)
        hd = driven_hamiltonian(params, drive, t, layout).mat
        gen = u.conj().T @ hd @ u - 1j * (u.conj().T @ dudt)
        ref = rotating_frame_hamiltonian(params, drive, t, layout, l_max=20).mat
        worst = max(worst, float(np.max(np.abs(gen - ref))))
    return worst


def percent_csv(comments, header: str, columns) -> bytes:
    """The whole file the CSV writer wrote before it formatted its cells in
    NumPy: one % over every cell, %d for a range within +-1e12 and %.12g
    for every other cell, arrays through tolist."""
    cells = tuple(itertools.chain.from_iterable(zip(
        *(c.tolist() if isinstance(c, np.ndarray) else c for c in columns), strict=True)))
    fmt = ",".join("%d" if isinstance(c, range) and (not c or max(abs(c[0]), abs(c[-1])) < 10**12)
                   else "%.12g" for c in columns) + "\n"
    return ("".join([f"# {line}\n" for line in comments] + [header + "\n"])
            + fmt * len(columns[0]) % cells).encode("utf-8")
