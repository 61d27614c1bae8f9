"""Hamiltonians for flux-modulated qubits ultrastrongly coupled to a resonator.

The static model is one or two charge qubits sharing an LC resonator:

    H = sum_m (omega_q/2) sigma_z^m + omega_r a^dag a
        + sum_m g (a^dag + a) sigma_x^m
        + sum_{m != n} D sigma_x^m sigma_x^n,        D = g^2 / omega_r

where the double sum over ordered pairs counts each qubit pair twice. A
slow magnetic modulation shifts each qubit splitting,

    omega_q^m(t) = omega_q + epsilon_m sin(omega_d t - phi),

and moving to the frame that removes all diagonal terms (bare precession
plus the accumulated modulation phase) turns the couplings into sideband
series in the modulation index alpha_m = epsilon_m / omega_d. Keeping only
the first sideband of the single-photon terms, on resonance
(omega_q = omega_d = eta * omega_r, eta > 2) and with phi = pi/2, leaves a
conditional displacement

    H_eff(t) = sum_m g J_1(alpha_m) (a^dag e^{i omega_r t}
               + a e^{-i omega_r t}) sigma_x^m.

All frequencies are in units of omega_r.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .hilbert import _PAULI, HilbertLayout, Operator, _annihilation, _embed
from .numerics import bessel_j

__all__ = [
    "SystemParams",
    "DriveParams",
    "ValidityCondition",
    "ValidityReport",
    "lab_hamiltonian",
    "driven_hamiltonian",
    "frame_transform",
    "frame_phases",
    "rotating_frame_hamiltonian",
    "effective_hamiltonian",
    "effective_couplings",
    "beta_phi",
    "validity_report",
    "hamiltonian_fn",
    "omega_max",
    "FRAMES",
]

FRAMES = ("lab-driven", "rotating", "effective")

# Sideband-to-coupling ratio treated as "well separated" in validity checks.
_MARGIN_MIN = 10.0
_EQUALITY_TOL = 1e-9
# Window around the J_0 zero that counts as cancelling the flip-flop term.
_FLIPFLOP_ZERO = 2.40483
_FLIPFLOP_TOL = 1e-3

_DEFAULT_L_MAX = 20


@dataclass(frozen=True)
class SystemParams:
    """Static circuit parameters, all frequencies in units of omega_r.

    Attributes
    ----------
    omega_q : float
        Qubit splitting.
    g : float
        Qubit-resonator coupling rate (ultrastrong regime is g ~ 0.1..1).
    n_qubits : int
        1 or 2.
    omega_r : float
        Resonator frequency; the internal unit, 1.0 unless you know better.
    d_coupling : float or None
        Qubit-qubit coupling mediated by the resonator. None derives the
        physical value g^2/omega_r; pass a number to override.
    """

    omega_q: float
    g: float
    n_qubits: int = 2
    omega_r: float = 1.0
    d_coupling: float | None = None

    def __post_init__(self) -> None:
        if self.n_qubits not in (1, 2):
            raise ValueError(f"n_qubits must be 1 or 2, got {self.n_qubits}")
        if not (math.isfinite(self.omega_q) and self.omega_q > 0):
            raise ValueError(f"omega_q must be positive, got {self.omega_q}")
        if not (math.isfinite(self.omega_r) and self.omega_r > 0):
            raise ValueError(f"omega_r must be positive, got {self.omega_r}")
        if not (math.isfinite(self.g) and self.g >= 0):
            raise ValueError(f"g must be >= 0, got {self.g}")
        if self.d_coupling is None:
            object.__setattr__(self, "d_coupling", self.g**2 / self.omega_r)
        elif not math.isfinite(self.d_coupling):
            raise ValueError("d_coupling must be finite")

    @property
    def eta(self) -> float:
        return self.omega_q / self.omega_r


@dataclass(frozen=True)
class DriveParams:
    """Qubit-splitting modulation, shared frequency and phase.

    Attributes
    ----------
    epsilon : tuple of float
        Modulation amplitude per qubit.
    omega_d : float
        Modulation frequency (resonant operation uses omega_d = omega_q).
    phi : float
        Modulation phase; the conditional-displacement closed form needs
        pi/2.
    """

    epsilon: tuple[float, ...]
    omega_d: float
    phi: float = math.pi / 2

    def __post_init__(self) -> None:
        eps = tuple(float(e) for e in self.epsilon)
        if len(eps) not in (1, 2):
            raise ValueError(f"epsilon must list 1 or 2 amplitudes, got {len(eps)}")
        if not all(math.isfinite(e) for e in eps):
            raise ValueError("epsilon amplitudes must be finite")
        object.__setattr__(self, "epsilon", eps)
        if not (math.isfinite(self.omega_d) and self.omega_d > 0):
            raise ValueError(f"omega_d must be positive, got {self.omega_d}")
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")

    @classmethod
    def from_alpha(cls, alpha, omega_d: float, phi: float = math.pi / 2) -> "DriveParams":
        """Build from modulation indices alpha_m = epsilon_m / omega_d."""
        alphas = tuple(float(a) for a in np.atleast_1d(alpha))
        return cls(tuple(a * omega_d for a in alphas), omega_d, phi)

    @property
    def alpha(self) -> tuple[float, ...]:
        """Modulation index per qubit, epsilon_m / omega_d."""
        return tuple(e / self.omega_d for e in self.epsilon)

    @property
    def n_qubits(self) -> int:
        return len(self.epsilon)


def _check_pair(params: SystemParams, drive: DriveParams, layout: HilbertLayout) -> None:
    if params.n_qubits != layout.n_qubits:
        raise ValueError(
            f"params describe {params.n_qubits} qubit(s) but layout has {layout.n_qubits}"
        )
    if drive.n_qubits != params.n_qubits:
        raise ValueError(
            f"drive lists {drive.n_qubits} amplitude(s) but params have {params.n_qubits} qubit(s)"
        )


def _require_quadrature(drive: DriveParams, what: str) -> None:
    """Reject a modulation phase other than pi/2, where the closed forms hold."""
    if abs(drive.phi - math.pi / 2) > _EQUALITY_TOL:
        raise ValueError(f"{what} requires phi = pi/2, got phi = {drive.phi}")


def _lab_matrix(params: SystemParams, layout: HilbertLayout) -> np.ndarray:
    """Static Hamiltonian, each term a Pauli on its qubit(s) times a Fock
    factor; the diagonal omega_r n + sum_m (omega_q/2) s_m is exact."""
    diag = params.omega_r * (np.arange(layout.dim) % layout.fock_dim)
    for sz in _sigma_z(layout):
        diag += 0.5 * params.omega_q * sz
    h = np.diag(diag.astype(complex))
    x = _annihilation(layout.fock_dim)
    x += x.T
    sx = _PAULI["x"]
    for m in range(layout.n_qubits):
        h += params.g * _embed(layout, {m: sx}, x)
    for m in range(layout.n_qubits):
        for n in range(layout.n_qubits):
            if m != n:  # ordered pairs: each qubit pair enters twice
                h += params.d_coupling * _embed(layout, {m: sx, n: sx}, None)
    return h


def lab_hamiltonian(params: SystemParams, layout: HilbertLayout) -> Operator:
    """Static Hamiltonian of the coupled qubit(s) and resonator."""
    if params.n_qubits != layout.n_qubits:
        raise ValueError("params/layout qubit count mismatch")
    return Operator(layout, _lab_matrix(params, layout))


def _sigma_z(layout: HilbertLayout) -> np.ndarray:
    """sigma_z^m per product-basis state, one row per qubit m; qubit m is
    (|e>, |g>) = (+1, -1)."""
    return np.array([np.repeat(np.tile([1.0, -1.0], 2 ** m), layout.dim >> (m + 1))
                     for m in range(layout.n_qubits)])


def _drive_diagonal(drive: DriveParams, layout: HilbertLayout) -> np.ndarray:
    """Diagonal of the modulation term sum_m (epsilon_m/2) sigma_z^m."""
    return sum(0.5 * e * sz for e, sz in zip(drive.epsilon, _sigma_z(layout)))


def driven_hamiltonian(params: SystemParams, drive: DriveParams, t: float,
                       layout: HilbertLayout) -> Operator:
    """Lab Hamiltonian with the modulated qubit splittings at time t."""
    return Operator(layout, hamiltonian_fn(params, drive, "lab-driven", layout)(t))


def frame_transform(t: float, params: SystemParams, drive: DriveParams,
                    layout: HilbertLayout) -> Operator:
    """Unitary mapping lab states into the modulation rotating frame.

    A rotating-frame state is U(t)^dag |psi_lab(t)>. At phi = pi/2 the
    transform is the identity at t = 0.
    """
    return Operator(layout, np.diag(frame_phases(t, params, drive, layout)))


def frame_phases(t, params: SystemParams, drive: DriveParams,
                 layout: HilbertLayout) -> np.ndarray:
    """Diagonal of the frame transform U(t) = U_1(t) U_2(t) as a phase vector.

    U_1 removes the bare precession exp[-i(sum_m (omega_q/2) sigma_z^m
    + omega_r a^dag a) t]; U_2 carries the accumulated modulation phase
    exp[i sum_m (alpha_m/2) cos(omega_d t - phi) sigma_z^m]. Both are
    diagonal in the product basis, so applying the transform (or its
    inverse, the conjugate) is an elementwise multiply; evolution loops use
    this instead of a dim x dim matrix. t may be an array of times; the
    result then has shape t.shape + (dim,).
    """
    _check_pair(params, drive, layout)
    t = np.asarray(t, dtype=float)[..., None]
    sz = _sigma_z(layout)
    n = np.arange(layout.dim) % layout.fock_dim
    bare = 0.5 * params.omega_q * sz.sum(axis=0) + params.omega_r * n
    modulation = 0.5 * (np.array(drive.alpha) @ sz)
    return np.exp(1j * (modulation * np.cos(drive.omega_d * t - drive.phi)
                        - bare * t))


def _sideband_coeffs(alpha: float, l_max: int) -> np.ndarray:
    """i^l J_l(alpha) for l = 0..l_max, folded so that the full series

        exp(i alpha cos theta) = c[0] + 2 sum_{l>=1} c[l] cos(l theta)

    holds after pairing l with -l (J_{-l} = (-1)^l J_l)."""
    l = np.arange(l_max + 1)
    units = 1j ** (l % 4)
    return units * np.array([bessel_j(int(k), alpha) for k in l])


def _sideband_sum(coeffs: np.ndarray, theta: float, conjugate: bool) -> complex:
    """Evaluate the truncated series; conjugate=True gives exp(-i alpha cos)."""
    l = np.arange(1, coeffs.size)
    total = coeffs[0] + 2.0 * (coeffs[1:] @ np.cos(l * theta))
    return complex(total.conjugate() if conjugate else total)


def _rotating_terms(params: SystemParams, drive: DriveParams,
                    layout: HilbertLayout, l_max: int):
    """Static matrices and time-coefficient descriptors with H(t) = sum c_k(t) M_k + h.c.

    Each descriptor is (prefactor, detuning, sideband coeffs, conjugate flag):
    c_k(t) = prefactor * exp(i detuning t) * series(omega_d t - phi).
    """
    ad = _annihilation(layout.fock_dim).T
    sp, sm = _PAULI["+"], _PAULI["-"]
    alphas = drive.alpha
    dm = params.omega_r - params.omega_q
    dp = params.omega_r + params.omega_q
    mats: list[np.ndarray] = []
    terms: list[tuple[float, float, np.ndarray, bool]] = []
    for m in range(layout.n_qubits):
        cs = _sideband_coeffs(alphas[m], l_max)
        mats.append(_embed(layout, {m: sm}, ad))
        terms.append((params.g, dm, cs, False))
        mats.append(_embed(layout, {m: sp}, ad))
        terms.append((params.g, dp, cs, True))
    for m in range(layout.n_qubits):
        for n in range(layout.n_qubits):
            if m == n:
                continue
            mats.append(_embed(layout, {m: sp, n: sp}, None))
            terms.append((params.d_coupling, 2.0 * params.omega_q,
                          _sideband_coeffs(alphas[m] + alphas[n], l_max), True))
            mats.append(_embed(layout, {m: sp, n: sm}, None))
            terms.append((params.d_coupling, 0.0,
                          _sideband_coeffs(alphas[m] - alphas[n], l_max), True))
    return np.array(mats), terms


def _rotating_matrix_at(mats: np.ndarray, terms, omega_d: float, phi: float,
                        t: float) -> np.ndarray:
    theta = omega_d * t - phi
    cs = np.array([pref * complex(math.cos(det * t), math.sin(det * t))
                   * _sideband_sum(coeffs, theta, conj)
                   for pref, det, coeffs, conj in terms])
    h = np.tensordot(cs, mats, axes=1)
    return h + h.conj().T


def rotating_frame_hamiltonian(params: SystemParams, drive: DriveParams, t: float,
                               layout: HilbertLayout,
                               l_max: int = _DEFAULT_L_MAX) -> Operator:
    """Interaction-picture Hamiltonian as a truncated sideband expansion.

    The frame transform leaves four coupling families, each dressed by a
    phase factor exp(+-i alpha cos(omega_d t - phi)) that is expanded into
    Bessel sidebands and truncated at |l| <= l_max:

    - a^dag sigma_-^m at detuning omega_r - omega_q,
    - a^dag sigma_+^m at detuning omega_r + omega_q,
    - sigma_+^m sigma_+^n at 2 omega_q, index alpha_m + alpha_n,
    - sigma_+^m sigma_-^n at zero detuning, index alpha_m - alpha_n,

    plus Hermitian conjugates. Truncation error falls off factorially;
    l_max = 20 reproduces the closed form to better than 1e-9 for
    modulation indices up to 2.
    """
    return Operator(layout,
                    hamiltonian_fn(params, drive, "rotating", layout, l_max)(t))


def effective_couplings(params: SystemParams, drive: DriveParams) -> tuple[float, ...]:
    """First-sideband conditional-displacement rate g J_1(alpha_m) per qubit."""
    return tuple(params.g * bessel_j(1, a) for a in drive.alpha)


def beta_phi(g_eff_ratio, t, omega_r: float = 1.0):
    """Displacement beta(t) and accumulated phase Phi(t) of the closed form.

    beta(t) = r (1 - e^{i omega_r t}), Phi(t) = r^2 (omega_r t - sin omega_r t)
    with r = g_eff / omega_r: H_eff = g_eff (a^dag e^{i omega_r t} + h.c.)
    takes the vacuum to e^{i Phi(t)} |beta(t)>. The loop closes at
    t = 2 pi / omega_r where beta returns to 0 and Phi reaches 2 pi r^2.
    r and t may be arrays; they broadcast.
    """
    r = np.asarray(g_eff_ratio, dtype=float)
    wt = omega_r * np.asarray(t, dtype=float)
    beta = r * (1.0 - (np.cos(wt) + 1j * np.sin(wt)))
    phase = r * r * (wt - np.sin(wt))
    return beta[()], phase[()]


def effective_hamiltonian(params: SystemParams, drive: DriveParams, t: float,
                          layout: HilbertLayout) -> Operator:
    """Resonant first-sideband Hamiltonian, the conditional displacement.

    Valid on the modulation resonance omega_q = omega_d with phi = pi/2;
    phi is enforced here because the closed form simply does not hold away
    from it. The remaining validity conditions are reported, not enforced:
    see validity_report.
    """
    return Operator(layout, hamiltonian_fn(params, drive, "effective", layout)(t))


@dataclass(frozen=True)
class ValidityCondition:
    """One approximation budget line.

    ``margin`` is the dimensionless number actually compared: a separation
    ratio for the "well detuned" conditions (bigger is better, >= 10 counts
    as satisfied) and a deviation for the equality/cancellation conditions
    (smaller is better).
    """

    name: str
    satisfied: bool
    margin: float


@dataclass(frozen=True)
class ValidityReport:
    """Where the effective conditional-displacement model stands."""

    eta: float
    conditions: tuple[ValidityCondition, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(c.satisfied for c in self.conditions)

    def __getitem__(self, name: str) -> ValidityCondition:
        for c in self.conditions:
            if c.name == name:
                return c
        raise KeyError(name)


def validity_report(params: SystemParams, drive: DriveParams) -> ValidityReport:
    """Check every assumption behind the effective Hamiltonian.

    Conditions (margins as described on ValidityCondition):

    - eta_above_2: omega_q/omega_r > 2 keeps every neglected sideband
      nonresonant; margin is eta/2.
    - drive_resonant: omega_d = omega_q; margin is the relative deviation.
    - phase_quadrature: phi = pi/2; margin is the absolute deviation.
    - single_photon_carrier: |omega_r - omega_q| >> g |J_0(alpha_m)|.
    - counter_rotating_sideband: |omega_r - 2 omega_q| >> g |J_{-1}(alpha_m)|.
    - flip_flop_cancelled (2 qubits): alpha_1 - alpha_2 sits on the first
      zero of J_0, margin |J_0(alpha_1 - alpha_2)|.
    - double_excitation_weak (2 qubits): D |J_2(alpha_1 + alpha_2)| << g.
    """
    if drive.n_qubits != params.n_qubits:
        raise ValueError("drive/params qubit count mismatch")
    alphas = drive.alpha
    g = params.g
    conds: list[ValidityCondition] = []

    eta = params.eta
    conds.append(ValidityCondition("eta_above_2", eta > 2.0, eta / 2.0))

    dev = abs(drive.omega_d - params.omega_q) / params.omega_r
    conds.append(ValidityCondition("drive_resonant", dev <= _EQUALITY_TOL, dev))

    dev = abs(drive.phi - math.pi / 2)
    conds.append(ValidityCondition("phase_quadrature", dev <= _EQUALITY_TOL, dev))

    delta_minus = abs(params.omega_r - params.omega_q)
    floor = max(g * max(abs(bessel_j(0, a)) for a in alphas), 1e-300)
    ratio = delta_minus / floor
    conds.append(ValidityCondition("single_photon_carrier",
                                   ratio >= _MARGIN_MIN, ratio))

    delta_2q = abs(params.omega_r - 2.0 * params.omega_q)
    floor = max(g * max(abs(bessel_j(-1, a)) for a in alphas), 1e-300)
    ratio = delta_2q / floor
    conds.append(ValidityCondition("counter_rotating_sideband",
                                   ratio >= _MARGIN_MIN, ratio))

    if params.n_qubits == 2:
        dalpha = alphas[0] - alphas[1]
        conds.append(ValidityCondition(
            "flip_flop_cancelled",
            abs(abs(dalpha) - _FLIPFLOP_ZERO) <= _FLIPFLOP_TOL,
            abs(bessel_j(0, dalpha)),
        ))
        blocked = params.d_coupling * abs(bessel_j(2, alphas[0] + alphas[1]))
        ratio = g / blocked if blocked > 0 else math.inf
        conds.append(ValidityCondition("double_excitation_weak",
                                       ratio >= _MARGIN_MIN, ratio))
    return ValidityReport(eta, tuple(conds))


def omega_max(params: SystemParams, drive: DriveParams, frame: str) -> float:
    """Largest frequency scale present in the chosen frame's generator.

    Used to set the integrator step. For the driven lab frame this is the
    peak instantaneous splitting omega_q + max epsilon; for the rotating
    frame it bounds the fastest dressed phase, and for the effective frame
    the resonator rotation plus the conditional-displacement rate.
    """
    if frame not in FRAMES:
        raise ValueError(f"frame must be one of {FRAMES}, got {frame!r}")
    if frame == "lab-driven":
        return params.omega_q + max(abs(e) for e in drive.epsilon)
    if frame == "rotating":
        swing = 2.0 * max(abs(a) for a in drive.alpha) * drive.omega_d
        return max(abs(params.omega_r - params.omega_q),
                   params.omega_r + params.omega_q,
                   2.0 * params.omega_q) + swing
    geff = effective_couplings(params, drive)
    return params.omega_r + 2.0 * sum(abs(x) for x in geff)


@dataclass(frozen=True, eq=False)
class _Chains:
    """Parts of a one-qubit generator as bands along its two parity chains.

    Chain order lists |g,0>, |e,1>, |g,2>, ... and then |e,0>, |g,1>,
    |e,2>, ...: every generator here flips the qubit with each photon it
    adds or removes, so it only couples neighbours within a chain, and a
    part is three bands. bands[k] holds part k's diagonal, super-diagonal
    (M[i, i+1]) and sub-diagonal (M[i, i-1]); the last super entry and
    the first sub entry are padding, and both are 0 at the seam between
    the chains. order[i] is the product-basis index of chain position i.
    """

    bands: np.ndarray  # (parts, 3, dim), complex so mixed bands multiply fast
    order: np.ndarray


def _lab_chains(params: SystemParams, drive: DriveParams, fock_dim: int) -> _Chains:
    """(h0, drive diagonal) of one qubit from their closed forms.

    h0 has diagonal omega_r n + s omega_q/2 and hops g sqrt(n+1) within a
    chain; the drive part is the diagonal s epsilon/2.
    """
    n = np.tile(np.arange(fock_dim), 2)  # photon number per chain position
    s = np.where(n % 2 == 0, -1.0, 1.0)  # and its sigma_z value
    s[fock_dim:] *= -1.0
    order = np.where(s > 0, 0, fock_dim) + n  # qubit basis (|e>, |g>)
    hop = params.g * np.sqrt(n)  # sub[i] = g sqrt(n_i): 0 where a chain starts
    zero = np.zeros(len(n))
    return _Chains(np.array([
        [params.omega_r * n + 0.5 * params.omega_q * s, np.roll(hop, -1), hop],
        [0.5 * drive.epsilon[0] * s, zero, zero],
    ], dtype=complex), order)


@dataclass(frozen=True, eq=False)
class _Blocks:
    """Parts of a two-qubit lab generator as two real parity blocks.

    The generator conserves the Rabi parity exp(i pi (n + sum_m
    (1 + sigma_z^m)/2)) and its parts are real, so in parity order (even
    parity first, each half in product-basis order) it is two real m x m
    blocks, m = dim/2. h0[b] is block b of the static part, diag[b] the
    modulation diagonal on it, and order[i] the product-basis index of
    parity position i.
    """

    h0: np.ndarray    # (2, m, m) real
    diag: np.ndarray  # (2, m) real
    order: np.ndarray


def _lab_blocks(params: SystemParams, drive: DriveParams,
                layout: HilbertLayout) -> _Blocks:
    """(h0, drive diagonal) of two qubits, permuted once into parity order."""
    n = np.arange(layout.dim) % layout.fock_dim
    excited = np.sum(0.5 * (1.0 + _sigma_z(layout)), axis=0)
    order = np.argsort((n + excited) % 2, kind="stable")
    m = layout.dim // 2
    h = _lab_matrix(params, layout)[np.ix_(order, order)]
    if np.any(h[:m, m:]) or np.any(h[m:, :m]) or np.any(h.imag):
        raise ValueError("lab generator is not real within the two parity blocks")
    h = h.real
    return _Blocks(np.stack((h[:m, :m], h[m:, m:])),
                   _drive_diagonal(drive, layout)[order].reshape(2, m), order)


def _block_operator(blocks: np.ndarray, scratch: dict):
    """apply(x, scale) = scale * B @ x for the real block-diagonal B.

    x is a vector or a (dim, k) block in parity order. The float64 view of
    a C-contiguous block holds each row's real and imaginary parts side by
    side, so one batched real matmul over the two blocks does the whole
    apply, straight into the float64 view of the result. Buffers are
    handled as in _band_operator, without the zero rows.
    """
    m = blocks.shape[1]
    shape = last = bufs = staged = None

    def cut(b):
        return b, b.view(np.float64).reshape(2, m, -1)

    def apply(x: np.ndarray, scale: complex) -> np.ndarray:
        nonlocal shape, last, bufs, staged
        if x.shape != shape:
            shape, last = x.shape, 0
            pair = np.empty((2,) + shape, dtype=complex)
            bufs = (cut(pair[0]), cut(pair[1]))
            if shape not in scratch:
                scratch[shape] = cut(np.empty(shape, dtype=complex))
            staged = scratch[shape]
        if x is bufs[last][0]:
            src = bufs[last][1]
        else:
            np.copyto(staged[0], x)
            src = staged[1]
        last ^= 1
        y, out = bufs[last]
        np.matmul(blocks, src, out=out)
        y *= scale
        return y
    return apply


def _cut(p: np.ndarray):
    """Rows 1..n of a buffer with a zero row at each end, and the rows
    after and before them."""
    return p[1:-1], p[2:], p[:-2]


def _band_operator(d: np.ndarray, up: np.ndarray, lo: np.ndarray, scratch: dict):
    """apply(x, scale) = scale * T @ x for the tridiagonal T with diagonal d,
    T[i, i+1] = up[i] and T[i, i-1] = lo[i] (up[-1] = lo[0] = 0).

    x is a vector or a (dim, k) block in chain order. Each result goes
    into one of two buffers owned by this apply, in turn, so it stays
    valid through the apply's next call and is overwritten by the one
    after. Any other input is first copied into a staging buffer from
    scratch, which the applies of one mixer share because it never leaves
    a call. All these buffers carry a zero row at each end, so the
    neighbour rows x[i+1] and x[i-1] are fixed views of them. Buffers and
    views are made on the first call, and again if the shape of x changes.
    """
    shape = last = bufs = staged = tmp = bands = None

    def apply(x: np.ndarray, scale: complex) -> np.ndarray:
        nonlocal shape, last, bufs, staged, tmp, bands
        if x.shape != shape:
            shape, last = x.shape, 0
            pads = np.zeros((2, len(x) + 2) + shape[1:], dtype=complex)
            bufs = (_cut(pads[0]), _cut(pads[1]))
            if shape not in scratch:
                scratch[shape] = (_cut(np.zeros_like(pads[0])),
                                  np.empty(shape, dtype=complex))
            staged, tmp = scratch[shape]
            bands = (d, up, lo) if x.ndim == 1 else (d[:, None], up[:, None], lo[:, None])
        if x is bufs[last][0]:
            xs, xn, xp = bufs[last]
        else:
            xs, xn, xp = staged
            np.copyto(xs, x)
        last ^= 1
        y = bufs[last][0]
        dd, uu, ll = bands
        np.multiply(dd, xs, out=y)
        y += np.multiply(uu, xn, out=tmp)
        y += np.multiply(ll, xp, out=tmp)
        y *= scale
        return y
    return apply


def _assemble_parts(cs: np.ndarray, parts) -> np.ndarray:
    """sum_k cs[k] parts[k] as one dense matrix in the product basis."""
    if isinstance(parts, _Chains):
        d, up, lo = np.tensordot(cs, parts.bands, 1)
        o = parts.order
        h = np.zeros((len(o), len(o)), dtype=complex)
        h[o, o] = d
        h[o[:-1], o[1:]] = up[:-1]
        h[o[1:], o[:-1]] = lo[1:]
        return h
    o = parts.order.reshape(2, -1)
    blocks = cs[0] * parts.h0
    blocks.reshape(2, -1)[:, ::o.shape[1] + 1] += cs[1] * parts.diag
    h = np.zeros((o.size, o.size), dtype=complex)
    for ob, block in zip(o, blocks):
        h[np.ix_(ob, ob)] = block
    return h


def _coefficient_form(h: Callable[[float], np.ndarray], t: float):
    """(coeffs, parts) of a provider from hamiltonian_fn, or None.

    A caller that applies the parts never calls h itself, so h is
    evaluated here once, at t, and must reproduce its parts there. A
    wrapper that copies a provider's attributes (as functools.wraps does)
    but changes what it returns raises ValueError instead of being
    propagated as the provider it wraps.
    """
    coeffs = getattr(h, "coeffs", None)
    if coeffs is None:
        return None
    parts = h.parts
    dense = np.asarray(h(t))
    diff = float(np.max(np.abs(dense - _assemble_parts(coeffs(t), parts))))
    if diff > 1e-12 * max(1.0, float(np.max(np.abs(dense)))):
        raise ValueError(
            f"provider's H(t) differs from its coefficient form by {diff:.3e} "
            f"at t = {t:g}"
        )
    return coeffs, parts


def _mixer(h: Callable[[float], np.ndarray], t_check: float):
    """(mix, into, back): how a propagator applies the provider h.

    mix(ts, ws) forms sum_i ws[i] H(ts[i]) once and returns
    apply(x, scale) = scale * (that sum) @ x, for a state or a (dim, k)
    column block held in the propagation basis; into and back copy a
    state or block from the product basis into that basis and back.

    A provider with a coefficient form, checked against h(t_check), is
    c0 h0 + c1 D with D diagonal (checked here for chain parts; parity
    blocks hold D as a diagonal). mix reduces its weights to the two
    scalars c_j = sum_i ws[i] coeffs(ts[i])[j]; c0 h0 is premixed once
    per distinct c0 (1/2 for both CF4 exponents, 1 for RK4), so a mix
    only writes a new diagonal.
    Chain parts (one qubit) apply as three bands in chain order, parity
    blocks (two-qubit lab frame) as two real blocks in parity order,
    refusing complex mixed coefficients with ValueError. Any other
    callable falls back to one dense mixed matrix in the product basis.

    Every apply owns its mixed operator and its result buffers: a result
    stays valid through the next call of the apply that made it and is
    overwritten by the one after, and no apply writes where another
    apply's results are.
    """
    form = _coefficient_form(h, t_check)
    if form is None:
        def mix(ts, ws):
            m = sum(w * h(t) for t, w in zip(ts, ws))
            return lambda x, scale: scale * (m @ x)
        return mix, np.copy, np.copy
    coeffs, parts = form
    order = parts.order
    inverse = np.argsort(order)
    scratch = {}  # per shape: staging buffers the applies share
    if isinstance(parts, _Chains):
        (d0, up, lo), drive = parts.bands
        if np.any(drive[1:]):
            raise ValueError("the drive part of a chain generator is not diagonal")
        drive = drive[0]

        @lru_cache(maxsize=4)
        def premix(c0):
            return c0 * d0, c0 * up, c0 * lo

        def operator(c0, c1):
            d, u, l = premix(c0)
            return _band_operator(d + c1 * drive, u, l, scratch)
    else:
        drive = parts.diag

        @lru_cache(maxsize=4)
        def premix(c0):
            h0 = c0 * parts.h0
            return h0, np.diagonal(h0, axis1=1, axis2=2).copy()

        def operator(c0, c1):
            if isinstance(c0, complex) or isinstance(c1, complex):
                if c0.imag or c1.imag:
                    raise ValueError("parity-block parts need real coefficients, "
                                     f"got {np.array([c0, c1])}")
                c0, c1 = c0.real, c1.real
            h0, d = premix(c0)
            blocks = h0.copy()
            blocks.reshape(2, -1)[:, ::blocks.shape[-1] + 1] = d + c1 * drive
            return _block_operator(blocks, scratch)

    def mix(ts, ws):
        c0 = c1 = 0.0
        for t, w in zip(ts, ws):
            a, b = coeffs(t).tolist()
            c0 += w * a
            c1 += w * b
        return operator(c0, c1)
    return mix, (lambda x: x[order]), (lambda x: x[inverse])


def hamiltonian_fn(params: SystemParams, drive: DriveParams, frame: str,
                   layout: HilbertLayout,
                   l_max: int = _DEFAULT_L_MAX) -> Callable[[float], np.ndarray]:
    """Time-to-matrix provider for the chosen frame, static parts prebuilt.

    Returns a plain-ndarray callable fit for the propagators. The public
    single-time builders are thin Operator wrappers over it.

    The lab-driven provider also carries its affine coefficient form
    H(t) = coeffs(t)[0] parts[0] + coeffs(t)[1] parts[1], with the parts
    (h0, drive diagonal) built once and coefficients
    (1, sin(omega_d t - phi)). With one qubit the parts are _Chains,
    three bands each along the two parity chains, built from their closed
    forms; with two they are _Blocks, h0 and the drive diagonal permuted
    once into parity order, where each is two real blocks. fn(t)
    assembles the dense product-basis H(t) from the same parts. The
    propagators go through _mixer, which checks the form against fn once
    per propagation and then never forms H(t). The rotating and
    effective providers are dense: fn(t) = e^{i omega_r t} W + h.c. for
    the effective frame, W = sum_m g_eff,m a^dag sigma_x^m. The effective
    evolution itself has a closed form and is not propagated here.
    """
    _check_pair(params, drive, layout)
    if frame not in FRAMES:
        raise ValueError(f"frame must be one of {FRAMES}, got {frame!r}")
    if frame == "lab-driven":
        if layout.n_qubits == 1:
            parts = _lab_chains(params, drive, layout.fock_dim)
        else:
            parts = _lab_blocks(params, drive, layout)
        wd, phi = drive.omega_d, drive.phi

        def coeffs(t: float) -> np.ndarray:
            return np.array([1.0, math.sin(wd * t - phi)])

        def fn(t: float) -> np.ndarray:
            return _assemble_parts(coeffs(t), parts)

        fn.coeffs = coeffs
        fn.parts = parts
    elif frame == "rotating":
        if not isinstance(l_max, int) or l_max < 8:
            raise ValueError(f"l_max must be an int >= 8, got {l_max}")
        mats, terms = _rotating_terms(params, drive, layout, l_max)
        wd, phi = drive.omega_d, drive.phi

        def fn(t: float) -> np.ndarray:
            return _rotating_matrix_at(mats, terms, wd, phi, t)

    else:
        _require_quadrature(drive, "effective model")
        ad = _annihilation(layout.fock_dim).T
        w = sum(geff * _embed(layout, {m: _PAULI["x"]}, ad)
                for m, geff in enumerate(effective_couplings(params, drive)))
        wr = params.omega_r

        def fn(t: float) -> np.ndarray:
            h = complex(math.cos(wr * t), math.sin(wr * t)) * w
            return h + h.conj().T

    # let the propagators pick a default step and size-gate a given one
    fn.omega_max = omega_max(params, drive, frame)
    fn.layout = layout
    return fn
