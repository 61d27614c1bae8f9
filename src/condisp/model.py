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

All frequencies are in units of omega_r. The driven lab generator is
carried as data: a _LabProvider holds its parity-block parts (_Blocks),
from which it assembles H(t), and _mirrored and _stack map parts to
parts.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable

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


def _lab_matrix(params: SystemParams, layout: HilbertLayout,
                index: np.ndarray) -> np.ndarray:
    """Static Hamiltonian, each term a Pauli on its qubit(s) times a Fock
    factor; the diagonal omega_r n + sum_m (omega_q/2) s_m is exact. Given
    rows of product-basis indices, a stack of blocks, one per row, each of
    only that row's rows and columns (see _embed); the Fock factor is
    built once for all of them."""
    sz = _sigma_z(layout)
    k = np.arange(1, layout.fock_dim)
    gx = np.zeros((layout.fock_dim,) * 2, dtype=complex)
    # g (a + a^dag), scaled on the Fock factor, not on the dim x dim product
    gx[k - 1, k] = gx[k, k - 1] = params.g * np.sqrt(k)
    sx = _PAULI["x"]
    h = np.zeros((len(index),) + (index.shape[1],) * 2, dtype=complex)
    for block, rows in zip(h, index):
        diag = params.omega_r * (rows % layout.fock_dim)
        for s in sz[:, rows]:
            diag += 0.5 * params.omega_q * s
        np.fill_diagonal(block, diag)
        for m in range(layout.n_qubits):
            block += _embed(layout, {m: sx}, gx, rows)
        for m in range(layout.n_qubits):
            for n in range(layout.n_qubits):
                if m != n:  # ordered pairs: each qubit pair enters twice
                    block += params.d_coupling * _embed(layout, {m: sx, n: sx}, None, rows)
    return h


def lab_hamiltonian(params: SystemParams, layout: HilbertLayout) -> Operator:
    """Static Hamiltonian of the coupled qubit(s) and resonator."""
    if params.n_qubits != layout.n_qubits:
        raise ValueError("params/layout qubit count mismatch")
    return Operator(layout, _lab_matrix(params, layout, np.arange(layout.dim)[None])[0])


def _sigma_z(layout: HilbertLayout) -> np.ndarray:
    """sigma_z^m per product-basis state, one row per qubit m; qubit m is
    (|e>, |g>) = (+1, -1)."""
    return np.array([np.repeat(np.tile([1.0, -1.0], 2 ** m), layout.dim >> (m + 1))
                     for m in range(layout.n_qubits)])


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


def _sideband_row(alpha: float, l_max: int) -> np.ndarray:
    """r[l], l = 0..l_max, with exp(i alpha cos theta) = sum_l r[l] cos(l theta)
    to that order: r[l] = i^l J_l(alpha), doubled for l >= 1 to pair l with
    -l (J_{-l} = (-1)^l J_l)."""
    l = np.arange(l_max + 1)
    row = 1j ** (l % 4) * np.array([bessel_j(int(k), alpha) for k in l])
    row[1:] *= 2.0
    return row


def _rotating_terms(params: SystemParams, drive: DriveParams,
                    layout: HilbertLayout, l_max: int):
    """(mats, pref, det, rows) with H(t) = sum_k c_k(t) mats[k] + h.c.,

        c_k(t) = pref[k] exp(i det[k] t) sum_l rows[k, l] cos(l (omega_d t - phi)),

    rows[k] the sideband row of exp(+-i alpha cos), conjugated here for the
    minus sign.
    """
    ad = _annihilation(layout.fock_dim).T
    sp, sm = _PAULI["+"], _PAULI["-"]
    alphas = drive.alpha
    dm = params.omega_r - params.omega_q
    dp = params.omega_r + params.omega_q
    terms = []
    for m in range(layout.n_qubits):
        row = _sideband_row(alphas[m], l_max)
        terms.append((_embed(layout, {m: sm}, ad), params.g, dm, row))
        terms.append((_embed(layout, {m: sp}, ad), params.g, dp, row.conj()))
    for m in range(layout.n_qubits):
        for n in range(layout.n_qubits):
            if m == n:
                continue
            terms.append((_embed(layout, {m: sp, n: sp}, None), params.d_coupling,
                          2.0 * params.omega_q,
                          _sideband_row(alphas[m] + alphas[n], l_max).conj()))
            terms.append((_embed(layout, {m: sp, n: sm}, None), params.d_coupling, 0.0,
                          _sideband_row(alphas[m] - alphas[n], l_max).conj()))
    return tuple(np.array(c) for c in zip(*terms))


def _rotating_matrix_at(terms, omega_d: float, phi: float, t: float) -> np.ndarray:
    mats, pref, det, rows = terms
    series = rows @ np.cos(np.arange(rows.shape[1]) * (omega_d * t - phi))
    h = np.tensordot(pref * np.exp(1j * det * t) * series, mats, axes=1)
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
class _Blocks:
    """The lab generator as real parity blocks, of one drive or a stack.

    H(t) = h0 + sin(omega_d t - phi) D, D = sum_m (epsilon_m/2) sigma_z^m
    diagonal. It conserves the Rabi parity exp(i pi (n + sum_m
    (1 + sigma_z^m)/2)) and is real, so in parity order (even sector
    first, each sector by photon number, then product index) one
    drive's is two real m x m blocks, m = dim/2; one qubit's are the
    tridiagonal parity chains |g,0>, |e,1>, |g,2>, ... and |e,0>, |g,1>,
    |e,2>, .... A stack (_stack) lays its members' sectors end to end, so
    it has any number of sectors, each with its own phi and the index of
    the member it came from. h0[b] is sector b of the static part,
    diag[b] the diagonal of D on it, phi[b] its modulation phase,
    member[b] its member, and order[i] the product-basis index of parity
    position i; a stack's product basis is its members' laid end to end.
    """

    h0: np.ndarray      # (sectors, m, m) real
    diag: np.ndarray    # (sectors, m) real
    order: np.ndarray   # (sectors * m,)
    omega_d: float
    phi: np.ndarray     # (sectors,)
    member: np.ndarray  # (sectors,) int


def _lab_blocks(params: SystemParams, drive: DriveParams,
                layout: HilbertLayout) -> _Blocks:
    """h0 = _lab_matrix on each parity sector's product indices, so the
    blocks hold no entry between the sectors, and D's diagonal in parity
    order; both sectors carry the drive's phi and are member 0."""
    n = np.arange(layout.dim) % layout.fock_dim
    sz = _sigma_z(layout)
    order = np.lexsort((n, (n + np.sum(0.5 * (1.0 + sz), axis=0)) % 2))
    h = _lab_matrix(params, layout, order.reshape(2, -1))
    if np.any(h.imag):
        raise ValueError("lab generator is not real within the two parity blocks")
    diag = sum(0.5 * e * s for e, s in zip(drive.epsilon, sz))
    return _Blocks(h.real.copy(), diag[order].reshape(2, -1), order,
                   drive.omega_d, np.full(2, drive.phi), np.zeros(2, dtype=int))


class _Powers:
    """A loaded operator A and the power stack it owns.

    Row j of the stack holds p_j = A p_{j-1} once power(j) has run, p_0
    being what the caller writes into row 0; rows[j] is that row as a
    packed state and flat[j] as one float64 vector, for its norm. stack
    holds the rows flat, one per line, and heads[j] its first j + 1
    lines, for combining them into out, whose packed state is result.
    bounds[j] is the Taylor stop on row j's squared norm (see
    propagate._expmv). buf is the stack in the kernel's own layout, and
    state maps one of its rows (or a row-shaped array) to a packed state.
    """

    def __init__(self, buf: np.ndarray, state: Callable, power: Callable,
                 bounds: list) -> None:
        self.stack = buf.reshape(len(buf), -1)
        self.heads = [self.stack[:j + 1] for j in range(len(buf))]
        self.flat = [line.view(np.float64) for line in self.stack]
        self.rows = [state(b) for b in buf]
        self.out = np.zeros_like(self.stack[0])
        self.result = state(self.out.reshape(buf.shape[1:]))
        self.power = power
        self.bounds = bounds


def _block_operator(blocks: np.ndarray, shape: tuple, bounds: list) -> _Powers:
    """A = B for the real parity blocks B, (sectors, m, m).

    The rows are packed (sectors, m, k) states. The float64 view of a
    C-contiguous row holds each amplitude's real and imaginary parts side
    by side, so power(j) is one batched real matmul over the sectors,
    from row j - 1's float64 view into row j's.
    """
    buf = np.empty((len(bounds),) + shape, dtype=complex)
    f = [b.view(np.float64) for b in buf]

    def power(j: int) -> None:
        np.matmul(blocks, f[j - 1], out=f[j])
    return _Powers(buf, lambda b: b, power, bounds)


def _band_operator(up: np.ndarray, lo: np.ndarray, shape: tuple,
                   bounds: list) -> _Powers:
    """A = T for the tridiagonal T with T[i, i+1] = up[i], T[i, i-1] =
    lo[i] and the diagonal that load(d) sets.

    The rows are packed (sectors, n, k) states; T, read off tridiagonal
    parity blocks, runs along the sectors laid end to end, so d, up and
    lo are (sectors * n, 1) complex columns, and up, lo are 0 where one
    sector ends and the next begins. Each row carries a zero line at
    either end, so its neighbour lines x[i+1] and x[i-1] are fixed views,
    and power(j) is five ufunc calls.
    """
    lines = shape[0] * shape[1]
    buf = np.zeros((len(bounds), lines + 2, shape[2]), dtype=complex)
    mid, nxt, prv = ([b[s] for b in buf] for s in (slice(1, -1), slice(2, None),
                                                   slice(None, -2)))
    tmp = np.empty((lines, shape[2]), dtype=complex)
    diag = None

    def load(d: np.ndarray) -> None:
        nonlocal diag
        diag = d

    def power(j: int) -> None:
        y, i = mid[j], j - 1
        np.multiply(diag, mid[i], out=y)
        np.multiply(up, nxt[i], out=tmp)
        np.add(y, tmp, out=y)
        np.multiply(lo, prv[i], out=tmp)
        np.add(y, tmp, out=y)
    op = _Powers(buf, lambda b: b[1:-1].reshape(shape), power, bounds)
    op.load = load
    return op


def _dense_operator(shape: tuple, bounds: list) -> _Powers:
    """A = the dense product-basis matrix that load(m) sets, on unpacked
    rows of the given shape."""
    buf = np.empty((len(bounds),) + shape, dtype=complex)
    rows = list(buf)
    m = None

    def load(a: np.ndarray) -> None:
        nonlocal m
        m = a

    def power(j: int) -> None:
        np.matmul(m, rows[j - 1], out=rows[j])
    op = _Powers(buf, lambda b: b, power, bounds)
    op.load = load
    return op


def _modulation(parts: _Blocks, t):
    """sin(omega_d t - phi), D's coefficient, on each sector (the last
    axis) at a time or an array of times."""
    return np.sin(parts.omega_d * np.asarray(t, dtype=float)[..., None] - parts.phi)


def _assemble_parts(cs, parts: _Blocks) -> np.ndarray:
    """cs[0] h0 + cs[1] D as one dense matrix in the product basis; cs[1]
    is one coefficient or one per sector."""
    o = parts.order.reshape(len(parts.h0), -1)
    h = np.zeros((o.size, o.size), dtype=complex)
    for ob, block, d, c1 in zip(o, parts.h0, parts.diag, np.broadcast_to(cs[1], len(o))):
        h[np.ix_(ob, ob)] = cs[0] * block
        h[ob, ob] += c1 * d
    return h


@dataclass(frozen=True, eq=False)
class _LabProvider:
    """A lab provider: H(t) in the product basis, assembled from its own
    parts. omega_max sets the propagators' step; layout is None for a
    stack, whose basis is its members' laid end to end. No __slots__: a
    wrapper that copies the instance __dict__ (as functools.wraps does)
    carries the fields."""

    parts: _Blocks
    omega_max: float
    layout: HilbertLayout | None = None

    def __call__(self, t: float) -> np.ndarray:
        return _assemble_parts((1.0, _modulation(self.parts, t)), self.parts)


def _checked_parts(h: Callable[[float], np.ndarray], t: float) -> _Blocks | None:
    """The _Blocks of a lab provider, or None.

    A caller that applies the parts never calls h itself. A _LabProvider
    assembles H(t) from its own parts, so they are taken as they are, h
    unevaluated. Any other callable that carries parts, such as a wrapper
    that copies a provider's attributes (as functools.wraps does), is
    evaluated once, at t, and must return the parts assembled there in
    the product basis; one that changes what it returns raises ValueError
    instead of being propagated as the provider it wraps.
    """
    if isinstance(h, _LabProvider):
        return h.parts
    parts = getattr(h, "parts", None)
    if parts is None:
        return None
    dense = np.asarray(h(t))
    scale = max(1.0, float(np.max(np.abs(dense))))
    diff = float(np.max(np.abs(dense - _assemble_parts((1.0, _modulation(parts, t)), parts))))
    if diff > 1e-12 * scale:
        raise ValueError(
            f"provider's H(t) differs from its coefficient form by {diff:.3e} "
            f"at t = {t:g}"
        )
    return parts


def _mirrored(parts: _Blocks, t: float) -> _Blocks:
    """The parts of the mirror H(t - tau), whose propagation over [0, t]
    is the transpose of parts'.

    sin(omega_d (t - tau) - phi) = sin(omega_d tau - (omega_d t - phi -
    pi)), so only phi changes; h0, D and the parity order are shared. H
    is real and symmetric, and each step (Magnus or RK4) is symmetric in
    its nodes, so a step under the mirror is the transpose of the step
    under H at the reflected nodes, and the mirror's propagation is the
    transpose of the forward one, to roundoff (Blanes, Casas, Oteo & Ros,
    Phys. Rep. 470, 151 (2009)). Its adjoint is the conjugate of the
    mirror's.
    """
    return replace(parts, phi=parts.omega_d * t - parts.phi - math.pi)


def _stack(members: list[_Blocks]) -> _Blocks:
    """The parts of several lab generators as one, block-diagonal in their
    product bases laid end to end.

    It lays the members' sectors end to end, each with its own phi and
    member index, so a state of the stacked basis propagates each
    member's part as that member propagates it alone, in the same band
    and block kernels, with one apply per Taylor term for all members.
    The members must share the sector size and omega_d.
    """
    if len({(p.h0.shape[1], p.omega_d) for p in members}) != 1:
        raise ValueError("stacked providers must share the sector size and omega_d")
    rows = np.cumsum([0] + [len(p.order) for p in members])
    firsts = np.cumsum([0] + [p.member.max() + 1 for p in members])
    return _Blocks(
        np.concatenate([p.h0 for p in members]),
        np.concatenate([p.diag for p in members]),
        np.concatenate([p.order + r for p, r in zip(members, rows)]), members[0].omega_d,
        np.concatenate([p.phi for p in members]),
        np.concatenate([p.member + f for p, f in zip(members, firsts)]))


def _packing(parts: _Blocks, v0: np.ndarray):
    """(sectors, shape, into, back): the parity sectors v0 occupies.

    parts.order lists the product-basis indices of its sectors, in equal
    runs. into keeps only the sectors v0 (a state or a (dim, k) column
    block) occupies and, of each, only the columns v0 occupies there,
    padded with zero columns to the widest sector: a (sectors, m, columns)
    array. back scatters such an array into zeros in the product basis.
    """
    runs = parts.order.reshape(len(parts.h0), -1)
    cols = v0.reshape(len(v0), -1)
    live = [np.flatnonzero(np.any(cols[run], axis=0)) for run in runs]
    sectors = [s for s in range(len(runs)) if len(live[s])] or [0]
    shape = (len(sectors), runs.shape[1], max(len(live[s]) for s in sectors))
    cuts = [(i, np.ix_(runs[s], live[s]), len(live[s])) for i, s in enumerate(sectors)]

    def into(x: np.ndarray) -> np.ndarray:
        p = np.zeros(shape, dtype=complex)
        x = x.reshape(len(x), -1)
        for i, rows_cols, k in cuts:
            p[i, :, :k] = x[rows_cols]
        return p

    def back(p: np.ndarray) -> np.ndarray:
        out = np.zeros(v0.shape, dtype=complex)
        flat = out.reshape(len(out), -1)
        for i, rows_cols, k in cuts:
            flat[rows_cols] = p[i, :, :k]
        return out
    return sectors, shape, into, back


def _mixer(h: Callable[[float], np.ndarray], t_check: float, v0: np.ndarray,
           chunks: Iterable[np.ndarray], weights: np.ndarray, dt: float,
           expmv: Callable, stop: np.ndarray):
    """(ops, into, back): the plan of one propagation of v0 under h, in
    steps of dt.

    The propagation runs steps in order and each step's operators in
    order; chunks yields the node times of runs of consecutive steps as
    (steps, n) arrays, and operator j of a step with node times ts is
    dt sum_l weights[j, l] H(ts[l]), weights an (operators, n) array:
    every operator comes prescaled by the step. Each next(ops) loads the
    next operator. One whose weight row sums to a nonzero value loads as
    a _Powers of it, valid until the next load, whose power(j) is one
    bare apply. One whose row sums to zero, in which h0 cancels, is a
    turn: the n-th, K_n, loads as turn(x) = e^{iK_n} e^{-iK_{n-1}} x,
    K_{-1} = 0, so a propagation carries its state twisted by e^{iK} of
    the last turn loaded, and one turn per step moves it on to the next
    (for a lab provider one phase, exp(i (K_n - K_{n-1}))).
    into packs v0, or an array of its shape with no amplitude outside
    v0's, into the propagation basis; back unwinds e^{-iK} of the last
    turn loaded from a packed state and unpacks it into the product
    basis (the dense fallback unwinds the state itself, see _dense_plan).
    Each operator's Taylor stop is stop (one entry per stack row)
    times v0's squared norm, that of its smallest stack member.

    A lab provider, of one drive's parts or a stack, its parts taken by
    _checked_parts (a wrapper's checked against h(t_check)), is
    h0 + sin(omega_d t - phi) D on real parity blocks, D diagonal, so
    operator j is dt (c0 h0 + c1 D): c0 the weight row's sum, one value
    for every apply's row (1 for the Magnus step's mean generator and for
    RK4), or zero for a turn's, and c1 = sum_l weights[j, l]
    sin(omega_d ts[l] - phi), per occupied sector, or one number when
    those sectors share phi. So dt c0 h0 is premixed once per
    propagation, and a chunk of steps forms, at once, the diagonals
    dt (c0 diag(h0) + c1 D) its applies load and the phases its turns
    multiply by; a load then only points the kernel at, or copies in,
    its diagonal. into and back come from _packing, so a sector that
    parity keeps at zero is never propagated. Tridiagonal premixed blocks
    (one qubit's parity chains) apply as three complex bands, others as
    one batched real matmul. Any other callable falls back to one dense
    matrix per operator in the product basis, unpacked (_dense_plan).
    """
    turns = weights.sum(axis=1) == 0
    parts = _checked_parts(h, t_check)
    if parts is None:
        return _dense_plan(h, v0, chunks, weights, turns, dt, expmv, stop)
    sectors, shape, into, unpack = _packing(parts, v0)
    p0 = into(v0)
    firsts = np.flatnonzero(np.diff(parts.member[sectors], prepend=-1))
    bounds = (min(np.add.reduceat(np.sum(p0.real ** 2 + p0.imag ** 2, axis=(1, 2)),
                                  firsts)) * stop).tolist()
    blocks = (dt * weights[~turns][0].sum()) * parts.h0[sectors]
    d0 = np.diagonal(blocks, 0, 1, 2).flatten()
    drive = parts.diag[sectors]
    # one coefficient per load when the occupied sectors share phi, else
    # one per sector; a phase exp(i q D) takes the exponential of D's few
    # distinct values only (found without np.unique, whose sort would add
    # a quarter MiB of library pages to every run)
    shared = bool(np.all(parts.phi[sectors] == parts.phi[sectors[0]]))
    pick = sectors[:1] if shared else sectors
    seen: dict = {}
    at = np.array([seen.setdefault(d, len(seen)) for d in drive.ravel().tolist()])
    at, vals = at.reshape(drive.shape), np.array(list(seen))
    by = np.arange(len(sectors))[:, None] * (not shared)

    def phases(q: np.ndarray) -> np.ndarray:
        """exp(i q D) for coefficients q (..., len(pick)), as (..., sectors, m, 1)."""
        return np.exp(1j * q[..., None] * vals)[..., by, at][..., None]

    if np.any(np.triu(blocks, 2)) or np.any(np.tril(blocks, -2)):
        op = _block_operator(blocks, shape, bounds)
        op.load = functools.partial(np.copyto,
                                    blocks.reshape(len(sectors), -1)[:, ::shape[1] + 1])

        def lines(d):
            return d.reshape((-1,) + drive.shape)
    else:
        bands = np.zeros((2,) + shape[:2], dtype=complex)
        bands[0, :, :-1] = np.diagonal(blocks, 1, 1, 2)
        bands[1, :, 1:] = np.diagonal(blocks, -1, 1, 2)
        op = _band_operator(*bands.reshape(2, -1, 1), shape, bounds)

        def lines(d):
            return d.astype(complex)[..., None]
    phase = last = None

    def turn(x: np.ndarray) -> np.ndarray:
        return np.multiply(x, phase, out=op.rows[0])

    def ops():
        nonlocal phase, last
        k = np.zeros((1, len(pick)))
        for nodes in chunks:
            s = _modulation(parts, nodes)[..., pick]  # (steps, n, len(pick))
            c = dt * sum(s[:, l, None] * weights[:, l, None] for l in range(weights.shape[1]))
            ks = c[:, turns].reshape(-1, len(pick))
            twists = zip(ks, phases(np.diff(ks, axis=0, prepend=k)))
            k = ks[-1:] if len(ks) else k
            q = c[:, ~turns].reshape(-1, len(pick), 1)
            loads = iter(lines(d0 + (q * drive).reshape(len(q), -1)))
            for is_turn in turns.tolist() * len(nodes):
                if is_turn:
                    last, phase = next(twists)
                    yield turn
                else:
                    op.load(next(loads))
                    yield op

    def back(p: np.ndarray) -> np.ndarray:
        return unpack(p if last is None else p * phases(-last))
    return ops(), into, back


def _dense_plan(h: Callable[[float], np.ndarray], v0: np.ndarray,
                chunks: Iterable[np.ndarray], weights: np.ndarray, turns: np.ndarray,
                dt: float, expmv: Callable, stop: np.ndarray):
    """_mixer's plan for a provider without parts: one dense matrix per
    operator, dt sum_l weights[j, l] h(ts[l]), on unpacked states.

    Applies load into one _Powers, turns into another: a turn is
    exponentials by expmv, and its K_n do not commute, so turn(x) =
    e^{iK_n} e^{-iK_{n-1}} x takes two of them. back unwinds e^{-iK_n}
    in place, so that the next turn takes only e^{iK_{n+1}}, and returns
    a copy.
    """
    bounds = (np.vdot(v0, v0).real * stop).tolist()
    main, turner = (_dense_operator(v0.shape, bounds) for _ in range(2))
    last = None  # K of the twist the propagated state carries

    def exp(m: np.ndarray, x: np.ndarray) -> np.ndarray:
        turner.load(m)
        return expmv(turner, x)

    def turn(m: np.ndarray, x: np.ndarray) -> np.ndarray:
        nonlocal last
        if last is not None:
            x = exp(last, x)
        last = m
        return exp(-m, x)

    def ops():
        for nodes in chunks:
            for ts in nodes:
                for ws, is_turn in zip(weights, turns.tolist()):
                    m = dt * sum(w * h(t) for t, w in zip(ts, ws) if w)
                    if is_turn:
                        yield functools.partial(turn, m)
                    else:
                        main.load(m)
                        yield main

    def back(p: np.ndarray) -> np.ndarray:
        nonlocal last
        if last is not None:
            np.copyto(p, exp(last, p))
            last = None
        return p.copy()
    return ops(), np.copy, back


def hamiltonian_fn(params: SystemParams, drive: DriveParams, frame: str,
                   layout: HilbertLayout,
                   l_max: int = _DEFAULT_L_MAX) -> Callable[[float], np.ndarray]:
    """Time-to-matrix provider for the chosen frame, static parts prebuilt.

    Returns a plain-ndarray callable fit for the propagators. The public
    single-time builders are thin Operator wrappers over it.

    The lab-driven provider is a _LabProvider: its parts, the _Blocks of
    H(t) = h0 + sin(omega_d t - phi) D at either qubit count, built once
    (_lab_matrix on each parity sector's indices, D's diagonal, and the
    drive's omega_d and phi), with omega_max and the layout. fn(t)
    assembles the dense product-basis H(t) from those parts, so the
    propagators, through _mixer, take the parts without evaluating fn and
    never form H(t). The rotating provider sums its sideband series as
    arrays (_rotating_terms); it and the effective provider are dense:
    fn(t) = e^{i omega_r t} W + h.c. for the effective frame,
    W = sum_m g_eff,m a^dag sigma_x^m. The effective evolution itself
    has a closed form and is not propagated here.
    """
    _check_pair(params, drive, layout)
    if frame not in FRAMES:
        raise ValueError(f"frame must be one of {FRAMES}, got {frame!r}")
    if frame == "lab-driven":
        return _LabProvider(_lab_blocks(params, drive, layout),
                            omega_max(params, drive, frame), layout)
    if frame == "rotating":
        if not isinstance(l_max, int) or l_max < 8:
            raise ValueError(f"l_max must be an int >= 8, got {l_max}")
        terms = _rotating_terms(params, drive, layout, l_max)
        wd, phi = drive.omega_d, drive.phi

        def fn(t: float) -> np.ndarray:
            return _rotating_matrix_at(terms, wd, phi, t)

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
