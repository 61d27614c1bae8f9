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
parts. It is the only provider the propagators take; condisp.propagate
owns what they accept, the step and its plan, and the other frames have
builders at one time only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hilbert import _PAULI, HilbertLayout, Operator, _annihilation, _embed
from .numerics import bessel_j

__all__ = [
    "SystemParams",
    "DriveParams",
    "ValidityCondition",
    "ValidityReport",
    "driven_hamiltonian",
    "frame_transform",
    "frame_phases",
    "rotating_frame_hamiltonian",
    "effective_hamiltonian",
    "effective_couplings",
    "beta_phi",
    "validity_report",
    "hamiltonian_fn",
]

# Sideband-to-coupling ratio treated as "well separated" in validity checks.
_MARGIN_MIN = 10.0
_EQUALITY_TOL = 1e-9
# Window around the J_0 zero that counts as cancelling the flip-flop term.
_FLIPFLOP_ZERO = 2.40483
_FLIPFLOP_TOL = 1e-3


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
            try:
                object.__setattr__(self, "d_coupling", self.g**2 / self.omega_r)
            except OverflowError:  # g**2 past the float range
                raise ValueError(f"g = {self.g:g} is too large: g^2 overflows") from None
        if not math.isfinite(self.d_coupling):
            raise ValueError(f"d_coupling must be finite, got {self.d_coupling} "
                             f"(g = {self.g:g})")

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


def _sigma_z(layout: HilbertLayout) -> np.ndarray:
    """sigma_z^m per product-basis state, one row per qubit m; qubit m is
    (|e>, |g>) = (+1, -1)."""
    return np.array([np.repeat(np.tile([1.0, -1.0], 2 ** m), layout.dim >> (m + 1))
                     for m in range(layout.n_qubits)])


def driven_hamiltonian(params: SystemParams, drive: DriveParams, t: float,
                       layout: HilbertLayout) -> Operator:
    """Lab Hamiltonian with the modulated qubit splittings at time t; at
    zero modulation, the static Hamiltonian."""
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


def rotating_frame_hamiltonian(params: SystemParams, drive: DriveParams, t: float,
                               layout: HilbertLayout,
                               l_max: int = 20) -> Operator:
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
    _check_pair(params, drive, layout)
    if not isinstance(l_max, int) or l_max < 8:
        raise ValueError(f"l_max must be an int >= 8, got {l_max}")
    mats, pref, det, rows = _rotating_terms(params, drive, layout, l_max)
    series = rows @ np.cos(np.arange(l_max + 1) * (drive.omega_d * t - drive.phi))
    h = np.tensordot(pref * np.exp(1j * det * t) * series, mats, axes=1)
    return Operator(layout, h + h.conj().T)


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
    see validity_report. H_eff(t) = e^{i omega_r t} W + h.c., W = sum_m
    g_eff,m a^dag sigma_x^m.
    """
    _check_pair(params, drive, layout)
    _require_quadrature(drive, "effective model")
    ad = _annihilation(layout.fock_dim).T
    w = sum(geff * _embed(layout, {m: _PAULI["x"]}, ad)
            for m, geff in enumerate(effective_couplings(params, drive)))
    h = complex(math.cos(params.omega_r * t), math.sin(params.omega_r * t)) * w
    return Operator(layout, h + h.conj().T)


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
    fock_dim is the resonator cutoff: a sector holds m / fock_dim rows per
    Fock level (1 at one qubit, 2 at two), so its first w levels are its
    first w m / fock_dim rows.
    """

    h0: np.ndarray      # (sectors, m, m) real
    diag: np.ndarray    # (sectors, m) real
    order: np.ndarray   # (sectors * m,)
    omega_d: float
    phi: np.ndarray     # (sectors,)
    member: np.ndarray  # (sectors,) int
    fock_dim: int


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
                   drive.omega_d, np.full(2, drive.phi), np.zeros(2, dtype=int),
                   layout.fock_dim)


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


def _mirrored(parts: _Blocks, t: float) -> _Blocks:
    """The parts of the mirror H(t - tau), whose propagation over [0, t]
    is the transpose of parts'.

    sin(omega_d (t - tau) - phi) = sin(omega_d tau - (omega_d t - phi -
    pi)), so only phi changes; h0, D and the parity order are shared. H
    is real and symmetric, and each Magnus step is symmetric in its
    nodes, so a step under the mirror is the transpose of the step
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
    The members must share the Fock cutoff, the sector size and omega_d.
    """
    if len({(p.h0.shape[1], p.fock_dim, p.omega_d) for p in members}) != 1:
        raise ValueError("stacked providers must share the Fock cutoff, the "
                         "sector size and omega_d")
    rows = np.cumsum([0] + [len(p.order) for p in members])
    firsts = np.cumsum([0] + [p.member.max() + 1 for p in members])
    return _Blocks(
        np.concatenate([p.h0 for p in members]),
        np.concatenate([p.diag for p in members]),
        np.concatenate([p.order + r for p, r in zip(members, rows)]), members[0].omega_d,
        np.concatenate([p.phi for p in members]),
        np.concatenate([p.member + f for p, f in zip(members, firsts)]), members[0].fock_dim)


def hamiltonian_fn(params: SystemParams, drive: DriveParams, frame: str,
                   layout: HilbertLayout) -> _LabProvider:
    """The lab-driven provider, which the propagators take; frame must be
    "lab-driven" (the other frames have single-time builders only).

    It is a _LabProvider: its parts, the _Blocks of H(t) = h0 + sin(omega_d
    t - phi) D at either qubit count, built once, with the layout and the
    step scale omega_max = omega_q + max |epsilon_m|, the peak splitting.
    fn(t) assembles the dense H(t) from the parts, which the propagators
    take without evaluating fn.
    """
    if frame != "lab-driven":
        raise ValueError(
            f"hamiltonian_fn builds only the lab-driven provider, not {frame!r}; "
            "rotating_frame_hamiltonian and effective_hamiltonian build the "
            "other frames at one time")
    _check_pair(params, drive, layout)
    return _LabProvider(_lab_blocks(params, drive, layout),
                        params.omega_q + max(abs(e) for e in drive.epsilon), layout)
