"""Time-dependent Schrodinger propagation and effective-vs-exact traces.

Every propagation runs one fourth-order Magnus stepper, one exponential
per step. Its exponent is the classical fourth-order Magnus one (Blanes,
Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)),

    -i dt Hbar + (sqrt(3)/12) dt^2 [H_1, H_2],    Hbar = (H_1 + H_2)/2,

with H_1, H_2 the generator at the two Gauss points t + (1/2 -+
sqrt(3)/6) dt. The commutator is not formed: a step applies

    e^{-iK} exp(-i dt Hbar) e^{+iK},    K = (sqrt(3)/12) dt (H_2 - H_1),

whose exponent is the Magnus one up to O(dt K^2) = O(dt^5). The
propagators take only lab providers (model._LabProvider), whose
generator is h0 + sin(omega_d t - phi) D, or a wrapper that carries a
provider's parts, and refuse any other callable. H_2 - H_1 is then a
multiple of the diagonal drive D, so e^{+-iK} are elementwise phases
that commute: a propagation carries its state twisted, w_n =
e^{+iK_{n-1}} v_n, makes one turn e^{i(K_n - K_{n-1})} per step, and
unwinds e^{-iK} only where a state leaves it, at each sample. Every
operator comes prescaled by its step, A = dt Hbar, and the exponential
is an adaptive Taylor series (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
488 (2011)) on a power stack that the operator owns: each term is one
bare apply p_k = A p_{k-1} into the next row, on views its kernel binds
once per plan, and the exponential is one combination of the rows by
(-i)^k / k! (a stack that runs out of rows is folded into a partial
sum). The Taylor product never leaves the unit sphere beyond roundoff,
so the series stops once a term's squared norm falls below 1e-32 of the
initial state's, taken once per propagation (of the smallest member's,
for a stack). An exponential almost always stops where its operator's
last one did, so it applies that many terms in one kernel call, checks
them by one batched norm, and goes on term by term only if none passes.
This module owns what the propagators accept, the step and its plan;
model supplies only the lab generator's parts. _checked takes a
provider once, and every propagation then runs through _run, which
checks every sample for drift of its norm, or of its columns' overlaps,
one way. _mixer plans each propagation from its initial state, and
reads its step schedule _PLAN_CHUNK steps at a time: node times, then
the modulation sin(omega_d t - phi) at all of them, from which it forms
the chunk's diagonals and turn phases at once. The static part is
premixed once, as dt h0, so loading the next step only points the
operator at its diagonal, or copies it in. At either qubit count the
generator is a real block per parity sector; the propagation carries
only the blocks the initial state occupies (the parity keeps the rest
at zero) and applies them as three bands where they are tridiagonal
(one qubit's parity chains), else by one batched real matmul (two
qubits). A stack of lab parts (model._stack) lays their parity sectors
end to end, so the same kernels propagate all its members at once, one
apply per Taylor term.

Of those blocks a propagation carries only its Fock window, the first w
levels, which are the first w m / fock_dim rows of every sector since
each sector runs by photon number: the levels on which its initial
state's tail holds more than the Taylor stop, 1e-32 v^2, plus a guard
band of _GUARD = _TAYLOR_ROWS levels, rounded up to whole bands. The
generator couples level n only to n -+ 1 and a Taylor term is one
apply, so a term of degree j <= _GUARD carries amplitude from below the
band no higher than the band. _run checks the band's squared norm
against the stop at each _PLAN_CHUNK boundary and at each sample, and
once it passes, plans the rest of the propagation afresh, from the
state there, on a window at least one band wider, with its own
operator and power stack. A window that reaches the cutoff runs the
unwindowed loop and checks nothing; inside _top_level_record, the top
level's largest population over the samples is recorded, for the CLI's
truncation warning. The amplitude a window can drop
is bounded as follows. Let A be the step's prescaled operator on the
full space, A_w = P A P on the window, E_k(X) = sum_{j<=k} (-iX)^j / j!
an exponential of degree k <= _GUARD, and x = x_in + g a step's input,
g its part on the band. That covers every exponential that does not
fold the stack (k <= _TAYLOR_ROWS - 1), and one that folds it once and
stops at its next term (k = _GUARD), since a fold regroups the sum but
not its terms: half a period of the k = 22 cat at Fock 384 and the
step ceiling takes 213 such folds on its window. It does not cover an
exponential of higher degree, such as the windowed ones of degree 18
to 22 that cat-state takes at Fock 512, 30 steps and the step
ceiling. A^j x_in and A_w^j x_in agree for j <= k, since A^{j-1} x_in
stays below the window's top level, so the step drops |E_k(A) x -
E_k(A_w) x| <= |E_k(A) g| + |E_k(A_w) g| <= 2 e^a |g|, a = dt |Hbar|
on the levels below w + _GUARD. The twist and the steps are unitary to
roundoff, so the drops add: a propagation of N steps drops at most
2 e^a sum_n |g_n| of amplitude. The checks hold |g|^2 <= 1e-32 v^2 at
every chunk boundary and sample; while the band stays that small, the
bound is 2 e^a N 1e-16 v, for the k = 6 cat at Fock 128 (N = 272 steps
a propagation, a of about 1) some 1.5e-13 v, against the drift budget
of 1e-6. A band that passes the stop between two checks, at most
_PLAN_CHUNK steps apart, is caught at the next, and enters the sum
with what it held in between.

Both experiments meet in the middle by one identity: the lab generator
is real and symmetric and each step is symmetric in its nodes, so a
propagation over [0, t] under the time mirror H(t - tau)
(model._mirrored) is the transpose of the one under H. The cat
experiment stacks its parts with their mirror and so takes two of its
steps per propagation; the gate propagates its four columns over half
the period under the drive, which is its own mirror at the gate
presets, or under the stack of the drive and its mirror. The
effective conditional-displacement model is never propagated:
fidelity_trace builds its states in closed form from coherent
amplitudes.
"""
from __future__ import annotations

import contextlib
import contextvars
import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .hilbert import Ket, NORM_TOL, coherent_amplitudes
from .model import (DriveParams, SystemParams, beta_phi, effective_couplings,
                    frame_phases, hamiltonian_fn, _Blocks, _LabProvider, _modulation,
                    _require_quadrature)
from .output import write_trace_csv  # re-exported

__all__ = [
    "DEFAULT_STEPS_PER_PERIOD",
    "SAMPLES_PER_PERIOD",
    "EvolutionConfig",
    "Trajectory",
    "FidelityTrace",
    "PropagationAccuracyError",
    "evolve",
    "evolve_columns",
    "fidelity_trace",
    "write_trace_csv",
]

# Magnus steps per shortest Hamiltonian period. Final-state error (2-norm)
# of the k = 6 cat experiment at Fock 128 against a 400-step run:
#     50 -> 2.3e-8, 64 -> 8.8e-9, 80 -> 3.6e-9, 100 -> 1.5e-9,
# a slope of 4; the work grows in proportion to the step count. 64 keeps
# the default step under the ceiling (50 per period) and criterion 8's
# step-halving distance at 2.1e-9, bound 1e-6.
DEFAULT_STEPS_PER_PERIOD = 64
# Samples per resonator period in fidelity traces, enough to resolve the
# fast dressing oscillations.
SAMPLES_PER_PERIOD = 500

_STEP_FRACTION = 2.0 * math.pi / 50.0  # hard ceiling: dt * omega_max
_TAYLOR_RTOL = 1e-16
_TAYLOR_MAX_TERMS = 200
# Steps one propagation may take: at about 50 us per Magnus step on the
# gate and the cat, 10^9 of them run for over 13 hours.
_MAX_STEPS = 10**9
# Steps whose node times, diagonals and turn phases a propagation forms
# at once, a row per step: on the k = 6 cat at Fock 128, 16 steps ran
# level with 64, which held 0.7 MiB more in those rows, and 8 made an op
# about 4 % slower through the forming's call overhead.
_PLAN_CHUNK = 16


class PropagationAccuracyError(RuntimeError):
    """Propagation left its accuracy budget (norm drift, step too coarse)."""

    def __init__(self, message: str, step: int | None = None,
                 time: float | None = None) -> None:
        super().__init__(message)
        self.step = step
        self.time = time


@dataclass(frozen=True)
class EvolutionConfig:
    """The step size of the fourth-order Magnus stepper.

    dt is in units of 1/omega_r; None derives (2 pi / omega_max) divided
    by DEFAULT_STEPS_PER_PERIOD from the provider's own frequency scale.
    An explicit dt above 2 pi / (50 omega_max) is rejected outright.
    """

    dt: float | None = None

    def __post_init__(self) -> None:
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")

    def resolve_dt(self, omega_max: float) -> float:
        if self.dt is not None:
            if self.dt > _STEP_FRACTION / omega_max * (1 + 1e-12):
                raise ValueError(
                    f"dt = {self.dt:g} exceeds the step ceiling "
                    f"{_STEP_FRACTION / omega_max:g} = 2pi/(50 omega_max), "
                    f"omega_max = {omega_max:g}"
                )
            return self.dt
        return 2.0 * math.pi / omega_max / DEFAULT_STEPS_PER_PERIOD


@dataclass(frozen=True)
class Trajectory:
    """Sampled evolution: times, states, and their norms at each sample."""

    times: np.ndarray
    states: tuple[Ket, ...]
    norms: np.ndarray

    @property
    def final(self) -> Ket:
        return self.states[-1]


@dataclass(frozen=True)
class FidelityTrace:
    """Overlap-squared between two evolutions on a common sample grid."""

    times: np.ndarray
    fidelities: np.ndarray
    omega_r: float

    @property
    def t_over_period(self) -> np.ndarray:
        return self.times * self.omega_r / (2.0 * math.pi)

    def min(self) -> float:
        return float(np.min(self.fidelities))

    def mean(self) -> float:
        return float(np.mean(self.fidelities))


# Gauss nodes of the fourth-order Magnus step, as fractions of the step,
# and its twist K = _TWIST dt (H_2 - H_1).
_GAUSS_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_TWIST = math.sqrt(3.0) / 12.0

# Rows of an operator's Taylor power stack: p_0 and up to 15 powers, more
# than an exponential at the default step takes (9 to 10 on average on
# the gate and the cat); one that needs more folds the stack. _COEFFS[j] = (-i)^j / j! combines
# row j into the exponential, and _STOP[j] = (1e-16 j!)^2 stops the
# series at row j, relative to the squared norm of the initial state.
_TAYLOR_ROWS = 16
_COEFFS = np.cumprod([1.0] + [-1j / j for j in range(1, _TAYLOR_ROWS)])
_STOP = _TAYLOR_RTOL ** 2 / np.abs(_COEFFS) ** 2
_HEADS = [_COEFFS[:j + 1] for j in range(_TAYLOR_ROWS)]
# Fock levels of the guard band on top of a propagation's window (see
# _mixer): no Taylor term of degree up to _GUARD carries amplitude from
# below the band out of the window.
_GUARD = _TAYLOR_ROWS

# The open record of _top_level_record, if any, that _run writes into.
_TOP_LEVEL: contextvars.ContextVar = contextvars.ContextVar("top_level", default=None)


@contextlib.contextmanager
def _top_level_record():
    """A with block whose propagations record, in the one-element list it
    yields, the largest population a column of their samples held on the
    top Fock level (see _run); 0 until one does."""
    record = [0.0]
    token = _TOP_LEVEL.set(record)
    try:
        yield record
    finally:
        _TOP_LEVEL.reset(token)


class _Powers:
    """A loaded operator A and the power stack it owns.

    Row j of the stack holds p_j = A p_{j-1} once term j has run, p_0
    being what the caller writes into row 0. powers(m, j=1) runs terms j
    to m in one call, term j on terms[j], row j's output view and row j -
    1's input views, which the kernel binds once. rows[j] is row j as a
    packed state and flat[j] as one float64 vector; norms[m] holds rows 1
    to m's vectors as (1, n) and as (n, 1) matrices, and one matmul's
    output for their squared norms, as (m, 1, 1) and flat. stack holds
    the rows flat, one per line, and heads[j] its first j + 1 lines, for
    combining them into out, whose packed state is result. bounds[j] is
    the Taylor stop on row j's squared norm, and degree the number of
    terms the last exponential took, 0 before the first (see _expmv). buf
    is the stack in the kernel's own layout, and state maps one of its
    rows (or a row-shaped array) to a packed state.
    """

    def __init__(self, buf: np.ndarray, state: Callable, powers: Callable,
                 terms: list, bounds: list) -> None:
        self.stack = buf.reshape(len(buf), -1)
        self.heads = [self.stack[:j + 1] for j in range(len(buf))]
        flat = self.stack.view(np.float64)
        self.flat, lhs, rhs = list(flat), flat[:, None], flat[..., None]
        self.norms = [(lhs[1:len(n) + 1], rhs[1:len(n) + 1], n[:, None, None], n)
                      for n in map(np.empty, range(len(buf)))]
        self.degree = 0
        self.rows = [state(b) for b in buf]
        self.out = np.zeros_like(self.stack[0])
        self.result = state(self.out.reshape(buf.shape[1:]))
        self.powers, self.terms, self.bounds = powers, terms, bounds


def _block_operator(blocks: np.ndarray, shape: tuple, bounds: list) -> _Powers:
    """A = B for the real parity blocks B, (sectors, m, m).

    The rows are packed (sectors, m, k) states. The float64 view of a
    C-contiguous row holds each amplitude's real and imaginary parts side
    by side, so term j is one batched real matmul over the sectors, from
    row j - 1's float64 view into row j's, both bound once.
    """
    buf = np.empty((len(bounds),) + shape, dtype=complex)
    f = [b.view(np.float64) for b in buf]
    terms = [()] + [(y, x) for y, x in zip(f[1:], f)]

    def powers(m: int, j: int = 1, matmul=np.matmul) -> None:
        for y, x in terms[j:m + 1]:
            matmul(blocks, x, y)
    return _Powers(buf, lambda b: b, powers, terms, bounds)


def _band_operator(up: np.ndarray, lo: np.ndarray, shape: tuple,
                   bounds: list) -> _Powers:
    """A = T for the tridiagonal T with T[i, i+1] = up[i], T[i, i-1] =
    lo[i] and the diagonal that load(d) sets.

    The rows are packed (sectors, n, k) states; T, read off tridiagonal
    parity blocks, runs along the sectors laid end to end, so d, up and
    lo are (sectors * n, 1) complex columns, and up, lo are 0 where one
    sector ends and the next begins. Each row carries a zero line at
    either end, so term j binds fixed views once, row j's lines y and row
    j - 1's x, x[i+1] and x[i-1], and is five ufunc calls, y = (d x + up
    x[i+1]) + lo x[i-1], their outputs passed by position.
    """
    lines = shape[0] * shape[1]
    buf = np.zeros((len(bounds), lines + 2, shape[2]), dtype=complex)
    terms = [()] + [(y[1:-1], x[1:-1], x[2:], x[:-2]) for y, x in zip(buf[1:], buf)]
    tmp = np.empty((lines, shape[2]), dtype=complex)
    diag = None

    def load(d: np.ndarray) -> None:
        nonlocal diag
        diag = d

    def powers(m: int, j: int = 1, mul=np.multiply, add=np.add) -> None:
        d = diag
        for y, x, nx, px in terms[j:m + 1]:
            mul(d, x, y)
            mul(up, nx, tmp)
            add(y, tmp, y)
            mul(lo, px, tmp)
            add(y, tmp, y)
    op = _Powers(buf, lambda b: b[1:-1].reshape(shape), powers, terms, bounds)
    op.load = load
    return op


def _packing(parts: _Blocks, v0: np.ndarray, rows: int):
    """(sectors, shape, into, back): the first rows rows (the Fock window)
    of the parity sectors v0 occupies.

    parts.order lists the product-basis indices of its sectors, in equal
    runs, each by photon number, so a run's first rows rows are its
    levels below rows / (rows per level). into keeps only the sectors v0
    (a state or a (dim, k) column block) occupies and, of each, only the
    columns v0 occupies there, padded with zero columns to the widest
    sector, and of those only the window's rows: a (sectors, rows,
    columns) array. back scatters such an array into zeros in the product
    basis, or into out, an array of v0's shape that holds zeros.
    """
    runs = parts.order.reshape(len(parts.h0), -1)
    cols = v0.reshape(len(v0), -1)
    live = [np.flatnonzero(np.any(cols[run], axis=0)) for run in runs]
    sectors = [s for s in range(len(runs)) if len(live[s])] or [0]
    shape = (len(sectors), rows, max(len(live[s]) for s in sectors))
    cuts = [(i, np.ix_(runs[s][:rows], live[s]), len(live[s]))
            for i, s in enumerate(sectors)]

    def into(x: np.ndarray) -> np.ndarray:
        p = np.zeros(shape, dtype=complex)
        x = x.reshape(len(x), -1)
        for i, rows_cols, k in cuts:
            p[i, :, :k] = x[rows_cols]
        return p

    def back(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.zeros(v0.shape, dtype=complex)
        flat = out.reshape(len(out), -1)
        for i, rows_cols, k in cuts:
            flat[rows_cols] = p[i, :, :k]
        return out
    return sectors, shape, into, back


def _window(parts: _Blocks, v0: np.ndarray) -> tuple[int, float]:
    """(levels, v^2): v^2 the squared norm of v0's smallest nonzero member,
    and the Fock levels a propagation of v0 starts on, the lowest level w0
    at and above which v0's squared norm, summed over its sectors and
    columns, is at most the Taylor stop 1e-32 v^2, plus the _GUARD levels
    of the guard band, rounded up to whole bands (so a window that grows,
    grows by at least one band) and capped at parts.fock_dim."""
    x = v0.reshape(len(v0), -1)
    sq = np.sum(x.real ** 2 + x.imag ** 2, axis=1)[parts.order]
    sq = sq.reshape(len(parts.h0), parts.fock_dim, -1).sum(axis=2)  # (sectors, levels)
    norms = np.add.reduceat(sq.sum(axis=1), np.flatnonzero(np.diff(parts.member, prepend=-1)))
    v2 = np.min(norms, initial=np.inf, where=norms > 0)
    w0 = np.count_nonzero(np.cumsum(sq.sum(axis=0)[::-1]) > _STOP[0] * v2)
    return min(parts.fock_dim, -(-(int(w0) + _GUARD) // _GUARD) * _GUARD), v2


def _mixer(parts: _Blocks, v0: np.ndarray, chunks: Iterable[np.ndarray], dt: float,
           widens: _Powers | None = None):
    """(ops, into, back, watch): the plan of one propagation of v0 under
    the lab parts (of one drive or a stack), in fourth-order Magnus steps
    of dt, on v0's Fock window.

    chunks yields the node times of runs of consecutive steps as (steps,
    2) arrays, each step's two Gauss nodes t_1, t_2. Each next(ops) loads
    the next step and returns its (turn, op). The turn is the phase
    turn(x) = exp(i (K_n - K_{n-1})) x into op's row 0, K_n = dt
    (sqrt(3)/12) (H(t_2) - H(t_1)) of step n, K_{-1} = 0, so a
    propagation carries its state twisted by e^{iK} of the last step
    loaded. op is a _Powers of the prescaled mean generator dt (H(t_1) +
    H(t_2))/2, valid until the next load. into packs v0, or an array of
    its shape with no amplitude outside v0's, into the propagation basis
    (_packing); back unwinds e^{-iK} of the last step loaded from a
    packed state and unpacks it into the product basis (into out, zeros
    of v0's shape, if given). Each op's Taylor stop is _STOP (one entry
    per stack row) times _window's v^2.

    The window is v0's (_window), whose top _GUARD levels are the guard
    band; the generator is restricted to it, a hard wall at level w.
    watch(p) checks a packed state p of the plan: on a window short of
    the cutoff it is true once the band's squared norm passes the stop
    1e-32 v^2; at the full cutoff it is always false. A plan that widens
    the operator of another (whose watch _run saw true) starts on v0's
    window, but at least one band above that plan's, and keeps its
    Taylor stops.

    The parts are h0 + s(t) D, s(t) = sin(omega_d t - phi), D diagonal,
    so K_n = q D, q = dt (sqrt(3)/12) (s(t_2) - s(t_1)), and the mean
    generator is dt h0 + c D, c = dt (s(t_1)/2 + s(t_2)/2), with q and c
    one number per occupied sector (sectors of one phi get the same
    bits). A chunk forms at once the diagonals dt diag(h0) + c D its ops
    load and the phases its turns multiply by.
    """
    per = parts.h0.shape[1] // parts.fock_dim  # rows per Fock level
    levels, v2 = _window(parts, v0)
    if widens is not None:
        levels = min(parts.fock_dim, max(levels, widens.rows[0].shape[1] // per + _GUARD))
    sectors, shape, into, unpack = _packing(parts, v0, levels * per)
    rows = shape[1]
    bounds = widens.bounds if widens is not None else (v2 * _STOP).tolist()
    # an np.float64 multiplier: a Python float takes another path through
    # NumPy, which maps about half a MiB more of its pages into a cat run
    blocks = np.float64(dt) * parts.h0[sectors, :rows, :rows]
    d0 = np.diagonal(blocks, 0, 1, 2).flatten()
    drive = parts.diag[sectors, :rows]
    # a phase exp(i q D) takes the exponential of D's few distinct values
    # only (found without np.unique, whose sort would add a quarter MiB of
    # library pages to every run)
    seen: dict = {}
    at = np.array([seen.setdefault(d, len(seen)) for d in drive.ravel().tolist()])
    at, vals = at.reshape(drive.shape), np.array(list(seen))
    by = np.arange(len(sectors))[:, None]

    def phases(q: np.ndarray) -> np.ndarray:
        """exp(i q D) for coefficients q (..., sectors), as (..., sectors, m, 1)."""
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

    def watch(p: np.ndarray) -> bool:
        if levels == parts.fock_dim:  # at the full cutoff nothing is checked
            return False
        b = p[:, rows - _GUARD * per:]
        return np.vdot(b, b).real > bounds[0]

    def turn(x: np.ndarray, row=op.rows[0], multiply=np.multiply) -> np.ndarray:
        return multiply(x, phase, row)

    def ops():
        nonlocal phase, last
        k = np.zeros((1, len(sectors)))
        for nodes in chunks:
            s = _modulation(parts, nodes)[..., sectors]  # (steps, 2, sectors)
            ks = dt * (s[:, 1] * _TWIST - s[:, 0] * _TWIST)
            twists = zip(ks, phases(np.diff(ks, axis=0, prepend=k)))
            k = ks[-1:] if len(ks) else k
            c = dt * (s[:, 0] * 0.5 + s[:, 1] * 0.5)
            loads = lines(d0 + (c[..., None] * drive).reshape(len(c), -1))
            for (last, phase), d in zip(twists, loads):
                op.load(d)
                yield turn, op

    def back(p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return unpack(p if last is None else p * phases(-last), out)
    return ops(), into, back, watch


def _expmv(op, x: np.ndarray) -> np.ndarray:
    """exp(-i A) @ x by the Taylor series, A the operator op has loaded
    (a _Powers, prescaled by its step: dt Hbar).

    x goes into row 0 of op's power stack, unless it is there already,
    and each term writes p_k = A p_{k-1} into row k, one bare apply. The
    series stops at the first k with ||p_k||^2 <= op.bounds[k] =
    1e-32 (k!)^2 v^2, that is at a term (-i)^k p_k / k! of squared norm
    at most 1e-32 v^2, a relative 1e-16 tail: v^2 is the squared norm of
    the propagation's initial state (of its smallest stack member, so
    that each member's own term passes its own stop), taken once, since
    the Taylor product is unitary to roundoff. Consecutive exponentials
    of a propagation almost always stop at the same k, so the first m
    terms, m = op.degree (where op's last exponential stopped) up to the
    stack's last row, are applied untested by one op.powers(m), and
    their squared norms taken by one matmul on op.norms[m], which gives
    each the bits of its own dot product: the series stops at the first
    of them that passes, and the rows past it are never combined. If
    none does, it goes on from term m + 1, one test per term. The
    exponential is then one combination of the rows by the coefficients
    (-i)^j / j!, into op.out, and is returned as op.result, valid until
    op's next exponential. When the rows run out, all but the last are
    folded into a partial sum, and the last, scaled to its term t_b,
    becomes row 0, from which the series goes on with the coefficients
    (-i)^j b!/(b+j)!. Converges for any step but is only accurate (and
    cheap) for ||A|| of order one or below, as the step ceiling ensures.
    """
    rows, flat, powers, bounds = op.rows, op.flat, op.powers, op.bounds
    if x is not rows[0]:
        np.copyto(rows[0], x)
    heads, total, depth = _HEADS, None, len(rows)
    m = min(op.degree, depth - 1)
    powers(m)
    lhs, rhs, out, norms = op.norms[m]
    np.matmul(lhs, rhs, out)
    for k, s in enumerate(norms.tolist(), 1):
        if s <= bounds[k]:
            j = k
            break
    else:
        j = m
        for k in range(m + 1, _TAYLOR_MAX_TERMS + 1):
            j += 1
            if j == depth:
                j -= 1
                coeffs = heads[j]
                part = coeffs[:j] @ op.stack[:j]
                total = part if total is None else total + part
                np.multiply(op.stack[j], coeffs[j], out=op.stack[0])
                coeffs = np.cumprod([1.0] + [-1j / (k - 1 + i) for i in range(1, depth)])
                heads = [coeffs[:i + 1] for i in range(depth)]
                bounds = (op.bounds[0] / np.abs(coeffs) ** 2).tolist()
                j = 1
            powers(j, j)
            if flat[j] @ flat[j] <= bounds[j]:
                break
        else:
            raise PropagationAccuracyError(
                f"matrix-exponential series did not converge in {_TAYLOR_MAX_TERMS} "
                "terms; the step is far too large for this generator")
    op.degree = k
    np.dot(heads[j], op.heads[j], op.out)
    if total is not None:
        op.out += total
    return op.result


def _sample_grid(t_end: float, dt: float, n_samples: int):
    """Uniform sample times plus the substep count inside each interval;
    ValueError, before anything is planned, past _MAX_STEPS steps."""
    n_sub = max(1, math.ceil(min(t_end / n_samples / dt, _MAX_STEPS + 1) - 1e-9))
    steps = max(t_end / dt, n_sub * n_samples)
    if steps > _MAX_STEPS:
        raise ValueError(f"dt = {dt:g} takes {steps:.3g} steps to t = {t_end:g}, "
                         f"more than the {_MAX_STEPS:.0e} a propagation may take")
    return np.linspace(0.0, t_end, n_samples + 1), n_sub


def _run(parts: _Blocks, v0: np.ndarray, times: np.ndarray,
         n_sub: int) -> np.ndarray:
    """States at every sample time under the lab parts, n_sub steps per
    sample interval.

    Every step takes dt = times[-1] / (n_sub (len(times) - 1)), the k-th
    of an interval starting at times[i] + k dt. _mixer plans the
    propagation from the parity sectors and the Fock window v0 occupies,
    and reads the step schedule, node times then the operators'
    modulation coefficients, _PLAN_CHUNK steps at a time as the
    propagation reaches them. Short of the cutoff, the plan's watch checks
    its guard band before the first step of each of its chunks and sample
    intervals, but its own first step; once the band passes the Taylor
    stop, the rest of the propagation is planned afresh from the state
    there, unwound to the product basis, on a window at least one band
    wider and with the same Taylor stops. At the cutoff nothing is
    checked. A step turns the twisted state w = e^{+iK_{n-1}} v by
    e^{i(K_n - K_{n-1})} and applies exp(-i dt Hbar), which gives
    e^{+iK_n} (e^{-iK_n} exp(-i dt Hbar) e^{+iK_n} v), the Magnus step;
    the state stays twisted until the plan's back unwinds it where a
    sample leaves, into its row of one array of the samples.
    Every sample C is checked against v0 = C0 (a state or a column block)
    by max |C^dag C - C0^dag C0|, the drift of a state's squared norm or of
    a block's overlaps; beyond NORM_TOL, and for a Taylor series that
    does not converge, PropagationAccuracyError names the sample (or the
    step) and its time. Inside _top_level_record, the largest squared
    norm a column of the samples holds on the top Fock level (its
    population there, for a normalised column, summed over the members
    of a stack; exactly 0 while the window is short of the cutoff) is
    recorded.
    """
    steps = (len(times) - 1) * n_sub
    dt = float(times[-1]) / steps

    def node_chunks(start: int):
        for k in range(start, steps, _PLAN_CHUNK):
            i, j = np.divmod(np.arange(k, min(k + _PLAN_CHUNK, steps)), n_sub)
            starts = times[i] + j * dt
            yield starts[:, None] + np.multiply(dt, _GAUSS_NODES)

    v0 = np.asarray(v0, dtype=complex)
    c0 = v0.reshape(len(v0), -1)
    gram0 = c0.conj().T @ c0
    ops, into, back, watch = _mixer(parts, v0, node_chunks(0), dt)
    v = into(v0)
    out = np.zeros((len(times),) + v0.shape, dtype=complex)
    back(v, out[0])
    start = 0  # the current plan's first step
    for i in range(len(times) - 1):
        for j in range(n_sub):
            n = i * n_sub + j
            if n != start and (j == 0 or (n - start) % _PLAN_CHUNK == 0) and watch(v):
                x = back(v)  # the band passed: widen the window from here
                ops, into, back, watch = _mixer(parts, x, node_chunks(n), dt, op)
                v, start = into(x), n
            turn, op = next(ops)
            try:
                v = _expmv(op, turn(v))
            except PropagationAccuracyError as exc:
                t = float(times[i] + j * dt)
                raise PropagationAccuracyError(f"{exc} (step {n + 1}, t = {t:g})",
                                               step=n + 1, time=t) from None
        x = back(v, out[i + 1])
        c = x.reshape(len(x), -1)
        drift = float(np.max(np.abs(c.conj().T @ c - gram0)))
        if drift > NORM_TOL:
            t = float(times[i + 1])
            raise PropagationAccuracyError(
                f"norm drifted by {drift:.3e} (max |C^dag C - C0^dag C0|, budget "
                f"{NORM_TOL:g}) at sample {i + 1}, t = {t:g}", step=i + 1, time=t)
    record = _TOP_LEVEL.get()
    if record is not None:
        top = out.reshape(len(out), -1, parts.fock_dim, c0.shape[1])[:, :, -1]
        record[0] = max(record[0], float(np.max(np.sum(top.real ** 2 + top.imag ** 2,
                                                       axis=1))))
    return out


def _checked(h: _LabProvider, t: float) -> _LabProvider:
    """The lab provider h is or carries, the only kind the propagators take.

    t, the end of the propagation, must be finite and >= 0 (ValueError,
    before h is evaluated). A _LabProvider comes back as it is,
    unevaluated. Any other callable that carries parts, such as a wrapper
    that copies a provider's attributes (as functools.wraps does), is
    evaluated once, at t, and must return its parts assembled there in
    the product basis; it comes back as the _LabProvider of its parts,
    omega_max and layout. One whose H(t) differs raises ValueError instead
    of being propagated as the provider it wraps, and any other callable
    raises ValueError naming its type.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t_end must be >= 0, got {t}")
    if isinstance(h, _LabProvider):
        return h
    parts = getattr(h, "parts", None)
    if not isinstance(parts, _Blocks):
        raise ValueError(
            "the propagators take a lab-driven provider of hamiltonian_fn, or a "
            f"wrapper that carries its parts, not a {type(h).__qualname__}"
        )
    lab = _LabProvider(parts, h.omega_max, h.layout)
    dense = np.asarray(h(t))
    scale = max(1.0, float(np.max(np.abs(dense))))
    diff = float(np.max(np.abs(dense - lab(t))))
    if diff > 1e-12 * scale:
        raise ValueError(
            f"provider's H(t) differs from its coefficient form by {diff:.3e} "
            f"at t = {t:g}"
        )
    return lab


def _propagate(h: _LabProvider, v0: np.ndarray, t_end: float, cfg: EvolutionConfig,
               n_samples: int = 1) -> tuple[np.ndarray, list[np.ndarray]]:
    """(times, states): v0 propagated under the checked provider h over
    n_samples uniform intervals of [0, t_end], at the step cfg resolves
    from h's own frequency scale, each sample guarded by _run. At t_end =
    0 that is v0 alone, copied."""
    if t_end == 0.0:
        return np.zeros(1), [np.array(v0, dtype=complex)]
    times, n_sub = _sample_grid(t_end, cfg.resolve_dt(h.omega_max), n_samples)
    return times, _run(h.parts, v0, times, n_sub)


def evolve(h: _LabProvider, psi0: Ket, t_end: float,
           cfg: EvolutionConfig, n_samples: int = 100) -> Trajectory:
    """Integrate the Schrodinger equation from psi0 to t_end.

    h is a lab-driven provider of hamiltonian_fn, or a wrapper that
    carries its parts; any other callable raises ValueError. Its own
    frequency scale sets the default step. The trajectory is sampled at
    n_samples uniform intervals (plus t=0), and the norm is checked at
    every sample; a squared norm that drifts beyond 1e-6 raises
    PropagationAccuracyError naming the offending sample.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    h = _checked(h, t_end)
    if h.layout != psi0.layout:
        raise ValueError("provider layout does not match the initial state")
    if abs(psi0.norm() - 1.0) > NORM_TOL:
        raise ValueError("initial state must be normalized")
    times, vecs = _propagate(h, psi0.vec, t_end, cfg, n_samples)
    states = tuple(Ket(psi0.layout, v) for v in vecs)
    norms = np.array([s.norm() for s in states])
    return Trajectory(times, states, norms)


def evolve_columns(h: _LabProvider, v0: np.ndarray, t_end: float,
                   cfg: EvolutionConfig) -> np.ndarray:
    """Propagate a (dim, k) block of columns (or one vector) to t_end.

    h is a lab-driven provider of hamiltonian_fn, a stack of lab parts,
    or a wrapper that carries a provider's parts; any other callable
    raises ValueError. This is how the gate and cat experiments
    propagate the subspace they need; the dim columns of the identity
    give the full propagator. No samples are kept but the one at t_end, where the
    overlaps of the columns must be preserved: a drift of max |C^dag C -
    V0^dag V0| beyond 1e-6 raises PropagationAccuracyError naming sample 1
    and t_end. A v0 whose first axis is not h's basis size (of its
    members together, for a stack) raises ValueError before anything is
    planned.
    """
    h = _checked(h, t_end)
    dim = len(h.parts.order)
    if np.ndim(v0) not in (1, 2) or len(v0) != dim:
        raise ValueError(f"v0 must be a vector or (dim, k) block of dim = {dim} rows, "
                         f"got shape {np.shape(v0)}")
    return _propagate(h, v0, t_end, cfg)[1][-1]


def _effective_states(params: SystemParams, drive: DriveParams, psi0: Ket,
                      times: np.ndarray) -> np.ndarray:
    """Closed-form effective-model states, one row per time.

    H_eff conserves every sigma_x^m. In the branch with eigenvalues
    s = (s_1, ...) it drives the resonator at G_s = sum_m s_m g_eff,m, so
    a branch that starts in the vacuum is e^{i Phi_s(t)} |beta_s(t)> with
    beta_s, Phi_s = beta_phi(G_s / omega_r, t). psi0 must be a qubit state
    times the resonator vacuum, and every branch's largest |beta_s|^2
    must pass the truncation budget.
    """
    layout = psi0.layout
    qubits = psi0.vec.reshape(-1, layout.fock_dim)
    if np.any(qubits[:, 1:]):
        raise ValueError("fidelity_trace needs psi0 in the resonator vacuum "
                         "(a qubit state times |0>)")
    # sigma_x eigenvectors (|e> + s|g>)/sqrt(2), s = +1, -1, as columns
    x1 = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    x = x1 if layout.n_qubits == 1 else np.kron(x1, x1)
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=layout.n_qubits)))
    g_s = signs @ np.array(effective_couplings(params, drive))
    beta, phase = beta_phi(g_s / params.omega_r, times[:, None], params.omega_r)
    amps = coherent_amplitudes(beta, layout.fock_dim)  # (time, branch, n)
    weights = (x.T @ qubits[:, 0]) * np.exp(1j * phase)
    return (x @ (weights[..., None] * amps)).reshape(len(times), -1)


def fidelity_trace(params: SystemParams, drive: DriveParams, psi0: Ket,
                   t_end: float, cfg: EvolutionConfig,
                   n_samples: int | None = None) -> FidelityTrace:
    """Exact-vs-effective overlap trace over [0, t_end].

    psi0 is evolved under the full driven Hamiltonian in the lab frame and
    mapped into the rotating frame, where it is compared against the
    closed-form evolution under the effective conditional-displacement
    Hamiltonian. psi0 must be a qubit state times the resonator vacuum.
    Samples default to 500 per resonator period. A displacement beyond
    the truncation budget raises ValueError before anything is propagated.
    """
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be > 0, got {t_end}")
    layout = psi0.layout
    if abs(psi0.norm() - 1.0) > NORM_TOL:
        raise ValueError("initial state must be normalized")
    _require_quadrature(drive, "effective model")
    if n_samples is None:
        period = 2.0 * math.pi / params.omega_r
        n_samples = max(2, math.ceil(SAMPLES_PER_PERIOD * t_end / period))
    elif n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")

    h = _checked(hamiltonian_fn(params, drive, "lab-driven", layout), t_end)
    times, n_sub = _sample_grid(t_end, cfg.resolve_dt(h.omega_max), n_samples)
    eff = _effective_states(params, drive, psi0, times)
    lab = _run(h.parts, psi0.vec, times, n_sub)
    # <U^dag lab | eff> = <lab | U eff>, U the frame transform
    eff *= frame_phases(times, params, drive, layout)
    fids = np.abs(np.einsum("ti,ti->t", lab.conj(), eff)) ** 2
    return FidelityTrace(times, fids, params.omega_r)
