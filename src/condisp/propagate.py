"""Time-dependent Schrodinger propagation and effective-vs-exact traces.

The workhorse is a fourth-order Magnus stepper with one exponential per
step. Its exponent is the classical fourth-order Magnus one (Blanes,
Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)),

    -i dt Hbar + (sqrt(3)/12) dt^2 [H_1, H_2],    Hbar = (H_1 + H_2)/2,

with H_1, H_2 the generator at the two Gauss points t + (1/2 -+
sqrt(3)/6) dt. The commutator is not formed: a step applies

    e^{-iK} exp(-i dt Hbar) e^{+iK},    K = (sqrt(3)/12) dt (H_2 - H_1),

whose exponent is the Magnus one up to O(dt K^2) = O(dt^5). For a lab
provider, H_2 - H_1 is a multiple of the diagonal drive D, so e^{+-iK}
are elementwise phases that commute: a propagation carries its state
twisted, w_n = e^{+iK_{n-1}} v_n, makes one turn e^{i(K_n - K_{n-1})}
per step, and unwinds e^{-iK} only where a state leaves it, at each
sample (a dense fallback, whose K_n do not commute, keeps two turns a
step). Every operator comes prescaled by its step, A = dt Hbar, and
the exponential is an adaptive Taylor series on a power stack that the
operator owns: each term is one bare apply p_k = A p_{k-1} into the
next row, plus its stop test, and the exponential is one combination
of the rows by (-i)^k / k! (a stack that runs out of rows is folded
into a partial sum). The Taylor product never leaves the unit sphere
beyond roundoff, so the series stops once a term's squared norm falls
below 1e-32 of the initial state's, taken once per propagation (of the
smallest member's, for a stack). model._mixer plans each propagation
once, from its initial state, and reads its step schedule _PLAN_CHUNK
steps at a time: node times, then the modulation sin(omega_d t - phi)
at all of them, from which it forms the chunk's diagonals and turn
phases at once. Lab providers (model._LabProvider), whose generator is
h0 + sin(omega_d t - phi) D, are never evaluated: they are propagated
from the parts they carry, and only a wrapper that carries a provider's
parts is evaluated, once per propagation (once per experiment for the
cat and the gate, which propagate providers built from the parts they
take), to check them. Their static part is premixed once, as dt h0, so
loading the next step only points the operator at its diagonal, or
copies it in. At either qubit count the generator is a real block per
parity sector; the propagation carries only the blocks the initial
state occupies (the parity keeps the rest at zero) and applies them as
three bands where they are tridiagonal (one qubit's parity chains),
else by one batched real matmul (two qubits). A stack of lab parts
(model._stack) lays their parity sectors end to end, so the same
kernels propagate all its members at once, one apply per Taylor term.
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
amplitudes. A classical RK4 stepper is kept as an independent
cross-check, on the same kind of schedule at its own finer default step;
it is not norm-preserving, which is exactly why it makes a useful
disagreement detector.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .hilbert import Ket, Operator, HilbertLayout, NORM_TOL, coherent_amplitudes
from .model import (DriveParams, SystemParams, beta_phi, effective_couplings,
                    frame_phases, hamiltonian_fn, _mixer, _require_quadrature)

__all__ = [
    "DEFAULT_STEPS_PER_PERIOD",
    "SAMPLES_PER_PERIOD",
    "EvolutionConfig",
    "Trajectory",
    "FidelityTrace",
    "PropagationAccuracyError",
    "evolve",
    "propagator",
    "fidelity_trace",
    "write_trace_csv",
]

METHODS = ("piecewise-exponential", "rk4")

# Magnus steps per shortest Hamiltonian period. Final-state error (2-norm)
# of the k = 6 cat experiment at Fock 128 against a 400-step run:
#     50 -> 2.3e-8, 64 -> 8.8e-9, 80 -> 3.6e-9, 100 -> 1.5e-9,
# a slope of 4; the work grows in proportion to the step count. 64 keeps
# the default step under the ceiling (50 per period) and criterion 8's
# step-halving distance at 2.1e-9, bound 1e-6.
DEFAULT_STEPS_PER_PERIOD = 64
# RK4 steps per shortest period. RK4 is only the cross-check, and at 64
# steps it would sit within 2x of that check's 1e-6 bound.
_RK4_STEPS_PER_PERIOD = 800
# Samples per resonator period in fidelity traces, enough to resolve the
# fast dressing oscillations.
SAMPLES_PER_PERIOD = 500

_STEP_FRACTION = 2.0 * math.pi / 50.0  # hard ceiling: dt * omega_max
_TAYLOR_RTOL = 1e-16
_TAYLOR_MAX_TERMS = 200
_UNITARITY_TOL = 1e-7
# Steps whose node times, diagonals and turn phases a propagation forms
# at once, a row per step: on the k = 6 cat at Fock 128, 16 steps ran
# level with 64, which held 0.7 MiB more in those rows, and 8 made an op
# about 4 % slower through the forming's call overhead.
_PLAN_CHUNK = 16
# Integer cells below this magnitude have at most 12 digits, so %d writes
# them as %.12g does.
_INT_LIMIT = 10**12

HamiltonianProvider = Callable[[float], np.ndarray]


class PropagationAccuracyError(RuntimeError):
    """Propagation left its accuracy budget (norm drift, step too coarse)."""

    def __init__(self, message: str, step: int | None = None,
                 time: float | None = None) -> None:
        super().__init__(message)
        self.step = step
        self.time = time


@dataclass(frozen=True)
class EvolutionConfig:
    """How to integrate: step size and stepper.

    dt is in units of 1/omega_r; None derives (2 pi / omega_max) divided
    by DEFAULT_STEPS_PER_PERIOD (800 for rk4) from the provider's own
    frequency scale.
    An explicit dt above 2 pi / (50 omega_max) is rejected outright.
    """

    dt: float | None = None
    method: str = "piecewise-exponential"

    def __post_init__(self) -> None:
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")

    def resolve_dt(self, omega_max: float | None) -> float:
        if self.dt is not None:
            if omega_max is not None and self.dt > _STEP_FRACTION / omega_max * (1 + 1e-12):
                raise ValueError(
                    f"dt = {self.dt:g} exceeds the step ceiling "
                    f"{_STEP_FRACTION / omega_max:g} = 2pi/(50 omega_max), "
                    f"omega_max = {omega_max:g}"
                )
            return self.dt
        if omega_max is None:
            raise ValueError(
                "dt is required: provider carries no omega_max attribute "
                "to derive a default from"
            )
        steps = (DEFAULT_STEPS_PER_PERIOD if self.method == "piecewise-exponential"
                 else _RK4_STEPS_PER_PERIOD)
        return 2.0 * math.pi / omega_max / steps


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


# Gauss nodes of the fourth-order Magnus step, and the weight of its twist
# K = dt (sqrt(3)/12) (H_2 - H_1) on the later node.
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


def _expmv(op, x: np.ndarray) -> np.ndarray:
    """exp(-i A) @ x by the Taylor series, A the operator op has loaded
    (a model._Powers, prescaled by its step: dt Hbar, or a turn's K).

    x goes into row 0 of op's power stack, unless it is there already,
    and each term writes p_k = A p_{k-1} into row k, one bare apply. The
    series stops at the first k with ||p_k||^2 <= op.bounds[k] =
    1e-32 (k!)^2 v^2, that is at a term (-i)^k p_k / k! of squared norm
    at most 1e-32 v^2, a relative 1e-16 tail: v^2 is the squared norm of
    the propagation's initial state (of its smallest stack member, so
    that each member's own term passes its own stop), taken once, since
    the Taylor product is unitary to roundoff. The exponential is then
    one combination of the rows by the coefficients (-i)^j / j!, into
    op.out, and is returned as op.result, valid until op's next
    exponential. When the rows run out, all but the last are folded into
    a partial sum, and the last, scaled to its term t_b, becomes row 0,
    from which the series goes on with the coefficients (-i)^j b!/(b+j)!.
    Converges for any step but is only accurate (and cheap) for ||A|| of
    order one or below, which the step ceiling guarantees.
    """
    rows, flat, power, bounds = op.rows, op.flat, op.power, op.bounds
    if x is not rows[0]:
        np.copyto(rows[0], x)
    heads, total, j, depth = _HEADS, None, 0, len(rows)
    for k in range(1, _TAYLOR_MAX_TERMS + 1):
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
        power(j)
        if flat[j] @ flat[j] <= bounds[j]:
            np.dot(heads[j], op.heads[j], out=op.out)
            if total is not None:
                op.out += total
            return op.result
    raise PropagationAccuracyError(
        f"matrix-exponential series did not converge in {_TAYLOR_MAX_TERMS} "
        "terms; the step is far too large for this generator"
    )


# Each stepper's nodes, as fractions of the step, and its operators, as
# weights over those nodes, in the order a step loads them. A row whose
# weights sum to zero loads as a turn (see model._mixer).
_SCHEMES = {
    "piecewise-exponential": (_GAUSS_NODES, ((-_TWIST, _TWIST), (0.5, 0.5))),
    "rk4": ((0.0, 0.5, 1.0), ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))),
}


def _m4_step(ops, w: np.ndarray) -> np.ndarray:
    """One fourth-order Magnus step on the twisted state w = e^{+iK_{n-1}} v.

    The first load is the turn e^{i(K_n - K_{n-1})}, K = dt (sqrt(3)/12)
    (H_2 - H_1), the second the prescaled mean generator dt Hbar, Hbar =
    (H_1 + H_2)/2. The step returns exp(-i dt Hbar) e^{+iK_n} v, which is
    e^{+iK_n} times the step e^{-iK_n} exp(-i dt Hbar) e^{+iK_n} v: the
    twist stays on until the next step's turn or the plan's back unwinds
    it. Conjugating exp(-i dt Hbar) by e^{-iK} adds -dt [K, Hbar] =
    (sqrt(3)/12) dt^2 [H_1, H_2] to its exponent, which makes it the
    classical fourth-order Magnus exponent up to O(dt K^2) = O(dt^5).
    """
    turn = next(ops)
    return _expmv(next(ops), turn(w))


def _rk4_step(ops, v: np.ndarray) -> np.ndarray:
    """One classical RK4 step, its slopes -i A x taken from the prescaled
    operators A = dt H at the step's nodes."""
    def slope(op, x):
        np.copyto(op.rows[0], x)
        op.power(1)
        return -1j * op.rows[1]

    k1 = slope(next(ops), v)
    op = next(ops)
    k2 = slope(op, v + 0.5 * k1)
    k3 = slope(op, v + 0.5 * k2)
    k4 = slope(next(ops), v + k3)
    return v + (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0


def _sample_grid(t_end: float, dt: float, n_samples: int):
    """Uniform sample times plus the substep count inside each interval."""
    times = np.linspace(0.0, t_end, n_samples + 1)
    span = t_end / n_samples
    n_sub = max(1, math.ceil(span / dt - 1e-9))
    return times, n_sub


def _run(h: HamiltonianProvider, v0: np.ndarray, times: np.ndarray,
         n_sub: int, method: str, norm_gate: bool) -> list[np.ndarray]:
    """States at every sample time, n_sub steps per sample interval.

    Every step takes dt = times[-1] / (n_sub (len(times) - 1)), the k-th
    of an interval starting at times[i] + k dt. model._mixer plans the
    propagation once, from the parity sectors v0 occupies, and reads the
    step schedule, node times then the operators' modulation
    coefficients, _PLAN_CHUNK steps at a time as the propagation reaches
    them. The state stays twisted between steps; the plan's back unwinds
    it where a sample leaves. A Taylor series that does not converge
    raises PropagationAccuracyError naming its step and the time the step
    starts at.
    """
    fracs, weights = _SCHEMES[method]
    steps = (len(times) - 1) * n_sub
    dt = float(times[-1]) / steps

    def node_chunks():
        for k in range(0, steps, _PLAN_CHUNK):
            i, j = np.divmod(np.arange(k, min(k + _PLAN_CHUNK, steps)), n_sub)
            starts = times[i] + j * dt
            yield starts[:, None] + np.multiply(dt, fracs)

    v0 = np.asarray(v0, dtype=complex)
    ops, into, back = _mixer(h, float(times[-1]), v0, node_chunks(), np.array(weights), dt,
                             _expmv, _STOP)
    step = _m4_step if method == "piecewise-exponential" else _rk4_step
    v = into(v0)
    out = [back(v)]
    for i in range(len(times) - 1):
        for j in range(n_sub):
            try:
                v = step(ops, v)
            except PropagationAccuracyError as exc:
                n, t = i * n_sub + j + 1, float(times[i] + j * dt)
                raise PropagationAccuracyError(f"{exc} (step {n}, t = {t:g})",
                                               step=n, time=t) from None
        if norm_gate:
            drift = abs(np.linalg.norm(v) - 1.0)
            if drift > NORM_TOL:
                raise PropagationAccuracyError(
                    f"norm drifted by {drift:.3e} (budget {NORM_TOL:g}) at "
                    f"sample {i + 1}, t = {times[i + 1]:g}",
                    step=i + 1, time=float(times[i + 1]),
                )
        out.append(back(v))
    return out


def evolve(h: HamiltonianProvider, psi0: Ket, t_end: float,
           cfg: EvolutionConfig, n_samples: int = 100) -> Trajectory:
    """Integrate the Schrodinger equation from psi0 to t_end.

    h maps a time to a Hermitian ndarray; providers from hamiltonian_fn
    carry their own frequency scale, which sets the default step. The
    trajectory is sampled at n_samples uniform intervals (plus t=0), and
    the norm is checked at every sample; drift beyond 1e-6 raises
    PropagationAccuracyError naming the offending sample.
    """
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be >= 0, got {t_end}")
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    layout = getattr(h, "layout", psi0.layout)
    if layout != psi0.layout:
        raise ValueError("provider layout does not match the initial state")
    if abs(psi0.norm() - 1.0) > NORM_TOL:
        raise ValueError("initial state must be normalized")
    if t_end == 0.0:
        times = np.zeros(1)
        return Trajectory(times, (psi0,), np.array([psi0.norm()]))
    dt = cfg.resolve_dt(getattr(h, "omega_max", None))
    times, n_sub = _sample_grid(t_end, dt, n_samples)
    vecs = _run(h, psi0.vec, times, n_sub, cfg.method, norm_gate=True)
    states = tuple(Ket(layout, v) for v in vecs)
    norms = np.array([s.norm() for s in states])
    return Trajectory(times, states, norms)


def evolve_columns(h: HamiltonianProvider, v0: np.ndarray, t_end: float,
                   cfg: EvolutionConfig) -> np.ndarray:
    """Propagate a (dim, k) block of columns (or one vector) to t_end.

    This is how the gate and cat experiments propagate the subspace they
    need without paying for the full propagator. No samples are
    kept; instead the overlaps of the columns must be preserved, and a
    drift of max |C^dag C - V0^dag V0| beyond 1e-6 raises
    PropagationAccuracyError naming t_end.
    """
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError(f"t_end must be >= 0, got {t_end}")
    if t_end == 0.0:
        return v0.astype(complex, copy=True)
    dt = cfg.resolve_dt(getattr(h, "omega_max", None))
    times, n_sub = _sample_grid(t_end, dt, 1)
    out = _run(h, v0, times, n_sub, cfg.method, norm_gate=False)[-1]
    c, c0 = out.reshape(len(out), -1), v0.reshape(len(v0), -1)
    drift = float(np.max(np.abs(c.conj().T @ c - c0.conj().T @ c0)))
    if drift > NORM_TOL:
        raise PropagationAccuracyError(
            f"column overlaps drifted by {drift:.3e} (budget {NORM_TOL:g}) "
            f"at t = {t_end:g}", time=float(t_end),
        )
    return out


def propagator(h: HamiltonianProvider, t_end: float, cfg: EvolutionConfig,
               layout: HilbertLayout | None = None) -> Operator:
    """Full time-ordered propagator at t_end as an Operator.

    Checked unitary within 1e-7 before returning; a coarse RK4 run that
    has drifted fails here rather than feeding silent garbage downstream.
    """
    layout = layout or getattr(h, "layout", None)
    if layout is None:
        raise ValueError("layout is required for providers without one attached")
    u = evolve_columns(h, np.eye(layout.dim, dtype=complex), t_end, cfg)
    err = np.max(np.abs(u.conj().T @ u - np.eye(layout.dim)))
    if err > _UNITARITY_TOL:
        raise PropagationAccuracyError(
            f"propagator lost unitarity: max |U^dag U - I| = {err:.3e} "
            f"(budget {_UNITARITY_TOL:g})"
        )
    return Operator(layout, u)


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

    h_lab = hamiltonian_fn(params, drive, "lab-driven", layout)
    times, n_sub = _sample_grid(t_end, cfg.resolve_dt(h_lab.omega_max), n_samples)
    eff = _effective_states(params, drive, psi0, times)
    lab = np.array(_run(h_lab, psi0.vec, times, n_sub, cfg.method, norm_gate=True))
    # <U^dag lab | eff> = <lab | U eff>, U the frame transform
    eff *= frame_phases(times, params, drive, layout)
    fids = np.abs(np.einsum("ti,ti->t", lab.conj(), eff)) ** 2
    return FidelityTrace(times, fids, params.omega_r)


def _write_csv(path, comments: Sequence[str], header: str, rows) -> None:
    """Comment lines (each behind '# '), a column header, then the rows
    with every cell at 12 significant digits, formatted by one %.

    A column whose every cell is an integer of magnitude below 1e12 is
    formatted by %d, which writes it as %.12g does, at less cost.
    """
    rows = list(rows)
    width = header.count(",") + 1
    cells = tuple(itertools.chain.from_iterable(rows))
    fmt = ",".join("%d" if _small_ints(cells[i::width]) else "%.12g"
                   for i in range(width)) + "\n"
    text = "".join([f"# {line}\n" for line in comments] + [header + "\n"]) \
        + fmt * len(rows) % cells
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _small_ints(cells: tuple) -> bool:
    """True if cells is not empty and every cell is an int (or a NumPy
    integer) with |n| < 1e12; the first cell's type decides a float
    column at once."""
    return bool(cells) and isinstance(cells[0], (int, np.integer)) \
        and all(issubclass(t, (int, np.integer)) for t in set(map(type, cells))) \
        and -_INT_LIMIT < min(cells) and max(cells) < _INT_LIMIT


def write_trace_csv(trace: FidelityTrace, path, comments: Sequence[str] = ()) -> None:
    """Write a trace as `t_over_Tr,fidelity` rows, 12 significant digits.

    Comment lines (without the leading '#') go above the header.
    """
    _write_csv(path, comments, "t_over_Tr,fidelity",
               zip(trace.t_over_period, trace.fidelities))
