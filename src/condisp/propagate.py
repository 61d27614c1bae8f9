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
are elementwise phases. The exponential acts through an adaptive Taylor
product, which never leaves the unit sphere beyond roundoff; so the
series stops once a term's squared norm falls below 1e-32 of the
input's, taken once per exponential (of the smallest member's, for a
stack). model._mixer plans each propagation once, from its initial
state, and reads its step schedule _PLAN_CHUNK steps at a time: node
times, then the modulation sin(omega_d t - phi) at all of them, from
which it forms each step's Hbar and K. Lab providers (model._LabProvider),
whose generator is h0 + sin(omega_d t - phi) D, are never evaluated: they
are propagated from the parts they carry, and only a wrapper that carries
a provider's parts is evaluated, once per propagation (once per
experiment for the cat and the gate, which propagate providers built
from the parts they take), to check them.
Their static part is premixed once, so loading the next Hbar
rewrites only the diagonal of the propagation's one operator, in place,
and each Taylor term is an apply into one of its two buffers. At either
qubit count the generator is a real block per parity sector; the
propagation carries only the blocks the initial state occupies (the
parity keeps the rest at zero) and applies them as three bands where
they are tridiagonal (one qubit's parity chains), else by one batched
real matmul (two qubits). A stack of lab parts (model._stack) lays
their parity sectors end to end, so the same kernels propagate all its
members at once, one apply per Taylor term. Both experiments meet in
the middle by one identity: the lab generator is real and symmetric and
each step is symmetric in its nodes, so a propagation over [0, t] under
the time mirror H(t - tau) (model._mirrored) is the transpose of the
one under H. The cat experiment stacks its parts with their mirror and
so takes two of its steps per propagation; the gate propagates its four
columns over half the period under the drive, which is its own mirror
at the gate presets, or under the stack of the drive and its mirror. The
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
# Steps whose node times and coefficients a propagation forms at once, so
# that planning memory does not grow with the step count.
_PLAN_CHUNK = 4096
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


def _expmv(apply, dt: float, v: np.ndarray) -> np.ndarray:
    """exp(-i h dt) @ v by the Taylor product, apply(x, scale) = scale * h @ x.

    The series stops at the first term with ||term||^2 <= 1e-32 ||v||^2,
    a relative 1e-16 tail; ||v||^2 is taken once, since the Taylor
    product is unitary to roundoff. When v holds several stack members
    (apply.members, the offsets at which each begins in the float64 view
    of v, see model._mixer), ||v||^2 is the smallest member's, all of them
    summed by one reduction, so that every member's own term passes its
    own stop, and the series runs at least as far for each member as it
    would for that member alone. A term is held only until the apply has
    made the next one from it, as model._mixer's buffer rule allows.
    Converges for any dt but is only accurate (and cheap) for dt * ||h||
    of order one or below, which the step ceiling guarantees.
    """
    out = v.astype(complex, copy=True)
    term = out
    starts = getattr(apply, "members", None)
    if starts is None:
        tol = _TAYLOR_RTOL ** 2 * np.vdot(out, out).real
    else:
        w = out.view(np.float64).ravel()
        tol = _TAYLOR_RTOL ** 2 * min(np.add.reduceat(w * w, starts).tolist())
    scale = -1j * dt
    for k in range(1, _TAYLOR_MAX_TERMS + 1):
        term = apply(term, scale / k)
        out += term
        if np.vdot(term, term).real <= tol:
            return out
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


def _m4_step(ops, dt: float, v: np.ndarray) -> np.ndarray:
    """One fourth-order Magnus step, e^{-iK} exp(-i dt Hbar) e^{+iK} v.

    The first load is the twist's turn(x, t) = exp(-i t K / dt) x, the
    second the mean generator Hbar = (H_1 + H_2)/2, whose load leaves the
    turn valid. Conjugating exp(-i dt Hbar) by e^{-iK} adds
    -dt [K, Hbar] = (sqrt(3)/12) dt^2 [H_1, H_2] to its exponent, which
    makes it the classical fourth-order Magnus exponent up to O(dt K^2) =
    O(dt^5).
    """
    turn = next(ops)
    v = _expmv(next(ops), dt, turn(v, -dt))
    return turn(v, dt)


def _rk4_step(ops, dt: float, v: np.ndarray) -> np.ndarray:
    """One classical RK4 step. An apply's result is valid only until the
    next apply, so k1..k3 are copied."""
    k1 = next(ops)(v, -1j).copy()
    hm = next(ops)
    k2 = hm(v + (0.5 * dt) * k1, -1j).copy()
    k3 = hm(v + (0.5 * dt) * k2, -1j).copy()
    k4 = next(ops)(v + dt * k3, -1j)
    return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _sample_grid(t_end: float, dt: float, n_samples: int):
    """Uniform sample times plus the substep count inside each interval."""
    times = np.linspace(0.0, t_end, n_samples + 1)
    span = t_end / n_samples
    n_sub = max(1, math.ceil(span / dt - 1e-9))
    return times, n_sub


def _run(h: HamiltonianProvider, v0: np.ndarray, times: np.ndarray,
         n_sub: int, method: str, norm_gate: bool) -> list[np.ndarray]:
    """States at every sample time, n_sub steps per sample interval.

    model._mixer plans the propagation once, from the parity sectors v0
    occupies, and reads the step schedule, node times then the
    operators' modulation coefficients, _PLAN_CHUNK steps at a time as
    the propagation reaches them.
    """
    fracs, weights = _SCHEMES[method]
    dts = np.diff(times) / n_sub
    steps = len(dts) * n_sub

    def node_chunks():
        for k in range(0, steps, _PLAN_CHUNK):
            i, j = np.divmod(np.arange(k, min(k + _PLAN_CHUNK, steps)), n_sub)
            starts = times[i] + j * dts[i]
            yield starts[:, None] + np.multiply.outer(dts[i], fracs)

    v0 = np.asarray(v0, dtype=complex)
    ops, into, back = _mixer(h, float(times[-1]), v0, node_chunks(), np.array(weights),
                             _expmv)
    step = _m4_step if method == "piecewise-exponential" else _rk4_step
    v = into(v0)
    out = [back(v)]
    for i, dt in enumerate(dts):
        for _ in range(n_sub):
            v = step(ops, dt, v)
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
