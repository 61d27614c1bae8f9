"""Time-dependent Schrodinger propagation and effective-vs-exact traces.

The workhorse is the fourth-order commutator-free Magnus stepper CF4:2
(Blanes & Moan, Appl. Numer. Math. 56, 1519 (2006); used for
time-dependent quantum problems by Alvermann & Fehske, J. Comput. Phys.
230, 5930 (2011)). Each step samples the generator at the two Gauss points
t + (1/2 -+ sqrt(3)/6) dt and applies two exponentials,

    exp(-i dt (a1 H_1 + a2 H_2)) exp(-i dt (a2 H_1 + a1 H_2)),
    a1, a2 = (3 -+ 2 sqrt(3)) / 12,

the one weighted toward the earlier point first. Each exponential acts
through an adaptive Taylor product, which never leaves the unit sphere
beyond roundoff; so the series stops once a term's squared norm falls
below 1e-32 of the input's, taken once per exponential. Providers that
carry a coefficient form (see model.hamiltonian_fn) are evaluated as a
dense H(t) once per propagation, to check that form. model._mixer
premixes their static part once per weight sum (1/2 for both CF4
exponents), so each exponent writes only a new diagonal from two scalar
coefficients, and each Taylor term is an apply into buffers the
exponent's operator owns. A one-qubit generator becomes one tridiagonal
matrix along its parity chains and a two-qubit one two real parity
blocks, so the state is permuted into that order for the whole
propagation and every kept sample is permuted back. The effective
conditional-displacement model is never propagated: fidelity_trace builds
its states in closed form from coherent amplitudes. A classical RK4 stepper
is kept as an independent cross-check, at its own finer default step; it
is not norm-preserving, which is exactly why it makes a useful
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

# CF4 steps per shortest Hamiltonian period. Final-state error of the
# k = 6 cat experiment at Fock 128 against a 400-step run:
#     50 -> 8.0e-9, 64 -> 3.0e-9, 80 -> 1.2e-9, 100 -> 5.0e-10,
# a slope of 4; the work grows in proportion to the step count. 64 keeps
# the default step under the ceiling (50 per period) and criterion 8's
# step-halving distance at 3.4e-10, bound 1e-6.
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


# CF4:2 Gauss nodes and exponent weights.
_CF4_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_CF4_WEIGHTS = ((3.0 - 2.0 * math.sqrt(3.0)) / 12.0,
                (3.0 + 2.0 * math.sqrt(3.0)) / 12.0)


def _expmv(apply, dt: float, v: np.ndarray) -> np.ndarray:
    """exp(-i h dt) @ v by the Taylor product, apply(x, scale) = scale * h @ x.

    The series stops at the first term with ||term||^2 <= 1e-32 ||v||^2,
    a relative 1e-16 tail; ||v||^2 is taken once, since the Taylor
    product is unitary to roundoff. A term is held only until the apply
    has made the next one from it, as model._mixer's buffer rule allows.
    Converges for any dt but is only accurate (and cheap) for dt * ||h||
    of order one or below, which the step ceiling guarantees.
    """
    out = v.astype(complex, copy=True)
    term = out
    tol = _TAYLOR_RTOL ** 2 * np.vdot(out, out).real
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


def _make_step(h: HamiltonianProvider, method: str, t_check: float):
    """(step, into, back): one step in the propagation basis of _mixer."""
    mix, into, back = _mixer(h, t_check)
    if method == "piecewise-exponential":
        (c1, c2), (a1, a2) = _CF4_NODES, _CF4_WEIGHTS

        def step(t: float, dt: float, v: np.ndarray) -> np.ndarray:
            ts = (t + c1 * dt, t + c2 * dt)
            v = _expmv(mix(ts, (a2, a1)), dt, v)
            return _expmv(mix(ts, (a1, a2)), dt, v)
    else:
        def step(t: float, dt: float, v: np.ndarray) -> np.ndarray:
            h0 = mix((t,), (1.0,))
            hm = mix((t + 0.5 * dt,), (1.0,))
            h1 = mix((t + dt,), (1.0,))
            k1 = h0(v, -1j)
            k2 = hm(v + (0.5 * dt) * k1, -1j)
            k3 = hm(v + (0.5 * dt) * k2, -1j)
            k4 = h1(v + dt * k3, -1j)
            return v + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return step, into, back


def _sample_grid(t_end: float, dt: float, n_samples: int):
    """Uniform sample times plus the substep count inside each interval."""
    times = np.linspace(0.0, t_end, n_samples + 1)
    span = t_end / n_samples
    n_sub = max(1, math.ceil(span / dt - 1e-9))
    return times, n_sub


def _run(h: HamiltonianProvider, v0: np.ndarray, times: np.ndarray,
         n_sub: int, method: str, norm_gate: bool) -> list[np.ndarray]:
    step, into, back = _make_step(h, method, float(times[-1]))
    v = into(np.asarray(v0, dtype=complex))
    out = [back(v)]
    for i in range(len(times) - 1):
        t0 = times[i]
        dt = (times[i + 1] - t0) / n_sub
        for j in range(n_sub):
            v = step(t0 + j * dt, dt, v)
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

    This is how the gate experiment gets U(T) restricted to the subspace
    it needs without paying for the full propagator. No samples are
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
    with every cell at 12 significant digits, in one write."""
    fmt = ",".join(["%.12g"] * (header.count(",") + 1)) + "\n"
    text = "".join([f"# {line}\n" for line in comments] + [header + "\n"]
                   + [fmt % tuple(row) for row in rows])
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def write_trace_csv(trace: FidelityTrace, path, comments: Sequence[str] = ()) -> None:
    """Write a trace as `t_over_Tr,fidelity` rows, 12 significant digits.

    Comment lines (without the leading '#') go above the header.
    """
    _write_csv(path, comments, "t_over_Tr,fidelity",
               zip(trace.t_over_period, trace.fidelities))
