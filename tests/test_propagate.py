"""Unit tests for the time-evolution engine.

Key oracles:

* a static Hamiltonian has a closed-form phase evolution,
* an uncoupled driven qubit integrates to an exact accumulated phase,
* a driven two-qubit run must agree with the same integrator at 10x finer
  steps (self-convergence against a 10x-refined reference) and with
  SciPy's DOP853 at tight tolerances,
* one Magnus step must match SciPy's expm of the fourth-order Magnus
  exponent to O(dt^5), a propagation must converge at fourth order, and
  each step must take exactly one Taylor exponential,
* the coefficient-form apply must equal the dense H(t) matvec, and the
  band kernel (one qubit's tridiagonal parity chains) and the batched
  matmul (two qubits' parity blocks) must propagate as oracle_helpers'
  dense Magnus stepper does, also when they carry only the parity
  sectors and columns the initial state occupies, and land within 1e-6
  of its dense RK4 stepper at 800 steps per period; the blocks alone
  pick the kernel,
* the propagators take only a lab provider, or a wrapper that carries
  its parts, and refuse any other callable by type,
* forming the step schedule in chunks must change no node time and no
  output bit, though the twist a propagation carries crosses chunk and
  sample boundaries, and the one turn per step must agree with a
  stepper that makes both turns of every step,
* the Taylor series on the power stack must take as many terms as the
  earlier loop and agree with it, also when it folds the stack and on a
  stack of members of unequal norm; an exponential that applies its
  operator's last degree untested must have the bits of one that tests
  every term, where the degree holds, drops, rises or folds, and its
  batched norms the bits of each row's dot product; a loaded operator's
  powers must be the dense ones, and an exponential's result must live
  apart from the rows it reads,
* a propagation on its Fock window must agree within 1e-13 with one on
  the full cutoff, and a window that starts too small must grow before
  it drops anything that oracle_helpers' dense Magnus stepper keeps,
* the closed-form effective states of fidelity_trace must match the exact
  solution of the effective model,
* evolving in the lab frame and rotating afterwards must agree with
  SciPy's DOP853 integration of the rotating-frame Hamiltonian.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

import oracle_helpers
from condisp import DriveParams, HilbertLayout, SystemParams, model, propagate
from condisp.cat import cat_fidelity_experiment
from condisp.gate import gate_columns
from condisp.hilbert import Ket, basis_state
from condisp.model import frame_phases, hamiltonian_fn
from condisp.propagate import (
    DEFAULT_STEPS_PER_PERIOD,
    _effective_states,
    _expmv,
    _mixer,
    EvolutionConfig,
    PropagationAccuracyError,
    evolve,
    evolve_columns,
    fidelity_trace,
    write_trace_csv,
)


def _lab_provider(n_qubits: int, fock_dim: int):
    lay = HilbertLayout(n_qubits, fock_dim)
    alpha = (1.832,) if n_qubits == 1 else (1.20242, -1.20242)
    p = SystemParams(omega_q=3.0, g=0.2, n_qubits=n_qubits)
    return hamiltonian_fn(p, DriveParams.from_alpha(alpha, 3.0), "lab-driven", lay)


def _static_provider(layout: HilbertLayout):
    """The one-qubit lab provider at g = 0 and alpha = 0, whose H = omega_r
    n + (omega_q/2) sigma_z is static and diagonal, and that diagonal,
    built from the ladder and Pauli operators."""
    p = SystemParams(omega_q=3.0, g=0.0, n_qubits=1)
    fn = hamiltonian_fn(p, DriveParams.from_alpha((0.0,), 3.0), "lab-driven", layout)
    a = oracle_helpers.ladder(layout)
    sz = oracle_helpers.pauli_on(0, "z", layout)
    return fn, (a.conj().T @ a).diagonal().real + 1.5 * sz.diagonal().real


def _propagator(fn, t_end: float, cfg: EvolutionConfig) -> np.ndarray:
    """The full propagator of fn at t_end, the columns of the identity,
    checked unitary within 1e-7."""
    u = evolve_columns(fn, np.eye(fn.layout.dim, dtype=complex), t_end, cfg)
    assert np.max(np.abs(u.conj().T @ u - np.eye(fn.layout.dim))) <= 1e-7
    return u


def _skewed(fn, size: float = 0.05):
    """fn with a real antisymmetric band size (superdiagonal - subdiagonal)
    added to each parity block of h0: a non-Hermitian generator, whose
    propagation drifts in norm."""
    m = fn.parts.h0.shape[1]
    skew = size * (np.eye(m, k=1) - np.eye(m, k=-1))
    return replace(fn, parts=replace(fn.parts, h0=fn.parts.h0 + skew))


def _reference(stepper, fn, v0: np.ndarray, t_end: float, cfg: EvolutionConfig,
               n_samples: int = 1) -> list[np.ndarray]:
    """oracle_helpers' dense stepper on evolve's schedule for cfg."""
    times, n_sub = propagate._sample_grid(t_end, cfg.resolve_dt(fn.omega_max), n_samples)
    return stepper(fn, v0, times, n_sub)


def _rk4_distance(fn, psi0: Ket, t_end: float) -> float:
    """Largest |difference| between the final states of evolve at its
    default step and of oracle_helpers' dense RK4 stepper at 800 steps per
    shortest period, each sampled 4 times over [0, t_end]."""
    a = evolve(fn, psi0, t_end, EvolutionConfig(), 4).final.vec
    rk4 = EvolutionConfig(dt=2 * np.pi / fn.omega_max / 800)
    b = _reference(oracle_helpers.reference_rk4, fn, psi0.vec, t_end, rk4, 4)[-1]
    return float(np.max(np.abs(a - b)))


def _plan(fn, v0: np.ndarray, nodes, dt: float = 1.0):
    """(ops, into, back) of propagate._mixer's plan of one propagation of
    v0 under fn's parts: Magnus steps of dt at the given node pairs (t_1,
    t_2)."""
    return _mixer(fn.parts, v0, [np.array(nodes, dtype=float)], dt)[:3]


def _operator(fn, v0: np.ndarray, t: float, dt: float = 1.0):
    """(op, into, back) of a plan of v0 under fn's parts that has loaded
    one operator, dt H(t), from the node pair (t, t), whose turn is
    exactly exp(0) = 1."""
    ops, into, back = _plan(fn, v0, [(t, t)], dt)
    turn, op = next(ops)
    x = into(v0)
    assert np.array_equal(turn(x), x)
    return op, into, back


def _apply(op, x: np.ndarray) -> np.ndarray:
    """A @ x for a loaded operator A: x into row 0 of its stack, one term."""
    np.copyto(op.rows[0], x)
    op.powers(1)
    return op.rows[1]


def _exponential(op, x: np.ndarray) -> tuple[np.ndarray, int, int]:
    """_expmv(op, x), copied, the Taylor degree it combined (the degree the
    operator carries to its next exponential) and the terms its kernel
    applied, which exceed the degree by the rows of a batch past its stop."""
    applies = 0
    powers = op.powers

    def counted(m: int, j: int = 1) -> None:
        nonlocal applies
        applies += max(0, m - j + 1)
        powers(m, j)

    op.powers = counted
    try:
        return _expmv(op, x).copy(), op.degree, applies
    finally:
        op.powers = powers


class TestEvolutionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(dt=-0.1)
        with pytest.raises(ValueError):
            EvolutionConfig(dt=0.0)

    def test_resolve_default_dt(self):
        cfg = EvolutionConfig()
        wmax = 4.0
        dt = cfg.resolve_dt(wmax)
        assert dt == pytest.approx(2 * np.pi / wmax / DEFAULT_STEPS_PER_PERIOD)

    def test_resolve_explicit_dt_within_ceiling(self):
        ceiling = 2 * np.pi / (50 * 4.0)
        cfg = EvolutionConfig(dt=0.9 * ceiling)
        assert cfg.resolve_dt(4.0) == pytest.approx(0.9 * ceiling)

    def test_resolve_rejects_dt_above_ceiling(self):
        ceiling = 2 * np.pi / (50 * 4.0)
        cfg = EvolutionConfig(dt=1.5 * ceiling)
        with pytest.raises(ValueError):
            cfg.resolve_dt(4.0)


class TestCoefficientForm:
    @pytest.mark.parametrize("frame", ["lab-driven"])
    @pytest.mark.parametrize("n_qubits", [1, 2])
    @pytest.mark.parametrize("cols", [None, 4])
    def test_apply_matches_dense_matvec(self, frame, n_qubits, cols):
        lay = HilbertLayout(n_qubits, 10)
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=n_qubits)
        alpha = (1.832,) if n_qubits == 1 else (1.20242, -1.20242)
        d = DriveParams.from_alpha(alpha, 3.0)
        fn = hamiltonian_fn(p, d, frame, lay)
        rng = np.random.default_rng(3)
        shape = (lay.dim,) if cols is None else (lay.dim, cols)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        for t in (0.0, 0.37, 2.9):
            op, into, back = _operator(fn, x, t, dt=0.7)
            got = back(_apply(op, into(x)))
            assert got.shape == x.shape
            assert np.max(np.abs(got - 0.7 * fn(t) @ x)) <= 1e-13

    def test_wrapper_that_changes_h_is_refused(self):
        """functools.wraps copies the parts onto a wrapper; a wrapper
        that returns the same H(t) propagates, one that perturbs it raises
        instead of being propagated as the unwrapped provider."""
        lay = HilbertLayout(1, 8)
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
        fn = hamiltonian_fn(p, DriveParams.from_alpha((1.832,), 3.0), "lab-driven", lay)
        psi0 = basis_state(lay, "g", 0)
        same = functools.wraps(fn)(lambda t: fn(t))
        a = evolve(fn, psi0, 1.0, EvolutionConfig(), 2).final.vec
        assert np.array_equal(evolve(same, psi0, 1.0, EvolutionConfig(), 2).final.vec, a)
        shifted = functools.wraps(fn)(lambda t: fn(t) + 0.01 * np.eye(lay.dim))
        with pytest.raises(ValueError, match="coefficient form .* t = 1"):
            evolve(shifted, psi0, 1.0, EvolutionConfig(), 2)

    def test_checked_unwraps_once(self):
        """_checked returns a lab provider as it is and a wrapper as the
        _LabProvider it carries, evaluated once; a bad t_end is refused
        before the wrapper is evaluated."""
        fn = _lab_provider(1, 8)
        calls = []
        wrapper = functools.wraps(fn)(lambda t: calls.append(t) or fn(t))
        assert propagate._checked(fn, 1.0) is fn
        lab = propagate._checked(wrapper, 1.0)
        assert type(lab) is model._LabProvider and calls == [1.0]
        assert (lab.parts, lab.omega_max, lab.layout) == (fn.parts, fn.omega_max, fn.layout)
        for t_end in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="t_end must be >= 0"):
                evolve_columns(wrapper, np.eye(fn.layout.dim)[:, :1], t_end, EvolutionConfig())
        assert calls == [1.0]

    def test_own_provider_is_not_evaluated(self, monkeypatch):
        """A provider that hamiltonian_fn made assembles H(t) from its own
        parts, so propagating it assembles no dense H(t); a wrapper is
        evaluated and checked once per propagation."""
        calls = []
        assemble = model._assemble_parts

        def spy(cs, parts):
            calls.append(cs)
            return assemble(cs, parts)

        monkeypatch.setattr(model, "_assemble_parts", spy)
        fn = _lab_provider(2, 6)
        psi0 = basis_state(fn.layout, "gg", 0)
        evolve(fn, psi0, 1.0, EvolutionConfig(), 2)
        evolve_columns(fn, np.eye(fn.layout.dim)[:, :4], 1.0, EvolutionConfig())
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
        cat_fidelity_experiment(p, DriveParams.from_alpha((1.832,), 3.0), 1,
                                EvolutionConfig(), HilbertLayout(1, 16))
        assert not calls
        evolve(functools.wraps(fn)(lambda t: fn(t)), psi0, 1.0, EvolutionConfig(), 2)
        assert len(calls) == 2  # the wrapper's H(t) and the parts it must equal

    @staticmethod
    def _other(fn):
        p = SystemParams(omega_q=3.0, g=0.3, n_qubits=1)
        return hamiltonian_fn(p, DriveParams.from_alpha((1.832,), 3.0), "lab-driven",
                              fn.layout)

    def test_provider_with_other_parts_is_refused(self):
        """A plain function carrying another provider's parts is not what
        its H(t) assembles, so the parts are checked, and refused."""
        fn = _lab_provider(1, 8)

        def h(t: float) -> np.ndarray:
            return fn(t)

        h.parts, h.layout, h.omega_max = self._other(fn).parts, fn.layout, fn.omega_max
        with pytest.raises(ValueError, match="coefficient form .* t = 1"):
            evolve(h, basis_state(fn.layout, "g", 0), 1.0, EvolutionConfig(), 2)

    def test_provider_with_replaced_parts_is_the_other_provider(self):
        """A lab provider's H(t) is its parts', so one given another
        provider's parts propagates exactly as that provider."""
        fn = _lab_provider(1, 8)
        other = self._other(fn)
        psi0 = basis_state(fn.layout, "g", 0)
        got = evolve(replace(fn, parts=other.parts), psi0, 1.0, EvolutionConfig(), 2)
        want = evolve(other, psi0, 1.0, EvolutionConfig(), 2)
        mine = evolve(fn, psi0, 1.0, EvolutionConfig(), 2)
        assert np.max(np.abs(got.final.vec - mine.final.vec)) > 1e-3
        for x, y in zip(got.states, want.states):
            assert np.array_equal(x.vec, y.vec)

    @pytest.mark.parametrize("entry", ["evolve", "evolve_columns", "propagator"])
    @pytest.mark.parametrize("kind", ["plain", "rotating", "effective"])
    def test_other_providers_are_refused(self, kind, entry):
        """Only a lab provider, or a wrapper that carries its parts, is
        propagated: a plain function of the lab, rotating-frame or
        effective H(t) is refused by one ValueError that names its type."""
        lab = _lab_provider(1, 8)
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
        d = DriveParams.from_alpha((1.832,), 3.0)
        fn = {"plain": lambda t: lab(t),
              "rotating": lambda t: model.rotating_frame_hamiltonian(p, d, t, lab.layout).mat,
              "effective": lambda t: model.effective_hamiltonian(p, d, t, lab.layout).mat,
              }[kind]
        psi0 = basis_state(lab.layout, "g", 0)
        run = {"evolve": lambda: evolve(fn, psi0, 1.0, EvolutionConfig(), 2),
               "evolve_columns": lambda: evolve_columns(fn, psi0.vec, 1.0, EvolutionConfig()),
               "propagator": lambda: evolve_columns(fn, np.eye(lab.layout.dim), 1.0,
                                                    EvolutionConfig())}[entry]
        with pytest.raises(ValueError, match="lab-driven provider .* not a function$"):
            run()


class TestChainPath:
    """One-qubit providers propagate along their parity chains, as
    oracle_helpers' dense Magnus stepper does."""

    @staticmethod
    def _provider():
        return _lab_provider(1, 12)

    @pytest.mark.parametrize("frame", ["lab-driven"])
    def test_evolve_matches_dense_fallback(self, frame):
        fn = self._provider()
        cfg = EvolutionConfig()
        psi0 = basis_state(fn.layout, "g", 1)
        a = evolve(fn, psi0, 2.0, cfg, n_samples=5)
        ref = _reference(oracle_helpers.reference_m4, fn, psi0.vec, 2.0, cfg, 5)
        assert len(a.states) == len(ref) == 6
        for x, y in zip(a.states, ref):
            assert np.max(np.abs(x.vec - y)) <= 1e-12

    @pytest.mark.parametrize("frame", ["lab-driven"])
    def test_columns_and_propagator_match_dense_fallback(self, frame):
        fn = self._provider()
        cfg = EvolutionConfig()
        eye = np.eye(fn.layout.dim, dtype=complex)
        u_ref = _reference(oracle_helpers.reference_m4, fn, eye, 1.7, cfg)[-1]
        cols = evolve_columns(fn, eye[:, [0, 5, 13]], 1.7, cfg)
        assert np.max(np.abs(cols - u_ref[:, [0, 5, 13]])) <= 1e-12
        u = _propagator(fn, 1.7, cfg)
        assert np.max(np.abs(u - u_ref)) <= 1e-12

    def test_rk4_matches_magnus(self):
        fn = self._provider()
        assert _rk4_distance(fn, basis_state(fn.layout, "g", 0), 2 * np.pi) <= 1e-6


class TestParityBlockPath:
    """The two-qubit lab provider propagates as two real parity blocks, as
    oracle_helpers' dense Magnus stepper does."""

    @staticmethod
    def _provider():
        lay = HilbertLayout(2, 6)
        p = SystemParams(omega_q=3.0, g=0.5)
        return hamiltonian_fn(p, DriveParams.from_alpha((1.20242, -1.20242), 3.0),
                              "lab-driven", lay)

    def test_evolve_columns_and_propagator_match_dense_fallback(self):
        fn = self._provider()
        cfg = EvolutionConfig()
        psi0 = basis_state(fn.layout, "gg", 1)
        a = evolve(fn, psi0, 2.0, cfg, n_samples=5)
        ref = _reference(oracle_helpers.reference_m4, fn, psi0.vec, 2.0, cfg, 5)
        assert len(a.states) == len(ref) == 6
        for x, y in zip(a.states, ref):
            assert np.max(np.abs(x.vec - y)) <= 1e-12
        # a column block in Fortran order
        eye = np.eye(fn.layout.dim, dtype=complex)
        u_ref = _reference(oracle_helpers.reference_m4, fn, eye, 1.7, cfg)[-1]
        v0 = np.asfortranarray(eye[:, [0, 6, 13, 19]])
        cols = evolve_columns(fn, v0, 1.7, cfg)
        assert np.max(np.abs(cols - u_ref[:, [0, 6, 13, 19]])) <= 1e-12
        u = _propagator(fn, 1.7, cfg)
        assert np.max(np.abs(u - u_ref)) <= 1e-12

    def test_rk4_matches_magnus(self):
        fn = self._provider()
        assert _rk4_distance(fn, basis_state(fn.layout, "gg", 0), 2 * np.pi) <= 1e-6


class TestTaylorLoop:
    """_expmv against the earlier loop of oracle_helpers: the same number of
    terms and results within 1e-13, on every exponential of small cat-,
    gate- and trace-like propagations, also with a three-row power stack,
    which every exponential of three or more terms folds; on one
    exponential that folds the full stack; and on a two-member stack
    whose members' norms differ by 1e3, against the earlier loop's stop
    on the smaller member. An exponential applies the degree its
    operator's last one took without a test and checks those rows by one
    batched norm, which must give each row the bits of its own dot
    product; the result must have the bits of an exponential that tests
    every term, on every exponential of those propagations and where the
    degree drops, rises, or folds after the batch, and the powers applied
    past the combined degree must stay under 1 % of the terms."""

    @staticmethod
    def _propagate(workload: str) -> None:
        cfg = EvolutionConfig()
        if workload == "cat":
            p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
            d = DriveParams.from_alpha((1.832,), 3.0)
            cat_fidelity_experiment(p, d, 1, cfg, HilbertLayout(1, 16))
            return
        p = SystemParams(omega_q=3.0, g=0.2 if workload == "gate" else 0.5)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        lay = HilbertLayout(2, 8)
        if workload == "gate":
            gate_columns(p, d, cfg, lay)
        else:
            fidelity_trace(p, d, basis_state(lay, "gg", 0), 0.2 * np.pi, cfg)

    @staticmethod
    def _against_reference(op, x: np.ndarray, members=None):
        """(degree, the reference's terms, largest difference, powers
        applied) of one exponential, and its result, which must have the
        bits of the same operator's with no degree carried; the batched
        squared norms of the rows it wrote must have their dot products'
        bits."""
        x0, carried = np.array(x), op.degree  # a fold rewrites row 0, where x may live
        op.degree = 0
        each, each_degree, each_applies = _exponential(op, x0)
        assert each_applies == each_degree
        op.degree = carried
        got, degree, applies = _exponential(op, x0)
        assert degree == each_degree and np.array_equal(got, each)
        rows = min(applies, len(op.rows) - 1) + 1
        lhs, rhs, out, batched = op.norms[rows - 1]
        np.matmul(lhs, rhs, out)
        assert np.array_equal(batched, [f @ f for f in op.flat[1:rows]])
        ref, ref_terms = oracle_helpers.reference_expmv(lambda y: _apply(op, y).copy(),
                                                        x0, members)
        return (degree, ref_terms, float(np.max(np.abs(got - ref))), applies), got

    def _spied(self, workload: str, monkeypatch) -> list:
        seen = []

        def spy(op, x):
            result, got = self._against_reference(op, x)
            seen.append(result)
            return got

        monkeypatch.setattr(propagate, "_expmv", spy)
        self._propagate(workload)
        assert len(seen) >= 40
        assert [n for n, *_ in seen] == [n for _, n, *_ in seen]
        assert max(err for _, _, err, _ in seen) <= 1e-13
        return seen

    @pytest.mark.parametrize("workload", ["cat", "gate", "trace"])
    def test_same_terms_as_reference_loop(self, workload, monkeypatch):
        seen = self._spied(workload, monkeypatch)
        terms, applies = (sum(r[i] for r in seen) for i in (0, 3))
        assert applies - terms < 0.01 * terms

    @pytest.mark.parametrize("workload", ["cat", "gate", "trace"])
    def test_three_row_stack_folds(self, workload, monkeypatch):
        monkeypatch.setattr(propagate, "_STOP", propagate._STOP[:3])
        assert max(n for n, *_ in self._spied(workload, monkeypatch)) > 6

    def test_fold_of_the_full_stack(self):
        """At a step far above the ceiling an exponential takes more terms
        than the stack has rows, so it folds the stack, twice."""
        fn = _lab_provider(1, 16)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(fn.layout.dim) + 1j * rng.standard_normal(fn.layout.dim)
        x /= np.linalg.norm(x)
        op, into, back = _operator(fn, x, 0.3, dt=0.4)
        (terms, ref_terms, err, _), _ = self._against_reference(op, into(x))
        assert terms == ref_terms > 2 * (len(op.rows) - 1)
        assert err <= 1e-13

    @pytest.mark.parametrize("case", ["drop", "rise", "fold"])
    def test_carried_degree(self, case, monkeypatch):
        """Two exponentials of one operator, on x and 1e-3 x (the degree
        drops), on 1e-3 x and x (it rises), or both on x with a three-row
        stack (the batch fails and the stack folds): the second has the
        bits of a fresh operator's, and agrees with the reference (whose
        stop, relative to its own partial sum, takes more terms on 1e-3 x
        than the stop relative to the propagation's initial state)."""
        if case == "fold":
            monkeypatch.setattr(propagate, "_STOP", propagate._STOP[:3])
        fn = _lab_provider(1, 16)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(fn.layout.dim) + 1j * rng.standard_normal(fn.layout.dim)
        x /= np.linalg.norm(x)
        first, second = {"drop": (x, 1e-3 * x), "rise": (1e-3 * x, x), "fold": (x, x)}[case]
        dt = 2 * np.pi / (50 * fn.omega_max)
        op, into, _ = _operator(fn, x, 0.3, dt)
        carried = _exponential(op, into(first))[1]
        (terms, ref_terms, err, applies), got = self._against_reference(op, into(second))
        fresh, into, _ = _operator(fn, x, 0.3, dt)
        assert np.array_equal(got, _exponential(fresh, into(second))[0])
        assert err <= 1e-13
        if case == "drop":
            assert applies == carried > terms
        elif case == "rise":
            assert applies == terms > carried
        else:
            assert applies == terms == ref_terms == carried > len(op.rows) - 1

    def test_two_members_stop_on_the_smaller(self):
        """A unit member next to one of norm 1e-3, at four times the step
        ceiling: the series runs until the smaller member's own terms pass
        its stop, two terms past the earlier loop's stop on the whole
        stack, on a fresh operator and again on its batch."""
        fn = _lab_provider(1, 8)
        pair = model._LabProvider(model._stack([fn.parts, fn.parts]), fn.omega_max)
        v0 = np.concatenate([basis_state(fn.layout, "g", 0).vec,
                             1e-3 * basis_state(fn.layout, "e", 7).vec])
        dt = 4 * 2 * np.pi / (50 * fn.omega_max)
        op, into, back = _operator(pair, v0, 0.3, dt)
        x = into(v0)
        assert x.shape == (2, 8, 1)  # one chain of each member
        whole = oracle_helpers.reference_expmv(lambda y: _apply(op, y).copy(), x)[1]
        for _ in range(2):
            (terms, ref_terms, err, applies), _ = self._against_reference(
                op, x, members=[slice(0, 8), slice(8, 16)])
            assert applies == terms == ref_terms >= whole + 2
            assert err <= 1e-13

    def test_nonconvergence_raises(self):
        fn = _lab_provider(1, 8)
        v0 = basis_state(fn.layout, "g", 3).vec
        op, into, _ = _operator(fn, v0, 0.0, dt=20.0)
        with pytest.raises(PropagationAccuracyError, match="did not converge in 200 terms"):
            _expmv(op, into(v0))

    def test_nonconvergence_names_step_and_time(self):
        """A provider scaled far past its stated omega_max, H(t) = 320 (1 +
        sin(t/2 - phi)) D, D = diag(+-1), whose mean generator is least at
        t = 1.25 and grows about quadratically away from it: dt |Hbar| is
        at most 20 on the steps of the first sample interval, whose norm
        gate passes, and 74 at step 7, which starts at t = 3, the second
        step of the second sample interval, past what 200 Taylor terms
        sum."""
        fn = _lab_provider(1, 4)
        d = 320.0 * np.sign(fn.parts.diag)
        h = replace(fn, omega_max=1e-3, parts=replace(
            fn.parts, h0=np.stack([np.diag(x) for x in d]), diag=d, omega_d=0.5,
            phi=np.full(2, 0.5 * 1.25 + np.pi / 2)))
        psi0 = basis_state(fn.layout, "g", 0)
        with pytest.raises(PropagationAccuracyError,
                           match=r"did not converge .* \(step 7, t = 3\)") as exc:
            evolve(h, psi0, 5.0, EvolutionConfig(dt=0.5), n_samples=2)
        assert (exc.value.step, exc.value.time) == (7, 3.0)


class TestBufferedApply:
    """A loaded operator owns its power stack: term j writes A p_{j-1}
    into row j, A = dt (H(t_1) + H(t_2))/2 prescaled by the step; an
    exponential's result lives apart from the rows, and a foreign input
    is never written."""

    @staticmethod
    def _setup(n_qubits: int, layout: str, nodes, dt: float):
        fn = _lab_provider(n_qubits, 8)
        rng = np.random.default_rng(11)
        shape = (fn.layout.dim,) if layout == "vector" else (fn.layout.dim, 4)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if layout == "F":
            x = np.asfortranarray(x)
        ops, into, _ = _plan(fn, x, nodes, dt)
        # the plan's back would unwind the twist of the steps' turns
        unpack = propagate._packing(fn.parts, x, fn.parts.h0.shape[1])[3]
        return fn, ops, into, unpack, x

    @pytest.mark.parametrize("n_qubits", [1, 2])
    @pytest.mark.parametrize("layout", ["vector", "C", "F"])
    def test_taylor_pattern(self, n_qubits, layout):
        ts, dt = (0.1, 0.4), 0.2
        fn, ops, into, unpack, x = self._setup(n_qubits, layout, [ts, (0.9, 0.2)], dt)
        dense = 0.5 * dt * (fn(ts[0]) + fn(ts[1]))
        _, op = next(ops)
        np.copyto(op.rows[0], into(x))
        for j in range(1, len(op.rows)):
            op.powers(j, j)
            want = dense @ unpack(op.rows[j - 1])
            assert np.max(np.abs(unpack(op.rows[j]) - want)) <= 1e-13 * np.max(np.abs(want))
        result = _expmv(op, into(x))
        assert not any(np.shares_memory(result, row) for row in op.rows)
        foreign = into(x)
        kept = foreign.copy()
        _expmv(op, foreign)
        assert np.array_equal(foreign, kept)
        # the next load rewrites the same operator in place
        _, later = next(ops)
        assert later is op
        dense = 0.5 * dt * (fn(0.9) + fn(0.2))
        assert np.max(np.abs(unpack(_apply(later, into(x))) - dense @ x)) <= 1e-13


class TestBoundKernels:
    """Each kernel binds its Taylor terms' views once: one term,
    powers(j, j), and a batch, powers(m), write exactly the bits of the
    arithmetic they stand for, (d x + up x[i+1]) + lo x[i-1] on the bands
    and np.matmul(blocks, x) on the blocks, and every view bound into a
    term is a view of its stack row."""

    @staticmethod
    def _kernel(kind: str, n_qubits: int):
        """(op, the term's arithmetic on a packed row) of a kernel on the
        premixed blocks dt h0 of a lab provider (their three bands, for
        the band kernel), with three columns per sector."""
        fn = _lab_provider(n_qubits, 8)
        blocks = (2 * np.pi / (64 * fn.omega_max)) * fn.parts.h0
        sectors, m = blocks.shape[:2]
        shape, bounds = (sectors, m, 3), list(propagate._STOP)
        if kind == "block":
            return (propagate._block_operator(blocks, shape, bounds),
                    lambda x: np.matmul(blocks, x.view(np.float64)).view(complex))
        bands = np.zeros((2, sectors, m), dtype=complex)
        bands[0, :, :-1] = np.diagonal(blocks, 1, 1, 2)
        bands[1, :, 1:] = np.diagonal(blocks, -1, 1, 2)
        up, lo = bands.reshape(2, -1, 1)
        d = np.diagonal(blocks, 0, 1, 2).reshape(-1, 1) + 0.01j
        op = propagate._band_operator(up, lo, shape, bounds)
        op.load(d)

        def band(x):
            x = np.concatenate([np.zeros((1, 3)), x.reshape(-1, 3), np.zeros((1, 3))])
            return ((d * x[1:-1] + up * x[2:]) + lo * x[:-2]).reshape(shape)
        return op, band

    @pytest.mark.parametrize("n_qubits", [1, 2])
    @pytest.mark.parametrize("kind", ["band", "block"])
    def test_terms_keep_their_bits(self, kind, n_qubits):
        op, term = self._kernel(kind, n_qubits)
        rng = np.random.default_rng(13)
        x = rng.standard_normal(op.rows[0].shape) + 1j * rng.standard_normal(op.rows[0].shape)
        np.copyto(op.rows[0], x)
        op.powers(len(op.rows) - 1)
        batch = [r.copy() for r in op.rows]
        assert np.max(np.abs(batch[-1])) > 0
        for j in range(1, len(op.rows)):
            assert np.array_equal(batch[j], term(batch[j - 1]))
            op.rows[j][...] = np.nan
            op.powers(j, j)
            assert np.array_equal(op.rows[j], batch[j])

    @pytest.mark.parametrize("n_qubits", [1, 2])
    @pytest.mark.parametrize("kind", ["band", "block"])
    def test_bound_views_share_their_rows(self, kind, n_qubits):
        op, _ = self._kernel(kind, n_qubits)
        assert len(op.terms) == len(op.rows)
        for j, (y, *inputs) in enumerate(op.terms[1:], 1):
            assert np.shares_memory(y, op.stack[j])
            assert all(np.shares_memory(x, op.stack[j - 1]) for x in inputs)


class TestPackedPlan:
    """A propagation carries only the parity sectors its initial state
    occupies, and of a column block only each sector's live columns; it
    must agree with oracle_helpers' dense Magnus stepper, which does not
    pack, and leave the unoccupied sector exactly zero."""

    @staticmethod
    def _packed_shape(fn, v0):
        _, into, _ = _plan(fn, v0, [(0.0, 0.0)])
        return into(v0).shape

    @staticmethod
    def _sector(fn, s: int) -> np.ndarray:
        """Product-basis indices of parity sector s (chain or block)."""
        return fn.parts.order.reshape(2, -1)[s]

    @pytest.mark.parametrize("label", ["g", "e"])
    def test_one_qubit_state_in_one_chain(self, label):
        fn = _lab_provider(1, 8)
        psi0 = basis_state(fn.layout, label, 0)
        live = 0 if label == "g" else 1  # |g,0> starts chain 0, |e,0> chain 1
        assert self._packed_shape(fn, psi0.vec) == (1, 8, 1)
        a = evolve(fn, psi0, 2.0, EvolutionConfig(), n_samples=5)
        ref = _reference(oracle_helpers.reference_m4, fn, psi0.vec, 2.0, EvolutionConfig(), 5)
        for x, y in zip(a.states, ref):
            assert np.max(np.abs(x.vec - y)) <= 1e-12
            assert not np.any(x.vec[self._sector(fn, 1 - live)])
        assert np.max(np.abs(a.final.vec[self._sector(fn, live)])) > 0.1

    def test_two_qubit_vacuum_trace(self):
        """fidelity_trace's packed lab leg against a trace built the same
        way from oracle_helpers' dense Magnus states."""
        fn = _lab_provider(2, 8)
        lay = fn.layout
        psi0 = basis_state(lay, "gg", 0)
        assert self._packed_shape(fn, psi0.vec) == (1, 16, 1)
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        packed = fidelity_trace(p, d, psi0, 0.5 * np.pi, EvolutionConfig(), 20)
        times, n_sub = propagate._sample_grid(
            0.5 * np.pi, EvolutionConfig().resolve_dt(fn.omega_max), 20)
        lab = np.array(oracle_helpers.reference_m4(fn, psi0.vec, times, n_sub))
        eff = _effective_states(p, d, psi0, times) * frame_phases(times, p, d, lay)
        ref = np.abs(np.einsum("ti,ti->t", lab.conj(), eff)) ** 2
        assert np.max(np.abs(packed.fidelities - ref)) <= 1e-12
        traj = evolve(fn, psi0, 1.0, EvolutionConfig(), n_samples=3)
        for state in traj.states:
            assert not np.any(state.vec[self._sector(fn, 1)])

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_superposition_in_both_sectors(self, n_qubits):
        fn = _lab_provider(n_qubits, 8)
        lay = fn.layout
        a_lbl, b_lbl = ("g", "e") if n_qubits == 1 else ("gg", "eg")
        psi0 = Ket(lay, (basis_state(lay, a_lbl, 0).vec
                         + 1j * basis_state(lay, b_lbl, 0).vec) / np.sqrt(2.0))
        assert self._packed_shape(fn, psi0.vec) == (2, lay.dim // 2, 1)
        a = evolve(fn, psi0, 2.0, EvolutionConfig(), n_samples=4)
        ref = _reference(oracle_helpers.reference_m4, fn, psi0.vec, 2.0, EvolutionConfig(), 4)
        for x, y in zip(a.states, ref):
            assert np.max(np.abs(x.vec - y)) <= 1e-12

    def test_columns_with_unequal_live_counts(self):
        """Even parity holds three live columns (|ee,0>, |gg,0> and half of
        a superposition), odd parity two (|eg,0> and the other half)."""
        fn = _lab_provider(2, 8)
        lay = fn.layout
        ket = {q: basis_state(lay, q, 0).vec for q in ("ee", "eg", "gg")}
        v0 = np.stack([ket["ee"], ket["eg"], ket["gg"],
                       (ket["gg"] - ket["eg"]) / np.sqrt(2.0)], axis=1)
        assert self._packed_shape(fn, v0) == (2, lay.dim // 2, 3)
        cfg = EvolutionConfig()
        cols = evolve_columns(fn, v0, 1.3, cfg)
        ref = _reference(oracle_helpers.reference_m4, fn, v0, 1.3, cfg)[-1]
        assert np.max(np.abs(cols - ref)) <= 1e-12
        for j, s in ((0, 1), (1, 0), (2, 1)):  # each basis column stays in its sector
            assert not np.any(cols[self._sector(fn, s), j])

    def test_gate_columns_pack_two_per_block(self):
        fn = _lab_provider(2, 8)
        nf = fn.layout.fock_dim
        v0 = np.zeros((fn.layout.dim, 4), dtype=complex)
        v0[np.arange(4) * nf, np.arange(4)] = 1.0
        assert self._packed_shape(fn, v0) == (2, fn.layout.dim // 2, 2)


class TestKernelChoice:
    """The premixed sector blocks pick the apply kernel: one qubit's
    tridiagonal chains run on three bands, two qubits' blocks on the batched
    real matmul, at the full cutoff and on a shorter Fock window. Each run
    makes the other kernel raise, and then its own."""

    @staticmethod
    def _refuse(*args):
        raise AssertionError("kernel not expected here")

    @pytest.mark.parametrize("n_qubits, kernel, other", [
        (1, "_band_operator", "_block_operator"),
        (2, "_block_operator", "_band_operator"),
    ])
    def test_kernel_follows_the_blocks(self, n_qubits, kernel, other, monkeypatch):
        real = getattr(propagate, kernel)
        for fock_dim in (8, 40):
            fn = _lab_provider(n_qubits, fock_dim)
            psi0 = basis_state(fn.layout, "g" * n_qubits, 0)
            shapes = []
            with monkeypatch.context() as m:
                m.setattr(propagate, other, self._refuse)
                m.setattr(propagate, kernel, lambda *a: shapes.append(a[-2]) or real(*a))
                a = evolve(fn, psi0, 1.0, EvolutionConfig(), 2)
            assert np.max(np.abs(a.final.vec - psi0.vec)) > 0.1
            # the vacuum's first window: its first level and the guard band,
            # rounded up to whole bands, each level a row per sector at one
            # qubit, two at two; all of Fock 8, part of Fock 40
            levels = min(fock_dim, 2 * propagate._GUARD)
            assert shapes[0][1] == levels * 2 ** (n_qubits - 1)
        monkeypatch.setattr(propagate, kernel, self._refuse)
        with pytest.raises(AssertionError, match="kernel not expected"):
            evolve(fn, psi0, 1.0, EvolutionConfig(), 2)


class TestStackedPropagation:
    """A stack of lab providers propagates each member as that member
    propagates alone, in one apply per Taylor term; the mirror H(t - tau)
    propagates the transpose of the propagation over [0, t], and its
    conjugate the adjoint."""

    @staticmethod
    def _provider(n_qubits: int, eta: float, g: float = 0.2, fock_dim: int | None = None,
                  omega_d: float | None = None, phi: float = np.pi / 2):
        lay = HilbertLayout(n_qubits, fock_dim or (8 if n_qubits == 1 else 6))
        alpha = (1.832,) if n_qubits == 1 else (1.20242, -1.20242)
        p = SystemParams(omega_q=eta, g=g, n_qubits=n_qubits)
        d = DriveParams.from_alpha(alpha, omega_d or eta, phi)
        return hamiltonian_fn(p, d, "lab-driven", lay)

    @staticmethod
    def _columns(dim: int, k: int, seed: int) -> np.ndarray:
        rng = np.random.default_rng(seed)
        v = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        return v / np.linalg.norm(v, axis=0)

    @staticmethod
    def _stack(members) -> model._LabProvider:
        return model._LabProvider(model._stack([m.parts for m in members]),
                                  max(m.omega_max for m in members))

    @settings(derandomize=True, deadline=None, max_examples=16)
    @given(n_qubits=st.integers(1, 2), fock_dim=st.integers(4, 10),
           eta=st.floats(2.05, 4.0, exclude_min=True),
           phi=st.floats(0.0, 2 * np.pi, exclude_max=True),
           detuning=st.sampled_from([1.0, 0.9, 1.13]), t=st.floats(0.05, 2 * np.pi))
    def test_mirror_is_the_transpose(self, n_qubits, fock_dim, eta, phi, detuning, t):
        """The identity's propagation under the mirror H(t - tau) is the
        transpose of its propagation under H, at any phi and omega_d. The
        identity holds to roundoff at any step, so the step sits at the
        ceiling."""
        h = self._provider(n_qubits, eta, fock_dim=fock_dim, omega_d=detuning * eta, phi=phi)
        mirror = replace(h, parts=model._mirrored(h.parts, t))
        cfg = EvolutionConfig(dt=2 * np.pi / (50 * h.omega_max))
        eye = np.eye(h.layout.dim, dtype=complex)
        u = evolve_columns(h, eye, t, cfg)
        assert np.max(np.abs(evolve_columns(mirror, eye, t, cfg) - u.T)) <= 1e-12

    @pytest.mark.parametrize("n_qubits, eta", [(1, 2.5), (1, 3.0), (2, 3.3)])
    def test_reversed_round_trip(self, n_qubits, eta):
        """U^dag = conj(U_m), the conjugated mirror propagation, undoes U:
        the backward step the cat experiment takes."""
        h = self._provider(n_qubits, eta)
        mirror = replace(h, parts=model._mirrored(h.parts, np.pi))
        assert mirror.parts.phi[0] != h.parts.phi[0]
        v0 = self._columns(h.layout.dim, 3, 21)
        u = evolve_columns(h, v0, np.pi, EvolutionConfig())
        assert np.max(np.abs(u - v0)) > 0.1
        back = np.conj(evolve_columns(mirror, np.conj(u), np.pi, EvolutionConfig()))
        assert np.max(np.abs(back - v0)) <= 1e-12

    @pytest.mark.parametrize("n_qubits, kernel, other", [
        (1, "_band_operator", "_block_operator"),
        (2, "_block_operator", "_band_operator"),
    ])
    def test_members_propagate_as_alone(self, n_qubits, kernel, other, monkeypatch):
        h = self._provider(n_qubits, 2.5)
        members = [h, replace(h, parts=model._mirrored(h.parts, 1.3)),
                   self._provider(n_qubits, 2.5, g=0.45), h]
        dim = h.layout.dim
        v0 = self._columns(len(members) * dim, 2, 5)
        v0[3 * dim:] = 0.0  # an empty member is left out of the plan, and stays empty
        monkeypatch.setattr(propagate, other, TestKernelChoice._refuse)
        got = evolve_columns(self._stack(members), v0, 1.3, EvolutionConfig())
        assert not np.any(got[3 * dim:])
        for i, member in enumerate(members[:3]):
            part = slice(i * dim, (i + 1) * dim)
            alone = evolve_columns(member, v0[part], 1.3, EvolutionConfig())
            assert np.max(np.abs(got[part] - alone)) <= 1e-12

    def test_taylor_stop_per_member(self):
        """Next to a unit member, a member of norm 1e-3 takes at least as
        many Taylor terms as it takes alone, and gives the same result."""
        h = self._provider(1, 3.0)
        dt = 2 * np.pi / (50 * h.omega_max)
        unit = basis_state(h.layout, "g", 0).vec
        small = 1e-3 * basis_state(h.layout, "e", 7).vec  # more terms than |g,0>

        def exponential(fn, v0):
            op, into, back = _operator(fn, v0, 0.3, dt)
            p, terms, _ = _exponential(op, into(v0))
            return back(p), terms

        (a_unit, n_unit), (a_small, n_small) = (exponential(h, v) for v in (unit, small))
        stacked, n_stacked = exponential(self._stack([h, h]), np.concatenate([unit, small]))
        assert n_unit < n_small <= n_stacked
        dim = h.layout.dim
        assert np.max(np.abs(stacked[:dim] - a_unit)) <= 1e-15
        assert np.max(np.abs(stacked[dim:] - a_small)) <= 1e-18


def _chunk_case(case: str):
    """(provider, v0) of a sampled lab propagation: one qubit, two qubits,
    or the stack of a one-qubit drive and its mirror over [0, 1], with an
    initial state in each of its members."""
    if case == "mirror stack":
        h = _lab_provider(1, 6)
        pair = model._LabProvider(model._stack([h.parts, model._mirrored(h.parts, 1.0)]),
                                  h.omega_max)
        return pair, np.concatenate([basis_state(h.layout, "g", 0).vec,
                                     basis_state(h.layout, "e", 2).vec]) / np.sqrt(2.0)
    n_qubits = 1 if case == "one qubit" else 2
    h = _lab_provider(n_qubits, 6)
    return h, basis_state(h.layout, "g" * n_qubits, 0).vec


class TestPlanChunks:
    """A propagation forms its node times, the diagonals its applies load
    and the phases its turns multiply by propagate._PLAN_CHUNK steps at a
    time; the chunking changes no node time and no output bit, though
    the twist a Magnus propagation carries crosses chunk and sample
    boundaries."""

    @staticmethod
    def _spied(case: str, chunk: int, monkeypatch):
        h, v0 = _chunk_case(case)
        seen = []
        modulation = propagate._modulation

        def spy(parts, t):
            seen.append(np.array(t, dtype=float))
            return modulation(parts, t)

        times, n_sub = propagate._sample_grid(1.0, EvolutionConfig().resolve_dt(h.omega_max), 3)
        with monkeypatch.context() as m:
            m.setattr(propagate, "_modulation", spy)
            m.setattr(propagate, "_PLAN_CHUNK", chunk)
            states = propagate._run(h.parts, v0, times, n_sub)
        # the provider is a _LabProvider, so its H(t) is never formed:
        # every call is a chunk's node times
        assert all(t.ndim for t in seen)
        return np.array(states), seen, times, n_sub

    def _check(self, case: str, monkeypatch) -> None:
        whole, one, times, n_sub = self._spied(case, 10**9, monkeypatch)
        assert len(one) == 1 and n_sub % 7 and n_sub > 7
        for chunk in range(1, 8):
            states, nodes, _, _ = self._spied(case, chunk, monkeypatch)
            assert len(nodes) > 3
            assert all(len(t) <= chunk for t in nodes)
            assert np.array_equal(np.concatenate(nodes), one[0])
            assert np.array_equal(states, whole)
        # elementwise the node times of the schedule laid out whole, every
        # step dt long
        dt = times[-1] / (n_sub * (len(times) - 1))
        starts = times[:-1, None] + np.arange(n_sub) * dt
        ref = starts[..., None] + dt * np.array(propagate._GAUSS_NODES)
        assert np.array_equal(one[0], ref.reshape(one[0].shape))

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_chunks_change_no_bit(self, n_qubits, monkeypatch):
        self._check("one qubit" if n_qubits == 1 else "two qubits", monkeypatch)

    def test_mirror_stack_chunks_change_no_bit(self, monkeypatch):
        self._check("mirror stack", monkeypatch)


class TestMergedTurns:
    """A Magnus propagation of a lab provider makes one turn per step,
    e^{i(K_n - K_{n-1})}, and unwinds e^{-iK} where a sample leaves; it
    agrees with oracle_helpers' dense stepper, which makes both turns of
    every step."""

    @pytest.mark.parametrize("case", ["one qubit", "two qubits", "mirror stack"])
    def test_matches_two_turn_reference(self, case):
        h, v0 = _chunk_case(case)
        times, n_sub = propagate._sample_grid(1.0, EvolutionConfig().resolve_dt(h.omega_max), 3)
        ref = oracle_helpers.reference_m4(h, v0, times, n_sub)
        got = propagate._run(h.parts, v0, times, n_sub)
        assert len(got) == len(ref) == 4
        assert max(np.max(np.abs(a - b)) for a, b in zip(got, ref)) <= 1e-13


def _window_case(case: str):
    """(provider, v0) of a lab propagation at a cutoff above its first Fock
    window, except for the state with amplitude on the top level."""
    h = _lab_provider(2 if case == "two qubits" else 1, 40 if case == "two qubits" else 48)
    ket = functools.partial(basis_state, h.layout)
    if case == "mirror stack":
        pair = model._LabProvider(model._stack([h.parts, model._mirrored(h.parts, 2.0)]),
                                  h.omega_max)
        return pair, np.concatenate([ket("g", 0).vec, ket("e", 2).vec]) / np.sqrt(2.0)
    if case == "empty sector":  # |g,0> and |e,1> share a parity chain
        return h, np.stack([ket("g", 0).vec, ket("e", 1).vec], axis=1)
    if case == "top level":
        return h, (ket("g", 0).vec + 1e-3 * ket("e", 47).vec) / np.sqrt(1.0 + 1e-6)
    return h, ket("g" * h.layout.n_qubits, 0).vec


def _windows(monkeypatch) -> list:
    """The (window rows, full rows) per sector of every plan propagate
    packs from here on."""
    seen = []
    packing = propagate._packing

    def spy(parts, v0, rows):
        seen.append((rows, parts.h0.shape[1]))
        return packing(parts, v0, rows)

    monkeypatch.setattr(propagate, "_packing", spy)
    return seen


class TestFockWindow:
    """A propagation carries only the Fock levels below its window, the
    initial state's occupied levels plus a guard band, and widens it
    before the band holds more than the Taylor stop: its results are the
    full cutoff's within 1e-13, and a window that starts too small grows
    before anything leaks."""

    @pytest.mark.parametrize("n_samples", [1, 9])
    @pytest.mark.parametrize("case", ["one qubit", "two qubits", "mirror stack",
                                      "empty sector", "top level"])
    def test_window_changes_no_result(self, case, n_samples, monkeypatch):
        h, v0 = _window_case(case)
        times, n_sub = propagate._sample_grid(2.0, EvolutionConfig().resolve_dt(h.omega_max),
                                              n_samples)
        seen = _windows(monkeypatch)
        windowed = propagate._run(h.parts, v0, times, n_sub)
        rows, full = seen[0]
        assert (rows == full) == (case == "top level")
        plans = len(seen)
        monkeypatch.setattr(propagate, "_GUARD", 10**6)  # every window is the cutoff
        whole = propagate._run(h.parts, v0, times, n_sub)
        assert [r for r, _ in seen[plans:]] == [full]
        assert len(windowed) == len(whole) == n_samples + 1
        assert max(np.max(np.abs(a - b)) for a, b in zip(windowed, whole)) <= 1e-13

    def test_cat_runs_on_a_window(self, monkeypatch):
        """The k = 6 cat at Fock 128 propagates every step on a window
        shorter than the cutoff."""
        shapes = []
        band = propagate._band_operator
        monkeypatch.setattr(propagate, "_band_operator",
                            lambda *a: shapes.append(a[-2]) or band(*a))
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
        fid = cat_fidelity_experiment(p, DriveParams.from_alpha((1.832,), 3.0), 6,
                                      EvolutionConfig(), HilbertLayout(1, 128))
        assert abs(fid - 0.820056560635) <= 1e-12
        assert len(shapes) >= 3 and all(s[1] < 128 for s in shapes)

    @pytest.mark.parametrize("n_samples", [3, 40])
    def test_grows_before_it_leaks(self, n_samples, monkeypatch):
        """The vacuum under g = 2, displaced over half a period to |beta|^2
        of about 5, outgrows the window it starts on, the first 32 levels:
        a run on that window would drop amplitude above 1e-8, but the run
        grows it, at chunk boundaries inside its sample intervals (3
        samples) or at samples (40), and matches the dense Magnus stepper
        on the full space."""
        lay = HilbertLayout(1, 64)
        h = hamiltonian_fn(SystemParams(omega_q=3.0, g=2.0, n_qubits=1),
                           DriveParams.from_alpha((1.832,), 3.0), "lab-driven", lay)
        v0 = basis_state(lay, "g", 0).vec
        times, n_sub = propagate._sample_grid(np.pi, EvolutionConfig().resolve_dt(h.omega_max),
                                              n_samples)
        assert (n_sub > 3 * propagate._PLAN_CHUNK) == (n_samples == 3)
        seen = _windows(monkeypatch)
        got = propagate._run(h.parts, v0, times, n_sub)
        ref = oracle_helpers.reference_m4(h, v0, times, n_sub)
        assert max(np.max(np.abs(a - b)) for a, b in zip(got, ref)) <= 1e-12
        rows = [r for r, _ in seen]
        assert rows[0] == 2 * propagate._GUARD and rows == sorted(rows) and rows[-1] > rows[0]
        above = np.arange(lay.dim) % lay.fock_dim >= rows[0]
        assert max(np.max(np.abs(x[above])) for x in ref) > 1e-8


class TestEvolveStatic:
    def test_stationary_number_state_phase(self, single_layout):
        """At g = 0 and alpha = 0, H = omega_r n + (omega_q/2) sigma_z:
        |g,1> only picks up exp(-i (omega_r - omega_q/2) t)."""
        fn, energies = _static_provider(single_layout)
        psi0 = basis_state(single_layout, "g", 1)
        t_end = 2.1
        traj = evolve(fn, psi0, t_end, EvolutionConfig(), n_samples=12)
        assert np.max(np.abs(traj.norms - 1.0)) <= 1e-9
        assert energies[single_layout.index("g", 1)] == -0.5
        expected = np.exp(0.5j * t_end) * psi0.vec
        assert np.max(np.abs(traj.final.vec - expected)) <= 1e-9

    def test_zero_time_returns_initial(self, single_layout):
        fn, _ = _static_provider(single_layout)
        traj = evolve(fn, basis_state(single_layout, "g", 0), 0.0, EvolutionConfig())
        assert len(traj.states) == 1
        assert traj.final.vec[single_layout.index("g", 0)] == 1.0

    def test_rejects_unnormalized_initial_state(self, single_layout):
        fn, _ = _static_provider(single_layout)
        bad = Ket(single_layout, 0.5 * basis_state(single_layout, "g", 0).vec)
        with pytest.raises(ValueError, match="normalized"):
            evolve(fn, bad, 1.0, EvolutionConfig())


class TestEvolveDriven:
    def test_uncoupled_qubit_exact_phase(self):
        """g = 0: each sigma_z eigenstate accumulates the analytic phase

        integral of (omega_q + eps sin(omega t - phi)) / 2.
        """
        lay = HilbertLayout(1, 4)
        p = SystemParams(omega_q=3.0, g=0.0, n_qubits=1, d_coupling=0.0)
        d = DriveParams(epsilon=(1.8,), omega_d=3.0, phi=np.pi / 2)
        fn = hamiltonian_fn(p, d, "lab-driven", lay)
        plus = Ket(
            lay,
            (basis_state(lay, "e", 0).vec + basis_state(lay, "g", 0).vec) / np.sqrt(2),
        )
        t_end = 0.7 * 2 * np.pi
        dt = 2 * np.pi / fn.omega_max / (10 * DEFAULT_STEPS_PER_PERIOD)
        traj = evolve(fn, plus, t_end, EvolutionConfig(dt=dt), n_samples=8)
        integral = p.omega_q * t_end + d.epsilon[0] / d.omega_d * (
            np.cos(d.phi) - np.cos(d.omega_d * t_end - d.phi)
        )
        phase = integral / 2.0
        expected = (
            np.exp(-1j * phase) * basis_state(lay, "e", 0).vec
            + np.exp(+1j * phase) * basis_state(lay, "g", 0).vec
        ) / np.sqrt(2)
        assert np.max(np.abs(traj.final.vec - expected)) <= 1e-8

    def test_two_qubit_agrees_with_tenfold_finer_steps(self):
        lay = HilbertLayout(2, 8)
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        fn = hamiltonian_fn(p, d, "lab-driven", lay)
        psi0 = basis_state(lay, "gg", 0)
        t_end = 2 * np.pi / p.omega_r
        dt = 2 * np.pi / fn.omega_max / DEFAULT_STEPS_PER_PERIOD
        coarse = evolve(fn, psi0, t_end, EvolutionConfig(dt=dt), n_samples=4)
        fine = evolve(fn, psi0, t_end, EvolutionConfig(dt=dt / 10), n_samples=4)
        assert np.max(np.abs(coarse.final.vec - fine.final.vec)) <= 1e-6

    def test_rk4_cross_check(self):
        """The Magnus propagation and the dense RK4 oracle must land on the
        same state."""
        lay = HilbertLayout(2, 8)
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        fn = hamiltonian_fn(p, d, "lab-driven", lay)
        assert _rk4_distance(fn, basis_state(lay, "gg", 0), 2 * np.pi) <= 1e-6

    def test_fourth_order_convergence(self):
        """Self-convergence over dt, dt/2, dt/4 at the step ceiling: the
        successive differences shrink by 2^p with p near 4."""
        lay = HilbertLayout(1, 8)
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
        d = DriveParams.from_alpha((1.832,), 3.0)
        fn = hamiltonian_fn(p, d, "lab-driven", lay)
        v0 = basis_state(lay, "g", 0).vec
        dt = 2 * np.pi / (50 * fn.omega_max)
        runs = [evolve_columns(fn, v0, 2 * np.pi, EvolutionConfig(dt=dt / 2**i))
                for i in range(3)]
        order = np.log2(np.linalg.norm(runs[0] - runs[1])
                        / np.linalg.norm(runs[1] - runs[2]))
        assert order >= 3.5

    def test_default_step_matches_scipy_oracle(self):
        lay = HilbertLayout(2, 8)
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        fn = hamiltonian_fn(p, d, "lab-driven", lay)
        psi0 = basis_state(lay, "gg", 0)
        t_end = 2 * np.pi / p.omega_r
        ours = evolve(fn, psi0, t_end, EvolutionConfig(), n_samples=4).final.vec
        ref = solve_ivp(lambda t, y: -1j * (fn(t) @ y), (0.0, t_end), psi0.vec,
                        method="DOP853", rtol=1e-12, atol=1e-12).y[:, -1]
        assert np.max(np.abs(ours - ref)) <= 1e-8

    def test_step_halving_residual(self):
        lay = HilbertLayout(1, 8)
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
        d = DriveParams.from_alpha((1.832,), 3.0)
        fn = hamiltonian_fn(p, d, "lab-driven", lay)
        psi0 = basis_state(lay, "g", 0)
        t_end = 2 * np.pi
        dt = 2 * np.pi / fn.omega_max / DEFAULT_STEPS_PER_PERIOD
        full = evolve(fn, psi0, t_end, EvolutionConfig(dt=dt), n_samples=4)
        half = evolve(fn, psi0, t_end, EvolutionConfig(dt=dt / 2), n_samples=4)
        assert np.linalg.norm(full.final.vec - half.final.vec) <= 1e-6

    def test_norm_gate_raises_with_step_info(self):
        # A (deliberately) non-Hermitian generator makes the norm drift;
        # the integrator must refuse and report where.
        fn = _skewed(_lab_provider(1, 8))
        psi0 = basis_state(fn.layout, "g", 0)
        with pytest.raises(PropagationAccuracyError, match="norm drifted .* sample 1, t = 0.5"
                           ) as exc:
            evolve(fn, psi0, 5.0, EvolutionConfig(), n_samples=10)
        assert exc.value.time is not None
        assert (exc.value.step, exc.value.time) == (1, 0.5)


class TestMagnusStep:
    """The Magnus step e^{-iK} exp(-i dt Hbar) e^{+iK}:
    fourth-order Magnus to O(dt^5) per step, fourth order over a
    propagation, one Taylor exponential per step."""

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_one_step_matches_magnus_exponent(self, n_qubits):
        """The difference from expm(-i dt Hbar + (sqrt(3)/12) dt^2 [H_1, H_2])
        shrinks about 32x per halving of dt."""
        fn = _lab_provider(n_qubits, 8)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(fn.layout.dim) + 1j * rng.standard_normal(fn.layout.dim)
        x /= np.linalg.norm(x)
        errs = []
        for i in range(3):
            dt = 2 * np.pi / (50 * fn.omega_max) / 2**i
            ts = [0.4 + f * dt for f in propagate._GAUSS_NODES]
            ops, into, back = _plan(fn, x, [ts], dt)
            turn, op = next(ops)
            got = back(_expmv(op, turn(into(x))))
            h1, h2 = fn(ts[0]), fn(ts[1])
            exponent = -0.5j * dt * (h1 + h2) + np.sqrt(3) / 12 * dt**2 * (h1 @ h2 - h2 @ h1)
            errs.append(np.linalg.norm(got - expm(exponent) @ x))
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all((26.0 <= ratios) & (ratios <= 38.0)), ratios

    def test_fourth_order_on_gate_columns(self):
        """Against a 400-step-per-period run, the gate columns' error falls
        12x to 20x from 64 to 128 steps per period."""
        fn = _lab_provider(2, 8)
        v0 = np.zeros((fn.layout.dim, 4), dtype=complex)
        v0[np.arange(4) * 8, np.arange(4)] = 1.0

        def run(steps):
            cfg = EvolutionConfig(dt=2 * np.pi / fn.omega_max / steps)
            return evolve_columns(fn, v0, 2 * np.pi, cfg)

        ref = run(400)
        ratio = np.linalg.norm(run(64) - ref) / np.linalg.norm(run(128) - ref)
        assert 12.0 <= ratio <= 20.0

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_one_exponential_per_step(self, n_qubits, monkeypatch):
        calls = []
        expmv = propagate._expmv

        def counted(op, v):
            calls.append(op)
            return expmv(op, v)

        monkeypatch.setattr(propagate, "_expmv", counted)
        fn = _lab_provider(n_qubits, 8)
        cfg = EvolutionConfig()
        v0 = basis_state(fn.layout, "g" * n_qubits, 0).vec
        evolve_columns(fn, v0, 2.0, cfg)
        _, n_sub = propagate._sample_grid(2.0, cfg.resolve_dt(fn.omega_max), 1)
        assert len(calls) == n_sub > 10


class TestEvolveColumns:
    def test_overlap_drift_raises_with_time(self):
        fn = _skewed(_lab_provider(1, 8))
        v0 = np.eye(fn.layout.dim, dtype=complex)[:, :2]
        with pytest.raises(PropagationAccuracyError, match="t = 5") as exc:
            evolve_columns(fn, v0, 5.0, EvolutionConfig())
        assert exc.value.time == 5.0


class TestDriftGuard:
    """Every propagation passes one guard in _run: a sample whose max
    |C^dag C - C0^dag C0| drifts past 1e-6 raises PropagationAccuracyError
    naming the sample and its time, in its message and its step and time."""

    @pytest.mark.parametrize("entry", ["evolve", "evolve_columns", "propagator",
                                       "gate_columns"])
    def test_names_its_sample(self, entry, monkeypatch):
        expmv = propagate._expmv
        monkeypatch.setattr(propagate, "_expmv", lambda op, v: 1.001 * expmv(op, v))
        fn, cfg = _lab_provider(2, 4), EvolutionConfig()
        psi0 = basis_state(fn.layout, "gg", 0)
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        run, t = {
            "evolve": (lambda: evolve(fn, psi0, 1.0, cfg, 4), 0.25),
            "evolve_columns": (lambda: evolve_columns(fn, np.eye(fn.layout.dim)[:, :3],
                                                      1.0, cfg), 1.0),
            "propagator": (lambda: evolve_columns(fn, np.eye(fn.layout.dim), 1.0, cfg), 1.0),
            "gate_columns": (lambda: gate_columns(p, d, cfg, fn.layout), np.pi),
        }[entry]
        with pytest.raises(PropagationAccuracyError, match="norm drifted") as exc:
            run()
        assert (exc.value.step, exc.value.time) == (1, t)
        assert f"at sample 1, t = {t:g}" in str(exc.value)


class TestPropagator:
    def test_zero_hamiltonian_gives_identity(self, single_layout):
        """At g = 0 and alpha = 0 the propagator is the exact diagonal
        e^{-i E t}, E = omega_r n + (omega_q/2) sigma_z: in the frame that
        removes it, the identity."""
        fn, energies = _static_provider(single_layout)
        u = _propagator(fn, 3.0, EvolutionConfig(dt=0.01))
        unwound = np.exp(3.0j * energies)[:, None] * u
        assert np.max(np.abs(unwound - np.eye(single_layout.dim))) <= 1e-12

    def test_linearity_matches_evolve(self):
        lay = HilbertLayout(1, 6)
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
        d = DriveParams.from_alpha((1.2,), 3.0)
        fn = hamiltonian_fn(p, d, "lab-driven", lay)
        t_end = 1.3
        cfg = EvolutionConfig()
        u = _propagator(fn, t_end, cfg)
        psi0 = basis_state(lay, "g", 2)
        traj = evolve(fn, psi0, t_end, cfg, n_samples=2)
        assert np.max(np.abs(u @ psi0.vec - traj.final.vec)) <= 1e-9

    def test_unitarity(self):
        lay = HilbertLayout(2, 6)
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        fn = hamiltonian_fn(p, d, "lab-driven", lay)
        u = evolve_columns(fn, np.eye(lay.dim, dtype=complex), 2.0, EvolutionConfig())
        assert np.max(np.abs(u.conj().T @ u - np.eye(lay.dim))) <= 1e-7

    def test_composition(self):
        """U(0 -> t1+t2) = U(t1 -> t1+t2) U(0 -> t1) on aligned step grids."""
        lay = HilbertLayout(1, 6)
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
        d = DriveParams.from_alpha((1.2,), 3.0)
        fn = hamiltonian_fn(p, d, "lab-driven", lay)
        period = 2 * np.pi
        dt = period / 1000.0
        t1, t2 = 0.3 * period, 0.7 * period
        cfg = EvolutionConfig(dt=dt)

        # H(t + t1): sin(omega_d (t + t1) - phi) = sin(omega_d t - (phi - omega_d t1))
        shifted = replace(fn, parts=replace(fn.parts, phi=fn.parts.phi - d.omega_d * t1))
        assert np.max(np.abs(shifted(0.4) - fn(0.4 + t1))) <= 1e-12
        u_full = _propagator(fn, t1 + t2, cfg)
        u1 = _propagator(fn, t1, cfg)
        u2 = _propagator(shifted, t2, cfg)
        assert np.max(np.abs(u2 @ u1 - u_full)) <= 1e-7

    def test_evolve_columns_matches_propagator_columns(self):
        lay = HilbertLayout(1, 6)
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
        d = DriveParams.from_alpha((1.2,), 3.0)
        fn = hamiltonian_fn(p, d, "lab-driven", lay)
        cfg = EvolutionConfig()
        t_end = 0.9
        v0 = np.eye(lay.dim, dtype=complex)[:, :3]
        cols = evolve_columns(fn, v0, t_end, cfg)
        u = _propagator(fn, t_end, cfg)
        assert np.max(np.abs(cols - u[:, :3])) <= 1e-9


class TestFrameConsistency:
    def test_lab_then_rotate_equals_rotating_evolution(self):
        """Evolve in the lab frame, rotate the result; compare against
        SciPy's DOP853 integration of the same state under the
        rotating-frame Hamiltonian, summed from its sideband terms
        (model._rotating_terms, built once)."""
        lay = HilbertLayout(2, 8)
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        psi0 = basis_state(lay, "gg", 0)
        t_end = 2 * np.pi / p.omega_r
        lab = hamiltonian_fn(p, d, "lab-driven", lay)
        mats, pref, det, rows = model._rotating_terms(p, d, lay, 20)

        def rot(t: float) -> np.ndarray:
            series = rows @ np.cos(np.arange(21) * (d.omega_d * t - d.phi))
            h = np.tensordot(pref * np.exp(1j * det * t) * series, mats, axes=1)
            return h + h.conj().T

        lab_final = evolve(lab, psi0, t_end, EvolutionConfig(), 4).final.vec
        rotated = np.conj(frame_phases(t_end, p, d, lay)) * lab_final
        rot_final = solve_ivp(lambda t, y: -1j * (rot(t) @ y), (0.0, t_end), psi0.vec,
                              method="DOP853", rtol=1e-10, atol=1e-12).y[:, -1]
        assert np.linalg.norm(rotated - rot_final) <= 1e-6


class TestFidelityTrace:
    def test_trivial_static_system_stays_at_unity(self):
        # No coupling, no modulation: rotating state and effective
        # state both stay at |gg0>, so F(t) = 1 identically.
        p = SystemParams(omega_q=3.0, g=0.0, d_coupling=0.0)
        d = DriveParams(epsilon=(0.0, 0.0), omega_d=3.0)
        lay = HilbertLayout(2, 6)
        psi0 = basis_state(lay, "gg", 0)
        tr = fidelity_trace(p, d, psi0, 2 * np.pi, EvolutionConfig(), n_samples=20)
        assert tr.fidelities == pytest.approx(np.ones(21), abs=1e-9)
        assert tr.times[0] == 0.0
        assert tr.times[-1] == pytest.approx(2 * np.pi)
        assert tr.t_over_period[-1] == pytest.approx(1.0)
        assert tr.min() == pytest.approx(1.0, abs=1e-9)
        assert tr.mean() == pytest.approx(1.0, abs=1e-9)

    def test_reference_point_short_run_high_fidelity(self):
        # A tenth of a period at the reference operating point: the
        # effective model must already track the full one to ~1e-3.
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        lay = HilbertLayout(2, 8)
        psi0 = basis_state(lay, "gg", 0)
        tr = fidelity_trace(p, d, psi0, 0.1 * 2 * np.pi, EvolutionConfig(), n_samples=10)
        assert tr.min() > 0.99
        assert len(tr.fidelities) == 11

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_rejects_non_positive_sample_count(self, n_samples):
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        psi0 = basis_state(HilbertLayout(2, 6), "gg", 0)
        with pytest.raises(ValueError, match=f"n_samples must be >= 1, got {n_samples}"):
            fidelity_trace(p, d, psi0, 0.1, EvolutionConfig(), n_samples=n_samples)

    def test_default_sample_density(self):
        p = SystemParams(omega_q=3.0, g=0.0, d_coupling=0.0)
        d = DriveParams(epsilon=(0.0, 0.0), omega_d=3.0)
        lay = HilbertLayout(2, 4)
        psi0 = basis_state(lay, "gg", 0)
        tr = fidelity_trace(p, d, psi0, 2 * np.pi, EvolutionConfig())
        # 500 samples per resonator period plus the initial point.
        assert len(tr.fidelities) == 501


class TestClosedFormEffective:
    """fidelity_trace builds the effective states in closed form; they must
    match the exact solution of the effective model."""

    @staticmethod
    def _case(n_qubits: int, fock: int, g: float):
        lay = HilbertLayout(n_qubits, fock)
        p = SystemParams(omega_q=3.0, g=g, n_qubits=n_qubits)
        alpha = (1.832,) if n_qubits == 1 else (1.20242, -1.20242)
        d = DriveParams.from_alpha(alpha, 3.0)
        return lay, p, d, basis_state(lay, "g" * n_qubits, 0)

    @pytest.mark.parametrize("n_qubits,fock,g", [(2, 64, 0.5), (2, 32, 0.2),
                                                 (1, 32, 0.2)])
    def test_matches_exact_effective_model(self, n_qubits, fock, g):
        lay, p, d, psi0 = self._case(n_qubits, fock, g)
        times = np.linspace(0.0, 2 * np.pi, 501)
        closed = _effective_states(p, d, psi0, times)
        exact = oracle_helpers.exact_effective_states(p, d, lay, psi0.vec, times)
        assert np.max(np.abs(exact - closed)) <= 1e-12

    def test_qubit_superposition_and_unequal_couplings(self):
        """Every sigma_x branch carries its own weight and rate."""
        lay = HilbertLayout(2, 16)
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.2, 0.5), 3.0)
        rng = np.random.default_rng(11)
        q = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vec = np.zeros(lay.dim, dtype=complex)
        vec[::lay.fock_dim] = q / np.linalg.norm(q)
        psi0 = Ket(lay, vec)
        times = np.linspace(0.0, np.pi, 251)
        exact = oracle_helpers.exact_effective_states(p, d, lay, psi0.vec, times)
        closed = _effective_states(p, d, psi0, times)
        assert np.max(np.abs(exact - closed)) <= 1e-9

    def test_rejects_excited_resonator(self):
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        psi0 = basis_state(HilbertLayout(2, 8), "gg", 1)
        with pytest.raises(ValueError, match="vacuum"):
            fidelity_trace(p, d, psi0, 1.0, EvolutionConfig(), n_samples=4)

    def test_truncation_refused_before_propagating(self, monkeypatch):
        """|beta|^2 reaches 0.996 at g = 0.5, past Fock 8's budget of 8/9;
        the lab leg is never started."""
        def no_run(*args, **kwargs):
            raise AssertionError("lab leg started")

        monkeypatch.setattr("condisp.propagate._run", no_run)
        p = SystemParams(omega_q=3.0, g=0.5)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        psi0 = basis_state(HilbertLayout(2, 8), "gg", 0)
        with pytest.raises(ValueError, match=r"\|beta\|\^2 = 0.996 exceeds fock_dim/9 = 0.889"):
            fidelity_trace(p, d, psi0, 2 * np.pi, EvolutionConfig())


class TestTraceCsv:
    def test_format_and_round_trip(self, tmp_path):
        p = SystemParams(omega_q=3.0, g=0.0, d_coupling=0.0)
        d = DriveParams(epsilon=(0.0, 0.0), omega_d=3.0)
        lay = HilbertLayout(2, 4)
        tr = fidelity_trace(
            p, d, basis_state(lay, "gg", 0), 2 * np.pi, EvolutionConfig(), n_samples=5
        )
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path, comments=["parameters: demo"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# parameters: demo"
        assert lines[1] == "t_over_Tr,fidelity"
        data = lines[2:]
        assert len(data) == 6
        first = data[0].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.0, abs=1e-9)
        # 12-significant-digit formatting.
        assert data[1].split(",")[0] == "0.2"
