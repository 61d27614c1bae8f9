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
  matmul (two qubits' parity blocks) must propagate as the dense fallback
  does, also when they carry only the parity sectors and columns the
  initial state occupies; the blocks alone pick the kernel,
* forming the step schedule in chunks must change no node time and no
  output bit, though the twist a propagation carries crosses chunk and
  sample boundaries, and the one turn per step must agree with a
  stepper that makes both turns of every step,
* the Taylor series on the power stack must take as many terms as the
  earlier loop and agree with it, also when it folds the stack and on a
  stack of members of unequal norm; a loaded operator's powers must be
  the dense ones, and an exponential's result must live apart from the
  rows it reads,
* the closed-form effective states of fidelity_trace must match the exact
  solution of the effective model and a propagation of it,
* evolving in the lab frame and rotating afterwards must agree with
  evolving directly under the rotating-frame Hamiltonian.
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
from condisp.model import _mixer, frame_phases, hamiltonian_fn
from condisp.propagate import (
    DEFAULT_STEPS_PER_PERIOD,
    _effective_states,
    _expmv,
    EvolutionConfig,
    PropagationAccuracyError,
    evolve,
    evolve_columns,
    fidelity_trace,
    propagator,
    write_trace_csv,
)


def _static_provider(mat: np.ndarray, layout: HilbertLayout, wmax: float):
    def fn(t: float) -> np.ndarray:
        return mat

    fn.layout = layout
    fn.omega_max = wmax
    return fn


def _plan(fn, v0: np.ndarray, nodes, weights, dt: float = 1.0):
    """model._mixer's plan of one propagation of v0 under fn: steps of dt
    with the given node times, operators by the given weight rows."""
    return _mixer(fn, 0.0, v0, [np.array(nodes, dtype=float)],
                  np.array(weights, dtype=float), dt, _expmv, propagate._STOP)


def _apply(op, x: np.ndarray) -> np.ndarray:
    """A @ x for a loaded operator A: x into row 0 of its stack, one power."""
    np.copyto(op.rows[0], x)
    op.power(1)
    return op.rows[1]


def _exponential(op, x: np.ndarray) -> tuple[np.ndarray, int]:
    """_expmv(op, x), copied, and the number of Taylor terms it took."""
    terms = 0
    power = op.power

    def counted(j: int) -> None:
        nonlocal terms
        terms += 1
        power(j)

    op.power = counted
    try:
        return _expmv(op, x).copy(), terms
    finally:
        op.power = power


class TestEvolutionConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EvolutionConfig(method="euler")
        with pytest.raises(ValueError):
            EvolutionConfig(dt=-0.1)
        with pytest.raises(ValueError):
            EvolutionConfig(dt=0.0)

    def test_resolve_default_dt(self):
        cfg = EvolutionConfig()
        wmax = 4.0
        dt = cfg.resolve_dt(wmax)
        assert dt == pytest.approx(2 * np.pi / wmax / DEFAULT_STEPS_PER_PERIOD)
        rk4 = EvolutionConfig(method="rk4").resolve_dt(wmax)
        assert rk4 == pytest.approx(2 * np.pi / wmax / 800)

    def test_resolve_explicit_dt_within_ceiling(self):
        ceiling = 2 * np.pi / (50 * 4.0)
        cfg = EvolutionConfig(dt=0.9 * ceiling)
        assert cfg.resolve_dt(4.0) == pytest.approx(0.9 * ceiling)

    def test_resolve_rejects_dt_above_ceiling(self):
        ceiling = 2 * np.pi / (50 * 4.0)
        cfg = EvolutionConfig(dt=1.5 * ceiling)
        with pytest.raises(ValueError):
            cfg.resolve_dt(4.0)

    def test_resolve_requires_some_scale(self):
        with pytest.raises(ValueError):
            EvolutionConfig().resolve_dt(None)


class TestCoefficientForm:
    @pytest.mark.parametrize("frame", ["lab-driven", "effective"])
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
            ops, into, back = _plan(fn, x, [[t]], [[1.0]], dt=0.7)
            got = back(_apply(next(ops), into(x)))
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

    @pytest.mark.parametrize("method", sorted(propagate._SCHEMES))
    def test_operator_weight_rows_share_one_sum(self, method):
        """_mixer premixes the static part once per propagation, scaled by
        the first apply's weight sum, so every apply's must equal it; a
        turn's row sums to exactly zero."""
        sums = np.array(propagate._SCHEMES[method][1]).sum(axis=1)
        applies = sums[sums != 0]
        assert len(applies) and np.all(applies == applies[0])


class TestChainPath:
    """One-qubit providers propagate along their parity chains; the same
    provider behind a plain lambda takes the dense fallback."""

    @staticmethod
    def _pair(frame):
        lay = HilbertLayout(1, 12)
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
        fn = hamiltonian_fn(p, DriveParams.from_alpha((1.832,), 3.0), frame, lay)
        def dense(t: float) -> np.ndarray:  # no parts: the dense fallback
            return fn(t)

        dense.layout, dense.omega_max = lay, fn.omega_max
        return fn, dense

    @pytest.mark.parametrize("frame", ["lab-driven"])
    def test_evolve_matches_dense_fallback(self, frame):
        fn, dense = self._pair(frame)
        psi0 = basis_state(fn.layout, "g", 1)
        a = evolve(fn, psi0, 2.0, EvolutionConfig(), n_samples=5)
        b = evolve(dense, psi0, 2.0, EvolutionConfig(), n_samples=5)
        assert len(a.states) == len(b.states) == 6
        for x, y in zip(a.states, b.states):
            assert np.max(np.abs(x.vec - y.vec)) <= 1e-12

    @pytest.mark.parametrize("frame", ["lab-driven"])
    def test_columns_and_propagator_match_dense_fallback(self, frame):
        fn, dense = self._pair(frame)
        cfg = EvolutionConfig()
        v0 = np.eye(fn.layout.dim, dtype=complex)[:, [0, 5, 13]]
        cols = evolve_columns(fn, v0, 1.7, cfg)
        assert np.max(np.abs(cols - evolve_columns(dense, v0, 1.7, cfg))) <= 1e-12
        u = propagator(fn, 1.7, cfg).mat
        assert np.max(np.abs(u - propagator(dense, 1.7, cfg).mat)) <= 1e-12

    def test_rk4_matches_magnus(self):
        fn, _ = self._pair("lab-driven")
        psi0 = basis_state(fn.layout, "g", 0)
        a = evolve(fn, psi0, 2 * np.pi, EvolutionConfig(), 4)
        b = evolve(fn, psi0, 2 * np.pi, EvolutionConfig(method="rk4"), 4)
        assert np.max(np.abs(a.final.vec - b.final.vec)) <= 1e-6


class TestParityBlockPath:
    """The two-qubit lab provider propagates as two real parity blocks; the
    same provider behind a plain function takes the dense fallback."""

    @staticmethod
    def _pair():
        lay = HilbertLayout(2, 6)
        p = SystemParams(omega_q=3.0, g=0.5)
        fn = hamiltonian_fn(p, DriveParams.from_alpha((1.20242, -1.20242), 3.0),
                            "lab-driven", lay)
        def dense(t: float) -> np.ndarray:  # no parts: the dense fallback
            return fn(t)

        dense.layout, dense.omega_max = lay, fn.omega_max
        return fn, dense

    def test_evolve_columns_and_propagator_match_dense_fallback(self):
        fn, dense = self._pair()
        cfg = EvolutionConfig()
        psi0 = basis_state(fn.layout, "gg", 1)
        a = evolve(fn, psi0, 2.0, cfg, n_samples=5)
        b = evolve(dense, psi0, 2.0, cfg, n_samples=5)
        assert len(a.states) == len(b.states) == 6
        for x, y in zip(a.states, b.states):
            assert np.max(np.abs(x.vec - y.vec)) <= 1e-12
        # a column block in Fortran order
        v0 = np.asfortranarray(np.eye(fn.layout.dim, dtype=complex)[:, [0, 6, 13, 19]])
        cols = evolve_columns(fn, v0, 1.7, cfg)
        assert np.max(np.abs(cols - evolve_columns(dense, v0, 1.7, cfg))) <= 1e-12
        u = propagator(fn, 1.7, cfg).mat
        assert np.max(np.abs(u - propagator(dense, 1.7, cfg).mat)) <= 1e-12

    def test_rk4_matches_magnus(self):
        fn, _ = self._pair()
        psi0 = basis_state(fn.layout, "gg", 0)
        a = evolve(fn, psi0, 2 * np.pi, EvolutionConfig(), 4)
        b = evolve(fn, psi0, 2 * np.pi, EvolutionConfig(method="rk4"), 4)
        assert np.max(np.abs(a.final.vec - b.final.vec)) <= 1e-6


def _lab_provider(n_qubits: int, fock_dim: int):
    lay = HilbertLayout(n_qubits, fock_dim)
    alpha = (1.832,) if n_qubits == 1 else (1.20242, -1.20242)
    p = SystemParams(omega_q=3.0, g=0.2, n_qubits=n_qubits)
    return hamiltonian_fn(p, DriveParams.from_alpha(alpha, 3.0), "lab-driven", lay)


class TestTaylorLoop:
    """_expmv against the earlier loop of oracle_helpers: the same number of
    terms and results within 1e-13, on every exponential of small cat-,
    gate- and trace-like propagations, also with a three-row power stack,
    which every exponential of three or more terms folds; on one
    exponential that folds the full stack; and on a two-member stack
    whose members' norms differ by 1e3, against the earlier loop's stop
    on the smaller member."""

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
        """(terms, the reference's terms, largest difference) of one
        exponential, and its result."""
        x0 = np.array(x)  # a fold rewrites row 0, where x may live
        got, terms = _exponential(op, x)
        ref, ref_terms = oracle_helpers.reference_expmv(lambda y: _apply(op, y).copy(),
                                                        x0, members)
        return (terms, ref_terms, float(np.max(np.abs(got - ref)))), got

    def _spied(self, workload: str, monkeypatch) -> list:
        seen = []

        def spy(op, x):
            result, got = self._against_reference(op, x)
            seen.append(result)
            return got

        monkeypatch.setattr(propagate, "_expmv", spy)
        self._propagate(workload)
        assert len(seen) >= 40
        assert [n for n, _, _ in seen] == [n for _, n, _ in seen]
        assert max(err for _, _, err in seen) <= 1e-13
        return seen

    @pytest.mark.parametrize("workload", ["cat", "gate", "trace"])
    def test_same_terms_as_reference_loop(self, workload, monkeypatch):
        self._spied(workload, monkeypatch)

    @pytest.mark.parametrize("workload", ["cat", "gate", "trace"])
    def test_three_row_stack_folds(self, workload, monkeypatch):
        monkeypatch.setattr(propagate, "_STOP", propagate._STOP[:3])
        assert max(n for n, _, _ in self._spied(workload, monkeypatch)) > 6

    def test_fold_of_the_full_stack(self):
        """At a step far above the ceiling an exponential takes more terms
        than the stack has rows, so it folds the stack, twice."""
        fn = _lab_provider(1, 16)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(fn.layout.dim) + 1j * rng.standard_normal(fn.layout.dim)
        x /= np.linalg.norm(x)
        ops, into, back = _plan(fn, x, [[0.3]], [[1.0]], dt=0.4)
        op = next(ops)
        (terms, ref_terms, err), _ = self._against_reference(op, into(x))
        assert terms == ref_terms > 2 * (len(op.rows) - 1)
        assert err <= 1e-13

    def test_two_members_stop_on_the_smaller(self):
        """A unit member next to one of norm 1e-3, at four times the step
        ceiling: the series runs until the smaller member's own terms pass
        its stop, two terms past the earlier loop's stop on the whole
        stack."""
        fn = _lab_provider(1, 8)
        pair = model._LabProvider(model._stack([fn.parts, fn.parts]), fn.omega_max)
        v0 = np.concatenate([basis_state(fn.layout, "g", 0).vec,
                             1e-3 * basis_state(fn.layout, "e", 7).vec])
        dt = 4 * 2 * np.pi / (50 * fn.omega_max)
        ops, into, back = _plan(pair, v0, [[0.3]], [[1.0]], dt)
        x = into(v0)
        assert x.shape == (2, 8, 1)  # one chain of each member
        op = next(ops)
        (terms, ref_terms, err), _ = self._against_reference(
            op, x, members=[slice(0, 8), slice(8, 16)])
        whole = oracle_helpers.reference_expmv(lambda y: _apply(op, y).copy(), x)[1]
        assert terms == ref_terms >= whole + 2
        assert err <= 1e-13

    def test_nonconvergence_raises(self):
        fn = _lab_provider(1, 8)
        v0 = basis_state(fn.layout, "g", 3).vec
        ops, into, _ = _plan(fn, v0, [[0.0]], [[1.0]], dt=20.0)
        with pytest.raises(PropagationAccuracyError, match="did not converge in 200 terms"):
            _expmv(next(ops), into(v0))

    def test_nonconvergence_names_step_and_time(self):
        """A generator that jumps to 300 at t = 3.2 breaks the series in
        the first step whose later node passes it: step 7, which starts
        at t = 3, the second step of the second sample interval."""
        lay = HilbertLayout(1, 4)

        def h(t: float) -> np.ndarray:
            return 300.0 * (t >= 3.2) * np.eye(lay.dim, dtype=complex)

        h.layout, h.omega_max = lay, 1e-3
        psi0 = basis_state(lay, "g", 0)
        with pytest.raises(PropagationAccuracyError,
                           match=r"did not converge .* \(step 7, t = 3\)") as exc:
            evolve(h, psi0, 5.0, EvolutionConfig(dt=0.5), n_samples=2)
        assert (exc.value.step, exc.value.time) == (7, 3.0)


class TestBufferedApply:
    """A loaded operator owns its power stack: power(j) writes A p_{j-1}
    into row j, A = dt sum_l w_l H(t_l) prescaled by the step; an
    exponential's result lives apart from the rows, and a foreign input
    is never written. RK4 takes its slopes from the same rows."""

    @staticmethod
    def _setup(n_qubits: int, layout: str, nodes, weights, dt: float):
        fn = _lab_provider(n_qubits, 8)
        rng = np.random.default_rng(11)
        shape = (fn.layout.dim,) if layout == "vector" else (fn.layout.dim, 4)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if layout == "F":
            x = np.asfortranarray(x)
        ops, into, back = _plan(fn, x, nodes, weights, dt)
        return fn, ops, into, back, x

    @pytest.mark.parametrize("n_qubits", [1, 2])
    @pytest.mark.parametrize("layout", ["vector", "C", "F"])
    def test_rk4_pattern(self, n_qubits, layout):
        t, dt = 0.3, 0.05
        fracs, weights = propagate._SCHEMES["rk4"]
        fn, ops, into, back, x = self._setup(
            n_qubits, layout, [[t + f * dt for f in fracs]], weights, dt)
        got = back(propagate._rk4_step(ops, into(x)))
        k1 = -1j * (fn(t) @ x)
        k2 = -1j * (fn(t + 0.5 * dt) @ (x + 0.5 * dt * k1))
        k3 = -1j * (fn(t + 0.5 * dt) @ (x + 0.5 * dt * k2))
        k4 = -1j * (fn(t + dt) @ (x + dt * k3))
        ref = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        assert got.shape == x.shape
        assert np.max(np.abs(got - ref)) <= 1e-13

    @pytest.mark.parametrize("n_qubits", [1, 2])
    @pytest.mark.parametrize("layout", ["vector", "C", "F"])
    def test_taylor_pattern(self, n_qubits, layout):
        ts, ws, dt = (0.1, 0.4), (0.125, 0.375), 0.2  # a premix by the row's sum, 1/2
        fn, ops, into, back, x = self._setup(n_qubits, layout, [ts, (0.9, 0.2)], [ws], dt)
        dense = dt * (ws[0] * fn(ts[0]) + ws[1] * fn(ts[1]))
        op = next(ops)
        np.copyto(op.rows[0], into(x))
        for j in range(1, len(op.rows)):
            op.power(j)
            want = dense @ back(op.rows[j - 1])
            assert np.max(np.abs(back(op.rows[j]) - want)) <= 1e-13 * np.max(np.abs(want))
        result = _expmv(op, into(x))
        assert not any(np.shares_memory(result, row) for row in op.rows)
        foreign = into(x)
        kept = foreign.copy()
        _expmv(op, foreign)
        assert np.array_equal(foreign, kept)
        # the next load rewrites the same operator in place
        later = next(ops)
        assert later is op
        dense = dt * (ws[0] * fn(0.9) + ws[1] * fn(0.2))
        assert np.max(np.abs(back(_apply(later, into(x))) - dense @ x)) <= 1e-13


class TestPackedPlan:
    """A propagation carries only the parity sectors its initial state
    occupies, and of a column block only each sector's live columns; it
    must agree with the dense fallback, which does not pack, and leave the
    unoccupied sector exactly zero."""

    @staticmethod
    def _pair(n_qubits: int):
        fn = _lab_provider(n_qubits, 8)

        def dense(t: float) -> np.ndarray:  # no parts: the dense fallback
            return fn(t)

        dense.layout, dense.omega_max = fn.layout, fn.omega_max
        return fn, dense

    @staticmethod
    def _packed_shape(fn, v0):
        _, into, _ = _plan(fn, v0, [[0.0]], [[1.0]])
        return into(v0).shape

    @staticmethod
    def _sector(fn, s: int) -> np.ndarray:
        """Product-basis indices of parity sector s (chain or block)."""
        return fn.parts.order.reshape(2, -1)[s]

    @pytest.mark.parametrize("label", ["g", "e"])
    def test_one_qubit_state_in_one_chain(self, label):
        fn, dense = self._pair(1)
        psi0 = basis_state(fn.layout, label, 0)
        live = 0 if label == "g" else 1  # |g,0> starts chain 0, |e,0> chain 1
        assert self._packed_shape(fn, psi0.vec) == (1, 8, 1)
        a = evolve(fn, psi0, 2.0, EvolutionConfig(), n_samples=5)
        b = evolve(dense, psi0, 2.0, EvolutionConfig(), n_samples=5)
        for x, y in zip(a.states, b.states):
            assert np.max(np.abs(x.vec - y.vec)) <= 1e-12
            assert not np.any(x.vec[self._sector(fn, 1 - live)])
        assert np.max(np.abs(a.final.vec[self._sector(fn, live)])) > 0.1

    def test_two_qubit_vacuum_trace(self, monkeypatch):
        fn, _ = self._pair(2)
        psi0 = basis_state(fn.layout, "gg", 0)
        assert self._packed_shape(fn, psi0.vec) == (1, 16, 1)
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        packed = fidelity_trace(p, d, psi0, 0.5 * np.pi, EvolutionConfig(), 20)

        def unpacked(*args):
            lab = hamiltonian_fn(*args)

            def h(t: float) -> np.ndarray:  # no parts: the dense fallback
                return lab(t)

            h.layout, h.omega_max = lab.layout, lab.omega_max
            return h

        monkeypatch.setattr(propagate, "hamiltonian_fn", unpacked)
        ref = fidelity_trace(p, d, psi0, 0.5 * np.pi, EvolutionConfig(), 20)
        assert np.max(np.abs(packed.fidelities - ref.fidelities)) <= 1e-12
        traj = evolve(fn, psi0, 1.0, EvolutionConfig(), n_samples=3)
        for state in traj.states:
            assert not np.any(state.vec[self._sector(fn, 1)])

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_superposition_in_both_sectors(self, n_qubits):
        fn, dense = self._pair(n_qubits)
        lay = fn.layout
        a_lbl, b_lbl = ("g", "e") if n_qubits == 1 else ("gg", "eg")
        psi0 = Ket(lay, (basis_state(lay, a_lbl, 0).vec
                         + 1j * basis_state(lay, b_lbl, 0).vec) / np.sqrt(2.0))
        assert self._packed_shape(fn, psi0.vec) == (2, lay.dim // 2, 1)
        a = evolve(fn, psi0, 2.0, EvolutionConfig(), n_samples=4)
        b = evolve(dense, psi0, 2.0, EvolutionConfig(), n_samples=4)
        for x, y in zip(a.states, b.states):
            assert np.max(np.abs(x.vec - y.vec)) <= 1e-12

    @pytest.mark.parametrize("method", ["piecewise-exponential", "rk4"])
    def test_columns_with_unequal_live_counts(self, method):
        """Even parity holds three live columns (|ee,0>, |gg,0> and half of
        a superposition), odd parity two (|eg,0> and the other half)."""
        fn, dense = self._pair(2)
        lay = fn.layout
        ket = {q: basis_state(lay, q, 0).vec for q in ("ee", "eg", "gg")}
        v0 = np.stack([ket["ee"], ket["eg"], ket["gg"],
                       (ket["gg"] - ket["eg"]) / np.sqrt(2.0)], axis=1)
        assert self._packed_shape(fn, v0) == (2, lay.dim // 2, 3)
        cfg = EvolutionConfig(method=method)
        cols = evolve_columns(fn, v0, 1.3, cfg)
        assert np.max(np.abs(cols - evolve_columns(dense, v0, 1.3, cfg))) <= 1e-12
        for j, s in ((0, 1), (1, 0), (2, 1)):  # each basis column stays in its sector
            assert not np.any(cols[self._sector(fn, s), j])

    def test_gate_columns_pack_two_per_block(self):
        fn, _ = self._pair(2)
        nf = fn.layout.fock_dim
        v0 = np.zeros((fn.layout.dim, 4), dtype=complex)
        v0[np.arange(4) * nf, np.arange(4)] = 1.0
        assert self._packed_shape(fn, v0) == (2, fn.layout.dim // 2, 2)

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_rk4_run(self, n_qubits):
        fn, dense = self._pair(n_qubits)
        psi0 = basis_state(fn.layout, "g" * n_qubits, 0)
        cfg = EvolutionConfig(method="rk4")
        a = evolve(fn, psi0, 1.0, cfg, n_samples=3)
        b = evolve(dense, psi0, 1.0, cfg, n_samples=3)
        for x, y in zip(a.states, b.states):
            assert np.max(np.abs(x.vec - y.vec)) <= 1e-12
            assert not np.any(x.vec[self._sector(fn, 1)])


class TestKernelChoice:
    """The premixed sector blocks pick the apply kernel: one qubit's
    tridiagonal chains run on three bands, two qubits' blocks on the batched
    real matmul. Each run makes the other kernel raise, and then its own."""

    @staticmethod
    def _refuse(*args):
        raise AssertionError("kernel not expected here")

    @pytest.mark.parametrize("n_qubits, kernel, other", [
        (1, "_band_operator", "_block_operator"),
        (2, "_block_operator", "_band_operator"),
    ])
    def test_kernel_follows_the_blocks(self, n_qubits, kernel, other, monkeypatch):
        fn = _lab_provider(n_qubits, 8)
        psi0 = basis_state(fn.layout, "g" * n_qubits, 0)
        with monkeypatch.context() as m:
            m.setattr(model, other, self._refuse)
            a = evolve(fn, psi0, 1.0, EvolutionConfig(), 2)
        assert np.max(np.abs(a.final.vec - psi0.vec)) > 0.1
        monkeypatch.setattr(model, kernel, self._refuse)
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
           detuning=st.sampled_from([1.0, 0.9, 1.13]), t=st.floats(0.05, 2 * np.pi),
           method=st.sampled_from(["piecewise-exponential", "rk4"]))
    def test_mirror_is_the_transpose(self, n_qubits, fock_dim, eta, phi, detuning, t,
                                     method):
        """The identity's propagation under the mirror H(t - tau) is the
        transpose of its propagation under H, at any phi and omega_d, for
        either stepper. The identity holds to roundoff at any step, so the
        Magnus step sits at the ceiling and RK4 only fine enough for the
        overlap guard."""
        h = self._provider(n_qubits, eta, fock_dim=fock_dim, omega_d=detuning * eta, phi=phi)
        mirror = replace(h, parts=model._mirrored(h.parts, t))
        per_period = 50 if method == "piecewise-exponential" else 400
        cfg = EvolutionConfig(dt=2 * np.pi / (per_period * h.omega_max), method=method)
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
        monkeypatch.setattr(model, other, TestKernelChoice._refuse)
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
            ops, into, back = _plan(fn, v0, [[0.3]], [[1.0]], dt)
            p, terms = _exponential(next(ops), into(v0))
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
    def _spied(case: str, method: str, chunk: int, monkeypatch):
        h, v0 = _chunk_case(case)
        seen = []
        modulation = model._modulation

        def spy(parts, t):
            seen.append(np.array(t, dtype=float))
            return modulation(parts, t)

        cfg = EvolutionConfig(method=method)
        times, n_sub = propagate._sample_grid(1.0, cfg.resolve_dt(h.omega_max), 3)
        with monkeypatch.context() as m:
            m.setattr(model, "_modulation", spy)
            m.setattr(propagate, "_PLAN_CHUNK", chunk)
            states = propagate._run(h, v0, times, n_sub, method, norm_gate=True)
        # the provider is a _LabProvider, so its H(t) is never formed:
        # every call is a chunk's node times
        assert all(t.ndim for t in seen)
        return np.array(states), seen, times, n_sub

    def _check(self, case: str, method: str, chunks, monkeypatch) -> None:
        whole, one, times, n_sub = self._spied(case, method, 10**9, monkeypatch)
        assert len(one) == 1 and n_sub % 7 and n_sub > 7
        for chunk in chunks:
            states, nodes, _, _ = self._spied(case, method, chunk, monkeypatch)
            assert len(nodes) > 3
            assert all(len(t) <= chunk for t in nodes)
            assert np.array_equal(np.concatenate(nodes), one[0])
            assert np.array_equal(states, whole)
        # elementwise the node times of the schedule laid out whole, every
        # step dt long
        dt = times[-1] / (n_sub * (len(times) - 1))
        starts = times[:-1, None] + np.arange(n_sub) * dt
        ref = starts[..., None] + dt * np.array(propagate._SCHEMES[method][0])
        assert np.array_equal(one[0], ref.reshape(one[0].shape))

    @pytest.mark.parametrize("n_qubits", [1, 2])
    @pytest.mark.parametrize("method", ["piecewise-exponential", "rk4"])
    def test_chunks_change_no_bit(self, n_qubits, method, monkeypatch):
        chunks = range(1, 8) if method == "piecewise-exponential" else [7]
        self._check("one qubit" if n_qubits == 1 else "two qubits", method, chunks,
                    monkeypatch)

    def test_mirror_stack_chunks_change_no_bit(self, monkeypatch):
        self._check("mirror stack", "piecewise-exponential", range(1, 8), monkeypatch)


class TestMergedTurns:
    """A Magnus propagation of a lab provider makes one turn per step,
    e^{i(K_n - K_{n-1})}, and unwinds e^{-iK} where a sample leaves; it
    agrees with oracle_helpers' stepper, which makes both turns of every
    step, and a dense fallback, which makes two turns a step, agrees
    with both."""

    @pytest.mark.parametrize("case", ["one qubit", "two qubits", "mirror stack"])
    def test_matches_two_turn_reference(self, case):
        h, v0 = _chunk_case(case)
        times, n_sub = propagate._sample_grid(1.0, EvolutionConfig().resolve_dt(h.omega_max), 3)
        ref = oracle_helpers.reference_m4(h, v0, times, n_sub)

        def dense(t: float) -> np.ndarray:  # no parts: the dense fallback
            return h(t)

        for fn in (h, dense):
            got = propagate._run(fn, v0, times, n_sub, "piecewise-exponential",
                                 norm_gate=True)
            assert len(got) == len(ref) == 4
            assert max(np.max(np.abs(a - b)) for a, b in zip(got, ref)) <= 1e-13


class TestEvolveStatic:
    def test_stationary_number_state_phase(self, single_layout):
        """H = omega_r n: |g,1> only picks up exp(-i omega_r t)."""
        nf = single_layout.fock_dim
        num = np.kron(np.eye(2), np.diag(np.arange(nf, dtype=float))).astype(complex)
        fn = _static_provider(num, single_layout, wmax=float(nf))
        psi0 = basis_state(single_layout, "g", 1)
        t_end = 2.1
        traj = evolve(fn, psi0, t_end, EvolutionConfig(), n_samples=12)
        assert np.max(np.abs(traj.norms - 1.0)) <= 1e-9
        expected = np.exp(-1j * t_end) * psi0.vec
        assert np.max(np.abs(traj.final.vec - expected)) <= 1e-9

    def test_zero_time_returns_initial(self, single_layout):
        fn = _static_provider(
            np.zeros((single_layout.dim,) * 2, dtype=complex), single_layout, 1.0
        )
        traj = evolve(fn, basis_state(single_layout, "g", 0), 0.0, EvolutionConfig())
        assert len(traj.states) == 1
        assert traj.final.vec[single_layout.index("g", 0)] == 1.0

    def test_rejects_unnormalized_initial_state(self, single_layout):
        fn = _static_provider(
            np.zeros((single_layout.dim,) * 2, dtype=complex), single_layout, 1.0
        )
        bad = Ket(single_layout, 0.5 * basis_state(single_layout, "g", 0).vec)
        with pytest.raises(ValueError):
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
        """Both steppers must land on the same state."""
        lay = HilbertLayout(2, 8)
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        fn = hamiltonian_fn(p, d, "lab-driven", lay)
        psi0 = basis_state(lay, "gg", 0)
        t_end = 2 * np.pi
        a = evolve(fn, psi0, t_end, EvolutionConfig(method="piecewise-exponential"), 4)
        b = evolve(fn, psi0, t_end, EvolutionConfig(method="rk4"), 4)
        assert np.max(np.abs(a.final.vec - b.final.vec)) <= 1e-6

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

    def test_norm_gate_raises_with_step_info(self, single_layout):
        # A (deliberately) non-Hermitian generator makes the norm drift;
        # the integrator must refuse and report where.
        mat = -0.05j * np.eye(single_layout.dim, dtype=complex)
        fn = _static_provider(mat, single_layout, wmax=10.0)
        psi0 = basis_state(single_layout, "g", 0)
        with pytest.raises(PropagationAccuracyError) as exc:
            evolve(fn, psi0, 5.0, EvolutionConfig(), n_samples=10)
        assert exc.value.time is not None


class TestMagnusStep:
    """The piecewise-exponential step e^{-iK} exp(-i dt Hbar) e^{+iK}:
    fourth-order Magnus to O(dt^5) per step, fourth order over a
    propagation, one Taylor exponential per step."""

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_one_step_matches_magnus_exponent(self, n_qubits):
        """The difference from expm(-i dt Hbar + (sqrt(3)/12) dt^2 [H_1, H_2])
        shrinks about 32x per halving of dt."""
        fn = _lab_provider(n_qubits, 8)
        fracs, weights = propagate._SCHEMES["piecewise-exponential"]
        rng = np.random.default_rng(5)
        x = rng.standard_normal(fn.layout.dim) + 1j * rng.standard_normal(fn.layout.dim)
        x /= np.linalg.norm(x)
        errs = []
        for i in range(3):
            dt = 2 * np.pi / (50 * fn.omega_max) / 2**i
            ts = [0.4 + f * dt for f in fracs]
            ops, into, back = _plan(fn, x, [ts], weights, dt)
            got = back(propagate._m4_step(ops, into(x)))
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
    def test_overlap_drift_raises_with_time(self, single_layout):
        mat = -0.05j * np.eye(single_layout.dim, dtype=complex)
        fn = _static_provider(mat, single_layout, wmax=10.0)
        v0 = np.eye(single_layout.dim, dtype=complex)[:, :2]
        with pytest.raises(PropagationAccuracyError, match="t = 5") as exc:
            evolve_columns(fn, v0, 5.0, EvolutionConfig())
        assert exc.value.time == 5.0


class TestPropagator:
    def test_zero_hamiltonian_gives_identity(self, single_layout):
        fn = _static_provider(
            np.zeros((single_layout.dim,) * 2, dtype=complex), single_layout, 1.0
        )
        u = propagator(fn, 3.0, EvolutionConfig(dt=0.01))
        assert np.max(np.abs(u.mat - np.eye(single_layout.dim))) <= 1e-12

    def test_linearity_matches_evolve(self):
        lay = HilbertLayout(1, 6)
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
        d = DriveParams.from_alpha((1.2,), 3.0)
        fn = hamiltonian_fn(p, d, "lab-driven", lay)
        t_end = 1.3
        cfg = EvolutionConfig()
        u = propagator(fn, t_end, cfg)
        psi0 = basis_state(lay, "g", 2)
        traj = evolve(fn, psi0, t_end, cfg, n_samples=2)
        assert np.max(np.abs(u.mat @ psi0.vec - traj.final.vec)) <= 1e-9

    def test_unitarity(self):
        lay = HilbertLayout(2, 6)
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        fn = hamiltonian_fn(p, d, "lab-driven", lay)
        u = propagator(fn, 2.0, EvolutionConfig()).mat
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

        def shifted(t: float) -> np.ndarray:
            return fn(t + t1)

        shifted.layout = lay
        shifted.omega_max = fn.omega_max
        u_full = propagator(fn, t1 + t2, cfg).mat
        u1 = propagator(fn, t1, cfg).mat
        u2 = propagator(shifted, t2, cfg).mat
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
        u = propagator(fn, t_end, cfg).mat
        assert np.max(np.abs(cols - u[:, :3])) <= 1e-9


class TestFrameConsistency:
    def test_lab_then_rotate_equals_rotating_evolution(self):
        """Evolve in the lab frame, rotate the result; compare against a
        direct rotating-frame evolution of the same state."""
        lay = HilbertLayout(2, 8)
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        psi0 = basis_state(lay, "gg", 0)
        t_end = 2 * np.pi / p.omega_r
        lab = hamiltonian_fn(p, d, "lab-driven", lay)
        rot = hamiltonian_fn(p, d, "rotating", lay)
        lab_final = evolve(lab, psi0, t_end, EvolutionConfig(), 4).final.vec
        rotated = np.conj(frame_phases(t_end, p, d, lay)) * lab_final
        rot_final = evolve(rot, psi0, t_end, EvolutionConfig(), 4).final.vec
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
    match the exact solution of the effective model and a propagation of
    the effective provider (the dense fallback)."""

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

    @pytest.mark.parametrize("n_qubits,fock,g", [(2, 32, 0.2), (1, 32, 0.2)])
    def test_matches_propagated_effective_model(self, n_qubits, fock, g):
        lay, p, d, psi0 = self._case(n_qubits, fock, g)
        h = hamiltonian_fn(p, d, "effective", lay)
        traj = evolve(h, psi0, 2 * np.pi, EvolutionConfig(), n_samples=500)
        closed = _effective_states(p, d, psi0, traj.times)
        assert closed.shape == (501, lay.dim)
        assert np.max(np.abs(np.array([s.vec for s in traj.states]) - closed)) <= 1e-9

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
        h = hamiltonian_fn(p, d, "effective", lay)
        traj = evolve(h, psi0, np.pi, EvolutionConfig(), n_samples=250)
        closed = _effective_states(p, d, psi0, traj.times)
        assert np.max(np.abs(np.array([s.vec for s in traj.states]) - closed)) <= 1e-9

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
