"""Unit tests for the time-evolution engine.

Key oracles:

* a static Hamiltonian has a closed-form phase evolution,
* an uncoupled driven qubit integrates to an exact accumulated phase,
* a driven two-qubit run must agree with the same integrator at 10x finer
  steps (self-convergence against a 10x-refined reference) and with
  SciPy's DOP853 at tight tolerances,
* the coefficient-form apply must equal the dense H(t) matvec, and the
  one-qubit parity-chain path and the two-qubit parity-block path must
  propagate as the dense fallback does,
* the Taylor loop must take as many terms as the earlier two-vdot loop
  and agree with it, and an apply's buffers must never overwrite a result
  its caller still holds,
* the closed-form effective states of fidelity_trace must match a
  propagation of the effective Hamiltonian,
* evolving in the lab frame and rotating afterwards must agree with
  evolving directly under the rotating-frame Hamiltonian.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import oracle_helpers
from condisp import DriveParams, HilbertLayout, SystemParams, propagate
from condisp.cat import cat_fidelity_experiment
from condisp.gate import gate_columns
from condisp.hilbert import Ket, basis_state
from condisp.model import (_Chains, _assemble_parts, _mixer, frame_phases,
                           hamiltonian_fn)
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
            mix, into, back = _mixer(fn, t)
            got = back(mix((t,), (1.0,))(into(x), 1.0))
            assert got.shape == x.shape
            assert np.max(np.abs(got - fn(t) @ x)) <= 1e-13

    def test_wrapper_that_changes_h_is_refused(self):
        """functools.wraps copies coeffs/parts onto a wrapper; a wrapper
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


class TestChainPath:
    """One-qubit providers propagate along their parity chains; the same
    provider behind a plain lambda takes the dense fallback."""

    @staticmethod
    def _pair(frame):
        lay = HilbertLayout(1, 12)
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
        fn = hamiltonian_fn(p, DriveParams.from_alpha((1.832,), 3.0), frame, lay)
        def dense(t: float) -> np.ndarray:  # no coeffs: the dense fallback
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

    def test_drive_part_with_hops_refused(self):
        """The mixer premixes everything but the drive diagonal, so a chain
        drive part with hops is refused rather than half applied."""
        fn, _ = self._pair("lab-driven")
        bands = fn.parts.bands.copy()
        bands[1, 1:] = bands[0, 1:]  # the drive part gains the hops
        parts = _Chains(bands, fn.parts.order)

        def hopping(t: float) -> np.ndarray:
            return _assemble_parts(fn.coeffs(t), parts)

        hopping.coeffs, hopping.parts = fn.coeffs, parts
        with pytest.raises(ValueError, match="drive part .* not diagonal"):
            _mixer(hopping, 0.0)

    def test_rk4_matches_cf4(self):
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
        def dense(t: float) -> np.ndarray:  # no coeffs: the dense fallback
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

    def test_rk4_matches_cf4(self):
        fn, _ = self._pair()
        psi0 = basis_state(fn.layout, "gg", 0)
        a = evolve(fn, psi0, 2 * np.pi, EvolutionConfig(), 4)
        b = evolve(fn, psi0, 2 * np.pi, EvolutionConfig(method="rk4"), 4)
        assert np.max(np.abs(a.final.vec - b.final.vec)) <= 1e-6

    def test_complex_mixed_coefficients_refused(self):
        """Real blocks cannot carry an imaginary coefficient; a provider
        whose form holds but whose coefficients are complex raises rather
        than losing the imaginary part."""
        fn, _ = self._pair()

        def coeffs(t: float) -> np.ndarray:
            return np.array([1.0, 1j * np.sin(3.0 * t)])

        def skewed(t: float) -> np.ndarray:
            return _assemble_parts(coeffs(t), fn.parts)

        skewed.coeffs, skewed.parts = coeffs, fn.parts
        skewed.layout, skewed.omega_max = fn.layout, fn.omega_max
        psi0 = basis_state(fn.layout, "gg", 0)
        with pytest.raises(ValueError, match="real coefficients"):
            evolve(skewed, psi0, 1.0, EvolutionConfig(), 2)


def _lab_provider(n_qubits: int, fock_dim: int):
    lay = HilbertLayout(n_qubits, fock_dim)
    alpha = (1.832,) if n_qubits == 1 else (1.20242, -1.20242)
    p = SystemParams(omega_q=3.0, g=0.2, n_qubits=n_qubits)
    return hamiltonian_fn(p, DriveParams.from_alpha(alpha, 3.0), "lab-driven", lay)


class TestTaylorLoop:
    """_expmv against the earlier two-vdot loop of oracle_helpers, on every
    exponential of small cat-, gate- and trace-like propagations."""

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

    @pytest.mark.parametrize("workload", ["cat", "gate", "trace"])
    def test_same_terms_as_reference_loop(self, workload, monkeypatch):
        seen = []

        def spy(apply, dt, v):
            terms = 0

            def counted(x, scale):
                nonlocal terms
                terms += 1
                return apply(x, scale)

            got = _expmv(counted, dt, v)
            ref, ref_terms = oracle_helpers.reference_expmv(apply, dt, v)
            seen.append((terms, ref_terms, float(np.max(np.abs(got - ref)))))
            return got

        monkeypatch.setattr(propagate, "_expmv", spy)
        self._propagate(workload)
        assert len(seen) >= 40
        assert [n for n, _, _ in seen] == [n for _, n, _ in seen]
        assert max(err for _, _, err in seen) <= 1e-13

    def test_nonconvergence_raises(self):
        fn = _lab_provider(1, 8)
        mix, into, _ = _mixer(fn, 0.0)
        v = into(basis_state(fn.layout, "g", 3).vec)
        with pytest.raises(PropagationAccuracyError, match="did not converge in 200 terms"):
            _expmv(mix((0.0,), (1.0,)), 20.0, v)


class TestBufferedApply:
    """Applies write their results into buffers of their own: what a caller
    still holds survives later calls, in the RK4 pattern (three applies,
    one called twice) and in the Taylor loop's (one apply fed its own
    results)."""

    @staticmethod
    def _setup(n_qubits: int, layout: str):
        fn = _lab_provider(n_qubits, 8)
        mix, into, back = _mixer(fn, 0.3)
        rng = np.random.default_rng(11)
        shape = (fn.layout.dim,) if layout == "vector" else (fn.layout.dim, 4)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if layout == "F":
            x = np.asfortranarray(x)
        return fn, mix, into, back, x

    @pytest.mark.parametrize("n_qubits", [1, 2])
    @pytest.mark.parametrize("layout", ["vector", "C", "F"])
    def test_rk4_pattern(self, n_qubits, layout):
        fn, mix, into, back, x = self._setup(n_qubits, layout)
        t, dt = 0.3, 0.05
        h0, hm, h1 = mix((t,), (1.0,)), mix((t + 0.5 * dt,), (1.0,)), mix((t + dt,), (1.0,))
        v = into(x)
        if layout == "F":
            v = np.asfortranarray(v)
        held, copies, checks = [], [], []
        for apply, ti, inc in ((h0, t, None), (hm, t + 0.5 * dt, 0.5 * dt),
                               (hm, t + 0.5 * dt, 0.5 * dt), (h1, t + dt, dt)):
            arg = v if inc is None else v + inc * held[-1]
            held.append(apply(arg, -1j))
            copies.append(held[-1].copy())
            checks.append((ti, back(arg)))
        for k, c, (ti, arg) in zip(held, copies, checks):
            assert np.array_equal(k, c)
            assert np.max(np.abs(back(k) - (-1j) * (fn(ti) @ arg))) <= 1e-13

    @pytest.mark.parametrize("n_qubits", [1, 2])
    @pytest.mark.parametrize("layout", ["vector", "C", "F"])
    def test_taylor_pattern(self, n_qubits, layout):
        fn, mix, into, back, x = self._setup(n_qubits, layout)
        ts, ws = (0.1, 0.4), (0.125, 0.375)  # weights summing to 1/2, as in CF4
        dense = ws[0] * fn(ts[0]) + ws[1] * fn(ts[1])
        first = mix(ts, ws)
        later = mix((0.9,), (1.0,))  # a second apply, alive at the same time
        term = into(x)
        prev = None
        for k in range(1, 6):
            arg = back(term)
            term = first(term, 0.5 / k)
            assert np.max(np.abs(back(term) - (0.5 / k) * (dense @ arg))) <= 1e-13
            if prev is not None:  # valid through the next call
                assert np.array_equal(prev[0], prev[1])
            prev = (term, term.copy())
            other = later(term, 1.0)
            assert not np.shares_memory(other, term)
            assert np.max(np.abs(back(other) - fn(0.9) @ back(term))) <= 1e-13


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
    match a propagation of the effective provider (the dense fallback)."""

    @pytest.mark.parametrize("n_qubits,fock,g", [(2, 64, 0.5), (2, 32, 0.2),
                                                 (1, 32, 0.2)])
    def test_matches_propagated_effective_model(self, n_qubits, fock, g):
        lay = HilbertLayout(n_qubits, fock)
        p = SystemParams(omega_q=3.0, g=g, n_qubits=n_qubits)
        alpha = (1.832,) if n_qubits == 1 else (1.20242, -1.20242)
        d = DriveParams.from_alpha(alpha, 3.0)
        psi0 = basis_state(lay, "g" * n_qubits, 0)
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
