"""Unit tests for the analytic conditional-displacement gate.

The load-bearing oracle is analytic_unitary vs the exact evolution of the
truncated effective Hamiltonian, column by column (which also fixes the
sign convention of the collective axis relative to opposite-sign
couplings). Makhlin invariants
are checked against an explicitly assembled CNOT.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import oracle_helpers
from condisp import DriveParams, HilbertLayout, SystemParams, model, propagate
from condisp.gate import (
    GateAngle,
    analytic_gate,
    analytic_unitary,
    average_gate_fidelity,
    beta_phi,
    gate_columns,
    gate_fidelity_trials,
    makhlin_invariants,
    phase_gate_matrix,
)
from condisp.model import effective_couplings, frame_phases, hamiltonian_fn
from condisp.numerics import bessel_j
from condisp.propagate import EvolutionConfig, PropagationAccuracyError, evolve_columns

TWO_PI = 2 * np.pi


class TestGateAngle:
    def test_relation_enforced(self):
        GateAngle(theta=np.pi / 4, g_eff_ratio=0.25)
        with pytest.raises(ValueError):
            GateAngle(theta=np.pi / 4, g_eff_ratio=0.3)

    def test_named_values(self):
        assert GateAngle.from_ratio(0.25).theta == pytest.approx(np.pi / 4, abs=1e-12)
        assert GateAngle.from_ratio(0.1).theta == pytest.approx(np.pi / 25, abs=1e-12)

    def test_round_trip(self):
        ga = GateAngle.from_theta(np.pi / 25)
        assert ga.g_eff_ratio == pytest.approx(0.1, abs=1e-12)

    def test_reference_coupling_consistency(self):
        # g = 0.2, modulation index 1.20242: the sideband-weighted coupling
        # is about 0.0998 resonator units, i.e. theta close to pi/25.
        g_eff = 0.2 * bessel_j(1, 1.20242)
        assert g_eff == pytest.approx(0.1, rel=5e-3)


class TestBetaPhi:
    def test_endpoints(self):
        beta0, phi0 = beta_phi(0.1, 0.0)
        assert beta0 == 0.0 and phi0 == 0.0
        beta_t, phi_t = beta_phi(0.1, TWO_PI)
        assert abs(beta_t) <= 1e-12
        assert phi_t == pytest.approx(2 * np.pi * 0.01, abs=1e-12)

    def test_maximum_excursion(self):
        beta, _ = beta_phi(0.1164, np.pi)
        assert beta == pytest.approx(2 * 0.1164, abs=1e-12)

    def test_scaled_resonator_frequency(self):
        # Same dimensionless path when t is measured in resonator periods.
        b1, p1 = beta_phi(0.1, 1.3, omega_r=1.0)
        b2, p2 = beta_phi(0.1, 1.3 / 2.5, omega_r=2.5)
        assert b1 == pytest.approx(b2, abs=1e-14)
        assert p1 == pytest.approx(p2, abs=1e-14)


class TestPhaseGateMatrix:
    def test_theta_zero_identity(self):
        assert np.max(np.abs(phase_gate_matrix(0.0) - np.eye(4))) <= 1e-15

    def test_quarter_turn_form(self):
        ref = (
            np.exp(1j * np.pi / 4)
            / np.sqrt(2)
            * np.array(
                [
                    [1, 0, 0, -1j],
                    [0, 1, -1j, 0],
                    [0, -1j, 1, 0],
                    [-1j, 0, 0, 1],
                ]
            )
        )
        assert np.max(np.abs(phase_gate_matrix(np.pi / 4) - ref)) <= 1e-12

    def test_theta_pi_is_identity_up_to_phase(self):
        m = phase_gate_matrix(np.pi)
        assert np.max(np.abs(m - np.eye(4))) <= 1e-12

    def test_unitary_and_swap_symmetric(self, rng):
        swap = np.eye(4)[[0, 2, 1, 3]]
        for theta in rng.uniform(0, 2 * np.pi, 6):
            m = phase_gate_matrix(theta)
            assert np.max(np.abs(m.conj().T @ m - np.eye(4))) <= 1e-12
            assert np.max(np.abs(swap @ m @ swap - m)) <= 1e-12


class TestAnalyticUnitary:
    def test_unitarity(self, small_layout):
        u = analytic_unitary(0.1, 2.2, small_layout).mat
        assert np.max(np.abs(u.conj().T @ u - np.eye(small_layout.dim))) <= 1e-9

    def test_factorizes_at_gate_time(self):
        lay = HilbertLayout(2, 12)
        u = analytic_unitary(0.25, TWO_PI, lay).mat
        q = phase_gate_matrix(np.pi / 4)
        product = np.kron(q, np.eye(lay.fock_dim))
        assert np.max(np.abs(u - product)) <= 1e-8

    def test_gate_object_matches(self):
        gate = analytic_gate(0.25)
        assert abs(gate.beta) <= 1e-12
        assert gate.phase == pytest.approx(2 * np.pi * 0.0625, abs=1e-12)
        assert np.max(np.abs(gate.qubit_matrix - phase_gate_matrix(np.pi / 4))) <= 1e-10

    @staticmethod
    def _low_fock_columns(layout: HilbertLayout, n_max: int) -> np.ndarray:
        """Column indices of |qubits> (x) |n<=n_max| product states.

        The closed form is exact in the untruncated space; the numerically
        propagated truncated Hamiltonian reflects amplitude at the Fock
        ceiling, so only columns whose evolution stays far from the cutoff
        can agree. Low-Fock initial states displace by at most ~2|beta| and
        keep negligible weight near the boundary.
        """
        cols = []
        for q in range(2**layout.n_qubits):
            cols.extend(q * layout.fock_dim + n for n in range(n_max + 1))
        return np.array(cols)

    @staticmethod
    def _exact_columns(p, d, lay: HilbertLayout, cols: np.ndarray, times) -> np.ndarray:
        """Columns cols of the exact effective-model propagator at each
        time, (times, dim, len(cols)), from oracle_helpers."""
        eye = np.eye(lay.dim, dtype=complex)
        return np.stack([oracle_helpers.exact_effective_states(p, d, lay, eye[:, c], times)
                         for c in cols], axis=-1)

    def test_matches_effective_propagator(self):
        """Displacement/phase closed form vs the exact evolution of the
        effective Hamiltonian with opposite-sign couplings."""
        lay = HilbertLayout(2, 16)
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        ratio = effective_couplings(p, d)[0] / p.omega_r
        cols = self._low_fock_columns(lay, 2)
        times = (0.37 * TWO_PI, 0.81 * TWO_PI, TWO_PI)
        for t, u_num in zip(times, self._exact_columns(p, d, lay, cols, times)):
            u_ana = analytic_unitary(ratio, t, lay).mat
            assert np.max(np.abs(u_num - u_ana[:, cols])) <= 1e-6

    def test_single_qubit_variant(self):
        """One qubit: generator is sigma_x, branch displacement +-beta."""
        lay = HilbertLayout(1, 16)
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
        d = DriveParams.from_alpha((1.832,), 3.0)
        ratio = effective_couplings(p, d)[0] / p.omega_r
        cols = self._low_fock_columns(lay, 3)
        u_num = self._exact_columns(p, d, lay, cols, [0.6 * TWO_PI])[0]
        u_ana = analytic_unitary(ratio, 0.6 * TWO_PI, lay).mat
        assert np.max(np.abs(u_num - u_ana[:, cols])) <= 1e-6

    def test_truncation_rejection(self):
        lay = HilbertLayout(2, 8)
        # 2|beta| exceeds the displacement bound for this cutoff.
        with pytest.raises(ValueError):
            analytic_unitary(0.8, np.pi, lay)


class TestMakhlinInvariants:
    @staticmethod
    def _cnot() -> np.ndarray:
        m = np.eye(4, dtype=complex)
        m[2:, 2:] = np.array([[0, 1], [1, 0]])
        return m

    def test_quarter_turn_is_cnot_class(self):
        g1, g2 = makhlin_invariants(phase_gate_matrix(np.pi / 4))
        c1, c2 = makhlin_invariants(self._cnot())
        assert abs(g1 - c1) <= 1e-8
        assert abs(g2 - c2) <= 1e-8
        # CNOT class reference values (G1, G2) = (0, 1).
        assert abs(c1) <= 1e-12
        assert c2 == pytest.approx(1.0, abs=1e-12)

    def test_identity_class(self):
        g1, g2 = makhlin_invariants(np.eye(4, dtype=complex))
        assert g1 == pytest.approx(1.0, abs=1e-12)
        assert g2 == pytest.approx(3.0, abs=1e-12)

    def test_local_invariance(self, rng):
        from scipy.stats import unitary_group

        base = phase_gate_matrix(0.83)
        for seed in range(3):
            sampler = unitary_group(dim=2, seed=1000 + seed)
            k1 = np.kron(sampler.rvs(), sampler.rvs())
            k2 = np.kron(sampler.rvs(), sampler.rvs())
            g1a, g2a = makhlin_invariants(base)
            g1b, g2b = makhlin_invariants(k1 @ base @ k2)
            assert abs(g1a - g1b) <= 1e-8
            assert abs(g2a - g2b) <= 1e-8

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            makhlin_invariants(np.diag([1.0, 1.0, 1.0, 0.5]).astype(complex))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            makhlin_invariants(np.eye(3, dtype=complex))


class TestGateFidelity:
    def test_trivial_static_gate_is_unity(self):
        p = SystemParams(omega_q=3.0, g=0.0, d_coupling=0.0)
        d = DriveParams(epsilon=(0.0, 0.0), omega_d=3.0)
        lay = HilbertLayout(2, 8)
        fid = average_gate_fidelity(p, d, 10, 3, EvolutionConfig(), layout=lay)
        assert fid == pytest.approx(1.0, abs=1e-9)

    def test_trials_shape_bounds_and_reuse(self):
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        lay = HilbertLayout(2, 12)
        cfg = EvolutionConfig()
        cols = gate_columns(p, d, cfg, lay)
        assert cols.shape == (4, 4)
        trials = gate_fidelity_trials(p, d, 8, 11, cfg, layout=lay, columns=cols)
        assert trials.shape == (8,)
        assert np.all((0.0 <= trials) & (trials <= 1.0 + 1e-12))
        # Same seed, same columns: identical values.
        again = gate_fidelity_trials(p, d, 8, 11, cfg, layout=lay, columns=cols)
        assert np.array_equal(trials, again)
        # Mean equals average_gate_fidelity with the same inputs.
        fid = average_gate_fidelity(p, d, 8, 11, cfg, layout=lay, columns=cols)
        assert fid == pytest.approx(float(trials.mean()), abs=1e-15)

    def test_trials_follow_per_trial_draws(self):
        """Trial i uses the i-th pair of standard_normal(4) draws (real,
        then imaginary parts), across a trial-block boundary."""
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        lay = HilbertLayout(2, 8)
        cfg = EvolutionConfig()
        cols = gate_columns(p, d, cfg, lay)
        n_trials = 1100
        trials = gate_fidelity_trials(p, d, n_trials, 5, cfg, layout=lay, columns=cols)
        ideal = analytic_gate(effective_couplings(p, d)[0] / p.omega_r).qubit_matrix
        rng = np.random.default_rng(5)
        expected = np.empty(n_trials)
        for i in range(n_trials):
            amp = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            amp /= np.linalg.norm(amp)
            expected[i] = abs(np.vdot(ideal @ amp, cols @ amp)) ** 2
        assert np.max(np.abs(trials - expected)) <= 1e-14

    def test_seed_changes_trials_but_not_much(self):
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        lay = HilbertLayout(2, 12)
        cfg = EvolutionConfig()
        cols = gate_columns(p, d, cfg, lay)
        f1 = average_gate_fidelity(p, d, 25, 1, cfg, layout=lay, columns=cols)
        f2 = average_gate_fidelity(p, d, 25, 2, cfg, layout=lay, columns=cols)
        assert f1 != f2
        assert abs(f1 - f2) < 0.01

    def test_n_trials_validation(self):
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        with pytest.raises(ValueError):
            gate_fidelity_trials(p, d, 0, 1, EvolutionConfig(), layout=HilbertLayout(2, 8))

    def test_rejects_non_opposite_couplings(self):
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.2, 1.2), 3.0)
        with pytest.raises(ValueError):
            gate_fidelity_trials(p, d, 2, 1, EvolutionConfig(), layout=HilbertLayout(2, 8))

    def test_rejects_off_quadrature_phase(self, monkeypatch):
        """The closed form holds at phi = pi/2 only; any other phase is
        refused before the columns are propagated."""
        def no_columns(*args, **kwargs):
            raise AssertionError("columns propagated")

        monkeypatch.setattr("condisp.gate.gate_columns", no_columns)
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0, phi=0.0)
        with pytest.raises(ValueError, match="gate experiment requires phi = pi/2"):
            gate_fidelity_trials(p, d, 2, 1, EvolutionConfig(), layout=HilbertLayout(2, 16))


class TestGateTruncation:
    """The loop's largest branch displacement, |2 G_s / omega_r|^2 = 16 r^2
    for opposite couplings, must fit fock_dim / 9 before anything runs."""

    @pytest.mark.parametrize("fock_dim", [4, 8])
    def test_large_loop_refused_before_propagating(self, fock_dim, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("columns propagated")

        monkeypatch.setattr("condisp.gate.evolve_columns", no_run)
        p = SystemParams(omega_q=3.0, g=0.5)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        r = effective_couplings(p, d)[0] / p.omega_r
        budget = f"{fock_dim / 9:.3f}"
        with pytest.raises(ValueError, match=rf"\|beta\|\^2 = {16 * r**2:.3f} exceeds "
                                             rf"fock_dim/9 = {budget}"):
            gate_columns(p, d, EvolutionConfig(), HilbertLayout(2, fock_dim))

    def test_small_loop_runs(self):
        p = SystemParams(omega_q=3.0, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 3.0)
        fid = average_gate_fidelity(p, d, 20, 7, EvolutionConfig(), layout=HilbertLayout(2, 8))
        assert fid == pytest.approx(0.9948, abs=0.01)


class TestGateMeetsInTheMiddle:
    """gate_columns gives M = V0^T B U(T) V0 from half a period of
    propagation, the period cut into the smallest even number of steps at
    or under the configured step; the oracle is the full-period
    propagation of the four vacuum columns over as many steps, read at
    their vacuum rows."""

    CASES = {  # at eta = 3 the configured step fits 423 or 424 per period
        "eta3-423-steps": (3.0, 3.0, EvolutionConfig()),
        "eta3-424-steps": (3.0, 3.0, EvolutionConfig(dt=TWO_PI / 424)),
        "eta3.5": (3.5, 3.5, EvolutionConfig()),
        "off-resonant": (3.0, 2.7, EvolutionConfig()),
    }

    @staticmethod
    def _setup(eta: float, omega_d: float):
        p = SystemParams(omega_q=eta, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), omega_d)
        return p, d, HilbertLayout(2, 8)

    @staticmethod
    def _steps(h, t_end: float, cfg: EvolutionConfig) -> int:
        """The fewest steps at or under cfg's step that evolve_columns takes
        over t_end."""
        return propagate._sample_grid(t_end, cfg.resolve_dt(h.omega_max), 1)[1]

    @classmethod
    def _full_period(cls, p, d, cfg, lay) -> np.ndarray:
        v0 = np.zeros((lay.dim, 4), dtype=complex)
        v0[np.arange(4) * lay.fock_dim, np.arange(4)] = 1.0
        h = hamiltonian_fn(p, d, "lab-driven", lay)
        steps = 2 * cls._steps(h, TWO_PI / 2, cfg)
        cols = evolve_columns(h, v0, TWO_PI, replace(cfg, dt=TWO_PI / steps))
        back = np.conj(frame_phases(TWO_PI, p, d, lay))
        return (back[:, None] * cols)[0::lay.fock_dim]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_the_full_period(self, case):
        eta, omega_d, cfg = self.CASES[case]
        p, d, lay = self._setup(eta, omega_d)
        m = gate_columns(p, d, cfg, lay)
        assert m.shape == (4, 4)
        assert np.max(np.abs(m - self._full_period(p, d, cfg, lay))) <= 1e-13

    # eta: (the period's steps at the configured step, the gate's even
    # count, sectors and rows of the half propagation)
    FORMS = {3.0: (423, 424, 2, 1), 3.5: (494, 494, 4, 2)}

    @pytest.mark.parametrize("eta", FORMS)
    def test_which_form_runs(self, eta, monkeypatch):
        """At eta = 3 the mirror is the drive itself, so one provider
        carries the four columns over half the period; at eta = 3.5 the
        drive and its mirror run as a two-member stack. Either way one
        propagation takes half of the smallest even step count at or under
        the configured step, 424 where the period alone would take 423."""
        calls = []

        def spy(h, v0, t_end, cfg):
            calls.append((type(h), len(h.parts.h0), v0.shape, t_end,
                          self._steps(h, t_end, cfg)))
            return evolve_columns(h, v0, t_end, cfg)

        monkeypatch.setattr("condisp.gate.evolve_columns", spy)
        p, d, lay = self._setup(eta, eta)
        gate_columns(p, d, EvolutionConfig(), lay)
        period, even, sectors, rows = self.FORMS[eta]
        assert self._steps(hamiltonian_fn(p, d, "lab-driven", lay), TWO_PI,
                           EvolutionConfig()) == period
        assert calls == [(model._LabProvider, sectors, (rows * lay.dim, 4), TWO_PI / 2,
                          even // 2)]

    @pytest.mark.parametrize("eta, first_bad", [(3.0, 0), (3.0, 211), (3.5, 0)])
    def test_corrupted_propagation_names_its_time(self, eta, first_bad, monkeypatch):
        """Exponentials that scale their result break the overlap guard of
        the half-period propagation's one sample, from its first
        exponential or from its last, the 212th at eta = 3."""
        expmv, calls = propagate._expmv, []

        def scaled(op, v):
            calls.append(None)
            out = expmv(op, v)
            return 1.001 * out if len(calls) > first_bad else out

        monkeypatch.setattr(propagate, "_expmv", scaled)
        p, d, lay = self._setup(eta, eta)
        with pytest.raises(PropagationAccuracyError, match="norm drifted") as exc:
            gate_columns(p, d, EvolutionConfig(), lay)
        assert len(calls) == self.FORMS[eta][1] // 2
        t = TWO_PI / 2
        assert (exc.value.step, exc.value.time) == (1, t)
        assert f"at sample 1, t = {t:g}" in str(exc.value)
