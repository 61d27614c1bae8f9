"""Unit tests for conditional-displacement cat states.

cat_state and multi_step_cat are built directly from coherent amplitudes
while analytic_unitary goes through the displacement operator;
dual-route agreement is the main internal oracle. Reduced-qubit purity
has a closed form from coherent overlaps that the numerical partial
trace must reproduce.
"""

from __future__ import annotations

import numpy as np
import pytest

from condisp import DriveParams, HilbertLayout, SystemParams
from condisp.cat import (
    STEP_TIME_FACTOR,
    branch_probabilities,
    cat_fidelity_experiment,
    cat_state,
    decompose_cat,
    multi_step_cat,
)
from condisp.gate import analytic_unitary
from condisp.hilbert import Ket, basis_state, coherent_amplitudes, fidelity
from condisp.model import effective_couplings, frame_phases, hamiltonian_fn
from condisp.propagate import (DEFAULT_STEPS_PER_PERIOD, EvolutionConfig,
                               PropagationAccuracyError, evolve_columns)

CAT_LAYOUT = HilbertLayout(n_qubits=1, fock_dim=24)
T0 = np.pi  # one step at omega_r = 1


class TestBranchProbabilities:
    def test_formula(self):
        p_even, p_odd = branch_probabilities(0.233)
        w = np.exp(-2 * 0.233**2)
        assert p_even == pytest.approx(0.5 * (1 + w), abs=1e-15)
        assert p_odd == pytest.approx(0.5 * (1 - w), abs=1e-15)

    def test_limits(self):
        assert branch_probabilities(0.0) == (1.0, 0.0)
        p_even, p_odd = branch_probabilities(4.0)
        assert p_even == pytest.approx(0.5, abs=1e-10)
        assert p_odd == pytest.approx(0.5, abs=1e-10)


class TestCatState:
    def test_t0_is_initial_state(self):
        psi = cat_state(0.1164, 0.0, CAT_LAYOUT)
        assert fidelity(psi, basis_state(CAT_LAYOUT, "g", 0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_operator_route(self):
        """Coherent-amplitude construction vs displacement-operator power."""
        for t in (0.3 * T0, T0, 1.7 * T0):
            direct = cat_state(0.1164, t, CAT_LAYOUT)
            via_op = analytic_unitary(0.1164, t, CAT_LAYOUT) @ basis_state(
                CAT_LAYOUT, "g", 0
            )
            assert np.max(np.abs(direct.vec - via_op.vec)) <= 1e-9

    def test_half_period_branch_amplitude(self):
        psi = cat_state(0.1164, T0, CAT_LAYOUT)
        dec = decompose_cat(psi)
        assert dec.beta == pytest.approx(2 * 0.1164, abs=1e-9)
        assert abs(dec.beta) == pytest.approx(0.233, abs=0.002)

    def test_reduced_qubit_purity_closed_form(self):
        """tr(rho_q^2) = (1 + e^{-4|beta|^2}) / 2 vs numerical partial trace."""
        for t in (0.4 * T0, T0):
            psi = cat_state(0.1164, t, CAT_LAYOUT)
            from condisp.gate import beta_phi

            beta, _ = beta_phi(0.1164, t)
            block = psi.vec.reshape(2, CAT_LAYOUT.fock_dim)
            rho_q = block @ block.conj().T
            purity = float(np.trace(rho_q @ rho_q).real)
            assert purity == pytest.approx(
                0.5 * (1 + np.exp(-4 * abs(beta) ** 2)), abs=1e-8
            )

    def test_truncation_rejection(self):
        small = HilbertLayout(1, 8)
        with pytest.raises(ValueError):
            cat_state(0.8, T0, small)

    def test_requires_single_qubit(self):
        with pytest.raises(ValueError):
            cat_state(0.1, T0, HilbertLayout(2, 8))


class TestDecomposeCat:
    def test_invariants_on_analytic_state(self):
        psi = cat_state(0.1164, T0, CAT_LAYOUT)
        dec = decompose_cat(psi)
        assert dec.p_even + dec.p_odd == pytest.approx(1.0, abs=1e-10)
        w = np.exp(-2 * abs(dec.beta) ** 2)
        assert dec.norm_even == pytest.approx((2 * (1 + w)) ** -0.5, abs=1e-10)
        assert dec.norm_odd == pytest.approx((2 * (1 - w)) ** -0.5, abs=1e-10)
        assert np.linalg.norm(dec.even_state) == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.norm(dec.odd_state) == pytest.approx(1.0, abs=1e-10)
        assert abs(np.vdot(dec.even_state, dec.odd_state)) <= 1e-8
        assert not dec.degenerate

    def test_probabilities_match_formula(self):
        psi = cat_state(0.1164, T0, CAT_LAYOUT)
        dec = decompose_cat(psi)
        p_even, p_odd = branch_probabilities(dec.beta)
        assert dec.p_even == pytest.approx(p_even, abs=1e-10)
        assert dec.p_odd == pytest.approx(p_odd, abs=1e-10)
        # Direct formula evaluation at the nominal displacement 0.233.
        assert dec.p_even == pytest.approx(
            0.5 * (1 + np.exp(-2 * 0.233**2)), abs=1e-3
        )

    def test_branches_are_coherent_superpositions(self):
        psi = cat_state(0.1164, T0, CAT_LAYOUT)
        dec = decompose_cat(psi)
        plus = coherent_amplitudes(dec.beta, CAT_LAYOUT.fock_dim)
        minus = coherent_amplitudes(-dec.beta, CAT_LAYOUT.fock_dim)
        even_ref = dec.norm_even * (plus + minus)
        odd_ref = dec.norm_odd * (plus - minus)
        # Phase-blind comparison; the branches inherit the global phase.
        assert abs(np.vdot(even_ref, dec.even_state)) == pytest.approx(
            1.0, abs=1e-6
        )
        assert abs(np.vdot(odd_ref, dec.odd_state)) == pytest.approx(1.0, abs=1e-6)

    def test_parity_purity(self):
        psi = cat_state(0.15, T0, CAT_LAYOUT)
        dec = decompose_cat(psi)
        assert np.max(np.abs(dec.even_state[1::2])) <= 1e-8
        assert np.max(np.abs(dec.odd_state[0::2])) <= 1e-8

    def test_degenerate_at_zero_displacement(self):
        psi = cat_state(0.1164, 0.0, CAT_LAYOUT)
        dec = decompose_cat(psi)
        assert dec.degenerate
        assert dec.p_even == pytest.approx(1.0, abs=1e-12)
        assert dec.p_odd == pytest.approx(0.0, abs=1e-12)
        assert dec.odd_state is None
        assert np.isinf(dec.norm_odd)
        assert abs(dec.even_state[0]) == pytest.approx(1.0, abs=1e-12)

    def test_measurement_basis_phases_leave_probabilities(self):
        """sigma_z and number-operator phases (a frame rotation of the
        measurement basis) change neither probabilities nor |beta|."""
        psi = cat_state(0.1164, T0, CAT_LAYOUT)
        nf = CAT_LAYOUT.fock_dim
        ref = decompose_cat(psi)
        phases = np.exp(-1j * (0.7 * np.arange(nf) + 1.3))
        vec = psi.vec.copy()
        vec[:nf] = np.exp(-1j * 0.4) * phases * vec[:nf]
        vec[nf:] = np.exp(+1j * 0.4) * phases * vec[nf:]
        dec = decompose_cat(Ket(CAT_LAYOUT, vec))
        assert dec.p_even == pytest.approx(ref.p_even, abs=1e-12)
        assert dec.p_odd == pytest.approx(ref.p_odd, abs=1e-12)
        assert abs(dec.beta) == pytest.approx(abs(ref.beta), abs=1e-10)

    def test_rejects_two_qubit_state(self):
        with pytest.raises(ValueError):
            decompose_cat(basis_state(HilbertLayout(2, 8), "gg", 0))


class TestMultiStepCat:
    def test_single_step_equals_cat_state(self):
        one = multi_step_cat(0.1164, 1, CAT_LAYOUT)
        ref = cat_state(0.1164, T0, CAT_LAYOUT)
        assert np.max(np.abs(one.vec - ref.vec)) <= 1e-9

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_operator_power(self, k):
        """The closed form equals k applications of the analytic evolution
        operator over half a period."""
        u = analytic_unitary(0.1164, T0, CAT_LAYOUT)
        psi = basis_state(CAT_LAYOUT, "g", 0)
        for _ in range(k):
            psi = u @ psi
        got = multi_step_cat(0.1164, k, CAT_LAYOUT)
        assert np.max(np.abs(got.vec - psi.vec)) <= 1e-9

    def test_two_step_amplitude(self):
        two = multi_step_cat(0.1164, 2, CAT_LAYOUT)
        dec = decompose_cat(two)
        assert dec.beta == pytest.approx(4 * 0.1164, abs=1e-9)
        assert abs(dec.beta) == pytest.approx(0.4656, abs=0.002)

    def test_amplitude_linearity(self):
        base = abs(decompose_cat(multi_step_cat(0.08, 1, CAT_LAYOUT)).beta)
        for k in (2, 3):
            amp = abs(decompose_cat(multi_step_cat(0.08, k, CAT_LAYOUT)).beta)
            assert amp == pytest.approx(k * base, abs=1e-9)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            multi_step_cat(0.1, 0, CAT_LAYOUT)
        with pytest.raises(ValueError):
            multi_step_cat(0.1, 2.0, CAT_LAYOUT)  # type: ignore[arg-type]

    def test_truncation_rejection(self):
        # k steps push the branches past the displacement bound.
        with pytest.raises(ValueError):
            multi_step_cat(0.3, 4, HilbertLayout(1, 8))


class TestCatExperiment:
    def test_zero_coupling_gives_unity(self):
        p = SystemParams(omega_q=3.0, g=0.0, n_qubits=1, d_coupling=0.0)
        d = DriveParams.from_alpha((1.832,), 3.0)
        lay = HilbertLayout(1, 8)
        fid = cat_fidelity_experiment(p, d, 1, EvolutionConfig(), layout=lay)
        assert fid == pytest.approx(1.0, abs=1e-9)

    def test_small_cutoff_reference_run(self):
        # Headline parameters at a reduced cutoff: fidelity must already
        # be high; the acceptance suite pins the exact band at full cutoff.
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
        d = DriveParams.from_alpha((1.832,), 3.0)
        lay = HilbertLayout(1, 16)
        fid = cat_fidelity_experiment(p, d, 1, EvolutionConfig(), layout=lay)
        assert 0.99 < fid <= 1.0

    def test_validation(self):
        p2 = SystemParams(omega_q=3.0, g=0.2)
        d2 = DriveParams.from_alpha((1.2, -1.2), 3.0)
        with pytest.raises(ValueError):
            cat_fidelity_experiment(p2, d2, 1, EvolutionConfig())
        p1 = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
        d1 = DriveParams.from_alpha((1.832,), 3.0)
        with pytest.raises(ValueError):
            cat_fidelity_experiment(p1, d1, 0, EvolutionConfig())

    def test_rejects_phase_off_quadrature(self):
        # the analytic target is the phi = pi/2 closed form
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
        d = DriveParams.from_alpha((1.832,), 3.0, phi=1.0)
        with pytest.raises(ValueError, match="phi"):
            cat_fidelity_experiment(p, d, 1, EvolutionConfig(), layout=HilbertLayout(1, 16))

    def test_cumulative_norm_drift_raises(self, monkeypatch):
        # each step's own overlap check is bypassed here; the final-state
        # check still bounds the drift accumulated over all k steps
        monkeypatch.setattr("condisp.cat.evolve_columns",
                            lambda *args: 1.001 * evolve_columns(*args))
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
        d = DriveParams.from_alpha((1.832,), 3.0)
        with pytest.raises(PropagationAccuracyError, match="over 2 steps") as err:
            cat_fidelity_experiment(p, d, 2, EvolutionConfig(), layout=HilbertLayout(1, 16))
        assert err.value.step == 2
        assert err.value.time == pytest.approx(2 * np.pi)

    def test_step_time_constant(self):
        assert STEP_TIME_FACTOR == pytest.approx(np.pi)


class TestMeetInTheMiddle:
    """The experiment meets in the middle: ceil(k/2) propagations, each a
    forward step of |g,0> stacked with a mirror step of the conjugated
    target, whose conjugate is the adjoint step."""

    @staticmethod
    def _point(eta: float):
        return (SystemParams(omega_q=eta, g=0.2, n_qubits=1),
                DriveParams.from_alpha((1.832,), eta))

    @staticmethod
    def _forward_chain(params, drive, cfg, k_max: int) -> list[float]:
        """Fidelities of the k-fold forward chain, k = 1..k_max, one
        propagation per step."""
        h = hamiltonian_fn(params, drive, "lab-driven", CAT_LAYOUT)
        back = np.conj(frame_phases(T0, params, drive, CAT_LAYOUT))
        ratio = effective_couplings(params, drive)[0]
        vec = basis_state(CAT_LAYOUT, "g", 0).vec
        out = []
        for k in range(1, k_max + 1):
            vec = back * evolve_columns(h, vec, T0, cfg)
            out.append(abs(np.vdot(multi_step_cat(ratio, k, CAT_LAYOUT).vec, vec)) ** 2)
        return out

    # The mirror propagation is the transpose of the forward one, so the two
    # agree to roundoff; the largest |difference| measured at Fock 24 is
    # 8.8e-15.
    @pytest.mark.parametrize("eta", [3.0, 2.5])
    def test_equals_the_forward_chain(self, eta):
        params, drive = self._point(eta)
        cfg = EvolutionConfig(dt=2 * np.pi / (params.omega_q + drive.epsilon[0])
                              / DEFAULT_STEPS_PER_PERIOD)
        chain = self._forward_chain(params, drive, cfg, 6)
        met = [cat_fidelity_experiment(params, drive, k, cfg, CAT_LAYOUT) for k in range(1, 7)]
        assert np.max(np.abs(np.array(met) - chain)) <= 1e-12

    @pytest.mark.parametrize("k", range(1, 7))
    def test_propagations_per_cat(self, k, monkeypatch):
        calls = []

        def counted(h, v0, t_end, cfg):
            calls.append(len(v0))
            return evolve_columns(h, v0, t_end, cfg)

        monkeypatch.setattr("condisp.cat.evolve_columns", counted)
        cat_fidelity_experiment(*self._point(3.0), k, EvolutionConfig(), CAT_LAYOUT)
        dim = CAT_LAYOUT.dim
        assert calls == [2 * dim] * (k // 2) + [dim] * (k % 2)

    def test_backward_half_drift_raises(self, monkeypatch):
        dim = CAT_LAYOUT.dim

        def drifting(h, v0, t_end, cfg):
            out = evolve_columns(h, v0, t_end, cfg)
            out[dim:] *= 1.001  # only the mirror member of a stack
            return out

        monkeypatch.setattr("condisp.cat.evolve_columns", drifting)
        with pytest.raises(PropagationAccuracyError,
                           match="over 3 steps, 1 of them in the backward half") as err:
            cat_fidelity_experiment(*self._point(3.0), 3, EvolutionConfig(), CAT_LAYOUT)
        assert err.value.step == 3
        assert err.value.time == pytest.approx(3 * np.pi)
