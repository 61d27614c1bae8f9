"""Unit tests for the Hilbert-space layout, states, and operators."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special

from condisp.hilbert import (
    HilbertLayout,
    Ket,
    Operator,
    basis_state,
    coherent,
    coherent_amplitudes,
    displacement,
    fidelity,
    identity,
    ladder,
    pauli_on,
)


class TestLayout:
    def test_dims(self):
        assert HilbertLayout(2, 32).dim == 128
        assert HilbertLayout(1, 8).dim == 16

    def test_index_ordering(self):
        lay = HilbertLayout(2, 32)
        # Qubit bits are the most-significant part, |e> before |g>.
        assert lay.index("ee", 0) == 0
        assert lay.index("eg", 0) == 32
        assert lay.index("ge", 0) == 64
        assert lay.index("gg", 0) == 96
        assert lay.index("gg", 5) == 101

    def test_index_validation(self):
        lay = HilbertLayout(2, 8)
        with pytest.raises(ValueError):
            lay.index("g", 0)  # wrong label count
        with pytest.raises(ValueError):
            lay.index("gx", 0)  # bad label
        with pytest.raises(ValueError):
            lay.index("gg", 8)  # Fock index out of range

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            HilbertLayout(n_qubits=3)
        with pytest.raises(ValueError):
            HilbertLayout(n_qubits=0)
        with pytest.raises(ValueError):
            HilbertLayout(fock_dim=3)


class TestKetOperator:
    def test_ket_is_immutable_and_copied(self, small_layout):
        src = np.zeros(small_layout.dim, dtype=complex)
        src[0] = 1.0
        ket = Ket(small_layout, src)
        src[0] = 5.0  # mutating the source must not touch the ket
        assert ket.vec[0] == 1.0
        with pytest.raises(ValueError):
            ket.vec[0] = 2.0  # read-only view

    def test_ket_shape_and_finite_validation(self, small_layout):
        with pytest.raises(ValueError):
            Ket(small_layout, np.zeros(3, dtype=complex))
        bad = np.zeros(small_layout.dim, dtype=complex)
        bad[0] = np.nan
        with pytest.raises(ValueError):
            Ket(small_layout, bad)

    def test_normalized_and_overlap(self, small_layout):
        g0 = basis_state(small_layout, "gg", 0)
        e0 = basis_state(small_layout, "eg", 0)
        sup = Ket(small_layout, g0.vec + e0.vec).normalized()
        assert sup.norm() == pytest.approx(1.0, abs=1e-15)
        assert sup.overlap(g0) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        with pytest.raises(ValueError):
            Ket(small_layout, np.zeros(small_layout.dim, dtype=complex)).normalized()

    def test_overlap_layout_mismatch(self, small_layout, single_layout):
        with pytest.raises(ValueError):
            basis_state(small_layout, "gg", 0).overlap(
                basis_state(single_layout, "g", 0)
            )

    def test_operator_algebra(self, small_layout):
        sx = pauli_on(0, "x", small_layout)
        sz = pauli_on(0, "z", small_layout)
        assert sx.is_hermitian()
        assert (sx @ sx).mat == pytest.approx(np.eye(small_layout.dim))
        anticomm = sx @ sz + sz @ sx
        assert np.max(np.abs(anticomm.mat)) <= 1e-14
        assert ((2.0 * sx) - (sx + sx)).mat == pytest.approx(
            np.zeros((small_layout.dim,) * 2)
        )
        assert sx.dag().mat == pytest.approx(sx.mat)

    def test_operator_layout_mismatch(self, small_layout, single_layout):
        with pytest.raises(ValueError):
            pauli_on(0, "x", small_layout) @ pauli_on(0, "x", single_layout)

    def test_pauli_embedding_commutes_across_qubits(self, small_layout):
        a = pauli_on(0, "x", small_layout)
        b = pauli_on(1, "z", small_layout)
        comm = a @ b - b @ a
        assert np.max(np.abs(comm.mat)) <= 1e-14

    def test_pauli_validation(self, small_layout, single_layout):
        with pytest.raises(ValueError):
            pauli_on(1, "x", single_layout)
        with pytest.raises(ValueError):
            pauli_on(0, "q", small_layout)

    def test_sigma_z_sign_convention(self, small_layout):
        # |e> is the +1 eigenstate of sigma_z.
        sz = pauli_on(0, "z", small_layout)
        e0 = basis_state(small_layout, "eg", 0)
        g0 = basis_state(small_layout, "gg", 0)
        assert (sz @ e0).overlap(e0).real == pytest.approx(1.0)
        assert (sz @ g0).overlap(g0).real == pytest.approx(-1.0)

    def test_raising_operator_direction(self, small_layout):
        sp = pauli_on(0, "+", small_layout)
        g0 = basis_state(small_layout, "gg", 0)
        e0 = basis_state(small_layout, "eg", 0)
        assert (sp @ g0).overlap(e0) == pytest.approx(1.0)
        assert np.max(np.abs((sp @ e0).vec)) == 0.0


class TestResonatorOperators:
    def test_ladder_commutator(self, small_layout):
        a = ladder(small_layout)
        comm = (a @ a.dag() - a.dag() @ a).mat
        # [a, a^dag] = 1 everywhere except the truncation corner.
        nf = small_layout.fock_dim
        diag = np.diag(comm).reshape(4, nf)
        assert diag[:, :-1] == pytest.approx(np.ones((4, nf - 1)))
        assert diag[:, -1] == pytest.approx((1 - nf) * np.ones(4))

    def test_number_expectation(self, small_layout):
        a = ladder(small_layout)
        k = basis_state(small_layout, "gg", 3)
        n_op = a.dag() @ a
        assert (n_op @ k).overlap(k).real == pytest.approx(3.0, abs=1e-14)

    def test_displacement_unitary(self, small_layout):
        d = displacement(0.4 + 0.2j, small_layout)
        eye = identity(small_layout).mat
        assert np.max(np.abs((d.dag() @ d).mat - eye)) <= 1e-9

    def test_displaced_vacuum_is_coherent(self):
        lay = HilbertLayout(1, 24)
        beta = 0.9 - 0.3j
        disp = displacement(beta, lay) @ basis_state(lay, "g", 0)
        coh = coherent(beta, lay)
        # coherent() places amplitudes on the |g> qubit sector.
        assert fidelity(disp, coh) == pytest.approx(1.0, abs=1e-10)

    def test_displacement_truncation_guard(self, small_layout):
        # |beta|^2 > fock_dim / 9 must be rejected.
        beta = math.sqrt(small_layout.fock_dim / 9.0) * 1.05
        with pytest.raises(ValueError):
            displacement(beta, small_layout)

    def test_coherent_amplitudes_poisson(self):
        beta = 0.7 + 0.1j
        amps = coherent_amplitudes(beta, 40)
        probs = np.abs(amps) ** 2
        n = np.arange(40)
        mean = abs(beta) ** 2
        poisson = np.exp(-mean + n * np.log(mean) - scipy.special.gammaln(n + 1))
        assert probs == pytest.approx(poisson, abs=1e-12)
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-10)

    def test_coherent_amplitude_ratio(self):
        # a|beta> = beta|beta>  =>  amps[n+1]/amps[n] = beta/sqrt(n+1).
        beta = 0.5 - 0.4j
        amps = coherent_amplitudes(beta, 30)
        for n in range(6):
            assert amps[n + 1] / amps[n] == pytest.approx(
                beta / math.sqrt(n + 1), abs=1e-12
            )


    def test_coherent_amplitudes_array_matches_scalar_calls(self):
        betas = np.array([[0.7 + 0.1j, 0.0, -1.2], [0.5 - 0.4j, 2j, 1e-3]])
        amps = coherent_amplitudes(betas, 40)
        assert amps.shape == (2, 3, 40)
        for idx in np.ndindex(betas.shape):
            assert np.array_equal(amps[idx], coherent_amplitudes(betas[idx], 40))
        assert amps[0, 1] == pytest.approx(np.eye(40)[0])

    def test_coherent_amplitudes_array_guard(self):
        # one entry past |beta|^2 <= fock_dim/9 rejects the whole array
        with pytest.raises(ValueError, match="exceeds fock_dim/9"):
            coherent_amplitudes(np.array([0.1, 1.0 + 0.1j]), 9)


class TestFidelity:
    def test_self_and_orthogonal(self, small_layout):
        g0 = basis_state(small_layout, "gg", 0)
        e0 = basis_state(small_layout, "eg", 0)
        assert fidelity(g0, g0) == pytest.approx(1.0)
        assert fidelity(g0, e0) == pytest.approx(0.0)

    def test_symmetry(self, small_layout, rng):
        v1 = rng.standard_normal(small_layout.dim) + 1j * rng.standard_normal(
            small_layout.dim
        )
        v2 = rng.standard_normal(small_layout.dim) + 1j * rng.standard_normal(
            small_layout.dim
        )
        k1 = Ket(small_layout, v1).normalized()
        k2 = Ket(small_layout, v2).normalized()
        assert fidelity(k1, k2) == pytest.approx(fidelity(k2, k1), abs=1e-14)

    def test_rejects_unnormalized(self, small_layout):
        g0 = basis_state(small_layout, "gg", 0)
        half = Ket(small_layout, 0.5 * g0.vec)
        with pytest.raises(ValueError):
            fidelity(half, g0)

    def test_rejects_layout_mismatch(self, small_layout, single_layout):
        with pytest.raises(ValueError):
            fidelity(
                basis_state(small_layout, "gg", 0),
                basis_state(single_layout, "g", 0),
            )
