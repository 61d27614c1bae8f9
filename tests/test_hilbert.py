"""Unit tests for the Hilbert-space layout, states, and operators."""

from __future__ import annotations

import math

import numpy as np
import pytest
import scipy.special

import oracle_helpers
from condisp.hilbert import (
    _PAULI,
    HilbertLayout,
    Ket,
    Operator,
    _annihilation,
    _check_truncation,
    _displacement_fock,
    _embed,
    basis_state,
    coherent_amplitudes,
)
from condisp.model import _sigma_z

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

    def test_operator_algebra(self, small_layout):
        """The embedded Paulis obey the Pauli algebra."""
        sx = _embed(small_layout, {0: _PAULI["x"]}, None)
        sp = _embed(small_layout, {0: _PAULI["+"]}, None)
        sm = _embed(small_layout, {0: _PAULI["-"]}, None)
        sz = sp @ sm - sm @ sp
        eye = np.eye(small_layout.dim)
        assert np.array_equal(sx, sx.conj().T) and np.array_equal(sx, sp + sm)
        assert np.array_equal(sx @ sx, eye) and np.array_equal(sp @ sm + sm @ sp, eye)
        assert np.max(np.abs(sx @ sz + sz @ sx)) == 0.0

    def test_operator_layout_mismatch(self, small_layout, single_layout):
        with pytest.raises(ValueError, match="does not match layout dim"):
            Operator(small_layout, np.eye(single_layout.dim))
        with pytest.raises(ValueError, match="non-finite"):
            Operator(single_layout, np.full((single_layout.dim,) * 2, np.inf))

    def test_pauli_embedding_commutes_across_qubits(self, small_layout):
        a = _embed(small_layout, {0: _PAULI["x"]}, None)
        b = _embed(small_layout, {1: _PAULI["+"] @ _PAULI["-"]}, None)
        assert np.max(np.abs(a @ b - b @ a)) == 0.0

    def test_pauli_validation(self, small_layout, single_layout):
        """The test oracle's Paulis refuse a qubit or an axis that is not there."""
        with pytest.raises(ValueError):
            oracle_helpers.pauli_on(1, "x", single_layout)
        with pytest.raises(ValueError):
            oracle_helpers.pauli_on(0, "q", small_layout)

    def test_sigma_z_sign_convention(self, small_layout):
        # |e> is the +1 eigenstate of sigma_z, in the library and the oracle.
        sz = oracle_helpers.pauli_on(0, "z", small_layout)
        assert np.array_equal(sz.diagonal().real, _sigma_z(small_layout)[0])
        e0 = basis_state(small_layout, "eg", 0).vec
        g0 = basis_state(small_layout, "gg", 0).vec
        assert np.vdot(e0, sz @ e0).real == pytest.approx(1.0)
        assert np.vdot(g0, sz @ g0).real == pytest.approx(-1.0)

    def test_raising_operator_direction(self, small_layout):
        for sp in (_embed(small_layout, {0: _PAULI["+"]}, None),
                   oracle_helpers.pauli_on(0, "+", small_layout)):
            g0 = basis_state(small_layout, "gg", 0).vec
            e0 = basis_state(small_layout, "eg", 0).vec
            assert np.array_equal(sp @ g0, e0)
            assert np.max(np.abs(sp @ e0)) == 0.0


class TestResonatorOperators:
    def test_ladder_commutator(self, small_layout):
        nf = small_layout.fock_dim
        a = _embed(small_layout, {}, _annihilation(nf))
        assert np.array_equal(a, oracle_helpers.ladder(small_layout))
        comm = a @ a.conj().T - a.conj().T @ a
        # [a, a^dag] = 1 everywhere except the truncation corner.
        diag = np.diag(comm).reshape(4, nf)
        assert diag[:, :-1] == pytest.approx(np.ones((4, nf - 1)))
        assert diag[:, -1] == pytest.approx((1 - nf) * np.ones(4))

    def test_number_expectation(self, small_layout):
        a = _embed(small_layout, {}, _annihilation(small_layout.fock_dim))
        k = basis_state(small_layout, "gg", 3).vec
        assert np.vdot(k, a.conj().T @ a @ k).real == pytest.approx(3.0, abs=1e-14)

    def test_displacement_unitary(self, small_layout):
        d = _displacement_fock(0.4 + 0.2j, small_layout.fock_dim)
        assert np.max(np.abs(d.conj().T @ d - np.eye(small_layout.fock_dim))) <= 1e-9

    def test_displaced_vacuum_is_coherent(self):
        beta = 0.9 - 0.3j
        disp = _displacement_fock(beta, 24)[:, 0]
        assert abs(np.vdot(disp, coherent_amplitudes(beta, 24))) ** 2 == pytest.approx(
            1.0, abs=1e-10)

    def test_displacement_truncation_guard(self, small_layout):
        # |beta|^2 > fock_dim / 9 must be rejected.
        beta = math.sqrt(small_layout.fock_dim / 9.0) * 1.05
        with pytest.raises(ValueError, match="exceeds fock_dim/9"):
            _check_truncation(beta, small_layout.fock_dim)
        _check_truncation(beta / 1.05, small_layout.fock_dim)

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
