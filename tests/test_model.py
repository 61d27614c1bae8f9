"""Unit tests for the Hamiltonian builders in the four frames.

The two load-bearing oracles here are:

* the sideband expansion of the rotating-frame Hamiltonian against a
  directly-assembled closed form with exact exp(+-i alpha cos) phase
  factors, and
* the frame-generator identity  U^dag H U - i U^dag (dU/dt)  against the
  rotating-frame builder, with dU/dt from a central finite difference.

Both are independent reconstructions, not re-executions of library code.
"""

from __future__ import annotations

import itertools
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import oracle_helpers
from condisp import DriveParams, HilbertLayout, SystemParams, model
from condisp.hilbert import basis_state
from condisp.model import (
    _assemble_parts,
    ValidityReport,
    driven_hamiltonian,
    effective_couplings,
    effective_hamiltonian,
    frame_phases,
    frame_transform,
    hamiltonian_fn,
    rotating_frame_hamiltonian,
    validity_report,
)
from condisp.numerics import bessel_j


class TestParams:
    def test_eta_and_auto_coupling(self):
        p = SystemParams(omega_q=3.0, g=0.2)
        assert p.eta == pytest.approx(3.0)
        assert p.d_coupling == pytest.approx(0.04)  # g^2 / omega_r
        p2 = SystemParams(omega_q=3.0, g=0.2, d_coupling=0.01)
        assert p2.d_coupling == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemParams(omega_q=-1.0, g=0.2)
        with pytest.raises(ValueError):
            SystemParams(omega_q=3.0, g=0.2, omega_r=0.0)
        with pytest.raises(ValueError):
            SystemParams(omega_q=3.0, g=0.2, n_qubits=3)
        # g^2 past the float range, and g^2 / omega_r past it
        with pytest.raises(ValueError, match=r"g = 1e\+200 is too large"):
            SystemParams(omega_q=3.0, g=1e200)
        with pytest.raises(ValueError, match=r"d_coupling must be finite, got inf"):
            SystemParams(omega_q=3.0, g=1e150, omega_r=1e-10)

    def test_drive_from_alpha_round_trip(self):
        d = DriveParams.from_alpha((1.2, -0.7), 3.0)
        assert d.alpha == pytest.approx((1.2, -0.7))
        assert d.epsilon == pytest.approx((3.6, -2.1))

    def test_drive_validation(self):
        with pytest.raises(ValueError):
            DriveParams(epsilon=(1.0,), omega_d=0.0)


def lab_static(params: SystemParams, layout: HilbertLayout) -> np.ndarray:
    """The static lab Hamiltonian: driven_hamiltonian at zero modulation."""
    drive = DriveParams(epsilon=(0.0,) * params.n_qubits, omega_d=params.omega_q)
    return driven_hamiltonian(params, drive, 0.37, layout).mat


class TestLabHamiltonian:
    def test_uncoupled_spectrum(self, small_layout):
        p = SystemParams(omega_q=3.0, g=0.0, d_coupling=0.0)
        h = lab_static(p, small_layout)
        nf = small_layout.fock_dim
        expected = []
        for s1 in (+1, -1):
            for s2 in (+1, -1):
                for n in range(nf):
                    expected.append(1.5 * s1 + 1.5 * s2 + n)
        assert np.sort(np.linalg.eigvalsh(h)) == pytest.approx(
            np.sort(expected), abs=1e-12
        )

    def test_matches_hand_built_matrix(self, small_layout, std_params):
        """Independent kron-by-hand assembly of the static Hamiltonian."""
        p = std_params
        nf = small_layout.fock_dim
        sz = np.diag([1.0, -1.0]).astype(complex)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        e2 = np.eye(2, dtype=complex)
        ef = np.eye(nf, dtype=complex)
        a = np.diag(np.sqrt(np.arange(1, nf)), k=1).astype(complex)
        ref = (
            p.omega_q / 2 * (np.kron(np.kron(sz, e2), ef) + np.kron(np.kron(e2, sz), ef))
            + p.omega_r * np.kron(np.kron(e2, e2), a.conj().T @ a)
            + p.g * np.kron(np.kron(sx, e2), a + a.conj().T)
            + p.g * np.kron(np.kron(e2, sx), a + a.conj().T)
            + 2 * p.d_coupling * np.kron(np.kron(sx, sx), ef)
        )
        h = lab_static(p, small_layout)
        assert np.max(np.abs(h - ref)) <= 1e-12

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_uncoupled_diagonal_is_exact(self, n_qubits):
        """omega_r n + (omega_q/2) sum_m s_m bit for bit: integer photon
        numbers, not sqrt(n) sqrt(n) (which gives 2.0000000000000004)."""
        nf = 9
        p = SystemParams(omega_q=3.0, g=0.0, n_qubits=n_qubits, d_coupling=0.0)
        expected = [p.omega_r * n + 0.5 * p.omega_q * sum(signs)
                    for signs in itertools.product((1, -1), repeat=n_qubits)
                    for n in range(nf)]
        h = lab_static(p, HilbertLayout(n_qubits, nf))
        assert np.array_equal(h.diagonal().real, expected)

    def test_ground_sector_energy(self, small_layout, std_params):
        gg0 = basis_state(small_layout, "gg", 0).vec
        h = lab_static(std_params, small_layout)
        assert np.vdot(gg0, h @ gg0).real == pytest.approx(-std_params.omega_q, abs=1e-12)

    def test_single_qubit_layout(self, single_layout):
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
        h = lab_static(p, single_layout)
        assert np.array_equal(h, h.conj().T)
        # No qubit-qubit exchange term in a single-qubit system.
        g0 = basis_state(single_layout, "g", 0).vec
        assert np.vdot(g0, h @ g0).real == pytest.approx(-1.5, abs=1e-12)

    def test_layout_mismatch_rejected(self, single_layout, std_params):
        with pytest.raises(ValueError, match="layout has 1"):
            lab_static(std_params, single_layout)


class TestDrivenHamiltonian:
    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_zero_modulation_reduces_to_lab(self, n_qubits):
        """Exact equality: the sector-built blocks hold the full product-basis
        matrix's entries bit for bit, and it has none between the sectors."""
        lay = HilbertLayout(n_qubits, 10)
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=n_qubits)
        d = DriveParams(epsilon=(0.0,) * n_qubits, omega_d=3.0)
        h = driven_hamiltonian(p, d, 0.37, lay).mat
        full = model._lab_matrix(p, lay, np.arange(lay.dim)[None])[0]
        assert np.max(np.abs(h - full)) == 0.0

    def test_modulation_enters_as_sigma_z_shift(self, small_layout, std_params, std_drive):
        t = 1.234
        h = driven_hamiltonian(std_params, std_drive, t, small_layout).mat
        h0 = lab_static(std_params, small_layout)
        mod = np.sin(std_drive.omega_d * t - std_drive.phi)
        ref = sum(
            std_drive.epsilon[m] / 2 * mod * oracle_helpers.pauli_on(m, "z", small_layout)
            for m in range(2)
        )
        assert np.max(np.abs((h - h0) - ref)) <= 1e-12

    def test_periodicity(self, small_layout, std_params, std_drive):
        period = 2 * np.pi / std_drive.omega_d
        h1 = driven_hamiltonian(std_params, std_drive, 0.4, small_layout).mat
        h2 = driven_hamiltonian(std_params, std_drive, 0.4 + period, small_layout).mat
        assert np.max(np.abs(h1 - h2)) <= 1e-12


class TestFrameTransform:
    def test_identity_at_t0_when_phi_half_pi(self, small_layout, std_params, std_drive):
        # At phi = pi/2 the modulation phase cos(-phi) vanishes, so U(0) = 1.
        u = frame_transform(0.0, std_params, std_drive, small_layout).mat
        assert np.max(np.abs(u - np.eye(small_layout.dim))) <= 1e-12

    def test_unitary_and_diagonal(self, small_layout, std_params, std_drive, rng):
        for t in rng.uniform(0, 10, 20):
            u = frame_transform(t, std_params, std_drive, small_layout).mat
            assert np.max(np.abs(u @ u.conj().T - np.eye(small_layout.dim))) <= 1e-10
            assert np.max(np.abs(u - np.diag(np.diag(u)))) == 0.0

    def test_frame_phases_match_transform_diagonal(
        self, small_layout, std_params, std_drive
    ):
        t = 0.81
        u = frame_transform(t, std_params, std_drive, small_layout).mat
        ph = frame_phases(t, std_params, std_drive, small_layout)
        assert np.max(np.abs(np.diag(u) - ph)) <= 1e-14

    @pytest.mark.parametrize("n_qubits", [1, 2])
    def test_frame_phases_vectorised_over_times(self, n_qubits, rng):
        lay = HilbertLayout(n_qubits, 6)
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=n_qubits)
        alpha = (1.832,) if n_qubits == 1 else (1.2, -0.7)
        d = DriveParams.from_alpha(alpha, 3.1, phi=1.1)
        times = rng.uniform(0, 10, (3, 4))
        ph = frame_phases(times, p, d, lay)
        assert ph.shape == (3, 4, lay.dim)
        for idx in np.ndindex(times.shape):
            assert np.array_equal(ph[idx], frame_phases(float(times[idx]), p, d, lay))

    def test_generator_identity(self, std_params, std_drive):
        """U^dag H_driven U - i U^dag dU/dt equals the rotating-frame builder.

        dU/dt by central finite difference with step 1e-6 drive periods,
        checked on a 200-point grid spanning one drive period.
        """
        residual = oracle_helpers.max_generator_residual(
            std_params, std_drive, HilbertLayout(2, 8), n_grid=200
        )
        assert residual <= 1e-8


class TestRotatingFrame:
    def test_expansion_matches_closed_form(self, small_layout, std_params, std_drive, rng):
        """Sideband series vs directly assembled exp(+-i alpha cos) phases."""
        times = rng.uniform(0.0, 2 * np.pi / std_drive.omega_d, 50)
        residual = oracle_helpers.max_expansion_residual(
            std_params, std_drive, small_layout, times, l_max=20
        )
        assert residual <= 1e-9

    def test_zero_modulation_single_qubit_form(self, single_layout):
        """With no modulation only the bare red/blue sideband terms remain."""
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
        d = DriveParams(epsilon=(0.0,), omega_d=3.0)
        lay = single_layout
        a = oracle_helpers.ladder(lay)
        ad = a.conj().T
        sp = oracle_helpers.pauli_on(0, "+", lay)
        sm = oracle_helpers.pauli_on(0, "-", lay)
        t = 0.63
        c1 = p.g * np.exp(1j * (p.omega_r - p.omega_q) * t)
        c2 = p.g * np.exp(1j * (p.omega_r + p.omega_q) * t)
        ref = (
            c1 * (ad @ sm)
            + np.conj(c1) * (ad @ sm).conj().T
            + c2 * (ad @ sp)
            + np.conj(c2) * (ad @ sp).conj().T
        )
        ours = rotating_frame_hamiltonian(p, d, t, lay, l_max=12).mat
        assert np.max(np.abs(ours - ref)) <= 1e-12

    def test_hermitian_at_random_times(self, small_layout, std_params, std_drive, rng):
        for t in rng.uniform(0, 7, 10):
            h = rotating_frame_hamiltonian(std_params, std_drive, t, small_layout).mat
            assert np.max(np.abs(h - h.conj().T)) <= 1e-10

    def test_l_max_validation(self, small_layout, std_params, std_drive):
        with pytest.raises(ValueError):
            rotating_frame_hamiltonian(std_params, std_drive, 0.0, small_layout, l_max=4)

    def test_exchange_suppression_at_carrier_zero(self):
        # Opposite indices with difference at the first root of the l=0
        # weight leave the static exchange term suppressed by |J_0| <= 1e-5.
        alpha_half = 2.40483 / 2
        assert abs(bessel_j(0, 2 * alpha_half)) <= 1e-5


class TestEffectiveHamiltonian:
    def test_couplings_value_and_sign(self, std_params, std_drive):
        g1, g2 = effective_couplings(std_params, std_drive)
        assert g1 == pytest.approx(0.2 * 0.499, abs=2e-4)
        assert g2 == pytest.approx(-g1, abs=1e-15)

    def test_matrix_form_at_t0(self, small_layout, std_params, std_drive):
        h = effective_hamiltonian(std_params, std_drive, 0.0, small_layout).mat
        a = oracle_helpers.ladder(small_layout)
        geffs = effective_couplings(std_params, std_drive)
        ref = sum(
            geffs[m] * oracle_helpers.pauli_on(m, "x", small_layout) @ (a + a.conj().T)
            for m in range(2)
        )
        assert np.max(np.abs(h - ref)) <= 1e-12

    def test_rotating_resonator_phase(self, small_layout, std_params, std_drive):
        # At t the resonator quadrature rotates: coefficient of a^dag sigma_x
        # picks up exp(i omega_r t).
        t = 0.9
        h = effective_hamiltonian(std_params, std_drive, t, small_layout).mat
        assert np.max(np.abs(h - h.conj().T)) <= 1e-12
        idx_e1 = small_layout.index("eg", 1)
        idx_g0 = small_layout.index("gg", 0)
        val = h[idx_e1, idx_g0]
        g1 = effective_couplings(std_params, std_drive)[0]
        assert val == pytest.approx(g1 * np.exp(1j * std_params.omega_r * t), abs=1e-12)

    def test_requires_quadrature_phase(self, small_layout, std_params):
        d = DriveParams.from_alpha((1.2, -1.2), 3.0, phi=0.0)
        with pytest.raises(ValueError):
            effective_hamiltonian(std_params, d, 0.0, small_layout)


class TestSingleQubitChains:
    """One-qubit providers keep their parts as the two parity chains; the
    dense H(t) they return must still be the product-basis Hamiltonian."""

    @staticmethod
    def _kron_ops(fock_dim):
        sz = np.diag([1.0, -1.0])  # qubit basis (|e>, |g>)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        a = np.diag(np.sqrt(np.arange(1, fock_dim)), 1)
        return sz, sx, a, np.eye(2), np.eye(fock_dim)

    def test_driven_matches_kronecker(self, single_layout):
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
        d = DriveParams.from_alpha((1.832,), 3.0)
        sz, sx, a, i2, i_f = self._kron_ops(single_layout.fock_dim)
        for t in (0.0, 0.37, 2.9):
            split = p.omega_q + d.epsilon[0] * np.sin(d.omega_d * t - d.phi)
            ref = (p.omega_r * np.kron(i2, a.T @ a) + 0.5 * split * np.kron(sz, i_f)
                   + p.g * np.kron(sx, a + a.T))
            h = driven_hamiltonian(p, d, t, single_layout).mat
            assert np.max(np.abs(h - ref)) <= 1e-13

    def test_effective_matches_kronecker(self, single_layout):
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=1)
        d = DriveParams.from_alpha((1.832,), 3.0)
        geff = p.g * bessel_j(1, 1.832)
        _, sx, a, _, _ = self._kron_ops(single_layout.fock_dim)
        for t in (0.0, 0.37, 2.9):
            ph = np.exp(1j * p.omega_r * t)
            ref = geff * (ph * np.kron(sx, a.T) + np.conj(ph) * np.kron(sx, a))
            h = effective_hamiltonian(p, d, t, single_layout).mat
            assert np.max(np.abs(h - ref)) <= 1e-13


class TestTwoQubitBlocks:
    """The two-qubit lab provider keeps its parts as two real parity blocks;
    the dense H(t) they reassemble to must still be the product-basis
    Hamiltonian."""

    def test_driven_matches_kronecker(self, small_layout, std_params, std_drive):
        nf = small_layout.fock_dim
        sz = np.diag([1.0, -1.0])  # qubit basis (|e>, |g>)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        a = np.diag(np.sqrt(np.arange(1, nf)), 1)
        i2, i_f = np.eye(2), np.eye(nf)
        sz1, sz2 = np.kron(np.kron(sz, i2), i_f), np.kron(np.kron(i2, sz), i_f)
        sx1, sx2 = np.kron(np.kron(sx, i2), i_f), np.kron(np.kron(i2, sx), i_f)
        n = np.kron(np.eye(4), a.T @ a)
        x = np.kron(np.eye(4), a + a.T)
        p, d = std_params, std_drive
        fn = hamiltonian_fn(p, d, "lab-driven", small_layout)
        for t in (0.0, 0.37, 2.9):
            s = np.sin(d.omega_d * t - d.phi)
            ref = (p.omega_r * n
                   + 0.5 * (p.omega_q + d.epsilon[0] * s) * sz1
                   + 0.5 * (p.omega_q + d.epsilon[1] * s) * sz2
                   + p.g * x @ (sx1 + sx2) + 2.0 * p.d_coupling * sx1 @ sx2)
            assert np.max(np.abs(fn(t) - ref)) <= 1e-13

    def test_blocks_are_the_parity_sectors(self, small_layout, std_params, std_drive):
        nf = small_layout.fock_dim
        # parity exp(i pi (n + number of excited qubits)), basis (|e>, |g>)
        excited = np.repeat([2, 1, 1, 0], nf)
        parity = (np.tile(np.arange(nf), 4) + excited) % 2
        fn = hamiltonian_fn(std_params, std_drive, "lab-driven", small_layout)
        order, m = fn.parts.order, small_layout.dim // 2
        assert sorted(order) == list(range(small_layout.dim))
        assert np.all(parity[order[:m]] == 0) and np.all(parity[order[m:]] == 1)
        for cs in ([1.0, 0.0], [0.0, 1.0]):  # each part on its own
            h = _assemble_parts(np.array(cs), fn.parts)
            assert not np.any(h[np.ix_(parity == 0, parity == 1)])
            assert not np.any(h[np.ix_(parity == 1, parity == 0)])


class TestLabBlocks:
    """_lab_blocks is the lab generator's one parts form at either qubit
    count: parity sectors sorted by photon number, each a real block."""

    @staticmethod
    def _setup(n_qubits: int):
        lay = HilbertLayout(n_qubits, 6)
        p = SystemParams(omega_q=3.0, g=0.2, n_qubits=n_qubits)
        alpha = (1.832,) if n_qubits == 1 else (1.20242, -1.20242)
        d = DriveParams.from_alpha(alpha, 3.0)
        # parity exp(i pi (n + number of excited qubits)), basis (|e>, |g>)
        labels = ["".join(q) for q in itertools.product("eg", repeat=n_qubits)]
        parity = np.array([(n + q.count("e")) % 2 for q in labels
                           for n in range(lay.fock_dim)])
        return lay, p, d, parity

    def test_one_qubit_sectors_are_the_parity_chains(self):
        lay, p, d, _ = self._setup(1)
        fn = hamiltonian_fn(p, d, "lab-driven", lay)
        nf = lay.fock_dim
        even = [lay.index("ge"[n % 2], n) for n in range(nf)]  # |g,0>, |e,1>, |g,2>, ...
        odd = [lay.index("eg"[n % 2], n) for n in range(nf)]   # |e,0>, |g,1>, |e,2>, ...
        assert fn.parts.order.tolist() == even + odd
        for block in fn.parts.h0:
            assert not np.any(np.triu(block, 2)) and not np.any(np.tril(block, -2))
            assert np.array_equal(np.diagonal(block, 1), p.g * np.sqrt(np.arange(1, nf)))

    def test_two_qubit_sectors_by_photon_number(self):
        lay, p, d, parity = self._setup(2)
        fn = hamiltonian_fn(p, d, "lab-driven", lay)
        order, m = fn.parts.order, lay.dim // 2
        assert np.all(parity[order[:m]] == 0) and np.all(parity[order[m:]] == 1)
        for half in (order[:m], order[m:]):  # photon number, then product index
            keys = list(zip(half % lay.fock_dim, half))
            assert keys == sorted(keys)
        assert np.any(np.triu(fn.parts.h0[0], 2))  # two qubits are not tridiagonal

    @pytest.mark.parametrize("n_qubits", [1, 2])
    @pytest.mark.parametrize("flaw", ["imaginary"])
    def test_refuses_a_generator_outside_two_real_blocks(self, n_qubits, flaw,
                                                         monkeypatch):
        """The blocks are built per sector, so no entry between the sectors
        can reach them; an imaginary entry within one is refused."""
        lay, p, d, parity = self._setup(n_qubits)
        lab = model._lab_matrix
        i, j = np.flatnonzero(parity == 0)[:2]

        def flawed(params, layout, index):
            h = lab(params, layout, index)
            for block, rows in zip(h, index.tolist()):
                if i in rows and j in rows:
                    a, b = rows.index(i), rows.index(j)
                    block[a, b] += 0.1j  # Hermitian
                    block[b, a] -= 0.1j
            return h

        monkeypatch.setattr(model, "_lab_matrix", flawed)
        with pytest.raises(ValueError, match="not real within the two parity blocks"):
            hamiltonian_fn(p, d, "lab-driven", lay)

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(n_qubits=st.integers(1, 2), fock_dim=st.integers(4, 24),
           omega_q=st.floats(0.5, 6.0), g=st.floats(0.0, 1.5),
           d_coupling=st.floats(-0.5, 0.5), epsilon=st.floats(-6.0, 6.0))
    def test_sector_build_is_the_full_matrix_gathered(self, n_qubits, fock_dim, omega_q,
                                                      g, d_coupling, epsilon):
        """Bit for bit: the blocks built on each sector's indices are the full
        product-basis matrix gathered into parity order, which has no entry
        between the sectors, and H(t) adds the drive on the diagonal."""
        lay = HilbertLayout(n_qubits, fock_dim)
        p = SystemParams(omega_q=omega_q, g=g, n_qubits=n_qubits, d_coupling=d_coupling)
        d = DriveParams((epsilon, -0.5 * epsilon)[:n_qubits], omega_d=omega_q)
        parts = hamiltonian_fn(p, d, "lab-driven", lay).parts
        full = model._lab_matrix(p, lay, np.arange(lay.dim)[None])[0]
        gathered = full[np.ix_(parts.order, parts.order)]
        m = lay.dim // 2
        assert not np.any(gathered[:m, m:]) and not np.any(gathered[m:, :m])
        assert not np.any(full.imag)
        assert np.array_equal(parts.h0, np.stack((gathered.real[:m, :m],
                                                  gathered.real[m:, m:])))
        t = 0.37
        s = np.sin(d.omega_d * t - d.phi)
        drive = sum(0.5 * e * oracle_helpers.pauli_on(k, "z", lay).real.diagonal()
                    for k, e in enumerate(d.epsilon))
        assert np.array_equal(driven_hamiltonian(p, d, t, lay).mat,
                              full + np.diag(s * drive))


class TestStack:
    """_stack lays lab parts' parity sectors end to end, each with its own
    phi; _mirrored's generator is H(t - tau)."""

    @staticmethod
    def _members(n_qubits: int, eta: float):
        lay = HilbertLayout(n_qubits, 6)
        alpha = (1.832,) if n_qubits == 1 else (1.20242, -1.20242)
        d = DriveParams.from_alpha(alpha, eta)
        h = hamiltonian_fn(SystemParams(omega_q=eta, g=0.2, n_qubits=n_qubits), d,
                           "lab-driven", lay)
        other = hamiltonian_fn(SystemParams(omega_q=eta, g=0.45, n_qubits=n_qubits), d,
                               "lab-driven", lay)  # a sweep point: only h0 differs
        return h, replace(h, parts=model._mirrored(h.parts, np.pi)), other

    @pytest.mark.parametrize("n_qubits, eta", [(1, 2.5), (2, 3.3)])
    def test_dense_is_the_block_diagonal_of_the_members(self, n_qubits, eta):
        members = self._members(n_qubits, eta)
        stack = model._LabProvider(model._stack([m.parts for m in members]),
                                   members[0].omega_max)
        phis = [m.parts.phi[0] for m in members]
        assert phis[0] != phis[1] and stack.parts.phi.tolist() == np.repeat(phis, 2).tolist()
        assert stack.parts.member.tolist() == [0, 0, 1, 1, 2, 2]
        for t in (0.0, 0.37, 2.9):
            assert np.array_equal(stack(t), scipy.linalg.block_diag(*(m(t) for m in members)))

    @pytest.mark.parametrize("n_qubits, eta", [(1, 2.5), (2, 3.3)])
    def test_mirrored_generator(self, n_qubits, eta):
        """_mirrored(parts, t) is H(t - tau), for the cat's half period,
        the gate's period and any other t, and it changes only phi."""
        h, _, _ = self._members(n_qubits, eta)
        for t in (np.pi, 2 * np.pi, 1.1):
            parts = model._mirrored(h.parts, t)
            assert all(getattr(parts, f) is getattr(h.parts, f)
                       for f in ("h0", "diag", "order", "member"))
            mirror = model._LabProvider(parts, h.omega_max)
            for tau in (0.0, 0.37, 2.9):
                assert np.max(np.abs(mirror(tau) - h(t - tau))) <= 1e-13

    def test_a_stack_of_stacks_numbers_every_member(self):
        h, mirror, other = self._members(1, 2.5)
        nested = model._stack([model._stack([h.parts, mirror.parts]), other.parts])
        flat = model._stack([h.parts, mirror.parts, other.parts])
        assert nested.member.tolist() == [0, 0, 1, 1, 2, 2]
        assert np.array_equal(model._LabProvider(nested, h.omega_max)(0.4),
                              model._LabProvider(flat, h.omega_max)(0.4))

    def test_refusals(self):
        h, _, _ = self._members(1, 2.5)
        p = SystemParams(omega_q=2.5, g=0.2, n_qubits=1)
        wider = hamiltonian_fn(p, DriveParams.from_alpha((1.832,), 2.5), "lab-driven",
                               HilbertLayout(1, 8))
        detuned = hamiltonian_fn(p, DriveParams.from_alpha((1.832,), 2.4), "lab-driven",
                                 h.layout)
        for other in (wider, detuned):
            with pytest.raises(ValueError, match="sector size and omega_d"):
                model._stack([h.parts, other.parts])


def _conditions(rep: ValidityReport) -> dict:
    """The report's conditions by name."""
    return {c.name: c for c in rep.conditions}


class TestValidityReport:
    def test_reference_point_all_satisfied(self, std_params, std_drive):
        rep = validity_report(std_params, std_drive)
        assert isinstance(rep, ValidityReport)
        assert rep.eta == pytest.approx(3.0)
        assert all(c.satisfied for c in rep.conditions)
        assert {c.name for c in rep.conditions} == {
            "eta_above_2",
            "drive_resonant",
            "phase_quadrature",
            "single_photon_carrier",
            "counter_rotating_sideband",
            "flip_flop_cancelled",
            "double_excitation_weak",
        }

    def test_single_photon_margin_value(self, std_params, std_drive):
        # eta / (g_eff) style ratio: approximately 15 at the reference point.
        rep = validity_report(std_params, std_drive)
        assert _conditions(rep)["single_photon_carrier"].margin == pytest.approx(14.9, abs=0.2)

    def test_low_eta_flagged(self, std_drive):
        p = SystemParams(omega_q=1.5, g=0.2)
        d = DriveParams.from_alpha((1.20242, -1.20242), 1.5)
        rep = validity_report(p, d)
        assert not _conditions(rep)["eta_above_2"].satisfied
        assert not all(c.satisfied for c in rep.conditions)

    def test_zero_modulation_breaks_flip_flop_cancellation(self, std_params):
        d = DriveParams(epsilon=(0.0, 0.0), omega_d=3.0)
        rep = validity_report(std_params, d)
        assert not _conditions(rep)["flip_flop_cancelled"].satisfied

    def test_off_resonant_drive_flagged(self, std_params):
        d = DriveParams.from_alpha((1.20242, -1.20242), 2.5)
        rep = validity_report(std_params, d)
        assert not _conditions(rep)["drive_resonant"].satisfied


class TestProviders:
    def test_omega_max_values(self, small_layout, std_params, std_drive):
        """The lab provider's step scale is the peak splitting."""
        p, d = std_params, std_drive
        eps = max(abs(e) for e in d.epsilon)
        fn = hamiltonian_fn(p, d, "lab-driven", small_layout)
        assert fn.omega_max == pytest.approx(p.omega_q + eps)

    def test_hamiltonian_fn_attributes_and_values(
        self, small_layout, std_params, std_drive
    ):
        """The lab provider carries what the propagators read off it; it and
        the single-time builders of the other frames are Hermitian."""
        fn = hamiltonian_fn(std_params, std_drive, "lab-driven", small_layout)
        assert fn.layout == small_layout
        for h in (fn(0.731),
                  rotating_frame_hamiltonian(std_params, std_drive, 0.731, small_layout).mat,
                  effective_hamiltonian(std_params, std_drive, 0.731, small_layout).mat):
            assert h.shape == (small_layout.dim, small_layout.dim)
            assert np.max(np.abs(h - h.conj().T)) <= 1e-10

    def test_provider_matches_builders(self, small_layout, std_params, std_drive):
        t = 1.17
        ref = driven_hamiltonian(std_params, std_drive, t, small_layout)
        fn = hamiltonian_fn(std_params, std_drive, "lab-driven", small_layout)
        assert np.max(np.abs(fn(t) - ref.mat)) <= 1e-12

    @pytest.mark.parametrize("frame", ["rotating", "effective", "interaction"])
    def test_other_frames_are_refused(self, small_layout, std_params, std_drive, frame):
        """hamiltonian_fn builds only the lab provider, and names the
        single-time builders of the other frames."""
        with pytest.raises(ValueError, match=f"not '{frame}'; rotating_frame_hamiltonian "
                                             "and effective_hamiltonian"):
            hamiltonian_fn(std_params, std_drive, frame, small_layout)
