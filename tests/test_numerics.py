"""Unit tests for the self-contained numerical kernels.

SciPy is used here purely as an independent test oracle; the library itself
never imports it.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from condisp.numerics import (
    MAX_BESSEL_ORDER,
    argmax_j1,
    bessel_j,
    expm_skew_hermitian,
    first_zero_j0,
)


class TestBesselJ:
    def test_matches_scipy_on_grid(self, rng):
        """Agreement with an independent implementation to 2e-15 for |x|<=20:
        200 of the points on (0, 8], where a power series loses digits, and
        tiny ones, where the recurrence alone overflows; all finite."""
        xs = np.concatenate([
            rng.uniform(-20.0, 20.0, size=60),
            [-20.0, -1.0, -1e-8, 0.0, 1e-8, 0.5, 1.0, 2.0, 5.0, 12.5, 20.0],
            np.linspace(8.0, 0.0, 200, endpoint=False),
            [5e-324, 1e-300, 1e-100, 1e-60, 9.9e-9, -1e-100],
        ])
        orders = [-64, -17, -5, -2, -1, 0, 1, 2, 3, 8, 21, 64]
        got = np.array([[bessel_j(l, x) for x in xs] for l in orders])
        assert np.all(np.isfinite(got))
        assert np.max(np.abs(got - scipy.special.jv(np.array(orders)[:, None], xs))) <= 2e-15

    def test_matches_scipy_at_large_arguments(self, rng):
        """Agreement to 5e-14 on [30, 1e4], where a recurrence started too
        close to x loses digits (1.9e-6 for J_0(1000) with a start at
        x + 40)."""
        xs = np.concatenate([rng.uniform(30.0, 1e4, size=20),
                             [30.0, 60.0, 100.0, 200.0, 500.0, 1000.0, 5000.0, 1e4, -1e4]])
        orders = [-64, 0, 1, 5, 20, 64]
        got = np.array([[bessel_j(l, x) for x in xs] for l in orders])
        assert np.max(np.abs(got - scipy.special.jv(np.array(orders)[:, None], xs))) <= 5e-14

    def test_negative_order_symmetry(self, rng):
        for l in range(1, 12):
            for x in rng.uniform(-15.0, 15.0, size=5):
                assert bessel_j(-l, x) == pytest.approx(
                    (-1) ** l * bessel_j(l, x), abs=1e-14
                )

    def test_recurrence_residual(self, rng):
        """J_{l-1}(x) + J_{l+1}(x) = (2l/x) J_l(x) to 1e-9."""
        for _ in range(40):
            l = int(rng.integers(-10, 11))
            x = float(rng.uniform(0.5, 10.0))
            lhs = bessel_j(l - 1, x) + bessel_j(l + 1, x)
            rhs = 2.0 * l / x * bessel_j(l, x)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_anchor_values(self):
        assert bessel_j(0, 0.0) == 1.0
        assert bessel_j(1, 0.0) == 0.0
        assert bessel_j(1, 1.20242) == pytest.approx(0.499, abs=5e-4)
        assert bessel_j(1, 1.832) == pytest.approx(0.582, abs=5e-4)
        assert abs(bessel_j(0, 2.40483)) < 5e-6

    def test_large_argument_scale(self):
        # Miller recurrence region: high order, moderate argument.
        assert bessel_j(40, 12.0) == pytest.approx(
            scipy.special.jv(40, 12.0), abs=1e-15
        )

    def test_order_validation(self):
        with pytest.raises(ValueError):
            bessel_j(MAX_BESSEL_ORDER + 1, 1.0)
        with pytest.raises(ValueError):
            bessel_j(-MAX_BESSEL_ORDER - 1, 1.0)
        with pytest.raises(ValueError):
            bessel_j(1.5, 1.0)  # type: ignore[arg-type]
        with pytest.raises(ValueError):
            bessel_j(True, 1.0)  # type: ignore[arg-type]

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            bessel_j(0, float("nan"))
        with pytest.raises(ValueError):
            bessel_j(0, float("inf"))
        for x in (1.0001e4, -1e5, 1e12):
            with pytest.raises(ValueError, match=r"\|x\| <= 10000"):
                bessel_j(0, x)


class TestRootFinding:
    def test_both_bisections_keep_their_floats(self):
        """first_zero_j0 and argmax_j1 share one bisection, bit for bit
        the two loops it replaced."""
        assert first_zero_j0() == 2.4048255576957724
        assert argmax_j1() == 1.8411837813406593

    def test_first_zero_j0(self):
        root = first_zero_j0()
        assert root == pytest.approx(2.404825557695773, abs=1e-8)
        assert abs(bessel_j(0, root)) < 1e-10
        # Agrees with the conventional 5-decimal value.
        assert root == pytest.approx(2.40483, abs=5e-6)

    def test_argmax_j1(self):
        peak = argmax_j1()
        assert peak == pytest.approx(1.8411837813406593, abs=1e-6)
        # Local-maximum property.
        assert bessel_j(1, peak) >= bessel_j(1, peak - 1e-3)
        assert bessel_j(1, peak) >= bessel_j(1, peak + 1e-3)
        assert bessel_j(1, peak) == pytest.approx(0.5819, abs=5e-4)


class TestExpmSkewHermitian:
    def test_zero_matrix(self):
        out = expm_skew_hermitian(np.zeros((4, 4)), 1.3)
        assert np.allclose(out, np.eye(4), atol=1e-15)

    def test_pauli_z_half_turn(self):
        sz = np.diag([1.0, -1.0]).astype(complex)
        out = expm_skew_hermitian(sz, np.pi)
        assert np.allclose(out, -np.eye(2), atol=1e-12)

    def test_matches_scipy_expm(self, rng):
        for dim in (2, 5, 8, 16):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = 0.5 * (a + a.conj().T)
            tau = float(rng.uniform(0.05, 2.0))
            ours = expm_skew_hermitian(h, tau)
            ref = scipy.linalg.expm(-1j * tau * h)
            assert np.max(np.abs(ours - ref)) <= 1e-9

    def test_unitary_and_unimodular(self, rng):
        for dim in (3, 9, 16):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = 0.5 * (a + a.conj().T)
            u = expm_skew_hermitian(h, 0.7)
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) <= 1e-9
            assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-8

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            expm_skew_hermitian(m, 1.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            expm_skew_hermitian(np.zeros((2, 3)), 1.0)
