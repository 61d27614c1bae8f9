"""Bessel evaluation and skew-Hermitian matrix exponentials.

Dense numerical kernels shared by the Hamiltonian builders and the
propagators. Bessel functions of integer order are evaluated by Miller's
backward recurrence, with the leading term (x/2)^l / l! standing in below
x = 1e-8, where it is exact to double precision and the recurrence would
overflow; orders are capped at |l| <= 64, which is far beyond any sideband
index that survives truncation in the rotating-frame expansion, and
arguments at |x| <= 1e4, far beyond any modulation index the model uses.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

__all__ = [
    "MAX_BESSEL_ORDER",
    "MAX_BESSEL_ARG",
    "bessel_j",
    "first_zero_j0",
    "argmax_j1",
    "expm_skew_hermitian",
]

MAX_BESSEL_ORDER = 64
# The recurrence runs about |x| steps, and its start index is sized for
# double precision up to here.
MAX_BESSEL_ARG = 1e4

# Below this J_l(x) = (x/2)^l / l! to double precision: the next term is
# smaller by (x/2)^2 / (l+1) < 3e-17.
_TINY_X = 1e-8

_HERMITICITY_TOL = 1e-10


def _bessel_miller(order: int, x: float) -> float:
    """Miller backward recurrence for J_order(x), order >= 0, x > 0.

    Runs the three-term recurrence downward from an index well above both
    the order and the turning point m ~ x, then normalizes with
    J_0 + 2*(J_2 + J_4 + ...) = 1. Past the turning point J_m(x) decays
    like exp(-c (m - x)^{3/2} / x^{1/2}), so the start sits 40 + 10 x^{1/3}
    above it.
    """
    m_start = max(order, math.ceil(x)) + 40 + math.ceil(10.0 * x ** (1.0 / 3.0))
    if m_start % 2:
        m_start += 1
    jp1 = 0.0
    j = 1e-30
    even_sum = 0.0
    target = j if order == m_start else 0.0
    for m in range(m_start, 0, -1):
        jm1 = (2.0 * m / x) * j - jp1
        jp1 = j
        j = jm1
        if m - 1 == order:
            target = j
        if (m - 1) % 2 == 0 and m - 1 > 0:
            even_sum += j
        if abs(j) > 1e250:  # rescale to dodge overflow on long descents
            j *= 1e-250
            jp1 *= 1e-250
            even_sum *= 1e-250
            target *= 1e-250
    norm = j + 2.0 * even_sum  # j now holds the unnormalized J_0
    return target / norm


def bessel_j(order: int, x: float) -> float:
    """Bessel function of the first kind J_order(x) for integer order.

    Parameters
    ----------
    order : int
        Integer order with |order| <= 64.
    x : float
        Finite real argument with |x| <= 1e4. The absolute error against
        SciPy is below 1e-15 over orders -64..64 for |x| <= 30, and below
        5e-14 up to |x| = 1e4.

    Returns
    -------
    float

    Raises
    ------
    ValueError
        If the order is not an admissible integer, x is not finite, or
        |x| > 1e4.
    """
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise ValueError(f"order must be an integer, got {order!r}")
    order = int(order)
    if abs(order) > MAX_BESSEL_ORDER:
        raise ValueError(
            f"order {order} outside supported range |l| <= {MAX_BESSEL_ORDER}"
        )
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if abs(x) > MAX_BESSEL_ARG:
        raise ValueError(f"x = {x:g} outside supported range |x| <= {MAX_BESSEL_ARG:g}")
    sign = 1.0
    if order < 0:  # J_{-l}(x) = (-1)^l J_l(x)
        order = -order
        if order % 2:
            sign = -sign
    if x < 0.0:  # J_l(-x) = (-1)^l J_l(x)
        x = -x
        if order % 2:
            sign = -sign
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    if x < _TINY_X:  # through logs: 0.5 * x underflows at the smallest x
        return sign * math.exp(order * (math.log(x) - math.log(2.0)) - math.lgamma(order + 1))
    return sign * _bessel_miller(order, x)


def _bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Midpoint of a bracket of f's sign change on [lo, hi], halved until
    it is narrower than 1e-15 (or 100 times)."""
    flo = f(lo)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = fmid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def first_zero_j0() -> float:
    """Location of the first positive zero of J_0, by bisection on [2, 3]."""
    return _bisect(lambda x: bessel_j(0, x), 2.0, 3.0)


def argmax_j1() -> float:
    """Location of the first maximum of J_1 on (0, 3).

    Found by bisecting the derivative J_1'(x) = (J_0(x) - J_2(x)) / 2,
    which changes sign exactly once on [1, 3].
    """
    return _bisect(lambda x: 0.5 * (bessel_j(0, x) - bessel_j(2, x)), 1.0, 3.0)


def expm_skew_hermitian(h: np.ndarray, tau: float = 1.0) -> np.ndarray:
    """Unitary exp(-i * h * tau) for Hermitian h.

    Parameters
    ----------
    h : ndarray
        Square Hermitian matrix (checked to max deviation 1e-10).
    tau : float
        Real evolution span in units where h is dimensionless or scaled.

    Returns
    -------
    ndarray
        Unitary matrix; the eigendecomposition route keeps
        max |U^dag U - I| at machine level, well inside the 1e-9 contract.
    """
    h = np.asarray(h, dtype=complex)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError("matrix contains non-finite entries")
    dev = np.max(np.abs(h - h.conj().T)) if h.size else 0.0
    if dev > _HERMITICITY_TOL:
        raise ValueError(
            f"matrix is not Hermitian: max |h - h^dag| = {dev:.3e}"
        )
    tau = float(tau)
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * tau)) @ v.conj().T
