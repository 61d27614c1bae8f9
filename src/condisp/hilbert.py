"""State and operator plumbing for qubits coupled to a single resonator mode.

Tensor ordering is qubit 1 (x) qubit 2 (x) resonator, with the qubit basis
ordered (|e>, |g>) so that sigma_z = diag(1, -1) has |e> as its +1
eigenstate. The resonator is a truncated Fock space of dimension
``fock_dim``. Operators are dense complex128; dimensions stay small
enough (<= 2 qubits, few hundred Fock levels) for that. The propagators
apply the lab generator in one sector form instead, at one qubit or two:
the parity exp(i pi (n + sum_m (1 + sigma_z^m)/2)) splits it into two
real blocks of dim/2, each sector sorted by photon number, so one
qubit's blocks are the tridiagonal chains |g,0>, |e,1>, |g,2>, ... and
|e,0>, |g,1>, |e,2>, .... Each block is built on its own sector's
indices (_embed with an index list), without a dim x dim matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .numerics import expm_skew_hermitian

__all__ = [
    "HilbertLayout",
    "Ket",
    "Operator",
    "identity",
    "basis_state",
    "pauli_on",
    "ladder",
    "displacement",
    "coherent",
    "fidelity",
]

# Norm slack for states entering fidelity and the propagators' norm and overlap
# guards: acceptance criterion 8's drift bound, far above Magnus roundoff (1e-15).
NORM_TOL = 1e-6

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "+": np.array([[0, 1], [0, 0]], dtype=complex),  # |e><g|
    "-": np.array([[0, 0], [1, 0]], dtype=complex),  # |g><e|
}


@dataclass(frozen=True)
class HilbertLayout:
    """Shape of the composite Hilbert space.

    Attributes
    ----------
    n_qubits : int
        Number of two-level systems, 1 or 2.
    fock_dim : int
        Resonator truncation dimension, at least 4.
    """

    n_qubits: int = 2
    fock_dim: int = 32

    def __post_init__(self) -> None:
        if self.n_qubits not in (1, 2):
            raise ValueError(f"n_qubits must be 1 or 2, got {self.n_qubits}")
        if not isinstance(self.fock_dim, int) or self.fock_dim < 4:
            raise ValueError(f"fock_dim must be an int >= 4, got {self.fock_dim}")

    @property
    def dim(self) -> int:
        return 2**self.n_qubits * self.fock_dim

    def index(self, qubits: str, n: int) -> int:
        """Flat index of the product basis state |qubits> (x) |n>.

        ``qubits`` is a string of 'e'/'g' labels, one per qubit, first
        qubit leftmost.
        """
        if len(qubits) != self.n_qubits:
            raise ValueError(
                f"expected {self.n_qubits} qubit labels, got {qubits!r}"
            )
        if not 0 <= n < self.fock_dim:
            raise ValueError(f"Fock index {n} outside [0, {self.fock_dim})")
        idx = 0
        for ch in qubits:
            if ch not in ("e", "g"):
                raise ValueError(f"qubit labels must be 'e' or 'g', got {ch!r}")
            idx = 2 * idx + (0 if ch == "e" else 1)
        return idx * self.fock_dim + n


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Ket:
    """Immutable state vector tagged with its layout."""

    layout: HilbertLayout
    vec: np.ndarray

    def __post_init__(self) -> None:
        vec = np.array(self.vec, dtype=complex)  # defensive copy
        if vec.shape != (self.layout.dim,):
            raise ValueError(
                f"state shape {vec.shape} does not match layout dim {self.layout.dim}"
            )
        if not np.all(np.isfinite(vec)):
            raise ValueError("state contains non-finite amplitudes")
        object.__setattr__(self, "vec", _frozen(vec))

    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def normalized(self) -> "Ket":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return Ket(self.layout, self.vec / n)

    def overlap(self, other: "Ket") -> complex:
        """Inner product <self|other>; layouts must match."""
        if self.layout != other.layout:
            raise ValueError("layout mismatch in overlap")
        return complex(np.vdot(self.vec, other.vec))


@dataclass(frozen=True, eq=False)
class Operator:
    """Immutable dense operator tagged with its layout."""

    layout: HilbertLayout
    mat: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.mat, dtype=complex)
        d = self.layout.dim
        if mat.shape != (d, d):
            raise ValueError(
                f"operator shape {mat.shape} does not match layout dim {d}"
            )
        if not np.all(np.isfinite(mat)):
            raise ValueError("operator contains non-finite entries")
        object.__setattr__(self, "mat", _frozen(mat))

    def dag(self) -> "Operator":
        return Operator(self.layout, self.mat.conj().T)

    def is_hermitian(self, tol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(self.mat - self.mat.conj().T)) <= tol)

    def __matmul__(self, other):
        if isinstance(other, Operator):
            self._check(other)
            return Operator(self.layout, self.mat @ other.mat)
        if isinstance(other, Ket):
            if self.layout != other.layout:
                raise ValueError("layout mismatch in operator application")
            return Ket(self.layout, self.mat @ other.vec)
        return NotImplemented

    def __add__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.layout, self.mat + other.mat)

    def __sub__(self, other: "Operator") -> "Operator":
        self._check(other)
        return Operator(self.layout, self.mat - other.mat)

    def __mul__(self, scalar) -> "Operator":
        return Operator(self.layout, self.mat * complex(scalar))

    __rmul__ = __mul__

    def _check(self, other: "Operator") -> None:
        if not isinstance(other, Operator):
            raise TypeError(f"expected Operator, got {type(other).__name__}")
        if self.layout != other.layout:
            raise ValueError("layout mismatch between operators")


def _embed(layout: HilbertLayout, qubit_mats: dict[int, np.ndarray],
           fock_mat: np.ndarray | None, index: np.ndarray | None = None) -> np.ndarray:
    """Kronecker-embed per-factor matrices into the full space. Given
    product-basis indices, only their rows and columns: each factor
    gathered at their digits, multiplied in np.kron's order, bit for bit."""
    eye2 = np.eye(2, dtype=complex)
    factors = [qubit_mats.get(m, eye2) for m in range(layout.n_qubits)]
    factors.append(
        np.eye(layout.fock_dim, dtype=complex) if fock_mat is None else fock_mat
    )
    if index is None:
        return reduce(np.kron, factors)
    digits = np.unravel_index(index, [len(f) for f in factors])
    return reduce(np.multiply, [f[d][:, d] for f, d in zip(factors, digits)])


def identity(layout: HilbertLayout) -> Operator:
    return Operator(layout, np.eye(layout.dim, dtype=complex))


def basis_state(layout: HilbertLayout, qubits: str, n: int = 0) -> Ket:
    """Product basis state |qubits> (x) |n>, e.g. basis_state(l, "gg", 0)."""
    vec = np.zeros(layout.dim, dtype=complex)
    vec[layout.index(qubits, n)] = 1.0
    return Ket(layout, vec)


def pauli_on(m: int, axis: str, layout: HilbertLayout) -> Operator:
    """Pauli operator on qubit ``m`` embedded in the full space.

    Parameters
    ----------
    m : int
        Qubit index, 0-based.
    axis : str
        One of 'x', 'y', 'z', '+', '-'. The raising operator '+' maps
        |g> to |e>.
    layout : HilbertLayout
    """
    if not 0 <= m < layout.n_qubits:
        raise ValueError(f"qubit index {m} outside layout with {layout.n_qubits} qubit(s)")
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of {sorted(_PAULI)}, got {axis!r}")
    return Operator(layout, _embed(layout, {m: _PAULI[axis]}, None))


def _annihilation(fock_dim: int) -> np.ndarray:
    """Fock-space annihilation operator, sqrt(n) on the super-diagonal."""
    return np.diag(np.sqrt(np.arange(1, fock_dim, dtype=float)), k=1).astype(complex)


def ladder(layout: HilbertLayout) -> Operator:
    """Resonator annihilation operator a, identity on the qubits."""
    return Operator(layout, _embed(layout, {}, _annihilation(layout.fock_dim)))


def _displacement_fock(beta: complex, fock_dim: int) -> np.ndarray:
    """Fock-space displacement exp(beta a^dag - beta* a)."""
    a = _annihilation(fock_dim)
    gen = 1j * (beta * a.conj().T - np.conjugate(beta) * a)  # Hermitian
    return expm_skew_hermitian(gen, 1.0)


def _check_truncation(beta: complex, fock_dim: int) -> None:
    if abs(beta) ** 2 > fock_dim / 9.0:
        raise ValueError(
            f"|beta|^2 = {abs(beta)**2:.3f} exceeds fock_dim/9 = {fock_dim/9.0:.3f}; "
            "raise fock_dim to keep the truncation honest"
        )


def displacement(beta: complex, layout: HilbertLayout) -> Operator:
    """Displacement exp(beta a^dag - beta* a) on the resonator factor.

    Acts as the identity on the qubits. Requires |beta|^2 <= fock_dim/9 so
    the displaced vacuum stays comfortably inside the truncated space.
    """
    beta = complex(beta)
    if not (math.isfinite(beta.real) and math.isfinite(beta.imag)):
        raise ValueError("beta must be finite")
    _check_truncation(beta, layout.fock_dim)
    return Operator(layout, _embed(layout, {}, _displacement_fock(beta, layout.fock_dim)))


def coherent_amplitudes(beta, fock_dim: int) -> np.ndarray:
    """Truncated coherent-state amplitudes e^{-|b|^2/2} b^n / sqrt(n!).

    beta is a number or an array; the amplitudes run along a new last
    axis, so the result has shape beta.shape + (fock_dim,). The largest
    |beta| must pass the truncation budget.
    """
    beta = np.asarray(beta, dtype=complex)
    _check_truncation(beta.flat[np.argmax(np.abs(beta))], fock_dim)
    n = np.arange(fock_dim)
    mag = np.abs(beta)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0) at beta = 0
        powers = np.where(n > 0, n * np.log(mag), 0.0)
    log_mag = -0.5 * mag ** 2 + powers \
        - 0.5 * np.array([math.lgamma(k + 1) for k in n])
    amps = np.exp(log_mag) * np.exp(1j * n * np.angle(beta)[..., None])
    # renormalize the (tiny) truncated tail
    return amps / np.linalg.norm(amps, axis=-1, keepdims=True)


def coherent(beta: complex, layout: HilbertLayout) -> Ket:
    """Coherent state of the resonator with the qubit(s) in |g...g>."""
    vec = np.zeros(layout.dim, dtype=complex)
    base = layout.index("g" * layout.n_qubits, 0)
    vec[base:base + layout.fock_dim] = coherent_amplitudes(beta, layout.fock_dim)
    return Ket(layout, vec)


def fidelity(psi: Ket, phi: Ket) -> float:
    """|<psi|phi>|^2 for unit-norm states on the same layout."""
    if psi.layout != phi.layout:
        raise ValueError("layout mismatch in fidelity")
    for name, k in (("first", psi), ("second", phi)):
        if abs(k.norm() - 1.0) > NORM_TOL:
            raise ValueError(
                f"{name} state norm {k.norm():.9f} deviates from 1 by more than {NORM_TOL}"
            )
    return float(abs(np.vdot(psi.vec, phi.vec)) ** 2)
