"""Network topology: coupling matrix, normal modes, and the dissipative generator.

A network of N coupled harmonic oscillators (rotating-wave form, time-independent
couplings) is summarized by a real symmetric matrix with the natural frequencies
on the diagonal and the couplings off it.  Diagonalizing that matrix gives the
normal modes; adding half the damping matrix to i times the coupling matrix
gives the complex generator that drives every dissipative quantity downstream.

Units are angular frequency throughout (hbar = k_B = 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DefectiveMatrix,
    NonDissipativeMode,
    NonPositiveNormalMode,
    ValidationError,
)

__all__ = [
    "NetworkSpec",
    "NormalModes",
    "DissipativeMatrix",
    "degenerate_symmetric_network",
    "build_hamiltonian",
    "normal_modes",
    "dissipative_matrix",
    "coupling_regime",
    "WEAK_COUPLING_THRESHOLD",
]

#: Advisory classifier threshold: strong when N * max|coupling| >= threshold * min(omega).
WEAK_COUPLING_THRESHOLD = 0.1

_SYMMETRY_TOL = 1e-12
_ORTHOGONALITY_TOL = 1e-12
_RECONSTRUCTION_TOL = 1e-10
_EIGEN_RECONSTRUCTION_TOL = 1e-9
_CONDITION_LIMIT = 1e12
_DISSIPATIVE_FLOOR = 1e-14


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Scale each column by conj(p)/|p|, p its first entry above 1e-12 in modulus."""
    big = np.abs(vectors) > 1e-12
    lead = vectors[np.argmax(big, axis=0), np.arange(vectors.shape[1])]
    lead = np.where(big.any(axis=0), lead, 1)
    return vectors * (lead.conj() / np.abs(lead))


@dataclass(frozen=True)
class NetworkSpec:
    """Natural frequencies and symmetric coupling matrix of an oscillator network.

    ``omega[m]`` is the natural frequency of oscillator ``m`` (> 0) and
    ``coupling[m, n]`` the exchange coupling between oscillators ``m`` and
    ``n`` (symmetric, zero diagonal).  Instances are immutable and safe to
    share across threads.
    """

    omega: np.ndarray
    coupling: np.ndarray

    def __post_init__(self):
        omega = np.atleast_1d(np.asarray(self.omega, dtype=float))
        coupling = np.asarray(self.coupling, dtype=float)
        if omega.ndim != 1 or omega.size < 1:
            raise ValidationError("omega must be a non-empty 1-d array")
        if np.any(omega <= 0):
            raise ValidationError("all natural frequencies must be positive")
        if coupling.shape != (omega.size, omega.size):
            raise ValidationError(
                f"coupling must be {omega.size}x{omega.size}, got {coupling.shape}"
            )
        scale = max(1.0, float(np.max(np.abs(coupling))))
        if np.max(np.abs(coupling - coupling.T)) > _SYMMETRY_TOL * scale:
            raise ValidationError("coupling matrix must be symmetric")
        if np.max(np.abs(np.diag(coupling))) > _SYMMETRY_TOL * scale:
            raise ValidationError("coupling matrix must have a zero diagonal")
        coupling = 0.5 * (coupling + coupling.T)
        np.fill_diagonal(coupling, 0.0)
        omega.setflags(write=False)
        coupling.setflags(write=False)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "coupling", coupling)

    @property
    def n(self) -> int:
        return self.omega.size


def degenerate_symmetric_network(n: int, omega: float, coupling: float) -> NetworkSpec:
    """All-to-all network with one common frequency and one common coupling."""
    lam = np.full((n, n), float(coupling))
    np.fill_diagonal(lam, 0.0)
    return NetworkSpec(omega=np.full(n, float(omega)), coupling=lam)


def build_hamiltonian(spec: NetworkSpec) -> np.ndarray:
    """Assemble the single-excitation Hamiltonian matrix of the network.

    Diagonal entries are the natural frequencies, off-diagonal entries the
    couplings.  Returns a real symmetric (N, N) array.
    """
    h = spec.coupling.copy()
    np.fill_diagonal(h, spec.omega)
    return h


@dataclass(frozen=True)
class NormalModes:
    """Normal-mode frequencies and the orthogonal transform that produces them.

    Row ``m`` of ``transform`` is the eigenvector belonging to
    ``frequencies[m]``; frequencies are sorted ascending and the transform
    satisfies ``transform @ transform.T == I``.
    """

    frequencies: np.ndarray
    transform: np.ndarray


def normal_modes(h: np.ndarray) -> NormalModes:
    """Diagonalize a symmetric coupling matrix into positive normal modes.

    Raises :class:`NonPositiveNormalMode` if any eigenvalue is <= 0 (the
    formalism assumes a physical regime with positive mode frequencies).
    Eigenvectors are sign-fixed so results are reproducible across runs.
    """
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError("coupling matrix must be square")
    scale = max(1.0, float(np.max(np.abs(h))))
    if np.max(np.abs(h - h.T)) > _SYMMETRY_TOL * scale:
        raise ValidationError("coupling matrix must be symmetric")
    freqs, vecs = np.linalg.eigh(h)
    if freqs[0] <= 0:
        raise NonPositiveNormalMode(
            f"smallest normal-mode frequency {freqs[0]:.6g} is not positive"
        )
    transform = np.ascontiguousarray(_fix_phases(vecs).T)  # rows in C order
    gram = transform @ transform.T
    if np.max(np.abs(gram - np.eye(h.shape[0]))) > _ORTHOGONALITY_TOL:
        raise ValidationError("eigenvector matrix failed the orthogonality check")
    rebuilt = transform.T @ np.diag(freqs) @ transform
    if np.max(np.abs(rebuilt - h)) > _RECONSTRUCTION_TOL * scale:
        raise ValidationError("spectral reconstruction check failed")
    return NormalModes(frequencies=freqs, transform=transform)


@dataclass(frozen=True)
class DissipativeMatrix:
    """Complex generator damping/2 + i*H and its eigendecomposition.

    ``matrix = eigenvectors @ diag(eigenvalues) @ eigenvectors_inv`` with all
    eigenvalues in the right half plane.  Eigenvalues are sorted by ascending
    imaginary part so that, for identical reservoirs, they line up with the
    normal-mode frequencies.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    eigenvectors_inv: np.ndarray


def dissipative_matrix(h: np.ndarray, damping: np.ndarray) -> DissipativeMatrix:
    """Build and diagonalize the dissipative extension of the coupling matrix.

    The generator is ``damping/2 + 1j*h``; it is generally complex
    non-symmetric, so a general dense eigensolver is used without assuming
    normality.

    Raises
    ------
    NonDissipativeMode
        if any eigenvalue has real part <= 1e-14 (undamped mode).
    DefectiveMatrix
        if the eigenvector matrix has condition number above 1e12 or the
        similarity transform fails to reconstruct the generator.
    """
    h = np.asarray(h, dtype=float)
    damping = np.asarray(damping, dtype=float)
    if damping.shape != h.shape:
        raise ValidationError("damping matrix must match the coupling matrix shape")
    hd = damping / 2.0 + 1j * h
    values, vectors = np.linalg.eig(hd)
    order = np.lexsort((values.real, values.imag))
    values = values[order]
    vectors = vectors[:, order]
    if np.min(values.real) <= _DISSIPATIVE_FLOOR:
        raise NonDissipativeMode(
            f"eigenvalue with real part {np.min(values.real):.3g} <= {_DISSIPATIVE_FLOOR}"
        )
    cond = np.linalg.cond(vectors)
    if not np.isfinite(cond) or cond > _CONDITION_LIMIT:
        raise DefectiveMatrix(f"eigenvector condition number {cond:.3g} exceeds 1e12")
    vectors_inv = np.linalg.inv(vectors)
    rebuilt = (vectors * values) @ vectors_inv
    scale = max(1.0, float(np.max(np.abs(hd))))
    if np.max(np.abs(rebuilt - hd)) > _EIGEN_RECONSTRUCTION_TOL * scale:
        raise DefectiveMatrix("eigen-reconstruction of the dissipative matrix failed")
    return DissipativeMatrix(
        matrix=hd,
        eigenvalues=values,
        eigenvectors=vectors,
        eigenvectors_inv=vectors_inv,
    )


def coupling_regime(spec: NetworkSpec, threshold: float = WEAK_COUPLING_THRESHOLD) -> str:
    """Classify the network as ``"weak"`` or ``"strong"`` coupling.

    Strong when ``N * max|coupling| >= threshold * min(omega)``.  The label is
    advisory; every quantitative path works in either regime.
    """
    if spec.n == 1:
        return "weak"
    strongest = float(np.max(np.abs(spec.coupling)))
    if spec.n * strongest >= threshold * float(np.min(spec.omega)):
        return "strong"
    return "weak"
