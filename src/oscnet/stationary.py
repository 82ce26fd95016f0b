"""Stationary Gaussian width of the characteristic function.

The stationary width matrix P solves the Lyapunov-type matrix equation

    conj(G) @ P + P @ G.T == Y + Y.T

with G the dissipative generator and Y the diffusion matrix.  Two independent
routes are provided: a dense linear solve of the column-stacked N^2 x N^2
system (the oracle route, O(N^6)) and a closed form through the
eigendecomposition of G (the production route, O(N^3) after the eigensolve).
Their agreement is part of the acceptance suite.  When the eigen route fails
its accuracy checks, ``stationary_width`` falls back to the Bartels-Stewart
Sylvester solver, which is O(N^3) and needs no eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SingularSystem, ValidationError
from .network import DissipativeMatrix

__all__ = [
    "StationaryWidth",
    "kron_sum",
    "solve_pi_vec",
    "solve_pi_eigen",
    "stationary_width",
    "lyapunov_residual",
]

_GAP_FLOOR = 1e-12
_RESIDUAL_TOL = 1e-9
_HERMITICITY_TOL = 1e-10
_PSD_TOL = -1e-10


@dataclass(frozen=True)
class StationaryWidth:
    """Stationary width matrix and the max-norm defect of the matrix equation."""

    matrix: np.ndarray
    residual: float


def kron_sum(m: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Kronecker sum I (x) M + N (x) I under the column-stacking vec convention.

    With vec(X) stacking columns (Fortran order), ``kron_sum(M, N) @ vec(X)``
    equals ``vec(M @ X + X @ N.T)``.  Eigenvalues are all pairwise sums of the
    factors' eigenvalues.
    """
    m = np.asarray(m)
    n = np.asarray(n)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError("kron_sum requires square matrices")
    if m.shape != n.shape:
        raise ValidationError("kron_sum requires matrices of equal dimension")
    eye = np.eye(m.shape[0])
    return np.kron(eye, m) + np.kron(n, eye)


def _vec(matrix: np.ndarray) -> np.ndarray:
    return matrix.reshape(-1, order="F")


def _unvec(vector: np.ndarray, n: int) -> np.ndarray:
    return vector.reshape((n, n), order="F")


def _symmetrized(diffusion: np.ndarray) -> np.ndarray:
    diffusion = np.asarray(diffusion, dtype=complex)
    return diffusion + diffusion.T


def _check_gap(eigenvalues: np.ndarray) -> None:
    gaps = np.abs(eigenvalues[:, None] + eigenvalues.conj()[None, :])
    if np.min(gaps) < _GAP_FLOOR:
        raise SingularSystem(
            f"min |w_m + conj(w_n)| = {np.min(gaps):.3g} < {_GAP_FLOOR}; "
            "stationary width undefined"
        )


def lyapunov_residual(hd: np.ndarray, pi: np.ndarray, diffusion: np.ndarray) -> float:
    """Max-norm defect of conj(G) P + P G.T - (Y + Y.T)."""
    defect = hd.conj() @ pi + pi @ hd.T - _symmetrized(diffusion)
    return float(np.max(np.abs(defect)))


def _validated(pi: np.ndarray, dis: DissipativeMatrix, diffusion: np.ndarray) -> StationaryWidth:
    scale = max(1.0, float(np.max(np.abs(pi))))
    if np.max(np.abs(pi - pi.conj().T)) > _HERMITICITY_TOL * scale:
        raise ValidationError("stationary width is not Hermitian to tolerance")
    pi = 0.5 * (pi + pi.conj().T)
    eigs = np.linalg.eigvalsh(pi)
    if eigs.size and eigs[0] < _PSD_TOL * scale:
        raise ValidationError(
            f"stationary width has negative eigenvalue {eigs[0]:.3g}"
        )
    residual = lyapunov_residual(dis.matrix, pi, diffusion)
    if residual > _RESIDUAL_TOL * max(1.0, float(np.max(np.abs(diffusion)))):
        raise ValidationError(f"stationary residual {residual:.3g} exceeds tolerance")
    return StationaryWidth(matrix=pi, residual=residual)


def solve_pi_vec(dis: DissipativeMatrix, diffusion: np.ndarray) -> StationaryWidth:
    """Solve the stationary equation by dense linear solve of the vec system.

    Column-stacks the unknown width and solves
    ``[I (x) conj(G) + G (x) I] vec(P) = vec(Y + Y.T)``.  Retained as the
    brute-force oracle the other routes are checked against.
    """
    _check_gap(dis.eigenvalues)
    n = dis.matrix.shape[0]
    system = kron_sum(dis.matrix.conj(), dis.matrix)
    rhs = _vec(_symmetrized(diffusion))
    pi = _unvec(np.linalg.solve(system, rhs), n)
    return _validated(pi, dis, diffusion)


def solve_pi_eigen(dis: DissipativeMatrix, diffusion: np.ndarray) -> StationaryWidth:
    """Solve the stationary equation through the eigendecomposition of G.

    Writing G = D W D^-1, the solution is ``conj(D) X D.T`` where
    ``X[a, b] = [conj(D^-1) S D^-T][a, b] / (conj(w_a) + w_b)`` and
    ``S = Y + Y.T``.  This is the production route.
    """
    _check_gap(dis.eigenvalues)
    s = _symmetrized(diffusion)
    d_inv = dis.eigenvectors_inv
    core = d_inv.conj() @ s @ d_inv.T
    denom = dis.eigenvalues.conj()[:, None] + dis.eigenvalues[None, :]
    x = core / denom
    pi = dis.eigenvectors.conj() @ x @ dis.eigenvectors.T
    return _validated(pi, dis, diffusion)


def _solve_pi_sylvester(dis: DissipativeMatrix, diffusion: np.ndarray) -> StationaryWidth:
    # Bartels-Stewart on the Schur forms of conj(G) and G.T: O(N^3), and
    # indifferent to how well conditioned the eigenvectors of G are.  Only
    # reached after solve_pi_eigen has passed the spectral-gap check.
    import scipy.linalg

    g = dis.matrix
    pi = scipy.linalg.solve_sylvester(g.conj(), g.T, _symmetrized(diffusion))
    return _validated(pi, dis, diffusion)


def stationary_width(
    dis: DissipativeMatrix, diffusion: np.ndarray, method: str = "auto"
) -> StationaryWidth:
    """Stationary width by the chosen route; zero diffusion short-circuits to zero.

    ``"auto"`` uses the O(N^3) eigen route and falls back to the O(N^3)
    Bartels-Stewart Sylvester solve if the eigen result fails its accuracy
    checks (marginally conditioned eigenvector matrices).  ``"vec"`` is the
    O(N^6) dense oracle, meant for small N.  The zero short-circuit keeps
    dissipation-free or zero-temperature models usable even when the full
    linear system would be singular.
    """
    diffusion = np.asarray(diffusion, dtype=float)
    if not np.any(diffusion):
        n = dis.matrix.shape[0]
        return StationaryWidth(matrix=np.zeros((n, n), dtype=complex), residual=0.0)
    if method == "auto":
        try:
            return solve_pi_eigen(dis, diffusion)
        except ValidationError:
            return _solve_pi_sylvester(dis, diffusion)
    if method == "eigen":
        return solve_pi_eigen(dis, diffusion)
    if method == "vec":
        return solve_pi_vec(dis, diffusion)
    raise ValidationError(f"unknown method {method!r}")
