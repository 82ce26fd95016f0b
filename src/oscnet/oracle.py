"""Brute-force master-equation oracle on a truncated Fock space.

Ground truth for the analytic phase-space machinery at small mode counts.
Density matrices are dense.  The master-equation generator is one sparse
superoperator on the row-major vec of rho, built once from the per-mode
ladder operators.  It does not depend on time, so the evolution is its exact
exponential action exp(t L) rho0, evaluated to double precision by a port of
Al-Mohy & Higham's scaled Taylor algorithm (the one behind scipy's
``expm_multiply``); ``scipy.sparse`` is the only scipy module the oracle
loads.  The normal-ordered characteristic function and the moments are
traces of products of per-mode operators, contracted one mode axis at a
time.  The oracle works in the Fock basis only and shares no formula with
the Gaussian phase-space code it checks.

Every array the oracle keeps scales with the Fock dimension ``dim =
(n_max + 1)**n_modes``: the dense mode operators take ``2 n dim^2`` complex
entries and the generator at most ``(1 + 4 n^2) dim^2`` stored entries.
Sizes whose predicted bytes exceed ``_BYTE_LIMIT`` (1 GiB) are refused with a
:class:`ValidationError` before anything is allocated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CutoffOverflow, ValidationError
from .states import CoherentMixture, FockMixture

__all__ = [
    "FockSpace",
    "TruncatedDensityMatrix",
    "select_cutoff",
    "density_from_coherent",
    "density_from_fock",
    "liouvillian_apply",
    "evolve_master",
    "oracle_char",
    "oracle_purity",
    "oracle_partial_trace",
    "expect_lowering",
    "expect_number_matrix",
]

_TOP_LEVEL_LIMIT = 1e-6
_TAIL_LIMIT = 1e-8
# Largest predicted size of one oracle structure (dense mode operators, or the
# sparse generator); larger truncated spaces are refused up front.
_BYTE_LIMIT = 1 << 30
# Bytes per stored generator entry: a complex value and a (worst-case 64-bit)
# column index.
_ENTRY_BYTES = 16 + 8


def _check_bytes(what: str, dim: int, predicted: int) -> None:
    if predicted > _BYTE_LIMIT:
        raise ValidationError(
            f"{what} for Fock dimension {dim} would take {predicted} bytes, "
            f"above the oracle limit of {_BYTE_LIMIT} bytes; lower n_max or n_modes"
        )


def _mode_lowering(levels: int) -> np.ndarray:
    """Single-mode lowering operator on ``levels`` Fock levels."""
    return np.diag(np.sqrt(np.arange(1.0, levels)), k=1)


def select_cutoff(max_abs_alpha: float, max_occupation: float) -> int:
    """Per-mode cutoff covering coherent and thermal tails.

    ``n_max >= |alpha|^2 + 6 |alpha| + 6 + 10 nbar`` keeps the truncated tail
    mass below the oracle tolerances for the amplitudes used in validation.
    """
    a = abs(max_abs_alpha)
    return int(math.ceil(a * a + 6.0 * a + 6.0 + 10.0 * max(0.0, max_occupation)))


class FockSpace:
    """Tensor-product truncated Fock space with cached mode operators."""

    def __init__(self, n_modes: int, n_max: int):
        if n_modes < 1 or n_max < 1:
            raise ValidationError("need n_modes >= 1 and n_max >= 1")
        self.n_modes = n_modes
        self.n_max = n_max
        self.levels = n_max + 1
        self.dim = self.levels**n_modes
        _check_bytes("dense mode operators", self.dim, 2 * n_modes * self.dim**2 * 16)
        low = _mode_lowering(self.levels)
        eye = np.eye(self.levels)
        self.lowering = []
        for m in range(n_modes):
            op = np.array([[1.0]])
            for k in range(n_modes):
                op = np.kron(op, low if k == m else eye)
            self.lowering.append(op.astype(complex))
        self.raising = [op.conj().T for op in self.lowering]

    def coherent_vector(self, amplitudes, tail_tol: float = _TAIL_LIMIT) -> np.ndarray:
        """Truncated multimode coherent state; rejects cutoffs losing too much mass."""
        amplitudes = np.atleast_1d(np.asarray(amplitudes, dtype=complex))
        if amplitudes.size != self.n_modes:
            raise ValidationError("amplitude vector has the wrong mode count")
        vec = np.array([1.0 + 0j])
        for alpha in amplitudes:
            if alpha == 0:
                mode = np.zeros(self.levels, dtype=complex)
                mode[0] = 1.0
            else:
                levels = np.arange(self.levels)
                log_fact = np.cumsum(np.log(np.maximum(levels, 1)))
                log_mag = (
                    -0.5 * abs(alpha) ** 2
                    + levels * np.log(abs(alpha))
                    - 0.5 * log_fact
                )
                mode = np.exp(log_mag) * np.exp(1j * levels * np.angle(alpha))
            vec = np.kron(vec, mode)
        tail = 1.0 - float(np.vdot(vec, vec).real)
        if tail > tail_tol:
            raise ValidationError(
                f"coherent tail mass {tail:.3g} exceeds {tail_tol}; raise n_max"
            )
        return vec

    def fock_vector(self, occupations) -> np.ndarray:
        occupations = [int(x) for x in occupations]
        if len(occupations) != self.n_modes:
            raise ValidationError("occupation tuple has the wrong mode count")
        if any(x < 0 or x > self.n_max for x in occupations):
            raise ValidationError("occupation outside the truncated space")
        index = 0
        for occ in occupations:
            index = index * self.levels + occ
        vec = np.zeros(self.dim, dtype=complex)
        vec[index] = 1.0
        return vec

    def top_level_population(self, rho: np.ndarray) -> float:
        """Largest probability of finding any mode at the cutoff level."""
        probs = np.real(np.diag(rho))
        tensor = probs.reshape((self.levels,) * self.n_modes)
        worst = 0.0
        for m in range(self.n_modes):
            worst = max(worst, float(np.take(tensor, self.n_max, axis=m).sum()))
        return worst


@dataclass(frozen=True)
class TruncatedDensityMatrix:
    """Density matrix on the truncated space at one time, validated on build."""

    t: float
    rho: np.ndarray
    n_max: int

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        scale = max(1.0, float(np.max(np.abs(rho))))
        if np.max(np.abs(rho - rho.conj().T)) > 1e-10 * scale:
            raise ValidationError("density matrix is not Hermitian to tolerance")
        trace = float(np.trace(rho).real)
        if abs(trace - 1.0) > 1e-8:
            raise ValidationError(f"trace drifted to {trace}")
        eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
        if eigs[0] < -1e-8:
            raise ValidationError(f"negative eigenvalue {eigs[0]:.3g}")
        object.__setattr__(self, "rho", rho)

    @property
    def trace_defect(self) -> float:
        return abs(float(np.trace(self.rho).real) - 1.0)


def density_from_coherent(space: FockSpace, state: CoherentMixture) -> np.ndarray:
    """Truncated density matrix of a coherent mixture (not renormalized)."""
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    for branch in state.branches:
        psi = np.zeros(space.dim, dtype=complex)
        for comp in branch.components:
            psi += comp.coefficient * space.coherent_vector(comp.amplitudes)
        rho += branch.probability * np.outer(psi, psi.conj())
    return rho


def density_from_fock(space: FockSpace, state: FockMixture) -> np.ndarray:
    rho = np.zeros((space.dim, space.dim), dtype=complex)
    for branch in state.branches:
        psi = np.zeros(space.dim, dtype=complex)
        for occ, coeff in branch.coefficients:
            psi += coeff * space.fock_vector(occ)
        rho += branch.probability * np.outer(psi, psi.conj())
    return rho


def _generator(space: FockSpace, hamiltonian, damping, diffusion) -> scipy.sparse.csr_array:
    """Master-equation generator as a sparse superoperator on the row-major vec of rho.

    ``d rho/dt = L rho + rho R + sum_mk w_mk a_k rho a_m^dag + v_mk a_k^dag rho a_m``
    with ``L = -iH - Q - G`` and ``R = iH - Q' - G'``: Q holds the loss
    weights (damping + diffusion)/2 on ``a_m^dag a_k``, G the gain weights
    diffusion/2 on ``a_m a_k^dag``, primes transpose the weights, and w, v are
    the symmetrized loss and gain weights.  Each term is a Kronecker product
    through ``vec(A rho B) = (A kron B^T) vec(rho)``.
    """
    import scipy.sparse

    hamiltonian = np.asarray(hamiltonian, dtype=complex)
    damping = np.asarray(damping, dtype=float)
    diffusion = np.asarray(diffusion, dtype=float)
    n = space.n_modes
    if hamiltonian.shape != (n, n):
        raise ValidationError("hamiltonian matrix has the wrong shape")
    if damping.shape != (n, n) or diffusion.shape != (n, n):
        raise ValidationError("rate matrices have the wrong shape")
    dim = space.dim
    _check_bytes("sparse generator", dim, (1 + 4 * n * n) * dim**2 * _ENTRY_BYTES)
    lowering = [scipy.sparse.csr_array(op) for op in space.lowering]
    raising = [scipy.sparse.csr_array(op) for op in space.raising]
    loss = 0.5 * (damping + diffusion)
    gain = 0.5 * diffusion
    loss_weights = loss + loss.T  # a_k rho adag_m coefficient, symmetrized
    gain_weights = gain + gain.T
    left = scipy.sparse.csr_array((dim, dim), dtype=complex)
    right = scipy.sparse.csr_array((dim, dim), dtype=complex)
    generator = scipy.sparse.csr_array((dim * dim, dim * dim), dtype=complex)
    for m in range(n):
        for k in range(n):
            hop = raising[m] @ lowering[k]
            fill = lowering[m] @ raising[k]
            left = left - (1j * hamiltonian[m, k] + loss[m, k]) * hop - gain[m, k] * fill
            right = right + (1j * hamiltonian[m, k] - loss[k, m]) * hop - gain[k, m] * fill
            if loss_weights[m, k] != 0:
                generator = generator + loss_weights[m, k] * scipy.sparse.kron(
                    lowering[k], raising[m].T, format="csr"
                )
            if gain_weights[m, k] != 0:
                generator = generator + gain_weights[m, k] * scipy.sparse.kron(
                    raising[k], lowering[m].T, format="csr"
                )
    eye = scipy.sparse.eye_array(dim, format="csr")
    generator = generator + scipy.sparse.kron(left, eye, format="csr")
    generator = generator + scipy.sparse.kron(eye, right.T, format="csr")
    generator.eliminate_zeros()
    return generator


def liouvillian_apply(
    rho: np.ndarray, hamiltonian, damping, diffusion, space: FockSpace
) -> np.ndarray:
    """One application of the master-equation generator to a density matrix.

    Commutator part plus loss channels weighted by (damping + diffusion)/2 and
    gain channels weighted by diffusion/2; trace-free by construction.
    """
    generator = _generator(space, hamiltonian, damping, diffusion)
    return (generator @ np.asarray(rho, dtype=complex).reshape(-1)).reshape(
        space.dim, space.dim
    )


# theta_m for double precision: the largest 1-norm of one step's h*A for which
# the m-term Taylor polynomial of exp(h*A) has relative backward error below
# 2^-53 (m <= 30 from Higham & Al-Mohy, Acta Numerica 19 (2010), Table A.3;
# the rest from Al-Mohy & Higham, SIAM J. Sci. Comput. 33 (2011), Table 3.1).
_THETA = {
    1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
    6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
    11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
    16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
    21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
    26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_UNIT_ROUNDOFF = 2.0**-53


def _taylor_plan(norm: float) -> tuple[int, int]:
    """Degree m and step count s minimising m*s with s = ceil(norm / theta_m)."""
    if norm == 0:
        return 0, 1
    best_m = best_s = None
    for m, theta in _THETA.items():
        s = int(math.ceil(norm / theta))
        if best_m is None or m * s < best_m * best_s:
            best_m, best_s = m, s
    return best_m, best_s


def _shifted_generator(space: FockSpace, hamiltonian, damping, diffusion):
    """``(L - mu I, mu, ||L - mu I||_1)`` for the generator L and ``mu = tr L / size``.

    The shift lowers the norm that sets the Taylor step count.  L itself is
    dropped once the shifted copy exists, so the peak memory stays that of
    building L.
    """
    import scipy.sparse

    generator = _generator(space, hamiltonian, damping, diffusion)
    size = generator.shape[0]
    mu = generator.trace() / float(size)
    generator = generator - mu * scipy.sparse.eye_array(size, dtype=complex, format="csr")
    return generator, mu, float(np.max(abs(generator).sum(axis=0)))


def _expm_action(shifted, mu: complex, norm: float, vec: np.ndarray, t: float) -> np.ndarray:
    """exp(t (shifted + mu I)) vec by scaled, truncated Taylor series.

    Al-Mohy & Higham's algorithm 3.2 with ``norm`` the exact 1-norm of
    ``shifted``: s steps of t/s, each a Taylor sum of at most m terms, cut
    once two successive terms together fall below 2^-53 times the sum
    (infinity norms), then scaled by exp(t mu / s).
    """
    m_star, s = _taylor_plan(t * norm)
    out = vec
    eta = np.exp(t * mu / float(s))
    for _ in range(s):
        c1 = np.max(np.abs(vec))
        for j in range(m_star):
            vec = (t / float(s * (j + 1))) * (shifted @ vec)
            c2 = np.max(np.abs(vec))
            out = out + vec
            if c1 + c2 <= _UNIT_ROUNDOFF * np.max(np.abs(out)):
                break
            c1 = c2
        out = eta * out
        vec = out
    return out


def evolve_master(
    rho0: np.ndarray,
    hamiltonian,
    damping,
    diffusion,
    t_grid,
    space: FockSpace,
    rtol: float = 1e-10,
    atol: float = 1e-12,
) -> list[TruncatedDensityMatrix]:
    """Exact propagator action of the master equation over a time grid.

    The generator L is time independent, so rho(t) = exp(t L) rho0; it is
    applied from 0 to each grid time in turn by :func:`_expm_action`, on
    L - mu I with mu = tr L / dim^2, to double-precision accuracy.  ``rtol``
    and ``atol`` are unused, kept so existing calls still work.  The
    trajectory is never renormalized; trace drift shows up in the validated
    snapshots (and fails them loudly past 1e-8).  Raises
    :class:`CutoffOverflow` if any mode's cutoff level accumulates more than
    1e-6 probability at a grid time.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1 or np.any(np.diff(t_grid) <= 0):
        raise ValidationError("time grid must be increasing")
    if t_grid[0] < 0:
        raise ValidationError("times must be >= 0")
    shifted, mu, norm = _shifted_generator(space, hamiltonian, damping, diffusion)
    vec = np.asarray(rho0, dtype=complex).reshape(-1)
    states = []
    previous = 0.0
    for t in t_grid:
        vec = _expm_action(shifted, mu, norm, vec, float(t) - previous)
        previous = float(t)
        rho = vec.reshape(space.dim, space.dim)
        if space.top_level_population(rho) > _TOP_LEVEL_LIMIT:
            raise CutoffOverflow(
                f"cutoff level holds > {_TOP_LEVEL_LIMIT} probability at t = {t}"
            )
        states.append(TruncatedDensityMatrix(t=float(t), rho=rho, n_max=space.n_max))
    return states


def oracle_char(rho: np.ndarray, eta, space: FockSpace) -> complex:
    """Normal-ordered characteristic function Tr[rho exp(eta a^dag) exp(-conj(eta) a)].

    The exponentials are exact finite polynomials on the truncated space
    (raising and lowering operators are nilpotent there), so the trace is
    exact for a rho supported on the kept levels; truncation matters only
    through probability the true state holds beyond the cutoff.  A warning is
    issued when the displacement is large enough for that to show, judged
    from the population at the cutoff level.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=complex))
    if eta.size != space.n_modes:
        raise ValidationError("eta has the wrong mode count")
    biggest = float(np.max(np.abs(eta)))
    if biggest > 0:
        # Poisson-style tail estimate of the displacement polynomial at the
        # cutoff, weighted by the cutoff population as a proxy for what lies
        # beyond it; populations below the one `evolve_master` accepts at the
        # cutoff (_TOP_LEVEL_LIMIT) are not told apart.
        weight = max(space.top_level_population(rho), _TOP_LEVEL_LIMIT)
        log_tail = (
            math.log(weight)
            + (space.n_max + 1) * math.log(biggest**2 + 1e-300)
            - math.lgamma(space.n_max + 2)
        )
        if log_tail > math.log(_TAIL_LIMIT):
            warnings.warn(
                "characteristic-function displacement is large for this cutoff",
                stacklevel=2,
            )
    low = _mode_lowering(space.levels)
    factors = {}
    for m in range(space.n_modes):
        term_p = np.eye(space.levels, dtype=complex)
        term_m = np.eye(space.levels, dtype=complex)
        acc_p = np.eye(space.levels, dtype=complex)
        acc_m = np.eye(space.levels, dtype=complex)
        for k in range(1, space.levels):
            term_p = (eta[m] / k) * (low.T @ term_p)
            term_m = (-eta[m].conjugate() / k) * (low @ term_m)
            acc_p += term_p
            acc_m += term_m
        # Operators on different modes commute, so the full product is the
        # tensor product of the per-mode products.
        factors[m] = acc_p @ acc_m
    return _trace_with(rho, factors, space)


def _trace_with(rho: np.ndarray, factors: dict, space: FockSpace) -> complex:
    """Tr[rho F] for F the tensor product of ``factors[m]`` (identity elsewhere).

    Each levels x levels factor is contracted into its mode's column axis of
    rho viewed as a ``(levels,) * 2n`` tensor, so no dim x dim operator is
    formed; cost dim^2 * levels per factor.
    """
    n = space.n_modes
    tensor = np.asarray(rho).reshape((space.levels,) * (2 * n))
    for m, factor in factors.items():
        tensor = np.moveaxis(np.tensordot(tensor, factor, axes=([n + m], [0])), -1, n + m)
    return complex(np.trace(tensor.reshape(space.dim, space.dim)))


def oracle_purity(rho: np.ndarray) -> float:
    """Tr[rho^2], summed elementwise as sum(rho * rho^T)."""
    return float(np.sum(rho * rho.T).real)


def oracle_partial_trace(rho: np.ndarray, keep, space: FockSpace) -> np.ndarray:
    """Reduced density matrix over the kept modes (index contraction)."""
    keep = sorted(int(k) for k in keep)
    if any(k < 0 or k >= space.n_modes for k in keep) or not keep:
        raise ValidationError("kept mode indexes out of range")
    n = space.n_modes
    d = space.levels
    tensor = rho.reshape((d,) * (2 * n))
    drop = [m for m in range(n) if m not in keep]
    for offset, m in enumerate(drop):
        axis = m - offset
        tensor = np.trace(tensor, axis1=axis, axis2=axis + tensor.ndim // 2)
    kept = len(keep)
    return tensor.reshape(d**kept, d**kept)


def expect_lowering(rho: np.ndarray, space: FockSpace) -> np.ndarray:
    """Vector of first moments <a_m> = sum(rho * a_m^T)."""
    return np.array([np.sum(rho * op.T) for op in space.lowering])


def expect_number_matrix(rho: np.ndarray, space: FockSpace) -> np.ndarray:
    """Matrix of second moments <a_m^dag a_n>, one mode axis at a time."""
    n = space.n_modes
    low = _mode_lowering(space.levels)
    out = np.zeros((n, n), dtype=complex)
    for m in range(n):
        for k in range(n):
            factors = {m: low.T @ low} if m == k else {m: low.T, k: low}
            out[m, k] = _trace_with(rho, factors, space)
    return out
