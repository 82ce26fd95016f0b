"""Brute-force master-equation oracle on a truncated Fock space.

Ground truth for the analytic phase-space machinery at small mode counts.
Density matrices are dense.  The master-equation generator is applied
matrix-free, with numpy alone: a diagonal plus one slice term per hop and
jump, each a square-root ladder factor times a shifted block of rho, summed
as ``X + X^H`` on Hermitian rho.  It does not depend on time, so the
evolution is its exact exponential action exp(t L) rho0, taken in the
rotating frame of the total excitation number (which every term conserves
in difference, so the frame is exact and cuts the generator's norm) and
evaluated to double precision by a port of Al-Mohy & Higham's scaled Taylor
algorithm (the one behind scipy's ``expm_multiply``); the oracle loads no
scipy module.  The normal-ordered characteristic function is a trace of
per-mode displacement factors in closed form, taken for a whole batch of
displacements in one contraction of rho; the moments are sums over ladder
index maps.  The oracle works in the Fock basis only and shares no formula
with the Gaussian phase-space code it checks.

Every array the oracle keeps scales with the Fock dimension ``dim =
(n_max + 1)**n_modes``: a density matrix takes dim^2 complex entries, the
dense mode operators, built only when read, ``2 n dim^2`` and the
evolution's working set ``_WORK_ARRAYS`` dim x dim complex arrays, besides
the snapshots it returns.  Sizes whose predicted bytes exceed the
package's byte limit (1 GiB, :func:`oscnet.errors._check_bytes`), and
evolutions whose planned generator products exceed ``_PRODUCT_LIMIT``, are
refused with a :class:`ValidationError` before anything is allocated or
applied; :func:`_check_working_set` lets the CLI refuse an explicit cutoff
the same way before a run starts.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CutoffOverflow, PositivityLost, ValidationError, _check_bytes, _count
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
# dim x dim complex arrays alive at once while evolve_master runs, besides the
# snapshots it returns (tracemalloc reads 6.2 at dim 343).
_WORK_ARRAYS = 8
# Most generator products one evolve_master call may plan (a product takes
# about 1 ms at dim 121 and 10 ms at dim 343); longer evolutions, and
# generators whose 1-norm is not finite, are refused before the first one.
_PRODUCT_LIMIT = 100_000


def _check_working_set(dim: int) -> None:
    """Refuse a Fock dimension whose evolution working set would pass the byte limit."""
    what = f"generator working set for Fock dimension {_count(dim)}"
    _check_bytes(what, _WORK_ARRAYS * dim**2 * 16)


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
    """Tensor-product truncated Fock space; dense mode operators on first use."""

    def __init__(self, n_modes: int, n_max: int):
        if n_modes < 1 or n_max < 1:
            raise ValidationError("need n_modes >= 1 and n_max >= 1")
        self.n_modes = n_modes
        self.n_max = n_max
        self.levels = n_max + 1
        self.dim = self.levels**n_modes
        _check_bytes(f"a density matrix for Fock dimension {_count(self.dim)}", self.dim**2 * 16)

    @cached_property
    def lowering(self) -> list[np.ndarray]:
        """Dense dim x dim lowering operator of each mode.

        The oracle's own evolution and observables work from ladder slices
        and index maps and never build these; they serve as references.
        """
        predicted = 2 * self.n_modes * self.dim**2 * 16
        _check_bytes(f"dense mode operators for Fock dimension {_count(self.dim)}", predicted)
        low = _mode_lowering(self.levels)
        eye = np.eye(self.levels)
        operators = []
        for m in range(self.n_modes):
            op = np.array([[1.0]])
            for k in range(self.n_modes):
                op = np.kron(op, low if k == m else eye)
            operators.append(op.astype(complex))
        return operators

    @cached_property
    def raising(self) -> list[np.ndarray]:
        return [op.conj().T for op in self.lowering]

    def coherent_vector(self, amplitudes) -> np.ndarray:
        """Truncated multimode coherent state; rejects a cutoff that loses more
        than ``_TAIL_LIMIT`` of its mass."""
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
        if tail > _TAIL_LIMIT:
            raise ValidationError(
                f"coherent tail mass {tail:.3g} exceeds {_TAIL_LIMIT}; raise n_max"
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


class _NegativeEigenvalue(ValidationError):
    """A density matrix has an eigenvalue below -1e-8."""

    def __init__(self, value: float):
        self.value = float(value)
        super().__init__(f"negative eigenvalue {value:.3g}")


@dataclass(frozen=True, eq=False)
class TruncatedDensityMatrix:
    """Density matrix on the truncated space at one time, validated on build."""

    t: float
    rho: np.ndarray
    n_max: int

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        hermitian = _hermitian_part(rho, len(rho))
        trace = float(np.trace(rho).real)
        if abs(trace - 1.0) > 1e-8:
            raise ValidationError(f"trace drifted to {trace}")
        # A Cholesky factor of H + (1e-8 - 1e-10) I exists only when every
        # eigenvalue of H lies above -1e-8 by far more than rounding, and costs
        # a third of eigvalsh at dim 121; otherwise the spectrum of H, with
        # its diagonal restored, decides.
        diagonal = hermitian.diagonal().copy()
        hermitian.flat[:: len(rho) + 1] += 1e-8 - 1e-10
        try:
            np.linalg.cholesky(hermitian)
        except np.linalg.LinAlgError:
            np.fill_diagonal(hermitian, diagonal)
            lowest = np.linalg.eigvalsh(hermitian)[0]
            if lowest < -1e-8:
                raise _NegativeEigenvalue(lowest) from None
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


def _hermitian_part(rho, dim: int) -> np.ndarray:
    """(rho + rho^H) / 2, once rho is dim x dim and Hermitian to 1e-10 of its scale."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (dim, dim):
        raise ValidationError(f"density matrix must be {dim} x {dim}")
    scale = max(1.0, float(np.max(np.abs(rho))))
    if not np.max(np.abs(rho - rho.conj().T)) <= 1e-10 * scale:
        raise ValidationError("density matrix is not Hermitian to tolerance")
    return 0.5 * (rho + rho.conj().T)


def _term(n: int, coefficient, parts: dict):
    """``(dst, src, factor)`` of one ladder term on the ``(levels,)*n + (dim,)`` view.

    ``parts`` maps a view axis to the ``(dst, src, root)`` slices and
    square-root factors of the ladder acting along it; the factor is their
    product times ``coefficient``, shaped to broadcast over the slices.
    """
    dst = [slice(None)] * (n + 1)
    src = list(dst)
    factor = complex(coefficient)  # complex factors spare a cast in every product
    for axis, (to, frm, root) in parts.items():
        dst[axis], src[axis] = to, frm
        shape = [1] * (n + 1)
        shape[axis] = root.size
        factor = factor * root.reshape(shape)
    return tuple(dst), tuple(src), factor


class _Generator:
    """Master-equation generator as a diagonal plus ladder terms on rho.

    ``d rho/dt = L rho + rho R + sum_mk w_mk a_k rho a_m^dag + v_mk a_k^dag rho a_m``
    with ``L = -iH - Q - G`` and ``R = L^H``: Q holds the loss weights
    (damping + diffusion)/2 on ``a_m^dag a_k``, G the gain weights
    diffusion/2 on ``a_m a_k^dag``, and w, v are the symmetrized loss and gain
    weights.  On a Hermitian rho the right-hand side is ``X + X^H`` with
    ``X = L rho + J(rho)/2``, J the jump terms.  X is stored as a diagonal on
    the row index plus one ``(dst, src, factor)`` term per hop ``a_p^dag a_q``
    of L and per jump, on rho viewed as ``(levels,)*n + (dim,)``: rows split
    into mode axes, columns flat.  A row ladder slices one mode axis; a column
    ladder of mode m shifts the flat column index by ``levels**(n-1-m)``, its
    square-root factor zero where the shift would leave the box, so every
    inner loop runs over whole rows.  Of the jumps, which pair up as
    Hermitian conjugates, X keeps ``m <= k`` (halving ``m = k``).

    With ``shifted``, the generator is moved to the rotating frame of the
    total number N at ``omega`` = mean of diag(H), adding ``i omega [N, .]``
    (every term keeps ``n(i) - n(j)``, so this commutes with L), and shifted
    by ``-mu`` with ``mu = tr L / dim^2``; :meth:`unrotate` restores the lab
    frame.
    """

    def __init__(self, space: FockSpace, hamiltonian, damping, diffusion, shifted=False):
        hamiltonian = np.asarray(hamiltonian, dtype=complex)
        damping = np.asarray(damping, dtype=float)
        diffusion = np.asarray(diffusion, dtype=float)
        n, levels, dim = space.n_modes, space.levels, space.dim
        if hamiltonian.shape != (n, n):
            raise ValidationError("hamiltonian matrix has the wrong shape")
        if damping.shape != (n, n) or diffusion.shape != (n, n):
            raise ValidationError("rate matrices have the wrong shape")
        scale = max(1.0, float(np.max(np.abs(hamiltonian))))
        if not np.max(np.abs(hamiltonian - hamiltonian.conj().T)) <= 1e-12 * scale:
            raise ValidationError("hamiltonian matrix is not Hermitian")
        _check_working_set(dim)
        self.dim = dim
        self._view = (levels,) * n + (dim,)
        occupations = np.indices((levels,) * n).reshape(n, dim)
        loss = 0.5 * (damping + diffusion)
        gain = 0.5 * diffusion
        loss_weights = loss + loss.T
        gain_weights = gain + gain.T
        below, above = slice(0, space.n_max), slice(1, levels)
        root = np.sqrt(np.arange(1.0, levels))
        lower, lift = (below, above, root), (above, below, root)
        diagonal = np.zeros(dim, dtype=complex)
        self._terms = []
        for m in range(n):
            occ = occupations[m]
            # a_m a_m^dag is n + 1 below the cutoff level and 0 on it.
            diagonal -= (1j * hamiltonian[m, m] + loss[m, m]) * occ
            diagonal -= gain[m, m] * (occ + 1.0) * (occ < space.n_max)
            for k in range(n):
                hop = -(1j * hamiltonian[m, k] + loss[m, k]) - gain[k, m]
                if k != m and hop != 0:
                    self._terms.append(_term(n, hop, {m: lift, k: lower}))
            # rho a_m^dag (and rho a_m) on the flat column index.
            shift = levels ** (n - 1 - m)
            col_root = np.sqrt(occ[: dim - shift] + 1.0) * (occ[: dim - shift] < space.n_max)
            col_lower = (slice(0, dim - shift), slice(shift, dim), col_root)
            col_lift = (slice(shift, dim), slice(0, dim - shift), col_root)
            for k in range(m, n):
                half = 0.5 if k == m else 1.0
                if loss_weights[m, k] != 0:
                    self._terms.append(
                        _term(n, half * loss_weights[m, k], {k: lower, n: col_lower})
                    )
                if gain_weights[m, k] != 0:
                    self._terms.append(
                        _term(n, half * gain_weights[m, k], {k: lift, n: col_lift})
                    )
        self.omega = self.mu = 0.0
        self._number = occupations.sum(axis=0)
        if shifted:
            self.omega = float(np.mean(hamiltonian.diagonal().real))
            diagonal += 1j * self.omega * self._number
            self.mu = 2.0 * float(np.mean(diagonal.real))
            diagonal -= 0.5 * self.mu
        self._diagonal = diagonal
        # Work arrays kept between products: fresh ones of this size cost page
        # faults on every product.  Each term writes its part into scratch.
        self._x = np.empty((dim, dim), dtype=complex)
        scratch = np.empty(dim * dim, dtype=complex)
        view = self._x.reshape(self._view)
        self._terms = [
            (dst, src, factor, scratch[: view[src].size].reshape(view[src].shape))
            for dst, src, factor in self._terms
        ]

    def __matmul__(self, vec: np.ndarray) -> np.ndarray:
        rho = vec.reshape(self.dim, self.dim)
        x = np.multiply(self._diagonal[:, None], rho, out=self._x)
        xs, rhos = x.reshape(self._view), rho.reshape(self._view)
        for dst, src, factor, scratch in self._terms:
            target = xs[dst]
            np.add(target, np.multiply(rhos[src], factor, out=scratch), out=target)
        out = x.T.copy()
        np.conjugate(out, out=out)
        out += x
        return out.reshape(-1)

    def norm(self) -> float:
        """Exact 1-norm: largest column sum of |entries| of the full operator.

        No two terms (nor a term and its Hermitian mirror) write the same
        (output, input) pair, so a column's sum is |diagonal| plus each term's
        |factor| at its source, plus the same for the mirrors, which is the
        transpose.
        """
        sums = np.zeros(self._view)
        for _, src, factor, _ in self._terms:
            sums[src] += np.abs(factor)
        sums = sums.reshape(self.dim, self.dim)
        diagonal = np.abs(self._diagonal[:, None] + self._diagonal.conj())
        return float(np.max(diagonal + sums + sums.T))

    def unrotate(self, vec: np.ndarray, t: float) -> np.ndarray:
        """Lab-frame rho from the rotating-frame vec at time t."""
        phase = np.exp(-1j * self.omega * t * self._number)
        return phase[:, None] * vec.reshape(self.dim, self.dim) * phase.conj()


def liouvillian_apply(
    rho: np.ndarray, hamiltonian, damping, diffusion, space: FockSpace
) -> np.ndarray:
    """One application of the master-equation generator to a density matrix.

    Commutator part plus loss channels weighted by (damping + diffusion)/2 and
    gain channels weighted by diffusion/2; trace-free by construction.  rho
    must be Hermitian (to 1e-10); its Hermitian part is used.
    """
    generator = _Generator(space, hamiltonian, damping, diffusion)
    return (generator @ _hermitian_part(rho, space.dim).reshape(-1)).reshape(space.dim, space.dim)


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
_DEGREES = np.array(list(_THETA))
_THETAS = np.array(list(_THETA.values()))


def _taylor_plan(norm: float) -> tuple[int, float]:
    """Degree m and step count s minimising m*s with s = ceil(norm / theta_m).

    s is a whole float, infinite (or nan) for a norm too large to plan; ties
    go to the smallest m.
    """
    if norm == 0:
        return 0, 1.0
    with np.errstate(over="ignore"):
        steps = np.ceil(norm / _THETAS)
    best = int(np.argmin(_DEGREES * steps))
    return int(_DEGREES[best]), float(steps[best])


def _expm_action(shifted, mu: complex, norm: float, vec: np.ndarray, t: float) -> np.ndarray:
    """exp(t (shifted + mu I)) vec by scaled, truncated Taylor series.

    Al-Mohy & Higham's algorithm 3.2 with ``norm`` the exact 1-norm of
    ``shifted``: s steps of t/s, each a Taylor sum of at most m terms, cut
    once two successive terms together fall below 2^-53 times the sum
    (infinity norms), then scaled by exp(t mu / s).  Terms are scaled, summed
    and measured in place; ``vec`` is not modified.
    """
    m_star, s = _taylor_plan(t * norm)
    out = vec.copy()
    magnitude = np.empty(vec.shape)
    eta = np.exp(t * mu / s)
    for _ in range(int(s)):
        c1 = np.abs(out, out=magnitude).max()
        term = out
        for j in range(m_star):
            term = shifted @ term
            np.multiply(t / (s * (j + 1)), term, out=term)
            c2 = np.abs(term, out=magnitude).max()
            out += term
            if c1 + c2 <= _UNIT_ROUNDOFF * np.abs(out, out=magnitude).max():
                break
            c1 = c2
        np.multiply(eta, out, out=out)
    return out


def evolve_master(
    rho0: np.ndarray,
    hamiltonian,
    damping,
    diffusion,
    t_grid,
    space: FockSpace,
) -> list[TruncatedDensityMatrix]:
    """Exact propagator action of the master equation over a time grid.

    The generator L is time independent, so rho(t) = exp(t L) rho0.  Every
    term of L keeps n(i) - n(j) for an element rho_ij, so exp(t L) is the
    phase exp(-i omega t (n(i) - n(j))) times exp(t L') for L' = L +
    i omega [N, .] in the rotating frame of the total number N, at omega =
    mean of diag(H); L' has a far smaller norm.  exp(t L') is applied from 0
    to each grid time in turn by :func:`_expm_action`, on L' - mu I with mu =
    tr L / dim^2, to double-precision accuracy.  rho0 must be Hermitian (to
    1e-10); its Hermitian part is evolved, and a grid time 0 returns rho0.
    The trajectory is never renormalized; trace drift shows up in the
    validated snapshots (and fails them loudly past 1e-8).  Raises
    :class:`CutoffOverflow` if any mode's cutoff level accumulates more than
    1e-6 probability at a grid time, and :class:`PositivityLost` if a
    snapshot has an eigenvalue below -1e-8.  An evolution that plans more
    than ``_PRODUCT_LIMIT`` generator products (or whose generator has no
    finite 1-norm) is refused with a :class:`ValidationError` before the
    first product.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size < 1 or np.any(np.diff(t_grid) <= 0):
        raise ValidationError("time grid must be increasing")
    if t_grid[0] < 0:
        raise ValidationError("times must be >= 0")
    generator = _Generator(space, hamiltonian, damping, diffusion, shifted=True)
    norm = generator.norm()
    steps = np.diff(t_grid, prepend=0.0)
    plans = [_taylor_plan(dt * norm) for dt in steps[steps > 0].tolist()]
    planned = sum(m * s for m, s in plans)
    if not planned <= _PRODUCT_LIMIT:
        raise ValidationError(
            f"evolution to t = {t_grid[-1]} plans {planned:.3g} generator products "
            f"(generator 1-norm {norm:.3g}), above the oracle limit of "
            f"{_PRODUCT_LIMIT}; shorten the time grid or lower the rates and frequencies"
        )
    vec = _hermitian_part(rho0, space.dim).reshape(-1)
    states = []
    previous = 0.0
    for t in t_grid:
        if t == 0:  # exp(0 L) rho0 is rho0 as given
            rho = np.array(rho0, dtype=complex)
        else:
            vec = _expm_action(generator, generator.mu, norm, vec, float(t) - previous)
            previous = float(t)
            rho = generator.unrotate(vec, float(t))
        if space.top_level_population(rho) > _TOP_LEVEL_LIMIT:
            raise CutoffOverflow(
                f"cutoff level holds > {_TOP_LEVEL_LIMIT} probability at t = {t}"
            )
        try:
            states.append(TruncatedDensityMatrix(t=float(t), rho=rho, n_max=space.n_max))
        except _NegativeEigenvalue as exc:
            raise PositivityLost(
                f"evolved density matrix lost positivity at t = {t}: eigenvalue "
                f"{exc.value:.3g}; the master equation's rates do not keep it positive"
            ) from None
    return states


def oracle_char(rho: np.ndarray, eta, space: FockSpace) -> complex | np.ndarray:
    """Normal-ordered characteristic function Tr[rho exp(eta a^dag) exp(-conj(eta) a)].

    ``eta`` is one displacement of shape (n,), which gives a complex number,
    or a batch of shape (P, n), which gives a (P,) complex array.  Each mode's
    factor is the product of the two exponentials in closed form,
    ``<j| exp(x a^dag) |i> = x^(j-i) sqrt(j!/i!) / (j-i)!`` for j >= i (the
    lowering side is its transpose at ``x = -conj(eta)``), which is exact on
    the truncated space because the ladder operators are nilpotent there; so
    the trace is exact for a rho supported on the kept levels, and truncation
    matters only through probability the true state holds beyond the cutoff.
    The whole batch is traced against rho in one contraction.  One warning is
    issued when the largest displacement is large enough for that to show,
    judged from the population at the cutoff level.
    """
    eta = np.asarray(eta, dtype=complex)
    points = np.atleast_2d(eta)
    n = space.n_modes
    if eta.ndim > 2 or points.shape[1] != n:
        raise ValidationError("eta has the wrong mode count")
    biggest = float(np.max(np.abs(points), initial=0.0))
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
    levels, size = space.levels, len(points)
    # factors[p, m, i, j] = <j| exp(eta a^dag) exp(-conj(eta) a) |i> on mode m,
    # the transpose of the product of the two exponentials.
    factors = _raising_exponential(-points.conj(), levels) @ np.swapaxes(
        _raising_exponential(points, levels), -1, -2
    )
    # Tr[rho F] = sum rho[i, j] prod_m factors[m, i_m, j_m], with rho as
    # (i_0, j_0, i_1, j_1, ...): each mode's (i_m, j_m) pair is summed in
    # turn, the first by one product.
    pairs = [axis for m in range(n) for axis in (m, n + m)]
    tensor = np.asarray(rho).reshape((levels,) * (2 * n)).transpose(pairs)
    factors = factors.reshape(size, n, levels**2)
    chi = factors[:, 0] @ tensor.reshape(levels**2, levels ** (2 * n - 2))
    for m in range(1, n):
        rest = levels ** (2 * (n - 1 - m))
        chi = np.einsum("pa,par->pr", factors[:, m], chi.reshape(size, levels**2, rest))
    chi = chi.reshape(size)
    return complex(chi[0]) if eta.ndim < 2 else chi


def _raising_exponential(x: np.ndarray, levels: int) -> np.ndarray:
    """``<j| exp(x a^dag) |i> = x^(j-i) sqrt(j!/i!) / (j-i)!`` for every entry of x.

    Returns shape ``x.shape + (levels, levels)``; zero above the diagonal.
    """
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, levels)))))
    gap = np.subtract.outer(np.arange(levels), np.arange(levels))
    below = gap >= 0
    gap = np.where(below, gap, 0)
    coefficient = below * np.exp(
        0.5 * np.subtract.outer(log_fact, log_fact) - log_fact[gap]
    )
    steps = np.ones(x.shape + (levels,), dtype=complex)
    steps[..., 1:] = x[..., None]
    powers = np.cumprod(steps, axis=-1)
    return powers[..., gap] * coefficient


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


def _ladder(space: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Index maps of the lowering operators: ``a_m |x + e_m> = root[m, x] |x>``.

    ``source[m, x]`` is the flat index of ``x + e_m`` and ``root[m, x]`` is
    ``sqrt(x_m + 1)``, both of shape (n, dim); where ``x_m`` is the cutoff
    level the root is 0 and the source is x itself.
    """
    n, levels, dim = space.n_modes, space.levels, space.dim
    occupations = np.indices((levels,) * n).reshape(n, dim)
    inside = occupations < space.n_max
    strides = levels ** np.arange(n - 1, -1, -1)
    source = np.arange(dim) + strides[:, None] * inside
    return source, np.sqrt(occupations + 1.0) * inside


def expect_lowering(rho: np.ndarray, space: FockSpace) -> np.ndarray:
    """Vector of first moments <a_m> = sum_x sqrt(x_m + 1) rho[x + e_m, x]."""
    source, root = _ladder(space)
    rho = np.asarray(rho)
    return np.sum(root * rho[source, np.arange(space.dim)], axis=1)


def expect_number_matrix(rho: np.ndarray, space: FockSpace) -> np.ndarray:
    """Matrix of second moments <a_m^dag a_k>, all n^2 in one gather.

    ``<a_m^dag a_k> = sum_x sqrt(x_m + 1) sqrt(x_k + 1) rho[x + e_k, x + e_m]``.
    """
    source, root = _ladder(space)
    rho = np.asarray(rho)
    return np.einsum("mkx,mx,kx->mk", rho[source[None], source[:, None]], root, root)
