"""Phase-space evaluators: characteristic function, P-function, Wigner function.

Every evaluator accepts a single phase-space point (length-N complex vector) or
a batch with the mode axis last, and is pure: all time dependence enters
through a :class:`~oscnet.propagation.PropagatorBundle`.

The evolved state of a coherent mixture is a Gaussian sum.  Each ordered pair
of components (r bra-side, s ket-side) contributes a Gaussian centered at the
evolved centroids with a common width: the accumulated noise J for the
P-function, J + I for the Wigner function.  Pair weights are assembled in log
space so widely separated components never underflow through intermediate
factors.

The characteristic, P- and Wigner functions share one kernel,
:func:`_pair_sum`: per point, the sum over pairs of
``exp(const[r, s] + row[r] + col[s] + q)``, with the K x K pair constants
built once, cross-branch (and zero-coefficient) pairs dropped once, and the
per-point terms formed as (points, K) matrix products.  The full exponent is
formed in log space over chunks of points, sized so the per-chunk arrays
stay within ``_CHUNK_BYTES`` (8 MiB) whatever the grid size or component
count.  For P and Wigner the summand is Hermitian in (r, s) (the width is
Hermitized and ``logw[s, r] = conj(logw[r, s])``), so only pairs r <= s are
evaluated, off-diagonal ones counted twice, as ``exp(Re e) cos(Im e)``: the
sum is real by construction.  The characteristic function keeps every
ordered pair in complex arithmetic.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureNotConverged, SingularWidth, ValidationError
from .propagation import PropagatorBundle
from .states import CoherentMixture, FockMixture

__all__ = [
    "char_function",
    "char_function_fock",
    "p_function",
    "wigner",
    "wigner_elements",
    "wigner_from_char",
    "wigner_grid",
    "moments",
]

_DET_FLOOR = 1e-14
# Byte budget of the per-chunk arrays in `_pair_sum`; it alone sets how many
# points go in one chunk.
_CHUNK_BYTES = 8 << 20


def _as_points(xi, n: int):
    pts = np.asarray(xi, dtype=complex)
    scalar = pts.ndim == 1
    if pts.shape[-1] != n:
        raise ValidationError(f"phase-space points must have {n} modes on the last axis")
    return np.atleast_2d(pts) if scalar else pts, scalar


def _flat_components(state: CoherentMixture):
    """Flatten a mixture: amplitude matrix (K, N), log pair-weight matrix (K, K).

    ``logw[r, s] = log(p_branch) + log(conj(L_r) L_s) + overlap exponent`` for
    components r, s of one branch, and -inf for cross-branch pairs.
    """
    betas = []
    coeffs = []
    branch_of = []
    probs = []
    for j, branch in enumerate(state.branches):
        for comp in branch.components:
            betas.append(comp.amplitudes)
            coeffs.append(comp.coefficient)
            branch_of.append(j)
        probs.append(branch.probability)
    betas = np.array(betas)
    coeffs = np.array(coeffs)
    branch_of = np.array(branch_of)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_coeffs = np.log(coeffs.astype(complex))
        log_probs = np.log(np.array(probs, dtype=float))
    log_coeffs[coeffs == 0] = -np.inf
    # Overlap exponents: sum_m(-|b_r|^2/2 - |b_s|^2/2 + conj(b_r) b_s).
    norms = np.sum(np.abs(betas) ** 2, axis=1)
    cross = betas.conj() @ betas.T
    overlap_exp = -0.5 * norms[:, None] - 0.5 * norms[None, :] + cross
    logw = (
        log_coeffs.conj()[:, None]
        + log_coeffs[None, :]
        + overlap_exp
        + log_probs[branch_of][:, None]
    )
    same = branch_of[:, None] == branch_of[None, :]
    logw = np.where(same, logw, -np.inf + 0j)
    return betas, logw


def _pair_weights(state: CoherentMixture):
    betas, logw = _flat_components(state)
    with np.errstate(over="ignore"):
        weights = np.exp(logw)
    weights[np.isneginf(logw.real)] = 0.0
    return betas, weights, logw


def _pair_sum(pts, const, bra, form, ket=None):
    """Per point p, sum over pairs of ``exp(const[r, s] + row[p, r] + col[p, s] + q[p])``.

    ``row = pts @ bra``, ``q = pts form conj(pts)`` and, when ``ket`` is
    given, ``col = conj(pts) @ ket``; pairs whose constant has real part -inf
    contribute nothing and are dropped.  With ``ket=None`` the summand is
    taken to be Hermitian in (r, s): ``col = conj(row)``, ``const`` and
    ``form`` Hermitian.  Then only pairs r <= s are evaluated, off-diagonal
    ones twice, and the (real) result is a sum of ``exp(Re e) cos(Im e)``.
    Otherwise every ordered pair is summed in complex arithmetic.  Points
    are taken in chunks whose arrays fit in ``_CHUNK_BYTES``.
    """
    hermitian = ket is None
    keep = ~np.isneginf(const.real)
    r_idx, s_idx = np.nonzero(np.triu(keep) if hermitian else keep)
    pair_const = const[r_idx, s_idx]
    count = pts.shape[0]
    # Bytes per point: at most 32 per kept pair, 64 per component and per mode.
    per_point = 32 * r_idx.size + 64 * (const.shape[0] + pts.shape[1])
    step = max(1, min(count, _CHUNK_BYTES // per_point))
    out = np.empty(count, dtype=float if hermitian else complex)
    if hermitian:
        mult = np.where(r_idx == s_idx, 1.0, 2.0)
        x, y, z = (np.empty((step, r_idx.size)) for _ in range(3))
    else:
        x, y = (np.empty((step, r_idx.size), dtype=complex) for _ in range(2))
    for start in range(0, count, step):
        block = pts[start : start + step]
        n = block.shape[0]
        row = block @ bra
        quad = np.einsum("pm,pm->p", block @ form, block.conj())
        if hermitian:
            # Re e = Re row_r + Re row_s + q + Re const and Im e = Im row_r
            # - Im row_s + Im const (q is real for a Hermitian form).
            a = row.real + 0.5 * quad.real[:, None]
            xs, ys, zs = x[:n], y[:n], z[:n]
            # mode="clip" lets np.take fill the buffer in place (indexes are valid).
            np.take(a, r_idx, axis=1, out=xs, mode="clip")
            np.take(a, s_idx, axis=1, out=ys, mode="clip")
            xs += ys
            xs += pair_const.real
            with np.errstate(over="ignore"):
                np.exp(xs, out=xs)
            np.take(row.imag, r_idx, axis=1, out=ys, mode="clip")
            np.take(row.imag, s_idx, axis=1, out=zs, mode="clip")
            ys -= zs
            ys += pair_const.imag
            np.cos(ys, out=ys)
            xs *= ys
            out[start : start + n] = xs @ mult
        else:
            xs, ys = x[:n], y[:n]
            np.take(row + quad[:, None], r_idx, axis=1, out=xs, mode="clip")
            np.take(block.conj() @ ket, s_idx, axis=1, out=ys, mode="clip")
            xs += ys
            xs += pair_const
            with np.errstate(over="ignore"):
                np.exp(xs, out=xs)
            out[start : start + n] = xs.sum(axis=1)
    return out


def char_function(state: CoherentMixture, eta, bundle: PropagatorBundle):
    """Normal-ordered characteristic function of an evolved coherent mixture.

    ``chi(eta) = sum_pairs w_rs exp(eta . conj(K_r) - conj(eta) . K_s)
    * exp(-1/2 eta J conj(eta))`` with K the evolved centroids and J the
    accumulated noise width.  ``chi(0) = 1`` for every state and time.
    """
    pts, scalar = _as_points(eta, state.n_modes)
    betas, logw = _flat_components(state)
    centers = (bundle.transition @ betas.T).T  # (K, N)
    value = _pair_sum(
        pts.reshape(-1, state.n_modes),
        logw,
        centers.conj().T,  # eta . conj(K_r)
        -0.5 * bundle.noise,
        ket=-centers.T,  # -conj(eta) . K_s
    ).reshape(pts.shape[:-1])
    return complex(value[0]) if scalar else value


def _gaussian_terms(state: CoherentMixture, bundle: PropagatorBundle, width: np.ndarray):
    """Determinant and Hermitian kernel terms (const, bra, form) of a Gaussian sum.

    The exponent of pair (r, s) at xi is ``logw[r, s] - 2 (xi A conj(xi)
    - xi A conj(K_r) - K_s A conj(xi) + K_s A conj(K_r))`` with A the inverse
    of the Hermitized width: const = logw - 2 K_s A conj(K_r), bra = 2 A
    conj(K)^T, form = -2 A.
    """
    hermitized = 0.5 * (width + width.conj().T)
    det = np.linalg.det(hermitized).real
    if abs(det) < _DET_FLOOR:
        raise SingularWidth(f"width determinant {det:.3g} below {_DET_FLOOR}")
    betas, logw = _flat_components(state)
    centers = (bundle.transition @ betas.T).T  # (K, N)
    inv = np.linalg.inv(hermitized)
    inv = 0.5 * (inv + inv.conj().T)
    c_pair = (centers @ inv) @ centers.conj().T  # (s, r): K_s inv conj(K_r)
    return det, logw - 2.0 * c_pair.T, 2.0 * (inv @ centers.conj().T), -2.0 * inv


def _gaussian_sum(state: CoherentMixture, xi, bundle: PropagatorBundle, width: np.ndarray):
    n = state.n_modes
    pts, scalar = _as_points(xi, n)
    det, const, bra, form = _gaussian_terms(state, bundle, width)
    total = _pair_sum(pts.reshape(-1, n), const, bra, form).reshape(pts.shape[:-1])
    value = (2.0 / np.pi) ** n / det * total
    return value[0] if scalar else value


def p_function(state: CoherentMixture, xi, bundle: PropagatorBundle):
    """Glauber-Sudarshan P-function of the evolved mixture (complex per point).

    Evaluated by the Hermitian pair-sum kernel over pairs r <= s, so the
    imaginary part is exactly zero; the complex dtype is kept.  Diverges
    without diffusion: raises :class:`SingularWidth` when the noise width is
    singular (all reservoirs at zero temperature).
    """
    value = _gaussian_sum(state, xi, bundle, bundle.noise)
    return np.asarray(value, dtype=complex) if np.ndim(value) else complex(value)


def wigner(state: CoherentMixture, xi, bundle: PropagatorBundle):
    """Wigner function of the evolved mixture (real per point).

    Identical to the P-function with the noise width replaced by
    noise + identity, which is always invertible.  Points are evaluated in
    chunks under a fixed byte budget, so memory stays bounded in the grid
    size and the component count.
    """
    value = _gaussian_sum(state, xi, bundle, bundle.wigner_width)
    return value if np.ndim(value) else float(value)


def wigner_elements(state: CoherentMixture, xi_rotated, bundle: PropagatorBundle):
    """Per-pair Wigner elements of a pure state in the rotated frame.

    Returns an array with trailing shape (K, K): entry (r, s) is the
    bra-r/ket-s Gaussian evaluated at the rotated coordinates, using the
    diagonal diffusion coefficients.  Summing over (r, s) at
    ``xi_rotated = U.T @ xi`` reproduces :func:`wigner` at ``xi``.
    """
    branch = state.single_branch()
    n = state.n_modes
    pts, scalar = _as_points(xi_rotated, n)
    betas = np.array([c.amplitudes for c in branch.components])
    coeffs = np.array([c.coefficient for c in branch.components])
    centers = (bundle.transition @ betas.T).T
    rotated = centers @ bundle.rotation  # row convention: K~ = K . U
    det = float(np.prod(bundle.diffusion_coeffs))
    norms = np.sum(np.abs(betas) ** 2, axis=1)
    overlap_exp = -0.5 * norms[:, None] - 0.5 * norms[None, :] + betas.conj() @ betas.T
    weight = coeffs.conj()[:, None] * coeffs[None, :] * np.exp(overlap_exp)
    diff = pts[..., None, :] - rotated  # (..., K, N)
    quad = np.einsum(
        "...sm,m,...rm->...rs", diff, 1.0 / bundle.diffusion_coeffs, diff.conj()
    )
    value = (2.0 / np.pi) ** n / det * weight * np.exp(-2.0 * quad)
    return value[0] if scalar else value


def moments(state: CoherentMixture, bundle: PropagatorBundle):
    """First and second moments: (<a_m>, <a_m^dag a_n>) of the evolved mixture."""
    betas, weights, _ = _pair_weights(state)
    centers = (bundle.transition @ betas.T).T
    first = np.einsum("rs,sn->n", weights, centers)
    second = bundle.noise / 2.0 + np.einsum(
        "rs,rm,sn->mn", weights, centers.conj(), centers
    )
    return first, second


def char_function_fock(state: FockMixture, eta, bundle: PropagatorBundle):
    """Normal-ordered characteristic function of an evolved Fock mixture.

    Evaluates the finite polynomial sums in the transition-matrix contractions
    of eta; terms whose factorial argument would go negative contribute
    nothing.
    """
    n = state.n_modes
    pts, scalar = _as_points(eta, n)
    a = pts @ bundle.transition.conj()  # (..., l): sum_m eta_m conj(T_ml)
    b = -(pts.conj() @ bundle.transition)  # (..., l): -sum_m conj(eta_m) T_ml
    gauss = np.exp(
        -0.5 * np.einsum("...m,mn,...n->...", pts, bundle.noise, pts.conj())
    )
    total = np.zeros(pts.shape[:-1], dtype=complex)
    for branch in state.branches:
        for x_occ, cx in branch.coefficients:
            for y_occ, cy in branch.coefficients:
                term = np.ones(pts.shape[:-1], dtype=complex)
                for mode in range(n):
                    x = x_occ[mode]
                    y = y_occ[mode]
                    inner = np.zeros(pts.shape[:-1], dtype=complex)
                    root = math.sqrt(math.factorial(y) * math.factorial(x))
                    for j in range(x + 1):
                        p = y - x + j
                        if p < 0:
                            continue
                        coeff = root / (
                            math.factorial(j)
                            * math.factorial(x - j)
                            * math.factorial(p)
                        )
                        inner = inner + coeff * a[..., mode] ** p * b[..., mode] ** j
                    term = term * inner
                total = total + branch.probability * cy.conjugate() * cx * term
    value = total * gauss
    return complex(value[0]) if scalar else value


def _hermite_rule(nodes: int):
    u, w = np.polynomial.hermite.hermgauss(nodes)
    return np.sqrt(2.0) * u, np.sqrt(2.0) * w


def _wigner_quadrature(chi, xi, n_modes: int, nodes: int, chunk: int) -> float:
    x, w = _hermite_rule(nodes)
    axes_pts = []
    axes_wts = []
    for _ in range(2 * n_modes):
        axes_pts.append(x)
        axes_wts.append(w)
    mesh = np.meshgrid(*axes_pts, indexing="ij")
    weight = np.ones_like(mesh[0])
    for wm in np.meshgrid(*axes_wts, indexing="ij"):
        weight = weight * wm
    eta = np.stack(
        [mesh[2 * m] + 1j * mesh[2 * m + 1] for m in range(n_modes)], axis=-1
    ).reshape(-1, n_modes)
    weight = weight.reshape(-1)
    xi = np.asarray(xi, dtype=complex)
    total = 0.0 + 0.0j
    for start in range(0, eta.shape[0], chunk):
        block = eta[start : start + chunk]
        # Kernel sign pairs with the characteristic-function convention so a
        # component centered at K transforms to a Gaussian centered at K.
        phase = np.exp(block.conj() @ xi - block @ xi.conj())
        total += np.sum(weight[start : start + chunk] * chi(block) * phase)
    return float((total / np.pi ** (2 * n_modes)).real)


def wigner_from_char(
    chi,
    xi,
    n_modes: int,
    nodes: int = 64,
    tol: float = 1e-5,
    chunk: int = 1 << 16,
) -> float:
    """Wigner value from a characteristic-function evaluator by quadrature.

    Computes the symmetric-order Fourier transform
    ``pi^-2N integral chi(eta) exp(-|eta|^2/2) exp(conj(eta).xi - eta.conj(xi))``
    with tensor-product Gauss-Hermite nodes (the exp(-|eta|^2/2) factor is the
    quadrature weight).  ``chi`` must accept a batch of eta rows.  Limited to
    two modes; the node count is doubled once and the result rejected if the
    two estimates differ by more than ``tol``.
    """
    if n_modes > 2:
        raise ValidationError("quadrature transform is limited to two modes")
    coarse = _wigner_quadrature(chi, xi, n_modes, nodes, chunk)
    fine = _wigner_quadrature(chi, xi, n_modes, 2 * nodes, chunk)
    if abs(fine - coarse) > tol:
        raise QuadratureNotConverged(
            f"doubling nodes moved the result by {abs(fine - coarse):.3g} > {tol}"
        )
    return fine


def wigner_grid(state: CoherentMixture, bundle: PropagatorBundle, ranges, points: int):
    """Evaluate the Wigner function on a cartesian re/im grid per mode.

    ``ranges`` is one (re_min, re_max, im_min, im_max) tuple per mode.
    Returns ``(coords, values)`` with coords of shape (P, 2N) holding the
    real and imaginary parts per mode, and values of shape (P,).
    """
    n = state.n_modes
    if len(ranges) != n:
        raise ValidationError("one range tuple per mode is required")
    axes = []
    for re_min, re_max, im_min, im_max in ranges:
        axes.append(np.linspace(re_min, re_max, points))
        axes.append(np.linspace(im_min, im_max, points))
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    xi = np.stack(
        [coords[:, 2 * m] + 1j * coords[:, 2 * m + 1] for m in range(n)], axis=-1
    )
    values = wigner(state, xi, bundle)
    return coords, np.asarray(values, dtype=float)
