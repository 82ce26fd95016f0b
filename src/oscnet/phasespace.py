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

:func:`wigner_grid` evaluates the same Hermitian sum on a cartesian grid by
a factored route instead.  The pair part of the exponent is linear in the 2N
grid coordinates, so it splits into one factor per axis; the factors of the
first N axes and of the last N form two (points^N, pairs) matrices, built in
blocks under ``_CHUNK_BYTES``, and the pair sum is their product, times
``exp(q)`` per point.  Each factor is shifted to modulus <= 1 and the shifts
are folded into the pair weights, so nothing overflows while the largest
shifted weight stays under ``exp(_FACTOR_LOG_MAX)``.  Past that, the grid
falls back to :func:`_pair_sum`: only on that route is the whole exponent
formed in log space.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureNotConverged, SingularWidth, ValidationError
from .propagation import PropagatorBundle
from .states import CoherentMixture, FockMixture, _log_overlaps

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
# Byte budget of the per-chunk arrays in `_pair_sum` and of the factor blocks
# in `_factored_sum`; it alone sets how many points go in one chunk.
_CHUNK_BYTES = 8 << 20
# Largest log of a shifted pair weight that `wigner_grid` factors.  Each
# factored term is then at most 2 e^600, and where exp(q) underflows
# (q < -745) the part dropped is at most 2 * pairs * e^-145.
_FACTOR_LOG_MAX = 600.0


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
    comps = [c for branch in state.branches for c in branch.components]
    betas = np.array([c.amplitudes for c in comps])
    coeffs = np.array([c.coefficient for c in comps])
    branch_of = np.array([j for j, b in enumerate(state.branches) for _ in b.components])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_coeffs = np.log(coeffs)
        log_probs = np.log(np.array([b.probability for b in state.branches]))
    log_coeffs[coeffs == 0] = -np.inf
    logw = (
        log_coeffs.conj()[:, None]
        + log_coeffs[None, :]
        + _log_overlaps(betas, betas)
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
    return betas, weights


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
    centers = bundle.centers(betas.T).T  # (K, N)
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
    centers = bundle.centers(betas.T).T  # (K, N)
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

    Returns an array with trailing shape (K, K): entry (r, s) is the bra-r/
    ket-s term ``exp(const[r, s] + row_r + conj(row_s) + q)`` of
    :func:`wigner`'s kernel at ``xi = xi_rotated U^dag``, its exponent formed
    whole in log space (zero-coefficient pairs are exactly 0).  Summing over
    (r, s) at ``xi_rotated = U.T @ xi`` reproduces :func:`wigner` at ``xi``.
    """
    state.single_branch()  # raises unless the state is pure
    n = state.n_modes
    pts, scalar = _as_points(xi_rotated, n)
    det, const, bra, form = _gaussian_terms(state, bundle, bundle.wigner_width)
    xi = pts @ bundle.rotation.conj().T
    row = xi @ bra  # (..., K)
    quad = np.einsum("...m,mn,...n->...", xi, form, xi.conj()).real
    exponent = const + row[..., :, None] + row.conj()[..., None, :]
    value = (2.0 / np.pi) ** n / det * np.exp(exponent + quad[..., None, None])
    return value[0] if scalar else value


def moments(state: CoherentMixture, bundle: PropagatorBundle):
    """First and second moments: (<a_m>, <a_m^dag a_n>) of the evolved mixture."""
    betas, weights = _pair_weights(state)
    centers = bundle.centers(betas.T).T
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
    points = _grid_coords([x] * (2 * n_modes))
    eta = points[:, 0::2] + 1j * points[:, 1::2]
    weight = np.prod(_grid_coords([w] * (2 * n_modes)), axis=1)
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


def _factored_sum(coords, axes, const, bra, form):
    """The Hermitian `_pair_sum` on a cartesian grid, factored over its axes.

    Returns None, leaving the grid to `_pair_sum`, when a pair's shifted
    weight exceeds ``exp(_FACTOR_LOG_MAX)``.
    """
    n = bra.shape[0]
    r_idx, s_idx = np.nonzero(np.triu(~np.isneginf(const.real)))
    # Axis a of the grid (re or im part of mode a // 2) enters pair p's
    # exponent as coef[a, p] * u_a.
    coef = np.empty((2 * n, r_idx.size), dtype=complex)
    br, bs = bra[:, r_idx], bra[:, s_idx].conj()
    coef[0::2] = br + bs
    coef[1::2] = 1j * (br - bs)
    # Re(coef * u) is monotone in u, so its largest value over an axis sits
    # at one of the axis's ends.
    ends = np.array([[axis[0], axis[-1]] for axis in axes])
    shift = np.maximum(coef.real * ends[:, :1], coef.real * ends[:, 1:])
    pair_const = const[r_idx, s_idx]
    if np.max(pair_const.real + shift.sum(axis=0)) > _FACTOR_LOG_MAX:
        return None
    # Grid points in "ij" order: the first n axes pick the row of the
    # (left, right) table, the last n the column.
    n_right = len(axes[0]) ** n
    grid = coords.reshape(-1, n_right, 2 * n)
    left, right = grid[:, 0, :n], grid[0, :, n:]
    right_shift = shift[n:].sum(axis=0)
    mult = np.where(r_idx == s_idx, 1.0, 2.0)
    left_offset = pair_const + np.log(mult) + right_shift
    table = np.empty((left.shape[0], n_right))
    # One left and one right block of complex factors, and the left block's
    # successor while it is built, stay within _CHUNK_BYTES.
    step = max(1, _CHUNK_BYTES // (64 * r_idx.size))
    for k in range(0, n_right, step):
        rhs = right[k : k + step] @ coef[n:]
        rhs -= right_shift
        np.exp(rhs, out=rhs)
        # Re(L R) = Re L Re R - Im L Im R: a real product of the interleaved
        # (re, im) views of L and conj(R).
        rhs = np.conjugate(rhs, out=rhs).view(float)
        for j in range(0, left.shape[0], step):
            lhs = left[j : j + step] @ coef[:n]
            lhs += left_offset
            np.exp(lhs, out=lhs)
            np.matmul(lhs.view(float), rhs.T, out=table[j : j + step, k : k + step])
    values = table.reshape(-1)
    # q = Re(xi form conj(xi)) as a real quadratic form in the interleaved
    # (re, im) coordinates; form is Hermitian.
    real_form = np.empty((2 * n, 2 * n))
    real_form[0::2, 0::2] = real_form[1::2, 1::2] = form.real
    real_form[0::2, 1::2] = form.imag
    real_form[1::2, 0::2] = -form.imag
    # Bytes per point: at most 32 per mode, plus q itself.
    step = max(1, _CHUNK_BYTES // (32 * n + 16))
    for start in range(0, values.size, step):
        block = coords[start : start + step]
        quad = np.einsum("pi,pi->p", block @ real_form, block)
        values[start : start + step] *= np.exp(quad, out=quad)
    return values


def _grid_coords(axes):
    """Rows of the cartesian product of ``axes``, each column one broadcast axis."""
    d = len(axes)
    coords = np.empty(tuple(axis.size for axis in axes) + (d,))
    for i, axis in enumerate(axes):
        coords[..., i] = axis.reshape((-1,) + (1,) * (d - 1 - i))
    return coords.reshape(-1, d)


def wigner_grid(state: CoherentMixture, bundle: PropagatorBundle, ranges, points: int):
    """Evaluate the Wigner function on a cartesian re/im grid per mode.

    ``ranges`` is one (re_min, re_max, im_min, im_max) tuple per mode.
    Returns ``(coords, values)`` with coords of shape (P, 2N) holding the
    real and imaginary parts per mode, and values of shape (P,).

    The pair part of each exponent is linear in the 2N grid coordinates, so
    the pair sum is one product of a (points^N, pairs) factor matrix over the
    first N axes with one over the last N, times ``exp(q)`` per point; each
    factor is shifted to modulus <= 1 and the shifts folded into the pair
    weight.  Only when a shifted pair weight would exceed
    ``exp(_FACTOR_LOG_MAX)`` does the grid go through :func:`wigner`'s
    kernel, the one route that forms the whole exponent in log space.
    """
    n = state.n_modes
    if len(ranges) != n:
        raise ValidationError("one range tuple per mode is required")
    axes = []
    for re_min, re_max, im_min, im_max in ranges:
        axes.append(np.linspace(re_min, re_max, points))
        axes.append(np.linspace(im_min, im_max, points))
    coords = _grid_coords(axes)
    det, const, bra, form = _gaussian_terms(state, bundle, bundle.wigner_width)
    total = _factored_sum(coords, axes, const, bra, form)
    if total is None:
        total = _pair_sum(coords[:, 0::2] + 1j * coords[:, 1::2], const, bra, form)
    return coords, (2.0 / np.pi) ** n / det * total
