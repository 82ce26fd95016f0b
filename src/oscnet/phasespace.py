"""Phase-space evaluators: characteristic function, P-function, Wigner function.

Every evaluator accepts a single phase-space point (length-N complex vector) or
a batch with the mode axis last, and is pure: all time dependence enters
through a :class:`~oscnet.propagation.PropagatorBundle`.

The evolved state of a coherent mixture is a Gaussian sum.  Each ordered pair
of components (r bra-side, s ket-side) contributes a Gaussian centered at the
evolved centroids with a common width: the accumulated noise J for the
P-function, J + I for the Wigner function.  As in the metrics, a width that is
not positive definite has no such Gaussian and raises :class:`SingularWidth`,
and so does a value of :func:`p_function` or :func:`wigner` past the float
range.  The amplitudes and the log pair weights, assembled in log space so
widely separated components never underflow, come from the mixture's one
record, :attr:`~oscnet.states.CoherentMixture.pairs`.

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

:func:`wigner_grid` and :func:`~oscnet.metrics.linear_entropy` share a
second core, :func:`_shifted_exp`: ``sum_k exp(a[i, k] + b[j, k])`` is one
product of the row-shifted exponentials of a and b, the shifts kept in log
form.  Where an exponent formed from the shifts would pass
``_FACTOR_LOG_MAX``, the caller takes a log-space form: :func:`_pair_sum`
for the grid, a per-entry shift for the entropy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import QuadratureNotConverged, SingularWidth, ValidationError, _check_bytes
from .errors import _MODULUS_MAX as _RANGE_MAX  # largest |entry| of a Wigner grid range
from .propagation import PropagatorBundle, _positive_factor
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
# Byte budget of the per-chunk arrays in `_pair_sum`, `_wigner_quadrature`
# and of the factor blocks in `_factored_sum`; it alone sets how many points
# go in one chunk.
_CHUNK_BYTES = 8 << 20
# Largest exponent a caller of `_shifted_exp` may form from its shifts.
# Each factored term is then at most e^600, and a term whose factors
# underflow (below e^-745 of its shifts) is at most e^-145.
_FACTOR_LOG_MAX = 600.0
# Largest change of `wigner_from_char`'s value when its node count doubles.
_QUADRATURE_TOL = 1e-5


def _as_points(xi, n: int):
    pts = np.asarray(xi, dtype=complex)
    scalar = pts.ndim == 1
    if pts.shape[-1] != n:
        raise ValidationError(f"phase-space points must have {n} modes on the last axis")
    return np.atleast_2d(pts) if scalar else pts, scalar


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
    mult = np.where(r_idx == s_idx, 1.0, 2.0)
    count = pts.shape[0]
    # Bytes per point: at most 32 per kept pair, 64 per component and per mode.
    per_point = 32 * r_idx.size + 64 * (const.shape[0] + pts.shape[1])
    step = max(1, min(count, _CHUNK_BYTES // per_point))
    out = np.empty(count, dtype=float if hermitian else complex)
    for start in range(0, count, step):
        block = pts[start : start + step]
        row = block @ bra
        quad = np.einsum("pm,pm->p", block @ form, block.conj())
        if hermitian:
            # Re e = Re row_r + Re row_s + q + Re const and Im e = Im row_r
            # - Im row_s + Im const (q is real for a Hermitian form).
            a = row.real + 0.5 * quad.real[:, None]
            re = a[:, r_idx]
            re += a[:, s_idx]
            re += pair_const.real
            im = row.imag[:, r_idx]
            im -= row.imag[:, s_idx]
            im += pair_const.imag
            with np.errstate(over="ignore"):
                np.exp(re, out=re)
            re *= np.cos(im, out=im)
            out[start : start + step] = re @ mult
        else:
            e = (row + quad[:, None])[:, r_idx]
            e += (block.conj() @ ket)[:, s_idx]
            e += pair_const
            with np.errstate(over="ignore"):
                out[start : start + step] = np.exp(e, out=e).sum(axis=1)
    return out


def char_function(state: CoherentMixture, eta, bundle: PropagatorBundle):
    """Normal-ordered characteristic function of an evolved coherent mixture.

    ``chi(eta) = sum_pairs w_rs exp(eta . conj(K_r) - conj(eta) . K_s)
    * exp(-1/2 eta J conj(eta))`` with K the evolved centroids and J the
    accumulated noise width.  ``chi(0) = 1`` for every state and time.
    """
    pts, scalar = _as_points(eta, state.n_modes)
    betas, _, logw = state.pairs
    centers = bundle.centers(betas.T).T  # (K, N)
    value = _pair_sum(
        pts.reshape(-1, state.n_modes),
        logw,
        centers.conj().T,  # eta . conj(K_r)
        -0.5 * bundle.noise,
        ket=-centers.T,  # -conj(eta) . K_s
    ).reshape(pts.shape[:-1])
    return complex(value[0]) if scalar else value


def _gaussian_terms(state: CoherentMixture, bundle: PropagatorBundle, kind: str):
    """Determinant and Hermitian kernel terms (const, bra, form) of a Gaussian sum.

    The exponent of pair (r, s) at xi is ``logw[r, s] - 2 (xi A conj(xi)
    - xi A conj(K_r) - K_s A conj(xi) + K_s A conj(K_r))`` with A the inverse
    of the Hermitized width: const = logw - 2 K_s A conj(K_r), bra = 2 A
    conj(K)^T, form = -2 A.  The ``kind`` (``"noise"`` or ``"Wigner"``) width
    must be positive definite, its determinant at least ``_DET_FLOOR``.
    """
    width = bundle.noise if kind == "noise" else bundle.wigner_width
    hermitized, lower = _positive_factor(width, f"{kind} width at t = {bundle.t}")
    det = np.prod(np.diag(lower).real) ** 2
    if det < _DET_FLOOR:
        raise SingularWidth(f"{kind} width determinant {det:.3g} below {_DET_FLOOR}")
    betas, _, logw = state.pairs
    centers = bundle.centers(betas.T).T  # (K, N)
    inv = np.linalg.inv(hermitized)
    inv = 0.5 * (inv + inv.conj().T)
    c_pair = (centers @ inv) @ centers.conj().T  # (s, r): K_s inv conj(K_r)
    return det, logw - 2.0 * c_pair.T, 2.0 * (inv @ centers.conj().T), -2.0 * inv


def _gaussian_sum(state: CoherentMixture, xi, bundle: PropagatorBundle, kind: str):
    n = state.n_modes
    pts, scalar = _as_points(xi, n)
    det, const, bra, form = _gaussian_terms(state, bundle, kind)
    with np.errstate(over="ignore", invalid="ignore"):
        total = _pair_sum(pts.reshape(-1, n), const, bra, form).reshape(pts.shape[:-1])
        value = (2.0 / np.pi) ** n / det * total
    if not np.all(np.isfinite(value)):
        where = f"{kind} width at t = {bundle.t}"
        raise SingularWidth(f"{where} puts the Gaussian sum past the float range")
    return value[0] if scalar else value


def p_function(state: CoherentMixture, xi, bundle: PropagatorBundle):
    """Glauber-Sudarshan P-function of the evolved mixture (complex per point).

    Evaluated by the Hermitian pair-sum kernel over pairs r <= s, so the
    imaginary part is exactly zero; the complex dtype is kept.  Undefined
    (:class:`SingularWidth`) where the noise width is not positive definite:
    without diffusion, and at short times on a non-secular common reservoir.
    A value past the float range, as a nonclassical state's P-function
    reaches while the noise width is still small, raises
    :class:`SingularWidth` too, naming the noise width and the time.
    """
    value = _gaussian_sum(state, xi, bundle, "noise")
    return np.asarray(value, dtype=complex) if np.ndim(value) else complex(value)


def wigner(state: CoherentMixture, xi, bundle: PropagatorBundle):
    """Wigner function of the evolved mixture (real per point).

    Identical to the P-function with the noise width replaced by
    noise + identity.  Points are evaluated in chunks under a fixed byte
    budget, so memory stays bounded in the grid size and the component count.
    """
    value = _gaussian_sum(state, xi, bundle, "Wigner")
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
    det, const, bra, form = _gaussian_terms(state, bundle, "Wigner")
    xi = pts @ bundle.rotation.conj().T
    row = xi @ bra  # (..., K)
    quad = np.einsum("...m,mn,...n->...", xi, form, xi.conj()).real
    exponent = const + row[..., :, None] + row.conj()[..., None, :]
    value = (2.0 / np.pi) ** n / det * np.exp(exponent + quad[..., None, None])
    return value[0] if scalar else value


def moments(state: CoherentMixture, bundle: PropagatorBundle):
    """First and second moments: (<a_m>, <a_m^dag a_n>) of the evolved mixture."""
    betas, _, logw = state.pairs
    with np.errstate(over="ignore"):
        weights = np.where(np.isneginf(logw.real), 0.0, np.exp(logw))
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


def _wigner_quadrature(chi, xi, n_modes: int, nodes: int) -> float:
    x, w = _hermite_rule(nodes)
    points = _grid_coords([x] * (2 * n_modes))
    eta = points[:, 0::2] + 1j * points[:, 1::2]
    weight = np.prod(_grid_coords([w] * (2 * n_modes)), axis=1)
    xi = np.asarray(xi, dtype=complex)
    chunk = _CHUNK_BYTES // 128  # block, phase, chi and products: <= 128 bytes a point
    total = 0.0 + 0.0j
    for start in range(0, eta.shape[0], chunk):
        block = eta[start : start + chunk]
        # Kernel sign pairs with the characteristic-function convention so a
        # component centered at K transforms to a Gaussian centered at K.
        phase = np.exp(block.conj() @ xi - block @ xi.conj())
        total += np.sum(weight[start : start + chunk] * chi(block) * phase)
    return float((total / np.pi ** (2 * n_modes)).real)


def wigner_from_char(chi, xi, n_modes: int, nodes: int = 64) -> float:
    """Wigner value from a characteristic-function evaluator by quadrature.

    Computes the symmetric-order Fourier transform
    ``pi^-2N integral chi(eta) exp(-|eta|^2/2) exp(conj(eta).xi - eta.conj(xi))``
    with tensor-product Gauss-Hermite nodes (the exp(-|eta|^2/2) factor is the
    quadrature weight).  ``chi`` must accept a batch of eta rows.  Limited to
    two modes; the node count is doubled once and the result rejected if the
    two estimates differ by more than ``_QUADRATURE_TOL = 1e-5``.  The
    doubled pass holds its whole node grid, (2 nodes)^2N points of 48N + 8
    bytes, so a grid above the byte limit is refused before either pass: on
    two modes ``nodes`` may be at most 28 (the default 64 is for one mode).
    """
    if n_modes > 2:
        raise ValidationError("quadrature transform is limited to two modes")
    _check_bytes(
        f"the quadrature grid of {2 * nodes} nodes per axis on {n_modes} modes",
        (2 * nodes) ** (2 * n_modes) * (48 * n_modes + 8),
    )
    coarse = _wigner_quadrature(chi, xi, n_modes, nodes)
    fine = _wigner_quadrature(chi, xi, n_modes, 2 * nodes)
    if abs(fine - coarse) > _QUADRATURE_TOL:
        raise QuadratureNotConverged(
            f"doubling nodes moved the result by {abs(fine - coarse):.3g} > {_QUADRATURE_TOL}"
        )
    return fine


def _shifted_exp(x):
    """``(exp(x - shift), shift)``, ``shift`` the largest real part of each row
    (0 for an all -inf row), so every factor has modulus <= 1.

    With ``(ea, sa)`` and ``(eb, sb)`` those of a and b, ``sum_k exp(a[i, k]
    + b[j, k]) = (ea @ eb.T)[i, j] * exp(sa[i] + sb[j])``; callers keep every
    exponent they form from the shifts under ``_FACTOR_LOG_MAX``.
    """
    shift = x.real.max(axis=-1)
    shift[np.isneginf(shift)] = 0.0
    factor = x - shift[..., None]
    return np.exp(factor, out=factor), shift


def _factored_sum(coords, points, const, bra, form):
    """The Hermitian `_pair_sum` on a cartesian grid, factored over its axes;
    None where a point's exponent would pass ``_FACTOR_LOG_MAX``."""
    n = bra.shape[0]
    r_idx, s_idx = np.nonzero(np.triu(~np.isneginf(const.real)))
    # Axis a of the grid (re or im part of mode a // 2) enters pair p's
    # exponent as coef[a, p] * u_a.
    coef = np.empty((2 * n, r_idx.size), dtype=complex)
    br, bs = bra[:, r_idx], bra[:, s_idx].conj()
    coef[0::2] = br + bs
    coef[1::2] = 1j * (br - bs)
    # Off-diagonal pairs count twice.
    pair_const = const[r_idx, s_idx] + np.log(np.where(r_idx == s_idx, 1.0, 2.0))
    # q = Re(xi form conj(xi)) as a real quadratic form in the interleaved
    # (re, im) coordinates; form is Hermitian.
    real_form = np.empty((2 * n, 2 * n))
    real_form[0::2, 0::2] = real_form[1::2, 1::2] = form.real
    real_form[0::2, 1::2] = form.imag
    real_form[1::2, 0::2] = -form.imag
    # Grid points in "ij" order: the first n axes pick the row of the
    # (left, right) table, the last n the column.
    grid = coords.reshape(-1, points**n, 2 * n)
    left, right = grid[:, 0, :n], grid[0, :, n:]
    table = np.empty(grid.shape[:2])
    # The left and right factor blocks, and a (step, step) block of points
    # with its coordinates, stay within _CHUNK_BYTES.
    step = max(1, min(_CHUNK_BYTES // (64 * r_idx.size), math.isqrt(_CHUNK_BYTES // (16 * n + 32))))
    for k in range(0, right.shape[0], step):
        rhs, sb = _shifted_exp(right[k : k + step] @ coef[n:])
        # Re(L R^T) = Re L Re R^T - Im L Im R^T: a real product of the
        # interleaved (re, im) views of L and conj(R).
        rhs = np.conjugate(rhs, out=rhs).view(float)
        for j in range(0, left.shape[0], step):
            terms = left[j : j + step] @ coef[:n]
            terms += pair_const
            lhs, sa = _shifted_exp(terms)
            block = grid[j : j + step, k : k + step]
            scale = np.einsum("abi,abi->ab", block @ real_form, block)
            scale += sa[:, None]
            scale += sb
            if np.max(scale) > _FACTOR_LOG_MAX:
                return None
            prod = table[j : j + step, k : k + step]
            np.matmul(lhs.view(float), rhs.T, out=prod)
            prod *= np.exp(scale, out=scale)
    return table.reshape(-1)


def _grid_coords(axes):
    """Rows of the cartesian product of ``axes``, each column one broadcast axis."""
    d = len(axes)
    coords = np.empty(tuple(axis.size for axis in axes) + (d,))
    for i, axis in enumerate(axes):
        coords[..., i] = axis.reshape((-1,) + (1,) * (d - 1 - i))
    return coords.reshape(-1, d)


def _check_ranges(ranges) -> None:
    """Refuse a Wigner grid range entry outside +-``_RANGE_MAX``."""
    if not np.all(np.abs(np.asarray(ranges, dtype=float)) <= _RANGE_MAX):
        raise ValidationError(f"grid range entries must lie within +-{_RANGE_MAX:g}")


def _check_grid(n: int, points: int) -> None:
    """Refuse a grid whose coords and values, points^(2n) rows of 2n + 1
    float64, would pass the byte limit."""
    _check_bytes(f"a grid of {points}^{2 * n} points", 8 * (2 * n + 1) * points ** (2 * n))


def _grid_axes(ranges, points: int):
    """The 2N axes of a Wigner grid, re then im per mode, ``points`` values each."""
    return [np.linspace(lo, hi, points) for r in ranges for lo, hi in (r[:2], r[2:])]


def wigner_grid(state: CoherentMixture, bundle: PropagatorBundle, ranges, points: int):
    """Evaluate the Wigner function on a cartesian re/im grid per mode.

    ``ranges`` is one (re_min, re_max, im_min, im_max) tuple per mode, each
    entry within +-``_RANGE_MAX`` (1e150), and the grid's coords and values
    must fit the byte limit, or :class:`ValidationError`.
    Returns ``(coords, values)`` with coords of shape (P, 2N) holding the
    real and imaginary parts per mode, and values of shape (P,).

    The pair part of each exponent is linear in the 2N grid coordinates, so
    the pair sum is one product of a (points^N, pairs) factor matrix over the
    first N axes with one over the last N (:func:`_shifted_exp`), its row
    shifts added to q in each point's exponent.  Only where such an
    exponent would pass ``_FACTOR_LOG_MAX`` does the grid go through
    :func:`wigner`'s kernel, which forms the whole exponent in log space.
    """
    n = state.n_modes
    if len(ranges) != n:
        raise ValidationError("one range tuple per mode is required")
    _check_ranges(ranges)
    _check_grid(n, points)
    coords = _grid_coords(_grid_axes(ranges, points))
    det, const, bra, form = _gaussian_terms(state, bundle, "Wigner")
    total = _factored_sum(coords, points, const, bra, form)
    if total is None:
        total = _pair_sum(coords[:, 0::2] + 1j * coords[:, 1::2], const, bra, form)
    return coords, (2.0 / np.pi) ** n / det * total
