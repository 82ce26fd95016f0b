"""Decoherence metrics: diffusion times, interference decay, entropy, concurrence.

The linear entropy is a log-space sum over one K x K Gram matrix, and
concurrence a closed-form sum of coherent overlaps (dissipation-free, pure
states); both are O(K^3) in the component count.

Times may be infinite (zero temperature, decoherence-free component pairs,
single-component states); they are plain floats with ``math.inf`` as the
infinite value, and the harmonic combination is defined on the extended reals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import phasespace
from .errors import NoBracket, RootNotConverged, SingularWidth, ValidationError
from .propagation import Model, Propagator, PropagatorBundle, rotate_frame
from .states import CoherentMixture, _log_overlaps

__all__ = [
    "DecoherenceReport",
    "mean_diffusion_time",
    "directional_diffusion_times",
    "decay_function",
    "interference_decay_time",
    "decoherence_time",
    "linear_entropy",
    "concurrence",
    "decoherence_report",
]

_FLAT_RATE = 1e-12
_LIMIT_TOL = 1e-12


def mean_diffusion_time(diffusion: np.ndarray) -> float:
    """Mean diffusion time N / (2 Tr Y); infinite when the trace vanishes.

    Exact for every topology and coupling regime: the trace of the Wigner
    width grows initially at twice the diffusion-matrix trace.
    """
    diffusion = np.asarray(diffusion, dtype=float)
    trace = float(np.trace(diffusion))
    if trace < 0:
        raise ValidationError("diffusion matrix must have non-negative trace")
    if trace == 0:
        return math.inf
    return diffusion.shape[0] / (2.0 * trace)


def directional_diffusion_times(diffusion: np.ndarray) -> np.ndarray:
    """Per-direction diffusion times 1 / r, r the eigenvalues of Y + Y^T.

    The Wigner width starts at I with slope Y + Y^T (the stationary equation
    at t = 0), so r are exactly the initial growth rates of the diffusion
    coefficients, in the ascending order of :func:`rotate_frame`.  Flat
    directions get ``inf``; the mean of 1 / time is 1 / mean_diffusion_time.
    """
    diffusion = np.asarray(diffusion)
    _, rates = rotate_frame(diffusion + diffusion.T, vectors=False)
    return np.array([1.0 / r if r > _FLAT_RATE else math.inf for r in rates])


def _component_pair(state: CoherentMixture, r: int, s: int, branch: int):
    components = state.branches[branch].components
    if r == s:
        raise ValidationError("decay function needs two distinct components")
    if not (0 <= r < len(components) and 0 <= s < len(components)):
        raise ValidationError("component index out of range")
    return components[r].amplitudes, components[s].amplitudes


def _decay_exponent(delta: np.ndarray, bundle: PropagatorBundle) -> float:
    # In the rotated frame the reduced norm is sum_m |(U^T y)_m|^2 / D_m with
    # y = T delta; since W = U diag(D) U^dag this equals y^T W^-1 conj(y),
    # the bundle's quadratic form, so W is never diagonalized.  A W that is
    # not positive definite raises SingularWidth.
    reduced = bundle.inverse_form(bundle.centers(delta))
    return float(-2.0 * (np.sum(np.abs(delta) ** 2) - reduced))


def decay_function(
    state: CoherentMixture, r: int, s: int, bundle: PropagatorBundle, branch: int = 0
) -> float:
    """Interference decay function of a component pair, in (0, 1], equal to 1 at t=0.

    Derived from the ratio of diagonal to off-diagonal Wigner elements in the
    rotated frame; it deducts the spreading common to all elements, so only
    genuine interference loss registers.  At zero temperature it reduces to
    the fourth power of the overlap ratio of the initial and evolved
    component pairs.
    """
    beta_r, beta_s = _component_pair(state, r, s, branch)
    return math.exp(_decay_exponent(beta_r - beta_s, bundle))


def _gap(delta: np.ndarray, bundle: PropagatorBundle) -> float:
    # log decay + 4N / sum(D): positive until the interference terms have
    # decayed past the spread-adjusted threshold.
    n = delta.size
    return _decay_exponent(delta, bundle) + 4.0 * n / bundle.width_trace


_BRENT_XTOL = 2e-12  # brentq's default absolute tolerance


def _brentq(f, xa, xb, fa, fb, rtol, maxiter=100):
    # Brent's method (Brent 1973, ch. 4) ported line for line from scipy's
    # brentq.c, so it takes the same iterates; fa = f(xa) and fb = f(xb) come
    # from the caller, which has evaluated them already.
    if rtol < 4 * np.finfo(float).eps:
        raise ValidationError(f"rtol too small ({rtol:g} < 4 eps)")
    xpre, xcur, fpre, fcur = float(xa), float(xb), float(fa), float(fb)
    xblk = fblk = spre = scur = 0.0
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise NoBracket("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        signs_differ = math.copysign(1.0, fpre) != math.copysign(1.0, fcur)
        if fpre != 0 and fcur != 0 and signs_differ:
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RootNotConverged(f"Brent's method did not converge in {maxiter} iterations")


def interference_decay_time(
    state: CoherentMixture,
    r: int,
    s: int,
    propagator: Propagator,
    t_grid,
    branch: int = 0,
    rtol: float = 1e-8,
) -> float:
    """Time at which the pair's decay function crosses the diffusion-adjusted
    threshold exp(-4N / sum(D)); ``inf`` if it never does.

    In the weak regime with identical reservoirs of damping rate ``rate`` and
    occupation nbar, for the pair of ``build_cat_family(n, R, S, alpha)``
    (components differing by 2 alpha on R + S oscillators), the crossing
    solves exactly

        1 - exp(-rate * tau) = 1 / (2 |alpha|^2 (R+S)(1+2 nbar)),

    so tau scales inversely with |alpha|^2 (R+S)(1+2 nbar).  The paper's
    tau ~ 1 / (2 rate |alpha|^2 (R+S)(1+2 nbar)) is the first-order form of
    this law, valid for large |alpha|^2; this function returns the exact root.

    The grid is scanned up to its first sign change, and the crossing in that
    interval is found by Brent's method, ported from scipy's ``brentq`` (same
    iterates), to relative tolerance ``rtol`` and brentq's default absolute
    tolerance ``xtol = 2e-12``; the scan's values at the interval ends are
    reused, not recomputed.  A crossing within ``xtol`` of a grid starting
    at t = 0 (extreme temperatures) is reported as the smaller of ``xtol``
    and the grid's second point, the positive end of the bracket Brent's
    method closes on it.  If the grid ends with the gap still positive, the
    t -> infinity limit decides between a genuinely absent crossing
    (``inf``) and a too-short grid (:class:`NoBracket`); it needs only the
    trace tr P + N of the stationary Wigner width, not its spectrum.
    """
    beta_r, beta_s = _component_pair(state, r, s, branch)
    delta = beta_r - beta_s
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size < 2 or np.any(np.diff(t_grid) <= 0):
        raise ValidationError("time grid must be increasing with at least two points")

    def gap(t):
        return _gap(delta, propagator.bundle(t))

    first = f_left = gap(t_grid[0])
    for left, right in zip(t_grid, t_grid[1:]):
        f_right = gap(right)
        if f_left > 0 >= f_right:
            root = _brentq(gap, left, right, f_left, f_right, rtol)
            # A crossing within the absolute tolerance of t = 0 comes back as
            # t = 0; it lies in (0, xtol), so report that bracket's positive end.
            return root if root > 0 else min(float(right), _BRENT_XTOL)
        f_left = f_right
    if first <= 0:
        raise ValidationError("grid starts past the crossing; start earlier")
    n = delta.size
    spread = float(np.trace(propagator.width.matrix).real) + n
    limit = -2.0 * float(np.sum(np.abs(delta) ** 2)) + 4.0 * n / spread
    if limit < -_LIMIT_TOL:
        raise NoBracket("gap still positive at the end of the grid; extend it")
    return math.inf


def decoherence_time(tau_diff: float, tau_int: float) -> float:
    """Harmonic combination of diffusion and interference times (extended reals)."""
    for value in (tau_diff, tau_int):
        if not (value > 0):
            raise ValidationError("times must be positive or infinite")
    inverse = (0.0 if math.isinf(tau_diff) else 1.0 / tau_diff) + (
        0.0 if math.isinf(tau_int) else 1.0 / tau_int
    )
    return math.inf if inverse == 0.0 else 1.0 / inverse


def linear_entropy(state: CoherentMixture, bundle: PropagatorBundle) -> float:
    """Linear entropy 1 - Tr rho^2 of the evolved mixture, in [0, 1).

    With the centroids ``C = T beta^T`` (N x K, column c_a per component)
    and the Wigner width W, one K x K Gram matrix ``H[a, b] = c_a^T W^-1
    conj(c_b)``, formed as ``C^T solve(W, conj(C))``, gives the pair-sum
    kernel ``-(H[s, r] - H[s, p] - H[q, r] + H[q, p])``, and the quadruple
    sum over component pairs factorises exactly: ``det(W) Tr rho^2 =
    sum_{s, q} X[s, q] X[q, s]`` with

        log X[s, q] = lse_r(logw[r, s] - H[s, r] + H[q, r]),

    lse a log-sum-exp shifted by its largest real part (the p-sum of the
    other factor is X transposed).  Every exponent is formed whole in log
    space, so widely separated components never underflow through
    intermediate factors; cross-branch and zero-coefficient pairs are -inf
    and drop out.  The work is O(K^3), in chunks of s whose (s, q, r) array
    fits in ``phasespace._CHUNK_BYTES``, so memory stays bounded in the
    component count.

    No eigenvectors are needed: log det W is the sum of the logs of the
    bundle's cached diffusion coefficients (the eigenvalues of W, which the
    ``dcoef`` output reads too), and det W is divided out inside the final
    exponent.  H is the bundle's :meth:`~PropagatorBundle.inverse_form` of
    the centroids.  Equals 0 for any pure state at t = 0 and stays 0
    without dissipation.  A W with a coefficient <= 0,
    or one that gives a purity above 1 by more than 1e-10 (rounding at
    extreme temperatures), raises :class:`SingularWidth`; an entropy in
    (-1e-10, 0) is returned as 0.
    """
    betas, logw = phasespace._flat_components(state)
    gram = bundle.inverse_form(bundle.centers(betas.T))  # H[a, b]
    log_det = float(np.sum(np.log(bundle.diffusion_coeffs)))
    head = logw.T - gram  # (s, r): logw[r, s] - H[s, r]
    k = gram.shape[0]
    step = max(1, min(k, phasespace._CHUNK_BYTES // (16 * k * k)))
    work = np.empty((step, k, k), dtype=complex)
    log_x = np.empty((k, k), dtype=complex)
    for start in range(0, k, step):
        exponents = work[: min(step, k - start)]
        np.add(head[start : start + step, None, :], gram[None, :, :], out=exponents)
        # Shift by the largest real part; an all -inf row keeps shift 0.
        shift = exponents.real.max(axis=-1)
        shift[np.isneginf(shift)] = 0.0
        exponents -= shift[..., None]
        np.exp(exponents, out=exponents)
        with np.errstate(divide="ignore"):
            log_x[start : start + step] = np.log(exponents.sum(axis=-1)) + shift
    purity = float(np.exp(log_x + log_x.T - log_det).sum().real)
    entropy = 1.0 - purity
    if entropy < -1e-10:
        raise SingularWidth(f"Wigner width at t = {bundle.t} gives a purity of {purity!r}, above 1")
    if entropy < 0:
        entropy = 0.0
    return entropy


def concurrence(
    state: CoherentMixture, part_a, bundle: PropagatorBundle, nodes: int = 64
) -> float:
    """Bipartite concurrence 1 - Tr_A[(Tr_B rho)^2] for dissipation-free evolution.

    Without dissipation the pure state stays a superposition sum_s c_s |y_s>
    of coherent products with y_s = T beta_s, so the reduced purity is the
    finite overlap sum

        sum c_s conj(c_r) c_q conj(c_p) <y_r^B|y_s^B> <y_p^B|y_q^B>
            <y_r^A|y_q^A> <y_p^A|y_s^A>.

    Summing over r first gives ``half = (conj(c) * B).T @ A`` from the K x K
    overlap matrices A, B of the two sides, and the purity is
    ``c @ (half * half.T) @ c``: closed form, O(K^3), with no limit on the
    mode count.  Requires a pure (single-branch) state and a dissipation-free
    bundle; symmetric under swapping the partition.  ``nodes`` is unused and
    kept for signature compatibility.
    """
    branch = state.single_branch()
    n = state.n_modes
    part_a = sorted(int(m) for m in part_a)
    if not part_a or len(part_a) >= n or len(set(part_a)) != len(part_a):
        raise ValidationError("partition must be a proper non-empty subset of modes")
    if any(m < 0 or m >= n for m in part_a):
        raise ValidationError("partition indexes out of range")
    part_b = [m for m in range(n) if m not in part_a]
    unit = bundle.transition.conj().T @ bundle.transition
    if (
        np.max(np.abs(bundle.wigner_width - np.eye(n))) > 1e-10
        or np.max(np.abs(unit - np.eye(n))) > 1e-10
    ):
        raise ValidationError("concurrence requires a dissipation-free bundle")

    betas = np.array([c.amplitudes for c in branch.components])
    coeffs = np.array([c.coefficient for c in branch.components])
    centers = bundle.centers(betas.T).T  # (K, N)
    # Every overlap exponent has real part <= 0, so a product of the two
    # factors underflows only where the combined exponent would.
    side_a, side_b = (
        np.exp(_log_overlaps(centers[:, part], centers[:, part]))
        for part in (part_a, part_b)
    )
    half = (coeffs.conj()[:, None] * side_b).T @ side_a  # (s, q)
    value = 1.0 - float((coeffs @ (half * half.T) @ coeffs).real)
    if -1e-9 < value < 0:
        value = 0.0
    return value


@dataclass(frozen=True)
class DecoherenceReport:
    """Diffusion, interference, and combined decoherence times plus regime label.

    ``1/tau_d == 1/tau_diff + 1/tau_int`` by construction; any entry may be
    ``inf`` (zero temperature, decoherence-free pairs, single-component
    states).
    """

    tau_diff: float
    tau_directional: tuple
    tau_int: float
    tau_d: float
    regime: str


def decoherence_report(
    state: CoherentMixture,
    model: Model,
    t_grid,
    pair: tuple[int, int] = (0, 1),
    branch: int = 0,
    fd_step: float = 1e-6,
) -> DecoherenceReport:
    """Assemble the full decoherence report for one state and model.

    Both diffusion times are closed forms in the diffusion matrix; only the
    interference time scans ``t_grid``.  ``fd_step`` is unused, kept for
    signature compatibility.
    """
    tau_diff = mean_diffusion_time(model.rates.diffusion)
    directional = tuple(directional_diffusion_times(model.rates.diffusion))
    if len(state.branches[branch].components) >= 2:
        tau_int = interference_decay_time(
            state, pair[0], pair[1], model.propagator, t_grid, branch=branch
        )
    else:
        tau_int = math.inf
    tau_d = decoherence_time(tau_diff, tau_int)
    return DecoherenceReport(
        tau_diff=tau_diff,
        tau_directional=directional,
        tau_int=tau_int,
        tau_d=tau_d,
        regime=model.regime,
    )
