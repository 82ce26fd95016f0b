"""Time-dependent propagation: transition matrix, width matrices, rotated frame.

For each time the network state is summarized by a bundle holding

* the damped transition matrix ``T(t) = D exp(-Wt) D^-1`` that maps initial
  coherent amplitudes to their centroids,
* the accumulated noise width ``J(t) = P - conj(T) P T.T`` (zero at t = 0,
  tending to the stationary width P),
* the Wigner width ``J(t) + I``, whose eigenvalues are the diffusion
  coefficients of the rotated frame and whose eigenvectors rotate into it.

The coefficients (an eigenvalue-only solve) and the rotation (the full
frame) are lazy and cached apart.  A dense width's quadratic forms, here and
in the P and Wigner evaluators, go through its Cholesky factor
(:func:`_positive_factor`), the one test that it is positive definite: a
width that is not has no Gaussian and raises :class:`SingularWidth`.
The width's slope Y + Y.T at t = 0 needs no bundle (see
:mod:`oscnet.metrics`).  Bundles at distinct times are
independent and immutable; time grids are caller-supplied and nothing is
interpolated.

When the generator was read off the normal modes (distinct reservoirs of
one spectral density, see :func:`oscnet.network.dissipative_matrix`), its
eigenvectors are the real C.T, and at one temperature the mode transform C
diagonalizes every width: with ``X = C P C.T`` diagonal (formed once) and
``e = exp(-lambda t)``, ``C W(t) C.T = I + X * (1 - |e|^2)``, an O(N)
build per time.  The bundle keeps that frame width; the diffusion
coefficients are its sorted diagonal, the entropy and the decay exponent
divide by it, and the centroids ``T beta = C.T (e * (C beta))`` come from
:func:`transition_matrix` applied to the amplitudes, O(N^2 K) with no
N x N product.  The dense ``transition``, ``noise`` and ``wigner_width``
are built on first read only, by the evaluators that need whole matrices
(the Wigner grid, the characteristic functions, the moments).  Mixed
temperatures leave X dense, and their bundles take the dense route on the
same generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import SingularWidth, ValidationError
from .network import (
    DissipativeMatrix,
    NetworkSpec,
    _fix_phases,
    _off_diagonal_at_rounding,
    build_hamiltonian,
    coupling_regime,
    dissipative_matrix,
    normal_modes,
    NormalModes,
)
from .reservoirs import RateMatrices, ReservoirSpec, rates_common, rates_distinct, rates_weak
from .stationary import StationaryWidth, stationary_width

__all__ = [
    "PropagatorBundle",
    "Propagator",
    "Model",
    "transition_matrix",
    "noise_width",
    "centroid",
    "rotate_frame",
    "eta_flow",
    "build_model",
]


_DENSE_FIELDS = ("transition", "noise", "wigner_width")


@dataclass(frozen=True, eq=False)
class PropagatorBundle:
    """Everything time-dependent the phase-space evaluators need at one time.

    ``diffusion_coeffs`` are the eigenvalues of ``wigner_width`` sorted
    ascending, so the strongly diffusing collective mode (when one exists)
    always sits at the last index.  ``rotation`` holds the eigenvectors as
    columns.  Each is computed on first access and cached on its own: the
    coefficients by a spectrum-only :func:`rotate_frame` call, the rotation
    by a full one (whose coefficients agree to rounding), so the
    coefficients never depend on which was read first; a coefficient that is
    not finite, or a smallest one that is not positive, raises
    :class:`SingularWidth`.  :meth:`centers` gives the evolved centroids.

    A bundle from :meth:`Propagator.bundle` builds its ``transition``,
    ``noise`` and ``wigner_width`` on first read and caches them.  One built
    in the normal-mode frame also carries ``frame`` (the real orthogonal C)
    and ``frame_width`` (the real diagonal of ``C @ wigner_width @ C.T``,
    which is diagonal there), and takes its coefficients, quadratic forms
    and centroids without the dense matrices.  ``frame`` and
    ``frame_width`` are ``init=False`` fields that default to ``None``: a
    bundle derived with ``dataclasses.replace`` has no frame and falls back
    to its dense fields, diagonalizing its width afresh.
    """

    t: float
    transition: np.ndarray
    noise: np.ndarray
    wigner_width: np.ndarray
    frame: np.ndarray | None = field(default=None, init=False, repr=False)
    frame_width: np.ndarray | None = field(default=None, init=False, repr=False)

    def __getattr__(self, name):
        # Reached only for an attribute with no value: on a bundle from
        # Propagator.bundle, a dense field not read yet.
        if name not in _DENSE_FIELDS or "_propagator" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        if name == "transition":
            value = transition_matrix(self._propagator.dissipative, self.t)
        elif name == "noise":
            value = self._propagator._noise(self)
        else:
            value = self.noise + np.eye(self.n)
        self.__dict__[name] = value
        return value

    @property
    def n(self) -> int:
        return self.transition.shape[0] if self.frame is None else self.frame.shape[0]

    @cached_property
    def rotation(self) -> np.ndarray:
        return rotate_frame(self.wigner_width)[0]

    @cached_property
    def diffusion_coeffs(self) -> np.ndarray:
        refusal = f"Wigner width at t = {self.t} is not positive definite:"
        width = self.wigner_width if self.frame is None else self.frame_width
        if not np.all(np.isfinite(width)):
            raise SingularWidth(f"{refusal} it has a non-finite entry")
        coeffs = rotate_frame(width, vectors=False)[1]
        if not (np.all(np.isfinite(coeffs)) and coeffs.min() > 0):
            raise SingularWidth(f"{refusal} smallest coefficient {coeffs.min():.3g}")
        return coeffs

    @property
    def width_trace(self) -> float:
        """Trace of the Wigner width (the sum of the frame width in the frame)."""
        if self.frame is None:
            return float(np.trace(self.wigner_width).real)
        return float(np.sum(self.frame_width))

    def centers(self, betas: np.ndarray) -> np.ndarray:
        """Evolved centroids ``T @ betas`` of amplitudes (N,) or columns (N, K).

        In the normal-mode frame :func:`transition_matrix` applies T through
        the mode basis without forming it; otherwise the bundle's own
        ``transition`` multiplies.
        """
        if self.frame is None:
            return self.transition @ betas
        return transition_matrix(self._propagator.dissipative, self.t, betas)

    def inverse_form(self, vectors: np.ndarray):
        """Quadratic form ``v^T W^-1 conj(v)`` of the Wigner width W.

        For one vector (length N) a float; for an N x K block the Hermitian
        K x K matrix ``H[a, b] = v_a^T W^-1 conj(v_b)`` of its columns.
        Raises :class:`SingularWidth` when W is not positive definite.  In the
        normal-mode frame this divides ``frame @ v`` by the frame width.
        Otherwise it is ``z^dag z``, ``z = L^-1 conj(v)`` with W = L L^dag
        factored by :func:`_positive_factor`: no eigensolve.
        """
        if self.frame is not None:
            moved, width = self.frame @ vectors, self.frame_width
            if not np.all(width > 0):
                raise SingularWidth(f"Wigner width at t = {self.t} is not positive definite")
            if moved.ndim == 1:
                return float(np.sum(np.abs(moved) ** 2 / width))
            return moved.T @ (moved.conj() / width[:, None])
        _, lower = _positive_factor(self.wigner_width, f"Wigner width at t = {self.t}")
        solved = np.linalg.solve(lower, vectors.conj())
        form = solved.conj().T @ solved
        return float(form.real) if vectors.ndim == 1 else 0.5 * form + 0.5 * form.conj().T


def _positive_factor(width: np.ndarray, name: str):
    """Hermitian part of a dense width and its lower Cholesky factor.  The one
    positive-definiteness test: :class:`SingularWidth`, naming the width, if an
    entry is not finite (cholesky would return inf or nan) or the Hermitian
    part is not positive definite.  Adding halves cannot overflow."""
    if not np.all(np.isfinite(width)):
        raise SingularWidth(f"{name} is not positive definite: it has a non-finite entry")
    hermitian = 0.5 * width + 0.5 * width.conj().T
    try:
        return hermitian, np.linalg.cholesky(hermitian)
    except np.linalg.LinAlgError:
        smallest = np.linalg.eigvalsh(hermitian)[0]
    raise SingularWidth(f"{name} is not positive definite: smallest coefficient {smallest:.3g}")


def transition_matrix(dis: DissipativeMatrix, t: float, vectors: np.ndarray | None = None):
    """Damped transition matrix exp(-G t) via the stored eigendecomposition.

    With ``vectors`` (N,) or (N, K) it returns ``T @ vectors`` as
    ``V (e * (V^-1 vectors))``, an O(N^2 K) product that never forms T.
    An eigenvalue whose real or imaginary part times t passes the float
    range (where exp would return nan) is refused with a
    :class:`ValidationError` before the product.
    """
    if t < 0:
        raise ValidationError("time must be >= 0")
    lam = dis.eigenvalues
    parts = np.maximum(np.abs(lam.real), np.abs(lam.imag))
    # Python float division: a quotient past the float range is inf, unwarned.
    if t > 0 and parts.max() > float(np.finfo(float).max) / float(t):
        raise ValidationError(
            f"eigenvalue {lam[np.argmax(parts)]:.6g} x time {t:g} overflows the float range"
        )
    decay = np.exp(-lam * t)
    if vectors is None:
        return (dis.eigenvectors * decay) @ dis.eigenvectors_inv
    return dis.eigenvectors @ (decay * (dis.eigenvectors_inv @ vectors).T).T


def centroid(transition: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """Evolved centroid of a coherent component: transition @ amplitudes."""
    return transition @ np.asarray(amplitudes, dtype=complex)


def noise_width(pi: np.ndarray, transition: np.ndarray) -> np.ndarray:
    """Accumulated noise width J(t) = P - conj(T) P T.T (Hermitian PSD)."""
    return pi - transition.conj() @ pi @ transition.T


def eta_flow(transition: np.ndarray, eta0: np.ndarray) -> np.ndarray:
    """Characteristic-variable flow: row vector eta(0) @ conj(T(t))."""
    return np.asarray(eta0, dtype=complex) @ transition.conj()


def rotate_frame(wigner_width: np.ndarray, vectors: bool = True):
    """Diagonalize the Wigner width: returns (rotation U, coefficients D).

    The width is Hermitized first to scrub float-level asymmetry, and a width
    whose off-diagonal part sits at rounding level is treated as exactly
    diagonal (so an undiffused or weak-regime width rotates by a plain
    permutation, not an arbitrary basis of a degenerate eigenspace).  U is
    unitary with ``U^dag @ width @ U = diag(D)`` and D sorted ascending;
    each column's first entry above 1e-12 in modulus is made real positive.
    With ``vectors=False`` U is ``None`` and D comes from an eigenvalue-only
    solve, equal to the full frame's D to rounding (bitwise on the diagonal
    shortcut).  A 1-D ``wigner_width`` is taken as the diagonal of an
    already diagonal width and goes straight to that shortcut's sort, with
    the same result as its ``np.diag``.  A width with a non-finite entry is
    refused with :class:`ValidationError`.
    """
    width = np.asarray(wigner_width)
    if not np.all(np.isfinite(width)):
        raise ValidationError("width to diagonalize has a non-finite entry")
    if width.ndim == 2:
        width = width.astype(complex, copy=False)
        width = 0.5 * width + 0.5 * width.conj().T  # halves: no overflow near 1e308
        if not _off_diagonal_at_rounding(width):
            if not vectors:
                return None, np.linalg.eigvalsh(width)
            coeffs, rotation = np.linalg.eigh(width)
            return _fix_phases(rotation), coeffs
        width = np.diag(width)
    diag = width.real
    scale = max(1.0, float(np.max(np.abs(diag))))
    # quantized sort keys so rounding-level ties keep the natural order
    keys = np.round(diag / (1e-12 * scale))
    order = np.argsort(keys, kind="stable")
    return (np.eye(diag.size, dtype=complex)[:, order] if vectors else None), diag[order]


class Propagator:
    """Factory of per-time bundles for one dissipative model.

    Holds the eigendecomposition of the generator and the stationary width;
    ``bundle(t)`` is pure, so bundles for different times may be computed in
    parallel.  When the generator was read off the normal modes
    (``dis.frame`` is their real orthogonal transform C) and ``C P C.T`` is
    diagonal to rounding (equal temperatures), it builds each width in that
    frame in O(N); otherwise it takes the dense route.  Either way a bundle
    builds its dense matrices on first read.
    """

    def __init__(self, dis: DissipativeMatrix, width: StationaryWidth):
        self.dissipative = dis
        self.width = width
        # The stationary core X = C P C^T, kept as its real diagonal when it
        # is diagonal to rounding; None selects the dense route.
        self._core = None
        if dis.frame is not None:
            core = dis.frame @ width.matrix @ dis.frame.T
            if _off_diagonal_at_rounding(core):
                self._core = np.diag(core).real.copy()

    @property
    def n(self) -> int:
        return self.dissipative.matrix.shape[0]

    def bundle(self, t: float) -> PropagatorBundle:
        """The bundle at time t; its dense fields are built on first read."""
        if t < 0:
            raise ValidationError("time must be >= 0")
        bundle = object.__new__(PropagatorBundle)
        bundle.__dict__.update(t=float(t), _propagator=self)
        if self._core is not None:
            # 1 - |e|^2 = -expm1(-2 Re(lambda) t), exact at small t where the
            # difference would cancel.
            excess = self._core * -np.expm1(-2.0 * self.dissipative.eigenvalues.real * t)
            bundle.__dict__.update(
                frame=self.dissipative.frame, frame_width=excess + 1.0, _excess=excess
            )
        return bundle

    def _noise(self, bundle: PropagatorBundle) -> np.ndarray:
        """Hermitian noise width of one of this propagator's bundles: the frame
        product ``C.T diag(X * (1 - |e|^2)) C``, or ``noise_width(P, T)``."""
        if bundle.frame is not None:
            noise = (bundle.frame.T * bundle._excess) @ bundle.frame
            return 0.5 * (noise + noise.T) + 0j
        noise = noise_width(self.width.matrix, bundle.transition)
        return 0.5 * (noise + noise.conj().T)


@dataclass(frozen=True, eq=False)
class Model:
    """Assembled network model: spec, rates, generator, width, and propagator."""

    network: NetworkSpec
    reservoirs: ReservoirSpec
    regime: str
    hamiltonian: np.ndarray
    modes: NormalModes
    rates: RateMatrices
    dissipative: DissipativeMatrix
    width: StationaryWidth
    propagator: Propagator


def build_model(
    network: NetworkSpec, reservoirs: ReservoirSpec, regime: str = "auto"
) -> Model:
    """Wire a network and its reservoirs into a ready-to-evaluate model.

    ``regime`` selects the rate matrices: ``"weak"`` uses the weak-coupling
    diagonal approximation, ``"strong"`` and ``"auto"`` use the exact
    normal-mode rates (a common reservoir always uses its own exact form).
    The recorded regime label always comes from the classifier.  When the
    damping commutes with the coupling matrix (distinct reservoirs of one
    spectral density, a dissipation-free configuration included) the
    generator is read off the normal modes, and with one temperature the
    propagator works in their frame; otherwise the generator is
    eigendecomposed densely.
    """
    if regime not in ("auto", "weak", "strong"):
        raise ValidationError(f"unknown regime {regime!r}")
    if reservoirs.n != network.n:
        raise ValidationError("reservoir and network sizes disagree")
    h = build_hamiltonian(network)
    modes = normal_modes(h)
    label = coupling_regime(network)
    if reservoirs.common:
        rates = rates_common(reservoirs, modes)
    elif regime == "weak":
        rates = rates_weak(reservoirs, network)
    else:
        rates = rates_distinct(reservoirs, modes)
    dis = dissipative_matrix(h, rates.damping, modes)
    width = stationary_width(dis, rates.diffusion)
    return Model(
        network=network,
        reservoirs=reservoirs,
        regime=label,
        hamiltonian=h,
        modes=modes,
        rates=rates,
        dissipative=dis,
        width=width,
        propagator=Propagator(dis, width),
    )
