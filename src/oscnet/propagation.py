"""Time-dependent propagation: transition matrix, width matrices, rotated frame.

For each time the network state is summarized by a bundle holding

* the damped transition matrix ``T(t) = D exp(-Wt) D^-1`` that maps initial
  coherent amplitudes to their centroids,
* the accumulated noise width ``J(t) = P - conj(T) P T.T`` (zero at t = 0,
  tending to the stationary width P),
* the Wigner width ``J(t) + I``, whose eigenvalues are the diffusion
  coefficients of the rotated frame and whose eigenvectors rotate into it.

The coefficients and the rotation are lazy and cached apart:
``diffusion_coeffs`` takes the spectrum alone (:func:`rotate_frame` with
``vectors=False``, one eigenvalue solve) and ``rotation`` the full frame, so
callers that need only the transition and width matrices pay no eigensolve,
and the diffusion coefficients and the entropy pay none for eigenvectors.
The width's slope Y + Y.T at t = 0 and its limit's trace tr P + N need no
bundle (see :mod:`oscnet.metrics`).  Bundles at distinct times are
independent and immutable; time grids are caller-supplied and nothing is
interpolated.

When the generator was read off the normal modes (distinct reservoirs of
one spectral density, see :func:`oscnet.network.dissipative_matrix`) and
the reservoirs share one temperature, the real orthogonal mode transform C
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


@dataclass(frozen=True)
class PropagatorBundle:
    """Everything time-dependent the phase-space evaluators need at one time.

    ``diffusion_coeffs`` are the eigenvalues of ``wigner_width`` sorted
    ascending, so the strongly diffusing collective mode (when one exists)
    always sits at the last index.  ``rotation`` holds the eigenvectors as
    columns.  Each is computed on first access and cached on its own: the
    coefficients by a spectrum-only :func:`rotate_frame` call, the rotation
    by a full one (whose coefficients agree to rounding), so the
    coefficients never depend on which was read first.  :meth:`centers`
    gives the evolved centroids.

    A bundle built in the normal-mode frame also carries ``frame`` (the
    real orthogonal C) and ``frame_width`` (the real diagonal of
    ``C @ wigner_width @ C.T``, which is diagonal there), and takes its
    coefficients, quadratic forms and centroids without the dense matrices:
    its ``transition``, ``noise`` and ``wigner_width`` are built on first
    read and cached.  ``frame`` and ``frame_width`` are ``init=False``
    fields that default to ``None``: a bundle derived with
    ``dataclasses.replace`` has no frame and falls back to its dense
    fields, diagonalizing its width afresh.
    """

    t: float
    transition: np.ndarray
    noise: np.ndarray
    wigner_width: np.ndarray
    frame: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    frame_width: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def _in_frame(cls, t: float, dis: DissipativeMatrix, excess: np.ndarray):
        # A frame bundle sets no dense field; __getattr__ builds each on
        # first read from the generator and the excess X * (1 - |e|^2).
        bundle = object.__new__(cls)
        bundle.__dict__.update(
            t=t, frame=dis.frame, frame_width=excess + 1.0, _dis=dis, _excess=excess
        )
        return bundle

    def __getattr__(self, name):
        # Reached only for an attribute with no value: on a frame bundle, a
        # dense field not read yet.
        if name not in _DENSE_FIELDS or "_dis" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        if name == "transition":
            value = transition_matrix(self._dis, self.t)
        elif name == "noise":
            value = (self.frame.T * self._excess) @ self.frame
            value = 0.5 * (value + value.T) + 0j
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
        width = self.wigner_width if self.frame is None else self.frame_width
        return rotate_frame(width, vectors=False)[1]

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
        return transition_matrix(self._dis, self.t, betas)

    def inverse_form(self, vectors: np.ndarray):
        """Quadratic form ``v^T W^-1 conj(v)`` of the Wigner width W.

        For one vector (length N) a float; for an N x K block the K x K
        matrix ``H[a, b] = v_a^T W^-1 conj(v_b)`` of its columns.  Raises
        :class:`SingularWidth` when W is not positive definite.  In the
        normal-mode frame this divides ``frame @ v`` by the frame width.
        Otherwise one vector goes through the Cholesky factor W = L L^dag,
        as ``|L^-1 conj(v)|^2``, which needs no eigensolve (a root scan asks
        for many), and a block through one linear solve once the cached
        diffusion coefficients show W positive definite (the entropy reads
        them for its determinant anyway).
        """
        if self.frame is not None:
            moved, width = self.frame @ vectors, self.frame_width
            if not np.all(width > 0):
                raise _indefinite_width(self)
            if moved.ndim == 1:
                return float(np.sum(np.abs(moved) ** 2 / width))
            return moved.T @ (moved.conj() / width[:, None])
        if vectors.ndim == 1:
            try:
                lower = np.linalg.cholesky(self.wigner_width)
            except np.linalg.LinAlgError:
                raise _indefinite_width(self) from None
            solved = np.linalg.solve(lower, vectors.conj())
            return float(np.vdot(solved, solved).real)
        if not self.diffusion_coeffs[0] > 0:
            raise _indefinite_width(self)
        return vectors.T @ np.linalg.solve(self.wigner_width, vectors.conj())


def _indefinite_width(bundle: PropagatorBundle) -> SingularWidth:
    return SingularWidth(
        f"Wigner width at t = {bundle.t} is not positive definite: smallest "
        f"diffusion coefficient {bundle.diffusion_coeffs[0]:.3g}"
    )


def transition_matrix(dis: DissipativeMatrix, t: float, vectors: np.ndarray | None = None):
    """Damped transition matrix exp(-G t) via the stored eigendecomposition.

    With ``vectors`` (N,) or (N, K) it returns ``T @ vectors`` as
    ``V (e * (V^-1 vectors))``, an O(N^2 K) product that never forms T.
    """
    if t < 0:
        raise ValidationError("time must be >= 0")
    decay = np.exp(-dis.eigenvalues * t)
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
    the same result as its ``np.diag``.
    """
    width = np.asarray(wigner_width)
    if width.ndim == 2:
        width = width.astype(complex, copy=False)
        width = 0.5 * (width + width.conj().T)
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
    frame in O(N) and leaves the dense matrices to first read; otherwise it
    takes the dense route.
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
        if self._core is None:
            transition = transition_matrix(self.dissipative, t)
            noise = noise_width(self.width.matrix, transition)
            noise = 0.5 * (noise + noise.conj().T)
            return PropagatorBundle(
                t=float(t),
                transition=transition,
                noise=noise,
                wigner_width=noise + np.eye(self.n),
            )
        if t < 0:
            raise ValidationError("time must be >= 0")
        # 1 - |e|^2 = -expm1(-2 Re(lambda) t), exact at small t where the
        # difference would cancel.
        excess = self._core * -np.expm1(-2.0 * self.dissipative.eigenvalues.real * t)
        return PropagatorBundle._in_frame(float(t), self.dissipative, excess)

    def bundles(self, times) -> list[PropagatorBundle]:
        return [self.bundle(t) for t in times]


@dataclass(frozen=True)
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
