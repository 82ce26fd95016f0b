"""Time-dependent propagation: transition matrix, width matrices, rotated frame.

For each time the network state is summarized by a bundle holding

* the damped transition matrix ``T(t) = D exp(-Wt) D^-1`` that maps initial
  coherent amplitudes to their centroids,
* the accumulated noise width ``J(t) = P - conj(T) P T.T`` (zero at t = 0,
  tending to the stationary width P),
* the Wigner width ``J(t) + I`` with its unitary diagonalization, whose
  eigenvalues are the diffusion coefficients of the rotated frame.

The rotated frame is lazy: a bundle diagonalizes its Wigner width (one call
of :func:`rotate_frame`, cached) only when ``rotation`` or
``diffusion_coeffs`` is first read, so callers that need only the transition
and width matrices pay no eigensolve.  The width's slope Y + Y.T at t = 0
and its limit's trace tr P + N need no bundle (see :mod:`oscnet.metrics`).
Bundles at distinct times are independent and immutable; time grids are
caller-supplied and nothing is interpolated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .network import (
    DissipativeMatrix,
    NetworkSpec,
    _fix_phases,
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


@dataclass(frozen=True)
class PropagatorBundle:
    """Everything time-dependent the phase-space evaluators need at one time.

    ``diffusion_coeffs`` are the eigenvalues of ``wigner_width`` sorted
    ascending, so the strongly diffusing collective mode (when one exists)
    always sits at the last index.  ``rotation`` holds the matching
    eigenvectors as columns.  Both are computed lazily, by a single cached
    :func:`rotate_frame` call on first access of either; a bundle derived
    with ``dataclasses.replace`` diagonalizes its own width afresh.
    """

    t: float
    transition: np.ndarray
    noise: np.ndarray
    wigner_width: np.ndarray

    @property
    def n(self) -> int:
        return self.transition.shape[0]

    @cached_property
    def _frame(self):
        return rotate_frame(self.wigner_width)

    @property
    def rotation(self) -> np.ndarray:
        return self._frame[0]

    @property
    def diffusion_coeffs(self) -> np.ndarray:
        return self._frame[1]


def transition_matrix(dis: DissipativeMatrix, t: float) -> np.ndarray:
    """Damped transition matrix exp(-G t) via the stored eigendecomposition."""
    if t < 0:
        raise ValidationError("time must be >= 0")
    decay = np.exp(-dis.eigenvalues * t)
    return (dis.eigenvectors * decay) @ dis.eigenvectors_inv


def centroid(transition: np.ndarray, amplitudes: np.ndarray) -> np.ndarray:
    """Evolved centroid of a coherent component: transition @ amplitudes."""
    return transition @ np.asarray(amplitudes, dtype=complex)


def noise_width(pi: np.ndarray, transition: np.ndarray) -> np.ndarray:
    """Accumulated noise width J(t) = P - conj(T) P T.T (Hermitian PSD)."""
    return pi - transition.conj() @ pi @ transition.T


def eta_flow(transition: np.ndarray, eta0: np.ndarray) -> np.ndarray:
    """Characteristic-variable flow: row vector eta(0) @ conj(T(t))."""
    return np.asarray(eta0, dtype=complex) @ transition.conj()


def rotate_frame(wigner_width: np.ndarray):
    """Diagonalize the Wigner width: returns (rotation U, coefficients D).

    The width is Hermitized first to scrub float-level asymmetry, and a width
    whose off-diagonal part sits at rounding level is treated as exactly
    diagonal (so an undiffused or weak-regime width rotates by a plain
    permutation, not an arbitrary basis of a degenerate eigenspace).  U is
    unitary with ``U^dag @ width @ U = diag(D)`` and D sorted ascending;
    each column's first entry above 1e-12 in modulus is made real positive.
    """
    width = np.asarray(wigner_width, dtype=complex)
    width = 0.5 * (width + width.conj().T)
    n = width.shape[0]
    scale = max(1.0, float(np.max(np.abs(width))))
    off = width - np.diag(np.diag(width))
    if np.max(np.abs(off)) <= 1e-13 * scale:
        diag = np.diag(width).real
        # quantized sort keys so rounding-level ties keep the natural order
        keys = np.round(diag / (1e-12 * scale))
        order = np.argsort(keys, kind="stable")
        return np.eye(n, dtype=complex)[:, order], diag[order]
    coeffs, vectors = np.linalg.eigh(width)
    return _fix_phases(vectors), coeffs


class Propagator:
    """Factory of per-time bundles for one dissipative model.

    Holds the eigendecomposition of the generator and the stationary width;
    ``bundle(t)`` is pure, so bundles for different times may be computed in
    parallel.
    """

    def __init__(self, dis: DissipativeMatrix, width: StationaryWidth):
        self.dissipative = dis
        self.width = width

    @property
    def n(self) -> int:
        return self.dissipative.matrix.shape[0]

    def bundle(self, t: float) -> PropagatorBundle:
        transition = transition_matrix(self.dissipative, t)
        noise = noise_width(self.width.matrix, transition)
        noise = 0.5 * (noise + noise.conj().T)
        return PropagatorBundle(
            t=float(t),
            transition=transition,
            noise=noise,
            wigner_width=noise + np.eye(self.n),
        )

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


def _free_generator(h: np.ndarray, modes: NormalModes) -> DissipativeMatrix:
    # Dissipation-free evolution: purely imaginary spectrum, orthogonal modes.
    d = modes.transform.T.astype(complex)
    return DissipativeMatrix(
        matrix=1j * h.astype(complex),
        eigenvalues=1j * modes.frequencies.astype(complex),
        eigenvectors=d,
        eigenvectors_inv=d.T.copy(),
    )


def build_model(
    network: NetworkSpec, reservoirs: ReservoirSpec, regime: str = "auto"
) -> Model:
    """Wire a network and its reservoirs into a ready-to-evaluate model.

    ``regime`` selects the rate matrices: ``"weak"`` uses the weak-coupling
    diagonal approximation, ``"strong"`` and ``"auto"`` use the exact
    normal-mode rates (a common reservoir always uses its own exact form).
    The recorded regime label always comes from the classifier.  A fully
    dissipation-free configuration (all rates zero) is propagated unitarily.
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
    if not np.any(rates.damping) and not np.any(rates.diffusion):
        dis = _free_generator(h, modes)
    else:
        dis = dissipative_matrix(h, rates.damping)
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
