"""Initial network states: mixtures of coherent superpositions and Fock mixtures.

A coherent mixture is a probability-weighted list of branches, each branch a
normalized superposition of multimode coherent components.  Fock mixtures hold
explicit occupation-number coefficients on a finite support.  The cat-state
family used throughout the decoherence analysis is a two-component special
case with a block of oscillators displaced to +alpha, another to -alpha, and
the rest parked at a spectator amplitude.

A coherent mixture of K components in all evolves into K^2 Gaussian terms,
one per ordered pair of components.  Every Gaussian evaluator reads the
arrays behind them from one record, :attr:`CoherentMixture.pairs`: the
(K, N) amplitudes, the (K,) coefficients and the (K, K) log pair weights,
built on the first read, after the component count has passed the byte
limit, and cached on the frozen mixture.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import _MODULUS_MAX, NullState, ValidationError, _check_bytes

__all__ = [
    "CoherentComponent",
    "CoherentBranch",
    "CoherentMixture",
    "FockBranch",
    "FockMixture",
    "coherent_overlap",
    "coherent_superposition",
    "coherent_mixture",
    "single_coherent_state",
    "build_cat_family",
    "fock_mixture",
    "fock_state_ring",
]

_WEIGHT_TOL = 1e-12
# K x K complex arrays alive at once in a Gaussian sum or the entropy
# (tracemalloc reads 6.0 for the entropy, 9.0 for a Wigner grid at K = 625);
# a component count whose arrays would pass the byte limit is refused first.
_PAIR_ARRAYS = 10
# Largest Euclidean norm of a component's amplitude vector.  An overlap
# exponent is a difference of squared norms, so it carries an absolute
# rounding error of a few 1e-15 |a|^2: at this norm a pure state's t = 0
# linear entropy, exactly 0, reads at most 3.2e-7 (random phases, 1 to 8
# modes, both propagation routes), within the oracle tolerance of 1e-6.
_AMPLITUDE_MAX = 1e4


def _exponent_rounding(amplitudes: np.ndarray) -> float:
    """Rounding scale of the overlap exponents of these (K, N) amplitude rows:
    eps times the largest squared row norm."""
    return float(np.finfo(float).eps * np.max(np.sum(np.abs(amplitudes) ** 2, axis=1)))


def _check_component_count(k: int) -> None:
    """Refuse ``k`` components whose K x K work arrays would pass the byte limit."""
    _check_bytes(f"the {k} x {k} work arrays of {k} components", _PAIR_ARRAYS * 16 * k * k)


def _log_overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Log overlaps of coherent products: the (Ka, Kb) matrix of exponents
    ``-|a_r|^2/2 - |b_s|^2/2 + conj(a_r) . b_s`` for amplitude rows a_r, b_s.

    Every entry has real part ``-|a_r - b_s|^2 / 2 <= 0``.
    """
    norms_a = np.sum(np.abs(a) ** 2, axis=1)
    norms_b = np.sum(np.abs(b) ** 2, axis=1)
    return -0.5 * norms_a[:, None] - 0.5 * norms_b[None, :] + a.conj() @ b.T


def coherent_overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """Overlap <{a}|{b}> of two multimode coherent products.

    The exponent is assembled before exponentiating, so widely separated
    components do not underflow through intermediate factors.
    """
    a = np.asarray(a, dtype=complex).reshape(1, -1)
    b = np.asarray(b, dtype=complex).reshape(1, -1)
    return complex(np.exp(_log_overlaps(a, b)[0, 0]))


@dataclass(frozen=True, eq=False)
class CoherentComponent:
    """One coherent product in a superposition: a finite coefficient of modulus
    at most 1e150 (the norm squares it) and a finite amplitude vector of
    Euclidean norm at most ``_AMPLITUDE_MAX``."""

    coefficient: complex
    amplitudes: np.ndarray

    def __post_init__(self):
        amp = np.atleast_1d(np.asarray(self.amplitudes, dtype=complex))
        if not abs(self.coefficient) <= _MODULUS_MAX:
            raise ValidationError(f"coherent coefficient above {_MODULUS_MAX:g} or not finite")
        # Entries first: they bound the norm's squares below the float range.
        if not (np.all(np.abs(amp) <= _AMPLITUDE_MAX) and np.linalg.norm(amp) <= _AMPLITUDE_MAX):
            raise ValidationError(f"amplitude vector of norm above {_AMPLITUDE_MAX:g} or not finite")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)
        object.__setattr__(self, "coefficient", complex(self.coefficient))


@dataclass(frozen=True, eq=False)
class CoherentBranch:
    probability: float
    components: tuple


class PairRecord(NamedTuple):
    """A mixture's K components as read-only arrays; ``log_weights[r, s]`` is
    log p_branch + log(conj(c_r) c_s) + overlap exponent, -inf across branches."""

    amplitudes: np.ndarray  # (K, N)
    coefficients: np.ndarray  # (K,)
    log_weights: np.ndarray  # (K, K)


@dataclass(frozen=True, eq=False)
class CoherentMixture:
    """Probability mixture of normalized coherent superpositions."""

    branches: tuple

    @property
    def n_modes(self) -> int:
        return self.branches[0].components[0].amplitudes.size

    @cached_property
    def pairs(self) -> PairRecord:
        """The :class:`PairRecord`, built on first read and cached; a component
        count whose K x K work arrays would pass the byte limit is refused first."""
        comps = [c for branch in self.branches for c in branch.components]
        _check_component_count(len(comps))
        betas = np.array([c.amplitudes for c in comps])
        coeffs = np.array([c.coefficient for c in comps])
        branch_of = np.array([j for j, b in enumerate(self.branches) for _ in b.components])
        with np.errstate(divide="ignore", invalid="ignore"):
            log_coeffs = np.log(coeffs)
            log_probs = np.log(np.array([b.probability for b in self.branches]))
        log_coeffs[coeffs == 0] = -np.inf
        logw = log_coeffs.conj()[:, None] + log_coeffs[None, :] + _log_overlaps(betas, betas)
        logw += log_probs[branch_of][:, None]
        logw = np.where(branch_of[:, None] == branch_of, logw, -np.inf + 0j)
        for array in (betas, coeffs, logw):
            array.setflags(write=False)
        return PairRecord(betas, coeffs, logw)

    def single_branch(self) -> CoherentBranch:
        if len(self.branches) != 1:
            raise ValidationError("operation requires a pure (single-branch) state")
        return self.branches[0]


def _branch_norm(components: Sequence[CoherentComponent]) -> float:
    betas = np.array([c.amplitudes for c in components])
    coeffs = np.array([c.coefficient for c in components])
    total = complex(coeffs.conj() @ np.exp(_log_overlaps(betas, betas)) @ coeffs)
    # Each overlap carries its exponent's rounding, so the imaginary part reads
    # at most 0.12 of this bound (8 000 random superpositions, N and K 1-8,
    # amplitude norm 1e4).
    rounding = _exponent_rounding(betas) * float(np.sum(np.abs(coeffs))) ** 2
    if abs(total.imag) > max(1e-10 * max(1.0, abs(total.real)), rounding):
        raise ValidationError("branch norm is not real; check the component list")
    return float(total.real)


def coherent_superposition(
    coefficients: Sequence[complex],
    amplitude_vectors: Sequence[Sequence[complex]],
    probability: float = 1.0,
) -> CoherentBranch:
    """Build one branch, normalizing the superposition coefficients in place.
    A component count whose K x K work arrays would pass the byte limit is
    refused before the norm builds any of them."""
    if len(coefficients) == 0 or len(coefficients) != len(amplitude_vectors):
        raise ValidationError("need one coefficient per amplitude vector")
    _check_component_count(len(coefficients))
    components = [
        CoherentComponent(coefficient=c, amplitudes=np.asarray(v, dtype=complex))
        for c, v in zip(coefficients, amplitude_vectors)
    ]
    sizes = {comp.amplitudes.size for comp in components}
    if len(sizes) != 1:
        raise ValidationError("all components must share the mode count")
    # Finite: every overlap has modulus 1 at most, to rounding, so |norm| <=
    # K^2 1e300, below 6.7e306 for the K <= 2590 that pass the byte check.
    norm = _branch_norm(components)
    if norm <= 1e-14:
        raise NullState("superposition has (numerically) zero norm")
    scale = 1.0 / np.sqrt(norm)
    components = tuple(
        CoherentComponent(coefficient=c.coefficient * scale, amplitudes=c.amplitudes)
        for c in components
    )
    return CoherentBranch(probability=float(probability), components=components)


def coherent_mixture(branches: Sequence[CoherentBranch]) -> CoherentMixture:
    """Assemble branches into a mixture; probabilities must sum to one."""
    if not branches:
        raise ValidationError("mixture needs at least one branch")
    total = sum(b.probability for b in branches)
    if any(b.probability < 0 for b in branches):
        raise ValidationError("branch probabilities must be >= 0")
    if not abs(total - 1.0) <= _WEIGHT_TOL:  # NaN fails too
        raise ValidationError(f"branch probabilities sum to {total}, expected 1")
    sizes = {b.components[0].amplitudes.size for b in branches}
    if len(sizes) != 1:
        raise ValidationError("all branches must share the mode count")
    return CoherentMixture(branches=tuple(branches))


def single_coherent_state(amplitudes: Sequence[complex]) -> CoherentMixture:
    """Pure multimode coherent product state."""
    return coherent_mixture([coherent_superposition([1.0], [amplitudes])])


def build_cat_family(
    n: int,
    r: int,
    s: int,
    alpha: complex,
    beta: complex = 0j,
    sign: int = +1,
) -> CoherentMixture:
    """Two-component entangled cat over an n-oscillator network.

    The first component puts ``r`` oscillators at +alpha, the next ``s`` at
    -alpha and the remaining ``n - r - s`` at the spectator amplitude beta;
    the second component swaps the alpha blocks.  ``sign`` selects the
    even (+1) or odd (-1) superposition.  ``r = 1, s = 0`` prepares a
    single-oscillator cat next to coherent spectators.
    """
    if n < 1 or r < 0 or s < 0:
        raise ValidationError("need n >= 1 and r, s >= 0")
    if r + s > n:
        raise ValidationError(f"r + s = {r + s} exceeds the oscillator count {n}")
    if sign not in (+1, -1):
        raise ValidationError("sign must be +1 or -1")
    alpha = complex(alpha)
    beta = complex(beta)
    first = [alpha] * r + [-alpha] * s + [beta] * (n - r - s)
    second = [-alpha] * r + [alpha] * s + [beta] * (n - r - s)
    return coherent_mixture(
        [coherent_superposition([1.0, float(sign)], [first, second])]
    )


@dataclass(frozen=True)
class FockBranch:
    """One normalized superposition of occupation-number states."""

    probability: float
    coefficients: tuple  # ((occupation tuple, complex coefficient), ...)


@dataclass(frozen=True)
class FockMixture:
    branches: tuple

    @property
    def n_modes(self) -> int:
        return len(self.branches[0].coefficients[0][0])

    @property
    def max_occupation(self) -> int:
        return max(
            max(occ) for b in self.branches for occ, _ in b.coefficients
        )


def fock_mixture(branches: Sequence[tuple[float, Mapping]]) -> FockMixture:
    """Build a Fock mixture from (probability, {occupation tuple: coefficient}).

    Each branch is normalized to unit 2-norm; probabilities must sum to one
    and every occupation tuple must be non-negative with a common length.
    """
    if not branches:
        raise ValidationError("mixture needs at least one branch")
    total = sum(p for p, _ in branches)
    if not abs(total - 1.0) <= _WEIGHT_TOL:  # NaN fails too
        raise ValidationError(f"branch probabilities sum to {total}, expected 1")
    built = []
    lengths = set()
    for prob, coeff_map in branches:
        if prob < 0:
            raise ValidationError("branch probabilities must be >= 0")
        items = []
        norm = 0.0
        for occ, value in coeff_map.items():
            occ = tuple(int(x) for x in occ)
            if any(x < 0 for x in occ):
                raise ValidationError("occupations must be >= 0")
            lengths.add(len(occ))
            items.append((occ, complex(value)))
            norm += abs(value) ** 2
        if not items or norm <= 1e-14:
            raise NullState("Fock branch has zero norm")
        scale = 1.0 / np.sqrt(norm)
        items = tuple((occ, value * scale) for occ, value in items)
        built.append(FockBranch(probability=float(prob), coefficients=items))
    if len(lengths) != 1:
        raise ValidationError("all occupation tuples must share the mode count")
    return FockMixture(branches=tuple(built))


def fock_state_ring(
    occupations: Sequence[int], radius: float = 0.35, points: int = 8
) -> CoherentMixture:
    """Coherent-ring discretization of a product Fock state.

    A Fock state is a phase integral over coherent states on a circle; with
    ``points`` equally spaced angles the discretization is exact up to
    aliasing onto occupations shifted by multiples of ``points``, which a
    small ``radius`` suppresses as radius**points.
    """
    occupations = [int(x) for x in occupations]
    if any(x < 0 for x in occupations):
        raise ValidationError("occupations must be >= 0")
    if points < 2:
        raise ValidationError("need at least two ring points")
    if radius <= 0:
        raise ValidationError("ring radius must be positive")
    per_mode = []
    for occ in occupations:
        if occ == 0:
            per_mode.append([(1.0 + 0j, 0.0 + 0j)])
            continue
        angles = 2.0 * np.pi * np.arange(points) / points
        per_mode.append(
            [(np.exp(-1j * occ * th), radius * np.exp(1j * th)) for th in angles]
        )
    coefficients = [1.0 + 0j]
    vectors = [[]]
    for mode_terms in per_mode:
        coefficients = [
            c * term_c for c in coefficients for term_c, _ in mode_terms
        ]
        vectors = [
            v + [term_a] for v in vectors for _, term_a in mode_terms
        ]
    return coherent_mixture([coherent_superposition(coefficients, vectors)])
