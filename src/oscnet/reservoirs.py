"""Thermal reservoirs: spectral profiles, occupations, and damping/diffusion rates.

Each oscillator couples either to its own reservoir (distinct) or all to a
single common reservoir.  A reservoir is a temperature plus a spectral damping
function gamma(omega) >= 0; in the Markov limit the gain-side spectral function
equals the loss-side one, so a single profile describes both.

Rate convention: the user-supplied profile is the per-channel spectral damping
function, and the assembled damping/diffusion matrices always carry an explicit
factor of the oscillator count N.  With identical white-noise reservoirs the
damping matrix is therefore ``N * gamma * I`` for any topology, and every
closed form checked by the test-suite is stated under this convention.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ValidationError
from .network import NetworkSpec, NormalModes

__all__ = [
    "WhiteNoise",
    "Lorentzian",
    "GaussianBand",
    "ReservoirSpec",
    "RateMatrices",
    "mean_occupation",
    "temperature_for_occupation",
    "profile_overlap",
    "rates_distinct",
    "rates_weak",
    "rates_common",
]


@dataclass(frozen=True)
class WhiteNoise:
    """Flat spectral density: gamma(omega) = gamma for every frequency."""

    gamma: float

    def __post_init__(self):
        if not math.isfinite(self.gamma):
            raise ValidationError("damping rate must be finite")
        if not self.gamma >= 0:
            raise ValidationError("damping rate must be >= 0")

    def rate(self, omega):
        return np.broadcast_to(float(self.gamma), np.shape(omega)).copy() \
            if np.ndim(omega) else float(self.gamma)


@dataclass(frozen=True)
class Lorentzian:
    """Lorentzian spectral density peaking at ``center`` with half-width ``width``."""

    gamma: float
    center: float
    width: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.gamma, self.center, self.width))):
            raise ValidationError("need finite gamma, center and width")
        if not (self.gamma >= 0 and self.width > 0):
            raise ValidationError("need gamma >= 0 and width > 0")

    def rate(self, omega):
        omega = np.asarray(omega, dtype=float)
        value = self.gamma * self.width**2 / ((omega - self.center) ** 2 + self.width**2)
        return value if value.ndim else float(value)


@dataclass(frozen=True)
class GaussianBand:
    """Gaussian spectral density centered at ``center`` with std ``width``."""

    gamma: float
    center: float
    width: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.gamma, self.center, self.width))):
            raise ValidationError("need finite gamma, center and width")
        if not (self.gamma >= 0 and self.width > 0):
            raise ValidationError("need gamma >= 0 and width > 0")

    def rate(self, omega):
        omega = np.asarray(omega, dtype=float)
        value = self.gamma * np.exp(-((omega - self.center) ** 2) / (2.0 * self.width**2))
        return value if value.ndim else float(value)


Profile = Union[WhiteNoise, Lorentzian, GaussianBand]


def mean_occupation(temperature: float, omega):
    """Bose-Einstein occupation 1 / (exp(omega/T) - 1); exactly 0 at T = 0.

    ``omega`` must be positive (scalar or array); hbar = k_B = 1.
    """
    omega = np.asarray(omega, dtype=float)
    if not np.all((omega > 0) & (omega < math.inf)):
        raise ValidationError("mean occupation requires finite omega > 0")
    if not 0 <= temperature < math.inf:
        raise ValidationError("temperature must be finite and >= 0")
    if temperature == 0:
        value = np.zeros_like(omega)
    else:
        with np.errstate(over="ignore"):
            value = 1.0 / np.expm1(omega / temperature)
    return value if value.ndim else float(value)


def temperature_for_occupation(nbar: float, omega: float) -> float:
    """Temperature at which a mode of frequency ``omega`` holds ``nbar`` quanta."""
    if not 0 <= nbar < math.inf:
        raise ValidationError("occupation must be finite and >= 0")
    if not 0 < omega < math.inf:
        raise ValidationError("omega must be finite and positive")
    if nbar == 0:
        return 0.0
    return omega / np.log1p(1.0 / nbar)


@dataclass(frozen=True, eq=False)
class ReservoirSpec:
    """Per-oscillator temperatures and spectral profiles, plus the common flag.

    ``overlap`` (common reservoir only) is the symmetric matrix of normalized
    profile-overlap factors in [0, 1]; leave it ``None`` to have it computed
    from the profiles.
    """

    temperatures: np.ndarray
    profiles: tuple
    common: bool = False
    overlap: np.ndarray | None = None

    def __post_init__(self):
        temps = np.atleast_1d(np.asarray(self.temperatures, dtype=float))
        profiles = tuple(self.profiles)
        if temps.ndim != 1:
            raise ValidationError("temperatures must be 1-d")
        if not np.all(np.isfinite(temps)):
            raise ValidationError("temperatures must be finite")
        if not np.all(temps >= 0):
            raise ValidationError("temperatures must be >= 0")
        if len(profiles) != temps.size:
            raise ValidationError("one spectral profile per oscillator is required")
        if self.overlap is not None:
            overlap = np.asarray(self.overlap, dtype=float)
            n = temps.size
            if overlap.shape != (n, n):
                raise ValidationError("overlap matrix has the wrong shape")
            # In range first: a NaN or an infinity fails it, and the symmetry
            # test below then subtracts finite numbers.
            if not np.all((overlap >= 0) & (overlap <= 1 + 1e-12)):
                raise ValidationError("overlap factors must lie in [0, 1]")
            if np.max(np.abs(overlap - overlap.T)) > 1e-12:
                raise ValidationError("overlap matrix must be symmetric")
            overlap.setflags(write=False)
            object.__setattr__(self, "overlap", overlap)
        temps.setflags(write=False)
        object.__setattr__(self, "temperatures", temps)
        object.__setattr__(self, "profiles", profiles)

    @property
    def n(self) -> int:
        return self.temperatures.size

    def damping_at(self, freqs: np.ndarray) -> np.ndarray:
        """Matrix g[m, l] = gamma_m(freqs[l])."""
        return np.array([np.atleast_1d(p.rate(freqs)) for p in self.profiles])

    def occupation_at(self, freqs: np.ndarray) -> np.ndarray:
        """Matrix nbar[m, l] = mean occupation of reservoir m at freqs[l]."""
        return np.array(
            [np.atleast_1d(mean_occupation(t, freqs)) for t in self.temperatures]
        )


@dataclass(frozen=True, eq=False)
class RateMatrices:
    """Damping (loss) and diffusion (gain) rate matrices of the master equation."""

    damping: np.ndarray
    diffusion: np.ndarray


def _normalized_shape(profile: Profile):
    if isinstance(profile, Lorentzian):
        return lambda nu: 1.0 / ((nu - profile.center) ** 2 + profile.width**2)
    if isinstance(profile, GaussianBand):
        return lambda nu: np.exp(-((nu - profile.center) ** 2) / (2.0 * profile.width**2))
    raise ValidationError(f"no shape function for profile {profile!r}")


def profile_overlap(p: Profile, q: Profile) -> float:
    """Normalized overlap of two spectral profiles (Bhattacharyya coefficient).

    Equals 1 for profiles of identical shape, 0 for disjoint supports.  A
    white-noise profile overlaps fully with another white-noise profile and
    not at all with any band-limited one (flat support dominates the
    normalization in the wide-band limit).
    """
    p_white = isinstance(p, WhiteNoise)
    q_white = isinstance(q, WhiteNoise)
    if p_white and q_white:
        return 1.0
    if p_white or q_white:
        return 0.0
    if type(p) is type(q) and (p.center, p.width) == (q.center, q.width):
        return 1.0  # one shape at any two rates: quad gives 1.0 too, unless it underflows
    fp = _normalized_shape(p)
    fq = _normalized_shape(q)
    lo, hi = sorted([p.center, q.center])
    breaks = [0.0, max(lo, 0.0), max(hi, 0.0)]

    from scipy.integrate import quad

    def integrate(f):
        total = 0.0
        for a, b in zip(breaks[:-1], breaks[1:]):
            if b > a:
                total += quad(f, a, b, limit=200)[0]
        total += quad(f, breaks[-1], np.inf, limit=200)[0]
        return total

    cross = integrate(lambda nu: np.sqrt(fp(nu) * fq(nu)))
    norm = integrate(fp) * integrate(fq)
    if norm <= 0:
        return 0.0
    return float(min(1.0, cross / np.sqrt(norm)))


def _assemble(
    res: ReservoirSpec, freqs: np.ndarray, c: np.ndarray, overlap: np.ndarray | None = None
) -> RateMatrices:
    """Rates ``N sum_{l, k} gamma_mk(freqs[l]) C[l, k] C[l, n]`` from two N x N products.

    The cross rate is ``gamma_mk = gamma_m`` on the diagonal and
    ``sqrt(gamma_m gamma_k) o_mk`` off it (``o`` the profile overlap, none for
    distinct reservoirs), so the inner sum over k is the (m, l) matrix
    ``rows = gamma * C^T + sqrt(gamma) * (o_off @ (sqrt(gamma) * C^T))``.
    Diffusion carries each reservoir's Bose factor at ``freqs[l]``.
    """
    gam = res.damping_at(freqs)  # (m, l)
    rows = gam * c.T
    if overlap is not None:
        off = overlap - np.diag(np.diag(overlap))
        root = np.sqrt(gam)
        rows += root * (off @ (root * c.T))
    occ = res.occupation_at(freqs)
    return RateMatrices(damping=res.n * (rows @ c), diffusion=res.n * ((rows * occ) @ c))


def rates_distinct(res: ReservoirSpec, modes: NormalModes) -> RateMatrices:
    """Exact rate matrices for distinct reservoirs, sampled at the normal modes.

    ``damping[m, n] = N * sum_l C[l, n] gamma_m(w_l) C[l, m]`` and the
    diffusion matrix carries an extra Bose factor per normal mode.  With
    identical white-noise reservoirs the damping collapses to ``N*gamma*I``
    by orthogonality, and diffusion vanishes at zero temperature.
    """
    return _assemble(res, modes.frequencies, modes.transform)


def rates_weak(res: ReservoirSpec, spec: NetworkSpec) -> RateMatrices:
    """Weak-coupling rates: diagonal, sampled at the natural frequencies.

    Equivalent to approximating the normal-mode transform by the identity.
    """
    if res.n != spec.n:
        raise ValidationError("reservoir and network sizes disagree")
    return _assemble(res, spec.omega, np.eye(spec.n))


def rates_common(res: ReservoirSpec, modes: NormalModes) -> RateMatrices:
    """Rate matrices for a single common reservoir.

    The Markov-limit cross rate between channels m and k factorizes as
    ``sqrt(gamma_m * gamma_k) * o_mk`` with ``o`` the normalized
    profile-overlap matrix (identity recovers the distinct-reservoir rates
    bit for bit; all-ones recovers maximal indirect channels).  A computed
    overlap evaluates :func:`profile_overlap` once per ordered pair of
    profile shapes, so a bath of a few shapes costs a few quadratures at
    any N.  A single reservoir has a single temperature, so
    mixed temperatures are rejected.
    """
    if not np.all(res.temperatures == res.temperatures[0]):
        raise ValidationError("a common reservoir has a single temperature")
    if res.overlap is not None:
        overlap = res.overlap
    else:
        # profile_overlap never reads gamma: one call per ordered pair of shapes.
        shapes = [dataclasses.replace(p, gamma=1.0) for p in res.profiles]
        overlap_of = functools.cache(profile_overlap)
        n = res.n
        overlap = np.eye(n)
        for i in range(n):
            for j in range(i + 1, n):
                overlap[i, j] = overlap[j, i] = overlap_of(shapes[i], shapes[j])
    return _assemble(res, modes.frequencies, modes.transform, overlap)
