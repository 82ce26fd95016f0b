"""Seeded generation of the benchmark's workload configs.

Every workload is a JSON config for ``oscnet run`` (or ``oscnet sweep`` plus
its axes), generated from one integer seed with numpy's PCG64 generator.  The
program under test receives only the written config files; nothing here
imports oscnet, so a change to the library cannot change its own inputs.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0
# A second seed, kept out of tuning, on which later claims can be checked.
SECOND_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    verb: str  # "run" or "sweep"
    config: dict
    axes: tuple = ()  # sweep axes as "path=start:stop:steps"


def _lorentzian(gamma):
    return {"kind": "lorentzian", "gamma": gamma, "center": 1.0, "width": 0.5}


def _uniform_coupling(rng, n, high):
    upper = np.triu(rng.uniform(0.0, high, size=(n, n)), 1)
    return (upper + upper.T).tolist()


def big_network(seed: int, n: int = 150) -> Workload:
    """Large distinct-reservoir network: rate assembly and bundle eigh dominate."""
    rng = np.random.default_rng([seed, 1])
    config = {
        "network": {
            "n": n,
            "omega": rng.uniform(0.9, 1.1, size=n).tolist(),
            "coupling": _uniform_coupling(rng, n, 0.004),
        },
        "reservoirs": {"temperature": 0.9, "profile": _lorentzian(0.002)},
        "regime": "auto",
        "state": {"kind": "cat", "r": 1, "s": 1, "alpha": 1.0},
        "times": {"start": 0.0, "stop": 40.0, "steps": 40},
        "outputs": ["tau_report", "dcoef", "entropy_curve"],
    }
    return Workload("big_network", "run", config)


def _ring_components(occupations, radius, points, phase):
    """Coherent-ring discretisation of a product Fock state, as config components.

    The same construction as ``oscnet.fock_state_ring``, with every ring
    rotated by ``phase``: component amplitudes ``radius * e^{i(theta+phase)}``
    and coefficients ``prod_m e^{-i n_m theta_m}``.
    """
    comps = [(1.0 + 0j, [])]
    for occ in occupations:
        terms = []
        for k in range(points):
            theta = 2.0 * math.pi * k / points
            terms.append((cmath.exp(-1j * occ * theta), radius * cmath.exp(1j * (theta + phase))))
        comps = [(c * tc, beta + [ta]) for c, beta in comps for tc, ta in terms]
    return [
        {
            "amplitude": [c.real, c.imag],
            "beta": [[b.real, b.imag] for b in beta],
        }
        for c, beta in comps
    ]


def ring_wigner(seed: int, points: int = 17) -> Workload:
    """Sixteen-component ring state on a 17^4 Wigner grid: Gaussian pair sums dominate."""
    rng = np.random.default_rng([seed, 2])
    config = {
        "network": {
            "n": 2,
            "omega": rng.uniform(0.95, 1.05, size=2).tolist(),
            "coupling": float(rng.uniform(0.05, 0.15)),
        },
        "reservoirs": {
            "temperature": float(rng.uniform(0.4, 0.6)),
            "profile": {"kind": "white", "gamma": float(rng.uniform(0.04, 0.06))},
        },
        "regime": "auto",
        "state": {
            "kind": "coherent",
            "branches": [
                {
                    "weight": 1.0,
                    "components": _ring_components(
                        (1, 1), 0.6, 4, float(rng.uniform(0.0, 2.0 * math.pi))
                    ),
                }
            ],
        },
        "times": {"start": 0.0, "stop": 40.0, "steps": 40},
        "wigner_grid": {
            "points": points,
            "ranges": [[-2.5, 2.5, -2.5, 2.5]] * 2,
            "time_index": -1,
        },
        "outputs": ["tau_report", "entropy_curve", "wigner_grid"],
    }
    return Workload("ring_wigner", "run", config)


def oracle_check(
    seed: int, n_max: int = 10, alpha: float = 0.7, temperature: float = 0.4
) -> Workload:
    """Two-mode cat against the truncated-Fock oracle: the dense integrator dominates."""
    rng = np.random.default_rng([seed, 3])
    alpha = alpha * cmath.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi)))
    config = {
        "network": {
            "n": 2,
            "omega": rng.uniform(0.9, 1.1, size=2).tolist(),
            "coupling": 0.1,
        },
        "reservoirs": {"temperature": temperature, "profile": {"kind": "white", "gamma": 0.05}},
        "regime": "auto",
        "state": {"kind": "cat", "r": 1, "s": 1, "alpha": [alpha.real, alpha.imag]},
        "times": {"start": 0.0, "stop": 4.0, "steps": 5},
        "oracle": {"n_max": n_max},
        "outputs": ["oracle_compare"],
    }
    return Workload("oracle_check", "run", config)


def size_sweep(seed: int, sizes: str = "8:64:8", temps: str = "0.5:1.1:3") -> Workload:
    """Pooled sweep over network size and temperature: per-call overhead and core contention."""
    rng = np.random.default_rng([seed, 4])
    config = {
        "network": {
            "n": 8,
            "omega": float(rng.uniform(0.95, 1.05)),
            "coupling": float(rng.uniform(0.001, 0.004)),
        },
        "reservoirs": {"temperature": 0.9, "profile": _lorentzian(0.002)},
        "regime": "auto",
        "state": {"kind": "cat", "r": 1, "s": 1, "alpha": 1.0},
        "times": {"start": 0.0, "stop": 40.0, "steps": 40},
        "outputs": ["tau_report"],
    }
    axes = (f"network.n={sizes}", f"reservoirs.temperature={temps}")
    return Workload("size_sweep", "sweep", config, axes)


WORKLOADS = {
    "big_network": big_network,
    "ring_wigner": ring_wigner,
    "oracle_check": oracle_check,
    "size_sweep": size_sweep,
}

# Tiny sizes for --smoke: same code paths, seconds instead of minutes.  The
# n_max=4 oracle needs a smaller cat and a colder bath to hold its cutoff.
SMOKE_SIZES = {
    "big_network": {"n": 8},
    "ring_wigner": {"points": 7},
    "oracle_check": {"n_max": 4, "alpha": 0.2, "temperature": 0.2},
    "size_sweep": {"sizes": "8:16:2", "temps": "0.9:0.9:1"},
}


def generate(name: str, seed: int, smoke: bool = False) -> Workload:
    kwargs = SMOKE_SIZES[name] if smoke else {}
    return WORKLOADS[name](seed, **kwargs)
