"""Dissipative networks of coupled quantum harmonic oscillators at finite temperature.

Build a network (frequencies + couplings), attach thermal reservoirs, and the
package produces the exact Gaussian phase-space dynamics: damping/diffusion
rate matrices, the stationary width, time-dependent propagators, the
characteristic / P / Wigner functions of coherent and Fock mixtures, and
decoherence metrics (diffusion times, interference decay times, linear
entropy, concurrence).  A brute-force truncated-Fock-space master-equation
integrator serves as ground truth at small mode counts.

The names below load on first use (PEP 562), so ``import oscnet`` imports no
numpy; ``python -m oscnet`` relies on that to choose the BLAS thread count
before numpy loads (see ``oscnet.__main__``).
"""

import importlib

__version__ = "0.1.0"

# Any of these, when set, leaves the BLAS thread count to the user.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

_EXPORTS = {
    "errors": (
        "ConfigError",
        "CutoffOverflow",
        "DefectiveMatrix",
        "NoBracket",
        "NonDissipativeMode",
        "NonPositiveNormalMode",
        "NullState",
        "OscnetError",
        "PositivityLost",
        "QuadratureNotConverged",
        "RootNotConverged",
        "SingularSystem",
        "SingularWidth",
        "ValidationError",
    ),
    "network": (
        "DissipativeMatrix",
        "NetworkSpec",
        "NormalModes",
        "build_hamiltonian",
        "coupling_regime",
        "degenerate_symmetric_network",
        "dissipative_matrix",
        "normal_modes",
    ),
    "reservoirs": (
        "GaussianBand",
        "Lorentzian",
        "RateMatrices",
        "ReservoirSpec",
        "WhiteNoise",
        "mean_occupation",
        "profile_overlap",
        "rates_common",
        "rates_distinct",
        "rates_weak",
        "temperature_for_occupation",
    ),
    "stationary": (
        "StationaryWidth",
        "kron_sum",
        "lyapunov_residual",
        "solve_pi_eigen",
        "solve_pi_vec",
        "stationary_width",
    ),
    "propagation": (
        "Model",
        "Propagator",
        "PropagatorBundle",
        "build_model",
        "centroid",
        "eta_flow",
        "noise_width",
        "rotate_frame",
        "transition_matrix",
    ),
    "states": (
        "CoherentBranch",
        "CoherentComponent",
        "CoherentMixture",
        "FockBranch",
        "FockMixture",
        "build_cat_family",
        "coherent_mixture",
        "coherent_overlap",
        "coherent_superposition",
        "fock_mixture",
        "fock_state_ring",
        "single_coherent_state",
    ),
    "phasespace": (
        "char_function",
        "char_function_fock",
        "moments",
        "p_function",
        "wigner",
        "wigner_elements",
        "wigner_from_char",
        "wigner_grid",
    ),
    "metrics": (
        "DecoherenceReport",
        "concurrence",
        "decay_function",
        "decoherence_report",
        "decoherence_time",
        "directional_diffusion_times",
        "interference_decay_time",
        "linear_entropy",
        "mean_diffusion_time",
    ),
    "oracle": (
        "FockSpace",
        "TruncatedDensityMatrix",
        "density_from_coherent",
        "density_from_fock",
        "evolve_master",
        "expect_lowering",
        "expect_number_matrix",
        "liouvillian_apply",
        "oracle_char",
        "oracle_partial_trace",
        "oracle_purity",
        "select_cutoff",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_MODULE_OF]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
