"""Dissipative networks of coupled quantum harmonic oscillators at finite temperature.

Build a network (frequencies + couplings), attach thermal reservoirs, and the
package produces the exact Gaussian phase-space dynamics: damping/diffusion
rate matrices, the stationary width, time-dependent propagators, the
characteristic / P / Wigner functions of coherent and Fock mixtures, and
decoherence metrics (diffusion times, interference decay times, linear
entropy, concurrence).  A brute-force truncated-Fock-space master-equation
integrator serves as ground truth at small mode counts.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    CutoffOverflow,
    DefectiveMatrix,
    NoBracket,
    NonDissipativeMode,
    NonPositiveNormalMode,
    NullState,
    OscnetError,
    QuadratureNotConverged,
    RootNotConverged,
    SingularSystem,
    SingularWidth,
    ValidationError,
)
from .network import (
    DissipativeMatrix,
    NetworkSpec,
    NormalModes,
    build_hamiltonian,
    coupling_regime,
    degenerate_symmetric_network,
    dissipative_matrix,
    normal_modes,
)
from .reservoirs import (
    GaussianBand,
    Lorentzian,
    RateMatrices,
    ReservoirSpec,
    WhiteNoise,
    mean_occupation,
    profile_overlap,
    rates_common,
    rates_distinct,
    rates_weak,
    temperature_for_occupation,
)
from .stationary import (
    StationaryWidth,
    kron_sum,
    lyapunov_residual,
    solve_pi_eigen,
    solve_pi_vec,
    stationary_width,
)
from .propagation import (
    Model,
    Propagator,
    PropagatorBundle,
    build_model,
    centroid,
    eta_flow,
    noise_width,
    rotate_frame,
    transition_matrix,
)
from .states import (
    CoherentBranch,
    CoherentComponent,
    CoherentMixture,
    FockBranch,
    FockMixture,
    build_cat_family,
    coherent_mixture,
    coherent_overlap,
    coherent_superposition,
    fock_mixture,
    fock_state_ring,
    single_coherent_state,
)
from .phasespace import (
    char_function,
    char_function_fock,
    moments,
    p_function,
    wigner,
    wigner_elements,
    wigner_from_char,
    wigner_grid,
)
from .metrics import (
    DecoherenceReport,
    concurrence,
    decay_function,
    decoherence_report,
    decoherence_time,
    directional_diffusion_times,
    interference_decay_time,
    linear_entropy,
    mean_diffusion_time,
)
from .oracle import (
    FockSpace,
    TruncatedDensityMatrix,
    density_from_coherent,
    density_from_fock,
    evolve_master,
    expect_lowering,
    expect_number_matrix,
    liouvillian_apply,
    oracle_char,
    oracle_partial_trace,
    oracle_purity,
    select_cutoff,
)
