"""Exact relations at N = 150, where the Fock oracle cannot reach.

The network is the benchmark's ``big_network`` at seed 0: frequencies in
[0.9, 1.1], all-to-all couplings in [0, 0.004], Lorentzian reservoirs, and
the cat r = s = 1, alpha = 1.  Relabelling the modes permutes every input
(frequencies, couplings, temperatures, profiles and amplitudes) and must
leave the interference time, the sorted diffusion coefficients and the
linear entropy unchanged.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oscnet as osc

N = 150
GRID = np.linspace(0.0, 40.0, 40)
TIMES = (0.001, 0.01, 0.05, 0.5, 5.0)  # entropy 0.045, 0.37, 0.90, then near 1

# Worst deviations of the relabelled model, measured with the permutation
# below (tau relative, entropy absolute, coefficients relative): frame route
# 5.5e-15, 4.4e-16, 3.8e-15; dense route 2.6e-15, 3.2e-14, 6.3e-15.  The
# bounds leave a margin of at least 150.  The common-bath tau lies past the
# grid and each of the two roots is within Brent's rtol 1e-8 of the crossing,
# so they differ by at most 2e-8 (measured: 2.1e-10).
TAU_RTOL, ENTROPY_ATOL, DCOEF_RTOL = 1e-12, 1e-11, 1e-12
COMMON_TAU_RTOL = 2e-8
PERM = np.random.default_rng(5).permutation(N)


def _model(perm, mixed=False, common=False):
    """The network, its baths and the cat, with mode m relabelled perm[m]."""
    rng = np.random.default_rng([0, 1])
    omega = rng.uniform(0.9, 1.1, size=N)
    upper = np.triu(rng.uniform(0.0, 0.004, size=(N, N)), 1)
    coupling = upper + upper.T
    temps = np.linspace(0.5, 1.3, N) if mixed else np.full(N, 0.9)
    profiles = [osc.Lorentzian(0.002, 1.0, 0.5)] * N
    components = osc.build_cat_family(N, 1, 1, 1.0).branches[0].components
    net = osc.NetworkSpec(omega=omega[perm], coupling=coupling[np.ix_(perm, perm)])
    res = osc.ReservoirSpec(
        temperatures=temps[perm], profiles=tuple(profiles[m] for m in perm), common=common
    )
    state = osc.coherent_superposition(
        [c.coefficient for c in components], [c.amplitudes[perm] for c in components]
    )
    return osc.build_model(net, res), osc.coherent_mixture([state])


def _tau(model, state):
    return osc.interference_decay_time(state, 0, 1, model.propagator, GRID)


@pytest.mark.parametrize("mixed", [False, True], ids=["frame_route", "dense_route"])
def test_relabelling_leaves_tau_entropy_and_dcoef_unchanged(mixed):
    results = []
    for perm in (np.arange(N), PERM):
        model, state = _model(perm, mixed)
        assert (model.propagator._core is None) == mixed
        bundles = [model.propagator.bundle(t) for t in TIMES]
        entropy = [osc.linear_entropy(state, b) for b in bundles]
        dcoef = np.array([b.diffusion_coeffs for b in bundles])
        results.append((_tau(model, state), entropy, dcoef))
    (tau, entropy, dcoef), (tau_moved, entropy_moved, dcoef_moved) = results
    assert GRID[0] < tau < GRID[-1] and entropy[0] < 0.1
    assert_allclose(tau_moved, tau, rtol=TAU_RTOL)
    assert_allclose(entropy_moved, entropy, rtol=0, atol=ENTROPY_ATOL)
    assert_allclose(dcoef_moved, dcoef, rtol=DCOEF_RTOL)


def test_relabelling_on_a_common_bath_leaves_tau_unchanged():
    # A common bath couples every mode, so only tau is compared; it is found
    # past the end of the grid.
    tau, tau_moved = (_tau(*_model(perm, common=True)) for perm in (np.arange(N), PERM))
    assert tau > GRID[-1]
    assert_allclose(tau_moved, tau, rtol=COMMON_TAU_RTOL)
