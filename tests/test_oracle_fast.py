"""Equivalence and limit tests for the sparse Fock-space oracle.

The sparse generator and the per-mode characteristic function are checked
against the dense formulas they replaced, written out here as the reference:
the dense Lindblad right-hand side built from dim x dim ladder operators, and
the dim x dim displacement polynomials.  The propagator action is checked
against scipy's ``expm_multiply``, whose algorithm it ports, and against the
dense exponential of the generator.  The 3-mode check compares the Gaussian
solution with the oracle at a size the dense integrator could not reach in
test time.
"""

import types

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oscnet as osc
from oscnet import oracle
from oscnet.cli import parse_config
from oscnet.errors import OscnetError, ValidationError

from conftest import white_model


class _DenseLindblad:
    # The dense right-hand side the sparse generator replaced.
    def __init__(self, space, hamiltonian, damping, diffusion):
        hamiltonian = np.asarray(hamiltonian, dtype=complex)
        n = space.n_modes
        self.space = space
        big_h = np.zeros((space.dim, space.dim), dtype=complex)
        for m in range(n):
            for k in range(n):
                if hamiltonian[m, k] != 0:
                    big_h += hamiltonian[m, k] * space.raising[m] @ space.lowering[k]
        loss = 0.5 * (damping + diffusion)
        gain = 0.5 * diffusion
        self.loss_weights = loss + loss.T
        self.gain_weights = gain + gain.T
        q_loss = np.zeros_like(big_h)
        q_loss_t = np.zeros_like(big_h)
        r_gain = np.zeros_like(big_h)
        r_gain_t = np.zeros_like(big_h)
        for m in range(n):
            for k in range(n):
                if loss[m, k] != 0:
                    q_loss += loss[m, k] * space.raising[m] @ space.lowering[k]
                if loss[k, m] != 0:
                    q_loss_t += loss[k, m] * space.raising[m] @ space.lowering[k]
                if gain[m, k] != 0:
                    r_gain += gain[m, k] * space.lowering[m] @ space.raising[k]
                if gain[k, m] != 0:
                    r_gain_t += gain[k, m] * space.lowering[m] @ space.raising[k]
        self.left = -1j * big_h - q_loss - r_gain
        self.right = 1j * big_h - q_loss_t - r_gain_t

    def apply(self, rho):
        space = self.space
        n = space.n_modes
        out = self.left @ rho + rho @ self.right
        moved = [space.lowering[k] @ rho for k in range(n)]
        for m in range(n):
            acc = np.zeros_like(rho)
            for k in range(n):
                if self.loss_weights[m, k] != 0:
                    acc += self.loss_weights[m, k] * moved[k]
            out += acc @ space.raising[m]
        lifted = [space.raising[k] @ rho for k in range(n)]
        for m in range(n):
            acc = np.zeros_like(rho)
            for k in range(n):
                if self.gain_weights[m, k] != 0:
                    acc += self.gain_weights[m, k] * lifted[k]
            out += acc @ space.lowering[m]
        return out


def _dense_char(rho, eta, space):
    # Tr[rho exp(eta a^dag) exp(-conj(eta) a)] from dim x dim polynomials.
    plus = np.eye(space.dim, dtype=complex)
    minus = np.eye(space.dim, dtype=complex)
    for m in range(space.n_modes):
        term_p = np.eye(space.dim, dtype=complex)
        term_m = np.eye(space.dim, dtype=complex)
        acc_p = np.eye(space.dim, dtype=complex)
        acc_m = np.eye(space.dim, dtype=complex)
        for k in range(1, space.levels):
            term_p = (eta[m] / k) * (space.raising[m] @ term_p)
            term_m = (-np.conj(eta[m]) / k) * (space.lowering[m] @ term_m)
            acc_p += term_p
            acc_m += term_m
        plus = plus @ acc_p
        minus = minus @ acc_m
    return complex(np.trace(rho @ plus @ minus))


def _random_density(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real


def _random_rates(rng, n):
    """Symmetric H, non-symmetric damping and diffusion, exact zeros.

    The generator formula holds for any real rate matrices, so asymmetric
    diffusion also tells the transposed gain weights apart.
    """
    h = rng.normal(size=(n, n))
    h = 0.5 * (h + h.T)
    damping = rng.uniform(0.05, 0.4, size=(n, n))
    raw = rng.normal(size=(n, n))
    diffusion = 0.1 * (raw @ raw.T) + 0.02 * rng.normal(size=(n, n))
    if n > 1:
        h[0, 1] = h[1, 0] = 0.0
        damping[1, 0] = 0.0
        diffusion[0, -1] = diffusion[-1, 0] = 0.0
    return h, damping, diffusion


SIZES = [(1, 6), (2, 3), (3, 2)]


@pytest.mark.parametrize("n_modes, n_max", SIZES)
def test_generator_matches_dense_lindblad(rng, n_modes, n_max):
    space = osc.FockSpace(n_modes, n_max)
    h, damping, diffusion = _random_rates(rng, n_modes)
    rho = _random_density(rng, space.dim)
    expected = _DenseLindblad(space, h, damping, diffusion).apply(rho)
    got = osc.liouvillian_apply(rho, h, damping, diffusion, space)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_generator_trace_free_and_hermiticity_preserving(rng):
    space = osc.FockSpace(3, 2)
    h, damping, diffusion = _random_rates(rng, 3)
    generator = oracle._generator(space, h, damping, diffusion)
    trace_row = np.eye(space.dim).reshape(-1)
    assert np.max(np.abs(generator.T @ trace_row)) < 1e-13
    rho = _random_density(rng, space.dim)
    out = osc.liouvillian_apply(rho, h, damping, diffusion, space)
    assert np.max(np.abs(out - out.conj().T)) <= 1e-13 * np.max(np.abs(out))


@pytest.mark.filterwarnings("ignore:characteristic-function displacement")
@pytest.mark.parametrize("n_modes, n_max", SIZES)
def test_char_matches_dense_polynomials(rng, n_modes, n_max):
    space = osc.FockSpace(n_modes, n_max)
    rho = _random_density(rng, space.dim)
    etas = [np.zeros(n_modes, dtype=complex)] + [
        0.3 * (rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes))
        for _ in range(3)
    ]
    for eta in etas:
        assert abs(osc.oracle_char(rho, eta, space) - _dense_char(rho, eta, space)) < 1e-12


@pytest.mark.parametrize("n_modes, n_max", SIZES)
def test_observables_match_dense_traces(rng, n_modes, n_max):
    space = osc.FockSpace(n_modes, n_max)
    rho = _random_density(rng, space.dim)
    numbers = np.array(
        [[np.trace(rho @ space.raising[m] @ space.lowering[k]) for k in range(n_modes)]
         for m in range(n_modes)]
    )
    firsts = np.array([np.trace(rho @ op) for op in space.lowering])
    assert_allclose(osc.expect_number_matrix(rho, space), numbers, rtol=0, atol=1e-13)
    assert_allclose(osc.expect_lowering(rho, space), firsts, rtol=0, atol=1e-13)
    assert abs(osc.oracle_purity(rho) - np.trace(rho @ rho).real) < 1e-13


def test_oversized_space_raises_typed_error():
    with pytest.raises(ValidationError, match="Fock dimension 2825761") as info:
        osc.FockSpace(4, 40)
    assert isinstance(info.value, OscnetError)
    assert str(oracle._BYTE_LIMIT) in str(info.value)


def test_oversized_generator_refused_before_allocation():
    # Dense operators of this space would fit the limit, the generator would
    # not; a stand-in space shows the check runs before anything is built.
    space = types.SimpleNamespace(n_modes=2, n_max=44, levels=45, dim=45**2)
    assert 4 * space.dim**2 * 16 < oracle._BYTE_LIMIT
    rates = np.zeros((2, 2))
    with pytest.raises(ValidationError, match="sparse generator for Fock dimension 2025"):
        osc.evolve_master(None, np.eye(2), rates, rates, [0.0, 1.0], space)


def test_three_mode_gaussian_solution_matches_oracle():
    model = white_model(n=3, coupling=0.1, gamma=0.05, nbar=0.1)
    state = osc.build_cat_family(3, 1, 0, 0.3)
    space = osc.FockSpace(3, 6)
    rho0 = osc.density_from_coherent(space, state)
    snaps = osc.evolve_master(
        rho0, model.hamiltonian, model.rates.damping, model.rates.diffusion,
        np.array([0.0, 1.0, 2.0]), space,
    )
    base = [0.35 + 0j, -0.2 + 0.3j]
    etas = np.array([[a, b, c] for a in base for b in base for c in base])
    for snap in snaps:
        bundle = model.propagator.bundle(snap.t)
        ours = osc.char_function(state, etas, bundle)
        theirs = np.array([osc.oracle_char(snap.rho, eta, space) for eta in etas])
        assert np.max(np.abs(ours - theirs)) <= 1e-7
        first, second = osc.moments(state, bundle)
        assert np.max(np.abs(first - osc.expect_lowering(snap.rho, space))) <= 1e-7
        assert np.max(np.abs(second - osc.expect_number_matrix(snap.rho, space))) <= 1e-7
        purity = 1.0 - osc.linear_entropy(state, bundle)
        assert abs(purity - osc.oracle_purity(snap.rho)) <= 1e-7


@pytest.mark.parametrize("n_modes, n_max", [(1, 6), (2, 3)])
@pytest.mark.parametrize("t", [0.05, 0.8, 7.5])
def test_action_matches_expm_multiply(rng, n_modes, n_max, t):
    from scipy.sparse.linalg import expm_multiply

    space = osc.FockSpace(n_modes, n_max)
    rates = _random_rates(rng, n_modes)
    vec = _random_density(rng, space.dim).reshape(-1)
    got = oracle._expm_action(*oracle._shifted_generator(space, *rates), vec, t)
    generator = oracle._generator(space, *rates)
    expected = expm_multiply(generator, vec, start=0.0, stop=t, num=2, endpoint=True)[1]
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _oracle_check_setup():
    # The benchmark's oracle_check run: two detuned modes, cat |alpha| = 0.7,
    # warm white-noise baths, n_max = 10 (dim 121), five times on [0, 4].
    config = {
        "network": {"n": 2, "omega": [0.93, 1.07], "coupling": 0.1},
        "reservoirs": {"temperature": 0.4, "profile": {"kind": "white", "gamma": 0.05}},
        "regime": "auto",
        "state": {"kind": "cat", "r": 1, "s": 1, "alpha": [0.42, 0.56]},
        "times": {"start": 0.0, "stop": 4.0, "steps": 5},
        "outputs": ["oracle_compare"],
    }
    network, reservoirs, regime, state, times, _ = parse_config(config)
    model = osc.build_model(network, reservoirs, regime)
    space = osc.FockSpace(2, 10)
    rates = (model.hamiltonian, model.rates.damping, model.rates.diffusion)
    return space, osc.density_from_coherent(space, state), rates, times


def test_evolution_equals_expm_multiply_on_benchmark_run():
    from scipy.sparse.linalg import expm_multiply

    space, rho0, rates, times = _oracle_check_setup()
    snaps = osc.evolve_master(rho0, *rates, times, space)
    generator = oracle._generator(space, *rates)
    expected = expm_multiply(
        generator, rho0.reshape(-1), start=0.0, stop=times[-1], num=times.size,
        endpoint=True,
    )
    for snap, ref in zip(snaps, expected):
        assert np.array_equal(snap.rho.reshape(-1), ref)


def _dense_evolution(rho0, rates, times, space):
    from scipy.linalg import expm

    dense = oracle._generator(space, *rates).toarray()
    return [(expm(dense * t) @ rho0.reshape(-1)).reshape(space.dim, space.dim) for t in times]


DENSE_CASES = {
    # One warm mode with a cat, and two cold coupled modes holding a weak
    # coherent state, so that n_max = 3 keeps the cutoff population < 1e-6.
    "1x8": (white_model(n=1, gamma=0.2, nbar=0.15), osc.build_cat_family(1, 1, 0, 0.6), (1, 8)),
    "2x3": (
        white_model(n=2, coupling=0.2, gamma=0.1, nbar=0.003),
        osc.single_coherent_state([0.08, 0.05j]),
        (2, 3),
    ),
}


@pytest.mark.parametrize("case", sorted(DENSE_CASES))
@pytest.mark.parametrize("times", [[0.0, 0.4, 1.7, 6.0], [0.4, 1.7, 6.0]])
def test_evolution_matches_dense_exponential(case, times):
    model, state, shape = DENSE_CASES[case]
    space = osc.FockSpace(*shape)
    rho0 = osc.density_from_coherent(space, state)
    rates = (model.hamiltonian, model.rates.damping, model.rates.diffusion)
    snaps = osc.evolve_master(rho0, *rates, times, space)
    assert [snap.t for snap in snaps] == times
    for snap, expected in zip(snaps, _dense_evolution(rho0, rates, times, space)):
        assert np.max(np.abs(snap.rho - expected)) <= 1e-12
    if times[0] == 0.0:
        assert np.array_equal(snaps[0].rho, rho0)


def test_trace_kept_over_long_evolution():
    model = white_model(n=1, gamma=0.1, nbar=0.05)
    space = osc.FockSpace(1, 8)
    rho0 = osc.density_from_coherent(space, osc.build_cat_family(1, 1, 0, 0.5))
    rho0 = rho0 / np.trace(rho0).real
    snaps = osc.evolve_master(
        rho0, model.hamiltonian, model.rates.damping, model.rates.diffusion,
        [60.0], space,
    )
    assert snaps[0].trace_defect < 1e-12
