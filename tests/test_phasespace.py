import dataclasses
import itertools
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oscnet as osc
from oscnet import errors, phasespace
from oscnet.errors import QuadratureNotConverged, SingularWidth, ValidationError

from conftest import two_branch_mixture, white_model, zero_coefficient_state


@pytest.fixture(scope="module")
def thermal_model():
    return white_model(n=1, gamma=0.25, nbar=0.5)


@pytest.fixture(scope="module")
def pair_model():
    return white_model(n=2, coupling=0.2, gamma=0.05, nbar=0.5)


def _eta_grid():
    vals = [0.3 + 0.2j, 0.7 - 0.4j, -0.5 + 0.5j, 1.0 + 0.0j, 0.05 - 0.9j]
    return np.array(vals)[:, None]


class TestCharFunction:
    def test_trace_normalization(self, thermal_model):
        cat = osc.build_cat_family(1, 1, 0, 1.0)
        for t in (0.0, 0.8, 3.0):
            bundle = thermal_model.propagator.bundle(t)
            assert_allclose(
                osc.char_function(cat, np.array([0.0j]), bundle), 1.0, atol=1e-12
            )

    def test_initial_coherent_state(self, thermal_model):
        beta = 0.5 + 0.2j
        state = osc.single_coherent_state([beta])
        bundle = thermal_model.propagator.bundle(0.0)
        eta = np.array([0.3 - 0.1j])
        expected = np.exp(eta[0] * np.conj(beta) - np.conj(eta[0]) * beta)
        assert_allclose(osc.char_function(state, eta, bundle), expected, rtol=1e-12)

    def test_hermiticity_symmetry(self, pair_model, rng):
        cat = osc.build_cat_family(2, 1, 1, 0.8 + 0.3j)
        bundle = pair_model.propagator.bundle(0.9)
        etas = rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2))
        forward = osc.char_function(cat, etas, bundle)
        backward = osc.char_function(cat, -etas, bundle)
        assert_allclose(backward, forward.conj(), rtol=1e-11, atol=1e-13)

    def test_against_oracle_single_mode(self, thermal_model):
        cat = osc.build_cat_family(1, 1, 0, 1.0)
        space = osc.FockSpace(1, osc.select_cutoff(1.0, 0.5))
        rho0 = osc.density_from_coherent(space, cat)
        model = thermal_model
        times = np.array([0.0, 0.5, 1.4, 3.0])
        states = osc.evolve_master(
            rho0, model.hamiltonian, model.rates.damping, model.rates.diffusion,
            times, space,
        )
        etas = _eta_grid()
        for snap in states:
            bundle = model.propagator.bundle(snap.t)
            ours = osc.char_function(cat, etas, bundle)
            oracle = np.array(
                [osc.oracle_char(snap.rho, eta, space) for eta in etas]
            )
            assert np.max(np.abs(ours - oracle)) < 1e-6


class TestCharFunctionFock:
    def test_normalization(self, thermal_model):
        state = osc.fock_mixture([(1.0, {(1,): 1.0, (3,): 0.5})])
        bundle = thermal_model.propagator.bundle(0.7)
        assert_allclose(
            osc.char_function_fock(state, np.array([0.0j]), bundle), 1.0, atol=1e-12
        )

    def test_single_photon_initial(self, thermal_model):
        state = osc.fock_mixture([(1.0, {(1,): 1.0})])
        bundle = thermal_model.propagator.bundle(0.0)
        etas = _eta_grid()
        expected = 1.0 - np.abs(etas[:, 0]) ** 2
        assert_allclose(
            osc.char_function_fock(state, etas, bundle), expected, atol=1e-13
        )

    def test_two_photon_laguerre(self, thermal_model):
        # chi of |2> at t = 0 is the Laguerre polynomial L2(|eta|^2).
        state = osc.fock_mixture([(1.0, {(2,): 1.0})])
        bundle = thermal_model.propagator.bundle(0.0)
        etas = _eta_grid()
        x = np.abs(etas[:, 0]) ** 2
        expected = 1.0 - 2.0 * x + x**2 / 2.0
        assert_allclose(
            osc.char_function_fock(state, etas, bundle), expected, atol=1e-12
        )

    def test_decayed_single_photon_against_oracle(self):
        # Half-life point of |1> under pure damping at T = 0.
        model = white_model(n=1, gamma=0.5, nbar=0.0)
        state = osc.fock_mixture([(1.0, {(1,): 1.0})])
        space = osc.FockSpace(1, 8)
        rho0 = osc.density_from_fock(space, state)
        t_half = np.log(2.0) / model.rates.damping[0, 0]
        snaps = osc.evolve_master(
            rho0, model.hamiltonian, model.rates.damping, model.rates.diffusion,
            np.array([t_half]), space,
        )
        bundle = model.propagator.bundle(t_half)
        etas = _eta_grid()
        ours = osc.char_function_fock(state, etas, bundle)
        # Levels 0 and 1 of eight: the truncated polynomials are exact, so
        # the oracle must not warn about the cutoff.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            oracle = np.array([osc.oracle_char(snaps[0].rho, e, space) for e in etas])
        assert np.max(np.abs(ours - oracle)) < 1e-8

    def test_ring_representation_matches(self, thermal_model):
        bundle = thermal_model.propagator.bundle(0.8)
        fock = osc.fock_mixture([(1.0, {(1,): 1.0})])
        etas = _eta_grid()
        exact = osc.char_function_fock(fock, etas, bundle)
        for points in (8, 10, 12):
            ring = osc.fock_state_ring([1], points=points)
            approx = osc.char_function(ring, etas, bundle)
            assert np.max(np.abs(approx - exact)) < 1e-8


class TestPFunction:
    def test_zero_temperature_singular(self):
        model = white_model(n=1, gamma=0.2, nbar=0.0)
        state = osc.single_coherent_state([0.4])
        with pytest.raises(SingularWidth):
            osc.p_function(state, np.array([0.1 + 0j]), model.propagator.bundle(1.0))

    def test_single_gaussian(self, thermal_model):
        # One coherent component: real positive Gaussian centered at the centroid.
        beta = 0.6 - 0.2j
        state = osc.single_coherent_state([beta])
        bundle = thermal_model.propagator.bundle(1.1)
        center = bundle.transition[0, 0] * beta
        width = bundle.noise[0, 0].real
        xis = np.array([[0.0 + 0j], [0.3 + 0.2j], [center + 0.1]])
        values = osc.p_function(state, xis, bundle)
        expected = (
            (2 / np.pi)
            / width
            * np.exp(-2 * np.abs(xis[:, 0] - center) ** 2 / width)
        )
        assert_allclose(values.real, expected, rtol=1e-11)
        assert np.max(np.abs(values.imag)) < 1e-12

    def test_substitution_identity(self, pair_model, rng):
        # Evaluating the P-function with the Wigner width reproduces the
        # Wigner function pointwise.
        cat = osc.build_cat_family(2, 1, 0, 0.9)
        bundle = pair_model.propagator.bundle(0.8)
        doctored = dataclasses.replace(bundle, noise=bundle.wigner_width)
        xis = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
        p_sub = osc.p_function(cat, xis, doctored)
        w = osc.wigner(cat, xis, bundle)
        assert np.max(np.abs(p_sub.real - w)) < 1e-12
        assert np.max(np.abs(p_sub.imag)) < 1e-12


    @pytest.mark.parametrize("t", [1e-4, 1e-3, 0.01])
    def test_value_past_the_float_range_refused(self, t):
        # Far from the diagonal the cat's interference terms grow as the noise
        # width shrinks: at these times they pass the float range.
        model = white_model(n=1, gamma=0.05, nbar=0.5)
        cat = osc.build_cat_family(1, 1, 0, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularWidth, match=rf"noise width at t = {t} puts the"):
                osc.p_function(cat, np.array([0.1 + 0.2j]), model.propagator.bundle(t))

    def test_large_finite_value_kept(self):
        model = white_model(n=1, gamma=0.05, nbar=0.5)
        cat = osc.build_cat_family(1, 1, 0, 1.0)
        value = osc.p_function(cat, np.array([0.1 + 0.2j]), model.propagator.bundle(0.1))
        assert value == -4.449290683509489e165


class TestWigner:
    def test_zero_temperature_coherent(self):
        model = white_model(n=1, gamma=0.2, nbar=0.0)
        beta = 0.7 + 0.4j
        state = osc.single_coherent_state([beta])
        bundle = model.propagator.bundle(0.9)
        center = bundle.transition[0, 0] * beta
        xis = np.array([[0.0 + 0j], [center], [0.5 - 0.3j]])
        expected = (2 / np.pi) * np.exp(-2 * np.abs(xis[:, 0] - center) ** 2)
        assert_allclose(osc.wigner(state, xis, bundle), expected, rtol=1e-12)

    def test_normalization_by_quadrature(self, thermal_model):
        # Simpson integration over a wide box (independent of the evaluator).
        cat = osc.build_cat_family(1, 1, 0, 1.0)
        bundle = thermal_model.propagator.bundle(0.3 / 0.25)  # gamma t = 0.3
        grid = np.linspace(-6.0, 6.0, 401)
        step = grid[1] - grid[0]
        xs, ys = np.meshgrid(grid, grid, indexing="ij")
        pts = (xs + 1j * ys).reshape(-1, 1)
        values = osc.wigner(cat, pts, bundle).reshape(xs.shape)
        from scipy.integrate import simpson

        total = simpson(simpson(values, dx=step, axis=1), dx=step)
        assert abs(total - 1.0) < 1e-6

    def test_real_everywhere_sampled(self, pair_model, rng):
        cat = osc.build_cat_family(2, 1, 1, 1.1, sign=-1)
        bundle = pair_model.propagator.bundle(1.7)
        xis = rng.normal(size=(20, 2)) + 1j * rng.normal(size=(20, 2))
        doctored = dataclasses.replace(bundle, noise=bundle.wigner_width)
        complex_sum = osc.p_function(cat, xis, doctored)
        assert np.max(np.abs(complex_sum.imag)) < 1e-10

    def test_amplitude_bound(self, pair_model, rng):
        cat = osc.build_cat_family(2, 1, 0, 0.9)
        coeff_sum = sum(
            abs(c.coefficient) for c in cat.branches[0].components
        )
        bound = (2 / np.pi) ** 2 * coeff_sum**2
        bundle = pair_model.propagator.bundle(0.6)
        xis = 1.5 * (rng.normal(size=(40, 2)) + 1j * rng.normal(size=(40, 2)))
        assert np.max(np.abs(osc.wigner(cat, xis, bundle))) <= bound + 1e-12

    def test_elements_sum_to_full_value(self, pair_model):
        cat = osc.build_cat_family(2, 1, 1, 0.8 + 0.1j)
        # A 16-component ring with one zero coefficient.
        ring = osc.fock_state_ring([1, 1], points=4).branches[0].components
        coeffs = [c.coefficient for c in ring]
        coeffs[5] = 0.0
        holed = osc.coherent_mixture(
            [osc.coherent_superposition(coeffs, [c.amplitudes for c in ring])]
        )
        # Distinct reservoirs give a complex rotation; identical ones a real one.
        distinct = osc.build_model(
            osc.NetworkSpec(omega=[1.0, 1.1], coupling=[[0.0, 0.2], [0.2, 0.0]]),
            osc.ReservoirSpec(
                temperatures=[0.3, 1.2],
                profiles=(osc.WhiteNoise(0.03), osc.WhiteNoise(0.08)),
            ),
        )
        xi = np.array([0.4 - 0.2j, -0.1 + 0.5j])
        for model in (pair_model, distinct):
            bundle = model.propagator.bundle(1.2)
            xi_rot = bundle.rotation.T @ xi
            for state in (cat, holed):
                elements = osc.wigner_elements(state, xi_rot, bundle)
                assert_allclose(
                    elements.sum().real, osc.wigner(state, xi, bundle), rtol=1e-10
                )
            assert elements.shape == (16, 16)
            assert not elements[5].any() and not elements[:, 5].any()
        assert np.abs(bundle.rotation.imag).max() > 0.1

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_elements_finite_for_a_large_cat(self, t):
        # |alpha| = 20: the pair weight underflows and the Gaussian factor
        # overflows, so the exponent must be formed whole in log space.
        model = white_model(n=1, gamma=0.05, nbar=0.5)
        cat = osc.build_cat_family(1, 1, 0, 20.0)
        bundle = model.propagator.bundle(t)
        center = bundle.transition[0, 0] * 20.0
        xi = np.array([[center], [-center], [0.3 + 0.2j], [0.0j]])
        elements = osc.wigner_elements(cat, xi @ bundle.rotation, bundle)
        assert elements.shape == (4, 2, 2)
        assert np.isfinite(elements).all()
        assert_allclose(
            elements.sum(axis=(-2, -1)).real, osc.wigner(cat, xi, bundle), rtol=1e-12
        )


class TestWignerFromChar:
    def test_vacuum_peak(self, thermal_model):
        vac = osc.fock_mixture([(1.0, {(0,): 1.0})])
        bundle = thermal_model.propagator.bundle(0.0)
        value = osc.wigner_from_char(
            lambda e: osc.char_function_fock(vac, e, bundle), np.array([0.0j]), 1
        )
        assert_allclose(value, 2 / np.pi, atol=1e-9)

    def test_single_photon_negative_peak(self, thermal_model):
        fock = osc.fock_mixture([(1.0, {(1,): 1.0})])
        bundle = thermal_model.propagator.bundle(0.0)
        value = osc.wigner_from_char(
            lambda e: osc.char_function_fock(fock, e, bundle), np.array([0.0j]), 1
        )
        assert_allclose(value, -2 / np.pi, atol=1e-6)

    def test_coherent_cross_path(self, thermal_model):
        state = osc.single_coherent_state([0.4 - 0.3j])
        bundle = thermal_model.propagator.bundle(0.8)
        xi = np.array([0.2 + 0.1j])
        direct = osc.wigner(state, xi, bundle)
        transformed = osc.wigner_from_char(
            lambda e: osc.char_function(state, e, bundle), xi, 1
        )
        assert abs(direct - transformed) < 1e-6

    def test_two_mode_guarded(self, pair_model):
        cat = osc.build_cat_family(2, 1, 0, 0.6)
        bundle = pair_model.propagator.bundle(0.5)
        xi = np.array([0.1 + 0j, -0.2 + 0.1j])
        value = osc.wigner_from_char(
            lambda e: osc.char_function(cat, e, bundle), xi, 2, nodes=24
        )
        assert abs(value - osc.wigner(cat, xi, bundle)) < 1e-5

    def test_mode_limit(self):
        with pytest.raises(ValidationError):
            osc.wigner_from_char(lambda e: np.ones(e.shape[0]), np.zeros(3), 3)

    def test_default_two_mode_grid_refused_before_allocating(self):
        # 128^4 doubled-pass nodes would take 28 GB; the check comes first.
        calls = []
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="quadrature grid of 128 nodes"):
                osc.wigner_from_char(lambda e: calls.append(e), np.zeros(2), 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert not calls
        assert peak < 1 << 20

    def test_node_limit_from_byte_model(self):
        def grid_bytes(nodes):
            return (2 * nodes) ** 4 * (48 * 2 + 8)

        assert grid_bytes(28) <= errors._BYTE_LIMIT < grid_bytes(29)
        with pytest.raises(ValidationError):
            osc.wigner_from_char(lambda e: np.ones(e.shape[0]), np.zeros(2), 2, nodes=29)

    def test_quadrature_peak_within_byte_model(self):
        # One pass at 16 nodes per axis on two modes: 16^4 points.
        tracemalloc.start()
        try:
            phasespace._wigner_quadrature(lambda e: np.ones(e.shape[0]), np.zeros(2), 2, 16)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16**4 * (48 * 2 + 8) + phasespace._CHUNK_BYTES

    def test_not_converged(self, thermal_model):
        # A displaced state needs more than a handful of nodes.
        state = osc.single_coherent_state([2.5])
        bundle = thermal_model.propagator.bundle(0.1)
        with pytest.raises(QuadratureNotConverged):
            osc.wigner_from_char(
                lambda e: osc.char_function(state, e, bundle),
                np.array([0.0j]),
                1,
                nodes=3,
            )


class TestMoments:
    def test_against_oracle_two_modes(self, pair_model):
        cat = osc.build_cat_family(2, 1, 0, 1.0)
        space = osc.FockSpace(2, 12)
        rho0 = osc.density_from_coherent(space, cat)
        model = pair_model
        times = np.array([0.0, 0.9, 2.2])
        snaps = osc.evolve_master(
            rho0, model.hamiltonian, model.rates.damping, model.rates.diffusion,
            times, space,
        )
        for snap in snaps:
            bundle = model.propagator.bundle(snap.t)
            first, second = osc.moments(cat, bundle)
            assert np.max(np.abs(first - osc.expect_lowering(snap.rho, space))) < 1e-6
            assert (
                np.max(np.abs(second - osc.expect_number_matrix(snap.rho, space)))
                < 1e-5
            )


def _ring_model():
    # A two-mode network and reservoirs like the ring_wigner benchmark's.
    return osc.build_model(
        osc.NetworkSpec(omega=[1.0, 1.03], coupling=[[0.0, 0.1], [0.1, 0.0]]),
        osc.ReservoirSpec(temperatures=[0.5, 0.5], profiles=(osc.WhiteNoise(0.05),) * 2),
    )


def _ring16():
    return osc.fock_state_ring([1, 1], radius=0.6, points=4)


def _grid_route(monkeypatch, state, bundle, ranges, points):
    """``wigner_grid``'s output and the number of `_pair_sum` calls it made."""
    calls = []
    kernel = phasespace._pair_sum

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(phasespace, "_pair_sum", counted)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            coords, values = osc.wigner_grid(state, bundle, ranges, points)
    return coords, values, len(calls)


def _assert_matches_wigner(state, bundle, coords, values, rel=1e-12):
    xi = coords[:, 0::2] + 1j * coords[:, 1::2]
    direct = osc.wigner(state, xi, bundle)
    assert values.shape == direct.shape and np.all(np.isfinite(values))
    assert np.max(np.abs(values - direct)) <= rel * np.max(np.abs(direct))


GRID_CASES = {
    # name: (model, state, ranges, points, time)
    "ring_t0": (_ring_model, _ring16, [(-2.5, 2.5, -2.5, 2.5)] * 2, 9, 0.0),
    "ring_mid": (_ring_model, _ring16, [(-2.5, 2.5, -2.5, 2.5)] * 2, 9, 20.5),
    "ring_end": (_ring_model, _ring16, [(-2.5, 2.5, -2.5, 2.5)] * 2, 9, 40.0),
    "one_mode": (
        lambda: white_model(n=1, gamma=0.25, nbar=0.5),
        lambda: osc.build_cat_family(1, 1, 0, 1.2 - 0.4j),
        [(-3.0, 3.0, -2.0, 2.5)],
        31,
        0.7,
    ),
    "three_modes": (
        lambda: white_model(n=3, coupling=0.2, gamma=0.05, nbar=0.5),
        lambda: osc.build_cat_family(3, 1, 1, 0.8 + 0.3j, beta=0.2j),
        [(-2.0, 2.0, -1.5, 1.5), (-1.0, 2.5, -2.0, 2.0), (-1.5, 1.5, -1.0, 1.0)],
        4,
        1.1,
    ),
    "one_point": (_ring_model, _ring16, [(0.3, 2.0, -1.0, 1.0)] * 2, 1, 3.0),
    "two_points": (_ring_model, _ring16, [(-2.0, 2.0, -1.0, 1.0)] * 2, 2, 3.0),
    "unequal_descending": (
        _ring_model,
        _ring16,
        [(1.5, -2.0, -1.0, 2.5), (-0.5, 3.0, 2.0, -2.0)],
        6,
        3.0,
    ),
    "distinct_reservoirs": (
        # Distinct reservoirs make the Wigner width complex.
        lambda: osc.build_model(
            osc.NetworkSpec(omega=[1.0, 1.1], coupling=[[0.0, 0.2], [0.2, 0.0]]),
            osc.ReservoirSpec(
                temperatures=[0.3, 1.2],
                profiles=(osc.WhiteNoise(0.03), osc.WhiteNoise(0.08)),
            ),
        ),
        lambda: osc.build_cat_family(2, 1, 1, 0.8 + 0.1j),
        [(-2.0, 2.0, -1.5, 2.5)] * 2,
        7,
        1.2,
    ),
    "zero_coefficient": (
        lambda: white_model(n=2, coupling=0.2, gamma=0.05, nbar=0.5),
        zero_coefficient_state,
        [(-2.0, 2.0, -2.0, 2.0)] * 2,
        7,
        1.3,
    ),
    "two_branch": (
        lambda: white_model(n=2, coupling=0.2, gamma=0.05, nbar=0.5),
        two_branch_mixture,
        [(-2.0, 2.0, -2.0, 2.0)] * 2,
        7,
        1.3,
    ),
}


class TestWignerGrid:
    def test_oversized_grid_refused_before_allocation(self, pair_model):
        # 10^4 points per axis on two modes: 8 * 5 * 10^16 bytes of coords and values.
        bundle = pair_model.propagator.bundle(1.0)
        cat = osc.build_cat_family(2, 1, 1, 1.0)
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"a grid of 10000\^4 points would take"):
                osc.wigner_grid(cat, bundle, [[-1.0, 1.0, -1.0, 1.0]] * 2, 10**4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_shape_and_values(self, thermal_model):
        state = osc.single_coherent_state([0.3])
        bundle = thermal_model.propagator.bundle(0.4)
        coords, values = osc.wigner_grid(
            state, bundle, [(-1.0, 1.0, -1.0, 1.0)], points=5
        )
        assert coords.shape == (25, 2)
        assert values.shape == (25,)
        xi = coords[:, 0] + 1j * coords[:, 1]
        direct = osc.wigner(state, xi[:, None], bundle)
        assert_allclose(values, direct, rtol=1e-12)

    @pytest.mark.parametrize("ragged", [False, True])
    @pytest.mark.parametrize("name", sorted(GRID_CASES))
    def test_matches_wigner(self, name, ragged, monkeypatch):
        make_model, make_state, ranges, points, t = GRID_CASES[name]
        state = make_state()
        if ragged:
            # Three-row factor blocks for the 136 pairs of the ring, so block
            # edges fall inside the (left, right) table and leave short blocks.
            monkeypatch.setattr(phasespace, "_CHUNK_BYTES", 3 * 64 * 136)
        bundle = make_model().propagator.bundle(t)
        coords, values, fallbacks = _grid_route(monkeypatch, state, bundle, ranges, points)
        assert fallbacks == 0
        axes = [np.linspace(lo, hi, points) for r in ranges for lo, hi in (r[:2], r[2:])]
        expected = np.array(list(itertools.product(*axes)))
        assert coords.shape == (points ** (2 * len(ranges)), 2 * len(ranges))
        assert np.array_equal(coords.view(np.int64), expected.view(np.int64))
        _assert_matches_wigner(state, bundle, coords, values)

    def test_large_cat_trips_the_guard(self, pair_model, monkeypatch):
        # |alpha| = 25 on +-33: the row shifts of the factors put exponents up
        # to e^1250 on some points, past the guard, so the grid goes through
        # the log-space kernel.
        cat = osc.build_cat_family(2, 1, 1, 25.0)
        bundle = pair_model.propagator.bundle(0.0)
        ranges = [(-33.0, 33.0, -33.0, 33.0)] * 2
        coords, values, fallbacks = _grid_route(monkeypatch, cat, bundle, ranges, 9)
        assert fallbacks == 1
        assert np.all(np.isfinite(values))
        _assert_matches_wigner(cat, bundle, coords, values, rel=0.0)

    def test_guard_is_needed(self, pair_model, monkeypatch):
        # |alpha| = 25 on +-33: without the guard, the row shifts of the
        # factors put exponents up to e^1250 on some points, which overflow.
        monkeypatch.setattr(phasespace, "_FACTOR_LOG_MAX", np.inf)
        cat = osc.build_cat_family(2, 1, 1, 25.0)
        bundle = pair_model.propagator.bundle(0.0)
        with pytest.warns(RuntimeWarning):
            _, values = osc.wigner_grid(cat, bundle, [(-33.0, 33.0, -33.0, 33.0)] * 2, 9)
        assert not np.all(np.isfinite(values))

    @pytest.mark.parametrize("t", [0.0, 0.5, 2.0])
    def test_mid_size_cat_is_factored(self, pair_model, monkeypatch, t):
        cat = osc.build_cat_family(2, 1, 1, 5.0)
        bundle = pair_model.propagator.bundle(t)
        ranges = [(-8.0, 8.0, -8.0, 8.0)] * 2
        coords, values, fallbacks = _grid_route(monkeypatch, cat, bundle, ranges, 9)
        assert fallbacks == 0
        _assert_matches_wigner(cat, bundle, coords, values)

    def test_ring64_memory_bounded(self, pair_model, monkeypatch):
        # The README's 64-component ring on a 21^4 grid: unchunked, the left
        # factor matrix alone would take 441 x 2080 x 16 bytes = 14.7 MB.
        ring = osc.fock_state_ring([1, 1], radius=0.6, points=8)
        bundle = pair_model.propagator.bundle(2.0)
        ranges = [(-2.5, 2.5, -2.5, 2.5)] * 2
        tracemalloc.start()
        try:
            coords, values, fallbacks = _grid_route(monkeypatch, ring, bundle, ranges, 21)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert fallbacks == 0
        assert peak <= coords.nbytes + values.nbytes + 2 * phasespace._CHUNK_BYTES
        some = slice(None, None, 997)
        xi = coords[some, 0::2] + 1j * coords[some, 1::2]
        direct = osc.wigner(ring, xi, bundle)
        assert np.max(np.abs(values[some] - direct)) <= 1e-12 * np.max(np.abs(values))

    @pytest.mark.parametrize("bound", [1e308, -1e308, np.nextafter(1e150, np.inf)])
    def test_range_past_the_bound_refused(self, thermal_model, bound):
        state = osc.single_coherent_state([0.3])
        bundle = thermal_model.propagator.bundle(0.4)
        with pytest.raises(ValidationError, match="range entries"):
            osc.wigner_grid(state, bundle, [(-2.0, 2.0, -2.0, bound)], points=5)

    @pytest.mark.parametrize("log_space", [False, True])
    def test_range_at_the_bound_stays_finite(self, pair_model, monkeypatch, log_space):
        # Every entry at +-1e150: |xi|^2 reaches 4e300 and no exponent
        # overflows (pytest turns a RuntimeWarning into an error), on the
        # factored route and on the log-space kernel alike.
        if log_space:
            monkeypatch.setattr(phasespace, "_FACTOR_LOG_MAX", -np.inf)
        cat = osc.build_cat_family(2, 1, 1, 3.0)
        bundle = pair_model.propagator.bundle(0.5)
        bound = phasespace._RANGE_MAX
        _, values = osc.wigner_grid(cat, bundle, [(-bound, bound, -bound, bound)] * 2, 3)
        # Only the center point, all four coordinates 0, is not 1e150 away.
        assert np.all(np.isfinite(values)) and np.flatnonzero(values).tolist() == [40]

    def test_grid_coords_are_meshgrid_in_one_array(self):
        # A two-mode 21^4 grid: meshgrid plus stack peaks at twice the coords.
        axes = [np.linspace(lo, -lo, 21) for lo in (-2.5, -2.0, -1.5, -3.0)]
        tracemalloc.start()
        try:
            coords = phasespace._grid_coords(axes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        mesh = np.meshgrid(*axes, indexing="ij")
        expected = np.stack([m.reshape(-1) for m in mesh], axis=-1)
        assert coords.shape == expected.shape
        assert coords.tobytes() == expected.tobytes()
        assert peak <= 1.2 * coords.nbytes


class TestMixedStates:
    def test_two_branch_mixture_against_oracle(self):
        # Statistical mixture of a cat branch and a displaced coherent branch:
        # exercises branch weights and cross-branch purity terms.
        model = white_model(n=1, gamma=0.25, nbar=0.4)
        cat_branch = osc.coherent_superposition(
            [1.0, 1.0], [[0.9], [-0.9]], probability=0.6
        )
        coh_branch = osc.coherent_superposition([1.0], [[0.3 - 0.4j]], probability=0.4)
        state = osc.coherent_mixture([cat_branch, coh_branch])
        space = osc.FockSpace(1, 16)
        rho0 = osc.density_from_coherent(space, state)
        times = np.array([0.0, 0.7, 2.0])
        snaps = osc.evolve_master(
            rho0, model.hamiltonian, model.rates.damping, model.rates.diffusion,
            times, space,
        )
        etas = _eta_grid()
        for snap in snaps:
            bundle = model.propagator.bundle(snap.t)
            ours = osc.char_function(state, etas, bundle)
            oracle = np.array([osc.oracle_char(snap.rho, e, space) for e in etas])
            assert np.max(np.abs(ours - oracle)) < 1e-6
            first, _ = osc.moments(state, bundle)
            assert np.max(np.abs(first - osc.expect_lowering(snap.rho, space))) < 1e-7
            entropy = osc.linear_entropy(state, bundle)
            assert abs(entropy - (1.0 - osc.oracle_purity(snap.rho))) < 1e-6

    def test_mixture_initially_impure(self):
        model = white_model(n=1, gamma=0.25, nbar=0.4)
        state = osc.coherent_mixture(
            [
                osc.coherent_superposition([1.0], [[0.9]], probability=0.5),
                osc.coherent_superposition([1.0], [[-0.9]], probability=0.5),
            ]
        )
        entropy = osc.linear_entropy(state, model.propagator.bundle(0.0))
        # two nearly orthogonal equal-weight components: S close to 1/2
        overlap = abs(osc.coherent_overlap(np.array([0.9]), np.array([-0.9]))) ** 2
        expected = 1.0 - 0.5 * (1.0 + overlap)
        assert abs(entropy - expected) < 1e-12


class TestIndefiniteWidth:
    """Every Gaussian evaluator refuses a width that is not positive definite,
    whatever the sign of its determinant."""

    @staticmethod
    def _doctored_bundle():
        # Two negative eigenvalues leave both determinants positive.
        model = white_model(n=3, coupling=0.1, gamma=0.05, nbar=0.5)
        return dataclasses.replace(
            model.propagator.bundle(1.0),
            wigner_width=np.diag([-0.5, -0.5, 3.0]) + 0j,
            noise=np.diag([-1.5, -1.5, 2.0]) + 0j,
        )

    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda state, bundle: osc.wigner(state, np.full(3, 0.2 + 0.1j), bundle),
            lambda state, bundle: osc.p_function(state, np.full(3, 0.2 + 0.1j), bundle),
            lambda state, bundle: osc.wigner_grid(state, bundle, [(-1, 1, -1, 1)] * 3, 3),
            lambda state, bundle: osc.wigner_elements(state, np.full(3, 0.2 + 0.1j), bundle),
        ],
        ids=["wigner", "p_function", "wigner_grid", "wigner_elements"],
    )
    def test_doctored_width_with_positive_determinant_refused(self, evaluate):
        bundle = self._doctored_bundle()
        state = osc.build_cat_family(3, 1, 0, 0.8)
        with pytest.raises(SingularWidth, match=r"width at t = 1\.0 is not positive definite"):
            evaluate(state, bundle)

    @staticmethod
    def _common_bath_model(seed):
        # Two oscillators on one reservoir with two Lorentzian profiles: the
        # non-secular diffusion can make the noise width indefinite at short
        # times, where the P-function is then undefined.
        rng = np.random.default_rng(seed)
        omega = rng.uniform(0.8, 1.2, size=2)
        coupling = rng.uniform(0.0, 0.3)
        gamma = rng.uniform(0.02, 0.1, size=2)
        center = rng.uniform(0.8, 1.2, size=2)
        width = rng.uniform(0.2, 0.6, size=2)
        temperature = rng.uniform(0.05, 0.5)
        network = osc.NetworkSpec(omega=list(omega), coupling=[[0.0, coupling], [coupling, 0.0]])
        profiles = tuple(osc.Lorentzian(*args) for args in zip(gamma, center, width))
        reservoirs = osc.ReservoirSpec([temperature] * 2, profiles, common=True)
        return osc.build_model(network, reservoirs)

    @pytest.mark.parametrize("seed, indefinite", [(0, False), (3, True), (4, True)])
    def test_p_function_refused_exactly_when_the_noise_width_is_indefinite(self, seed, indefinite):
        bundle = self._common_bath_model(seed).propagator.bundle(0.01)
        assert (np.linalg.eigvalsh(bundle.noise)[0] < 0) == indefinite
        cat = osc.build_cat_family(2, 1, 1, 1.0)
        xi = np.array([0.1 + 0.2j, -0.3j])
        if indefinite:
            with pytest.raises(SingularWidth, match=r"noise width at t = 0\.01 is not positive"):
                osc.p_function(cat, xi, bundle)
        else:
            # The width is positive definite, but this P-value, about
            # e^766580, lies past the float range and is refused as such.
            with pytest.raises(SingularWidth, match=r"noise width at t = 0\.01 puts the Gaussian"):
                osc.p_function(cat, xi, bundle)
        assert np.isfinite(osc.wigner(cat, xi, bundle))
