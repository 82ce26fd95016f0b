"""The normal-mode frame route against the dense route it stands in for.

With distinct reservoirs of one spectral density the damping commutes with
the coupling matrix, so ``build_model`` reads the generator off the normal
modes and its propagator builds every width in their frame.  The reference
here is the dense route on the same rates: the generator eigendecomposed by
``dissipative_matrix`` without modes, its stationary width, and the
``Propagator`` of that generator, which has no frame.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import oscnet as osc

from conftest import dense_propagator, white_model

_TIMES = (0.0, 0.7, 6.0, 25.0)
_RTOL = 1e-12


def _profile(kind, rng):
    gamma = rng.uniform(0.005, 0.03)
    if kind == "white":
        return osc.WhiteNoise(gamma)
    if kind == "lorentzian":
        return osc.Lorentzian(gamma, rng.uniform(0.8, 1.2), rng.uniform(0.3, 0.7))
    return osc.GaussianBand(gamma, rng.uniform(0.8, 1.2), rng.uniform(0.2, 0.5))


def _network(topology, n, rng):
    links = {
        "ring": [(m, (m + 1) % n) for m in range(n)],
        "chain": [(m, m + 1) for m in range(n - 1)],
        "star": [(0, m) for m in range(1, n)],
        "random": list(itertools.combinations(range(n), 2)),
    }[topology]
    # Equal frequencies and couplings give the ring and the star degenerate
    # normal modes; the chain and the random graph get drawn ones.
    regular = topology in ("ring", "star")
    coupling = np.zeros((n, n))
    for m, k in links:
        coupling[m, k] = coupling[k, m] = 0.04 if regular else rng.uniform(0.0, 0.4 / n)
    omega = np.ones(n) if regular else rng.uniform(0.9, 1.1, size=n)
    return osc.NetworkSpec(omega=omega, coupling=coupling)


def _model(profile, topology, n, mixed, seed=11):
    rng = np.random.default_rng([seed, n])
    net = _network(topology, n, rng)
    temps = rng.uniform(0.3, 1.2, size=n) if mixed else np.full(n, 0.6)
    res = osc.ReservoirSpec(temperatures=temps, profiles=(_profile(profile, rng),) * n)
    return osc.build_model(net, res)


def _rel(actual, expected, scale=None):
    scale = float(np.max(np.abs(expected))) if scale is None else scale
    return float(np.max(np.abs(np.asarray(actual) - expected))) / scale


CASES = [
    (profile, topology, n, mixed)
    for profile in ("white", "lorentzian", "gaussian_band")
    for topology in ("ring", "chain", "star", "random")
    for n in (2, 5, 40)
    for mixed in (False, True)
] + [("lorentzian", "random", 200, False)]


@pytest.mark.parametrize("profile, topology, n, mixed", CASES)
def test_frame_route_matches_dense_route(profile, topology, n, mixed):
    # Mixed temperatures leave C P C^T dense: the generator is still read
    # off the modes, but the bundles take the dense route.
    model = _model(profile, topology, n, mixed)
    dis = model.dissipative
    assert dis.frame is not None
    # One real read-only buffer holds the frame and both eigenvector fields.
    assert dis.eigenvectors_inv is dis.frame
    assert np.shares_memory(dis.eigenvectors, dis.frame)
    for array in (dis.frame, dis.eigenvectors):
        assert array.dtype == np.float64 and not array.flags.writeable
    assert (model.propagator._core is None) == mixed
    dense = dense_propagator(model)
    assert dense.dissipative.frame is None
    state = osc.build_cat_family(n, 1, 1, 1.0)
    for t in _TIMES:
        fast, slow = model.propagator.bundle(t), dense.bundle(t)
        assert (fast.frame is None) == mixed and slow.frame is None
        width = slow.wigner_width
        assert _rel(fast.transition, slow.transition) <= _RTOL
        # The noise is zero at t = 0, so it is measured on the width's scale.
        assert _rel(fast.noise, slow.noise, np.max(np.abs(width))) <= _RTOL
        assert _rel(fast.wigner_width, width) <= _RTOL
        assert _rel(fast.diffusion_coeffs, slow.diffusion_coeffs) <= _RTOL
        # The entropy is 0 at t = 0, so it is compared through the purity.
        purity = 1.0 - osc.linear_entropy(state, slow)
        assert abs(1.0 - osc.linear_entropy(state, fast) - purity) <= _RTOL * purity
        decay = osc.decay_function(state, 0, 1, slow)
        assert abs(osc.decay_function(state, 0, 1, fast) - decay) <= _RTOL * decay
    grid = np.linspace(0.0, 400.0, 41)
    tau = osc.interference_decay_time(state, 0, 1, dense, grid)
    assert math.isfinite(tau)
    fast = osc.interference_decay_time(state, 0, 1, model.propagator, grid)
    assert abs(fast - tau) <= _RTOL * tau


def _route(net, res, regime="auto"):
    model = osc.build_model(net, res, regime)
    return "dense" if model.dissipative.frame is None else "frame"


class TestRouteChoice:
    def test_identical_baths_at_200_modes(self):
        rng = np.random.default_rng(5)
        n = 200
        net = _network("random", n, rng)
        profile = osc.Lorentzian(0.002, 1.0, 0.5)
        res = osc.ReservoirSpec(temperatures=np.full(n, 0.9), profiles=(profile,) * n)
        assert _route(net, res) == "frame"

    def test_identical_white_noise_in_the_weak_regime(self):
        model = white_model(n=4, coupling=0.01, gamma=0.05, nbar=0.5, regime="weak")
        assert model.regime == "weak"
        assert _route(model.network, model.reservoirs, "weak") == "frame"

    def test_dissipation_free_network(self):
        net = osc.degenerate_symmetric_network(3, 1.0, 0.2)
        res = osc.ReservoirSpec(temperatures=[0.0] * 3, profiles=(osc.WhiteNoise(0.0),) * 3)
        assert _route(net, res) == "frame"

    @pytest.mark.parametrize(
        "profiles, common",
        [
            ((osc.WhiteNoise(0.02), osc.WhiteNoise(0.05), osc.WhiteNoise(0.02)), False),
            (tuple(osc.Lorentzian(0.02, c, 0.5) for c in (0.9, 1.0, 1.1)), False),
            ((osc.WhiteNoise(0.02),) * 3, True),
        ],
        ids=["unequal_gamma", "unequal_lorentzian_centres", "common_bath"],
    )
    def test_non_commuting_damping_takes_the_dense_route(self, profiles, common):
        net = _network("chain", 3, np.random.default_rng(3))
        res = osc.ReservoirSpec(temperatures=[0.5] * 3, profiles=profiles, common=common)
        assert _route(net, res) == "dense"

    def test_graded_network_falls_back_to_the_dense_route(self):
        # Frequencies 200 orders apart: the normal modes rebuild h only to
        # max|h| * eps, missing the coupling the stationary residual needs.
        net = osc.NetworkSpec(omega=[1e200, 1.0], coupling=[[0.0, 0.1], [0.1, 0.0]])
        res = osc.ReservoirSpec(temperatures=[0.4] * 2, profiles=(osc.WhiteNoise(0.05),) * 2)
        assert _route(net, res) == "dense"


class TestFrameBundle:
    def test_width_is_exactly_the_vacuum_at_zero(self):
        model = _model("lorentzian", "chain", 5, mixed=False)
        bundle = model.propagator.bundle(0.0)
        assert np.array_equal(bundle.wigner_width, np.eye(5))
        assert np.array_equal(bundle.diffusion_coeffs, np.ones(5))

    def test_equal_temperatures_take_no_eigensolve(self, monkeypatch):
        model = _model("gaussian_band", "ring", 5, mixed=False)
        calls = []

        def counted(name, original):
            def call(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return call

        for name in ("eigvalsh", "eigh", "eig", "solve", "cholesky"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        state = osc.build_cat_family(5, 1, 1, 1.0)
        bundle = model.propagator.bundle(3.0)
        bundle.diffusion_coeffs
        osc.linear_entropy(state, bundle)
        osc.decay_function(state, 0, 1, bundle)
        assert calls == []

    def test_replaced_bundle_drops_the_frame(self):
        model = _model("white", "star", 5, mixed=False)
        bundle = model.propagator.bundle(3.0)
        doctored = dataclasses.replace(bundle, wigner_width=np.eye(5))
        assert bundle.frame is not None and doctored.frame is None
        assert np.array_equal(doctored.diffusion_coeffs, np.ones(5))

    def test_metrics_leave_the_dense_fields_unbuilt(self, monkeypatch):
        model = _model("lorentzian", "random", 5, mixed=False)
        built = []
        lazy = osc.PropagatorBundle.__getattr__

        def counted(bundle, name):
            built.append(name)
            return lazy(bundle, name)

        monkeypatch.setattr(osc.PropagatorBundle, "__getattr__", counted)
        state = osc.build_cat_family(5, 1, 1, 1.0)
        bundle = model.propagator.bundle(3.0)
        assert bundle.n == 5
        bundle.diffusion_coeffs
        osc.linear_entropy(state, bundle)
        tau = osc.interference_decay_time(
            state, 0, 1, model.propagator, np.linspace(0.0, 400.0, 41)
        )
        assert math.isfinite(tau)
        assert built == []
        assert not set(vars(bundle)) & {"transition", "noise", "wigner_width"}
        # The counter sees a first read, and the value is cached after it.
        bundle.wigner_width
        bundle.wigner_width
        assert built == ["wigner_width", "noise"]
        assert np.array_equal(bundle.wigner_width, bundle.noise + np.eye(5))

    def test_negative_time_is_refused(self):
        model = _model("white", "ring", 5, mixed=False)
        with pytest.raises(osc.ValidationError):
            model.propagator.bundle(-1.0)


@pytest.mark.parametrize("dense", [False, True], ids=["frame", "dense"])
@pytest.mark.parametrize("shape", [(5,), (5, 3)], ids=["vector", "block"])
def test_transition_applied_to_vectors_matches_the_matrix(dense, shape):
    model = _model("gaussian_band", "random", 5, mixed=False)
    dis = dense_propagator(model).dissipative if dense else model.dissipative
    assert (dis.frame is None) == dense
    rng = np.random.default_rng(4)
    vectors = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    for t in _TIMES:
        expected = osc.transition_matrix(dis, t) @ vectors
        assert _rel(osc.transition_matrix(dis, t, vectors), expected) <= 1e-14


def test_centers_match_the_transition_on_both_routes():
    model = _model("lorentzian", "star", 5, mixed=False)
    betas = np.random.default_rng(6).normal(size=(5, 4)) + 0j
    for propagator in (model.propagator, dense_propagator(model)):
        bundle = propagator.bundle(6.0)
        assert _rel(bundle.centers(betas), bundle.transition @ betas) <= 1e-14
    # A bundle without a frame multiplies its own transition, bit for bit.
    plain = dataclasses.replace(model.propagator.bundle(6.0))
    assert plain.frame is None
    assert np.array_equal(plain.centers(betas), plain.transition @ betas)


def test_diagonal_width_sorts_like_its_matrix():
    scale = 4.0
    # Entries 2 and 3 sit within 1e-12 * scale: their quantized keys tie,
    # so both forms keep them in their natural order, the larger first.
    width = np.array([scale, 1.5, 2.0 + 0.3e-12 * scale, 2.0, 1.0, 1.5])
    coeffs = osc.rotate_frame(width, vectors=False)
    assert coeffs[0] is None
    expected = osc.rotate_frame(np.diag(width), vectors=False)[1]
    assert coeffs[1].tobytes() == expected.tobytes()
    assert coeffs[1][3] == 2.0 + 0.3e-12 * scale and coeffs[1][4] == 2.0
    rotation, full = osc.rotate_frame(width)
    assert np.array_equal(rotation, osc.rotate_frame(np.diag(width))[0])
    assert full.tobytes() == expected.tobytes()
