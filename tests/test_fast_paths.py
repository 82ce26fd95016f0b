"""Equivalence and guard tests for the O(N^3) and eigensolve-free paths.

Each fast path is checked against the formula it replaced, written out here
as the reference: the O(N^4) rate einsum, the rotated-frame decay exponent,
the grid-plus-bisection interference time, and the dense vec solve behind the
stationary fallback.  The guard tests pin down the work the fast paths skip.
"""

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oscnet as osc
from oscnet import metrics, propagation, reservoirs, stationary
from oscnet.errors import ValidationError

from conftest import white_model


def _random_network(rng, n, coupling=0.05):
    upper = np.triu(rng.uniform(0.0, coupling, size=(n, n)), 1)
    return osc.NetworkSpec(omega=rng.uniform(0.9, 1.1, size=n), coupling=upper + upper.T)


def _lorentzian_reservoirs(rng, n, common=False, overlap=None, temperature=None):
    profiles = tuple(
        osc.Lorentzian(gamma, center, width)
        for gamma, center, width in zip(
            rng.uniform(0.01, 0.05, size=n),
            rng.uniform(0.8, 1.2, size=n),
            rng.uniform(0.3, 0.7, size=n),
        )
    )
    if temperature is None:
        temps = rng.uniform(0.3, 1.2, size=n)
    else:
        temps = np.full(n, temperature)
    return osc.ReservoirSpec(
        temperatures=temps, profiles=profiles, common=common, overlap=overlap
    )


def _lorentzian_model(rng, n, temperature=None):
    net = _random_network(rng, n)
    return osc.build_model(net, _lorentzian_reservoirs(rng, n, temperature=temperature))


def _einsum_rates(cross, cross_diffusion, modes):
    # The O(N^4) three-operand contraction the two-step assembly replaced.
    n = cross.shape[0]
    c = modes.transform
    return (
        n * np.einsum("mkl,lk,ln->mn", cross, c, c),
        n * np.einsum("mkl,lk,ln->mn", cross_diffusion, c, c),
    )


def _assert_rel(actual, expected, rtol):
    scale = float(np.max(np.abs(expected)))
    assert scale > 0
    assert float(np.max(np.abs(actual - expected))) <= rtol * scale


class TestRateAssembly:
    def test_distinct_matches_einsum(self, rng):
        n = 12
        net = _random_network(rng, n)
        res = _lorentzian_reservoirs(rng, n)
        modes = osc.normal_modes(osc.build_hamiltonian(net))
        cross = reservoirs._cross_damping(res, modes.frequencies, np.eye(n))
        cross_diffusion = cross * res.occupation_at(modes.frequencies)[:, None, :]
        damping, diffusion = _einsum_rates(cross, cross_diffusion, modes)
        rates = osc.rates_distinct(res, modes)
        _assert_rel(rates.damping, damping, 1e-13)
        _assert_rel(rates.diffusion, diffusion, 1e-13)

    def test_common_with_overlap_matches_einsum(self, rng):
        n = 12
        raw = rng.uniform(0.2, 0.9, size=(n, n))
        overlap = 0.5 * (raw + raw.T)
        np.fill_diagonal(overlap, 1.0)
        net = _random_network(rng, n)
        res = _lorentzian_reservoirs(rng, n, common=True, overlap=overlap, temperature=0.7)
        modes = osc.normal_modes(osc.build_hamiltonian(net))
        cross = reservoirs._cross_damping(res, modes.frequencies, overlap)
        occ = osc.mean_occupation(0.7, modes.frequencies)
        damping, diffusion = _einsum_rates(cross, cross * occ[None, None, :], modes)
        rates = osc.rates_common(res, modes)
        assert np.max(np.abs(rates.damping - np.diag(np.diag(rates.damping)))) > 0
        _assert_rel(rates.damping, damping, 1e-13)
        _assert_rel(rates.diffusion, diffusion, 1e-13)


def _rotated_exponent(delta, bundle):
    # Rotated-frame form: -2 (|delta|^2 - sum_m |(U^T T delta)_m|^2 / D_m).
    rotation, coeffs = propagation.rotate_frame(bundle.wigner_width)
    moved = rotation.T @ (bundle.transition @ delta)
    reduced = np.sum(np.abs(moved) ** 2 / coeffs)
    return float(-2.0 * (np.sum(np.abs(delta) ** 2) - reduced)), float(np.sum(coeffs))


def _rotated_gap(delta, bundle):
    exponent, total = _rotated_exponent(delta, bundle)
    return exponent + 4.0 * delta.size / total


class TestDecayExponent:
    @pytest.mark.parametrize("n", [2, 10, 50])
    def test_matches_rotated_frame(self, rng, n):
        models = {
            "lorentzian": _lorentzian_model(rng, n),
            "white_degenerate": white_model(n=n, coupling=0.02, gamma=0.05, nbar=0.5),
            "zero_temperature": _lorentzian_model(rng, n, temperature=0.0),
        }
        delta = rng.normal(size=n) + 1j * rng.normal(size=n)
        for name, model in models.items():
            for t in (0.0, 0.7, 6.0, 40.0):
                bundle = model.propagator.bundle(t)
                if name == "zero_temperature" or t == 0.0:
                    assert np.max(np.abs(bundle.wigner_width - np.eye(n))) < 1e-12
                expected, _ = _rotated_exponent(delta, bundle)
                actual = metrics._decay_exponent(delta, bundle)
                assert abs(actual - expected) <= 1e-10 * max(1.0, abs(expected)), (name, t)
                gap = metrics._gap(delta, bundle)
                assert abs(gap - _rotated_gap(delta, bundle)) <= 1e-10 * max(1.0, abs(gap))


def _reference_time(delta, propagator, t_grid, rtol=1e-8):
    # Full grid scan, then bisection on the rotated-frame gap.
    values = [_rotated_gap(delta, propagator.bundle(t)) for t in t_grid]
    for lo, hi, f_lo, f_hi in zip(t_grid, t_grid[1:], values, values[1:]):
        if f_lo > 0 >= f_hi:
            break
    else:
        raise AssertionError("reference grid has no crossing")
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if _rotated_gap(delta, propagator.bundle(mid)) > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestInterferenceTimeRoot:
    @pytest.mark.parametrize(
        "case", ["white_single", "white_weak", "lorentzian", "first_interval"]
    )
    def test_matches_reference_bisection(self, rng, case):
        if case == "white_single":
            model = white_model(n=1, gamma=0.05, nbar=0.5)
            state = osc.build_cat_family(1, 1, 0, 1.0)
            grid = np.linspace(0.0, 120.0, 80)
        elif case == "white_weak":
            model = white_model(n=3, coupling=0.001, gamma=0.05, nbar=0.5, regime="weak")
            state = osc.build_cat_family(3, 1, 1, math.sqrt(2.0))
            grid = np.linspace(0.0, 40.0, 80)
        elif case == "lorentzian":
            model = _lorentzian_model(rng, 10)
            state = osc.build_cat_family(10, 2, 1, 1.0)
            grid = np.linspace(0.0, 40.0, 40)
        else:
            model = white_model(n=1, gamma=0.05, nbar=0.5)
            state = osc.build_cat_family(1, 1, 0, 1.0)
            grid = np.linspace(0.0, 400.0, 40)
        components = state.branches[0].components
        delta = components[0].amplitudes - components[1].amplitudes
        expected = _reference_time(delta, model.propagator, grid)
        tau = osc.interference_decay_time(state, 0, 1, model.propagator, grid)
        assert grid[0] < tau < grid[-1]
        assert_allclose(tau, expected, rtol=1e-8)


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestLazyFrame:
    def test_unread_frame_is_never_computed(self, monkeypatch):
        model = white_model(n=3, coupling=0.1, gamma=0.05, nbar=0.5)
        calls = _count_calls(monkeypatch, propagation, "rotate_frame")
        state = osc.build_cat_family(3, 1, 1, 1.0)
        bundle = model.propagator.bundle(2.0)
        assert bundle.transition.shape == bundle.noise.shape == bundle.wigner_width.shape
        osc.decay_function(state, 0, 1, bundle)
        osc.interference_decay_time(
            state, 0, 1, model.propagator, np.linspace(0.0, 200.0, 40)
        )
        assert calls == []

    def test_frame_computed_once(self, monkeypatch):
        model = white_model(n=3, coupling=0.1, gamma=0.05, nbar=0.5)
        bundle = model.propagator.bundle(2.0)
        expected_rotation, expected_coeffs = propagation.rotate_frame(bundle.wigner_width)
        calls = _count_calls(monkeypatch, propagation, "rotate_frame")
        for _ in range(3):
            assert np.array_equal(bundle.rotation, expected_rotation)
            assert np.array_equal(bundle.diffusion_coeffs, expected_coeffs)
        assert len(calls) == 1

    def test_replaced_bundle_rotates_its_own_width(self):
        model = white_model(n=2, coupling=0.1, gamma=0.05, nbar=0.5)
        bundle = model.propagator.bundle(3.0)
        assert bundle.diffusion_coeffs.min() > 1.0
        doctored = dataclasses.replace(bundle, wigner_width=np.eye(2))
        assert_allclose(doctored.diffusion_coeffs, [1.0, 1.0])


class TestEarlyStop:
    def test_first_interval_crossing_builds_few_bundles(self, monkeypatch):
        model = white_model(n=1, gamma=0.05, nbar=0.5)
        state = osc.build_cat_family(1, 1, 0, 1.0)
        grid = np.linspace(0.0, 400.0, 40)
        calls = _count_calls(monkeypatch, osc.Propagator, "bundle")
        tau = osc.interference_decay_time(state, 0, 1, model.propagator, grid)
        assert grid[0] < tau < grid[1]
        assert len(calls) <= 12


class TestStationaryFallback:
    def test_fallback_matches_vec_without_vec_solve(self, rng, monkeypatch):
        model = _lorentzian_model(rng, 4)
        dis, diffusion = model.dissipative, model.rates.diffusion
        expected = stationary.solve_pi_vec(dis, diffusion).matrix

        def failing(*args, **kwargs):
            raise ValidationError("forced eigen-route failure")

        monkeypatch.setattr(stationary, "solve_pi_eigen", failing)
        vec_calls = _count_calls(monkeypatch, stationary, "solve_pi_vec")
        width = osc.stationary_width(dis, diffusion)
        assert np.max(np.abs(width.matrix - expected)) <= 1e-12
        assert np.max(np.abs(expected)) > 1e-3
        assert vec_calls == []
