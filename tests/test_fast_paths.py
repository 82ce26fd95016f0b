"""Equivalence and guard tests for the O(N^3), eigensolve-free and numpy-only paths.

Each fast path is checked against the formula it replaced, written out here
as the reference: the O(N^4) rate einsum, the rotated-frame decay exponent,
the grid-plus-bisection interference time, the dense vec solve behind the
stationary fallback, and the scipy eigensolvers, Cholesky solve and
``brentq`` that numpy and a ported Brent root replaced (these tests import
scipy; the package's Gaussian path does not).  The guard tests pin down the
work the fast paths skip.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from numpy.testing import assert_allclose

import oscnet as osc
from oscnet import cli, metrics, propagation, stationary
from oscnet.errors import NoBracket, RootNotConverged, SingularWidth, ValidationError

from conftest import dense_propagator, white_model


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


def _cross_damping(res, freqs, overlap):
    # The (N, N, L) cross-rate tensor g[m, k, l] = gamma_mk(freqs[l]) with
    # exact diagonal, which the rate assembly used to contract.
    n = res.n
    gam = res.damping_at(freqs)
    cross = np.sqrt(gam[:, None, :] * gam[None, :, :]) * overlap[:, :, None]
    idx = np.arange(n)
    cross[idx, idx, :] = gam
    return cross


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
        cross = _cross_damping(res, modes.frequencies, np.eye(n))
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
        cross = _cross_damping(res, modes.frequencies, overlap)
        occ = osc.mean_occupation(0.7, modes.frequencies)
        damping, diffusion = _einsum_rates(cross, cross * occ[None, None, :], modes)
        rates = osc.rates_common(res, modes)
        assert np.max(np.abs(rates.damping - np.diag(np.diag(rates.damping)))) > 0
        _assert_rel(rates.damping, damping, 1e-13)
        _assert_rel(rates.diffusion, diffusion, 1e-13)

    def test_weak_is_diagonal_at_natural_frequencies(self, rng):
        n = 12
        net = _random_network(rng, n)
        res = _lorentzian_reservoirs(rng, n)
        gam = np.array([p.rate(w) for p, w in zip(res.profiles, net.omega)])
        occ = np.array([osc.mean_occupation(t, w) for t, w in zip(res.temperatures, net.omega)])
        rates = osc.rates_weak(res, net)
        assert_allclose(rates.damping, n * np.diag(gam), rtol=1e-15, atol=0)
        assert_allclose(rates.diffusion, n * np.diag(gam * occ), rtol=1e-15, atol=0)

    def test_distinct_memory_is_quadratic(self, rng):
        # N=200: an (N, N, N) cross-rate tensor alone would take 64 MB.
        n = 200
        modes = osc.normal_modes(osc.build_hamiltonian(_random_network(rng, n)))
        res = _lorentzian_reservoirs(rng, n)
        tracemalloc.start()
        try:
            osc.rates_distinct(res, modes)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8e6


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
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _spec(model, state, times, *outputs):
    """The run record ``cli._time_curves`` reads, for a model built directly."""
    return cli.RunSpec(
        model.network, model.reservoirs, model.regime, state, times, outputs, None, None
    )


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

    def test_no_crossing_scan_takes_no_eigensolve(self, monkeypatch):
        # The scan past the grid reads widths, not their spectra.
        model = white_model(n=2, coupling=0.1, gamma=0.05, nbar=0.5)
        state = osc.build_cat_family(2, 1, 0, 0.1)
        calls = _count_calls(monkeypatch, propagation, "rotate_frame")
        tau = osc.interference_decay_time(
            state, 0, 1, model.propagator, np.linspace(0.0, 200.0, 60)
        )
        assert math.isinf(tau)
        assert calls == []

    def test_frame_computed_once(self, monkeypatch):
        # Reading the rotation costs one full frame call; rereading costs none.
        model = white_model(n=3, coupling=0.1, gamma=0.05, nbar=0.5)
        bundle = model.propagator.bundle(2.0)
        expected_rotation, _ = propagation.rotate_frame(bundle.wigner_width)
        calls = _count_calls(monkeypatch, propagation, "rotate_frame")
        for _ in range(3):
            assert np.array_equal(bundle.rotation, expected_rotation)
        assert calls == [{}]

    @staticmethod
    def _check_spectrum_computed_once(propagator, spectral, monkeypatch):
        # The coefficients take one spectrum-only call of their own, whichever
        # property is read first, and never take the frame's coefficients.
        width = propagator.bundle(2.0).wigner_width
        assert np.max(np.abs(width - np.diag(np.diag(width)))) > 1e-3
        spectrum = spectral(propagator.bundle(2.0))
        rotation, expected = propagation.rotate_frame(spectrum, vectors=False)
        assert rotation is None
        _, frame_coeffs = propagation.rotate_frame(width)
        calls = _count_calls(monkeypatch, propagation, "rotate_frame")
        spectrum_first = propagator.bundle(2.0)
        for _ in range(3):
            assert np.array_equal(spectrum_first.diffusion_coeffs, expected)
        assert calls == [{"vectors": False}]
        spectrum_first.rotation
        assert calls == [{"vectors": False}, {}]
        frame_first = propagator.bundle(2.0)
        frame_first.rotation
        for bundle in (spectrum_first, frame_first):
            assert np.array_equal(bundle.diffusion_coeffs, expected)
            _assert_rel(bundle.diffusion_coeffs, frame_coeffs, 1e-13)
        assert calls == [{"vectors": False}, {}, {}, {"vectors": False}]

    def test_spectrum_computed_once(self, monkeypatch):
        # The dense route (a generator eigendecomposed without the normal
        # modes) takes the spectrum of the Wigner width itself, by eigvalsh.
        model = white_model(n=3, coupling=0.1, gamma=0.05, nbar=0.5)
        self._check_spectrum_computed_once(
            dense_propagator(model), lambda b: b.wigner_width, monkeypatch
        )

    def test_frame_spectrum_computed_once(self, monkeypatch):
        # The model's own propagator takes the spectrum of the frame width,
        # diagonal here, so by the sorted-diagonal shortcut.
        model = white_model(n=3, coupling=0.1, gamma=0.05, nbar=0.5)
        assert model.dissipative.frame is not None
        self._check_spectrum_computed_once(
            model.propagator, lambda b: np.diag(b.frame_width), monkeypatch
        )

    def test_weak_regime_coefficients_bitwise_unchanged(self, monkeypatch):
        # Identical baths in the weak regime keep the width diagonal, so the
        # shortcut answers both modes with the same sorted diagonal.  The
        # model's own propagator works in the normal-mode frame; this pins
        # the dense route.
        model = white_model(n=4, coupling=0.1, gamma=0.05, nbar=0.5, regime="weak")
        model = dataclasses.replace(model, propagator=dense_propagator(model))
        state = osc.build_cat_family(4, 2, 1, 1.0)
        times = np.linspace(0.0, 40.0, 9)
        frames = [propagation.rotate_frame(model.propagator.bundle(t).wigner_width) for t in times]
        eigvalsh = _count_calls(monkeypatch, np.linalg, "eigvalsh")
        columns, rows = cli._time_curves(_spec(model, state, times, "dcoef"), model)["dcoef"]
        assert eigvalsh == []
        assert columns == ["t", "d1", "d2", "d3", "d4"]
        for row, (_, coeffs) in zip(rows, frames):
            assert np.array_equal(row[1:], coeffs)

    def test_time_curves_take_no_eigenvectors(self, rng, monkeypatch):
        # Per time, dcoef and the entropy share one eigenvalue solve and the
        # entropy adds one linear solve; nothing asks for eigenvectors.
        model = _sized_lorentzian_model(rng, 10)
        state = osc.build_cat_family(10, 2, 1, 1.0)
        times = np.linspace(0.5, 40.0, 12)
        counts = {
            name: _count_calls(monkeypatch, np.linalg, name)
            for name in ("eigh", "eigvalsh", "solve")
        }
        tables = cli._time_curves(_spec(model, state, times, "dcoef", "entropy_curve"), model)
        assert counts["eigh"] == []
        assert len(counts["eigvalsh"]) == len(counts["solve"]) == times.size
        entropy = [row[1] for row in tables["entropy_curve"][1]]
        assert 0.0 < min(entropy) and max(entropy) < 1.0

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


class TestReportBundles:
    def test_report_builds_only_the_scan_bundles(self, monkeypatch):
        # Both diffusion times are closed forms in the diffusion matrix.
        model = white_model(n=2, coupling=0.1, gamma=0.05, nbar=0.5)
        grid = np.linspace(0.0, 150.0, 40)
        cat = osc.build_cat_family(2, 1, 0, 1.0)
        calls = _count_calls(monkeypatch, osc.Propagator, "bundle")
        osc.interference_decay_time(cat, 0, 1, model.propagator, grid)
        scan = len(calls)
        assert scan > 0
        report = osc.decoherence_report(cat, model, grid)
        assert math.isfinite(report.tau_int)
        assert len(calls) == 2 * scan
        osc.decoherence_report(osc.single_coherent_state([0.3, 0.1j]), model, grid)
        assert len(calls) == 2 * scan


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


def _bracketed_family(rng, count):
    # Smooth functions whose one sign change is a root inside a random
    # bracket, over widely different scales; half the brackets are reversed.
    for i in range(count):
        root = rng.uniform(-1.0, 1.0)
        k, c = rng.uniform(0.5, 20.0), rng.uniform(0.0, 3.0)
        scale = 10.0 ** rng.uniform(-6.0, 6.0)
        shape = i % 3

        def f(x, r=root, k=k, c=c, s=scale, shape=shape):
            if shape == 0:
                return s * (math.tanh(k * (x - r)) + c * (x - r) ** 3)
            if shape == 1:
                return s * math.expm1(k * (x - r))
            return s * (x - r) * (1.0 + c * math.sin(k * x) ** 2)

        a, b = root - rng.uniform(0.01, 3.0), root + rng.uniform(0.01, 3.0)
        if i % 2:
            a, b = b, a
        yield f, a, b


class TestBrentPort:
    @pytest.mark.parametrize("rtol", [1e-8, 1e-12, 4 * np.finfo(float).eps])
    def test_matches_scipy_brentq_exactly(self, rtol):
        rng = np.random.default_rng(7)
        compared = 0
        for f, a, b in _bracketed_family(rng, 1200):
            fa, fb = f(a), f(b)
            if fa == 0 or fb == 0:
                continue
            assert metrics._brentq(f, a, b, fa, fb, rtol) == scipy.optimize.brentq(
                f, a, b, rtol=rtol
            )
            compared += 1
        assert compared >= 1000

    def test_zero_at_an_end_returns_that_end_unevaluated(self):
        def f(x):
            raise AssertionError("an end value of zero needs no evaluation")

        assert metrics._brentq(f, 0.5, 2.0, 0.0, 1.0, 1e-8) == 0.5
        assert metrics._brentq(f, 0.5, 2.0, -1.0, 0.0, 1e-8) == 2.0

    def test_same_signs_or_tiny_rtol_rejected(self):
        with pytest.raises(NoBracket):
            metrics._brentq(math.cos, 0.0, 1.0, 1.0, math.cos(1.0), 1e-8)
        with pytest.raises(ValidationError):
            metrics._brentq(math.sin, -1.0, 1.0, math.sin(-1.0), math.sin(1.0), 1e-16)

    def test_iteration_cap_raises_typed_error(self):
        f = lambda x: math.tanh(8.0 * (x - 0.3)) + 0.2 * (x - 0.3) ** 3
        a, b = -2.0, 3.0
        needed = next(
            m
            for m in range(1, 100)
            if scipy.optimize.brentq(f, a, b, maxiter=m, full_output=True, disp=False)[
                1
            ].converged
        )
        assert needed > 2
        expected = scipy.optimize.brentq(f, a, b, maxiter=needed)
        assert metrics._brentq(f, a, b, f(a), f(b), 1e-8, maxiter=needed) == expected
        with pytest.raises(RootNotConverged):
            metrics._brentq(f, a, b, f(a), f(b), 1e-8, maxiter=needed - 1)

    def test_interference_time_evaluates_each_time_once(self, monkeypatch):
        model = white_model(n=3, coupling=0.1, gamma=0.05, nbar=0.5)
        state = osc.build_cat_family(3, 1, 1, 1.0)
        grid = np.linspace(0.0, 200.0, 40)
        times = []
        original = osc.Propagator.bundle

        def counting(self, t):
            times.append(float(t))
            return original(self, t)

        monkeypatch.setattr(osc.Propagator, "bundle", counting)
        tau = osc.interference_decay_time(state, 0, 1, model.propagator, grid)
        assert grid[0] < tau < grid[-1]
        scanned = int(np.searchsorted(grid, tau)) + 1
        assert times[:scanned] == grid[:scanned].tolist()
        assert len(set(times)) == len(times) > scanned


def _sized_lorentzian_model(rng, n):
    # Couplings shrink with N so large networks stay in a physical regime.
    net = _random_network(rng, n, coupling=min(0.05, 0.5 / n))
    return osc.build_model(net, _lorentzian_reservoirs(rng, n))


def _sorted_eigvals(matrix):
    values = scipy.linalg.eigvals(matrix)
    return values[np.lexsort((values.real, values.imag))]


class TestNumpyEigensolvers:
    @pytest.mark.parametrize("n", [2, 10, 150])
    def test_eigenvalues_match_scipy(self, rng, n):
        model = _sized_lorentzian_model(rng, n)
        h = model.hamiltonian
        _assert_rel(osc.normal_modes(h).frequencies, scipy.linalg.eigvalsh(h), 1e-12)
        dis = osc.dissipative_matrix(h, model.rates.damping)
        _assert_rel(dis.eigenvalues, _sorted_eigvals(dis.matrix), 1e-12)
        width = model.propagator.bundle(6.0).wigner_width
        assert np.max(np.abs(width - np.diag(np.diag(width)))) > 1e-10
        _, coeffs = propagation.rotate_frame(width)
        _assert_rel(coeffs, scipy.linalg.eigvalsh(width), 1e-12)

    @pytest.mark.parametrize("n", [2, 10, 150])
    def test_decay_exponent_matches_scipy_cholesky(self, rng, n):
        model = _sized_lorentzian_model(rng, n)
        delta = rng.normal(size=n) + 1j * rng.normal(size=n)
        for t in (0.7, 6.0, 40.0):
            bundle = model.propagator.bundle(t)
            # The scipy cho_factor / cho_solve form the numpy Cholesky replaced.
            moved = bundle.transition @ delta
            factor = scipy.linalg.cho_factor(bundle.wigner_width)
            reduced = (moved @ scipy.linalg.cho_solve(factor, moved.conj())).real
            expected = float(-2.0 * (np.sum(np.abs(delta) ** 2) - reduced))
            actual = metrics._decay_exponent(delta, bundle)
            assert abs(actual - expected) <= 1e-13 * max(1.0, abs(expected)), t

    def test_non_positive_width_raises(self):
        model = white_model(n=2, coupling=0.1, gamma=0.05, nbar=0.5)
        bundle = dataclasses.replace(
            model.propagator.bundle(1.0), wigner_width=np.diag([1.0, -1.0])
        )
        with pytest.raises(SingularWidth, match=r"t = 1\.0 .* coefficient -1"):
            metrics._decay_exponent(np.array([1.0, 0.5j]), bundle)
        with pytest.raises(SingularWidth, match=r"t = 1\.0 .* coefficient -1"):
            metrics.linear_entropy(osc.build_cat_family(2, 1, 0, 1.0), bundle)

    @pytest.mark.parametrize("regime", ["weak", "strong"])
    def test_degenerate_network_matches_scipy_values(self, monkeypatch, regime):
        # All-to-all couplings leave an (N-1)-fold degenerate normal mode, so
        # the two eigensolvers may pick different bases of it; the physics
        # must not notice.
        n = 5
        net = osc.degenerate_symmetric_network(n, 1.0, 0.03)
        res = osc.ReservoirSpec(
            temperatures=np.linspace(0.4, 1.2, n),
            profiles=tuple(osc.WhiteNoise(g) for g in np.linspace(0.02, 0.06, n)),
        )
        state = osc.build_cat_family(n, 2, 1, 1.0)
        times = (0.0, 0.5, 6.0, 40.0)

        def curves():
            model = osc.build_model(net, res, regime=regime)
            bundles = [model.propagator.bundle(t) for t in times]
            return (
                np.array([b.diffusion_coeffs for b in bundles]),
                np.array([osc.linear_entropy(state, b) for b in bundles]),
            )

        dcoef, entropy = curves()
        monkeypatch.setattr(np.linalg, "eigh", scipy.linalg.eigh)
        monkeypatch.setattr(np.linalg, "eigvalsh", scipy.linalg.eigvalsh)
        monkeypatch.setattr(np.linalg, "eig", scipy.linalg.eig)
        scipy_dcoef, scipy_entropy = curves()
        _assert_rel(dcoef, scipy_dcoef, 1e-12)
        assert np.max(entropy) > 1e-3
        assert np.max(np.abs(entropy - scipy_entropy)) <= 1e-12
