import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oscnet as osc
from oscnet.errors import SingularWidth, ValidationError

from conftest import white_model


class TestMeanDiffusionTime:
    def test_weak_regime_value(self):
        model = white_model(n=3, coupling=0.001, gamma=0.05, nbar=0.6, regime="weak")
        rate = model.rates.damping[0, 0]
        assert_allclose(
            osc.mean_diffusion_time(model.rates.diffusion),
            1.0 / (2 * 0.6 * rate),
            rtol=1e-12,
        )

    def test_zero_temperature_infinite(self):
        model = white_model(n=2, coupling=0.1, gamma=0.05, nbar=0.0)
        assert osc.mean_diffusion_time(model.rates.diffusion) == math.inf

    def test_topology_drop_out(self, rng):
        # Identical reservoirs: the time depends only on the mode spectrum.
        # Build a chain and a dense network that are exactly isospectral.
        target = np.array([0.8, 1.0, 1.3, 1.7])
        basis, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        dense = basis.T @ np.diag(target) @ basis
        import scipy.linalg

        tri = scipy.linalg.hessenberg(dense)
        tri = np.triu(np.tril(tri, 1), -1)  # scrub rounding outside the band
        chain_spec = osc.NetworkSpec(
            omega=np.diag(tri), coupling=tri - np.diag(np.diag(tri))
        )
        dense_spec = osc.NetworkSpec(
            omega=np.diag(dense), coupling=dense - np.diag(np.diag(dense))
        )
        res = osc.ReservoirSpec(
            temperatures=[0.8] * 4, profiles=(osc.WhiteNoise(0.04),) * 4
        )
        taus = []
        for spec in (chain_spec, dense_spec):
            modes = osc.normal_modes(osc.build_hamiltonian(spec))
            rates = osc.rates_distinct(res, modes)
            taus.append(osc.mean_diffusion_time(rates.diffusion))
            # spectra agree by construction
            assert_allclose(modes.frequencies, np.sort(target), atol=1e-10)
        assert abs(taus[0] - taus[1]) < 1e-12 * taus[0]

    def test_negative_trace_rejected(self):
        with pytest.raises(ValidationError):
            osc.mean_diffusion_time(np.diag([-0.1, 0.05]))


def _forward_difference_times(bundles):
    # The forward-difference estimate directional_diffusion_times used to take,
    # copied as the reference for its closed form.
    bundles = list(bundles)
    if len(bundles) < 2:
        raise ValidationError("need bundles at t = 0 and one later time")
    first, second = bundles[0], bundles[1]
    if abs(first.t) > 0:
        raise ValidationError("first bundle must be at t = 0")
    step = second.t - first.t
    if step <= 0:
        raise ValidationError("bundle times must increase")
    rates = (second.diffusion_coeffs - first.diffusion_coeffs) / step
    # below this, the difference quotient is dominated by rounding noise
    floor = max(
        1e-12,
        8.0 * np.finfo(float).eps * float(np.max(second.diffusion_coeffs)) / step,
    )
    return np.array([1.0 / r if r > floor else math.inf for r in rates])


class TestDirectionalTimes:
    def test_weak_regime_all_equal(self):
        model = white_model(n=3, coupling=0.001, gamma=0.05, nbar=0.6, regime="weak")
        rate = model.rates.damping[0, 0]
        times = osc.directional_diffusion_times(model.rates.diffusion)
        assert_allclose(times, 1.0 / (2 * 0.6 * rate), rtol=1e-5)

    def test_strong_regime_single_active_direction(self):
        n, gamma, temp = 3, 0.05, 0.045
        net = osc.degenerate_symmetric_network(n, 1.0, -0.25)
        res = osc.ReservoirSpec(
            temperatures=[temp] * n, profiles=(osc.WhiteNoise(gamma),) * n
        )
        model = osc.build_model(net, res)
        nbar = osc.mean_occupation(temp, 1.0 - 0.25 * (n - 1))
        times = osc.directional_diffusion_times(model.rates.diffusion)
        assert all(math.isinf(t) for t in times[:-1])
        assert_allclose(times[-1], 1.0 / (2 * nbar * n * gamma), rtol=1e-10)

    def test_zero_temperature_all_flat(self):
        model = white_model(n=2, coupling=0.1, gamma=0.05, nbar=0.0)
        times = osc.directional_diffusion_times(model.rates.diffusion)
        assert all(math.isinf(t) for t in times)

    def test_mean_consistency(self, rng):
        # Average inverse directional time equals the inverse mean time.
        model = white_model(n=3, coupling=0.15, gamma=0.08, nbar=0.7)
        times = osc.directional_diffusion_times(model.rates.diffusion)
        mean_rate = np.mean([0.0 if math.isinf(t) else 1.0 / t for t in times])
        assert_allclose(
            mean_rate, 1.0 / osc.mean_diffusion_time(model.rates.diffusion), rtol=1e-12
        )

    @pytest.mark.parametrize("case", ["weak", "strong", "degenerate"])
    def test_matches_forward_difference(self, case):
        model = {
            "weak": lambda: white_model(
                n=3, coupling=0.001, gamma=0.05, nbar=0.6, regime="weak"
            ),
            "strong": lambda: white_model(n=3, coupling=0.15, gamma=0.08, nbar=0.7),
            "degenerate": lambda: osc.build_model(
                osc.degenerate_symmetric_network(5, 1.0, 0.03),
                osc.ReservoirSpec(
                    temperatures=np.linspace(0.4, 1.2, 5),
                    profiles=tuple(
                        osc.WhiteNoise(g) for g in np.linspace(0.02, 0.06, 5)
                    ),
                ),
            ),
        }[case]()
        exact = osc.directional_diffusion_times(model.rates.diffusion)
        reference = _forward_difference_times([model.propagator.bundle(t) for t in (0.0, 1e-6)])
        assert np.array_equal(np.isinf(exact), np.isinf(reference))
        finite = np.isfinite(exact)
        assert finite.any()
        assert_allclose(exact[finite], reference[finite], rtol=1e-6)


class TestDecayFunction:
    def test_unity_at_start(self):
        model = white_model(n=2, coupling=0.1, gamma=0.05, nbar=0.4)
        cat = osc.build_cat_family(2, 1, 0, 1.2)
        assert_allclose(
            osc.decay_function(cat, 0, 1, model.propagator.bundle(0.0)), 1.0,
            atol=1e-14,
        )

    def test_same_component_rejected(self):
        model = white_model(n=1, gamma=0.05, nbar=0.4)
        cat = osc.build_cat_family(1, 1, 0, 1.0)
        with pytest.raises(ValidationError):
            osc.decay_function(cat, 1, 1, model.propagator.bundle(0.5))

    def test_zero_displacement_pair(self):
        # Components differing only by coefficient phase never decohere.
        state = osc.coherent_mixture(
            [osc.coherent_superposition([1.0, 1.0j], [[0.4, 0.1], [0.4, 0.1]])]
        )
        model = white_model(n=2, coupling=0.1, gamma=0.05, nbar=0.4)
        for t in (0.3, 1.5, 4.0):
            assert_allclose(
                osc.decay_function(state, 0, 1, model.propagator.bundle(t)), 1.0,
                atol=1e-14,
            )

    def test_zero_temperature_overlap_identity(self):
        # At T = 0 the decay function equals the fourth power of the ratio of
        # initial to evolved component overlaps.
        model = white_model(n=2, coupling=0.12, gamma=0.07, nbar=0.0)
        cat = osc.build_cat_family(2, 1, 1, 0.9 + 0.2j)
        beta_r = cat.branches[0].components[0].amplitudes
        beta_s = cat.branches[0].components[1].amplitudes
        for t in np.linspace(0.0, 12.0, 15):
            bundle = model.propagator.bundle(t)
            moved_r = osc.centroid(bundle.transition, beta_r)
            moved_s = osc.centroid(bundle.transition, beta_s)
            ratio = abs(
                osc.coherent_overlap(beta_r, beta_s)
                / osc.coherent_overlap(moved_r, moved_s)
            ) ** 4
            assert abs(osc.decay_function(cat, 0, 1, bundle) - ratio) < 1e-10

    def test_matches_wigner_element_ratio(self):
        # Independent route: the decay function is the t=0 to t ratio of the
        # diagonal-to-off-diagonal Wigner element products.
        model = white_model(n=2, coupling=0.15, gamma=0.08, nbar=0.4)
        cat = osc.build_cat_family(2, 1, 1, 0.9 + 0.2j)
        xi_rot = np.array([0.37 - 0.21j, -0.15 + 0.3j])

        def element_ratio(bundle):
            w = osc.wigner_elements(cat, xi_rot, bundle)
            return (w[0, 0] * w[1, 1] / (w[0, 1] * w[1, 0])).real

        bundle_t = model.propagator.bundle(1.3)
        direct = osc.decay_function(cat, 0, 1, bundle_t)
        ratio = element_ratio(model.propagator.bundle(0.0)) / element_ratio(bundle_t)
        assert abs(direct - ratio) < 1e-12

    def test_range_and_monotone_for_cat(self):
        model = white_model(n=2, coupling=0.1, gamma=0.06, nbar=0.5)
        cat = osc.build_cat_family(2, 2, 0, 1.0)
        horizon = 5.0 / model.dissipative.eigenvalues.real.min()
        values = [
            osc.decay_function(cat, 0, 1, model.propagator.bundle(t))
            for t in np.linspace(0.0, horizon, 40)
        ]
        assert all(0.0 < v <= 1.0 + 1e-12 for v in values)
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestInterferenceDecayTime:
    def test_weak_regime_closed_form(self):
        # The threshold equality collapses to 1 - exp(-r tau) = eps with
        # eps = 1 / (2 |alpha|^2 (R+S)(1+2 nbar)); solved independently here.
        alpha2, blocks, nbar = 2.0, 2, 0.5
        model = white_model(
            n=3, coupling=0.001, gamma=0.05, nbar=nbar, regime="weak"
        )
        cat = osc.build_cat_family(3, 1, 1, math.sqrt(alpha2))
        rate = model.rates.damping[0, 0]
        eps = 1.0 / (2 * alpha2 * blocks * (1 + 2 * nbar))
        expected = -math.log1p(-eps) / rate
        grid = np.linspace(0.0, 5.0 / rate, 80)
        tau = osc.interference_decay_time(cat, 0, 1, model.propagator, grid)
        assert_allclose(tau, expected, rtol=1e-7)

    def test_single_oscillator_cat(self):
        alpha2, nbar = 1.0, 0.5
        model = white_model(n=1, gamma=0.05, nbar=nbar)
        cat = osc.build_cat_family(1, 1, 0, 1.0)
        rate = model.rates.damping[0, 0]
        eps = 1.0 / (2 * alpha2 * (1 + 2 * nbar))
        grid = np.linspace(0.0, 6.0 / rate, 80)
        tau = osc.interference_decay_time(cat, 0, 1, model.propagator, grid)
        assert_allclose(tau, -math.log1p(-eps) / rate, rtol=1e-7)

    @pytest.mark.parametrize("start, stop", [(0.0, 0.01), (20.0, 40.0)], ids=["short", "late"])
    def test_grid_ending_before_or_starting_after_the_crossing(self, start, stop):
        # The scan doubles past a grid that ends early and starts from t = 0
        # before a grid that starts late: both find the closed-form root.
        model = white_model(n=1, gamma=0.05, nbar=0.5)
        cat = osc.build_cat_family(1, 1, 0, 1.0)
        rate = model.rates.damping[0, 0]
        grid = np.linspace(start / rate, stop / rate, 5)
        tau = osc.interference_decay_time(cat, 0, 1, model.propagator, grid)
        assert not grid[0] < tau < grid[-1]
        assert_allclose(tau, -math.log1p(-1.0 / 4.0) / rate, rtol=1e-7)

    def test_never_crossing_pair_is_infinite(self):
        # Tiny excitation: the gap approaches zero from above, never crossing.
        model = white_model(n=1, gamma=0.05, nbar=0.0)
        cat = osc.build_cat_family(1, 1, 0, math.sqrt(0.1))
        grid = np.linspace(0.0, 200.0, 60)
        tau = osc.interference_decay_time(cat, 0, 1, model.propagator, grid)
        assert math.isinf(tau)

    @pytest.mark.parametrize("stop", [4.0, 400.0])
    def test_dissipation_free_pair_is_infinite(self, stop):
        # Without damping T is unitary and W = I: the decay function stays 1
        # on any grid, and the scan stops at the grid's end.
        net = osc.NetworkSpec(omega=[1.0, 1.02], coupling=[[0.0, 0.1], [0.1, 0.0]])
        res = osc.ReservoirSpec(temperatures=[0.0, 0.0], profiles=(osc.WhiteNoise(0.0),) * 2)
        model = osc.build_model(net, res)
        cat = osc.build_cat_family(2, 1, 1, 0.7)
        grid = np.linspace(0.0, stop, 5)
        for t in grid:
            assert_allclose(osc.decay_function(cat, 0, 1, model.propagator.bundle(t)), 1.0)
        assert osc.interference_decay_time(cat, 0, 1, model.propagator, grid) == math.inf
        assert osc.decoherence_report(cat, model, grid).tau_int == math.inf


class TestDecoherenceTime:
    def test_harmonic(self):
        assert_allclose(osc.decoherence_time(4.0, 4.0), 2.0, rtol=1e-14)

    def test_infinite_cases(self):
        assert osc.decoherence_time(math.inf, 3.0) == 3.0
        assert osc.decoherence_time(5.0, math.inf) == 5.0
        assert osc.decoherence_time(math.inf, math.inf) == math.inf

    def test_positive_required(self):
        with pytest.raises(ValidationError):
            osc.decoherence_time(-1.0, 2.0)

    def test_report_identity(self):
        model = white_model(n=1, gamma=0.05, nbar=0.5)
        cat = osc.build_cat_family(1, 1, 0, 1.0)
        grid = np.linspace(0.0, 150.0, 80)
        report = osc.decoherence_report(cat, model, grid)
        assert_allclose(
            1.0 / report.tau_d,
            1.0 / report.tau_diff + 1.0 / report.tau_int,
            rtol=1e-12,
        )
        assert report.regime == "weak"

    def test_report_reads_the_first_branch_pair(self):
        # Of a mixture, the report reads components 0 and 1 of the first branch.
        model = white_model(n=1, gamma=0.05, nbar=0.5)
        grid = np.linspace(0.0, 150.0, 80)
        coherent = osc.coherent_superposition([1.0], [[0.4]], probability=0.5)
        cat = osc.coherent_superposition([1.0, 1.0], [[1.0], [-1.0]], probability=0.5)
        state = osc.coherent_mixture([coherent, cat])
        assert osc.decoherence_report(state, model, grid).tau_int == math.inf
        state = osc.coherent_mixture([cat, coherent])
        tau = osc.interference_decay_time(state, 0, 1, model.propagator, grid)
        assert math.isfinite(tau)
        assert osc.decoherence_report(state, model, grid).tau_int == tau


class TestLinearEntropy:
    def test_no_dissipation_stays_zero(self):
        net = osc.degenerate_symmetric_network(2, 1.0, 0.2)
        res = osc.ReservoirSpec(
            temperatures=[0.0, 0.0], profiles=(osc.WhiteNoise(0.0),) * 2
        )
        model = osc.build_model(net, res)
        cat = osc.build_cat_family(2, 1, 1, 1.1)
        for t in (0.0, 0.9, 3.3):
            assert abs(osc.linear_entropy(cat, model.propagator.bundle(t))) < 1e-10

    def test_coherent_state_zero_kelvin(self):
        model = white_model(n=1, gamma=0.3, nbar=0.0)
        state = osc.single_coherent_state([0.8 - 0.5j])
        for t in (0.0, 1.0, 4.0):
            assert abs(osc.linear_entropy(state, model.propagator.bundle(t))) < 1e-12

    def test_initially_pure(self):
        model = white_model(n=2, coupling=0.1, gamma=0.05, nbar=0.8)
        cat = osc.build_cat_family(2, 1, 0, 1.3)
        assert abs(osc.linear_entropy(cat, model.propagator.bundle(0.0))) < 1e-10

    def test_pure_at_the_amplitude_bound(self):
        # Overlap exponents round to about eps |a|^2, so the norm's imaginary
        # part and the purity's excess over 1 grow with the amplitudes.
        rng = np.random.default_rng(7)
        bundles = {}
        for i in range(240):
            n, k = rng.integers(1, 9), rng.integers(2, 9)
            dense = bool(i % 2)  # mixed temperatures take the dense route
            if (n, dense) not in bundles:
                net = osc.NetworkSpec(omega=np.ones(n), coupling=np.zeros((n, n)))
                temps = np.linspace(0.5, 1.3, n) if dense else np.full(n, 0.9)
                res = osc.ReservoirSpec(temps, (osc.WhiteNoise(0.05),) * n)
                bundles[n, dense] = osc.build_model(net, res).propagator.bundle(0.0)
            amps = rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n))
            amps *= 0.999 * osc.states._AMPLITUDE_MAX / np.linalg.norm(amps, axis=1)[:, None]
            coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
            state = osc.coherent_mixture([osc.coherent_superposition(coeffs, amps)])
            assert abs(osc.linear_entropy(state, bundles[n, dense])) <= 1e-6

    def test_thermalized_coherent_state(self):
        # Long-time purity of a single mode is 1/(1 + 2 nbar).
        nbar = 0.65
        model = white_model(n=1, gamma=0.4, nbar=nbar)
        state = osc.single_coherent_state([0.7])
        entropy = osc.linear_entropy(state, model.propagator.bundle(80.0))
        assert_allclose(entropy, 1.0 - 1.0 / (1 + 2 * nbar), rtol=1e-9)

    def test_matches_quadrature(self):
        # pi * integral W^2 by Simpson integration, single-mode cat.
        model = white_model(n=1, gamma=0.25, nbar=0.5)
        cat = osc.build_cat_family(1, 1, 0, 1.0)
        bundle = model.propagator.bundle(0.5 / 0.25)
        grid = np.linspace(-6.0, 6.0, 501)
        step = grid[1] - grid[0]
        xs, ys = np.meshgrid(grid, grid, indexing="ij")
        values = osc.wigner(cat, (xs + 1j * ys).reshape(-1, 1), bundle).reshape(
            xs.shape
        )
        from scipy.integrate import simpson

        purity = np.pi * simpson(simpson(values**2, dx=step, axis=1), dx=step)
        assert abs((1.0 - purity) - osc.linear_entropy(cat, bundle)) < 1e-6

    def test_against_oracle(self):
        model = white_model(n=1, gamma=0.25, nbar=0.5)
        cat = osc.build_cat_family(1, 1, 0, 1.0)
        space = osc.FockSpace(1, osc.select_cutoff(1.0, 0.5))
        rho0 = osc.density_from_coherent(space, cat)
        t_target = 0.5 / 0.25  # gamma t = 0.5
        snaps = osc.evolve_master(
            rho0, model.hamiltonian, model.rates.damping, model.rates.diffusion,
            np.array([t_target]), space,
        )
        ours = osc.linear_entropy(cat, model.propagator.bundle(t_target))
        oracle = 1.0 - osc.oracle_purity(snaps[0].rho)
        assert abs(ours - oracle) < 1e-4

    def test_bounds(self, rng):
        model = white_model(n=2, coupling=0.12, gamma=0.07, nbar=0.9)
        cat = osc.build_cat_family(2, 1, 1, 1.0)
        for t in np.linspace(0.0, 20.0, 12):
            value = osc.linear_entropy(cat, model.propagator.bundle(t))
            assert 0.0 <= value < 1.0

    def test_purity_above_one_refused(self):
        # A width below the vacuum's, as rounding leaves it at extreme
        # temperatures, gives a coherent state the purity 1 / det W = 1 / 0.81.
        model = white_model(n=2, coupling=0.1, gamma=0.05, nbar=0.8)
        state = osc.single_coherent_state([0.8 - 0.5j, 0.3])
        bundle = dataclasses.replace(model.propagator.bundle(0.0), wigner_width=0.9 * np.eye(2))
        assert bundle.diffusion_coeffs[0] > 0
        with pytest.raises(SingularWidth, match=r"t = 0\.0 gives a purity of 1\.2345"):
            osc.linear_entropy(state, bundle)


def _free_model(n=2, coupling=0.2):
    net = osc.degenerate_symmetric_network(n, 1.0, coupling)
    res = osc.ReservoirSpec(
        temperatures=[0.0] * n, profiles=(osc.WhiteNoise(0.0),) * n
    )
    return osc.build_model(net, res)


def _plane_integral(stiffness, px, py, nodes):
    """integral exp(-stiffness (x^2+y^2) + px x + py y) dx dy by Gauss-Hermite."""
    u, w = np.polynomial.hermite.hermgauss(nodes)
    x, w = u / math.sqrt(stiffness), w / math.sqrt(stiffness)
    return (np.exp(np.asarray(px)[..., None] * x) @ w) * (
        np.exp(np.asarray(py)[..., None] * x) @ w
    )


def _quadrature_concurrence(state, part_a, bundle, nodes=64):
    """Reference concurrence by nested Gauss-Hermite quadrature of the joint
    Wigner function (the B-modes integrated out of each pair term, then the
    squared marginal integrated over the A-modes); at most three modes."""
    branch = state.single_branch()
    part_a = sorted(part_a)
    part_b = [m for m in range(state.n_modes) if m not in part_a]
    betas = np.array([c.amplitudes for c in branch.components])
    coeffs = np.array([c.coefficient for c in branch.components])
    centers = (bundle.transition @ betas.T).T
    norms = np.sum(np.abs(betas) ** 2, axis=1)
    overlap_exp = -0.5 * norms[:, None] - 0.5 * norms[None, :] + betas.conj() @ betas.T
    pair_w = coeffs.conj()[:, None] * coeffs[None, :] * np.exp(overlap_exp)

    ket = centers[None, :, :]
    bra = centers[:, None, :].conj()
    single = (2.0 / np.pi) * np.exp(-2.0 * ket * bra) * _plane_integral(
        2.0, 2.0 * (ket + bra), 2.0j * (bra - ket), nodes
    )
    marg_b = np.prod(single[:, :, part_b], axis=2)

    a_ket = centers[:, part_a]
    sum_ket = a_ket[None, :, None, None, :] + a_ket[None, None, None, :, :]
    sum_bra = (
        a_ket.conj()[:, None, None, None, :] + a_ket.conj()[None, None, :, None, :]
    )
    const = (
        a_ket[None, :, None, None, :] * a_ket.conj()[:, None, None, None, :]
        + a_ket[None, None, None, :, :] * a_ket.conj()[None, None, :, None, :]
    )
    squared = (
        np.pi
        * (2.0 / np.pi) ** 2
        * np.exp(-2.0 * const)
        * _plane_integral(4.0, 2.0 * (sum_ket + sum_bra), 2.0j * (sum_bra - sum_ket), nodes)
    )
    over_a = np.prod(squared, axis=4)
    total = np.einsum(
        "rs,pq,rspq->", pair_w, pair_w,
        over_a * marg_b[:, :, None, None] * marg_b[None, None, :, :],
    )
    return 1.0 - float(total.real)


class TestConcurrence:
    def test_matches_quadrature(self, rng):
        for n in (2, 3):
            model = _free_model(n)
            for k in (2, 4):
                vecs = 0.7 * (rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n)))
                coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
                state = osc.coherent_mixture([osc.coherent_superposition(coeffs, vecs)])
                for t in (0.0, 0.7, 2.3):
                    bundle = model.propagator.bundle(t)
                    for cut in ([0], list(range(1, n))):
                        assert abs(
                            osc.concurrence(state, cut, bundle)
                            - _quadrature_concurrence(state, cut, bundle)
                        ) < 1e-12

    def test_three_modes_evolved_against_oracle(self):
        model = _free_model(3)
        cat = osc.build_cat_family(3, 1, 0, 0.5)
        space = osc.FockSpace(3, 6)
        times = np.array([0.0, 1.0, 2.5])
        snaps = osc.evolve_master(
            osc.density_from_coherent(space, cat), model.hamiltonian,
            np.zeros((3, 3)), np.zeros((3, 3)), times, space,
        )
        for snap in snaps:
            bundle = model.propagator.bundle(snap.t)
            for cut in ([0], [1], [0, 2]):
                reduced = osc.oracle_partial_trace(snap.rho, cut, space)
                expected = 1.0 - osc.oracle_purity(reduced)
                assert abs(osc.concurrence(cat, cut, bundle) - expected) < 1e-8

    def test_four_modes_against_oracle(self, rng):
        # Beyond the three modes a mode-by-mode quadrature could reach.
        vecs = rng.uniform(-0.2, 0.2, size=(3, 4)) + 1j * rng.uniform(-0.2, 0.2, size=(3, 4))
        state = osc.coherent_mixture(
            [osc.coherent_superposition([1.0, -0.8j, 0.6], vecs)]
        )
        bundle = _free_model(4).propagator.bundle(0.0)
        space = osc.FockSpace(4, 6)
        rho = osc.density_from_coherent(space, state)
        for cut in ([0], [1, 3]):
            reduced = osc.oracle_partial_trace(rho, cut, space)
            expected = 1.0 - osc.oracle_purity(reduced)
            assert abs(osc.concurrence(state, cut, bundle) - expected) < 1e-9

    def test_product_state(self):
        model = _free_model()
        state = osc.single_coherent_state([0.8 + 0.3j, -0.5 + 0.1j])
        value = osc.concurrence(state, [0], model.propagator.bundle(0.0))
        assert abs(value) < 1e-6

    def test_against_oracle_partial_trace(self):
        model = _free_model()
        cat = osc.build_cat_family(2, 2, 0, math.sqrt(2.0))
        value = osc.concurrence(cat, [0], model.propagator.bundle(0.0))
        space = osc.FockSpace(2, 16)
        rho = osc.density_from_coherent(space, cat)
        reduced = osc.oracle_partial_trace(rho, [0], space)
        expected = 1.0 - osc.oracle_purity(reduced)
        assert abs(value - expected) < 1e-4

    def test_swap_symmetry(self, rng):
        model = _free_model()
        bundle = model.propagator.bundle(0.0)
        for _ in range(4):
            vecs = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            coeffs = rng.normal(size=2) + 1j * rng.normal(size=2)
            state = osc.coherent_mixture(
                [osc.coherent_superposition(coeffs, vecs)]
            )
            a = osc.concurrence(state, [0], bundle)
            b = osc.concurrence(state, [1], bundle)
            assert abs(a - b) < 1e-5

    def test_evolved_unitarily(self):
        # Unitary evolution of a product state through a coupler entangles it.
        model = _free_model()
        state = osc.single_coherent_state([1.0, 0.0])
        space = osc.FockSpace(2, 12)
        t = 2.0
        bundle = model.propagator.bundle(t)
        value = osc.concurrence(state, [0], bundle)
        rho0 = osc.density_from_coherent(space, state)
        snaps = osc.evolve_master(
            rho0, model.hamiltonian, np.zeros((2, 2)), np.zeros((2, 2)),
            np.array([t]), space,
        )
        reduced = osc.oracle_partial_trace(snaps[0].rho, [0], space)
        assert abs(value - (1.0 - osc.oracle_purity(reduced))) < 1e-4

    def test_dissipative_bundle_rejected(self):
        model = white_model(n=2, coupling=0.2, gamma=0.1, nbar=0.0)
        cat = osc.build_cat_family(2, 1, 0, 0.8)
        with pytest.raises(ValidationError):
            osc.concurrence(cat, [0], model.propagator.bundle(1.0))

    def test_bad_partition_rejected(self):
        model = _free_model()
        cat = osc.build_cat_family(2, 1, 0, 0.8)
        bundle = model.propagator.bundle(0.0)
        with pytest.raises(ValidationError):
            osc.concurrence(cat, [], bundle)
        with pytest.raises(ValidationError):
            osc.concurrence(cat, [0, 1], bundle)


class TestPathologyRegression:
    def test_naive_estimator_diverges_but_ours_is_finite(self):
        # At nbar = |alpha|^2 / (1 - 2 |alpha|^2) the naive interference-only
        # estimate has a vanishing denominator; the split definition stays
        # finite and positive.
        alpha2 = 0.25
        nbar = alpha2 / (1 - 2 * alpha2)
        assert_allclose(nbar, 0.5)
        naive_denominator = alpha2 * (1 + 2 * nbar) - nbar
        assert abs(naive_denominator) < 1e-15  # symbolic divergence point

        model = white_model(n=1, gamma=0.05, nbar=nbar)
        cat = osc.build_cat_family(1, 1, 0, math.sqrt(alpha2))
        grid = np.linspace(0.0, 400.0, 80)
        report = osc.decoherence_report(cat, model, grid)
        assert math.isinf(report.tau_int)
        assert 0 < report.tau_d < math.inf
        assert_allclose(report.tau_d, report.tau_diff, rtol=1e-12)

    def test_coherent_state_diffusion_limited(self):
        nbar = 0.5
        model = white_model(n=1, gamma=0.05, nbar=nbar)
        state = osc.single_coherent_state([0.9])
        report = osc.decoherence_report(state, model, np.linspace(0.0, 10.0, 5))
        rate = model.rates.damping[0, 0]
        assert math.isinf(report.tau_int)
        assert_allclose(report.tau_d, 1.0 / (2 * rate * nbar), rtol=1e-6)
