import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oscnet as osc
from oscnet.errors import SingularWidth, ValidationError

from conftest import dense_propagator, random_instance, white_model


class TestTransitionMatrix:
    def test_identity_at_zero(self, rng):
        _, _, _, dis = random_instance(rng, 3)
        assert_allclose(osc.transition_matrix(dis, 0.0), np.eye(3), atol=1e-14)

    def test_scalar_decay(self):
        gamma, omega, t = 0.4, 1.3, 0.9
        dis = osc.dissipative_matrix(np.array([[omega]]), np.array([[gamma]]))
        expected = np.exp(-(gamma / 2 + 1j * omega) * t)
        assert_allclose(osc.transition_matrix(dis, t), [[expected]], rtol=1e-14)

    def test_semigroup(self, rng):
        for n in (2, 4):
            _, _, _, dis = random_instance(rng, n)
            t1, t2 = 0.37, 1.12
            lhs = osc.transition_matrix(dis, t1 + t2)
            rhs = osc.transition_matrix(dis, t1) @ osc.transition_matrix(dis, t2)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_negative_time_rejected(self, rng):
        _, _, _, dis = random_instance(rng, 2)
        with pytest.raises(ValidationError):
            osc.transition_matrix(dis, -0.1)

    def test_exponent_past_float_range_refused_without_warning(self):
        # Im(lambda) t = 5e308 would reach exp as inf and come back nan.
        dis = osc.dissipative_matrix(np.array([[1e308]]), np.array([[0.05]]))
        for vectors in (None, np.array([1.0 + 0j])):
            with pytest.raises(ValidationError, match=r"x time 5 overflows the float range"):
                osc.transition_matrix(dis, 5.0, vectors)
        assert np.all(np.isfinite(osc.transition_matrix(dis, 1e-300)))

    def test_eta_flow_derivative(self, rng):
        # d eta / dt = -eta . conj(G) checked by central finite differences.
        _, _, _, dis = random_instance(rng, 3)
        eta0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        t, h = 0.8, 1e-6
        plus = osc.eta_flow(osc.transition_matrix(dis, t + h), eta0)
        minus = osc.eta_flow(osc.transition_matrix(dis, t - h), eta0)
        numeric = (plus - minus) / (2 * h)
        exact = -osc.eta_flow(osc.transition_matrix(dis, t), eta0) @ dis.matrix.conj()
        assert np.max(np.abs(numeric - exact)) < 1e-6


class TestNoiseWidth:
    def test_zero_at_start(self, rng):
        _, _, diffusion, dis = random_instance(rng, 3)
        pi = osc.solve_pi_eigen(dis, diffusion).matrix
        j0 = osc.noise_width(pi, osc.transition_matrix(dis, 0.0))
        assert np.max(np.abs(j0)) < 1e-12

    def test_scalar_formula(self):
        # J(t) = 2 nbar (1 - exp(-gamma_eff t)) for one oscillator.
        model = white_model(n=1, gamma=0.3, nbar=0.7)
        gamma_eff = model.rates.damping[0, 0]
        for t in (0.2, 1.0, 3.7):
            bundle = model.propagator.bundle(t)
            assert_allclose(
                bundle.noise[0, 0].real,
                2 * 0.7 * (1 - np.exp(-gamma_eff * t)),
                rtol=1e-12,
            )

    def test_long_time_limit(self, rng):
        _, _, diffusion, dis = random_instance(rng, 3)
        pi = osc.solve_pi_eigen(dis, diffusion).matrix
        horizon = 10.0 / dis.eigenvalues.real.min()
        j_inf = osc.noise_width(pi, osc.transition_matrix(dis, horizon))
        assert np.max(np.abs(j_inf - pi)) < 1e-6

    def test_trace_nondecreasing(self, rng):
        _, _, diffusion, dis = random_instance(rng, 3)
        pi = osc.solve_pi_eigen(dis, diffusion).matrix
        traces = [
            np.trace(osc.noise_width(pi, osc.transition_matrix(dis, t))).real
            for t in np.linspace(0, 6, 25)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(traces, traces[1:]))


class TestCentroid:
    def test_initial_value(self, rng):
        _, _, _, dis = random_instance(rng, 2)
        beta = np.array([0.3 + 0.4j, -0.2j])
        assert_allclose(
            osc.centroid(osc.transition_matrix(dis, 0.0), beta), beta, atol=1e-14
        )

    def test_scalar(self):
        dis = osc.dissipative_matrix(np.array([[1.0]]), np.array([[0.2]]))
        t = 1.4
        out = osc.centroid(osc.transition_matrix(dis, t), np.array([2.0]))
        assert_allclose(out, [2.0 * np.exp(-(0.1 + 1j) * t)], rtol=1e-13)

    def test_contraction(self, rng):
        for n in (2, 3):
            _, _, _, dis = random_instance(rng, n)
            beta = rng.normal(size=n) + 1j * rng.normal(size=n)
            for t in (0.1, 0.9, 4.0):
                moved = osc.centroid(osc.transition_matrix(dis, t), beta)
                assert np.linalg.norm(moved) <= np.linalg.norm(beta) + 1e-12


class TestRotatedFrame:
    def test_identity_width(self):
        rotation, coeffs = osc.rotate_frame(np.eye(3))
        assert_allclose(rotation, np.eye(3), atol=1e-14)
        assert_allclose(coeffs, 1.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_width_refused(self, value):
        width = np.array([[0.1, value], [value, 0.2]])
        for call in (
            lambda: osc.rotate_frame(width),
            lambda: osc.rotate_frame(width, vectors=False),
            lambda: osc.rotate_frame(np.diag(width) * value),
            lambda: osc.directional_diffusion_times(width),
        ):
            with pytest.raises(ValidationError, match="non-finite entry"):
                call()

    def test_weak_regime_uniform(self):
        model = white_model(n=3, coupling=0.001, gamma=0.05, nbar=0.6, regime="weak")
        rate = model.rates.damping[0, 0]
        for t in (0.5, 2.0, 8.0):
            bundle = model.propagator.bundle(t)
            expected = 1 + 2 * 0.6 * (1 - np.exp(-rate * t))
            assert_allclose(bundle.diffusion_coeffs, expected, rtol=1e-10)
            assert_allclose(bundle.rotation, np.eye(3), atol=1e-9)

    def test_strong_regime_split(self):
        # Degenerate symmetric network, collective mode lowest (negative
        # coupling), cold enough that only it is thermally active: one
        # enhanced coefficient, the rest stay at one.
        n, gamma, temp = 3, 0.05, 0.045
        net = osc.degenerate_symmetric_network(n, 1.0, -0.25)
        res = osc.ReservoirSpec(
            temperatures=[temp] * n, profiles=(osc.WhiteNoise(gamma),) * n
        )
        model = osc.build_model(net, res)
        w_coll = 1.0 - 0.25 * (n - 1)
        nbar = osc.mean_occupation(temp, w_coll)
        for t in (0.7, 2.0, 6.0):
            bundle = model.propagator.bundle(t)
            assert_allclose(bundle.diffusion_coeffs[:-1], 1.0, atol=1e-10)
            assert_allclose(
                bundle.diffusion_coeffs[-1],
                1 + 2 * nbar * (1 - np.exp(-n * gamma * t)),
                rtol=1e-8,
            )

    def test_uniform_noise_structure(self):
        # Same configuration: the noise matrix is (2 nbar / N)(1 - e^{-N g t})
        # times the all-ones matrix.
        n, gamma, temp = 4, 0.05, 0.045
        net = osc.degenerate_symmetric_network(n, 1.0, -0.25)
        res = osc.ReservoirSpec(
            temperatures=[temp] * n, profiles=(osc.WhiteNoise(gamma),) * n
        )
        model = osc.build_model(net, res)
        nbar = osc.mean_occupation(temp, 1.0 - 0.25 * (n - 1))
        for t in (0.9, 3.0):
            bundle = model.propagator.bundle(t)
            target = (2 * nbar / n) * (1 - np.exp(-n * gamma * t)) * np.ones((n, n))
            assert np.max(np.abs(bundle.noise - target)) < 1e-8

    def test_diagonalization(self, rng):
        _, _, diffusion, dis = random_instance(rng, 4)
        pi = osc.solve_pi_eigen(dis, diffusion).matrix
        prop = osc.Propagator(dis, osc.StationaryWidth(pi, 0.0))
        bundle = prop.bundle(1.3)
        rebuilt = (
            bundle.rotation.conj().T @ bundle.wigner_width @ bundle.rotation
        )
        assert np.max(np.abs(rebuilt - np.diag(bundle.diffusion_coeffs))) < 1e-10


class TestBundles:
    def test_invariants(self, rng):
        _, _, diffusion, dis = random_instance(rng, 3)
        width = osc.solve_pi_eigen(dis, diffusion)
        prop = osc.Propagator(dis, width)
        for t in (0.0, 0.6, 2.4):
            bundle = prop.bundle(t)
            n = bundle.n
            assert np.max(np.abs(
                bundle.rotation @ bundle.rotation.conj().T - np.eye(n))) < 1e-12
            assert bundle.diffusion_coeffs.min() >= 1 - 1e-10
            assert np.all(np.diff(bundle.diffusion_coeffs) >= -1e-12)
            assert abs(
                bundle.diffusion_coeffs.sum() - np.trace(bundle.wigner_width).real
            ) < 1e-10
            assert abs(
                bundle.diffusion_coeffs.sum() - (n + np.trace(bundle.noise).real)
            ) < 1e-10


class TestInverseForm:
    """The dense route's one quadratic-form path, through the Cholesky factor."""

    def test_block_matches_the_per_column_forms(self, rng):
        bundle = dense_propagator(white_model(n=3, coupling=0.1, nbar=0.5)).bundle(1.3)
        assert bundle.frame is None
        vectors = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
        block = bundle.inverse_form(vectors)
        assert np.array_equal(block, block.conj().T)
        form = bundle.inverse_form
        expected = np.empty((4, 4), dtype=complex)
        for a, b in itertools.product(range(4), repeat=2):
            # Polarization: v_a^T W^-1 conj(v_b) from forms of single vectors.
            va, vb = vectors[:, a], vectors[:, b]
            re = form(va + vb) - form(va) - form(vb)
            im = form(va + 1j * vb) - form(va) - form(vb)
            expected[a, b] = 0.5 * (re + 1j * im)
        assert np.max(np.abs(block - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize(
        "entry, message",
        [(np.inf, "a non-finite entry"), (np.nan, "a non-finite entry"), (1.7e308, "smallest")],
    )
    def test_width_past_the_float_range_refused_without_warning(self, entry, message):
        # 1.7e308 is finite, but halving the sum of the width and its adjoint
        # would overflow.
        bundle = dataclasses.replace(
            dense_propagator(white_model(n=2, coupling=0.1)).bundle(1.0),
            wigner_width=np.array([[1.0, entry], [entry, 1.0]], dtype=complex),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            refusal = rf"t = 1\.0 is not positive definite: .*{message}"
            for vectors in (np.array([1.0, 0.5j]), np.eye(2, dtype=complex)):
                with pytest.raises(SingularWidth, match=refusal):
                    bundle.inverse_form(vectors)
            with pytest.raises(SingularWidth, match=message):
                osc.wigner(osc.build_cat_family(2, 1, 0, 0.5), np.zeros(2), bundle)


class TestDiffusionCoeffs:
    def test_indefinite_width_refused(self):
        bundle = dataclasses.replace(
            white_model(n=3, coupling=0.1).propagator.bundle(1.0),
            wigner_width=np.diag([-0.5, -0.5, 3.0]) + 0j,
        )
        with pytest.raises(SingularWidth, match=r"t = 1\.0 is not positive definite: smallest"):
            bundle.diffusion_coeffs

    @pytest.mark.parametrize(
        "entry, message",
        [(np.inf, "a non-finite entry"), (np.nan, "a non-finite entry"), (1.7e308, "smallest")],
    )
    def test_width_past_the_float_range_refused_without_warning(self, entry, message):
        bundle = dataclasses.replace(
            white_model(n=2, coupling=0.1).propagator.bundle(1.0),
            wigner_width=np.array([[1.0, entry], [entry, 1.0]], dtype=complex),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            refusal = rf"t = 1\.0 is not positive definite: .*{message}"
            with pytest.raises(SingularWidth, match=refusal):
                bundle.diffusion_coeffs

    def test_frame_width_not_positive_refused(self):
        bundle = white_model(n=3, coupling=0.1).propagator.bundle(1.0)
        assert bundle.frame is not None
        bundle.__dict__["frame_width"] = np.array([2.0, 0.0, 1.0])
        with pytest.raises(SingularWidth, match="smallest coefficient 0"):
            bundle.diffusion_coeffs


class TestBuildModel:
    def test_free_evolution_model(self):
        net = osc.degenerate_symmetric_network(2, 1.0, 0.2)
        res = osc.ReservoirSpec(
            temperatures=[0.0, 0.0], profiles=(osc.WhiteNoise(0.0),) * 2
        )
        model = osc.build_model(net, res)
        bundle = model.propagator.bundle(1.0)
        unit = bundle.transition.conj().T @ bundle.transition
        assert np.max(np.abs(unit - np.eye(2))) < 1e-12
        assert np.max(np.abs(bundle.noise)) == 0.0

    def test_zero_temperature_width(self):
        model = white_model(n=2, coupling=0.1, gamma=0.05, nbar=0.0)
        assert np.max(np.abs(model.width.matrix)) == 0.0

    def test_damped_drive_without_loss_rejected(self):
        # Diffusion without damping has no stationary width.
        net = osc.NetworkSpec(omega=[1.0], coupling=[[0.0]])
        res = osc.ReservoirSpec(temperatures=[0.5], profiles=(osc.WhiteNoise(0.0),))
        # zero damping and zero diffusion -> fine (free model)
        osc.build_model(net, res)

    def test_regime_label_recorded(self):
        model = white_model(n=2, coupling=0.2, gamma=0.05, nbar=0.1)
        assert model.regime == "strong"

    def test_size_mismatch(self):
        net = osc.NetworkSpec(omega=[1.0], coupling=[[0.0]])
        res = osc.ReservoirSpec(
            temperatures=[0.5, 0.5], profiles=(osc.WhiteNoise(0.1),) * 2
        )
        with pytest.raises(ValidationError):
            osc.build_model(net, res)
