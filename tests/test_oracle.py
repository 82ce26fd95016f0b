import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oscnet as osc
from oscnet.errors import CutoffOverflow, ValidationError

from conftest import white_model


class TestFockSpace:
    def test_commutators(self):
        space = osc.FockSpace(2, 4)
        for m in range(2):
            comm = (
                space.lowering[m] @ space.raising[m]
                - space.raising[m] @ space.lowering[m]
            )
            # canonical commutator holds away from the truncation corner
            probe = space.fock_vector([1, 1])
            assert_allclose(probe @ comm @ probe, 1.0)
        cross = (
            space.lowering[0] @ space.raising[1]
            - space.raising[1] @ space.lowering[0]
        )
        assert np.max(np.abs(cross)) < 1e-14

    def test_coherent_vector_moments(self):
        space = osc.FockSpace(1, 25)
        alpha = 0.9 - 0.4j
        vec = space.coherent_vector([alpha])
        rho = np.outer(vec, vec.conj())
        assert_allclose(osc.expect_lowering(rho, space)[0], alpha, atol=1e-10)

    def test_tail_mass_guard(self):
        space = osc.FockSpace(1, 6)
        with pytest.raises(ValidationError):
            space.coherent_vector([2.0])

    def test_select_cutoff_rule(self):
        assert osc.select_cutoff(1.0, 0.5) == math.ceil(1 + 6 + 6 + 5)
        assert osc.select_cutoff(0.0, 0.0) == 6


class TestLiouvillian:
    def test_vacuum_stationary_at_zero_temperature(self):
        space = osc.FockSpace(2, 3)
        h = np.diag([1.0, 1.3])
        damping = np.diag([0.2, 0.3])
        rho = np.outer(space.fock_vector([0, 0]), space.fock_vector([0, 0]))
        out = osc.liouvillian_apply(rho, h, damping, np.zeros((2, 2)), space)
        assert np.max(np.abs(out)) < 1e-14

    def test_trace_preserving(self, rng):
        space = osc.FockSpace(2, 3)
        h = np.array([[1.0, 0.2], [0.2, 1.1]])
        damping = np.diag([0.2, 0.3])
        diffusion = np.array([[0.1, 0.02], [0.02, 0.15]])
        raw = rng.normal(size=(space.dim, space.dim)) + 1j * rng.normal(
            size=(space.dim, space.dim)
        )
        rho = raw @ raw.conj().T
        rho /= np.trace(rho)
        out = osc.liouvillian_apply(rho, h, damping, diffusion, space)
        assert abs(np.trace(out)) < 1e-12

    def test_single_mode_number_decay(self):
        # d<n>/dt = -gamma <n> for |1><1| at T = 0.
        space = osc.FockSpace(1, 4)
        gamma = 0.37
        rho = np.outer(space.fock_vector([1]), space.fock_vector([1]))
        out = osc.liouvillian_apply(
            rho, np.array([[1.0]]), np.array([[gamma]]), np.zeros((1, 1)), space
        )
        number = space.raising[0] @ space.lowering[0]
        assert_allclose(np.trace(number @ out).real, -gamma, rtol=1e-12)


class TestEvolveMaster:
    def test_coherent_amplitude_decay(self):
        model = white_model(n=1, gamma=0.3, nbar=0.0)
        alpha = 0.8 + 0.2j
        state = osc.single_coherent_state([alpha])
        space = osc.FockSpace(1, 14)
        rho0 = osc.density_from_coherent(space, state)
        times = np.array([0.0, 0.5, 1.5, 3.0])
        snaps = osc.evolve_master(
            rho0, model.hamiltonian, model.rates.damping, model.rates.diffusion,
            times, space,
        )
        gamma = model.rates.damping[0, 0]
        for snap in snaps:
            expected = alpha * np.exp(-(gamma / 2 + 1j * 1.0) * snap.t)
            got = osc.expect_lowering(snap.rho, space)[0]
            assert abs(got - expected) < 1e-7

    def test_thermal_fixed_point(self):
        nbar = 0.5
        model = white_model(n=1, gamma=0.4, nbar=nbar)
        state = osc.single_coherent_state([0.3])
        space = osc.FockSpace(1, 16)
        rho0 = osc.density_from_coherent(space, state)
        snaps = osc.evolve_master(
            rho0, model.hamiltonian, model.rates.damping, model.rates.diffusion,
            np.array([60.0]), space,
        )
        number = osc.expect_number_matrix(snaps[0].rho, space)[0, 0].real
        assert abs(number - nbar) < 1e-5

    def test_excitation_swap_between_modes(self):
        # Single excitation oscillates at the normal-mode splitting with a
        # uniform envelope; matches |T(t)[m, 0]|^2 from the analytic propagator.
        model = white_model(n=2, coupling=0.2, gamma=0.05, nbar=0.0)
        space = osc.FockSpace(2, 3)
        rho0 = np.outer(space.fock_vector([1, 0]), space.fock_vector([1, 0]))
        times = np.linspace(0.0, 2 * np.pi / 0.4, 9)  # splitting = 2 lam = 0.4
        snaps = osc.evolve_master(
            rho0, model.hamiltonian, model.rates.damping, model.rates.diffusion,
            times, space,
        )
        for snap in snaps:
            trans = osc.transition_matrix(model.dissipative, snap.t)
            numbers = osc.expect_number_matrix(snap.rho, space)
            assert_allclose(
                np.diag(numbers).real, np.abs(trans[:, 0]) ** 2, atol=1e-7
            )

    def test_cutoff_overflow_detected(self):
        # Hot reservoir pushes population into the cutoff level.
        nbar = 3.0
        model = white_model(n=1, gamma=0.5, nbar=nbar)
        state = osc.single_coherent_state([0.0])
        space = osc.FockSpace(1, 6)
        rho0 = osc.density_from_coherent(space, state)
        with pytest.raises(CutoffOverflow):
            osc.evolve_master(
                rho0, model.hamiltonian, model.rates.damping,
                model.rates.diffusion, np.array([40.0]), space,
            )

    def test_snapshots_validated(self):
        model = white_model(n=1, gamma=0.3, nbar=0.2)
        state = osc.single_coherent_state([0.4])
        space = osc.FockSpace(1, 12)
        rho0 = osc.density_from_coherent(space, state)
        snaps = osc.evolve_master(
            rho0, model.hamiltonian, model.rates.damping, model.rates.diffusion,
            np.array([0.0, 1.0, 2.5]), space,
        )
        assert [s.t for s in snaps] == [0.0, 1.0, 2.5]
        assert all(s.trace_defect < 1e-9 for s in snaps)


class TestOracleChar:
    def test_normalization(self, rng):
        space = osc.FockSpace(1, 10)
        vec = space.coherent_vector([0.6])
        rho = np.outer(vec, vec.conj())
        assert_allclose(osc.oracle_char(rho, [0.0], space), 1.0, atol=1e-12)

    def test_vacuum_constant(self):
        space = osc.FockSpace(1, 10)
        rho = np.outer(space.fock_vector([0]), space.fock_vector([0]))
        for eta in (0.3, 0.7j, -0.4 + 0.2j):
            assert_allclose(osc.oracle_char(rho, [eta], space), 1.0, atol=1e-12)

    def test_coherent_phase(self):
        space = osc.FockSpace(1, 22)
        beta = 0.7 - 0.3j
        vec = space.coherent_vector([beta])
        rho = np.outer(vec, vec.conj())
        eta = 0.4 + 0.5j
        expected = np.exp(eta * np.conj(beta) - np.conj(eta) * beta)
        assert_allclose(osc.oracle_char(rho, [eta], space), expected, atol=1e-9)

    def test_truncation_warning(self):
        space = osc.FockSpace(1, 4)
        rho = np.outer(space.fock_vector([0]), space.fock_vector([0]))
        with pytest.warns(UserWarning):
            osc.oracle_char(rho, [2.5], space)

    def test_truncation_warning_follows_cutoff_population(self):
        # The polynomials are exact on the kept levels, so the same eta warns
        # for a state that fills the cutoff and not for one far below it.
        space = osc.FockSpace(1, 8)
        low = np.outer(space.fock_vector([1]), space.fock_vector([1]))
        top = np.outer(space.fock_vector([8]), space.fock_vector([8]))
        mixed = 0.5 * (np.outer(space.fock_vector([0]), space.fock_vector([0])) + top)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            osc.oracle_char(low, [1.0], space)
        for rho in (top, mixed):
            with pytest.warns(UserWarning, match="large for this cutoff"):
                osc.oracle_char(rho, [1.0], space)


class TestPurityAndPartialTrace:
    def test_pure_state(self):
        space = osc.FockSpace(1, 8)
        vec = space.coherent_vector([0.5])
        rho = np.outer(vec, vec.conj())
        rho /= np.trace(rho).real
        assert_allclose(osc.oracle_purity(rho), 1.0, atol=1e-10)

    def test_maximally_mixed(self):
        dim = 5
        rho = np.eye(dim) / dim
        assert_allclose(osc.oracle_purity(rho), 1.0 / dim, rtol=1e-14)

    def test_product_factorization(self):
        space = osc.FockSpace(2, 10)
        single = osc.FockSpace(1, 10)
        va = single.coherent_vector([0.4])
        vb = single.fock_vector([1])
        rho_a = np.outer(va, va.conj())
        rho_a /= np.trace(rho_a).real
        rho_b = np.outer(vb, vb.conj())
        rho = np.kron(rho_a, rho_b)
        assert_allclose(osc.oracle_partial_trace(rho, [0], space), rho_a, atol=1e-13)
        assert_allclose(osc.oracle_partial_trace(rho, [1], space), rho_b, atol=1e-13)

    def test_gaussian_sector_second_moments(self):
        # <a_m^dag a_n> from the oracle matches the analytic K/J combination.
        model = white_model(n=2, coupling=0.15, gamma=0.06, nbar=0.6)
        state = osc.build_cat_family(2, 1, 0, 0.9)
        space = osc.FockSpace(2, 12)
        rho0 = osc.density_from_coherent(space, state)
        snaps = osc.evolve_master(
            rho0, model.hamiltonian, model.rates.damping, model.rates.diffusion,
            np.array([1.3]), space,
        )
        bundle = model.propagator.bundle(1.3)
        _, second = osc.moments(state, bundle)
        assert (
            np.max(np.abs(second - osc.expect_number_matrix(snaps[0].rho, space)))
            < 1e-5
        )
