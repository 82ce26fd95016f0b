import numpy as np
import pytest
from numpy.testing import assert_allclose

import oscnet as osc
from oscnet.errors import SingularSystem, ValidationError

from conftest import random_instance


class TestKronSum:
    def test_scalar(self):
        assert_allclose(osc.kron_sum(np.array([[2.0]]), np.array([[3.0]])), [[5.0]])

    def test_diagonal(self):
        m = np.diag([1.0, 2.0])
        n = np.diag([10.0, 20.0])
        # column-stacking convention: vec index runs down columns first
        assert_allclose(np.diag(osc.kron_sum(m, n)), [11.0, 12.0, 21.0, 22.0])

    def test_eigenvalues_are_pairwise_sums(self, rng):
        # Brute-force oracle: eigensolve both sides, compare as multisets.
        m = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        n = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        combined = np.linalg.eigvals(osc.kron_sum(m, n))
        em = np.linalg.eigvals(m)
        en = np.linalg.eigvals(n)
        pairwise = np.array([a + b for b in en for a in em])
        key = lambda z: (round(z.real, 8), round(z.imag, 8))
        assert sorted(map(key, combined)) == pytest.approx(
            sorted(map(key, pairwise)), abs=1e-7
        )

    def test_vec_identity(self, rng):
        # kron_sum(M, N) vec(X) == vec(M X + X N.T) under Fortran-order vec.
        m = rng.normal(size=(3, 3))
        n = rng.normal(size=(3, 3))
        x = rng.normal(size=(3, 3))
        lhs = osc.kron_sum(m, n) @ x.reshape(-1, order="F")
        rhs = (m @ x + x @ n.T).reshape(-1, order="F")
        assert_allclose(lhs, rhs, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            osc.kron_sum(np.eye(2), np.eye(3))


def _scalar_instance(gamma=0.4, omega=1.1, nbar=0.8):
    dis = osc.dissipative_matrix(np.array([[omega]]), np.array([[gamma]]))
    return dis, np.array([[gamma * nbar]])


class TestSolveRoutes:
    def test_scalar_width_vec(self):
        # Scalar algebra: (g/2 - iw) P + P (g/2 + iw) = 2 g nbar  =>  P = 2 nbar.
        dis, diffusion = _scalar_instance(nbar=0.8)
        width = osc.solve_pi_vec(dis, diffusion)
        assert_allclose(width.matrix, [[1.6]], atol=1e-12)
        assert width.residual < 1e-12

    def test_scalar_width_eigen(self):
        dis, diffusion = _scalar_instance(nbar=0.8)
        assert_allclose(osc.solve_pi_eigen(dis, diffusion).matrix, [[1.6]], atol=1e-12)

    def test_zero_diffusion(self):
        dis, _ = _scalar_instance()
        assert_allclose(osc.solve_pi_vec(dis, np.zeros((1, 1))).matrix, 0.0, atol=0.0)

    def test_hand_built_linear_system(self, rng):
        # Independent oracle: assemble the 4x4 system with explicit loops.
        h = np.array([[1.0, 0.15], [0.15, 1.2]])
        damping = np.diag([0.3, 0.22])
        raw = rng.normal(size=(2, 2))
        diffusion = 0.1 * (raw @ raw.T)
        dis = osc.dissipative_matrix(h, damping)
        hd = dis.matrix
        system = np.zeros((4, 4), dtype=complex)
        rhs = np.zeros(4, dtype=complex)
        def flat(m, n):  # column stacking: (m, n) -> m + 2 n
            return m + 2 * n
        for m in range(2):
            for n in range(2):
                row = flat(m, n)
                rhs[row] = diffusion[m, n] + diffusion[n, m]
                for ell in range(2):
                    system[row, flat(ell, n)] += hd.conj()[m, ell]
                    system[row, flat(m, ell)] += hd[n, ell]
        expected = np.linalg.solve(system, rhs).reshape((2, 2), order="F")
        assert_allclose(osc.solve_pi_vec(dis, diffusion).matrix, expected, atol=1e-11)
        assert_allclose(osc.solve_pi_eigen(dis, diffusion).matrix, expected, atol=1e-11)

    def test_degenerate_symmetric_thermal_width(self):
        # Uniform white-noise rates with mode-independent occupation: P = 2 nbar I.
        n, gamma, nbar = 2, 0.05, 0.45
        spec = osc.degenerate_symmetric_network(n, 1.0, 0.1)
        h = osc.build_hamiltonian(spec)
        dis = osc.dissipative_matrix(h, n * gamma * np.eye(n))
        diffusion = n * gamma * nbar * np.eye(n)
        width = osc.solve_pi_vec(dis, diffusion)
        assert_allclose(width.matrix, 2 * nbar * np.eye(n), atol=1e-12)

    def test_diagonal_generator_closed_form(self):
        h = np.diag([1.0, 1.7])
        damping = np.diag([0.3, 0.5])
        diffusion = np.diag([0.12, 0.3])
        dis = osc.dissipative_matrix(h, damping)
        width = osc.solve_pi_eigen(dis, diffusion)
        expected = np.diag(2 * np.diag(diffusion) / np.diag(damping))
        assert_allclose(width.matrix, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_route_equivalence(self, rng, n):
        for _ in range(4):
            _, _, diffusion, dis = random_instance(rng, n)
            a = osc.solve_pi_vec(dis, diffusion)
            b = osc.solve_pi_eigen(dis, diffusion)
            assert np.max(np.abs(a.matrix - b.matrix)) < 1e-9
            assert a.residual < 1e-9 and b.residual < 1e-9

    def test_singular_system_detected(self):
        # Real parts in the (1e-14, 5e-13] band pass the dissipativity check
        # but make the pairwise gap fall under the singularity floor.
        dis = osc.dissipative_matrix(np.array([[1.0]]), np.array([[4e-13]]))
        with pytest.raises(SingularSystem):
            osc.solve_pi_vec(dis, np.array([[0.1]]))
        with pytest.raises(SingularSystem):
            osc.solve_pi_eigen(dis, np.array([[0.1]]))


class TestWidthProperties:
    def test_hermitian_psd_residual(self, rng):
        for n in (2, 3, 4):
            for _ in range(3):
                _, _, diffusion, dis = random_instance(rng, n)
                width = osc.solve_pi_eigen(dis, diffusion)
                assert np.max(np.abs(width.matrix - width.matrix.conj().T)) < 1e-10
                assert np.linalg.eigvalsh(width.matrix).min() > -1e-10
                assert (
                    osc.lyapunov_residual(dis.matrix, width.matrix, diffusion) < 1e-9
                )

    def test_identical_reservoirs_real_symmetric(self, rng):
        # Identical reservoirs: damping proportional to I makes the generator
        # complex symmetric (a true Lyapunov equation) and the physical
        # diffusion matrix shares the mode basis, so the width is real symmetric.
        from conftest import random_symmetric_hamiltonian

        h = random_symmetric_hamiltonian(rng, 3)
        modes = osc.normal_modes(h)
        res = osc.ReservoirSpec(
            temperatures=[0.9] * 3, profiles=(osc.WhiteNoise(0.1),) * 3
        )
        rates = osc.rates_distinct(res, modes)
        dis = osc.dissipative_matrix(h, rates.damping)
        width = osc.solve_pi_eigen(dis, rates.diffusion)
        assert np.max(np.abs(width.matrix.imag)) < 1e-10
        assert np.max(np.abs(width.matrix - width.matrix.T)) < 1e-10

    def test_zero_shortcut(self):
        dis, _ = _scalar_instance()
        width = osc.stationary_width(dis, np.zeros((1, 1)))
        assert width.residual == 0.0
        assert_allclose(width.matrix, 0.0, atol=0.0)

    def test_auto_route_matches_eigen(self, rng):
        _, _, diffusion, dis = random_instance(rng, 3)
        auto = osc.stationary_width(dis, diffusion)
        eig = osc.solve_pi_eigen(dis, diffusion)
        assert np.array_equal(auto.matrix, eig.matrix)


def test_sylvester_fallback_on_a_near_exceptional_chain():
    # A three-mode chain 1e-4 (relative) above the coupling of its exceptional
    # point: the eigenvectors of G have cond 2.1e4, the eigen route's result
    # fails its Hermiticity check, and the Sylvester route takes over.  At
    # 1e-3 above it the eigen route still passes.
    kappa = 0.075 / np.sqrt(2) * (1 + 1e-4)
    network = osc.NetworkSpec(
        omega=[1.0] * 3, coupling=[[0.0, kappa, 0.0], [kappa, 0.0, kappa], [0.0, kappa, 0.0]]
    )
    profiles = tuple(osc.WhiteNoise(gamma) for gamma in (0.15, 0.10, 0.05))
    model = osc.build_model(network, osc.ReservoirSpec([0.5] * 3, profiles))
    dis, diffusion = model.dissipative, model.rates.diffusion
    assert dis.frame is None  # the dense route
    with pytest.raises(ValidationError, match="not Hermitian to tolerance"):
        osc.solve_pi_eigen(dis, diffusion)
    width = osc.stationary_width(dis, diffusion).matrix
    reference = osc.solve_pi_vec(dis, diffusion).matrix
    assert np.max(np.abs(width - reference)) <= 1e-12 * np.max(np.abs(reference))
    assert np.array_equal(model.width.matrix, width)


def test_non_finite_width_is_refused_before_the_fallback(monkeypatch):
    # At T = 1e308 the diffusion matrix is finite (about 1e307) but P passes
    # the float range in the eigen route; the Sylvester fallback would get
    # the same finite inputs and is not reached.
    network = osc.degenerate_symmetric_network(2, 1.0, 0.1)
    reservoirs = osc.ReservoirSpec([1e308] * 2, (osc.WhiteNoise(0.05),) * 2)

    def fallback(*args):
        raise AssertionError("a non-finite width must not reach the fallback")

    monkeypatch.setattr(osc.stationary, "_solve_pi_sylvester", fallback)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SingularSystem, match="stationary width has a non-finite entry"):
            osc.build_model(network, reservoirs)
