import numpy as np
import pytest
from numpy.testing import assert_allclose

import oscnet as osc
from oscnet import states
from oscnet.errors import NullState, ValidationError

from conftest import two_branch_mixture, white_model


class TestCoherentOverlap:
    def test_self_overlap(self):
        beta = np.array([0.7 - 0.2j, 1.1j])
        assert_allclose(osc.coherent_overlap(beta, beta), 1.0, rtol=1e-14)

    def test_opposite_displacement(self):
        # |<a|-a>| = exp(-2 |a|^2), representable well below double underflow.
        alpha = np.array([np.sqrt(30.0)])
        value = osc.coherent_overlap(alpha, -alpha)
        assert_allclose(value, np.exp(-60.0), rtol=1e-12)

    def test_exponent_assembled_before_exp(self):
        # Intermediate factors would underflow separately; the assembled
        # exponent only underflows when the true value does.
        alpha = np.array([20.0])
        value = osc.coherent_overlap(alpha, np.array([20.0 + 1e-8j]))
        assert abs(value) > 0.9


class TestCatFamily:
    def test_even_cat_normalization(self):
        # Overlap <a|-a> = exp(-2|a|^2) gives N+ = [2(1+exp(-2|a|^2))]^{-1/2}.
        alpha = 1.0
        cat = osc.build_cat_family(1, 1, 0, alpha, sign=+1)
        expected = (2 * (1 + np.exp(-2 * abs(alpha) ** 2))) ** -0.5
        coeffs = [c.coefficient for c in cat.branches[0].components]
        assert_allclose(coeffs, [expected, expected], rtol=1e-13)

    def test_odd_cat_normalization(self):
        alpha = 0.8
        cat = osc.build_cat_family(1, 1, 0, alpha, sign=-1)
        expected = (2 * (1 - np.exp(-2 * abs(alpha) ** 2))) ** -0.5
        coeffs = [c.coefficient for c in cat.branches[0].components]
        assert_allclose(coeffs, [expected, -expected], rtol=1e-13)

    def test_block_layout(self):
        cat = osc.build_cat_family(3, 1, 1, 0.9 + 0.1j, beta=0.3j)
        first, second = cat.branches[0].components
        assert_allclose(first.amplitudes, [0.9 + 0.1j, -0.9 - 0.1j, 0.3j])
        assert_allclose(second.amplitudes, [-0.9 - 0.1j, 0.9 + 0.1j, 0.3j])

    def test_too_many_blocks_rejected(self):
        with pytest.raises(ValidationError):
            osc.build_cat_family(2, 2, 1, 1.0)

    def test_null_odd_state_rejected(self):
        with pytest.raises(NullState):
            osc.build_cat_family(2, 1, 0, 0.0, sign=-1)

    def test_degenerate_even_state_allowed(self):
        # alpha = 0 with the plus sign collapses to a coherent product state.
        cat = osc.build_cat_family(2, 1, 0, 0.0, beta=0.5, sign=+1)
        total = sum(c.coefficient for c in cat.branches[0].components)
        assert_allclose(abs(total), 1.0, rtol=1e-12)


class TestMixtures:
    def test_weights_must_sum_to_one(self):
        good = osc.coherent_superposition([1.0], [[0.2]], probability=0.5)
        with pytest.raises(ValidationError):
            osc.coherent_mixture([good])

    def test_nan_weight_rejected(self):
        nan = osc.coherent_superposition([1.0], [[0.2]], probability=float("nan"))
        with pytest.raises(ValidationError, match="sum to nan"):
            osc.coherent_mixture([nan])
        with pytest.raises(ValidationError, match="sum to nan"):
            osc.fock_mixture([(float("nan"), {(1,): 1.0})])

    def test_overflowing_norm_rejected(self):
        # |1e308|^2 overflows; normalizing by it would zero every coefficient.
        with pytest.raises(ValidationError, match="not finite"):
            osc.coherent_superposition([1e308, 1.0], [[0.5], [0.1]])

    def test_mode_count_must_match(self):
        a = osc.coherent_superposition([1.0], [[0.2]], probability=0.5)
        b = osc.coherent_superposition([1.0], [[0.2, 0.1]], probability=0.5)
        with pytest.raises(ValidationError):
            osc.coherent_mixture([a, b])

    def test_single_branch_accessor(self):
        state = osc.single_coherent_state([0.3, 0.1j])
        assert state.single_branch().probability == 1.0
        mixed = osc.coherent_mixture(
            [
                osc.coherent_superposition([1.0], [[0.3]], probability=0.5),
                osc.coherent_superposition([1.0], [[-0.3]], probability=0.5),
            ]
        )
        with pytest.raises(ValidationError):
            mixed.single_branch()


class TestPairRecord:
    def test_flattens_the_branches(self):
        state = two_branch_mixture()
        betas, coeffs, logw = state.pairs
        comps = [c for b in state.branches for c in b.components]
        assert np.array_equal(betas, [c.amplitudes for c in comps])
        assert np.array_equal(coeffs, [c.coefficient for c in comps])
        # Within a branch, exp(logw) = p conj(c_r) c_s <beta_r|beta_s>.
        first = state.branches[0]
        expected = first.probability * np.conj(coeffs[0]) * coeffs[1] * osc.coherent_overlap(
            betas[0], betas[1]
        )
        assert_allclose(np.exp(logw[0, 1]), expected, rtol=1e-13)
        assert np.all(np.isneginf(logw[:2, 2].real)) and np.all(np.isneginf(logw[2, :2].real))
        for array in (betas, coeffs, logw):
            assert not array.flags.writeable

    def test_built_once_per_mixture(self, monkeypatch):
        model = white_model(n=2, coupling=0.1, gamma=0.05, nbar=0.5)
        ring = osc.fock_state_ring([1, 1], radius=0.6, points=4)
        calls = []
        original = states._log_overlaps
        monkeypatch.setattr(
            states, "_log_overlaps", lambda a, b: calls.append(a.shape) or original(a, b)
        )
        for t in (0.0, 0.5, 2.0, 8.0):
            osc.linear_entropy(ring, model.propagator.bundle(t))
        bundle = model.propagator.bundle(1.0)
        osc.char_function(ring, np.zeros(2), bundle)
        osc.moments(ring, bundle)
        osc.wigner_grid(ring, bundle, [(-1.0, 1.0, -1.0, 1.0)] * 2, 3)
        assert calls == [(16, 2)]
        assert ring.pairs is ring.pairs


class TestAmplitudeBound:
    """An amplitude vector's norm is bounded where the overlap exponents'
    rounding, a few 1e-15 |a|^2, still leaves a pure state's entropy within
    the oracle tolerance of 1e-6."""

    @staticmethod
    def _bundle():
        net = osc.degenerate_symmetric_network(2, 1.0, 0.1)
        res = osc.ReservoirSpec(temperatures=[0.3, 0.3], profiles=(osc.WhiteNoise(0.05),) * 2)
        return osc.build_model(net, res).propagator.bundle(0.0)

    def test_cat_at_the_bound_stays_pure(self):
        # R = S = 1: the amplitude vector (alpha, -alpha) has norm sqrt(2) alpha.
        alpha = states._AMPLITUDE_MAX / np.sqrt(2.0)
        cat = osc.build_cat_family(2, 1, 1, alpha)
        assert np.linalg.norm(cat.branches[0].components[0].amplitudes) <= states._AMPLITUDE_MAX
        assert abs(osc.linear_entropy(cat, self._bundle())) <= 1e-6

    def test_past_the_bound_refused(self):
        bound = states._AMPLITUDE_MAX
        with pytest.raises(ValidationError, match="norm above"):
            osc.build_cat_family(2, 1, 1, 1.0001 * bound / np.sqrt(2.0))
        osc.single_coherent_state([bound, 0.0])
        for amplitudes in ([np.nextafter(bound, np.inf), 0.0], [0.8 * bound, 0.8j * bound]):
            with pytest.raises(ValidationError, match="norm above"):
                osc.single_coherent_state(amplitudes)


class TestFockMixture:
    def test_normalization(self):
        state = osc.fock_mixture([(1.0, {(0,): 1.0, (2,): 1.0})])
        coeffs = dict(state.branches[0].coefficients)
        assert_allclose(abs(coeffs[(0,)]) ** 2 + abs(coeffs[(2,)]) ** 2, 1.0)

    def test_negative_occupation_rejected(self):
        with pytest.raises(ValidationError):
            osc.fock_mixture([(1.0, {(-1,): 1.0})])

    def test_max_occupation(self):
        state = osc.fock_mixture([(0.4, {(0, 1): 1.0}), (0.6, {(3, 0): 1.0})])
        assert state.max_occupation == 3
        assert state.n_modes == 2

    def test_ring_orders(self):
        ring = osc.fock_state_ring([2], radius=0.4, points=10)
        assert len(ring.branches[0].components) == 10
        ring0 = osc.fock_state_ring([0])
        assert len(ring0.branches[0].components) == 1
