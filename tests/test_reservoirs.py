import math
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oscnet as osc
from oscnet.errors import ValidationError

from conftest import random_symmetric_hamiltonian


class TestMeanOccupation:
    def test_zero_temperature(self):
        assert osc.mean_occupation(0.0, 1.0) == 0.0

    def test_unit_occupation(self):
        # exp(omega/T) = 2 at T = 1/ln 2.
        assert_allclose(osc.mean_occupation(1.0 / math.log(2.0), 1.0), 1.0, rtol=1e-14)

    def test_high_temperature(self):
        expected = 1.0 / math.expm1(0.1)
        assert_allclose(osc.mean_occupation(10.0, 1.0), expected, rtol=1e-14)

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            osc.mean_occupation(1.0, 0.0)
        with pytest.raises(ValidationError):
            osc.mean_occupation(1.0, -2.0)
        with pytest.raises(ValidationError):
            osc.mean_occupation(-1.0, 1.0)

    def test_temperature_roundtrip(self):
        temp = osc.temperature_for_occupation(0.37, 1.4)
        assert_allclose(osc.mean_occupation(temp, 1.4), 0.37, rtol=1e-13)

    def test_extreme_ratio_underflows_to_zero(self):
        assert osc.mean_occupation(1e-3, 1.0) == 0.0


class TestProfiles:
    def test_white_noise_flat(self):
        p = osc.WhiteNoise(0.2)
        assert p.rate(0.3) == p.rate(7.0) == 0.2

    def test_lorentzian_peak_and_tail(self):
        p = osc.Lorentzian(gamma=0.2, center=1.0, width=0.1)
        assert_allclose(p.rate(1.0), 0.2)
        assert p.rate(2.0) < 0.01 * p.rate(1.0)

    def test_gaussian_band(self):
        p = osc.GaussianBand(gamma=0.2, center=1.0, width=0.1)
        assert_allclose(p.rate(1.0), 0.2)
        assert_allclose(p.rate(1.1), 0.2 * math.exp(-0.5), rtol=1e-12)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            osc.WhiteNoise(-0.1)


_WHITE2 = (osc.WhiteNoise(0.05),) * 2
# One library record or function per field, with that field set to a value.
_FIELDS = {
    "network.omega": lambda v: osc.NetworkSpec([1.0, v], [[0.0, 0.1], [0.1, 0.0]]),
    "network.coupling": lambda v: osc.NetworkSpec([1.0, 1.0], [[0.0, v], [v, 0.0]]),
    "reservoirs.temperatures": lambda v: osc.ReservoirSpec([0.5, v], _WHITE2),
    "reservoirs.overlap": lambda v: osc.ReservoirSpec(
        [0.5, 0.5], _WHITE2, common=True, overlap=[[1.0, v], [v, 1.0]]
    ),
    "white.gamma": lambda v: osc.WhiteNoise(v),
    "lorentzian.gamma": lambda v: osc.Lorentzian(v, 1.0, 0.5),
    "lorentzian.center": lambda v: osc.Lorentzian(0.1, v, 0.5),
    "lorentzian.width": lambda v: osc.Lorentzian(0.1, 1.0, v),
    "gaussian_band.gamma": lambda v: osc.GaussianBand(v, 1.0, 0.5),
    "gaussian_band.center": lambda v: osc.GaussianBand(0.1, v, 0.5),
    "gaussian_band.width": lambda v: osc.GaussianBand(0.1, 1.0, v),
    "mean_occupation.temperature": lambda v: osc.mean_occupation(v, 1.0),
    "mean_occupation.omega": lambda v: osc.mean_occupation(0.5, v),
    "temperature_for_occupation.nbar": lambda v: osc.temperature_for_occupation(v, 1.0),
    "temperature_for_occupation.omega": lambda v: osc.temperature_for_occupation(0.5, v),
}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("field", list(_FIELDS))
def test_non_finite_number_refused(field, value):
    # The CLI's rule for every number, applied where the value enters.
    _FIELDS[field](1.0)
    with pytest.raises(ValidationError):
        _FIELDS[field](value)


def _identical_white(n, gamma, temp):
    return osc.ReservoirSpec(
        temperatures=[temp] * n, profiles=(osc.WhiteNoise(gamma),) * n
    )


class TestRatesDistinct:
    def test_white_noise_identity_any_topology(self, rng):
        # Orthogonality collapses the mode sum: damping = N gamma I exactly.
        for n in (2, 3, 5):
            h = random_symmetric_hamiltonian(rng, n)
            modes = osc.normal_modes(h)
            rates = osc.rates_distinct(_identical_white(n, 0.07, 0.8), modes)
            assert_allclose(rates.damping, n * 0.07 * np.eye(n), atol=1e-15)

    def test_zero_temperature_diffusion_vanishes(self, rng):
        h = random_symmetric_hamiltonian(rng, 3)
        modes = osc.normal_modes(h)
        rates = osc.rates_distinct(_identical_white(3, 0.07, 0.0), modes)
        assert_allclose(rates.diffusion, 0.0, atol=0.0)

    def test_two_oscillator_hand_sum(self):
        # Independent evaluation of the 2-term mode sums.
        gamma, temp = 0.05, 1.0 / math.log(2.0)
        spec = osc.degenerate_symmetric_network(2, 1.0, 0.1)
        modes = osc.normal_modes(osc.build_hamiltonian(spec))
        rates = osc.rates_distinct(_identical_white(2, gamma, temp), modes)
        c = modes.transform
        nbar = [osc.mean_occupation(temp, w) for w in modes.frequencies]
        expected = np.zeros((2, 2))
        for m in range(2):
            for n in range(2):
                expected[m, n] = 2 * gamma * sum(
                    c[ell, n] * nbar[ell] * c[ell, m] for ell in range(2)
                )
        assert_allclose(rates.diffusion, expected, atol=1e-15)

    def test_mode_frame_diagonal(self, rng):
        # For identical reservoirs the diffusion matrix is diagonal in the
        # normal-mode frame with entries N gamma nbar(freq).
        h = random_symmetric_hamiltonian(rng, 4)
        modes = osc.normal_modes(h)
        rates = osc.rates_distinct(_identical_white(4, 0.06, 0.9), modes)
        hat = modes.transform @ rates.diffusion @ modes.transform.T
        expected = 4 * 0.06 * np.array(
            [osc.mean_occupation(0.9, w) for w in modes.frequencies]
        )
        assert_allclose(hat, np.diag(expected), atol=1e-14)


class TestRatesWeak:
    def test_single_oscillator_zero_t(self):
        spec = osc.NetworkSpec(omega=[1.0], coupling=[[0.0]])
        rates = osc.rates_weak(_identical_white(1, 0.05, 0.0), spec)
        assert_allclose(rates.damping, [[0.05]])
        assert_allclose(rates.diffusion, [[0.0]])

    def test_three_identical(self):
        spec = osc.degenerate_symmetric_network(3, 1.0, 0.001)
        temp = osc.temperature_for_occupation(0.4, 1.0)
        rates = osc.rates_weak(_identical_white(3, 0.05, temp), spec)
        assert_allclose(rates.damping, 3 * 0.05 * np.eye(3), atol=1e-15)
        assert_allclose(rates.diffusion, 3 * 0.05 * 0.4 * np.eye(3), rtol=1e-12)

    def test_profile_sampled_at_natural_frequency(self):
        # Weak rates sample the profile at the natural, not normal-mode, frequency.
        spec = osc.degenerate_symmetric_network(2, 1.0, 0.2)
        profile = osc.Lorentzian(gamma=0.2, center=1.0, width=0.05)
        res = osc.ReservoirSpec(temperatures=[0.0, 0.0], profiles=(profile,) * 2)
        rates = osc.rates_weak(res, spec)
        assert_allclose(np.diag(rates.damping), 2 * profile.rate(1.0))

    def test_matches_distinct_for_white_noise(self, rng):
        # White-noise identical reservoirs: same damping from either path.
        h = random_symmetric_hamiltonian(rng, 3)
        np.fill_diagonal(h, 3.0)
        spec = osc.NetworkSpec(omega=np.diag(h), coupling=h - np.diag(np.diag(h)))
        res = _identical_white(3, 0.07, 0.0)
        weak = osc.rates_weak(res, spec)
        exact = osc.rates_distinct(res, osc.normal_modes(h))
        assert_allclose(weak.damping, exact.damping, atol=1e-13)


class TestRatesCommon:
    def test_identity_overlap_bit_reproduces_distinct(self, rng):
        h = random_symmetric_hamiltonian(rng, 3)
        modes = osc.normal_modes(h)
        base = _identical_white(3, 0.08, 0.7)
        common = osc.ReservoirSpec(
            temperatures=base.temperatures,
            profiles=base.profiles,
            common=True,
            overlap=np.eye(3),
        )
        a = osc.rates_distinct(base, modes)
        b = osc.rates_common(common, modes)
        assert np.array_equal(a.damping, b.damping)
        assert np.array_equal(a.diffusion, b.diffusion)

    def test_maximal_overlap_degenerate_symmetric(self):
        # Identical profiles on a degenerate symmetric network: every matrix
        # element equals the diagonal one (maximal indirect channels).
        n = 3
        spec = osc.degenerate_symmetric_network(n, 1.0, 0.2)
        modes = osc.normal_modes(osc.build_hamiltonian(spec))
        res = osc.ReservoirSpec(
            temperatures=[0.8] * n,
            profiles=(osc.WhiteNoise(0.05),) * n,
            common=True,
            overlap=np.ones((n, n)),
        )
        rates = osc.rates_common(res, modes)
        assert_allclose(rates.damping, rates.damping[0, 0] * np.ones((n, n)), atol=1e-14)
        assert_allclose(
            rates.diffusion, rates.diffusion[0, 0] * np.ones((n, n)), atol=1e-14
        )

    def test_partial_overlap_hand_sum(self):
        gamma, temp = 0.04, 0.9
        spec = osc.degenerate_symmetric_network(2, 1.0, 0.1)
        modes = osc.normal_modes(osc.build_hamiltonian(spec))
        overlap = np.array([[1.0, 0.5], [0.5, 1.0]])
        res = osc.ReservoirSpec(
            temperatures=[temp] * 2,
            profiles=(osc.WhiteNoise(gamma),) * 2,
            common=True,
            overlap=overlap,
        )
        rates = osc.rates_common(res, modes)
        c = modes.transform
        cross = gamma * overlap  # white noise: same rate at both mode frequencies
        expected = np.zeros((2, 2))
        for m in range(2):
            for n in range(2):
                expected[m, n] = 2 * sum(
                    c[ell, n] * cross[m, k] * c[ell, k]
                    for ell in range(2)
                    for k in range(2)
                )
        assert_allclose(rates.damping, expected, atol=1e-15)

    def test_mixed_temperatures_rejected(self):
        spec = osc.degenerate_symmetric_network(2, 1.0, 0.1)
        modes = osc.normal_modes(osc.build_hamiltonian(spec))
        res = osc.ReservoirSpec(
            temperatures=[0.5, 0.7],
            profiles=(osc.WhiteNoise(0.05),) * 2,
            common=True,
            overlap=np.eye(2),
        )
        with pytest.raises(ValidationError):
            osc.rates_common(res, modes)


class TestOverlapFactors:
    def test_identical_profiles(self):
        p = osc.Lorentzian(gamma=0.1, center=1.0, width=0.2)
        assert_allclose(osc.profile_overlap(p, p), 1.0, atol=1e-6)

    @pytest.mark.parametrize(
        "kind, center, width",
        [
            (osc.Lorentzian, 1.0, 0.2),
            (osc.Lorentzian, -0.7, 0.3),
            (osc.GaussianBand, 1.2, 0.05),
            # Entirely below zero: quadrature on nu >= 0 underflows to 0 / 0.
            (osc.GaussianBand, -1.3, 0.01),
        ],
    )
    def test_same_shape_is_exactly_one(self, kind, center, width):
        assert osc.profile_overlap(kind(0.1, center, width), kind(0.7, center, width)) == 1.0

    def test_common_bath_of_one_shape_loads_no_quadrature(self):
        code = (
            "import sys\n"
            "import numpy as np\n"
            "import oscnet as osc\n"
            "net = osc.NetworkSpec(omega=[1.0, 1.1], coupling=[[0.0, 0.05], [0.05, 0.0]])\n"
            "p = osc.Lorentzian(gamma=0.05, center=1.0, width=0.5)\n"
            "res = osc.ReservoirSpec(temperatures=[0.5, 0.5], profiles=(p, p), common=True)\n"
            "osc.build_model(net, res, 'auto')\n"
            "print('scipy.integrate' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "False"

    def test_disjoint_bands(self):
        p = osc.GaussianBand(gamma=0.1, center=1.0, width=0.01)
        q = osc.GaussianBand(gamma=0.1, center=3.0, width=0.01)
        assert osc.profile_overlap(p, q) < 1e-6

    def test_white_pairs(self):
        assert osc.profile_overlap(osc.WhiteNoise(0.1), osc.WhiteNoise(0.5)) == 1.0
        band = osc.GaussianBand(gamma=0.1, center=1.0, width=0.1)
        assert osc.profile_overlap(osc.WhiteNoise(0.1), band) == 0.0


class TestInvariants:
    def test_monotone_trace_in_temperature(self, rng):
        h = random_symmetric_hamiltonian(rng, 3)
        modes = osc.normal_modes(h)
        traces = []
        for temp in (0.2, 0.5, 0.9, 1.5):
            rates = osc.rates_distinct(_identical_white(3, 0.05, temp), modes)
            traces.append(np.trace(rates.diffusion))
        assert all(b >= a for a, b in zip(traces, traces[1:]))

    def test_raising_one_temperature_does_not_decrease_trace(self, rng):
        h = random_symmetric_hamiltonian(rng, 3)
        modes = osc.normal_modes(h)
        profiles = (osc.WhiteNoise(0.05),) * 3
        base = osc.ReservoirSpec(temperatures=[0.4, 0.6, 0.8], profiles=profiles)
        bumped = osc.ReservoirSpec(temperatures=[0.4, 1.1, 0.8], profiles=profiles)
        t0 = np.trace(osc.rates_distinct(base, modes).diffusion)
        t1 = np.trace(osc.rates_distinct(bumped, modes).diffusion)
        assert t1 >= t0


class TestComputedOverlap:
    def test_common_rates_with_profile_computed_overlap(self):
        # Two identical narrow bands at separated centers: overlap ~ 0, so the
        # common-reservoir rates collapse to the distinct ones.
        spec = osc.degenerate_symmetric_network(2, 1.0, 0.02)
        modes = osc.normal_modes(osc.build_hamiltonian(spec))
        profiles = (
            osc.GaussianBand(gamma=0.05, center=0.98, width=0.2),
            osc.GaussianBand(gamma=0.05, center=3.5, width=0.001),
        )
        common = osc.ReservoirSpec(
            temperatures=[0.8, 0.8], profiles=profiles, common=True
        )
        distinct = osc.ReservoirSpec(temperatures=[0.8, 0.8], profiles=profiles)
        a = osc.rates_common(common, modes)
        b = osc.rates_distinct(distinct, modes)
        assert np.max(np.abs(a.damping - b.damping)) < 1e-10
        assert np.max(np.abs(a.diffusion - b.diffusion)) < 1e-10

    def test_common_rates_identical_profiles_computed(self):
        spec = osc.degenerate_symmetric_network(2, 1.0, 0.05)
        modes = osc.normal_modes(osc.build_hamiltonian(spec))
        profile = osc.Lorentzian(gamma=0.05, center=1.0, width=0.3)
        res = osc.ReservoirSpec(
            temperatures=[0.8, 0.8], profiles=(profile, profile), common=True
        )
        rates = osc.rates_common(res, modes)
        # full overlap: indirect channels as strong as direct ones
        assert_allclose(rates.damping[0, 1], rates.damping[0, 0], rtol=1e-5)

    def test_one_overlap_per_ordered_pair_of_shapes(self, monkeypatch):
        # Two widths at alternating rates: the rate never enters the overlap.
        n = 20
        coupling = np.diag(np.full(n - 1, 0.004), 1)
        spec = osc.NetworkSpec(omega=np.ones(n), coupling=coupling + coupling.T)
        modes = osc.normal_modes(osc.build_hamiltonian(spec))
        profiles = tuple(
            osc.Lorentzian(0.002 * (1 + k % 3), 1.0, 0.5 if k % 2 else 0.4) for k in range(n)
        )
        pairwise = np.eye(n)
        for i in range(n):
            for j in range(i + 1, n):
                pairwise[i, j] = pairwise[j, i] = osc.profile_overlap(profiles[i], profiles[j])
        reference = osc.rates_common(
            osc.ReservoirSpec([0.9] * n, profiles, common=True, overlap=pairwise), modes
        )
        calls = []
        original = osc.reservoirs.profile_overlap

        def counted(p, q):
            calls.append((p, q))
            return original(p, q)

        monkeypatch.setattr(osc.reservoirs, "profile_overlap", counted)
        rates = osc.rates_common(osc.ReservoirSpec([0.9] * n, profiles, common=True), modes)
        assert len(calls) <= 4
        assert np.array_equal(rates.damping, reference.damping)
        assert np.array_equal(rates.diffusion, reference.diffusion)
