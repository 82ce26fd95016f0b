"""The chunked pair-sum kernels behind char_function, p_function, wigner and
linear_entropy.

The reference formulas below are the earlier evaluators, which built the full
(points, K, K) exponent, or the K^4 purity kernel, at once; the kernels must
reproduce them.
"""

import tracemalloc

import numpy as np
import pytest

import oscnet as osc
from oscnet import phasespace

from conftest import two_branch_mixture, white_model, zero_coefficient_state


def _old_char(state, pts, bundle):
    betas, logw = phasespace._flat_components(state)
    centers = (bundle.transition @ betas.T).T
    e_bra = pts @ centers.conj().T
    e_ket = pts.conj() @ centers.T
    gauss = -0.5 * np.einsum("...m,mn,...n->...", pts, bundle.noise, pts.conj())
    exponent = (
        logw + e_bra[..., :, None] - e_ket[..., None, :] + gauss[..., None, None]
    )
    with np.errstate(over="ignore"):
        terms = np.exp(exponent)
    terms[np.isneginf(exponent.real)] = 0.0
    return terms.sum(axis=(-2, -1))


def _old_gaussian_sum(state, pts, bundle, width):
    n = state.n_modes
    det = np.linalg.det(0.5 * (width + width.conj().T)).real
    betas, logw = phasespace._flat_components(state)
    centers = (bundle.transition @ betas.T).T
    inv = np.linalg.inv(0.5 * (width + width.conj().T))
    quad = np.einsum("...m,mn,...n->...", pts, inv, pts.conj())
    t_bra = pts @ (inv @ centers.conj().T)
    t_ket = np.einsum("sm,...m->...s", centers @ inv, pts.conj())
    c_pair = (centers @ inv) @ centers.conj().T
    exponent = logw - 2.0 * (
        quad[..., None, None]
        - t_bra[..., :, None]
        - t_ket[..., None, :]
        + c_pair.T
    )
    with np.errstate(over="ignore"):
        terms = np.exp(exponent)
    terms[np.isneginf(exponent.real)] = 0.0
    return (2.0 / np.pi) ** n / det * terms.sum(axis=(-2, -1))


def _assert_close(new, old, rel=1e-12):
    new = np.asarray(new)
    old = np.asarray(old)
    assert new.shape == old.shape
    assert np.all(np.isfinite(new))
    assert np.max(np.abs(new - old)) <= rel * np.max(np.abs(old))


STATES = {
    "two_branch": two_branch_mixture,
    "zero_coefficient": zero_coefficient_state,
    "ring16": lambda: osc.fock_state_ring([1, 1], radius=0.6, points=4),
}


@pytest.fixture(scope="module")
def pair_model():
    return white_model(n=2, coupling=0.2, gamma=0.05, nbar=0.5)


def _points(rng, count, n=2, scale=1.2):
    return scale * (rng.normal(size=(count, n)) + 1j * rng.normal(size=(count, n)))


@pytest.mark.parametrize("name", sorted(STATES))
@pytest.mark.parametrize("ragged", [False, True])
def test_kernel_matches_full_tensor(name, ragged, pair_model, rng, monkeypatch):
    state = STATES[name]()
    if ragged:
        # 7000 bytes: one point per chunk for the ring, 14 to 16 points for
        # the three-component states, so 53 points leave a short last chunk.
        monkeypatch.setattr(phasespace, "_CHUNK_BYTES", 7000)
    bundle = pair_model.propagator.bundle(1.3)
    pts = _points(rng, 53)
    _assert_close(osc.char_function(state, pts, bundle), _old_char(state, pts, bundle))
    old_p = _old_gaussian_sum(state, pts, bundle, bundle.noise)
    _assert_close(osc.p_function(state, pts, bundle), old_p)
    old_w = _old_gaussian_sum(state, pts, bundle, bundle.wigner_width)
    _assert_close(osc.wigner(state, pts, bundle), old_w.real)


def test_batch_shape_and_scalar(pair_model, rng):
    state = STATES["ring16"]()
    bundle = pair_model.propagator.bundle(0.7)
    pts = _points(rng, 12).reshape(3, 4, 2)
    values = osc.wigner(state, pts, bundle)
    assert values.shape == (3, 4)
    assert osc.wigner(state, pts[1, 2], bundle) == pytest.approx(values[1, 2], rel=1e-14)
    chi = osc.char_function(state, pts, bundle)
    assert chi.shape == (3, 4)
    assert isinstance(osc.char_function(state, pts[0, 0], bundle), complex)
    p_values = osc.p_function(state, pts, bundle)
    assert p_values.dtype == complex and np.all(p_values.imag == 0)


@pytest.mark.parametrize("t", [0.0, 0.05])
def test_large_cat_stays_finite(t):
    # |alpha| = 20: the cross-pair weight exp(-2|alpha|^2) underflows on its
    # own, yet the interference fringe at the midpoint is of order one.
    model = white_model(n=1, gamma=0.25, nbar=0.5)
    cat = osc.build_cat_family(1, 1, 0, 20.0)
    bundle = model.propagator.bundle(t)
    center = bundle.transition[0, 0] * 20.0
    pts = np.array([[center], [-center], [0.0 + 0.0j]])
    values = osc.wigner(cat, pts, bundle)
    _assert_close(values, _old_gaussian_sum(cat, pts, bundle, bundle.wigner_width).real)
    if t == 0.0:
        # Even cat: W(0) = (2/pi) <parity> = 2/pi.
        assert values[2] == pytest.approx(2.0 / np.pi, rel=1e-10)


@pytest.mark.parametrize("name", sorted(STATES))
def test_pair_constants_hermitian(name, pair_model):
    state = STATES[name]()
    bundle = pair_model.propagator.bundle(0.9)
    for width in (bundle.noise, bundle.wigner_width):
        _, const, _, form = phasespace._gaussian_terms(state, bundle, width)
        dropped = np.isneginf(const.real)
        assert np.array_equal(dropped, dropped.T)
        finite = const[~dropped]
        swapped = const.T.conj()[~dropped]
        assert np.max(np.abs(finite - swapped)) <= 1e-12 * np.max(np.abs(finite))
        assert np.array_equal(form, form.conj().T)


def test_ring64_memory_bounded(pair_model):
    # 64 components on a 9^4 grid: the full (P, K, K) exponent would take
    # 430 MB; the kernel stays inside its chunk budget.
    ring = osc.fock_state_ring([1, 1], radius=0.6, points=8)
    bundle = pair_model.propagator.bundle(2.0)
    axis = np.linspace(-2.5, 2.5, 9)
    mesh = np.meshgrid(axis, axis, axis, axis, indexing="ij")
    xi = np.stack(
        [(mesh[0] + 1j * mesh[1]).ravel(), (mesh[2] + 1j * mesh[3]).ravel()], axis=-1
    )
    tracemalloc.start()
    try:
        values = osc.wigner(ring, xi, bundle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * phasespace._CHUNK_BYTES
    assert values.shape == (9**4,) and np.all(np.isfinite(values))
    # Spot-check a few points against the full-tensor formula.
    some = xi[:: 9**3]
    _assert_close(
        values[:: 9**3], _old_gaussian_sum(ring, some, bundle, bundle.wigner_width).real
    )



def _old_linear_entropy(state, bundle):
    # The K^4 kernel that linear_entropy used before its Gram-matrix form.
    betas, weights = phasespace._pair_weights(state)
    coeffs = bundle.diffusion_coeffs
    det = float(np.prod(coeffs))
    moved = (bundle.rotation.T @ (bundle.transition @ betas.T)).T  # (K, N)
    diff = moved[:, None, :] - moved[None, :, :]  # (a, b, m) = y_a - y_b
    kernel = -np.einsum("abm,cdm,m->abcd", diff, diff.conj(), 1.0 / coeffs)
    purity = np.einsum("rs,pq,sqrp->", weights, weights, np.exp(kernel)).real / det
    entropy = 1.0 - purity
    if entropy < 0 and entropy > -1e-10:
        entropy = 0.0
    return float(entropy)


@pytest.mark.parametrize("name", sorted(STATES))
def test_purity_matches_k4_kernel(name, pair_model):
    state = STATES[name]()
    for t in (0.0, 0.4, 1.3, 6.0, 40.0):
        bundle = pair_model.propagator.bundle(t)
        new = osc.linear_entropy(state, bundle)
        assert abs(new - _old_linear_entropy(state, bundle)) <= 1e-12
        if t == 0.0 and name != "two_branch":
            assert abs(new) < 1e-10  # pure at t = 0


@pytest.mark.parametrize("n", [1, 2])
def test_large_cat_purity(n, pair_model):
    # |alpha| = 20: the old kernel multiplied exp(-2|alpha|^2)-sized weights by
    # exp(+|2 alpha|^2)-sized factors and overflowed to nan at early times;
    # where it stays finite, the log-space sum must agree with it.
    model = white_model(n=1, gamma=0.25, nbar=0.5) if n == 1 else pair_model
    cat = osc.build_cat_family(n, 1, 0, 20.0)
    assert abs(osc.linear_entropy(cat, model.propagator.bundle(0.0))) < 1e-10
    for t in (5.0, 20.0):
        bundle = model.propagator.bundle(t)
        with np.errstate(over="ignore", invalid="ignore"):
            old = _old_linear_entropy(cat, bundle)
        assert abs(osc.linear_entropy(cat, bundle) - old) <= 1e-12
    for t in (0.01, 0.5, 2.0):
        assert 0.0 < osc.linear_entropy(cat, model.propagator.bundle(t)) < 1.0


def test_large_cat_stays_pure_without_dissipation():
    net = osc.degenerate_symmetric_network(2, 1.0, 0.2)
    res = osc.ReservoirSpec(temperatures=[0.0, 0.0], profiles=(osc.WhiteNoise(0.0),) * 2)
    model = osc.build_model(net, res)
    cat = osc.build_cat_family(2, 1, 1, 20.0)
    for t in (0.0, 0.9, 3.3):
        assert abs(osc.linear_entropy(cat, model.propagator.bundle(t))) < 1e-10


def test_purity_chunks_over_s(pair_model, monkeypatch):
    ring = osc.fock_state_ring([1, 1], radius=0.6, points=8)  # K = 64
    bundle = pair_model.propagator.bundle(2.0)
    whole = osc.linear_entropy(ring, bundle)
    # One (s, q, r) row of 64 x 64 complex numbers is 64 KiB: five rows per
    # chunk leave a short last chunk of four.
    monkeypatch.setattr(phasespace, "_CHUNK_BYTES", 5 * 16 * 64 * 64 + 100)
    assert abs(osc.linear_entropy(ring, bundle) - whole) <= 1e-14
    monkeypatch.setattr(phasespace, "_CHUNK_BYTES", 1)  # one row per chunk
    assert abs(osc.linear_entropy(ring, bundle) - whole) <= 1e-14


def test_ring144_purity_memory_bounded(pair_model):
    # 144 components: the K^4 kernel alone would take 6.9 GB.
    ring = osc.fock_state_ring([1, 1], radius=0.6, points=12)
    bundle = pair_model.propagator.bundle(2.0)
    bundle.rotation  # build the cached frame outside the measurement
    tracemalloc.start()
    try:
        entropy = osc.linear_entropy(ring, bundle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * phasespace._CHUNK_BYTES
    assert 0.0 < entropy < 1.0
