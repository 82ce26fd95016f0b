"""The pair-sum kernels behind char_function, p_function, wigner, wigner_grid
and linear_entropy.

The reference formulas below are the earlier evaluators, which built the full
(points, K, K) exponent, or the K^4 purity kernel, at once, took the purity's
Gram matrix in the eigenframe of the Wigner width, or summed it in log space
in chunks of rows; the kernels must reproduce them.  Extended-precision sums
judge the factored core against its log-space forms.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

import oscnet as osc
from oscnet import errors, phasespace, propagation, states

from oscnet.errors import SingularWidth, ValidationError

from conftest import two_branch_mixture, white_model, zero_coefficient_state


def _old_char(state, pts, bundle):
    betas, _, logw = state.pairs
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
    betas, _, logw = state.pairs
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
    for kind in ("noise", "Wigner"):
        _, const, _, form = phasespace._gaussian_terms(state, bundle, kind)
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
    betas, _, logw = state.pairs
    weights = np.where(np.isneginf(logw.real), 0.0, np.exp(logw))
    rotation, coeffs = propagation.rotate_frame(bundle.wigner_width)
    det = float(np.prod(coeffs))
    moved = (rotation.T @ (bundle.transition @ betas.T)).T  # (K, N)
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


def _chunked_linear_entropy(state, bundle, chunk_bytes):
    # The log-space kernel linear_entropy used before its factored form:
    # log X[s, q] = lse_r(logw[r, s] - H[s, r] + H[q, r]) in chunks of s.
    betas, _, logw = state.pairs
    gram = bundle.inverse_form(bundle.centers(betas.T))
    log_det = float(np.sum(np.log(bundle.diffusion_coeffs)))
    head = logw.T - gram
    k = gram.shape[0]
    step = max(1, min(k, chunk_bytes // (16 * k * k)))
    log_x = np.empty((k, k), dtype=complex)
    for start in range(0, k, step):
        exponents = head[start : start + step, None, :] + gram[None, :, :]
        shift = exponents.real.max(axis=-1)
        shift[np.isneginf(shift)] = 0.0
        with np.errstate(divide="ignore"):
            log_x[start : start + step] = (
                np.log(np.exp(exponents - shift[..., None]).sum(axis=-1)) + shift
            )
    return 1.0 - float(np.exp(log_x + log_x.T - log_det).sum().real)


def test_purity_chunks_over_s(pair_model):
    ring = osc.fock_state_ring([1, 1], radius=0.6, points=8)  # K = 64
    bundle = pair_model.propagator.bundle(2.0)
    whole = osc.linear_entropy(ring, bundle)
    # One (s, q, r) row of 64 x 64 complex numbers is 64 KiB: five rows per
    # chunk leave a short last chunk of four; then one row per chunk.
    for chunk_bytes in (5 * 16 * 64 * 64 + 100, 1):
        assert abs(_chunked_linear_entropy(ring, bundle, chunk_bytes) - whole) <= 1e-14


def test_ring144_purity_memory_bounded(pair_model):
    # 144 components: the K^4 kernel alone would take 6.9 GB.
    ring = osc.fock_state_ring([1, 1], radius=0.6, points=12)
    bundle = pair_model.propagator.bundle(2.0)
    bundle.diffusion_coeffs  # build the cached spectrum outside the measurement
    tracemalloc.start()
    try:
        entropy = osc.linear_entropy(ring, bundle)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * phasespace._CHUNK_BYTES
    assert 0.0 < entropy < 1.0


def _frame_linear_entropy(state, bundle):
    # The log-space Gram kernel as linear_entropy computed it in the rotated
    # frame, from U and D of one full rotate_frame call, unchunked.
    betas, _, logw = state.pairs
    rotation, coeffs = propagation.rotate_frame(bundle.wigner_width)
    det = float(np.prod(coeffs))
    moved = (rotation.T @ (bundle.transition @ betas.T)).T  # (K, N)
    gram = (moved / coeffs) @ moved.conj().T  # H[a, b]
    exponents = (logw.T - gram)[:, None, :] + gram[None, :, :]
    shift = exponents.real.max(axis=-1)
    shift[np.isneginf(shift)] = 0.0
    with np.errstate(divide="ignore"):
        log_x = np.log(np.exp(exponents - shift[..., None]).sum(axis=-1)) + shift
    purity = np.exp(log_x + log_x.T).sum().real / det
    entropy = 1.0 - purity
    if entropy < 0 and entropy > -1e-10:
        entropy = 0.0
    return float(entropy)


def _lorentzian_model(rng, n, coupling):
    upper = np.triu(rng.uniform(0.0, coupling, size=(n, n)), 1)
    net = osc.NetworkSpec(omega=rng.uniform(0.9, 1.1, size=n), coupling=upper + upper.T)
    profiles = tuple(
        osc.Lorentzian(gamma, center, width)
        for gamma, center, width in zip(
            rng.uniform(0.01, 0.05, size=n),
            rng.uniform(0.8, 1.2, size=n),
            rng.uniform(0.3, 0.7, size=n),
        )
    )
    res = osc.ReservoirSpec(temperatures=rng.uniform(0.3, 1.2, size=n), profiles=profiles)
    return osc.build_model(net, res)


@pytest.mark.parametrize("name", sorted(STATES))
@pytest.mark.parametrize("baths", ["white", "lorentzian"])
def test_purity_matches_frame_kernel(name, baths, pair_model, rng):
    # Distinct Lorentzian baths make the width complex, so a Gram matrix
    # formed with W^T in place of W would show here.
    state = STATES[name]()
    model = pair_model if baths == "white" else _lorentzian_model(rng, 2, 0.2)
    imag = 0.0
    for t in (0.0, 0.4, 1.3, 6.0, 40.0):
        bundle = model.propagator.bundle(t)
        imag = max(imag, np.max(np.abs(bundle.wigner_width.imag)))
        expected = _frame_linear_entropy(state, bundle)
        assert abs(osc.linear_entropy(state, bundle) - expected) <= 1e-12
    assert (imag > 1e-3) == (baths == "lorentzian")


@pytest.mark.parametrize("n", [1, 2])
def test_large_cat_purity_matches_frame_kernel(n, pair_model):
    model = white_model(n=1, gamma=0.25, nbar=0.5) if n == 1 else pair_model
    cat = osc.build_cat_family(n, 1, 0, 20.0)
    for t in (0.0, 0.01, 0.5, 2.0, 5.0, 20.0):
        bundle = model.propagator.bundle(t)
        expected = _frame_linear_entropy(cat, bundle)
        assert abs(osc.linear_entropy(cat, bundle) - expected) <= 1e-12


def test_distinct_lorentzian_n150_purity_matches_frame_kernel(rng):
    # The bench's large network: distinct Lorentzian baths at N = 150, with a
    # cat and a five-component superposition on every mode.
    n = 150
    model = _lorentzian_model(rng, n, 0.004)
    amplitudes = 0.3 * (rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n)))
    coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
    states = (
        osc.build_cat_family(n, 1, 1, 1.0),
        osc.coherent_mixture([osc.coherent_superposition(coeffs, amplitudes)]),
    )
    for t in np.linspace(0.0, 40.0, 40):
        bundle = model.propagator.bundle(t)
        for state in states:
            expected = _frame_linear_entropy(state, bundle)
            assert abs(osc.linear_entropy(state, bundle) - expected) <= 1e-12, t


def test_component_count_refused_before_allocation(pair_model, monkeypatch):
    ring = osc.fock_state_ring([1, 1], radius=0.6, points=8)  # K = 64
    bundle = pair_model.propagator.bundle(2.0)
    bundle.diffusion_coeffs
    monkeypatch.setattr(errors, "_BYTE_LIMIT", states._PAIR_ARRAYS * 16 * 64**2 - 1)
    grid = [(-1.0, 1.0, -1.0, 1.0)] * 2
    for evaluate in (
        lambda: osc.linear_entropy(ring, bundle),
        lambda: osc.wigner_grid(ring, bundle, grid, 3),
        lambda: osc.char_function(ring, np.zeros(2), bundle),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=str(errors._BYTE_LIMIT)):
                evaluate()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 64**2  # not one K x K complex array


def test_branch_count_refused_before_its_norm(monkeypatch):
    # The branch's norm would build K x K arrays; the count is checked first.
    ring = osc.fock_state_ring([1, 1], radius=0.6, points=8)  # K = 64
    components = ring.branches[0].components
    coefficients = [c.coefficient for c in components]
    vectors = [c.amplitudes for c in components]
    monkeypatch.setattr(errors, "_BYTE_LIMIT", states._PAIR_ARRAYS * 16 * 64**2 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=str(errors._BYTE_LIMIT)):
            osc.coherent_superposition(coefficients, vectors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 64**2  # not one K x K complex array


# The factored core against its log-space forms, both summed from the same
# float64 inputs and judged by sums in extended precision.  Cases: separated
# cats at |alpha| = 10 and 25, the one-mode |alpha| = 20 cat, the
# 144-component ring, and (entropy only) components of very different
# amplitude, where the factored form overflows.
_EXTENDED = np.finfo(np.longdouble).eps < 1e-18
_ONE_MODE = white_model(n=1, gamma=0.25, nbar=0.5)
_PAIR_MODEL = white_model(n=2, coupling=0.2, gamma=0.05, nbar=0.5)
_JUDGED = {
    # name: (model, state, grid half-width, grid points)
    "cat10": (_PAIR_MODEL, lambda: osc.build_cat_family(2, 1, 1, 10.0), 14.0, 9),
    "cat25": (_PAIR_MODEL, lambda: osc.build_cat_family(2, 1, 1, 25.0), 33.0, 9),
    "cat20": (_ONE_MODE, lambda: osc.build_cat_family(1, 1, 0, 20.0), 28.0, 41),
    "ring144": (
        _PAIR_MODEL,
        lambda: osc.fock_state_ring([1, 1], radius=0.6, points=12),
        2.5,
        3,
    ),
    "far_apart": (
        _PAIR_MODEL,
        lambda: osc.coherent_mixture(
            [osc.coherent_superposition([1.0, 1.0], [[0.0, 0.0], [30.0, 0.0]])]
        ),
        None,
        None,
    ),
}


def _both_routes(monkeypatch, evaluate):
    """``evaluate()`` as routed, then forced onto the factored and the log-space form."""
    routed = evaluate()
    forced = []
    for log_max in (np.inf, -np.inf):
        with monkeypatch.context() as patch, np.errstate(all="ignore"):
            patch.setattr(phasespace, "_FACTOR_LOG_MAX", log_max)
            try:
                forced.append(evaluate())
            except SingularWidth:  # an overflowed purity reads above 1
                forced.append(np.nan)
    return routed, forced


def _assert_closer_form_taken(routed, forced, error, slack):
    errors = [error(value) for value in forced]
    errors = [e if np.isfinite(e) else np.inf for e in errors]
    taken = 0 if np.array_equal(routed, forced[0]) else 1
    assert np.array_equal(routed, forced[taken])
    # Taken: the closer form, or one within rounding of it.
    assert errors[taken] <= errors[1 - taken] + slack, errors
    return taken


@pytest.mark.skipif(not _EXTENDED, reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("name", sorted(_JUDGED))
def test_entropy_route_against_extended_precision(name, monkeypatch):
    model, make, _, _ = _JUDGED[name]
    state = make()
    taken = set()
    # The ring's extended-precision sums take about a second per time.
    for t in (0.5,) if name == "ring144" else (0.0, 0.5, 5.0):
        bundle = model.propagator.bundle(t)
        betas, _, logw = state.pairs
        gram = bundle.inverse_form(bundle.centers(betas.T)).astype(np.clongdouble)
        head = logw.T.astype(np.clongdouble) - gram
        x = np.array([np.exp(row + gram).sum(axis=1) for row in head])  # (s, q)
        log_det = np.longdouble(float(np.sum(np.log(bundle.diffusion_coeffs))))
        purity = (x * x.T).sum().real / np.exp(log_det)
        routed, forced = _both_routes(monkeypatch, lambda: osc.linear_entropy(state, bundle))
        error = lambda entropy: float(abs(1 - np.longdouble(entropy) - purity))  # noqa: E731
        assert error(routed) <= 1e-13
        taken.add(_assert_closer_form_taken(routed, forced, error, 1e-15))
    # Only the far-apart components, and only before damping has drawn them
    # together, take the log-space form.
    assert taken == ({0, 1} if name == "far_apart" else {0})


@pytest.mark.skipif(not _EXTENDED, reason="np.longdouble is no wider than float64 here")
@pytest.mark.parametrize("name", sorted(set(_JUDGED) - {"far_apart"}))
def test_grid_route_against_extended_precision(name, monkeypatch):
    model, make, half, points = _JUDGED[name]
    state = make()
    taken = set()
    for t in (0.5,) if name == "ring144" else (0.0, 0.5, 2.0):
        bundle = model.propagator.bundle(t)
        ranges = [(-half, half, -half, half)] * state.n_modes
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            routed, forced = _both_routes(
                monkeypatch, lambda: osc.wigner_grid(state, bundle, ranges, points)[1]
            )
        coords, _ = osc.wigner_grid(state, bundle, ranges, points)
        det, const, bra, form = phasespace._gaussian_terms(state, bundle, "Wigner")
        xi = (coords[:, 0::2] + 1j * coords[:, 1::2]).astype(np.clongdouble)
        keep = ~np.isneginf(const.real)
        row = xi @ bra.astype(np.clongdouble)
        quad = np.einsum("pm,mn,pn->p", xi, form.astype(np.clongdouble), xi.conj()).real
        exponent = (
            const.astype(np.clongdouble)[keep]
            + row[:, np.nonzero(keep)[0]]
            + row.conj()[:, np.nonzero(keep)[1]]
            + quad[:, None]
        )
        exact = np.exp(exponent).sum(axis=1).real * (2.0 / np.pi) ** state.n_modes / det
        scale = float(np.max(np.abs(exact)))
        error = lambda values: float(np.max(np.abs(values - exact))) / scale  # noqa: E731
        assert error(routed) <= 1e-12
        taken.add(_assert_closer_form_taken(routed, forced, error, 1e-15))
    # Only the |alpha| = 25 cat, and only at early times, takes `_pair_sum`.
    assert taken == ({0, 1} if name == "cat25" else {0})
