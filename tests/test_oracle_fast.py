"""Equivalence and limit tests for the fast Fock-space oracle.

The oracle's generator (a diagonal plus ladder slice terms, applied as
``X + X^H``) and the per-mode characteristic function are checked against
the formulas they replaced, written out here as references: the sparse
Kronecker-product superoperator (``_generator``, scipy.sparse), the dense
Lindblad right-hand side built from dim x dim ladder operators, and the dim x
dim displacement polynomials.  The propagator action, taken in the rotating
frame of the total number, is checked against scipy's ``expm_multiply`` of
the reference generator, whose algorithm it ports, against the dense
exponential, and bit for bit against the out-of-place Taylor loop it
replaced.  The evolution's guards (the product limit and the positivity
stop) are run through ``run_config``.  The 3-mode check compares the
Gaussian solution with the oracle at a size the dense integrator could not
reach in test time.
"""

from __future__ import annotations

import copy
import json
import math
import re
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oscnet as osc
from oscnet import errors, oracle
from oscnet.cli import main, parse_config, run_config
from oscnet.errors import OscnetError, PositivityLost, ValidationError

from conftest import white_model


# Bytes per stored reference entry: a complex value and a (worst-case 64-bit)
# column index.
_ENTRY_BYTES = 16 + 8


def _generator(space, hamiltonian, damping, diffusion) -> scipy.sparse.csr_array:
    """Master-equation generator as a sparse superoperator on the row-major vec of rho.

    ``d rho/dt = L rho + rho R + sum_mk w_mk a_k rho a_m^dag + v_mk a_k^dag rho a_m``
    with ``L = -iH - Q - G`` and ``R = iH - Q' - G'``: Q holds the loss
    weights (damping + diffusion)/2 on ``a_m^dag a_k``, G the gain weights
    diffusion/2 on ``a_m a_k^dag``, primes transpose the weights, and w, v are
    the symmetrized loss and gain weights.  Each term is a Kronecker product
    through ``vec(A rho B) = (A kron B^T) vec(rho)``.
    """
    import scipy.sparse

    hamiltonian = np.asarray(hamiltonian, dtype=complex)
    damping = np.asarray(damping, dtype=float)
    diffusion = np.asarray(diffusion, dtype=float)
    n = space.n_modes
    if hamiltonian.shape != (n, n):
        raise ValidationError("hamiltonian matrix has the wrong shape")
    if damping.shape != (n, n) or diffusion.shape != (n, n):
        raise ValidationError("rate matrices have the wrong shape")
    dim = space.dim
    what = f"sparse generator for Fock dimension {dim}"
    errors._check_bytes(what, (1 + 4 * n * n) * dim**2 * _ENTRY_BYTES)
    lowering = [scipy.sparse.csr_array(op) for op in space.lowering]
    raising = [scipy.sparse.csr_array(op) for op in space.raising]
    loss = 0.5 * (damping + diffusion)
    gain = 0.5 * diffusion
    loss_weights = loss + loss.T  # a_k rho adag_m coefficient, symmetrized
    gain_weights = gain + gain.T
    left = scipy.sparse.csr_array((dim, dim), dtype=complex)
    right = scipy.sparse.csr_array((dim, dim), dtype=complex)
    generator = scipy.sparse.csr_array((dim * dim, dim * dim), dtype=complex)
    for m in range(n):
        for k in range(n):
            hop = raising[m] @ lowering[k]
            fill = lowering[m] @ raising[k]
            left = left - (1j * hamiltonian[m, k] + loss[m, k]) * hop - gain[m, k] * fill
            right = right + (1j * hamiltonian[m, k] - loss[k, m]) * hop - gain[k, m] * fill
            if loss_weights[m, k] != 0:
                generator = generator + loss_weights[m, k] * scipy.sparse.kron(
                    lowering[k], raising[m].T, format="csr"
                )
            if gain_weights[m, k] != 0:
                generator = generator + gain_weights[m, k] * scipy.sparse.kron(
                    raising[k], lowering[m].T, format="csr"
                )
    eye = scipy.sparse.eye_array(dim, format="csr")
    generator = generator + scipy.sparse.kron(left, eye, format="csr")
    generator = generator + scipy.sparse.kron(eye, right.T, format="csr")
    generator.eliminate_zeros()
    return generator


def _rotating_reference(space, rates):
    # The reference generator moved to the rotating frame of the total number
    # and shifted by its mean diagonal, as the oracle evolves it.
    import scipy.sparse

    generator = _generator(space, *rates)
    number = np.indices((space.levels,) * space.n_modes).sum(axis=0).reshape(-1)
    omega = np.mean(np.diag(rates[0]).real)
    frame = 1j * omega * (number[:, None] - number[None, :]).reshape(-1)
    size = generator.shape[0]
    mu = generator.trace() / size
    return generator + scipy.sparse.diags_array(frame - mu)


class _DenseLindblad:
    # The dense right-hand side the sparse generator replaced.
    def __init__(self, space, hamiltonian, damping, diffusion):
        hamiltonian = np.asarray(hamiltonian, dtype=complex)
        n = space.n_modes
        self.space = space
        big_h = np.zeros((space.dim, space.dim), dtype=complex)
        for m in range(n):
            for k in range(n):
                if hamiltonian[m, k] != 0:
                    big_h += hamiltonian[m, k] * space.raising[m] @ space.lowering[k]
        loss = 0.5 * (damping + diffusion)
        gain = 0.5 * diffusion
        self.loss_weights = loss + loss.T
        self.gain_weights = gain + gain.T
        q_loss = np.zeros_like(big_h)
        q_loss_t = np.zeros_like(big_h)
        r_gain = np.zeros_like(big_h)
        r_gain_t = np.zeros_like(big_h)
        for m in range(n):
            for k in range(n):
                if loss[m, k] != 0:
                    q_loss += loss[m, k] * space.raising[m] @ space.lowering[k]
                if loss[k, m] != 0:
                    q_loss_t += loss[k, m] * space.raising[m] @ space.lowering[k]
                if gain[m, k] != 0:
                    r_gain += gain[m, k] * space.lowering[m] @ space.raising[k]
                if gain[k, m] != 0:
                    r_gain_t += gain[k, m] * space.lowering[m] @ space.raising[k]
        self.left = -1j * big_h - q_loss - r_gain
        self.right = 1j * big_h - q_loss_t - r_gain_t

    def apply(self, rho):
        space = self.space
        n = space.n_modes
        out = self.left @ rho + rho @ self.right
        moved = [space.lowering[k] @ rho for k in range(n)]
        for m in range(n):
            acc = np.zeros_like(rho)
            for k in range(n):
                if self.loss_weights[m, k] != 0:
                    acc += self.loss_weights[m, k] * moved[k]
            out += acc @ space.raising[m]
        lifted = [space.raising[k] @ rho for k in range(n)]
        for m in range(n):
            acc = np.zeros_like(rho)
            for k in range(n):
                if self.gain_weights[m, k] != 0:
                    acc += self.gain_weights[m, k] * lifted[k]
            out += acc @ space.lowering[m]
        return out


def _dense_char(rho, eta, space):
    # Tr[rho exp(eta a^dag) exp(-conj(eta) a)] from dim x dim polynomials.
    plus = np.eye(space.dim, dtype=complex)
    minus = np.eye(space.dim, dtype=complex)
    for m in range(space.n_modes):
        term_p = np.eye(space.dim, dtype=complex)
        term_m = np.eye(space.dim, dtype=complex)
        acc_p = np.eye(space.dim, dtype=complex)
        acc_m = np.eye(space.dim, dtype=complex)
        for k in range(1, space.levels):
            term_p = (eta[m] / k) * (space.raising[m] @ term_p)
            term_m = (-np.conj(eta[m]) / k) * (space.lowering[m] @ term_m)
            acc_p += term_p
            acc_m += term_m
        plus = plus @ acc_p
        minus = minus @ acc_m
    return complex(np.trace(rho @ plus @ minus))


def _random_density(rng, dim):
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = raw @ raw.conj().T
    return rho / np.trace(rho).real


def _random_rates(rng, n):
    """Symmetric H, non-symmetric damping and diffusion, exact zeros.

    The generator formula holds for any real rate matrices, so asymmetric
    diffusion also tells the transposed gain weights apart.
    """
    h = rng.normal(size=(n, n))
    h = 0.5 * (h + h.T)
    damping = rng.uniform(0.05, 0.4, size=(n, n))
    raw = rng.normal(size=(n, n))
    diffusion = 0.1 * (raw @ raw.T) + 0.02 * rng.normal(size=(n, n))
    if n > 1:
        h[0, 1] = h[1, 0] = 0.0
        damping[1, 0] = 0.0
        diffusion[0, -1] = diffusion[-1, 0] = 0.0
    return h, damping, diffusion


SIZES = [(1, 6), (2, 3), (3, 2)]


@pytest.mark.parametrize("n_modes, n_max", SIZES)
def test_generator_matches_dense_lindblad(rng, n_modes, n_max):
    space = osc.FockSpace(n_modes, n_max)
    h, damping, diffusion = _random_rates(rng, n_modes)
    rho = _random_density(rng, space.dim)
    expected = _DenseLindblad(space, h, damping, diffusion).apply(rho)
    got = osc.liouvillian_apply(rho, h, damping, diffusion, space)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def _hermitian_basis(dim):
    # E_ii, E_ij + E_ji and i (E_ij - E_ji): a basis of the Hermitian matrices.
    for i in range(dim):
        for j in range(i, dim):
            basis = np.zeros((dim, dim), dtype=complex)
            basis[i, j] = basis[j, i] = 1.0
            yield basis
            if i != j:
                basis = np.zeros((dim, dim), dtype=complex)
                basis[i, j], basis[j, i] = 1j, -1j
                yield basis


def test_generator_trace_free_and_hermiticity_preserving(rng):
    space = osc.FockSpace(3, 2)
    h, damping, diffusion = _random_rates(rng, 3)
    count = 0
    for basis in _hermitian_basis(space.dim):
        out = osc.liouvillian_apply(basis, h, damping, diffusion, space)
        assert abs(np.trace(out)) < 1e-13
        assert np.array_equal(out, out.conj().T)
        count += 1
    assert count == space.dim**2


def test_non_hermitian_input_rejected(rng):
    space = osc.FockSpace(2, 3)
    h, damping, diffusion = _random_rates(rng, 2)
    rho = _random_density(rng, space.dim)
    rho[0, 1] += 1e-6
    with pytest.raises(ValidationError, match="not Hermitian"):
        osc.liouvillian_apply(rho, h, damping, diffusion, space)
    with pytest.raises(ValidationError, match="not Hermitian"):
        osc.evolve_master(rho, h, damping, diffusion, [1.0], space)
    with pytest.raises(ValidationError, match="not Hermitian"):
        osc.evolve_master(_random_density(rng, space.dim), h + 0.1j, damping, diffusion,
                          [1.0], space)


@pytest.mark.parametrize("n_modes, n_max", SIZES)
@pytest.mark.parametrize("shifted", [False, True])
def test_norm_equals_reference_one_norm(rng, n_modes, n_max, shifted):
    space = osc.FockSpace(n_modes, n_max)
    rates = _random_rates(rng, n_modes)
    reference = _rotating_reference(space, rates) if shifted else _generator(space, *rates)
    expected = np.max(abs(reference).sum(axis=0))
    got = oracle._Generator(space, *rates, shifted=shifted).norm()
    assert abs(got - expected) <= 1e-14 * expected


@pytest.mark.filterwarnings("ignore:characteristic-function displacement")
@pytest.mark.parametrize("n_modes, n_max", SIZES)
def test_char_matches_dense_polynomials(rng, n_modes, n_max):
    space = osc.FockSpace(n_modes, n_max)
    rho = _random_density(rng, space.dim)
    etas = [np.zeros(n_modes, dtype=complex)] + [
        0.3 * (rng.normal(size=n_modes) + 1j * rng.normal(size=n_modes))
        for _ in range(3)
    ]
    batch = osc.oracle_char(rho, np.array(etas), space)
    assert isinstance(batch, np.ndarray) and batch.shape == (4,) and batch.dtype == complex
    for eta, value in zip(etas, batch):
        expected = _dense_char(rho, eta, space)
        assert abs(osc.oracle_char(rho, eta, space) - expected) < 1e-12
        assert abs(value - expected) < 1e-12


@pytest.mark.filterwarnings("ignore:characteristic-function displacement")
def test_single_eta_gives_a_complex_number(rng):
    space = osc.FockSpace(2, 3)
    rho = _random_density(rng, space.dim)
    etas = np.array([[0.3 - 0.1j, 0.2j], [-0.25, 0.1 + 0.1j]])
    batch = osc.oracle_char(rho, etas, space)
    for eta, value in zip(etas, batch):
        single = osc.oracle_char(rho, eta, space)
        assert type(single) is complex
        assert abs(single - value) <= 1e-15
    assert osc.oracle_char(rho, etas[:1], space).shape == (1,)
    assert osc.oracle_char(rho, np.zeros((0, 2)), space).shape == (0,)
    one_mode = osc.FockSpace(1, 6)
    rho1 = _random_density(rng, one_mode.dim)
    assert type(osc.oracle_char(rho1, 0.3, one_mode)) is complex
    for bad in ([0.1, 0.2, 0.3], np.zeros((4, 3)), np.zeros((2, 2, 2))):
        with pytest.raises(ValidationError, match="mode count"):
            osc.oracle_char(rho, bad, space)


def test_batch_warns_once_for_any_large_row():
    space = osc.FockSpace(1, 4)
    rho = np.outer(space.fock_vector([0]), space.fock_vector([0]))
    etas = np.array([[0.1], [2.5], [3.0], [0.2j]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        osc.oracle_char(rho, etas, space)
        osc.oracle_char(rho, etas[[0, 3]], space)
    assert [str(w.message) for w in caught] == [
        "characteristic-function displacement is large for this cutoff"
    ]


@pytest.mark.parametrize("n_modes, n_max", SIZES)
def test_observables_match_dense_traces(rng, n_modes, n_max):
    space = osc.FockSpace(n_modes, n_max)
    rho = _random_density(rng, space.dim)
    numbers = np.array(
        [[np.trace(rho @ space.raising[m] @ space.lowering[k]) for k in range(n_modes)]
         for m in range(n_modes)]
    )
    firsts = np.array([np.trace(rho @ op) for op in space.lowering])
    assert_allclose(osc.expect_number_matrix(rho, space), numbers, rtol=0, atol=1e-13)
    assert_allclose(osc.expect_lowering(rho, space), firsts, rtol=0, atol=1e-13)
    assert abs(osc.oracle_purity(rho) - np.trace(rho @ rho).real) < 1e-13


def test_oversized_space_raises_typed_error():
    # Its one density matrix alone would take 1.3e14 bytes.
    with pytest.raises(ValidationError, match="Fock dimension 2825761") as info:
        osc.FockSpace(4, 40)
    assert isinstance(info.value, OscnetError)
    assert str(errors._BYTE_LIMIT) in str(info.value)


@pytest.mark.parametrize(
    "n_modes, dim_digits, byte_digits", [(2048, 4105, 8211), (4096, 8210, 16421)]
)
def test_astronomic_space_refused_as_powers_of_ten(n_modes, dim_digits, byte_digits):
    # Python prints no int of more than 4 300 digits: at 2048 modes the
    # predicted bytes pass it, at 4096 the Fock dimension itself does.
    with pytest.raises(ValidationError) as info:
        osc.FockSpace(n_modes, 100)
    message = str(info.value)
    assert f"Fock dimension about 10^{dim_digits} " in message
    assert f"would take about 10^{byte_digits} bytes" in message
    assert str(errors._BYTE_LIMIT) in message


def test_byte_counts_print_exactly_below_two_to_the_64():
    assert errors._count(2**64 - 1) == "18446744073709551615"
    assert errors._count(2**64) == "about 10^19"
    assert errors._count(10**5000) == "about 10^5000"


def test_space_refuses_only_the_operators_it_would_build():
    # dim 2048: the evolution's working set fits the limit, the dense mode
    # operators do not, so the space constructs and refuses them when read.
    space = osc.FockSpace(11, 1)
    assert oracle._WORK_ARRAYS * space.dim**2 * 16 == 536_870_912 < errors._BYTE_LIMIT
    for name in ("lowering", "raising"):
        with pytest.raises(ValidationError, match="dense mode operators for Fock dimension 2048") as info:
            getattr(space, name)
        assert "1476395008 bytes" in str(info.value)
        assert str(errors._BYTE_LIMIT) in str(info.value)


def test_oversized_generator_refused_before_allocation():
    # Dense operators of this space would fit the limit, the evolution's
    # working set would not; a stand-in space shows the check runs before
    # anything is built.
    space = types.SimpleNamespace(n_modes=2, n_max=59, levels=60, dim=60**2)
    assert 4 * space.dim**2 * 16 < errors._BYTE_LIMIT
    assert oracle._WORK_ARRAYS * space.dim**2 * 16 > errors._BYTE_LIMIT
    rates = np.zeros((2, 2))
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="working set for Fock dimension 3600"):
            osc.evolve_master(None, np.eye(2), rates, rates, [0.0, 1.0], space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_working_set_within_prediction():
    # 3 modes at n_max = 6 (dim 343): the peak, less the snapshots handed
    # back, stays under the working set the byte check predicts.
    model = white_model(n=3, coupling=0.1, gamma=0.05, nbar=0.1)
    space = osc.FockSpace(3, 6)
    rho0 = osc.density_from_coherent(space, osc.build_cat_family(3, 1, 0, 0.3))
    tracemalloc.start()
    try:
        snaps = osc.evolve_master(
            rho0, model.hamiltonian, model.rates.damping, model.rates.diffusion,
            [0.5, 1.0], space,
        )
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(snaps) == 2
    assert kept >= 2 * space.dim**2 * 16
    assert peak - kept <= oracle._WORK_ARRAYS * space.dim**2 * 16


def test_three_mode_gaussian_solution_matches_oracle():
    model = white_model(n=3, coupling=0.1, gamma=0.05, nbar=0.1)
    state = osc.build_cat_family(3, 1, 0, 0.3)
    space = osc.FockSpace(3, 6)
    rho0 = osc.density_from_coherent(space, state)
    snaps = osc.evolve_master(
        rho0, model.hamiltonian, model.rates.damping, model.rates.diffusion,
        np.array([0.0, 1.0, 2.0]), space,
    )
    base = [0.35 + 0j, -0.2 + 0.3j]
    etas = np.array([[a, b, c] for a in base for b in base for c in base])
    for snap in snaps:
        bundle = model.propagator.bundle(snap.t)
        ours = osc.char_function(state, etas, bundle)
        theirs = np.array([osc.oracle_char(snap.rho, eta, space) for eta in etas])
        assert np.max(np.abs(ours - theirs)) <= 1e-7
        first, second = osc.moments(state, bundle)
        assert np.max(np.abs(first - osc.expect_lowering(snap.rho, space))) <= 1e-7
        assert np.max(np.abs(second - osc.expect_number_matrix(snap.rho, space))) <= 1e-7
        purity = 1.0 - osc.linear_entropy(state, bundle)
        assert abs(purity - osc.oracle_purity(snap.rho)) <= 1e-7


@pytest.mark.parametrize("n_modes, n_max", [(1, 6), (2, 3)])
@pytest.mark.parametrize("t", [0.05, 0.8, 7.5])
def test_action_matches_expm_multiply(rng, n_modes, n_max, t):
    from scipy.sparse.linalg import expm_multiply

    space = osc.FockSpace(n_modes, n_max)
    rates = _random_rates(rng, n_modes)
    vec = _random_density(rng, space.dim).reshape(-1)
    op = oracle._Generator(space, *rates, shifted=True)
    got = op.unrotate(oracle._expm_action(op, op.mu, op.norm(), vec, t), t).reshape(-1)
    generator = _generator(space, *rates)
    expected = expm_multiply(generator, vec, start=0.0, stop=t, num=2, endpoint=True)[1]
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _reference_plan(norm):
    # The integer plan the float one replaced.
    if norm == 0:
        return 0, 1
    best_m = best_s = None
    for m, theta in oracle._THETA.items():
        s = int(math.ceil(norm / theta))
        if best_m is None or m * s < best_m * best_s:
            best_m, best_s = m, s
    return best_m, best_s


def _reference_action(shifted, mu, norm, vec, t):
    # The out-of-place Taylor loop the in-place one replaced.
    m_star, s = _reference_plan(t * norm)
    out = vec
    eta = np.exp(t * mu / float(s))
    for _ in range(s):
        c1 = np.max(np.abs(vec))
        for j in range(m_star):
            vec = (t / float(s * (j + 1))) * (shifted @ vec)
            c2 = np.max(np.abs(vec))
            out = out + vec
            if c1 + c2 <= oracle._UNIT_ROUNDOFF * np.max(np.abs(out)):
                break
            c1 = c2
        out = eta * out
        vec = out
    return out


def test_plan_matches_integer_plan():
    for norm in [0.0, 1e-17, 3e-9, 0.05, 0.4, 1.0, 2.43, 7.0, 31.4, 1e4, 1e9]:
        assert oracle._taylor_plan(norm) == _reference_plan(norm)
    assert oracle._taylor_plan(math.inf)[1] == math.inf
    assert math.isnan(oracle._taylor_plan(math.nan)[1])


@pytest.mark.parametrize("n_modes, n_max", [(1, 6), (2, 3)])
@pytest.mark.parametrize("t", [0.05, 0.8, 7.5])
def test_action_equals_out_of_place_loop_bitwise(rng, n_modes, n_max, t):
    space = osc.FockSpace(n_modes, n_max)
    op = oracle._Generator(space, *_random_rates(rng, n_modes), shifted=True)
    vec = _random_density(rng, space.dim).reshape(-1)
    kept = vec.copy()
    got = oracle._expm_action(op, op.mu, op.norm(), vec, t)
    assert np.array_equal(vec, kept)
    assert got.tobytes() == _reference_action(op, op.mu, op.norm(), vec, t).tobytes()


def test_action_equals_out_of_place_loop_bitwise_on_benchmark_run():
    space, rho0, rates, times = _oracle_check_setup()
    op = oracle._Generator(space, *rates, shifted=True)
    vec = rho0.reshape(-1)
    for step in np.diff(times):
        got = oracle._expm_action(op, op.mu, op.norm(), vec, step)
        assert got.tobytes() == _reference_action(op, op.mu, op.norm(), vec, step).tobytes()
        vec = got


def _oracle_check_setup():
    # The benchmark's oracle_check run: two detuned modes, cat |alpha| = 0.7,
    # warm white-noise baths, n_max = 10 (dim 121), five times on [0, 4].
    config = {
        "network": {"n": 2, "omega": [0.93, 1.07], "coupling": 0.1},
        "reservoirs": {"temperature": 0.4, "profile": {"kind": "white", "gamma": 0.05}},
        "regime": "auto",
        "state": {"kind": "cat", "r": 1, "s": 1, "alpha": [0.42, 0.56]},
        "times": {"start": 0.0, "stop": 4.0, "steps": 5},
        "outputs": ["oracle_compare"],
    }
    spec = parse_config(config)
    model = osc.build_model(spec.network, spec.reservoirs, spec.regime)
    space = osc.FockSpace(2, 10)
    rates = (model.hamiltonian, model.rates.damping, model.rates.diffusion)
    return space, osc.density_from_coherent(space, spec.state), rates, spec.times


def test_evolution_equals_expm_multiply_on_benchmark_run():
    from scipy.sparse.linalg import expm_multiply

    space, rho0, rates, times = _oracle_check_setup()
    snaps = osc.evolve_master(rho0, *rates, times, space)
    generator = _generator(space, *rates)
    expected = expm_multiply(
        generator, rho0.reshape(-1), start=0.0, stop=times[-1], num=times.size,
        endpoint=True,
    )
    for snap, ref in zip(snaps, expected):
        assert np.max(np.abs(snap.rho.reshape(-1) - ref)) <= 1e-14 * np.max(np.abs(ref))


def _dense_evolution(rho0, rates, times, space):
    from scipy.linalg import expm

    dense = _generator(space, *rates).toarray()
    return [(expm(dense * t) @ rho0.reshape(-1)).reshape(space.dim, space.dim) for t in times]


DENSE_CASES = {
    # One warm mode with a cat, and two cold coupled modes holding a weak
    # coherent state, so that n_max = 3 keeps the cutoff population < 1e-6.
    "1x8": (white_model(n=1, gamma=0.2, nbar=0.15), osc.build_cat_family(1, 1, 0, 0.6), (1, 8)),
    "2x3": (
        white_model(n=2, coupling=0.2, gamma=0.1, nbar=0.003),
        osc.single_coherent_state([0.08, 0.05j]),
        (2, 3),
    ),
}


@pytest.mark.parametrize("case", sorted(DENSE_CASES))
@pytest.mark.parametrize("times", [[0.0, 0.4, 1.7, 6.0], [0.4, 1.7, 6.0]])
def test_evolution_matches_dense_exponential(case, times):
    model, state, shape = DENSE_CASES[case]
    space = osc.FockSpace(*shape)
    rho0 = osc.density_from_coherent(space, state)
    rates = (model.hamiltonian, model.rates.damping, model.rates.diffusion)
    snaps = osc.evolve_master(rho0, *rates, times, space)
    assert [snap.t for snap in snaps] == times
    for snap, expected in zip(snaps, _dense_evolution(rho0, rates, times, space)):
        assert np.max(np.abs(snap.rho - expected)) <= 1e-12
    if times[0] == 0.0:
        assert np.array_equal(snaps[0].rho, rho0)


def test_trace_kept_over_long_evolution():
    model = white_model(n=1, gamma=0.1, nbar=0.05)
    space = osc.FockSpace(1, 8)
    rho0 = osc.density_from_coherent(space, osc.build_cat_family(1, 1, 0, 0.5))
    rho0 = rho0 / np.trace(rho0).real
    snaps = osc.evolve_master(
        rho0, model.hamiltonian, model.rates.damping, model.rates.diffusion,
        [60.0], space,
    )
    assert snaps[0].trace_defect < 1e-12


# The benchmark's oracle_check config at seed 0, and variants that validate
# but that the evolution must refuse or stop on.
_SEED0_CONFIG = {
    "network": {"n": 2, "omega": [1.0720828873549877, 0.9642749644675027], "coupling": 0.1},
    "reservoirs": {"temperature": 0.4, "profile": {"kind": "white", "gamma": 0.05}},
    "regime": "auto",
    "state": {"kind": "cat", "r": 1, "s": 1, "alpha": [0.5530350177337987, -0.4291296647403637]},
    "times": {"start": 0.0, "stop": 4.0, "steps": 5},
    "oracle": {"n_max": 10},
    "outputs": ["oracle_compare"],
}


def _variant(path, value):
    config = copy.deepcopy(_SEED0_CONFIG)
    node = config
    *parents, leaf = path.split(".")
    for key in parents:
        node = node[key]
    node[leaf] = value
    return config


GUARD_CONFIGS = {
    # A detuning of 1e200 plans about 2e202 products; T = 1e300 plans about
    # 1e302, whose step count overflowed the integer plan before.
    "huge_omega": _variant("network.omega", [1e200, 1.0]),
    "huge_temperature": _variant("reservoirs.temperature", 1e300),
}


@pytest.mark.parametrize("name", sorted(GUARD_CONFIGS))
def test_product_limit_refuses_before_the_first_product(name, tmp_path, monkeypatch, capsys):
    config = GUARD_CONFIGS[name]
    parse_config(config)

    def no_products(*args):
        raise AssertionError("a product ran")

    monkeypatch.setattr(oracle, "_expm_action", no_products)
    with pytest.raises(ValidationError, match="generator products") as info:
        run_config(config, tmp_path / "out")
    assert str(oracle._PRODUCT_LIMIT) in str(info.value)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "cli")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: evolution to t = 4.0 plans ")
    assert str(oracle._PRODUCT_LIMIT) in err and "Traceback" not in err


def test_product_limit_counts_every_step(monkeypatch):
    space = osc.FockSpace(1, 4)
    model = white_model(n=1, gamma=0.05, nbar=0.1)
    rates = (model.hamiltonian, model.rates.damping, model.rates.diffusion)
    rho0 = osc.density_from_coherent(space, osc.single_coherent_state([0.1]))
    norm = oracle._Generator(space, *rates, shifted=True).norm()
    # One step of dt plans 0.6 of the limit, two steps 1.2 of it.
    dt = 0.6 * oracle._PRODUCT_LIMIT * oracle._THETA[55] / 55 / norm
    m, s = oracle._taylor_plan(dt * norm)
    assert oracle._PRODUCT_LIMIT / 2 < m * s <= oracle._PRODUCT_LIMIT
    monkeypatch.setattr(oracle, "_expm_action", lambda op, mu, norm, vec, t: vec)
    osc.evolve_master(rho0, *rates, [0.0, dt], space)
    with pytest.raises(ValidationError, match=re.escape(f"plans {2 * m * s:.3g} generator")):
        osc.evolve_master(rho0, *rates, [dt, 2 * dt], space)


# A common bath for two detuned modes: the assembled diffusion matrix has an
# indefinite Hermitian part, and the oracle's rho goes negative by t = 1.
COMMON_BATH_CONFIG = _variant("network", {"n": 2, "omega": [1.15, 1.0], "coupling": 0.2})
COMMON_BATH_CONFIG["reservoirs"] = {
    "temperature": 0.35, "profile": {"kind": "white", "gamma": 0.04}, "common": True,
}


def test_common_bath_stops_with_positivity_error(tmp_path):
    with pytest.raises(PositivityLost, match=r"lost positivity at t = 1\.0: eigenvalue -") as info:
        run_config(COMMON_BATH_CONFIG, tmp_path)
    assert not isinstance(info.value, ValidationError)
    assert isinstance(info.value, OscnetError)


@pytest.mark.parametrize("lowest", [0.0, -0.5e-8, -0.99e-8, -0.9999e-8, -1.0001e-8, -1.01e-8, -3e-8])
def test_snapshot_positivity_threshold_is_the_spectrum(rng, lowest):
    # The Cholesky shortcut must accept and refuse exactly where the lowest
    # eigenvalue crosses -1e-8, on a rotated (non-diagonal) matrix.
    dim = 30
    spectrum = np.concatenate(([lowest], rng.uniform(0.01, 0.05, size=dim - 1)))
    spectrum[1:] *= (1.0 - lowest) / spectrum[1:].sum()
    basis, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    rho = (basis * spectrum) @ basis.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    computed = np.linalg.eigvalsh(rho)[0]
    assert abs(computed - lowest) < 1e-14
    if computed < -1e-8:
        # Built directly, a snapshot keeps its ValidationError.
        with pytest.raises(ValidationError, match="negative eigenvalue") as info:
            osc.TruncatedDensityMatrix(t=0.0, rho=rho, n_max=1)
        assert not isinstance(info.value, PositivityLost)
    else:
        osc.TruncatedDensityMatrix(t=0.0, rho=rho, n_max=1)
