import numpy as np
import pytest

import oscnet as osc


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_symmetric_hamiltonian(rng, n, spectrum=(0.5, 3.0)):
    """Random symmetric matrix with eigenvalues drawn from a positive range."""
    basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
    h = basis.T @ np.diag(rng.uniform(*spectrum, size=n)) @ basis
    return 0.5 * (h + h.T)


def random_instance(rng, n):
    """Random dissipative instance: symmetric H, diagonal damping, PSD diffusion."""
    h = random_symmetric_hamiltonian(rng, n)
    damping = np.diag(rng.uniform(0.05, 0.5, size=n))
    raw = rng.normal(size=(n, n))
    diffusion = 0.1 * (raw @ raw.T)
    dis = osc.dissipative_matrix(h, damping)
    return h, damping, diffusion, dis


def white_model(n=1, omega=1.0, coupling=0.0, gamma=0.05, nbar=0.5, regime="auto"):
    """Degenerate symmetric network with identical white-noise reservoirs.

    The temperature is chosen so the occupation at the *natural* frequency is
    ``nbar``.
    """
    if n == 1:
        net = osc.NetworkSpec(omega=[omega], coupling=[[0.0]])
    else:
        net = osc.degenerate_symmetric_network(n, omega, coupling)
    temp = osc.temperature_for_occupation(nbar, omega) if nbar > 0 else 0.0
    res = osc.ReservoirSpec(
        temperatures=[temp] * n, profiles=(osc.WhiteNoise(gamma),) * n
    )
    return osc.build_model(net, res, regime=regime)


def two_branch_mixture():
    # Cross-branch pairs carry -inf log weights and must contribute nothing.
    first = osc.coherent_superposition(
        [1.0, -0.4 + 0.3j], [[0.8, -0.2j], [-0.5 + 0.1j, 0.6]], probability=0.7
    )
    second = osc.coherent_superposition([1.0], [[0.3 - 0.4j, 0.2]], probability=0.3)
    return osc.coherent_mixture([first, second])


def zero_coefficient_state():
    return osc.coherent_mixture(
        [
            osc.coherent_superposition(
                [1.0, 0.0, 0.5j], [[0.7, 0.1], [1.5j, -0.3], [-0.6, 0.4 - 0.2j]]
            )
        ]
    )


def dense_propagator(model):
    """The model's propagator on the dense route: its generator eigendecomposed
    without the normal modes (so with no frame), and that generator's
    stationary width."""
    dis = osc.dissipative_matrix(model.hamiltonian, model.rates.damping)
    return osc.Propagator(dis, osc.stationary_width(dis, model.rates.diffusion))
