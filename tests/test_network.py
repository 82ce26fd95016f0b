import numpy as np
import pytest
from numpy.testing import assert_allclose

import oscnet as osc
from oscnet import network
from oscnet.errors import (
    DefectiveMatrix,
    NonDissipativeMode,
    NonPositiveNormalMode,
    ValidationError,
)

from conftest import random_symmetric_hamiltonian


class TestBuildHamiltonian:
    def test_two_oscillators(self):
        spec = osc.NetworkSpec(omega=[1.0, 1.0], coupling=[[0.0, 0.1], [0.1, 0.0]])
        assert_allclose(osc.build_hamiltonian(spec), [[1.0, 0.1], [0.1, 1.0]])

    def test_single_oscillator(self):
        spec = osc.NetworkSpec(omega=[2.5], coupling=[[0.0]])
        assert_allclose(osc.build_hamiltonian(spec), [[2.5]])

    def test_degenerate_symmetric(self):
        spec = osc.degenerate_symmetric_network(3, 1.0, 0.2)
        h = osc.build_hamiltonian(spec)
        assert_allclose(np.diag(h), [1.0, 1.0, 1.0])
        off = h[~np.eye(3, dtype=bool)]
        assert_allclose(off, 0.2)

    def test_asymmetric_coupling_rejected(self):
        with pytest.raises(ValidationError):
            osc.NetworkSpec(omega=[1.0, 1.0], coupling=[[0.0, 0.1], [0.2, 0.0]])

    def test_nonpositive_frequency_rejected(self):
        with pytest.raises(ValidationError):
            osc.NetworkSpec(omega=[1.0, -0.5], coupling=np.zeros((2, 2)))

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValidationError):
            osc.NetworkSpec(omega=[1.0], coupling=[[0.3]])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            osc.NetworkSpec(omega=[1.0, 2.0], coupling=np.zeros((3, 3)))


class TestNormalModes:
    def test_two_by_two_analytic(self):
        # Analytic eigensolve of [[1, .1], [.1, 1]]: frequencies 1 -+ 0.1.
        modes = osc.normal_modes(np.array([[1.0, 0.1], [0.1, 1.0]]))
        assert_allclose(modes.frequencies, [0.9, 1.1], atol=1e-14)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        assert_allclose(
            np.abs(modes.transform),
            [[inv_sqrt2, inv_sqrt2], [inv_sqrt2, inv_sqrt2]],
            atol=1e-14,
        )
        # sign convention: first entry of each row positive
        assert modes.transform[0, 0] > 0 and modes.transform[1, 0] > 0
        assert modes.transform[0, 1] < 0

    def test_degenerate_symmetric_spectrum(self):
        # All-to-all with equal couplings: the matrix is (w - l) I + l * ones,
        # so the spectrum is w - l (multiplicity N-1) and w + (N-1) l.
        spec = osc.degenerate_symmetric_network(3, 1.0, 0.2)
        modes = osc.normal_modes(osc.build_hamiltonian(spec))
        assert_allclose(modes.frequencies, [0.8, 0.8, 1.4], atol=1e-14)

    def test_diagonal_matrix(self):
        modes = osc.normal_modes(np.diag([0.5, 1.5, 2.5]))
        assert_allclose(modes.frequencies, [0.5, 1.5, 2.5])
        assert_allclose(modes.transform, np.eye(3), atol=1e-14)

    def test_nonpositive_mode_rejected(self):
        with pytest.raises(NonPositiveNormalMode):
            osc.normal_modes(np.array([[1.0, 1.5], [1.5, 1.0]]))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 6])
    def test_orthogonality_and_reconstruction(self, rng, n):
        for _ in range(5):
            h = random_symmetric_hamiltonian(rng, n)
            modes = osc.normal_modes(h)
            gram = modes.transform @ modes.transform.T
            assert np.max(np.abs(gram - np.eye(n))) < 1e-12
            rebuilt = modes.transform.T @ np.diag(modes.frequencies) @ modes.transform
            assert np.max(np.abs(rebuilt - h)) < 1e-10


class TestDissipativeMatrix:
    def test_scalar(self):
        dis = osc.dissipative_matrix(np.array([[1.3]]), np.array([[0.4]]))
        assert_allclose(dis.matrix, [[0.2 + 1.3j]])
        assert_allclose(dis.eigenvalues, [0.2 + 1.3j])
        assert_allclose(dis.eigenvectors, [[1.0]])

    def test_zero_damping_rejected(self):
        with pytest.raises(NonDissipativeMode):
            osc.dissipative_matrix(np.array([[1.0]]), np.array([[0.0]]))

    def test_degenerate_pair_analytic(self):
        # N = 2, identical white-noise rate gamma each: damping = 2 gamma I, so
        # the eigenvalues are gamma + i(omega -+ lam).
        omega, lam, gamma = 1.0, 0.1, 0.05
        h = np.array([[omega, lam], [lam, omega]])
        dis = osc.dissipative_matrix(h, 2 * gamma * np.eye(2))
        assert_allclose(
            sorted(dis.eigenvalues, key=lambda z: z.imag),
            [gamma + 1j * (omega - lam), gamma + 1j * (omega + lam)],
            atol=1e-12,
        )

    def test_identical_reservoir_alignment(self, rng):
        # damping proportional to I: eigenvalues are damping/2 + i * mode freq.
        for n in (2, 3, 4):
            h = random_symmetric_hamiltonian(rng, n)
            modes = osc.normal_modes(h)
            rate = 0.3
            dis = osc.dissipative_matrix(h, rate * np.eye(n))
            assert_allclose(
                dis.eigenvalues, rate / 2 + 1j * modes.frequencies, atol=1e-10
            )

    def test_reconstruction(self, rng):
        for n in (2, 4):
            h = random_symmetric_hamiltonian(rng, n)
            damping = np.diag(rng.uniform(0.05, 0.4, size=n))
            dis = osc.dissipative_matrix(h, damping)
            rebuilt = (dis.eigenvectors * dis.eigenvalues) @ dis.eigenvectors_inv
            assert np.max(np.abs(rebuilt - dis.matrix)) < 1e-9

    def test_defective_matrix_rejected(self):
        # Jordan-block generator: equal eigenvalues with a single eigenvector.
        h = np.eye(2)
        damping = np.array([[1.0, 4.0], [0.0, 1.0]])
        with pytest.raises(DefectiveMatrix):
            osc.dissipative_matrix(h, damping)


class TestCouplingRegime:
    def test_weak(self):
        spec = osc.degenerate_symmetric_network(2, 1.0, 0.001)
        assert osc.coupling_regime(spec) == "weak"

    def test_strong_threshold(self):
        spec = osc.degenerate_symmetric_network(10, 1.0, 0.05)
        assert osc.coupling_regime(spec) == "strong"

    def test_single_oscillator_weak(self):
        spec = osc.NetworkSpec(omega=[1.0], coupling=[[0.0]])
        assert osc.coupling_regime(spec) == "weak"

    def test_negative_couplings_count(self):
        spec = osc.degenerate_symmetric_network(4, 1.0, -0.25)
        assert osc.coupling_regime(spec) == "strong"


def _old_fix_row_signs(rows):
    # The earlier per-row loop of normal_modes, kept verbatim as a reference.
    out = rows.copy()
    for row in out:
        for value in row:
            if abs(value) > 1e-12:
                if value < 0:
                    row *= -1.0
                break
    return out


def _old_fix_column_phases(vectors):
    # The earlier per-column loop of rotate_frame, kept verbatim as a reference.
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        for value in col:
            if abs(value) > 1e-12:
                out[:, k] = col * (value.conjugate() / abs(value))
                break
    return out


def _awkward_columns(matrix):
    # Leading entries at and below the 1e-12 threshold, and an all-zero column.
    matrix = matrix.copy()
    matrix[0, 0] = 1e-12
    matrix[:2, 1] = [-1e-13, 0.0]
    matrix[:, 2] = 0.0
    return matrix


class TestFixPhases:
    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_real_rows_match_loop_exactly(self, rng, n):
        vectors = np.linalg.eigh(random_symmetric_hamiltonian(rng, n))[1]
        cases = [vectors.T, rng.normal(size=(n, n))]
        if n >= 3:
            cases.append(_awkward_columns(rng.normal(size=(n, n))).T)
        for rows in cases:
            expected = _old_fix_row_signs(rows)
            assert np.array_equal(network._fix_phases(rows.T).T, expected)

    @pytest.mark.parametrize("n", [1, 4, 9])
    def test_complex_columns_match_loop_to_4_ulp(self, rng, n):
        plain = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        hermitian = plain + plain.conj().T
        cases = [np.linalg.eigh(hermitian)[1], plain]
        if n >= 3:
            cases.append(_awkward_columns(plain))
        for vectors in cases:
            fixed = network._fix_phases(vectors)
            expected = _old_fix_column_phases(vectors)
            ulp = np.spacing(np.abs(expected))
            assert np.all(np.abs(fixed - expected) <= 4 * ulp)
        if n >= 3:  # the last case holds the all-zero column
            assert np.array_equal(fixed[:, 2], np.zeros(n))

    def test_rotate_frame_diagonalizes(self, rng):
        plain = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        width = np.eye(6) + plain @ plain.conj().T
        rotation, coeffs = osc.rotate_frame(width)
        assert_allclose(
            rotation.conj().T @ width @ rotation, np.diag(coeffs), atol=1e-12
        )
        leading = rotation[np.argmax(np.abs(rotation) > 1e-12, axis=0), range(6)]
        assert np.all(leading.real > 0)
        assert np.all(np.abs(leading.imag) <= 1e-15 * leading.real)

    def test_rotate_frame_diagonal_shortcut_unchanged(self):
        rotation, coeffs = osc.rotate_frame(np.diag([2.0, 1.0, 2.0 + 1e-14, 1.5]))
        assert np.array_equal(rotation, np.eye(4, dtype=complex)[:, [1, 3, 0, 2]])
        assert np.array_equal(coeffs, [1.0, 1.5, 2.0, 2.0 + 1e-14])
