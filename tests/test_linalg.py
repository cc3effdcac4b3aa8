"""The SVD factorization with amplification beta, and the real embedding the
conv layer multiplies by."""

import numpy as np
import pytest

from conftest import random_complex
from qocnn import layers, linalg
from qocnn.linalg import ComplexMatrix


def rand_cmatrix(rng, n1, n2) -> ComplexMatrix:
    return ComplexMatrix.from_complex(random_complex(rng, (n1, n2)))


def svd_product(f: linalg.SvdFactors) -> np.ndarray:
    """beta * V @ diag(sigma) @ U, with a rectangular diagonal."""
    diag = np.zeros((f.V.re.shape[0], f.U.re.shape[0]))
    np.fill_diagonal(diag, f.sigma)
    return f.beta * (f.V.to_complex() @ diag @ f.U.to_complex())


def apply_embedded(kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Complex rows x times kernel, through the float view and real_embedding."""
    return (x.view(np.float64) @ layers.real_embedding(kernel)).view(np.complex128)


class TestVectorMatrixTypes:
    def test_complex_round_trip(self):
        rng = np.random.default_rng(0)
        z = random_complex(rng, (5, 3))
        m = ComplexMatrix.from_complex(z)
        np.testing.assert_array_equal(m.to_complex(), z)

    def test_mismatched_halves_rejected(self):
        with pytest.raises(ValueError):
            ComplexMatrix(np.zeros((2, 3)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            ComplexMatrix(np.zeros(3), np.zeros(3))


class TestEmbedding:
    def test_block_layout(self):
        kernel = np.array([[1.0 + 3.0j, 2.0 + 4.0j], [5.0 + 7.0j, 6.0 + 8.0j]])
        expected = np.array(
            [
                [1.0, 3.0, 2.0, 4.0],
                [-3.0, 1.0, -4.0, 2.0],
                [5.0, 7.0, 6.0, 8.0],
                [-7.0, 5.0, -8.0, 6.0],
            ]
        )
        np.testing.assert_array_equal(layers.real_embedding(kernel), expected)

    def test_identity_matrix_application(self):
        rng = np.random.default_rng(2)
        x = random_complex(rng, (1, 4))
        np.testing.assert_allclose(apply_embedded(np.eye(4, dtype=np.complex128), x), x)

    def test_basis_vector_extracts_row(self):
        rng = np.random.default_rng(3)
        m = random_complex(rng, (4, 4))
        for j in range(4):
            e = np.zeros((1, 4), dtype=np.complex128)
            e[0, j] = 1.0
            np.testing.assert_allclose(apply_embedded(m, e)[0], m[j])

    def test_apply_matches_scalar_oracle(self):
        # entrywise complex multiply-accumulate written out longhand
        rng = np.random.default_rng(4)
        m = random_complex(rng, (3, 3))
        x = random_complex(rng, (1, 3))
        expected = np.zeros(3, dtype=np.complex128)
        for j in range(3):
            for i in range(3):
                xr, xi = x[0, i].real, x[0, i].imag
                mr, mi = m[i, j].real, m[i, j].imag
                expected[j] += complex(xr * mr - xi * mi, xr * mi + xi * mr)
        np.testing.assert_allclose(apply_embedded(m, x)[0], expected, atol=1e-12)


class TestSvd:
    @pytest.mark.parametrize("n1,n2", [(1, 1), (3, 3), (3, 7), (16, 5), (16, 16)])
    def test_reconstruction(self, n1, n2):
        rng = np.random.default_rng(n1 * 100 + n2)
        m = rand_cmatrix(rng, n1, n2)
        f = linalg.svd(m)
        rec = svd_product(f)
        scale = np.abs(m.to_complex()).max()
        err = np.abs(rec - m.to_complex()).max() / scale
        assert err <= 1e-8

    def test_unitarity_residuals(self):
        rng = np.random.default_rng(7)
        m = rand_cmatrix(rng, 6, 6)
        f = linalg.svd(m)
        v = f.V.to_complex()
        u = f.U.to_complex()
        assert np.abs(v @ v.conj().T - np.eye(6)).max() <= 1e-8
        assert np.abs(u @ u.conj().T - np.eye(6)).max() <= 1e-8

    def test_sigma_sorted_nonincreasing(self):
        rng = np.random.default_rng(8)
        f = linalg.svd(rand_cmatrix(rng, 5, 5))
        assert np.all(np.diff(f.sigma) <= 0)

    def test_nonfinite_rejected(self):
        m = ComplexMatrix(np.array([[np.inf]]), np.array([[0.0]]))
        with pytest.raises(ValueError):
            linalg.svd(m)

    def test_amplification_normalize(self):
        rng = np.random.default_rng(9)
        m = rand_cmatrix(rng, 4, 4)
        f = linalg.amplification_normalize(linalg.svd(m))
        assert f.beta > 0
        assert f.sigma.max() <= 1.0 + 1e-15
        np.testing.assert_allclose(svd_product(f), m.to_complex(), rtol=0, atol=1e-10)

    def test_amplification_zero_matrix(self):
        f = linalg.svd(ComplexMatrix(np.zeros((3, 3)), np.zeros((3, 3))))
        g = linalg.amplification_normalize(f)
        assert g.beta == 1.0
        np.testing.assert_array_equal(g.sigma, np.zeros(3))

    def test_double_normalize_rejected(self):
        rng = np.random.default_rng(10)
        f = linalg.amplification_normalize(linalg.svd(rand_cmatrix(rng, 2, 2)))
        with pytest.raises(ValueError):
            linalg.amplification_normalize(f)
