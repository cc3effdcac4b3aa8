"""The SVD factorization with amplification beta, and the real embedding the
conv layer multiplies by."""

import numpy as np
import pytest

from conftest import random_complex
from qocnn import layers, linalg


def svd_product(f: linalg.SvdFactors) -> np.ndarray:
    """beta * V @ diag(sigma) @ U over the thin factors."""
    diag = np.zeros((f.V.shape[1], f.U.shape[0]))
    np.fill_diagonal(diag, f.sigma)
    return f.beta * (f.V @ diag @ f.U)


def apply_embedded(kernel: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Complex rows x times kernel, through the float view and real_embedding."""
    return (x.view(np.float64) @ layers.real_embedding(kernel)).view(np.complex128)


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
        m = random_complex(rng, (n1, n2))
        err = np.abs(svd_product(linalg.svd(m)) - m).max() / np.abs(m).max()
        assert err <= 1e-8

    def test_unitarity_residuals(self):
        rng = np.random.default_rng(7)
        f = linalg.svd(random_complex(rng, (6, 6)))
        assert np.abs(f.V @ f.V.conj().T - np.eye(6)).max() <= 1e-8
        assert np.abs(f.U @ f.U.conj().T - np.eye(6)).max() <= 1e-8

    def test_tall_column_keeps_a_thin_v(self):
        """An (n, 1) layer's V is (n, 1), not the n x n of the full SVD."""
        rng = np.random.default_rng(10)
        m = random_complex(rng, (5000, 1))
        f = linalg.svd(m)
        assert f.V.shape == (5000, 1) and f.U.shape == (1, 1)
        assert abs(f.beta - np.linalg.norm(m, 2)) <= 1e-12 * f.beta

    def test_sigma_sorted_nonincreasing(self):
        rng = np.random.default_rng(8)
        f = linalg.svd(random_complex(rng, (5, 5)))
        assert np.all(np.diff(f.sigma) <= 0)

    def test_nonfinite_rejected(self):
        for bad in (np.inf, np.nan, complex(0, np.inf)):
            with pytest.raises(ValueError, match="must be finite"):
                linalg.svd(np.array([[bad, 1.0]], dtype=np.complex128))

    def test_amplification_normalize(self):
        rng = np.random.default_rng(9)
        m = random_complex(rng, (4, 4))
        f = linalg.svd(m)
        assert abs(f.beta - np.linalg.norm(m, 2)) <= 1e-12 * f.beta
        assert f.sigma.max() <= 1.0 + 1e-15
        np.testing.assert_allclose(svd_product(f), m, rtol=0, atol=1e-10)

    def test_amplification_zero_matrix(self):
        f = linalg.svd(np.zeros((3, 3), dtype=np.complex128))
        assert f.beta == 1.0
        np.testing.assert_array_equal(f.sigma, np.zeros(3))
