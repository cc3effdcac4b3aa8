"""Layer forward semantics against scalar oracles; backward vs finite differences."""

import math

import numpy as np
import pytest

from conftest import FD_TOL, fd_grad, max_rel_err, packed_view, random_complex
from qocnn import layers
from qocnn.layers import LayerSpec, layer_backward, layer_forward


def loss_weights(rng, shape, complex_out=True):
    """Fixed random linear functional L(y) = sum(a*re(y) + b*im(y))."""
    a = rng.normal(size=shape)
    b = rng.normal(size=shape) if complex_out else None
    return a, b


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def scalar_loss(y, a, b=None):
    if np.iscomplexobj(y):
        return float((a * y.real + b * y.imag).sum())
    return float((a * y).sum())


class TestComplexLinear:
    def test_identity(self):
        rng = np.random.default_rng(0)
        x = random_complex(rng, (3, 4))
        y, _ = layers.complex_linear_forward(x, np.eye(4, dtype=np.complex128))
        np.testing.assert_allclose(y, x)

    def test_basis_vector_extracts_row(self):
        rng = np.random.default_rng(1)
        m = random_complex(rng, (4, 3))
        e = np.zeros((1, 4), dtype=np.complex128)
        e[0, 2] = 1.0
        y, _ = layers.complex_linear_forward(e, m)
        np.testing.assert_allclose(y[0], m[2])

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        x = random_complex(rng, (2, 3))
        m = random_complex(rng, (3, 5))
        y, _ = layers.complex_linear_forward(x, m)
        for i in range(2):
            for j in range(5):
                acc = 0j
                for k in range(3):
                    acc += complex(x[i, k]) * complex(m[k, j])
                assert abs(y[i, j] - acc) < 1e-12

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="3"):
            layers.complex_linear_forward(
                random_complex(rng, (2, 3)), random_complex(rng, (4, 5))
            )

    def test_zero_grad_out(self):
        rng = np.random.default_rng(4)
        x = random_complex(rng, (2, 3))
        m = random_complex(rng, (3, 2))
        _, cache = layers.complex_linear_forward(x, m)
        gx, gm = layers.complex_linear_backward(np.zeros((2, 2)), cache)
        assert not gx.any() and not gm.any()

    def test_1x1_real_reduces_to_product_rule(self):
        x = np.array([[2.0 + 0j]])
        m = np.array([[3.0 + 0j]])
        y, cache = layers.complex_linear_forward(x, m)
        assert y[0, 0] == 6.0
        gx, gm = layers.complex_linear_backward(np.ones((1, 1)), cache)
        assert gx[0, 0] == 3.0 and gm[0, 0] == 2.0

    def test_backward_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        x = random_complex(rng, (1, 3))
        m = random_complex(rng, (3, 2))
        a, b = loss_weights(rng, (1, 2))
        _, cache = layers.complex_linear_forward(x, m)
        gx, gm = layers.complex_linear_backward(a + 1j * b, cache)

        def loss():
            y, _ = layers.complex_linear_forward(x, m)
            return scalar_loss(y, a, b)

        assert max_rel_err(packed_view(gm), fd_grad(loss, m)) < FD_TOL
        assert max_rel_err(packed_view(gx), fd_grad(loss, x)) < FD_TOL


class TestSinusoid:
    def test_zero_maps_to_zero(self):
        y, _ = layers.sinusoid_forward(np.zeros((1, 3), dtype=np.complex128), 0.2)
        assert not y.any()

    def test_sin_peak_passes_through(self):
        t = math.pi / (2 * 0.2)
        x = np.array([[t + 1j * t]])
        y, _ = layers.sinusoid_forward(x, 0.2)
        assert y[0, 0].real == pytest.approx(t)
        assert y[0, 0].imag == pytest.approx(t)

    def test_unit_input_scalar_value(self):
        y, _ = layers.sinusoid_forward(np.array([[1.0 + 0j]]), 0.2)
        assert y[0, 0].real == pytest.approx(1.0 * math.sin(0.2), abs=1e-12)
        assert y[0, 0].real == pytest.approx(0.19867, abs=1e-5)

    def test_acts_independently_on_re_and_im(self):
        rng = np.random.default_rng(6)
        x = random_complex(rng, (2, 4))
        y, _ = layers.sinusoid_forward(x, 0.2)
        re_only, _ = layers.sinusoid_forward(x.real.astype(np.complex128), 0.2)
        np.testing.assert_allclose(y.real, re_only.real)

    def test_nonpositive_lam_rejected(self):
        with pytest.raises(ValueError):
            layers.sinusoid_forward(np.zeros((1, 1), dtype=np.complex128), 0.0)
        with pytest.raises(ValueError):
            LayerSpec("sinusoid", 3, 3, lam=0.0)

    def test_derivative_at_zero_is_zero(self):
        x = np.zeros((1, 2), dtype=np.complex128)
        _, cache = layers.sinusoid_forward(x, 0.2)
        g = layers.sinusoid_backward(np.ones((1, 2)) + 1j * np.ones((1, 2)), cache)
        assert not g.any()

    def test_backward_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        x = 3.0 * random_complex(rng, (2, 5))
        a, b = loss_weights(rng, (2, 5))
        _, cache = layers.sinusoid_forward(x, 0.2)
        gx = layers.sinusoid_backward(a + 1j * b, cache)

        def loss():
            y, _ = layers.sinusoid_forward(x, 0.2)
            return scalar_loss(y, a, b)

        assert max_rel_err(packed_view(gx), fd_grad(loss, x)) < FD_TOL


class TestModSoftplus:
    def test_zero_maps_to_zero(self):
        y, _ = layers.mod_softplus_forward(np.zeros((1, 3), dtype=np.complex128))
        assert not y.any()

    def test_positive_real_preserves_phase(self):
        x = np.array([[2.0 + 0j]])
        y, _ = layers.mod_softplus_forward(x)
        assert y[0, 0].imag == 0.0
        assert y[0, 0].real == pytest.approx(math.log1p(math.exp(2.0)))

    def test_three_four_scalar_oracle(self):
        y, _ = layers.mod_softplus_forward(np.array([[3.0 + 4.0j]]))
        f = math.log1p(math.exp(5.0))
        assert f == pytest.approx(5.00672, abs=1e-5)
        assert y[0, 0].real == pytest.approx(f * 3.0 / 5.0, abs=1e-12)
        assert y[0, 0].imag == pytest.approx(f * 4.0 / 5.0, abs=1e-12)
        assert y[0, 0] == pytest.approx(3.00403 + 4.00537j, abs=1e-5)

    def test_modulus_transformed_phase_preserved(self):
        rng = np.random.default_rng(8)
        x = random_complex(rng, (3, 4))
        y, _ = layers.mod_softplus_forward(x)
        np.testing.assert_allclose(np.angle(y), np.angle(x), atol=1e-12)
        np.testing.assert_allclose(
            np.abs(y), np.logaddexp(0.0, np.abs(x)), atol=1e-12
        )

    def test_backward_vs_finite_differences(self):
        rng = np.random.default_rng(9)
        x = random_complex(rng, (2, 6))
        a, b = loss_weights(rng, (2, 6))
        _, cache = layers.mod_softplus_forward(x)
        gx = layers.mod_softplus_backward(a + 1j * b, cache)

        def loss():
            y, _ = layers.mod_softplus_forward(x)
            return scalar_loss(y, a, b)

        assert max_rel_err(packed_view(gx), fd_grad(loss, x)) < FD_TOL

    def test_backward_matches_recomputing_oracle_bitwise(self):
        def recomputing_backward(grad_out, x):
            """The backward that recomputes softplus of the guarded modulus."""
            r = np.abs(x)
            safe = r >= layers.MOD_SOFTPLUS_ZERO_TOL
            r = np.where(safe, r, 1.0)
            f = np.logaddexp(0.0, r)
            fp = 1.0 / (1.0 + np.exp(-r))
            dot = x.real * grad_out.real + x.imag * grad_out.imag
            grad = (f / r) * grad_out + ((fp * r - f) / r**3) * dot * x
            return np.where(safe, grad, 0.0)

        rng = np.random.default_rng(30)
        x = random_complex(rng, (64, 128)) * rng.choice([1e-3, 1.0, 30.0], (64, 128))
        x[0, :4] = [0.0, 1e-13, 1e-13j, -3e-13 + 2e-13j]  # zero-guard entries
        x[1, 0] = layers.MOD_SOFTPLUS_ZERO_TOL
        g = random_complex(rng, (64, 128))
        _, cache = layers.mod_softplus_forward(x)
        assert not cache[-1][0, :4].any()
        assert same_bits(layers.mod_softplus_backward(g, cache), recomputing_backward(g, x))

    def test_backward_zero_branch(self):
        x = np.zeros((1, 2), dtype=np.complex128)
        _, cache = layers.mod_softplus_forward(x)
        g = layers.mod_softplus_backward(np.ones((1, 2), dtype=np.complex128), cache)
        assert not g.any()


class TestModSquared:
    def test_zero(self):
        y, _ = layers.mod_squared_forward(np.zeros((1, 2), dtype=np.complex128))
        assert not y.any()

    def test_pythagorean(self):
        y, _ = layers.mod_squared_forward(np.array([[3.0 + 4.0j]]))
        assert y.dtype == np.float64
        assert y[0, 0] == 25.0

    def test_backward_vs_finite_differences(self):
        rng = np.random.default_rng(10)
        x = random_complex(rng, (2, 4))
        a = rng.normal(size=(2, 4))
        _, cache = layers.mod_squared_forward(x)
        gx = layers.mod_squared_backward(a, cache)

        def loss():
            y, _ = layers.mod_squared_forward(x)
            return scalar_loss(y, a)

        assert max_rel_err(packed_view(gx), fd_grad(loss, x)) < FD_TOL


class TestLogSoftmax:
    def test_uniform_input(self):
        y = layers.log_softmax(np.full((1, 10), 3.7))
        np.testing.assert_allclose(y, math.log(0.1), atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(11)
        v = rng.normal(size=(2, 10))
        np.testing.assert_allclose(
            layers.log_softmax(v), layers.log_softmax(v + 17.3), atol=1e-12
        )

    def test_one_hot_direct_formula(self):
        v = np.zeros((1, 10))
        v[0, 0] = 1.0
        y = layers.log_softmax(v)
        z = math.exp(1.0) + 9.0
        assert y[0, 0] == pytest.approx(1.0 - math.log(z), abs=1e-12)
        assert y[0, 1] == pytest.approx(-math.log(z), abs=1e-12)

    def test_exp_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        v = 50.0 * rng.normal(size=(20, 10))
        sums = np.exp(layers.log_softmax(v)).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-12)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            layers.log_softmax(np.array([[1.0, np.nan]]))

    def test_backward_vs_finite_differences(self):
        rng = np.random.default_rng(13)
        v = rng.normal(size=(2, 6))
        a = rng.normal(size=(2, 6))
        _, cache = layers.log_softmax_forward(v)
        gv = layers.log_softmax_backward(a, cache)

        def loss():
            y, _ = layers.log_softmax_forward(v)
            return scalar_loss(y, a)

        assert max_rel_err(packed_view(gv), fd_grad(loss, v)) < FD_TOL


class TestSplitMaxPool:
    def test_constant_vector(self):
        x = np.full((1, 6), 2.0 + 3.0j)
        y, _ = layers.split_max_pool_forward(x, 2, 2)
        assert y.shape == (1, 3)
        np.testing.assert_allclose(y, 2.0 + 3.0j)

    def test_hand_case(self):
        x = np.array([[1.0, 3.0, 2.0, 5.0]]) + 1j * np.array([[4.0, 1.0, 6.0, 2.0]])
        y, _ = layers.split_max_pool_forward(x, 2, 2)
        np.testing.assert_array_equal(y.real, [[3.0, 5.0]])
        np.testing.assert_array_equal(y.imag, [[4.0, 6.0]])

    def test_re_and_im_pooled_independently(self):
        rng = np.random.default_rng(14)
        x = random_complex(rng, (3, 8))
        y, _ = layers.split_max_pool_forward(x, 2, 2)
        re_windows = x.real.reshape(3, 4, 2).max(axis=2)
        im_windows = x.imag.reshape(3, 4, 2).max(axis=2)
        np.testing.assert_allclose(y.real, re_windows)
        np.testing.assert_allclose(y.imag, im_windows)

    def test_overlapping_windows(self):
        x = np.array([[1.0, 4.0, 2.0, 3.0, 0.0]], dtype=np.complex128)
        y, _ = layers.split_max_pool_forward(x, 3, 1)
        np.testing.assert_array_equal(y.real, [[4.0, 4.0, 3.0]])

    def test_tie_takes_lowest_index(self):
        x = np.array([[7.0, 7.0]], dtype=np.complex128)
        y, cache = layers.split_max_pool_forward(x, 2, 2)
        g = layers.split_max_pool_backward(np.array([[1.0 + 1.0j]]), cache)
        assert g[0, 0] == 1.0 + 1.0j
        assert g[0, 1] == 0.0

    def test_window_larger_than_input_rejected(self):
        with pytest.raises(ValueError):
            layers.split_max_pool_forward(np.zeros((1, 3), dtype=np.complex128), 4, 1)

    def test_backward_routes_each_output_to_one_slot(self):
        rng = np.random.default_rng(15)
        x = random_complex(rng, (1, 8))
        _, cache = layers.split_max_pool_forward(x, 2, 2)
        for j in range(4):
            g_out = np.zeros((1, 4), dtype=np.complex128)
            g_out[0, j] = 1.0 + 1.0j
            g = layers.split_max_pool_backward(g_out, cache)
            assert (g.real != 0).sum() == 1
            assert (g.imag != 0).sum() == 1
            assert g.real.sum() == 1.0 and g.imag.sum() == 1.0

    def test_backward_matches_add_at_oracle_bitwise(self):
        def add_at_backward(grad_out, cache):
            shape, re_src, im_src = cache
            rows = np.arange(shape[0])[:, None]
            grad_re = np.zeros(shape, dtype=np.float64)
            grad_im = np.zeros(shape, dtype=np.float64)
            np.add.at(grad_re, (rows, re_src), grad_out.real)
            np.add.at(grad_im, (rows, im_src), grad_out.imag)
            return grad_re + 1j * grad_im

        rng = np.random.default_rng(31)
        for w, p in [(2, 2), (3, 1), (3, 2), (2, 3), (1, 1), (5, 2)]:
            for b in (64, 13, 1):  # a full batch, a short last batch, one row
                # few distinct values, so many windows have tied maxima
                x = rng.integers(-2, 3, (b, 40)) + 1j * rng.integers(-2, 3, (b, 40))
                _, cache = layers.split_max_pool_forward(x, w, p)
                g = random_complex(rng, (b, layers.pooled_len(40, w, p)))
                assert same_bits(
                    layers.split_max_pool_backward(g, cache), add_at_backward(g, cache)
                ), f"w={w}, p={p}, b={b}"

    def test_backward_vs_finite_differences_tie_free(self):
        rng = np.random.default_rng(16)
        x = random_complex(rng, (2, 9))
        a, b = loss_weights(rng, (2, 4))
        _, cache = layers.split_max_pool_forward(x, 3, 2)
        gx = layers.split_max_pool_backward(a + 1j * b, cache)

        def loss():
            y, _ = layers.split_max_pool_forward(x, 3, 2)
            return scalar_loss(y, a, b)

        assert max_rel_err(packed_view(gx), fd_grad(loss, x)) < FD_TOL


class TestLayerSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown layer kind"):
            LayerSpec("relu", 4, 4)

    def test_nonpositive_dims_rejected(self):
        with pytest.raises(ValueError):
            LayerSpec("complex_linear", 0, 4)

    def test_shape_preserving_kinds_enforced(self):
        with pytest.raises(ValueError, match="preserve"):
            LayerSpec("mod_squared", 4, 5)

    def test_conv_requirements(self):
        with pytest.raises(ValueError):
            LayerSpec("quantum_conv", 8, 8)
        with pytest.raises(ValueError, match="kernel side"):
            LayerSpec("quantum_conv", 8, 8, k=9, s=1)
        with pytest.raises(ValueError, match="stepsize"):
            LayerSpec("quantum_conv", 8, 8, k=2, s=0)

    def test_pool_out_dim_checked(self):
        with pytest.raises(ValueError, match="out_dim"):
            LayerSpec("split_max_pool", 8, 5, w=2, p=2)


class TestDispatch:
    def test_each_kind_equals_direct_call(self):
        rng = np.random.default_rng(17)
        x = random_complex(rng, (2, 8))
        m = random_complex(rng, (8, 5))
        cases = [
            (layers.linear_spec(8, 5), {"M": m},
             layers.complex_linear_forward(x, m)[0]),
            (layers.sinusoid_spec(8, 0.2), {},
             layers.sinusoid_forward(x, 0.2)[0]),
            (layers.mod_softplus_spec(8), {},
             layers.mod_softplus_forward(x)[0]),
            (layers.mod_squared_spec(8), {},
             layers.mod_squared_forward(x)[0]),
            (layers.pool_spec(8, 2, 2), {},
             layers.split_max_pool_forward(x, 2, 2)[0]),
        ]
        for spec, params, expected in cases:
            y, node = layer_forward(spec, params, x)
            np.testing.assert_allclose(y, expected, atol=1e-14)
            assert node.spec == spec
        k = random_complex(rng, (2, 2))
        plan = layers.build_conv_plan(k, 8, 2, 2)
        y, _ = layer_forward(layers.conv_spec(8, 2, 2), {"K": k}, x)
        np.testing.assert_allclose(y, layers.conv_forward(x, plan)[0], atol=1e-14)
        v = rng.normal(size=(2, 8))
        y, _ = layer_forward(layers.log_softmax_spec(8), {}, v)
        np.testing.assert_allclose(y, layers.log_softmax(v), atol=1e-14)

    def test_tape_consumed_once(self):
        rng = np.random.default_rng(18)
        spec = layers.sinusoid_spec(4, 0.2)
        x = random_complex(rng, (1, 4))
        _, node = layer_forward(spec, {}, x)
        g = np.ones((1, 4), dtype=np.complex128)
        layer_backward(spec, node, g)
        with pytest.raises(ValueError, match="consumed"):
            layer_backward(spec, node, g)

    def test_foreign_tape_rejected(self):
        rng = np.random.default_rng(19)
        x = random_complex(rng, (1, 4))
        _, node = layer_forward(layers.sinusoid_spec(4, 0.2), {}, x)
        with pytest.raises(ValueError, match="belong"):
            layer_backward(layers.mod_softplus_spec(4), node, np.ones((1, 4)))

    def test_input_width_validated(self):
        rng = np.random.default_rng(20)
        with pytest.raises(ValueError, match="expects input"):
            layer_forward(layers.sinusoid_spec(4, 0.2), {}, random_complex(rng, (1, 5)))

    def test_chained_layers_vs_finite_differences(self):
        rng = np.random.default_rng(21)
        x = random_complex(rng, (2, 4))
        m = random_complex(rng, (4, 3))
        spec1 = layers.linear_spec(4, 3)
        spec2 = layers.mod_softplus_spec(3)
        a, b = loss_weights(rng, (2, 3))

        def run():
            h, n1 = layer_forward(spec1, {"M": m}, x)
            y, n2 = layer_forward(spec2, {}, h)
            return y, n1, n2

        y, n1, n2 = run()
        g2, _ = layer_backward(spec2, n2, a + 1j * b)
        gx, gp = layer_backward(spec1, n1, g2)

        def loss():
            return scalar_loss(run()[0], a, b)

        assert max_rel_err(packed_view(gp["M"]), fd_grad(loss, m)) < FD_TOL
        assert max_rel_err(packed_view(gx), fd_grad(loss, x)) < FD_TOL
