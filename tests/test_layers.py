"""Layer forward semantics against scalar oracles; backward vs finite differences."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import (
    FD_TOL,
    fd_grad,
    max_rel_err,
    packed_view,
    pool_half_oracle,
    random_complex,
    sinusoid_backward_oracle,
    sinusoid_forward_oracle,
)
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


def complex_from(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """re + i*im with each half copied as is, non-finite values included."""
    z = np.empty(re.shape, dtype=np.complex128)
    z.real = re
    z.imag = im
    return z


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
            layer_forward(
                LayerSpec("complex_linear", 4, 5),
                {"M": random_complex(rng, (4, 5))},
                random_complex(rng, (2, 3)),
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
        for lam in (0.0, -0.2, math.nan, math.inf):
            with pytest.raises(ValueError):
                LayerSpec("sinusoid", 3, 3, lam=lam)

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

    def test_matches_complex_rebuild_oracle_bitwise(self):
        rng = np.random.default_rng(41)
        for shape in [(64, 64), (13, 128), (1, 5)]:
            x = 5.0 * random_complex(rng, shape)
            g = random_complex(rng, shape)
            y, cache = layers.sinusoid_forward(x, 0.2)
            y_ref, cache_ref = sinusoid_forward_oracle(x, 0.2)
            assert same_bits(y, y_ref), shape
            assert same_bits(
                layers.sinusoid_backward(g, cache),
                sinusoid_backward_oracle(g, cache_ref),
            ), shape

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_stays_in_its_half(self, bad):
        finite = np.array([[0.5, -1.5, 3.0]])
        other = np.array([[bad, 0.25, bad]])
        zero = np.zeros_like(finite)
        alone, cache = layers.sinusoid_forward(complex_from(finite, zero), 0.2)
        g_alone = layers.sinusoid_backward(complex_from(finite, zero), cache)
        with np.errstate(invalid="ignore"):
            for re, im, half in [(finite, other, "real"), (other, finite, "imag")]:
                # a non-finite input in the other half
                y, cache = layers.sinusoid_forward(complex_from(re, im), 0.2)
                assert same_bits(getattr(y, half), alone.real)
                g = layers.sinusoid_backward(complex_from(finite, finite), cache)
                assert same_bits(getattr(g, half), g_alone.real)
                # a non-finite gradient in the other half, on a finite input
                _, cache = layers.sinusoid_forward(complex_from(finite, finite), 0.2)
                g = layers.sinusoid_backward(complex_from(re, im), cache)
                assert same_bits(getattr(g, half), g_alone.real)


class TestModSoftplus:
    def test_zero_maps_to_zero(self):
        y, _ = layers.mod_softplus_forward(np.zeros((1, 3), dtype=np.complex128))
        assert not y.any()

    def test_a_modulus_of_1e9_takes_the_smooth_branch(self):
        """Only moduli below 1e-12 map to zero: at r = 1e-9 the output's
        modulus is softplus(r) = log 2 + r/2 + O(r^2), not 0."""
        x = np.array([[1e-9 + 0j, 6e-10j]])
        y, cache = layers.mod_softplus_forward(x)
        assert cache[-1].all()
        for got, r in zip(y[0], (1e-9, 6e-10)):
            assert abs(got) == pytest.approx(math.log(2.0) + r / 2, rel=1e-12)
        np.testing.assert_allclose(np.angle(y), np.angle(x), atol=1e-12)

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
            """The backward that recomputes softplus of the guarded modulus,
            with the forward's formula r + log1p(exp(-r))."""
            r = np.abs(x)
            safe = r >= layers.MOD_SOFTPLUS_ZERO_TOL
            r = np.where(safe, r, 1.0)
            f = r + np.log1p(np.exp(-r))
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

    def test_agrees_with_logaddexp_oracle_within_1e12(self):
        """Forward and backward against the np.logaddexp(0, r) softplus: every
        entry within 1e-12 of the oracle's modulus.  Softplus itself has the
        same bits where r >= 30 or r is inf or NaN, and so have the output and
        the gradient, which also have them where r is guarded to zero."""

        def logaddexp_forward(x):
            r = np.abs(x)
            safe = r >= layers.MOD_SOFTPLUS_ZERO_TOL
            r_div = np.where(safe, r, 1.0)
            f = np.logaddexp(0.0, r)
            return np.where(safe, f / r_div, 0.0) * x, (x, r_div, f, safe)

        rng = np.random.default_rng(31)
        x = random_complex(rng, (64, 128)) * rng.choice(
            [1e-12, 1e-3, 1.0, 5.0, 30.0, 1e3], (64, 128)
        )
        special = [
            0.0, 1e-13, 1e-13j, -3e-13 + 2e-13j, 30.0, -30j, 800.0, 800j,
            np.inf, -np.inf, complex(0, np.inf), np.nan, complex(0, np.nan),
            complex(np.inf, np.nan),
        ]
        x[0, : len(special)] = special
        x[1, 0] = layers.MOD_SOFTPLUS_ZERO_TOL
        g = random_complex(rng, (64, 128))
        with np.errstate(invalid="ignore"):  # inf / inf at r = inf, as before
            y, cache = layers.mod_softplus_forward(x)
            y_ref, cache_ref = logaddexp_forward(x)
            gx = layers.mod_softplus_backward(g, cache)
            gx_ref = layers.mod_softplus_backward(g, cache_ref)
        r = np.abs(x)
        big = (r >= 30) | ~np.isfinite(r)
        exact = big | (r < layers.MOD_SOFTPLUS_ZERO_TOL)
        assert exact[0, : len(special)].all()
        for got, want, same in (
            (cache[2], cache_ref[2], big),
            (y, y_ref, exact),
            (gx, gx_ref, exact),
        ):
            assert same_bits(got[same], want[same])
            got, want = got[~same], want[~same]
            assert (np.abs(got - want) <= 1e-12 * np.abs(want)).all()
        assert not same_bits(cache[2], cache_ref[2])  # not the oracle itself


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
            LayerSpec("split_max_pool", 3, 1, w=4, p=1)

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
        def add_at_backward(grad_out, shape, cache):
            re_src, im_src = layers.pool_sources(cache)
            rows = np.arange(shape[0])[:, None]
            grad_re = np.zeros(shape, dtype=np.float64)
            grad_im = np.zeros(shape, dtype=np.float64)
            np.add.at(grad_re, (rows, re_src), grad_out.real)
            np.add.at(grad_im, (rows, im_src), grad_out.imag)
            return grad_re + 1j * grad_im

        rng = np.random.default_rng(31)
        for w, p in [(2, 2), (3, 1), (3, 2), (2, 3), (1, 1), (5, 2), (4, 3)]:
            for b in (64, 13, 1):  # a full batch, a short last batch, one row
                # few distinct values, so many windows have tied maxima
                x = rng.integers(-2, 3, (b, 40)) + 1j * rng.integers(-2, 3, (b, 40))
                _, cache = layers.split_max_pool_forward(x, w, p)
                g = random_complex(rng, (b, layers.pooled_len(40, w, p)))
                assert same_bits(
                    layers.split_max_pool_backward(g, cache),
                    add_at_backward(g, x.shape, cache),
                ), f"w={w}, p={p}, b={b}"

    def test_forward_matches_argmax_oracle(self):
        rng = np.random.default_rng(42)
        for w, p in [(2, 2), (2, 1), (3, 1), (3, 2), (1, 1), (4, 3), (5, 5)]:
            for b in (64, 13, 1):  # a full batch, a short last batch, one row
                # few distinct values, so many windows have tied maxima
                re = rng.integers(-2, 3, (b, 40)).astype(np.float64)
                im = rng.integers(-2, 3, (b, 40)).astype(np.float64)
                re[rng.random((b, 40)) < 0.05] = np.nan  # the first NaN wins
                im[rng.random((b, 40)) < 0.05] = np.nan
                wide = complex_from(np.repeat(re, 2, axis=1), np.repeat(im, 2, axis=1))
                re_vals, re_src = pool_half_oracle(re, w, p)
                im_vals, im_src = pool_half_oracle(im, w, p)
                for x in (complex_from(re, im), wide[:, ::2]):  # and non-contiguous
                    y, cache = layers.split_max_pool_forward(x, w, p)
                    got_re_src, got_im_src = layers.pool_sources(cache)
                    shape = layers.split_max_pool_backward(np.zeros_like(y), cache).shape
                    case = f"w={w}, p={p}, b={b}, contiguous={x.flags.c_contiguous}"
                    assert shape == x.shape, case
                    assert same_bits(got_re_src, re_src), case
                    assert same_bits(got_im_src, im_src), case
                    assert same_bits(y.real, re_vals), case
                    assert same_bits(y.imag, im_vals), case

    @pytest.mark.parametrize("w,p", [(2, 2), (3, 1), (4, 3)])
    def test_first_nan_of_a_window_keeps_its_payload(self, w, p):
        """Every (w, p) here has windows holding both NaNs, in both orders."""
        first = np.frombuffer(np.uint64(0x7FF8000000000001).tobytes(), np.float64)[0]
        second = np.frombuffer(np.uint64(0x7FF8000000000002).tobytes(), np.float64)[0]
        half = np.array([[1.0, first, second, 2.0, second, first, 3.0]])
        y, _ = layers.split_max_pool_forward(complex_from(half, -half), w, p)
        for got, want in ((y.real, half), (y.imag, -half)):
            want_vals, _ = pool_half_oracle(want, w, p)
            assert same_bits(got, want_vals), (w, p)

    def test_signed_zero_window(self):
        x = complex_from(np.array([[-0.0, 0.0]]), np.array([[-0.0, 0.0]]))
        y, cache = layers.split_max_pool_forward(x, 2, 2)
        assert y.real[0, 0] == 0 and y.imag[0, 0] == 0  # either sign
        g = layers.split_max_pool_backward(np.array([[3.0 + 4.0j]]), cache)
        assert same_bits(g, np.array([[3.0 + 4.0j, 0.0]]))

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_stays_in_its_half(self, bad):
        finite = np.array([[1.0, 0.5, -2.0, 3.0]])
        other = np.array([[bad, 0.2, 0.7, bad]])
        zero = np.zeros_like(finite)
        alone, cache = layers.split_max_pool_forward(complex_from(finite, zero), 2, 2)
        g_alone = layers.split_max_pool_backward(
            complex_from(finite[:, :2], zero[:, :2]), cache
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for re, im, half in [(finite, other, "real"), (other, finite, "imag")]:
                y, cache = layers.split_max_pool_forward(complex_from(re, im), 2, 2)
                assert same_bits(getattr(y, half), alone.real)
                g = layers.split_max_pool_backward(
                    complex_from(re[:, :2], im[:, :2]), cache
                )
                assert same_bits(getattr(g, half), g_alone.real)

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

    def test_checks_allocate_nothing_that_grows_with_the_dimensions(self):
        """A corrupt checkpoint can ask for in_dim near 2**32: the conv and
        pool checks must stay arithmetic, valid spec or not."""
        n = 2**31 - 1
        builds = [
            lambda: LayerSpec("quantum_conv", n, n, k=4, s=2),
            lambda: LayerSpec("quantum_conv", n, n, k=n + 1, s=2),
            lambda: layers.pool_spec(n, 2, 2),
            lambda: LayerSpec("split_max_pool", n, n, w=2, p=2),
        ]
        for build in builds:
            tracemalloc.start()
            try:
                build()
            except ValueError:
                pass
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 64 * 1024


class TestKindTable:
    def test_kind_ids_are_pinned(self):
        """A kind's index is its id in every saved checkpoint."""
        assert layers.LAYER_KINDS == (
            "complex_linear",
            "sinusoid",
            "mod_softplus",
            "mod_squared",
            "log_softmax",
            "quantum_conv",
            "split_max_pool",
        )

    def test_only_the_linear_kinds_have_a_matrix(self):
        rng = np.random.default_rng(18)
        m = random_complex(rng, (8, 5))
        linear = LayerSpec("complex_linear", 8, 5)
        assert layers.KINDS["complex_linear"].matrix(linear, {"M": m}) is m
        specs = [
            LayerSpec("sinusoid", 8, 8, lam=0.2),
            LayerSpec("mod_softplus", 8, 8),
            LayerSpec("mod_squared", 8, 8),
            LayerSpec("log_softmax", 8, 8),
            layers.pool_spec(8, 2, 2),
        ]
        assert [layers.KINDS[s.kind].matrix(s, {}) for s in specs] == [None] * 5

    def test_a_conv_past_a_folded_image_is_refused_before_any_forward(self, monkeypatch):
        monkeypatch.setattr(layers, "layer_forward", None)  # a call would raise TypeError
        spec = LayerSpec("quantum_conv", 393, 393, k=4, s=2)
        with pytest.raises(ValueError) as info:
            layers.KINDS["quantum_conv"].matrix(spec, {"K": np.ones((4, 4), complex)})
        assert str(info.value) == "in_dim 393 exceeds the 392 inputs of a folded image"


class TestDispatch:
    def test_a_kind_without_a_parameter_skips_its_backward_on_request(self):
        spec = LayerSpec("sinusoid", 2, 2, lam=0.2)
        _, cache = layer_forward(spec, {}, np.ones((1, 2), dtype=np.complex128))
        g = np.ones((1, 2), dtype=np.complex128)
        assert layer_backward(spec, cache, g, need_input_grad=False) == (None, {})

    def test_each_kind_equals_direct_call(self):
        """The output and the cache are the kind's own function's."""
        rng = np.random.default_rng(17)
        x = random_complex(rng, (2, 8))
        m = random_complex(rng, (8, 5))
        cases = [
            (
                LayerSpec("complex_linear", 8, 5),
                {"M": m},
                layers.complex_linear_forward(x, m),
            ),
            (LayerSpec("sinusoid", 8, 8, lam=0.2), {}, layers.sinusoid_forward(x, 0.2)),
            (LayerSpec("mod_softplus", 8, 8), {}, layers.mod_softplus_forward(x)),
            (LayerSpec("mod_squared", 8, 8), {}, layers.mod_squared_forward(x)),
            (layers.pool_spec(8, 2, 2), {}, layers.split_max_pool_forward(x, 2, 2)),
        ]
        for spec, params, (expected, expected_cache) in cases:
            y, cache = layer_forward(spec, params, x)
            np.testing.assert_allclose(y, expected, atol=1e-14)
            assert len(cache) == len(expected_cache)
            for got, want in zip(cache, expected_cache):
                np.testing.assert_array_equal(got, want)
        k = random_complex(rng, (2, 2))
        plan = layers.build_conv_plan(k, 8, 2, 2)
        y, _ = layer_forward(LayerSpec("quantum_conv", 8, 8, k=2, s=2), {"K": k}, x)
        np.testing.assert_allclose(y, layers.conv_forward(x, plan)[0], atol=1e-14)
        v = rng.normal(size=(2, 8))
        y, _ = layer_forward(LayerSpec("log_softmax", 8, 8), {}, v)
        np.testing.assert_allclose(y, layers.log_softmax(v), atol=1e-14)

    def test_input_width_validated(self):
        rng = np.random.default_rng(20)
        with pytest.raises(ValueError, match="expects input"):
            layer_forward(
                LayerSpec("sinusoid", 4, 4, lam=0.2), {}, random_complex(rng, (1, 5))
            )

    def test_chained_layers_vs_finite_differences(self):
        rng = np.random.default_rng(21)
        x = random_complex(rng, (2, 4))
        m = random_complex(rng, (4, 3))
        spec1 = LayerSpec("complex_linear", 4, 3)
        spec2 = LayerSpec("mod_softplus", 3, 3)
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
