"""Convolution construction vs naive placement/shift oracles, plus gradients."""

import functools
import math

import numpy as np
import pytest

from conftest import FD_TOL, fd_grad, max_rel_err, packed_view, random_complex
from qocnn import data, layers, model, training


def geometry_oracle(d: int, k: int, s: int) -> tuple[int, int, int]:
    n = math.ceil(k / s)
    s0 = n * s - k
    k_tot = math.ceil(d / (n * s))
    return n, s0, k_tot


def naive_m1(kernel: np.ndarray, d: int, k: int, s: int) -> np.ndarray:
    """Direct placement: kernel copies along the diagonal, spaced k + s0,
    entries beyond the boundary dropped (partial kernels)."""
    n, s0, k_tot = geometry_oracle(d, k, s)
    m = np.zeros((d, d), dtype=np.complex128)
    for x in range(k_tot):
        base = x * (k + s0)
        for y in range(k):
            for z in range(k):
                if base + y < d and base + z < d:
                    m[base + y, base + z] = kernel[y, z]
    return m


def naive_shift(prev: np.ndarray, s: int) -> np.ndarray:
    """Shift every entry by s along both axes; shifted-out entries dropped."""
    d = prev.shape[0]
    out = np.zeros_like(prev)
    out[s:, s:] = prev[: d - s, : d - s]
    return out


def naive_window_forward(x: np.ndarray, kernel: np.ndarray, d, k, s) -> np.ndarray:
    """n = 1 only: apply the kernel block independently inside each window."""
    n, s0, k_tot = geometry_oracle(d, k, s)
    assert n == 1
    out = np.zeros_like(x)
    for w in range(k_tot):
        base = w * (k + s0)
        width = min(k, d - base)
        out[:, base : base + width] = x[:, base : base + width] @ kernel[:width, :width]
    return out


def naive_window_grad_k(x, grad_out, d, k, s) -> np.ndarray:
    """n = 1 only: per-window outer-product kernel gradient, summed."""
    n, s0, k_tot = geometry_oracle(d, k, s)
    assert n == 1
    g = np.zeros((k, k), dtype=np.complex128)
    for w in range(k_tot):
        base = w * (k + s0)
        width = min(k, d - base)
        xw = x[:, base : base + width]
        gw = grad_out[:, base : base + width]
        g[:width, :width] += xw.conj().T @ gw
    return g


def dense_conv_backward(grad_out, x, plan):
    """Gradients of y = x @ m_f through the dense matrices: grad_x through
    m_f^H, and the kernel gradient from the prefix and suffix products of the
    composition matrices, scattered over every placement with np.add.at."""
    grad_x = grad_out @ plan.m_f.conj().T
    g_mf = x.conj().T @ grad_out
    eye = np.eye(plan.d, dtype=np.complex128)
    grad_k = np.zeros((plan.k, plan.k), dtype=np.complex128)
    for i, pl in enumerate(plan.placements):
        prefix = functools.reduce(np.matmul, plan.matrices[:i], eye)
        suffix = functools.reduce(np.matmul, plan.matrices[i + 1 :], eye)
        g = prefix.conj().T @ g_mf @ suffix.conj().T
        np.add.at(grad_k, (pl.ky, pl.kz), g[pl.rows, pl.cols])
    return grad_x, grad_k


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def all_cases(d_max=12, k_max=4):
    for d in range(1, d_max + 1):
        for k in range(1, min(k_max, d) + 1):
            for s in range(1, k + 1):
                yield d, k, s


class TestGeometry:
    @pytest.mark.parametrize("d,k,s", [(20, 5, 5), (20, 5, 2), (392, 4, 2)])
    def test_matches_ceil_arithmetic(self, d, k, s):
        n, s0, k_tot, _ = layers.conv_geometry(d, k, s)
        assert (n, s0, k_tot) == geometry_oracle(d, k, s)

    def test_nonoverlapping_stride_hand_case(self):
        # k = 5, s = 5: one matrix, no gap, four full kernels in 20
        n, s0, k_tot, _ = layers.conv_geometry(20, 5, 5)
        assert (n, s0, k_tot) == (1, 0, 4)

    def test_overlapping_stride_hand_case(self):
        # k = 5, s = 2: three matrices, gap 1, ceil(20/6) = 4 kernels each
        n, s0, k_tot, _ = layers.conv_geometry(20, 5, 2)
        assert (n, s0, k_tot) == (3, 1, 4)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError, match="stepsize"):
            layers.conv_geometry(8, 2, 0)
        with pytest.raises(ValueError, match="kernel side"):
            layers.conv_geometry(8, 9, 1)


class TestConstructionExhaustive:
    def test_m1_matches_naive_placement(self):
        rng = np.random.default_rng(0)
        for d, k, s in all_cases():
            kernel = random_complex(rng, (k, k))
            plan = layers.build_conv_plan(kernel, d, k, s)
            np.testing.assert_array_equal(
                plan.matrices[0], naive_m1(kernel, d, k, s),
                err_msg=f"(d={d}, k={k}, s={s})",
            )

    def test_each_matrix_is_shift_of_previous(self):
        rng = np.random.default_rng(1)
        for d, k, s in all_cases():
            kernel = random_complex(rng, (k, k))
            plan = layers.build_conv_plan(kernel, d, k, s)
            for i in range(1, plan.n):
                np.testing.assert_array_equal(
                    plan.matrices[i], naive_shift(plan.matrices[i - 1], s),
                    err_msg=f"(d={d}, k={k}, s={s}, i={i})",
                )

    def test_m_f_is_exact_product(self):
        rng = np.random.default_rng(2)
        for d, k, s in all_cases():
            kernel = random_complex(rng, (k, k))
            plan = layers.build_conv_plan(kernel, d, k, s)
            prod = np.eye(d, dtype=np.complex128)
            for m in plan.matrices:
                prod = prod @ m
            np.testing.assert_allclose(plan.m_f, prod, atol=1e-12)

    def test_sequential_application_equals_m_f(self):
        rng = np.random.default_rng(3)
        for d, k, s in all_cases():
            kernel = random_complex(rng, (k, k))
            plan = layers.build_conv_plan(kernel, d, k, s)
            x = random_complex(rng, (2, d))
            seq = x
            for m in plan.matrices:
                seq = seq @ m
            np.testing.assert_allclose(seq, x @ plan.m_f, atol=1e-12)

    def test_blocks_disjoint_within_each_matrix(self):
        for d, k, s in all_cases():
            n, s0, k_tot, placements = layers.conv_geometry(d, k, s)
            for pl in placements:
                cells = list(zip(pl.rows.tolist(), pl.cols.tolist()))
                assert len(cells) == len(set(cells))
                blocks = {r - y for r, y in zip(pl.rows.tolist(), pl.ky.tolist())}
                assert len(blocks) <= k_tot

    def test_kernel_shape_validated(self):
        with pytest.raises(ValueError, match="shape"):
            layers.build_conv_plan(np.zeros((2, 3)), 8, 2, 2)


class TestConvForward:
    def test_zero_kernel_zero_output(self):
        rng = np.random.default_rng(4)
        plan = layers.build_conv_plan(np.zeros((3, 3)), 10, 3, 2)
        y, _ = layers.conv_forward(random_complex(rng, (2, 10)), plan)
        assert not y.any()

    def test_identity_kernel_identity_on_covered_indices(self):
        for d, k, s in [(12, 3, 3), (10, 2, 2), (11, 2, 4)]:
            n, s0, k_tot = geometry_oracle(d, k, s)
            assert n == 1
            plan = layers.build_conv_plan(np.eye(k, dtype=np.complex128), d, k, s)
            covered = sorted(
                {
                    w * (k + s0) + y
                    for w in range(k_tot)
                    for y in range(k)
                    if w * (k + s0) + y < d
                }
            )
            expected = np.zeros((d, d), dtype=np.complex128)
            for i in covered:
                expected[i, i] = 1.0
            np.testing.assert_array_equal(plan.m_f, expected)

    def test_n_equals_one_matches_window_oracle(self):
        rng = np.random.default_rng(5)
        for d, k, s in [(12, 3, 3), (10, 4, 4), (11, 3, 3), (9, 2, 5)]:
            kernel = random_complex(rng, (k, k))
            plan = layers.build_conv_plan(kernel, d, k, s)
            x = random_complex(rng, (3, d))
            y, _ = layers.conv_forward(x, plan)
            np.testing.assert_allclose(
                y, naive_window_forward(x, kernel, d, k, s), atol=1e-12
            )

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        plan = layers.build_conv_plan(random_complex(rng, (2, 2)), 8, 2, 2)
        with pytest.raises(ValueError, match="expects input"):
            layers.conv_forward(random_complex(rng, (1, 9)), plan)


class TestConvBackward:
    def test_zero_grad_out(self):
        rng = np.random.default_rng(7)
        plan = layers.build_conv_plan(random_complex(rng, (3, 3)), 10, 3, 2)
        x = random_complex(rng, (2, 10))
        _, cache = layers.conv_forward(x, plan)
        gx, gk = layers.conv_backward(np.zeros((2, 10), dtype=np.complex128), cache)
        assert not gx.any() and not gk.any()

    def test_n_equals_one_matches_window_grad_oracle(self):
        rng = np.random.default_rng(8)
        for d, k, s in [(12, 3, 3), (11, 3, 3), (10, 4, 4)]:
            kernel = random_complex(rng, (k, k))
            plan = layers.build_conv_plan(kernel, d, k, s)
            x = random_complex(rng, (2, d))
            grad_out = random_complex(rng, (2, d))
            _, cache = layers.conv_forward(x, plan)
            _, gk = layers.conv_backward(grad_out, cache)
            np.testing.assert_allclose(
                gk, naive_window_grad_k(x, grad_out, d, k, s), atol=1e-12
            )

    def test_kernel_grad_vs_finite_differences(self):
        # overlapping case n = 2; the plan is rebuilt for every perturbation
        rng = np.random.default_rng(9)
        d, k, s = 10, 3, 2
        kernel = random_complex(rng, (k, k))
        x = random_complex(rng, (2, d))
        a, b = rng.normal(size=(2, d)), rng.normal(size=(2, d))
        plan = layers.build_conv_plan(kernel, d, k, s)
        _, cache = layers.conv_forward(x, plan)
        gx, gk = layers.conv_backward(a + 1j * b, cache)

        def loss():
            p = layers.build_conv_plan(kernel, d, k, s)
            y, _ = layers.conv_forward(x, p)
            return float((a * y.real + b * y.imag).sum())

        assert max_rel_err(packed_view(gk), fd_grad(loss, kernel)) < FD_TOL
        assert max_rel_err(packed_view(gx), fd_grad(loss, x)) < FD_TOL

    def test_input_grad_is_adjoint_route(self):
        rng = np.random.default_rng(10)
        plan = layers.build_conv_plan(random_complex(rng, (3, 3)), 12, 3, 2)
        x = random_complex(rng, (1, 12))
        g = random_complex(rng, (1, 12))
        _, cache = layers.conv_forward(x, plan)
        gx, _ = layers.conv_backward(g, cache)
        np.testing.assert_allclose(gx, g @ plan.m_f.conj().T, atol=1e-12)


class TestBlockPathMatchesDense:
    """The block-wise conv against the dense m_f construction."""

    def test_output_and_gradients_within_1e12_relative(self):
        rng = np.random.default_rng(11)
        for d, k, s in [*all_cases(), (392, 4, 2), (20, 5, 2)]:
            kernel = random_complex(rng, (k, k))
            plan = layers.build_conv_plan(kernel, d, k, s)
            x = random_complex(rng, (3, d))
            g = random_complex(rng, (3, d))
            y, cache = layers.conv_forward(x, plan)
            gx, gk = layers.conv_backward(g, cache)
            dense_gx, dense_gk = dense_conv_backward(g, x, plan)
            for name, got, want in (
                ("y", y, x @ plan.m_f),
                ("grad_x", gx, dense_gx),
                ("grad_K", gk, dense_gk),
            ):
                assert rel_err(got, want) <= 1e-12, f"{name} (d={d}, k={k}, s={s})"

    def test_dense_matrices_built_once_on_first_access(self):
        rng = np.random.default_rng(12)
        plan = layers.build_conv_plan(random_complex(rng, (3, 3)), 10, 3, 2)
        assert "matrices" not in vars(plan) and "m_f" not in vars(plan)
        assert plan.m_f is plan.m_f
        assert plan.matrices is plan.matrices


class TestHotPathIsBlockWise:
    def test_train_and_predict_never_build_a_dense_matrix(self, monkeypatch):
        def forbidden(plan):
            raise AssertionError("a dense d x d conv matrix was built")

        monkeypatch.setattr(layers.ConvPlan, "matrices", property(forbidden))
        monkeypatch.setattr(layers.ConvPlan, "m_f", property(forbidden))
        rng = np.random.default_rng(13)
        m = model.new_model("qocnn", seed=0)
        n = 300  # two predict chunks, the second one short
        ds = data.Dataset.from_arrays(
            rng.integers(0, 256, size=(n, 28, 28), dtype=np.uint8),
            rng.integers(0, 10, n),
            split="test",
        )
        batch = data.Batch(x=ds.complex_rows(slice(0, 64)), labels=ds.labels[:64])
        _, tape = training.forward_loss(m, batch)
        grads = training.backward(m, tape)
        assert grads[0]["K"].shape == (4, 4)
        assert training.predict_log_probs(m, ds).shape == (n, 10)


class TestSkippedInputGradient:
    """need_input_grad=False: no input gradient, the same parameter bytes."""

    @staticmethod
    def backward_twice(spec, params, x, g):
        _, node = layers.layer_forward(spec, params, x)
        full = layers.layer_backward(spec, node, g)
        _, node = layers.layer_forward(spec, params, x)
        return full, layers.layer_backward(spec, node, g, need_input_grad=False)

    def test_conv_and_linear_over_all_cases(self):
        rng = np.random.default_rng(14)
        for d, k, s in [*all_cases(), (392, 4, 2)]:
            x = random_complex(rng, (3, d))
            cases = (
                (layers.conv_spec(d, k, s), {"K": random_complex(rng, (k, k))}, d),
                (layers.linear_spec(d, k), {"M": random_complex(rng, (d, k))}, k),
            )
            for spec, params, out_dim in cases:
                g = random_complex(rng, (3, out_dim))
                (gx, grads), (skipped, grads_skipped) = self.backward_twice(
                    spec, params, x, g
                )
                assert gx.shape == x.shape and skipped is None, (spec, d, k, s)
                assert grads.keys() == grads_skipped.keys()
                for name in grads:
                    assert grads[name].tobytes() == grads_skipped[name].tobytes()

    def test_flag_is_keyword_only(self):
        rng = np.random.default_rng(15)
        spec = layers.linear_spec(4, 2)
        params = {"M": random_complex(rng, (4, 2))}
        _, node = layers.layer_forward(spec, params, random_complex(rng, (1, 4)))
        with pytest.raises(TypeError):
            layers.layer_backward(spec, node, random_complex(rng, (1, 2)), False)
