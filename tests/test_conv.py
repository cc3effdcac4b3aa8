"""The block-path conv against the dense construction M_f = M_1 ... M_n built
from the paper's definition (naive placement and shift), plus gradients."""

import functools
import math

import numpy as np
import pytest

from conftest import (
    FD_TOL,
    conv_backward_oracle,
    conv_backward_real_oracle,
    conv_forward_oracle,
    conv_forward_real_oracle,
    fd_grad,
    from_blocks_oracle,
    max_rel_err,
    packed_view,
    random_complex,
    to_blocks_oracle,
)
from qocnn import layers
from qocnn.layers import LayerSpec


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


def dense_matrices(kernel: np.ndarray, d: int, k: int, s: int) -> list[np.ndarray]:
    """M_1 .. M_n: the naive placement, then each matrix the shift of the last."""
    mats = [naive_m1(kernel, d, k, s)]
    for _ in range(1, geometry_oracle(d, k, s)[0]):
        mats.append(naive_shift(mats[-1], s))
    return mats


def dense_m_f(kernel: np.ndarray, d: int, k: int, s: int) -> np.ndarray:
    """M_f = M_1 @ ... @ M_n."""
    return functools.reduce(np.matmul, dense_matrices(kernel, d, k, s))


def unit_kernel(k: int, y: int, z: int) -> np.ndarray:
    """E_yz: the k x k kernel with a single 1 at (y, z)."""
    e = np.zeros((k, k), dtype=np.complex128)
    e[y, z] = 1.0
    return e


def block_stage(x: np.ndarray, plan, i: int) -> np.ndarray:
    """x @ M_{i+1} through stage i of the block path, as the bitwise oracle
    conv_forward_real_oracle (conftest) runs it."""
    blocks = layers._float_view(to_blocks_oracle(x, plan, i))
    out = blocks @ layers.real_embedding(plan.kernel)
    return from_blocks_oracle(out.view(np.complex128), plan, i)


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
    """Gradients of y = x @ M_f through the dense matrices: grad_x through
    M_f^H, and the kernel gradient from the prefix and suffix products of the
    composition matrices.  Entry (y, z) of K sits in M_i where M_i of the
    unit kernel E_yz is nonzero."""
    d, k, s = plan.d, plan.k, plan.s
    mats = dense_matrices(plan.kernel, d, k, s)
    grad_x = grad_out @ functools.reduce(np.matmul, mats).conj().T
    g_mf = x.conj().T @ grad_out
    eye = np.eye(d, dtype=np.complex128)
    placed = {
        (y, z): dense_matrices(unit_kernel(k, y, z), d, k, s)
        for y in range(k)
        for z in range(k)
    }
    grad_k = np.zeros((k, k), dtype=np.complex128)
    for i in range(len(mats)):
        prefix = functools.reduce(np.matmul, mats[:i], eye)
        suffix = functools.reduce(np.matmul, mats[i + 1 :], eye)
        g = prefix.conj().T @ g_mf @ suffix.conj().T
        for (y, z), unit in placed.items():
            grad_k[y, z] += g[unit[i] != 0].sum()
    return grad_x, grad_k


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.abs(got - want).max() / max(np.abs(want).max(), 1e-300))


def all_cases(d_max=12, k_max=4, s_max=None):
    """Every (d, k, s) with d <= d_max, k <= min(k_max, d) and s <= s_max,
    or s <= k without s_max."""
    for d in range(1, d_max + 1):
        for k in range(1, min(k_max, d) + 1):
            for s in range(1, (s_max or k) + 1):
                yield d, k, s


class TestGeometry:
    @pytest.mark.parametrize("d,k,s", [(20, 5, 5), (20, 5, 2), (392, 4, 2)])
    def test_matches_ceil_arithmetic(self, d, k, s):
        assert layers.conv_geometry(d, k, s) == geometry_oracle(d, k, s)

    def test_nonoverlapping_stride_hand_case(self):
        # k = 5, s = 5: one matrix, no gap, four full kernels in 20
        n, s0, k_tot = layers.conv_geometry(20, 5, 5)
        assert (n, s0, k_tot) == (1, 0, 4)

    def test_overlapping_stride_hand_case(self):
        # k = 5, s = 2: three matrices, gap 1, ceil(20/6) = 4 kernels each
        n, s0, k_tot = layers.conv_geometry(20, 5, 2)
        assert (n, s0, k_tot) == (3, 1, 4)


class TestConstructionExhaustive:
    """Each stage of the block path, applied to the identity, against the
    naive M_1 and the shift chain, and the whole path against their product."""

    def test_m1_matches_naive_placement(self):
        rng = np.random.default_rng(0)
        for d, k, s in all_cases():
            kernel = random_complex(rng, (k, k))
            plan = layers.build_conv_plan(kernel, d, k, s)
            np.testing.assert_array_equal(
                block_stage(np.eye(d, dtype=np.complex128), plan, 0),
                naive_m1(kernel, d, k, s),
                err_msg=f"(d={d}, k={k}, s={s})",
            )

    def test_each_matrix_is_shift_of_previous(self):
        rng = np.random.default_rng(1)
        for d, k, s in all_cases():
            kernel = random_complex(rng, (k, k))
            plan = layers.build_conv_plan(kernel, d, k, s)
            eye = np.eye(d, dtype=np.complex128)
            for i in range(1, plan.n):
                np.testing.assert_array_equal(
                    block_stage(eye, plan, i),
                    naive_shift(block_stage(eye, plan, i - 1), s),
                    err_msg=f"(d={d}, k={k}, s={s}, i={i})",
                )

    def test_m_f_is_exact_product(self):
        rng = np.random.default_rng(2)
        for d, k, s in all_cases():
            kernel = random_complex(rng, (k, k))
            plan = layers.build_conv_plan(kernel, d, k, s)
            prod = np.eye(d, dtype=np.complex128)
            for m in dense_matrices(kernel, d, k, s):
                prod = prod @ m
            m_f, _ = layers.conv_forward(np.eye(d, dtype=np.complex128), plan)
            np.testing.assert_allclose(m_f, prod, atol=1e-12)

    def test_sequential_application_equals_m_f(self):
        rng = np.random.default_rng(3)
        for d, k, s in all_cases():
            kernel = random_complex(rng, (k, k))
            plan = layers.build_conv_plan(kernel, d, k, s)
            x = random_complex(rng, (2, d))
            seq = x
            for m in dense_matrices(kernel, d, k, s):
                seq = seq @ m
            y, _ = layers.conv_forward(x, plan)
            np.testing.assert_allclose(y, seq, atol=1e-12)
            np.testing.assert_allclose(y, x @ dense_m_f(kernel, d, k, s), atol=1e-12)

    def test_blocks_disjoint_within_each_matrix(self):
        for d, k, s in all_cases():
            n, s0, k_tot = geometry_oracle(d, k, s)
            eye = np.eye(d, dtype=np.complex128)
            for i in range(n):
                hits = np.zeros((d, d), dtype=int)
                blocks = set()
                for y in range(k):
                    for z in range(k):
                        plan = layers.build_conv_plan(unit_kernel(k, y, z), d, k, s)
                        rows, cols = np.nonzero(block_stage(eye, plan, i))
                        hits[rows, cols] += 1
                        blocks |= set((rows - y).tolist())
                assert hits.max() <= 1, (d, k, s, i)
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
            np.testing.assert_array_equal(dense_m_f(plan.kernel, d, k, s), expected)
            eye = np.eye(d, dtype=np.complex128)
            np.testing.assert_array_equal(layers.conv_forward(eye, plan)[0], expected)

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
        kernel = random_complex(rng, (2, 2))
        with pytest.raises(ValueError, match="expects input"):
            layers.layer_forward(
                LayerSpec("quantum_conv", 8, 8, k=2, s=2),
                {"K": kernel},
                random_complex(rng, (1, 9)),
            )


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
        m_f = dense_m_f(plan.kernel, 12, 3, 2)
        np.testing.assert_allclose(gx, g @ m_f.conj().T, atol=1e-12)


class TestBlockPathMatchesDense:
    """The block-wise conv against the dense M_f construction."""

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
                ("y", y, x @ dense_m_f(kernel, d, k, s)),
                ("grad_x", gx, dense_gx),
                ("grad_K", gk, dense_gk),
            ):
                assert rel_err(got, want) <= 1e-12, f"{name} (d={d}, k={k}, s={s})"

    def test_kind_matrix_is_m_f(self):
        """The matrix export reports is the block path applied to I."""
        rng = np.random.default_rng(12)
        for d, k, s in [*all_cases(), (392, 4, 2), (20, 5, 2)]:
            kernel = random_complex(rng, (k, k))
            spec = LayerSpec("quantum_conv", d, d, k=k, s=s)
            m_f = layers.KINDS["quantum_conv"].matrix(spec, {"K": kernel})
            assert rel_err(m_f, dense_m_f(kernel, d, k, s)) <= 1e-12, (d, k, s)


class TestRealArithmeticMatchesComplexOracle:
    """The conv in real arithmetic on the float view against the complex
    block products it replaced (conftest), which sum in another order."""

    @pytest.mark.parametrize("need_input_grad", [True, False])
    def test_output_and_gradients_within_1e12_relative(self, need_input_grad):
        rng = np.random.default_rng(21)
        for d, k, s in [*all_cases(), (392, 4, 2), (20, 5, 2)]:
            plan = layers.build_conv_plan(random_complex(rng, (k, k)), d, k, s)
            x = random_complex(rng, (3, d))
            g = random_complex(rng, (3, d))
            y, cache = layers.conv_forward(x, plan)
            want_y, want_cache = conv_forward_oracle(x, plan)
            gx, gk = layers.conv_backward(g, cache, need_input_grad=need_input_grad)
            want_gx, want_gk = conv_backward_oracle(
                g, want_cache, need_input_grad=need_input_grad
            )
            case = f"(d={d}, k={k}, s={s})"
            assert rel_err(y, want_y) <= 1e-12, f"y {case}"
            assert rel_err(gk, want_gk) <= 1e-12, f"grad_K {case}"
            if need_input_grad:
                assert rel_err(gx, want_gx) <= 1e-12, f"grad_x {case}"
            else:
                assert gx is None and want_gx is None

    def test_column_slices_give_the_bytes_of_contiguous_copies(self):
        rng = np.random.default_rng(22)
        for d, k, s in [(392, 4, 2), (20, 5, 2), (12, 4, 4), (7, 3, 1)]:
            plan = layers.build_conv_plan(random_complex(rng, (k, k)), d, k, s)
            x = random_complex(rng, (5, 2 * d))[:, ::2]
            g = random_complex(rng, (5, 2 * d))[:, 1::2]
            assert not x.flags.c_contiguous and not g.flags.c_contiguous
            got = []
            for xs, gs in ((x, g), (x.copy(), g.copy())):
                y, cache = layers.conv_forward(xs, plan)
                got.append(
                    b"".join(a.tobytes() for a in (y, *layers.conv_backward(gs, cache)))
                )
            assert got[0] == got[1], (d, k, s)


# s > k, gapped blocks (s0 > 0) and d not a multiple of n*s, then wide rows
STAGE_BUFFER_CASES = [
    *all_cases(d_max=14, k_max=5, s_max=7),
    (392, 4, 2), (392, 5, 2), (392, 3, 7), (392, 8, 3), (20, 3, 5), (100, 9, 4),
]


class TestStageBuffersMatchTheCopyingConv:
    """The conv on stage buffers against the conv that copied every stage
    into zero-padded blocks (conftest): the same gemms on the same operands."""

    @staticmethod
    def run(conv_forward, conv_backward, plan, x, g):
        """y, then grad_x and grad_K with and without the input gradient."""
        y, cache = conv_forward(x, plan)
        gx, gk = conv_backward(g, cache)
        skipped, gk_skipped = conv_backward(g, cache, need_input_grad=False)
        assert skipped is None
        return [a.tobytes() for a in (y, gx, gk, gk_skipped)]

    @classmethod
    def each_case(cls, batches=(1, 2, 5, 64)):
        rng = np.random.default_rng(26)
        for d, k, s in STAGE_BUFFER_CASES:
            for b in batches:
                plan = layers.build_conv_plan(random_complex(rng, (k, k)), d, k, s)
                x, g = random_complex(rng, (b, d)), random_complex(rng, (b, d))
                want = cls.run(
                    conv_forward_real_oracle, conv_backward_real_oracle, plan, x, g
                )
                yield (d, k, s, b), plan, x, g, want

    def test_output_and_gradients_bitwise(self):
        for case, plan, x, g, want in self.each_case():
            got = self.run(layers.conv_forward, layers.conv_backward, plan, x, g)
            assert got == want, case

    def test_no_stale_buffer_entry_leaks(self, monkeypatch):
        """Every entry a stage reads is written or zeroed first: buffers that
        start as NaN give the same bytes, and x keeps its own."""
        stage_buffer = layers._stage_buffer

        def nan_filled(b, plan):
            buf = stage_buffer(b, plan)
            buf.fill(np.nan)
            return buf

        monkeypatch.setattr(layers, "_stage_buffer", nan_filled)
        for case, plan, x, g, want in self.each_case():
            x_bytes = x.tobytes()
            got = self.run(layers.conv_forward, layers.conv_backward, plan, x, g)
            assert got == want and x.tobytes() == x_bytes, case

    def test_default_geometry_reads_x_in_place(self):
        rng = np.random.default_rng(27)
        plan = layers.build_conv_plan(random_complex(rng, (4, 4)), 392, 4, 2)
        assert plan.row == plan.d and plan.s0 == 0
        x = random_complex(rng, (8, 392))
        y, (blocks, _, _) = layers.conv_forward(x, plan)
        assert np.shares_memory(blocks[0], x)
        assert not np.shares_memory(y, x) and y.flags.c_contiguous

    def test_backward_passes_over_one_cache_agree(self):
        rng = np.random.default_rng(28)
        for d, k, s in [(392, 4, 2), (392, 5, 2), (20, 3, 5), (13, 5, 2)]:
            plan = layers.build_conv_plan(random_complex(rng, (k, k)), d, k, s)
            x, g = random_complex(rng, (5, d)), random_complex(rng, (5, d))
            _, cache = layers.conv_forward(x, plan)
            first = [a.tobytes() for a in layers.conv_backward(g, cache)]
            again = [a.tobytes() for a in layers.conv_backward(g, cache)]
            assert again == first, (d, k, s)


class TestRealEmbedding:
    def test_conjugate_transpose_is_transpose_bitwise(self):
        rng = np.random.default_rng(23)
        for k in range(1, 7):
            kernel = random_complex(rng, (k, k))
            e = layers.real_embedding(kernel)
            assert e.shape == (2 * k, 2 * k)
            assert layers.real_embedding(kernel.conj().T).tobytes() == e.T.tobytes()

    def test_product_is_homomorphic_within_1e15(self):
        rng = np.random.default_rng(24)
        for k in range(1, 7):
            for _ in range(20):
                a, b = random_complex(rng, (k, k)), random_complex(rng, (k, k))
                assert rel_err(
                    layers.real_embedding(a) @ layers.real_embedding(b),
                    layers.real_embedding(a @ b),
                ) <= 1e-15

    def test_row_product_is_the_float_view_of_the_complex_product(self):
        rng = np.random.default_rng(25)
        kernel = random_complex(rng, (4, 4))
        x = random_complex(rng, (6, 4))
        got = (x.view(np.float64) @ layers.real_embedding(kernel)).view(np.complex128)
        assert rel_err(got, x @ kernel) <= 1e-15


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
                (
                    LayerSpec("quantum_conv", d, d, k=k, s=s),
                    {"K": random_complex(rng, (k, k))},
                    d,
                ),
                (
                    LayerSpec("complex_linear", d, k),
                    {"M": random_complex(rng, (d, k))},
                    k,
                ),
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
        spec = LayerSpec("complex_linear", 4, 2)
        params = {"M": random_complex(rng, (4, 2))}
        _, node = layers.layer_forward(spec, params, random_complex(rng, (1, 4)))
        with pytest.raises(TypeError):
            layers.layer_backward(spec, node, random_complex(rng, (1, 2)), False)
