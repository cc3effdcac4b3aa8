"""Architecture stacks, initialization, and full-model forward/backward."""

import dataclasses

import numpy as np
import pytest

from conftest import (
    FD_TOL,
    fd_grad,
    max_rel_err,
    packed_view,
    random_complex,
    synthetic_images,
    tiny_model,
)
from qocnn import layers, model as model_mod
from qocnn.data import Dataset
from qocnn.layers import LayerSpec
from qocnn.model import ModelGraph, model_backward, model_forward, new_model


def fields(specs: list[LayerSpec]) -> list[tuple]:
    """All 8 fields of every spec: kind, in_dim, out_dim, lam, k, s, w, p."""
    return [dataclasses.astuple(spec) for spec in specs]


def tail(n: int, h: int, classes: int, nonlinearity: tuple) -> list[tuple]:
    """complex_linear, nonlinearity, complex_linear, mod_squared, log_softmax."""
    return [
        ("complex_linear", n, h, None, None, None, None, None),
        nonlinearity,
        ("complex_linear", h, classes, None, None, None, None, None),
        ("mod_squared", classes, classes, None, None, None, None, None),
        ("log_softmax", classes, classes, None, None, None, None, None),
    ]


def softplus(h: int) -> tuple:
    return ("mod_softplus", h, h, None, None, None, None, None)


def sinusoid(h: int, lam: float = 0.2) -> tuple:
    return ("sinusoid", h, h, lam, None, None, None, None)


def conv_pool(d: int, k: int, s: int, out: int) -> list[tuple]:
    return [
        ("quantum_conv", d, d, None, k, s, None, None),
        ("split_max_pool", d, out, None, None, None, 2, 2),
    ]


FRONT = conv_pool(392, 4, 2, 196)  # qocnn's default conv and pool


class TestArchitectures:
    def test_onn_stack(self):
        assert fields(model_mod.architecture_specs("onn")) == [
            ("complex_linear", 392, 128, None, None, None, None, None),
            ("mod_softplus", 128, 128, None, None, None, None, None),
            ("complex_linear", 128, 10, None, None, None, None, None),
            ("mod_squared", 10, 10, None, None, None, None, None),
            ("log_softmax", 10, 10, None, None, None, None, None),
        ]

    def test_qonn_stack(self):
        assert fields(model_mod.architecture_specs("qonn")) == [
            ("complex_linear", 392, 128, None, None, None, None, None),
            ("sinusoid", 128, 128, 0.2, None, None, None, None),
            ("complex_linear", 128, 10, None, None, None, None, None),
            ("mod_squared", 10, 10, None, None, None, None, None),
            ("log_softmax", 10, 10, None, None, None, None, None),
        ]

    def test_qocnn_stack(self):
        assert fields(model_mod.architecture_specs("qocnn")) == [
            ("quantum_conv", 392, 392, None, 4, 2, None, None),
            ("split_max_pool", 392, 196, None, None, None, 2, 2),
            ("complex_linear", 196, 64, None, None, None, None, None),
            ("sinusoid", 64, 64, 0.2, None, None, None, None),
            ("complex_linear", 64, 10, None, None, None, None, None),
            ("mod_squared", 10, 10, None, None, None, None, None),
            ("log_softmax", 10, 10, None, None, None, None, None),
        ]

    def test_lambda_override(self):
        specs = model_mod.architecture_specs("qonn", lam=0.5)
        assert specs[1].lam == 0.5

    @pytest.mark.parametrize(
        "arch, kwargs, expected",
        [
            ("onn", {"hidden": 32}, tail(392, 32, 10, softplus(32))),
            ("qonn", {"hidden": 32}, tail(392, 32, 10, sinusoid(32))),
            ("qocnn", {"hidden": 32}, FRONT + tail(196, 32, 10, sinusoid(32))),
            ("onn", {"classes": 3}, tail(392, 128, 3, softplus(128))),
            ("qonn", {"classes": 3}, tail(392, 128, 3, sinusoid(128))),
            ("qocnn", {"classes": 3}, FRONT + tail(196, 64, 3, sinusoid(64))),
            ("onn", {"lam": 0.5}, tail(392, 128, 10, softplus(128))),
            ("qonn", {"lam": 0.5}, tail(392, 128, 10, sinusoid(128, 0.5))),
            ("qocnn", {"lam": 0.5}, FRONT + tail(196, 64, 10, sinusoid(64, 0.5))),
            (
                "qocnn", {"in_dim": 392, "conv_k": 5, "conv_s": 2},
                conv_pool(392, 5, 2, 196) + tail(196, 64, 10, sinusoid(64)),
            ),
            (
                "qocnn", {"in_dim": 20, "conv_k": 3, "conv_s": 1},
                conv_pool(20, 3, 1, 10) + tail(10, 64, 10, sinusoid(64)),
            ),
        ],
    )
    def test_overrides(self, arch, kwargs, expected):
        assert fields(model_mod.architecture_specs(arch, **kwargs)) == expected

    def test_unknown_architecture(self):
        with pytest.raises(ValueError, match="^unknown architecture 'cnn'$"):
            model_mod.architecture_specs("cnn")
        with pytest.raises(ValueError, match="^unknown architecture 'cnn'$"):
            new_model("cnn")


class TestInitialization:
    def test_linear_bounds(self):
        m = new_model("qonn", seed=3)
        w = m.params[0]["M"]
        bound = 1.0 / np.sqrt(392)
        assert w.shape == (392, 128)
        assert np.abs(w.real).max() <= bound and np.abs(w.imag).max() <= bound
        # both halves actually spread over the interval
        assert np.abs(w.real).max() > 0.9 * bound

    def test_conv_kernel_bounds(self):
        # K's fan-in is k: each conv stage applies it as block @ K
        m = new_model("qocnn", seed=4)
        k = m.params[0]["K"]
        bound = 1.0 / np.sqrt(4)
        assert k.shape == (4, 4)
        assert np.abs(k.real).max() <= bound and np.abs(k.imag).max() <= bound
        assert np.abs(k.real).max() > 0.9 * bound

    @pytest.mark.parametrize("arch", ["onn", "qonn"])
    def test_linear_stacks_keep_their_draw(self, arch):
        """Every M is drawn within 1/sqrt(in_dim), re then im, in layer order."""
        m = new_model(arch, seed=5)
        rng = np.random.default_rng(5)
        for spec, p in zip(m.specs, m.params):
            if spec.kind != "complex_linear":
                assert p == {}
                continue
            b = 1.0 / np.sqrt(spec.in_dim)
            shape = (spec.in_dim, spec.out_dim)
            expected = rng.uniform(-b, b, shape) + 1j * rng.uniform(-b, b, shape)
            assert p["M"].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("seed", [7, 8])
    def test_qocnn_signal_survives_its_init(self, seed):
        """The conv keeps enough of the input that a fresh qocnn's output is
        within two decades of qonn's, not stuck near uniform."""
        imgs, labels = synthetic_images(2000, seed=71)
        x = Dataset.from_arrays(imgs[:64], labels[:64], "train").complex_rows(slice(None))

        def after_mod_squared(arch: str) -> float:
            m = new_model(arch, seed=seed)
            out = x
            for spec, p in zip(m.specs, m.params):
                out, _ = layers.layer_forward(spec, p, out)
                if spec.kind == "mod_squared":
                    return float(np.abs(out).max())

        assert after_mod_squared("qocnn") >= 1e-2 * after_mod_squared("qonn")

    def test_seed_reproducible(self):
        a = new_model("qocnn", seed=7)
        b = new_model("qocnn", seed=7)
        c = new_model("qocnn", seed=8)
        for pa, pb in zip(a.params, b.params):
            for name in pa:
                np.testing.assert_array_equal(pa[name], pb[name])
        assert any(
            not np.array_equal(pa[name], pc[name])
            for pa, pc in zip(a.params, c.params)
            for name in pa
        )

    def test_num_params_counts_real_components(self):
        m = tiny_model("onn")  # linear 8x6 + linear 6x4
        assert m.num_params() == 2 * (8 * 6 + 6 * 4)


class TestModelGraphValidation:
    def test_unknown_architecture_rejected(self):
        with pytest.raises(ValueError) as info:
            ModelGraph(arch="cnn", specs=[], params=[])
        assert str(info.value) == "unknown architecture 'cnn'"

    def test_one_parameter_dict_per_layer(self):
        with pytest.raises(ValueError) as info:
            ModelGraph(arch="onn", specs=[LayerSpec("mod_squared", 2, 2)], params=[])
        assert str(info.value) == "one parameter dict required per layer"

    def test_dim_conformance_enforced(self):
        specs = [LayerSpec("complex_linear", 4, 5), LayerSpec("mod_squared", 6, 6)]
        with pytest.raises(ValueError, match="layer 1"):
            ModelGraph(
                arch="onn",
                specs=specs,
                params=[{"M": np.zeros((4, 5), dtype=np.complex128)}, {}],
            )

    def test_param_shape_enforced(self):
        with pytest.raises(ValueError, match="shapes"):
            ModelGraph(
                arch="onn",
                specs=[LayerSpec("complex_linear", 4, 5)],
                params=[{"M": np.zeros((4, 4), dtype=np.complex128)}],
            )

    @pytest.mark.parametrize("seed", [-1, model_mod.SEED_LIMIT, 1.5, True])
    def test_a_seed_a_checkpoint_cannot_store_is_refused(self, seed):
        with pytest.raises(ValueError) as info:
            ModelGraph(arch="onn", specs=[], params=[], seed=seed)
        assert str(info.value) == f"seed must lie in 0..2**63-1, got {seed}"

    def test_new_model_refuses_seed_two_to_the_63(self):
        """2**63 once built and trained, then failed in save_checkpoint's struct.pack."""
        with pytest.raises(ValueError) as info:
            new_model("onn", seed=2**63)
        assert str(info.value) == "seed must lie in 0..2**63-1, got 9223372036854775808"


class TestForwardBackward:
    def test_empty_model_is_identity(self):
        rng = np.random.default_rng(0)
        m = ModelGraph(arch="onn", specs=[], params=[])
        x = random_complex(rng, (3, 5))
        y, caches = model_forward(m, x)
        np.testing.assert_array_equal(y, x)
        assert caches == []

    def test_output_is_log_probability_rows(self):
        rng = np.random.default_rng(1)
        for arch in ("onn", "qonn", "qocnn"):
            m = tiny_model(arch)
            x = random_complex(rng, (5, m.specs[0].in_dim))
            y, _ = model_forward(m, x)
            assert y.shape == (5, m.out_dim)
            np.testing.assert_allclose(np.exp(y).sum(axis=1), 1.0, atol=1e-12)

    def test_layer_index_in_shape_errors(self):
        m = tiny_model("qonn")
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError, match="layer 0"):
            model_forward(m, random_complex(rng, (2, m.specs[0].in_dim + 1)))

    @pytest.mark.parametrize(
        "arch,first", [("onn", "layer 2 (complex_linear)"), ("qocnn", "layer 0 (quantum_conv)")]
    )
    def test_non_finite_forward_names_the_first_layer(self, arch, first, monkeypatch):
        """The error is named from the one forward sweep: each layer runs once."""
        m = new_model(arch, seed=5)
        x = random_complex(np.random.default_rng(6), (4, m.specs[0].in_dim))
        for p in m.params:
            for arr in p.values():
                arr *= 1e200
        calls = []
        real = layers.layer_forward
        monkeypatch.setattr(
            layers, "layer_forward", lambda *args: calls.append(args[0]) or real(*args)
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(layers.NonFiniteError) as info:
                model_forward(m, x)
        last = len(m.specs) - 1
        assert str(info.value) == (
            f"{first} is the first to output inf or NaN; layer {last} "
            f"(log_softmax): log_softmax requires finite entries"
        )
        assert calls == m.specs

    def test_non_finite_input_to_a_first_log_softmax_raises_its_own_error(self):
        """No layer output is non-finite, so the layer's error goes up as it is."""
        m = ModelGraph(arch="onn", specs=[LayerSpec("log_softmax", 3, 3)], params=[{}])
        x = np.array([[0.0, np.nan, 1.0], [0.0, 1.0, 2.0]])
        with pytest.raises(layers.NonFiniteError) as info:
            model_forward(m, x)
        assert str(info.value) == "log_softmax requires finite entries"

    def test_end_to_end_gradients_all_architectures(self):
        rng = np.random.default_rng(4)
        for arch in ("onn", "qonn", "qocnn"):
            m = tiny_model(arch)
            x = random_complex(rng, (3, m.specs[0].in_dim))
            a = rng.normal(size=(3, m.out_dim))
            _, tape = model_forward(m, x)
            grads = model_backward(m, tape, a)

            for i, p in enumerate(m.params):
                for name, arr in p.items():

                    def loss(arr=arr):
                        y, _ = model_forward(m, x)
                        return float((a * y).sum())

                    assert (
                        max_rel_err(packed_view(grads[i][name]), fd_grad(loss, arr))
                        < FD_TOL
                    ), f"{arch} layer {i} param {name}"
