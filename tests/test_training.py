"""Loss, optimizers, the training loop, checkpoints, and grad_check."""

import itertools
import math
import os
import struct
import sys
import threading
import time
import zlib

import numpy as np
import pytest

from conftest import (
    HOT_PATH_ORACLES,
    model_backward_oracle,
    predict_log_probs_oracle,
    random_complex,
    sgd_step_oracle,
    synthetic_images,
    tiny_batch,
    tiny_model,
)
from qocnn import cli, data, layers, metrics, model as model_mod, training
from qocnn.data import Batch, Dataset
from qocnn.layers import LayerSpec
from qocnn.model import ModelGraph
from qocnn.training import (
    AdamOptimizer,
    CheckpointError,
    SgdOptimizer,
    TrainConfig,
    backward,
    forward_loss,
    grad_check,
    load_checkpoint,
    nll_mean,
    save_checkpoint,
    train,
)


# the first layer to output inf or NaN once the weights are scaled by 1e200
FIRST_NON_FINITE = [("onn", "layer 2 (complex_linear)"), ("qocnn", "layer 0 (quantum_conv)")]


class TestNllLoss:
    """nll_mean on one-row batches: the negative log likelihood of one label."""

    def test_uniform_is_ln_ten(self):
        lp = np.full((1, 10), math.log(0.1))
        assert nll_mean(lp, [4]) == pytest.approx(math.log(10), abs=1e-12)
        assert nll_mean(lp, [4]) == pytest.approx(2.302585, abs=1e-6)

    def test_certain_prediction_is_zero(self):
        lp = np.full((1, 10), -50.0)
        lp[0, 7] = 0.0
        assert nll_mean(lp, [7]) == 0.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=10)
        lp = layers.log_softmax(v[None, :])
        for label in range(10):
            assert nll_mean(lp, [label]) == pytest.approx(-lp[0, label], abs=1e-15)
            assert nll_mean(lp, [label]) >= 0

    def test_out_of_range_label(self):
        lp = np.full((1, 10), math.log(0.1))
        with pytest.raises(ValueError, match="label"):
            nll_mean(lp, [10])
        with pytest.raises(ValueError, match="label"):
            nll_mean(lp, [-1])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError) as info:
            nll_mean(np.zeros((0, 10)), np.zeros(0, dtype=np.int64))
        assert str(info.value) == "empty batch"

    def test_mean_over_batch(self):
        rng = np.random.default_rng(1)
        lp = layers.log_softmax(rng.normal(size=(4, 10)))
        labels = np.array([0, 3, 9, 3])
        expected = np.mean([nll_mean(lp[i : i + 1], labels[i : i + 1]) for i in range(4)])
        assert nll_mean(lp, labels) == pytest.approx(expected, abs=1e-15)


class TestForwardLoss:
    def test_duplicated_item_keeps_loss(self):
        m = tiny_model("qonn")
        b1 = tiny_batch(m, seed=2, n=1)
        b2 = Batch(
            x=np.concatenate([b1.x, b1.x]), labels=np.concatenate([b1.labels] * 2)
        )
        l1, _ = forward_loss(m, b1)
        l2, _ = forward_loss(m, b2)
        assert l1 == pytest.approx(l2, abs=1e-12)

    def test_zeroed_head_gives_exact_uniform_loss(self):
        # zero final linear -> zero logits -> log_softmax is exactly uniform
        for arch in ("onn", "qonn", "qocnn"):
            m = tiny_model(arch, seed=5)
            m.params[-3]["M"][...] = 0.0
            b = tiny_batch(m, seed=6, n=32)
            loss, _ = forward_loss(m, b)
            assert loss == pytest.approx(math.log(m.out_dim), abs=1e-12)

    def test_empty_batch_rejected(self):
        m = tiny_model("qonn")
        empty = Batch(
            x=np.zeros((0, m.specs[0].in_dim), dtype=np.complex128),
            labels=np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="empty"):
            forward_loss(m, empty)

    def test_dimension_error_names_layer(self):
        m = tiny_model("qonn")
        bad = Batch(
            x=np.zeros((2, m.specs[0].in_dim + 3), dtype=np.complex128),
            labels=np.zeros(2, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="layer 0"):
            forward_loss(m, bad)

    def test_loss_decreases_over_sgd_steps(self):
        m = tiny_model("qonn", seed=7)
        b = tiny_batch(m, seed=8, n=32)
        opt = SgdOptimizer(0.05)
        first, tape = forward_loss(m, b)
        for _ in range(50):
            loss, tape = forward_loss(m, b)
            opt.step(m, backward(m, tape, b.labels))
        final, _ = forward_loss(m, b)
        assert final < first


class TestBackward:
    @pytest.mark.parametrize("arch", model_mod.ARCHITECTURES)
    def test_a_tape_gives_the_same_gradients_twice(self, arch):
        """No backward writes to a cache, so one forward's caches may be swept again."""
        m = model_mod.new_model(arch, seed=9)
        batch = Batch(x=random_complex(np.random.default_rng(10), (16, m.specs[0].in_dim)),
                      labels=np.arange(16) % m.out_dim)
        _, tape = forward_loss(m, batch)
        first, second = backward(m, tape, batch.labels), backward(m, tape, batch.labels)
        for p1, p2 in zip(first, second):
            assert p1.keys() == p2.keys()
            for name in p1:
                assert p1[name].tobytes() == p2[name].tobytes()

    def test_dead_path_gradient_is_zero(self):
        # baseline: gradient reaches both linear layers
        m = tiny_model("qonn")
        b = tiny_batch(m)
        _, tape = forward_loss(m, b)
        grads = backward(m, tape, b.labels)
        assert grads[0]["M"].any() and grads[2]["M"].any()
        # zero second linear: grad_x = G @ M^H kills the upstream path, and
        # mod_squared has zero slope at zero, so the layer itself gets none
        m.params[2]["M"][...] = 0.0
        _, tape = forward_loss(m, b)
        grads = backward(m, tape, b.labels)
        assert not grads[0]["M"].any()
        assert not grads[2]["M"].any()

    def test_gradient_mean_scales_with_batch(self):
        m = tiny_model("qonn", seed=9)
        b1 = tiny_batch(m, seed=10, n=1)
        b2 = Batch(
            x=np.concatenate([b1.x, b1.x]), labels=np.concatenate([b1.labels] * 2)
        )
        _, t1 = forward_loss(m, b1)
        _, t2 = forward_loss(m, b2)
        g1 = backward(m, t1, b1.labels)
        g2 = backward(m, t2, b2.labels)
        np.testing.assert_allclose(g1[0]["M"], g2[0]["M"], atol=1e-14)


class TestOptimizers:
    def test_sgd_matches_update_rule(self):
        m = tiny_model("qonn", seed=11)
        before = [p["M"].copy() for p in m.params if "M" in p]
        b = tiny_batch(m, seed=12)
        _, tape = forward_loss(m, b)
        grads = backward(m, tape, b.labels)
        gcopies = [grads[i]["M"].copy() for i in (0, 2)]
        SgdOptimizer(0.1).step(m, grads)
        for prev, g, p in zip(before, gcopies, [m.params[0], m.params[2]]):
            np.testing.assert_allclose(p["M"], prev - 0.1 * g, atol=1e-15)

    def test_zero_learning_rate_freezes_params(self):
        for opt in (SgdOptimizer(0.0), AdamOptimizer(0.0)):
            m = tiny_model("qocnn", seed=13)
            snapshot = [{k: v.copy() for k, v in p.items()} for p in m.params]
            b = tiny_batch(m, seed=14)
            for _ in range(3):
                _, tape = forward_loss(m, b)
                opt.step(m, backward(m, tape, b.labels))
            for p, s in zip(m.params, snapshot):
                for name in p:
                    np.testing.assert_array_equal(p[name], s[name])

    @pytest.mark.parametrize("cls", [SgdOptimizer, AdamOptimizer])
    @pytest.mark.parametrize("lr", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_learning_rate_rejected(self, cls, lr):
        with pytest.raises(ValueError, match="learning_rate must be finite and >= 0"):
            cls(lr)

    def test_adam_matches_reference_formula(self):
        # independent textbook implementation on the flattened real view
        m = tiny_model("qonn", seed=15)
        ref = {
            i: np.concatenate(
                [p[name].view(np.float64).ravel().copy() for name in sorted(p)]
            )
            for i, p in enumerate(m.params)
            if p
        }
        mom = {i: np.zeros_like(v) for i, v in ref.items()}
        vel = {i: np.zeros_like(v) for i, v in ref.items()}
        opt = AdamOptimizer(1e-2)
        b = tiny_batch(m, seed=16)
        for t in range(1, 4):
            _, tape = forward_loss(m, b)
            grads = backward(m, tape, b.labels)
            flat = {
                i: np.concatenate(
                    [
                        np.ascontiguousarray(grads[i][name]).view(np.float64).ravel()
                        for name in sorted(p)
                    ]
                )
                for i, p in enumerate(m.params)
                if p
            }
            opt.step(m, grads)
            for i, g in flat.items():
                mom[i] = 0.9 * mom[i] + 0.1 * g
                vel[i] = 0.999 * vel[i] + 0.001 * g * g
                m_hat = mom[i] / (1 - 0.9**t)
                v_hat = vel[i] / (1 - 0.999**t)
                ref[i] = ref[i] - 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
        for i, expected in ref.items():
            got = np.concatenate(
                [m.params[i][name].view(np.float64).ravel() for name in sorted(m.params[i])]
            )
            np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_unknown_optimizer_rejected(self):
        # one table names the optimizers: TrainConfig checks it, the CLI offers it
        with pytest.raises(ValueError, match="optimizer"):
            TrainConfig(optimizer="rmsprop")
        assert cli.OPTIONS["optimizer"].choices == tuple(training.OPTIMIZERS)


def small_datasets(n_train=96, n_test=48, seed=20) -> tuple[Dataset, Dataset]:
    train_imgs, train_labels = synthetic_images(n_train, seed=seed)
    test_imgs, test_labels = synthetic_images(n_test, seed=seed + 1)
    return (
        Dataset.from_arrays(train_imgs, train_labels, "train"),
        Dataset.from_arrays(test_imgs, test_labels, "test"),
    )


def small_qonn(seed=0) -> ModelGraph:
    return model_mod.new_model("qonn", seed=seed, hidden=12)


class TestTrainLoop:
    def test_empty_dataset_rejected(self):
        train_ds, test_ds = small_datasets()
        empty = Dataset(
            pixels=np.zeros((0, 784), dtype=np.uint8),
            labels=np.zeros(0, dtype=np.int64),
            split="train",
        )
        with pytest.raises(ValueError, match="empty"):
            train(small_qonn(), empty, test_ds, TrainConfig(epochs=1))

    def test_empty_test_split_rejected(self):
        train_ds, _ = small_datasets()
        empty = Dataset(
            pixels=np.zeros((0, 784), dtype=np.uint8),
            labels=np.zeros(0, dtype=np.int64),
            split="test",
        )
        with pytest.raises(ValueError) as info:
            train(small_qonn(), train_ds, empty, TrainConfig(epochs=1))
        assert str(info.value) == "test dataset is empty"

    def test_fixed_seed_reproduces_history_bitwise(self):
        train_ds, test_ds = small_datasets()
        cfg = TrainConfig(epochs=2, batch_size=32, seed=5)
        _, h1 = train(small_qonn(seed=5), train_ds, test_ds, cfg)
        _, h2 = train(small_qonn(seed=5), train_ds, test_ds, cfg)
        assert h1 == h2

    def test_history_lengths_match_epochs_run(self):
        train_ds, test_ds = small_datasets()
        cfg = TrainConfig(epochs=3, batch_size=32, seed=1)
        _, h = train(small_qonn(seed=1), train_ds, test_ds, cfg)
        assert len(h.epochs) == len(h.train_loss) == len(h.test_loss) == 3
        assert h.epochs == [1, 2, 3]

    def test_loss_improves_after_one_epoch(self):
        train_ds, test_ds = small_datasets(n_train=256)
        m = small_qonn(seed=2)
        initial, _ = forward_loss(
            m, Batch(x=train_ds.re + 1j * train_ds.im, labels=train_ds.labels)
        )
        _, h = train(m, train_ds, test_ds, TrainConfig(epochs=1, seed=2))
        final, _ = forward_loss(
            m, Batch(x=train_ds.re + 1j * train_ds.im, labels=train_ds.labels)
        )
        assert final < initial

    @pytest.mark.parametrize("seed", [7, 8, 9])
    def test_qocnn_learns_from_its_own_init(self, seed):
        """Two default epochs at conv (k, s) = (5, 2) learn the synthetic
        task; with a conv kernel that shrinks the signal the output stays
        near uniform."""
        train_ds, test_ds = small_datasets(n_train=2000, n_test=1000, seed=71)
        m = model_mod.new_model("qocnn", seed=seed, conv_k=5, conv_s=2)
        _, h = train(m, train_ds, test_ds, TrainConfig(epochs=2, seed=seed))
        assert h.test_accuracy[-1] >= 0.9

    def test_early_stop_on_flat_test_loss(self):
        # zero-information data: labels independent of pixels, test loss flat
        rng = np.random.default_rng(3)
        imgs = rng.integers(0, 255, size=(64, 28, 28)).astype(np.uint8)
        labels = rng.integers(0, 10, size=64).astype(np.uint8)
        flat_train = Dataset.from_arrays(imgs, labels, "train")
        flat_test = Dataset.from_arrays(imgs[:32], labels[32:][::-1], "test")
        cfg = TrainConfig(epochs=30, batch_size=32, seed=3, patience=2)
        _, h = train(small_qonn(seed=3), flat_train, flat_test, cfg)
        assert len(h.epochs) < 30

    def test_divergence_aborts_with_diagnostic(self):
        train_ds, test_ds = small_datasets()
        cfg = TrainConfig(epochs=2, learning_rate=1e6, optimizer="sgd", seed=4)
        with pytest.raises(
            training.DivergenceError,
            match=r"^training diverged at epoch 1, batch \d+: loss \S+ \(cap 23\.0259\)$",
        ):
            train(small_qonn(seed=4), train_ds, test_ds, cfg)

    @pytest.mark.parametrize("loss,diverges", [(23.02, False), (23.03, True)])
    def test_a_loss_past_10_ln_10_diverges(self, loss, diverges, monkeypatch):
        """The cap is 10 ln 10 = 23.0259, the loss of a true-class probability
        of 1e-10: a batch loss just under it trains on."""
        monkeypatch.setattr(training, "nll_mean", lambda log_probs, labels: loss)
        train_ds, test_ds = small_datasets(n_train=32, n_test=8)
        cfg = TrainConfig(epochs=1, batch_size=32)
        if diverges:
            with pytest.raises(training.DivergenceError) as info:
                train(small_qonn(), train_ds, test_ds, cfg)
            assert str(info.value) == (
                "training diverged at epoch 1, batch 0: loss 23.03 (cap 23.0259)"
            )
        else:
            _, h = train(small_qonn(), train_ds, test_ds, cfg)
            assert h.train_loss == [loss]

    @pytest.mark.parametrize("arch", ["onn", "qocnn"])
    @pytest.mark.parametrize(
        "batch_size,where",
        [(32, "epoch 1, batch 1: "), (96, "epoch 1, in the test pass after batch 0: ")],
    )
    def test_non_finite_activation_is_divergence(self, arch, batch_size, where):
        """A step that overflows the parameters ends in DivergenceError, from
        the next batch or, after the epoch's last step, from the test pass."""
        train_ds, test_ds = small_datasets()
        cfg = TrainConfig(
            epochs=1, batch_size=batch_size, learning_rate=1e100, optimizer="sgd"
        )
        model = model_mod.new_model(arch, seed=3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(training.DivergenceError) as info:
                train(model, train_ds, test_ds, cfg)
        assert str(info.value).startswith(f"training diverged at {where}layer ")
        assert "(log_softmax): log_softmax requires finite entries" in str(info.value)

    @pytest.mark.parametrize("arch,first", FIRST_NON_FINITE)
    def test_overflowing_weights_name_the_first_layer(self, arch, first):
        train_ds, test_ds = small_datasets()
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(training.DivergenceError) as info:
                train(scaled_model(arch, 1e200), train_ds, test_ds, TrainConfig(epochs=1))
        last = len(model_mod.architecture_specs(arch)) - 1
        assert str(info.value) == (
            f"training diverged at epoch 1, batch 0: {first} is the first to "
            f"output inf or NaN; layer {last} (log_softmax): log_softmax "
            f"requires finite entries"
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        for lr in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(learning_rate=lr)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="lbfgs")

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("epochs", 1.5, "epochs must be a positive integer, got 1.5"),
            ("epochs", True, "epochs must be a positive integer, got True"),
            ("batch_size", 1.5, "batch_size must be a positive integer, got 1.5"),
            ("batch_size", True, "batch_size must be a positive integer, got True"),
            ("patience", 1.5, "patience must be a positive integer, got 1.5"),
            ("patience", 0, "patience must be a positive integer, got 0"),
            ("seed", -1, "seed must lie in 0..2**63-1, got -1"),
            ("seed", 2**63, "seed must lie in 0..2**63-1, got 9223372036854775808"),
            ("seed", 2**64, "seed must lie in 0..2**63-1, got 18446744073709551616"),
            ("seed", 1.5, "seed must lie in 0..2**63-1, got 1.5"),
            ("seed", True, "seed must lie in 0..2**63-1, got True"),
        ],
    )
    def test_config_refuses_what_the_cli_refuses(self, field, value, message):
        with pytest.raises(ValueError) as info:
            TrainConfig(**{field: value})
        assert str(info.value) == message

    def test_config_takes_numpy_integers(self):
        cfg = TrainConfig(epochs=np.int64(2), batch_size=np.uint16(8), seed=np.int64(2**62))
        assert (cfg.epochs, cfg.batch_size, cfg.seed) == (2, 8, 2**62)

    def test_history_csv_format(self):
        h = training.TrainHistory()
        h.append(1, 2.0, 1.5, 0.25)
        h.append(2, 1.0, 0.75, 0.5)
        lines = h.to_csv().splitlines()
        assert lines[0] == "epoch,train_loss,test_loss,test_accuracy"
        assert lines[1] == "1,2,1.5,0.25"
        assert len(lines) == 3

    def test_history_csv_keeps_ten_significant_digits(self):
        h = training.TrainHistory()
        h.append(3, 1.234567891, 0.1234567891, 0.9876543211)
        assert h.to_csv() == (
            "epoch,train_loss,test_loss,test_accuracy\n"
            "3,1.234567891,0.1234567891,0.9876543211\n"
        )

    def test_epoch_seed_is_stable_and_distinct(self):
        s1 = training.epoch_seed(0, 1)
        assert s1 == training.epoch_seed(0, 1)
        assert s1 != training.epoch_seed(0, 2)
        assert s1 != training.epoch_seed(1, 1)


class TestProtocol:
    """Early stopping on test loss and the per-epoch shuffle, pinned exactly."""

    @pytest.mark.parametrize(
        "patience,losses,stop",
        [
            (1, [2.0, 2.0, 1.0, 0.5], 2),
            # a tie within 1e-12 is no improvement, a step past it resets the count
            (2, [2.0, 2.0 - 1e-13, 2.0 - 3e-12, 2.0 - 3e-12, 2.0 - 3e-12, 1.0], 5),
            (3, [2.0, 1.5, 1.5, 1.5, 1.5, 1.0], 5),
            (3, [2.0, 2.0, 2.0, 1.0, 1.0 + 1e-13, 1.0, 1.0, 0.5], 7),
            (2, [2.0, 1.5, 1.0, 0.5, 0.25, 0.125], None),
        ],
        ids=["p1-flat", "p2-tie-then-step", "p3-flat", "p3-reset", "p2-never"],
    )
    def test_early_stop_epoch_and_log_line(self, patience, losses, stop, monkeypatch):
        scripted = iter(losses)
        monkeypatch.setattr(
            training, "evaluate_loss_accuracy", lambda model, ds: (next(scripted), 0.5)
        )
        train_ds, test_ds = small_datasets(n_train=32, n_test=8)
        cfg = TrainConfig(epochs=len(losses), batch_size=32, patience=patience)
        lines = []
        _, h = train(small_qonn(), train_ds, test_ds, cfg, log=lines.append)
        ran = stop or len(losses)
        assert h.epochs == list(range(1, ran + 1))
        assert h.test_loss == losses[:ran]
        early = [line for line in lines if line.startswith("early stop")]
        if stop is None:
            assert early == []
        else:
            assert early == [
                f"early stop at epoch {stop}: test loss flat for {patience} epochs"
            ]
            assert lines[-1] == early[0]

    def test_each_epoch_feeds_the_rows_in_its_own_seeded_order(self, monkeypatch):
        n, seed = 96, 11
        imgs, labels = synthetic_images(n, seed=20)
        imgs[:, 0, 0] = np.arange(n)  # the row index, read back from x[:, 0].real
        train_ds = Dataset.from_arrays(imgs, labels, "train")
        test_ds = Dataset.from_arrays(imgs[:8], labels[:8], "test")
        fed = []
        real = training.forward_loss

        def recording(model, batch):
            fed.append(np.rint(batch.x[:, 0].real * 255).astype(int))
            return real(model, batch)

        monkeypatch.setattr(training, "forward_loss", recording)
        cfg = TrainConfig(epochs=2, batch_size=32, seed=seed)
        train(small_qonn(), train_ds, test_ds, cfg)
        assert len(fed) == 6
        for e in (1, 2):
            expected = np.random.default_rng(training.epoch_seed(seed, e)).permutation(n)
            np.testing.assert_array_equal(np.concatenate(fed[3 * e - 3 : 3 * e]), expected)

    def test_epoch_seeds_are_pinned(self):
        """SeedSequence is specified by numpy, so these hold on every host."""
        pairs = [(0, 1), (0, 2), (1, 1), (7, 3), (2**63 - 1, 10)]
        assert [training.epoch_seed(s, e) for s, e in pairs] == [
            3964924996, 3141116543, 1189033389, 3466196061, 2193356003,
        ]

    def test_first_epoch_row_order_is_pinned(self, monkeypatch):
        """PCG64's permutation is specified too: seed 5 feeds these 12 rows
        in this order, in batches of 5, 5 and 2."""
        imgs, labels = synthetic_images(12, seed=20)
        imgs[:, 0, 0] = np.arange(12)  # the row index, read back from x[:, 0].real
        fed = []
        real = training.forward_loss

        def recording(model, batch):
            fed.append(np.rint(batch.x[:, 0].real * 255).astype(int).tolist())
            return real(model, batch)

        monkeypatch.setattr(training, "forward_loss", recording)
        train_ds = Dataset.from_arrays(imgs, labels, "train")
        cfg = TrainConfig(epochs=1, batch_size=5, seed=5)
        train(small_qonn(), train_ds, Dataset.from_arrays(imgs, labels, "test"), cfg)
        assert fed == [[11, 8, 9, 6, 7], [1, 3, 0, 4, 5], [2, 10]]

    def test_train_loss_weights_each_batch_by_its_rows(self, monkeypatch):
        seen = []
        real = training.forward_loss

        def recording(model, batch):
            loss, caches = real(model, batch)
            seen.append((loss, len(batch)))
            return loss, caches

        monkeypatch.setattr(training, "forward_loss", recording)
        train_ds, test_ds = small_datasets(n_train=40, n_test=8)
        _, h = train(small_qonn(), train_ds, test_ds, TrainConfig(epochs=1, batch_size=16))
        assert [rows for _, rows in seen] == [16, 16, 8]
        assert h.train_loss == [sum(loss * rows for loss, rows in seen) / 40]

    def test_test_accuracy_is_metrics_accuracy_of_predict(self):
        """On a test split with 24 of 60 labels moved one class on, a model
        that learned the task scores about 0.6, so a count of the wrong rows
        or of another argmax reads otherwise."""
        train_ds, _ = small_datasets(n_train=512, seed=20)
        imgs, labels = synthetic_images(60, seed=22)
        labels[:24] = (labels[:24] + 1) % 10
        test_ds = Dataset.from_arrays(imgs, labels, "test")
        m = model_mod.new_model("qonn", seed=2)
        _, h = train(m, train_ds, test_ds, TrainConfig(epochs=2, seed=2))
        preds = training.predict_log_probs(m, test_ds).argmax(axis=1)
        assert 0.2 < h.test_accuracy[-1] < 0.9
        assert h.test_accuracy[-1] == metrics.accuracy(preds, test_ds.labels)
        assert h.test_accuracy[-1] == np.count_nonzero(preds == labels) / 60


class TestHotPathMatchesOracles:
    @pytest.mark.parametrize("arch", ["qocnn", "qonn", "onn"])
    def test_seeded_epoch_matches_complex_rebuild_oracles(
        self, arch, synth_datasets, monkeypatch
    ):
        """One seeded epoch on 512 rows gives the same parameter and log-prob
        bytes with the interleaved-view layers as with the earlier paths."""
        train_ds, test_ds = synth_datasets
        config = TrainConfig(epochs=1, seed=9)

        def run():
            m = model_mod.new_model(arch, seed=4)
            _, history = training.train(m, train_ds, test_ds, config)
            params = b"".join(p[name].tobytes() for p in m.params for name in sorted(p))
            log_probs = training.predict_log_probs(m, test_ds)
            return params, history, log_probs.tobytes()

        new = run()
        for module, attr, oracle in HOT_PATH_ORACLES:
            monkeypatch.setattr(module, attr, oracle)
        assert run() == new

    @pytest.mark.parametrize(
        "module, attr",
        [(module, attr) for module, attr, _ in HOT_PATH_ORACLES],
        ids=[attr for _, attr, _ in HOT_PATH_ORACLES],
    )
    def test_each_oracle_patch_reaches_the_epoch(
        self, module, attr, synth_datasets, monkeypatch
    ):
        """Patching the module attribute changes what the seeded epoch runs,
        so the oracle comparison above tests the oracles."""

        class Sentinel(Exception):
            pass

        def raise_sentinel(*args, **kwargs):
            raise Sentinel(attr)

        train_ds, test_ds = synth_datasets
        monkeypatch.setattr(module, attr, raise_sentinel)
        raised = []
        for arch in ("qocnn", "qonn", "onn"):
            m = model_mod.new_model(arch, seed=4)
            try:
                training.train(m, train_ds, test_ds, TrainConfig(epochs=1, seed=9))
            except Sentinel:
                raised.append(arch)
        assert raised

    @pytest.mark.parametrize("arch", ["qocnn", "qonn", "onn"])
    def test_seeded_sgd_run_matches_the_kept_step(self, arch, synth_datasets, monkeypatch):
        """Three seeded SGD epochs give the same parameter and history bytes
        with the shared parameter loop as with the kept nested-loop step."""
        train_ds, test_ds = synth_datasets
        config = TrainConfig(epochs=3, learning_rate=0.02, optimizer="sgd", seed=9)

        def run():
            m = model_mod.new_model(arch, seed=4)
            _, history = training.train(m, train_ds, test_ds, config)
            params = b"".join(p[name].tobytes() for p in m.params for name in sorted(p))
            return params, history

        new = run()
        calls = []

        def counted(self, model, grads):
            calls.append(1)
            sgd_step_oracle(self, model, grads)

        monkeypatch.setattr(training.SgdOptimizer, "step", counted)
        assert run() == new
        assert len(calls) == 3 * -(-len(train_ds) // config.batch_size)
        assert len(set(new[1].train_loss)) == 3  # every epoch moved the loss


class TestBackwardSkipsInputGradient:
    @staticmethod
    def default_batch(m, seed):
        rng = np.random.default_rng(seed)
        return Batch(
            x=random_complex(rng, (64, m.specs[0].in_dim)),
            labels=rng.integers(0, m.out_dim, 64),
        )

    @pytest.mark.parametrize("arch", ["qocnn", "qonn", "onn"])
    def test_gradients_match_the_full_backward_bitwise(self, arch, monkeypatch):
        m = model_mod.new_model(arch, seed=5)
        batch = self.default_batch(m, 6)
        grads = backward(m, forward_loss(m, batch)[1], batch.labels)
        monkeypatch.setattr(training, "model_backward", model_backward_oracle)
        want = backward(m, forward_loss(m, batch)[1], batch.labels)
        for got_p, want_p in zip(grads, want):
            assert got_p.keys() == want_p.keys()
            for name in got_p:
                assert got_p[name].tobytes() == want_p[name].tobytes()

    @pytest.mark.parametrize("arch", ["qocnn", "qonn", "onn"])
    def test_layer_zero_never_forms_its_input_gradient(self, arch, monkeypatch):
        """Layer 0 returns None; a linear layer 0 never takes M^H, and the
        conv's first composition matrix never maps its gradient back."""

        class NoConj(np.ndarray):
            def conj(self):
                raise AssertionError("M^H formed for layer 0")

        returned = []
        layer_backward = layers.layer_backward

        def spy(*args, **kwargs):
            out = layer_backward(*args, **kwargs)
            returned.append(out[0])
            return out

        mapped_back = []
        stage = layers._stage

        def record_stage(a, e, plan, i, head):
            mapped_back.append(i)
            return stage(a, e, plan, i, head)

        m = model_mod.new_model(arch, seed=7)
        batch = self.default_batch(m, 8)
        _, tape = forward_loss(m, batch)
        if m.specs[0].kind == "complex_linear":
            x, m0 = tape[0]
            tape[0] = (x, m0.view(NoConj))
        monkeypatch.setattr(layers, "layer_backward", spy)
        monkeypatch.setattr(layers, "_stage", record_stage)  # after the forward
        backward(m, tape, batch.labels)
        assert returned[-1] is None
        assert all(g is not None for g in returned[:-1])
        if arch == "qocnn":  # stages n-1 .. 1 map their gradient back, stage 0 not
            n = tape[0][1].n
            assert n > 1 and mapped_back == list(range(n - 1, 0, -1))


class TestPoolArgmaxOnlyInBackward:
    def test_forward_and_predict_form_no_argmax(self, monkeypatch):
        calls = []
        window_argmax = layers._window_argmax

        def counting(*args):
            calls.append(args)
            return window_argmax(*args)

        def forbidden(*args):
            raise AssertionError("a pool argmax was formed")

        m = model_mod.new_model("qocnn", seed=8)
        ds, _ = small_datasets(n_train=300)  # two predict chunks, one short
        monkeypatch.setattr(layers, "_window_argmax", forbidden)
        log_probs, _ = model_mod.model_forward(m, ds.complex_rows(slice(None)))
        assert training.predict_log_probs(m, ds).tobytes() == log_probs.tobytes()
        monkeypatch.setattr(layers, "_window_argmax", counting)
        batch = Batch(x=ds.complex_rows(slice(0, 64)), labels=ds.labels[:64])
        _, tape = forward_loss(m, batch)
        assert calls == []
        backward(m, tape, batch.labels)
        assert len(calls) == 2  # the real and the imaginary half, once each


def scaled_model(arch: str, factor: float) -> ModelGraph:
    m = model_mod.new_model(arch, seed=5)
    for p in m.params:
        for arr in p.values():
            arr *= factor
    return m


class TestThreadedPredict:
    """Predict chunks run on worker threads and give the serial pass's bytes."""

    CHUNK = training.PREDICT_CHUNK

    @staticmethod
    def workers(monkeypatch, n):
        monkeypatch.setattr(training, "_available_cpus", lambda: n)

    def test_cpu_count_without_an_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert training._available_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert training._available_cpus() == 1

    @pytest.fixture(scope="class")
    def rows_1000(self):
        imgs, labels = synthetic_images(1000, seed=31)  # ends in a short chunk
        assert 1000 % self.CHUNK > 1
        return Dataset.from_arrays(imgs, labels, "test")

    @pytest.mark.parametrize("arch", ["qocnn", "qonn", "onn"])
    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_matches_serial_oracle_bitwise(self, arch, n_workers, rows_1000, monkeypatch):
        m = model_mod.new_model(arch, seed=6)
        self.workers(monkeypatch, n_workers)
        got = training.predict_log_probs(m, rows_1000)
        assert got.tobytes() == predict_log_probs_oracle(m, rows_1000).tobytes()

    @pytest.mark.parametrize("arch", ["qocnn", "qonn", "onn"])
    def test_bytes_do_not_depend_on_the_chunk_size(self, arch, rows_1000, monkeypatch):
        m = model_mod.new_model(arch, seed=6)
        want = training.predict_log_probs(m, rows_1000).tobytes()
        for chunk in (2, 37, 256, 1000):
            monkeypatch.setattr(training, "PREDICT_CHUNK", chunk)
            got = training.predict_log_probs(m, rows_1000)
            assert got.tobytes() == want, chunk

    @pytest.mark.parametrize("arch", ["qocnn", "qonn", "onn"])
    def test_a_lone_last_row_joins_the_chunk_before_it(self, arch, monkeypatch):
        """A one-row chunk would go through BLAS's matrix-vector kernel, and
        onn's last row would then differ from a forward pass over all rows."""
        imgs, labels = synthetic_images(2 * self.CHUNK + 1, seed=32)
        ds = Dataset.from_arrays(imgs, labels, "test")
        m = model_mod.new_model(arch, seed=6)
        self.workers(monkeypatch, 2)
        whole, _ = model_mod.model_forward(m, ds.complex_rows(slice(None)))
        assert training.predict_log_probs(m, ds).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("arch", ["onn", "qocnn"])
    def test_errstate_reaches_the_workers(self, arch, monkeypatch):
        """Without a context copy per chunk the workers would warn, which
        the suite turns into a RuntimeWarning error."""
        ds, _ = small_datasets(n_train=300)
        m = scaled_model(arch, 1e200)
        messages = []
        for n_workers in (1, 2):
            self.workers(monkeypatch, n_workers)
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(layers.NonFiniteError) as info:
                    training.predict_log_probs(m, ds)
            messages.append(str(info.value))
            assert info.value.rows == slice(0, self.CHUNK)
        assert messages[0] == messages[1]
        assert "(log_softmax): log_softmax requires finite entries" in messages[0]

    def test_every_chunk_sees_the_callers_errstate(self, monkeypatch):
        ds, _ = small_datasets(n_train=8 * self.CHUNK)
        real = training.model_forward
        seen = []

        def recording(model, x):
            seen.append((threading.get_ident(), np.geterr()["over"]))
            time.sleep(0.005)  # so that every worker takes chunks
            return real(model, x)

        monkeypatch.setattr(training, "model_forward", recording)
        self.workers(monkeypatch, 3)
        with np.errstate(over="ignore"):
            training.predict_log_probs(model_mod.new_model("onn", seed=1), ds)
        assert len(seen) == 8 and len({thread for thread, _ in seen}) > 1
        assert {over for _, over in seen} == {"ignore"}

    def test_each_chunk_runs_once_under_contention(self, monkeypatch):
        """More workers than cores and a tiny switch interval: a chunk taken
        twice or skipped would show in the record or in the bytes."""
        ds, _ = small_datasets(n_train=512)
        m = model_mod.new_model("onn", seed=3)
        real = training.model_forward
        taken = []

        def recording(model, x):
            taken.append(x[:, :4].tobytes())
            return real(model, x)

        monkeypatch.setattr(training, "model_forward", recording)
        self.workers(monkeypatch, 6)
        monkeypatch.setattr(training, "PREDICT_CHUNK", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = training.predict_log_probs(m, ds)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(taken) == sorted(
            ds.complex_rows(slice(i, i + 8))[:, :4].tobytes() for i in range(0, 512, 8)
        )
        assert got.tobytes() == predict_log_probs_oracle(m, ds).tobytes()

    def test_earliest_failing_chunk_is_raised(self, monkeypatch):
        """Chunk 3 fails first in time, chunk 1 first in row order."""
        n = 6 * self.CHUNK
        imgs = np.zeros((n, 28, 28), dtype=np.uint8)
        imgs[:, 0, 0] = np.arange(n) // self.CHUNK  # pixel 0 names the chunk
        ds = Dataset.from_arrays(imgs, np.zeros(n, dtype=np.uint8), "test")
        real = training.model_forward

        def failing(model, x):
            chunk = round(x[0, 0].real * 255)
            if chunk == 1:
                time.sleep(0.2)
            if chunk in (1, 3):
                raise ValueError(f"chunk {chunk} failed")
            return real(model, x)

        monkeypatch.setattr(training, "model_forward", failing)
        self.workers(monkeypatch, 3)
        with pytest.raises(ValueError, match="^chunk 1 failed$"):
            training.predict_log_probs(model_mod.new_model("onn", seed=1), ds)

    def test_one_chunk_starts_no_thread(self, monkeypatch):
        def no_start(thread):
            raise AssertionError("a thread was started for one chunk")

        ds, _ = small_datasets(n_train=self.CHUNK)
        m = model_mod.new_model("qocnn", seed=2)
        self.workers(monkeypatch, 2)
        monkeypatch.setattr(threading.Thread, "start", no_start)
        got = training.predict_log_probs(m, ds)
        assert got.tobytes() == predict_log_probs_oracle(m, ds).tobytes()

    @pytest.mark.parametrize("n_workers", [2, 3])
    def test_no_thread_outlives_the_call(self, n_workers, monkeypatch):
        ds, _ = small_datasets(n_train=300)
        self.workers(monkeypatch, n_workers)
        before = threading.active_count()
        training.predict_log_probs(model_mod.new_model("onn", seed=2), ds)
        assert threading.active_count() == before

    def test_workers_take_no_chunk_after_a_failure(self, monkeypatch):
        """Of 20 chunks, only those taken before chunk 0 failed run."""
        n = 20 * self.CHUNK
        imgs = np.zeros((n, 28, 28), dtype=np.uint8)
        imgs[:, 0, 0] = np.arange(n) // self.CHUNK
        ds = Dataset.from_arrays(imgs, np.zeros(n, dtype=np.uint8), "test")
        ran = []

        def failing(model, x):
            chunk = round(x[0, 0].real * 255)
            ran.append(chunk)
            if chunk == 0:
                raise ValueError("chunk 0 failed")
            time.sleep(0.01)
            return np.zeros((x.shape[0], 10)), []

        monkeypatch.setattr(training, "model_forward", failing)
        self.workers(monkeypatch, 2)
        with pytest.raises(ValueError, match="^chunk 0 failed$"):
            training.predict_log_probs(model_mod.new_model("onn", seed=1), ds)
        assert len(ran) <= 4


def checkpoint_bytes_oracle(model: ModelGraph) -> bytes:
    """A version 2 checkpoint packed one field at a time: the file layout
    written down apart from the record structs of qocnn.training."""
    parts = [
        b"QOCN",
        struct.pack("<I", 2),
        struct.pack("<I", model_mod.ARCHITECTURES.index(model.arch)),
        struct.pack("<q", model.seed),
        struct.pack("<d", model.lam),
        struct.pack("<I", len(model.specs)),
    ]
    for spec in model.specs:
        parts.append(struct.pack("<III", layers.LAYER_KINDS.index(spec.kind),
                                 spec.in_dim, spec.out_dim))
        parts.append(struct.pack("<d", spec.lam if spec.lam is not None else 0.0))
        parts.append(struct.pack("<IIII", spec.k or 0, spec.s or 0, spec.w or 0, spec.p or 0))
    for p in model.params:
        for name in sorted(p):
            arr = p[name]
            parts.append(struct.pack("<Q", arr.size))
            parts.append(np.ascontiguousarray(arr.real, dtype="<f8").tobytes())
            parts.append(np.ascontiguousarray(arr.imag, dtype="<f8").tobytes())
    blob = b"".join(parts)
    return blob + struct.pack("<I", zlib.crc32(blob))


def negative_seed_checkpoint(blob: bytes) -> bytes:
    """A version 2 checkpoint with header seed -1 and its CRC32 recomputed."""
    at = training._PREAMBLE.size + 4  # the seed follows the architecture id
    payload = blob[:at] + struct.pack("<q", -1) + blob[at + 8 : -4]
    return payload + struct.pack("<I", zlib.crc32(payload))


class TestCheckpoints:
    @pytest.mark.parametrize("arch", model_mod.ARCHITECTURES)
    @pytest.mark.parametrize("build", ["default", "lam=0.5", "gradcheck"])
    def test_bytes_match_the_field_by_field_oracle(self, arch, build, tmp_path):
        if build == "gradcheck":
            m, _ = cli.tiny_instance(arch, seed=3)
        elif build == "lam=0.5":
            m = model_mod.new_model(arch, seed=3, lam=0.5)
        else:
            m = model_mod.new_model(arch, seed=3)
        save_checkpoint(m, tmp_path / "m.ckpt")
        assert (tmp_path / "m.ckpt").read_bytes() == checkpoint_bytes_oracle(m)

    def test_round_trip_bitwise(self, tmp_path):
        for arch in ("onn", "qonn", "qocnn"):
            m = tiny_model(arch, seed=21)
            path = tmp_path / f"{arch}.ckpt"
            save_checkpoint(m, path)
            loaded = load_checkpoint(path)
            assert loaded.arch == m.arch
            assert loaded.specs == m.specs
            assert loaded.seed == m.seed
            for pa, pb in zip(m.params, loaded.params):
                assert sorted(pa) == sorted(pb)
                for name in pa:
                    assert pa[name].tobytes() == pb[name].tobytes()

    def test_signed_zeros_and_non_finite_weights_round_trip_bitwise(self, tmp_path):
        m = tiny_model("onn", seed=24)
        special = [-0.0, 0.0, np.inf, -np.inf, np.nan, 1.5]
        pairs = np.array(list(itertools.product(special, repeat=2)))  # (re, im)
        z = m.params[0]["M"].reshape(-1)  # 48 entries, a view
        z.real[: len(pairs)], z.imag[: len(pairs)] = pairs.T
        save_checkpoint(m, tmp_path / "m.ckpt")
        loaded = load_checkpoint(tmp_path / "m.ckpt")
        for pa, pb in zip(m.params, loaded.params):
            for name in pa:
                assert pa[name].tobytes() == pb[name].tobytes()

    def test_saved_file_round_trips_through_resave(self, tmp_path):
        m = tiny_model("qocnn", seed=22)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(m, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        m = tiny_model("onn")
        save_checkpoint(m, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(
            CheckpointError, match=r"^bad checkpoint magic b'NOPE', expected b'QOCN'$"
        ):
            load_checkpoint(path)

    def test_version_mismatch_names_both_versions(self, tmp_path):
        path = tmp_path / "v9.ckpt"
        save_checkpoint(tiny_model("onn"), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (9).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(
            CheckpointError,
            match=r"^checkpoint version 9 unsupported, this build reads versions 1 to 2$",
        ):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "cut.ckpt"
        save_checkpoint(tiny_model("onn"), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        # the CRC32 is the last 4 bytes left, so the payload ends 20 bytes short
        with pytest.raises(
            CheckpointError,
            match=rf"^checkpoint truncated: wanted \d+ bytes at offset \d+, "
            rf"the payload has {len(blob) - 20}$",
        ):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "extra.ckpt"
        save_checkpoint(tiny_model("onn"), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(
            CheckpointError, match=r"^8 trailing bytes after checkpoint payload$"
        ):
            load_checkpoint(path)

    @pytest.mark.parametrize("arch,label", [("qonn", "onn"), ("onn", "qocnn")])
    def test_arch_id_that_disagrees_with_the_layers_rejected(self, tmp_path, arch, label):
        path = tmp_path / "relabelled.ckpt"
        save_checkpoint(tiny_model(arch), path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = model_mod.ARCHITECTURES.index(label).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        msg = str(info.value)
        assert msg.startswith(f"checkpoint labelled {label} holds layers ")
        stored = ", ".join(s.kind for s in tiny_model(arch).specs)
        expected = ", ".join(s.kind for s in model_mod.architecture_specs(label))
        assert stored in msg and expected in msg

    @staticmethod
    def tiny_qocnn_blob(tmp_path) -> tuple[ModelGraph, bytes]:
        m = model_mod.new_model(
            "qocnn", seed=31, in_dim=8, hidden=2, classes=2,
            conv_k=2, conv_s=1, pool_w=2, pool_p=2,
        )
        save_checkpoint(m, tmp_path / "tiny.ckpt")
        return m, (tmp_path / "tiny.ckpt").read_bytes()

    def test_every_bit_flip_and_truncation_raises_a_checkpoint_error(self, tmp_path):
        _, blob = self.tiny_qocnn_blob(tmp_path)
        assert blob[4:8] == (2).to_bytes(4, "little")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob)
        fd = os.open(bad, os.O_WRONLY)
        try:
            for bit in range(8 * len(blob)):
                i = bit // 8
                os.pwrite(fd, bytes([blob[i] ^ (1 << (bit % 8))]), i)
                with pytest.raises(CheckpointError):
                    load_checkpoint(bad)
                os.pwrite(fd, blob[i : i + 1], i)
        finally:
            os.close(fd)
        assert bad.read_bytes() == blob
        for n in range(len(blob) - 1, -1, -1):
            os.truncate(bad, n)
            with pytest.raises(CheckpointError):
                load_checkpoint(bad)

    def test_a_flipped_weight_bit_fails_the_crc(self, tmp_path):
        _, blob = self.tiny_qocnn_blob(tmp_path)
        flipped = bytearray(blob)
        flipped[-12] ^= 0x01  # low mantissa bit of the last weight's imaginary part
        (tmp_path / "bad.ckpt").write_bytes(bytes(flipped))
        with pytest.raises(CheckpointError, match="^checkpoint CRC32 mismatch: "):
            load_checkpoint(tmp_path / "bad.ckpt")

    def test_an_invalid_layer_names_it(self, tmp_path):
        path = tmp_path / "onn.ckpt"
        save_checkpoint(model_mod.new_model("onn", seed=1), path)
        blob = bytearray(path.read_bytes())
        blob[32] ^= 0x01  # the first layer's kind id: complex_linear -> sinusoid
        path.write_bytes(bytes(blob))
        with pytest.raises(
            CheckpointError,
            match=r"^checkpoint layer 0 \(sinusoid\) is invalid: sinusoid requires a finite lam > 0$",
        ):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "layer, field, message",
        [  # _LAYER fields: kind id, in_dim, out_dim, lam, k, s, w, p
            (0, 5, r"0 \(quantum_conv\) is invalid: stepsize 9 exceeds input length 8"),
            (1, 7, r"1 \(split_max_pool\) is invalid: pooling stride 9 exceeds input "
                   r"length 8"),
        ],
        ids=["conv-s", "pool-p"],
    )
    def test_a_step_past_the_input_is_invalid(self, tmp_path, layer, field, message):
        _, blob = self.tiny_qocnn_blob(tmp_path)
        size = training._LAYER.size
        at = training._PREAMBLE.size + training._HEADER.size + layer * size
        values = list(training._LAYER.unpack_from(blob, at))
        values[field] = 9  # in_dim is 8
        path = tmp_path / "bad.ckpt"
        path.write_bytes(blob[:at] + training._LAYER.pack(*values) + blob[at + size :])
        with pytest.raises(CheckpointError, match=f"^checkpoint layer {message}$"):
            load_checkpoint(path)

    def test_a_version_1_file_still_loads_bitwise(self, tmp_path):
        m, blob = self.tiny_qocnn_blob(tmp_path)
        # version 1: the same layout with version 1 and no trailing CRC32
        v1 = b"QOCN" + (1).to_bytes(4, "little") + blob[8:-4]
        (tmp_path / "v1.ckpt").write_bytes(v1)
        loaded = load_checkpoint(tmp_path / "v1.ckpt")
        assert loaded.arch == m.arch and loaded.specs == m.specs
        assert loaded.seed == m.seed and loaded.lam == m.lam
        for pa, pb in zip(m.params, loaded.params):
            assert sorted(pa) == sorted(pb)
            for name in pa:
                assert pa[name].tobytes() == pb[name].tobytes()
        save_checkpoint(loaded, tmp_path / "v2.ckpt")
        assert (tmp_path / "v2.ckpt").read_bytes() == blob

    def test_the_largest_seed_round_trips(self, tmp_path):
        m = model_mod.new_model("onn", seed=model_mod.SEED_LIMIT - 1)
        save_checkpoint(m, tmp_path / "m.ckpt")
        assert load_checkpoint(tmp_path / "m.ckpt").seed == 2**63 - 1

    def test_a_negative_seed_under_a_matching_crc_is_invalid(self, tmp_path):
        _, blob = self.tiny_qocnn_blob(tmp_path)
        path = tmp_path / "negative-seed.ckpt"
        path.write_bytes(negative_seed_checkpoint(blob))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == (
            "checkpoint model is invalid: seed must lie in 0..2**63-1, got -1"
        )

    def test_trained_model_round_trip(self, tmp_path):
        train_ds, test_ds = small_datasets(n_train=64, n_test=32)
        m = small_qonn(seed=23)
        train(m, train_ds, test_ds, TrainConfig(epochs=1, seed=23))
        path = tmp_path / "trained.ckpt"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        for pa, pb in zip(m.params, loaded.params):
            for name in pa:
                assert pa[name].tobytes() == pb[name].tobytes()


class TestGradCheck:
    def test_linear_only_model_is_exact(self):
        specs = [
            LayerSpec("complex_linear", 6, 4),
            LayerSpec("mod_squared", 4, 4),
            LayerSpec("log_softmax", 4, 4),
        ]
        rng = np.random.default_rng(24)
        params = [model_mod.init_layer_params(s, rng) for s in specs]
        m = ModelGraph(arch="onn", specs=specs, params=params)
        b = tiny_batch(m, seed=25)
        report = grad_check(m, b)
        assert report.passed
        assert report.layers[0].max_rel_err < 1e-6

    def test_tiny_conv_composes_two_stages(self):
        """The checked conv has a second stage, which reads the buffer the
        first one wrote, so its head clearing is finite-differenced too."""
        spec = tiny_model("qocnn").specs[0]
        assert spec.kind == "quantum_conv"
        assert layers.conv_geometry(spec.in_dim, spec.k, spec.s)[0] >= 2

    def test_full_tiny_qocnn(self):
        m = tiny_model("qocnn", seed=26)
        report = grad_check(m, tiny_batch(m, seed=27))
        assert report.passed
        assert report.max_rel_err < 1e-4
        assert {l.kind for l in report.layers} == {
            "quantum_conv", "split_max_pool", "complex_linear", "sinusoid",
            "mod_squared", "log_softmax",
        }

    def test_pool_tie_components_skipped_not_failed(self):
        # identity-weighted linear into a tied pool window: perturbing the
        # diagonal entries resolves the tie differently on each FD side
        specs = [
            LayerSpec("complex_linear", 4, 4),
            layers.pool_spec(4, 2, 2),
            LayerSpec("mod_squared", 2, 2),
            LayerSpec("log_softmax", 2, 2),
        ]
        params = [
            {"M": np.eye(4, dtype=np.complex128)}, {}, {}, {},
        ]
        m = ModelGraph(arch="onn", specs=specs, params=params)
        x = np.array([[1.0 + 1.0j, 1.0 + 1.0j, 2.0 + 3.0j, 3.0 + 2.0j]])
        b = Batch(x=x, labels=np.array([0]))
        report = grad_check(m, b)
        assert report.passed
        assert report.layers[0].skipped > 0
        assert report.layers[0].checked > 0

    def test_param_cap_enforced(self):
        m = model_mod.new_model("qonn", seed=28, in_dim=392, hidden=16)
        b = Batch(
            x=np.zeros((1, 392), dtype=np.complex128), labels=np.array([0])
        )
        with pytest.raises(ValueError, match="caps"):
            grad_check(m, b)

    def test_report_flags_wrong_gradient(self, monkeypatch):
        # sign-flipped sinusoid backward must be caught, not absorbed
        m = tiny_model("qonn", seed=29)
        b = tiny_batch(m, seed=30)

        original = layers.sinusoid_backward

        def flipped(grad_out, cache):
            return -original(grad_out, cache)

        monkeypatch.setattr(layers, "sinusoid_backward", flipped)
        report = grad_check(m, b)
        assert not report.passed
        failing = [l for l in report.layers if l.max_rel_err > report.tol]
        assert failing and failing[0].kind == "complex_linear"

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"eps": 0.0}, "eps must be finite and > 0"),
            ({"eps": -1e-5}, "eps must be finite and > 0"),
            ({"eps": math.nan}, "eps must be finite and > 0"),
            ({"eps": math.inf}, "eps must be finite and > 0"),
            ({"tol": -1.0}, "tol must be finite and >= 0"),
            ({"tol": math.nan}, "tol must be finite and >= 0"),
            ({"tol": math.inf}, "tol must be finite and >= 0"),
        ],
    )
    def test_bad_eps_or_tol_rejected(self, kwargs, message):
        m = tiny_model("onn", seed=31)
        with pytest.raises(ValueError, match=message):
            grad_check(m, tiny_batch(m, seed=32), **kwargs)

    def test_zero_tol_is_legal(self):
        m = tiny_model("onn", seed=31)
        report = grad_check(m, tiny_batch(m, seed=32), tol=0.0)
        assert report.tol == 0.0

    @np.errstate(over="ignore", invalid="ignore")
    def test_overflowing_eps_names_the_layer_and_restores_params(self):
        m = tiny_model("onn", seed=33)
        snapshot = [{k: v.copy() for k, v in p.items()} for p in m.params]
        with pytest.raises(
            layers.NonFiniteError, match=r"layer 0 \(complex_linear\) parameter M moved by eps=1e\+300"
        ):
            grad_check(m, tiny_batch(m, seed=34), eps=1e300)
        for p, snap in zip(m.params, snapshot):
            for name in p:
                assert p[name].tobytes() == snap[name].tobytes()

    @pytest.mark.parametrize("arch,first", FIRST_NON_FINITE)
    def test_overflowing_weights_name_the_first_layer(self, arch, first):
        """A small model (conv k=4 > s=2, so M_f is a product of two
        matrices) with weights scaled by 1e200 overflows before any step."""
        m = model_mod.new_model(arch, seed=35, in_dim=8, hidden=4, classes=3, conv_k=4)
        for p in m.params:
            for arr in p.values():
                arr *= 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(layers.NonFiniteError) as info:
                grad_check(m, tiny_batch(m, seed=36))
        assert str(info.value).startswith(f"{first} is the first to output inf or NaN; ")
