"""Loss, optimizers, the training loop, checkpoints, and grad_check."""

import math
import os
import sys
import threading
import time

import numpy as np
import pytest

from conftest import (
    HOT_PATH_ORACLES,
    model_backward_oracle,
    predict_log_probs_oracle,
    random_complex,
    synthetic_images,
    tiny_batch,
    tiny_model,
)
from qocnn import data, layers, model as model_mod, training
from qocnn.data import Batch, Dataset
from qocnn.model import ModelGraph
from qocnn.training import (
    AdamOptimizer,
    CheckpointError,
    CheckpointFormatError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    SgdOptimizer,
    TrainConfig,
    backward,
    forward_loss,
    grad_check,
    load_checkpoint,
    nll_loss,
    nll_mean,
    save_checkpoint,
    train,
)


class TestNllLoss:
    def test_uniform_is_ln_ten(self):
        lp = np.full(10, math.log(0.1))
        assert nll_loss(lp, 4) == pytest.approx(math.log(10), abs=1e-12)
        assert nll_loss(lp, 4) == pytest.approx(2.302585, abs=1e-6)

    def test_certain_prediction_is_zero(self):
        lp = np.full(10, -50.0)
        lp[7] = 0.0
        assert nll_loss(lp, 7) == 0.0

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(0)
        v = rng.normal(size=10)
        lp = layers.log_softmax(v[None, :])[0]
        for label in range(10):
            assert nll_loss(lp, label) == pytest.approx(-lp[label], abs=1e-15)
            assert nll_loss(lp, label) >= 0

    def test_out_of_range_label(self):
        lp = np.full(10, math.log(0.1))
        with pytest.raises(ValueError, match="label"):
            nll_loss(lp, 10)
        with pytest.raises(ValueError, match="label"):
            nll_loss(lp, -1)

    def test_mean_over_batch(self):
        rng = np.random.default_rng(1)
        lp = layers.log_softmax(rng.normal(size=(4, 10)))
        labels = np.array([0, 3, 9, 3])
        expected = np.mean([nll_loss(lp[i], labels[i]) for i in range(4)])
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
            x=np.zeros((0, m.in_dim), dtype=np.complex128),
            labels=np.zeros(0, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="empty"):
            forward_loss(m, empty)

    def test_dimension_error_names_layer(self):
        m = tiny_model("qonn")
        bad = Batch(
            x=np.zeros((2, m.in_dim + 3), dtype=np.complex128),
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
            opt.step(m, backward(m, tape))
        final, _ = forward_loss(m, b)
        assert final < first


class TestBackward:
    def test_reused_tape_rejected(self):
        m = tiny_model("qonn")
        b = tiny_batch(m)
        _, tape = forward_loss(m, b)
        backward(m, tape)
        with pytest.raises(ValueError, match="consumed"):
            backward(m, tape)

    def test_dead_path_gradient_is_zero(self):
        # baseline: gradient reaches both linear layers
        m = tiny_model("qonn")
        b = tiny_batch(m)
        _, tape = forward_loss(m, b)
        grads = backward(m, tape)
        assert grads[0]["M"].any() and grads[2]["M"].any()
        # zero second linear: grad_x = G @ M^H kills the upstream path, and
        # mod_squared has zero slope at zero, so the layer itself gets none
        m.params[2]["M"][...] = 0.0
        _, tape = forward_loss(m, b)
        grads = backward(m, tape)
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
        g1 = backward(m, t1)
        g2 = backward(m, t2)
        np.testing.assert_allclose(g1[0]["M"], g2[0]["M"], atol=1e-14)


class TestOptimizers:
    def test_sgd_matches_update_rule(self):
        m = tiny_model("qonn", seed=11)
        before = [p["M"].copy() for p in m.params if "M" in p]
        b = tiny_batch(m, seed=12)
        _, tape = forward_loss(m, b)
        grads = backward(m, tape)
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
                opt.step(m, backward(m, tape))
            for p, s in zip(m.params, snapshot):
                for name in p:
                    np.testing.assert_array_equal(p[name], s[name])

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
            grads = backward(m, tape)
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
        with pytest.raises(ValueError, match="optimizer"):
            training.make_optimizer("rmsprop", 1e-3)


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

    def test_fixed_seed_reproduces_history_bitwise(self):
        train_ds, test_ds = small_datasets()
        cfg = TrainConfig(epochs=2, batch_size=32, seed=5)
        _, h1 = train(small_qonn(seed=5), train_ds, test_ds, cfg)
        _, h2 = train(small_qonn(seed=5), train_ds, test_ds, cfg)
        assert h1.rows() == h2.rows()

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
        with pytest.raises(training.DivergenceError, match="epoch"):
            train(small_qonn(seed=4), train_ds, test_ds, cfg)

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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(optimizer="lbfgs")

    def test_history_csv_format(self):
        h = training.TrainHistory()
        h.append(1, 2.0, 1.5, 0.25)
        h.append(2, 1.0, 0.75, 0.5)
        lines = h.to_csv().splitlines()
        assert lines[0] == "epoch,train_loss,test_loss,test_accuracy"
        assert lines[1] == "1,2,1.5,0.25"
        assert len(lines) == 3

    def test_epoch_seed_is_stable_and_distinct(self):
        s1 = training.epoch_seed(0, 1)
        assert s1 == training.epoch_seed(0, 1)
        assert s1 != training.epoch_seed(0, 2)
        assert s1 != training.epoch_seed(1, 1)


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
            return params, history.rows(), log_probs.tobytes()

        new = run()
        for module, attr, oracle in HOT_PATH_ORACLES:
            monkeypatch.setattr(module, attr, oracle)
        assert run() == new


class TestBackwardSkipsInputGradient:
    @staticmethod
    def default_batch(m, seed):
        rng = np.random.default_rng(seed)
        return Batch(
            x=random_complex(rng, (64, m.in_dim)),
            labels=rng.integers(0, m.out_dim, 64),
        )

    @pytest.mark.parametrize("arch", ["qocnn", "qonn", "onn"])
    def test_gradients_match_the_full_backward_bitwise(self, arch, monkeypatch):
        m = model_mod.new_model(arch, seed=5)
        batch = self.default_batch(m, 6)
        grads = backward(m, forward_loss(m, batch)[1])
        monkeypatch.setattr(training, "model_backward", model_backward_oracle)
        want = backward(m, forward_loss(m, batch)[1])
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

        from_blocks_stages = []
        from_blocks = layers._from_blocks

        def count_from_blocks(blocks, plan, i):
            from_blocks_stages.append(i)
            return from_blocks(blocks, plan, i)

        m = model_mod.new_model(arch, seed=7)
        _, tape = forward_loss(m, self.default_batch(m, 8))
        first = tape.nodes[0]
        if first.spec.kind == "complex_linear":
            x, m0 = first.cache
            first.cache = (x, m0.view(NoConj))
        monkeypatch.setattr(layers, "layer_backward", spy)
        monkeypatch.setattr(layers, "_from_blocks", count_from_blocks)
        backward(m, tape)
        assert returned[-1] is None
        assert all(g is not None for g in returned[:-1])
        if arch == "qocnn":  # stages n-1 .. 1 map their gradient back, stage 0 not
            n = first.cache[1].n
            assert n > 1 and from_blocks_stages == list(range(n - 1, 0, -1))


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
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = training.predict_log_probs(m, ds, batch_size=8)
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

    def test_one_chunk_makes_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was made for one chunk")

        ds, _ = small_datasets(n_train=self.CHUNK)
        m = model_mod.new_model("qocnn", seed=2)
        self.workers(monkeypatch, 2)
        monkeypatch.setattr(training, "ThreadPoolExecutor", no_pool)
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


class TestCheckpoints:
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
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch_names_both_versions(self, tmp_path):
        path = tmp_path / "v9.ckpt"
        save_checkpoint(tiny_model("onn"), path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (9).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError, match="9") as info:
            load_checkpoint(path)
        assert "1" in str(info.value)

    def test_truncation(self, tmp_path):
        path = tmp_path / "cut.ckpt"
        save_checkpoint(tiny_model("onn"), path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 16])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "extra.ckpt"
        save_checkpoint(tiny_model("onn"), path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointFormatError, match="trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("arch,label", [("qonn", "onn"), ("onn", "qocnn")])
    def test_arch_id_that_disagrees_with_the_layers_rejected(self, tmp_path, arch, label):
        path = tmp_path / "relabelled.ckpt"
        save_checkpoint(tiny_model(arch), path)
        blob = bytearray(path.read_bytes())
        blob[8:12] = model_mod.ARCHITECTURES.index(label).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError) as info:
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
        with pytest.raises(CheckpointFormatError, match="^checkpoint CRC32 mismatch: "):
            load_checkpoint(tmp_path / "bad.ckpt")

    def test_an_invalid_layer_names_it(self, tmp_path):
        path = tmp_path / "onn.ckpt"
        save_checkpoint(model_mod.new_model("onn", seed=1), path)
        blob = bytearray(path.read_bytes())
        blob[32] ^= 0x01  # the first layer's kind id: complex_linear -> sinusoid
        path.write_bytes(bytes(blob))
        with pytest.raises(
            CheckpointFormatError,
            match=r"^checkpoint layer 0 \(sinusoid\) is invalid: sinusoid requires lam > 0$",
        ):
            load_checkpoint(path)

    def test_a_version_1_file_still_loads_bitwise(self, tmp_path):
        m, blob = self.tiny_qocnn_blob(tmp_path)
        # version 1: the same layout with version 1 and no trailing CRC32
        v1 = b"QOCN" + (1).to_bytes(4, "little") + blob[8:-4]
        (tmp_path / "v1.ckpt").write_bytes(v1)
        loaded = load_checkpoint(tmp_path / "v1.ckpt")
        assert loaded.arch == m.arch and loaded.specs == m.specs
        assert loaded.seed == m.seed and loaded.meta == m.meta
        for pa, pb in zip(m.params, loaded.params):
            assert sorted(pa) == sorted(pb)
            for name in pa:
                assert pa[name].tobytes() == pb[name].tobytes()
        save_checkpoint(loaded, tmp_path / "v2.ckpt")
        assert (tmp_path / "v2.ckpt").read_bytes() == blob

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
            layers.linear_spec(6, 4),
            layers.mod_squared_spec(4),
            layers.log_softmax_spec(4),
        ]
        rng = np.random.default_rng(24)
        params = [model_mod.init_layer_params(s, rng) for s in specs]
        m = ModelGraph(arch="onn", specs=specs, params=params)
        b = tiny_batch(m, seed=25)
        report = grad_check(m, b)
        assert report.passed
        assert report.layers[0].max_rel_err < 1e-6

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
            layers.linear_spec(4, 4),
            layers.pool_spec(4, 2, 2),
            layers.mod_squared_spec(2),
            layers.log_softmax_spec(2),
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
