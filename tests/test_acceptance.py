"""Acceptance suite: one test, and one pass/fail line, per criterion.

Criteria 4 and 5 need the real MNIST IDX files; when those are absent the
tests skip with an explicit reason rather than substituting other data.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    FD_TOL,
    fd_grad,
    max_rel_err,
    packed_view,
    random_complex,
    tiny_batch,
    tiny_model,
)
from test_conv import (
    all_cases,
    block_stage,
    dense_matrices,
    geometry_oracle,
    naive_m1,
    naive_shift,
)
from test_linalg import svd_product

from qocnn import layers, linalg, metrics, resources, training
from qocnn.data import Dataset
from qocnn.model import new_model
from qocnn.training import TrainConfig, grad_check, load_checkpoint, save_checkpoint, train


def test_criterion_1_gradient_correctness():
    """Analytic gradients match central finite differences on every layer
    kind and on end-to-end tiny models, within 1e-4 relative, under 1 minute."""
    start = time.monotonic()
    rng = np.random.default_rng(0)

    # single-layer checks, one per kind, gradients wrt inputs and params
    def check(forward, backward_packed, arrays, out_shape, complex_out=True):
        a = rng.normal(size=out_shape)
        b = rng.normal(size=out_shape) if complex_out else None
        grad_out = a + 1j * b if complex_out else a

        def loss():
            y = forward()
            if complex_out:
                return float((a * y.real + b * y.imag).sum())
            return float((a * y).sum())

        analytic = backward_packed(grad_out)
        for arr, grad in zip(arrays, analytic):
            assert max_rel_err(packed_view(grad), fd_grad(loss, arr)) < FD_TOL

    x = random_complex(rng, (2, 6))
    m = random_complex(rng, (6, 4))
    check(
        lambda: layers.complex_linear_forward(x, m)[0],
        lambda g: layers.complex_linear_backward(
            g, layers.complex_linear_forward(x, m)[1]
        ),
        [x, m],
        (2, 4),
    )
    xs = 3.0 * random_complex(rng, (2, 6))
    check(
        lambda: layers.sinusoid_forward(xs, 0.2)[0],
        lambda g: [layers.sinusoid_backward(g, layers.sinusoid_forward(xs, 0.2)[1])],
        [xs],
        (2, 6),
    )
    check(
        lambda: layers.mod_softplus_forward(x)[0],
        lambda g: [layers.mod_softplus_backward(g, layers.mod_softplus_forward(x)[1])],
        [x],
        (2, 6),
    )
    check(
        lambda: layers.mod_squared_forward(x)[0],
        lambda g: [layers.mod_squared_backward(g, layers.mod_squared_forward(x)[1])],
        [x],
        (2, 6),
        complex_out=False,
    )
    v = rng.normal(size=(2, 6))
    check(
        lambda: layers.log_softmax_forward(v)[0],
        lambda g: [layers.log_softmax_backward(g, layers.log_softmax_forward(v)[1])],
        [v],
        (2, 6),
        complex_out=False,
    )
    kernel = random_complex(rng, (3, 3))
    xc = random_complex(rng, (2, 10))
    check(
        lambda: layers.conv_forward(
            xc, layers.build_conv_plan(kernel, 10, 3, 2)
        )[0],
        lambda g: layers.conv_backward(
            g,
            layers.conv_forward(xc, layers.build_conv_plan(kernel, 10, 3, 2))[1],
        ),
        [xc, kernel],
        (2, 10),
    )
    xp = random_complex(rng, (2, 9))
    check(
        lambda: layers.split_max_pool_forward(xp, 3, 2)[0],
        lambda g: [
            layers.split_max_pool_backward(
                g, layers.split_max_pool_forward(xp, 3, 2)[1]
            )
        ],
        [xp],
        (2, 4),
    )

    # end-to-end tiny models through the loss, every parameter
    for arch in ("onn", "qonn", "qocnn"):
        model = tiny_model(arch, seed=1)
        assert model.num_params() <= 5000
        report = grad_check(model, tiny_batch(model, seed=2))
        assert report.passed, f"{arch}:\n{report.summary()}"
        assert report.max_rel_err < FD_TOL

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"criterion 1 PASS: gradients within 1e-4 in {elapsed:.1f}s")


def test_criterion_2_convolution_construction_oracle():
    """Exhaustive D <= 12, k <= 4, s <= k: each stage of the block path,
    applied to the identity, matches the naive placement oracle and the shift
    of its predecessor, and the whole path equals sequential application of
    the naive matrices to 1e-12."""
    rng = np.random.default_rng(3)
    cases = 0
    for d, k, s in all_cases(d_max=12, k_max=4):
        kernel = random_complex(rng, (k, k))
        plan = layers.build_conv_plan(kernel, d, k, s)
        assert (plan.n, plan.s0, plan.k_tot) == geometry_oracle(d, k, s)
        eye = np.eye(d, dtype=np.complex128)
        stages = [block_stage(eye, plan, i) for i in range(plan.n)]
        np.testing.assert_array_equal(stages[0], naive_m1(kernel, d, k, s))
        for i in range(1, plan.n):
            np.testing.assert_array_equal(stages[i], naive_shift(stages[i - 1], s))
        x = random_complex(rng, (3, d))
        seq = x
        for m_i in dense_matrices(kernel, d, k, s):
            seq = seq @ m_i
        y, _ = layers.conv_forward(x, plan)
        assert np.abs(seq - y).max() <= 1e-12 * max(1.0, np.abs(seq).max())
        cases += 1
    assert cases == sum(1 for _ in all_cases())
    print(f"criterion 2 PASS: {cases} (D, k, s) cases match the naive oracles")


def test_criterion_3_svd_amplification():
    """Random complex matrices up to 16x16 reconstruct through beta*V*S*U
    within 1e-8 relative, with normalized sigma <= 1 and thin factors: V has
    orthonormal columns and U orthonormal rows (unitary when M is square)."""
    rng = np.random.default_rng(4)
    shapes = [(n, n) for n in range(1, 17)] + [(3, 7), (16, 5), (2, 16)]
    for n1, n2 in shapes:
        m = random_complex(rng, (n1, n2))
        f = linalg.svd(m)
        assert f.sigma.max() <= 1.0 + 1e-15
        assert np.abs(svd_product(f) - m).max() <= 1e-8 * np.abs(m).max()
        r = min(n1, n2)
        assert f.V.shape == (n1, r) and f.U.shape == (r, n2)
        assert np.abs(f.V.conj().T @ f.V - np.eye(r)).max() <= 1e-8
        assert np.abs(f.U @ f.U.conj().T - np.eye(r)).max() <= 1e-8
    print(f"criterion 3 PASS: {len(shapes)} matrices reconstruct at 1e-8")


@pytest.fixture(scope="session")
def mnist_datasets(mnist_paths):
    train_ds = Dataset.load(
        mnist_paths["train_images"], mnist_paths["train_labels"], "train"
    )
    test_ds = Dataset.load(
        mnist_paths["test_images"], mnist_paths["test_labels"], "test"
    )
    return train_ds, test_ds


@pytest.fixture(scope="session")
def mnist_models(mnist_datasets):
    """Default-config training runs shared by criteria 4 and 5."""
    train_ds, test_ds = mnist_datasets
    out = {}
    for arch in ("onn", "qonn", "qocnn"):
        model = new_model(arch, seed=0)
        model, history = train(model, train_ds, test_ds, TrainConfig(seed=0))
        out[arch] = (model, history)
    return out


def test_criterion_4_mnist_reproduction(mnist_models, mnist_datasets):
    """QONN/QOCNN reach accuracy >= 0.95 and macro MCC >= 0.94 on the MNIST
    test set within 10 default-config epochs; ONN reaches >= 0.94."""
    _, test_ds = mnist_datasets
    results = {}
    for arch, (model, history) in mnist_models.items():
        assert len(history.epochs) <= 10
        log_probs = training.predict_log_probs(model, test_ds)
        preds = log_probs.argmax(axis=1)
        acc = metrics.accuracy(preds, test_ds.labels)
        mcc = metrics.mcc_macro(metrics.confusion(preds, test_ds.labels))
        results[arch] = (acc, mcc)
    assert results["onn"][0] >= 0.94
    for arch in ("qonn", "qocnn"):
        acc, mcc = results[arch]
        assert acc >= 0.95, f"{arch} accuracy {acc:.4f}"
        assert mcc >= 0.94, f"{arch} macro MCC {mcc:.4f}"
    summary = ", ".join(
        f"{a}: acc={v[0]:.4f} mcc={v[1]:.4f}" for a, v in results.items()
    )
    print(f"criterion 4 PASS: {summary}")


def test_criterion_5_roc_quality(mnist_models, mnist_datasets):
    """Trained QOCNN one-vs-rest AUC >= 0.98 for all ten classes, and the
    predicted probability rows sum to 1 within 1e-6."""
    _, test_ds = mnist_datasets
    model, _ = mnist_models["qocnn"]
    log_probs = training.predict_log_probs(model, test_ds)
    scores = np.exp(log_probs)
    assert np.abs(scores.sum(axis=1) - 1.0).max() <= 1e-6
    aucs = [
        metrics.roc_curve(scores, test_ds.labels, c).auc for c in range(10)
    ]
    assert min(aucs) >= 0.98, f"per-class AUCs: {aucs}"
    print(f"criterion 5 PASS: min per-class AUC {min(aucs):.4f}")


def test_criterion_6_resource_arithmetic():
    """The worked example reproduces exactly in integer arithmetic."""
    r = resources.estimate(resources.WorkloadSpec(L=10, n=10000, b=200))
    assert r.classical_ops == 2 * 10**11
    assert r.quantum_ops == 1_020_000_000
    assert 190 <= r.speedup <= 200
    assert r.classical_params == 10**9
    assert r.qubit_estimate == 220
    assert resources.input_qubits_mnist() == 392
    print(
        "criterion 6 PASS: 2e11 / 1.02e9 ops, "
        f"speedup {r.speedup:.2f}, 1e9 params, 220 qubits, 392 input qubits"
    )


def test_criterion_7_metrics_unit_suite():
    """MCC and AUC hand cases, row-sum and trace/accuracy identities."""
    assert metrics.mcc_binary(50, 0, 50, 0) == 1.0
    assert metrics.mcc_binary(25, 25, 25, 25) == 0.0
    mixed = metrics.mcc_binary(90, 15, 85, 10)
    direct = (90 * 85 - 15 * 10) / math.sqrt(105 * 100 * 100 * 95)
    assert abs(mixed - direct) <= 1e-12
    assert abs(mixed - 0.7507) < 5e-4

    scores = np.array([[0.1, 0.9], [0.6, 0.4], [0.4, 0.6], [0.9, 0.1]])
    labels = np.array([1, 1, 0, 0])
    assert abs(metrics.roc_curve(scores, labels, c=1).auc - 0.75) <= 1e-12

    rng = np.random.default_rng(5)
    y_true = rng.integers(0, 10, 800)
    y_pred = rng.integers(0, 10, 800)
    cm = metrics.confusion(y_pred, y_true)
    np.testing.assert_array_equal(
        cm.counts.sum(axis=1), np.bincount(y_true, minlength=10)
    )
    assert np.trace(cm.counts) / cm.total == metrics.accuracy(y_pred, y_true)
    print("criterion 7 PASS: hand cases and identities exact")


def test_criterion_8_determinism_and_persistence(tmp_path, synth_datasets):
    """Equal seeds give bit-identical histories and parameters; checkpoints
    round-trip bitwise."""
    train_ds, test_ds = synth_datasets
    cfg = TrainConfig(epochs=2, batch_size=32, seed=42)
    m1, h1 = train(new_model("qonn", seed=42, hidden=12), train_ds, test_ds, cfg)
    m2, h2 = train(new_model("qonn", seed=42, hidden=12), train_ds, test_ds, cfg)
    assert h1 == h2
    for p1, p2 in zip(m1.params, m2.params):
        for name in p1:
            assert p1[name].tobytes() == p2[name].tobytes()

    path1 = tmp_path / "m1.ckpt"
    path2 = tmp_path / "m2.ckpt"
    save_checkpoint(m1, path1)
    loaded = load_checkpoint(path1)
    for pa, pb in zip(m1.params, loaded.params):
        for name in pa:
            assert pa[name].tobytes() == pb[name].tobytes()
    save_checkpoint(loaded, path2)
    assert path1.read_bytes() == path2.read_bytes()
    print("criterion 8 PASS: bit-identical histories and checkpoints")
