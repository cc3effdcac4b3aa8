"""Shared fixtures: finite-difference helpers, synthetic IDX data, tiny models,
and the earlier complex-rebuilding code paths kept as oracles."""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from qocnn import cli, data, layers, model as model_mod, training

FD_EPS = 1e-5
FD_TOL = 1e-4


def fd_grad(loss_fn, arr: np.ndarray, eps: float = FD_EPS) -> np.ndarray:
    """Central differences over every real component of a parameter array.

    Complex arrays are perturbed through their float64 view, so the result
    is interleaved re/im, matching packed_view of the analytic gradient.
    """
    if np.iscomplexobj(arr):
        view = arr.view(np.float64).ravel()
    else:
        view = arr.ravel()
    out = np.empty(view.size)
    for j in range(view.size):
        orig = view[j]
        view[j] = orig + eps
        plus = loss_fn()
        view[j] = orig - eps
        minus = loss_fn()
        view[j] = orig
        out[j] = (plus - minus) / (2.0 * eps)
    return out


def packed_view(grad: np.ndarray) -> np.ndarray:
    """Flatten a packed complex gradient to interleaved re/im float64."""
    if np.iscomplexobj(grad):
        return np.ascontiguousarray(grad).view(np.float64).ravel()
    return np.asarray(grad, dtype=np.float64).ravel()


def max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), FD_EPS)
    return float((np.abs(a - b) / denom).max())


def random_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# ---------------------------------------------------------------------------
# synthetic IDX data: label-dependent bright block on noise, both fold halves


def synthetic_images(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.arange(10), rng.integers(0, 10, max(n - 10, 0))])
    labels = labels[:n][rng.permutation(n)].astype(np.uint8)
    imgs = rng.integers(0, 40, size=(n, 28, 28)).astype(np.uint8)
    for i, y in enumerate(labels):
        r, c = divmod(int(y), 5)
        imgs[i, 3 + 12 * r : 11 + 12 * r, 1 + 5 * c : 6 + 5 * c] = 220
    return imgs, labels


def write_idx_pair(dirpath: Path, images: np.ndarray, labels: np.ndarray, stem: str):
    n, rows, cols = images.shape
    img_path = dirpath / f"{stem}-images-idx3-ubyte"
    lbl_path = dirpath / f"{stem}-labels-idx1-ubyte"
    img_path.write_bytes(
        struct.pack(">IIII", 0x803, n, rows, cols) + images.tobytes()
    )
    lbl_path.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
    return img_path, lbl_path


@pytest.fixture(scope="session")
def synth_idx_files(tmp_path_factory) -> dict[str, Path]:
    """Small synthetic train/test IDX files covering all ten classes."""
    d = tmp_path_factory.mktemp("idx")
    train_imgs, train_labels = synthetic_images(512, seed=11)
    test_imgs, test_labels = synthetic_images(256, seed=12)
    ti, tl = write_idx_pair(d, train_imgs, train_labels, "train")
    si, sl = write_idx_pair(d, test_imgs, test_labels, "t10k")
    return {
        "train_images": ti,
        "train_labels": tl,
        "test_images": si,
        "test_labels": sl,
    }


@pytest.fixture(scope="session")
def synth_datasets(synth_idx_files) -> tuple[data.Dataset, data.Dataset]:
    train = data.Dataset.load(
        synth_idx_files["train_images"], synth_idx_files["train_labels"], "train"
    )
    test = data.Dataset.load(
        synth_idx_files["test_images"], synth_idx_files["test_labels"], "test"
    )
    return train, test


# ---------------------------------------------------------------------------
# real MNIST discovery (acceptance criteria 4 and 5)

MNIST_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}


def find_mnist() -> dict[str, Path] | None:
    root = os.environ.get("QOCNN_MNIST_DIR") or str(
        Path(__file__).resolve().parent.parent / "data"
    )
    paths = {key: Path(root) / name for key, name in MNIST_FILES.items()}
    if all(p.exists() for p in paths.values()):
        return paths
    return None


MNIST_SKIP_REASON = (
    "MNIST IDX files not found (set QOCNN_MNIST_DIR or place the four "
    "train/t10k ubyte files under ./data); this environment has no network "
    "access to fetch them"
)


@pytest.fixture(scope="session")
def mnist_paths() -> dict[str, Path]:
    paths = find_mnist()
    if paths is None:
        pytest.skip(MNIST_SKIP_REASON)
    return paths


# ---------------------------------------------------------------------------
# tiny models


def tiny_model(arch: str, seed: int = 0) -> model_mod.ModelGraph:
    """The gradient checker's model of arch."""
    return cli.tiny_instance(arch, seed)[0]


def tiny_batch(model: model_mod.ModelGraph, seed: int = 1, n: int = 4) -> data.Batch:
    rng = np.random.default_rng(seed)
    x = random_complex(rng, (n, model.specs[0].in_dim))
    labels = rng.integers(0, model.out_dim, size=n)
    return data.Batch(x=x, labels=labels)


# ---------------------------------------------------------------------------
# oracles: the code paths that rebuilt complex arrays as re + 1j*im, before
# the layers moved to the interleaved float view, the conv that copied
# each stage's rows into zero-padded blocks, before the stage buffers, and
# the optimizer steps that walked each layer's parameter dict.  Each
# in HOT_PATH_ORACLES matches its replacement bit for bit on finite data; the
# complex-arithmetic conv does not (its sums run in another order) and is
# checked within 1e-12.


def pool_half_oracle(a: np.ndarray, w: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Max and argmax of every window of one real half, via np.argmax."""
    out_len = layers.pooled_len(a.shape[1], w, p)
    windows = sliding_window_view(a, w, axis=1)[:, ::p, :]
    src = np.arange(out_len)[None, :] * p + windows.argmax(axis=2)
    return np.take_along_axis(a, src, axis=1), src


def pool_forward_oracle(x: np.ndarray, w: int, p: int) -> tuple[np.ndarray, tuple]:
    re_vals, re_src = pool_half_oracle(np.ascontiguousarray(x.real), w, p)
    im_vals, im_src = pool_half_oracle(np.ascontiguousarray(x.imag), w, p)
    return re_vals + 1j * im_vals, (x.shape, re_src, im_src)


def pool_backward_oracle(grad_out: np.ndarray, cache: tuple) -> np.ndarray:
    shape, re_src, im_src = cache
    rows = np.arange(shape[0])[:, None] * shape[1]
    size = shape[0] * shape[1]
    grad_re = np.bincount(
        (rows + re_src).ravel(), weights=grad_out.real.ravel(), minlength=size
    )
    grad_im = np.bincount(
        (rows + im_src).ravel(), weights=grad_out.imag.ravel(), minlength=size
    )
    return (grad_re + 1j * grad_im).reshape(shape)


def sinusoid_forward_oracle(x: np.ndarray, lam: float) -> tuple[np.ndarray, tuple]:
    re, im = x.real, x.imag
    return re * np.sin(lam * re) + 1j * (im * np.sin(lam * im)), (x, lam)


def sinusoid_backward_oracle(grad_out: np.ndarray, cache: tuple) -> np.ndarray:
    x, lam = cache
    re, im = x.real, x.imag
    dre = np.sin(lam * re) + lam * re * np.cos(lam * re)
    dim = np.sin(lam * im) + lam * im * np.cos(lam * im)
    return grad_out.real * dre + 1j * (grad_out.imag * dim)


def to_blocks_oracle(a: np.ndarray, plan, i: int) -> np.ndarray:
    b, shift, width = a.shape[0], i * plan.s, plan.n * plan.s
    padded = np.zeros((b, plan.k_tot * width), dtype=a.dtype)
    padded[:, : plan.d - shift] = a[:, shift:]
    return padded.reshape(b, plan.k_tot, width)[:, :, : plan.k].reshape(-1, plan.k)


def from_blocks_oracle(blocks: np.ndarray, plan, i: int) -> np.ndarray:
    shift, width = i * plan.s, plan.n * plan.s
    b = blocks.shape[0] // plan.k_tot
    padded = np.zeros((b, plan.k_tot, width), dtype=blocks.dtype)
    padded[:, :, : plan.k] = blocks.reshape(b, plan.k_tot, plan.k)
    out = np.zeros((b, plan.d), dtype=blocks.dtype)
    out[:, shift:] = padded.reshape(b, -1)[:, : plan.d - shift]
    return out


def conv_forward_real_oracle(x: np.ndarray, plan) -> tuple[np.ndarray, tuple]:
    """The conv in real arithmetic on copies: stage i copies the rows into
    zero-padded (b * k_tot, k) blocks, multiplies their float view by the
    real embedding of K and copies the products back into (b, d) rows."""
    e = layers.real_embedding(plan.kernel)
    blocks = []
    y = x
    for i in range(plan.n):
        blocks.append(layers._float_view(to_blocks_oracle(y, plan, i)))
        y = from_blocks_oracle((blocks[-1] @ e).view(np.complex128), plan, i)
    return y, (blocks, plan, e)


def conv_backward_real_oracle(grad_out, cache, *, need_input_grad=True):
    """The same copies in reverse: the input gradient through E^T, the kernel
    gradient folded from the sum of block input^T @ block output gradient."""
    blocks, plan, e = cache
    r = np.zeros((2 * plan.k, 2 * plan.k))
    g = grad_out
    for i in reversed(range(plan.n)):
        g_blocks = layers._float_view(to_blocks_oracle(g, plan, i))
        r += blocks[i].T @ g_blocks
        if i == 0 and not need_input_grad:
            g = None
            break
        g = from_blocks_oracle((g_blocks @ e.T).view(np.complex128), plan, i)
    grad_k = np.empty((plan.k, plan.k), dtype=np.complex128)
    grad_k.real = r[0::2, 0::2] + r[1::2, 1::2]
    grad_k.imag = r[0::2, 1::2] - r[1::2, 0::2]
    return g, grad_k


def conv_forward_oracle(x: np.ndarray, plan) -> tuple[np.ndarray, tuple]:
    """The conv as complex block products: (b * k_tot, k) blocks @ K."""
    blocks = []
    y = x
    for i in range(plan.n):
        blocks.append(to_blocks_oracle(y, plan, i))
        y = from_blocks_oracle(blocks[-1] @ plan.kernel, plan, i)
    return y, (blocks, plan)


def conv_backward_oracle(grad_out, cache, *, need_input_grad=True):
    """Input gradient through K^H, kernel gradient as the sum of
    block input^H @ block output gradient, both in complex arithmetic."""
    blocks, plan = cache
    k_h = plan.kernel.conj().T
    grad_k = np.zeros((plan.k, plan.k), dtype=np.complex128)
    g = grad_out
    for i in reversed(range(plan.n)):
        g_blocks = to_blocks_oracle(g, plan, i)
        grad_k += blocks[i].conj().T @ g_blocks
        if i == 0 and not need_input_grad:
            return None, grad_k
        g = from_blocks_oracle(g_blocks @ k_h, plan, i)
    return g, grad_k


def batch_iter_oracle(ds: data.Dataset, batch_size: int, seed: int):
    order = np.random.default_rng(seed).permutation(len(ds))
    for start in range(0, len(ds), batch_size):
        idx = order[start : start + batch_size]
        yield data.Batch(x=ds.re[idx] + 1j * ds.im[idx], labels=ds.labels[idx])


def predict_log_probs_oracle(model, ds: data.Dataset, batch_size: int = 256):
    out = np.empty((len(ds), model.out_dim), dtype=np.float64)
    for start in range(0, len(ds), batch_size):
        x = ds.re[start : start + batch_size] + 1j * ds.im[start : start + batch_size]
        out[start : start + x.shape[0]], _ = model_mod.model_forward(model, x)
    return out


def model_backward_oracle(model, tape, grad_out):
    """The reverse sweep that also forms layer 0's input gradient."""
    grads = [None] * len(model.specs)
    g = grad_out
    for i in range(len(model.specs) - 1, -1, -1):
        g, grads[i] = layers.layer_backward(model.specs[i], tape[i], g)
    return grads


def sgd_step_oracle(self, model, grads):
    """SgdOptimizer.step as a nested loop over each layer's parameter dict."""
    for p, g in zip(model.params, grads):
        for name, arr in p.items():
            arr.view(np.float64)[...] -= (
                self.learning_rate * np.ascontiguousarray(g[name]).view(np.float64)
            )


def adam_step_oracle(self, model, grads):
    """AdamOptimizer.step as a nested loop over each layer's parameter dict,
    with the moments in per-name dicts built on the first step."""
    if getattr(self, "_m", None) is None:
        self._m = [{name: np.zeros(2 * arr.size) for name, arr in p.items()} for p in model.params]
        self._v = [{name: np.zeros(2 * arr.size) for name, arr in p.items()} for p in model.params]
    self.t += 1
    bc1 = 1.0 - self.beta1**self.t
    bc2 = 1.0 - self.beta2**self.t
    for p, g, m_s, v_s in zip(model.params, grads, self._m, self._v):
        for name, arr in p.items():
            gv = np.ascontiguousarray(g[name]).view(np.float64).ravel()
            m = m_s[name]
            v = v_s[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * gv
            v *= self.beta2
            v += (1.0 - self.beta2) * gv**2
            update = (self.learning_rate * (m / bc1)) / (np.sqrt(v / bc2) + self.eps)
            arr.view(np.float64).ravel()[...] -= update


# (module, attribute, oracle) for every path the oracles above replace
HOT_PATH_ORACLES = (
    (layers, "split_max_pool_forward", pool_forward_oracle),
    (layers, "split_max_pool_backward", pool_backward_oracle),
    (layers, "sinusoid_forward", sinusoid_forward_oracle),
    (layers, "sinusoid_backward", sinusoid_backward_oracle),
    (layers, "conv_forward", conv_forward_real_oracle),
    (layers, "conv_backward", conv_backward_real_oracle),
    (data, "batch_iter", batch_iter_oracle),
    (training, "predict_log_probs", predict_log_probs_oracle),
    (training, "model_backward", model_backward_oracle),
    (training.AdamOptimizer, "step", adam_step_oracle),
)
