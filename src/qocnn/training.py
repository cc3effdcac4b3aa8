"""Loss, optimizers, the epoch loop, checkpoints, and gradient checking.

Optimizers update the float64 view of each complex parameter array, so the
real and imaginary parts move as 2 * size independent real parameters.
"""

from __future__ import annotations

import contextvars
import math
import os
import struct
import threading
import zlib
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import data, fileio, metrics, model as model_mod
from .data import Batch, Dataset
from .layers import KINDS, LAYER_KINDS, LayerSpec, NonFiniteError, param_shapes
from .model import ARCHITECTURES, ModelGraph, model_backward, model_forward

LOSS_DIVERGENCE_CAP = 10.0 * math.log(10.0)


class DivergenceError(RuntimeError):
    """Training loss became non-finite or blew past the divergence cap."""


# ---------------------------------------------------------------------------
# loss


def _batch_labels(labels, width: int) -> np.ndarray:
    """The labels of a non-empty batch scored over `width` classes."""
    labels = data.class_labels(labels, width, "label")
    if labels.size == 0:
        raise ValueError("empty batch")
    return labels


def nll_mean(log_probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean NLL over a batch of log-probability rows."""
    labels = _batch_labels(labels, log_probs.shape[1])
    rows = np.arange(labels.shape[0])
    return float(-log_probs[rows, labels].mean())


def forward_loss(model: ModelGraph, batch: Batch) -> tuple[float, list[tuple]]:
    """Mean NLL of the batch plus the layer caches needed for backward."""
    log_probs, caches = model_forward(model, batch.x)
    return nll_mean(log_probs, batch.labels), caches


def backward(model: ModelGraph, caches: list[tuple], labels: np.ndarray) -> list[dict]:
    """Gradients of the mean batch NLL for every layer, complex packed."""
    labels = _batch_labels(labels, model.out_dim)
    b = len(labels)
    grad = np.zeros((b, model.out_dim), dtype=np.float64)
    grad[np.arange(b), labels] = -1.0 / b
    return model_backward(model, caches, grad)


# ---------------------------------------------------------------------------
# optimizers


def _param_views(model: ModelGraph, grads: list[dict[str, np.ndarray]]):
    """Each parameter array's float64 view with its gradient's, in model order."""
    for p, g in zip(model.params, grads):
        for name, arr in p.items():
            gv = np.ascontiguousarray(g[name]).view(np.float64)
            yield arr.view(np.float64).ravel(), gv.ravel()


class SgdOptimizer:
    def __init__(self, learning_rate: float):
        if not 0 <= learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        self.learning_rate = learning_rate

    def step(self, model: ModelGraph, grads: list[dict[str, np.ndarray]]) -> None:
        for w, gv in _param_views(model, grads):
            w -= self.learning_rate * gv


class AdamOptimizer(SgdOptimizer):
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8
    t = 0  # steps taken; the first step shadows these two on the instance
    _moments: list[tuple[np.ndarray, np.ndarray]] | None = None  # (m, v)

    def step(self, model: ModelGraph, grads: list[dict[str, np.ndarray]]) -> None:
        if self._moments is None:
            self._moments = [
                (np.zeros(w.size), np.zeros(w.size)) for w, _ in _param_views(model, grads)
            ]
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for (w, gv), (m, v) in zip(_param_views(model, grads), self._moments):
            m *= self.beta1
            m += (1.0 - self.beta1) * gv
            v *= self.beta2
            v += (1.0 - self.beta2) * gv**2
            w -= (self.learning_rate * (m / bc1)) / (np.sqrt(v / bc2) + self.eps)


OPTIMIZERS = {"sgd": SgdOptimizer, "adam": AdamOptimizer}


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainConfig:
    epochs: int = 10
    batch_size: int = 64
    learning_rate: float = 1e-3
    optimizer: str = "adam"
    seed: int = 0
    patience: int = 3

    def __post_init__(self) -> None:
        for name in ("epochs", "batch_size", "patience"):
            value = data.as_int(getattr(self, name), f"{name} must be a positive integer", 1)
            setattr(self, name, value)
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and > 0")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        self.seed = model_mod.check_seed(self.seed)


@dataclass
class TrainHistory:
    epochs: list[int] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    test_loss: list[float] = field(default_factory=list)
    test_accuracy: list[float] = field(default_factory=list)

    def append(self, epoch: int, train: float, test: float, acc: float) -> None:
        self.epochs.append(epoch)
        self.train_loss.append(train)
        self.test_loss.append(test)
        self.test_accuracy.append(acc)

    def to_csv(self) -> str:
        rows = zip(self.epochs, self.train_loss, self.test_loss, self.test_accuracy)
        return "epoch,train_loss,test_loss,test_accuracy\n" + "".join(
            f"{e},{tr:.10g},{te:.10g},{acc:.10g}\n" for e, tr, te, acc in rows
        )


def epoch_seed(seed: int, epoch: int) -> int:
    """Deterministic per-epoch shuffle seed derived from the run seed."""
    return int(np.random.SeedSequence((seed, epoch)).generate_state(1)[0])


# Rows per predict chunk; memory grows with workers x PREDICT_CHUNK rows.
PREDICT_CHUNK = 128


def _available_cpus() -> int:
    """CPUs this process may run on (its affinity mask where there is one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def predict_log_probs(model: ModelGraph, ds: Dataset) -> np.ndarray:
    """Log probabilities for a whole dataset, one row per dataset row.

    Chunks of PREDICT_CHUNK rows run on one worker per available CPU: the
    caller's thread plus a helper thread for each other CPU (none with
    fewer than two chunks or CPUs); numpy and BLAS release the GIL.  Rows
    are independent, so the bytes do not depend on the chunk size or the
    worker count.  Each helper runs in a copy of the caller's context, so
    an `np.errstate` reaches it.  Workers take chunks in row order and
    stop taking them once one has failed; the error of the earliest
    failing chunk is raised, and a `NonFiniteError` carries the chunk's
    rows in `rows`.
    """
    n = len(ds)
    out = np.empty((n, model.out_dim), dtype=np.float64)
    # A one-row chunk would take BLAS's matrix-vector path, which rounds
    # differently from the matrix product, so a lone last row joins the
    # chunk before it.
    starts = list(range(0, n, PREDICT_CHUNK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    stops = starts[1:] + [n]

    def chunk(start: int, stop: int) -> None:
        x = ds.complex_rows(slice(start, stop))
        try:
            out[start:stop], _ = model_forward(model, x)
        except NonFiniteError as exc:
            exc.rows = slice(start, stop)
            raise

    workers = min(_available_cpus(), len(starts))
    todo = iter(zip(starts, stops))
    lock = threading.Lock()
    errors: dict[int, BaseException] = {}  # chunk start -> its error

    def drain() -> None:
        while not errors:
            with lock:
                bounds = next(todo, None)
            if bounds is None:
                return
            try:
                chunk(*bounds)
            except BaseException as exc:  # raised on the caller's thread below
                errors[bounds[0]] = exc

    # The caller drains too, so only workers - 1 threads are made: each
    # thread's malloc arena keeps its own peak.  On a 2-CPU host, a helper
    # per CPU raised train-qocnn's peak RSS by 3-11%; this way adds 0.2%.
    # A pool starts a thread only on submit, so one worker starts none.
    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        for _ in range(workers - 1):
            # one context copy per helper: two threads cannot enter one Context
            pool.submit(contextvars.copy_context().run, drain)
        drain()
    if errors:
        raise errors[min(errors)]
    return out


def evaluate_loss_accuracy(model: ModelGraph, ds: Dataset) -> tuple[float, float]:
    log_probs = predict_log_probs(model, ds)
    loss = nll_mean(log_probs, ds.labels)
    acc = metrics.accuracy(log_probs.argmax(axis=1), ds.labels)
    return loss, acc


def _check_divergence(loss: float, epoch: int, batch_idx: int) -> None:
    if not math.isfinite(loss) or loss > LOSS_DIVERGENCE_CAP:
        raise DivergenceError(
            f"training diverged at epoch {epoch}, batch {batch_idx}: "
            f"loss {loss:.6g} (cap {LOSS_DIVERGENCE_CAP:.4f})"
        )


@contextmanager
def _non_finite_diverges(where: str):
    """A non-finite activation met in training ends the run as divergence."""
    try:
        yield
    except NonFiniteError as exc:
        raise DivergenceError(f"training diverged at {where}: {exc}") from exc


def train(
    model: ModelGraph,
    train_ds: Dataset,
    test_ds: Dataset,
    config: TrainConfig,
    log=None,
) -> tuple[ModelGraph, TrainHistory]:
    """Run the epoch loop in place; early-stops when test loss flattens.

    A fixed (seed, config, dataset) triple reproduces the parameters bitwise.
    """
    if len(train_ds) == 0:
        raise ValueError("training dataset is empty")
    if len(test_ds) == 0:
        raise ValueError("test dataset is empty")
    opt = OPTIMIZERS[config.optimizer](config.learning_rate)
    history = TrainHistory()
    best_test = math.inf
    stale = 0
    for epoch in range(1, config.epochs + 1):
        total = 0.0
        count = 0
        shuffle = epoch_seed(config.seed, epoch)
        for batch_idx, batch in enumerate(
            data.batch_iter(train_ds, config.batch_size, shuffle)
        ):
            with _non_finite_diverges(f"epoch {epoch}, batch {batch_idx}"):
                loss, caches = forward_loss(model, batch)
            _check_divergence(loss, epoch, batch_idx)
            grads = backward(model, caches, batch.labels)
            opt.step(model, grads)
            total += loss * len(batch)
            count += len(batch)
        train_loss = total / count
        with _non_finite_diverges(
            f"epoch {epoch}, in the test pass after batch {batch_idx}"
        ):
            test_loss, test_acc = evaluate_loss_accuracy(model, test_ds)
        history.append(epoch, train_loss, test_loss, test_acc)
        if log is not None:
            log(
                f"epoch {epoch}: train_loss={train_loss:.4f} "
                f"test_loss={test_loss:.4f} test_accuracy={test_acc:.4f}"
            )
        if test_loss < best_test - 1e-12:
            best_test = test_loss
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                if log is not None:
                    log(f"early stop at epoch {epoch}: test loss flat for {stale} epochs")
                break
    return model, history


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_MAGIC = b"QOCN"
CHECKPOINT_VERSION = 2

# A checkpoint is, in order: _PREAMBLE; _HEADER; one _LAYER per layer; for
# each layer's parameters in name order, _COUNT and then count real parts and
# count imaginary parts as little-endian float64; from version 2, _CRC.
# Version 1 files, which end at the last parameter, are still read.  A _LAYER
# field of 0 stands for None.
_PREAMBLE = struct.Struct("<4sI")  # magic, version
_HEADER = struct.Struct("<IqdI")  # architecture id, seed, lam, layer count
_LAYER = struct.Struct("<IIIdIIII")  # kind id, in_dim, out_dim, lam, k, s, w, p
_COUNT = struct.Struct("<Q")  # entries of one parameter array
_CRC = struct.Struct("<I")  # zlib.crc32 of every byte before it


class CheckpointError(Exception):
    """A checkpoint that is corrupt, truncated, of another version or invalid."""


def save_checkpoint(model: ModelGraph, path) -> None:
    """Serialize the model atomically; parameter arrays round-trip bit exactly."""
    parts = [
        _PREAMBLE.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION),
        _HEADER.pack(
            ARCHITECTURES.index(model.arch), model.seed, model.lam, len(model.specs)
        ),
    ]
    for s in model.specs:
        parts.append(
            _LAYER.pack(
                LAYER_KINDS.index(s.kind), s.in_dim, s.out_dim, s.lam or 0.0,
                s.k or 0, s.s or 0, s.w or 0, s.p or 0,
            )
        )
    for p in model.params:
        for name in sorted(p):
            parts.append(_COUNT.pack(p[name].size))
            parts.append(np.array([p[name].real, p[name].imag], dtype="<f8").tobytes())
    blob = b"".join(parts)
    fileio.atomic_write_bytes(path, blob + _CRC.pack(zlib.crc32(blob)))


def load_checkpoint(path) -> ModelGraph:
    """Read a checkpoint; any corrupt file raises a `CheckpointError`.

    The structure is checked first, so a bad magic, version, length or
    layer stack gets its own message; the CRC32 of a version 2 file then
    catches a flipped bit that still parses.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    payload = memoryview(blob)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(payload):
            raise CheckpointError(
                f"checkpoint truncated: wanted {n} bytes at offset {pos}, "
                f"the payload has {len(payload)}"
            )
        pos += n
        return payload[pos - n : pos]

    magic, version = _PREAMBLE.unpack(take(_PREAMBLE.size))
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"bad checkpoint magic {magic!r}, expected {CHECKPOINT_MAGIC!r}"
        )
    if not 1 <= version <= CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint version {version} unsupported, this build reads "
            f"versions 1 to {CHECKPOINT_VERSION}"
        )
    if version >= 2:
        payload = payload[: -_CRC.size]
    arch_id, seed, lam, n_layers = _HEADER.unpack(take(_HEADER.size))
    if arch_id >= len(ARCHITECTURES):
        raise CheckpointError(f"unknown architecture id {arch_id}")
    specs = []
    for i in range(n_layers):
        kind_id, in_dim, out_dim, spec_lam, k, s, w, p = _LAYER.unpack(take(_LAYER.size))
        if kind_id >= len(LAYER_KINDS):
            raise CheckpointError(f"unknown layer kind id {kind_id}")
        try:
            spec = LayerSpec(
                LAYER_KINDS[kind_id], in_dim, out_dim,
                lam=spec_lam or None, k=k or None, s=s or None, w=w or None, p=p or None,
            )
        except ValueError as exc:
            raise CheckpointError(
                f"checkpoint layer {i} ({LAYER_KINDS[kind_id]}) is invalid: {exc}"
            ) from exc
        specs.append(spec)
    arch = ARCHITECTURES[arch_id]
    kinds = [spec.kind for spec in specs]
    # kinds only: the gradient checker's small geometries must still load
    expected = [spec.kind for spec in model_mod.architecture_specs(arch)]
    if kinds != expected:
        raise CheckpointError(
            f"checkpoint labelled {arch} holds layers {', '.join(kinds)}; "
            f"{arch} has {', '.join(expected)}"
        )
    params = []
    for spec in specs:
        p = {}
        for name, shape in sorted(param_shapes(spec).items()):
            (count,) = _COUNT.unpack(take(_COUNT.size))
            expected = int(np.prod(shape))
            if count != expected:
                raise CheckpointError(
                    f"{spec.kind} parameter {name} has {count} entries, "
                    f"expected {expected}"
                )
            re, im = np.frombuffer(take(16 * count), dtype="<f8").reshape(2, *shape)
            p[name] = np.empty(shape, dtype=np.complex128)
            p[name].real, p[name].imag = re, im  # re + 1j * im loses -0.0 and inf
        params.append(p)
    if pos != len(payload):
        raise CheckpointError(
            f"{len(payload) - pos} trailing bytes after checkpoint payload"
        )
    try:
        model = ModelGraph(arch=arch, specs=specs, params=params, seed=seed, lam=lam)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint model is invalid: {exc}") from exc
    if version >= 2:
        (stored,) = _CRC.unpack(blob[-_CRC.size :])
        computed = zlib.crc32(payload)
        if stored != computed:
            raise CheckpointError(
                f"checkpoint CRC32 mismatch: file says 0x{stored:08x}, contents "
                f"give 0x{computed:08x}; the file is corrupt"
            )
    return model


# ---------------------------------------------------------------------------
# gradient checking

GRAD_CHECK_PARAM_CAP = 5000


@dataclass
class LayerGradReport:
    index: int
    kind: str
    checked: int
    skipped: int
    max_rel_err: float


@dataclass
class GradCheckReport:
    layers: list[LayerGradReport]
    tol: float

    @property
    def max_rel_err(self) -> float:
        errs = [l.max_rel_err for l in self.layers if l.checked > 0]
        return max(errs) if errs else 0.0

    @property
    def passed(self) -> bool:
        return all(
            l.checked == 0 or l.max_rel_err <= self.tol for l in self.layers
        )

    def summary(self) -> str:
        lines = []
        for l in self.layers:
            status = "ok" if l.checked == 0 or l.max_rel_err <= self.tol else "FAIL"
            lines.append(
                f"layer {l.index} {l.kind}: checked={l.checked} "
                f"skipped={l.skipped} max_rel_err={l.max_rel_err:.3e} {status}"
            )
        lines.append(
            f"overall: max_rel_err={self.max_rel_err:.3e} "
            f"{'PASS' if self.passed else 'FAIL'} (tol {self.tol:g})"
        )
        return "\n".join(lines)


def _branch_signature(model: ModelGraph, caches: list[tuple]) -> tuple:
    """Identity of every non-smooth choice made during a forward pass."""
    return tuple(
        KINDS[spec.kind].branches(cache) for spec, cache in zip(model.specs, caches)
    )


def grad_check(
    model: ModelGraph,
    batch: Batch,
    eps: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Central finite differences against the analytic gradients.

    Components whose perturbation flips a max-pool argmax or a mod_softplus
    branch are skipped (the loss is not differentiable there), not failed.
    eps must be finite and > 0, and tol finite and >= 0.
    """
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be finite and > 0, got {eps!r}")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol!r}")
    if model.num_params() > GRAD_CHECK_PARAM_CAP:
        raise ValueError(
            f"model has {model.num_params()} real parameters, grad_check caps "
            f"at {GRAD_CHECK_PARAM_CAP}"
        )
    _, caches = forward_loss(model, batch)
    grads = backward(model, caches, batch.labels)

    def loss_and_sig() -> tuple[float, tuple]:
        loss, moved = forward_loss(model, batch)
        return loss, _branch_signature(model, moved)

    reports = []
    for i, (spec, p) in enumerate(zip(model.specs, model.params)):
        checked = 0
        skipped = 0
        max_err = 0.0
        for name, arr in p.items():
            view = arr.view(np.float64).ravel()
            gview = np.ascontiguousarray(grads[i][name]).view(np.float64).ravel()
            for j in range(view.size):
                orig = view[j]
                try:
                    view[j] = orig + eps
                    plus, sig_plus = loss_and_sig()
                    view[j] = orig - eps
                    minus, sig_minus = loss_and_sig()
                except NonFiniteError as exc:
                    raise NonFiniteError(
                        f"layer {i} ({spec.kind}) parameter {name} moved by "
                        f"eps={eps!r}: {exc}"
                    ) from exc
                finally:
                    view[j] = orig
                if sig_plus != sig_minus:
                    skipped += 1
                    continue
                fd = (plus - minus) / (2.0 * eps)
                a = gview[j]
                err = abs(a - fd) / max(abs(a), abs(fd), 1e-5)
                max_err = max(max_err, err)
                checked += 1
        reports.append(
            LayerGradReport(
                index=i,
                kind=spec.kind,
                checked=checked,
                skipped=skipped,
                max_rel_err=max_err,
            )
        )
    return GradCheckReport(layers=reports, tol=tol)
