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

from . import data, fileio, model as model_mod
from .data import Batch, Dataset
from .layers import LAYER_KINDS, LayerSpec, NonFiniteError, TapeNode
from .model import ARCHITECTURES, ModelGraph, model_backward, model_forward

LOSS_DIVERGENCE_CAP = 10.0 * math.log(10.0)


class DivergenceError(RuntimeError):
    """Training loss became non-finite or blew past the divergence cap."""


# ---------------------------------------------------------------------------
# loss


def nll_loss(log_probs: np.ndarray, label: int) -> float:
    """Negative log likelihood of one label under one log-probability row."""
    log_probs = np.asarray(log_probs, dtype=np.float64)
    if not 0 <= label < log_probs.shape[-1]:
        raise ValueError(
            f"label {label} out of range 0..{log_probs.shape[-1] - 1}"
        )
    return float(-log_probs[label])


def nll_mean(log_probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean NLL over a batch of log-probability rows."""
    labels = np.asarray(labels)
    if labels.size == 0:
        raise ValueError("empty batch")
    if labels.min() < 0 or labels.max() >= log_probs.shape[1]:
        raise ValueError(
            f"labels must lie in 0..{log_probs.shape[1] - 1}"
        )
    rows = np.arange(labels.shape[0])
    return float(-log_probs[rows, labels].mean())


@dataclass
class LossTape:
    """Forward record pairing the layer tape with the loss inputs."""

    nodes: list[TapeNode]
    log_probs: np.ndarray
    labels: np.ndarray
    consumed: bool = False


def forward_loss(model: ModelGraph, batch: Batch) -> tuple[float, LossTape]:
    """Mean NLL of the batch plus the tape needed for backward."""
    if len(batch) == 0:
        raise ValueError("empty batch")
    log_probs, nodes = model_forward(model, batch.x)
    loss = nll_mean(log_probs, batch.labels)
    return loss, LossTape(nodes=nodes, log_probs=log_probs, labels=batch.labels)


def backward(model: ModelGraph, tape: LossTape) -> list[dict[str, np.ndarray]]:
    """Gradients of the mean batch NLL for every layer, complex packed."""
    if tape.consumed:
        raise ValueError("tape already consumed by a previous backward pass")
    tape.consumed = True
    b, n = tape.log_probs.shape
    grad = np.zeros((b, n), dtype=np.float64)
    grad[np.arange(b), tape.labels] = -1.0 / b
    return model_backward(model, tape.nodes, grad)


# ---------------------------------------------------------------------------
# optimizers


class SgdOptimizer:
    def __init__(self, learning_rate: float):
        if learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        self.learning_rate = learning_rate

    def step(self, model: ModelGraph, grads: list[dict[str, np.ndarray]]) -> None:
        for p, g in zip(model.params, grads):
            for name, arr in p.items():
                arr.view(np.float64)[...] -= (
                    self.learning_rate * np.ascontiguousarray(g[name]).view(np.float64)
                )


class AdamOptimizer:
    def __init__(
        self,
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        if learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: list[dict[str, np.ndarray]] | None = None
        self._v: list[dict[str, np.ndarray]] | None = None

    def _init_state(self, model: ModelGraph) -> None:
        self._m = [
            {name: np.zeros(2 * arr.size) for name, arr in p.items()}
            for p in model.params
        ]
        self._v = [
            {name: np.zeros(2 * arr.size) for name, arr in p.items()}
            for p in model.params
        ]

    def step(self, model: ModelGraph, grads: list[dict[str, np.ndarray]]) -> None:
        if self._m is None:
            self._init_state(model)
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
                update = (self.learning_rate * (m / bc1)) / (
                    np.sqrt(v / bc2) + self.eps
                )
                arr.view(np.float64).ravel()[...] -= update


def make_optimizer(name: str, learning_rate: float):
    if name == "sgd":
        return SgdOptimizer(learning_rate)
    if name == "adam":
        return AdamOptimizer(learning_rate)
    raise ValueError(f"unknown optimizer {name!r}, expected sgd or adam")


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
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


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

    def rows(self) -> list[tuple[int, float, float, float]]:
        return list(
            zip(self.epochs, self.train_loss, self.test_loss, self.test_accuracy)
        )

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,test_loss,test_accuracy"]
        for e, tr, te, acc in self.rows():
            lines.append(f"{e},{tr:.10g},{te:.10g},{acc:.10g}")
        return "\n".join(lines) + "\n"


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


def predict_log_probs(
    model: ModelGraph, ds: Dataset, batch_size: int = PREDICT_CHUNK
) -> np.ndarray:
    """Log probabilities for a whole dataset, one row per dataset row.

    Chunks of batch_size rows run on one worker per available CPU: the
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
    starts = list(range(0, n, batch_size))
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
    if workers < 2:
        for start, stop in zip(starts, stops):
            chunk(start, stop)
        return out
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
    with ThreadPoolExecutor(max_workers=workers - 1) as pool:
        # one context copy per helper: two threads cannot enter one Context
        helpers = [
            pool.submit(contextvars.copy_context().run, drain)
            for _ in range(workers - 1)
        ]
        drain()
    for helper in helpers:
        helper.result()
    if errors:
        raise errors[min(errors)]
    return out


def evaluate_loss_accuracy(
    model: ModelGraph, ds: Dataset, batch_size: int = PREDICT_CHUNK
) -> tuple[float, float]:
    log_probs = predict_log_probs(model, ds, batch_size)
    loss = nll_mean(log_probs, ds.labels)
    acc = float((log_probs.argmax(axis=1) == ds.labels).mean())
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
    opt = make_optimizer(config.optimizer, config.learning_rate)
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
                loss, tape = forward_loss(model, batch)
            _check_divergence(loss, epoch, batch_idx)
            grads = backward(model, tape)
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
# version 2 appends a little-endian zlib.crc32 of every byte before it;
# version 1 files, which end at the last parameter, are still read
CHECKPOINT_VERSION = 2


class CheckpointError(Exception):
    """Base class for unreadable checkpoint files."""


class CheckpointFormatError(CheckpointError):
    pass


class CheckpointVersionError(CheckpointError):
    pass


class CheckpointTruncatedError(CheckpointError):
    pass


def _spec_record(spec: LayerSpec) -> bytes:
    kind_id = LAYER_KINDS.index(spec.kind)
    lam = spec.lam if spec.lam is not None else 0.0
    ints = [spec.k or 0, spec.s or 0, spec.w or 0, spec.p or 0]
    return struct.pack("<III", kind_id, spec.in_dim, spec.out_dim) + struct.pack(
        "<d", lam
    ) + struct.pack("<IIII", *ints)


def save_checkpoint(model: ModelGraph, path) -> None:
    """Serialize the model atomically; parameter arrays round-trip bit exactly."""
    parts = [
        CHECKPOINT_MAGIC,
        struct.pack("<I", CHECKPOINT_VERSION),
        struct.pack("<I", ARCHITECTURES.index(model.arch)),
        struct.pack("<q", model.seed),
        struct.pack("<d", model.meta.get("lam", model_mod.DEFAULT_LAM)),
        struct.pack("<I", len(model.specs)),
    ]
    for spec in model.specs:
        parts.append(_spec_record(spec))
    for p in model.params:
        for name in sorted(p):
            arr = p[name]
            parts.append(struct.pack("<Q", arr.size))
            parts.append(np.ascontiguousarray(arr.real, dtype="<f8").tobytes())
            parts.append(np.ascontiguousarray(arr.imag, dtype="<f8").tobytes())
    blob = b"".join(parts)
    fileio.atomic_write_bytes(path, blob + struct.pack("<I", zlib.crc32(blob)))


class _Reader:
    def __init__(self, blob: bytes | memoryview):
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes | memoryview:
        if self.pos + n > len(self.blob):
            raise CheckpointTruncatedError(
                f"checkpoint truncated: wanted {n} bytes at offset {self.pos}, "
                f"the payload has {len(self.blob)}"
            )
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_checkpoint(path) -> ModelGraph:
    """Read a checkpoint; any corrupt file raises a `CheckpointError`.

    The structure is checked first, so a bad magic, version, length or
    layer stack gets its own message; the CRC32 of a version 2 file then
    catches a flipped bit that still parses.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    magic = r.take(4)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(
            f"bad checkpoint magic {magic!r}, expected {CHECKPOINT_MAGIC!r}"
        )
    (version,) = r.unpack("<I")
    if not 1 <= version <= CHECKPOINT_VERSION:
        raise CheckpointVersionError(
            f"checkpoint version {version} unsupported, this build reads "
            f"versions 1 to {CHECKPOINT_VERSION}"
        )
    if version >= 2:
        r.blob = memoryview(blob)[:-4]  # the payload ends where the CRC32 begins
    (arch_id,) = r.unpack("<I")
    if arch_id >= len(ARCHITECTURES):
        raise CheckpointFormatError(f"unknown architecture id {arch_id}")
    (seed,) = r.unpack("<q")
    (lam,) = r.unpack("<d")
    (n_layers,) = r.unpack("<I")
    specs = []
    for i in range(n_layers):
        kind_id, in_dim, out_dim = r.unpack("<III")
        (spec_lam,) = r.unpack("<d")
        k, s, w, p = r.unpack("<IIII")
        if kind_id >= len(LAYER_KINDS):
            raise CheckpointFormatError(f"unknown layer kind id {kind_id}")
        try:
            spec = LayerSpec(
                kind=LAYER_KINDS[kind_id],
                in_dim=in_dim,
                out_dim=out_dim,
                lam=spec_lam or None,
                k=k or None,
                s=s or None,
                w=w or None,
                p=p or None,
            )
        except ValueError as exc:
            raise CheckpointFormatError(
                f"checkpoint layer {i} ({LAYER_KINDS[kind_id]}) is invalid: {exc}"
            ) from exc
        specs.append(spec)
    arch = ARCHITECTURES[arch_id]
    kinds = [spec.kind for spec in specs]
    # kinds only: the gradient checker's small geometries must still load
    expected = [spec.kind for spec in model_mod.architecture_specs(arch)]
    if kinds != expected:
        raise CheckpointFormatError(
            f"checkpoint labelled {arch} holds layers {', '.join(kinds)}; "
            f"{arch} has {', '.join(expected)}"
        )
    params = []
    for spec in specs:
        shapes = model_mod.param_shapes(spec)
        p = {}
        for name in sorted(shapes):
            shape = shapes[name]
            (count,) = r.unpack("<Q")
            expected = int(np.prod(shape))
            if count != expected:
                raise CheckpointFormatError(
                    f"{spec.kind} parameter {name} has {count} entries, "
                    f"expected {expected}"
                )
            re = np.frombuffer(r.take(8 * count), dtype="<f8").reshape(shape)
            im = np.frombuffer(r.take(8 * count), dtype="<f8").reshape(shape)
            p[name] = np.ascontiguousarray(re) + 1j * np.ascontiguousarray(im)
        params.append(p)
    if r.pos != len(r.blob):
        raise CheckpointFormatError(
            f"{len(r.blob) - r.pos} trailing bytes after checkpoint payload"
        )
    try:
        model = ModelGraph(
            arch=arch, specs=specs, params=params, seed=seed, meta={"lam": lam}
        )
    except ValueError as exc:
        raise CheckpointFormatError(f"checkpoint model is invalid: {exc}") from exc
    if version >= 2:
        (stored,) = struct.unpack("<I", blob[-4:])
        computed = zlib.crc32(r.blob)
        if stored != computed:
            raise CheckpointFormatError(
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


def _branch_signature(nodes: list[TapeNode]) -> tuple:
    """Identity of every non-smooth choice made during a forward pass."""
    sig = []
    for node in nodes:
        if node.spec.kind == "split_max_pool":
            _, re_src, im_src = node.cache
            sig.append((re_src.tobytes(), im_src.tobytes()))
        elif node.spec.kind == "mod_softplus":
            *_, safe = node.cache
            sig.append(safe.tobytes())
    return tuple(sig)


def grad_check(
    model: ModelGraph,
    batch: Batch,
    eps: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Central finite differences against the analytic gradients.

    Components whose perturbation flips a max-pool argmax or a mod_softplus
    branch are skipped (the loss is not differentiable there), not failed.
    """
    if model.num_params() > GRAD_CHECK_PARAM_CAP:
        raise ValueError(
            f"model has {model.num_params()} real parameters, grad_check caps "
            f"at {GRAD_CHECK_PARAM_CAP}"
        )
    _, tape = forward_loss(model, batch)
    grads = backward(model, tape)

    def loss_and_sig() -> tuple[float, tuple]:
        log_probs, nodes = model_forward(model, batch.x)
        return nll_mean(log_probs, batch.labels), _branch_signature(nodes)

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
                view[j] = orig + eps
                plus, sig_plus = loss_and_sig()
                view[j] = orig - eps
                minus, sig_minus = loss_and_sig()
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
