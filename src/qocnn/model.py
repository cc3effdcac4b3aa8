"""Model graphs: layer stacks and their forward and backward sweeps."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data, layers
from .layers import LayerSpec, NonFiniteError, init_layer_params, param_shapes

ARCHITECTURES = ("onn", "qonn", "qocnn")

DEFAULT_LAM = 0.2

SEED_LIMIT = 2**63  # a checkpoint stores the seed as a signed 64-bit int


def check_seed(seed) -> int:
    """`seed` as a plain int, if it is an integer a checkpoint can store."""
    return data.as_int(seed, "seed must lie in 0..2**63-1", 0, SEED_LIMIT - 1)


@dataclass
class ModelGraph:
    """Ordered layers plus their trainable parameter arrays.

    Trainable parameters are stored as complex128 arrays; each exposes
    2 * size independent real degrees of freedom through its float64 view.
    seed and lam are what the model was built with; checkpoints keep them.
    """

    arch: str
    specs: list[LayerSpec]
    params: list[dict[str, np.ndarray]]
    seed: int = 0
    lam: float = DEFAULT_LAM

    def __post_init__(self) -> None:
        if self.arch not in ARCHITECTURES:
            raise ValueError(f"unknown architecture {self.arch!r}")
        self.seed = check_seed(self.seed)
        if not 0 < self.lam < np.inf:  # for every architecture, sinusoid or not
            raise ValueError(f"lam must be finite and > 0, got {self.lam}")
        if len(self.specs) != len(self.params):
            raise ValueError("one parameter dict required per layer")
        for i in range(1, len(self.specs)):
            prev, cur = self.specs[i - 1], self.specs[i]
            if prev.out_dim != cur.in_dim:
                raise ValueError(
                    f"layer {i - 1} ({prev.kind}) outputs {prev.out_dim} but "
                    f"layer {i} ({cur.kind}) expects {cur.in_dim}"
                )
        for spec, p in zip(self.specs, self.params):
            expected = param_shapes(spec)
            got = {name: arr.shape for name, arr in p.items()}
            if got != expected:
                raise ValueError(
                    f"{spec.kind} parameter shapes {got} do not match {expected}"
                )

    @property
    def out_dim(self) -> int:
        return self.specs[-1].out_dim if self.specs else 0

    def num_params(self) -> int:
        """Count of real trainable parameters (re and im counted separately)."""
        return sum(2 * arr.size for p in self.params for arr in p.values())


def architecture_specs(
    arch: str,
    in_dim: int = data.FOLD,
    hidden: int | None = None,
    classes: int = data.CLASSES,
    lam: float = DEFAULT_LAM,
    conv_k: int = 4,
    conv_s: int = 2,
    pool_w: int = 2,
    pool_p: int = 2,
) -> list[LayerSpec]:
    """The paper's three stacks, dims overridable.  Each ends in one tail:
    complex_linear, a nonlinearity, complex_linear, mod_squared and
    log_softmax.  The ONN's nonlinearity is mod_softplus; QONN swaps in the
    sinusoid, and QOCNN is QONN behind a quantum conv and a split max pool."""
    if arch not in ARCHITECTURES:
        raise ValueError(f"unknown architecture {arch!r}")
    front = []
    if arch == "qocnn":
        front = [
            LayerSpec("quantum_conv", in_dim, in_dim, k=conv_k, s=conv_s),
            layers.pool_spec(in_dim, pool_w, pool_p),
        ]
        in_dim = front[-1].out_dim
    h = hidden if hidden is not None else 64 if arch == "qocnn" else 128
    h = data.as_int(h, "hidden must be a positive integer", 1)
    return front + [
        LayerSpec("complex_linear", in_dim, h),
        LayerSpec("mod_softplus", h, h) if arch == "onn"
        else LayerSpec("sinusoid", h, h, lam=lam),
        LayerSpec("complex_linear", h, classes),
        LayerSpec("mod_squared", classes, classes),
        LayerSpec("log_softmax", classes, classes),
    ]


def new_model(arch: str, seed: int = 0, lam: float = DEFAULT_LAM, **kwargs) -> ModelGraph:
    """Freshly initialized model of the named architecture."""
    specs = architecture_specs(arch, lam=lam, **kwargs)
    rng = np.random.default_rng(check_seed(seed))
    params = [init_layer_params(spec, rng) for spec in specs]
    return ModelGraph(arch=arch, specs=specs, params=params, seed=seed, lam=lam)


def model_forward(model: ModelGraph, x: np.ndarray) -> tuple[np.ndarray, list[tuple]]:
    """Run the full stack (an empty model is the identity); returns the
    output and one backward cache per layer.  An error names its layer, and a
    `NonFiniteError` also the first layer to output inf or NaN on x: the
    outputs made so far are kept for that, and when all are finite the
    input itself was not, so the layer's own error goes up unchanged."""
    caches, outs = [], []
    out = x
    for i, (spec, p) in enumerate(zip(model.specs, model.params)):
        try:
            out, cache = layers.layer_forward(spec, p, out)
        except NonFiniteError as exc:
            first = next((j for j, y in enumerate(outs) if not np.isfinite(y).all()), None)
            if first is None:
                raise
            raise NonFiniteError(
                f"layer {first} ({model.specs[first].kind}) is the first to output "
                f"inf or NaN; layer {i} ({spec.kind}): {exc}"
            ) from exc
        except ValueError as exc:
            raise ValueError(f"layer {i} ({spec.kind}): {exc}") from exc
        caches.append(cache)
        outs.append(out)
    return out, caches


def model_backward(model: ModelGraph, caches: list, grad_out: np.ndarray) -> list[dict]:
    """Reverse sweep over the caches of model_forward; returns one gradient
    dict per layer (complex packed).

    Nothing reads the gradient with respect to the input batch, so layer 0
    is asked for its parameter gradients only.
    """
    grads: list[dict[str, np.ndarray]] = [None] * len(model.specs)
    g = grad_out
    for i in range(len(model.specs) - 1, -1, -1):
        g, grads[i] = layers.layer_backward(
            model.specs[i], caches[i], g, need_input_grad=i > 0
        )
    return grads
