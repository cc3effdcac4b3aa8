"""Layer semantics: forwards and hand-derived backward passes.

Activations are batched.  Complex-valued stages use complex128 arrays of
shape (batch, n); the mod-squared stage and everything after it use float64
arrays of the same layout.  Gradients with respect to complex quantities are
packed as dL/d(re) + 1j * dL/d(im), treating the real and imaginary parts as
independent real parameters.  Under this packing the chain rule through a
complex matrix product F = A @ B reads

    G_A = G_F @ B^H        G_B = A^H @ G_F

and the row-vector map y = x @ M gives G_x = G_y @ M^H, G_M = x^H @ G_y.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

LAYER_KINDS = (
    "complex_linear",
    "sinusoid",
    "mod_softplus",
    "mod_squared",
    "log_softmax",
    "quantum_conv",
    "split_max_pool",
)

# Complex entries with modulus below this are routed to the zero branch of
# the modulus-softplus nonlinearity.
MOD_SOFTPLUS_ZERO_TOL = 1e-12


@dataclass(frozen=True)
class LayerSpec:
    """Shape and hyperparameters of one layer."""

    kind: str
    in_dim: int
    out_dim: int
    lam: float | None = None
    k: int | None = None
    s: int | None = None
    w: int | None = None
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("layer dimensions must be positive")
        if self.kind == "sinusoid":
            if self.lam is None or self.lam <= 0:
                raise ValueError("sinusoid requires lam > 0")
        if self.kind in ("sinusoid", "mod_softplus", "mod_squared", "log_softmax"):
            if self.out_dim != self.in_dim:
                raise ValueError(f"{self.kind} must preserve dimension")
        if self.kind == "quantum_conv":
            if self.k is None or self.s is None:
                raise ValueError("quantum_conv requires kernel side k and stepsize s")
            if self.s < 1:
                raise ValueError(f"stepsize must be >= 1, got {self.s}")
            if not 1 <= self.k <= self.in_dim:
                raise ValueError(
                    f"kernel side {self.k} must lie in 1..{self.in_dim}"
                )
            if self.out_dim != self.in_dim:
                raise ValueError("quantum_conv maps D to D")
        if self.kind == "split_max_pool":
            if self.w is None or self.p is None:
                raise ValueError("split_max_pool requires window w and stride p")
            if self.w < 1 or self.p < 1:
                raise ValueError("pooling window and stride must be >= 1")
            if self.w > self.in_dim:
                raise ValueError(
                    f"pooling window {self.w} exceeds input length {self.in_dim}"
                )
            if self.out_dim != pooled_len(self.in_dim, self.w, self.p):
                raise ValueError("split_max_pool out_dim inconsistent with (w, p)")


def pooled_len(n: int, w: int, p: int) -> int:
    return (n - w) // p + 1


def linear_spec(in_dim: int, out_dim: int) -> LayerSpec:
    return LayerSpec("complex_linear", in_dim, out_dim)


def sinusoid_spec(n: int, lam: float = 0.2) -> LayerSpec:
    return LayerSpec("sinusoid", n, n, lam=lam)


def mod_softplus_spec(n: int) -> LayerSpec:
    return LayerSpec("mod_softplus", n, n)


def mod_squared_spec(n: int) -> LayerSpec:
    return LayerSpec("mod_squared", n, n)


def log_softmax_spec(n: int) -> LayerSpec:
    return LayerSpec("log_softmax", n, n)


def conv_spec(d: int, k: int, s: int) -> LayerSpec:
    return LayerSpec("quantum_conv", d, d, k=k, s=s)


def pool_spec(n: int, w: int = 2, p: int = 2) -> LayerSpec:
    return LayerSpec("split_max_pool", n, pooled_len(n, w, p), w=w, p=p)


@dataclass
class TapeNode:
    """Forward cache for exactly one backward pass."""

    spec: LayerSpec
    cache: tuple
    consumed: bool = False


def _require_batch(x: np.ndarray, dim: int, kind: str) -> None:
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(
            f"{kind} expects input of shape (batch, {dim}), got {x.shape}"
        )


# ---------------------------------------------------------------------------
# complex linear


def complex_linear_forward(x: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, tuple]:
    """y = x @ M on complex rows; returns the output and the backward cache."""
    if x.ndim != 2 or m.ndim != 2 or x.shape[1] != m.shape[0]:
        raise ValueError(
            f"cannot multiply input of shape {x.shape} by matrix of shape {m.shape}: "
            f"input width {x.shape[1] if x.ndim == 2 else '?'} != matrix rows {m.shape[0]}"
        )
    return x @ m, (x, m)


def complex_linear_backward(
    grad_out: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray]:
    x, m = cache
    grad_x = grad_out @ m.conj().T
    grad_m = x.conj().T @ grad_out
    return grad_x, grad_m


# ---------------------------------------------------------------------------
# pointwise nonlinearities


def sinusoid_forward(x: np.ndarray, lam: float) -> tuple[np.ndarray, tuple]:
    """t -> t*sin(lam*t) applied independently to every real component."""
    if lam <= 0:
        raise ValueError(f"lam must be > 0, got {lam}")
    re, im = x.real, x.imag
    y = re * np.sin(lam * re) + 1j * (im * np.sin(lam * im))
    return y, (x, lam)


def sinusoid_backward(grad_out: np.ndarray, cache: tuple) -> np.ndarray:
    x, lam = cache
    re, im = x.real, x.imag
    dre = np.sin(lam * re) + lam * re * np.cos(lam * re)
    dim = np.sin(lam * im) + lam * im * np.cos(lam * im)
    return grad_out.real * dre + 1j * (grad_out.imag * dim)


def mod_softplus_forward(x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """softplus on the modulus, phase preserved; exact zeros map to zero."""
    r = np.abs(x)
    safe = r >= MOD_SOFTPLUS_ZERO_TOL
    r_div = np.where(safe, r, 1.0)
    f = np.logaddexp(0.0, r)
    scale = np.where(safe, f / r_div, 0.0)
    return scale * x, (x, r_div, f, safe)


def mod_softplus_backward(grad_out: np.ndarray, cache: tuple) -> np.ndarray:
    # r is the modulus with unsafe entries set to 1 and f its softplus from
    # the forward; both are finite everywhere and unsafe entries end at 0.
    x, r, f, safe = cache
    fp = 1.0 / (1.0 + np.exp(-r))
    dot = x.real * grad_out.real + x.imag * grad_out.imag
    grad = (f / r) * grad_out + ((fp * r - f) / r**3) * dot * x
    return np.where(safe, grad, 0.0)


def mod_squared_forward(x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Complex (batch, n) -> real (batch, n) of squared moduli."""
    return x.real**2 + x.imag**2, (x,)


def mod_squared_backward(grad_out: np.ndarray, cache: tuple) -> np.ndarray:
    (x,) = cache
    return 2.0 * grad_out * x


def log_softmax(v: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax with max subtraction for stability."""
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError("log_softmax requires finite entries")
    shifted = v - v.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def log_softmax_forward(v: np.ndarray) -> tuple[np.ndarray, tuple]:
    y = log_softmax(v)
    return y, (y,)


def log_softmax_backward(grad_out: np.ndarray, cache: tuple) -> np.ndarray:
    (y,) = cache
    return grad_out - np.exp(y) * grad_out.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# translationally invariant convolution through matrix composition


class Placement(NamedTuple):
    """Positions of kernel entries inside one composition matrix."""

    rows: np.ndarray
    cols: np.ndarray
    ky: np.ndarray
    kz: np.ndarray


@dataclass
class ConvPlan:
    """Derived convolution geometry for one kernel.

    n = ceil(k/s) matrices each carry non-overlapping copies of the kernel
    spaced k + s0 = n*s apart; matrix i is matrix i-1 shifted by s down the
    diagonal with shifted-out entries dropped.  Their product m_f applied to
    a row vector emulates the overlapping-window convolution.

    conv_forward and conv_backward apply each matrix block by block and never
    form it.  The dense d x d `matrices` and `m_f` are built on first access
    only, as the oracle the block path is checked against.
    """

    d: int
    k: int
    s: int
    n: int
    s0: int
    k_tot: int
    kernel: np.ndarray
    placements: list[Placement]

    @functools.cached_property
    def matrices(self) -> list[np.ndarray]:
        out = []
        for pl in self.placements:
            m = np.zeros((self.d, self.d), dtype=np.complex128)
            m[pl.rows, pl.cols] = self.kernel[pl.ky, pl.kz]
            out.append(m)
        return out

    @functools.cached_property
    def m_f(self) -> np.ndarray:
        return functools.reduce(np.matmul, self.matrices)


@functools.lru_cache(maxsize=None)
def conv_geometry(d: int, k: int, s: int) -> tuple[int, int, int, tuple[Placement, ...]]:
    """Kernel placement indices for each composition matrix, cached per (d, k, s)."""
    if s < 1:
        raise ValueError(f"stepsize must be >= 1, got {s}")
    if not 1 <= k <= d:
        raise ValueError(f"kernel side {k} must lie in 1..{d}")
    n = -(-k // s)
    s0 = n * s - k
    k_tot = -(-d // (n * s))
    base_rows, base_cols, base_ky, base_kz = [], [], [], []
    for x in range(k_tot):
        base = x * (k + s0)
        for y in range(k):
            if base + y >= d:
                continue
            for z in range(k):
                if base + z >= d:
                    continue
                base_rows.append(base + y)
                base_cols.append(base + z)
                base_ky.append(y)
                base_kz.append(z)
    rows = np.asarray(base_rows, dtype=np.intp)
    cols = np.asarray(base_cols, dtype=np.intp)
    ky = np.asarray(base_ky, dtype=np.intp)
    kz = np.asarray(base_kz, dtype=np.intp)
    placements = []
    for i in range(n):
        shift = i * s
        keep = (rows + shift < d) & (cols + shift < d)
        placements.append(
            Placement(rows[keep] + shift, cols[keep] + shift, ky[keep], kz[keep])
        )
    for pl in placements:
        for arr in pl:
            arr.setflags(write=False)
    return n, s0, k_tot, tuple(placements)


def build_conv_plan(kernel: np.ndarray, d: int, k: int, s: int) -> ConvPlan:
    """Validate a k x k kernel and attach the cached geometry of (d, k, s)."""
    kernel = np.asarray(kernel, dtype=np.complex128)
    if kernel.shape != (k, k):
        raise ValueError(f"kernel must have shape ({k}, {k}), got {kernel.shape}")
    n, s0, k_tot, placements = conv_geometry(d, k, s)
    return ConvPlan(
        d=d,
        k=k,
        s=s,
        n=n,
        s0=s0,
        k_tot=k_tot,
        kernel=kernel,
        placements=list(placements),
    )


def _to_blocks(a: np.ndarray, plan: ConvPlan, i: int) -> np.ndarray:
    """(b, d) rows -> the (b * k_tot, k) inputs of the kernel blocks of M_i.

    Block j of M_i covers indices i*s + j*n*s onwards.  The row is shifted by
    i*s and zero-padded to k_tot*n*s, so indices past d read as zero: this is
    how the dense matrices drop the entries of partial kernels.
    """
    b, shift, width = a.shape[0], i * plan.s, plan.n * plan.s
    padded = np.zeros((b, plan.k_tot * width), dtype=a.dtype)
    padded[:, : plan.d - shift] = a[:, shift:]
    return padded.reshape(b, plan.k_tot, width)[:, :, : plan.k].reshape(-1, plan.k)


def _from_blocks(blocks: np.ndarray, plan: ConvPlan, i: int) -> np.ndarray:
    """Inverse of _to_blocks: block outputs -> (b, d) rows, truncated at d,
    with the indices no block of M_i covers left at zero."""
    shift, width = i * plan.s, plan.n * plan.s
    b = blocks.shape[0] // plan.k_tot
    padded = np.zeros((b, plan.k_tot, width), dtype=blocks.dtype)
    padded[:, :, : plan.k] = blocks.reshape(b, plan.k_tot, plan.k)
    out = np.zeros((b, plan.d), dtype=blocks.dtype)
    out[:, shift:] = padded.reshape(b, -1)[:, : plan.d - shift]
    return out


def conv_forward(x: np.ndarray, plan: ConvPlan) -> tuple[np.ndarray, tuple]:
    """y = x @ M_1 @ ... @ M_n, each M_i applied as one batched block matmul."""
    _require_batch(x, plan.d, "quantum_conv")
    blocks = []
    y = x
    for i in range(plan.n):
        blocks.append(_to_blocks(y, plan, i))
        y = _from_blocks(blocks[-1] @ plan.kernel, plan, i)
    return y, (blocks, plan)


def conv_backward(grad_out: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The forward's blocks in reverse: the input gradient goes through K^H,
    and the kernel gradient sums block input^H @ block output gradient over
    all blocks of all composition matrices."""
    blocks, plan = cache
    k_h = plan.kernel.conj().T
    grad_k = np.zeros((plan.k, plan.k), dtype=np.complex128)
    g = grad_out
    for i in reversed(range(plan.n)):
        g_blocks = _to_blocks(g, plan, i)
        grad_k += blocks[i].conj().T @ g_blocks
        g = _from_blocks(g_blocks @ k_h, plan, i)
    return g, grad_k


# ---------------------------------------------------------------------------
# split max pooling


def _pool_half(a: np.ndarray, w: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    out_len = pooled_len(a.shape[1], w, p)
    windows = sliding_window_view(a, w, axis=1)[:, ::p, :]
    arg = windows.argmax(axis=2)
    src = np.arange(out_len)[None, :] * p + arg
    return np.take_along_axis(a, src, axis=1), src


def split_max_pool_forward(
    x: np.ndarray, w: int, p: int
) -> tuple[np.ndarray, tuple]:
    """1-D max pooling applied independently to the real and imaginary halves.

    Per window the argmax index is cached; ties resolve to the lowest index.
    """
    if w < 1 or p < 1:
        raise ValueError("pooling window and stride must be >= 1")
    if x.ndim != 2 or w > x.shape[1]:
        raise ValueError(
            f"pooling window {w} exceeds input length "
            f"{x.shape[1] if x.ndim == 2 else '?'}"
        )
    re_vals, re_src = _pool_half(np.ascontiguousarray(x.real), w, p)
    im_vals, im_src = _pool_half(np.ascontiguousarray(x.imag), w, p)
    return re_vals + 1j * im_vals, (x.shape, re_src, im_src)


def split_max_pool_backward(grad_out: np.ndarray, cache: tuple) -> np.ndarray:
    """Each output's gradient goes to its window's argmax slot.  bincount over
    the flat slots row*n + src adds the outputs in row-major order, the same
    sums np.add.at would form, so overlapping windows (p < w) agree bit for bit.
    """
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


# ---------------------------------------------------------------------------
# uniform dispatch


def layer_forward(
    spec: LayerSpec, params: dict[str, np.ndarray], x: np.ndarray
) -> tuple[np.ndarray, TapeNode]:
    """Dispatch one forward pass; returns the output and its tape node."""
    kind = spec.kind
    if kind == "complex_linear":
        _require_batch(x, spec.in_dim, kind)
        y, cache = complex_linear_forward(x, params["M"])
    elif kind == "sinusoid":
        _require_batch(x, spec.in_dim, kind)
        y, cache = sinusoid_forward(x, spec.lam)
    elif kind == "mod_softplus":
        _require_batch(x, spec.in_dim, kind)
        y, cache = mod_softplus_forward(x)
    elif kind == "mod_squared":
        _require_batch(x, spec.in_dim, kind)
        y, cache = mod_squared_forward(x)
    elif kind == "log_softmax":
        _require_batch(x, spec.in_dim, kind)
        y, cache = log_softmax_forward(x)
    elif kind == "quantum_conv":
        plan = build_conv_plan(params["K"], spec.in_dim, spec.k, spec.s)
        y, cache = conv_forward(x, plan)
    elif kind == "split_max_pool":
        y, cache = split_max_pool_forward(x, spec.w, spec.p)
    else:  # unreachable once LayerSpec validates, kept for raw dispatch use
        raise ValueError(f"unknown layer kind {kind!r}")
    return y, TapeNode(spec=spec, cache=cache)


def layer_backward(
    spec: LayerSpec, node: TapeNode, grad_out: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Dispatch one backward pass; each tape node may be consumed once."""
    if node is None:
        raise ValueError("missing tape node")
    if node.consumed:
        raise ValueError("tape node already consumed by a previous backward pass")
    if node.spec != spec:
        raise ValueError("tape node does not belong to this layer")
    node.consumed = True
    kind = spec.kind
    if kind == "complex_linear":
        grad_x, grad_m = complex_linear_backward(grad_out, node.cache)
        return grad_x, {"M": grad_m}
    if kind == "sinusoid":
        return sinusoid_backward(grad_out, node.cache), {}
    if kind == "mod_softplus":
        return mod_softplus_backward(grad_out, node.cache), {}
    if kind == "mod_squared":
        return mod_squared_backward(grad_out, node.cache), {}
    if kind == "log_softmax":
        return log_softmax_backward(grad_out, node.cache), {}
    if kind == "quantum_conv":
        grad_x, grad_k = conv_backward(grad_out, node.cache)
        return grad_x, {"K": grad_k}
    if kind == "split_max_pool":
        return split_max_pool_backward(grad_out, node.cache), {}
    raise ValueError(f"unknown layer kind {kind!r}")
