"""Layer semantics: forwards and hand-derived backward passes.

Activations are batched.  Complex-valued stages use complex128 arrays of
shape (batch, n); the mod-squared stage and everything after it use float64
arrays of the same layout.  Gradients with respect to complex quantities are
packed as dL/d(re) + 1j * dL/d(im), treating the real and imaginary parts as
independent real parameters.  Under this packing the chain rule through a
complex matrix product F = A @ B reads

    G_A = G_F @ B^H        G_B = A^H @ G_F

and the row-vector map y = x @ M gives G_x = G_y @ M^H, G_M = x^H @ G_y.

The forward functions trust their arguments: LayerSpec checks each spec,
ModelGraph the parameter shapes, and layer_forward the input width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .data import FOLD, as_int

# Complex entries with modulus below this are routed to the zero branch of
# the modulus-softplus nonlinearity.
MOD_SOFTPLUS_ZERO_TOL = 1e-12


class NonFiniteError(ValueError):
    """An activation that must be finite holds inf or NaN."""

    # rows of the dataset whose forward pass raised, set by predict_log_probs
    rows: slice | None = None


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
        if self.kind not in KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        for name in ("in_dim", "out_dim", "k", "s", "w", "p"):
            if (value := getattr(self, name)) is not None and type(value) is not int:
                rule = f"{self.kind} {name} must be an integer"  # a plain int needs no call
                object.__setattr__(self, name, as_int(value, rule))
        for name in ("in_dim", "out_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{self.kind} {name} must be >= 1, got {getattr(self, name)}")
        KINDS[self.kind].check(self)


def pooled_len(n: int, w: int, p: int) -> int:
    return (n - w) // p + 1


def pool_spec(n: int, w: int, p: int) -> LayerSpec:
    n, w, p = (as_int(v, f"split_max_pool {name} must be an integer")
               for name, v in (("n", n), ("w", w), ("p", p)))
    as_int(p, "pooling stride p must be >= 1", 1)  # before pooled_len divides by it
    return LayerSpec("split_max_pool", n, pooled_len(n, w, p), w=w, p=p)


def _float_view(z: np.ndarray) -> np.ndarray:
    """Interleaved re/im float64 view of complex rows: (b, n) -> (b, 2n).

    Copies only when the rows are not contiguous (or z is not complex128).
    """
    return np.ascontiguousarray(z, dtype=np.complex128).view(np.float64)


def _require_batch(x: np.ndarray, dim: int, kind: str) -> None:
    if x.ndim != 2 or x.shape[1] != dim:
        raise ValueError(
            f"{kind} expects input of shape (batch, {dim}), got {x.shape}"
        )


# ---------------------------------------------------------------------------
# complex linear


def complex_linear_forward(x: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, tuple]:
    """y = x @ M on complex rows; returns the output and the backward cache."""
    return x @ m, (x, m)


def complex_linear_backward(
    grad_out: np.ndarray, cache: tuple, *, need_input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray]:
    """G_x = G_y @ M^H (None unless need_input_grad) and G_M = x^H @ G_y."""
    x, m = cache
    grad_x = grad_out @ m.conj().T if need_input_grad else None
    grad_m = x.conj().T @ grad_out
    return grad_x, grad_m


# ---------------------------------------------------------------------------
# pointwise nonlinearities


def sinusoid_forward(x: np.ndarray, lam: float) -> tuple[np.ndarray, tuple]:
    """t -> t*sin(lam*t) applied independently to every real component.

    Acts on the interleaved float view; lam*t and its sine are the cache.
    """
    xf = _float_view(x)
    t = lam * xf
    sin_t = np.sin(t)
    return (xf * sin_t).view(np.complex128), (t, sin_t)


def sinusoid_backward(grad_out: np.ndarray, cache: tuple) -> np.ndarray:
    t, sin_t = cache
    d = t * np.cos(t)
    d += sin_t
    d *= _float_view(grad_out)
    return d.view(np.complex128)


def mod_softplus_forward(x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """softplus on the modulus, phase preserved; exact zeros map to zero.

    softplus(r) = r + log1p(exp(-r)), the formula np.logaddexp(0, r) uses
    for r > 0, evaluated with numpy's vectorized exp and log1p rather than
    the scalar libm calls of logaddexp; the two differ by at most one ulp.
    """
    r = np.abs(x)
    safe = r >= MOD_SOFTPLUS_ZERO_TOL
    r_div = np.where(safe, r, 1.0)
    f = np.negative(r)
    np.exp(f, out=f)
    np.log1p(f, out=f)
    np.add(r, f, out=f)
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
        raise NonFiniteError("log_softmax requires finite entries")
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


@dataclass
class ConvPlan:
    """Derived convolution geometry for one kernel.

    n = ceil(k/s) matrices each carry non-overlapping copies of the kernel
    spaced k + s0 = n*s apart; matrix i is matrix i-1 shifted by s down the
    diagonal with shifted-out entries dropped.  Their product M_f applied to
    a row vector emulates the overlapping-window convolution.

    conv_forward and conv_backward never form a matrix.  A batch lives in
    stage buffers of rows of the padded length R = k_tot*n*s, where the
    kernel blocks of M_{i+1} are the k-wide slots from i*s on, n*s apart:
    each stage is one gemm from the slots of one buffer into the same slots
    of the next.  conv_forward of the identity gives M_f.
    """

    d: int
    k: int
    s: int
    n: int
    s0: int
    k_tot: int
    kernel: np.ndarray

    @property
    def row(self) -> int:  # R, the row length of a stage buffer
        return self.k_tot * self.n * self.s


def conv_geometry(d: int, k: int, s: int) -> tuple[int, int, int]:
    """(n, s0, k_tot): the matrix count, the gap between kernel copies and
    the number of copies per matrix, for 1 <= k <= d and s >= 1."""
    n = -(-k // s)
    return n, n * s - k, -(-d // (n * s))


def build_conv_plan(kernel: np.ndarray, d: int, k: int, s: int) -> ConvPlan:
    """Validate a k x k kernel and attach the geometry of (d, k, s)."""
    kernel = np.asarray(kernel, dtype=np.complex128)
    if kernel.shape != (k, k):
        raise ValueError(f"kernel must have shape ({k}, {k}), got {kernel.shape}")
    return ConvPlan(d, k, s, *conv_geometry(d, k, s), kernel)


def _stage_buffer(b: int, plan: ConvPlan) -> np.ndarray:
    """An uninitialised stage buffer: b rows of length R, then a slack row."""
    return np.empty((b + 1, plan.row), dtype=np.complex128)


def _slots(buf: np.ndarray, b: int, plan: ConvPlan, i: int) -> np.ndarray:
    """The (b * k_tot, n*s) blocks of M_{i+1} in the rows of buf, with the
    slots in their first k columns.  Block j of a row starts at i*s + j*n*s,
    so for i > 0 the last one runs on into the next row (or the slack)."""
    start, width = i * plan.s, plan.n * plan.s
    return buf.reshape(-1)[start : start + b * plan.row].reshape(b * plan.k_tot, width)


def _clear(buf: np.ndarray, plan: ConvPlan, head: int) -> np.ndarray:
    """Zero the head [0, head) and the tail [d, R) of every row, the slack
    row's included: a stage reads them, but they hold no data."""
    buf[:, :head] = 0
    buf[:, plan.d :] = 0
    return buf


def _load(a: np.ndarray, plan: ConvPlan, head: int) -> np.ndarray:
    """A stage buffer holding columns head..d of the rows of a."""
    buf = _clear(_stage_buffer(a.shape[0], plan), plan, head)
    buf[:-1, head : plan.d] = a[:, head:]
    return buf


def _stage(a: np.ndarray, e: np.ndarray, plan: ConvPlan, i: int, head: int) -> np.ndarray:
    """A stage buffer holding a @ e in the slots of M_{i+1}, zero in the
    gaps between them and cleared after the gemm: the tail past d drops the
    entries of partial kernels, and a head of at least i*s covers where the
    previous row's last block ran on."""
    b = a.shape[0] // plan.k_tot
    buf = _stage_buffer(b, plan)
    blocks = _slots(buf, b, plan, i)
    np.matmul(a, e, out=blocks[:, : plan.k].view(np.float64))
    blocks[:, plan.k :] = 0
    return _clear(buf, plan, head)


def real_embedding(kernel: np.ndarray) -> np.ndarray:
    """The 2k x 2k float64 matrix E with xf @ E the interleaved float view of
    x @ K for any complex row x seen as xf: entry a + ib of K becomes the
    block [[a, b], [-b, a]].  The embedding of K^H is E^T, bit for bit."""
    k = kernel.shape[0]
    e = np.empty((2 * k, 2 * k))
    e[0::2, 0::2] = kernel.real
    e[0::2, 1::2] = kernel.imag
    e[1::2, 0::2] = -kernel.imag
    e[1::2, 1::2] = kernel.real
    return e


def conv_forward(x: np.ndarray, plan: ConvPlan) -> tuple[np.ndarray, tuple]:
    """y = x @ M_1 @ ... @ M_n, each M_i applied as one batched block product
    in real arithmetic: the slots, seen as interleaved (b * k_tot, 2k)
    floats, times the real embedding of the kernel.  Stage i < n-1 clears
    the head [0, (i+1)*s) that the next stage drops."""
    e, b = real_embedding(plan.kernel), x.shape[0]
    if plan.row == plan.d and x.dtype == np.complex128 and x.flags.c_contiguous:
        buf = x  # no padding: stage 0 reads x in place
    else:
        buf = _load(x, plan, 0)
    blocks = []
    for i in range(plan.n):
        blocks.append(_slots(buf, b, plan, i)[:, : plan.k].view(np.float64))
        buf = _stage(blocks[-1], e, plan, i, min(i + 1, plan.n - 1) * plan.s)
    return buf[:b, : plan.d], (blocks, plan, e)


def conv_backward(
    grad_out: np.ndarray, cache: tuple, *, need_input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray]:
    """The forward's stages in reverse: the input gradient goes through E^T,
    the embedding of K^H.  r, the sum of block input^T @ block output
    gradient over all stages, folds to the kernel gradient x^H g as
    (r_re,re + r_im,im) + i (r_re,im - r_im,re).  Without need_input_grad
    the input gradient of M_1 is never formed and None is returned for it."""
    blocks, plan, e = cache
    b = grad_out.shape[0]
    r = np.zeros((2 * plan.k, 2 * plan.k))
    buf = _load(grad_out, plan, (plan.n - 1) * plan.s)
    for i in reversed(range(plan.n)):
        g_blocks = _slots(buf, b, plan, i)[:, : plan.k].view(np.float64)
        r += blocks[i].T @ g_blocks
        if i or need_input_grad:
            buf = _stage(g_blocks, e.T, plan, i, i * plan.s)
    grad_k = np.empty((plan.k, plan.k), dtype=np.complex128)
    grad_k.real = r[0::2, 0::2] + r[1::2, 1::2]
    grad_k.imag = r[0::2, 1::2] - r[1::2, 0::2]
    return (buf[:b, : plan.d] if need_input_grad else None), grad_k


# ---------------------------------------------------------------------------
# split max pooling


def _window_argmax(a: np.ndarray, w: int, p: int) -> np.ndarray:
    """Column of each pooling window's maximum in the rows of a, as np.argmax
    picks it: ties go to the lowest index and the first NaN wins.

    Entry j of every window is one strided slice of a; it takes over where
    it is strictly larger than the best so far, or NaN while that is not.
    """
    starts = np.arange(0, a.shape[1] - w + 1, p)
    span = starts[-1] + 1
    best = a[:, :span:p]
    src = np.broadcast_to(starts, best.shape)
    for j in range(1, w):
        cand = a[:, j : j + span : p]
        better = ~((cand <= best) | np.isnan(best))
        src = src + better if j == 1 else np.where(better, starts + j, src)
        if j < w - 1:
            best = np.maximum(best, cand)
    return np.ascontiguousarray(src)


def _pool_slots(re_src: np.ndarray, im_src: np.ndarray, n: int) -> np.ndarray:
    """Flat indices row*2n + 2*src + half of the pooled entries in the (b, 2n)
    interleaved float view, with the re and im of each output adjacent."""
    b, m = re_src.shape
    slots = np.empty((b, 2 * m), dtype=np.intp)
    slots[:, 0::2] = re_src
    slots[:, 1::2] = im_src
    slots *= 2
    slots += np.arange(b)[:, None] * (2 * n) + np.arange(2 * m) % 2
    return slots


def split_max_pool_forward(
    x: np.ndarray, w: int, p: int
) -> tuple[np.ndarray, tuple]:
    """1-D max pooling applied independently to the real and imaginary halves.

    Each window's maximum is an np.maximum over strided slices of the
    interleaved float view, so a non-finite value never reaches the other
    half and the first NaN wins.  Only values are formed; the input is the
    cache and the backward finds the argmax (see pool_sources).  A window
    whose maximum is a zero of either sign may output either sign.
    """
    xf = _float_view(x)
    m = pooled_len(x.shape[1], w, p)
    span = p * (m - 1) + 1
    y = np.empty((x.shape[0], 2 * m))
    for h in (0, 1):  # one half at a time, so each slice runs the length of a row
        half, best = xf[:, h::2], y[:, h::2]
        if w == 1:
            best[...] = half[:, :span:p]
        else:  # the maxima build up in place in their half of y
            np.maximum(half[:, :span:p], half[:, 1 : 1 + span : p], out=best)
        for j in range(2, w):
            np.maximum(best, half[:, j : j + span : p], out=best)
    return y.view(np.complex128), (xf, w, p)


def pool_sources(cache: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(re_src, im_src): the input column of every output's window maximum in
    each half, from the cache of a split_max_pool forward.  Ties go to the
    lowest index and the first NaN wins, as np.argmax picks."""
    xf, w, p = cache
    return _window_argmax(xf[:, 0::2], w, p), _window_argmax(xf[:, 1::2], w, p)


def split_max_pool_backward(grad_out: np.ndarray, cache: tuple) -> np.ndarray:
    """Each output's gradient goes to its window's argmax slot.  One bincount
    over the interleaved slots adds the outputs in row-major order, the same
    sums np.add.at would form on each half, so overlapping windows (p < w)
    agree bit for bit.
    """
    xf = cache[0]
    b, n = xf.shape[0], xf.shape[1] // 2
    grad = np.bincount(
        _pool_slots(*pool_sources(cache), n).ravel(),
        weights=_float_view(grad_out).ravel(),
        minlength=xf.size,
    )
    return grad.view(np.complex128).reshape(b, n)


# ---------------------------------------------------------------------------
# the table of layer kinds


def _same_dim(spec: LayerSpec) -> None:
    if spec.out_dim != spec.in_dim:
        raise ValueError(f"{spec.kind} must preserve dimension")


def _check_sinusoid(spec: LayerSpec) -> None:
    if spec.lam is None or not 0 < spec.lam < math.inf:
        raise ValueError("sinusoid requires a finite lam > 0")
    _same_dim(spec)


def _check_conv(spec: LayerSpec) -> None:
    if spec.k is None or spec.s is None:
        raise ValueError("quantum_conv requires kernel side k and stepsize s")
    as_int(spec.s, "stepsize must be >= 1", 1)
    if not 1 <= spec.k <= spec.in_dim:
        raise ValueError(f"kernel side {spec.k} must lie in 1..{spec.in_dim}")
    if spec.s > spec.in_dim:  # every s >= d gives the M_f of s = d
        raise ValueError(f"stepsize {spec.s} exceeds input length {spec.in_dim}")
    if spec.out_dim != spec.in_dim:
        raise ValueError("quantum_conv maps D to D")


def _check_pool(spec: LayerSpec) -> None:
    as_int(spec.w, "pooling window w must be >= 1", 1)
    as_int(spec.p, "pooling stride p must be >= 1", 1)
    if spec.w > spec.in_dim:
        raise ValueError(f"pooling window {spec.w} exceeds input length {spec.in_dim}")
    if spec.p > spec.in_dim:  # every p >= in_dim gives one window per row
        raise ValueError(f"pooling stride {spec.p} exceeds input length {spec.in_dim}")
    if spec.out_dim != pooled_len(spec.in_dim, spec.w, spec.p):
        raise ValueError("split_max_pool out_dim inconsistent with (w, p)")


class Param(NamedTuple):
    """The one trainable complex array of a kind: its name, and its shape as a
    function of the spec.  Each kind applies it as rows @ P: axis 0 is the fan-in."""

    name: str
    shape: Callable[[LayerSpec], tuple[int, ...]]


class Kind(NamedTuple):
    """What one layer kind does.

    check(spec) raises ValueError for a spec the kind rejects.
    forward(spec, params, x) returns the output and the backward cache.
    backward(grad_out, cache) returns the input gradient of a kind without
    a parameter; a kind with one takes need_input_grad as a third argument
    and returns (input gradient or None, parameter gradient).  It only
    reads the cache, so the same cache gives the same gradients every time.
    branches(cache) identifies the non-smooth choices of one forward, which
    grad_check compares on the two sides of a finite difference.
    matrix(spec, params) is the matrix the optical layer realises, or None
    for a kind that is not a linear map.
    """

    check: Callable[[LayerSpec], None]
    forward: Callable
    backward: Callable
    param: Param | None = None
    branches: Callable[[tuple], object] = lambda cache: None
    matrix: Callable[[LayerSpec, dict], np.ndarray | None] = lambda spec, params: None


def _conv_matrix(spec: LayerSpec, params: dict[str, np.ndarray]) -> np.ndarray:
    """M_f = M_1 ... M_n, the block path applied to I.  It is formed, so the
    width is bounded by the data's before the identity is allocated."""
    if spec.in_dim > FOLD:
        raise ValueError(f"in_dim {spec.in_dim} exceeds the {FOLD} inputs of a folded image")
    return layer_forward(spec, params, np.eye(spec.in_dim, dtype=np.complex128))[0]


# forward, backward, branches and matrix look their functions up at call time,
# so a test or a tracer that replaces a module attribute reaches every layer.
# The order is the checkpoint's kind id: add kinds at the end.
KINDS = {
    "complex_linear": Kind(
        lambda spec: None,
        lambda spec, params, x: complex_linear_forward(x, params["M"]),
        lambda g, cache, need: complex_linear_backward(g, cache, need_input_grad=need),
        Param("M", lambda spec: (spec.in_dim, spec.out_dim)),
        matrix=lambda spec, params: params["M"],
    ),
    "sinusoid": Kind(
        _check_sinusoid,
        lambda spec, params, x: sinusoid_forward(x, spec.lam),
        lambda g, cache: sinusoid_backward(g, cache),
    ),
    "mod_softplus": Kind(
        _same_dim,
        lambda spec, params, x: mod_softplus_forward(x),
        lambda g, cache: mod_softplus_backward(g, cache),
        branches=lambda cache: cache[-1].tobytes(),  # which entries are zero
    ),
    "mod_squared": Kind(
        _same_dim,
        lambda spec, params, x: mod_squared_forward(x),
        lambda g, cache: mod_squared_backward(g, cache),
    ),
    "log_softmax": Kind(
        _same_dim,
        lambda spec, params, x: log_softmax_forward(x),
        lambda g, cache: log_softmax_backward(g, cache),
    ),
    "quantum_conv": Kind(
        _check_conv,
        lambda spec, params, x: conv_forward(
            x, build_conv_plan(params["K"], spec.in_dim, spec.k, spec.s)
        ),
        lambda g, cache, need: conv_backward(g, cache, need_input_grad=need),
        Param("K", lambda spec: (spec.k, spec.k)),
        matrix=lambda spec, params: _conv_matrix(spec, params),
    ),
    "split_max_pool": Kind(
        _check_pool,
        lambda spec, params, x: split_max_pool_forward(x, spec.w, spec.p),
        lambda g, cache: split_max_pool_backward(g, cache),
        branches=lambda cache: tuple(src.tobytes() for src in pool_sources(cache)),
    ),
}

LAYER_KINDS = tuple(KINDS)


def param_shapes(spec: LayerSpec) -> dict[str, tuple[int, ...]]:
    param = KINDS[spec.kind].param
    return {} if param is None else {param.name: param.shape(spec)}


def init_layer_params(spec: LayerSpec, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Re and im drawn independently, uniform within 1/sqrt(fan-in)."""
    param = KINDS[spec.kind].param
    if param is None:
        return {}
    shape = param.shape(spec)
    b = 1.0 / np.sqrt(shape[0])
    return {param.name: rng.uniform(-b, b, shape) + 1j * rng.uniform(-b, b, shape)}


def layer_forward(
    spec: LayerSpec, params: dict[str, np.ndarray], x: np.ndarray
) -> tuple[np.ndarray, tuple]:
    """Dispatch one forward pass; returns the output and its backward cache."""
    _require_batch(x, spec.in_dim, spec.kind)
    return KINDS[spec.kind].forward(spec, params, x)


def layer_backward(
    spec: LayerSpec,
    cache: tuple,
    grad_out: np.ndarray,
    *,
    need_input_grad: bool = True,
) -> tuple[np.ndarray | None, dict[str, np.ndarray]]:
    """Dispatch one backward pass over the cache layer_forward returned for
    spec; the cache is only read, so it may serve any number of passes.

    With need_input_grad=False the input gradient is not computed and None
    is returned in its place; parameter gradients are unchanged.
    """
    kind = KINDS[spec.kind]
    if kind.param is not None:
        grad_x, grad_p = kind.backward(grad_out, cache, need_input_grad)
        return grad_x, {kind.param.name: grad_p}
    if not need_input_grad:
        return None, {}
    return kind.backward(grad_out, cache), {}
