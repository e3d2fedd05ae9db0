"""Dense tensors with reverse-mode automatic differentiation.

Just enough ops for a transformer encoder/decoder: broadcasting arithmetic,
batched matmul, softmax/layer-norm/gelu, embedding and gather ops, dropout,
the attention and feed-forward sublayers as single ops, a logit binary
cross-entropy and a projected label-smoothed vocabulary cross-entropy. Data
lives in numpy arrays; float32 is the training dtype, float64 the
verification dtype.
Each public differentiable op is registered in `OPS` by the `op`
decorator, and `op_hook` routes op calls and backward closures through a
caller's function, for profiles and memory probes.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import hashlib
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, GraphCycle, IdOutOfRange, InvalidAxis, NotScalar, ShapeMismatch


class SplitRng:
    """Deterministic splittable RNG over numpy's counter-based Philox.

    Children are derived by hashing the parent key with a label, so any
    subsystem can carve out an independent, reproducible stream without
    coordinating draw order with the rest of the program.
    """

    def __init__(self, seed: int):
        self.key = int(seed) % (1 << 128)

    def child(self, *labels) -> "SplitRng":
        h = hashlib.blake2b(digest_size=16)
        h.update(self.key.to_bytes(16, "little"))
        for label in labels:
            h.update(repr(label).encode("utf-8") + b"\x00")
        rng = SplitRng.__new__(SplitRng)
        rng.key = int.from_bytes(h.digest(), "little")
        return rng

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.key))


class Tensor:
    """N-dimensional float array, optionally tracked by the autodiff graph.

    A leaf (a parameter or a constant) is its own graph vertex: it has no
    parents or backward closure, and `backward` writes its `.grad`. A
    recorded op output's vertex is its `_node` instead (see `_Node`).
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")
    _parents: tuple = ()
    _backward = None

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype.kind != "f":  # np.floating's dtypes, without issubdtype's cost
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._node: _Node | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # The two operators the model code uses; the ops are module-level functions.
    def __add__(self, other):
        return add(self, other)

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("tensor/tensor division not supported; use mul with a reciprocal")
        return mul(self, 1.0 / float(other))


def _as_tensor(value, dtype) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=dtype))


_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Record no graph: op outputs inside get requires_grad=False and keep
    no parents or backward closures. Nests, and restores the previous mode
    on exit, exceptions included. Also usable as a function decorator."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def grad_enabled() -> bool:
    """Whether ops record a graph here, that is, outside every `no_grad`."""
    return _grad_enabled.get()


OPS: dict[str, Callable] = {}  # every public differentiable op, by name
_op_hook: contextvars.ContextVar[Callable | None] = contextvars.ContextVar("op_hook", default=None)


def op(fn: Callable) -> Callable:
    """Register `fn` in OPS as a public differentiable op, and route its
    calls through the op hook while one is set (see `op_hook`)."""
    name = fn.__name__

    @functools.wraps(fn)
    def call(*args, **kwargs):
        hook = _op_hook.get()
        if hook is None:
            return fn(*args, **kwargs)
        return hook(name, "forward", fn, *args, **kwargs)

    OPS[name] = call
    return call


@contextlib.contextmanager
def op_hook(hook: Callable) -> Iterator[None]:
    """Run every op call inside as `hook(name, "forward", fn, *args,
    **kwargs)` and every backward closure as `hook(name, "backward",
    closure, g)`; the hook returns what the call returns. Nests, and
    restores the outer hook on exit, exceptions included. Unset, an op
    call costs one context-variable read."""
    token = _op_hook.set(hook)
    try:
        yield
    finally:
        _op_hook.reset(token)


class _Node:
    """Graph vertex of a recorded op output. It holds no data: only the
    parents' vertices (None for a parent that needs no gradient), the
    backward closure, the incoming gradient and the dtype that gradient is
    cast to. The output's array is therefore freed as soon as model code
    drops the Tensor, unless a backward closure saved it because it reads it.
    """

    __slots__ = ("_parents", "_backward", "grad", "dtype")

    def __init__(self, parents: tuple, backward_fn: Callable[[np.ndarray], tuple], dtype):
        self._parents = parents
        self._backward = backward_fn
        self.grad: np.ndarray | None = None
        self.dtype = dtype


def _vertex(t: Tensor) -> Tensor | _Node:
    return t if t._node is None else t._node


def _records(parents: tuple[Tensor, ...]) -> bool:
    """Whether an op over `parents` records a graph vertex: grad mode is on
    and some parent needs a gradient."""
    return _grad_enabled.get() and any(p.requires_grad for p in parents)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    """Wrap an op's output; record a vertex when grad mode is on and some
    parent needs a gradient. Backward closures capture the arrays and shapes
    they read, never a parent Tensor."""
    out = Tensor(data)
    out.requires_grad = _records(parents)
    if out.requires_grad:
        vertices = tuple(_vertex(p) if p.requires_grad else None for p in parents)
        out._node = _Node(vertices, backward_fn, out.data.dtype)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to `shape` after numpy broadcasting expanded it."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# --- arithmetic ---

@op
def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeMismatch(f"add: {a.shape} vs {b.shape}") from exc
    sa, sb = a.shape, b.shape
    return _make(data, (a, b), lambda g: (_unbroadcast(g, sa), _unbroadcast(g, sb)))


@op
def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeMismatch(f"mul: {a.shape} vs {b.shape}") from exc
    x, y = a.data, b.data
    return _make(data, (a, b), lambda g: (_unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape)))


@op
def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product, batched over broadcast leading axes."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeMismatch(f"matmul needs matrices, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(f"matmul inner dims: {a.shape} @ {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError as exc:
        raise ShapeMismatch(f"matmul batch dims: {a.shape} @ {b.shape}") from exc

    x, y = a.data, b.data

    def backward(g):
        ga = _unbroadcast(g @ np.swapaxes(y, -1, -2), x.shape)
        if y.ndim > 2 or x.ndim == 2:
            return ga, _unbroadcast(np.swapaxes(x, -1, -2) @ g, y.shape)
        # A 2-D weight shared across x's leading axes: the per-matrix
        # products, summed in order without their [..., d, n] stack.
        gb = _ItemGrad(y.shape, x.shape, np.result_type(x, g))
        for i in np.ndindex(x.shape[:-2]):
            gb.put(i, np.swapaxes(x[i], -1, -2) @ g[i])
        return ga, gb.out

    return _make(data, (a, b), backward)


@op
def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise InvalidAxis(f"permute axes {axes} invalid for rank {a.data.ndim}")
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    return _make(a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


@op
def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = a.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


# --- nonlinearities ---

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _gelu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximation gelu of x, 0.5 x (1 + tanh(C (x + A x³))), and
    the tanh its backward reads: three buffers, each step with the operands
    of that expression, so its bits."""
    # x * x * x, not x**3: numpy's float32 power has no fast path for 3.
    t = x * x
    t *= x
    t *= _GELU_A
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    out = np.multiply(0.5, x)
    out *= np.add(t, 1.0)
    return out, t


def _gelu_backward(g: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """g * (0.5 (1 + t) + 0.5 x (1 - t²) d_inner), where d_inner is
    C (1 + 3A x²), evaluated term by term in two buffers."""
    out = np.square(t)
    np.subtract(1.0, out, out=out)
    d = np.multiply(0.5, x)
    out *= d
    np.multiply(x, x, out=d)
    d *= 3.0 * _GELU_A
    d += 1.0
    d *= _GELU_C
    out *= d
    np.add(t, 1.0, out=d)
    d *= 0.5
    d += out
    d *= g
    return d


@op
def gelu(a: Tensor) -> Tensor:
    """Tanh-approximation gelu, the variant most transformer stacks use."""
    x = a.data
    data, t = _gelu_forward(x)
    return _make(data, (a,), lambda g: (_gelu_backward(g, x, t),))


@op
def bce_with_logits(z: Tensor, labels: np.ndarray, weights: np.ndarray) -> Tensor:
    """Σ weights · bce of logits z against labels y, where the elementwise
    bce is max(z, 0) - z*y + log1p(exp(-|z|)): finite for every finite z,
    and the gradient sigmoid(z) - y never vanishes on a saturated wrong
    logit. The weights take no gradient."""
    x = z.data
    y = np.asarray(labels, dtype=x.dtype)
    weights = np.asarray(weights, dtype=x.dtype)
    if y.shape != x.shape or weights.shape != x.shape:
        raise ShapeMismatch(f"bce_with_logits: logits {z.shape}, labels {y.shape}, weights {weights.shape}")
    e = np.exp(-np.abs(x))
    data = ((np.maximum(x, 0) - x * y + np.log1p(e)) * weights).sum()

    def backward(g):
        # sigmoid(x) from e = exp(-|x|), which never overflows.
        s = np.where(x >= 0, 1.0, e) / (1.0 + e)
        return ((g * weights) * (s - y),)

    return _make(data, (z,), backward)


def _check_axis(a: Tensor, axis: int) -> int:
    if not -a.data.ndim <= axis < a.data.ndim:
        raise InvalidAxis(f"axis {axis} invalid for rank {a.data.ndim}")
    return axis % a.data.ndim


def _softmax_forward(x: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """exp(x - max) / sum along axis; `out` may be x itself."""
    out = np.subtract(x, x.max(axis=axis, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)
    return out


def _softmax_backward(g: np.ndarray, out: np.ndarray, axis: int) -> np.ndarray:
    dot = (g * out).sum(axis=axis, keepdims=True)
    return out * (g - dot)


def _softmax_backward_into(g: np.ndarray, out: np.ndarray) -> None:
    """_softmax_backward over the last axis, written into g, which the caller
    allocated. The row dots are taken one leading index at a time: each row
    is reduced alone either way, so the bits are the same, and the product
    they read is never larger than one leading slice."""
    dot = np.empty(g.shape[:-1] + (1,), g.dtype)
    for i in range(g.shape[0]):
        np.sum(g[i] * out[i], axis=-1, keepdims=True, out=dot[i])
    g -= dot
    g *= out


@op
def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """exp(x - max) normalized along axis; max subtraction guards overflow."""
    axis = _check_axis(a, axis)
    out = _softmax_forward(a.data, axis)
    return _make(out, (a,), lambda g: (_softmax_backward(g, out, axis),))


def _row_block(n: int, rows: int = 1) -> int:
    """How many of n leading indices, of `rows` rows each, a kernel takes
    per block when it walks them in blocks to bound its temporaries: an
    eighth of them, but at least 8 rows, so that a few rows (the beam's live
    hypotheses) are one call. Each row is reduced alone either way, so the
    block size changes no bits."""
    return max(math.ceil(n / 8), math.ceil(8 / max(rows, 1)))


def _log_softmax_forward(
    x: np.ndarray, axis: int, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x - max - log(sum(exp(x - max))) along axis, and that max and
    log-sum-exp, keepdims; `out` may be x itself."""
    top = x.max(axis=axis, keepdims=True)
    out = np.subtract(x, top, out=out)
    # The exp sums are taken over `_row_block`s of the leading axis (all at
    # once when axis is the leading one), so exp() never makes a second
    # output-sized array; each sum along axis is reduced alone either way,
    # so the bits are the same.
    lse = np.empty(top.shape, out.dtype)
    n = out.shape[0]
    step = _row_block(n, math.prod(top.shape[1:])) if axis else max(n, 1)
    for start in range(0, n, step):
        block = slice(start, start + step)
        np.sum(np.exp(out[block]), axis=axis, keepdims=True, out=lse[block])
    np.log(lse, out=lse)
    out -= lse
    return out, top, lse


@op
def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    axis = _check_axis(a, axis)
    out, _, _ = _log_softmax_forward(a.data, axis)

    def backward(g):
        # g - exp(out) * g.sum(axis), in one buffer
        e = np.exp(out)
        e *= g.sum(axis=axis, keepdims=True)
        np.subtract(g, e, out=e)
        return (e,)

    return _make(out, (a,), backward)


@op
def projected_cross_entropy(
    h: Tensor,
    table_t: Tensor,
    bias: Tensor | None,
    targets: np.ndarray,
    weights: np.ndarray,
    smoothing: float = 0.0,
) -> Tensor:
    """Σ weights · ((1 − s)·(−lp[target]) + s·(−mean lp)) over the scored
    rows, where lp is the log-softmax over the vocabulary of the logits
    h @ table_t (+ bias) and s the label smoothing: the vocabulary head and
    its label-smoothed NLL as one op.

    h is [n, d] or [B, n, d], table_t [d, V], and bias [V] (with a [n, d] h)
    or None. targets and weights are [m] or [B, m], m ≤ n: row j < m is
    scored against target j, and the rows from m on predict nothing.

    The logits are made one item at a time (`_items`): forward keeps only
    each scored row's max and log-sum-exp, and backward recomputes the
    item's logits and rewrites them, a `_row_block` of its scored rows at
    a time, into their gradient, as Cut Cross-Entropy does (Wijmans et al.
    2024). So no logits or log-probabilities live from forward to backward,
    and for a [B, n, d] h no array is larger than one item's [n, V]. Each
    product is one that matmul makes for the whole array (numpy's stacked
    matmul makes one per item), and the table's gradient is summed over
    items in order, as matmul sums a shared weight's. So values and
    gradients are bitwise those of matmul (+ add) → narrow → label-smoothed
    cross-entropy, whatever bits BLAS would give a block of rows or columns.
    """
    x, wt = h.data, table_t.data
    b = None if bias is None else bias.data
    targets = np.asarray(targets)
    dtype = np.result_type(x, wt) if b is None else np.result_type(x, wt, b)
    weights = np.asarray(weights, dtype=dtype)
    if (
        x.ndim not in (2, 3) or wt.ndim != 2 or x.shape[-1] != wt.shape[0]
        or (b is not None and (x.ndim != 2 or b.shape != wt.shape[1:]))
        or targets.ndim != x.ndim - 1 or targets.shape != weights.shape
        or targets.shape[:-1] != x.shape[:-2] or targets.shape[-1] > x.shape[-2]
    ):
        raise ShapeMismatch(
            f"projected_cross_entropy: h {x.shape}, table {wt.shape}, "
            f"bias {None if b is None else b.shape}, targets {targets.shape}, weights {weights.shape}"
        )
    v, m = wt.shape[1], targets.shape[-1]
    if targets.dtype.kind not in "iu" or (targets.size and (targets.min() < 0 or targets.max() >= v)):
        raise IdOutOfRange(f"projected_cross_entropy: target ids must be integers in [0, {v})")
    if not 0.0 <= smoothing < 1.0:
        raise ConfigError(f"smoothing must be in [0, 1), got {smoothing}")
    items, _ = _items(x.shape)
    step = _row_block(m)

    def logits(i) -> np.ndarray:
        z = x[i] @ wt
        if b is not None:
            z += b
        return z

    top, lse = (np.empty(targets.shape + (1,), dtype) for _ in range(2))
    per_pos, lp_sums = (np.empty(targets.shape, dtype) for _ in range(2))
    for i in items:
        lp = logits(i)[:m]
        lp, top[i], lse[i] = _log_softmax_forward(lp, 1, out=lp)
        per_pos[i] = -lp[np.arange(m), targets[i]]
        if smoothing > 0.0:
            np.sum(lp, axis=-1, out=lp_sums[i])
        del lp
    if smoothing > 0.0:
        gold, smooth, inv_v = (np.asarray(c, dtype) for c in (1.0 - smoothing, smoothing, 1.0 / v))
        per_pos = per_pos * gold + -(lp_sums * inv_v) * smooth
    data = (per_pos * weights).sum()

    def backward(g):
        g_pos = g * weights
        if smoothing > 0.0:
            gold_g, uniform_g = -(g_pos * gold), -(g_pos * smooth) * inv_v
        else:
            gold_g = -g_pos
        gz = np.empty((min(step, m), v), dtype)

        def item_grad(i) -> np.ndarray:
            """Item i's logits, recomputed and rewritten into their gradient:
            per block of rows, the chain's gradient of lp, then log_softmax's
            backward g − exp(lp)·g.sum(−1) written over lp."""
            z = logits(i)
            for r in range(0, m, step):
                rows = slice(r, min(r + step, m))
                lp, gb = z[rows], gz[: rows.stop - r]
                lp -= top[i][rows]
                lp -= lse[i][rows]
                gb.fill(0)
                gb[np.arange(len(gb)), targets[i][rows]] = gold_g[i][rows]
                if smoothing > 0.0:
                    gb += uniform_g[i][rows, None]
                row_sums = gb.sum(axis=-1, keepdims=True)
                np.exp(lp, out=lp)
                lp *= row_sums
                np.subtract(gb, lp, out=lp)
            z[m:] = 0  # rows that predict nothing, as narrow's backward fills them
            return z

        w = np.swapaxes(wt, -1, -2)
        dh = np.empty(x.shape, np.result_type(dtype, w))
        if x.ndim > 2:
            dwt = _ItemGrad(wt.shape, x.shape, np.result_type(x, dtype))
            for i in items:
                z = item_grad(i)
                np.matmul(z, w, out=dh[i])
                dwt.put(i, np.swapaxes(x[i], -1, -2) @ z)
                del z  # before the next item's logits
            return dh, dwt.out, None
        z = item_grad(Ellipsis)
        np.matmul(z, w, out=dh)
        return dh, np.swapaxes(x, -1, -2) @ z, None if b is None else z.sum(axis=0)

    parents = (h, table_t) if bias is None else (h, table_t, bias)
    return _make(data, parents, backward)


LN_EPS = 1e-6  # layer norm's variance floor


def _ln_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm's row statistics over the last axis, keepdims: the mean
    mu and inv_std = 1/sqrt(var + LN_EPS); and xhat = (x − mu) · inv_std."""
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    var = (xhat**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LN_EPS)
    xhat *= inv_std
    return mu, inv_std, xhat


def _ln_xhat(x: np.ndarray, mu: np.ndarray, inv_std: np.ndarray) -> np.ndarray:
    """xhat again from x and its row statistics, with `_ln_stats`'s two
    elementwise steps, so its bits."""
    xhat = x - mu
    xhat *= inv_std
    return xhat


def _ln_affine(xhat: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """gamma · xhat + beta, in one buffer."""
    out = gamma * xhat
    out += beta
    return out


def _layer_norm_backward(
    g: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray, gamma: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm's gradients (x, gamma, beta) from its output's gradient g:
    x's is inv_std · (gx − mean(gx) − xhat · mean(gx · xhat)) with
    gx = g · gamma, worked out in two buffers, each step with the operands
    of that expression, so its bits. gamma's and beta's are reduced over
    every row at once."""
    h = g.shape[-1]
    t = np.multiply(g, xhat)
    dgamma = t.reshape(-1, h).sum(axis=0)
    dbeta = g.reshape(-1, h).sum(axis=0)
    gx = np.multiply(g, gamma)
    mean_gx = gx.mean(axis=-1, keepdims=True)
    np.multiply(gx, xhat, out=t)
    mean_gx_xhat = t.mean(axis=-1, keepdims=True)
    np.multiply(xhat, mean_gx_xhat, out=t)
    gx -= mean_gx
    gx -= t
    gx *= inv_std
    return gx, dgamma, dbeta


@op
def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then affine."""
    h = a.shape[-1]
    if gamma.shape != (h,) or beta.shape != (h,):
        raise ShapeMismatch(
            f"layer_norm: last axis {h} vs gamma {gamma.shape} / beta {beta.shape}"
        )
    _, inv_std, xhat = _ln_stats(a.data)
    scale = gamma.data
    data = _ln_affine(xhat, scale, beta.data)
    return _make(data, (a, gamma, beta), lambda g: _layer_norm_backward(g, xhat, inv_std, scale))


def _items(shape: tuple[int, ...]) -> tuple[Sequence, tuple[int, ...]]:
    """The items an op over `shape` runs one at a time, and their shape:
    each index of the leading axis, or below rank 3 the whole array
    (Ellipsis), where an item of a matrix would be a row and its products
    matrix-vector ones."""
    if len(shape) > 2:
        return range(shape[0]), shape[1:]
    return (Ellipsis,), shape


def _at(x: np.ndarray | None, i, ndim: int) -> np.ndarray | None:
    """x's part in item i of an op over rank-`ndim` arrays: x[i], or x[0]
    or all of x where x broadcasts along the leading axis (None for None)."""
    if x is None or i is Ellipsis or x.ndim < ndim:
        return x
    return x[0] if x.shape[0] == 1 else x[i]


def _keep_mask(rng: np.random.Generator | None, shape, p: float, dtype) -> tuple[np.ndarray, np.floating]:
    """Inverted-dropout draw: where to keep (uniform >= p, both in float32,
    whatever `dtype` is), drawn one item of `_items(shape)` at a time and
    held as packed bits, one row of ceil(n/8) bytes per item of n entries;
    and the factor 1/(1-p) in `dtype` that kept entries are scaled by.
    Item by item, the draws take the generator's stream exactly as one
    whole `rng.random(shape, dtype=np.float32)` would (see `_keep_bits`)."""
    if rng is None:
        raise ConfigError("dropout in train mode needs an rng")
    bits = rng.bit_generator
    if "has_uint32" not in bits.state:
        raise ConfigError(f"dropout needs a generator that splits 64-bit outputs, not {type(bits).__name__}")
    # A float32 uniform is (u >> 8) * 2**-24 for the next uint32 u, so it is
    # >= float32(p) exactly when u >= ceil(float32(p) * 2**24) << 8.
    threshold = math.ceil(float(np.float32(p)) * 2**24) << 8
    items, item_shape = _items(tuple(shape))
    count = math.prod(item_shape)
    keep = np.empty((len(items), (count + 7) // 8), np.uint8)
    for row in range(len(items)):
        keep[row] = np.packbits(_keep_bits(bits, count, threshold))
    return keep, np.dtype(dtype).type(1.0 / (1.0 - p))


def _keep_bits(bits: np.random.BitGenerator, n: int, threshold: int) -> np.ndarray:
    """n bools u >= threshold, for the n uint32s u that n float32 uniforms
    would take from `bits`, read from its raw 64-bit outputs. Like its
    float32 path, a generator with `has_uint32` in its state (Philox, PCG64,
    SFC64) cuts each 64-bit output into two uint32s, low half first, and
    keeps the high half pending: a pending half is taken first, and the
    state is left as n float32 draws leave it, `uinteger` included."""
    state = bits.state
    pending = int(state["has_uint32"] and n > 0)
    rest = n - pending
    raw = bits.random_raw((rest + 1) // 2).astype("<u8", copy=False).view("<u4")
    keep = np.empty(n, bool)
    if pending:
        keep[0] = state["uinteger"] >= threshold
    np.greater_equal(raw[:rest], threshold, out=keep[pending:])
    if raw.size or pending:
        state = bits.state
        state["has_uint32"] = rest % 2
        if raw.size:
            state["uinteger"] = int(raw[-1])
        bits.state = state
    return keep


def _dropped(x: np.ndarray, bits: np.ndarray, count: int, factor, out: np.ndarray | None = None) -> np.ndarray:
    """(x * keep) * factor, where keep is `bits` unpacked: x's packed keep
    mask, either all of it or the one row of an item x, in rows of `count`
    entries. These are the bits of x * (keep * factor), since a kept entry
    is multiplied by 1 first. `out` may be x itself."""
    keep = np.unpackbits(bits, axis=-1, count=count).view(bool).reshape(x.shape)
    out = np.multiply(x, keep, out=out)
    out *= factor
    return out


def _check_dropout_p(p: float) -> None:
    if not 0.0 <= p < 1.0:
        raise ConfigError(f"dropout p must be in [0, 1), got {p}")


@op
def dropout(a: Tensor, p: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability p and scale by 1/(1-p)."""
    _check_dropout_p(p)
    if not train or p == 0.0:
        return _make(a.data, (a,), lambda g: (g,))
    keep, factor = _keep_mask(rng, a.shape, p, a.dtype)
    count = math.prod(_items(a.shape)[1])

    # Each call unpacks the whole mask, a bool per entry, and drops it on
    # return: dropout's inputs are never score-sized, and one call per item
    # costs more than the mask it saves.
    def dropped(x: np.ndarray) -> np.ndarray:
        return _dropped(x, keep, count, factor)

    return _make(dropped(a.data), (a,), lambda g: (dropped(g),))


NEG_INF = -1e9  # attention mask value; exp() underflows to exactly 0
SCORE_BLOCK = 1 << 18  # score entries per pass of heads in training: 1 MiB of float32


@op
def masked_fill(a: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where mask is True by a constant."""
    mask = np.asarray(mask, dtype=bool)
    try:
        data = np.where(mask, np.asarray(value, dtype=a.dtype), a.data)
    except ValueError as exc:
        raise ShapeMismatch(f"masked_fill: {a.shape} vs mask {mask.shape}") from exc
    shape = a.shape
    return _make(data, (a,), lambda g: (_unbroadcast(g * ~np.broadcast_to(mask, g.shape), shape),))


def _attention_masks(mask: np.ndarray | None, shape: tuple[int, ...]) -> tuple[np.ndarray | None, np.ndarray | None]:
    """An attention mask checked against the [..., Lq, Lk] scores' shape:
    the mask that fills scores (None if it masks nothing) and the mask that
    backward applies to their gradient (None unless a query row is masked
    whole)."""
    if mask is None:
        return None, None
    mask = np.asarray(mask, dtype=bool)
    try:
        np.broadcast_to(mask, shape)
    except ValueError as exc:
        raise ShapeMismatch(f"attention_block: scores {shape} vs mask {mask.shape}") from exc
    # Unless a query row is masked whole, its masked probabilities come out
    # of the softmax as exactly 0, so their score gradients are already ±0
    # and the backward mask pass would change no bits.
    whole_row = np.atleast_1d(mask).all(axis=-1).any()
    return (mask if mask.any() else None), (mask if whole_row else None)


def _probs(q: np.ndarray, kt: np.ndarray, scale: np.ndarray, fill: np.ndarray | None) -> np.ndarray:
    """softmax(q kt · scale, NEG_INF where fill is True) over the last
    axis: scale, fill and softmax in place on one score buffer."""
    probs = q @ kt
    probs *= scale
    if fill is not None:
        np.copyto(probs, np.asarray(NEG_INF, dtype=probs.dtype), where=fill)
    return _softmax_forward(probs, -1, out=probs)


def _attention_grads(g, probs, q, k, v, keep, count, factor, mask, scale):
    """One item's attention gradients (q, kᵀ, v) from its output's
    gradient g and its recomputed probabilities, which it leaves dropped,
    as the forward multiplied v by them. keep is the item's packed keep
    bits (None without dropout) and mask the backward mask's part."""
    gs = g @ np.swapaxes(v, -1, -2)
    if keep is not None:
        _dropped(gs, keep, count, factor, out=gs)
    _softmax_backward_into(gs, probs)
    if keep is not None:
        _dropped(probs, keep, count, factor, out=probs)
    gv = np.swapaxes(probs, -1, -2) @ g
    if mask is not None:
        gs *= ~mask
    gs *= scale
    return gs @ k, np.swapaxes(q, -1, -2) @ gs, gv


def _heads(y: np.ndarray, n_heads: int) -> np.ndarray:
    """[..., n, d] as [..., h, n, d/h] heads, the view reshape → permute
    make of it."""
    return np.swapaxes(y.reshape(y.shape[:-1] + (n_heads, y.shape[-1] // n_heads)), -2, -3)


def _merged(c: np.ndarray) -> np.ndarray:
    """[..., h, n, dk] heads as [..., n, h·dk], the copy permute → reshape
    make of them."""
    c = np.swapaxes(c, -2, -3)
    return c.reshape(c.shape[:-2] + (c.shape[-2] * c.shape[-1],))


def _linear(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b, in one buffer: the bits of matmul then add."""
    y = x @ w
    y += b
    return y


@op
def attention_block(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    wq: Tensor,
    bq: Tensor,
    wk: Tensor | None,
    bk: Tensor | None,
    wv: Tensor | None,
    bv: Tensor | None,
    wo: Tensor,
    bo: Tensor,
    mask: np.ndarray | None,
    n_heads: int,
    p: float,
    train: bool,
    rng: np.random.Generator | None = None,
    k: Tensor | None = None,
    v: Tensor | None = None,
) -> Tensor:
    """A pre-layer-norm attention sublayer as one op, over a [B, L, d] x:
    x + dropout(attention(q, k, v) wo + bo), where
    n = ln(x) = layer_norm(x, gamma, beta), q is n wq + bq split into n_heads
    heads, and attention(q, k, v) = dropout(softmax(q kᵀ / sqrt(d/h),
    NEG_INF where mask is True)) v, the mask broadcasting against the
    [B, h, Lq, Lk] scores. Keys and values are n wk + bk and n wv + bv
    split into heads, or, with wk, bk, wv and bv None, the operands k and v
    in heads layout [B or 1, h, Lk, d/h] (cross-attention, and cached keys
    and values when decoding). All weights are [d, d], all vectors [d].

    In training it runs one item at a time (`_items`), and backward holds
    only x, the parameters, k and v, the packed keep bits of both dropouts
    (drawn before the items, in the chain's order) and layer norm's per-row
    mean and 1/std: it recomputes each item's normed input, projections,
    probabilities and context with the forward's own calls. That is
    activation checkpointing (Chen et al. 2016) at the sublayer's scale, as
    FlashAttention recomputes the probabilities (Dao et al. 2022), so no
    score-sized array and no [B, L, d] array but x lives from forward to
    backward. Within an item, the scores are taken in passes of
    max(1, SCORE_BLOCK // (Lq·Lk)) heads, each written into the item's
    context (and in backward its q, kᵀ and v gradients), so no [h, Lq, Lk]
    array is made when one head's scores fill the block. At inference (no
    graph recorded) it runs the whole array at once. numpy's stacked matmul
    makes one product per matrix, and softmax and layer norm reduce each
    row alone, so the recomputed arrays are the forward's and a pass's are
    the whole item's. The weights' gradients, and k's and v's where they
    broadcast over the items, are summed over items in order, as matmul
    sums a shared weight's; gamma's, beta's and the biases' are reduced
    from whole arrays, as layer_norm and add reduce them; ln(x)'s gradient
    adds q's, k's and v's parts in the order the backward sweep adds them;
    and k's gradient keeps the layout of kᵀ's, whose strides downstream
    products read. So values and gradients are bitwise those of the composed
    layer_norm → matmul → add → reshape → permute → matmul → mul →
    masked_fill → softmax → dropout → matmul → permute → reshape → matmul →
    add → dropout → add chain, less the backward mask passes that cannot
    change a bit (`_attention_masks`).
    """
    _check_dropout_p(p)
    given = k is not None
    if (v is not None) != given or any((t is None) != given for t in (wk, bk, wv, bv)):
        raise ShapeMismatch("attention_block: keys and values come from wk, bk, wv and bv or from k and v")
    params = (gamma, beta, wq, bq) + ((k, v) if given else (wk, bk, wv, bv)) + (wo, bo)
    xa = x.data
    ga, ba, wqa, bqa, woa, boa = (t.data for t in (gamma, beta, wq, bq, wo, bo))
    ka, va = (k.data, v.data) if given else (None, None)
    wka, bka, wva, bva = (None,) * 4 if given else (t.data for t in (wk, bk, wv, bv))
    d = xa.shape[-1]
    if (
        xa.ndim != 3 or n_heads < 1 or d % n_heads
        or any(t.shape != (d, d) for t in (wq, wo) + (() if given else (wk, wv)))
        or any(t.shape != (d,) for t in (gamma, beta, bq, bo) + (() if given else (bk, bv)))
        or given and (
            ka.shape != va.shape or ka.ndim != 4 or (ka.shape[1], ka.shape[3]) != (n_heads, d // n_heads)
            or ka.shape[0] not in (xa.shape[0], 1)
        )
    ):
        raise ShapeMismatch(
            f"attention_block: x {xa.shape}, {n_heads} heads, "
            f"parameters {[t.shape for t in params]}"
        )
    parents = (x,) + params
    length = xa.shape[1]
    lk = ka.shape[2] if given else length
    scores = (xa.shape[0], n_heads, length, lk)
    fill, mask = _attention_masks(mask, scores)
    ndim = len(scores)
    dtype = np.result_type(xa, *(t.data for t in params))
    scale = np.asarray(1.0 / np.sqrt(d // n_heads), dtype=dtype)
    keep = keep_out = factor = None
    if train and p > 0.0:
        # The scores' bits are drawn as [B·h, Lq, Lk], one packed row per
        # (item, head), so that a pass takes its heads' rows.
        keep, factor = _keep_mask(rng, (scores[0] * n_heads,) + scores[2:], p, dtype)
        keep = keep.reshape(scores[:2] + keep.shape[-1:])
        keep_out, _ = _keep_mask(rng, xa.shape, p, dtype)
    count, count_out = length * lk, length * d
    per_pass = max(1, SCORE_BLOCK // max(count, 1))
    items, _ = _items(xa.shape)

    def project(i, normed: np.ndarray) -> tuple[np.ndarray, ...]:
        """Item i's q, k and v heads, and a buffer for its context."""
        if given:
            kh, vh = _at(ka, i, ndim), _at(va, i, ndim)
        else:
            kh = _heads(_linear(normed, wka, bka), n_heads)
            vh = _heads(_linear(normed, wva, bva), n_heads)
        qh = _heads(_linear(normed, wqa, bqa), n_heads)
        return qh, kh, vh, np.empty(qh.shape, np.result_type(qh, kh, vh))

    def passes(i, qh: np.ndarray, kh: np.ndarray) -> Iterator[tuple]:
        """Item i's passes of at most per_pass heads (with i Ellipsis, one
        pass over the whole batch): the pass's index into the heads axis,
        its keep bits and its probabilities, not yet dropped. A pass keeps
        the heads axis even for one head: its products stay stacked ones,
        and `_softmax_backward_into` walks its heads, not its rows."""
        fill_i = _at(fill, i, ndim)
        heads = (Ellipsis,) if i is Ellipsis else (
            slice(j, min(j + per_pass, n_heads)) for j in range(0, n_heads, per_pass))
        for s in heads:
            bits = None if keep is None else keep[i, s]
            yield s, bits, _probs(qh[s], np.swapaxes(kh[s], -1, -2), scale, _at(fill_i, s, ndim - 1))

    mu, inv_std = (np.empty(xa.shape[:-1] + (1,), xa.dtype) for _ in range(2))
    data = np.empty(xa.shape, dtype)
    for i in items if keep is not None or _records(parents) else (Ellipsis,):
        mu[i], inv_std[i], xhat = _ln_stats(xa[i])
        qh, kh, vh, ctx = project(i, _ln_affine(xhat, ga, ba))
        for s, bits, probs in passes(i, qh, kh):
            if bits is not None:
                _dropped(probs, bits, count, factor, out=probs)
            np.matmul(probs, vh[s], out=ctx[s])
            del probs  # before the next pass's
        y = _linear(_merged(ctx), woa, boa)
        del xhat, qh, kh, vh, ctx  # before the next item's
        if keep_out is not None:
            _dropped(y, keep_out[i], count_out, factor, out=y)
        np.add(xa[i], y, out=data[i])

    def backward(g):
        # The output dropout's gradient, whole for bo's sum, then again
        # item by item.
        gbo = _unbroadcast(g if keep_out is None else _dropped(g, keep_out, count_out, factor), boa.shape)
        gwq, gwk, gwv, gwo = (_ItemGrad((d, d), xa.shape, dtype) for _ in range(4))
        # q's, kᵀ's and v's gradients in heads layout: q's whole for bq's
        # sum; k's and v's are the operands' own, or whole for bk's and
        # bv's sums. They are merged as the chain's permute → reshape
        # merged them, into a copy or a strided view, whose layout the
        # products and the biases' sums read.
        hd = d // n_heads
        kv_shape = ka.shape if given else (xa.shape[0], n_heads, length, hd)
        gq = np.empty((xa.shape[0], n_heads, length, hd), dtype)
        gkt = _ItemGrad(kv_shape[:-2] + (hd, lk), scores, dtype)
        gv = _ItemGrad(kv_shape, scores, dtype)
        gn = np.empty(xa.shape, dtype)  # ln(x)'s
        wqt, wot = np.swapaxes(wqa, -1, -2), np.swapaxes(woa, -1, -2)
        for i in items:
            normed = _ln_affine(_ln_xhat(xa[i], mu[i], inv_std[i]), ga, ba)
            qh, kh, vh, ctx = project(i, normed)
            gy = g[i] if keep_out is None else _dropped(g[i], keep_out[i], count_out, factor)
            gh, mask_i = _heads(gy @ wot, n_heads), _at(mask, i, ndim)
            dq, dkt, dv = gq[i], np.empty((n_heads, hd, lk), dtype), np.empty((n_heads, lk, hd), dtype)
            for s, bits, probs in passes(i, qh, kh):
                dq[s], dkt[s], dv[s] = _attention_grads(
                    gh[s], probs, qh[s], kh[s], vh[s], bits, count, factor, _at(mask_i, s, ndim - 1), scale,
                )
                np.matmul(probs, vh[s], out=ctx[s])  # probs were left dropped
                del probs  # before the next pass's
            gwo.put(i, np.swapaxes(_merged(ctx), -1, -2) @ gy)
            del qh, kh, vh, ctx, gy, gh
            gkt.put(i, dkt)
            gv.put(i, dv)
            dq = _merged(dq)
            gwq.put(i, np.swapaxes(normed, -1, -2) @ dq)
            # ln(x)'s gradient: q's part, then k's, then v's, in the order
            # the backward sweep adds them.
            part = dq @ wqt
            if not given:
                dk, dv = _merged(np.swapaxes(dkt, -1, -2)), _merged(dv)
                gwk.put(i, np.swapaxes(normed, -1, -2) @ dk)
                gwv.put(i, np.swapaxes(normed, -1, -2) @ dv)
                part += dk @ np.swapaxes(wka, -1, -2)
                part += dv @ np.swapaxes(wva, -1, -2)
                del dk
            gn[i] = part
            del normed, part, dq, dkt, dv
        gbq = _unbroadcast(_merged(gq), (d,))
        gk = np.swapaxes(gkt.out, -1, -2)
        if given:
            kv_grads = (gk, gv.out)
        else:
            kv_grads = (gwk.out, _unbroadcast(_merged(gk), (d,)), gwv.out, _unbroadcast(_merged(gv.out), (d,)))
        del gq, gkt, gk, gv
        gx, ggamma, gbeta = _layer_norm_backward(gn, _ln_xhat(xa, mu, inv_std), inv_std, ga)
        gx += g
        return (gx, ggamma, gbeta, gwq.out, gbq) + kv_grads + (gwo.out, gbo)

    return _make(data, parents, backward)


@op
def ff_block(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    p: float,
    train: bool,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """A pre-layer-norm feed-forward sublayer as one op, over a [B, n, d]
    x: x + dropout(gelu(ln(x) w1 + b1) w2 + b2), where
    ln(x) = layer_norm(x, gamma, beta), w1 is [d, f], b1 [f], w2 [f, d] and
    gamma, beta and b2 [d].

    As in `attention_block`, training runs one item at a time, and backward
    holds only x, the parameters, the packed keep bits and layer norm's
    per-row mean and 1/std: it recomputes each item's normed input, gelu
    input, tanh and gelu output with the forward's own calls, so no
    [B, n, f] array and no [B, n, d] array but x lives from forward to
    backward. The weights' gradients are summed over items in order, b1's
    is reduced from the whole gelu-input gradient, as add reduces it, and
    gamma's, beta's and b2's from whole arrays too. So values and gradients
    are bitwise those of the composed layer_norm → matmul → add → gelu →
    matmul → add → dropout → add chain.
    """
    _check_dropout_p(p)
    params = (gamma, beta, w1, b1, w2, b2)
    xa = x.data
    ga, ba, w1a, b1a, w2a, b2a = (t.data for t in params)
    d = xa.shape[-1]
    if (
        xa.ndim != 3 or ga.shape != (d,) or ba.shape != (d,) or b2a.shape != (d,)
        or w1a.ndim != 2 or w1a.shape[0] != d or b1a.shape != w1a.shape[1:] or w2a.shape != (w1a.shape[1], d)
    ):
        raise ShapeMismatch(f"ff_block: x {xa.shape}, parameters {[t.shape for t in params]}")
    parents = (x,) + params
    dtype = np.result_type(xa, *(t.data for t in params))
    keep = factor = None
    if train and p > 0.0:
        keep, factor = _keep_mask(rng, xa.shape, p, dtype)
    items, item_shape = _items(xa.shape)
    count = math.prod(item_shape)

    def hidden(normed: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The gelu input u of a normed input, its tanh t and gelu(u)."""
        u = _linear(normed, w1a, b1a)
        y, t = _gelu_forward(u)
        return u, t, y

    mu, inv_std = (np.empty(xa.shape[:-1] + (1,), xa.dtype) for _ in range(2))
    data = np.empty(xa.shape, dtype)
    for i in items if keep is not None or _records(parents) else (Ellipsis,):
        mu[i], inv_std[i], xhat = _ln_stats(xa[i])
        u, t, y = hidden(_ln_affine(xhat, ga, ba))
        y = _linear(y, w2a, b2a)
        del xhat, u, t  # before the next item's
        if keep is not None:
            _dropped(y, keep[i], count, factor, out=y)
        np.add(xa[i], y, out=data[i])

    def backward(g):
        gb2 = _unbroadcast(g if keep is None else _dropped(g, keep, count, factor), b2a.shape)
        gu, gn = np.empty(xa.shape[:-1] + w1a.shape[1:], dtype), np.empty(xa.shape, dtype)
        gw1, gw2 = (_ItemGrad(w.shape, xa.shape, dtype) for w in (w1a, w2a))
        w1t, w2t = np.swapaxes(w1a, -1, -2), np.swapaxes(w2a, -1, -2)
        for i in items:
            normed = _ln_affine(_ln_xhat(xa[i], mu[i], inv_std[i]), ga, ba)
            u, t, y = hidden(normed)
            gy = g[i] if keep is None else _dropped(g[i], keep[i], count, factor)
            gw2.put(i, np.swapaxes(y, -1, -2) @ gy)
            gu[i] = _gelu_backward(gy @ w2t, u, t)
            del u, t, y, gy  # before the next item's
            np.matmul(gu[i], w1t, out=gn[i])
            gw1.put(i, np.swapaxes(normed, -1, -2) @ gu[i])
            del normed
        gb1 = _unbroadcast(gu, b1a.shape)
        del gu
        gx, ggamma, gbeta = _layer_norm_backward(gn, _ln_xhat(xa, mu, inv_std), inv_std, ga)
        gx += g
        return gx, ggamma, gbeta, gw1.out, gb1, gw2.out, gb2

    return _make(data, parents, backward)


class _ItemGrad:
    """The gradient of an op's operand of `shape`, filled one item of
    `_items(like)` (or one matrix of a `like` array) at a time. An operand
    that broadcasts along the leading axes has its items' gradients added
    in order onto zeros, which is what numpy's sum over those axes does,
    bit for bit."""

    __slots__ = ("out", "shared", "ndim")

    def __init__(self, shape: tuple[int, ...], like: tuple[int, ...], dtype):
        self.ndim = len(like)
        self.shared = self.ndim > 2 and (len(shape) < self.ndim or shape[0] == 1 != like[0])
        self.out = (np.zeros if self.shared else np.empty)(shape, dtype)

    def put(self, i, value: np.ndarray) -> None:
        part = _at(self.out, i, self.ndim)
        value = _unbroadcast(value, part.shape)
        if self.shared:
            part += value
        else:
            part[...] = value


# --- indexing ---

class _Rows:
    """`embedding_lookup`'s gradient of its table of `shape`: zero but at
    the unique row ids `ids`, which hold `rows`, each the sum of its
    lookups' gradient rows in occurrence order onto zeros, as `np.add.at`
    into a zero table sums them. `backward` holds a vertex's row parts and
    adds them into one table (`_settle`)."""

    __slots__ = ("ids", "rows", "shape")

    def __init__(self, ids: np.ndarray, rows: np.ndarray, shape: tuple[int, ...]):
        self.ids, self.rows, self.shape = ids, rows, shape


@op
def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup by integer ids in `[0, rows)`; its gradient is the rows
    it touched (`_Rows`), which `backward` adds into the table."""
    ids = np.asarray(ids)
    n = table.shape[0]
    if ids.dtype.kind not in "iu" or (ids.size and (ids.min() < 0 or ids.max() >= n)):
        raise IdOutOfRange(f"embedding ids must be integers in [0, {n}), the table's rows")

    shape, dtype = table.shape, table.dtype

    def backward(g):
        unique, inverse = np.unique(ids, return_inverse=True)
        rows = np.zeros((unique.size, shape[-1]), dtype)
        np.add.at(rows, inverse.reshape(-1), g.reshape(-1, shape[-1]))
        return (_Rows(unique, rows, shape),)

    return _make(table.data[ids], (table,), backward)


@op
def take_along_last(a: Tensor, indices: np.ndarray) -> Tensor:
    """out[...] = a[..., indices[...]]; inverse scatter on the way back."""
    indices = np.asarray(indices)
    data = np.take_along_axis(a.data, indices[..., None], axis=-1)[..., 0]
    shape, dtype = a.shape, a.dtype

    def backward(g):
        out = np.zeros(shape, dtype)
        np.put_along_axis(out, indices[..., None], g[..., None], axis=-1)
        return (out,)

    return _make(data, (a,), backward)


# --- reverse sweep ---

def _consumed(g):
    """Closure of a vertex whose graph a backward has consumed; the sweep
    refuses such a vertex before it could run this."""
    raise ValueError("graph already consumed by an earlier backward")


def _settle(vertex, parts: list[_Rows], made: set[int]) -> None:
    """Add held row parts, in arrival order, into the vertex's gradient: a
    zero table if it has none, else the gradient plus 0, in place if the
    sweep made it. Each row adds the values that a zero table scattered
    with its part would hold there. The `+ 0` gives what adding such a
    table's untouched rows gives (-0.0 becomes +0.0), and sums onto +0 never
    make a -0.0, so the rows that no part touches need no add."""
    shape, dtype = parts[0].shape, parts[0].rows.dtype
    grad = vertex.grad
    if grad is None:
        grad = np.zeros(shape, dtype)
    elif id(vertex) in made and np.result_type(grad, dtype) == grad.dtype:
        grad += 0
    else:
        grad = grad + dtype.type(0)
    for part in parts:
        grad[part.ids] += part.rows
    vertex.grad = grad
    made.add(id(vertex))


def backward(loss: Tensor) -> None:
    """Populate .grad for every requires_grad leaf reachable from loss.

    The sweep walks graph vertices: leaves and op outputs' `_Node`s. The
    graph is consumed: afterwards its inner vertices hold no gradient or
    parents, so a graph can be differentiated once. A later backward that
    reaches a consumed vertex, from the same loss or from another loss built
    on part of the graph, raises ValueError before any gradient is written.

    Closures may work in place under one rule: a closure writes only into
    arrays it allocated and has not returned, never into its incoming
    gradient or an array it saved in forward, since gradients may alias
    each other and the saved arrays. The sweep keeps the rule too: it adds
    a dense part in place only into a gradient it made (a sum or a table of
    settled row parts, see `_settle`), which no closure has seen.
    """
    if loss.data.size != 1:
        raise NotScalar(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad; nothing to differentiate")
    root = _vertex(loss)

    # Iterative DFS; GRAY marks the current path so a cycle is detectable.
    WHITE, GRAY, BLACK = 0, 1, 2
    state: dict[int, int] = {}
    topo: list[Tensor | _Node] = []
    stack: list[tuple[Tensor | _Node, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            state[id(node)] = BLACK
            topo.append(node)
            continue
        mark = state.get(id(node), WHITE)
        if mark == BLACK:
            continue
        if mark == GRAY:
            raise GraphCycle("differentiation graph contains a cycle")
        if node._backward is _consumed:
            raise ValueError("graph already consumed by an earlier backward")
        state[id(node)] = GRAY
        stack.append((node, True))
        for parent in node._parents:
            if parent is None:
                continue
            mark = state.get(id(parent), WHITE)
            if mark == WHITE:
                stack.append((parent, False))
            elif mark == GRAY:
                raise GraphCycle("differentiation graph contains a cycle")

    # Consume the graph as it is differentiated: once a vertex's closure has
    # run, drop its gradient and parents and swap its closure for
    # _consumed, so whatever only the tape held is freed before the sweep
    # reaches older vertices. Leaves keep their .grad. Under `op_hook` each
    # closure runs through the hook, named by the op whose body defines it.
    hook = _op_hook.get()
    # Row parts by vertex id, in arrival order, settled when a dense part
    # arrives or the sweep reaches the vertex.
    held: dict[int, list[_Rows]] = {}
    made: set[int] = set()  # ids of vertices whose gradient the sweep made
    root.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if id(node) in held:
            _settle(node, held.pop(id(node)), made)
        if node._backward is None:
            continue
        if node.grad is not None:
            if hook is None:
                grads = node._backward(node.grad)
            else:
                name = node._backward.__qualname__.split(".", 1)[0]
                grads = hook(name, "backward", node._backward, node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or parent is None:
                    continue
                if type(g) is _Rows:
                    held.setdefault(id(parent), []).append(g)
                    continue
                if id(parent) in held:
                    _settle(parent, held.pop(id(parent)), made)
                if parent.grad is None:
                    parent.grad = g.astype(parent.dtype, copy=False)
                elif (
                    id(parent) in made and g.shape == parent.grad.shape
                    and np.result_type(parent.grad, g) == parent.grad.dtype
                ):
                    parent.grad += g
                else:
                    parent.grad = parent.grad + g
                    made.add(id(parent))
        node.grad = None
        node._backward = _consumed
        node._parents = ()
