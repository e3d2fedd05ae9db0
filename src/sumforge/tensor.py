"""Dense tensors with reverse-mode automatic differentiation.

Just enough ops for a transformer encoder/decoder: broadcasting arithmetic,
batched matmul, softmax/layer-norm/gelu, embedding and gather ops, dropout,
and a finite-difference oracle to check all of it. Data lives in numpy
arrays; float32 is the training dtype, float64 the verification dtype.
"""

from __future__ import annotations

import contextlib
import contextvars
import hashlib
import math
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import GraphCycle, InvalidAxis, NotScalar, ShapeMismatch


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
    """N-dimensional float array, optionally tracked by the autodiff graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], tuple] | None = None

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

    # Operator sugar; the real implementations are module-level functions.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(_as_tensor(other, self.dtype)))

    def __rsub__(self, other):
        return add(_as_tensor(other, self.dtype), neg(self))

    def __matmul__(self, other):
        return matmul(self, other)

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


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn) -> Tensor:
    out = Tensor(data)
    out.requires_grad = _grad_enabled.get() and any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._backward = backward_fn
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

def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    try:
        data = a.data + b.data
    except ValueError as exc:
        raise ShapeMismatch(f"add: {a.shape} vs {b.shape}") from exc
    return _make(data, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a.dtype)
    try:
        data = a.data * b.data
    except ValueError as exc:
        raise ShapeMismatch(f"mul: {a.shape} vs {b.shape}") from exc
    return _make(
        data,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def neg(a: Tensor) -> Tensor:
    return _make(-a.data, (a,), lambda g: (-g,))


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

    def backward(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return _make(data, (a, b), backward)


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes."""
    if a.data.ndim < 2:
        raise ShapeMismatch(f"transpose needs rank >= 2, got {a.shape}")
    return _make(np.swapaxes(a.data, -1, -2), (a,), lambda g: (np.swapaxes(g, -1, -2),))


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise InvalidAxis(f"permute axes {axes} invalid for rank {a.data.ndim}")
    inverse = tuple(np.argsort(axes))
    return _make(a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    old = a.shape
    return _make(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    sizes = [t.shape[axis] for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)

    def backward(g):
        return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=axis))

    return _make(data, tuple(tensors), backward)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice `length` entries from `start` along one axis."""
    if not -a.data.ndim <= axis < a.data.ndim:
        raise InvalidAxis(f"axis {axis} invalid for rank {a.data.ndim}")
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def backward(g):
        out = np.zeros_like(a.data)
        out[index] = g
        return (out,)

    return _make(a.data[index], (a,), backward)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _make(data, (a,), backward)


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.shape[axis]
    return mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


# --- nonlinearities ---

def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _make(np.where(mask, a.data, 0), (a,), lambda g: (g * mask,))


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(a: Tensor) -> Tensor:
    """Tanh-approximation gelu, the variant most transformer stacks use."""
    x = a.data
    inner = _GELU_C * (x + _GELU_A * x**3)
    t = np.tanh(inner)
    data = 0.5 * x * (1.0 + t)

    def backward(g):
        d_inner = _GELU_C * (1.0 + 3.0 * _GELU_A * x**2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * d_inner),)

    return _make(data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    # Branch on sign so exp never overflows.
    x = a.data
    s = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    return _make(s, (a,), lambda g: (g * s * (1.0 - s),))


def exp(a: Tensor) -> Tensor:
    data = np.exp(a.data)
    return _make(data, (a,), lambda g: (g * data,))


def log(a: Tensor) -> Tensor:
    return _make(np.log(a.data), (a,), lambda g: (g / a.data,))


def clip(a: Tensor, lo: float, hi: float) -> Tensor:
    """Clamp values; gradient passes only where no clamping happened."""
    mask = (a.data >= lo) & (a.data <= hi)
    return _make(np.clip(a.data, lo, hi), (a,), lambda g: (g * mask,))


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


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """exp(x - max) normalized along axis; max subtraction guards overflow."""
    axis = _check_axis(a, axis)
    out = _softmax_forward(a.data, axis)
    return _make(out, (a,), lambda g: (_softmax_backward(g, out, axis),))


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    axis = _check_axis(a, axis)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def backward(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

    return _make(out, (a,), backward)


def layer_norm(a: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to mean 0 / variance 1, then affine."""
    h = a.shape[-1]
    if gamma.shape != (h,) or beta.shape != (h,):
        raise ShapeMismatch(
            f"layer_norm: last axis {h} vs gamma {gamma.shape} / beta {beta.shape}"
        )
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered**2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    data = gamma.data * xhat + beta.data

    def backward(g):
        dgamma = (g * xhat).reshape(-1, h).sum(axis=0)
        dbeta = g.reshape(-1, h).sum(axis=0)
        gx = g * gamma.data
        dx = inv_std * (
            gx
            - gx.mean(axis=-1, keepdims=True)
            - xhat * (gx * xhat).mean(axis=-1, keepdims=True)
        )
        return dx, dgamma, dbeta

    return _make(data, (a, gamma, beta), backward)


def _keep_mask(rng: np.random.Generator | None, shape, p: float, dtype) -> tuple[np.ndarray, np.floating]:
    """Inverted-dropout draw: where to keep (uniform >= p, drawn in float64)
    and the factor 1/(1-p) in `dtype` that kept entries are scaled by."""
    if rng is None:
        raise ValueError("dropout in train mode needs an rng")
    return rng.random(shape) >= p, np.dtype(dtype).type(1.0 / (1.0 - p))


def _check_dropout_p(p: float) -> None:
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout p must be in [0, 1), got {p}")


def dropout(a: Tensor, p: float, train: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability p and scale by 1/(1-p)."""
    _check_dropout_p(p)
    if not train or p == 0.0:
        return _make(a.data, (a,), lambda g: (g,))
    keep, factor = _keep_mask(rng, a.shape, p, a.dtype)
    keep = keep * factor
    return _make(a.data * keep, (a,), lambda g: (g * keep,))


NEG_INF = -1e9  # attention mask value; exp() underflows to exactly 0


def masked_fill(a: Tensor, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where mask is True by a constant."""
    mask = np.asarray(mask, dtype=bool)
    try:
        data = np.where(mask, np.asarray(value, dtype=a.dtype), a.data)
    except ValueError as exc:
        raise ShapeMismatch(f"masked_fill: {a.shape} vs mask {mask.shape}") from exc
    return _make(data, (a,), lambda g: (_unbroadcast(g * ~np.broadcast_to(mask, g.shape), a.shape),))


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: np.ndarray | None,
    p: float,
    train: bool,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Scaled dot-product attention softmax(q kᵀ / sqrt(dk), masked) @ v as
    one op, over [..., Lq, dk] queries and [..., Lk, dk] keys and values.

    mask broadcasts against the [..., Lq, Lk] scores and is True where a
    query may not look at a key (filled with NEG_INF). Scale, mask, softmax
    and dropout run in place on one score buffer; only the probabilities
    and the boolean keep mask are kept for backward, which recomputes the
    dropped probabilities. Forward and backward make the same numpy calls,
    in the same order, as matmul/mul/masked_fill/softmax/dropout/matmul, so
    values and gradients are bitwise those of that composed chain.
    """
    _check_dropout_p(p)
    kt = np.swapaxes(k.data, -1, -2)
    try:
        probs = q.data @ kt
    except ValueError as exc:
        raise ShapeMismatch(f"attention: q {q.shape} vs k {k.shape}") from exc
    scale = np.asarray(1.0 / np.sqrt(k.shape[-1]), dtype=probs.dtype)
    probs *= scale
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        try:
            np.copyto(probs, np.asarray(NEG_INF, dtype=probs.dtype), where=mask)
        except ValueError as exc:
            raise ShapeMismatch(f"attention: scores {probs.shape} vs mask {mask.shape}") from exc
    _softmax_forward(probs, -1, out=probs)
    keep = None
    if train and p > 0.0:
        keep, factor = _keep_mask(rng, probs.shape, p, probs.dtype)

    def dropped() -> np.ndarray:
        if keep is None:
            return probs
        out = probs * keep
        out *= factor
        return out

    try:
        data = dropped() @ v.data
    except ValueError as exc:
        raise ShapeMismatch(f"attention: scores {probs.shape} vs v {v.shape}") from exc

    def backward(g):
        gv = _unbroadcast(np.swapaxes(dropped(), -1, -2) @ g, v.shape)
        gs = _unbroadcast(g @ np.swapaxes(v.data, -1, -2), probs.shape)
        if keep is not None:
            gs *= keep
            gs *= factor
        gs = _softmax_backward(gs, probs, -1)
        if mask is not None:
            gs *= ~mask
        gs *= scale
        gq = _unbroadcast(gs @ k.data, q.shape)
        gk = np.swapaxes(_unbroadcast(np.swapaxes(q.data, -1, -2) @ gs, kt.shape), -1, -2)
        return gq, gk, gv

    return _make(data, (q, k, v), backward)


# --- indexing ---

def embedding_lookup(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup with scatter-add gradient back into the table."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeMismatch(
            f"embedding ids out of range for table of {table.shape[0]} rows"
        )

    def backward(g):
        dtable = np.zeros_like(table.data)
        np.add.at(dtable, ids.reshape(-1), g.reshape(-1, table.shape[-1]))
        return (dtable,)

    return _make(table.data[ids], (table,), backward)


def gather_positions(a: Tensor, positions: np.ndarray) -> Tensor:
    """Pick rows along axis 1: out[b, s, :] = a[b, positions[b, s], :]."""
    positions = np.asarray(positions)
    batch = np.arange(a.shape[0])[:, None]

    def backward(g):
        out = np.zeros_like(a.data)
        np.add.at(out, (batch, positions), g)
        return (out,)

    return _make(a.data[batch, positions], (a,), backward)


def take_along_last(a: Tensor, indices: np.ndarray) -> Tensor:
    """out[...] = a[..., indices[...]]; inverse scatter on the way back."""
    indices = np.asarray(indices)
    data = np.take_along_axis(a.data, indices[..., None], axis=-1)[..., 0]

    def backward(g):
        out = np.zeros_like(a.data)
        np.put_along_axis(out, indices[..., None], g[..., None], axis=-1)
        return (out,)

    return _make(data, (a,), backward)


# --- reverse sweep ---

def _consumed(g):
    """Closure of a node whose graph a backward has consumed; the sweep
    refuses such a node before it could run this."""
    raise ValueError("graph already consumed by an earlier backward")


def backward(loss: Tensor) -> None:
    """Populate .grad for every requires_grad leaf reachable from loss.

    The graph is consumed: afterwards its inner nodes hold no gradient or
    parents, so a graph can be differentiated once. A later backward that
    reaches a consumed node, from the same loss or from another loss built
    on part of the graph, raises ValueError before any gradient is written.
    """
    if loss.data.size != 1:
        raise NotScalar(f"backward needs a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise ValueError("loss does not require grad; nothing to differentiate")

    # Iterative DFS; GRAY marks the current path so a cycle is detectable.
    WHITE, GRAY, BLACK = 0, 1, 2
    state: dict[int, int] = {}
    topo: list[Tensor] = []
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
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
            if parent.requires_grad and state.get(id(parent), WHITE) == WHITE:
                stack.append((parent, False))
            elif state.get(id(parent)) == GRAY:
                raise GraphCycle("differentiation graph contains a cycle")

    # Consume the graph as it is differentiated: once a node's closure has
    # run, drop its gradient and parents and swap its closure for
    # _consumed, so whatever only the tape held is freed before the sweep
    # reaches older nodes. Leaves keep their .grad. Gradients may alias
    # each other, so closures never write into their incoming g or into an
    # array they have returned.
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        if node._backward is None:
            continue
        if node.grad is not None:
            grads = node._backward(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    parent.grad = g.astype(parent.dtype, copy=False)
                else:
                    parent.grad = parent.grad + g
        node.grad = None
        node._backward = _consumed
        node._parents = ()


def finite_diff_check(
    f: Callable[[list[Tensor]], Tensor],
    params: list[Tensor],
    eps: float = 1e-5,
) -> float:
    """Central-difference check of analytic gradients, in 64-bit floats.

    Returns the max relative error over every coordinate of every parameter,
    with max(1, |analytic|) in the denominator.
    """
    for p in params:
        if p.dtype != np.float64:
            raise ValueError("finite_diff_check requires float64 parameters")
        p.grad = None
    backward(f(params))
    analytic = [
        p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params
    ]

    worst = 0.0
    for p, an in zip(params, analytic):
        flat = p.data.reshape(-1)
        an_flat = an.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f(params).data)
            flat[i] = orig - eps
            f_minus = float(f(params).data)
            flat[i] = orig
            fd = (f_plus - f_minus) / (2.0 * eps)
            rel = abs(fd - an_flat[i]) / max(1.0, abs(an_flat[i]))
            worst = max(worst, rel)
    return worst
