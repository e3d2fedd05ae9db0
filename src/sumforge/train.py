"""Training for the extractive and abstractive tasks and the encoder pre-fit.

One loop, `fit`, serves all three; each task supplies only its batch ->
forward -> loss step and its optimizer groups. The abstractive task runs two
Adam optimizers on a disjoint parameter partition: encoder parameters get a
low learning rate with a long warmup, decoder parameters a high rate with a
short one, so the randomly initialized decoder can move fast without
destabilizing an already-fitted encoder. A masked-token reconstruction
pre-fit stands in for large-scale pretraining at desk scale.

Everything is deterministic given (seed, config, data): shuffles, dropout,
and masking draw from per-step children of one splittable RNG.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import tensor as T
from .atomic import atomic_write
from .errors import (
    ConfigError,
    EmptyCorpus,
    NoMaskedPositions,
    NonFiniteLoss,
    ShapeMismatch,
)
from .model import (
    AbstractiveModel,
    Encoder,
    ExtractiveModel,
    abs_loss,
    ext_loss,
    gather_rows,
    save_checkpoint,
)
from .tensor import SplitRng, Tensor
from .tokenization import TokenizedExample


@dataclass(frozen=True)
class TrainConfig:
    max_steps: int = 500
    batch_size: int = 8
    base_lr_encoder: float = 2e-3
    base_lr_decoder: float = 0.1
    warmup_encoder: int | None = None
    warmup_decoder: int | None = None
    grad_clip_norm: float = 1.0
    label_smoothing: float = 0.1
    mask_prob: float = 0.15
    seed: int = 0
    checkpoint_every: int = 0
    checkpoint_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.max_steps < 0:
            raise ConfigError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        # Written so that NaN fails every range check and inf every bounded one.
        for name in ("base_lr_encoder", "base_lr_decoder", "grad_clip_norm"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {value}")
        if self.checkpoint_every < 0:
            raise ConfigError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError(
                f"label_smoothing must be in [0, 1), got {self.label_smoothing}"
            )
        if self.mask_prob <= 0.0:
            raise NoMaskedPositions(f"mask_prob {self.mask_prob} would mask nothing")
        if not self.mask_prob < 1.0:  # NaN fails this too
            raise ConfigError(f"mask_prob must be in (0, 1), got {self.mask_prob}")
        for w in (self.warmup_encoder, self.warmup_decoder):
            if w is not None and w < 1:
                raise ConfigError(f"warmups must be >= 1, got {w}")

    def resolved_warmups(self) -> tuple[int, int]:
        """Unset warmups default to 20% (encoder) / 10% (decoder) of max_steps."""
        enc = self.warmup_encoder or max(1, self.max_steps // 5)
        dec = self.warmup_decoder or max(1, self.max_steps // 10)
        return enc, dec


@dataclass
class TraceRow:
    step: int
    loss: float
    lr_encoder: float
    lr_decoder: float


def write_trace(rows: Sequence[TraceRow], path: Path | str) -> None:
    with atomic_write(path, newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss", "lr_encoder", "lr_decoder"])
        for row in rows:
            writer.writerow([row.step, f"{row.loss:.8f}", row.lr_encoder, row.lr_decoder])


# --- optimizer ---

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Elements per part of the clip norm's and Adam's passes over a parameter,
# so their scratch arrays stay a part's size (at least numpy's pairwise
# summation block of 128, see `_square_sum`).
CHUNK = 1 << 16


def _row_chunks(shape: tuple[int, ...]) -> list:
    """Slices of axis 0 that cut an array of `shape` into parts of whole
    rows, at most CHUNK elements each unless one row is larger (Ellipsis,
    the whole array, for a scalar)."""
    if not shape:
        return [Ellipsis]
    rows = max(1, CHUNK // max(1, math.prod(shape[1:])))
    return [slice(lo, lo + rows) for lo in range(0, shape[0], rows)]


class AdamState:
    """First/second moment accumulators for one parameter set."""

    def __init__(self, params: dict[str, Tensor]):
        self.step = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> None:
    """One bias-corrected adaptive-moment update, in place.

    Each parameter is updated in row chunks (`_row_chunks`), each in two
    scratch arrays the chunk's size, with the ufuncs of
    p -= lr * m̂ / (sqrt(v̂) + eps) in the same order and each in the dtype
    that expression computes in. Every step is elementwise, so the bits are
    those of the expression over the whole parameter."""
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, param in params.items():
        grad = grads.get(name)
        if grad is None:
            continue
        if grad.shape != param.shape:
            raise ShapeMismatch(f"gradient {name}: {grad.shape} vs param {param.shape}")
        for part in _row_chunks(param.shape):
            p, g, m, v = param.data[part], grad[part], state.m[name][part], state.v[name][part]
            s = (1.0 - b1) * g
            m *= b1
            m += s
            np.multiply(1.0 - b2, g, out=s)
            s *= g
            v *= b2
            v += s
            d = v / (1.0 - b2**t)
            np.sqrt(d, out=d)
            d += ADAM_EPS
            if s.dtype != m.dtype:
                s = np.empty_like(m)
            np.divide(m, 1.0 - b1**t, out=s)
            s *= lr
            s /= d
            p -= s.astype(p.dtype, copy=False)


def lr_schedule(step: int, base_lr: float, warmup: int) -> float:
    """base_lr * min(step^-0.5, step * warmup^-1.5); peaks at step == warmup."""
    if step < 1:
        raise ConfigError(f"lr_schedule needs step >= 1, got {step}")
    return base_lr * min(step**-0.5, step * warmup**-1.5)


def _square_sum(a: np.ndarray, chunk: int = CHUNK) -> np.float64:
    """The sum of squares of a's float64 cast, bit for bit the whole cast's
    `.sum()`, without the whole cast. The cast walks a in memory order
    (order="K", the layout `astype` gives it) and numpy sums it along a
    pairwise tree: a part of n > 128 elements is split at n/2 rounded down
    to a multiple of 8, and the halves' sums are added. This follows that
    tree down to parts of at most `chunk` (>= 128) elements, each cast,
    squared in place and summed alone."""
    def part_sum(part: np.ndarray) -> np.float64:
        n = part.size
        if n <= chunk:
            square = part.astype(np.float64)
            square *= square
            return square.sum()
        half = n // 2
        half -= half % 8
        return part_sum(part[:half]) + part_sum(part[half:])

    return part_sum(np.ravel(a, order="K"))


def clip_gradients(
    grads: dict[str, np.ndarray], max_norm: float
) -> dict[str, np.ndarray]:
    """Scale all gradients so their joint L2 norm is at most max_norm, in
    place, and return `grads`. Each gradient's float64 square sum is taken
    in chunks (`_square_sum`), with the bits of the whole cast's. A gradient
    that shares memory with a later one (backward may hand two leaves one
    array) is replaced by a scaled copy instead, so no buffer is scaled
    twice.

    Raises NonFiniteLoss if that norm is NaN or infinite."""
    if max_norm <= 0:
        raise ConfigError(f"max_norm must be > 0, got {max_norm}")
    total = 0.0
    for g in grads.values():
        total += float(_square_sum(g))
    norm = total**0.5
    if not math.isfinite(norm):
        raise NonFiniteLoss(f"gradient norm is {norm}")
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    arrays = list(grads.values())
    for k, (name, g) in enumerate(list(grads.items())):
        if any(np.shares_memory(g, later) for later in arrays[k + 1:]):
            grads[name] = g * scale
        else:
            g *= scale
    return grads


# --- batching ---

@dataclass
class ExtBatch:
    src: np.ndarray
    segs: np.ndarray
    pad_mask: np.ndarray  # [B, L] bool, True at pad
    clss: np.ndarray
    labels: np.ndarray
    sent_mask: np.ndarray  # [B, S] float, 1 at real sentences


@dataclass
class AbsBatch:
    src: np.ndarray
    segs: np.ndarray
    pad_mask: np.ndarray
    tgt: np.ndarray
    tgt_pad_mask: np.ndarray  # [B, T] bool, True at pad


def _pad(rows: Sequence[Sequence[int]], pad_value: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows padded with pad_value to the longest, and the mask that is True
    at the padding."""
    lengths = np.array([len(r) for r in rows])
    out = np.full((len(rows), lengths.max()), pad_value, dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out, np.arange(out.shape[1]) >= lengths[:, None]


def make_ext_batch(examples: Sequence[TokenizedExample], pad_id: int) -> ExtBatch:
    src, pad_mask = _pad([e.src_ids for e in examples], pad_id)
    segs, _ = _pad([e.segment_ids for e in examples], 0)
    clss, no_sentence = _pad([e.cls_positions for e in examples], 0)
    labels = np.zeros(clss.shape, dtype=np.float32)
    for i, e in enumerate(examples):
        labels[i, : len(e.ext_labels)] = e.ext_labels
    return ExtBatch(src, segs, pad_mask, clss, labels, (~no_sentence).astype(np.float32))


def make_abs_batch(examples: Sequence[TokenizedExample], pad_id: int) -> AbsBatch:
    src, pad_mask = _pad([e.src_ids for e in examples], pad_id)
    segs, _ = _pad([e.segment_ids for e in examples], 0)
    tgt, tgt_pad_mask = _pad([e.tgt_ids for e in examples], pad_id)
    return AbsBatch(src, segs, pad_mask, tgt, tgt_pad_mask)


def batch_order(n: int, batch_size: int, seed: int) -> Iterator[np.ndarray]:
    """Endless index batches, reshuffled each epoch from a seeded stream."""
    rng = SplitRng(seed)
    epoch = 0
    while True:
        perm = rng.child("shuffle", epoch).generator().permutation(n)
        for lo in range(0, n, batch_size):
            yield perm[lo : lo + batch_size]
        epoch += 1


# --- the training loop ---

def _save(model: Encoder, config: TrainConfig, tag: str) -> None:
    if config.checkpoint_dir is None:
        return
    out = Path(config.checkpoint_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / f"{model.kind}_{tag}.ckpt")


def fit(
    model: Encoder,
    params: dict[str, Tensor],
    examples: Sequence[TokenizedExample],
    loss_fn: Callable[[list[TokenizedExample], int, np.random.Generator], Tensor],
    groups: Sequence[tuple[str, float, int]],
    config: TrainConfig,
) -> list[TraceRow]:
    """The training loop every task shares.

    Each step hands loss_fn the step's examples, the step number and the
    step's dropout generator, then backpropagates its loss into `params`
    and clips the joint gradient. A non-finite loss or gradient norm raises
    NonFiniteLoss there, before any optimizer touches the parameters. Each
    (name prefix, base lr, warmup) group then gets its own Adam update; the
    groups must cover every parameter exactly once. The trace reports the
    first group's rate as lr_encoder and the last one's as lr_decoder.
    `model` is checkpointed every `checkpoint_every` steps and at the end.
    No gradient outlives its step: the step takes each `.grad` off `params`
    before clipping and drops them, clipped copies included, once the
    updates are done.
    """
    if not examples:
        raise EmptyCorpus("no training examples")
    members = [
        {k: p for k, p in params.items() if k.startswith(prefix)} for prefix, _, _ in groups
    ]
    if sorted(k for m in members for k in m) != sorted(params):
        raise ConfigError("optimizer groups must cover every parameter exactly once")
    states = [AdamState(m) for m in members]
    rng = SplitRng(config.seed)
    order = batch_order(len(examples), config.batch_size, config.seed)
    trace: list[TraceRow] = []
    for p in params.values():
        p.grad = None

    for step in range(1, config.max_steps + 1):
        batch = [examples[i] for i in next(order)]
        loss = loss_fn(batch, step, rng.child("dropout", step).generator())
        value = loss.item()
        if not math.isfinite(value):
            raise NonFiniteLoss(f"step {step}: loss is {value}")
        T.backward(loss)
        grads = {
            k: p.grad if p.grad is not None else np.zeros_like(p.data) for k, p in params.items()
        }
        for p in params.values():
            p.grad = None  # `grads` holds them now
        grads = clip_gradients(grads, config.grad_clip_norm)
        lrs = [lr_schedule(step, base_lr, warmup) for _, base_lr, warmup in groups]
        for group, state, lr in zip(members, states, lrs):
            adam_step(group, {k: grads[k] for k in group}, state, lr)
        del grads  # before the next step's forward
        model.step = step
        trace.append(TraceRow(step, value, lrs[0], lrs[-1]))
        if config.checkpoint_every and step % config.checkpoint_every == 0:
            _save(model, config, f"step{step:06d}")
    _save(model, config, "final")
    return trace


def train_ext(
    examples: Sequence[TokenizedExample],
    model: ExtractiveModel,
    config: TrainConfig,
    pad_id: int,
) -> list[TraceRow]:
    """Fine-tune an extractive model: one Adam state over every parameter, on
    the encoder schedule."""
    if model.kind != "ext":
        raise ConfigError(f"train_ext needs an extractive model, got {model.kind!r}")

    def loss_fn(batch_examples, step, drop_rng):
        batch = make_ext_batch(batch_examples, pad_id)
        logits = model.forward_scores(
            batch.src, batch.segs, batch.pad_mask, batch.clss, train=True, rng=drop_rng
        )
        return ext_loss(logits, batch.labels, batch.sent_mask)

    warmup, _ = config.resolved_warmups()
    groups = [("", config.base_lr_encoder, warmup)]
    return fit(model, model.params, examples, loss_fn, groups, config)


def train_abs(
    examples: Sequence[TokenizedExample],
    model: AbstractiveModel,
    config: TrainConfig,
    pad_id: int,
) -> list[TraceRow]:
    """Fine-tune an abstractive model: encoder and decoder parameters get
    their own Adam state and schedule, side by side."""
    if model.kind != "abs":
        raise ConfigError(f"train_abs needs an abstractive model, got {model.kind!r}")

    def loss_fn(batch_examples, step, drop_rng):
        batch = make_abs_batch(batch_examples, pad_id)
        hidden = model.encode(batch.src, batch.segs, batch.pad_mask, train=True, rng=drop_rng)
        states = model.decode_teacher_forced(hidden, batch.tgt, batch.pad_mask, train=True, rng=drop_rng)
        return abs_loss(
            states, model.params["encoder.tok_emb"], batch.tgt, batch.tgt_pad_mask, config.label_smoothing
        )

    warmup_enc, warmup_dec = config.resolved_warmups()
    groups = [
        ("encoder.", config.base_lr_encoder, warmup_enc),
        ("decoder.", config.base_lr_decoder, warmup_dec),
    ]
    return fit(model, model.params, examples, loss_fn, groups, config)


def masked_token_loss(
    hidden: Tensor,
    tok_emb: Tensor,
    bias: Tensor,
    targets: np.ndarray,
    chosen: np.ndarray,
) -> Tensor:
    """Mean NLL of the original tokens at the chosen positions under the tied
    reconstruction head softmax(h @ tok_embᵀ + bias).

    Only the M chosen rows of hidden [B, L, d] are gathered and projected
    ([M, d] @ [d, V]); the other positions never reach the vocabulary. The
    projection and the loss are one op, which keeps no logits for backward.
    """
    rows = np.flatnonzero(chosen)
    picked = gather_rows(hidden, rows)
    targets = np.asarray(targets).reshape(-1)[rows]
    loss = T.projected_cross_entropy(picked, T.permute(tok_emb, (1, 0)), bias, targets, np.ones(rows.size))
    return loss / float(rows.size)


def prefit_encoder(
    examples: Sequence[TokenizedExample],
    encoder: Encoder,
    config: TrainConfig,
    *,
    mask_id: int,
    pad_id: int,
    special_ids: frozenset[int] | set[int],
) -> list[TraceRow]:
    """Masked-token reconstruction warm-up for the encoder.

    Random non-special tokens are replaced by [MASK] and the encoder plus a
    tied reconstruction head (transposed token embeddings and a fresh bias)
    learn to restore them. The head is dropped from the saved checkpoint, so
    the result loads anywhere a built encoder does.
    """
    tok_emb = encoder.params["encoder.tok_emb"]
    recon_bias = Tensor(
        np.zeros(encoder.config.vocab_size, dtype=tok_emb.dtype), requires_grad=True
    )
    mask_rng = SplitRng(config.seed)
    special = np.array(sorted(special_ids), dtype=np.int64)

    def loss_fn(batch_examples, step, drop_rng):
        batch = make_ext_batch(batch_examples, pad_id)
        gen = mask_rng.child("mask", step).generator()
        eligible = ~batch.pad_mask & ~np.isin(batch.src, special)
        chosen = (gen.random(batch.src.shape) < config.mask_prob) & eligible
        if not chosen.any():
            if not eligible.any():
                raise NoMaskedPositions("batch contains no maskable tokens")
            first = np.argwhere(eligible)[0]
            chosen[first[0], first[1]] = True

        masked_src = np.where(chosen, mask_id, batch.src)
        hidden = encoder.encode(
            masked_src, batch.segs, batch.pad_mask, train=True, rng=drop_rng
        )
        return masked_token_loss(hidden, tok_emb, recon_bias, batch.src, chosen)

    warmup, _ = config.resolved_warmups()
    params = {**encoder.params, "recon.b": recon_bias}
    return fit(encoder, params, examples, loss_fn, [("", config.base_lr_encoder, warmup)], config)
