"""Training loops for the extractive and abstractive tasks.

The abstractive loop runs two Adam optimizers on a disjoint parameter
partition: encoder parameters get a low learning rate with a long warmup,
decoder parameters a high rate with a short one, so the randomly initialized
decoder can move fast without destabilizing an already-fitted encoder. A
masked-token reconstruction pre-fit stands in for large-scale pretraining at
desk scale.

Everything is deterministic given (seed, config, data): shuffles, dropout,
and masking draw from per-step children of one splittable RNG.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import tensor as T
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
    save_checkpoint,
)
from .tensor import SplitRng, Tensor
from .tokenization import TokenizedExample


@dataclass(frozen=True)
class TrainConfig:
    max_steps: int
    batch_size: int = 8
    base_lr_encoder: float = 2e-3
    base_lr_decoder: float = 0.1
    warmup_encoder: int | None = None
    warmup_decoder: int | None = None
    grad_clip_norm: float = 1.0
    label_smoothing: float = 0.1
    seed: int = 0
    eval_every: int = 0
    checkpoint_dir: Path | None = None

    def __post_init__(self) -> None:
        if self.max_steps < 0:
            raise ConfigError(f"max_steps must be >= 0, got {self.max_steps}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.base_lr_encoder <= 0 or self.base_lr_decoder <= 0:
            raise ConfigError("learning rates must be > 0")
        if self.grad_clip_norm <= 0:
            raise ConfigError("grad_clip_norm must be > 0")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ConfigError(
                f"label_smoothing must be in [0, 1), got {self.label_smoothing}"
            )
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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss", "lr_encoder", "lr_decoder"])
        for row in rows:
            writer.writerow([row.step, f"{row.loss:.8f}", row.lr_encoder, row.lr_decoder])


# --- optimizer ---

class AdamState:
    """First/second moment accumulators for one parameter set."""

    def __init__(
        self,
        params: dict[str, Tensor],
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}


def adam_step(
    params: dict[str, Tensor],
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
) -> tuple[dict[str, Tensor], AdamState]:
    """One bias-corrected adaptive-moment update, in place."""
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != p.shape:
            raise ShapeMismatch(f"gradient {name}: {g.shape} vs param {p.shape}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + state.eps)).astype(p.dtype)
    return params, state


def lr_schedule(step: int, base_lr: float, warmup: int) -> float:
    """base_lr * min(step^-0.5, step * warmup^-1.5); peaks at step == warmup."""
    if step < 1:
        raise ValueError(f"lr_schedule needs step >= 1, got {step}")
    return base_lr * min(step**-0.5, step * warmup**-1.5)


def clip_gradients(
    grads: dict[str, np.ndarray], max_norm: float
) -> dict[str, np.ndarray]:
    """Scale all gradients so their joint L2 norm is at most max_norm.

    Raises NonFiniteLoss if that norm is NaN or infinite."""
    if max_norm <= 0:
        raise ValueError(f"max_norm must be > 0, got {max_norm}")
    total = 0.0
    for g in grads.values():
        total += float((g.astype(np.float64) ** 2).sum())
    norm = total**0.5
    if not math.isfinite(norm):
        raise NonFiniteLoss(f"gradient norm is {norm}")
    if norm <= max_norm:
        return grads
    scale = max_norm / norm
    return {name: g * scale for name, g in grads.items()}


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


def _pad_2d(rows: Sequence[Sequence[int]], pad_value: int) -> np.ndarray:
    width = max(len(r) for r in rows)
    out = np.full((len(rows), width), pad_value, dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out


def make_ext_batch(examples: Sequence[TokenizedExample], pad_id: int) -> ExtBatch:
    src = _pad_2d([e.src_ids for e in examples], pad_id)
    segs = _pad_2d([e.segment_ids for e in examples], 0)
    pad_mask = np.zeros(src.shape, dtype=bool)
    for i, e in enumerate(examples):
        pad_mask[i, len(e.src_ids):] = True
    clss = _pad_2d([e.cls_positions for e in examples], 0)
    labels = np.zeros(clss.shape, dtype=np.float32)
    sent_mask = np.zeros(clss.shape, dtype=np.float32)
    for i, e in enumerate(examples):
        labels[i, : len(e.ext_labels)] = e.ext_labels
        sent_mask[i, : len(e.cls_positions)] = 1.0
    return ExtBatch(src, segs, pad_mask, clss, labels, sent_mask)


def make_abs_batch(examples: Sequence[TokenizedExample], pad_id: int) -> AbsBatch:
    src = _pad_2d([e.src_ids for e in examples], pad_id)
    segs = _pad_2d([e.segment_ids for e in examples], 0)
    pad_mask = np.zeros(src.shape, dtype=bool)
    for i, e in enumerate(examples):
        pad_mask[i, len(e.src_ids):] = True
    tgt = _pad_2d([e.tgt_ids for e in examples], pad_id)
    tgt_pad_mask = np.zeros(tgt.shape, dtype=bool)
    for i, e in enumerate(examples):
        tgt_pad_mask[i, len(e.tgt_ids):] = True
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


# --- training loops ---

def _zero_grads(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


def _collect_grads(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {
        name: (p.grad if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }


def _clipped_gradients(
    loss: Tensor, params: dict[str, Tensor], max_norm: float, step: int
) -> dict[str, np.ndarray]:
    """Backward pass of one step and its clipped gradients. A non-finite
    loss or gradient norm raises NonFiniteLoss here, before any optimizer
    touches the parameters."""
    value = loss.item()
    if not math.isfinite(value):
        raise NonFiniteLoss(f"step {step}: loss is {value}")
    _zero_grads(params)
    T.backward(loss)
    return clip_gradients(_collect_grads(params), max_norm)


def _save(model, config: TrainConfig, tag: str) -> None:
    if config.checkpoint_dir is None:
        return
    out = Path(config.checkpoint_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / f"{model.kind}_{tag}.ckpt")


def train_ext(
    examples: Sequence[TokenizedExample],
    model: ExtractiveModel,
    config: TrainConfig,
    pad_id: int,
) -> list[TraceRow]:
    """Single-optimizer loop over the full parameter set, encoder schedule."""
    if not examples:
        raise EmptyCorpus("no training examples")
    if model.kind != "ext":
        raise ConfigError(f"train_ext needs an extractive model, got {model.kind!r}")

    params = model.parameters()
    state = AdamState(params)
    warmup, _ = config.resolved_warmups()
    rng = SplitRng(config.seed)
    order = batch_order(len(examples), config.batch_size, config.seed)
    trace: list[TraceRow] = []

    for step in range(1, config.max_steps + 1):
        batch = make_ext_batch([examples[i] for i in next(order)], pad_id)
        drop_rng = rng.child("dropout", step).generator()
        scores = model.forward_scores(
            batch.src, batch.segs, batch.pad_mask, batch.clss, train=True, rng=drop_rng
        )
        loss = ext_loss(scores, batch.labels, batch.sent_mask)
        grads = _clipped_gradients(loss, params, config.grad_clip_norm, step)
        lr = lr_schedule(step, config.base_lr_encoder, warmup)
        adam_step(params, grads, state, lr)
        model.step = step
        trace.append(TraceRow(step, loss.item(), lr, lr))
        if config.eval_every and step % config.eval_every == 0:
            _save(model, config, f"step{step:06d}")
    _save(model, config, "final")
    return trace


def train_abs(
    examples: Sequence[TokenizedExample],
    model: AbstractiveModel,
    config: TrainConfig,
    pad_id: int,
) -> list[TraceRow]:
    """Dual-optimizer loop: encoder and decoder schedules run side by side."""
    if not examples:
        raise EmptyCorpus("no training examples")
    if model.kind != "abs":
        raise ConfigError(f"train_abs needs an abstractive model, got {model.kind!r}")

    params = model.parameters()
    enc_params = {k: v for k, v in params.items() if k.startswith("encoder.")}
    dec_params = {k: v for k, v in params.items() if not k.startswith("encoder.")}
    # The two optimizers must cover every parameter exactly once.
    assert not (enc_params.keys() & dec_params.keys())
    assert enc_params.keys() | dec_params.keys() == params.keys()
    enc_state = AdamState(enc_params)
    dec_state = AdamState(dec_params)
    warmup_enc, warmup_dec = config.resolved_warmups()
    rng = SplitRng(config.seed)
    order = batch_order(len(examples), config.batch_size, config.seed)
    trace: list[TraceRow] = []

    for step in range(1, config.max_steps + 1):
        batch = make_abs_batch([examples[i] for i in next(order)], pad_id)
        drop_rng = rng.child("dropout", step).generator()
        logits = model.forward_logits(
            batch.src, batch.segs, batch.pad_mask, batch.tgt, train=True, rng=drop_rng
        )
        loss = abs_loss(logits, batch.tgt, batch.tgt_pad_mask, config.label_smoothing)
        grads = _clipped_gradients(loss, params, config.grad_clip_norm, step)
        lr_enc = lr_schedule(step, config.base_lr_encoder, warmup_enc)
        lr_dec = lr_schedule(step, config.base_lr_decoder, warmup_dec)
        adam_step(enc_params, {k: grads[k] for k in enc_params}, enc_state, lr_enc)
        adam_step(dec_params, {k: grads[k] for k in dec_params}, dec_state, lr_dec)
        model.step = step
        trace.append(TraceRow(step, loss.item(), lr_enc, lr_dec))
        if config.eval_every and step % config.eval_every == 0:
            _save(model, config, f"step{step:06d}")
    _save(model, config, "final")
    return trace


def prefit_encoder(
    examples: Sequence[TokenizedExample],
    encoder: Encoder,
    config: TrainConfig,
    mask_prob: float = 0.15,
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
    if not examples:
        raise EmptyCorpus("no pre-fit examples")
    if mask_prob <= 0.0:
        raise NoMaskedPositions(f"mask_prob {mask_prob} would mask nothing")
    if mask_prob >= 1.0:
        raise ConfigError(f"mask_prob must be in (0, 1), got {mask_prob}")

    params = {f"encoder.{k}": v for k, v in encoder.params.items()}
    recon_bias = Tensor(
        np.zeros(encoder.config.vocab_size, dtype=encoder.params["tok_emb"].dtype),
        requires_grad=True,
    )
    params["recon.b"] = recon_bias
    state = AdamState(params)
    warmup, _ = config.resolved_warmups()
    rng = SplitRng(config.seed)
    order = batch_order(len(examples), config.batch_size, config.seed)
    special = np.array(sorted(special_ids), dtype=np.int64)
    trace: list[TraceRow] = []

    for step in range(1, config.max_steps + 1):
        batch = make_ext_batch([examples[i] for i in next(order)], pad_id)
        gen = rng.child("mask", step).generator()
        eligible = ~batch.pad_mask & ~np.isin(batch.src, special)
        chosen = (gen.random(batch.src.shape) < mask_prob) & eligible
        if not chosen.any():
            if not eligible.any():
                raise NoMaskedPositions("batch contains no maskable tokens")
            first = np.argwhere(eligible)[0]
            chosen[first[0], first[1]] = True

        masked_src = np.where(chosen, mask_id, batch.src)
        drop_rng = rng.child("dropout", step).generator()
        hidden = encoder.encode(
            masked_src, batch.segs, batch.pad_mask, train=True, rng=drop_rng
        )
        logits = T.matmul(hidden, T.transpose(encoder.params["tok_emb"])) + recon_bias
        lp = T.log_softmax(logits, axis=-1)
        nll = T.neg(T.take_along_last(lp, batch.src))
        weights = chosen.astype(nll.dtype)
        loss = T.tensor_sum(T.mul(nll, weights)) / float(weights.sum())

        grads = _clipped_gradients(loss, params, config.grad_clip_norm, step)
        lr = lr_schedule(step, config.base_lr_encoder, warmup)
        adam_step(params, grads, state, lr)
        encoder.step = step
        trace.append(TraceRow(step, loss.item(), lr, lr))
    _save(encoder, config, "final")
    return trace


@T.no_grad()
def teacher_forced_accuracy(
    model: AbstractiveModel,
    examples: Sequence[TokenizedExample],
    pad_id: int,
    batch_size: int = 8,
) -> float:
    """Fraction of non-pad target tokens predicted by argmax of the logits."""
    hits = 0
    total = 0
    for lo in range(0, len(examples), batch_size):
        batch = make_abs_batch(examples[lo : lo + batch_size], pad_id)
        logits = model.forward_logits(
            batch.src, batch.segs, batch.pad_mask, batch.tgt, train=False
        )
        pred = logits.data[:, :-1, :].argmax(axis=-1)
        gold = batch.tgt[:, 1:]
        real = ~batch.tgt_pad_mask[:, 1:]
        hits += int((pred[real] == gold[real]).sum())
        total += int(real.sum())
    return hits / total if total else 0.0
