"""Transformer summarization models.

One encoder design serves four variants: an extractive model reads a logit
off every per-sentence [CLS] position; an abstractive model adds a
causally masked decoder with cross-attention whose output projection is tied
to the token embedding table. The "pretrained" variants differ only in where
their encoder weights come from, never in architecture, so the parameter
name sets of a pretrained model and its random baseline are identical.

Blocks use pre-layer-norm residuals, which train stably from scratch at
small scale.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import tensor as T
from .atomic import atomic_write
from .errors import (
    AllMasked,
    ConfigError,
    FormatVersionMismatch,
    IndexOutOfRange,
    ModelKindMismatch,
    PositionOverflow,
    ShapeMismatch,
)
from .tensor import SplitRng, Tensor

@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 128
    n_heads: int = 4
    d_ff: int = 256
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    max_positions: int = 512
    dropout: float = 0.1
    pretrained_encoder: bool = False

    def __post_init__(self) -> None:
        dims = [getattr(self, f.name) for f in fields(self) if f.type == "int"]
        if any(isinstance(d, bool) or not isinstance(d, int) or d < 1 for d in dims):
            raise ConfigError(f"all dimensions must be integers >= 1: {self}")
        if self.d_model % self.n_heads != 0:
            raise ConfigError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


# --- parameter layout ---

def _block_specs(prefix: str, d: int, f: int, sublayers: tuple[str, ...]) -> dict[str, tuple[int, ...]]:
    specs: dict[str, tuple[int, ...]] = {}
    for k, sub in enumerate(sublayers):
        specs[f"{prefix}.ln{k + 1}.gamma"] = (d,)
        specs[f"{prefix}.ln{k + 1}.beta"] = (d,)
        if sub == "ff":
            specs[f"{prefix}.ff.w1"] = (d, f)
            specs[f"{prefix}.ff.b1"] = (f,)
            specs[f"{prefix}.ff.w2"] = (f, d)
            specs[f"{prefix}.ff.b2"] = (d,)
        else:
            for name in ("wq", "wk", "wv", "wo"):
                specs[f"{prefix}.{sub}.{name}"] = (d, d)
            for name in ("bq", "bk", "bv", "bo"):
                specs[f"{prefix}.{sub}.{name}"] = (d,)
    return specs


def encoder_param_specs(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    d, f = config.d_model, config.d_ff
    specs: dict[str, tuple[int, ...]] = {
        "tok_emb": (config.vocab_size, d),
        "pos_emb": (config.max_positions, d),
        "seg_emb": (2, d),
    }
    for i in range(config.n_enc_layers):
        specs.update(_block_specs(f"layer{i}", d, f, ("attn", "ff")))
    specs["final_ln.gamma"] = (d,)
    specs["final_ln.beta"] = (d,)
    return specs


def decoder_param_specs(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    d, f = config.d_model, config.d_ff
    specs: dict[str, tuple[int, ...]] = {"pos_emb": (config.max_positions, d)}
    for i in range(config.n_dec_layers):
        specs.update(_block_specs(f"layer{i}", d, f, ("self_attn", "cross_attn", "ff")))
    specs["final_ln.gamma"] = (d,)
    specs["final_ln.beta"] = (d,)
    return specs


def ext_head_param_specs(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    return {"w": (config.d_model, 1), "b": (1,)}


def _init_array(name: str, shape: tuple[int, ...], rng: SplitRng, dtype) -> np.ndarray:
    """Truncated-normal (sigma 0.02, cut at 2 sigma) weights; zero biases/beta,
    unit gamma. `name` is the parameter's name within its part."""
    if name.endswith(".gamma"):
        return np.ones(shape, dtype=dtype)
    if name.endswith((".beta", ".b", ".b1", ".b2", ".bq", ".bk", ".bv", ".bo")) or name == "b":
        return np.zeros(shape, dtype=dtype)
    return _trunc_normal(shape, rng.child("init", name).generator(), 0.02, dtype)


INIT_CHUNK = 1 << 16  # most values `_trunc_normal` draws at once


def _trunc_normal(shape, gen: np.random.Generator, std: float, dtype) -> np.ndarray:
    """Normal(0, std) values in `dtype`, each beyond 2 std drawn again until
    none is. Every round draws for its indices in ascending order, in parts
    of at most `INIT_CHUNK` float64 values, so the stream and the values are
    those of one whole-array draw and its masked redraws, without a float64
    copy of the array."""
    out = np.empty(shape, dtype)
    flat = out.reshape(-1)
    redraw = [np.empty(0, np.intp)]
    for start in range(0, flat.size, INIT_CHUNK):
        draw = gen.normal(0.0, std, size=min(INIT_CHUNK, flat.size - start))
        flat[start:start + draw.size] = draw
        redraw.append(np.flatnonzero((draw > 2.0 * std) | (draw < -2.0 * std)) + start)
    todo = np.concatenate(redraw)
    while todo.size:
        redraw = [np.empty(0, np.intp)]
        for start in range(0, todo.size, INIT_CHUNK):
            at = todo[start:start + INIT_CHUNK]
            draw = gen.normal(0.0, std, size=at.size)
            flat[at] = draw
            redraw.append(at[(draw > 2.0 * std) | (draw < -2.0 * std)])
        todo = np.concatenate(redraw)
    return out


# --- forward pieces ---

def _heads(params: dict[str, Tensor], prefix: str, x: Tensor, w: str, bias: str, n_heads: int) -> Tensor:
    """Project [B, L, d] onto n_heads heads: [B, h, L, d / h]."""
    b, length, d = x.shape
    y = T.matmul(x, params[f"{prefix}.{w}"]) + params[f"{prefix}.{bias}"]
    return T.permute(T.reshape(y, (b, length, n_heads, d // n_heads)), (0, 2, 1, 3))


def _keys_values(params: dict[str, Tensor], prefix: str, x_kv: Tensor, n_heads: int) -> tuple[Tensor, Tensor]:
    return (
        _heads(params, prefix, x_kv, "wk", "bk", n_heads),
        _heads(params, prefix, x_kv, "wv", "bv", n_heads),
    )


def _attention_block(
    params: dict[str, Tensor],
    prefix: str,
    ln: str,
    sub: str,
    x: Tensor,
    mask: np.ndarray | None,
    config: ModelConfig,
    train: bool,
    rng,
    kv: tuple[Tensor, Tensor] | None = None,
) -> Tensor:
    """x + dropout(attention sublayer `sub` over layer norm `ln`(x)) as one
    op. Keys and values are projected from ln(x), or are kv, in heads
    layout [B or 1, h, Lk, d / h]; mask broadcasts against the
    [B, h, Lq, Lk] scores and is True where a query may not look at a key."""
    def param(name: str) -> Tensor:
        return params[f"{prefix}.{name}"]

    proj = (None,) * 4 if kv else tuple(param(f"{sub}.{name}") for name in ("wk", "bk", "wv", "bv"))
    k, v = kv or (None, None)
    return T.attention_block(
        x, param(f"{ln}.gamma"), param(f"{ln}.beta"), param(f"{sub}.wq"), param(f"{sub}.bq"), *proj,
        param(f"{sub}.wo"), param(f"{sub}.bo"), mask, config.n_heads, config.dropout, train, rng,
        k=k, v=v,
    )


def _ff_block(
    params: dict[str, Tensor], prefix: str, ln: str, x: Tensor, config: ModelConfig, train: bool, rng
) -> Tensor:
    """x + dropout(feed-forward(layer norm `ln`(x))): the sublayer as one op."""
    names = (f"{ln}.gamma", f"{ln}.beta", "ff.w1", "ff.b1", "ff.w2", "ff.b2")
    return T.ff_block(x, *(params[f"{prefix}.{name}"] for name in names), config.dropout, train, rng)


def _ln(params: dict[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    return T.layer_norm(x, params[f"{prefix}.gamma"], params[f"{prefix}.beta"])


def gather_rows(hidden: Tensor, rows: np.ndarray) -> Tensor:
    """Rows of hidden [B, L, d] at flat positions b·L + l, shaped as rows
    with d appended: one embedding lookup over hidden's [B·L, d] reshape,
    whose gradient scatters back into those rows."""
    b, length, d = hidden.shape
    return T.embedding_lookup(T.reshape(hidden, (b * length, d)), rows)


def flat_rows(rows: np.ndarray, batch: int, length: int) -> np.ndarray:
    """The flat positions b·L + rows[b, s] that `gather_rows` takes, of [B, S]
    integer positions into B sequences of length L. A position outside
    [0, L) raises IndexOutOfRange: it would read another sequence's row."""
    rows = np.asarray(rows)
    if rows.ndim != 2 or rows.shape[0] != batch or rows.dtype.kind not in "iu":
        raise ShapeMismatch(f"rows {rows.shape} {rows.dtype} for {batch} sequences")
    if rows.size and (rows.min() < 0 or rows.max() >= length):
        raise IndexOutOfRange(f"row position outside sequence of length {length}")
    return np.arange(batch)[:, None] * length + rows


def _decoder_layer(
    params: dict[str, Tensor],
    prefix: str,
    x: Tensor,
    self_kv: tuple[Tensor, Tensor] | None,
    cross_kv: tuple[Tensor, Tensor],
    self_mask: np.ndarray | None,
    cross_mask: np.ndarray,
    config: ModelConfig,
    train: bool,
    rng,
) -> Tensor:
    """One decoder block as three sublayer ops: self-attention (keys and
    values projected from its normed input, or self_kv), cross-attention
    over the projected encoder keys/values, feed-forward."""
    x = _attention_block(params, prefix, "ln1", "self_attn", x, self_mask, config, train, rng, self_kv)
    x = _attention_block(params, prefix, "ln2", "cross_attn", x, cross_mask, config, train, rng, cross_kv)
    return _ff_block(params, prefix, "ln3", x, config, train, rng)


class Encoder:
    """Token + learned position + interval segment embeddings, then
    pre-layer-norm transformer blocks and a final layer norm.

    The one model container. `params` holds every parameter under its part's
    name prefix (`encoder.*`, then `ext_head.*` or `decoder.*`); subclasses
    add parts and their forward methods, nothing else.
    """

    kind = "encoder"
    parts = {"encoder": encoder_param_specs}

    def __init__(
        self, config: ModelConfig, params: dict[str, Tensor], step: int = 0, seed: int = 0
    ):
        self.config = config
        self.params = params
        self.step = step
        self.seed = seed

    @classmethod
    def param_specs(cls, config: ModelConfig) -> dict[str, tuple[int, ...]]:
        """Full parameter names and shapes, part by part and sorted within a
        part: the order models are built and loaded in, which fixes the order
        gradient norms are summed in."""
        return {
            f"{part}.{name}": shape
            for part, part_specs in cls.parts.items()
            for name, shape in sorted(part_specs(config).items())
        }

    def encode(
        self,
        src_ids: np.ndarray,
        segment_ids: np.ndarray,
        pad_mask: np.ndarray,
        train: bool = False,
        rng: np.random.Generator | None = None,
        rows: np.ndarray | None = None,
    ) -> Tensor:
        """Hidden states [B, L, d_model]; pad_mask is True at padded positions.

        Each layer is two ops, `tensor.attention_block` then
        `tensor.ff_block`, in training and at inference; in training each
        keeps only its input, parameters, keep bits and layer norm's row
        statistics for backward. With `rows` ([B, S] positions, see
        `flat_rows`), which only inference may pass (no graph recorded), the
        last layer projects keys and values from every position's ln1(x),
        then its `attention_block` (given them as k and v), the feed-forward
        and the final norm run at the gathered rows only: [B, S, d_model].
        """
        src_ids = np.asarray(src_ids)
        segment_ids = np.asarray(segment_ids)
        pad_mask = np.asarray(pad_mask, dtype=bool)
        cfg = self.config
        b, length = src_ids.shape
        if length > cfg.max_positions:
            raise PositionOverflow(f"sequence length {length} > {cfg.max_positions}")
        flat = None if rows is None else flat_rows(rows, b, length)

        p = self.params
        x = T.embedding_lookup(p["encoder.tok_emb"], src_ids)
        x = x + T.embedding_lookup(p["encoder.pos_emb"], np.arange(length))
        x = x + T.embedding_lookup(p["encoder.seg_emb"], segment_ids)
        x = T.dropout(x, cfg.dropout, train, rng)
        if flat is not None and x.requires_grad:
            raise ShapeMismatch("encode: rows are for inference only, not while a graph is recorded")

        mask = pad_mask[:, None, None, :]
        for i in range(cfg.n_enc_layers):
            layer = f"encoder.layer{i}"
            kv = None
            if flat is not None and i == cfg.n_enc_layers - 1:
                kv = _keys_values(p, f"{layer}.attn", _ln(p, f"{layer}.ln1", x), cfg.n_heads)
                x = gather_rows(x, flat)
            x = _attention_block(p, layer, "ln1", "attn", x, mask, cfg, train, rng, kv)
            x = _ff_block(p, layer, "ln2", x, cfg, train, rng)
        return _ln(p, "encoder.final_ln", x)


class ExtractiveModel(Encoder):
    """Encoder plus a per-[CLS] logistic scoring head."""

    kind = "ext"
    parts = {"encoder": encoder_param_specs, "ext_head": ext_head_param_specs}

    def forward_scores(
        self,
        src_ids: np.ndarray,
        segment_ids: np.ndarray,
        pad_mask: np.ndarray,
        cls_positions: np.ndarray,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Sentence logits [B, S]: w . h[cls] + b; the sentence's probability
        is their sigmoid, which ranks sentences the same way.

        With no graph recorded (`tensor.no_grad`) and train False, the last
        encoder layer runs at the [CLS] rows only. Otherwise it runs at every
        row, so that training's dropout draws stay those of the whole layer
        and gradients flow through the gather.
        """
        flat = flat_rows(cls_positions, *np.shape(src_ids))
        if train or T.grad_enabled():
            hidden = self.encode(src_ids, segment_ids, pad_mask, train, rng)
            picked = gather_rows(hidden, flat)  # [B,S,d]
        else:
            picked = self.encode(src_ids, segment_ids, pad_mask, rows=cls_positions)
        logits = T.matmul(picked, self.params["ext_head.w"]) + self.params["ext_head.b"]
        return T.reshape(logits, flat.shape)


@dataclass
class DecoderCache:
    """Incremental decoding state of one document's beam: per decoder layer,
    cross-attention keys/values [1, h, L, dk] and the self-attention keys/values
    [n, h, t, dk] of the t positions decoded so far."""

    cross_kv: list[tuple[Tensor, Tensor]]
    cross_mask: np.ndarray
    self_kv: list[tuple[Tensor, Tensor]]

    @property
    def length(self) -> int:
        return self.self_kv[0][0].shape[2]


class AbstractiveModel(Encoder):
    """Encoder plus a causally masked decoder with cross-attention; the output
    projection is the transposed token embedding table."""

    kind = "abs"
    parts = {"encoder": encoder_param_specs, "decoder": decoder_param_specs}

    def _embed_targets(
        self, tgt_ids: np.ndarray, start: int, train: bool, rng
    ) -> Tensor:
        """Token + position embeddings of tgt_ids [B, T] placed at positions
        start, start + 1, ..."""
        cfg = self.config
        end = start + tgt_ids.shape[1]
        if end > cfg.max_positions:
            raise PositionOverflow(f"target length {end} > {cfg.max_positions}")
        x = T.embedding_lookup(self.params["encoder.tok_emb"], tgt_ids)
        x = x + T.embedding_lookup(self.params["decoder.pos_emb"], np.arange(start, end))
        return T.dropout(x, cfg.dropout, train, rng)

    def vocab_logits(self, states: Tensor) -> Tensor:
        """Next-token logits [..., vocab] of final-normed decoder states:
        the tied projection onto the token table."""
        return T.matmul(states, T.permute(self.params["encoder.tok_emb"], (1, 0)))

    def _project(self, x: Tensor) -> Tensor:
        return self.vocab_logits(_ln(self.params, "decoder.final_ln", x))

    def decode_teacher_forced(
        self,
        enc_hidden: Tensor,
        tgt_ids: np.ndarray,
        src_pad_mask: np.ndarray,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Final-normed decoder states [B, T, d_model] from gold prefixes;
        `vocab_logits` projects them to next-token logits."""
        tgt_ids = np.asarray(tgt_ids)
        cfg = self.config
        _, t = tgt_ids.shape
        x = self._embed_targets(tgt_ids, 0, train, rng)
        causal = np.triu(np.ones((t, t), dtype=bool), k=1)[None, None, :, :]
        cross_mask = np.asarray(src_pad_mask, dtype=bool)[:, None, None, :]
        for i in range(cfg.n_dec_layers):
            layer = f"decoder.layer{i}"
            cross_kv = _keys_values(self.params, f"{layer}.cross_attn", enc_hidden, cfg.n_heads)
            x = _decoder_layer(self.params, layer, x, None, cross_kv, causal, cross_mask, cfg, train, rng)
        return _ln(self.params, "decoder.final_ln", x)

    def start_decoding(self, enc_hidden: Tensor, src_pad_mask: np.ndarray) -> DecoderCache:
        """Empty incremental-decoding state for one encoded document [1, L, d].

        Cross-attention keys/values are projected here, once, from the
        un-repeated encoder output and broadcast over every hypothesis.
        """
        cfg = self.config
        if enc_hidden.shape[0] != 1:
            raise ShapeMismatch(f"start_decoding takes one document, got {enc_hidden.shape}")
        empty = Tensor(np.zeros((1, cfg.n_heads, 0, cfg.d_model // cfg.n_heads), enc_hidden.dtype))
        return DecoderCache(
            cross_kv=[
                _keys_values(self.params, f"decoder.layer{i}.cross_attn", enc_hidden, cfg.n_heads)
                for i in range(cfg.n_dec_layers)
            ],
            cross_mask=np.asarray(src_pad_mask, dtype=bool)[:, None, None, :],
            self_kv=[(empty, empty)] * cfg.n_dec_layers,
        )

    def decode_step(
        self, cache: DecoderCache, parents: np.ndarray, tokens: np.ndarray
    ) -> Tensor:
        """Next-token logits [n, vocab] for n hypotheses, hypothesis j being
        hypothesis parents[j] of the previous step extended by tokens[j].

        Decodes only the new position and updates `cache` in place. The cache
        reorder is not recorded on the tape, so this is for inference only.
        """
        parents = np.asarray(parents, dtype=np.int64)
        tokens = np.asarray(tokens)
        if parents.shape != tokens.shape or parents.ndim != 1:
            raise ShapeMismatch(f"parents {parents.shape} vs tokens {tokens.shape}")
        p, cfg = self.params, self.config
        x = self._embed_targets(tokens[:, None], cache.length, False, None)
        self_kv = []
        for i, past in enumerate(cache.self_kv):
            layer = f"decoder.layer{i}"
            # The hypotheses' keys/values so far, then the new position's.
            new = _keys_values(p, f"{layer}.self_attn", _ln(p, f"{layer}.ln1", x), cfg.n_heads)
            kv = tuple(Tensor(np.concatenate([old.data[parents], k.data], axis=2)) for old, k in zip(past, new))
            x = _decoder_layer(p, layer, x, kv, cache.cross_kv[i], None, cache.cross_mask, cfg, False, None)
            self_kv.append(kv)
        cache.self_kv = self_kv
        return T.reshape(self._project(x), (len(tokens), self.config.vocab_size))


_MODELS = {cls.kind: cls for cls in (Encoder, ExtractiveModel, AbstractiveModel)}


def build_model(config: ModelConfig, kind: str, seed: int, dtype=np.float32) -> Encoder:
    """A fresh model of kind "encoder", "ext" or "abs"; each parameter draws
    from SplitRng(seed).child(part).child("init", name within the part)."""
    if kind not in _MODELS:
        raise ConfigError(f"unknown model kind {kind!r}")
    cls = _MODELS[kind]
    root = SplitRng(seed)
    params = {}
    for full_name, shape in cls.param_specs(config).items():
        part, name = full_name.split(".", 1)
        data = _init_array(name, shape, root.child(part), dtype)
        params[full_name] = Tensor(data, requires_grad=True)
    return cls(config, params, seed=seed)


# --- losses ---

def ext_loss(logits: Tensor, labels: np.ndarray, sentence_mask: np.ndarray) -> Tensor:
    """Mean binary cross-entropy of sentence logits over unmasked slots."""
    labels = np.asarray(labels, dtype=logits.dtype)
    mask = np.asarray(sentence_mask, dtype=logits.dtype)
    if logits.shape != labels.shape or logits.shape != mask.shape:
        raise ShapeMismatch(
            f"ext_loss: logits {logits.shape}, labels {labels.shape}, mask {mask.shape}"
        )
    total = float(mask.sum())
    if total == 0:
        raise AllMasked("every sentence slot is masked; mean BCE undefined")
    return T.bce_with_logits(logits, labels, mask) / total


def abs_loss(
    states: Tensor,
    tok_emb: Tensor,
    tgt_ids: np.ndarray,
    pad_mask: np.ndarray,
    smoothing: float = 0.1,
) -> Tensor:
    """Label-smoothed NLL over non-pad positions, predicting token t+1 at t
    from the final-normed decoder states [B, T, d] projected onto the tied
    token table tok_emb [vocab, d].

    pad_mask is True at padded target positions, matching the encoder's
    convention. The smoothed target mixes (1 - smoothing) of the gold one-hot
    with smoothing of the uniform distribution over the full vocabulary.
    """
    tgt_ids = np.asarray(tgt_ids)
    pad_mask = np.asarray(pad_mask, dtype=bool)
    if states.shape[:2] != tgt_ids.shape or tgt_ids.shape != pad_mask.shape:
        raise ShapeMismatch(
            f"abs_loss: states {states.shape}, targets {tgt_ids.shape}, mask {pad_mask.shape}"
        )
    t = tgt_ids.shape[1]
    if t < 2:
        raise ShapeMismatch("abs_loss needs at least two target positions")

    weights = (~pad_mask[:, 1:]).astype(states.dtype)
    total = float(weights.sum())
    if total == 0:
        raise AllMasked("every predicted target position is padding")

    # The last position predicts nothing; the op scores the first t - 1.
    loss = T.projected_cross_entropy(states, T.permute(tok_emb, (1, 0)), None, tgt_ids[:, 1:], weights, smoothing)
    return loss / total


# --- checkpoint serialization ---

CHECKPOINT_MAGIC = b"SUMF"
CHECKPOINT_VERSION = 1


def save_checkpoint(model: Encoder, path: Path | str) -> None:
    """Binary dump: magic, version, JSON header, then named float32 arrays."""
    header = json.dumps(
        {
            "kind": model.kind,
            "config": asdict(model.config),
            "step": int(model.step),
            "seed": int(model.seed),
        },
        sort_keys=True,
    ).encode("utf-8")

    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        for name in sorted(model.params):
            data = np.ascontiguousarray(model.params[name].data, dtype="<f4")
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack("<I", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
            fh.write(data.tobytes())


def load_checkpoint(source: Path | str | bytes, dtype=np.float32) -> Encoder:
    """Rebuild the serialized model from a checkpoint path or its bytes;
    bit-exact inverse of save_checkpoint. Each payload is read in place from
    the source's bytes and copied once, into its array."""
    data = memoryview(source if isinstance(source, bytes) else Path(source).read_bytes())
    pos = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if n > len(data) - pos:
            raise FormatVersionMismatch(f"checkpoint truncated while reading {what}")
        pos += n
        return data[pos - n : pos]

    if take(4, "magic") != CHECKPOINT_MAGIC:
        raise FormatVersionMismatch("not a sumforge checkpoint (bad magic)")
    (version,) = struct.unpack("<I", take(4, "version"))
    if version != CHECKPOINT_VERSION:
        raise FormatVersionMismatch(
            f"checkpoint version {version}, expected {CHECKPOINT_VERSION}"
        )
    (header_len,) = struct.unpack("<I", take(4, "header length"))
    try:
        header = json.loads(bytes(take(header_len, "header")))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deeply
        raise FormatVersionMismatch(f"checkpoint header is not JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatVersionMismatch("checkpoint header is not a JSON object")
    kind, step, seed = header.get("kind"), header.get("step"), header.get("seed")
    if not isinstance(kind, str) or kind not in _MODELS:
        raise FormatVersionMismatch(f"unknown checkpoint kind {kind!r}")
    if type(step) is not int or type(seed) is not int:
        raise FormatVersionMismatch(f"checkpoint step {step!r} or seed {seed!r} is not an integer")
    try:
        config = ModelConfig(**header["config"])
    except KeyError as exc:
        raise FormatVersionMismatch(f"checkpoint header lacks {exc}") from exc
    except (TypeError, ConfigError) as exc:
        raise FormatVersionMismatch(f"checkpoint header has a bad config: {exc}") from exc
    cls = _MODELS[kind]
    specs = cls.param_specs(config)

    arrays: dict[str, np.ndarray] = {}
    while pos < len(data):
        (name_len,) = struct.unpack("<I", take(4, "record"))
        name_bytes = bytes(take(name_len, "record name"))
        try:
            name = name_bytes.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatVersionMismatch(f"checkpoint record name is not UTF-8: {exc}") from exc
        (rank,) = struct.unpack("<I", take(4, "record rank"))
        shape = struct.unpack(f"<{rank}I", take(4 * rank, "record dims"))
        payload = take(4 * math.prod(shape), f"payload of {name}")
        if name not in specs:
            raise ShapeMismatch(f"unexpected parameter {name!r} for kind {cls.kind!r}")
        if shape != specs[name]:
            raise ShapeMismatch(
                f"parameter {name!r} has shape {shape}, config implies {specs[name]}"
            )
        if name in arrays:
            raise FormatVersionMismatch(f"checkpoint record {name!r} appears twice")
        values = np.frombuffer(payload, dtype="<f4").reshape(shape)
        # NaN passes through min and max: no payload-sized temporary.
        if not (np.isfinite(values.min()) and np.isfinite(values.max())):
            raise FormatVersionMismatch(f"checkpoint parameter {name!r} holds a NaN or infinite value")
        arrays[name] = values.astype(dtype)

    missing = sorted(set(specs) - set(arrays))
    if missing:
        raise ShapeMismatch(f"checkpoint missing parameters: {missing}")
    params = {name: Tensor(arrays[name], requires_grad=True) for name in specs}
    return cls(config, params, step=step, seed=seed)


# The fields that fix the encoder's parameter names and shapes.
_ENCODER_FIELDS = ("vocab_size", "d_model", "n_heads", "d_ff", "n_enc_layers", "max_positions")


def load_encoder_into(model: Encoder, encoder_checkpoint: Path | str | bytes) -> None:
    """Overwrite a model's encoder weights from an encoder checkpoint (a path
    or its bytes) whose encoder has the same shape: the same vocabulary,
    widths, heads, layers and positions."""
    loaded = load_checkpoint(encoder_checkpoint)
    if loaded.kind != "encoder":
        raise ModelKindMismatch(
            f"model kind mismatch: need an encoder checkpoint, found {loaded.kind!r}"
        )
    differ = [
        f"{f} {getattr(loaded.config, f)} vs {getattr(model.config, f)}"
        for f in _ENCODER_FIELDS
        if getattr(loaded.config, f) != getattr(model.config, f)
    ]
    if differ:
        raise ShapeMismatch(f"encoder checkpoint does not fit the model: {', '.join(differ)}")
    for name, tensor in loaded.params.items():
        model.params[name].data = tensor.data.astype(model.params[name].dtype)
