"""Transformer summarization models.

One encoder design serves four variants: an extractive model reads a sigmoid
score off every per-sentence [CLS] position; an abstractive model adds a
causally masked decoder with cross-attention whose output projection is tied
to the token embedding table. The "pretrained" variants differ only in where
their encoder weights come from, never in architecture, so the parameter
name sets of a pretrained model and its random baseline are identical.

Blocks use pre-layer-norm residuals, which train stably from scratch at
small scale.
"""

from __future__ import annotations

import io
import json
import struct
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import tensor as T
from .errors import (
    AllMasked,
    FormatVersionMismatch,
    IdOutOfRange,
    IndexOutOfRange,
    InvalidConfig,
    ModelKindMismatch,
    PositionOverflow,
    ShapeMismatch,
)
from .tensor import SplitRng, Tensor

@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int
    n_heads: int
    d_ff: int
    n_enc_layers: int
    n_dec_layers: int = 6
    max_positions: int = 512
    dropout: float = 0.1
    pretrained_encoder: bool = False

    def __post_init__(self) -> None:
        dims = (
            self.vocab_size,
            self.d_model,
            self.n_heads,
            self.d_ff,
            self.n_enc_layers,
            self.n_dec_layers,
            self.max_positions,
        )
        if any(d < 1 for d in dims):
            raise InvalidConfig(f"all dimensions must be >= 1: {self}")
        if self.d_model % self.n_heads != 0:
            raise InvalidConfig(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if not 0.0 <= self.dropout < 1.0:
            raise InvalidConfig(f"dropout must be in [0, 1), got {self.dropout}")


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


def _init_params(
    specs: dict[str, tuple[int, ...]], rng: SplitRng, dtype
) -> dict[str, Tensor]:
    """Truncated-normal (sigma 0.02, cut at 2 sigma) weights; zero biases/beta,
    unit gamma."""
    params: dict[str, Tensor] = {}
    for name in sorted(specs):
        shape = specs[name]
        if name.endswith(".gamma"):
            data = np.ones(shape, dtype=dtype)
        elif name.endswith((".beta", ".b", ".b1", ".b2", ".bq", ".bk", ".bv", ".bo")) or name == "b":
            data = np.zeros(shape, dtype=dtype)
        else:
            data = _trunc_normal(shape, rng.child("init", name).generator(), 0.02, dtype)
        params[name] = Tensor(data, requires_grad=True)
    return params


def _trunc_normal(shape, gen: np.random.Generator, std: float, dtype) -> np.ndarray:
    out = gen.normal(0.0, std, size=shape)
    while True:
        bad = np.abs(out) > 2.0 * std
        if not bad.any():
            break
        out[bad] = gen.normal(0.0, std, size=int(bad.sum()))
    return out.astype(dtype)


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


def _attend(
    params: dict[str, Tensor],
    prefix: str,
    x_q: Tensor,
    k: Tensor,
    v: Tensor,
    mask: np.ndarray | None,
    dropout_p: float,
    train: bool,
    rng,
) -> Tensor:
    """Multi-head scaled dot-product attention of x_q over projected keys and
    values [B or 1, h, Lk, dk].

    mask broadcasts against the [B, h, Lq, Lk] scores and is True where a
    query may not look at a key.
    """
    b, lq, d = x_q.shape
    q = _heads(params, prefix, x_q, "wq", "bq", k.shape[1])
    ctx = T.attention(q, k, v, mask, dropout_p, train, rng)  # [B,h,Lq,dk]
    ctx = T.reshape(T.permute(ctx, (0, 2, 1, 3)), (b, lq, d))
    return T.matmul(ctx, params[f"{prefix}.wo"]) + params[f"{prefix}.bo"]


def _feed_forward(params: dict[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    h = T.gelu(T.matmul(x, params[f"{prefix}.w1"]) + params[f"{prefix}.b1"])
    return T.matmul(h, params[f"{prefix}.w2"]) + params[f"{prefix}.b2"]


def _ln(params: dict[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    return T.layer_norm(x, params[f"{prefix}.gamma"], params[f"{prefix}.beta"])


def _decoder_layer(
    params: dict[str, Tensor],
    prefix: str,
    x: Tensor,
    past: tuple[Tensor, Tensor] | None,
    cross_kv: tuple[Tensor, Tensor],
    self_mask: np.ndarray | None,
    cross_mask: np.ndarray,
    config: ModelConfig,
    train: bool,
    rng,
) -> tuple[Tensor, tuple[Tensor, Tensor]]:
    """One decoder block: self-attention, cross-attention over the projected
    encoder keys/values, feed-forward, each pre-layer-norm and residual.

    The new positions' self-attention keys/values are appended to `past`
    (those of earlier positions, or None) and returned alongside x.
    """
    normed = _ln(params, f"{prefix}.ln1", x)
    k, v = _keys_values(params, f"{prefix}.self_attn", normed, config.n_heads)
    if past is not None:
        k = T.concat([past[0], k], axis=2)
        v = T.concat([past[1], v], axis=2)
    attn = _attend(
        params, f"{prefix}.self_attn", normed, k, v,
        self_mask, config.dropout, train, rng,
    )
    x = x + T.dropout(attn, config.dropout, train, rng)
    cross = _attend(
        params, f"{prefix}.cross_attn", _ln(params, f"{prefix}.ln2", x), *cross_kv,
        cross_mask, config.dropout, train, rng,
    )
    x = x + T.dropout(cross, config.dropout, train, rng)
    ff = _feed_forward(params, f"{prefix}.ff", _ln(params, f"{prefix}.ln3", x))
    x = x + T.dropout(ff, config.dropout, train, rng)
    return x, (k, v)


class Encoder:
    """Token + learned position + interval segment embeddings, then
    pre-layer-norm transformer blocks and a final layer norm."""

    kind = "encoder"

    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params
        self.step = 0
        self.seed = 0

    def encode(
        self,
        src_ids: np.ndarray,
        segment_ids: np.ndarray,
        pad_mask: np.ndarray,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Hidden states [B, L, d_model]; pad_mask is True at padded positions."""
        src_ids = np.asarray(src_ids)
        segment_ids = np.asarray(segment_ids)
        pad_mask = np.asarray(pad_mask, dtype=bool)
        cfg = self.config
        b, length = src_ids.shape
        if length > cfg.max_positions:
            raise PositionOverflow(f"sequence length {length} > {cfg.max_positions}")
        if src_ids.size and (src_ids.min() < 0 or src_ids.max() >= cfg.vocab_size):
            raise IdOutOfRange(f"token id outside vocabulary of {cfg.vocab_size}")

        p = self.params
        x = T.embedding_lookup(p["tok_emb"], src_ids)
        x = x + T.embedding_lookup(p["pos_emb"], np.arange(length))
        x = x + T.embedding_lookup(p["seg_emb"], segment_ids)
        x = T.dropout(x, cfg.dropout, train, rng)

        for i in range(cfg.n_enc_layers):
            normed = _ln(p, f"layer{i}.ln1", x)
            k, v = _keys_values(p, f"layer{i}.attn", normed, cfg.n_heads)
            attn = _attend(
                p, f"layer{i}.attn", normed, k, v,
                pad_mask[:, None, None, :], cfg.dropout, train, rng,
            )
            x = x + T.dropout(attn, cfg.dropout, train, rng)
            ff = _feed_forward(p, f"layer{i}.ff", _ln(p, f"layer{i}.ln2", x))
            x = x + T.dropout(ff, cfg.dropout, train, rng)
        return _ln(p, "final_ln", x)


def build_encoder(config: ModelConfig, seed: int, dtype=np.float32) -> Encoder:
    rng = SplitRng(seed).child("encoder")
    enc = Encoder(config, _init_params(encoder_param_specs(config), rng, dtype))
    enc.seed = seed
    return enc


class ExtractiveModel:
    """Encoder plus a per-[CLS] sigmoid scoring head."""

    kind = "ext"

    def __init__(self, config: ModelConfig, encoder: Encoder, head: dict[str, Tensor]):
        self.config = config
        self.encoder = encoder
        self.head = head
        self.step = 0
        self.seed = 0

    def parameters(self) -> dict[str, Tensor]:
        out = {f"encoder.{k}": v for k, v in self.encoder.params.items()}
        out.update({f"ext_head.{k}": v for k, v in self.head.items()})
        return out

    def ext_scores(self, hidden: Tensor, cls_positions: np.ndarray) -> Tensor:
        """Sentence probabilities [B, S]: sigmoid(w . h[cls] + b), in (0, 1)."""
        cls_positions = np.asarray(cls_positions)
        length = hidden.shape[1]
        if cls_positions.size and (cls_positions.min() < 0 or cls_positions.max() >= length):
            raise IndexOutOfRange(
                f"cls position outside sequence of length {length}"
            )
        picked = T.gather_positions(hidden, cls_positions)  # [B,S,d]
        logits = T.matmul(picked, self.head["w"]) + self.head["b"]
        return T.sigmoid(T.reshape(logits, cls_positions.shape))

    def forward_scores(
        self,
        src_ids: np.ndarray,
        segment_ids: np.ndarray,
        pad_mask: np.ndarray,
        cls_positions: np.ndarray,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        hidden = self.encoder.encode(src_ids, segment_ids, pad_mask, train, rng)
        return self.ext_scores(hidden, cls_positions)


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


class AbstractiveModel:
    """Encoder plus a causally masked decoder with cross-attention; the output
    projection is the transposed token embedding table."""

    kind = "abs"

    def __init__(self, config: ModelConfig, encoder: Encoder, decoder: dict[str, Tensor]):
        self.config = config
        self.encoder = encoder
        self.decoder = decoder
        self.step = 0
        self.seed = 0

    def parameters(self) -> dict[str, Tensor]:
        out = {f"encoder.{k}": v for k, v in self.encoder.params.items()}
        out.update({f"decoder.{k}": v for k, v in self.decoder.items()})
        return out

    def _embed_targets(
        self, tgt_ids: np.ndarray, start: int, train: bool, rng
    ) -> Tensor:
        """Token + position embeddings of tgt_ids [B, T] placed at positions
        start, start + 1, ..."""
        cfg = self.config
        end = start + tgt_ids.shape[1]
        if end > cfg.max_positions:
            raise PositionOverflow(f"target length {end} > {cfg.max_positions}")
        if tgt_ids.size and (tgt_ids.min() < 0 or tgt_ids.max() >= cfg.vocab_size):
            raise IdOutOfRange(f"target id outside vocabulary of {cfg.vocab_size}")
        x = T.embedding_lookup(self.encoder.params["tok_emb"], tgt_ids)
        x = x + T.embedding_lookup(self.decoder["pos_emb"], np.arange(start, end))
        return T.dropout(x, cfg.dropout, train, rng)

    def _project(self, x: Tensor) -> Tensor:
        x = _ln(self.decoder, "final_ln", x)
        return T.matmul(x, T.transpose(self.encoder.params["tok_emb"]))

    def decode_teacher_forced(
        self,
        enc_hidden: Tensor,
        tgt_ids: np.ndarray,
        src_pad_mask: np.ndarray,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """Next-token logits [B, T, vocab] from gold prefixes."""
        tgt_ids = np.asarray(tgt_ids)
        cfg = self.config
        _, t = tgt_ids.shape
        x = self._embed_targets(tgt_ids, 0, train, rng)
        causal = np.triu(np.ones((t, t), dtype=bool), k=1)[None, None, :, :]
        cross_mask = np.asarray(src_pad_mask, dtype=bool)[:, None, None, :]
        for i in range(cfg.n_dec_layers):
            cross_kv = _keys_values(self.decoder, f"layer{i}.cross_attn", enc_hidden, cfg.n_heads)
            x, _ = _decoder_layer(
                self.decoder, f"layer{i}", x, None, cross_kv,
                causal, cross_mask, cfg, train, rng,
            )
        return self._project(x)

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
                _keys_values(self.decoder, f"layer{i}.cross_attn", enc_hidden, cfg.n_heads)
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
        x = self._embed_targets(tokens[:, None], cache.length, False, None)
        self_kv = []
        for i, (k, v) in enumerate(cache.self_kv):
            past = (Tensor(k.data[parents]), Tensor(v.data[parents]))
            x, kv = _decoder_layer(
                self.decoder, f"layer{i}", x, past, cache.cross_kv[i],
                None, cache.cross_mask, self.config, False, None,
            )
            self_kv.append(kv)
        cache.self_kv = self_kv
        return T.reshape(self._project(x), (len(tokens), self.config.vocab_size))

    def forward_logits(
        self,
        src_ids: np.ndarray,
        segment_ids: np.ndarray,
        src_pad_mask: np.ndarray,
        tgt_ids: np.ndarray,
        train: bool = False,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        hidden = self.encoder.encode(src_ids, segment_ids, src_pad_mask, train, rng)
        return self.decode_teacher_forced(hidden, tgt_ids, src_pad_mask, train, rng)


def build_ext_model(config: ModelConfig, seed: int, dtype=np.float32) -> ExtractiveModel:
    encoder = build_encoder(config, seed, dtype)
    head = _init_params(ext_head_param_specs(config), SplitRng(seed).child("ext_head"), dtype)
    model = ExtractiveModel(config, encoder, head)
    model.seed = seed
    return model


def build_abs_model(config: ModelConfig, seed: int, dtype=np.float32) -> AbstractiveModel:
    encoder = build_encoder(config, seed, dtype)
    decoder = _init_params(decoder_param_specs(config), SplitRng(seed).child("decoder"), dtype)
    model = AbstractiveModel(config, encoder, decoder)
    model.seed = seed
    return model


def build_model(config: ModelConfig, task: str, seed: int, dtype=np.float32):
    if task == "ext":
        return build_ext_model(config, seed, dtype)
    if task == "abs":
        return build_abs_model(config, seed, dtype)
    raise InvalidConfig(f"unknown task {task!r}")


# --- losses ---

def ext_loss(scores: Tensor, labels: np.ndarray, sentence_mask: np.ndarray) -> Tensor:
    """Mean binary cross-entropy over unmasked sentence slots."""
    labels = np.asarray(labels, dtype=scores.dtype)
    mask = np.asarray(sentence_mask, dtype=scores.dtype)
    if scores.shape != labels.shape or scores.shape != mask.shape:
        raise ShapeMismatch(
            f"ext_loss: scores {scores.shape}, labels {labels.shape}, mask {mask.shape}"
        )
    total = float(mask.sum())
    if total == 0:
        raise AllMasked("every sentence slot is masked; mean BCE undefined")
    # Clamp only to keep log finite when float32 sigmoid saturates.
    s = T.clip(scores, 1e-7, 1.0 - 1e-7)
    bce = T.neg(
        T.mul(T.log(s), labels) + T.mul(T.log(T.neg(s) + 1.0), 1.0 - labels)
    )
    return T.tensor_sum(T.mul(bce, mask)) / total


def abs_loss(
    logits: Tensor,
    tgt_ids: np.ndarray,
    pad_mask: np.ndarray,
    smoothing: float = 0.1,
) -> Tensor:
    """Label-smoothed NLL over non-pad positions, predicting token t+1 at t.

    pad_mask is True at padded target positions, matching the encoder's
    convention. The smoothed target mixes (1 - smoothing) of the gold one-hot
    with smoothing of the uniform distribution over the full vocabulary.
    """
    if not 0.0 <= smoothing < 1.0:
        raise ValueError(f"smoothing must be in [0, 1), got {smoothing}")
    tgt_ids = np.asarray(tgt_ids)
    pad_mask = np.asarray(pad_mask, dtype=bool)
    if logits.shape[:2] != tgt_ids.shape or tgt_ids.shape != pad_mask.shape:
        raise ShapeMismatch(
            f"abs_loss: logits {logits.shape}, targets {tgt_ids.shape}, mask {pad_mask.shape}"
        )
    t = tgt_ids.shape[1]
    if t < 2:
        raise ShapeMismatch("abs_loss needs at least two target positions")

    weights = (~pad_mask[:, 1:]).astype(logits.dtype)
    total = float(weights.sum())
    if total == 0:
        raise AllMasked("every predicted target position is padding")

    lp = T.log_softmax(T.narrow(logits, 1, 0, t - 1), axis=-1)
    nll = T.neg(T.take_along_last(lp, tgt_ids[:, 1:]))
    if smoothing > 0.0:
        uniform = T.neg(T.tensor_mean(lp, axis=-1))
        per_pos = T.mul(nll, 1.0 - smoothing) + T.mul(uniform, smoothing)
    else:
        per_pos = nll
    return T.tensor_sum(T.mul(per_pos, weights)) / total


# --- checkpoint serialization ---

CHECKPOINT_MAGIC = b"SUMF"
CHECKPOINT_VERSION = 1


def _expected_specs(kind: str, config: ModelConfig) -> dict[str, tuple[int, ...]]:
    if kind == "encoder":
        return {f"encoder.{k}": v for k, v in encoder_param_specs(config).items()}
    if kind == "ext":
        specs = {f"encoder.{k}": v for k, v in encoder_param_specs(config).items()}
        specs.update({f"ext_head.{k}": v for k, v in ext_head_param_specs(config).items()})
        return specs
    if kind == "abs":
        specs = {f"encoder.{k}": v for k, v in encoder_param_specs(config).items()}
        specs.update({f"decoder.{k}": v for k, v in decoder_param_specs(config).items()})
        return specs
    raise FormatVersionMismatch(f"unknown checkpoint kind {kind!r}")


def save_checkpoint(model, path: Path | str) -> None:
    """Binary dump: magic, version, JSON header, then named float32 arrays."""
    if model.kind == "encoder":
        params = {f"encoder.{k}": v for k, v in model.params.items()}
    else:
        params = model.parameters()

    header = json.dumps(
        {
            "kind": model.kind,
            "config": asdict(model.config),
            "step": int(model.step),
            "seed": int(model.seed),
        },
        sort_keys=True,
    ).encode("utf-8")

    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    buf.write(struct.pack("<I", len(header)))
    buf.write(header)
    for name in sorted(params):
        data = np.ascontiguousarray(params[name].data, dtype="<f4")
        name_bytes = name.encode("utf-8")
        buf.write(struct.pack("<I", len(name_bytes)))
        buf.write(name_bytes)
        buf.write(struct.pack("<I", data.ndim))
        buf.write(struct.pack(f"<{data.ndim}I", *data.shape))
        buf.write(data.tobytes())
    Path(path).write_bytes(buf.getvalue())


def _read_exact(buf: io.BytesIO, n: int, what: str) -> bytes:
    chunk = buf.read(n)
    if len(chunk) != n:
        raise FormatVersionMismatch(f"checkpoint truncated while reading {what}")
    return chunk


def load_checkpoint(path: Path | str, dtype=np.float32):
    """Rebuild the serialized model; bit-exact inverse of save_checkpoint."""
    buf = io.BytesIO(Path(path).read_bytes())
    if _read_exact(buf, 4, "magic") != CHECKPOINT_MAGIC:
        raise FormatVersionMismatch("not a sumforge checkpoint (bad magic)")
    (version,) = struct.unpack("<I", _read_exact(buf, 4, "version"))
    if version != CHECKPOINT_VERSION:
        raise FormatVersionMismatch(
            f"checkpoint version {version}, expected {CHECKPOINT_VERSION}"
        )
    (header_len,) = struct.unpack("<I", _read_exact(buf, 4, "header length"))
    header = json.loads(_read_exact(buf, header_len, "header"))
    if not isinstance(header, dict):
        raise FormatVersionMismatch("checkpoint header is not a JSON object")
    try:
        kind = header["kind"]
        config = ModelConfig(**header["config"])
    except KeyError as exc:
        raise FormatVersionMismatch(f"checkpoint header lacks {exc}") from exc
    except TypeError as exc:
        raise FormatVersionMismatch(f"checkpoint header has a bad config: {exc}") from exc
    specs = _expected_specs(kind, config)

    arrays: dict[str, np.ndarray] = {}
    while True:
        raw = buf.read(4)
        if not raw:
            break
        if len(raw) != 4:
            raise FormatVersionMismatch("checkpoint truncated while reading record")
        (name_len,) = struct.unpack("<I", raw)
        name = _read_exact(buf, name_len, "record name").decode("utf-8")
        (rank,) = struct.unpack("<I", _read_exact(buf, 4, "record rank"))
        shape = struct.unpack(f"<{rank}I", _read_exact(buf, 4 * rank, "record dims"))
        payload = _read_exact(buf, 4 * int(np.prod(shape, dtype=np.int64)), f"payload of {name}")
        if name not in specs:
            raise ShapeMismatch(f"unexpected parameter {name!r} for kind {kind!r}")
        if shape != specs[name]:
            raise ShapeMismatch(
                f"parameter {name!r} has shape {shape}, config implies {specs[name]}"
            )
        arrays[name] = np.frombuffer(payload, dtype="<f4").reshape(shape).astype(dtype)

    missing = sorted(set(specs) - set(arrays))
    if missing:
        raise ShapeMismatch(f"checkpoint missing parameters: {missing}")

    def strip(prefix: str) -> dict[str, Tensor]:
        return {
            k[len(prefix):]: Tensor(arrays[k], requires_grad=True)
            for k in arrays
            if k.startswith(prefix)
        }

    if kind == "encoder":
        model = Encoder(config, strip("encoder."))
    elif kind == "ext":
        model = ExtractiveModel(config, Encoder(config, strip("encoder.")), strip("ext_head."))
    else:
        model = AbstractiveModel(config, Encoder(config, strip("encoder.")), strip("decoder."))
    model.step = int(header.get("step", 0))
    model.seed = int(header.get("seed", 0))
    if kind != "encoder":
        model.encoder.step = model.step
        model.encoder.seed = model.seed
    return model


def load_encoder_into(model, encoder_checkpoint_path: Path | str) -> None:
    """Overwrite a model's encoder weights from an encoder checkpoint."""
    loaded = load_checkpoint(encoder_checkpoint_path)
    if loaded.kind != "encoder":
        raise ModelKindMismatch(
            f"model kind mismatch: need an encoder checkpoint, found {loaded.kind!r}"
        )
    for name, tensor in model.encoder.params.items():
        src = loaded.params[name]
        if src.shape != tensor.shape:
            raise ShapeMismatch(
                f"encoder parameter {name!r}: checkpoint {src.shape} vs model {tensor.shape}"
            )
        tensor.data = src.data.astype(tensor.dtype)
