"""Summary generation from trained models.

Extractive: rank sentences by score, walk down the ranking, and skip any
candidate that repeats a word trigram of an already-selected sentence, so the
output stays non-redundant. Abstractive: length-normalized beam search with
the same repeated-trigram rule applied to the generated token stream, decoding
one new position per hypothesis per step from the model's key/value cache.
Trigram blocking and the length penalty's alpha of 0.6 follow BertSum (Liu &
Lapata 2019). Both run without recording an autodiff graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, EmptyDocument, ModelKindMismatch
from .model import AbstractiveModel, ExtractiveModel
from .rouge import rouge_tokenize
from .tokenization import TokenizedExample, Vocab, decode_ids


@dataclass(frozen=True)
class ExtConfig:
    k: int = 3

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class BeamConfig:
    max_len: int
    min_len: int = 1
    beam_size: int = 5

    def __post_init__(self) -> None:
        if self.beam_size < 1:
            raise ConfigError(f"beam_size must be >= 1, got {self.beam_size}")
        if self.min_len < 1 or self.min_len > self.max_len:
            raise ConfigError(
                f"need 1 <= min_len <= max_len, got {self.min_len}..{self.max_len}"
            )


# --- extractive ---

def _word_trigrams(text: str) -> set[tuple[str, str, str]]:
    words = rouge_tokenize(text)
    return {tuple(words[i : i + 3]) for i in range(len(words) - 2)}


def select_sentences(scores, sentences, k: int) -> list[int]:
    """Indices of up to k sentences, greedy by score with redundancy blocking.

    Ties in score go to the lower index; the result is in document order.
    """
    order = sorted(range(len(sentences)), key=lambda i: (-float(scores[i]), i))
    chosen: list[int] = []
    seen: set[tuple[str, str, str]] = set()
    for i in order:
        if len(chosen) == k:
            break
        trigrams = _word_trigrams(sentences[i])
        if trigrams & seen:
            continue
        chosen.append(i)
        seen |= trigrams
    return sorted(chosen)


@T.no_grad()
def summarize_ext(
    model: ExtractiveModel, example: TokenizedExample, config: ExtConfig
) -> list[str]:
    """Selected sentence texts, in original document order."""
    if model.kind != "ext":
        raise ModelKindMismatch(f"expected an extractive model, got {model.kind!r}")
    if not example.src_txt:
        raise EmptyDocument("example has no sentences")

    src = np.array([example.src_ids], dtype=np.int64)
    segs = np.array([example.segment_ids], dtype=np.int64)
    pad = np.zeros(src.shape, dtype=bool)
    clss = np.array([example.cls_positions], dtype=np.int64)
    scores = model.forward_scores(src, segs, pad, clss).data[0]
    picked = select_sentences(scores, example.src_txt, config.k)
    return [example.src_txt[i] for i in picked]


# --- abstractive ---

LENGTH_PENALTY_ALPHA = 0.6


def _length_penalty(length: int) -> float:
    return ((5.0 + length) / 6.0) ** LENGTH_PENALTY_ALPHA


def _top_k(flat: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries of a NaN-free array, largest first,
    ties to the lower index: exactly argsort(-flat, kind="stable")[:k], but
    only the entries at or above the k-th largest value get sorted."""
    if k >= flat.size:
        return np.argsort(-flat, kind="stable")
    kth = np.partition(flat, flat.size - k)[flat.size - k]
    cand = np.flatnonzero(flat >= kth)
    return cand[np.argsort(-flat[cand], kind="stable")[:k]]


@T.no_grad()
def beam_search(
    model: AbstractiveModel,
    example: TokenizedExample,
    config: BeamConfig,
    *,
    bos_id: int,
    eos_id: int,
) -> list[int]:
    """Best token id sequence (BOS...EOS) under length-normalized log-prob.

    Hypotheses are scored by logprob / ((5 + generated) / 6)^0.6. EOS is
    forbidden while the extension would stay under min_len, and an extension
    that repeats a trigram of its own generated prefix is pruned. beam_size 1
    reduces to greedy argmax decoding.
    """
    if model.kind != "abs":
        raise ModelKindMismatch(f"expected an abstractive model, got {model.kind!r}")
    if not example.src_ids:
        raise EmptyDocument("example has no source tokens")

    src = np.array([example.src_ids], dtype=np.int64)
    segs = np.array([example.segment_ids], dtype=np.int64)
    src_pad = np.zeros(src.shape, dtype=bool)
    cache = model.start_decoding(model.encode(src, segs, src_pad), src_pad)

    # The live beam: row j generated gen[j] (BOS excluded) with total log-prob
    # logprob[j]; it extends cache row parents[j] by its last token tokens[j].
    gen = np.zeros((1, 0), dtype=np.int64)
    logprob = np.zeros(1)
    parents, tokens = np.array([0]), np.array([bos_id])
    done: list[tuple[float, list[int]]] = []  # (norm score, ids), in arrival order

    for step in range(config.max_len):
        logp = T.log_softmax(model.decode_step(cache, parents, tokens)).data
        cand = logp.astype(np.float64) + logprob[:, None]
        if step + 1 < config.min_len:  # every live row has generated `step` tokens
            cand[:, eos_id] = -np.inf
        # Row j bans z wherever its last two tokens already occurred as
        # (gen[j, i], gen[j, i + 1]) and were followed by z = gen[j, i + 2].
        rows, cols = np.nonzero(
            (gen[:, :-2] == gen[:, -2:-1]) & (gen[:, 1:-1] == gen[:, -1:])
        )
        cand[rows, gen[rows, cols + 2]] = -np.inf

        flat = cand.reshape(-1)
        # Ties resolve to the earlier hypothesis, then the lower token id.
        top = _top_k(flat, config.beam_size)
        top = top[np.isfinite(flat[top])]
        rows, toks = np.divmod(top, cand.shape[1])
        eos = toks == eos_id
        penalty = _length_penalty(step + 1)
        done += [
            (score / penalty, [bos_id, *gen[row].tolist(), eos_id])
            for score, row in zip(flat[top[eos]], rows[eos])
        ]
        if eos.all():  # no row is live
            break
        parents, tokens = rows[~eos], toks[~eos]
        gen = np.concatenate([gen[parents], tokens[:, None]], axis=1)
        logprob = flat[top[~eos]]
        if len(done) >= config.beam_size:
            break

    if not done:
        # Nothing emitted EOS within max_len; fall back to the best prefix.
        penalty = _length_penalty(gen.shape[1])
        done = [(score / penalty, [bos_id, *ids]) for score, ids in zip(logprob, gen.tolist())]
    # max keeps the first of equal scores, so ties go to the earliest arrival.
    return max(done, key=lambda entry: entry[0])[1]


def summarize_abs(
    model: AbstractiveModel,
    example: TokenizedExample,
    config: BeamConfig,
    vocab: Vocab,
) -> str:
    """Decode the beam search result to text, special tokens stripped."""
    ids = beam_search(
        model, example, config, bos_id=vocab.bos_id, eos_id=vocab.eos_id
    )
    return decode_ids(ids, vocab)
