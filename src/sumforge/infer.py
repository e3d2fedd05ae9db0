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

from .errors import ConfigError, EmptyDocument, ModelKindMismatch
from .model import AbstractiveModel, ExtractiveModel
from .rouge import rouge_tokenize
from .tensor import no_grad
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


@no_grad()
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


@dataclass
class _Hypothesis:
    ids: tuple[int, ...]  # starts at BOS; may end with EOS
    logprob: float

    def generated(self) -> int:
        return len(self.ids) - 1


def _token_trigrams(ids: tuple[int, ...]) -> set[tuple[int, int, int]]:
    gen = ids[1:]
    return {tuple(gen[i : i + 3]) for i in range(len(gen) - 2)}


def _top_k(flat: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries of a NaN-free array, largest first,
    ties to the lower index: exactly argsort(-flat, kind="stable")[:k], but
    only the entries at or above the k-th largest value get sorted."""
    if k >= flat.size:
        return np.argsort(-flat, kind="stable")
    kth = np.partition(flat, flat.size - k)[flat.size - k]
    cand = np.flatnonzero(flat >= kth)
    return cand[np.argsort(-flat[cand], kind="stable")[:k]]


@no_grad()
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

    beams = [_Hypothesis((bos_id,), 0.0)]
    parents = [0]  # index of each live hypothesis's parent in the cache
    last_live = beams
    done: list[tuple[float, int, _Hypothesis]] = []  # (norm score, arrival, hyp)

    for _ in range(config.max_len):
        if not beams:
            break
        logits = model.decode_step(cache, parents, [h.ids[-1] for h in beams]).data
        shifted = logits - logits.max(axis=-1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

        cand = logp.astype(np.float64)
        for i, hyp in enumerate(beams):
            cand[i] += hyp.logprob
            if hyp.generated() + 1 < config.min_len:
                cand[i, eos_id] = -np.inf
            if hyp.generated() >= 2:
                seen = _token_trigrams(hyp.ids)
                a, b = hyp.ids[-2], hyp.ids[-1]
                for (x, y, z) in seen:
                    if (x, y) == (a, b):
                        cand[i, z] = -np.inf

        flat = cand.reshape(-1)
        # Ties resolve to the earlier hypothesis, then the lower token id.
        top = _top_k(flat, config.beam_size)
        next_beams: list[_Hypothesis] = []
        parents = []
        for pos in top:
            if not np.isfinite(flat[pos]):
                continue
            i, tok = divmod(int(pos), cand.shape[1])
            hyp = _Hypothesis(beams[i].ids + (int(tok),), float(flat[pos]))
            if tok == eos_id:
                score = hyp.logprob / _length_penalty(hyp.generated())
                done.append((score, len(done), hyp))
            else:
                next_beams.append(hyp)
                parents.append(i)
        beams = next_beams
        if beams:
            last_live = beams
        if len(done) >= config.beam_size:
            break

    if not done:
        # Nothing emitted EOS within max_len; fall back to the best prefix.
        done = [
            (h.logprob / _length_penalty(h.generated()), i, h)
            for i, h in enumerate(last_live)
        ]
    best = max(done, key=lambda entry: (entry[0], -entry[1]))
    return list(best[2].ids)


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
