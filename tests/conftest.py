"""Shared fixtures: tiny vocabularies, synthetic documents, and small models."""

from __future__ import annotations

import types

import numpy as np
import pytest

from sumforge.ingest import StoryDoc
from sumforge.model import ModelConfig
from sumforge.tokenization import TokenizedExample, Vocab

SPECIALS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "[unused0]", "[unused1]"]


def make_vocab(extra_tokens: list[str]) -> Vocab:
    return Vocab(SPECIALS + extra_tokens)


def small_vocab_factory() -> Vocab:
    words = [
        "the", "cat", "sat", "on", "mat", "a", "dog", "ran", "fast", "rain",
        "fell", "all", "night", "un", "##aff", "##able", "##s", ".", ",", "!",
        "ذهب", "الولد", "إلى", "المدرسة", "؟",
    ]
    return make_vocab(words)


@pytest.fixture
def small_vocab() -> Vocab:
    return small_vocab_factory()


@pytest.fixture
def tiny_config() -> ModelConfig:
    return ModelConfig(
        vocab_size=50,
        d_model=8,
        n_heads=2,
        d_ff=16,
        n_enc_layers=1,
        n_dec_layers=1,
        max_positions=32,
        dropout=0.0,
    )


def closure_arrays(fn):
    """Every array a backward closure holds, in its cells or in the cells of
    the functions it holds."""
    for cell in fn.__closure__ or ():
        try:
            x = cell.cell_contents
        except ValueError:  # a cell never assigned, e.g. attention's factor
            continue
        if isinstance(x, np.ndarray):
            yield x
        elif isinstance(x, types.FunctionType):
            yield from closure_arrays(x)


def make_story(n_sentences: int = 4, n_summary: int = 2, tag: str = "x") -> StoryDoc:
    article = [f"sentence {tag} number {i} here." for i in range(n_sentences)]
    summary = [f"sentence {tag} number {i} here." for i in range(n_summary)]
    return StoryDoc(id=tag, article_sentences=article, summary_sentences=summary)


def synthetic_example(
    rng: np.random.Generator,
    vocab_size: int = 40,
    n_sentences: int = 3,
    sent_len: int = 5,
    tgt_len: int = 6,
    cls_id: int = 2,
    sep_id: int = 3,
    bos_id: int = 5,
    eos_id: int = 6,
) -> TokenizedExample:
    """Random model-ready example with well-formed [CLS]/[SEP] structure."""
    src, segs, clss = [], [], []
    for s in range(n_sentences):
        clss.append(len(src))
        body = rng.integers(7, vocab_size, sent_len - 2).tolist()
        src.extend([cls_id] + body + [sep_id])
        segs.extend([s % 2] * sent_len)
    labels = rng.integers(0, 2, n_sentences).tolist()
    tgt = [bos_id] + rng.integers(7, vocab_size, tgt_len - 2).tolist() + [eos_id]
    sentences = [f"sent {i} word{rng.integers(0, 9)}" for i in range(n_sentences)]
    return TokenizedExample(
        src_ids=src,
        segment_ids=segs,
        cls_positions=clss,
        ext_labels=labels,
        tgt_ids=tgt,
        src_txt=sentences,
        tgt_txt=["ref summary"],
    )
