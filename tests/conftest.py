"""Shared fixtures: tiny vocabularies, synthetic documents, and small models;
and the references that only tests read: summing and negating ops, the
finite-difference gradient check, and teacher-forced logits and accuracy."""

from __future__ import annotations

import importlib.util
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from sumforge import cli
from sumforge import tensor as T
from sumforge.ingest import StoryDoc
from sumforge.model import AbstractiveModel, ModelConfig
from sumforge.tensor import Tensor
from sumforge.tokenization import TokenizedExample, Vocab
from sumforge.train import make_abs_batch

_spec = importlib.util.spec_from_file_location(
    "step_peak", Path(__file__).resolve().parent.parent / "tools" / "step_peak.py"
)
step_peak = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_peak)
# The tape walk of tools/step_peak.py, which the tests' closure checks share.
buffer, closure_arrays, graph_vertices = step_peak.buffer, step_peak.closure_arrays, step_peak.graph_vertices

@pytest.fixture(scope="session", autouse=True)
def subnormals_kept():
    """The tests run with subnormals kept, at the session's start and end.
    numpy loads above before `sumforge.cli`, so the CLI leaves the MXCSR
    mode alone; with FTZ|DAZ set, Hypothesis refuses float strategies and
    the float32 subnormals some bit tests build would read as zero."""
    assert (cli._mxcsr() or 0) & cli.FTZ_DAZ == 0
    yield
    assert (cli._mxcsr() or 0) & cli.FTZ_DAZ == 0


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


# --- references: reductions, negation, transposition, the finite-difference check, and
# teacher-forced logits and accuracy ---

def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.shape

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, shape).copy(),)

    return T._make(data, (a,), backward)


def tensor_mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.shape[axis]
    return T.mul(tensor_sum(a, axis=axis, keepdims=keepdims), 1.0 / count)


def neg(a: Tensor) -> Tensor:
    return T._make(-a.data, (a,), lambda g: (-g,))


def transpose(a: Tensor) -> Tensor:
    """Swap the last two axes: a permute, the op the tied head's table
    takes."""
    lead = tuple(range(a.data.ndim - 2))
    return T.permute(a, (*lead, a.data.ndim - 1, a.data.ndim - 2))


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
    T.backward(f(params))
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


def forward_logits(
    model: AbstractiveModel,
    src_ids: np.ndarray,
    segment_ids: np.ndarray,
    src_pad_mask: np.ndarray,
    tgt_ids: np.ndarray,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Next-token logits [B, T, vocab] from gold prefixes."""
    hidden = model.encode(src_ids, segment_ids, src_pad_mask, train, rng)
    return model.vocab_logits(model.decode_teacher_forced(hidden, tgt_ids, src_pad_mask, train, rng))


@T.no_grad()
def teacher_forced_accuracy(
    model: AbstractiveModel,
    examples: list[TokenizedExample],
    pad_id: int,
    batch_size: int = 8,
) -> float:
    """Fraction of non-pad target tokens predicted by argmax of the logits."""
    hits = 0
    total = 0
    for lo in range(0, len(examples), batch_size):
        batch = make_abs_batch(examples[lo : lo + batch_size], pad_id)
        logits = forward_logits(model, batch.src, batch.segs, batch.pad_mask, batch.tgt)
        pred = logits.data[:, :-1, :].argmax(axis=-1)
        gold = batch.tgt[:, 1:]
        real = ~batch.tgt_pad_mask[:, 1:]
        hits += int((pred[real] == gold[real]).sum())
        total += int(real.sum())
    return hits / total if total else 0.0
