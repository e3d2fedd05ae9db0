"""ROUGE-1/2/L scoring and corpus-level evaluation.

Scores are computed on token sequences produced by rouge_tokenize: maximal
runs of Unicode letters/digits, ASCII letters lowercased, everything else a
separator. No stemming, no stopword removal.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .errors import EmptyCorpus, LengthMismatch

_ASCII_UPPER = str.maketrans(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZ", "abcdefghijklmnopqrstuvwxyz"
)
# A word character that is not "_": exactly the code points whose Unicode
# category is L* or N* (tests/test_rouge.py checks every code point).
_TOKEN_RE = re.compile(r"[^\W_]+")


@dataclass(frozen=True)
class RougeScore:
    precision: float
    recall: float
    f1: float

    @staticmethod
    def from_counts(overlap: float, cand_total: int, ref_total: int) -> "RougeScore":
        p = overlap / cand_total if cand_total > 0 else 0.0
        r = overlap / ref_total if ref_total > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        return RougeScore(p, r, f)


def rouge_tokenize(text: str) -> list[str]:
    """Split text into metric tokens: runs of letters/digits, ASCII lowercased."""
    return [t.translate(_ASCII_UPPER) for t in _TOKEN_RE.findall(text)]


def _ngrams(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def rouge_n(candidate: Sequence[str], reference: Sequence[str], n: int) -> RougeScore:
    """Clipped n-gram overlap precision/recall/F1 (n is 1 or 2)."""
    if n not in (1, 2):
        raise ValueError(f"rouge_n supports n in {{1, 2}}, got {n}")
    cand = _ngrams(candidate, n)
    ref = _ngrams(reference, n)
    overlap = sum(min(cand[g], ref[g]) for g in cand if g in ref)
    return RougeScore.from_counts(
        overlap, sum(cand.values()), sum(ref.values())
    )


def lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    """Longest common subsequence length via the classic DP, O(|a|*|b|)."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            if x == y:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> RougeScore:
    """LCS-based precision/recall/F1; either side empty scores zero."""
    lcs = lcs_length(candidate, reference)
    return RougeScore.from_counts(lcs, len(candidate), len(reference))


@dataclass(frozen=True)
class CorpusScores:
    rouge1: RougeScore
    rouge2: RougeScore
    rougeL: RougeScore


def _score_pair(cand_tokens: list[str], ref_tokens: list[str]) -> CorpusScores:
    return CorpusScores(
        rouge1=rouge_n(cand_tokens, ref_tokens, 1),
        rouge2=rouge_n(cand_tokens, ref_tokens, 2),
        rougeL=rouge_l(cand_tokens, ref_tokens),
    )


def _mean(scores: list[RougeScore]) -> RougeScore:
    n = len(scores)
    return RougeScore(
        sum(s.precision for s in scores) / n,
        sum(s.recall for s in scores) / n,
        sum(s.f1 for s in scores) / n,
    )


def evaluate_corpus(
    predictions: Sequence[str],
    references: Sequence[str | Sequence[str]],
    max_over_references: bool = False,
) -> CorpusScores:
    """Average ROUGE-1/2/L over aligned prediction/reference pairs.

    With max_over_references, a reference entry may be a list of alternatives;
    the one with the best ROUGE-1 F1 against the prediction is scored. Off by
    default: our corpora carry a single summary per document.
    """
    if len(predictions) != len(references):
        raise LengthMismatch(
            f"{len(predictions)} predictions vs {len(references)} references"
        )
    if not predictions:
        raise EmptyCorpus("no documents to evaluate")

    per_doc: list[CorpusScores] = []
    for pred, ref in zip(predictions, references):
        cand_tokens = rouge_tokenize(pred)
        if max_over_references and not isinstance(ref, str):
            alternatives = [_score_pair(cand_tokens, rouge_tokenize(r)) for r in ref]
            per_doc.append(max(alternatives, key=lambda s: s.rouge1.f1))
        else:
            if not isinstance(ref, str):
                raise LengthMismatch(
                    "reference lists require max_over_references=True"
                )
            per_doc.append(_score_pair(cand_tokens, rouge_tokenize(ref)))

    return CorpusScores(
        rouge1=_mean([d.rouge1 for d in per_doc]),
        rouge2=_mean([d.rouge2 for d in per_doc]),
        rougeL=_mean([d.rougeL for d in per_doc]),
    )


def format_score_table(scores: CorpusScores) -> str:
    """Fixed-format table, rows R1/R2/RL, columns P/R/F1, percent, 2 decimals."""
    lines = [f"{'':<4}{'P':>8}{'R':>8}{'F1':>8}"]
    for name, s in (("R1", scores.rouge1), ("R2", scores.rouge2), ("RL", scores.rougeL)):
        lines.append(
            f"{name:<4}{100 * s.precision:>8.2f}{100 * s.recall:>8.2f}{100 * s.f1:>8.2f}"
        )
    return "\n".join(lines)
