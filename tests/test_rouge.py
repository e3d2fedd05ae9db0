"""ROUGE scoring: hand-derived fixtures, a brute-force LCS oracle, and
fuzzed metric properties."""

from __future__ import annotations

import itertools
import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumforge.errors import EmptyCorpus, LengthMismatch
from sumforge.rouge import (
    RougeScore,
    evaluate_corpus,
    format_score_table,
    lcs_length,
    rouge_l,
    rouge_n,
    rouge_tokenize,
)


def brute_force_lcs(a: list[str], b: list[str]) -> int:
    """Independent oracle: enumerate every subsequence of the shorter side."""
    short, long_ = (a, b) if len(a) <= len(b) else (b, a)
    best = 0
    for r in range(len(short), 0, -1):
        for combo in itertools.combinations(short, r):
            it = iter(long_)
            if all(tok in it for tok in combo):
                best = r
                break
        if best:
            break
    return best


def _reference_tokenize(text: str) -> list[str]:
    """Per-character tokenizer on unicodedata.category: runs of L*/N* code
    points, ASCII lowercased."""
    tokens: list[str] = []
    run: list[str] = []
    for ch in text:
        if unicodedata.category(ch)[0] in ("L", "N"):
            run.append(ch.lower() if "A" <= ch <= "Z" else ch)
        elif run:
            tokens.append("".join(run))
            run = []
    if run:
        tokens.append("".join(run))
    return tokens


class TestTokenize:
    @pytest.mark.parametrize("template", ["{}", "a{}B"], ids=["alone", "between_letters"])
    def test_every_code_point_matches_category_reference(self, template):
        # Space-joined, each item tokenizes on its own, so one call per
        # block covers every code point of the block.
        block = 0x1000
        for start in range(0, 0x110000, block):
            text = " ".join(template.format(chr(c)) for c in range(start, start + block))
            assert rouge_tokenize(text) == _reference_tokenize(text), hex(start)

    def test_arabic_punctuation_dropped(self):
        assert rouge_tokenize("ذهب الولد.") == ["ذهب", "الولد"]

    def test_ascii_lowercased(self):
        assert rouge_tokenize("The cat") == ["the", "cat"]

    def test_empty(self):
        assert rouge_tokenize("") == []

    def test_digits_kept_in_runs(self):
        assert rouge_tokenize("a1b, c-2") == ["a1b", "c", "2"]

    def test_arabic_not_case_folded(self):
        # Arabic has no case; the text must pass through untouched.
        assert rouge_tokenize("المدرسة") == ["المدرسة"]

    def test_mixed_separators(self):
        assert rouge_tokenize("one,two!!three؟four") == ["one", "two", "three", "four"]


class TestRougeN:
    def test_two_thirds_fixture(self):
        s = rouge_n("the cat sat".split(), "the cat ran".split(), 1)
        assert s.precision == pytest.approx(2 / 3, abs=1e-9)
        assert s.recall == pytest.approx(2 / 3, abs=1e-9)
        assert s.f1 == pytest.approx(2 / 3, abs=1e-9)

    def test_identical_is_one(self):
        s = rouge_n("a b c".split(), "a b c".split(), 1)
        assert (s.precision, s.recall, s.f1) == (1.0, 1.0, 1.0)

    def test_bigram_half_fixture(self):
        s = rouge_n("a b c".split(), "a b d".split(), 2)
        assert s.f1 == pytest.approx(0.5, abs=1e-9)

    def test_clipping_counts_repeats_once_per_reference_copy(self):
        # candidate repeats "a" three times, reference has it once.
        s = rouge_n(["a", "a", "a"], ["a", "b"], 1)
        assert s.precision == pytest.approx(1 / 3)
        assert s.recall == pytest.approx(1 / 2)

    def test_empty_candidate_zero(self):
        s = rouge_n([], ["a"], 1)
        assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)

    def test_n_out_of_range(self):
        with pytest.raises(ValueError):
            rouge_n(["a"], ["a"], 3)

    def test_too_short_for_bigrams_zero(self):
        s = rouge_n(["a"], ["a"], 2)
        assert s.f1 == 0.0


class TestRougeL:
    def test_three_quarters_fixture(self):
        s = rouge_l("a b c d".split(), "a c b d".split())
        assert s.f1 == pytest.approx(0.75, abs=1e-9)

    def test_identical(self):
        assert rouge_l(["x", "y"], ["x", "y"]).f1 == 1.0

    def test_disjoint(self):
        assert rouge_l(["a", "b"], ["c", "d"]).f1 == 0.0

    def test_empty_side_zero(self):
        assert rouge_l([], ["a"]).f1 == 0.0
        assert rouge_l(["a"], []).f1 == 0.0

    def test_dp_matches_brute_force_200_pairs(self):
        rng = random.Random(20240817)
        alphabet = ["a", "b", "c", "d", "e"]
        for _ in range(200):
            a = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
            b = [rng.choice(alphabet) for _ in range(rng.randint(0, 8))]
            assert lcs_length(a, b) == brute_force_lcs(a, b)


class TestEvaluateCorpus:
    def test_single_pair_equals_pair_score(self):
        corpus = evaluate_corpus(["the cat sat"], ["the cat ran"])
        pair = rouge_n(["the", "cat", "sat"], ["the", "cat", "ran"], 1)
        assert corpus.rouge1 == pair

    def test_mean_of_zero_and_one(self):
        corpus = evaluate_corpus(["a b", "x y"], ["a b", "p q"])
        assert corpus.rouge1.f1 == pytest.approx(0.5)
        assert corpus.rougeL.f1 == pytest.approx(0.5)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            evaluate_corpus(["a"], ["a", "b"])

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            evaluate_corpus([], [])


class TestFormatTable:
    def test_identical_prints_hundreds(self):
        table = format_score_table(evaluate_corpus(["a b c"], ["a b c"]))
        lines = table.splitlines()
        assert lines[0].split() == ["P", "R", "F1"]
        for row in lines[1:]:
            assert row.split()[1:] == ["100.00", "100.00", "100.00"]

    def test_two_decimal_percent(self):
        table = format_score_table(
            evaluate_corpus(["the cat sat"], ["the cat ran"])
        )
        assert "66.67" in table


token_lists = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), max_size=8)
texts = st.text(
    alphabet=st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=40
)


@settings(max_examples=300, deadline=None)
@given(token_lists, token_lists)
def test_fuzz_swap_symmetry(a, b):
    for score_ab, score_ba in (
        (rouge_n(a, b, 1), rouge_n(b, a, 1)),
        (rouge_n(a, b, 2), rouge_n(b, a, 2)),
        (rouge_l(a, b), rouge_l(b, a)),
    ):
        assert score_ab.precision == pytest.approx(score_ba.recall, abs=1e-12)
        assert score_ab.f1 == pytest.approx(score_ba.f1, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(token_lists, token_lists)
def test_fuzz_bounds(a, b):
    for s in (rouge_n(a, b, 1), rouge_n(a, b, 2), rouge_l(a, b)):
        assert 0.0 <= s.precision <= 1.0
        assert 0.0 <= s.recall <= 1.0
        assert 0.0 <= s.f1 <= 1.0


@settings(max_examples=200, deadline=None)
@given(token_lists.filter(lambda t: len(t) >= 2))
def test_fuzz_self_score_is_one(a):
    assert rouge_l(a, a).f1 == pytest.approx(1.0)
    assert rouge_n(a, a, 1).f1 == pytest.approx(1.0)
    assert rouge_n(a, a, 2).f1 == pytest.approx(1.0)


@settings(max_examples=200, deadline=None)
@given(token_lists.filter(lambda t: len(t) >= 1), token_lists)
def test_fuzz_adding_reference_token_never_lowers_recall(ref, cand):
    before = rouge_n(cand, ref, 1).recall
    after = rouge_n(cand + [ref[0]], ref, 1).recall
    assert after >= before - 1e-12


@settings(max_examples=200, deadline=None)
@given(texts, texts)
def test_fuzz_tokenize_then_score_total(a, b):
    # Any unicode text is scoreable; outputs stay in bounds.
    s = rouge_l(rouge_tokenize(a), rouge_tokenize(b))
    assert 0.0 <= s.f1 <= 1.0


def test_from_counts_zero_denominators():
    assert RougeScore.from_counts(0, 0, 0) == RougeScore(0.0, 0.0, 0.0)
