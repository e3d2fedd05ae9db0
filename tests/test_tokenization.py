"""WordPiece, source encoding, oracle labels, shards, and id decoding."""

from __future__ import annotations

import collections
import random
import unicodedata

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SPECIALS, make_vocab, small_vocab_factory, synthetic_example
from sumforge.errors import (
    CorruptShard,
    DuplicateToken,
    IdOutOfRange,
    MissingSpecial,
    TooLong,
)
from sumforge.ingest import StoryDoc
from sumforge.rouge import rouge_n, rouge_tokenize
from sumforge.tokenization import (
    TokenizedExample,
    Vocab,
    basic_tokenize,
    decode_ids,
    encode_example,
    encode_source,
    load_vocab,
    oracle_labels,
    read_shards,
    wordpiece,
    write_shards,
)


class TestVocab:
    def test_line_index_is_id(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\na\n", encoding="utf-8")
        vocab = load_vocab(path)
        assert vocab.id("a") == 5
        assert vocab.pad_id == 0
        assert vocab.cls_id == 2

    def test_duplicate_token(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\na\na\n", encoding="utf-8")
        with pytest.raises(DuplicateToken):
            load_vocab(path)

    def test_missing_special(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[PAD]\n[UNK]\n[SEP]\n[MASK]\na\n", encoding="utf-8")
        with pytest.raises(MissingSpecial, match=r"\[CLS\]"):
            load_vocab(path)

    def test_trailing_blank_line_ignored(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\n\n", encoding="utf-8")
        assert len(load_vocab(path)) == 5

    def test_bos_eos_from_unused_slots(self):
        vocab = make_vocab(["a"])
        assert vocab.bos_id == vocab.id("[unused0]")
        assert vocab.eos_id == vocab.id("[unused1]")

    def test_bos_missing_when_no_unused_slot(self):
        vocab = Vocab(["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "a"])
        with pytest.raises(MissingSpecial):
            vocab.bos_id

    def test_special_ids_cover_all_specials(self):
        vocab = make_vocab(["a"])
        assert vocab.special_ids() == {vocab.id(t) for t in SPECIALS}

    def test_contains(self):
        vocab = make_vocab(["a"])
        assert "a" in vocab
        assert "z" not in vocab


class TestBasicTokenize:
    def test_arabic_sentence(self):
        assert basic_tokenize("ذهب الولد.") == ["ذهب", "الولد", "."]

    def test_punctuation_isolated(self):
        assert basic_tokenize("a,b") == ["a", ",", "b"]

    def test_empty(self):
        assert basic_tokenize("") == []

    def test_no_case_folding(self):
        assert basic_tokenize("AbC dEf") == ["AbC", "dEf"]

    def test_consecutive_punctuation(self):
        assert basic_tokenize("a!?b") == ["a", "!", "?", "b"]

    def test_whitespace_only(self):
        assert basic_tokenize(" \t\n ") == []

    @given(st.text(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_lossless_modulo_whitespace(self, text):
        tokens = basic_tokenize(text)
        assert "".join(tokens) == "".join(ch for ch in text if not ch.isspace())

    @given(st.text(max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_punctuation_stands_alone(self, text):
        import unicodedata

        for token in basic_tokenize(text):
            is_punct = [unicodedata.category(c).startswith("P") for c in token]
            if any(is_punct):
                assert len(token) == 1


class TestWordpiece:
    def test_greedy_continuations(self):
        vocab = make_vocab(["a", "##b"])
        assert wordpiece("abb", vocab) == ["a", "##b", "##b"]

    def test_whole_word_hit(self):
        vocab = make_vocab(["a"])
        assert wordpiece("a", vocab) == ["a"]

    def test_unmatched_word_falls_back_to_unk(self):
        vocab = make_vocab(["a", "##b"])
        assert wordpiece("zq", vocab) == ["[UNK]"]

    def test_mid_word_failure_discards_partial_match(self):
        # "a" matches but "##z" has no prefix match, so the whole word is UNK.
        vocab = make_vocab(["a", "##b"])
        assert wordpiece("az", vocab) == ["[UNK]"]

    def test_longest_prefix_wins(self):
        vocab = make_vocab(["a", "ab", "##b", "##c"])
        assert wordpiece("abc", vocab) == ["ab", "##c"]

    def test_real_word_split(self):
        vocab = make_vocab(["un", "##aff", "##able"])
        assert wordpiece("unaffable", vocab) == ["un", "##aff", "##able"]

    def test_overlong_word_is_unk(self):
        vocab = make_vocab(["a", "##a"])
        assert wordpiece("a" * 201, vocab) == ["[UNK]"]
        # Exactly at the limit the normal algorithm still runs.
        assert wordpiece("a" * 200, vocab) == ["a"] + ["##a"] * 199

    def test_length_limit_boundary(self):
        vocab = make_vocab(["aa", "##a"])
        assert wordpiece("aaa", vocab, max_word_chars=3) == ["aa", "##a"]
        assert wordpiece("aaaa", vocab, max_word_chars=3) == ["[UNK]"]

    @given(st.text(alphabet="abc", min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_pieces_reassemble_or_unk(self, word):
        vocab = make_vocab(["a", "b", "##a", "##b", "##c"])
        pieces = wordpiece(word, vocab)
        if pieces == ["[UNK]"]:
            return
        assert not pieces[0].startswith("##")
        assert all(p.startswith("##") for p in pieces[1:])
        rebuilt = pieces[0] + "".join(p[2:] for p in pieces[1:])
        assert rebuilt == word


def _reference_encode_source(sentences, vocab, max_positions):
    """encode_source before the per-vocabulary memo: basic_tokenize over the
    whole sentence, then wordpiece per word, then ids."""
    src_ids, segment_ids, cls_positions, kept = [], [], [], []
    for i, sentence in enumerate(sentences):
        sentence = unicodedata.normalize("NFC", sentence)
        pieces = [p for word in basic_tokenize(sentence) for p in wordpiece(word, vocab)]
        piece_ids = [vocab.ids.get(p, vocab.unk_id) for p in pieces]
        block = [vocab.cls_id] + piece_ids + [vocab.sep_id]
        if len(src_ids) + len(block) > max_positions:
            if i == 0:
                raise TooLong(f"first sentence needs {len(block)} positions, limit {max_positions}")
            break
        cls_positions.append(len(src_ids))
        src_ids.extend(block)
        segment_ids.extend([i % 2] * len(block))
        kept.append(sentence)
    return src_ids, segment_ids, cls_positions, kept


# Fragments glued with no separator, so chunks mix words, ## pieces, Arabic
# punctuation and every kind of whitespace str.split() must agree with
# isspace() on (U+001C, NEL, NBSP, THIN SPACE, IDEOGRAPHIC SPACE).
_FRAGMENTS = ["the", "cat", "un", "aff", "able", "s", "zz", "ذهب", "الولد", "؟", "،", ".",
              " ", "\x1c", "\x85", "\xa0", "\u2009", "\u3000"]


class TestEncodeSource:
    @given(
        st.lists(st.lists(st.sampled_from(_FRAGMENTS), max_size=12).map("".join),
                 min_size=1, max_size=4),
        st.integers(min_value=2, max_value=40),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_character_path_and_memo_is_stable(self, sentences, max_positions):
        vocab = small_vocab_factory()
        try:
            expected = _reference_encode_source(sentences, vocab, max_positions)
        except TooLong:
            with pytest.raises(TooLong):
                encode_source(sentences, vocab, max_positions)
            return
        assert encode_source(sentences, vocab, max_positions) == expected
        # The second call reads every chunk from the memo.
        assert encode_source(sentences, vocab, max_positions) == expected

    def test_memo_is_per_vocabulary(self):
        first, second = make_vocab(["cat", "."]), make_vocab(["dog", "cat"])
        for vocab in (first, second, first):
            assert encode_source(["cat."], vocab, 16) == _reference_encode_source(["cat."], vocab, 16)

    def test_two_single_token_sentences(self, small_vocab):
        src, segs, clss, kept = encode_source(["cat", "dog"], small_vocab, 32)
        cls, sep = small_vocab.cls_id, small_vocab.sep_id
        assert src == [cls, small_vocab.id("cat"), sep, cls, small_vocab.id("dog"), sep]
        assert segs == [0, 0, 0, 1, 1, 1]
        assert clss == [0, 3]
        assert kept == ["cat", "dog"]

    def test_single_sentence_all_segment_zero(self, small_vocab):
        _, segs, _, _ = encode_source(["the cat sat"], small_vocab, 32)
        assert set(segs) == {0}

    def test_first_sentence_too_long(self, small_vocab):
        with pytest.raises(TooLong, match="first sentence"):
            encode_source(["the cat sat"], small_vocab, 3)

    def test_truncation_at_sentence_boundary(self, small_vocab):
        # Blocks are 3 tokens each; a 7-position budget keeps exactly two.
        src, segs, clss, kept = encode_source(["cat", "dog", "mat"], small_vocab, 7)
        assert kept == ["cat", "dog"]
        assert len(src) == 6
        assert clss == [0, 3]

    def test_truncation_drops_everything_after_misfit(self, small_vocab):
        # Second sentence is too big for the remaining budget, so the third
        # (which would fit) is dropped too.
        src, _, _, kept = encode_source(
            ["cat", "the cat sat on mat", "dog"], small_vocab, 9
        )
        assert kept == ["cat"]
        assert len(src) == 3

    def test_unknown_words_map_to_unk(self, small_vocab):
        src, _, _, _ = encode_source(["zzz"], small_vocab, 32)
        assert src == [small_vocab.cls_id, small_vocab.unk_id, small_vocab.sep_id]

    @given(
        st.lists(
            st.lists(
                st.sampled_from(["the", "cat", "sat", "dog", "ran", "rain"]),
                min_size=1,
                max_size=4,
            ).map(" ".join),
            min_size=1,
            max_size=6,
        ),
        st.integers(min_value=8, max_value=40),
    )
    @settings(max_examples=200, deadline=None)
    def test_fuzz_structural_invariants(self, sentences, max_positions):
        vocab = small_vocab_factory()
        try:
            src, segs, clss, kept = encode_source(sentences, vocab, max_positions)
        except TooLong:
            return
        assert len(src) == len(segs) <= max_positions
        cls = vocab.cls_id
        assert [p for p, t in enumerate(src) if t == cls] == clss
        assert len(clss) == len(kept) >= 1
        for i in range(len(clss)):
            end = clss[i + 1] if i + 1 < len(clss) else len(src)
            assert set(segs[clss[i] : end]) == {i % 2}
        assert all(0 <= t < len(vocab) for t in src)


class TestEncodeExample:
    def _doc(self, article, summary, tag="d1"):
        return StoryDoc(id=tag, article_sentences=article, summary_sentences=summary)

    def test_full_example_alignment(self, small_vocab):
        doc = self._doc(["the cat sat.", "rain fell.", "a dog ran."], ["rain fell."])
        ex = encode_example(doc, small_vocab, 64, 16)
        assert len(ex.ext_labels) == len(ex.cls_positions) == 3
        assert ex.ext_labels == [0, 1, 0]
        assert ex.src_txt == doc.article_sentences
        assert ex.tgt_txt == doc.summary_sentences

    def test_target_has_bos_and_eos(self, small_vocab):
        doc = self._doc(["the cat sat."], ["the cat."])
        ex = encode_example(doc, small_vocab, 64, 16)
        assert ex.tgt_ids[0] == small_vocab.bos_id
        assert ex.tgt_ids[-1] == small_vocab.eos_id
        inner = [small_vocab.tokens[i] for i in ex.tgt_ids[1:-1]]
        assert inner == ["the", "cat", "."]

    def test_target_truncated_with_eos_last(self, small_vocab):
        doc = self._doc(["the cat sat."], ["the cat sat on the mat all night."])
        ex = encode_example(doc, small_vocab, 64, max_tgt_len=4)
        assert len(ex.tgt_ids) == 4
        assert ex.tgt_ids[0] == small_vocab.bos_id
        assert ex.tgt_ids[-1] == small_vocab.eos_id

    def test_labels_sliced_to_kept_sentences(self, small_vocab):
        # Oracle would pick the last sentence, but truncation drops it.
        doc = self._doc(["the cat sat.", "a dog ran.", "rain fell all night."], ["rain fell all night."])
        ex = encode_example(doc, small_vocab, 12, 16)
        assert len(ex.src_txt) == 2
        assert len(ex.ext_labels) == len(ex.cls_positions) == 2

    def test_too_long_first_sentence(self, small_vocab):
        doc = self._doc(["the cat sat on the mat."], ["the cat."])
        with pytest.raises(TooLong):
            encode_example(doc, small_vocab, 4, 16)


class _SimpleRouge:
    """Independent ROUGE built on collections.Counter, for oracle cross-checks."""

    @staticmethod
    def f1(cand: list[str], ref: list[str], n: int) -> float:
        def grams(toks):
            return collections.Counter(
                tuple(toks[i : i + n]) for i in range(len(toks) - n + 1)
            )

        c, r = grams(cand), grams(ref)
        overlap = sum(min(v, r[k]) for k, v in c.items())
        tc, tr = sum(c.values()), sum(r.values())
        if tc == 0 or tr == 0:
            return 0.0
        p, rec = overlap / tc, overlap / tr
        return 0.0 if p + rec == 0.0 else 2.0 * p * rec / (p + rec)


def _reference_oracle(article: list[str], summary: list[str], max_select: int) -> list[int]:
    """Greedy label oracle re-derived from scratch (lowercase ASCII input only)."""
    ref = " ".join(summary).split()
    sents = [s.split() for s in article]
    chosen: list[int] = []
    best = 0.0
    while len(chosen) < max_select:
        pick = -1
        for i in range(len(sents)):
            if i in chosen:
                continue
            joined: list[str] = []
            for j in sorted(chosen + [i]):
                joined.extend(sents[j])
            score = _SimpleRouge.f1(joined, ref, 1) + _SimpleRouge.f1(joined, ref, 2)
            if score > best:
                best = score
                pick = i
        if pick < 0:
            break
        chosen.append(pick)
    return [1 if i in chosen else 0 for i in range(len(article))]


def _rescoring_oracle_labels(
    article_sentences,
    summary_sentences,
    max_select: int = 3,
) -> list[int]:
    """oracle_labels as it was before the incremental counts, verbatim: it
    rescores the concatenated candidate set with rouge_n for every candidate."""
    ref_tokens = rouge_tokenize(" ".join(summary_sentences))
    sent_tokens = [rouge_tokenize(s) for s in article_sentences]

    selected: list[int] = []
    best_score = 0.0
    while len(selected) < max_select:
        best_idx = -1
        for i in range(len(article_sentences)):
            if i in selected:
                continue
            cand: list[str] = []
            for j in sorted(selected + [i]):
                cand.extend(sent_tokens[j])
            score = rouge_n(cand, ref_tokens, 1).f1 + rouge_n(cand, ref_tokens, 2).f1
            if score > best_score:
                best_score = score
                best_idx = i
        if best_idx < 0:
            break
        selected.append(best_idx)

    return [1 if i in selected else 0 for i in range(len(article_sentences))]


# Few distinct words, so words repeat within and across sentences: clipping
# and the bigrams across sentence boundaries decide many selections.
_ORACLE_WORDS = ["aa", "bb", "cc", "AA", "Bb", "ذهب", "الولد", "12", "7"]
_sentence = st.one_of(
    st.lists(st.sampled_from(_ORACLE_WORDS + [",", "؟"]), min_size=1, max_size=7).map(" ".join),
    st.sampled_from([".", "!", "؟ ،", "..."]),  # no ROUGE tokens at all
)


class TestOracleLabels:
    @given(
        st.lists(_sentence, min_size=1, max_size=8),
        st.lists(_sentence, min_size=1, max_size=3),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=500, deadline=None)
    def test_matches_rescoring_oracle(self, article, summary, max_select):
        assert oracle_labels(article, summary, max_select) == _rescoring_oracle_labels(
            article, summary, max_select
        )

    def test_verbatim_sentence_selected(self):
        article = ["aa bb", "cc dd ee", "ff gg"]
        assert oracle_labels(article, ["cc dd ee"]) == [0, 1, 0]

    def test_disjoint_pair_selected(self):
        article = ["aa bb", "cc dd", "ee ff"]
        summary = ["aa bb ee ff"]
        assert oracle_labels(article, [" ".join(summary)]) == [1, 0, 1]

    def test_no_overlap_all_zeros(self):
        article = ["aa bb", "cc dd"]
        assert oracle_labels(article, ["xx yy zz"]) == [0, 0]

    def test_max_select_cap(self):
        article = ["aa", "bb", "cc", "dd"]
        summary = ["aa bb cc dd"]
        labels = oracle_labels(article, summary, max_select=2)
        assert sum(labels) == 2

    def test_tie_goes_to_lower_index(self):
        article = ["aa bb", "aa bb"]
        labels = oracle_labels(article, ["aa bb"], max_select=1)
        assert labels == [1, 0]

    def test_matches_independent_reimplementation(self):
        pool = ["aa", "bb", "cc", "dd", "ee", "ff", "gg"]
        rng = random.Random(20240817)
        for _ in range(150):
            n_sent = rng.randint(1, 6)
            article = [
                " ".join(rng.choices(pool, k=rng.randint(1, 5))) for _ in range(n_sent)
            ]
            summary = [" ".join(rng.choices(pool, k=rng.randint(1, 8)))]
            max_select = rng.randint(1, 3)
            assert oracle_labels(article, summary, max_select) == _reference_oracle(
                article, summary, max_select
            ), (article, summary, max_select)

    def test_greedy_score_sequence_strictly_increasing(self):
        article = ["aa bb cc", "dd ee", "aa ff", "gg bb"]
        summary = ["aa bb cc dd ee ff"]
        labels = oracle_labels(article, summary, max_select=3)
        chosen = [i for i, b in enumerate(labels) if b]
        ref = rouge_tokenize(" ".join(summary))
        # Replay greedy prefixes in selection order and confirm improvement.
        order: list[int] = []
        prev = 0.0
        remaining = set(chosen)
        while remaining:
            scored = []
            for i in sorted(remaining):
                cand: list[str] = []
                for j in sorted(order + [i]):
                    cand.extend(rouge_tokenize(article[j]))
                s = rouge_n(cand, ref, 1).f1 + rouge_n(cand, ref, 2).f1
                scored.append((s, -i))
            s, neg_i = max(scored)
            assert s > prev
            prev = s
            order.append(-neg_i)
            remaining.discard(-neg_i)


class TestShards:
    def _examples(self, n: int, seed: int = 7) -> list[TokenizedExample]:
        rng = np.random.default_rng(seed)
        return [synthetic_example(rng) for _ in range(n)]

    def test_round_trip_exact(self, tmp_path):
        examples = self._examples(5)
        assert write_shards(examples, tmp_path, shard_size=2) == 3
        assert read_shards(tmp_path) == examples

    def test_shard_naming_and_sizes(self, tmp_path):
        write_shards(self._examples(10), tmp_path, shard_size=4)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["shard_0.jsonl", "shard_1.jsonl", "shard_2.jsonl"]
        counts = [len((tmp_path / n).read_text().splitlines()) for n in names]
        assert counts == [4, 4, 2]

    def test_zero_examples_zero_shards(self, tmp_path):
        assert write_shards([], tmp_path) == 0
        assert read_shards(tmp_path) == []

    def test_single_example_single_shard(self, tmp_path):
        assert write_shards(self._examples(1), tmp_path) == 1
        assert len((tmp_path / "shard_0.jsonl").read_text().splitlines()) == 1

    def test_order_preserved_across_many_shards(self, tmp_path):
        # More than ten shards so lexicographic file order would be wrong.
        examples = self._examples(23)
        write_shards(examples, tmp_path, shard_size=2)
        assert read_shards(tmp_path) == examples

    def test_corrupt_json_line(self, tmp_path):
        write_shards(self._examples(2), tmp_path, shard_size=2)
        path = tmp_path / "shard_0.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorruptShard):
            read_shards(tmp_path)

    def test_missing_key(self, tmp_path):
        write_shards(self._examples(1), tmp_path)
        path = tmp_path / "shard_0.jsonl"
        import json

        record = json.loads(path.read_text())
        del record["clss"]
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(CorruptShard, match="clss"):
            read_shards(tmp_path)

    def test_bad_shard_size(self, tmp_path):
        with pytest.raises(ValueError):
            write_shards([], tmp_path, shard_size=0)

    def test_unicode_text_survives(self, tmp_path, small_vocab):
        doc = StoryDoc(
            id="ar",
            article_sentences=["ذهب الولد إلى المدرسة."],
            summary_sentences=["ذهب الولد."],
        )
        ex = encode_example(doc, small_vocab, 32, 16)
        write_shards([ex], tmp_path)
        assert read_shards(tmp_path) == [ex]


class TestDecodeIds:
    def test_continuations_joined(self):
        vocab = make_vocab(["a", "##b"])
        ids = [vocab.id("a"), vocab.id("##b"), vocab.id("##b")]
        assert decode_ids(ids, vocab) == "abb"

    def test_specials_dropped(self):
        vocab = make_vocab(["a"])
        assert decode_ids([vocab.bos_id, vocab.id("a"), vocab.eos_id], vocab) == "a"

    def test_id_out_of_range(self):
        vocab = make_vocab(["a"])
        with pytest.raises(IdOutOfRange):
            decode_ids([len(vocab)], vocab)
        with pytest.raises(IdOutOfRange):
            decode_ids([-1], vocab)

    def test_leading_continuation_has_no_anchor(self):
        vocab = make_vocab(["##b"])
        assert decode_ids([vocab.id("##b")], vocab) == "b"

    def test_words_space_joined(self):
        vocab = make_vocab(["the", "cat", "."])
        ids = [vocab.id("the"), vocab.id("cat"), vocab.id(".")]
        assert decode_ids(ids, vocab) == "the cat ."

    def test_round_trip_through_encoding(self, small_vocab):
        # In-vocab text comes back modulo punctuation spacing.
        text = "the cat sat on the mat."
        src, _, _, _ = encode_source([text], small_vocab, 64)
        decoded = decode_ids(src, small_vocab)
        assert decoded == " ".join(basic_tokenize(text))

    @given(
        st.lists(
            st.sampled_from(["the", "cat", "dog", "rain", "un", ".", "!"]),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_fuzz_encode_decode_round_trip(self, words):
        vocab = small_vocab_factory()
        text = " ".join(words)
        src, _, _, _ = encode_source([text], vocab, 128)
        assert decode_ids(src, vocab) == " ".join(basic_tokenize(text))
