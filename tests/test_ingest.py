"""Corpus ingestion: transcoding, story parsing, sentence splitting, pairing."""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumforge.errors import (
    EmptyArticle,
    InvalidUtf8,
    MissingSummary,
    UnpairedFile,
    UnsupportedEncoding,
)
from sumforge.ingest import (
    StoryDoc,
    ingest_corpus,
    parse_story,
    read_story_dir,
    split_sentences,
    transcode,
    write_story,
)

# Format characters (category Cf) that show nothing: zero-width space,
# non-joiner and joiner, word joiner, byte-order mark.
ZERO_WIDTH = ["\u200b", "\u200c", "\u200d", "\u2060", "\ufeff"]


class TestTranscode:
    def test_windows_1256_golden_vector(self):
        assert transcode(bytes([0xC7, 0xE1]), "windows-1256") == "ال"

    def test_ascii_passthrough(self):
        assert transcode(b"abc", "windows-1256") == "abc"

    def test_unsupported_encoding(self):
        with pytest.raises(UnsupportedEncoding):
            transcode(bytes([0xC7]), "koi8-r")

    def test_latin_1_total(self):
        text = transcode(bytes(range(256)), "latin-1")
        assert len(text) == 256
        assert text[0xE9] == "é"

    def test_utf8_validates(self):
        assert transcode("ذهب".encode("utf-8"), "utf-8") == "ذهب"
        with pytest.raises(InvalidUtf8):
            transcode(b"\xc3\x28", "utf-8")

    def test_alias_names(self):
        assert transcode(b"a", "cp1256") == "a"
        assert transcode(b"a", "iso-8859-1") == "a"
        assert transcode(b"a", "utf8") == "a"

    def test_windows_1256_total_on_all_bytes(self):
        text = transcode(bytes(range(256)), "windows-1256")
        assert len(text) == 256
        text.encode("utf-8")  # never emits invalid UTF-8

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64), st.sampled_from(["windows-1256", "latin-1"]))
    def test_fuzz_single_byte_totality(self, data, name):
        out = transcode(data, name)
        assert len(out) == len(data)
        out.encode("utf-8")


def _reference_split_sentences(text: str) -> list[str]:
    """The per-character splitter that split_sentences replaced."""
    terminators = frozenset(".!?؟؛۔")
    sentences: list[str] = []
    start = 0
    n = len(text)
    for i, ch in enumerate(text):
        if ch in terminators and (i + 1 == n or text[i + 1].isspace()):
            seg = text[start : i + 1].strip()
            if seg:
                sentences.append(seg)
            start = i + 1
    tail = text[start:].strip()
    if tail:
        sentences.append(tail)
    return sentences


class TestSplitSentences:
    @settings(max_examples=500, deadline=None)
    @given(
        st.text(
            # Terminators, other punctuation, and whitespace beyond ASCII
            # (U+001C, NEL, NBSP, U+2028, ideographic space).
            alphabet=st.sampled_from(list("ab ذ.!?؟؛۔،:\t\n\x1c\x85\xa0\u2028\u3000")),
            max_size=80,
        )
    )
    def test_matches_character_loop(self, text):
        assert split_sentences(text) == _reference_split_sentences(text)

    def test_arabic_two_sentences(self):
        assert split_sentences("ذهب الولد. رجع الولد.") == [
            "ذهب الولد.",
            "رجع الولد.",
        ]

    def test_mixed_terminators(self):
        assert split_sentences("Hello! How? Yes.") == ["Hello!", "How?", "Yes."]

    def test_no_terminator_whole_text(self):
        assert split_sentences("no terminator here") == ["no terminator here"]

    def test_terminator_without_space_does_not_split(self):
        assert split_sentences("v1.2 is out. ok.") == ["v1.2 is out.", "ok."]

    def test_arabic_question_mark(self):
        assert split_sentences("كيف حالك؟ بخير.") == ["كيف حالك؟", "بخير."]

    def test_empty_segments_dropped(self):
        assert split_sentences("A.  .  B.") == ["A.", ".", "B."]
        assert split_sentences("") == []

    @pytest.mark.parametrize("char", ZERO_WIDTH, ids=ascii)
    def test_zero_width_segments_dropped(self, char):
        assert split_sentences(f"A. {char} {char}") == ["A."]
        assert split_sentences(f"{char}. {char}") == [f"{char}."]
        assert split_sentences(char) == []

    @settings(max_examples=300, deadline=None)
    @given(
        st.text(
            alphabet=st.sampled_from(list("ab .!?؟؛۔\t\n")),
            max_size=60,
        )
    )
    def test_fuzz_no_characters_lost_or_invented(self, text):
        joined = " ".join(split_sentences(text))
        strip = lambda s: re.sub(r"\s+", "", s)
        assert strip(joined) == strip(text)


class TestParseStory:
    def test_basic(self):
        doc = parse_story("A. B.\n\n@highlight\n\nS")
        assert doc.article_sentences == ["A.", "B."]
        assert doc.summary_sentences == ["S"]

    def test_multiple_highlights_in_order(self):
        doc = parse_story("A.\n@highlight\nX\n@highlight\nY")
        assert doc.summary_sentences == ["X", "Y"]

    def test_no_body_is_empty_article(self):
        with pytest.raises(EmptyArticle):
            parse_story("@highlight\nS")

    def test_no_marker_is_missing_summary(self):
        with pytest.raises(MissingSummary):
            parse_story("Just a body.")

    @pytest.mark.parametrize("char", ZERO_WIDTH, ids=ascii)
    def test_zero_width_only_highlight_is_missing_summary(self, char):
        with pytest.raises(MissingSummary, match="only empty highlight blocks"):
            parse_story(f"A.\n\n@highlight\n\n{char}\n\n@highlight\n\n {char}{char} ", "d")

    @pytest.mark.parametrize("char", ZERO_WIDTH, ids=ascii)
    def test_zero_width_only_article_is_empty_article(self, char):
        with pytest.raises(EmptyArticle, match="no article text"):
            parse_story(f"{char}\n {char}\n\n@highlight\n\nS", "d")

    def test_inner_zero_width_non_joiner_is_kept(self):
        sentence = "ذهب الولد إلى المدرسة\u200cمساءً."
        doc = parse_story(f"{sentence}\n\n@highlight\n\n{sentence}")
        assert doc.article_sentences == doc.summary_sentences == [sentence]
        assert parse_story(write_story(doc)) == doc

    def test_marker_must_be_its_own_line(self):
        with pytest.raises(MissingSummary):
            parse_story("Body mentioning @highlight inline.")

    def test_write_story_format(self):
        text = write_story(StoryDoc("d", ["A."], ["S"]))
        assert text == "A.\n\n@highlight\n\nS"

    def test_three_highlights_three_markers(self):
        text = write_story(StoryDoc("d", ["A."], ["X", "Y", "Z"]))
        assert text.count("@highlight") == 3

    def test_round_trip_fixture(self):
        doc = StoryDoc("d", ["First one.", "Second one."], ["Short summary."])
        again = parse_story(write_story(doc))
        assert again.article_sentences == doc.article_sentences
        assert again.summary_sentences == doc.summary_sentences


_sentence_body = st.text(
    alphabet=st.sampled_from(list("abc ولد ذهب")), min_size=1, max_size=20
).filter(lambda s: s.strip() and "@" not in s)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_sentence_body, min_size=1, max_size=5),
    st.lists(_sentence_body, min_size=1, max_size=4),
)
def test_fuzz_story_round_trip(bodies, summaries):
    # Give every sentence a terminator so splitting is the identity on it.
    article = [" ".join(b.split()) + "." for b in bodies]
    summary = [" ".join(s.split()) + "." for s in summaries]
    doc = StoryDoc("d", article, summary)
    again = parse_story(write_story(doc))
    assert again.article_sentences == article
    assert again.summary_sentences == summary


class TestStoryDocInvariants:
    def test_empty_article_rejected(self):
        with pytest.raises(EmptyArticle):
            StoryDoc("d", [], ["S"])

    def test_empty_summary_rejected(self):
        with pytest.raises(MissingSummary):
            StoryDoc("d", ["A."], [])

    def test_blank_sentence_rejected(self):
        with pytest.raises(EmptyArticle):
            StoryDoc("d", ["  "], ["S"])

    @pytest.mark.parametrize("char", ZERO_WIDTH, ids=ascii)
    def test_zero_width_sentence_rejected(self, char):
        for article, summary in (([f" {char}"], ["S"]), (["A."], [char + char])):
            with pytest.raises(EmptyArticle, match="blank sentence"):
                StoryDoc("d", article, summary)


class TestIngestCorpus:
    def _write_pair(self, root, rel, body, summary, encoding="windows-1256"):
        art = root / f"{rel}.txt"
        art.parent.mkdir(parents=True, exist_ok=True)
        art.write_bytes(body.encode("cp1256"))
        (root / f"{rel}.sum.txt").write_bytes(summary.encode("cp1256"))

    def test_two_paired_files(self, tmp_path):
        raw, out = tmp_path / "raw", tmp_path / "out"
        self._write_pair(raw, "sport/a", "ذهب الولد.", "ذهب.")
        self._write_pair(raw, "sport/b", "Second body.", "Second.")
        count = ingest_corpus(raw, "windows-1256", out)
        assert count == 2
        stories = sorted(p.name for p in out.glob("*.story"))
        assert stories == ["sport__a.story", "sport__b.story"]
        manifest = (out / "manifest.csv").read_text(encoding="utf-8")
        assert manifest.splitlines()[0] == "id,category,article_path,summary_path"
        assert len(manifest.splitlines()) == 3

    def test_unpaired_file_names_id(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "lonely.txt").write_bytes(b"body.")
        with pytest.raises(UnpairedFile, match="lonely"):
            ingest_corpus(raw, "windows-1256", tmp_path / "out")

    def test_summary_without_article_is_unpaired(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "x.sum.txt").write_bytes(b"summary.")
        with pytest.raises(UnpairedFile):
            ingest_corpus(raw, "windows-1256", tmp_path / "out")

    def test_empty_dir_zero_docs(self, tmp_path):
        raw = tmp_path / "raw"
        raw.mkdir()
        assert ingest_corpus(raw, "windows-1256", tmp_path / "out") == 0
        manifest = (tmp_path / "out" / "manifest.csv").read_text("utf-8")
        assert manifest.splitlines() == ["id,category,article_path,summary_path"]

    def test_deterministic_bytes(self, tmp_path):
        raw = tmp_path / "raw"
        self._write_pair(raw, "econ/z", "متن واحد.", "ملخص.")
        self._write_pair(raw, "econ/a", "Another body here.", "Sum.")
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        ingest_corpus(raw, "windows-1256", out1)
        ingest_corpus(raw, "windows-1256", out2)
        files1 = sorted(p.name for p in out1.iterdir())
        assert files1 == sorted(p.name for p in out2.iterdir())
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_category_from_directory(self, tmp_path):
        raw, out = tmp_path / "raw", tmp_path / "out"
        self._write_pair(raw, "culture/doc", "Body text.", "Summary.")
        ingest_corpus(raw, "windows-1256", out)
        manifest = (out / "manifest.csv").read_text("utf-8")
        assert "culture" in manifest

    def test_read_story_dir_round_trip(self, tmp_path):
        raw, out = tmp_path / "raw", tmp_path / "out"
        self._write_pair(raw, "s/a", "One here. Two here.", "One here.")
        ingest_corpus(raw, "windows-1256", out)
        docs = read_story_dir(out)
        assert len(docs) == 1
        assert docs[0].article_sentences == ["One here.", "Two here."]
        assert docs[0].summary_sentences == ["One here."]
