"""Corpus ingestion: legacy-encoded raw files to UTF-8 story documents.

A story file is the article body followed by one
"\\n\\n@highlight\\n\\n<sentence>" block per summary sentence. Raw corpora
arrive as <id>.txt / <id>.sum.txt pairs (optionally nested one directory
deep by category) in a legacy single-byte encoding.
"""

from __future__ import annotations

import csv
import json
import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from .atomic import atomic_write
from .errors import (
    EmptyArticle, InvalidUtf8, MissingSummary, OutputNotEmpty, UnpairedFile, UnsupportedEncoding,
)

# Canonical name -> python codec. Only these are supported; windows-1256 is
# the de facto Arabic legacy code page, latin-1 kept for mixed archives.
_ENCODINGS = {
    "windows-1256": "cp1256",
    "cp1256": "cp1256",
    "latin-1": "latin-1",
    "latin1": "latin-1",
    "iso-8859-1": "latin-1",
    "utf-8": "utf-8",
    "utf8": "utf-8",
}

HIGHLIGHT_MARKER = "@highlight"

# Sentence terminators: ASCII . ! ? plus Arabic question mark, Arabic
# semicolon, and the Urdu full stop; one ends a sentence when whitespace or
# the end of the text follows it.
_SENTENCE_END_RE = re.compile(r"[.!?؟؛۔](?=\s|\Z)")

_WS_RE = re.compile(r"\s+")


def _blank(text: str) -> bool:
    """Whether text holds only whitespace and format characters (category
    Cf: zero-width spaces and joiners, the word joiner, the BOM). It stops
    at the first other character, so a letter first costs one lookup."""
    return all(c.isspace() or unicodedata.category(c) == "Cf" for c in text)


@dataclass(frozen=True)
class StoryDoc:
    """One article as ordered sentences plus its reference summary sentences."""

    id: str
    article_sentences: list[str]
    summary_sentences: list[str]

    def __post_init__(self) -> None:
        if not self.article_sentences:
            raise EmptyArticle(f"story {self.id!r} has no article sentences")
        if not self.summary_sentences:
            raise MissingSummary(f"story {self.id!r} has no summary sentences")
        if any(_blank(s) for s in self.article_sentences + self.summary_sentences):
            raise EmptyArticle(f"story {self.id!r} contains a blank sentence")


def transcode(data: bytes, encoding_name: str, name: Path | str = "input") -> str:
    """Decode raw bytes from a supported encoding to a UTF-8 string.

    Single-byte encodings map byte-by-byte through their published tables;
    "utf-8" validates and passes through, line endings untouched. Bytes that
    are not UTF-8 raise InvalidUtf8 naming `name`, as `decode_utf8` does.
    """
    codec = _ENCODINGS.get(encoding_name.lower())
    if codec is None:
        raise UnsupportedEncoding(encoding_name)
    if codec == "utf-8":
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _invalid_utf8(data, exc, name) from exc
    return data.decode(codec)


def _invalid_utf8(data: bytes, exc: UnicodeDecodeError, name: Path | str) -> InvalidUtf8:
    line = data.count(b"\n", 0, exc.start) + 1
    return InvalidUtf8(f"{name}: line {line}: invalid UTF-8 at byte {exc.start}")


def decode_utf8(data: bytes, name: Path | str) -> str:
    """UTF-8 bytes as text, with "\\r\\n" and "\\r" read as "\\n" as
    `Path.read_text` reads them. Bytes that are not UTF-8 raise InvalidUtf8
    naming `name`, the line and the offset of the first bad byte."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _invalid_utf8(data, exc, name) from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_utf8(path: Path | str) -> str:
    """A UTF-8 text file, read as `decode_utf8` reads bytes."""
    return decode_utf8(Path(path).read_bytes(), path)


def read_jsonl(path: Path | str, error: Callable[[str, int, str], Exception]) -> Iterator[tuple[int, dict]]:
    """The (line number, object) records of a JSON-lines file; blank lines
    are skipped. Lines end at "\\n" only: a JSON string may hold a raw
    U+2028, U+2029 or U+0085, where `str.splitlines` would cut it. A line
    that is not a JSON object raises error(path, line number, reason)."""
    for line_no, line in enumerate(read_utf8(path).split("\n"), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        # ValueError: JSONDecodeError, or an integer past int's 4,300-digit limit.
        except (ValueError, RecursionError) as exc:
            raise error(str(path), line_no, f"invalid JSON: {exc}") from exc
        if not isinstance(record, dict):
            raise error(str(path), line_no, "record is not a JSON object")
        yield line_no, record


def split_sentences(text: str) -> list[str]:
    """Rule-based sentence splitter.

    Splits after a terminator character followed by whitespace or end of
    text; the terminator stays attached to its sentence. A text without any
    terminator is a single sentence. Blank segments (`_blank`) are dropped.
    """
    ends = [m.end() for m in _SENTENCE_END_RE.finditer(text)] + [len(text)]
    segments = (text[start:end].strip() for start, end in zip([0] + ends, ends))
    return [seg for seg in segments if not _blank(seg)]


def parse_story(text: str, doc_id: str = "") -> StoryDoc:
    """Parse a story file: article body, then @highlight summary blocks."""
    lines = text.split("\n")
    marker_idx = [i for i, line in enumerate(lines) if line.strip() == HIGHLIGHT_MARKER]
    if not marker_idx:
        raise MissingSummary(f"no {HIGHLIGHT_MARKER} marker in story {doc_id!r}")

    body = "\n".join(lines[: marker_idx[0]])
    body = _WS_RE.sub(" ", body).strip()
    if _blank(body):
        raise EmptyArticle(f"no article text before first marker in story {doc_id!r}")

    summary: list[str] = []
    bounds = marker_idx + [len(lines)]
    for lo, hi in zip(bounds, bounds[1:]):
        block = _WS_RE.sub(" ", " ".join(lines[lo + 1 : hi])).strip()
        if not _blank(block):
            summary.append(block)
    if not summary:
        raise MissingSummary(f"only empty highlight blocks in story {doc_id!r}")

    return StoryDoc(
        id=doc_id,
        article_sentences=split_sentences(body),
        summary_sentences=summary,
    )


def write_story(doc: StoryDoc) -> str:
    """Render a StoryDoc to story-file text; inverse of parse_story."""
    parts = [" ".join(doc.article_sentences)]
    for sentence in doc.summary_sentences:
        parts.append(f"\n\n{HIGHLIGHT_MARKER}\n\n{sentence}")
    return "".join(parts)


def _pair_raw_files(input_dir: Path) -> list[tuple[str, str, Path, Path]]:
    """Collect (id, category, article, summary) tuples, sorted by id."""
    articles: dict[str, Path] = {}
    summaries: dict[str, Path] = {}
    for path in sorted(input_dir.rglob("*.txt")):
        rel = path.relative_to(input_dir).as_posix()
        if path.name.endswith(".sum.txt"):
            summaries[rel[: -len(".sum.txt")]] = path
        else:
            articles[rel[: -len(".txt")]] = path

    pairs = []
    for key in sorted(set(articles) | set(summaries)):
        doc_id = key.replace("/", "__")
        if key not in articles or key not in summaries:
            raise UnpairedFile(doc_id)
        rel_parent = articles[key].parent.relative_to(input_dir)
        category = rel_parent.as_posix() if rel_parent != Path(".") else "uncategorized"
        pairs.append((doc_id, category, articles[key], summaries[key]))
    return sorted(pairs)


def ingest_corpus(input_dir: Path | str, encoding_name: str, out_dir: Path | str) -> int:
    """Convert a raw paired corpus into story files plus a CSV manifest.

    Emits one UTF-8 <id>.story per article into out_dir and a manifest.csv
    audit file (id, category, article_path, summary_path), both in
    lexicographic id order. Returns the number of stories written.

    All or nothing: an out_dir that already holds stories or a manifest is
    refused, every pair is decoded and checked before the first file is
    written, and a failed write removes the stories written before it.
    """
    input_dir = Path(input_dir)
    out_dir = Path(out_dir)
    if not input_dir.is_dir():
        raise FileNotFoundError(f"input directory not found: {input_dir}")
    stale = sorted(p.name for p in out_dir.glob("*.story"))
    if (out_dir / "manifest.csv").exists():
        stale.append("manifest.csv")
    if stale:
        raise OutputNotEmpty(f"{out_dir} already holds {len(stale)} converted files, first {stale[0]}")

    docs, rows = [], []
    for doc_id, category, article_path, summary_path in _pair_raw_files(input_dir):
        body = transcode(article_path.read_bytes(), encoding_name, article_path)
        summary_text = transcode(summary_path.read_bytes(), encoding_name, summary_path)
        article_sentences = split_sentences(_WS_RE.sub(" ", body).strip())
        summary_sentences = split_sentences(_WS_RE.sub(" ", summary_text).strip())
        docs.append(StoryDoc(doc_id, article_sentences, summary_sentences))
        rows.append(
            (doc_id, category, str(article_path.relative_to(input_dir)),
             str(summary_path.relative_to(input_dir)))
        )

    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        for doc in docs:
            path = out_dir / f"{doc.id}.story"
            with atomic_write(path, encoding="utf-8") as fh:
                fh.write(write_story(doc))
            written.append(path)
        with atomic_write(out_dir / "manifest.csv", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "category", "article_path", "summary_path"])
            writer.writerows(rows)
    except BaseException:
        for path in written:
            path.unlink()
        raise
    return len(rows)


def read_story_dir(stories_dir: Path | str) -> list[StoryDoc]:
    """Load every *.story file in a directory, sorted by id."""
    stories_dir = Path(stories_dir)
    docs = []
    for path in sorted(stories_dir.glob("*.story")):
        docs.append(parse_story(read_utf8(path), doc_id=path.stem))
    return docs
