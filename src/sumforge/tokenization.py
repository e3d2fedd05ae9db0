"""WordPiece tokenization and model-ready example encoding.

Input encoding follows the per-sentence scheme: every sentence is wrapped as
[CLS] tokens... [SEP], sentences alternate segment ids 0/1, and the
extractive head reads one score per [CLS] position. Targets are BOS-prefixed
and EOS-terminated, with the decoder sequence tokens reusing the [unused0] /
[unused1] vocabulary slots.
"""

from __future__ import annotations

import bisect
import json
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import (
    CorruptShard,
    DuplicateToken,
    IdOutOfRange,
    MissingSpecial,
    TooLong,
)
from .ingest import StoryDoc
# rouge_n stays bound here because perfbench/tracer.py wraps
# tokenization.rouge_n; the oracle itself no longer calls it.
from .rouge import RougeScore, rouge_n, rouge_tokenize  # noqa: F401

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
CLS_TOKEN = "[CLS]"
SEP_TOKEN = "[SEP]"
MASK_TOKEN = "[MASK]"
BOS_TOKEN = "[unused0]"  # target begin-of-sequence
EOS_TOKEN = "[unused1]"  # target end-of-sequence

_REQUIRED_SPECIALS = (PAD_TOKEN, UNK_TOKEN, CLS_TOKEN, SEP_TOKEN, MASK_TOKEN)


class Vocab:
    """Token table where the id of a token is its line index.

    It also memoises the piece ids of every whitespace-separated chunk it
    has tokenized (see _sentence_ids); the memo lives as long as the vocab.
    """

    def __init__(self, tokens: Sequence[str]):
        self.tokens = list(tokens)
        self.chunk_ids: dict[str, list[int]] = {}
        self.ids: dict[str, int] = {}
        for i, tok in enumerate(self.tokens):
            if tok in self.ids:
                raise DuplicateToken(f"token {tok!r} appears more than once")
            self.ids[tok] = i
        for name in _REQUIRED_SPECIALS:
            if name not in self.ids:
                raise MissingSpecial(name)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.ids

    def id(self, token: str) -> int:
        return self.ids[token]

    @property
    def pad_id(self) -> int:
        return self.ids[PAD_TOKEN]

    @property
    def unk_id(self) -> int:
        return self.ids[UNK_TOKEN]

    @property
    def cls_id(self) -> int:
        return self.ids[CLS_TOKEN]

    @property
    def sep_id(self) -> int:
        return self.ids[SEP_TOKEN]

    @property
    def mask_id(self) -> int:
        return self.ids[MASK_TOKEN]

    @property
    def bos_id(self) -> int:
        if BOS_TOKEN not in self.ids:
            raise MissingSpecial(BOS_TOKEN)
        return self.ids[BOS_TOKEN]

    @property
    def eos_id(self) -> int:
        if EOS_TOKEN not in self.ids:
            raise MissingSpecial(EOS_TOKEN)
        return self.ids[EOS_TOKEN]

    def special_ids(self) -> set[int]:
        ids = {self.ids[t] for t in _REQUIRED_SPECIALS}
        for t in (BOS_TOKEN, EOS_TOKEN):
            if t in self.ids:
                ids.add(self.ids[t])
        return ids


def load_vocab(path: Path | str) -> Vocab:
    """Read a one-token-per-line UTF-8 vocabulary file."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    # A trailing blank line is file formatting, not an empty token.
    if lines and lines[-1] == "":
        lines = lines[:-1]
    return Vocab([line.rstrip("\n") for line in lines])


def basic_tokenize(text: str) -> list[str]:
    """Split on whitespace and isolate every punctuation character.

    No case folding and no diacritic stripping; Arabic text passes through
    untouched apart from the splits.
    """
    tokens: list[str] = []
    run: list[str] = []
    for ch in text:
        if ch.isspace():
            if run:
                tokens.append("".join(run))
                run = []
        elif unicodedata.category(ch).startswith("P"):
            if run:
                tokens.append("".join(run))
                run = []
            tokens.append(ch)
        else:
            run.append(ch)
    if run:
        tokens.append("".join(run))
    return tokens


def wordpiece(word: str, vocab: Vocab, max_word_chars: int = 200) -> list[str]:
    """Greedy longest-match-first subword split with ## continuations.

    A word that cannot be fully matched (or is longer than max_word_chars)
    becomes a single [UNK].
    """
    if len(word) > max_word_chars:
        return [UNK_TOKEN]
    pieces: list[str] = []
    start = 0
    while start < len(word):
        end = len(word)
        found = None
        while start < end:
            piece = word[start:end]
            if start > 0:
                piece = "##" + piece
            if piece in vocab:
                found = piece
                break
            end -= 1
        if found is None:
            return [UNK_TOKEN]
        pieces.append(found)
        start = end
    return pieces


@dataclass
class TokenizedExample:
    """Model-ready record for one document."""

    src_ids: list[int]
    segment_ids: list[int]
    cls_positions: list[int]
    ext_labels: list[int]
    tgt_ids: list[int]
    src_txt: list[str]
    tgt_txt: list[str]


def _sentence_ids(sentence: str, vocab: Vocab) -> list[int]:
    """Piece ids of basic_tokenize + wordpiece, one whitespace chunk at a time.

    str.split() splits on exactly the isspace() characters, and none of them
    is a letter, digit or punctuation, so tokenizing chunk by chunk gives the
    same pieces as tokenizing the whole sentence. The returned lists are
    shared with the memo and must not be mutated.
    """
    memo = vocab.chunk_ids
    ids: list[int] = []
    for chunk in sentence.split():
        chunk_ids = memo.get(chunk)
        if chunk_ids is None:
            chunk_ids = memo[chunk] = [
                vocab.ids[p] for word in basic_tokenize(chunk) for p in wordpiece(word, vocab)
            ]
        ids.extend(chunk_ids)
    return ids


def encode_source(
    sentences: Sequence[str], vocab: Vocab, max_positions: int
) -> tuple[list[int], list[int], list[int], list[str]]:
    """Encode article sentences as [CLS] w.. [SEP] blocks with interval segments.

    Truncates at a sentence boundary: a sentence that does not fully fit
    within max_positions is dropped together with everything after it.
    Returns (src_ids, segment_ids, cls_positions, kept_sentences).
    """
    src_ids: list[int] = []
    segment_ids: list[int] = []
    cls_positions: list[int] = []
    kept: list[str] = []
    for i, sentence in enumerate(sentences):
        sentence = unicodedata.normalize("NFC", sentence)
        block = [vocab.cls_id, *_sentence_ids(sentence, vocab), vocab.sep_id]
        if len(src_ids) + len(block) > max_positions:
            if i == 0:
                raise TooLong(
                    f"first sentence needs {len(block)} positions, limit {max_positions}"
                )
            break
        cls_positions.append(len(src_ids))
        src_ids.extend(block)
        segment_ids.extend([i % 2] * len(block))
        kept.append(sentence)
    return src_ids, segment_ids, cls_positions, kept


def encode_example(
    doc: StoryDoc,
    vocab: Vocab,
    max_positions: int,
    max_tgt_len: int,
    max_select: int = 3,
) -> TokenizedExample:
    """Turn a StoryDoc into a TokenizedExample with oracle extractive labels."""
    article = [unicodedata.normalize("NFC", s) for s in doc.article_sentences]
    src_ids, segment_ids, cls_positions, kept = encode_source(
        article, vocab, max_positions
    )

    summary = [unicodedata.normalize("NFC", s) for s in doc.summary_sentences]
    labels = oracle_labels(article, summary, max_select)[: len(kept)]

    tgt_ids = [vocab.bos_id]
    for sentence in summary:
        tgt_ids.extend(_sentence_ids(sentence, vocab))
    tgt_ids = tgt_ids[: max_tgt_len - 1]
    tgt_ids.append(vocab.eos_id)

    return TokenizedExample(
        src_ids=src_ids,
        segment_ids=segment_ids,
        cls_positions=cls_positions,
        ext_labels=labels,
        tgt_ids=tgt_ids,
        src_txt=kept,
        tgt_txt=summary,
    )


def oracle_labels(
    article_sentences: Sequence[str],
    summary_sentences: Sequence[str],
    max_select: int = 3,
) -> list[int]:
    """Greedy extractive oracle.

    Repeatedly add the sentence that most improves ROUGE-1 F1 + ROUGE-2 F1 of
    the selected set against the joined summary; stop when nothing strictly
    improves the score or max_select is reached. Ties go to the lower index.

    Each sentence is tokenized and counted once, keeping only the n-grams
    found in the reference; a candidate is scored from running counts of the
    selected set. The selected sentences are scored as one text in index
    order, so the bigram across two neighbouring selected sentences (that
    have tokens) counts too. The scores are the same floats rouge_n gives on
    that text.
    """
    ref_tokens = rouge_tokenize(" ".join(summary_sentences))
    ref1 = Counter(ref_tokens)
    ref2 = Counter(zip(ref_tokens, ref_tokens[1:]))
    ref_total1, ref_total2 = len(ref_tokens), max(0, len(ref_tokens) - 1)

    sent_tokens = [rouge_tokenize(s) for s in article_sentences]
    uni = [Counter(t for t in toks if t in ref1) for toks in sent_tokens]
    bi = [Counter(g for g in zip(toks, toks[1:]) if g in ref2) for toks in sent_tokens]

    def gain(counts: Counter, ref: Counter, delta: dict) -> int:
        # Change in clipped overlap when delta's counts are added.
        out = 0
        for g, d in delta.items():
            r = ref.get(g)
            if r is not None:
                c = counts.get(g, 0)
                new = c + d
                out += (new if new < r else r) - (c if c < r else r)
        return out

    def bigram_delta(i: int) -> dict:
        # i's own bigrams plus the boundary bigrams it adds and removes
        # between its nearest selected neighbours that have tokens.
        toks = sent_tokens[i]
        if not toks or not bounded:
            return bi[i]
        delta = dict(bi[i])
        k = bisect.bisect(bounded, i)
        prev_tok = sent_tokens[bounded[k - 1]][-1] if k > 0 else None
        next_tok = sent_tokens[bounded[k]][0] if k < len(bounded) else None
        for g, d in (((prev_tok, toks[0]), 1), ((toks[-1], next_tok), 1), ((prev_tok, next_tok), -1)):
            if None not in g:
                delta[g] = delta.get(g, 0) + d
        return delta

    selected: list[int] = []
    bounded: list[int] = []  # selected indices with tokens, sorted
    sel1: Counter = Counter()
    sel2: Counter = Counter()
    overlap1 = overlap2 = total = 0
    best_score = 0.0
    while len(selected) < max_select:
        best_idx = -1
        for i in range(len(article_sentences)):
            if i in selected:
                continue
            n = total + len(sent_tokens[i])
            o1 = overlap1 + gain(sel1, ref1, uni[i])
            o2 = overlap2 + gain(sel2, ref2, bigram_delta(i))
            score = (
                RougeScore.from_counts(o1, n, ref_total1).f1
                + RougeScore.from_counts(o2, max(0, n - 1), ref_total2).f1
            )
            if score > best_score:
                best_score = score
                best_idx = i
        if best_idx < 0:
            break
        delta2 = bigram_delta(best_idx)
        overlap1 += gain(sel1, ref1, uni[best_idx])
        overlap2 += gain(sel2, ref2, delta2)
        total += len(sent_tokens[best_idx])
        sel1.update(uni[best_idx])
        sel2.update(delta2)
        selected.append(best_idx)
        if sent_tokens[best_idx]:
            bisect.insort(bounded, best_idx)

    return [1 if i in selected else 0 for i in range(len(article_sentences))]


_SHARD_RE = re.compile(r"^shard_(\d+)\.jsonl$")
_SHARD_KEYS = ("src", "segs", "clss", "labels", "tgt", "src_txt", "tgt_txt")


def write_shards(
    examples: Iterable[TokenizedExample],
    out_dir: Path | str,
    shard_size: int = 2000,
) -> int:
    """Write examples to shard_<k>.jsonl files of shard_size lines each.

    Order-preserving; the last shard may be short. Returns the shard count.
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    shard_count = 0
    fh = None
    lines_in_shard = 0
    try:
        for ex in examples:
            if fh is None or lines_in_shard == shard_size:
                if fh is not None:
                    fh.close()
                fh = open(out_dir / f"shard_{shard_count}.jsonl", "w", encoding="utf-8")
                shard_count += 1
                lines_in_shard = 0
            record = {
                "src": ex.src_ids,
                "segs": ex.segment_ids,
                "clss": ex.cls_positions,
                "labels": ex.ext_labels,
                "tgt": ex.tgt_ids,
                "src_txt": ex.src_txt,
                "tgt_txt": ex.tgt_txt,
            }
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")
            lines_in_shard += 1
    finally:
        if fh is not None:
            fh.close()
    return shard_count


def read_shards(shard_dir: Path | str) -> list[TokenizedExample]:
    """Read back every shard in numeric order; exact inverse of write_shards."""
    shard_dir = Path(shard_dir)
    paths = []
    for path in shard_dir.iterdir():
        m = _SHARD_RE.match(path.name)
        if m:
            paths.append((int(m.group(1)), path))
    examples: list[TokenizedExample] = []
    for _, path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise CorruptShard(str(path), line_no, str(exc)) from exc
                if not all(k in record for k in _SHARD_KEYS):
                    missing = [k for k in _SHARD_KEYS if k not in record]
                    raise CorruptShard(str(path), line_no, f"missing keys {missing}")
                examples.append(
                    TokenizedExample(
                        src_ids=record["src"],
                        segment_ids=record["segs"],
                        cls_positions=record["clss"],
                        ext_labels=record["labels"],
                        tgt_ids=record["tgt"],
                        src_txt=record["src_txt"],
                        tgt_txt=record["tgt_txt"],
                    )
                )
    return examples


def decode_ids(ids: Sequence[int], vocab: Vocab) -> str:
    """Render token ids as text: specials dropped, ## continuations joined."""
    specials = vocab.special_ids()
    words: list[str] = []
    for i in ids:
        if not 0 <= i < len(vocab):
            raise IdOutOfRange(f"id {i} outside vocabulary of size {len(vocab)}")
        if i in specials:
            continue
        token = vocab.tokens[i]
        if token.startswith("##") and words:
            words[-1] += token[2:]
        else:
            words.append(token[2:] if token.startswith("##") else token)
    return " ".join(words)
