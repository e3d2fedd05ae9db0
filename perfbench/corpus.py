"""Seeded synthetic corpora in the raw layout `sumforge convert` reads.

A corpus is `<out>/raw/<category>/<id>.txt` + `<id>.sum.txt` pairs in a
legacy single-byte encoding, plus a wordpiece vocabulary file. Every byte is
a pure function of (spec, seed), so two set-ups with one seed are identical.

Words are drawn Zipf-style from a seeded lexicon. A share of the word tokens
are compounds (stem + suffix) that are not vocabulary entries, so they are
reachable only through `##` pieces; a few tokens are digit runs, which the
vocabulary does not cover and which therefore become `[UNK]`. Three sentences
of each article carry a cue word and form its reference summary verbatim
(without full stops, if `summary_stops` is off, which makes the summary one
highlight), so the extractive task is learnable and ROUGE stays comparable
across seeds.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from pathlib import Path

SPECIALS = ["[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]", "[unused0]", "[unused1]"]

_LETTERS = {
    "en": ("bcdfghjklmnprstvwz", "aeiouéèàüöñç"),
    "ar": ("بتثجحخدذرزسشصضطظعغفقكلمنهي", "اوىةأإآؤئء"),
}
_SUFFIXES = {
    "en": ["ment", "ing", "ness", "ed", "er", "ly", "ité", "ión", "s", "ful",
           "ous", "ive", "ize", "ant", "ure", "age", "ist", "ary", "ent", "ism"],
    "ar": ["ون", "ين", "ات", "ية", "ها", "هم", "كم", "نا", "تم", "وا",
           "ان", "تين", "يات", "ته", "هن", "كما", "ني", "ي", "ك", "ه"],
}
_CUE = {"en": "notably", "ar": "خلاصة"}
_CATEGORIES = ("news", "sport", "culture", "economy")
SUMMARY_SENTENCES = 3
COMPOUND_FRAC = 0.2  # share of word tokens that are stem + suffix compounds
DIGIT_FRAC = 0.01  # share of word tokens that are digit runs


@dataclass(frozen=True)
class CorpusSpec:
    lang: str  # "en" or "ar"
    encoding: str  # the encoding name passed to `sumforge convert`
    docs: int
    sentences: int  # article sentences per document
    words: int  # mean words per sentence
    vocab_words: int  # whole-word vocabulary entries
    summary_stops: bool = True  # keep the full stops of summary sentences


def _lexicon(rng: random.Random, lang: str, n: int) -> list[str]:
    consonants, vowels = _LETTERS[lang]
    seen: set[str] = {_CUE[lang]}
    words: list[str] = []
    while len(words) < n:
        length = rng.choice((1, 2, 2, 3, 3, 4))
        word = "".join(rng.choice(consonants) + rng.choice(vowels) for _ in range(length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


class _WordSampler:
    def __init__(self, rng: random.Random, spec: CorpusSpec, lexicon: list[str]):
        self.rng = rng
        self.spec = spec
        self.lexicon = lexicon
        self.cum_weights = list(itertools.accumulate(1.0 / (rank + 10) for rank in range(len(lexicon))))
        self.vocab = set(lexicon)
        self.suffixes = _SUFFIXES[spec.lang]

    def word(self) -> str:
        rng = self.rng
        u = rng.random()
        if u < DIGIT_FRAC:
            return str(rng.randrange(10, 10000))
        stem = rng.choices(self.lexicon, cum_weights=self.cum_weights)[0]
        if u < DIGIT_FRAC + COMPOUND_FRAC:
            compound = stem + rng.choice(self.suffixes)
            if compound not in self.vocab:
                return compound
        return stem

    def sentence(self, cue: str | None) -> str:
        n = max(4, self.spec.words + self.rng.randint(-3, 3))
        words = [self.word() for _ in range(n)]
        if cue is not None:
            words[self.rng.randrange(n)] = cue
        return " ".join(words) + "."


def write_corpus(spec: CorpusSpec, seed: int, out: Path) -> dict[str, object]:
    """Write raw/ and vocab.txt under `out`; return the document index.

    The index maps each document id (as `convert` names it) to its article
    sentences and reference summary, for the benchmark's output checks.
    """
    lexicon = _lexicon(random.Random(f"lexicon/{seed}/{spec.lang}"), spec.lang, spec.vocab_words)
    consonants, vowels = _LETTERS[spec.lang]
    pieces = [f"##{s}" for s in _SUFFIXES[spec.lang]]
    pieces += [f"##{c}" for c in consonants + vowels if f"##{c}" not in pieces]
    tokens = SPECIALS + [".", ",", _CUE[spec.lang]] + lexicon + pieces
    rng = random.Random(f"corpus/{seed}/{spec.lang}")
    sampler = _WordSampler(rng, spec, lexicon)
    raw = out / "raw"
    docs: dict[str, dict[str, object]] = {}
    for d in range(spec.docs):
        category = _CATEGORIES[d % len(_CATEGORIES)]
        key = f"doc{d:05d}"
        picked = set(rng.sample(range(spec.sentences), SUMMARY_SENTENCES))
        article = [
            sampler.sentence(_CUE[spec.lang] if i in picked else None)
            for i in range(spec.sentences)
        ]
        summary = [article[i] if spec.summary_stops else article[i][:-1] for i in sorted(picked)]
        folder = raw / category
        folder.mkdir(parents=True, exist_ok=True)
        body = "\n".join(" ".join(article[i : i + 4]) for i in range(0, len(article), 4))
        (folder / f"{key}.txt").write_bytes((body + "\n").encode(spec.encoding))
        (folder / f"{key}.sum.txt").write_bytes((" ".join(summary) + "\n").encode(spec.encoding))
        docs[f"{category}__{key}"] = {"article": article, "summary": " ".join(summary)}
    (out / "vocab.txt").write_text("\n".join(tokens) + "\n", encoding="utf-8")
    return docs
