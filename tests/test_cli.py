"""End-to-end checks for the command-line entry point.

Every test drives ``main`` in process and inspects exit codes, stdout,
stderr, and the files left on disk. Corpora and models are tiny so the
slowest cases (the train subcommand) stay well under a second.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
from dataclasses import MISSING, fields, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import SPECIALS
from sumforge import cli
from sumforge import tensor as T
from sumforge.cli import CONFIG_KEYS, _typed_config, main, parse_config_file
from sumforge.errors import ConfigError, EmptyArticle, MissingSummary, OutputNotEmpty, SumforgeError
from sumforge.ingest import StoryDoc, ingest_corpus, parse_story, write_story
from sumforge.model import (
    ModelConfig,
    abs_loss,
    build_model,
    load_checkpoint,
    load_encoder_into,
    save_checkpoint,
)
from sumforge.tokenization import _SHARD_KEYS
from sumforge.train import TrainConfig

_WORDS = [
    "the", "cat", "sat", "on", "mat", "a", "dog", "ran", "fast",
    "rain", "fell", "all", "night", "sun", "rose", "slowly",
    "birds", "sang", "songs", "now", ".", "!", "?",
]
_VOCAB_SIZE = len(SPECIALS) + len(_WORDS)  # 30

_ARTICLE = [
    "the cat sat on the mat .",
    "a dog ran fast .",
    "rain fell all night .",
    "the sun rose slowly .",
    "birds sang songs now .",
]
_SUMMARY = ["the cat sat on the mat .", "rain fell all night ."]

# Small enough that six optimizer steps finish instantly.
_TINY_MODEL = {
    "d_model": 8,
    "n_heads": 2,
    "d_ff": 16,
    "n_enc_layers": 1,
    "n_dec_layers": 1,
    "max_positions": 64,
    "dropout": 0.0,
}


def _write_vocab(path: Path, words=None) -> Path:
    tokens = SPECIALS + (list(words) if words is not None else _WORDS)
    path.write_text("\n".join(tokens) + "\n", encoding="utf-8")
    return path


def _write_story_file(path: Path, article=None, summary=None) -> Path:
    doc = StoryDoc(
        id=path.stem,
        article_sentences=article if article is not None else _ARTICLE,
        summary_sentences=summary if summary is not None else _SUMMARY,
    )
    path.write_text(write_story(doc), encoding="utf-8")
    return path


def _write_config(path: Path, **overrides) -> Path:
    values = {**_TINY_MODEL, "max_steps": 6, "batch_size": 2, **overrides}
    lines = [f"{key}={value}" for key, value in values.items()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# The characters besides "\n", "\r\n" and "\r" that `str.splitlines` cuts at.
_SPLITLINES_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


def _write_jsonl(path: Path, records) -> Path:
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    return path


def _tiny_model_config() -> ModelConfig:
    return ModelConfig(vocab_size=_VOCAB_SIZE, **_TINY_MODEL)


def _save_model(path: Path, task: str, seed: int = 0) -> Path:
    save_checkpoint(build_model(_tiny_model_config(), task, seed), path)
    return path


def _make_stories(tmp_path: Path, n: int = 3) -> Path:
    stories = tmp_path / "stories"
    stories.mkdir()
    for i in range(n):
        _write_story_file(stories / f"doc{i}.story")
    return stories


def _make_shards(tmp_path: Path, n_stories: int = 4) -> tuple[Path, Path]:
    """Run the preprocess subcommand and hand back (shards_dir, vocab_path)."""
    vocab = _write_vocab(tmp_path / "vocab.txt")
    stories = _make_stories(tmp_path, n_stories)
    shards = tmp_path / "shards"
    code = main([
        "preprocess", "--stories", str(stories), "--vocab", str(vocab),
        "--out", str(shards), "--max-positions", "64",
    ])
    assert code == 0
    return shards, vocab


class TestParseConfigFile:
    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# header\n\n d_model = 8 \nmax_steps=6\n", encoding="utf-8"
        )
        assert parse_config_file(path) == {"d_model": "8", "max_steps": "6"}

    def test_line_without_equals_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("d_model\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="1"):
            parse_config_file(path)

    @pytest.mark.parametrize("char", _SPLITLINES_ONLY, ids=repr)
    def test_only_newline_ends_a_line(self, tmp_path, char):
        """A comment that holds a character `str.splitlines` cuts at stays
        one comment: no setting comes out of its second half."""
        path = tmp_path / "run.cfg"
        path.write_text(f"# no{char}max_steps=6\nd_model=8\n", encoding="utf-8")
        assert parse_config_file(path) == {"d_model": "8"}

    def test_key_given_twice_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("max_steps=3\n# again\n d_model=8\n max_steps = 7\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=r":4: config key 'max_steps' given again, first on line 1$"):
            parse_config_file(path)


_FIELDS = {f.name: f for cls in (ModelConfig, TrainConfig) for f in fields(cls)}
_FLAG_SET = {"vocab_size", "pretrained_encoder", "checkpoint_dir"}  # from --vocab, --init-encoder and --out
_FLOAT_KEYS = sorted(k for k, parse in CONFIG_KEYS.items() if parse is float)


class TestConfigSchema:
    """The config keys are the dataclass fields, typed as the fields are."""

    def test_keys_are_the_fields_not_set_by_flags(self):
        assert set(CONFIG_KEYS) == set(_FIELDS) - _FLAG_SET

    def test_each_key_parses_to_its_field_type(self):
        expected = {name: f.type.split(" | ")[0] for name, f in _FIELDS.items()}
        for key in CONFIG_KEYS:
            assert type(_typed_config({key: "3"})[key]).__name__ == expected[key], key
            if expected[key] == "int":
                with pytest.raises(ConfigError, match=key):
                    _typed_config({key: "0.5"})

    def test_readme_table_lists_every_key_type_and_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
        rows = re.findall(r"^\| `(\w+)` +\| (int|float) +\| ([^|]+?) +\|", readme, re.M)
        assert {key: kind for key, kind, _ in rows} == {
            key: parse.__name__ for key, parse in CONFIG_KEYS.items()
        }
        for key, _, default in rows:
            field = _FIELDS.get(key)
            if field is not None and field.default not in (MISSING, None):
                assert float(default) == field.default, key

    @pytest.mark.parametrize(
        "key", ["max_tgt_len", "vocab_size", "pad_id", "pretrained_encoder", "checkpoint_dir"]
    )
    def test_keys_outside_the_schema_exit_2(self, tmp_path, capsys, key):
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg", **{key: 1})
        code = main(["train", "--task", "ext", "--shards", str(shards),
                     "--out", str(tmp_path / "run"), "--config", str(config),
                     "--vocab", str(vocab)])
        assert code == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value, error", [("0", "would mask nothing"), ("1", "must be in (0, 1)"),
                                              ("nan", "must be in (0, 1)")])
    @pytest.mark.parametrize("task", ["ext", "abs", "prefit"])
    def test_mask_prob_outside_0_1_exits_2_before_shards_are_read(self, tmp_path, capsys, task, value, error):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        shards = tmp_path / "shards"
        shards.mkdir()
        (shards / "shard_0.jsonl").write_text("not json\n", encoding="utf-8")
        config = _write_config(tmp_path / "run.cfg", max_steps=1, mask_prob=value)
        code = main(["train", "--task", task, "--shards", str(shards),
                     "--out", str(tmp_path / "run"), "--config", str(config), "--vocab", str(vocab)])
        assert code == 2
        err = capsys.readouterr().err
        assert "mask_prob" in err and error in err and "corrupt shard" not in err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", _FLOAT_KEYS)
    def test_non_finite_value_exits_2_before_any_checkpoint(self, tmp_path, capsys, key, value):
        # Pre-fit reads every float key, mask_prob included.
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg", max_steps=1, **{key: value})
        out = tmp_path / "run"
        code = main(["train", "--task", "prefit", "--shards", str(shards),
                     "--out", str(out), "--config", str(config),
                     "--vocab", str(vocab)])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not list(out.glob("*.ckpt"))


# Hostile config values: int/float swaps, NaN, ±inf, negatives, zeros, an
# overflowing float, empty and non-numeric text. Ints stay small, so a value
# the reader accepts still trains a tiny model.
_FUZZ_VALUES = [
    "-3", "-1", "0", "1", "2", "3", "0.0", "-0.0", "0.5", "-0.5", "1.5", "3.0", "1e-3",
    "nan", "-nan", "inf", "-inf", "1e309", "", "abc", "0x10", "1_0",
]
_FUZZ_KEYS = sorted(CONFIG_KEYS) + [
    "max_tgt_len", "vocab_size", "pad_id", "checkpoint_dir", "pretrained_encoder", "bogus", "",
]
_fuzz_line = st.one_of(
    st.builds("{}={}".format, st.sampled_from(_FUZZ_KEYS), st.sampled_from(_FUZZ_VALUES)),
    st.sampled_from(_FUZZ_KEYS + ["d_model 8", "= 3", "=="]),  # no `=`, or no key
    st.builds(lambda line, cut: line[:cut],  # a truncated line
              st.sampled_from([f"{k}={v}" for k, v in _TINY_MODEL.items()]), st.integers(0, 12)),
)


@st.composite
def _fuzzed_config(draw) -> bytes:
    """The tiny training config with hostile lines added, and maybe bytes
    that are not UTF-8 put in somewhere."""
    base = [f"{key}={value}" for key, value in {**_TINY_MODEL, "max_steps": 1, "batch_size": 2}.items()]
    lines = base + draw(st.lists(_fuzz_line, min_size=1, max_size=4))
    order = draw(st.permutations(range(len(lines))))
    data = "\n".join(lines[i] for i in order).encode("utf-8")
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80abc", b"\xe2\x82"])) + data[at:]
    return data


class TestConfigFuzz:
    """`train` on generated config files exits 0, or 2 with a SumforgeError;
    never 1."""

    @pytest.fixture(scope="class")
    def shards(self, tmp_path_factory):
        return _make_shards(tmp_path_factory.mktemp("fuzz"))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(config=_fuzzed_config(), task=st.sampled_from(["ext", "abs", "prefit"]))
    def test_train_exits_0_or_2_with_a_named_error(self, shards, config, task):
        raised = []

        def recording(args):
            try:
                return train(args)
            except Exception as exc:
                raised.append(exc)
                raise

        train = cli.cmd_train
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, "cmd_train", recording):
            path = Path(tmp) / "run.cfg"
            path.write_bytes(config)
            cli.build_parser.cache_clear()  # so that the parser dispatches to `recording`
            try:
                code = main(["train", "--task", task, "--shards", str(shards[0]), "--vocab", str(shards[1]),
                             "--config", str(path), "--out", str(Path(tmp) / "run")])
            finally:
                cli.build_parser.cache_clear()
        assert code in (0, 2), (code, config, raised)
        if code == 2:
            assert len(raised) == 1 and isinstance(raised[0], SumforgeError), (config, raised)


@st.composite
def _fuzzed_vocab(draw) -> bytes:
    """The fixture vocabulary made hostile: lines dropped (specials too),
    duplicated or blanked, broken by "\\r" or by a character that only
    `str.splitlines` cuts at, padded with spaces or a byte-order mark; then
    maybe truncated anywhere, even inside a character, and maybe given bytes
    that are not UTF-8."""
    lines = SPECIALS + _WORDS
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "duplicate", "blank", "break", "pad", "bom"]))
        if edit == "drop":
            lines = lines[:i] + lines[i + 1:]
        elif edit == "duplicate":
            at = draw(st.integers(0, len(lines)))
            lines = lines[:at] + [lines[i]] + lines[at:]
        elif edit == "blank":
            lines = lines[:i] + [""] + lines[i:]
        elif edit == "break":
            cut = draw(st.sampled_from(["\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"]))
            lines = lines[:i] + [lines[i][:1] + cut + lines[i][1:]] + lines[i + 1:]
        elif edit == "pad":
            lines = lines[:i] + [draw(st.sampled_from([" ", "\t", "\u00a0"])) + lines[i]] + lines[i + 1:]
        else:
            lines = ["\ufeff" + lines[0]] + lines[1:]
    data = "\n".join(lines).encode("utf-8") + draw(st.sampled_from([b"", b"\n", b"\r\n", b"\n\n"]))
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80abc", b"\xe2\x82", b"\x00"])) + data[at:]
    return data


class TestVocabFuzz:
    """`preprocess` and `train` on generated vocabulary files exit 0, or 2
    with a SumforgeError; never 1. Shards stay those the fixture vocabulary
    made, so `train` also meets ids that a shortened vocabulary lacks."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("vocab_fuzz")
        shards, _ = _make_shards(tmp)
        return tmp / "stories", shards, _write_config(tmp / "run.cfg", max_steps=1)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(vocab=_fuzzed_vocab(), command=st.sampled_from(["preprocess", "ext", "abs", "prefit"]))
    def test_exits_0_or_2_with_a_named_error(self, inputs, vocab, command):
        stories, shards, config = inputs
        name = "cmd_preprocess" if command == "preprocess" else "cmd_train"
        run, raised = getattr(cli, name), []

        def recording(args):
            try:
                return run(args)
            except Exception as exc:
                raised.append(exc)
                raise

        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(cli, name, recording):
            path = Path(tmp) / "vocab.txt"
            path.write_bytes(vocab)
            if command == "preprocess":
                argv = ["preprocess", "--stories", str(stories), "--max-positions", "64"]
            else:
                argv = ["train", "--task", command, "--shards", str(shards), "--config", str(config)]
            cli.build_parser.cache_clear()  # so that the parser dispatches to `recording`
            try:
                code = main(argv + ["--vocab", str(path), "--out", str(Path(tmp) / "out")])
            finally:
                cli.build_parser.cache_clear()
        assert code in (0, 2), (code, vocab, raised)
        if code == 2:
            assert len(raised) == 1 and isinstance(raised[0], SumforgeError), (vocab, raised)


# More digits than int's string-conversion limit (4,300 by default), past
# which json.loads raises a plain ValueError.
_HUGE_INT = "9" * 5001


def _with_huge_int(line: str, key: str) -> str:
    """A JSON object's line with _HUGE_INT first in the list under key;
    json.dumps cannot write such an integer, so it goes in as text."""
    assert f'"{key}": [' in line
    return line.replace(f'"{key}": [', f'"{key}": [{_HUGE_INT}, ', 1)


# The wrong type for every shard key: none is a list of ints or of strings.
# (An empty list is both, so it is left out.)
_WRONG_TYPES = [None, 3, 1.5, True, "7", {}, {"0": 0}, [None], [1.5], [True], [[0]]]
# Ids outside a 30-token vocabulary, outside int64 too.
_BAD_IDS = [_VOCAB_SIZE, -1, 2**63, -(2**63) - 1, 10**30, -(10**30)]


@st.composite
def _spoiled_shard(draw, lines: list[str]) -> tuple[str, int]:
    """A shard's lines with one record spoiled: cut short, an id too long to
    read, a key's value of the wrong type, src, segs, clss or labels one id
    longer or shorter than its partner, an id outside the vocabulary, or
    clss not increasing. Returns the shard's text and the spoiled line's
    number."""
    i = draw(st.integers(0, len(lines) - 1))
    record = json.loads(lines[i])
    fault = draw(st.sampled_from(["truncate", "huge", "type", "length", "id", "clss"]))
    if fault == "truncate":  # a prefix of an object, never JSON
        line = lines[i][: draw(st.integers(1, len(lines[i]) - 1))]
    elif fault == "huge":
        line = _with_huge_int(lines[i], draw(st.sampled_from(["src", "segs", "clss", "labels", "tgt"])))
    else:
        if fault == "type":
            key = draw(st.sampled_from(_SHARD_KEYS))
            record[key] = draw(st.sampled_from(_WRONG_TYPES + [[7] if key.endswith("_txt") else ["7"]]))
        elif fault == "length":
            key = draw(st.sampled_from(["src", "segs", "clss", "labels"]))
            record[key] = draw(st.sampled_from([record[key][:-1], record[key] + [0]]))
        elif fault == "id":
            key = draw(st.sampled_from(["src", "tgt"]))
            record[key][draw(st.integers(0, len(record[key]) - 1))] = draw(st.sampled_from(_BAD_IDS))
        else:
            clss, j = record["clss"], draw(st.integers(0, len(record["clss"]) - 2))
            if draw(st.booleans()):
                clss[j + 1] = clss[j]
            else:
                clss[j], clss[j + 1] = clss[j + 1], clss[j]
        line = json.dumps(record, ensure_ascii=False)
    return "".join(f"{x}\n" for x in lines[:i] + [line] + lines[i + 1:]), i + 1


class TestShardFuzz:
    """`train` on a `preprocess`-written shard with one record spoiled exits
    2, its error naming the shard file and the spoiled line, for every task;
    the shard as written trains. The reader fails before a model is built."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("shard_fuzz")
        shards, vocab = _make_shards(tmp)
        config = _write_config(tmp / "run.cfg", max_steps=1)
        for task in ("ext", "abs", "prefit"):
            assert main(["train", "--task", task, "--shards", str(shards), "--vocab", str(vocab),
                         "--config", str(config), "--out", str(tmp / task)]) == 0
        lines = (shards / "shard_0.jsonl").read_text("utf-8").splitlines()
        assert len(lines) == 4 and all(len(json.loads(x)["clss"]) == 5 for x in lines)
        return lines, vocab, config

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), task=st.sampled_from(["ext", "abs", "prefit"]))
    def test_spoiled_record_exits_2_naming_file_and_line(self, inputs, data, task):
        lines, vocab, config = inputs
        text, line_no = data.draw(_spoiled_shard(lines))
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            shard = Path(tmp) / "shards" / "shard_0.jsonl"
            shard.parent.mkdir()
            shard.write_text(text, encoding="utf-8")
            out = Path(tmp) / "run"
            code = main(["train", "--task", task, "--shards", str(shard.parent), "--vocab", str(vocab),
                         "--config", str(config), "--out", str(out)])
            assert not list(out.glob("*.ckpt"))
        assert code == 2, (text, err.getvalue())
        assert err.getvalue().startswith(f"error: corrupt shard line {line_no} in {shard}"), err.getvalue()


@st.composite
def _spoiled_story(draw, text: str) -> bytes:
    """A `convert`-written story's bytes spoiled once: cut anywhere (even
    inside a character), a NUL, a U+2028 or a byte-order mark put in, its
    line ends made CR or CRLF, bytes that are not UTF-8 put in, a marker
    line respaced or recased, or a highlight block made blank or only
    zero-width characters."""
    data = text.encode("utf-8")
    spoil = draw(st.sampled_from(["truncate", "invalid", "nul", "u2028", "bom", "cr", "crlf", "marker", "block"]))
    if spoil == "truncate":
        return data[: draw(st.integers(0, len(data) - 1))]
    if spoil == "invalid":
        at = draw(st.integers(0, len(data)))
        return data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xe2\x82", b"\xed\xa0\x80"])) + data[at:]
    if spoil in ("nul", "u2028"):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + ("\x00" if spoil == "nul" else "\u2028") + text[at:]
    elif spoil == "bom":
        text = "\ufeff" + text
    elif spoil in ("cr", "crlf"):
        text = text.replace("\n", "\r" if spoil == "cr" else "\r\n")
    else:
        lines = text.split("\n")
        i = draw(st.sampled_from([i for i, line in enumerate(lines) if line == "@highlight"]))
        if spoil == "marker":
            lines[i] = draw(st.sampled_from([" @highlight", "@highlight\t", "@ highlight", "@Highlight", "@highlight:"]))
        else:  # the block's sentence sits two lines below its marker
            lines[i + 2] = draw(st.sampled_from(["", "   ", "\t", "\u200b", "\u200c \u200d", "\u2060", "\ufeff"]))
        text = "\n".join(lines)
    return text.encode("utf-8")


class TestStoryFuzz:
    """`preprocess` over `convert`-written stories, one of them spoiled or
    a directory named like a story, exits 0, or 2 with an error naming that
    story; never 1."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("story_fuzz")
        raw = tmp / "raw"
        raw.mkdir()
        for i in range(3):  # Arabic words too, so a cut can fall inside a character
            (raw / f"doc{i}.txt").write_bytes(" ".join(_ARTICLE + ["ذهب الولد إلى المدرسة ."]).encode("windows-1256"))
            (raw / f"doc{i}.sum.txt").write_bytes(" ".join(_SUMMARY).encode("windows-1256"))
        stories = tmp / "stories"
        assert main(["convert", "--input", str(raw), "--encoding", "windows-1256", "--out", str(stories)]) == 0
        texts = {p.name: p.read_text("utf-8") for p in sorted(stories.glob("*.story"))}
        assert len(texts) == 3 and all(text.count("\n@highlight\n\n") >= 2 for text in texts.values())
        return texts, _write_vocab(tmp / "vocab.txt")

    @staticmethod
    def _preprocess(texts: dict[str, str], vocab: Path, name: str, data: bytes | None) -> tuple[int, str]:
        """`preprocess` over texts with `name` holding data, or made a
        directory for None: the exit code and standard error."""
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            stories = Path(tmp) / "stories"
            stories.mkdir()
            for other, text in texts.items():
                (stories / other).write_text(text, encoding="utf-8")
            if data is None:
                (stories / name).mkdir()
            else:
                (stories / name).write_bytes(data)
            code = main(["preprocess", "--stories", str(stories), "--vocab", str(vocab),
                         "--out", str(Path(tmp) / "shards"), "--max-positions", "64"])
        return code, err.getvalue()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_spoiled_story_exits_0_or_2_naming_it(self, inputs, data):
        texts, vocab = inputs
        name = data.draw(st.sampled_from(sorted(texts)))
        code, err = self._preprocess(texts, vocab, name, data.draw(_spoiled_story(texts[name])))
        assert code == 0 or (code == 2 and err.startswith("error: ") and Path(name).stem in err), (code, err)

    @pytest.mark.parametrize("char", ["\u200b", "\u200c", "\u200d", "\u2060", "\ufeff"], ids=ascii)
    @pytest.mark.parametrize("part, error, message", [
        ("highlight", MissingSummary, "only empty highlight blocks"), ("article", EmptyArticle, "no article text"),
    ])
    def test_zero_width_only_part_exits_2_naming_it(self, inputs, char, part, error, message):
        texts, vocab = inputs
        name = sorted(texts)[0]
        article, marker, _ = texts[name].partition("\n\n@highlight\n\n")
        story = f"{article}{marker}{char}" if part == "highlight" else f"{char}{marker}the cat sat ."
        with pytest.raises(error, match=message):
            parse_story(story, Path(name).stem)
        code, err = self._preprocess(texts, vocab, name, story.encode("utf-8"))
        assert code == 2 and err.startswith(f"error: {message}") and Path(name).stem in err, (code, err)

    def test_directory_named_like_a_story_exits_2_naming_it(self, inputs):
        texts, vocab = inputs
        code, err = self._preprocess(texts, vocab, "x.story", None)
        assert code == 2 and err.startswith("error: ") and "x.story" in err, (code, err)


def _raw_pairs(tmp_path: Path, *names: str) -> Path:
    raw = tmp_path / "raw"
    raw.mkdir()
    for name in names:
        (raw / f"{name}.txt").write_bytes(b"the cat sat .")
        (raw / f"{name}.sum.txt").write_bytes(b"the cat .")
    return raw


class TestConvert:
    def test_writes_stories_and_counts(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        (raw / "news").mkdir(parents=True)
        for rel in ("news/d1", "news/d2", "d3"):
            (raw / f"{rel}.txt").write_bytes(b"the cat sat . a dog ran .")
            (raw / f"{rel}.sum.txt").write_bytes(b"the cat sat .")
        out = tmp_path / "stories"

        code = main(["convert", "--input", str(raw),
                     "--encoding", "windows-1256", "--out", str(out)])

        assert code == 0
        assert capsys.readouterr().out == "3 documents\n"
        assert sorted(p.name for p in out.glob("*.story")) == [
            "d3.story", "news__d1.story", "news__d2.story",
        ]
        assert (out / "manifest.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert manifest["command"] == "convert"
        assert manifest["config"]["encoding"] == "windows-1256"

    def test_arabic_bytes_become_utf8(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "d.txt").write_bytes("قال الرجل .".encode("cp1256"))
        (raw / "d.sum.txt").write_bytes("قال .".encode("cp1256"))
        out = tmp_path / "out"

        assert main(["convert", "--input", str(raw),
                     "--encoding", "windows-1256", "--out", str(out)]) == 0
        assert "قال الرجل" in (out / "d.story").read_text("utf-8")

    def test_missing_input_dir_exits_2(self, tmp_path, capsys):
        code = main(["convert", "--input", str(tmp_path / "nope"),
                     "--encoding", "utf-8", "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_unknown_encoding_exits_2(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "d.txt").write_bytes(b"hello .")
        (raw / "d.sum.txt").write_bytes(b"hi .")
        code = main(["convert", "--input", str(raw),
                     "--encoding", "koi8-r", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "unsupported encoding" in capsys.readouterr().err

    def test_unpaired_article_exits_2(self, tmp_path, capsys):
        raw = tmp_path / "raw"
        raw.mkdir()
        (raw / "d.txt").write_bytes(b"hello .")
        code = main(["convert", "--input", str(raw),
                     "--encoding", "utf-8", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "article without summary" in capsys.readouterr().err

    @pytest.mark.parametrize("blank", [b" \n\t \r\n", "\u200b\n".encode()], ids=["whitespace", "zero-width"])
    @pytest.mark.parametrize("empty, error", [
        ("news/d.txt", EmptyArticle), ("news/d.sum.txt", MissingSummary),
    ], ids=["article", "summary"])
    def test_whitespace_only_raw_file_names_the_id(self, tmp_path, capsys, empty, error, blank):
        raw = tmp_path / "raw"
        (raw / "news").mkdir(parents=True)
        (raw / "news/d.txt").write_bytes(b"the cat sat .")
        (raw / "news/d.sum.txt").write_bytes(b"the cat .")
        (raw / empty).write_bytes(blank)
        with pytest.raises(error, match="news__d"):
            ingest_corpus(raw, "utf-8", tmp_path / "direct")
        code = main(["convert", "--input", str(raw),
                     "--encoding", "utf-8", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "news__d" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_failed_convert_leaves_no_temp_file(self, tmp_path, capsys):
        raw = _raw_pairs(tmp_path, "a", "b")
        out = tmp_path / "stories"
        (out / "b.story").mkdir(parents=True)  # refused before any write
        code = main(["convert", "--input", str(raw),
                     "--encoding", "utf-8", "--out", str(out)])
        assert code == 2
        assert sorted(p.name for p in out.iterdir()) == ["b.story"]

    def test_mid_corpus_decode_failure_writes_nothing(self, tmp_path, capsys):
        raw = _raw_pairs(tmp_path, "a", "b", "c")
        (raw / "b.txt").write_bytes(b"the \xff cat .")  # not UTF-8
        out = tmp_path / "stories"
        code = main(["convert", "--input", str(raw),
                     "--encoding", "utf-8", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_failed_write_removes_the_stories_before_it(self, tmp_path, capsys, monkeypatch):
        raw = _raw_pairs(tmp_path, "a", "b", "c")
        rendered = []

        def failing_write_story(doc):
            rendered.append(doc.id)
            if doc.id == "b":
                raise OSError("disk full")
            return write_story(doc)

        monkeypatch.setattr("sumforge.ingest.write_story", failing_write_story)
        out = tmp_path / "stories"
        code = main(["convert", "--input", str(raw),
                     "--encoding", "utf-8", "--out", str(out)])
        assert code == 2
        assert rendered == ["a", "b"]
        assert list(out.iterdir()) == []

    def test_stale_story_is_refused_and_left_untouched(self, tmp_path, capsys):
        raw = _raw_pairs(tmp_path, "a")
        out = tmp_path / "stories"
        out.mkdir()
        (out / "zz.story").write_bytes(b"old text .\n\n@highlight\n\nold .")
        code = main(["convert", "--input", str(raw),
                     "--encoding", "utf-8", "--out", str(out)])
        assert code == 2
        assert "zz.story" in capsys.readouterr().err
        assert sorted(p.name for p in out.iterdir()) == ["zz.story"]
        assert (out / "zz.story").read_bytes() == b"old text .\n\n@highlight\n\nold ."

    def test_stale_manifest_is_refused(self, tmp_path, capsys):
        raw = _raw_pairs(tmp_path, "a")
        out = tmp_path / "stories"
        out.mkdir()
        (out / "manifest.csv").write_text("id\n", encoding="utf-8")
        with pytest.raises(OutputNotEmpty, match="manifest.csv"):
            ingest_corpus(raw, "utf-8", out)
        assert sorted(p.name for p in out.iterdir()) == ["manifest.csv"]


class TestPreprocess:
    def test_shard_count_reported(self, tmp_path, capsys):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        stories = _make_stories(tmp_path, 5)
        out = tmp_path / "shards"

        code = main(["preprocess", "--stories", str(stories),
                     "--vocab", str(vocab), "--out", str(out),
                     "--shard-size", "2"])

        assert code == 0
        assert capsys.readouterr().out == "3 shards\n"
        assert sorted(p.name for p in out.glob("shard_*.jsonl")) == [
            "shard_0.jsonl", "shard_1.jsonl", "shard_2.jsonl",
        ]
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert manifest["config"]["shard_size"] == 2
        assert manifest["config"]["skipped"] == 0

    def test_manifest_reports_dropped_sentences_and_unk_share(self, tmp_path):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        stories = tmp_path / "stories"
        stories.mkdir()
        # 9 + 7 positions fit in 20; the third block (7 more) does not, so
        # three of the five sentences are dropped.
        _write_story_file(stories / "a.story")
        # "zebra" has no pieces in the vocabulary: one [UNK] in 6 + 7 ids.
        _write_story_file(stories / "b.story",
                          article=["the zebra sat .", "a dog ran fast ."])

        code = main(["preprocess", "--stories", str(stories),
                     "--vocab", str(vocab), "--out", str(tmp_path / "o"),
                     "--max-positions", "20"])

        assert code == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text("utf-8"))
        assert manifest["sentences_dropped"] == 3
        assert manifest["src_unk_frac"] == 1 / 29
        assert manifest["targets_truncated"] == 0

    def test_manifest_counts_truncated_targets(self, tmp_path):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        stories = tmp_path / "stories"
        stories.mkdir()
        # [BOS] + 7 + 5 pieces + [EOS] = 14 ids: exactly at the limit, kept whole.
        _write_story_file(stories / "a.story")
        # One more piece (15 ids) is cut.
        _write_story_file(stories / "b.story",
                          summary=["the cat sat on the mat .", "rain fell all night now ."])
        _write_story_file(stories / "c.story", summary=["a dog ran fast ."])

        code = main(["preprocess", "--stories", str(stories),
                     "--vocab", str(vocab), "--out", str(tmp_path / "o"),
                     "--max-tgt-len", "14"])

        assert code == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text("utf-8"))
        assert manifest["targets_truncated"] == 1
        shard = (tmp_path / "o" / "shard_0.jsonl").read_text("utf-8").splitlines()
        assert sorted(len(json.loads(line)["tgt"]) for line in shard) == [7, 14, 14]

    @pytest.mark.parametrize("max_tgt_len", ["0", "1", "-3"])
    def test_target_limit_below_2_exits_2(self, tmp_path, capsys, max_tgt_len):
        # A target holds at least [BOS] and [EOS]. Below 2 the cut was an
        # empty or negative slice, which wrote targets of 1, 7 or 4 ids.
        vocab = _write_vocab(tmp_path / "vocab.txt")
        out = tmp_path / "o"
        code = main(["preprocess", "--stories", str(_make_stories(tmp_path, 1)),
                     "--vocab", str(vocab), "--out", str(out), "--max-tgt-len", max_tgt_len])
        assert code == 2
        assert f"max_tgt_len must be >= 2, for [BOS] and [EOS]; got {max_tgt_len}" in capsys.readouterr().err
        assert not out.exists()

    def test_target_limit_2_keeps_bos_and_eos(self, tmp_path):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        out = tmp_path / "o"
        assert main(["preprocess", "--stories", str(_make_stories(tmp_path, 1)),
                     "--vocab", str(vocab), "--out", str(out), "--max-tgt-len", "2"]) == 0
        (line,) = (out / "shard_0.jsonl").read_text("utf-8").splitlines()
        assert json.loads(line)["tgt"] == [SPECIALS.index("[unused0]"), SPECIALS.index("[unused1]")]

    def test_too_long_story_skipped_with_warning(self, tmp_path, capsys):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        stories = tmp_path / "stories"
        stories.mkdir()
        _write_story_file(stories / "ok.story")
        # 30 tokens in the first sentence cannot fit 16 positions.
        _write_story_file(
            stories / "huge.story",
            article=[" ".join(["cat"] * 30) + " ."],
            summary=["cat ."],
        )

        code = main(["preprocess", "--stories", str(stories),
                     "--vocab", str(vocab), "--out", str(tmp_path / "o"),
                     "--max-positions", "16"])

        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "1 shards\n"
        assert "skipping huge" in captured.err

    def test_every_story_skipped_exits_2(self, tmp_path, capsys):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        stories = tmp_path / "stories"
        stories.mkdir()
        _write_story_file(
            stories / "huge.story",
            article=[" ".join(["cat"] * 30) + " ."],
            summary=["cat ."],
        )
        code = main(["preprocess", "--stories", str(stories),
                     "--vocab", str(vocab), "--out", str(tmp_path / "o"),
                     "--max-positions", "16"])
        assert code == 2

    def test_empty_story_dir_exits_2(self, tmp_path, capsys):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        stories = tmp_path / "stories"
        stories.mkdir()
        code = main(["preprocess", "--stories", str(stories),
                     "--vocab", str(vocab), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "no story files" in capsys.readouterr().err

    def test_vocab_missing_special_exits_2(self, tmp_path, capsys):
        bad_vocab = tmp_path / "vocab.txt"
        bad_vocab.write_text("\n".join(["[PAD]", "[UNK]"] + _WORDS) + "\n")
        stories = _make_stories(tmp_path, 1)
        code = main(["preprocess", "--stories", str(stories),
                     "--vocab", str(bad_vocab), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "special token" in capsys.readouterr().err


class TestTrain:
    def test_ext_writes_artifacts(self, tmp_path, capsys):
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg")
        out = tmp_path / "run"
        capsys.readouterr()  # drop the preprocess helper's output

        code = main(["train", "--task", "ext", "--shards", str(shards),
                     "--out", str(out), "--config", str(config),
                     "--vocab", str(vocab)])

        assert code == 0
        assert re.fullmatch(
            r"ext: 6 steps, final loss \d+\.\d{6}\n", capsys.readouterr().out
        )
        assert (out / "ext_final.ckpt").exists()
        trace = (out / "trace.csv").read_text("utf-8")
        assert trace.startswith("step,loss,lr_encoder,lr_decoder\n")
        assert len(trace.splitlines()) == 7  # header plus one row per step
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert manifest["seed"] == 0
        assert manifest["config"]["d_model"] == 8
        assert manifest["config"]["max_steps"] == 6
        assert manifest["config"]["vocab_size"] == _VOCAB_SIZE
        env = manifest["environment"]
        assert env["nproc"] >= 1
        assert env["numpy"] == np.__version__
        assert env["OPENBLAS_NUM_THREADS"] == os.environ.get("OPENBLAS_NUM_THREADS")
        assert env["OMP_NUM_THREADS"] == os.environ.get("OMP_NUM_THREADS")
        assert {"blas", "blas_version"} <= env.keys()
        # The process had at least numpy loaded; far below this host's memory.
        assert 10.0 < manifest["peak_rss_mb"] < 1e6

    @pytest.mark.parametrize("task", ["ext", "prefit"])
    def test_manifest_records_peak_rss_in_mib(self, tmp_path, capsys, monkeypatch, task):
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg", max_steps=1, mask_prob=0.3)
        usage = type("Usage", (), {"ru_maxrss": 215_040})  # KiB on Linux
        monkeypatch.setattr(cli.resource, "getrusage", lambda who: usage)
        out = tmp_path / "run"
        assert main(["train", "--task", task, "--shards", str(shards), "--out", str(out),
                     "--config", str(config), "--vocab", str(vocab)]) == 0
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert manifest["peak_rss_mb"] == (215_040 / 2**20 if sys.platform == "darwin" else 210.0)

    def test_abs_writes_checkpoint(self, tmp_path, capsys):
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg", max_steps=4)
        out = tmp_path / "run"
        code = main(["train", "--task", "abs", "--shards", str(shards),
                     "--out", str(out), "--config", str(config),
                     "--vocab", str(vocab)])
        assert code == 0
        assert (out / "abs_final.ckpt").exists()
        assert "abs: 4 steps" in capsys.readouterr().out

    def test_prefit_then_init_encoder(self, tmp_path, capsys):
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg", max_steps=4, mask_prob=0.3)
        prefit_out = tmp_path / "prefit"

        code = main(["train", "--task", "prefit", "--shards", str(shards),
                     "--out", str(prefit_out), "--config", str(config),
                     "--vocab", str(vocab)])
        assert code == 0
        encoder_ckpt = prefit_out / "encoder_final.ckpt"
        assert encoder_ckpt.exists()

        code = main(["train", "--task", "ext", "--shards", str(shards),
                     "--out", str(tmp_path / "ft"), "--config", str(config),
                     "--vocab", str(vocab),
                     "--init-encoder", str(encoder_ckpt)])
        assert code == 0
        assert (tmp_path / "ft" / "ext_final.ckpt").exists()

        # Each manifest names the vocabulary and the encoder it started from
        # by path and by the sha256 of their bytes.
        def named(path):
            return {"path": str(path), "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}

        prefit, ft = (json.loads((tmp_path / d / "manifest.json").read_text("utf-8"))
                      for d in ("prefit", "ft"))
        assert prefit["vocab"] == ft["vocab"] == named(vocab)
        assert prefit["init_encoder"] is None and prefit["config"]["pretrained_encoder"] is False
        assert ft["init_encoder"] == named(encoder_ckpt) and ft["config"]["pretrained_encoder"] is True

    def test_non_finite_loss_exits_2_without_final_checkpoint(self, tmp_path, capsys, monkeypatch):
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg")
        encoder_ckpt = tmp_path / "encoder_final.ckpt"
        save_checkpoint(build_model(_tiny_model_config(), "encoder", seed=0), encoder_ckpt)
        out = tmp_path / "run"
        capsys.readouterr()

        def load_then_spoil(model, data):
            # A checkpoint holding a NaN does not load, so the NaN is put in
            # after the load.
            load_encoder_into(model, data)
            model.params["encoder.layer0.ff.w1"].data[0, 0] = np.nan

        monkeypatch.setattr(cli, "load_encoder_into", load_then_spoil)
        code = main(["train", "--task", "ext", "--shards", str(shards),
                     "--out", str(out), "--config", str(config),
                     "--vocab", str(vocab),
                     "--init-encoder", str(encoder_ckpt)])

        assert code == 2
        captured = capsys.readouterr()
        assert "loss is nan" in captured.err
        assert captured.out == ""
        assert not list(out.glob("*_final.ckpt"))

    def test_non_finite_encoder_checkpoint_exits_2_before_training(self, tmp_path, capsys):
        shards, vocab = _make_shards(tmp_path)
        encoder = build_model(_tiny_model_config(), "encoder", seed=0)
        encoder.params["encoder.layer0.ff.w1"].data[0, 0] = np.inf
        encoder_ckpt = tmp_path / "encoder_final.ckpt"
        save_checkpoint(encoder, encoder_ckpt)
        out = tmp_path / "run"
        capsys.readouterr()
        code = main(["train", "--task", "ext", "--shards", str(shards), "--out", str(out),
                     "--config", str(_write_config(tmp_path / "run.cfg")), "--vocab", str(vocab),
                     "--init-encoder", str(encoder_ckpt)])
        assert code == 2
        assert "'encoder.layer0.ff.w1' holds a NaN or infinite value" in capsys.readouterr().err
        assert not list(out.glob("*.ckpt"))

    def test_checkpoint_every_saves_periodic_checkpoints(self, tmp_path, capsys):
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg", max_steps=4, checkpoint_every=2)
        for task in ("prefit", "ext", "abs"):
            out = tmp_path / task
            assert main(["train", "--task", task, "--shards", str(shards),
                         "--out", str(out), "--config", str(config),
                         "--vocab", str(vocab)]) == 0
            kind = "encoder" if task == "prefit" else task
            assert sorted(p.name for p in out.glob("*.ckpt")) == [
                f"{kind}_final.ckpt", f"{kind}_step000002.ckpt", f"{kind}_step000004.ckpt",
            ]

    @pytest.mark.parametrize(
        "change", [{"n_enc_layers": 2}, {"n_heads": 4}], ids=lambda change: next(iter(change))
    )
    def test_init_encoder_of_another_shape_exits_2(self, tmp_path, capsys, change):
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg")
        encoder_ckpt = tmp_path / "encoder.ckpt"
        other = replace(_tiny_model_config(), **change)
        save_checkpoint(build_model(other, "encoder", seed=0), encoder_ckpt)
        out = tmp_path / "run"
        code = main(["train", "--task", "ext", "--shards", str(shards),
                     "--out", str(out), "--config", str(config),
                     "--vocab", str(vocab), "--init-encoder", str(encoder_ckpt)])
        assert code == 2
        assert next(iter(change)) in capsys.readouterr().err
        assert not list(out.glob("*.ckpt"))

    def test_prefit_refuses_init_encoder(self, tmp_path, capsys):
        shards, vocab = _make_shards(tmp_path)
        encoder_ckpt = _save_model(tmp_path / "encoder.ckpt", "encoder")
        out = tmp_path / "run"
        code = main(["train", "--task", "prefit", "--shards", str(shards),
                     "--out", str(out), "--vocab", str(vocab),
                     "--init-encoder", str(encoder_ckpt)])
        assert code == 2
        assert "--init-encoder" in capsys.readouterr().err
        assert not out.exists()

    def test_init_encoder_wrong_kind_exits_2(self, tmp_path, capsys):
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg")
        ext_ckpt = _save_model(tmp_path / "ext.ckpt", "ext")
        code = main(["train", "--task", "abs", "--shards", str(shards),
                     "--out", str(tmp_path / "run"), "--config", str(config),
                     "--vocab", str(vocab),
                     "--init-encoder", str(ext_ckpt)])
        assert code == 2
        assert "model kind mismatch" in capsys.readouterr().err

    def test_unknown_task_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--task", "bogus", "--shards", "x", "--out", "y"])
        assert exc.value.code == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg", learning_rate=0.1)
        code = main(["train", "--task", "ext", "--shards", str(shards),
                     "--out", str(tmp_path / "run"), "--config", str(config),
                     "--vocab", str(vocab)])
        assert code == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_non_numeric_config_value_exits_2(self, tmp_path, capsys):
        shards, vocab = _make_shards(tmp_path)
        config = tmp_path / "run.cfg"
        config.write_text("max_steps=plenty\n", encoding="utf-8")
        code = main(["train", "--task", "ext", "--shards", str(shards),
                     "--out", str(tmp_path / "run"), "--config", str(config),
                     "--vocab", str(vocab)])
        assert code == 2
        assert "plenty" in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["ext", "abs", "prefit"])
    def test_train_without_vocab_is_usage_error(self, tmp_path, capsys, task):
        # Shard ids index the vocabulary they were encoded with, so it is
        # the only source of the vocabulary size and the padding id.
        shards, _ = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg")
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["train", "--task", task, "--shards", str(shards),
                  "--out", str(out), "--config", str(config)])
        assert exc.value.code == 2
        assert "--vocab" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_shard_dir_exits_2(self, tmp_path, capsys):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        empty = tmp_path / "shards"
        empty.mkdir()
        config = _write_config(tmp_path / "run.cfg")
        code = main(["train", "--task", "ext", "--shards", str(empty),
                     "--out", str(tmp_path / "run"), "--config", str(config),
                     "--vocab", str(vocab)])
        assert code == 2
        assert "no shards" in capsys.readouterr().err

    @pytest.mark.parametrize("task", ["ext", "abs", "prefit"])
    @pytest.mark.parametrize("record", [
        "7", "null", "true", "[1, 2]", '"src segs clss labels tgt src_txt tgt_txt"',
    ], ids=["number", "null", "true", "list", "string_naming_every_key"])
    def test_non_object_shard_record_exits_2(self, tmp_path, capsys, task, record):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        shards = tmp_path / "shards"
        shards.mkdir()
        (shards / "shard_0.jsonl").write_text(record + "\n", encoding="utf-8")
        config = _write_config(tmp_path / "run.cfg")
        out = tmp_path / "run"
        code = main(["train", "--task", task, "--shards", str(shards),
                     "--out", str(out), "--config", str(config), "--vocab", str(vocab)])
        assert code == 2
        err = capsys.readouterr().err
        assert "corrupt shard line 1" in err and "not a JSON object" in err
        assert not list(out.glob("*.ckpt"))

    # [CLS] the cat [SEP], summarised as [unused0] the cat [unused1].
    _GOOD_RECORD = {"src": [2, 7, 8, 3], "segs": [0, 0, 0, 0], "clss": [0], "labels": [1],
                    "tgt": [5, 7, 8, 6], "src_txt": ["the cat"], "tgt_txt": ["the cat"]}

    def test_deeply_nested_shard_line_exits_2(self, tmp_path, capsys):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        shards = tmp_path / "shards"
        shards.mkdir()
        _write_jsonl(shards / "shard_0.jsonl", [self._GOOD_RECORD])
        with open(shards / "shard_0.jsonl", "a", encoding="utf-8") as fh:
            fh.write("[" * 200_000 + "\n")
        config = _write_config(tmp_path / "run.cfg", max_steps=1)
        out = tmp_path / "run"
        code = main(["train", "--task", "ext", "--shards", str(shards),
                     "--out", str(out), "--config", str(config), "--vocab", str(vocab)])
        assert code == 2
        assert f"corrupt shard line 2 in {shards / 'shard_0.jsonl'}" in capsys.readouterr().err
        assert not list(out.glob("*.ckpt"))

    @pytest.mark.parametrize("task", ["ext", "abs", "prefit"])
    @pytest.mark.parametrize("change, reason", [
        ({"src": None}, "src is not a list of ints"),
        ({"src": "2 7 8 3"}, "src is not a list of ints"),
        ({"tgt": [5, 7.0, 8, 6]}, "tgt is not a list of ints"),
        ({"labels": [True]}, "labels is not a list of ints"),
        ({"clss": [[0]]}, "clss is not a list of ints"),
        ({"tgt_txt": "the cat"}, "tgt_txt is not a list of strs"),
        ({"segs": [0, 0, 0]}, "src and segs must be equally long"),
        ({"src": [], "segs": []}, "src and segs must be equally long and not empty"),
        ({"labels": []}, "labels and clss must be equally long"),
    ], ids=["null", "string", "float_id", "bool_label", "nested", "text_string",
            "segs_short", "empty_src", "labels_short"])
    def test_malformed_shard_record_exits_2(self, tmp_path, capsys, task, change, reason):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        shards = tmp_path / "shards"
        shards.mkdir()
        _write_jsonl(shards / "shard_0.jsonl", [self._GOOD_RECORD, {**self._GOOD_RECORD, **change}])
        config = _write_config(tmp_path / "run.cfg", max_steps=1)
        out = tmp_path / "run"
        code = main(["train", "--task", task, "--shards", str(shards),
                     "--out", str(out), "--config", str(config), "--vocab", str(vocab)])
        assert code == 2
        err = capsys.readouterr().err
        assert "corrupt shard line 2" in err and reason in err
        assert not list(out.glob("*.ckpt"))

    # Records that trained with exit 0, or failed without naming file and
    # line, and the tasks that read the faulty field.
    @pytest.mark.parametrize("change, reason, tasks", [
        ({"labels": [5]}, "labels must be 0 or 1", ("ext", "abs", "prefit")),
        ({"src": [2, 7, 2, 3], "segs": [0, 0, 1, 1], "clss": [2, 0], "labels": [1, 0]},
         "clss must be strictly increasing", ("ext", "abs", "prefit")),
        ({"clss": [4]}, "clss must be strictly increasing positions inside src", ("ext", "abs", "prefit")),
        ({"clss": [-1]}, "clss must be strictly increasing positions inside src", ("ext", "abs", "prefit")),
        ({"tgt": [5]}, "tgt must hold at least 2 ids", ("abs",)),
        ({"tgt": []}, "tgt must hold at least 2 ids", ("abs",)),
        ({"segs": [7, 7, 7, 7]}, "segs must be 0 or 1", ("ext", "abs", "prefit")),
        ({"clss": [1]}, "clss must point at [CLS] tokens in src", ("ext", "abs", "prefit")),
        ({"clss": [], "labels": []}, "clss must not be empty", ("ext", "abs", "prefit")),
        ({"src": [2, 7, _VOCAB_SIZE, 3]}, f"src ids must be in [0, {_VOCAB_SIZE})", ("ext", "abs", "prefit")),
        ({"tgt": [5, _VOCAB_SIZE, 8, 6]}, f"tgt ids must be in [0, {_VOCAB_SIZE})", ("ext", "abs", "prefit")),
        ({"src": [2, 7, 10**30, 3]}, f"src ids must be in [0, {_VOCAB_SIZE})", ("ext", "abs", "prefit")),
        # Longer than the config's max_positions (64): the model has no
        # position for the 65th id. Only abs reads tgt.
        ({"src": [2] + [7] * 63 + [3], "segs": [0] * 65}, "src holds 65 ids, more than max_positions 64",
         ("ext", "abs", "prefit")),
        ({"tgt": [5] + [7] * 63 + [6]}, "tgt holds 65 ids, more than max_positions 64", ("abs",)),
    ], ids=["labels_5", "clss_decreasing", "clss_past_src", "clss_negative", "tgt_1_id",
            "tgt_empty", "segs_7", "clss_not_cls", "clss_empty", "src_id_past_vocab",
            "tgt_id_past_vocab", "src_id_past_int64", "src_past_max_positions",
            "tgt_past_max_positions"])
    @pytest.mark.parametrize("task", ["ext", "abs", "prefit"])
    def test_record_outside_the_contract_exits_2(self, tmp_path, capsys, task, change, reason, tasks):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        shards = tmp_path / "shards"
        shards.mkdir()
        _write_jsonl(shards / "shard_0.jsonl", [self._GOOD_RECORD, {**self._GOOD_RECORD, **change}])
        config = _write_config(tmp_path / "run.cfg", max_steps=1, batch_size=2)
        out = tmp_path / "run"
        code = main(["train", "--task", task, "--shards", str(shards),
                     "--out", str(out), "--config", str(config), "--vocab", str(vocab)])
        err = capsys.readouterr().err
        if task not in tasks:  # a field this task never reads
            assert code == 0, err
            return
        assert code == 2
        assert f"corrupt shard line 2 in {shards / 'shard_0.jsonl'}" in err and reason in err
        assert not list(out.glob("*.ckpt"))

    @pytest.mark.parametrize("bad_id", [-1, 99999])
    def test_prefit_target_outside_vocabulary_exits_2(self, tmp_path, capsys, bad_id):
        # The bad id is the record's only maskable token, so pre-fit always
        # masks it (never embeds it) and asks the loss to predict it.
        vocab = _write_vocab(tmp_path / "vocab.txt")
        shards = tmp_path / "shards"
        shards.mkdir()
        record = {**self._GOOD_RECORD, "src": [2, bad_id, 3], "segs": [0, 0, 0]}
        _write_jsonl(shards / "shard_0.jsonl", [record])
        config = _write_config(tmp_path / "run.cfg", max_steps=1, batch_size=1)
        out = tmp_path / "run"
        code = main(["train", "--task", "prefit", "--shards", str(shards),
                     "--out", str(out), "--config", str(config), "--vocab", str(vocab)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"corrupt shard line 1 in {shards / 'shard_0.jsonl'}" in err
        assert f"src ids must be in [0, {_VOCAB_SIZE})" in err
        assert not list(out.glob("*.ckpt"))

    def test_seed_comes_from_the_config_only(self, tmp_path, capsys):
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg", seed=7)
        out = tmp_path / "run"
        argv = ["train", "--task", "ext", "--shards", str(shards),
                "--out", str(out), "--config", str(config), "--vocab", str(vocab)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", "3"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert main(argv) == 0
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert manifest["seed"] == 7

    @pytest.mark.parametrize("value", ["11", "lots"])
    def test_environment_does_not_set_seed(self, tmp_path, capsys, monkeypatch, value):
        # The seed comes from the config's `seed`, else 0.
        monkeypatch.setenv("SUMFORGE_SEED", value)
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg")
        out = tmp_path / "run"
        assert main(["train", "--task", "ext", "--shards", str(shards),
                     "--out", str(out), "--config", str(config),
                     "--vocab", str(vocab)]) == 0
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert manifest["seed"] == 0

    def test_same_seed_reruns_byte_identical(self, tmp_path, capsys):
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg", seed=5)
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--task", "ext", "--shards", str(shards),
                         "--out", str(out), "--config", str(config),
                         "--vocab", str(vocab)]) == 0
            blobs.append((
                (out / "ext_final.ckpt").read_bytes(),
                (out / "trace.csv").read_bytes(),
            ))
        assert blobs[0] == blobs[1]


# Checkpoint header corruptions that must be reported as format errors.
_HEADER_EDITS = {
    "no_kind": lambda h: {k: v for k, v in h.items() if k != "kind"},
    "no_config": lambda h: {k: v for k, v in h.items() if k != "config"},
    "unknown_config_key": lambda h: {**h, "config": {**h["config"], "no_such_key": 1}},
    "not_an_object": lambda h: [h],
    "step_null": lambda h: {**h, "step": None},
    "seed_list": lambda h: {**h, "seed": [h["seed"]]},
}
# Each integer dimension of the model config as a float, a bool and a string.
_HEADER_EDITS |= {
    f"{name}_{kind}": (lambda name, value: lambda h: {**h, "config": {**h["config"], name: value}})(name, value)
    for name in (f.name for f in fields(ModelConfig) if f.type == "int")
    for kind, value in (("float", 1.0), ("true", True), ("string", "2"))
}


class TestSummarize:
    def test_ext_prints_at_most_k_article_sentences(self, tmp_path, capsys):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        ckpt = _save_model(tmp_path / "ext.ckpt", "ext")
        story = _write_story_file(tmp_path / "doc.story")

        code = main(["summarize", "--task", "ext", "--checkpoint", str(ckpt),
                     "--vocab", str(vocab), "--input", str(story), "--k", "3"])

        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert 1 <= len(lines) <= 3
        for line in lines:
            assert line in _ARTICLE

    def test_ext_k1_prints_single_line(self, tmp_path, capsys):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        ckpt = _save_model(tmp_path / "ext.ckpt", "ext")
        story = _write_story_file(tmp_path / "doc.story")
        assert main(["summarize", "--task", "ext", "--checkpoint", str(ckpt),
                     "--vocab", str(vocab), "--input", str(story),
                     "--k", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_plain_text_input_is_sentence_split(self, tmp_path, capsys):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        ckpt = _save_model(tmp_path / "ext.ckpt", "ext")
        plain = tmp_path / "doc.txt"
        plain.write_text("the cat sat . a dog ran fast . rain fell .", "utf-8")
        assert main(["summarize", "--task", "ext", "--checkpoint", str(ckpt),
                     "--vocab", str(vocab), "--input", str(plain),
                     "--k", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines
        for line in lines:
            assert line in ["the cat sat .", "a dog ran fast .", "rain fell ."]

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        ckpt = _save_model(tmp_path / "ext.ckpt", "ext")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"the cat sat . a dog ran .")))
        assert main(["summarize", "--task", "ext", "--checkpoint", str(ckpt),
                     "--vocab", str(vocab), "--input", "-", "--k", "1"]) == 0
        assert capsys.readouterr().out.strip() in ("the cat sat .", "a dog ran .")

    def test_abs_prints_one_deterministic_line(self, tmp_path, capsys):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        ckpt = _save_model(tmp_path / "abs.ckpt", "abs")
        story = _write_story_file(tmp_path / "doc.story")
        args = ["summarize", "--task", "abs", "--checkpoint", str(ckpt),
                "--vocab", str(vocab), "--input", str(story),
                "--beam", "2", "--max-len", "8"]

        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out

        assert first == second
        assert first.endswith("\n") and first.count("\n") == 1
        assert "[" not in first  # no special markers leak into text

    def test_corrupt_checkpoint_exits_2(self, tmp_path, capsys):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"not a checkpoint at all")
        story = _write_story_file(tmp_path / "doc.story")
        code = main(["summarize", "--task", "ext", "--checkpoint", str(bad),
                     "--vocab", str(vocab), "--input", str(story)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("task", ["ext", "abs"])
    def test_all_nan_checkpoint_exits_2(self, tmp_path, capsys, task):
        model = build_model(_tiny_model_config(), task, seed=0)
        for param in model.params.values():
            param.data[...] = np.nan
        ckpt = tmp_path / f"{task}.ckpt"
        save_checkpoint(model, ckpt)
        code = main(["summarize", "--task", task, "--checkpoint", str(ckpt), "--vocab",
                     str(_write_vocab(tmp_path / "vocab.txt")), "--input",
                     str(_write_story_file(tmp_path / "doc.story")), "--max-len", "4"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error:") and "holds a NaN or infinite value" in captured.err

    @staticmethod
    def _summarize_with_header(tmp_path, capsys, edit) -> str:
        """Summarize with an ext checkpoint whose JSON header is
        edit(header bytes); expects exit 2 and returns stderr."""
        vocab = _write_vocab(tmp_path / "vocab.txt")
        ckpt = _save_model(tmp_path / "ext.ckpt", "ext")
        blob = ckpt.read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = edit(blob[12 : 12 + header_len])
        ckpt.write_bytes(
            blob[:8] + struct.pack("<I", len(header)) + header + blob[12 + header_len :]
        )
        story = _write_story_file(tmp_path / "doc.story")
        code = main(["summarize", "--task", "ext", "--checkpoint", str(ckpt),
                     "--vocab", str(vocab), "--input", str(story)])
        err = capsys.readouterr().err
        assert code == 2
        assert "internal error" not in err and err.startswith("error:")
        return err

    @pytest.mark.parametrize("edit", sorted(_HEADER_EDITS))
    def test_corrupt_checkpoint_header_exits_2(self, tmp_path, capsys, edit):
        err = self._summarize_with_header(
            tmp_path, capsys, lambda header: json.dumps(_HEADER_EDITS[edit](json.loads(header))).encode()
        )
        if edit.endswith(("_float", "_true")):
            assert "must be integers >= 1" in err

    def test_deeply_nested_checkpoint_header_exits_2(self, tmp_path, capsys):
        err = self._summarize_with_header(tmp_path, capsys, lambda header: b"[" * 200_000)
        assert "checkpoint header is not JSON" in err

    def test_training_after_summarize_still_records_gradients(self, tmp_path, capsys):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        story = _write_story_file(tmp_path / "doc.story")
        for task in ("ext", "abs"):
            ckpt = _save_model(tmp_path / f"{task}.ckpt", task)
            assert main(["summarize", "--task", task, "--checkpoint", str(ckpt),
                         "--vocab", str(vocab), "--input", str(story),
                         "--max-len", "4"]) == 0
        model = build_model(_tiny_model_config(), "abs", seed=0)
        src = np.array([[2, 10, 11, 3]])
        tgt = np.array([[5, 12, 13, 6]])
        pad = np.zeros(src.shape, dtype=bool)
        rng = np.random.default_rng(0)
        hidden = model.encode(src, np.zeros_like(src), pad, train=True, rng=rng)
        states = model.decode_teacher_forced(hidden, tgt, pad, train=True, rng=rng)
        T.backward(abs_loss(states, model.params["encoder.tok_emb"], tgt, np.zeros(tgt.shape, dtype=bool)))
        assert all(p.grad is not None for p in model.params.values())

    def test_task_checkpoint_kind_mismatch_exits_2(self, tmp_path, capsys):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        ckpt = _save_model(tmp_path / "ext.ckpt", "ext")
        story = _write_story_file(tmp_path / "doc.story")
        code = main(["summarize", "--task", "abs", "--checkpoint", str(ckpt),
                     "--vocab", str(vocab), "--input", str(story)])
        assert code == 2
        assert "model kind mismatch" in capsys.readouterr().err

    def test_vocab_size_mismatch_exits_2(self, tmp_path, capsys):
        vocab = _write_vocab(tmp_path / "vocab.txt", _WORDS + ["extra"])
        ckpt = _save_model(tmp_path / "ext.ckpt", "ext")
        story = _write_story_file(tmp_path / "doc.story")
        code = main(["summarize", "--task", "ext", "--checkpoint", str(ckpt),
                     "--vocab", str(vocab), "--input", str(story)])
        assert code == 2
        assert "model expects" in capsys.readouterr().err


class TestSummarizeLoadsOnce:
    """Repeated in-process summarize calls share one checkpoint and one
    vocabulary while the files hold the same bytes."""

    @pytest.fixture
    def loads(self, monkeypatch):
        monkeypatch.setattr(cli, "_checkpoints", cli._LastLoad())
        monkeypatch.setattr(cli, "_vocabs", cli._LastLoad())
        counts = {"checkpoint": 0, "vocab": 0}

        def counting(name, loader):
            def load(*args, **kwargs):
                counts[name] += 1
                return loader(*args, **kwargs)
            return load

        monkeypatch.setattr(cli, "load_checkpoint", counting("checkpoint", cli.load_checkpoint))
        monkeypatch.setattr(cli, "load_vocab", counting("vocab", cli.load_vocab))
        return counts

    @staticmethod
    def _files(tmp_path, task="abs"):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        ckpt = _save_model(tmp_path / f"{task}.ckpt", task)
        story = _write_story_file(tmp_path / "doc.story")
        return vocab, ckpt, story

    @staticmethod
    def _summarize(capsys, vocab, ckpt, story, task="abs"):
        code = main(["summarize", "--task", task, "--checkpoint", str(ckpt),
                     "--vocab", str(vocab), "--input", str(story),
                     "--beam", "2", "--max-len", "6"])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def _fresh(monkeypatch, capsys, *files, task="abs"):
        monkeypatch.setattr(cli, "_checkpoints", cli._LastLoad())
        monkeypatch.setattr(cli, "_vocabs", cli._LastLoad())
        return TestSummarizeLoadsOnce._summarize(capsys, *files, task=task)

    @pytest.mark.parametrize("task", ["ext", "abs"])
    def test_repeated_calls_load_each_file_once(self, tmp_path, capsys, loads, task):
        files = self._files(tmp_path, task)
        outs = {self._summarize(capsys, *files, task=task) for _ in range(4)}
        assert len(outs) == 1 and next(iter(outs))[0] == 0
        assert loads == {"checkpoint": 1, "vocab": 1}

    def test_rewritten_checkpoint_is_loaded_again(self, tmp_path, capsys, monkeypatch, loads):
        vocab, ckpt, story = self._files(tmp_path)
        first = self._summarize(capsys, vocab, ckpt, story)
        other = _save_model(tmp_path / "other.ckpt", "abs", seed=3)
        ckpt.write_bytes(other.read_bytes())  # in place: same inode
        second = self._summarize(capsys, vocab, ckpt, story)
        assert loads == {"checkpoint": 2, "vocab": 1}
        assert second != first
        assert second == self._fresh(monkeypatch, capsys, vocab, ckpt, story)

    def test_checkpoint_corrupted_after_a_good_load_exits_2(self, tmp_path, capsys, loads):
        vocab, ckpt, story = self._files(tmp_path)
        good = ckpt.read_bytes()
        assert self._summarize(capsys, vocab, ckpt, story)[0] == 0
        ckpt.write_bytes(good[: len(good) // 2])
        code, out, err = self._summarize(capsys, vocab, ckpt, story)
        assert (code, out) == (2, "") and err.startswith("error:")
        assert cli._checkpoints.data is None and cli._checkpoints.value is None
        ckpt.write_bytes(good)
        assert self._summarize(capsys, vocab, ckpt, story)[0] == 0
        assert loads["checkpoint"] == 3

    def test_vocab_of_another_size_exits_2(self, tmp_path, capsys, loads):
        vocab, ckpt, story = self._files(tmp_path)
        assert self._summarize(capsys, vocab, ckpt, story)[0] == 0
        _write_vocab(vocab, _WORDS + ["extra"])
        code, _, err = self._summarize(capsys, vocab, ckpt, story)
        assert code == 2 and "model expects" in err
        assert loads == {"checkpoint": 1, "vocab": 2}

    def test_interleaved_documents_match_fresh_loads(self, tmp_path, capsys, monkeypatch, loads):
        vocab, ckpt, story = self._files(tmp_path, "ext")
        plain = tmp_path / "doc.txt"
        plain.write_text("birds sang songs now . the sun rose slowly .", "utf-8")
        docs = [story, plain, story, plain]
        shared = [self._summarize(capsys, vocab, ckpt, doc, "ext") for doc in docs]
        fresh = [self._fresh(monkeypatch, capsys, vocab, ckpt, doc, task="ext") for doc in docs]
        assert shared == fresh
        assert shared[0] != shared[1]

    def test_shared_weights_stay_bitwise_equal_and_read_only(self, tmp_path, capsys, loads):
        vocab, ckpt, story = self._files(tmp_path)
        for _ in range(3):
            assert self._summarize(capsys, vocab, ckpt, story)[0] == 0
        shared = cli._checkpoints.value.params
        fresh = load_checkpoint(ckpt).params
        assert shared.keys() == fresh.keys()
        for name, param in shared.items():
            assert np.array_equal(param.data, fresh[name].data), name
            assert not param.data.flags.writeable, name
        with pytest.raises(ValueError):
            shared["encoder.tok_emb"].data[0, 0] = 1.0


_EVAL_RECORDS = [{"id": f"d{i}", "text": f"the cat sat {i} ."} for i in range(4)]


@st.composite
def _spoiled_jsonl(draw) -> tuple[str, int]:
    """_EVAL_RECORDS as JSON lines with one record spoiled: cut short, "id"
    or "text" of another type or missing, not an object, an earlier
    record's id, nested past the parser's recursion limit, or holding an
    integer too long to read. Returns the text and the spoiled line's
    number."""
    lines = [json.dumps(r) for r in _EVAL_RECORDS]
    fault = draw(st.sampled_from(["truncate", "type", "missing", "non_object", "duplicate", "deep", "huge"]))
    i = draw(st.integers(1 if fault == "duplicate" else 0, len(lines) - 1))
    record = dict(_EVAL_RECORDS[i])
    if fault == "truncate":
        line = lines[i][: draw(st.integers(1, len(lines[i]) - 1))]
    elif fault == "type":
        record[draw(st.sampled_from(["id", "text"]))] = draw(
            st.sampled_from([None, 3, 1.5, True, [], {}, ["x"], {"id": "x"}]))
        line = json.dumps(record)
    elif fault == "missing":
        del record[draw(st.sampled_from(["id", "text"]))]
        line = json.dumps(record)
    elif fault == "non_object":
        line = draw(st.sampled_from(["7", "null", "true", '["id", "text"]', '"id text"']))
    elif fault == "duplicate":
        record["id"] = _EVAL_RECORDS[draw(st.integers(0, i - 1))]["id"]
        line = json.dumps(record)
    elif fault == "deep":
        line = "[" * 200_000
    else:  # as text: json.dumps cannot write such an integer
        key = draw(st.sampled_from(["id", "text"]))
        line = lines[i].replace(json.dumps({key: record[key]})[1:-1], f'"{key}": {_HUGE_INT}')
    return "".join(f"{x}\n" for x in lines[:i] + [line] + lines[i + 1:]), i + 1


class TestEvaluate:
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(spoiled=_spoiled_jsonl(), side=st.sampled_from(["predictions", "references"]))
    def test_spoiled_record_exits_2_naming_file_and_line(self, spoiled, side):
        """One JSON-lines reader serves both files: a spoiled record exits 2,
        its error naming the file and the spoiled line."""
        text, line_no = spoiled
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err):
            paths = {name: Path(tmp) / f"{name}.jsonl" for name in ("predictions", "references")}
            for name, path in paths.items():
                if name == side:
                    path.write_text(text, encoding="utf-8")
                else:
                    _write_jsonl(path, _EVAL_RECORDS)
            code = main(["evaluate", "--predictions", str(paths["predictions"]),
                         "--references", str(paths["references"])])
        assert code == 2, (text[:200], err.getvalue())
        assert err.getvalue().startswith(f"error: {paths[side]}:{line_no}: "), err.getvalue()[:300]

    def test_identical_files_score_100(self, tmp_path, capsys):
        records = [
            {"id": "a", "text": "the cat sat on the mat ."},
            {"id": "b", "text": "rain fell all night ."},
        ]
        pred = _write_jsonl(tmp_path / "pred.jsonl", records)
        ref = _write_jsonl(tmp_path / "ref.jsonl", records)

        code = main(["evaluate", "--predictions", str(pred),
                     "--references", str(ref)])

        assert code == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].split() == ["P", "R", "F1"]
        assert [line.split()[0] for line in lines[1:]] == ["R1", "R2", "RL"]
        assert out.count("100.00") == 9

    def test_disjoint_texts_score_0(self, tmp_path, capsys):
        pred = _write_jsonl(tmp_path / "p.jsonl", [{"id": "a", "text": "cat dog"}])
        ref = _write_jsonl(tmp_path / "r.jsonl", [{"id": "a", "text": "sun moon"}])
        assert main(["evaluate", "--predictions", str(pred),
                     "--references", str(ref)]) == 0
        assert capsys.readouterr().out.count("0.00") == 9

    def test_alignment_is_by_id_not_line_order(self, tmp_path, capsys):
        records = [
            {"id": "a", "text": "the cat sat ."},
            {"id": "b", "text": "rain fell all night ."},
        ]
        pred = _write_jsonl(tmp_path / "p.jsonl", records[::-1])
        ref = _write_jsonl(tmp_path / "r.jsonl", records)
        assert main(["evaluate", "--predictions", str(pred),
                     "--references", str(ref)]) == 0
        assert capsys.readouterr().out.count("100.00") == 9

    def test_count_mismatch_exits_2(self, tmp_path, capsys):
        pred = _write_jsonl(tmp_path / "p.jsonl", [
            {"id": "a", "text": "x"}, {"id": "b", "text": "y"},
        ])
        ref = _write_jsonl(tmp_path / "r.jsonl", [{"id": "a", "text": "x"}])
        code = main(["evaluate", "--predictions", str(pred),
                     "--references", str(ref)])
        assert code == 2
        assert "2 predictions vs 1 references" in capsys.readouterr().err

    def test_id_mismatch_exits_2(self, tmp_path, capsys):
        pred = _write_jsonl(tmp_path / "p.jsonl", [{"id": "a", "text": "x"}])
        ref = _write_jsonl(tmp_path / "r.jsonl", [{"id": "z", "text": "x"}])
        code = main(["evaluate", "--predictions", str(pred),
                     "--references", str(ref)])
        assert code == 2
        assert "ids do not match" in capsys.readouterr().err

    def test_invalid_json_line_exits_2(self, tmp_path, capsys):
        pred = tmp_path / "p.jsonl"
        pred.write_text('{"id": "a", "text": "x"}\nnot json\n', encoding="utf-8")
        ref = _write_jsonl(tmp_path / "r.jsonl", [{"id": "a", "text": "x"}])
        code = main(["evaluate", "--predictions", str(pred),
                     "--references", str(ref)])
        assert code == 2
        assert "invalid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("char", _SPLITLINES_ONLY, ids=repr)
    def test_only_newline_ends_a_record(self, tmp_path, capsys, char):
        """A raw U+0085, U+2028 or U+2029 inside a JSON string is valid and
        stays in its record; the raw control characters are not valid JSON,
        and the error names the record's own line."""
        paths = [tmp_path / "p.jsonl", tmp_path / "r.jsonl"]
        for path in paths:
            path.write_text('{"id": "b", "text": "rain fell"}\n{"id": "a", "text": "the' + char + 'cat sat"}\n',
                            encoding="utf-8")
        code = main(["evaluate", "--predictions", str(paths[0]), "--references", str(paths[1])])
        if char < " ":
            assert code == 2
            assert f"{paths[0]}:2: invalid JSON: Invalid control character" in capsys.readouterr().err
        else:
            assert code == 0
            assert capsys.readouterr().out.count("100.00") == 9
            assert cli._read_jsonl_texts(paths[0]) == {"b": "rain fell", "a": f"the{char}cat sat"}

    def test_deeply_nested_json_line_exits_2(self, tmp_path, capsys):
        pred = tmp_path / "p.jsonl"
        pred.write_text('{"id": "a", "text": "x"}\n' + "[" * 200_000 + "\n", encoding="utf-8")
        ref = _write_jsonl(tmp_path / "r.jsonl", [{"id": "a", "text": "x"}])
        code = main(["evaluate", "--predictions", str(pred),
                     "--references", str(ref)])
        assert code == 2
        assert f"{pred}:2: invalid JSON" in capsys.readouterr().err

    def test_record_missing_text_key_exits_2(self, tmp_path, capsys):
        pred = _write_jsonl(tmp_path / "p.jsonl", [{"id": "a"}])
        ref = _write_jsonl(tmp_path / "r.jsonl", [{"id": "a", "text": "x"}])
        assert main(["evaluate", "--predictions", str(pred),
                     "--references", str(ref)]) == 2

    @pytest.mark.parametrize("record", [
        {"id": "a", "text": None},
        {"id": 1, "text": "x"},
        {"id": "a", "text": ["x"]},
    ], ids=["null_text", "numeric_id", "list_text"])
    def test_non_string_id_or_text_exits_2(self, tmp_path, capsys, record):
        pred = _write_jsonl(tmp_path / "p.jsonl", [record])
        ref = _write_jsonl(tmp_path / "r.jsonl", [{"id": "a", "text": "None"}])
        code = main(["evaluate", "--predictions", str(pred),
                     "--references", str(ref)])
        assert code == 2
        assert "must be strings" in capsys.readouterr().err

    def test_duplicate_id_exits_2(self, tmp_path, capsys):
        pred = _write_jsonl(tmp_path / "p.jsonl", [
            {"id": "a", "text": "x"}, {"id": "a", "text": "y"},
        ])
        ref = _write_jsonl(tmp_path / "r.jsonl", [{"id": "a", "text": "x"}])
        code = main(["evaluate", "--predictions", str(pred),
                     "--references", str(ref)])
        assert code == 2
        assert "duplicate id" in capsys.readouterr().err

    def test_empty_files_exit_2(self, tmp_path, capsys):
        pred = _write_jsonl(tmp_path / "p.jsonl", [])
        ref = _write_jsonl(tmp_path / "r.jsonl", [])
        code = main(["evaluate", "--predictions", str(pred),
                     "--references", str(ref)])
        assert code == 2
        assert "no documents" in capsys.readouterr().err


_TRACER_SCRIPT = """
import json, sys
from tracer import Tracer, install
tracer = Tracer()
install(tracer, False)
from sumforge import cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
dump = tracer.dump()
print(json.dumps(sorted({dump["names"][span[0]] for span in dump["spans"]})))
"""


class TestPerfbenchTracer:
    """The benchmark's outside-in tracer wraps names of `model` and `train`;
    training must still call every one of them through those names. Runs in
    a child interpreter because installing the tracer patches the modules."""

    def test_tracer_sees_every_training_layer(self, tmp_path):
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg", max_steps=2, checkpoint_every=1)
        common = ["--shards", str(shards), "--config", str(config), "--vocab", str(vocab)]
        encoder = tmp_path / "prefit" / "encoder_final.ckpt"
        runs = [
            ["train", "--task", "prefit", "--out", str(tmp_path / "prefit"), *common],
            ["train", "--task", "ext", "--out", str(tmp_path / "ext"), *common,
             "--init-encoder", str(encoder)],
            ["train", "--task", "abs", "--out", str(tmp_path / "abs"), *common,
             "--init-encoder", str(encoder)],
        ]
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(root / "src"), str(root / "perfbench"), os.environ.get("PYTHONPATH", "")]
        )}
        done = subprocess.run(
            [sys.executable, "-c", _TRACER_SCRIPT, json.dumps(runs)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        spans = set(json.loads(done.stdout.splitlines()[-1]))
        expected = {
            "train.batch", "train.adam", "train.clip", "model.encode",
            "model.save_checkpoint", "model.ext_loss", "model.abs_loss", "model.decode",
        }
        assert expected <= spans, sorted(expected - spans)


_X86_GLIBC = cli._mxcsr() is not None
_MXCSR_FLAGS = 0x3F  # the exception flags, which arithmetic sets as it runs


def _child_env(**extra: str) -> dict[str, str]:
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
            **extra}


# An all-subnormal float32 operand made from its bits: a float literal
# converted after FTZ is set would already be zero. Prints the CLI's flag,
# MXCSR and how many of the product's 128 x 128 outputs are zero.
_PRODUCT_SCRIPT = """
import sys
if sys.argv[1] == "cli":
    from sumforge import cli
    import numpy as np
else:
    import numpy as np
    from sumforge import cli
a = np.full((1560, 128), 0x000AE397, np.uint32).view(np.float32)
product = a.T @ np.ones((1560, 128), np.float32)
print(cli.FLUSH_SUBNORMALS, cli._mxcsr(), int((product == 0).sum()))
"""


class TestFlushSubnormals:
    """The CLI sets FTZ|DAZ when it loads before numpy, so every BLAS thread
    flushes; after numpy it sets nothing, so no thread does."""

    @pytest.mark.skipif(not _X86_GLIBC, reason="MXCSR is read through glibc's x86-64 fenv_t")
    @pytest.mark.parametrize("first", ["cli", "numpy"])
    def test_every_blas_thread_or_none_flushes(self, first):
        done = subprocess.run(
            [sys.executable, "-c", _PRODUCT_SCRIPT, first], capture_output=True, text=True,
            env=_child_env(OPENBLAS_NUM_THREADS="2"), timeout=120,
        )
        assert done.returncode == 0, done.stderr
        flushed, mxcsr, zeros = done.stdout.split()
        mxcsr = int(mxcsr)
        if first == "cli":
            assert (flushed, mxcsr & cli.FTZ_DAZ, zeros) == ("True", cli.FTZ_DAZ, "16384")
        else:
            assert (flushed, zeros) == ("False", "0")
            assert mxcsr & ~_MXCSR_FLAGS == cli._mxcsr() & ~_MXCSR_FLAGS

    @pytest.mark.parametrize("task", ["ext", "abs", "prefit"])
    def test_child_cli_flushes_and_keeps_the_bytes(self, tmp_path, capsys, task):
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg", mask_prob=0.3, seed=3)
        argv = ["train", "--task", task, "--shards", str(shards), "--config", str(config),
                "--vocab", str(vocab), "--out"]
        assert main([*argv, str(tmp_path / "in_process")]) == 0
        done = subprocess.run(
            [sys.executable, "-m", "sumforge.cli", *argv, str(tmp_path / "child")],
            capture_output=True, text=True, env=_child_env(), timeout=300,
        )
        assert done.returncode == 0, done.stderr
        ckpt = "encoder_final.ckpt" if task == "prefit" else f"{task}_final.ckpt"
        runs = {}
        for side in ("in_process", "child"):
            out = tmp_path / side
            env = json.loads((out / "manifest.json").read_text("utf-8"))["environment"]
            runs[side] = ((out / ckpt).read_bytes(), (out / "trace.csv").read_bytes(),
                          env["flush_subnormals"], env["mxcsr"])
        assert runs["child"][:2] == runs["in_process"][:2]
        assert runs["in_process"][2] is False
        assert runs["child"][2] is _X86_GLIBC
        if _X86_GLIBC:
            assert int(runs["in_process"][3], 16) & cli.FTZ_DAZ == 0
            assert int(runs["child"][3], 16) & cli.FTZ_DAZ == cli.FTZ_DAZ

    @pytest.mark.parametrize("patch", [
        ("machine", lambda: "aarch64"), ("libc_ver", lambda: ("musl", "1.2.4")),
    ])
    def test_another_cpu_or_libc_sets_nothing(self, monkeypatch, patch):
        monkeypatch.setattr(cli.platform, *patch)
        monkeypatch.setattr(cli.ctypes, "CDLL", mock.Mock(side_effect=AssertionError("libm loaded")))
        monkeypatch.delitem(sys.modules, "numpy")
        assert cli._flush_subnormals() is False
        assert cli._mxcsr() is None


class TestExitCodeContract:
    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code = main(["evaluate", "--predictions", str(tmp_path / "nope.jsonl"),
                     "--references", str(tmp_path / "nope.jsonl")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_required_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate"])
        assert exc.value.code == 2

    def test_unexpected_exception_returns_1(self, tmp_path, capsys, monkeypatch):
        import sumforge.cli as cli_module

        def boom(*args, **kwargs):
            raise RuntimeError("wires crossed")

        monkeypatch.setattr(cli_module, "evaluate_corpus", boom)
        pred = _write_jsonl(tmp_path / "p.jsonl", [{"id": "a", "text": "x"}])
        code = main(["evaluate", "--predictions", str(pred),
                     "--references", str(pred)])
        assert code == 1
        assert "internal error: RuntimeError" in capsys.readouterr().err

    def test_bare_value_error_is_a_bug_and_returns_1(self, tmp_path, capsys, monkeypatch):
        # Every input fault is a named SumforgeError; a numpy ValueError
        # that escapes a subcommand is a bug, not a usage problem.
        def boom(*args, **kwargs):
            raise ValueError("operands could not be broadcast together")

        monkeypatch.setattr(cli, "evaluate_corpus", boom)
        pred = _write_jsonl(tmp_path / "p.jsonl", [{"id": "a", "text": "x"}])
        code = main(["evaluate", "--predictions", str(pred),
                     "--references", str(pred)])
        assert code == 1
        assert "internal error: ValueError" in capsys.readouterr().err

    def test_diagnostics_go_to_stderr_not_stdout(self, tmp_path, capsys):
        code = main(["convert", "--input", str(tmp_path / "missing"),
                     "--encoding", "utf-8", "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err != ""


class TestInvalidUtf8:
    """Every text reader names the file and the line of a byte that is not
    UTF-8 and exits 2, where a raw UnicodeDecodeError named neither."""

    BAD = b"\xff\xfe"

    def _assert_named(self, capsys, code, path, line):
        assert code == 2
        err = capsys.readouterr().err
        assert f"{path}: line {line}: invalid UTF-8 at byte" in err

    def _spoil(self, path: Path, line: int) -> Path:
        """Put a bad byte at the start of line `line` (1-based)."""
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] = self.BAD + lines[line - 1]
        path.write_bytes(b"\n".join(lines))
        return path

    def test_config_file(self, tmp_path, capsys):
        shards, vocab = _make_shards(tmp_path)
        config = self._spoil(_write_config(tmp_path / "run.cfg"), 2)
        code = main(["train", "--task", "ext", "--shards", str(shards), "--vocab", str(vocab),
                     "--out", str(tmp_path / "run"), "--config", str(config)])
        self._assert_named(capsys, code, config, 2)

    def test_vocab(self, tmp_path, capsys):
        stories = _make_stories(tmp_path)
        vocab = self._spoil(_write_vocab(tmp_path / "vocab.txt"), 9)
        code = main(["preprocess", "--stories", str(stories), "--vocab", str(vocab),
                     "--out", str(tmp_path / "shards")])
        self._assert_named(capsys, code, vocab, 9)

    def test_shard(self, tmp_path, capsys):
        shards, vocab = _make_shards(tmp_path)
        shard = self._spoil(shards / "shard_0.jsonl", 3)
        code = main(["train", "--task", "ext", "--shards", str(shards), "--vocab", str(vocab),
                     "--out", str(tmp_path / "run"), "--config", str(_write_config(tmp_path / "run.cfg"))])
        self._assert_named(capsys, code, shard, 3)
        assert not list((tmp_path / "run").glob("*.ckpt"))

    def test_story(self, tmp_path, capsys):
        stories = _make_stories(tmp_path)
        story = self._spoil(stories / "doc1.story", 4)
        code = main(["preprocess", "--stories", str(stories),
                     "--vocab", str(_write_vocab(tmp_path / "vocab.txt")),
                     "--out", str(tmp_path / "shards")])
        self._assert_named(capsys, code, story, 4)

    def test_summarize_input(self, tmp_path, capsys):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        ckpt = _save_model(tmp_path / "ext.ckpt", "ext")
        story = self._spoil(_write_story_file(tmp_path / "doc.story"), 1)
        code = main(["summarize", "--task", "ext", "--checkpoint", str(ckpt),
                     "--vocab", str(vocab), "--input", str(story)])
        self._assert_named(capsys, code, story, 1)

    def test_summarize_stdin(self, tmp_path, capsys, monkeypatch):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        ckpt = _save_model(tmp_path / "ext.ckpt", "ext")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"the cat .\n" + self.BAD)))
        code = main(["summarize", "--task", "ext", "--checkpoint", str(ckpt),
                     "--vocab", str(vocab), "--input", "-"])
        self._assert_named(capsys, code, "<stdin>", 2)

    def test_summarize_vocab(self, tmp_path, capsys):
        vocab = self._spoil(_write_vocab(tmp_path / "vocab.txt"), 3)
        ckpt = _save_model(tmp_path / "ext.ckpt", "ext")
        code = main(["summarize", "--task", "ext", "--checkpoint", str(ckpt),
                     "--vocab", str(vocab), "--input", str(_write_story_file(tmp_path / "doc.story"))])
        self._assert_named(capsys, code, vocab, 3)

    def test_convert_utf8(self, tmp_path, capsys):
        raw = _raw_pairs(tmp_path, "d1", "d2")
        summary = raw / "d2.sum.txt"
        summary.write_bytes(b"the cat .\r\n" + self.BAD + b"a dog .")
        out = tmp_path / "stories"
        code = main(["convert", "--input", str(raw), "--encoding", "utf-8", "--out", str(out)])
        self._assert_named(capsys, code, summary, 2)
        assert not list(out.glob("*.story"))

    def test_convert_utf8_keeps_story_bytes(self, tmp_path, capsys):
        raw = _raw_pairs(tmp_path, "d1")
        (raw / "d1.txt").write_bytes("the cat sat .\r\nذهب الولد .".encode("utf-8"))
        outs = {}
        for encoding in ("utf-8", "latin-1"):
            out = tmp_path / encoding
            assert main(["convert", "--input", str(raw), "--encoding", encoding, "--out", str(out)]) == 0
            outs[encoding] = (out / "d1.story").read_text("utf-8")
        # utf-8 decodes what latin-1 reads as mojibake; both keep the \r\n.
        assert outs["utf-8"] == outs["latin-1"].encode("latin-1").decode("utf-8")

    @pytest.mark.parametrize("side", ["predictions", "references"])
    def test_jsonl(self, tmp_path, capsys, side):
        records = [{"id": "a", "text": "the cat"}, {"id": "b", "text": "a dog"}]
        paths = {s: _write_jsonl(tmp_path / f"{s}.jsonl", records)
                 for s in ("predictions", "references")}
        self._spoil(paths[side], 2)
        code = main(["evaluate", "--predictions", str(paths["predictions"]),
                     "--references", str(paths["references"])])
        self._assert_named(capsys, code, paths[side], 2)
