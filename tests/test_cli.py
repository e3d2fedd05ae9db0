"""End-to-end checks for the command-line entry point.

Every test drives ``main`` in process and inspects exit codes, stdout,
stderr, and the files left on disk. Corpora and models are tiny so the
slowest cases (the train subcommand) stay well under a second.
"""

from __future__ import annotations

import io
import json
import re
import struct
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import SPECIALS
from sumforge import tensor as T
from sumforge.cli import main, parse_config_file
from sumforge.errors import ConfigError
from sumforge.ingest import StoryDoc, write_story
from sumforge.model import (
    ModelConfig,
    abs_loss,
    build_abs_model,
    build_ext_model,
    save_checkpoint,
)

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


def _write_jsonl(path: Path, records) -> Path:
    path.write_text(
        "".join(json.dumps(r) + "\n" for r in records), encoding="utf-8"
    )
    return path


def _tiny_model_config() -> ModelConfig:
    return ModelConfig(vocab_size=_VOCAB_SIZE, **_TINY_MODEL)


def _save_model(path: Path, task: str, seed: int = 0) -> Path:
    build = build_ext_model if task == "ext" else build_abs_model
    save_checkpoint(build(_tiny_model_config(), seed), path)
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
                     "--vocab", str(vocab), "--seed", "0"])

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

    def test_abs_writes_checkpoint(self, tmp_path, capsys):
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg", max_steps=4)
        out = tmp_path / "run"
        code = main(["train", "--task", "abs", "--shards", str(shards),
                     "--out", str(out), "--config", str(config),
                     "--vocab", str(vocab), "--seed", "0"])
        assert code == 0
        assert (out / "abs_final.ckpt").exists()
        assert "abs: 4 steps" in capsys.readouterr().out

    def test_prefit_then_init_encoder(self, tmp_path, capsys):
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg", max_steps=4, mask_prob=0.3)
        prefit_out = tmp_path / "prefit"

        code = main(["train", "--task", "prefit", "--shards", str(shards),
                     "--out", str(prefit_out), "--config", str(config),
                     "--vocab", str(vocab), "--seed", "0"])
        assert code == 0
        encoder_ckpt = prefit_out / "encoder_final.ckpt"
        assert encoder_ckpt.exists()

        code = main(["train", "--task", "ext", "--shards", str(shards),
                     "--out", str(tmp_path / "ft"), "--config", str(config),
                     "--vocab", str(vocab), "--seed", "0",
                     "--init-encoder", str(encoder_ckpt)])
        assert code == 0
        assert (tmp_path / "ft" / "ext_final.ckpt").exists()

    def test_non_finite_loss_exits_2_without_final_checkpoint(self, tmp_path, capsys):
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg")
        encoder = build_ext_model(_tiny_model_config(), seed=0).encoder
        encoder.params["layer0.ff.w1"].data[0, 0] = np.nan
        encoder_ckpt = tmp_path / "encoder_final.ckpt"
        save_checkpoint(encoder, encoder_ckpt)
        out = tmp_path / "run"
        capsys.readouterr()

        code = main(["train", "--task", "ext", "--shards", str(shards),
                     "--out", str(out), "--config", str(config),
                     "--vocab", str(vocab), "--seed", "0",
                     "--init-encoder", str(encoder_ckpt)])

        assert code == 2
        captured = capsys.readouterr()
        assert "loss is nan" in captured.err
        assert captured.out == ""
        assert not list(out.glob("*_final.ckpt"))

    def test_init_encoder_wrong_kind_exits_2(self, tmp_path, capsys):
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg")
        ext_ckpt = _save_model(tmp_path / "ext.ckpt", "ext")
        code = main(["train", "--task", "abs", "--shards", str(shards),
                     "--out", str(tmp_path / "run"), "--config", str(config),
                     "--vocab", str(vocab), "--seed", "0",
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

    def test_vocab_size_must_be_known_exits_2(self, tmp_path, capsys):
        shards, _ = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg")
        code = main(["train", "--task", "ext", "--shards", str(shards),
                     "--out", str(tmp_path / "run"), "--config", str(config)])
        assert code == 2
        assert "vocab_size" in capsys.readouterr().err

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

    def test_seed_flag_beats_config_value(self, tmp_path, capsys):
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg", seed=7)
        out = tmp_path / "run"
        assert main(["train", "--task", "ext", "--shards", str(shards),
                     "--out", str(out), "--config", str(config),
                     "--vocab", str(vocab), "--seed", "3"]) == 0
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert manifest["seed"] == 3

    def test_seed_falls_back_to_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SUMFORGE_SEED", "11")
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg")
        out = tmp_path / "run"
        assert main(["train", "--task", "ext", "--shards", str(shards),
                     "--out", str(out), "--config", str(config),
                     "--vocab", str(vocab)]) == 0
        manifest = json.loads((out / "manifest.json").read_text("utf-8"))
        assert manifest["seed"] == 11

    def test_bad_environment_seed_exits_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SUMFORGE_SEED", "lots")
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg")
        code = main(["train", "--task", "ext", "--shards", str(shards),
                     "--out", str(tmp_path / "run"), "--config", str(config),
                     "--vocab", str(vocab)])
        assert code == 2
        assert "SUMFORGE_SEED" in capsys.readouterr().err

    def test_same_seed_reruns_byte_identical(self, tmp_path, capsys):
        shards, vocab = _make_shards(tmp_path)
        config = _write_config(tmp_path / "run.cfg")
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--task", "ext", "--shards", str(shards),
                         "--out", str(out), "--config", str(config),
                         "--vocab", str(vocab), "--seed", "5"]) == 0
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
        monkeypatch.setattr(sys, "stdin", io.StringIO("the cat sat . a dog ran ."))
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

    @pytest.mark.parametrize("edit", sorted(_HEADER_EDITS))
    def test_corrupt_checkpoint_header_exits_2(self, tmp_path, capsys, edit):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        ckpt = _save_model(tmp_path / "ext.ckpt", "ext")
        blob = ckpt.read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + header_len])
        header = json.dumps(_HEADER_EDITS[edit](header)).encode()
        ckpt.write_bytes(
            blob[:8] + struct.pack("<I", len(header)) + header + blob[12 + header_len :]
        )
        story = _write_story_file(tmp_path / "doc.story")
        code = main(["summarize", "--task", "ext", "--checkpoint", str(ckpt),
                     "--vocab", str(vocab), "--input", str(story)])
        err = capsys.readouterr().err
        assert code == 2
        assert "internal error" not in err and err.startswith("error:")

    def test_training_after_summarize_still_records_gradients(self, tmp_path, capsys):
        vocab = _write_vocab(tmp_path / "vocab.txt")
        story = _write_story_file(tmp_path / "doc.story")
        for task in ("ext", "abs"):
            ckpt = _save_model(tmp_path / f"{task}.ckpt", task)
            assert main(["summarize", "--task", task, "--checkpoint", str(ckpt),
                         "--vocab", str(vocab), "--input", str(story),
                         "--max-len", "4"]) == 0
        model = build_abs_model(_tiny_model_config(), seed=0)
        src = np.array([[2, 10, 11, 3]])
        tgt = np.array([[5, 12, 13, 6]])
        pad = np.zeros(src.shape, dtype=bool)
        logits = model.forward_logits(src, np.zeros_like(src), pad, tgt, train=True,
                                      rng=np.random.default_rng(0))
        T.backward(abs_loss(logits, tgt, np.zeros(tgt.shape, dtype=bool)))
        assert all(p.grad is not None for p in model.parameters().values())

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


class TestEvaluate:
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

    def test_record_missing_text_key_exits_2(self, tmp_path, capsys):
        pred = _write_jsonl(tmp_path / "p.jsonl", [{"id": "a"}])
        ref = _write_jsonl(tmp_path / "r.jsonl", [{"id": "a", "text": "x"}])
        assert main(["evaluate", "--predictions", str(pred),
                     "--references", str(ref)]) == 2

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

    def test_diagnostics_go_to_stderr_not_stdout(self, tmp_path, capsys):
        code = main(["convert", "--input", str(tmp_path / "missing"),
                     "--encoding", "utf-8", "--out", str(tmp_path / "o")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err != ""
