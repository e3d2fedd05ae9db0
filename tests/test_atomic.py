"""Crash-safe writes: a writer that fails halfway leaves the file it was
replacing whole, and leaves no temp file behind."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from conftest import synthetic_example
from sumforge.atomic import atomic_write
from sumforge.cli import _write_manifest
from sumforge.model import ModelConfig, build_model, save_checkpoint
from sumforge.tokenization import write_shards
from sumforge.train import TraceRow, write_trace

_CONFIG = ModelConfig(vocab_size=30, d_model=8, n_heads=2, d_ff=16,
                      n_enc_layers=1, n_dec_layers=1, max_positions=16)


def _checkpoint(path, fail):
    model = build_model(_CONFIG, "ext", seed=0)
    if fail:  # the last record in name order cannot be written as float32
        model.params[max(model.params)].data = np.array(["x"])
    save_checkpoint(model, path)


def _shard(path, fail):
    rng = np.random.default_rng(0)
    examples = [synthetic_example(rng) for _ in range(3)]
    if fail:
        examples[2] = replace(examples[2], src_ids={1, 2})  # not JSON
    write_shards(examples, path.parent, shard_size=3)


def _trace(path, fail):
    rows = [TraceRow(1, 0.5, 1e-3, 0.01), TraceRow(2, None if fail else 0.25, 2e-3, 0.02)]
    write_trace(rows, path)


def _manifest(path, fail):
    config = {"a": 1, "b": object() if fail else 2}
    _write_manifest(path.parent, "train", config, 0, "then", [])


@pytest.mark.parametrize("writer, name", [
    (_checkpoint, "model.ckpt"),
    (_shard, "shard_0.jsonl"),
    (_trace, "trace.csv"),
    (_manifest, "manifest.json"),
])
def test_failed_write_leaves_the_old_file_whole(tmp_path, writer, name):
    path = tmp_path / name
    writer(path, fail=False)
    before = path.read_bytes()
    with pytest.raises((TypeError, ValueError)):
        writer(path, fail=True)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [name]


def test_interrupt_removes_the_temp_file(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("old", encoding="utf-8")
    with pytest.raises(KeyboardInterrupt):
        with atomic_write(path, encoding="utf-8") as fh:
            fh.write("new")
            raise KeyboardInterrupt
    assert path.read_text("utf-8") == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

