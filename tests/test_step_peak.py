"""tools/step_peak.py on tiny shards: one traced training step per task."""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

import pytest
from test_cli import _make_shards, _write_config

from sumforge import tensor as T
from sumforge import train
from sumforge.cli import main

_PATH = Path(__file__).resolve().parent.parent / "tools" / "step_peak.py"
_spec = importlib.util.spec_from_file_location("step_peak", _PATH)
step_peak = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(step_peak)


@pytest.mark.parametrize("task", ["ext", "abs", "prefit"])
def test_reports_each_phase_and_the_loss_of_step_1(tmp_path, capsys, task):
    shards, vocab = _make_shards(tmp_path)
    config = _write_config(tmp_path / "run.cfg", max_steps=1, mask_prob=0.3, dropout=0.1)
    common = ["--task", task, "--shards", str(shards), "--vocab", str(vocab), "--config", str(config)]
    attention, backward, fit = T.attention, T.backward, train.fit
    capsys.readouterr()

    assert step_peak.main(common) == 0
    lines = capsys.readouterr().out.splitlines()
    assert T.attention is attention and T.backward is backward and train.fit is fit  # restored
    assert len(lines) == 5
    rows = [re.fullmatch(r"(\S+)\s+(\d+\.\d)\s+(\d+\.\d)  (.+)", line) for line in lines[1:4]]
    assert [r.group(1) for r in rows] == ["forward", "backward", "clip+adam"]
    for r in rows:
        assert float(r.group(2)) >= float(r.group(3)) >= 0.0
    assert rows[0].group(4) == "outside ops" or rows[0].group(4).endswith(" forward")
    assert rows[1].group(4) == "outside ops" or rows[1].group(4).endswith(" backward")
    loss = re.fullmatch(rf"{task} step 1 loss (\d+\.\d{{6}})", lines[4]).group(1)

    assert main(["train", *common, "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().out == f"{task}: 1 steps, final loss {loss}\n"


def test_train_errors_exit_2(tmp_path, capsys):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("[PAD]\n", encoding="utf-8")
    assert step_peak.main(["--task", "ext", "--shards", str(tmp_path / "none"),
                           "--vocab", str(vocab)]) == 2
