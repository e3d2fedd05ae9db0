"""tools/step_peak.py on tiny shards: one traced training step per task."""

from __future__ import annotations

import re

import numpy as np
import pytest
from conftest import step_peak
from test_cli import _make_shards, _write_config

from sumforge import tensor as T
from sumforge import train
from sumforge.cli import main


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
    rows = [re.fullmatch(r"(\S+)\s+(\d+\.\d)\s+(\d+\.\d)  (.+)", line) for line in lines[1:4]]
    assert [r.group(1) for r in rows] == ["forward", "backward", "clip+adam"]
    for r in rows:
        assert float(r.group(2)) >= float(r.group(3)) >= 0.0
    assert rows[0].group(4) == "outside ops" or rows[0].group(4).endswith(" forward")
    assert rows[1].group(4) == "outside ops" or rows[1].group(4).endswith(" backward")

    # The forward tape, by op, largest first.
    total = re.fullmatch(r"tape at the end of forward: (\d+\.\d) MiB in (\d+) arrays", lines[4])
    ops = [re.fullmatch(r"  (\w+)\s+(\d+\.\d) MiB\s+(\d+) arrays", line) for line in lines[5:-1]]
    assert total and ops and all(ops)
    names = [r.group(1) for r in ops]
    assert set(names) <= set(T.OPS) and len(set(names)) == len(names)
    assert {"attention_block", "ff_block", "layer_norm"} <= set(names)
    assert sum(int(r.group(3)) for r in ops) == int(total.group(2))
    assert abs(sum(float(r.group(2)) for r in ops) - float(total.group(1))) <= 0.05 * len(ops) + 1e-9
    mib = [float(r.group(2)) for r in ops]
    assert mib == sorted(mib, reverse=True)

    loss = re.fullmatch(rf"{task} step 1 loss (\d+\.\d{{6}})", lines[-1]).group(1)
    assert main(["train", *common, "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().out == f"{task}: 1 steps, final loss {loss}\n"


def test_tape_counts_each_buffer_once_and_no_parameters():
    w = T.Tensor(np.ones((4, 4), np.float32), requires_grad=True)
    x = T.Tensor(np.ones((2, 4), np.float32))
    h = T.matmul(x, w)  # holds x and w
    y = T.matmul(h, T.transpose(w))  # holds h and a view of w
    held = step_peak.tape(T.mul(y, y))  # holds y twice
    assert held == {"mul": (y.data.nbytes, 1), "matmul": (h.data.nbytes + x.data.nbytes, 2)}


def test_train_errors_exit_2(tmp_path, capsys):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("[PAD]\n", encoding="utf-8")
    assert step_peak.main(["--task", "ext", "--shards", str(tmp_path / "none"),
                           "--vocab", str(vocab)]) == 2
