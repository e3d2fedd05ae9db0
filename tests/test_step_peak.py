"""tools/step_peak.py on tiny shards: one traced training step per task."""

from __future__ import annotations

import re

import numpy as np
import pytest
from conftest import step_peak, transpose
from test_cli import _make_shards, _write_config

from sumforge import tensor as T
from sumforge import train
from sumforge.cli import main


def _phase_rows(lines):
    """The phase rows after the header: name, peak, live, step, holder."""
    rows = [re.fullmatch(r"(\S+)\s+(\d+\.\d)\s+(-?\d+\.\d)\s+(\d+)  (.+)", line) for line in lines[1:4]]
    assert all(rows), lines[:4]
    assert [r.group(1) for r in rows] == ["forward", "backward", "clip+adam"]
    assert rows[0].group(5) == "outside ops" or rows[0].group(5).endswith(" forward")
    assert rows[1].group(5) == "outside ops" or rows[1].group(5).endswith(" backward")
    return rows


@pytest.mark.parametrize("task", ["ext", "abs", "prefit"])
def test_reports_each_phase_and_the_loss_of_step_1(tmp_path, capsys, task):
    shards, vocab = _make_shards(tmp_path)
    config = _write_config(tmp_path / "run.cfg", max_steps=1, mask_prob=0.3, dropout=0.1)
    common = ["--task", task, "--shards", str(shards), "--vocab", str(vocab), "--config", str(config)]
    backward, fit = T.backward, train.fit
    capsys.readouterr()

    assert step_peak.main(common) == 0
    lines = capsys.readouterr().out.splitlines()
    assert T.backward is backward and train.fit is fit  # restored
    for r in _phase_rows(lines):
        assert float(r.group(2)) >= float(r.group(3)) >= 0.0
        assert r.group(4) == "1"

    # The forward tape, by op, largest first.
    total = re.fullmatch(r"tape at the end of forward: (\d+\.\d) MiB in (\d+) arrays", lines[4])
    ops = [re.fullmatch(r"  (\w+)\s+(\d+\.\d) MiB\s+(\d+) arrays", line) for line in lines[5:-1]]
    assert total and ops and all(ops)
    names = [r.group(1) for r in ops]
    assert set(names) <= set(T.OPS) and len(set(names)) == len(names)
    assert {"attention_block", "ff_block", "layer_norm"} <= set(names)
    assert "attention" not in names  # every attention sublayer is one block
    assert sum(int(r.group(3)) for r in ops) == int(total.group(2))
    assert abs(sum(float(r.group(2)) for r in ops) - float(total.group(1))) <= 0.05 * len(ops) + 1e-9
    mib = [float(r.group(2)) for r in ops]
    assert mib == sorted(mib, reverse=True)

    loss = re.fullmatch(rf"{task} step 1 loss (\d+\.\d{{6}})", lines[-1]).group(1)
    assert main(["train", *common, "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().out == f"{task}: 1 steps, final loss {loss}\n"


def test_steps_report_each_phase_at_its_highest_step_and_the_last_loss(tmp_path, capsys):
    shards, vocab = _make_shards(tmp_path)
    config = _write_config(tmp_path / "run.cfg", max_steps=3, dropout=0.1)
    common = ["--task", "abs", "--shards", str(shards), "--vocab", str(vocab), "--config", str(config)]
    probes = []

    class Recorded(step_peak.Probe):
        def __init__(self):
            super().__init__()
            probes.append(self)

    capsys.readouterr()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(step_peak, "Probe", Recorded)
        assert step_peak.main([*common, "--steps", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    (probe,) = probes
    assert [(step, phase) for step, phase, *_ in probe.rows] == [
        (step, phase) for step in (1, 2, 3) for phase in ("forward", "backward", "clip+adam")
    ]
    for r in _phase_rows(lines):
        steps = [row for row in probe.rows if row[1] == r.group(1)]
        top = max(peak for _, _, peak, _, _ in steps)
        step, _, peak, live, holder = next(row for row in steps if row[2] == top)  # the first step on a tie
        assert (int(r.group(4)), r.group(2), r.group(3), r.group(5)) == (step, f"{peak:.1f}", f"{live:.1f}", holder)

    loss = re.fullmatch(r"abs step 3 loss (\d+\.\d{6})", lines[-1]).group(1)
    assert main(["train", *common, "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().out == f"abs: 3 steps, final loss {loss}\n"


def test_highest_takes_each_phase_maximum_and_the_first_step_on_a_tie():
    probe = step_peak.Probe()
    probe.rows = [
        (1, "forward", 2.0, 1.0, "a forward"), (1, "backward", 5.0, 0.5, "b backward"),
        (2, "forward", 3.0, 1.5, "c forward"), (2, "backward", 5.0, 0.2, "d backward"),
    ]
    assert probe.highest() == [(2, "forward", 3.0, 1.5, "c forward"), (1, "backward", 5.0, 0.5, "b backward")]


def test_steps_below_one_are_refused(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        step_peak.main(["--task", "abs", "--shards", str(tmp_path), "--vocab", str(tmp_path), "--steps", "0"])
    assert exc.value.code == 2
    assert "--steps must be >= 1" in capsys.readouterr().err


def test_tape_counts_each_buffer_once_and_no_parameters():
    w = T.Tensor(np.ones((4, 4), np.float32), requires_grad=True)
    x = T.Tensor(np.ones((2, 4), np.float32))
    h = T.matmul(x, w)  # holds x and w
    y = T.matmul(h, transpose(w))  # holds h and a view of w
    held = step_peak.tape(T.mul(y, y))  # holds y twice
    assert held == {"mul": (y.data.nbytes, 1), "matmul": (h.data.nbytes + x.data.nbytes, 2)}


def test_train_errors_exit_2(tmp_path, capsys):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("[PAD]\n", encoding="utf-8")
    assert step_peak.main(["--task", "ext", "--shards", str(tmp_path / "none"),
                           "--vocab", str(vocab)]) == 2
