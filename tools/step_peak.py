#!/usr/bin/env python3
"""Traced memory of one training step, phase by phase.

    python3 tools/step_peak.py --task ext --shards shards/ --vocab vocab.txt \\
        [--config run.cfg] [--seed 0]

Runs `sumforge train` with the same arguments, config file, seed and
vocabulary, but stops `train.fit` after its first step and writes no
checkpoint. The step runs under tracemalloc in three phases: forward (the
loss closure: the batch, the model and the loss), backward, and the rest of
the step (clipping plus the Adam updates). For each phase it prints the
traced peak and the traced memory live at the phase's end, both in MiB
above the step's start, and the op whose forward or backward call raised
the traced memory to that peak, as `tensor.op_hook` reports the calls.
`outside ops` means the peak was set between op calls, for instance where
the backward sweep adds a gradient into one already held. tracemalloc
counts numpy's arrays and Python objects, not the interpreter's own memory,
so the figures are below RSS and compare only with each other. The last
line gives the step's loss, which equals the loss of step 1 of
`sumforge train` with the same arguments.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sumforge import cli, train  # noqa: E402
from sumforge import tensor as T  # noqa: E402

MIB = 2**20


class Probe:
    """Which op call last raised tracemalloc's peak within a phase."""

    def __init__(self) -> None:
        self.phase: str | None = None
        self.holder, self.holder_peak = "outside ops", 0
        self.rows: list[tuple[str, float, float, str]] = []

    def call(self, op: str, pass_: str, fn, *args, **kwargs):
        """The op hook."""
        before = tracemalloc.get_traced_memory()[1]
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            # The innermost call that raised the peak keeps the credit.
            if peak > before and peak > self.holder_peak:
                self.holder, self.holder_peak = f"{op} {pass_}", peak

    def begin(self, name: str) -> None:
        """End the open phase, if any, and start `name`."""
        self.end()
        tracemalloc.reset_peak()
        self.phase, self.holder = name, "outside ops"
        self.holder_peak = tracemalloc.get_traced_memory()[1]

    def end(self) -> None:
        if self.phase is None:
            return
        live, peak = tracemalloc.get_traced_memory()
        holder = self.holder if peak <= self.holder_peak else "outside ops"
        self.rows.append((self.phase, peak / MIB, live / MIB, holder))
        self.phase = None


def traced_fit(probe: Probe, losses: list[float]):
    """train.fit for one step, without checkpoints, with its forward (the
    loss closure), its backward and the rest of the step as the probe's
    phases."""
    fit, backward = train.fit, T.backward

    def traced_backward(loss):
        probe.begin("backward")
        backward(loss)
        probe.begin("clip+adam")

    def one_step(model, params, examples, loss_fn, groups, config):
        def traced_loss(*args):
            tracemalloc.start()
            probe.begin("forward")
            return loss_fn(*args)

        try:
            with T.op_hook(probe.call), mock.patch.object(T, "backward", traced_backward):
                rows = fit(model, params, examples, traced_loss, groups,
                           replace(config, max_steps=1, checkpoint_dir=None))
            probe.end()
        finally:
            tracemalloc.stop()
        losses.extend(row.loss for row in rows)
        return rows

    return one_step


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--task", required=True, choices=("ext", "abs", "prefit"))
    parser.add_argument("--shards", required=True)
    parser.add_argument("--vocab", required=True)
    parser.add_argument("--config")
    parser.add_argument("--seed", type=int)
    args = parser.parse_args(argv)

    train_argv = ["train", "--task", args.task, "--shards", args.shards, "--vocab", args.vocab]
    if args.config:
        train_argv += ["--config", args.config]
    if args.seed is not None:
        train_argv += ["--seed", str(args.seed)]
    probe, losses = Probe(), []
    with (
        mock.patch.object(train, "fit", traced_fit(probe, losses)),
        tempfile.TemporaryDirectory() as out,
        contextlib.redirect_stdout(io.StringIO()),
    ):
        code = cli.main(train_argv + ["--out", out])
    if code != 0:
        return code
    print(f"{'phase':<10} {'peak MiB':>9} {'live MiB':>9}  peak held by")
    for name, peak, live, holder in probe.rows:
        print(f"{name:<10} {peak:>9.1f} {live:>9.1f}  {holder}")
    print(f"{args.task} step 1 loss {losses[0]:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
