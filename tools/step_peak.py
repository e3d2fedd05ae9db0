#!/usr/bin/env python3
"""Traced memory of one training step, phase by phase.

    python3 tools/step_peak.py --task ext --shards shards/ --vocab vocab.txt \\
        [--config run.cfg] [--seed 0]

Sets the task up as `sumforge train` does, with the same arguments, config
file, seed and vocabulary, but in place of the training loop runs its first
step once under tracemalloc, in three phases: forward (the batch, the model
and the loss), backward, and clipping plus the Adam updates. For each phase
it prints the traced peak and the traced memory live at the phase's end,
both in MiB above the step's start, and the op whose forward or backward
call raised the traced memory to that peak. `outside ops` means the peak was
set between op calls, for instance where the backward sweep adds a gradient
into one already held. tracemalloc counts numpy's arrays and Python objects,
not the interpreter's own memory, so the figures are below RSS and compare
only with each other. The last line gives the step's loss, which equals the
loss of step 1 of `sumforge train` with the same arguments.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sumforge import cli, train  # noqa: E402
from sumforge import tensor as T  # noqa: E402

MIB = 2**20
NOT_OPS = {"backward", "finite_diff_check", "no_grad"}


class Probe:
    """Which op call last raised tracemalloc's peak within a phase."""

    def __init__(self) -> None:
        self.stack: list[str] = []
        self.holder = "outside ops"
        self.holder_peak = 0
        self.rows: list[tuple[str, float, float, str]] = []

    def call(self, op: str, pass_: str, fn, *args, **kwargs):
        before = tracemalloc.get_traced_memory()[1]
        self.stack.append(op)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            peak = tracemalloc.get_traced_memory()[1]
            # The innermost call that raised the peak keeps the credit.
            if peak > before and peak > self.holder_peak:
                self.holder, self.holder_peak = f"{op} {pass_}", peak

    @contextlib.contextmanager
    def phase(self, name: str):
        tracemalloc.reset_peak()
        self.holder, self.holder_peak = "outside ops", tracemalloc.get_traced_memory()[1]
        yield
        live, peak = tracemalloc.get_traced_memory()
        holder = self.holder if peak <= self.holder_peak else "outside ops"
        self.rows.append((name, peak / MIB, live / MIB, holder))


@contextlib.contextmanager
def traced_ops(probe: Probe):
    """Route every public op of sumforge.tensor, and every backward closure
    recorded meanwhile, through the probe."""
    ops = {
        name: fn
        for name, fn in vars(T).items()
        if inspect.isfunction(fn) and fn.__module__ == T.__name__
        and not name.startswith("_") and name not in NOT_OPS
    }
    make = T._make

    def traced_make(data, parents, backward_fn):
        op = probe.stack[-1] if probe.stack else "op"
        return make(data, parents, lambda g: probe.call(op, "backward", backward_fn, g))

    def wrap(op, fn):
        return lambda *args, **kwargs: probe.call(op, "forward", fn, *args, **kwargs)

    try:
        for name, fn in ops.items():
            setattr(T, name, wrap(name, fn))
        T._make = traced_make
        yield
    finally:
        for name, fn in ops.items():
            setattr(T, name, fn)
        T._make = make


def one_step(probe: Probe, losses: list[float]):
    """A stand-in for train.fit that runs the loop's first step, phase by
    phase, under tracemalloc; each statement is the loop's own."""

    def fit(model, params, examples, loss_fn, groups, config):
        members = [{k: p for k, p in params.items() if k.startswith(prefix)} for prefix, _, _ in groups]
        states = [train.AdamState(m) for m in members]
        order = train.batch_order(len(examples), config.batch_size, config.seed)
        batch = [examples[i] for i in next(order)]
        drop_rng = T.SplitRng(config.seed).child("dropout", 1).generator()
        for p in params.values():
            p.grad = None
        tracemalloc.start()
        try:
            with traced_ops(probe):
                with probe.phase("forward"):
                    loss = loss_fn(batch, 1, drop_rng)
                losses.append(loss.item())
                with probe.phase("backward"):
                    T.backward(loss)
            with probe.phase("clip+adam"):
                grads = {
                    k: p.grad if p.grad is not None else np.zeros_like(p.data)
                    for k, p in params.items()
                }
                grads = train.clip_gradients(grads, config.grad_clip_norm)
                lrs = [train.lr_schedule(1, base_lr, warmup) for _, base_lr, warmup in groups]
                for group, state, lr in zip(members, states, lrs):
                    train.adam_step(group, {k: grads[k] for k in group}, state, lr)
        finally:
            tracemalloc.stop()
        return []

    return fit


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
    fit = train.fit
    train.fit = one_step(probe, losses)
    try:
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(train_argv + ["--out", out])
    finally:
        train.fit = fit
    if code != 0:
        return code
    print(f"{'phase':<10} {'peak MiB':>9} {'live MiB':>9}  peak held by")
    for name, peak, live, holder in probe.rows:
        print(f"{name:<10} {peak:>9.1f} {live:>9.1f}  {holder}")
    print(f"{args.task} step 1 loss {losses[0]:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
