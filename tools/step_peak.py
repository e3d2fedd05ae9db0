#!/usr/bin/env python3
"""Traced memory of the first training steps, phase by phase.

    python3 tools/step_peak.py --task ext --shards shards/ --vocab vocab.txt \\
        [--config run.cfg] [--steps 1]

Runs `sumforge train` with the same arguments, config file and vocabulary,
but stops `train.fit` after `--steps` steps and writes no
checkpoint. Each step runs under tracemalloc in three phases: forward (the
loss closure: the batch, the model and the loss), backward, and the rest of
the step (clipping plus the Adam updates). For each phase it prints the
largest traced peak over the steps and the traced memory live at the end of
that phase, both in MiB above the start of its step, the step that set the
peak (the first, on a tie), and the op whose forward or backward call
raised the traced memory to that peak, as `tensor.op_hook` reports the
calls. `outside ops` means the peak was set between op calls, for instance
where the backward sweep adds a gradient into one already held. tracemalloc
counts numpy's arrays and Python objects, not the interpreter's own memory,
so the figures are below RSS and compare only with each other. Then it
prints step 1's forward tape: the MiB that the backward closures of each op
hold at the end of forward, parameters left out, each array counted once,
for the first op in graph order that holds it (a view counts as the array
it views). The walk runs after the forward phase ends and before backward
starts, and keeps only its small result, so it leaves the phase figures as
they are. The last line gives the last step's loss, which equals the final
loss of `sumforge train` with the same arguments and `--steps` steps.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
import tempfile
import tracemalloc
import types
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sumforge import cli, train  # noqa: E402
from sumforge import tensor as T  # noqa: E402

MIB = 2**20


class Probe:
    """Which op call last raised tracemalloc's peak within a phase."""

    def __init__(self) -> None:
        self.phase: str | None = None
        self.step, self.base = 0, 0
        self.holder, self.holder_peak = "outside ops", 0
        self.rows: list[tuple[int, str, float, float, str]] = []  # step, phase, peak, live, holder

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

    def next_step(self) -> None:
        """End the open phase, if any, and start the next step's forward."""
        self.end()
        self.step += 1
        self.base = tracemalloc.get_traced_memory()[0]
        self.begin("forward")

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
        self.rows.append((self.step, self.phase, (peak - self.base) / MIB, (live - self.base) / MIB, holder))
        self.phase = None

    def highest(self) -> list[tuple[int, str, float, float, str]]:
        """Each phase's row with the highest peak, the first step's on a
        tie, in phase order."""
        phases = list(dict.fromkeys(row[1] for row in self.rows))
        return [
            max((row for row in self.rows if row[1] == phase), key=lambda row: (row[2], -row[0]))
            for phase in phases
        ]


def closure_arrays(fn):
    """Every array a backward closure holds, in its cells or in the cells of
    the functions it holds."""
    for cell in fn.__closure__ or ():
        try:
            x = cell.cell_contents
        except ValueError:  # a cell never assigned, e.g. attention's factor
            continue
        if isinstance(x, np.ndarray):
            yield x
        elif isinstance(x, types.FunctionType):
            yield from closure_arrays(x)


def graph_vertices(loss: T.Tensor) -> list:
    """Every vertex reachable from loss, loss's first: the leaves and the
    op outputs' _Nodes."""
    vertices, stack, seen = [], [T._vertex(loss)], set()
    while stack:
        vertex = stack.pop()
        if id(vertex) not in seen:
            seen.add(id(vertex))
            vertices.append(vertex)
            stack.extend(p for p in vertex._parents if p is not None)
    return vertices


def buffer(a: np.ndarray) -> np.ndarray:
    """The array that owns a's memory: a itself, or the base a views."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a


def tape(loss: T.Tensor) -> dict[str, tuple[int, int]]:
    """Bytes and arrays held by the backward closures of loss's graph, by
    op: each buffer once, for the first op in graph order that holds it,
    and none of the leaves' (the parameters)."""
    vertices = graph_vertices(loss)
    counted = {id(buffer(v.data)) for v in vertices if isinstance(v, T.Tensor)}
    held: dict[str, tuple[int, int]] = {}
    for vertex in vertices:
        if vertex._backward is None:
            continue
        name = vertex._backward.__qualname__.split(".", 1)[0]
        for a in closure_arrays(vertex._backward):
            base = buffer(a)
            if id(base) not in counted:
                counted.add(id(base))
                nbytes, count = held.get(name, (0, 0))
                held[name] = (nbytes + base.nbytes, count + 1)
    return held


def traced_fit(probe: Probe, steps: int, losses: list[float], held: dict[str, tuple[int, int]]):
    """train.fit for `steps` steps, without checkpoints, with each step's
    forward (the loss closure), backward and the rest of the step as the
    probe's phases; fills `held` with step 1's forward tape (`tape`)."""
    fit, backward = train.fit, T.backward

    def traced_backward(loss):
        probe.end()
        if probe.step == 1:
            held.update(tape(loss))
        probe.begin("backward")
        backward(loss)
        probe.begin("clip+adam")

    def run(model, params, examples, loss_fn, groups, config):
        def traced_loss(*args):
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            probe.next_step()
            return loss_fn(*args)

        try:
            with T.op_hook(probe.call), mock.patch.object(T, "backward", traced_backward):
                rows = fit(model, params, examples, traced_loss, groups,
                           replace(config, max_steps=steps, checkpoint_dir=None))
            probe.end()
        finally:
            tracemalloc.stop()
        losses.extend(row.loss for row in rows)
        return rows

    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--task", required=True, choices=("ext", "abs", "prefit"))
    parser.add_argument("--shards", required=True)
    parser.add_argument("--vocab", required=True)
    parser.add_argument("--config")
    parser.add_argument("--steps", type=int, default=1, help="training steps to trace (default 1)")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error(f"--steps must be >= 1, got {args.steps}")

    train_argv = ["train", "--task", args.task, "--shards", args.shards, "--vocab", args.vocab]
    if args.config:
        train_argv += ["--config", args.config]
    probe, losses, held = Probe(), [], {}
    with (
        mock.patch.object(train, "fit", traced_fit(probe, args.steps, losses, held)),
        tempfile.TemporaryDirectory() as out,
        contextlib.redirect_stdout(io.StringIO()),
    ):
        code = cli.main(train_argv + ["--out", out])
    if code != 0:
        return code
    print(f"{'phase':<10} {'peak MiB':>9} {'live MiB':>9} {'step':>5}  peak held by")
    for step, name, peak, live, holder in probe.highest():
        print(f"{name:<10} {peak:>9.1f} {live:>9.1f} {step:>5}  {holder}")
    total = sum(nbytes for nbytes, _ in held.values())
    count = sum(n for _, n in held.values())
    print(f"tape at the end of forward: {total / MIB:.1f} MiB in {count} arrays")
    for name, (nbytes, n) in sorted(held.items(), key=lambda kv: (-kv[1][0], kv[0])):
        print(f"  {name:<24} {nbytes / MIB:>7.1f} MiB {n:>5} arrays")
    print(f"{args.task} step {len(losses)} loss {losses[-1]:.6f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
