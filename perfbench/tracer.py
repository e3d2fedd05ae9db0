"""Outside-in spans over sumforge's public functions, and their aggregation.

`install` wraps public attributes of the sumforge modules from outside the
package. Because `sumforge.cli` binds names at import, its wrappers go on
the `cli` module where the names are used. Each call records a span (name,
start, end, parent) in memory; `Tracer.dump` hands them over when the stage
ends. Counters are taken at the same boundaries.

`layer_metrics` turns the spans of every stage into the per-layer metrics.
A span's name is `<layer>.<function>`, the layer being a sumforge module.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter
from pathlib import Path

# Public tensor ops the models call, timed one by one.
TENSOR_OPS = (
    "matmul", "softmax", "log_softmax", "gelu", "layer_norm", "dropout",
    "embedding_lookup", "masked_fill", "add", "mul", "reshape", "permute",
    "take_along_last",
)
LAYERS = ("ingest", "tokenization", "rouge", "tensor", "model", "train", "infer")
STAGES = ("convert", "preprocess", "prefit", "train", "summarize", "evaluate")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def current(self) -> str | None:
        return self.names[self.spans[self.stack[-1]][0]] if self.stack else None

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace owner.attr by a spanning wrapper; `after(tracer, args, result)`
        runs once the span has closed."""
        fn = getattr(owner, attr)
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        name_id = self.name_ids[name]
        spans, stack, now = self.spans, self.stack, time.monotonic

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = now()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[f"{name}.errors"] += 1
                raise
            finally:
                span[2] = now()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        setattr(owner, attr, traced)

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "counts": dict(self.counts)}


# --- counters taken at the wrapped boundaries ---

def _bytes_in(tracer, args, result):
    tracer.counts["ingest.bytes_in"] += sum(p.stat().st_size for p in Path(args[0]).rglob("*.txt"))


def _encoded(tracer, args, example):
    tracer.counts["tokenization.src_tokens"] += len(example.src_ids)
    tracer.counts["tokenization.unk_tokens"] += example.src_ids.count(args[1].unk_id)


def _lcs_cells(tracer, args, result):
    tracer.counts["rouge.lcs_cells"] += len(args[0]) * len(args[1])


def _batch(tracer, args, batch):
    tracer.counts["train.pad_tokens"] += int(batch.pad_mask.sum())
    tracer.counts["train.batch_tokens"] += int(batch.pad_mask.size)


def _decoded(tracer, args, logits):
    b, t = logits.shape[:2]
    tracer.counts["model.decode_positions"] += b * t
    if tracer.current() == "infer.beam_search":
        tracer.counts["infer.beam_steps"] += 1
        tracer.counts["infer.useful_logits"] += b
        tracer.counts["infer.projected_logits"] += b * t


def _grad_output(tracer, args, out):
    if out.requires_grad:
        tracer.counts["tensor.grad_outputs_at_inference"] += 1


def install(tracer: Tracer, inference: bool) -> None:
    """Wrap the public functions of every layer. `inference` marks a
    summarize stage, where op outputs that still require grad are counted."""
    from sumforge import cli, infer, model, rouge, tensor, tokenization, train

    w = tracer.wrap
    w(cli, "ingest_corpus", "ingest.ingest_corpus", _bytes_in)
    w(cli, "read_story_dir", "ingest.read_story_dir")
    w(cli, "encode_example", "tokenization.encode_example", _encoded)
    w(tokenization, "oracle_labels", "tokenization.oracle_labels")
    w(cli, "write_shards", "tokenization.write_shards")
    w(cli, "read_shards", "tokenization.read_shards")
    w(cli, "load_vocab", "tokenization.load_vocab")
    w(tokenization, "rouge_n", "rouge.rouge_n")
    w(rouge, "rouge_n", "rouge.rouge_n")
    w(rouge, "lcs_length", "rouge.lcs_length", _lcs_cells)
    w(cli, "evaluate_corpus", "rouge.evaluate_corpus")
    for op in TENSOR_OPS:
        w(tensor, op, f"tensor.{op}", _grad_output if inference else None)
    w(tensor, "backward", "tensor.backward")
    w(model.Encoder, "encode", "model.encode")
    w(model.AbstractiveModel, "decode_teacher_forced", "model.decode", _decoded)
    w(train, "ext_loss", "model.ext_loss")
    w(train, "abs_loss", "model.abs_loss")
    w(cli, "load_checkpoint", "model.load_checkpoint")
    w(model, "load_checkpoint", "model.load_checkpoint")
    w(train, "save_checkpoint", "model.save_checkpoint")
    w(train, "make_ext_batch", "train.batch", _batch)
    w(train, "make_abs_batch", "train.batch", _batch)
    w(train, "adam_step", "train.adam")
    w(train, "clip_gradients", "train.clip")
    w(infer, "beam_search", "infer.beam_search")
    w(infer, "select_sentences", "infer.select_sentences")


# --- aggregation (parent side) ---

def percentile(values: list[float], p: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    if p == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100)[p - 1]


# Every per-layer metric, in report order, with its unit.
PER_LAYER_UNITS: dict[str, str] = {
    "ingest.ingest_corpus_s": "s",
    "ingest.read_story_dir_s": "s",
    "ingest.bytes_in": "bytes",
    "tokenization.encode_example_s": "s",
    "tokenization.oracle_labels_s": "s",
    "tokenization.write_shards_s": "s",
    "tokenization.read_shards_s": "s",
    "tokenization.load_vocab_s": "s",
    "tokenization.load_vocab_calls": "count",
    "tokenization.src_tokens": "count",
    "tokenization.unk_frac": "fraction",
    "tokenization.docs_skipped": "count",
    "rouge.rouge_n_calls": "count",
    "rouge.rouge_n_s": "s",
    "rouge.evaluate_corpus_s": "s",
    "rouge.lcs_cells": "count",
    **{f"tensor.{op}_{k}": u for op in TENSOR_OPS for k, u in (("s", "s"), ("calls", "count"))},
    "tensor.backward_s": "s",
    "tensor.backward_calls": "count",
    "tensor.grad_outputs_at_inference": "count",
    "model.encode_s": "s",
    "model.encode_calls": "count",
    "model.decode_s": "s",
    "model.decode_calls": "count",
    "model.decode_positions": "count",
    "model.ext_loss_s": "s",
    "model.abs_loss_s": "s",
    "model.load_checkpoint_s": "s",
    "model.save_checkpoint_s": "s",
    "train.step_s_p50": "s",
    "train.step_s_p90": "s",
    "train.adam_s": "s",
    "train.clip_s": "s",
    "train.batch_s": "s",
    "train.pad_frac": "fraction",
    "infer.beam_search_self_s": "s",
    "infer.beam_steps": "count",
    "infer.useful_logit_frac": "fraction",
    "infer.select_sentences_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.start_s": "s",
    **{f"cli.{stage}_s": "s" for stage in STAGES},
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.self_check_err_s": "s",
    "trace.negative_self_spans": "count",
    "trace.spans": "count",
}


def _self_times(spans: list[list]) -> list[float]:
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(stages: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics over traced stages, plus the self-time check's faults.

    Each stage dict holds `stage`, `wall_s`, `start_s` and the child's
    `trace` dump. For every stage, the layers' self times plus cli self time
    must add up to the stage's wall time, and cli self time must not be
    negative.
    """
    busy: Counter = Counter()  # inclusive time per span name
    calls: Counter = Counter()
    layer_self: Counter = Counter()
    counts: Counter = Counter()
    beam_self = 0.0
    step_gaps: list[float] = []
    cli_self = 0.0
    worst_err = 0.0
    negative = 0
    total_spans = 0
    faults: list[str] = []
    walls: Counter = Counter()
    for stage in stages:
        names, spans = stage["trace"]["names"], stage["trace"]["spans"]
        counts.update(stage["trace"]["counts"])
        own = _self_times(spans)
        total_spans += len(spans)
        top = 0.0
        batch_starts = []
        for (name_id, start, end, parent), self_s in zip(spans, own):
            name = names[name_id]
            busy[name] += end - start
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += self_s
            if self_s < -1e-9:
                negative += 1
            if parent < 0:
                top += end - start
            if name == "infer.beam_search":
                beam_self += self_s
            if name == "train.batch" and stage["stage"] == "train":
                batch_starts.append(start)
        step_gaps += [b - a for a, b in zip(batch_starts, batch_starts[1:])]
        stage_cli_self = stage["wall_s"] - top
        cli_self += stage_cli_self
        walls[stage["stage"]] += stage["wall_s"]
        layers_sum = sum(own)  # every span's self time belongs to one layer
        err = abs(layers_sum + stage_cli_self - stage["wall_s"])
        worst_err = max(worst_err, err)
        if stage_cli_self < 0:
            faults.append(f"{stage['stage']}: cli self time {stage_cli_self:.6f} s < 0")
        if err > 1e-6:
            faults.append(f"{stage['stage']}: layer self times miss the wall by {err:.6f} s")
    if negative:
        faults.append(f"{negative} spans end outside their parent")

    m: dict[str, float] = {
        "ingest.ingest_corpus_s": busy["ingest.ingest_corpus"],
        "ingest.read_story_dir_s": busy["ingest.read_story_dir"],
        "ingest.bytes_in": counts["ingest.bytes_in"],
        "tokenization.encode_example_s": busy["tokenization.encode_example"],
        "tokenization.oracle_labels_s": busy["tokenization.oracle_labels"],
        "tokenization.write_shards_s": busy["tokenization.write_shards"],
        "tokenization.read_shards_s": busy["tokenization.read_shards"],
        "tokenization.load_vocab_s": busy["tokenization.load_vocab"],
        "tokenization.load_vocab_calls": calls["tokenization.load_vocab"],
        "tokenization.src_tokens": counts["tokenization.src_tokens"],
        "tokenization.unk_frac": counts["tokenization.unk_tokens"] / max(1, counts["tokenization.src_tokens"]),
        "tokenization.docs_skipped": counts["tokenization.encode_example.errors"],
        "rouge.rouge_n_calls": calls["rouge.rouge_n"],
        "rouge.rouge_n_s": busy["rouge.rouge_n"],
        "rouge.evaluate_corpus_s": busy["rouge.evaluate_corpus"],
        "rouge.lcs_cells": counts["rouge.lcs_cells"],
        "tensor.backward_s": busy["tensor.backward"],
        "tensor.backward_calls": calls["tensor.backward"],
        "tensor.grad_outputs_at_inference": counts["tensor.grad_outputs_at_inference"],
        "model.encode_s": busy["model.encode"],
        "model.encode_calls": calls["model.encode"],
        "model.decode_s": busy["model.decode"],
        "model.decode_calls": calls["model.decode"],
        "model.decode_positions": counts["model.decode_positions"],
        "model.ext_loss_s": busy["model.ext_loss"],
        "model.abs_loss_s": busy["model.abs_loss"],
        "model.load_checkpoint_s": busy["model.load_checkpoint"],
        "model.save_checkpoint_s": busy["model.save_checkpoint"],
        "train.step_s_p50": percentile(step_gaps, 50),
        "train.step_s_p90": percentile(step_gaps, 90),
        "train.adam_s": busy["train.adam"],
        "train.clip_s": busy["train.clip"],
        "train.batch_s": busy["train.batch"],
        "train.pad_frac": counts["train.pad_tokens"] / max(1, counts["train.batch_tokens"]),
        "infer.beam_search_self_s": beam_self,
        "infer.beam_steps": counts["infer.beam_steps"],
        "infer.useful_logit_frac": counts["infer.useful_logits"] / max(1, counts["infer.projected_logits"]),
        "infer.select_sentences_s": busy["infer.select_sentences"],
        "cli.start_s": statistics.median(s["start_s"] for s in stages),
        "cli.self_s": cli_self,
        "trace.self_check_err_s": worst_err,
        "trace.negative_self_spans": negative,
        "trace.spans": total_spans,
    }
    for op in TENSOR_OPS:
        m[f"tensor.{op}_s"] = busy[f"tensor.{op}"]
        m[f"tensor.{op}_calls"] = calls[f"tensor.{op}"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    for stage in STAGES:
        m[f"cli.{stage}_s"] = walls[stage]
    return m, faults
