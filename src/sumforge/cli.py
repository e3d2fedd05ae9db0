"""Command-line entry point.

Subcommands wire the pipeline end to end: convert raw text to story files,
preprocess stories into training shards, train (or pre-fit) a model,
summarize a document, and score predictions against references. Exit codes:
0 success, 2 usage or configuration problem, 1 internal failure. Data goes
to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import hashlib
import json
import os
import platform
import resource
import sys
from dataclasses import asdict, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence

FTZ_DAZ = 0x8040  # MXCSR flush-to-zero (bit 15) and denormals-are-zero (bit 6)


def _mxcsr(or_bits: int = 0) -> int | None:
    """This thread's MXCSR after ORing `or_bits` into it, read back through
    libm's fegetenv; None, and libm left unloaded, on another CPU or libc:
    the register is the uint32 at byte 28 of glibc's x86-64 fenv_t only."""
    if platform.machine() != "x86_64" or platform.libc_ver()[0] != "glibc":
        return None
    libm = ctypes.CDLL("libm.so.6")
    for name in ("fegetenv", "fesetenv"):
        getattr(libm, name).argtypes = [ctypes.c_void_p]
        getattr(libm, name).restype = ctypes.c_int
    env = (ctypes.c_uint32 * 8)()
    libm.fegetenv(env)
    if or_bits:
        env[7] |= or_bits
        libm.fesetenv(env)
        libm.fegetenv(env)
    return env[7]


def _flush_subnormals() -> bool:
    """Set FTZ|DAZ when numpy has not loaded yet, so that OpenBLAS's worker
    threads, made when it loads, inherit the bits with every later thread.
    Set after it loads, they would reach only the calling thread's share of
    each product; so with numpy loaded (tests, library callers) the mode is
    left alone. False when the bits were not set, on another CPU or libc too.
    They are never restored: the workers keep them whatever this thread does."""
    if "numpy" in sys.modules:
        return False
    value = _mxcsr(FTZ_DAZ)
    return value is not None and value & FTZ_DAZ == FTZ_DAZ


# The decoder's gradients fill with subnormals from the fourth `abs` step on,
# each costing a microcode assist, which roughly doubles the step time.
FLUSH_SUBNORMALS = _flush_subnormals()

import numpy as np  # after the mode bits: BLAS's threads start as it loads

from .atomic import atomic_write
from .errors import ConfigError, EmptyCorpus, LengthMismatch, SumforgeError, TooLong
from .infer import BeamConfig, ExtConfig, summarize_abs, summarize_ext
from .ingest import (
    HIGHLIGHT_MARKER,
    decode_utf8,
    ingest_corpus,
    parse_story,
    read_jsonl,
    read_story_dir,
    read_utf8,
    split_sentences,
)
from .model import Encoder, ModelConfig, build_model, load_checkpoint, load_encoder_into
from .rouge import evaluate_corpus, format_score_table
from .tokenization import (
    TokenizedExample,
    Vocab,
    encode_example,
    encode_source,
    load_vocab,
    read_shards,
    target_truncated,
    write_shards,
)
from .train import TrainConfig, prefit_encoder, train_abs, train_ext, write_trace

# Config-file keys and how each parses: every ModelConfig and TrainConfig
# field but the three set from flags.
_FLAG_FIELDS = ("vocab_size", "pretrained_encoder", "checkpoint_dir")
_PARSERS = {"int": int, "int | None": int, "float": float}
CONFIG_KEYS = {
    f.name: _PARSERS[f.type]
    for cls in (ModelConfig, TrainConfig)
    for f in fields(cls)
    if f.name not in _FLAG_FIELDS
}


def parse_config_file(path: Path | str) -> dict[str, str]:
    """Flat key=value lines, cut at "\\n" only; blank lines and # comments
    are ignored, and a key given twice raises ConfigError."""
    values: dict[str, str] = {}
    lines: dict[str, int] = {}  # the line each key was given on
    for line_no, raw in enumerate(read_utf8(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in lines:
            raise ConfigError(f"{path}:{line_no}: config key {key!r} given again, first on line {lines[key]}")
        values[key], lines[key] = value.strip(), line_no
    return values


def _typed_config(values: dict[str, str]) -> dict[str, object]:
    typed: dict[str, object] = {}
    for key, value in values.items():
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            typed[key] = CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: bad value {value!r}") from exc
    return typed


def _write_manifest(
    out_dir: Path,
    command: str,
    config: dict[str, object],
    seed: int,
    started: str,
    outputs: list[str],
    **stats: object,
) -> None:
    manifest = {
        "command": command,
        "config": {k: config[k] for k in sorted(config)},
        "seed": seed,
        "started": started,
        "finished": _now(),
        "outputs": sorted(outputs),
        **stats,
    }
    with atomic_write(out_dir / "manifest.json", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _file_record(path: str, data: bytes) -> dict[str, str]:
    """An input file as a manifest names it: its path and its bytes' sha256."""
    return {"path": path, "sha256": hashlib.sha256(data).hexdigest()}


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _environment() -> dict[str, object]:
    """What same-seed checkpoint and trace bytes depend on beyond the inputs:
    they repeat only at a fixed BLAS thread count, and could move with the
    MXCSR mode: whether the CLI flushed subnormals on every thread, and the
    register as this thread reads it (None on another CPU or libc)."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "flush_subnormals": FLUSH_SUBNORMALS,
        "mxcsr": None if (mxcsr := _mxcsr()) is None else hex(mxcsr),
    }


def _peak_rss_mb() -> float:
    """This process's peak resident set size so far, in MiB (2**20 bytes):
    ru_maxrss counts KiB on Linux, bytes on macOS."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


# --- subcommands ---

def cmd_convert(args: argparse.Namespace) -> int:
    input_dir = Path(args.input)
    if not input_dir.is_dir():
        raise ConfigError(f"input directory {input_dir} does not exist")
    started = _now()
    out_dir = Path(args.out)
    count = ingest_corpus(input_dir, args.encoding, out_dir)
    _write_manifest(
        out_dir,
        "convert",
        {"input": str(input_dir), "encoding": args.encoding, "out": str(out_dir)},
        0,
        started,
        [str(out_dir)],
    )
    print(f"{count} documents")
    return 0


def cmd_preprocess(args: argparse.Namespace) -> int:
    started = _now()
    stories_dir = Path(args.stories)
    if not stories_dir.is_dir():
        raise ConfigError(f"stories directory {stories_dir} does not exist")
    docs = read_story_dir(stories_dir)
    if not docs:
        raise EmptyCorpus(f"no story files under {stories_dir}")
    vocab = load_vocab(args.vocab)

    examples = []
    skipped = dropped = cut = 0
    for doc in docs:
        try:
            example = encode_example(doc, vocab, args.max_positions, args.max_tgt_len)
        except TooLong as exc:
            skipped += 1
            print(f"skipping {doc.id}: {exc}", file=sys.stderr)
            continue
        examples.append(example)
        dropped += len(doc.article_sentences) - len(example.src_txt)
        cut += target_truncated(example, vocab, args.max_tgt_len)
    if not examples:
        raise EmptyCorpus("every story was skipped during encoding")
    src_unk = sum(ex.src_ids.count(vocab.unk_id) for ex in examples)
    src_total = sum(len(ex.src_ids) for ex in examples)

    out_dir = Path(args.out)
    count = write_shards(examples, out_dir, args.shard_size)
    _write_manifest(
        out_dir,
        "preprocess",
        {
            "stories": str(stories_dir),
            "vocab": str(args.vocab),
            "max_positions": args.max_positions,
            "max_tgt_len": args.max_tgt_len,
            "shard_size": args.shard_size,
            "skipped": skipped,
        },
        0,
        started,
        [str(out_dir)],
        sentences_dropped=dropped,
        src_unk_frac=src_unk / src_total,
        targets_truncated=cut,
    )
    print(f"{count} shards")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    started = _now()
    if args.task == "prefit" and args.init_encoder:
        raise ConfigError("prefit trains a fresh encoder; --init-encoder does not apply")
    typed = _typed_config(parse_config_file(args.config)) if args.config else {}
    out_dir = Path(args.out)
    vocab_data = Path(args.vocab).read_bytes()
    vocab = load_vocab(vocab_data, args.vocab)
    model_keys = {f.name for f in fields(ModelConfig)}
    train_keys = {f.name for f in fields(TrainConfig)}
    train_config = TrainConfig(
        checkpoint_dir=out_dir,
        **{k: v for k, v in typed.items() if k in train_keys},
    )
    config = ModelConfig(
        vocab_size=len(vocab),
        pretrained_encoder=bool(args.init_encoder),
        **{k: v for k, v in typed.items() if k in model_keys},
    )
    examples = read_shards(args.shards, args.task, vocab, config.max_positions)
    if not examples:
        raise EmptyCorpus(f"no shards under {args.shards}")

    out_dir.mkdir(parents=True, exist_ok=True)
    model = build_model(config, "encoder" if args.task == "prefit" else args.task, train_config.seed)
    init_encoder = None
    if args.init_encoder:
        encoder_data = Path(args.init_encoder).read_bytes()
        load_encoder_into(model, encoder_data)
        init_encoder = _file_record(args.init_encoder, encoder_data)
        del encoder_data  # else the checkpoint's bytes stay resident through training
    if args.task == "prefit":
        trace = prefit_encoder(
            examples,
            model,
            train_config,
            mask_id=vocab.mask_id,
            pad_id=vocab.pad_id,
            special_ids=vocab.special_ids(),
        )
    else:
        trainer = train_ext if args.task == "ext" else train_abs
        trace = trainer(examples, model, train_config, vocab.pad_id)

    write_trace(trace, out_dir / "trace.csv")
    _write_manifest(
        out_dir,
        f"train --task {args.task}",
        {**typed, **asdict(config), "shards": str(args.shards), "out": str(out_dir)},
        train_config.seed,
        started,
        [str(out_dir / "trace.csv"), str(out_dir)],
        vocab=_file_record(args.vocab, vocab_data),
        init_encoder=init_encoder,
        environment=_environment(),
        peak_rss_mb=_peak_rss_mb(),
    )
    final = trace[-1].loss if trace else float("nan")
    print(f"{args.task}: {len(trace)} steps, final loss {final:.6f}")
    return 0


def _example_from_text(text: str, vocab: Vocab, max_positions: int) -> TokenizedExample:
    """Encode free text (or a story file) for inference; labels stay empty."""
    if HIGHLIGHT_MARKER in text:
        sentences = parse_story(text).article_sentences
    else:
        sentences = split_sentences(" ".join(text.split()))
    src_ids, segment_ids, cls_positions, kept = encode_source(
        sentences, vocab, max_positions
    )
    return TokenizedExample(
        src_ids=src_ids,
        segment_ids=segment_ids,
        cls_positions=cls_positions,
        ext_labels=[0] * len(cls_positions),
        tgt_ids=[],
        src_txt=kept,
        tgt_txt=[],
    )


class _LastLoad:
    """The bytes a loader was last given and what it built from them, so
    that repeated calls in one process load a file again only when its
    bytes change. File times are not trusted: they are coarse, and an
    in-place rewrite keeps the inode."""

    def __init__(self) -> None:
        self.data: bytes | None = None
        self.value: object = None

    def load(self, path: str, loader: Callable[[bytes], object]) -> object:
        data = Path(path).read_bytes()
        if data != self.data:
            self.data = self.value = None  # a failed load caches nothing
            self.value = loader(data)
            self.data = data
        return self.value


_checkpoints = _LastLoad()
_vocabs = _LastLoad()


def _shared_checkpoint(data: bytes) -> Encoder:
    """A checkpoint whose weights later calls share: read-only, so a write
    into them fails instead of changing every later summary."""
    model = load_checkpoint(data)
    for param in model.params.values():
        param.data.flags.writeable = False
    return model


def cmd_summarize(args: argparse.Namespace) -> int:
    model = _checkpoints.load(args.checkpoint, _shared_checkpoint)
    if model.kind != args.task:
        raise ConfigError(
            f"model kind mismatch: checkpoint is {model.kind!r}, task is {args.task!r}"
        )
    vocab = _vocabs.load(args.vocab, lambda data: load_vocab(data, args.vocab))
    if len(vocab) != model.config.vocab_size:
        raise ConfigError(
            f"vocab has {len(vocab)} tokens, model expects {model.config.vocab_size}"
        )

    text = decode_utf8(sys.stdin.buffer.read(), "<stdin>") if args.input == "-" else read_utf8(args.input)
    example = _example_from_text(text, vocab, model.config.max_positions)

    if args.task == "ext":
        for sentence in summarize_ext(model, example, ExtConfig(k=args.k)):
            print(sentence)
    else:
        beam = BeamConfig(
            max_len=args.max_len, min_len=args.min_len, beam_size=args.beam
        )
        print(summarize_abs(model, example, beam, vocab))
    return 0


def _read_jsonl_texts(path: Path | str) -> dict[str, str]:
    """JSON-lines of {"id": ..., "text": ...} records, keyed by id."""
    texts: dict[str, str] = {}
    for line_no, record in read_jsonl(path, lambda name, n, why: ConfigError(f"{name}:{n}: {why}")):
        if "id" not in record or "text" not in record:
            raise ConfigError(f'{path}:{line_no}: expected {{"id", "text"}} object')
        doc_id, text = record["id"], record["text"]
        if not isinstance(doc_id, str) or not isinstance(text, str):
            raise ConfigError(f'{path}:{line_no}: "id" and "text" must be strings')
        if doc_id in texts:
            raise ConfigError(f"{path}:{line_no}: duplicate id {doc_id!r}")
        texts[doc_id] = text
    return texts


def cmd_evaluate(args: argparse.Namespace) -> int:
    predictions = _read_jsonl_texts(args.predictions)
    references = _read_jsonl_texts(args.references)
    if len(predictions) != len(references):
        raise LengthMismatch(
            f"{len(predictions)} predictions vs {len(references)} references"
        )
    if predictions.keys() != references.keys():
        missing = sorted(predictions.keys() ^ references.keys())[:3]
        raise ConfigError(f"prediction/reference ids do not match, e.g. {missing}")
    order = sorted(predictions)
    scores = evaluate_corpus(
        [predictions[i] for i in order], [references[i] for i in order]
    )
    print(format_score_table(scores))
    return 0


# --- argument parsing ---

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="sumforge",
        description="Extractive and abstractive summarization, end to end.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="transcode a raw corpus into story files")
    p.add_argument("--input", required=True)
    p.add_argument("--encoding", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("preprocess", help="encode story files into shards")
    p.add_argument("--stories", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--max-positions", type=int, default=512)
    p.add_argument("--max-tgt-len", type=int, default=128)
    p.add_argument("--shard-size", type=int, default=2000)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="fine-tune a model, or pre-fit the encoder")
    p.add_argument("--task", required=True, choices=("ext", "abs", "prefit"))
    p.add_argument("--shards", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--vocab", required=True)
    p.add_argument("--init-encoder")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("summarize", help="summarize one document")
    p.add_argument("--task", required=True, choices=("ext", "abs"))
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--input", required=True, help="story/text file, or - for stdin")
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--max-len", type=int, default=64)
    p.add_argument("--min-len", type=int, default=1)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("evaluate", help="score predictions against references")
    p.add_argument("--predictions", required=True)
    p.add_argument("--references", required=True)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SumforgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a bug, not a usage problem
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
