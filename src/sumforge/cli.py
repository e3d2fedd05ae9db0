"""Command-line entry point.

Subcommands wire the pipeline end to end: convert raw text to story files,
preprocess stories into training shards, train (or pre-fit) a model,
summarize a document, and score predictions against references. Exit codes:
0 success, 2 usage or configuration problem, 1 internal failure. Data goes
to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

from .errors import ConfigError, EmptyCorpus, LengthMismatch, SumforgeError, TooLong
from .infer import BeamConfig, ExtConfig, summarize_abs, summarize_ext
from .ingest import (
    HIGHLIGHT_MARKER,
    ingest_corpus,
    parse_story,
    read_story_dir,
    split_sentences,
)
from .model import (
    ModelConfig,
    build_abs_model,
    build_encoder,
    build_ext_model,
    load_checkpoint,
    load_encoder_into,
)
from .rouge import evaluate_corpus, format_score_table
from .tokenization import (
    TokenizedExample,
    Vocab,
    encode_example,
    encode_source,
    load_vocab,
    read_shards,
    write_shards,
)
from .train import TrainConfig, prefit_encoder, train_abs, train_ext, write_trace

_MODEL_INT = (
    "vocab_size",
    "d_model",
    "n_heads",
    "d_ff",
    "n_enc_layers",
    "n_dec_layers",
    "max_positions",
)
_MODEL_FLOAT = ("dropout",)
_TRAIN_INT = ("max_steps", "batch_size", "warmup_encoder", "warmup_decoder", "eval_every", "seed")
_TRAIN_FLOAT = ("base_lr_encoder", "base_lr_decoder", "grad_clip_norm", "label_smoothing")
_EXTRA_INT = ("pad_id", "max_tgt_len")
_EXTRA_FLOAT = ("mask_prob",)

_MODEL_DEFAULTS = {
    "d_model": 128,
    "n_heads": 4,
    "d_ff": 256,
    "n_enc_layers": 2,
    "n_dec_layers": 2,
    "max_positions": 512,
    "dropout": 0.1,
}


def parse_config_file(path: Path | str) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments are ignored."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _typed_config(values: dict[str, str]) -> dict[str, object]:
    typed: dict[str, object] = {}
    for key, value in values.items():
        try:
            if key in _MODEL_INT or key in _TRAIN_INT or key in _EXTRA_INT:
                typed[key] = int(value)
            elif key in _MODEL_FLOAT or key in _TRAIN_FLOAT or key in _EXTRA_FLOAT:
                typed[key] = float(value)
            else:
                raise ConfigError(f"unknown config key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: bad value {value!r}") from exc
    return typed


def _resolve_seed(flag_seed: int | None, config: dict[str, object]) -> int:
    if flag_seed is not None:
        return flag_seed
    if "seed" in config:
        return int(config["seed"])
    env = os.environ.get("SUMFORGE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"SUMFORGE_SEED must be an integer, got {env!r}") from exc
    return 0


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
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


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
    skipped = dropped = 0
    for doc in docs:
        try:
            example = encode_example(doc, vocab, args.max_positions, args.max_tgt_len)
        except TooLong as exc:
            skipped += 1
            print(f"skipping {doc.id}: {exc}", file=sys.stderr)
            continue
        examples.append(example)
        dropped += len(doc.article_sentences) - len(example.src_txt)
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
    )
    print(f"{count} shards")
    return 0


def _split_train_config(
    typed: dict[str, object], seed: int, out_dir: Path
) -> tuple[dict[str, object], TrainConfig]:
    model_kwargs = {k: typed[k] for k in typed if k in _MODEL_INT + _MODEL_FLOAT}
    for key, default in _MODEL_DEFAULTS.items():
        model_kwargs.setdefault(key, default)
    train_kwargs = {
        k: typed[k]
        for k in typed
        if k in _TRAIN_INT + _TRAIN_FLOAT and k != "seed"
    }
    train_kwargs.setdefault("max_steps", 500)
    train_config = TrainConfig(seed=seed, checkpoint_dir=out_dir, **train_kwargs)
    return model_kwargs, train_config


def cmd_train(args: argparse.Namespace) -> int:
    started = _now()
    typed = _typed_config(parse_config_file(args.config)) if args.config else {}
    seed = _resolve_seed(args.seed, typed)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    vocab = load_vocab(args.vocab) if args.vocab else None
    examples = read_shards(args.shards)
    if not examples:
        raise EmptyCorpus(f"no shards under {args.shards}")

    model_kwargs, train_config = _split_train_config(typed, seed, out_dir)
    if vocab is not None:
        model_kwargs.setdefault("vocab_size", len(vocab))
    if "vocab_size" not in model_kwargs:
        raise ConfigError("vocab_size must come from the config file or --vocab")
    pad_id = int(typed.get("pad_id", vocab.pad_id if vocab else 0))

    if args.task == "prefit":
        if vocab is None:
            raise ConfigError("prefit needs --vocab for [MASK] and special ids")
        config = ModelConfig(**model_kwargs)
        encoder = build_encoder(config, seed)
        trace = prefit_encoder(
            examples,
            encoder,
            train_config,
            float(typed.get("mask_prob", 0.15)),
            mask_id=vocab.mask_id,
            pad_id=pad_id,
            special_ids=vocab.special_ids(),
        )
    else:
        config = ModelConfig(**model_kwargs, pretrained_encoder=bool(args.init_encoder))
        if args.task == "ext":
            model = build_ext_model(config, seed)
        else:
            model = build_abs_model(config, seed)
        if args.init_encoder:
            load_encoder_into(model, args.init_encoder)
        if args.task == "ext":
            trace = train_ext(examples, model, train_config, pad_id)
        else:
            trace = train_abs(examples, model, train_config, pad_id)

    write_trace(trace, out_dir / "trace.csv")
    _write_manifest(
        out_dir,
        f"train --task {args.task}",
        {**typed, **model_kwargs, "shards": str(args.shards), "out": str(out_dir)},
        seed,
        started,
        [str(out_dir / "trace.csv"), str(out_dir)],
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


def cmd_summarize(args: argparse.Namespace) -> int:
    model = load_checkpoint(args.checkpoint)
    if model.kind != args.task:
        raise ConfigError(
            f"model kind mismatch: checkpoint is {model.kind!r}, task is {args.task!r}"
        )
    vocab = load_vocab(args.vocab)
    if len(vocab) != model.config.vocab_size:
        raise ConfigError(
            f"vocab has {len(vocab)} tokens, model expects {model.config.vocab_size}"
        )

    text = sys.stdin.read() if args.input == "-" else Path(args.input).read_text("utf-8")
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
    for line_no, line in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{line_no}: invalid JSON: {exc}") from exc
        if not isinstance(record, dict) or "id" not in record or "text" not in record:
            raise ConfigError(f'{path}:{line_no}: expected {{"id", "text"}} object')
        doc_id = str(record["id"])
        if doc_id in texts:
            raise ConfigError(f"{path}:{line_no}: duplicate id {doc_id!r}")
        texts[doc_id] = str(record["text"])
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

def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--vocab")
    p.add_argument("--seed", type=int)
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
    except (SumforgeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # anything else is a bug, not a usage problem
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
