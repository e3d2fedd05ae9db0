"""The sumforge benchmark: seeded synthetic corpora through the real CLI.

    python3 perfbench/run.py --workload ext_en --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each run generates its corpus from the
seed (set-up, done three times and timed), then drives the pipeline
convert -> preprocess -> train --task prefit -> train --task ext|abs ->
summarize (one CLI call per document) -> evaluate, one child interpreter per
stage, one at a time. It checks every output, prints a readable report, and
prints one JSON result as the last line of standard output: the end-to-end
metrics with `--trace 0`, or with `--trace 1` the per-layer metrics of an
extra traced pass (see tracer.py) next to an untraced one.

`--seconds` scales the amount of work (documents and training steps)
linearly; the shapes of documents and models do not change with it. Work
files go to `.perfbench/` in the checkout; each run deletes its own work
directory when done and keeps a JSON report under `.perfbench/reports/`.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy loads, here and in every child.
NPROC = len(os.sched_getaffinity(0))
THREAD_ENV = {
    name: str(NPROC)
    for name in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
    )
}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass, replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from corpus import CorpusSpec, write_corpus  # noqa: E402
from tracer import PER_LAYER_UNITS, layer_metrics, percentile  # noqa: E402

NOMINAL_SECONDS = 30  # --seconds at which the workloads run at the sizes below
SETUP_REPEATS = 3
PREP_REPEATS = 5
DEADLINE_S = 170.0  # a run must end within 180 s
TRAIN_SEED = 1
MODEL_CONFIG = {
    "d_model": 128, "n_heads": 4, "d_ff": 256, "n_enc_layers": 2,
    "n_dec_layers": 2, "max_positions": 512, "dropout": 0.1,
}
MAX_TGT_LEN = 128

END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_s": "s",
    "prepare_docs_per_s": "docs/s",
    "prefit_tokens_per_s": "tokens/s",
    "train_tokens_per_s": "tokens/s",
    "summarize_doc_s_p50": "s",
    "summarize_doc_s_p90": "s",
    "peak_rss_mb": "MB",
    "rouge1_f1": "F1",
    "rougeL_f1": "F1",
    "train_loss_final": "nats",
}


@dataclass(frozen=True)
class Workload:
    corpus: CorpusSpec
    task: str  # "ext" or "abs"
    prefit_steps: int
    train_steps: int
    batch_size: int
    summarize_docs: int
    forced_len: int = 0  # abs: min_len == max_len, so every summary has this many tokens

    def summarize_args(self) -> list[str]:
        if self.task == "ext":
            return ["--k", "3"]
        length = str(self.forced_len)
        return ["--beam", "5", "--min-len", length, "--max-len", length]


WORKLOADS = {
    "ext_en": Workload(
        CorpusSpec("en", "latin-1", docs=200, sentences=16, words=20, vocab_words=2900),
        task="ext", prefit_steps=4, train_steps=12, batch_size=8,
        summarize_docs=150,
    ),
    "abs_ar": Workload(
        CorpusSpec("ar", "windows-1256", docs=150, sentences=10, words=14, vocab_words=7900,
                   summary_stops=False),
        task="abs", prefit_steps=2, train_steps=10, batch_size=8,
        summarize_docs=130, forced_len=12,
    ),
}


def scaled(w: Workload, seconds: float) -> Workload:
    f = seconds / NOMINAL_SECONDS
    docs = max(8, round(w.corpus.docs * f))
    return replace(
        w,
        corpus=replace(w.corpus, docs=docs),
        prefit_steps=max(1, round(w.prefit_steps * f)),
        train_steps=max(1, round(w.train_steps * f)),
        summarize_docs=min(docs, max(4, round(w.summarize_docs * f))),
    )


class Ops:
    """Operations attempted and failed: set-up, stages, per-document calls."""

    def __init__(self) -> None:
        self.attempted = 0
        self.faults: list[str] = []

    def record(self, name: str, fault: str | None = None) -> bool:
        self.attempted += 1
        if fault:
            self.faults.append(f"{name}: {fault}")
        return fault is None


class StageFailed(Exception):
    pass


# --- environment and host drift ---

def environment() -> dict[str, object]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC,
        "threads": THREAD_ENV,
        "platform": platform.platform(),
    }


def host_kernels() -> dict[str, float]:
    """Fixed kernels timed before and after each run, to show host drift.

    They rescale nothing; they are stored with the run's output."""
    import numpy as np

    a = np.full((512, 512), 0.5, dtype=np.float32)
    start = time.perf_counter()
    for _ in range(20):
        a @ a
    matmul_s = time.perf_counter() - start
    start = time.perf_counter()
    total = 0
    for i in range(1_000_000):
        total += i
    return {"matmul512_x20_s": matmul_s, "pyloop_1e6_s": time.perf_counter() - start}


# --- set-up ---

def sha256_tree(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def set_up(w: Workload, seed: int, work: Path, ops: Ops) -> tuple[Path, dict, float]:
    """Generate the corpus SETUP_REPEATS times; return the last copy, its
    document index and the median set-up time. Copies must be identical."""
    times, digests = [], []
    for i in range(SETUP_REPEATS):
        out = work / f"setup{i}"
        start = time.perf_counter()
        docs = write_corpus(w.corpus, seed, out)
        times.append(time.perf_counter() - start)
        digests.append(sha256_tree(sorted(out.rglob("*.txt"))))
        if i + 1 < SETUP_REPEATS:
            shutil.rmtree(out)
    ops.record("setup", None if len(set(digests)) == 1 else "corpus differs between set-ups")
    return out, docs, statistics.median(times)


# --- stages ---

def run_stage(stage: str, calls: list[list[str]], work: Path, deadline: float, trace: bool) -> dict:
    """Run one stage in a child interpreter; return walls, rusage and results."""
    job_path = work / f"{stage}.job.json"
    result_path = work / f"{stage}.result.json"
    job = {
        "src": str(SRC), "stage": stage, "calls": calls, "trace": trace,
        "result": str(result_path),
    }
    env = {**os.environ, "PYTHONHASHSEED": "0"}
    spawned = job["spawned"] = time.monotonic()
    job_path.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "stage.py"), str(job_path)],
        cwd=work, env=env, stdout=subprocess.DEVNULL,
    )
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
    wall = time.monotonic() - spawned
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"stage": stage, "wall_s": wall, "rc": proc.returncode,
           "peak_rss_mb": usage.ru_maxrss / 1024.0}
    if result_path.exists():
        out.update(json.loads(result_path.read_text(encoding="utf-8")))
    out.setdefault("calls", [])
    out.setdefault("beams", [])
    return out


def write_config(path: Path, steps: int, batch_size: int) -> None:
    values = {**MODEL_CONFIG, "batch_size": batch_size, "max_steps": steps, "seed": TRAIN_SEED}
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")


def read_table(text: str) -> dict[str, float]:
    """F1 (as a fraction) of each row of `sumforge evaluate`'s score table."""
    rows = {}
    for line in text.splitlines():
        m = re.fullmatch(r"(R1|R2|RL)\s+([\d.]+)\s+([\d.]+)\s+([\d.]+)", line.strip())
        if m:
            rows[m.group(1)] = float(m.group(4)) / 100.0
    if set(rows) != {"R1", "R2", "RL"}:
        raise ValueError(f"unparsable score table: {text!r}")
    return rows


def pipeline(
    w: Workload, corpus: Path, docs: dict, out: Path, ops: Ops, deadline: float,
    trace: bool, prep_repeats: int,
) -> dict:
    """Run every stage once; check outputs; return the stage records, the
    artifacts' digests and the figures the metrics are made from."""
    from sumforge.tokenization import decode_ids, load_vocab

    out.mkdir(parents=True)
    vocab_path = corpus / "vocab.txt"
    prefit_dir, train_dir = out / "prefit", out / "train"
    write_config(out / "prefit.cfg", w.prefit_steps, w.batch_size)
    write_config(out / "train.cfg", w.train_steps, w.batch_size)
    stages: dict[str, dict] = {}

    def stage(name: str, calls: list[list[str]]) -> dict:
        rec = run_stage(name, calls, out, deadline, trace)
        stages[name] = rec
        if not ops.record(name, None if rec["rc"] == 0 else f"exit code {rec['rc']}"):
            raise StageFailed(name)
        return rec

    def prep_pass(r: int) -> tuple:
        stories, shards = out / f"stories{r}", out / f"shards{r}"
        convert = stage("convert", [["convert", "--input", str(corpus / "raw"),
                                     "--encoding", w.corpus.encoding, "--out", str(stories)]])
        preprocess = stage("preprocess", [[
            "preprocess", "--stories", str(stories), "--vocab", str(vocab_path), "--out", str(shards),
            "--max-positions", str(MODEL_CONFIG["max_positions"]), "--max-tgt-len", str(MAX_TGT_LEN)]])
        return (convert["wall_s"] + preprocess["wall_s"], r, convert, preprocess,
                sha256_tree(sorted(shards.glob("shard_*.jsonl"))))

    # convert + preprocess are short and mostly pure Python, which this kind
    # of shared host slows in bursts of seconds; so they make `prep_repeats`
    # passes spread over the run (first, then after each later stage) and
    # the median pass counts. Every pass must write the same shards.
    passes = [prep_pass(0)]

    def more_passes() -> None:
        if len(passes) < prep_repeats:
            passes.append(prep_pass(len(passes)))

    stories, shards = out / "stories0", out / "shards0"
    common = ["--shards", str(shards), "--vocab", str(vocab_path)]
    stage("prefit", [["train", "--task", "prefit", *common,
                      "--config", str(out / "prefit.cfg"), "--out", str(prefit_dir)]])
    more_passes()
    stage("train", [["train", "--task", w.task, *common, "--config", str(out / "train.cfg"),
                     "--out", str(train_dir), "--init-encoder", str(prefit_dir / "encoder_final.ckpt")]])
    more_passes()

    ids = sorted(docs)[: w.summarize_docs]
    checkpoint = train_dir / f"{w.task}_final.ckpt"
    summ = run_stage(
        "summarize",
        [["summarize", "--task", w.task, "--checkpoint", str(checkpoint), "--vocab", str(vocab_path),
          "--input", str(stories / f"{i}.story"), *w.summarize_args()] for i in ids],
        out, deadline, trace=trace,
    )
    stages["summarize"] = summ
    more_passes()
    vocab = load_vocab(vocab_path)
    predictions, latencies = {}, []
    beams = iter(summ["beams"])
    for doc_id, call in zip(ids, summ["calls"]):
        fault = None if call["rc"] == 0 else f"exit code {call['rc']}"
        lines = call["stdout"].splitlines()
        if fault is None and w.task == "ext":
            if not 1 <= len(lines) <= 3 or any(s not in docs[doc_id]["article"] for s in lines):
                fault = "summary is not made of source sentences"
        elif fault is None:
            beam = next(beams)
            if len(beam) - 1 != w.forced_len or decode_ids(beam, vocab) != call["stdout"].rstrip("\n"):
                fault = f"summary is not the {w.forced_len} forced tokens"
        ops.record(f"summarize {doc_id}", fault)
        predictions[doc_id] = " ".join(lines)
        latencies.append(call["s"])
    if not ops.record("summarize", None if summ["rc"] == 0 and len(latencies) == len(ids)
                      else f"exit code {summ['rc']}"):
        raise StageFailed("summarize")

    pred_path, ref_path = out / "pred.jsonl", out / "ref.jsonl"
    pred_path.write_text("".join(json.dumps({"id": i, "text": predictions[i]}, ensure_ascii=False) + "\n"
                                 for i in ids), encoding="utf-8")
    ref_path.write_text("".join(json.dumps({"id": i, "text": docs[i]["summary"]}, ensure_ascii=False) + "\n"
                                for i in ids), encoding="utf-8")
    rec = run_stage("evaluate", [["evaluate", "--predictions", str(pred_path),
                                  "--references", str(ref_path)]], out, deadline, trace)
    stages["evaluate"] = rec
    try:
        table = read_table(rec["calls"][0]["stdout"] if rec["calls"] else "")
    except ValueError as exc:
        ops.record("evaluate", str(exc))
        raise StageFailed("evaluate") from exc
    ops.record("evaluate", None if rec["rc"] == 0 else f"exit code {rec['rc']}")
    while len(passes) < prep_repeats:
        more_passes()
    passes.sort(key=lambda p: p[:2])
    _, _, stages["convert"], stages["preprocess"], shards_digest = passes[len(passes) // 2]
    if len({p[4] for p in passes}) != 1:
        ops.faults.append("preprocess: shards differ between passes")
    prep_rss = max(rec["peak_rss_mb"] for p in passes for rec in p[2:4])

    with open(train_dir / "trace.csv", newline="", encoding="utf-8") as fh:
        loss_final = float(list(csv.DictReader(fh))[-1]["loss"])
    digests = {
        "preprocess": shards_digest,
        "prefit": sha256_tree([prefit_dir / "encoder_final.ckpt", prefit_dir / "trace.csv"]),
        "train": sha256_tree([checkpoint, train_dir / "trace.csv"]),
        "summarize": sha256_tree([pred_path]),
    }
    return {
        "stages": stages, "digests": digests, "latencies": latencies, "table": table,
        "loss_final": loss_final, "shards": shards, "docs_in": len(docs), "prep_rss_mb": prep_rss,
    }


def consumed_tokens(shards: Path, steps: int, batch_size: int, with_target: bool) -> int:
    """Non-pad tokens the training loop consumed, replaying its batch order."""
    from sumforge.tokenization import read_shards
    from sumforge.train import batch_order

    examples = read_shards(shards)
    order = batch_order(len(examples), batch_size, TRAIN_SEED)
    total = 0
    for _ in range(steps):
        for i in next(order):
            total += len(examples[i].src_ids) + (len(examples[i].tgt_ids) if with_target else 0)
    return total


def end_to_end(w: Workload, run: dict, setup_s: float) -> dict[str, float]:
    st = run["stages"]
    lat = run["latencies"]
    return {
        "setup_s": setup_s,
        "pipeline_s": sum(s["wall_s"] for s in st.values()),
        "prepare_docs_per_s": run["docs_in"] / (st["convert"]["wall_s"] + st["preprocess"]["wall_s"]),
        "prefit_tokens_per_s": consumed_tokens(run["shards"], w.prefit_steps, w.batch_size, False)
        / st["prefit"]["wall_s"],
        "train_tokens_per_s": consumed_tokens(run["shards"], w.train_steps, w.batch_size, w.task == "abs")
        / st["train"]["wall_s"],
        "summarize_doc_s_p50": percentile(lat, 50),
        "summarize_doc_s_p90": percentile(lat, 90),
        "peak_rss_mb": max(run["prep_rss_mb"], *(s["peak_rss_mb"] for s in st.values())),
        "rouge1_f1": run["table"]["R1"],
        "rougeL_f1": run["table"]["RL"],
        "train_loss_final": run["loss_final"],
    }


def check_digests(key: str, runs: list[dict], ops: Ops, store: Path) -> None:
    """Same seed and sizes, same bytes: across this run's passes and earlier
    runs in this checkout."""
    known = json.loads(store.read_text(encoding="utf-8")) if store.exists() else {}
    reference = known.setdefault(key, runs[0]["digests"])
    for run in runs:
        for name, digest in run["digests"].items():
            if digest != reference.get(name, digest):
                ops.faults.append(f"{name}: artifacts differ from an earlier run with this seed")
    store.write_text(json.dumps(known, indent=1, sort_keys=True), encoding="utf-8")


def report_line(name: str, value: float, unit: str) -> str:
    return f"  {name:<36} {value:>16.6g} {unit}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sumforge" / "cli.py").is_file():
        print(f"error: no sumforge sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    started = time.monotonic()
    deadline = started + DEADLINE_S
    w = scaled(WORKLOADS[args.workload], args.seconds)
    base = ROOT / ".perfbench"
    work = base / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = Ops()
    report: dict[str, object] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "host_before": host_kernels(),
        "shape": {**asdict(w), "summarize_args": w.summarize_args()},
    }
    metrics: dict[str, float] = {}
    faults: list[str] = []
    try:
        corpus, docs, setup_s = set_up(w, args.seed, work, ops)
        # A traced run compares one convert/preprocess pass with one.
        prep_repeats = 1 if args.trace else PREP_REPEATS
        plain = pipeline(w, corpus, docs, work / "plain", ops, deadline, False, prep_repeats)
        runs = [plain]
        metrics = end_to_end(w, plain, setup_s)
        report["stages"] = {
            name: {k: rec.get(k) for k in ("wall_s", "start_s", "peak_rss_mb")}
            for name, rec in plain["stages"].items()
        }
        if args.trace:
            traced = pipeline(w, corpus, docs, work / "traced", ops, deadline, True, 1)
            runs.append(traced)
            layer, faults = layer_metrics(list(traced["stages"].values()))
            layer["trace.overhead_s"] = end_to_end(w, traced, setup_s)["pipeline_s"] - metrics["pipeline_s"]
            report["end_to_end"] = metrics
            metrics = layer
        spec = hashlib.sha256(repr(w).encode()).hexdigest()[:16]
        check_digests(f"{args.workload}/seed{args.seed}/{spec}", runs, ops, base / "digests.json")
    except StageFailed as exc:
        print(f"error: stage {exc} failed", file=sys.stderr)
    report["host_after"] = host_kernels()
    report["attempted"], report["faults"] = ops.attempted, ops.faults + faults
    failed = len(ops.faults)
    correct = failed == 0 and not faults and bool(metrics)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    report["metrics"] = metrics

    print(f"sumforge benchmark: workload {args.workload}, seed {args.seed}, "
          f"seconds {args.seconds:g}, trace {args.trace}")
    env = report["environment"]
    print(f"  environment: python {env['python']}, numpy {env['numpy']}, {env['blas']}, "
          f"nproc {env['nproc']}, BLAS threads {NPROC}")
    for when in ("host_before", "host_after"):
        k = report[when]
        print(f"  {when}: matmul 512x512 x20 {k['matmul512_x20_s']:.4f} s, "
              f"python loop 1e6 {k['pyloop_1e6_s']:.4f} s")
    if "stages" in report:
        print("  stages: " + ", ".join(f"{name} {rec['wall_s']:.3f} s" for name, rec in report["stages"].items()))
    if args.trace and "end_to_end" in report:
        print("  end-to-end (untraced pass):")
        for name, value in report["end_to_end"].items():
            print(report_line(name, value, END_TO_END_UNITS[name]))
    for name in units:
        if name in metrics:
            print(report_line(name, metrics[name], units[name]))
    print(report_line("failed_ops_frac", failed / max(1, ops.attempted), "fraction"))
    print(f"  operations: {ops.attempted} attempted, {failed} failed; "
          f"summarize latency samples: {w.summarize_docs}")
    if args.trace:
        print(f"  self-time check: {'ok' if not faults else '; '.join(faults)}")
    for fault in ops.faults:
        print(f"  FAILED {fault}")
    reports = base / "reports"
    reports.mkdir(exist_ok=True)
    (reports / f"{work.name}.json").write_text(json.dumps(report, indent=1, default=str), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": correct,
        "attempted": max(1, ops.attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
