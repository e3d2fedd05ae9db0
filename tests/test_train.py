"""Optimizer math, schedules, batching, and the three training loops."""

from __future__ import annotations

import hashlib
import math
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    closure_arrays, forward_logits, graph_vertices, neg, synthetic_example, teacher_forced_accuracy, tensor_sum,
    transpose,
)
from test_tensor import composed_head_loss
from sumforge import tensor as T
from sumforge import train as train_module
from sumforge.errors import (
    ConfigError,
    EmptyCorpus,
    NoMaskedPositions,
    NonFiniteLoss,
    ShapeMismatch,
)
from sumforge.model import (
    ModelConfig,
    build_model,
    ext_loss,
    load_checkpoint,
    load_encoder_into,
    save_checkpoint,
)
from sumforge.tensor import SplitRng, Tensor
from sumforge.train import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AbsBatch,
    AdamState,
    ExtBatch,
    TraceRow,
    TrainConfig,
    adam_step,
    batch_order,
    clip_gradients,
    fit,
    lr_schedule,
    make_abs_batch,
    make_ext_batch,
    masked_token_loss,
    prefit_encoder,
    train_abs,
    train_ext,
    write_trace,
)

PAD, CLS, SEP, BOS, EOS = 0, 2, 3, 5, 6
SPECIAL_IDS = frozenset({0, 1, 2, 3, 4, 5, 6})


def _corpus(n, seed=0, **kw):
    rng = np.random.default_rng(seed)
    return [synthetic_example(rng, **kw) for _ in range(n)]


def _tiny(vocab=40):
    return ModelConfig(
        vocab_size=vocab, d_model=8, n_heads=2, d_ff=16,
        n_enc_layers=1, n_dec_layers=1, max_positions=32, dropout=0.0,
    )


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig(max_steps=100)
        assert cfg.base_lr_encoder == pytest.approx(2e-3)
        assert cfg.base_lr_decoder == pytest.approx(0.1)
        assert cfg.grad_clip_norm == pytest.approx(1.0)
        assert TrainConfig().max_steps == 500

    def test_default_warmups_are_percentages(self):
        enc, dec = TrainConfig(max_steps=1000).resolved_warmups()
        assert (enc, dec) == (200, 100)

    def test_warmups_never_below_one(self):
        assert TrainConfig(max_steps=3).resolved_warmups() == (1, 1)

    def test_explicit_warmups_respected(self):
        cfg = TrainConfig(max_steps=100, warmup_encoder=7, warmup_decoder=9)
        assert cfg.resolved_warmups() == (7, 9)

    @pytest.mark.parametrize(
        "kw",
        [
            {"max_steps": -1},
            {"max_steps": 10, "batch_size": 0},
            {"max_steps": 10, "base_lr_encoder": 0.0},
            {"max_steps": 10, "base_lr_decoder": -1.0},
            {"max_steps": 10, "grad_clip_norm": 0.0},
            {"max_steps": 10, "label_smoothing": 1.0},
            {"max_steps": 10, "warmup_encoder": 0},
            {"max_steps": 10, "checkpoint_every": -1},
            {"max_steps": 10, "base_lr_encoder": math.nan},
            {"max_steps": 10, "base_lr_encoder": math.inf},
            {"max_steps": 10, "base_lr_decoder": math.nan},
            {"max_steps": 10, "base_lr_decoder": math.inf},
            {"max_steps": 10, "grad_clip_norm": math.nan},
            {"max_steps": 10, "grad_clip_norm": math.inf},
            {"max_steps": 10, "label_smoothing": math.nan},
        ],
    )
    def test_invalid_configs(self, kw):
        with pytest.raises(ConfigError):
            TrainConfig(**kw)


class TestAdamStep:
    def _fresh(self, value=1.0):
        params = {"p": Tensor(np.array([value]), requires_grad=True, dtype=np.float64)}
        return params, AdamState(params)

    def test_hand_computed_first_step(self):
        params, state = self._fresh(1.0)
        adam_step(params, {"p": np.array([1.0])}, state, lr=0.1)
        # m-hat and v-hat are both exactly 1 after bias correction.
        assert params["p"].data[0] == pytest.approx(0.9000000009, abs=1e-9)
        assert params["p"].data[0] == pytest.approx(1.0 - 0.1 / (1.0 + 1e-8), abs=1e-15)

    def test_zero_gradient_is_identity(self):
        params, state = self._fresh(3.5)
        adam_step(params, {"p": np.zeros(1)}, state, lr=0.1)
        assert params["p"].data[0] == 3.5

    def test_state_evolves_between_calls(self):
        params, state = self._fresh(1.0)
        adam_step(params, {"p": np.array([1.0])}, state, lr=0.1)
        after_one = params["p"].data[0]
        assert state.step == 1
        # Momentum carries: a zero gradient still moves the parameter.
        adam_step(params, {"p": np.zeros(1)}, state, lr=0.1)
        assert state.step == 2
        assert params["p"].data[0] != after_one
        assert params["p"].data[0] < after_one

    def test_shape_mismatch(self):
        params, state = self._fresh()
        with pytest.raises(ShapeMismatch):
            adam_step(params, {"p": np.zeros(2)}, state, lr=0.1)

    def test_moments_track_config_betas(self):
        params, state = self._fresh(0.0)
        adam_step(params, {"p": np.array([2.0])}, state, lr=0.0)
        assert state.m["p"][0] == pytest.approx(0.1 * 2.0)
        assert state.v["p"][0] == pytest.approx(0.001 * 4.0)


def _textbook_adam_step(params, grads, state, lr):
    """adam_step before it ran in place: the reference for its bits."""
    state.step += 1
    t = state.step
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, p in params.items():
        g = grads[name]
        m, v = state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p.data -= (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(p.dtype)


# Parameter shapes for the Adam reference: small ones, and ones several
# chunks long (rows of 96, a flat vector) with a last chunk cut short.
_ADAM_SHAPES = (
    ("a", (7, 5)), ("b", (13,)), ("c", (3, 4, 2)),
    ("rows", (3 * (train_module.CHUNK // 96) + 5, 96)), ("flat", (2 * train_module.CHUNK + 3,)),
)


class TestAdamInPlace:
    @staticmethod
    def _digest(step_fn, param_dtype, grad_dtype) -> str:
        r = np.random.default_rng(11)
        params = {name: Tensor(r.standard_normal(shape).astype(param_dtype), requires_grad=True)
                  for name, shape in _ADAM_SHAPES}
        state = AdamState(params)
        for step, scale in enumerate((1e-8, 1e-6, 1e-4, 1e-2, 1.0), start=1):
            grads = {k: (r.standard_normal(p.shape) * scale).astype(grad_dtype) for k, p in params.items()}
            grads["rows"] = np.asfortranarray(grads["rows"])  # a layout unlike the parameter's
            assert step_fn(params, grads, state, 1e-3 * step) is None
        h = hashlib.sha256()
        for name in params:
            for array in (params[name].data, state.m[name], state.v[name]):
                h.update(array.dtype.str.encode() + array.tobytes())
        return h.hexdigest()

    @pytest.mark.parametrize("param_dtype, grad_dtype", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.float32, np.float64), (np.float64, np.float32),
    ])
    def test_weights_and_moments_bitwise_textbook_formula(self, param_dtype, grad_dtype):
        assert (self._digest(adam_step, param_dtype, grad_dtype)
                == self._digest(_textbook_adam_step, param_dtype, grad_dtype))

    def test_the_large_parameters_run_in_several_chunks(self):
        for name, shape in _ADAM_SHAPES:
            parts = train_module._row_chunks(shape)
            assert len(parts) >= (3 if name in ("rows", "flat") else 1), name

    @pytest.mark.parametrize("shape", [(), (0, 4), (5,), (3, 2 * train_module.CHUNK), (200_001,), (1031, 129),
                                       (70, 40, 30)], ids=str)
    def test_row_chunks_cover_each_row_once(self, shape):
        a = np.arange(math.prod(shape)).reshape(shape)
        parts = train_module._row_chunks(shape)
        seen = np.concatenate([a[part].reshape(-1) for part in parts]) if parts else np.zeros(0, int)
        assert np.array_equal(seen, a.reshape(-1))
        row = math.prod(shape[1:])
        assert all(a[part].size <= max(train_module.CHUNK, row) for part in parts)


def _whole_square_sum(g: np.ndarray) -> np.float64:
    """What clip_gradients summed before it worked in chunks: the whole
    float64 cast, squared in place."""
    square = g.astype(np.float64)
    square *= square
    return square.sum()


def _spread(r, shape, dtype):
    """Values over three decades, so the order of the additions shows in
    the bits (over many more, the largest squares swamp the rest)."""
    return (r.standard_normal(shape) * 10.0 ** r.integers(-1, 2, shape)).astype(dtype)


class TestChunkedSquareSum:
    """clip_gradients sums each gradient's squares in float64 chunks that
    follow numpy's pairwise summation tree: the bits of the whole cast's sum."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("chunk", [128, 1000, train_module.CHUNK])
    def test_sizes_around_8_128_and_the_chunk_equal_the_whole_sum(self, dtype, chunk):
        r = np.random.default_rng(chunk)
        sizes = {n for c in (8, 128, chunk, 2 * chunk, 3 * chunk) for n in range(max(1, c - 9), c + 10)}
        sequential_differs = False
        for n in sorted(sizes | {16 * chunk + 5}):
            g = _spread(r, n, dtype)
            want = _whole_square_sum(g)
            assert train_module._square_sum(g, chunk).tobytes() == want.tobytes(), n
            if n > chunk:  # chunks added left to right instead: the check can tell
                parts = [_whole_square_sum(g[lo:lo + chunk]) for lo in range(0, n, chunk)]
                sequential_differs |= math.fsum(parts) != want and sum(parts) != want
        assert sequential_differs

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("chunk", [128, train_module.CHUNK])
    def test_layouts_are_walked_in_memory_order(self, dtype, chunk):
        r = np.random.default_rng(1)
        a = _spread(r, (1031, 387), dtype)
        layouts = {
            "C": a, "F": np.asfortranarray(a), "transposed": a.T, "strided": a[:, ::2],
            "heads": np.swapaxes(_spread(r, (8, 4, 129, 32), dtype), -1, -2),  # attention's k layout
            "scalar": np.asarray(a[3, 5]),
        }
        for name, g in layouts.items():
            want = _whole_square_sum(g)
            assert train_module._square_sum(g, chunk).tobytes() == want.tobytes(), name
        # Walked in C order, an F-ordered array's squares often add up to
        # other bits.
        assert any(
            _whole_square_sum(np.ascontiguousarray(f)) != _whole_square_sum(f)
            for f in (np.asfortranarray(_spread(r, (1031, 387), dtype)) for _ in range(8))
        )

    @pytest.mark.parametrize("dtype, bad", [
        *((np.float32, bad) for bad in (np.nan, np.inf, -np.inf)),
        *((np.float64, bad) for bad in (np.nan, np.inf, -np.inf, 1e200)),  # 1e200 squared overflows
    ], ids=str)
    def test_non_finite_input_still_raises(self, dtype, bad):
        g = np.ones(3 * train_module.CHUNK + 7, dtype)
        g[2 * train_module.CHUNK + 5] = bad  # deep inside a later chunk
        with np.errstate(over="ignore"):
            assert not math.isfinite(float(train_module._square_sum(g)))
            with pytest.raises(NonFiniteLoss):
                clip_gradients({"a": np.ones(3, dtype), "b": g}, 1.0)


class TestLrSchedule:
    def test_first_step(self):
        assert lr_schedule(1, 1.0, 100) == pytest.approx(0.001)

    def test_peak_at_warmup(self):
        assert lr_schedule(100, 1.0, 100) == pytest.approx(0.1)
        # Both branches agree at the junction.
        assert 100 * 100**-1.5 == pytest.approx(100**-0.5)

    def test_scales_with_base_lr(self):
        assert lr_schedule(50, 2e-3, 100) == pytest.approx(2e-3 * 50 * 100**-1.5)

    def test_increasing_through_warmup(self):
        vals = [lr_schedule(s, 1.0, 50) for s in range(1, 51)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_non_increasing_after_warmup(self):
        vals = [lr_schedule(s, 1.0, 50) for s in range(50, 400)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_continuous_at_warmup(self):
        # The two branches meet at step == warmup; adjacent steps differ by
        # at most a 1/warmup relative gap on either side.
        w = 200
        peak = lr_schedule(w, 1.0, w)
        assert abs(lr_schedule(w - 1, 1.0, w) - peak) <= peak / w * 1.01
        assert abs(lr_schedule(w + 1, 1.0, w) - peak) <= peak / w * 1.01

    def test_step_zero_rejected(self):
        with pytest.raises(ConfigError):
            lr_schedule(0, 1.0, 10)

    def test_shorter_warmup_dominates_during_rampup(self):
        # With equal base rates the shorter-warmup schedule is never behind.
        for step in range(1, 120):
            fast = lr_schedule(step, 1.0, 40)
            slow = lr_schedule(step, 1.0, 80)
            assert fast >= slow


class TestClipGradients:
    def test_scales_when_over(self):
        grads = {"a": np.array([6.0]), "b": np.array([8.0])}
        out = clip_gradients(grads, 2.0)
        assert out["a"][0] == pytest.approx(1.2)
        assert out["b"][0] == pytest.approx(1.6)

    def test_clipped_norm_equals_max(self):
        rng = np.random.default_rng(0)
        grads = {f"g{i}": rng.standard_normal((4, 4)) * 10 for i in range(3)}
        out = clip_gradients(grads, 1.5)
        norm = math.sqrt(sum(float((g**2).sum()) for g in out.values()))
        assert norm == pytest.approx(1.5, rel=1e-9)

    def test_identity_when_under(self):
        grads = {"a": np.array([0.6, 0.8])}
        assert clip_gradients(grads, 2.0) is grads

    def test_zero_grads_unchanged(self):
        grads = {"a": np.zeros(3)}
        assert clip_gradients(grads, 1.0) is grads

    def test_invalid_max_norm(self):
        with pytest.raises(ConfigError):
            clip_gradients({"a": np.ones(1)}, 0.0)

    def test_norm_bits_equal_the_two_copy_expression(self):
        # Squaring the float64 cast in place makes the array that cast ** 2
        # made, so the norm, and with it every clipped gradient, keeps its bits.
        r = np.random.default_rng(0)
        big = (r.standard_normal((64, 48)) * 3e37).astype(np.float32)
        tiny = np.array([1e-45, -1e-45, 1e-40, 0.0, -0.0, 3e38, -3e38], np.float32)
        grads = {
            "big": big, "tiny": tiny, "zeros": np.zeros((5, 7), np.float32),
            "transposed": big.T, "small": (r.standard_normal(301) * 1e-30).astype(np.float32),
        }
        norm = sum(float((g.astype(np.float64) ** 2).sum()) for g in grads.values()) ** 0.5
        # Taken before the call, which scales the arrays it is handed.
        want = {name: (g * (1.0 / norm)).tobytes() for name, g in grads.items()}
        out = clip_gradients(grads, 1.0)
        for name in want:
            assert out[name].tobytes() == want[name], name

    def test_scales_in_place_and_aliased_buffers_once(self):
        # backward hands both leaves of an add the same array; "big" and
        # "transposed" share one buffer, and "tail" is a view into it.
        r = np.random.default_rng(1)
        shared = (r.standard_normal((6, 5)) * 10).astype(np.float32)
        big = (r.standard_normal((64, 48)) * 3e37).astype(np.float32)
        own = r.standard_normal(7) * 4
        grads = {"a": shared, "b": shared, "big": big, "own": own, "transposed": big.T, "tail": big[60:]}
        norm = sum(float((g.astype(np.float64) ** 2).sum()) for g in grads.values()) ** 0.5
        want = {name: (g * (1.0 / norm)).tobytes() for name, g in grads.items()}
        held = dict(grads)
        out = clip_gradients(grads, 1.0)
        assert out is grads and list(out) == list(held)
        for name in want:
            assert out[name].tobytes() == want[name], name
        # An array that shares memory with no later gradient is scaled in
        # place; the others become copies.
        assert [name for name in out if out[name] is held[name]] == ["b", "own", "tail"]
        assert not any(np.shares_memory(out[n], out[m]) for n, m in [("a", "b"), ("big", "tail")])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_norm_raises(self, bad):
        with pytest.raises(NonFiniteLoss):
            clip_gradients({"a": np.ones(3), "b": np.array([1.0, bad])}, 1.0)


class TestBatching:
    def test_ext_batch_pads_to_longest(self):
        rng = np.random.default_rng(1)
        short = synthetic_example(rng, n_sentences=2, sent_len=4)
        long = synthetic_example(rng, n_sentences=3, sent_len=6)
        batch = make_ext_batch([short, long], PAD)
        assert batch.src.shape == (2, 18)
        assert batch.pad_mask[0, 8:].all() and not batch.pad_mask[0, :8].any()
        assert batch.sent_mask[0].tolist() == [1.0, 1.0, 0.0]
        assert batch.sent_mask[1].tolist() == [1.0, 1.0, 1.0]

    def test_abs_batch_target_padding(self):
        rng = np.random.default_rng(2)
        a = synthetic_example(rng, tgt_len=4)
        b = synthetic_example(rng, tgt_len=7)
        batch = make_abs_batch([a, b], PAD)
        assert batch.tgt.shape == (2, 7)
        assert batch.tgt_pad_mask[0].tolist() == [False] * 4 + [True] * 3
        assert batch.tgt[0, 4:].tolist() == [PAD] * 3

    def test_batch_order_covers_all_indices_per_epoch(self):
        order = batch_order(10, 3, seed=5)
        seen = np.concatenate([next(order) for _ in range(4)])
        assert sorted(seen.tolist()) == list(range(10))

    def test_batch_order_deterministic(self):
        a = [next(batch_order(10, 3, seed=5)).tolist() for _ in range(1)]
        b = [next(batch_order(10, 3, seed=5)).tolist() for _ in range(1)]
        assert a == b

    def test_batch_order_reshuffles_across_epochs(self):
        order = batch_order(12, 12, seed=5)
        first = next(order).tolist()
        second = next(order).tolist()
        assert sorted(first) == sorted(second)
        assert first != second


class TestTrainExt:
    def test_zero_steps_leaves_params_at_init(self, tmp_path):
        model = build_model(_tiny(), "ext", seed=3)
        before = {k: v.data.copy() for k, v in model.params.items()}
        trace = train_ext(_corpus(4), model, TrainConfig(max_steps=0, checkpoint_dir=tmp_path), PAD)
        assert trace == []
        for k, v in model.params.items():
            assert np.array_equal(v.data, before[k])
        assert (tmp_path / "ext_final.ckpt").exists()

    def test_same_seed_bit_identical(self, tmp_path):
        runs = []
        for tag in ("a", "b"):
            model = build_model(_tiny(), "ext", seed=3)
            cfg = TrainConfig(max_steps=12, batch_size=4, seed=9, checkpoint_dir=tmp_path / tag)
            runs.append((train_ext(_corpus(6), model, cfg, PAD), tag))
        (trace_a, _), (trace_b, _) = runs
        assert trace_a == trace_b
        assert (tmp_path / "a" / "ext_final.ckpt").read_bytes() == (
            tmp_path / "b" / "ext_final.ckpt"
        ).read_bytes()

    def test_loss_decreases_on_fixed_corpus(self):
        model = build_model(_tiny(), "ext", seed=3)
        trace = train_ext(_corpus(8), model, TrainConfig(max_steps=150, batch_size=8, seed=1), PAD)
        assert trace[-1].loss < trace[0].loss
        assert all(math.isfinite(r.loss) for r in trace)

    def test_periodic_checkpoints(self, tmp_path):
        model = build_model(_tiny(), "ext", seed=3)
        cfg = TrainConfig(max_steps=10, checkpoint_every=4, seed=1, checkpoint_dir=tmp_path / "ext")
        train_ext(_corpus(4), model, cfg, PAD)
        names = sorted(p.name for p in (tmp_path / "ext").iterdir())
        assert names == ["ext_final.ckpt", "ext_step000004.ckpt", "ext_step000008.ckpt"]

        encoder = build_model(_tiny(), "encoder", seed=3)
        cfg = replace(cfg, checkpoint_dir=tmp_path / "prefit")
        prefit_encoder(
            _corpus(4), encoder, cfg,
            mask_id=4, pad_id=PAD, special_ids=SPECIAL_IDS,
        )
        names = sorted(p.name for p in (tmp_path / "prefit").iterdir())
        assert names == [
            "encoder_final.ckpt", "encoder_step000004.ckpt", "encoder_step000008.ckpt"
        ]
        assert load_checkpoint(tmp_path / "prefit" / "encoder_step000004.ckpt").step == 4

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            train_ext([], build_model(_tiny(), "ext", seed=1), TrainConfig(max_steps=1), PAD)

    def test_rejects_wrong_model_kind(self):
        with pytest.raises(ConfigError):
            train_ext(_corpus(2), build_model(_tiny(), "abs", seed=1), TrainConfig(max_steps=1), PAD)

    def test_trace_uses_encoder_schedule(self):
        model = build_model(_tiny(), "ext", seed=3)
        cfg = TrainConfig(max_steps=5, warmup_encoder=10, base_lr_encoder=1e-2, seed=1)
        trace = train_ext(_corpus(4), model, cfg, PAD)
        for row in trace:
            assert row.lr_encoder == pytest.approx(lr_schedule(row.step, 1e-2, 10))


class TestTrainAbs:
    def test_same_seed_identical_traces(self):
        traces = []
        for _ in range(2):
            model = build_model(_tiny(), "abs", seed=5)
            traces.append(
                train_abs(_corpus(6), model, TrainConfig(max_steps=8, batch_size=4, seed=2), PAD)
            )
        assert traces[0] == traces[1]

    def test_dual_schedules_reported(self):
        model = build_model(_tiny(), "abs", seed=5)
        cfg = TrainConfig(
            max_steps=6, warmup_encoder=20, warmup_decoder=4,
            base_lr_encoder=1e-3, base_lr_decoder=0.05, seed=2,
        )
        trace = train_abs(_corpus(4), model, cfg, PAD)
        for row in trace:
            assert row.lr_encoder == pytest.approx(lr_schedule(row.step, 1e-3, 20))
            assert row.lr_decoder == pytest.approx(lr_schedule(row.step, 0.05, 4))

    def test_losses_finite_on_random_data(self):
        model = build_model(_tiny(), "abs", seed=5)
        trace = train_abs(_corpus(10, seed=4), model, TrainConfig(max_steps=40, seed=2), PAD)
        assert all(math.isfinite(r.loss) for r in trace)

    def test_loss_decreases(self):
        model = build_model(_tiny(), "abs", seed=5)
        trace = train_abs(_corpus(4, seed=4), model, TrainConfig(max_steps=120, seed=2), PAD)
        assert trace[-1].loss < trace[0].loss

    def test_rejects_wrong_model_kind(self):
        with pytest.raises(ConfigError):
            train_abs(_corpus(2), build_model(_tiny(), "ext", seed=1), TrainConfig(max_steps=1), PAD)

    def test_encoder_and_decoder_both_move(self):
        model = build_model(_tiny(), "abs", seed=5)
        before_enc = model.params["encoder.tok_emb"].data.copy()
        before_dec = model.params["decoder.layer0.self_attn.wq"].data.copy()
        train_abs(_corpus(4), model, TrainConfig(max_steps=5, seed=2), PAD)
        assert not np.array_equal(model.params["encoder.tok_emb"].data, before_enc)
        assert not np.array_equal(model.params["decoder.layer0.self_attn.wq"].data, before_dec)


class TestPrefit:
    def _run(self, steps, tmp_path=None, seed=7, n_docs=30):
        encoder = build_model(_tiny(), "encoder", seed=seed)
        cfg = TrainConfig(max_steps=steps, batch_size=8, seed=seed, checkpoint_dir=tmp_path)
        trace = prefit_encoder(
            _corpus(n_docs, seed=11), encoder, cfg,
            mask_id=4, pad_id=PAD, special_ids=SPECIAL_IDS,
        )
        return encoder, trace

    def test_zero_mask_prob_rejected(self):
        with pytest.raises(NoMaskedPositions):
            TrainConfig(max_steps=1, mask_prob=0.0)

    def test_mask_prob_one_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(max_steps=1, mask_prob=1.0)

    def test_nan_mask_prob_rejected(self):
        # NaN compares false both ways; it must not fall through to masking
        # one token per batch.
        with pytest.raises(ConfigError):
            TrainConfig(max_steps=1, mask_prob=math.nan)

    def test_empty_corpus(self):
        encoder = build_model(_tiny(), "encoder", seed=1)
        with pytest.raises(EmptyCorpus):
            prefit_encoder(
                [], encoder, TrainConfig(max_steps=1),
                mask_id=4, pad_id=PAD, special_ids=SPECIAL_IDS,
            )

    def test_loss_decreases_endpoint(self):
        _, trace = self._run(steps=120)
        assert trace[-1].loss < trace[0].loss
        assert all(math.isfinite(r.loss) for r in trace)

    def test_checkpoint_is_plain_encoder(self, tmp_path):
        encoder, _ = self._run(steps=5, tmp_path=tmp_path)
        loaded = load_checkpoint(tmp_path / "encoder_final.ckpt")
        assert loaded.kind == "encoder"
        assert set(loaded.params) == set(encoder.params)
        # The reconstruction bias must not leak into the checkpoint.
        model = build_model(_tiny(), "abs", seed=99)
        load_encoder_into(model, tmp_path / "encoder_final.ckpt")
        for name in encoder.params:
            assert np.array_equal(model.params[name].data, encoder.params[name].data)

    def test_same_seed_identical(self, tmp_path):
        self._run(steps=6, tmp_path=tmp_path / "a")
        self._run(steps=6, tmp_path=tmp_path / "b")
        assert (tmp_path / "a" / "encoder_final.ckpt").read_bytes() == (
            tmp_path / "b" / "encoder_final.ckpt"
        ).read_bytes()


def _dense_masked_token_loss(hidden, tok_emb, bias, targets, chosen):
    """The head before it gathered: every [B, L] position is projected onto
    the vocabulary and the unchosen ones are weighted zero."""
    logits = T.matmul(hidden, transpose(tok_emb)) + bias
    lp = T.log_softmax(logits, axis=-1)
    nll = neg(T.take_along_last(lp, targets))
    weights = chosen.astype(nll.dtype)
    return tensor_sum(T.mul(nll, weights)) / float(weights.sum())


class TestMaskedTokenLoss:
    @pytest.mark.parametrize("dtype, rtol, atol", [
        (np.float32, 1e-4, 1e-6),
        (np.float64, 1e-10, 1e-13),
    ])
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        lengths=st.lists(st.integers(1, 9), min_size=1, max_size=3),
        mask_share=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
    )
    def test_gathered_head_matches_dense_reference(self, dtype, rtol, atol, seed, lengths, mask_share):
        rng = np.random.default_rng(seed)
        width = max(lengths)
        pad = np.arange(width)[None, :] >= np.array(lengths)[:, None]
        src = np.where(pad, PAD, rng.integers(7, 40, pad.shape))
        chosen = (rng.random(pad.shape) < mask_share) & ~pad
        if not chosen.any():  # prefit forces one masked position too
            chosen[0, rng.integers(lengths[0])] = True
        masked_src = np.where(chosen, 4, src)
        encoder = build_model(_tiny(), "encoder", seed=seed % 97, dtype=dtype)
        bias = Tensor(rng.standard_normal(40).astype(dtype) * 0.1, requires_grad=True)
        params = {**encoder.params, "recon.b": bias}

        results = []
        for head in (masked_token_loss, _dense_masked_token_loss):
            for p in params.values():
                p.grad = None
            hidden = encoder.encode(masked_src, np.zeros_like(src), pad)
            loss = head(hidden, encoder.params["encoder.tok_emb"], bias, src, chosen)
            T.backward(loss)
            results.append((loss.item(), {k: p.grad for k, p in params.items()}))
        (got, got_grads), (ref, ref_grads) = results
        assert got == pytest.approx(ref, rel=rtol)
        for name, g in ref_grads.items():
            assert got_grads[name].dtype == dtype, name
            np.testing.assert_allclose(got_grads[name], g, rtol=rtol, atol=atol, err_msg=name)


class TestTeacherForcedAccuracy:
    def test_matches_manual_computation(self):
        model = build_model(_tiny(), "abs", seed=5)
        examples = _corpus(3, seed=6, tgt_len=5) + _corpus(2, seed=7, tgt_len=7)
        got = teacher_forced_accuracy(model, examples, PAD, batch_size=2)
        hits = total = 0
        for ex in examples:
            batch = make_abs_batch([ex], PAD)
            logits = forward_logits(
                model, batch.src, batch.segs, batch.pad_mask, batch.tgt
            ).data
            pred = logits[0, :-1].argmax(axis=-1)
            gold = np.asarray(ex.tgt_ids[1:])
            hits += int((pred[: len(gold)] == gold).sum())
            total += len(gold)
        assert got == pytest.approx(hits / total)

    def test_bounded(self):
        model = build_model(_tiny(), "abs", seed=5)
        acc = teacher_forced_accuracy(model, _corpus(4), PAD)
        assert 0.0 <= acc <= 1.0

    def test_records_no_graph(self, monkeypatch):
        model = build_model(_tiny(), "abs", seed=5)
        outputs = []
        project = model.vocab_logits
        monkeypatch.setattr(
            model, "vocab_logits", lambda *a, **k: outputs.append(project(*a, **k)) or outputs[-1]
        )
        teacher_forced_accuracy(model, _corpus(4), PAD, batch_size=2)
        assert len(outputs) == 2 and not any(o.requires_grad for o in outputs)


class TestWriteTrace:
    def test_csv_format(self, tmp_path):
        rows = [TraceRow(1, 0.5, 1e-3, 0.01), TraceRow(2, 0.25, 2e-3, 0.02)]
        path = tmp_path / "trace.csv"
        write_trace(rows, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,loss,lr_encoder,lr_decoder"
        assert lines[1].startswith("1,0.50000000,")
        assert len(lines) == 3


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteLoss:
    """A NaN or infinity stops training before any optimizer step."""

    def _poisoned(self, model, name="encoder.layer0.ff.w1", value=np.nan):
        model.params[name].data[0, 0] = value
        return {k: v.data.copy() for k, v in model.params.items()}

    def _assert_unchanged(self, model, before):
        for k, v in model.params.items():
            assert np.array_equal(v.data, before[k], equal_nan=True), k

    def test_train_ext_stops_with_params_untouched(self, tmp_path):
        model = build_model(_tiny(), "ext", seed=3)
        before = self._poisoned(model)
        cfg = TrainConfig(max_steps=3, batch_size=4, seed=1, checkpoint_dir=tmp_path)
        with pytest.raises(NonFiniteLoss, match="step 1"):
            train_ext(_corpus(4), model, cfg, PAD)
        self._assert_unchanged(model, before)
        assert model.step == 0
        assert not (tmp_path / "ext_final.ckpt").exists()

    def test_train_abs_stops_with_params_untouched(self, tmp_path):
        model = build_model(_tiny(), "abs", seed=5)
        before = self._poisoned(model, "decoder.layer0.ff.w2", np.inf)
        cfg = TrainConfig(max_steps=3, batch_size=4, seed=2, checkpoint_dir=tmp_path)
        with pytest.raises(NonFiniteLoss):
            train_abs(_corpus(4), model, cfg, PAD)
        self._assert_unchanged(model, before)
        assert not (tmp_path / "abs_final.ckpt").exists()

    def test_prefit_stops_with_params_untouched(self, tmp_path):
        encoder = build_model(_tiny(), "encoder", seed=7)
        encoder.params["encoder.layer0.ff.w1"].data[0, 0] = np.nan
        before = {k: v.data.copy() for k, v in encoder.params.items()}
        with pytest.raises(NonFiniteLoss):
            prefit_encoder(
                _corpus(8, seed=11), encoder,
                TrainConfig(max_steps=2, batch_size=8, seed=7, checkpoint_dir=tmp_path),
                mask_id=4, pad_id=PAD, special_ids=SPECIAL_IDS,
            )
        for k, v in encoder.params.items():
            assert np.array_equal(v.data, before[k], equal_nan=True), k
        assert not (tmp_path / "encoder_final.ckpt").exists()

    def test_non_finite_gradient_with_finite_loss_stops(self, monkeypatch):
        import sumforge.train as train_mod

        model = build_model(_tiny(), "ext", seed=3)
        before = {k: v.data.copy() for k, v in model.params.items()}
        real_backward = train_mod.T.backward

        def backward_then_poison(loss):
            real_backward(loss)
            head_w = model.params["ext_head.w"]
            head_w.grad = np.full_like(head_w.data, np.inf)

        monkeypatch.setattr(train_mod.T, "backward", backward_then_poison)
        with pytest.raises(NonFiniteLoss, match="gradient norm"):
            train_ext(_corpus(4), model, TrainConfig(max_steps=2, batch_size=4, seed=1), PAD)
        self._assert_unchanged(model, before)


# --- the three loops as they were before `fit` ---
#
# Copied from the step bodies `fit` replaced, with only the container API
# renamed (`model.parameters()` -> `model.params`, encoder names carry their
# `encoder.` prefix, `eval_every` -> `checkpoint_every`). `fit` must match
# them bit for bit.

def _reference_pad_2d(rows, pad_value):
    width = max(len(r) for r in rows)
    out = np.full((len(rows), width), pad_value, dtype=np.int64)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out


def _reference_make_ext_batch(examples, pad_id):
    src = _reference_pad_2d([e.src_ids for e in examples], pad_id)
    segs = _reference_pad_2d([e.segment_ids for e in examples], 0)
    pad_mask = np.zeros(src.shape, dtype=bool)
    for i, e in enumerate(examples):
        pad_mask[i, len(e.src_ids):] = True
    clss = _reference_pad_2d([e.cls_positions for e in examples], 0)
    labels = np.zeros(clss.shape, dtype=np.float32)
    sent_mask = np.zeros(clss.shape, dtype=np.float32)
    for i, e in enumerate(examples):
        labels[i, : len(e.ext_labels)] = e.ext_labels
        sent_mask[i, : len(e.cls_positions)] = 1.0
    return ExtBatch(src, segs, pad_mask, clss, labels, sent_mask)


def _reference_make_abs_batch(examples, pad_id):
    src = _reference_pad_2d([e.src_ids for e in examples], pad_id)
    segs = _reference_pad_2d([e.segment_ids for e in examples], 0)
    pad_mask = np.zeros(src.shape, dtype=bool)
    for i, e in enumerate(examples):
        pad_mask[i, len(e.src_ids):] = True
    tgt = _reference_pad_2d([e.tgt_ids for e in examples], pad_id)
    tgt_pad_mask = np.zeros(tgt.shape, dtype=bool)
    for i, e in enumerate(examples):
        tgt_pad_mask[i, len(e.tgt_ids):] = True
    return AbsBatch(src, segs, pad_mask, tgt, tgt_pad_mask)


def _reference_abs_loss(states, tok_emb, tgt_ids, pad_mask, smoothing):
    """abs_loss before the fused vocabulary head: the projected logits go
    through narrow and cross_entropy."""
    weights = (~pad_mask[:, 1:]).astype(states.dtype)
    loss = composed_head_loss(states, transpose(tok_emb), None, tgt_ids[:, 1:], weights, smoothing)
    return loss / float(weights.sum())


def _reference_masked_token_loss(hidden, tok_emb, bias, targets, chosen):
    """masked_token_loss before the fused vocabulary head: matmul + bias,
    then cross_entropy."""
    rows = np.flatnonzero(chosen)
    b, length, d = hidden.shape
    picked = T.embedding_lookup(T.reshape(hidden, (b * length, d)), rows)
    targets = np.asarray(targets).reshape(-1)[rows]
    loss = composed_head_loss(picked, transpose(tok_emb), bias, targets, np.ones(rows.size), 0.0)
    return loss / float(rows.size)


def _reference_clipped_gradients(loss, params, max_norm, step):
    value = loss.item()
    if not math.isfinite(value):
        raise NonFiniteLoss(f"step {step}: loss is {value}")
    for p in params.values():
        p.grad = None
    T.backward(loss)
    grads = {
        name: (p.grad if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
    return clip_gradients(grads, max_norm)


def _reference_save(model, config, tag):
    if config.checkpoint_dir is None:
        return
    out = Path(config.checkpoint_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(model, out / f"{model.kind}_{tag}.ckpt")


def _reference_train_ext(examples, model, config, pad_id):
    if not examples:
        raise EmptyCorpus("no training examples")
    if model.kind != "ext":
        raise ConfigError(f"train_ext needs an extractive model, got {model.kind!r}")

    params = model.params
    state = AdamState(params)
    warmup, _ = config.resolved_warmups()
    rng = SplitRng(config.seed)
    order = batch_order(len(examples), config.batch_size, config.seed)
    trace: list[TraceRow] = []

    for step in range(1, config.max_steps + 1):
        batch = _reference_make_ext_batch([examples[i] for i in next(order)], pad_id)
        drop_rng = rng.child("dropout", step).generator()
        logits = model.forward_scores(
            batch.src, batch.segs, batch.pad_mask, batch.clss, train=True, rng=drop_rng
        )
        loss = ext_loss(logits, batch.labels, batch.sent_mask)
        grads = _reference_clipped_gradients(loss, params, config.grad_clip_norm, step)
        lr = lr_schedule(step, config.base_lr_encoder, warmup)
        adam_step(params, grads, state, lr)
        model.step = step
        trace.append(TraceRow(step, loss.item(), lr, lr))
        if config.checkpoint_every and step % config.checkpoint_every == 0:
            _reference_save(model, config, f"step{step:06d}")
    _reference_save(model, config, "final")
    return trace


def _reference_train_abs(examples, model, config, pad_id):
    if not examples:
        raise EmptyCorpus("no training examples")
    if model.kind != "abs":
        raise ConfigError(f"train_abs needs an abstractive model, got {model.kind!r}")

    params = model.params
    enc_params = {k: v for k, v in params.items() if k.startswith("encoder.")}
    dec_params = {k: v for k, v in params.items() if not k.startswith("encoder.")}
    # The two optimizers must cover every parameter exactly once.
    assert not (enc_params.keys() & dec_params.keys())
    assert enc_params.keys() | dec_params.keys() == params.keys()
    enc_state = AdamState(enc_params)
    dec_state = AdamState(dec_params)
    warmup_enc, warmup_dec = config.resolved_warmups()
    rng = SplitRng(config.seed)
    order = batch_order(len(examples), config.batch_size, config.seed)
    trace: list[TraceRow] = []

    for step in range(1, config.max_steps + 1):
        batch = _reference_make_abs_batch([examples[i] for i in next(order)], pad_id)
        drop_rng = rng.child("dropout", step).generator()
        hidden = model.encode(batch.src, batch.segs, batch.pad_mask, train=True, rng=drop_rng)
        states = model.decode_teacher_forced(hidden, batch.tgt, batch.pad_mask, train=True, rng=drop_rng)
        loss = _reference_abs_loss(
            states, params["encoder.tok_emb"], batch.tgt, batch.tgt_pad_mask, config.label_smoothing
        )
        grads = _reference_clipped_gradients(loss, params, config.grad_clip_norm, step)
        lr_enc = lr_schedule(step, config.base_lr_encoder, warmup_enc)
        lr_dec = lr_schedule(step, config.base_lr_decoder, warmup_dec)
        adam_step(enc_params, {k: grads[k] for k in enc_params}, enc_state, lr_enc)
        adam_step(dec_params, {k: grads[k] for k in dec_params}, dec_state, lr_dec)
        model.step = step
        trace.append(TraceRow(step, loss.item(), lr_enc, lr_dec))
        if config.checkpoint_every and step % config.checkpoint_every == 0:
            _reference_save(model, config, f"step{step:06d}")
    _reference_save(model, config, "final")
    return trace


def _reference_prefit_encoder(
    examples, encoder, config, mask_prob=0.15, *, mask_id, pad_id, special_ids
):
    if not examples:
        raise EmptyCorpus("no pre-fit examples")
    if mask_prob <= 0.0:
        raise NoMaskedPositions(f"mask_prob {mask_prob} would mask nothing")
    if mask_prob >= 1.0:
        raise ConfigError(f"mask_prob must be in (0, 1), got {mask_prob}")

    params = dict(encoder.params)
    recon_bias = Tensor(
        np.zeros(encoder.config.vocab_size, dtype=encoder.params["encoder.tok_emb"].dtype),
        requires_grad=True,
    )
    params["recon.b"] = recon_bias
    state = AdamState(params)
    warmup, _ = config.resolved_warmups()
    rng = SplitRng(config.seed)
    order = batch_order(len(examples), config.batch_size, config.seed)
    special = np.array(sorted(special_ids), dtype=np.int64)
    trace: list[TraceRow] = []

    for step in range(1, config.max_steps + 1):
        batch = _reference_make_ext_batch([examples[i] for i in next(order)], pad_id)
        gen = rng.child("mask", step).generator()
        eligible = ~batch.pad_mask & ~np.isin(batch.src, special)
        chosen = (gen.random(batch.src.shape) < mask_prob) & eligible
        if not chosen.any():
            if not eligible.any():
                raise NoMaskedPositions("batch contains no maskable tokens")
            first = np.argwhere(eligible)[0]
            chosen[first[0], first[1]] = True

        masked_src = np.where(chosen, mask_id, batch.src)
        drop_rng = rng.child("dropout", step).generator()
        hidden = encoder.encode(
            masked_src, batch.segs, batch.pad_mask, train=True, rng=drop_rng
        )
        loss = _reference_masked_token_loss(
            hidden, encoder.params["encoder.tok_emb"], recon_bias, batch.src, chosen
        )

        grads = _reference_clipped_gradients(loss, params, config.grad_clip_norm, step)
        lr = lr_schedule(step, config.base_lr_encoder, warmup)
        adam_step(params, grads, state, lr)
        encoder.step = step
        trace.append(TraceRow(step, loss.item(), lr, lr))
    _reference_save(encoder, config, "final")
    return trace


def _varied_corpus(n, seed):
    """Examples of different sentence counts, sentence and target lengths,
    so every batch pads."""
    rng = np.random.default_rng(seed)
    return [
        synthetic_example(
            rng,
            n_sentences=int(rng.integers(2, 5)),
            sent_len=int(rng.integers(4, 8)),
            tgt_len=int(rng.integers(3, 9)),
        )
        for _ in range(n)
    ]


def _dropout_config():
    return ModelConfig(
        vocab_size=40, d_model=16, n_heads=2, d_ff=32,
        n_enc_layers=2, n_dec_layers=2, max_positions=64, dropout=0.1,
    )


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


class TestFitMatchesReference:
    """Thirteen examples in batches of four, so the last batch of each epoch
    is short; dropout on; checkpoints every four steps."""

    def _config(self, out, steps=9):
        return TrainConfig(
            max_steps=steps, batch_size=4, seed=5, checkpoint_every=4, checkpoint_dir=out,
            warmup_encoder=3, warmup_decoder=2,
        )

    def _assert_same_params(self, a, b):
        assert list(a.params) == list(b.params)
        for name in a.params:
            assert a.params[name].data.tobytes() == b.params[name].data.tobytes(), name

    @pytest.mark.parametrize("task", ["ext", "abs"])
    def test_fine_tuning_matches_reference(self, tmp_path, task):
        examples = _varied_corpus(13, seed=1)
        new, ref = (build_model(_dropout_config(), task, seed=2) for _ in range(2))
        train, reference = {
            "ext": (train_ext, _reference_train_ext),
            "abs": (train_abs, _reference_train_abs),
        }[task]
        got = train(examples, new, self._config(tmp_path / "new"), PAD)
        want = reference(examples, ref, self._config(tmp_path / "ref"), PAD)
        assert got == want and len(got) == 9
        assert new.step == ref.step == 9
        self._assert_same_params(new, ref)
        files = _files(tmp_path / "new")
        assert sorted(files) == [
            f"{task}_final.ckpt", f"{task}_step000004.ckpt", f"{task}_step000008.ckpt"
        ]
        assert files == _files(tmp_path / "ref")

    def test_prefit_matches_reference(self, tmp_path):
        examples = _varied_corpus(13, seed=3)
        kw = dict(mask_id=4, pad_id=PAD, special_ids=SPECIAL_IDS)
        new, ref = (build_model(_dropout_config(), "encoder", seed=4) for _ in range(2))
        got = prefit_encoder(examples, new, replace(self._config(tmp_path / "new"), mask_prob=0.3), **kw)
        want = _reference_prefit_encoder(examples, ref, self._config(tmp_path / "ref"), mask_prob=0.3, **kw)
        assert got == want and len(got) == 9
        self._assert_same_params(new, ref)
        files = _files(tmp_path / "new")
        assert files["encoder_final.ckpt"] == _files(tmp_path / "ref")["encoder_final.ckpt"]
        # The reference loop saved no periodic checkpoints; a shorter run of
        # it ends where `fit`'s periodic ones were written.
        for step in (4, 8):
            short = build_model(_dropout_config(), "encoder", seed=4)
            out = tmp_path / f"ref{step}"
            _reference_prefit_encoder(examples, short, self._config(out, step), mask_prob=0.3, **kw)
            assert files[f"encoder_step{step:06d}.ckpt"] == (out / "encoder_final.ckpt").read_bytes()

    def test_batches_match_reference(self):
        examples = _varied_corpus(7, seed=6)
        for build, reference in (
            (make_ext_batch, _reference_make_ext_batch),
            (make_abs_batch, _reference_make_abs_batch),
        ):
            got, want = vars(build(examples, PAD)), vars(reference(examples, PAD))
            assert got.keys() == want.keys()
            for key in got:
                assert got[key].dtype == want[key].dtype, key
                assert np.array_equal(got[key], want[key]), key


class TestFusedHeadMatchesComposedChain:
    """One training step's loss and parameter gradients through the fused
    vocabulary head equal, bit for bit and in layout, those through the
    chain it replaced. On abs the token table gets three gradients (source
    and target embeddings and the tied projection), whose sum depends on the
    order they arrive in."""

    @pytest.mark.parametrize("task, head, reference", [
        ("abs", "abs_loss", _reference_abs_loss),
        ("prefit", "masked_token_loss", _reference_masked_token_loss),
    ])
    def test_one_step(self, task, head, reference, monkeypatch):
        examples = _varied_corpus(4, seed=1)
        steps = []
        monkeypatch.setattr(
            train_module, "fit",
            lambda model, params, examples, loss_fn, groups, config: steps.append((params, loss_fn)) or [],
        )
        if task == "abs":
            train_abs(examples, build_model(_dropout_config(), "abs", seed=2), TrainConfig(), PAD)
        else:
            prefit_encoder(examples, build_model(_dropout_config(), "encoder", seed=2), TrainConfig(mask_prob=0.3),
                           mask_id=4, pad_id=PAD, special_ids=SPECIAL_IDS)
        (params, loss_fn), = steps
        results = []
        for head_fn in (getattr(train_module, head), reference):
            monkeypatch.setattr(train_module, head, head_fn)
            for p in params.values():
                p.grad = None
            loss = loss_fn(examples, 1, SplitRng(5).child("dropout", 1).generator())
            T.backward(loss)
            results.append((loss.data, {name: p.grad for name, p in params.items()}))
        (loss, grads), (want_loss, want) = results
        assert loss.tobytes() == want_loss.tobytes()
        for name, g in want.items():
            assert grads[name].tobytes() == g.tobytes(), name
            assert grads[name].strides == g.strides, name


class TestFit:
    @pytest.mark.parametrize("groups", [
        [("encoder.", 1e-3, 2)],  # decoder parameters left out
        [("", 1e-3, 2), ("decoder.", 0.1, 2)],  # decoder parameters twice
        [("encoder.", 1e-3, 2), ("decoder.layer", 0.1, 2)],  # decoder.pos_emb left out
        [],
    ])
    def test_groups_must_cover_every_parameter_once(self, groups):
        model = build_model(_tiny(), "abs", seed=5)
        with pytest.raises(ConfigError, match="exactly once"):
            fit(model, model.params, _corpus(4), None, groups, TrainConfig(max_steps=2))

    @pytest.mark.parametrize("clip", [1e-3, 1e3], ids=["clipped", "unclipped"])
    def test_no_gradient_outlives_its_step(self, monkeypatch, clip):
        """When a step's loss closure runs, every gradient array of the
        steps before it, each `.grad` and each clipped copy, is freed."""
        model = build_model(_tiny(), "abs", seed=5)
        held = []  # weak references to each step's gradient arrays
        backward, clip_gradients = T.backward, train_module.clip_gradients

        def keeping_backward(loss):
            backward(loss)
            held.append([weakref.ref(p.grad) for p in model.params.values() if p.grad is not None])

        def keeping_clip(grads, max_norm):
            clipped = clip_gradients(grads, max_norm)
            held[-1] += [weakref.ref(g) for g in clipped.values()]
            return clipped

        def checking_fit(trained, params, examples, loss_fn, groups, config):
            def checked(batch, step, drop_rng):
                alive = sum(ref() is not None for refs in held for ref in refs)
                assert alive == 0, f"step {step}: {alive} gradient arrays of earlier steps alive"
                return loss_fn(batch, step, drop_rng)

            return fit(trained, params, examples, checked, groups, config)

        monkeypatch.setattr(T, "backward", keeping_backward)
        monkeypatch.setattr(train_module, "clip_gradients", keeping_clip)
        monkeypatch.setattr(train_module, "fit", checking_fit)
        train_abs(_corpus(8), model, TrainConfig(max_steps=3, batch_size=4, grad_clip_norm=clip), PAD)
        assert len(held) == 3 and all(len(refs) > len(model.params) for refs in held)
        assert all(p.grad is None for p in model.params.values())


class TestStepGraphHoldsNoScores:
    """The graph of one training step, as each trainer builds it, holds no
    array as large as one layer's attention scores: attention recomputes its
    probabilities in backward."""

    B, H, L = 2, 2, 64

    def _step_loss(self, task, monkeypatch):
        cfg = ModelConfig(vocab_size=40, d_model=8, n_heads=self.H, d_ff=16,
                          n_enc_layers=2, n_dec_layers=2, max_positions=self.L, dropout=0.1)
        rng = np.random.default_rng(3)
        examples = [synthetic_example(rng, n_sentences=8, sent_len=8) for _ in range(self.B)]
        assert {len(ex.src_ids) for ex in examples} == {self.L}
        losses = []

        def first_step(model, params, examples, loss_fn, groups, config):
            losses.append(loss_fn(examples, 1, np.random.default_rng(0)))
            return []

        monkeypatch.setattr(train_module, "fit", first_step)
        config = TrainConfig(max_steps=1, batch_size=self.B)
        if task == "prefit":
            prefit_encoder(examples, build_model(cfg, "encoder", seed=0), config,
                           mask_id=4, pad_id=PAD, special_ids=SPECIAL_IDS)
        else:
            trainer = train_ext if task == "ext" else train_abs
            trainer(examples, build_model(cfg, task, seed=0), config, PAD)
        return losses[0]

    @pytest.mark.parametrize("task", ["ext", "abs", "prefit"])
    def test_no_closure_holds_a_score_array(self, task, monkeypatch):
        loss = self._step_loss(task, monkeypatch)
        score_bytes = self.B * self.H * self.L * self.L * 4
        closures = [v._backward for v in graph_vertices(loss) if v._backward is not None]
        # The walk found the step's graph: every layer's sublayer ops and more.
        assert len(closures) > 12
        names = [fn.__qualname__.split(".")[0] for fn in closures]
        decoder = 2 if task == "abs" else 0  # layers, each with two attention sublayers
        assert names.count("attention_block") == 2 + 2 * decoder and names.count("ff_block") == 2 + decoder
        held = [x.nbytes for fn in closures for x in closure_arrays(fn)]
        assert held and max(held) < score_bytes
