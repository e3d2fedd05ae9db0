"""Optimizer math, schedules, batching, and the three training loops."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import synthetic_example
from sumforge.errors import (
    ConfigError,
    EmptyCorpus,
    NoMaskedPositions,
    NonFiniteLoss,
    ShapeMismatch,
)
from sumforge.model import (
    ModelConfig,
    build_abs_model,
    build_encoder,
    build_ext_model,
    load_checkpoint,
    load_encoder_into,
)
from sumforge.tensor import Tensor
from sumforge.train import (
    AdamState,
    TrainConfig,
    adam_step,
    batch_order,
    clip_gradients,
    lr_schedule,
    make_abs_batch,
    make_ext_batch,
    prefit_encoder,
    teacher_forced_accuracy,
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
        with pytest.raises(ValueError):
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
        with pytest.raises(ValueError):
            clip_gradients({"a": np.ones(1)}, 0.0)

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
        model = build_ext_model(_tiny(), seed=3)
        before = {k: v.data.copy() for k, v in model.parameters().items()}
        trace = train_ext(_corpus(4), model, TrainConfig(max_steps=0, checkpoint_dir=tmp_path), PAD)
        assert trace == []
        for k, v in model.parameters().items():
            assert np.array_equal(v.data, before[k])
        assert (tmp_path / "ext_final.ckpt").exists()

    def test_same_seed_bit_identical(self, tmp_path):
        runs = []
        for tag in ("a", "b"):
            model = build_ext_model(_tiny(), seed=3)
            cfg = TrainConfig(max_steps=12, batch_size=4, seed=9, checkpoint_dir=tmp_path / tag)
            runs.append((train_ext(_corpus(6), model, cfg, PAD), tag))
        (trace_a, _), (trace_b, _) = runs
        assert trace_a == trace_b
        assert (tmp_path / "a" / "ext_final.ckpt").read_bytes() == (
            tmp_path / "b" / "ext_final.ckpt"
        ).read_bytes()

    def test_loss_decreases_on_fixed_corpus(self):
        model = build_ext_model(_tiny(), seed=3)
        trace = train_ext(_corpus(8), model, TrainConfig(max_steps=150, batch_size=8, seed=1), PAD)
        assert trace[-1].loss < trace[0].loss
        assert all(math.isfinite(r.loss) for r in trace)

    def test_periodic_checkpoints(self, tmp_path):
        model = build_ext_model(_tiny(), seed=3)
        cfg = TrainConfig(max_steps=10, eval_every=4, checkpoint_dir=tmp_path, seed=1)
        train_ext(_corpus(4), model, cfg, PAD)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["ext_final.ckpt", "ext_step000004.ckpt", "ext_step000008.ckpt"]

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            train_ext([], build_ext_model(_tiny(), seed=1), TrainConfig(max_steps=1), PAD)

    def test_rejects_wrong_model_kind(self):
        with pytest.raises(ConfigError):
            train_ext(_corpus(2), build_abs_model(_tiny(), seed=1), TrainConfig(max_steps=1), PAD)

    def test_trace_uses_encoder_schedule(self):
        model = build_ext_model(_tiny(), seed=3)
        cfg = TrainConfig(max_steps=5, warmup_encoder=10, base_lr_encoder=1e-2, seed=1)
        trace = train_ext(_corpus(4), model, cfg, PAD)
        for row in trace:
            assert row.lr_encoder == pytest.approx(lr_schedule(row.step, 1e-2, 10))


class TestTrainAbs:
    def test_same_seed_identical_traces(self):
        traces = []
        for _ in range(2):
            model = build_abs_model(_tiny(), seed=5)
            traces.append(
                train_abs(_corpus(6), model, TrainConfig(max_steps=8, batch_size=4, seed=2), PAD)
            )
        assert traces[0] == traces[1]

    def test_dual_schedules_reported(self):
        model = build_abs_model(_tiny(), seed=5)
        cfg = TrainConfig(
            max_steps=6, warmup_encoder=20, warmup_decoder=4,
            base_lr_encoder=1e-3, base_lr_decoder=0.05, seed=2,
        )
        trace = train_abs(_corpus(4), model, cfg, PAD)
        for row in trace:
            assert row.lr_encoder == pytest.approx(lr_schedule(row.step, 1e-3, 20))
            assert row.lr_decoder == pytest.approx(lr_schedule(row.step, 0.05, 4))

    def test_losses_finite_on_random_data(self):
        model = build_abs_model(_tiny(), seed=5)
        trace = train_abs(_corpus(10, seed=4), model, TrainConfig(max_steps=40, seed=2), PAD)
        assert all(math.isfinite(r.loss) for r in trace)

    def test_loss_decreases(self):
        model = build_abs_model(_tiny(), seed=5)
        trace = train_abs(_corpus(4, seed=4), model, TrainConfig(max_steps=120, seed=2), PAD)
        assert trace[-1].loss < trace[0].loss

    def test_rejects_wrong_model_kind(self):
        with pytest.raises(ConfigError):
            train_abs(_corpus(2), build_ext_model(_tiny(), seed=1), TrainConfig(max_steps=1), PAD)

    def test_encoder_and_decoder_both_move(self):
        model = build_abs_model(_tiny(), seed=5)
        before_enc = model.encoder.params["tok_emb"].data.copy()
        before_dec = model.decoder["layer0.self_attn.wq"].data.copy()
        train_abs(_corpus(4), model, TrainConfig(max_steps=5, seed=2), PAD)
        assert not np.array_equal(model.encoder.params["tok_emb"].data, before_enc)
        assert not np.array_equal(model.decoder["layer0.self_attn.wq"].data, before_dec)


class TestPrefit:
    def _run(self, steps, tmp_path=None, seed=7, n_docs=30):
        encoder = build_encoder(_tiny(), seed=seed)
        cfg = TrainConfig(max_steps=steps, batch_size=8, seed=seed, checkpoint_dir=tmp_path)
        trace = prefit_encoder(
            _corpus(n_docs, seed=11), encoder, cfg,
            mask_prob=0.15, mask_id=4, pad_id=PAD, special_ids=SPECIAL_IDS,
        )
        return encoder, trace

    def test_zero_mask_prob_rejected(self):
        encoder = build_encoder(_tiny(), seed=1)
        with pytest.raises(NoMaskedPositions):
            prefit_encoder(
                _corpus(2), encoder, TrainConfig(max_steps=1),
                mask_prob=0.0, mask_id=4, pad_id=PAD, special_ids=SPECIAL_IDS,
            )

    def test_mask_prob_one_rejected(self):
        encoder = build_encoder(_tiny(), seed=1)
        with pytest.raises(ConfigError):
            prefit_encoder(
                _corpus(2), encoder, TrainConfig(max_steps=1),
                mask_prob=1.0, mask_id=4, pad_id=PAD, special_ids=SPECIAL_IDS,
            )

    def test_empty_corpus(self):
        encoder = build_encoder(_tiny(), seed=1)
        with pytest.raises(EmptyCorpus):
            prefit_encoder(
                [], encoder, TrainConfig(max_steps=1),
                mask_prob=0.15, mask_id=4, pad_id=PAD, special_ids=SPECIAL_IDS,
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
        model = build_abs_model(_tiny(), seed=99)
        load_encoder_into(model, tmp_path / "encoder_final.ckpt")
        for name in encoder.params:
            assert np.array_equal(model.encoder.params[name].data, encoder.params[name].data)

    def test_same_seed_identical(self, tmp_path):
        self._run(steps=6, tmp_path=tmp_path / "a")
        self._run(steps=6, tmp_path=tmp_path / "b")
        assert (tmp_path / "a" / "encoder_final.ckpt").read_bytes() == (
            tmp_path / "b" / "encoder_final.ckpt"
        ).read_bytes()


class TestTeacherForcedAccuracy:
    def test_matches_manual_computation(self):
        model = build_abs_model(_tiny(), seed=5)
        examples = _corpus(3, seed=6, tgt_len=5) + _corpus(2, seed=7, tgt_len=7)
        got = teacher_forced_accuracy(model, examples, PAD, batch_size=2)
        hits = total = 0
        for ex in examples:
            batch = make_abs_batch([ex], PAD)
            logits = model.forward_logits(
                batch.src, batch.segs, batch.pad_mask, batch.tgt
            ).data
            pred = logits[0, :-1].argmax(axis=-1)
            gold = np.asarray(ex.tgt_ids[1:])
            hits += int((pred[: len(gold)] == gold).sum())
            total += len(gold)
        assert got == pytest.approx(hits / total)

    def test_bounded(self):
        model = build_abs_model(_tiny(), seed=5)
        acc = teacher_forced_accuracy(model, _corpus(4), PAD)
        assert 0.0 <= acc <= 1.0

    def test_records_no_graph(self, monkeypatch):
        model = build_abs_model(_tiny(), seed=5)
        outputs = []
        forward = model.forward_logits
        monkeypatch.setattr(
            model, "forward_logits", lambda *a, **k: outputs.append(forward(*a, **k)) or outputs[-1]
        )
        teacher_forced_accuracy(model, _corpus(4), PAD, batch_size=2)
        assert len(outputs) == 2 and not any(o.requires_grad for o in outputs)


class TestWriteTrace:
    def test_csv_format(self, tmp_path):
        from sumforge.train import TraceRow

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
        model.parameters()[name].data[0, 0] = value
        return {k: v.data.copy() for k, v in model.parameters().items()}

    def _assert_unchanged(self, model, before):
        for k, v in model.parameters().items():
            assert np.array_equal(v.data, before[k], equal_nan=True), k

    def test_train_ext_stops_with_params_untouched(self, tmp_path):
        model = build_ext_model(_tiny(), seed=3)
        before = self._poisoned(model)
        cfg = TrainConfig(max_steps=3, batch_size=4, seed=1, checkpoint_dir=tmp_path)
        with pytest.raises(NonFiniteLoss, match="step 1"):
            train_ext(_corpus(4), model, cfg, PAD)
        self._assert_unchanged(model, before)
        assert model.step == 0
        assert not (tmp_path / "ext_final.ckpt").exists()

    def test_train_abs_stops_with_params_untouched(self, tmp_path):
        model = build_abs_model(_tiny(), seed=5)
        before = self._poisoned(model, "decoder.layer0.ff.w2", np.inf)
        cfg = TrainConfig(max_steps=3, batch_size=4, seed=2, checkpoint_dir=tmp_path)
        with pytest.raises(NonFiniteLoss):
            train_abs(_corpus(4), model, cfg, PAD)
        self._assert_unchanged(model, before)
        assert not (tmp_path / "abs_final.ckpt").exists()

    def test_prefit_stops_with_params_untouched(self, tmp_path):
        encoder = build_encoder(_tiny(), seed=7)
        encoder.params["layer0.ff.w1"].data[0, 0] = np.nan
        before = {k: v.data.copy() for k, v in encoder.params.items()}
        with pytest.raises(NonFiniteLoss):
            prefit_encoder(
                _corpus(8, seed=11), encoder,
                TrainConfig(max_steps=2, batch_size=8, seed=7, checkpoint_dir=tmp_path),
                mask_prob=0.15, mask_id=4, pad_id=PAD, special_ids=SPECIAL_IDS,
            )
        for k, v in encoder.params.items():
            assert np.array_equal(v.data, before[k], equal_nan=True), k
        assert not (tmp_path / "encoder_final.ckpt").exists()

    def test_non_finite_gradient_with_finite_loss_stops(self, monkeypatch):
        import sumforge.train as train_mod

        model = build_ext_model(_tiny(), seed=3)
        before = {k: v.data.copy() for k, v in model.parameters().items()}
        real_backward = train_mod.T.backward

        def backward_then_poison(loss):
            real_backward(loss)
            model.head["w"].grad = np.full_like(model.head["w"].data, np.inf)

        monkeypatch.setattr(train_mod.T, "backward", backward_then_poison)
        with pytest.raises(NonFiniteLoss, match="gradient norm"):
            train_ext(_corpus(4), model, TrainConfig(max_steps=2, batch_size=4, seed=1), PAD)
        self._assert_unchanged(model, before)
