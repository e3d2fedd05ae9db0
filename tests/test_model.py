"""Architectures, losses, and checkpoint serialization."""

from __future__ import annotations

import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from conftest import finite_diff_check, forward_logits, synthetic_example, tensor_sum, tiny_config as _tiny_config_fixture  # noqa: F401 (fixture reexport)
from sumforge import model as M
from sumforge import tensor as T
from sumforge.errors import (
    AllMasked,
    ConfigError,
    FormatVersionMismatch,
    IdOutOfRange,
    IndexOutOfRange,
    ModelKindMismatch,
    PositionOverflow,
    ShapeMismatch,
    SumforgeError,
)
from sumforge.model import (
    ModelConfig,
    abs_loss,
    build_model,
    ext_loss,
    load_checkpoint,
    load_encoder_into,
    save_checkpoint,
)
from sumforge.tensor import Tensor
from sumforge.train import make_ext_batch


def _inputs(cfg, batch=2, length=6, seed=0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, cfg.vocab_size, (batch, length))
    segs = rng.integers(0, 2, (batch, length))
    pad = np.zeros((batch, length), dtype=bool)
    return src, segs, pad


class TestModelConfig:
    def test_valid(self, tiny_config):
        assert tiny_config.d_model == 8

    def test_indivisible_heads(self):
        with pytest.raises(ConfigError):
            ModelConfig(50, 7, 2, 16, 1, 1)

    def test_zero_dim(self):
        with pytest.raises(ConfigError):
            ModelConfig(50, 8, 2, 0, 1, 1)

    def test_dropout_one_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(50, 8, 2, 16, 1, 1, dropout=1.0)

    def test_negative_dropout_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(50, 8, 2, 16, 1, 1, dropout=-0.1)


class TestBuildEncoder:
    def test_embedding_shapes(self, tiny_config):
        enc = build_model(tiny_config, "encoder", seed=1)
        assert enc.params["encoder.tok_emb"].shape == (50, 8)
        assert enc.params["encoder.seg_emb"].shape == (2, 8)
        assert enc.params["encoder.pos_emb"].shape == (32, 8)

    def test_same_seed_identical_bytes(self, tiny_config):
        a = build_model(tiny_config, "encoder", seed=7)
        b = build_model(tiny_config, "encoder", seed=7)
        for name in a.params:
            assert a.params[name].data.tobytes() == b.params[name].data.tobytes()

    def test_different_seed_differs(self, tiny_config):
        a = build_model(tiny_config, "encoder", seed=7)
        b = build_model(tiny_config, "encoder", seed=8)
        tok_emb = "encoder.tok_emb"
        assert a.params[tok_emb].data.tobytes() != b.params[tok_emb].data.tobytes()

    def test_biases_zero_gains_one(self, tiny_config):
        enc = build_model(tiny_config, "encoder", seed=3)
        assert np.all(enc.params["encoder.layer0.attn.bq"].data == 0.0)
        assert np.all(enc.params["encoder.layer0.ff.b1"].data == 0.0)
        assert np.all(enc.params["encoder.final_ln.gamma"].data == 1.0)
        assert np.all(enc.params["encoder.final_ln.beta"].data == 0.0)

    def test_truncated_normal_bounded(self, tiny_config):
        enc = build_model(tiny_config, "encoder", seed=3)
        w = enc.params["encoder.layer0.attn.wq"].data
        assert np.all(np.abs(w) <= 2.0 * 0.02 + 1e-8)
        assert w.std() > 0.005  # not collapsed to zero

    @pytest.mark.parametrize("chunk", [5, 64, None], ids=["chunk5", "chunk64", "default"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunked_draws_equal_one_whole_draw(self, monkeypatch, chunk, dtype):
        """Drawn in parts, the values, their dtype and the generator's next
        state are those of one float64 draw and its masked redraws, across
        part boundaries and over three or more redraw rounds."""
        if chunk is not None:
            monkeypatch.setattr(M, "INIT_CHUNK", chunk)
        shape = (70_001,) if chunk is None else (300, 7)
        got_gen, want_gen = (np.random.Generator(np.random.Philox(key=11)) for _ in range(2))
        got = M._trunc_normal(shape, got_gen, 0.02, dtype)
        want = want_gen.normal(0.0, 0.02, size=shape)
        rounds = 1
        while (bad := np.abs(want) > 0.04).any():
            want[bad] = want_gen.normal(0.0, 0.02, size=int(bad.sum()))
            rounds += 1
        assert rounds >= 3
        assert got.dtype == dtype and got.shape == shape and got.flags.owndata
        assert got.tobytes() == want.astype(dtype).tobytes()
        assert got_gen.random() == want_gen.random()


class TestEncode:
    def test_output_shape(self, tiny_config):
        enc = build_model(tiny_config, "encoder", seed=1)
        src, segs, pad = _inputs(tiny_config)
        assert enc.encode(src, segs, pad).shape == (2, 6, 8)

    def test_position_overflow(self, tiny_config):
        enc = build_model(tiny_config, "encoder", seed=1)
        n = tiny_config.max_positions + 1
        src = np.zeros((1, n), dtype=int)
        with pytest.raises(PositionOverflow):
            enc.encode(src, np.zeros_like(src), np.zeros_like(src, dtype=bool))

    def test_id_out_of_range(self, tiny_config):
        enc = build_model(tiny_config, "encoder", seed=1)
        src = np.full((1, 4), tiny_config.vocab_size)
        with pytest.raises(IdOutOfRange):
            enc.encode(src, np.zeros_like(src), np.zeros_like(src, dtype=bool))

    def test_pad_invariance(self, tiny_config):
        enc = build_model(tiny_config, "encoder", seed=5, dtype=np.float64)
        src, segs, pad = _inputs(tiny_config, batch=1, length=8)
        pad[0, 5:] = True
        base = enc.encode(src, segs, pad).data.copy()
        src2 = src.copy()
        src2[0, 6] = (src2[0, 6] + 17) % tiny_config.vocab_size
        perturbed = enc.encode(src2, segs, pad).data
        assert np.max(np.abs(perturbed[0, :5] - base[0, :5])) < 1e-6

    def test_deterministic_forward(self, tiny_config):
        enc = build_model(tiny_config, "encoder", seed=5)
        src, segs, pad = _inputs(tiny_config)
        a = enc.encode(src, segs, pad).data
        b = enc.encode(src, segs, pad).data
        assert np.array_equal(a, b)

    def test_segment_embedding_matters(self, tiny_config):
        enc = build_model(tiny_config, "encoder", seed=5, dtype=np.float64)
        src, segs, pad = _inputs(tiny_config)
        a = enc.encode(src, segs, pad).data
        b = enc.encode(src, 1 - segs, pad).data
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("layers", [1, 2])
    def test_rows_restrict_the_last_layer(self, tiny_config, layers):
        enc = build_model(replace(tiny_config, n_enc_layers=layers), "encoder", seed=5, dtype=np.float64)
        src, segs, pad = _inputs(tiny_config, batch=2, length=8)
        pad[1, 5:] = True
        rows = np.array([[0, 3, 7], [0, 4, 0]])
        full = enc.encode(src, segs, pad).data
        with T.no_grad():
            picked = enc.encode(src, segs, pad, rows=rows).data
        assert picked.shape == (2, 3, 8)
        assert np.allclose(picked, full[np.arange(2)[:, None], rows], rtol=1e-12, atol=1e-12)


class TestExtScores:
    def test_score_count_matches_positions(self, tiny_config):
        model = build_model(tiny_config, "ext", seed=2)
        src, segs, pad = _inputs(tiny_config)
        clss = np.array([[0, 2, 4], [1, 3, 5]])
        scores = model.forward_scores(src, segs, pad, clss)
        assert scores.shape == (2, 3)

    def test_zero_head_gives_half(self, tiny_config):
        model = build_model(tiny_config, "ext", seed=2)
        model.params["ext_head.w"].data[:] = 0.0
        model.params["ext_head.b"].data[:] = 0.0
        src, segs, pad = _inputs(tiny_config)
        scores = model.forward_scores(src, segs, pad, np.array([[0, 3]] * 2))
        assert np.array_equal(scores.data, np.zeros((2, 2)))  # logit 0: probability 1/2

    def test_position_out_of_range(self, tiny_config, monkeypatch):
        model = build_model(tiny_config, "ext", seed=2)
        src, segs, pad = _inputs(tiny_config)

        def unreachable(*args, **kwargs):
            raise AssertionError("encoded or gathered before the range check")

        monkeypatch.setattr(model, "encode", unreachable)
        monkeypatch.setattr(M, "gather_rows", unreachable)
        for bad in (6, -1):
            for train in (False, True):
                with pytest.raises(IndexOutOfRange):
                    model.forward_scores(src, segs, pad, np.array([[0, bad]] * 2), train=train,
                                         rng=np.random.default_rng(0))

    @staticmethod
    def _full_row_logits(model, src, segs, pad, clss):
        """Every row through the whole encoder, then the head at the [CLS] rows."""
        hidden = model.encode(src, segs, pad).data
        picked = hidden[np.arange(len(src))[:, None], clss]
        return (picked @ model.params["ext_head.w"].data + model.params["ext_head.b"].data)[..., 0]

    @pytest.mark.parametrize("layers", [1, 2, 3])
    def test_cls_rows_match_full_rows(self, tiny_config, layers):
        # Padded batches of documents of different sizes: shorter documents
        # repeat [CLS] position 0 in their empty sentence slots.
        cfg = replace(tiny_config, n_enc_layers=layers, dropout=0.1)
        model = build_model(cfg, "ext", seed=layers, dtype=np.float64)
        rng = np.random.default_rng(layers)
        for _ in range(10):
            examples = [
                synthetic_example(rng, cfg.vocab_size, int(rng.integers(1, 5)), int(rng.integers(3, 7)))
                for _ in range(int(rng.integers(2, 5)))
            ]
            batch = make_ext_batch(examples, pad_id=0)
            assert (batch.clss[batch.sent_mask == 0] == 0).all()
            with T.no_grad():
                got = model.forward_scores(batch.src, batch.segs, batch.pad_mask, batch.clss)
            want = self._full_row_logits(model, batch.src, batch.segs, batch.pad_mask, batch.clss)
            assert got.shape == batch.clss.shape
            assert np.allclose(got.data, want, rtol=1e-12, atol=1e-12)

    def test_training_encodes_every_row(self, tiny_config, monkeypatch):
        model = build_model(tiny_config, "ext", seed=2, dtype=np.float64)
        src, segs, pad = _inputs(tiny_config)
        clss = np.array([[0, 3], [1, 0]])
        calls = []
        encode = model.encode

        def recording(*args, **kwargs):
            calls.append(kwargs.get("rows"))
            return encode(*args, **kwargs)

        monkeypatch.setattr(model, "encode", recording)
        trained = model.forward_scores(src, segs, pad, clss, train=True, rng=np.random.default_rng(0))
        recorded = model.forward_scores(src, segs, pad, clss)  # differentiable: every row
        with T.no_grad():
            inferred = model.forward_scores(src, segs, pad, clss)
        assert calls[0] is None and calls[1] is None and calls[2] is clss
        assert recorded.requires_grad and not inferred.requires_grad
        # dropout 0: the training path's logits are the full-row reference's bits.
        assert np.array_equal(trained.data, self._full_row_logits(model, src, segs, pad, clss))
        assert np.allclose(inferred.data, trained.data, rtol=1e-12, atol=1e-12)

    def test_scores_are_the_head_logits(self, tiny_config):
        rng = np.random.default_rng(9)
        model = build_model(tiny_config, "ext", seed=2, dtype=np.float64)
        for _ in range(25):
            length = int(rng.integers(2, 12))
            src = rng.integers(0, tiny_config.vocab_size, (1, length))
            segs = rng.integers(0, 2, (1, length))
            pad = np.zeros((1, length), dtype=bool)
            clss = rng.integers(0, length, (1, 3))
            s = model.forward_scores(src, segs, pad, clss).data
            hidden = model.encode(src, segs, pad).data
            head_w, head_b = model.params["ext_head.w"].data, model.params["ext_head.b"].data
            expected = hidden[0, clss[0]] @ head_w + head_b
            assert s.shape == (1, 3)
            assert np.allclose(s[0], expected.reshape(-1), rtol=1e-12, atol=1e-12)


class TestDecodeTeacherForced:
    def test_logits_shape(self, tiny_config):
        model = build_model(tiny_config, "abs", seed=3)
        src, segs, pad = _inputs(tiny_config)
        tgt = np.array([[5, 7, 9, 6], [5, 8, 10, 6]])
        logits = forward_logits(model, src, segs, pad, tgt)
        assert logits.shape == (2, 4, 50)

    def test_causal_mask(self, tiny_config):
        model = build_model(tiny_config, "abs", seed=3, dtype=np.float64)
        src, segs, pad = _inputs(tiny_config, batch=1)
        tgt = np.array([[5, 7, 9, 11, 6]])
        base = forward_logits(model, src, segs, pad, tgt).data.copy()
        tgt2 = tgt.copy()
        tgt2[0, 3] = 20  # perturb position 3; logits at 0..2 must not move
        perturbed = forward_logits(model, src, segs, pad, tgt2).data
        assert np.max(np.abs(perturbed[0, :3] - base[0, :3])) < 1e-6
        assert not np.allclose(perturbed[0, 3], base[0, 3])

    def test_target_position_overflow(self, tiny_config):
        model = build_model(tiny_config, "abs", seed=3)
        src, segs, pad = _inputs(tiny_config)
        tgt = np.zeros((2, tiny_config.max_positions + 1), dtype=int)
        with pytest.raises(PositionOverflow):
            forward_logits(model, src, segs, pad, tgt)

    def test_output_projection_tied_to_embeddings(self, tiny_config):
        model = build_model(tiny_config, "abs", seed=3, dtype=np.float64)
        assert not any("proj" in k or "output" in k for k in model.params)
        src, segs, pad = _inputs(tiny_config, batch=1)
        tgt = np.array([[5, 7, 6]])
        base = forward_logits(model, src, segs, pad, tgt).data.copy()
        # A whole-row constant shift would be annihilated by the zero-mean
        # layer-norm output, so poke a single embedding component.
        model.params["encoder.tok_emb"].data[30, 2] += 0.5
        moved = forward_logits(model, src, segs, pad, tgt).data
        # Token 30 never appears in the inputs, so only the tied projection
        # column can carry the perturbation into the logits.
        assert not np.allclose(moved[..., 30], base[..., 30])

    def test_encoder_pad_ignored_by_cross_attention(self, tiny_config):
        model = build_model(tiny_config, "abs", seed=3, dtype=np.float64)
        src, segs, pad = _inputs(tiny_config, batch=1, length=8)
        pad[0, 6:] = True
        tgt = np.array([[5, 7, 9, 6]])
        base = forward_logits(model, src, segs, pad, tgt).data.copy()
        src2 = src.copy()
        src2[0, 7] = (src2[0, 7] + 3) % tiny_config.vocab_size
        moved = forward_logits(model, src2, segs, pad, tgt).data
        assert np.max(np.abs(moved - base)) < 1e-6


class TestDecodeStep:
    """The incremental decoder against a full teacher-forced recompute."""

    def _config(self, n_dec_layers=2, max_positions=32):
        return ModelConfig(
            vocab_size=50, d_model=8, n_heads=2, d_ff=16, n_enc_layers=1,
            n_dec_layers=n_dec_layers, max_positions=max_positions, dropout=0.1,
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_step_logits_match_last_teacher_forced_position(self, seed):
        rng = np.random.default_rng(seed)
        cfg = self._config(n_dec_layers=1 + seed % 2)
        model = build_model(cfg, "abs", seed=seed)
        src, segs, pad = _inputs(cfg, batch=1, length=9, seed=seed)
        pad[0, 5 + seed % 3 :] = True
        with T.no_grad():
            enc = model.encode(src, segs, pad)
            cache = model.start_decoding(enc, pad)
            prefixes, parents = [[5]], [0]
            for _ in range(10):
                got = model.decode_step(cache, parents, [p[-1] for p in prefixes]).data
                n = len(prefixes)
                want = model.vocab_logits(model.decode_teacher_forced(
                    Tensor(np.repeat(enc.data, n, axis=0)),
                    np.array(prefixes),
                    np.repeat(pad, n, axis=0),
                )).data[:, -1]
                assert got.shape == (n, cfg.vocab_size)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)
                # Permute, drop and duplicate hypotheses, as beam search does.
                parents = np.resize(rng.permutation(n), int(rng.integers(1, 6))).tolist()
                prefixes = [prefixes[i] + [int(rng.integers(7, 50))] for i in parents]

    def test_position_overflow_and_bad_inputs(self):
        cfg = self._config(max_positions=3)
        model = build_model(cfg, "abs", seed=1)
        src, segs, pad = _inputs(cfg, batch=1, length=3)
        cache = model.start_decoding(model.encode(src, segs, pad), pad)
        with pytest.raises(ShapeMismatch):
            model.decode_step(cache, [0, 0], [5])
        with pytest.raises(IdOutOfRange):
            model.decode_step(cache, [0], [cfg.vocab_size])
        for _ in range(3):
            model.decode_step(cache, [0], [5])
        with pytest.raises(PositionOverflow):
            model.decode_step(cache, [0], [5])
        src2, segs2, pad2 = _inputs(cfg, batch=2, length=3)
        with pytest.raises(ShapeMismatch):
            model.start_decoding(model.encode(src2, segs2, pad2), pad2)


class TestExtLoss:
    def test_perfect_prediction_near_zero(self):
        scores = Tensor(np.array([[20.0, -20.0]]), requires_grad=True, dtype=np.float64)
        labels = np.array([[1.0, 0.0]])
        mask = np.ones((1, 2))
        assert ext_loss(scores, labels, mask).item() < 1e-5

    def test_uninformative_scores_ln2(self):
        scores = Tensor(np.zeros((2, 3)), requires_grad=True, dtype=np.float64)
        labels = np.array([[1, 0, 1], [0, 1, 0]], dtype=float)
        loss = ext_loss(scores, labels, np.ones((2, 3)))
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-9)

    def test_all_masked(self):
        scores = Tensor(np.full((1, 2), 0.5), requires_grad=True)
        with pytest.raises(AllMasked):
            ext_loss(scores, np.ones((1, 2)), np.zeros((1, 2)))

    def test_shape_mismatch(self):
        scores = Tensor(np.full((1, 3), 0.5), requires_grad=True)
        with pytest.raises(ShapeMismatch):
            ext_loss(scores, np.ones((1, 2)), np.ones((1, 3)))

    def test_masked_slots_do_not_contribute(self):
        rng = np.random.default_rng(4)
        vals = rng.uniform(0.1, 0.9, (1, 4))
        labels = np.array([[1.0, 0.0, 1.0, 0.0]])
        full = ext_loss(
            Tensor(vals[:, :3], requires_grad=True, dtype=np.float64),
            labels[:, :3],
            np.ones((1, 3)),
        ).item()
        padded_vals = vals.copy()
        padded_vals[0, 3] = 0.123  # junk in the masked slot
        masked = ext_loss(
            Tensor(padded_vals, requires_grad=True, dtype=np.float64),
            labels,
            np.array([[1.0, 1.0, 1.0, 0.0]]),
        ).item()
        assert masked == pytest.approx(full, abs=1e-12)

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(8)
        scores = Tensor(rng.uniform(0.01, 0.99, (3, 5)), requires_grad=True, dtype=np.float64)
        labels = rng.integers(0, 2, (3, 5)).astype(float)
        assert ext_loss(scores, labels, np.ones((3, 5))).item() >= 0.0


def _clipped_sigmoid_bce(z: np.ndarray, y: np.ndarray, mask: np.ndarray) -> float:
    """The loss before it read logits: BCE of sigmoid probabilities clamped
    to [1e-7, 1 - 1e-7], which stops the gradient where the clamp acts."""
    s = np.clip(1.0 / (1.0 + np.exp(-z)), 1e-7, 1.0 - 1e-7)
    bce = -(y * np.log(s) + (1.0 - y) * np.log(1.0 - s))
    return float((bce * mask).sum() / mask.sum())


def _elementwise_bce(z: Tensor, labels: np.ndarray) -> Tensor:
    """bce_with_logits before it took the weights: one loss per logit."""
    x = z.data
    y = np.asarray(labels, dtype=x.dtype)
    e = np.exp(-np.abs(x))
    data = np.maximum(x, 0) - x * y + np.log1p(e)

    def backward(g):
        s = np.where(x >= 0, 1.0, e) / (1.0 + e)
        return (g * (s - y),)

    return T._make(data, (z,), backward)


def _composed_ext_loss(logits: Tensor, labels: np.ndarray, sentence_mask: np.ndarray) -> Tensor:
    """ext_loss as it was composed before bce_with_logits took the mask."""
    mask = np.asarray(sentence_mask, dtype=logits.dtype)
    return tensor_sum(T.mul(_elementwise_bce(logits, labels), mask)) / float(mask.sum())


class TestExtLossFromLogits:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bits_equal_the_composed_chain(self, dtype):
        rng = np.random.default_rng(23)
        z = (rng.standard_normal((4, 7)) * 6).astype(dtype)
        labels = (rng.random((4, 7)) < 0.4).astype(float)
        mask = (rng.random((4, 7)) < 0.7).astype(float)
        # Saturated logits, wrong then right, in live slots; junk logits
        # and labels in masked ones.
        z[0, :4], labels[0, :4], mask[0, :4] = [1e4, -1e4, 1e4, -1e4], [0, 1, 1, 0], 1.0
        z[3, 5:], labels[3, 5:], mask[3, 5:] = [1e4, -3.0], [0.0, 1.0], 0.0
        results = []
        for loss_fn in (_composed_ext_loss, ext_loss):
            logits = Tensor(z.copy(), requires_grad=True)
            loss = loss_fn(logits, labels, mask)
            T.backward(loss)
            results.append((loss.data, logits.grad))
        (ref_loss, ref_grad), (loss, grad) = results
        for name, a, b in (("loss", loss, ref_loss), ("grad", grad, ref_grad)):
            assert a.dtype == b.dtype == dtype and a.shape == b.shape, name
            unsigned = f"u{a.dtype.itemsize}"
            assert np.array_equal(a.view(unsigned), b.view(unsigned)), name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("z, y", [(-30.0, 1.0), (30.0, 0.0), (-1e4, 1.0), (1e4, 0.0)])
    def test_saturated_wrong_logit_gets_gradient(self, dtype, z, y):
        logits = Tensor(np.array([[z, 0.5]], dtype=dtype), requires_grad=True)
        loss = ext_loss(logits, np.array([[y, 1.0]]), np.ones((1, 2)))
        T.backward(loss)
        g = logits.grad[0, 0]
        assert np.isfinite(loss.item()) and np.isfinite(g)
        # d/dz of the mean over two slots is (sigmoid(z) - y) / 2, i.e. -1/2 or 1/2.
        assert g == pytest.approx(0.5 if y == 0.0 else -0.5, rel=1e-6)
        assert loss.item() == pytest.approx((abs(z) + math.log1p(math.exp(-0.5))) / 2, rel=1e-6)

    def test_finite_differences_float64(self):
        rng = np.random.default_rng(21)
        z = Tensor(rng.standard_normal((3, 5)) * 4.0, requires_grad=True)
        labels = (rng.random((3, 5)) < 0.4).astype(float)
        mask = np.ones((3, 5))
        mask[2, 3:] = 0.0
        err = finite_diff_check(lambda p: ext_loss(p[0], labels, mask), [z])
        assert err < 1e-6

    def test_matches_clipped_sigmoid_bce_away_from_saturation(self):
        rng = np.random.default_rng(22)
        for dtype, rtol in ((np.float64, 1e-12), (np.float32, 1e-5)):
            z = rng.uniform(-8.0, 8.0, (4, 6))
            labels = (rng.random((4, 6)) < 0.5).astype(float)
            mask = (rng.random((4, 6)) < 0.8).astype(float)
            mask[0, 0] = 1.0
            got = ext_loss(Tensor(z.astype(dtype), requires_grad=True), labels, mask).item()
            ref = _clipped_sigmoid_bce(z.astype(dtype).astype(np.float64), labels, mask)
            assert got == pytest.approx(ref, rel=rtol)


def _logits_loss(logits, tgt_ids, pad_mask, smoothing=0.1):
    """abs_loss of given logits: the states are the logits themselves and
    the token table the identity, whose projection leaves them as they are."""
    table = Tensor(np.eye(logits.shape[-1], dtype=logits.dtype))
    return abs_loss(logits, table, tgt_ids, pad_mask, smoothing)


class TestAbsLoss:
    def test_uniform_logits_log_vocab(self):
        vocab = 50
        logits = Tensor(np.zeros((1, 4, vocab)), requires_grad=True, dtype=np.float64)
        tgt = np.array([[5, 9, 11, 6]])
        pad = np.zeros((1, 4), dtype=bool)
        loss = _logits_loss(logits, tgt, pad, smoothing=0.0)
        assert loss.item() == pytest.approx(math.log(vocab), abs=1e-12)

    def test_confident_correct_logits_near_zero(self):
        vocab = 20
        tgt = np.array([[3, 7, 11, 2]])
        logits = np.zeros((1, 4, vocab))
        for t in range(3):
            logits[0, t, tgt[0, t + 1]] = 50.0
        loss = _logits_loss(
            Tensor(logits, requires_grad=True, dtype=np.float64),
            tgt,
            np.zeros((1, 4), dtype=bool),
            smoothing=0.0,
        )
        assert loss.item() < 1e-6

    def test_smoothing_one_rejected(self):
        logits = Tensor(np.zeros((1, 3, 10)), requires_grad=True)
        with pytest.raises(ConfigError):
            _logits_loss(logits, np.zeros((1, 3), dtype=int), np.zeros((1, 3), dtype=bool), smoothing=1.0)

    def test_padded_positions_excluded(self):
        vocab = 12
        rng = np.random.default_rng(2)
        logits = rng.standard_normal((1, 5, vocab))
        tgt = np.array([[3, 7, 9, 0, 0]])
        pad = np.array([[False, False, False, True, True]])
        a = _logits_loss(Tensor(logits, requires_grad=True, dtype=np.float64), tgt, pad).item()
        tgt2 = tgt.copy()
        tgt2[0, 4] = 11  # padded slot; must not matter
        b = _logits_loss(Tensor(logits, requires_grad=True, dtype=np.float64), tgt2, pad).item()
        assert a == pytest.approx(b, abs=1e-12)

    def test_too_short_target(self):
        logits = Tensor(np.zeros((1, 1, 10)), requires_grad=True)
        with pytest.raises(ShapeMismatch):
            _logits_loss(logits, np.zeros((1, 1), dtype=int), np.zeros((1, 1), dtype=bool))

    def test_shape_mismatch(self):
        logits = Tensor(np.zeros((1, 4, 10)), requires_grad=True)
        with pytest.raises(ShapeMismatch):
            _logits_loss(logits, np.zeros((1, 3), dtype=int), np.zeros((1, 3), dtype=bool))

    def test_smoothing_increases_loss_on_confident_model(self):
        vocab = 20
        tgt = np.array([[3, 7, 11, 2]])
        logits = np.zeros((1, 4, vocab))
        for t in range(3):
            logits[0, t, tgt[0, t + 1]] = 50.0
        pad = np.zeros((1, 4), dtype=bool)
        sharp = _logits_loss(Tensor(logits, requires_grad=True, dtype=np.float64), tgt, pad, 0.0).item()
        smooth = _logits_loss(Tensor(logits, requires_grad=True, dtype=np.float64), tgt, pad, 0.1).item()
        assert smooth > sharp


class TestVariantParity:
    def test_pretrained_flag_changes_no_parameter_names(self, tiny_config):
        from dataclasses import replace

        pre = replace(tiny_config, pretrained_encoder=True)
        for kind in ("ext", "abs"):
            a = build_model(tiny_config, kind, seed=1)
            b = build_model(pre, kind, seed=1)
            assert set(a.params) == set(b.params)

    @pytest.mark.parametrize("task, part", [("ext", "ext_head"), ("abs", "decoder")])
    def test_params_ordered_by_part_on_build_and_load(self, tiny_config, task, part, tmp_path):
        # Encoder first, each part sorted: the order gradient norms are summed in.
        model = build_model(tiny_config, task, seed=1)
        names = list(model.params)
        split = sum(name.startswith("encoder.") for name in names)
        assert all(name.startswith("encoder.") for name in names[:split])
        assert all(name.startswith(f"{part}.") for name in names[split:])
        assert names[:split] == sorted(names[:split]) and names[split:] == sorted(names[split:])
        save_checkpoint(model, tmp_path / "m.ckpt")
        assert list(load_checkpoint(tmp_path / "m.ckpt").params) == names

    def test_build_model_dispatch(self, tiny_config):
        for kind in ("encoder", "ext", "abs"):
            assert build_model(tiny_config, kind, 0).kind == kind
        with pytest.raises(ConfigError):
            build_model(tiny_config, "seq2seq", 0)


class TestCheckpoint:
    def _fixed_forward(self, model, cfg):
        src, segs, pad = _inputs(cfg, seed=123)
        if model.kind == "ext":
            return model.forward_scores(src, segs, pad, np.array([[0, 3]] * 2)).data
        tgt = np.array([[5, 7, 9, 6]] * 2)
        return forward_logits(model, src, segs, pad, tgt).data

    @pytest.mark.parametrize("task", ["ext", "abs"])
    def test_round_trip_bit_exact(self, tiny_config, task, tmp_path):
        model = build_model(tiny_config, task, seed=11)
        model.step = 42
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.kind == task
        assert loaded.step == 42
        assert loaded.config == tiny_config
        orig, back = model.params, loaded.params
        assert set(orig) == set(back)
        for name in orig:
            assert orig[name].data.tobytes() == back[name].data.tobytes()
        assert np.array_equal(
            self._fixed_forward(model, tiny_config),
            self._fixed_forward(loaded, tiny_config),
        )

    def test_bytes_load_like_the_path(self, tiny_config, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(tiny_config, "abs", seed=11), path)
        from_path, from_bytes = load_checkpoint(path), load_checkpoint(path.read_bytes())
        assert (from_bytes.kind, from_bytes.config) == (from_path.kind, from_path.config)
        for name, param in from_path.params.items():
            assert param.data.tobytes() == from_bytes.params[name].data.tobytes()

    @pytest.mark.parametrize("task", ["ext", "abs"])
    def test_loaded_parameters_writeable_and_unshared(self, tiny_config, task, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(tiny_config, task, seed=11), path)
        arrays = [p.data for p in load_checkpoint(path).params.values()]
        assert all(a.flags.writeable and a.flags.owndata for a in arrays)
        for i, a in enumerate(arrays):
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1 :])

    def test_save_is_deterministic(self, tiny_config, tmp_path):
        model = build_model(tiny_config, "ext", seed=11)
        save_checkpoint(model, tmp_path / "a.ckpt")
        save_checkpoint(model, tmp_path / "b.ckpt")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_truncated_file(self, tiny_config, tmp_path):
        model = build_model(tiny_config, "ext", seed=11)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        for cut in (0, 3, 7, len(blob) // 2, len(blob) - 5):
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatVersionMismatch):
                load_checkpoint(path)

    def test_bad_magic(self, tiny_config, tmp_path):
        model = build_model(tiny_config, "ext", seed=11)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatVersionMismatch, match="magic"):
            load_checkpoint(path)

    def test_wrong_version(self, tiny_config, tmp_path):
        model = build_model(tiny_config, "ext", seed=11)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatVersionMismatch, match="version"):
            load_checkpoint(path)

    def test_edited_config_dims(self, tiny_config, tmp_path):
        import json

        model = build_model(tiny_config, "ext", seed=11)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12 : 12 + header_len])
        header["config"]["d_model"] = 16
        # Same-length header keeps the binary layout valid.
        new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(
            blob[:8] + struct.pack("<I", len(new_header)) + new_header + blob[12 + header_len :]
        )
        with pytest.raises(ShapeMismatch):
            load_checkpoint(path)

    def test_fuzzed_checkpoints_raise_only_named_errors(self, tmp_path):
        """Every truncation, and seeded random byte changes in the header and
        the first records, either load or raise a SumforgeError."""
        config = ModelConfig(
            vocab_size=8, d_model=2, n_heads=1, d_ff=2,
            n_enc_layers=1, n_dec_layers=1, max_positions=4,
        )
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(config, "ext", seed=1), path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        span = 12 + header_len + 300  # magic, version, header, first records
        rng = np.random.default_rng(0)
        variants = [blob[:cut] for cut in range(len(blob))]
        for _ in range(3000):
            mutated = bytearray(blob)
            for pos in rng.integers(0, span, rng.integers(1, 4)):
                mutated[pos] ^= int(rng.integers(1, 256))
            variants.append(bytes(mutated))
        for data in variants:
            path.write_bytes(data)
            try:
                load_checkpoint(path)
            except SumforgeError:
                pass

    @staticmethod
    def _records(blob: bytes) -> list[tuple[int, int, int]]:
        """Each record of a checkpoint's bytes as (start, payload start, end)."""
        (header_len,) = struct.unpack("<I", blob[8:12])
        pos, records = 12 + header_len, []
        while pos < len(blob):
            start = pos
            (name_len,) = struct.unpack_from("<I", blob, pos)
            (rank,) = struct.unpack_from("<I", blob, pos + 4 + name_len)
            pos += 8 + name_len
            dims = struct.unpack_from(f"<{rank}I", blob, pos)
            pos += 4 * rank
            records.append((start, pos, pos + 4 * math.prod(dims)))
            pos = records[-1][2]
        return records

    @pytest.mark.parametrize("spoil", [
        "repeat last", "repeat first", "nan first value", "nan last value", "inf", "-inf", "all nan",
    ])
    def test_repeated_records_and_non_finite_values_raise(self, tiny_config, tmp_path, spoil):
        """A record named twice (the last copy used to win) and a NaN or
        infinite weight (which used to load) are not checkpoints
        save_checkpoint writes."""
        path = tmp_path / "m.ckpt"
        save_checkpoint(build_model(tiny_config, "ext", seed=11), path)
        blob = bytearray(path.read_bytes())
        records = self._records(bytes(blob))
        assert records[-1][2] == len(blob) and len(records) == len(M.ExtractiveModel.param_specs(tiny_config))
        if spoil.startswith("repeat"):
            start, _, end = records[-1 if spoil == "repeat last" else 0]
            blob += blob[start:end]
        else:
            value = {"inf": np.inf, "-inf": -np.inf}.get(spoil, np.nan)
            for _, lo, hi in records if spoil == "all nan" else records[3:4]:
                at = range(lo, hi, 4) if spoil == "all nan" else [hi - 4 if spoil.endswith("last value") else lo]
                for pos in at:
                    blob[pos : pos + 4] = struct.pack("<f", value)
        match = "appears twice" if spoil.startswith("repeat") else "holds a NaN or infinite value"
        with pytest.raises(FormatVersionMismatch, match=match):
            load_checkpoint(bytes(blob))

    def test_load_encoder_into(self, tiny_config, tmp_path):
        donor = build_model(tiny_config, "encoder", seed=21)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(donor, path)
        model = build_model(tiny_config, "abs", seed=99)
        tok_emb = "encoder.tok_emb"
        assert model.params[tok_emb].data.tobytes() != donor.params[tok_emb].data.tobytes()
        load_encoder_into(model, path)
        for name in donor.params:
            assert np.array_equal(model.params[name].data, donor.params[name].data)

    @pytest.mark.parametrize(
        "change",
        [{"n_enc_layers": 2}, {"n_heads": 4}, {"vocab_size": 51}, {"max_positions": 48}],
        ids=lambda change: next(iter(change)),
    )
    def test_load_encoder_into_rejects_a_different_encoder(self, tiny_config, tmp_path, change):
        # A deeper encoder would lose its extra layers and one with other
        # heads would split the same weights differently; neither may load.
        from dataclasses import replace

        path = tmp_path / "enc.ckpt"
        save_checkpoint(build_model(replace(tiny_config, **change), "encoder", seed=21), path)
        model = build_model(tiny_config, "abs", seed=99)
        before = {k: p.data.copy() for k, p in model.params.items()}
        with pytest.raises(ShapeMismatch, match=next(iter(change))):
            load_encoder_into(model, path)
        assert all(np.array_equal(before[k], p.data) for k, p in model.params.items())

    def test_load_encoder_into_rejects_wrong_kind(self, tiny_config, tmp_path):
        ext = build_model(tiny_config, "ext", seed=21)
        path = tmp_path / "ext.ckpt"
        save_checkpoint(ext, path)
        model = build_model(tiny_config, "abs", seed=99)
        with pytest.raises(ModelKindMismatch, match="model kind mismatch"):
            load_encoder_into(model, path)

    def test_encoder_round_trip(self, tiny_config, tmp_path):
        enc = build_model(tiny_config, "encoder", seed=4)
        path = tmp_path / "enc.ckpt"
        save_checkpoint(enc, path)
        loaded = load_checkpoint(path)
        assert loaded.kind == "encoder"
        src, segs, pad = _inputs(tiny_config)
        assert np.array_equal(
            enc.encode(src, segs, pad).data, loaded.encode(src, segs, pad).data
        )
