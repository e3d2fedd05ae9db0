"""Autodiff core: op gradients against central differences, RNG splitting."""

from __future__ import annotations

import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    buffer, closure_arrays, finite_diff_check, graph_vertices, neg, synthetic_example, tensor_mean, tensor_sum,
    transpose,
)
from sumforge import model as M
from sumforge import tensor as T
from sumforge.errors import (
    ConfigError, GraphCycle, IdOutOfRange, IndexOutOfRange, InvalidAxis, NotScalar, ShapeMismatch,
)
from sumforge.infer import BeamConfig, beam_search
from sumforge.model import ModelConfig, abs_loss, build_model, ext_loss, flat_rows, gather_rows
from sumforge.tensor import SplitRng, Tensor, backward
from sumforge.train import masked_token_loss


def t64(data, requires_grad=True) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def rand64(rng, *shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True)


# The vocabulary loss before it took the projection in: the reference chain
# that projected_cross_entropy is checked against, bit for bit.

def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice `length` entries from `start` along one axis."""
    if not -a.data.ndim <= axis < a.data.ndim:
        raise InvalidAxis(f"axis {axis} invalid for rank {a.data.ndim}")
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    shape, dtype = a.shape, a.dtype

    def backward(g):
        out = np.zeros(shape, dtype)
        out[index] = g
        return (out,)

    return T._make(a.data[index], (a,), backward)


def cross_entropy(logits: Tensor, targets: np.ndarray, weights: np.ndarray, smoothing: float = 0.0) -> Tensor:
    """Σ weights · ((1 − s)·(−lp[target]) + s·(−mean lp)) over the leading
    positions, where lp is the log-softmax of logits over the last axis: one
    op that keeps one private log-probability array and rewrites it, an
    eighth of the rows at a time, into the logits' gradient."""
    targets = np.asarray(targets)
    weights = np.asarray(weights, dtype=logits.dtype)
    lead, v = logits.shape[:-1], logits.shape[-1]
    if targets.shape != lead or weights.shape != lead:
        raise ShapeMismatch(
            f"cross_entropy: logits {logits.shape}, targets {targets.shape}, weights {weights.shape}"
        )
    if targets.dtype.kind not in "iu" or (targets.size and (targets.min() < 0 or targets.max() >= v)):
        raise IdOutOfRange(f"cross_entropy: target ids must be integers in [0, {v})")
    if not 0.0 <= smoothing < 1.0:
        raise ConfigError(f"smoothing must be in [0, 1), got {smoothing}")
    lp, _, _ = T._log_softmax_forward(logits.data, logits.data.ndim - 1)
    dtype = lp.dtype
    per_pos = -np.take_along_axis(lp, targets[..., None], axis=-1)[..., 0]
    if smoothing > 0.0:
        gold, smooth, inv_v = (np.asarray(c, dtype) for c in (1.0 - smoothing, smoothing, 1.0 / v))
        per_pos = per_pos * gold + -(lp.sum(axis=-1) * inv_v) * smooth
    data = (per_pos * weights).sum()
    held = [lp]  # never handed out, so backward may overwrite it, once

    def backward(g):
        if not held:
            raise ValueError("cross_entropy backward already ran; its buffer holds a gradient")
        grad = held.pop()
        rows = grad.reshape(-1, v)
        ids = targets.reshape(-1)
        g_pos = (g * weights).reshape(-1)
        if smoothing > 0.0:
            gold_g, uniform_g = -(g_pos * gold), (-(g_pos * smooth) * inv_v)[:, None]
        else:
            gold_g = -g_pos
        n = rows.shape[0]
        step = max(math.ceil(n / 8), 1)
        block = np.empty((min(step, n), v), dtype)
        for start in range(0, n, step):
            stop = min(start + step, n)
            gb, lb = block[: stop - start], rows[start:stop]
            gb.fill(0)
            gb[np.arange(stop - start), ids[start:stop]] = gold_g[start:stop]
            if smoothing > 0.0:
                gb += uniform_g[start:stop]
            row_sums = gb.sum(axis=-1, keepdims=True)
            np.exp(lb, out=lb)
            lb *= row_sums
            np.subtract(gb, lb, out=lb)
        return (grad,)

    return T._make(data, (logits,), backward)


def composed_head_loss(h: Tensor, table_t: Tensor, bias: Tensor | None, targets, weights, smoothing):
    """matmul (+ bias) → narrow → cross_entropy: the vocabulary head as the
    losses composed it before projected_cross_entropy."""
    logits = T.matmul(h, table_t)
    if bias is not None:
        logits = logits + bias
    if h.data.ndim > 2:
        logits = narrow(logits, 1, 0, np.shape(targets)[-1])
    return cross_entropy(logits, targets, weights, smoothing)


class TestSplitRng:
    def test_same_seed_same_stream(self):
        a = SplitRng(42).child("init", "w").generator().random(8)
        b = SplitRng(42).child("init", "w").generator().random(8)
        assert np.array_equal(a, b)

    def test_different_labels_differ(self):
        a = SplitRng(42).child("init", "w").generator().random(8)
        b = SplitRng(42).child("init", "v").generator().random(8)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = SplitRng(1).child("x").generator().random(8)
        b = SplitRng(2).child("x").generator().random(8)
        assert not np.array_equal(a, b)

    def test_child_derivation_is_stateless(self):
        root = SplitRng(7)
        first = root.child("a").generator().random(4)
        root.child("b")  # consuming another child must not disturb "a"
        again = root.child("a").generator().random(4)
        assert np.array_equal(first, again)

    def test_nested_children_independent(self):
        a = SplitRng(7).child("x").child("y").generator().random(4)
        b = SplitRng(7).child("x", "y").generator().random(4)
        # Nested split and multi-label split are distinct derivations; both
        # must be reproducible, but nothing requires them to collide.
        assert np.array_equal(a, SplitRng(7).child("x").child("y").generator().random(4))
        assert np.array_equal(b, SplitRng(7).child("x", "y").generator().random(4))

    def test_integer_and_string_labels_distinct(self):
        a = SplitRng(7).child(1).generator().random(4)
        b = SplitRng(7).child("1").generator().random(4)
        assert not np.array_equal(a, b)


class TestTensorBasics:
    def test_int_input_promoted_to_float(self):
        assert Tensor([1, 2, 3]).dtype == np.float32

    def test_float64_preserved(self):
        assert t64([1.0]).dtype == np.float64

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_operator_sugar(self):
        """Only the two operators the model code uses: + and / by a number."""
        a, b = t64([2.0, 4.0]), t64([1.0, 2.0])
        assert np.allclose((a + b).data, [3, 6])
        assert np.allclose((a / 2.0).data, [1, 2])
        for other in (lambda: a * b, lambda: a - b, lambda: -a, lambda: 1.0 + a, lambda: a @ b):
            with pytest.raises(TypeError):
                other()


class TestMatmul:
    def test_identity(self):
        x = t64([[1.0, 2.0], [3.0, 4.0]])
        eye = t64(np.eye(2))
        assert np.allclose(T.matmul(eye, x).data, x.data)

    def test_hand_product(self):
        out = T.matmul(t64([[1.0, 2.0]]), t64([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            T.matmul(t64(np.zeros((2, 3))), t64(np.zeros((2, 3))))

    def test_gradients_are_transposed_products(self):
        rng = np.random.default_rng(0)
        a, b = rand64(rng, 3, 4), rand64(rng, 4, 2)
        loss = tensor_sum(T.matmul(a, b))
        backward(loss)
        ones = np.ones((3, 2))
        assert np.allclose(a.grad, ones @ b.data.T)
        assert np.allclose(b.grad, a.data.T @ ones)


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(t64([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5])

    def test_overflow_safety(self):
        out = T.softmax(t64([1000.0, 1000.0]))
        assert np.allclose(out.data, [0.5, 0.5])
        assert np.all(np.isfinite(out.data))

    def test_log3_quarters(self):
        out = T.softmax(t64([0.0, math.log(3.0)]))
        assert np.allclose(out.data, [0.25, 0.75])

    def test_invalid_axis(self):
        with pytest.raises(InvalidAxis):
            T.softmax(t64([[1.0, 2.0]]), axis=5)

    @given(
        st.lists(
            st.lists(st.floats(-50, 50), min_size=2, max_size=6),
            min_size=1,
            max_size=4,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=300, deadline=None)
    def test_fuzz_rows_normalized(self, rows):
        out = T.softmax(t64(rows), axis=-1).data
        assert np.all(out >= 0.0)
        assert np.allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    def test_log_softmax_agrees_with_log_of_softmax(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 7))
        a = T.log_softmax(t64(x)).data
        b = np.log(T.softmax(t64(x)).data)
        assert np.allclose(a, b, atol=1e-12)


class TestLayerNorm:
    def _gb(self, h):
        return t64(np.ones(h)), t64(np.zeros(h))

    def test_constant_row_becomes_zero(self):
        gamma, beta = self._gb(4)
        out = T.layer_norm(t64([[3.0, 3.0, 3.0, 3.0]]), gamma, beta)
        assert np.allclose(out.data, 0.0, atol=1e-3)

    def test_already_normalized_row_fixed_point(self):
        gamma, beta = self._gb(2)
        out = T.layer_norm(t64([[1.0, -1.0]]), gamma, beta)
        assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-3)

    def test_beta_shift(self):
        gamma = t64(np.ones(3))
        beta = t64(np.full(3, 5.0))
        out = T.layer_norm(t64([[2.0, 2.0, 2.0]]), gamma, beta)
        assert np.allclose(out.data, 5.0, atol=1e-3)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            T.layer_norm(t64(np.zeros((2, 4))), t64(np.ones(3)), t64(np.zeros(3)))

    def test_rows_standardized(self):
        rng = np.random.default_rng(5)
        gamma, beta = self._gb(8)
        out = T.layer_norm(Tensor(rng.standard_normal((6, 8)), requires_grad=True), gamma, beta)
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-3)


class TestBackward:
    def test_sum_of_squares(self):
        x = t64([1.0, -2.0, 3.0])
        backward(tensor_sum(T.mul(x, x)))
        assert np.allclose(x.grad, 2.0 * x.data)

    def test_fan_out_accumulates(self):
        x = t64([1.0, 2.0])
        backward(tensor_sum(x) + tensor_sum(x))
        assert np.allclose(x.grad, [2.0, 2.0])

    def test_not_scalar(self):
        with pytest.raises(NotScalar):
            backward(t64([1.0, 2.0]))

    def test_loss_without_grad_rejected(self):
        with pytest.raises(ValueError):
            backward(Tensor(1.0, requires_grad=False))

    def test_graph_cycle_detected(self):
        a = t64(1.0)
        b = a + 1.0
        c = T.mul(b, 2.0)
        # Corrupt the graph on purpose; backward must refuse, not hang.
        b._node._parents = (c._node,)
        with pytest.raises(GraphCycle):
            backward(tensor_sum(c))

    def test_no_grad_leaves_untouched(self):
        x = t64([1.0, 2.0])
        c = Tensor([3.0, 4.0], requires_grad=False, dtype=np.float64)
        backward(tensor_sum(T.mul(x, c)))
        assert np.allclose(x.grad, c.data)
        assert c.grad is None

    def test_grad_not_double_counted_on_second_backward(self):
        x = t64([2.0])
        loss = tensor_sum(T.mul(x, x))
        backward(loss)
        first = x.grad.copy()
        x.grad = None
        loss2 = tensor_sum(T.mul(x, x))
        backward(loss2)
        assert np.allclose(x.grad, first)


class TestNoGrad:
    def test_outputs_record_no_graph(self):
        x = t64([[1.0, -2.0], [0.5, 3.0]])
        with T.no_grad():
            y = T.softmax(T.matmul(x, x) + 1.0)
            z = T.layer_norm(y, t64([1.0, 1.0]), t64([0.0, 0.0]))
        for out in (y, z):
            assert not out.requires_grad
            assert out._node is None
            assert out._parents == () and out._backward is None
        assert x.requires_grad

    def test_same_values_as_recorded_forward(self):
        x = t64([[1.0, -2.0], [0.5, 3.0]])
        with T.no_grad():
            off = T.gelu(T.matmul(x, x)).data
        assert np.array_equal(off, T.gelu(T.matmul(x, x)).data)

    def test_restored_after_exception(self):
        x = t64([1.0, 2.0])
        with pytest.raises(ShapeMismatch):
            with T.no_grad():
                T.add(x, t64([1.0, 2.0, 3.0]))
        assert T.mul(x, 2.0).requires_grad

    def test_nested_contexts_restore_outer_mode(self):
        x = t64([1.0, 2.0])
        with T.no_grad():
            with T.no_grad():
                assert not T.mul(x, 2.0).requires_grad
            assert not T.mul(x, 2.0).requires_grad
        assert T.mul(x, 2.0).requires_grad

    def test_decorator_form(self):
        x = t64([1.0, 2.0])

        @T.no_grad()
        def double(t):
            return T.mul(t, 2.0)

        assert not double(x).requires_grad
        assert T.mul(x, 2.0).requires_grad


class TestFiniteDiffCheck:
    def test_quadratic_form_near_exact(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((4, 4))

        def f(params):
            (x,) = params
            col = T.reshape(x, (4, 1))
            return tensor_sum(T.matmul(transpose(col), T.matmul(t64(A, False), col)))

        err = finite_diff_check(f, [rand64(rng, 4)])
        assert err < 1e-8

    def test_linear_at_rounding_level(self):
        rng = np.random.default_rng(12)

        def f(params):
            return tensor_sum(T.mul(params[0], 3.0))

        assert finite_diff_check(f, [rand64(rng, 5)]) < 1e-9

    def test_softmax_cross_entropy_composite(self):
        rng = np.random.default_rng(13)
        labels = np.array([2, 0, 1])

        def f(params):
            logp = T.log_softmax(params[0], axis=-1)
            picked = T.take_along_last(logp, labels)
            return neg(tensor_mean(picked))

        assert finite_diff_check(f, [rand64(rng, 3, 4)]) < 1e-6

    def test_rejects_float32(self):
        x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError):
            finite_diff_check(lambda p: tensor_sum(p[0]), [x])


def _fd(f, params, tol=1e-4):
    err = finite_diff_check(f, params)
    assert err < tol, f"finite-diff rel err {err:.3e} >= {tol}"


class TestPerOpGradients:
    """Every differentiable op against the central-difference oracle."""

    def setup_method(self):
        self.rng = np.random.default_rng(20240817)

    def test_add_broadcast(self):
        a, b = rand64(self.rng, 3, 4), rand64(self.rng, 4)
        _fd(lambda p: tensor_sum(T.mul(T.add(p[0], p[1]), T.add(p[0], p[1]))), [a, b])

    def test_mul_broadcast(self):
        a, b = rand64(self.rng, 2, 3, 4), rand64(self.rng, 3, 1)
        _fd(lambda p: tensor_sum(T.mul(p[0], p[1])), [a, b])

    def test_div_by_scalar(self):
        a = rand64(self.rng, 3, 3)
        _fd(lambda p: tensor_sum(p[0] / 3.0), [a])

    def test_tensor_division_rejected(self):
        with pytest.raises(TypeError):
            rand64(self.rng, 2) / rand64(self.rng, 2)

    def test_matmul(self):
        a, b = rand64(self.rng, 3, 4), rand64(self.rng, 4, 2)
        _fd(lambda p: tensor_sum(T.mul(T.matmul(p[0], p[1]), T.matmul(p[0], p[1]))), [a, b])

    def test_batched_matmul(self):
        a, b = rand64(self.rng, 2, 3, 4), rand64(self.rng, 2, 4, 2)
        _fd(lambda p: tensor_sum(T.matmul(p[0], p[1])), [a, b])

    def test_permute(self):
        a = rand64(self.rng, 2, 3, 4)
        _fd(lambda p: tensor_sum(T.mul(T.permute(p[0], (2, 0, 1)), 1.5)), [a])

    def test_reshape(self):
        a = rand64(self.rng, 3, 4)
        _fd(lambda p: tensor_sum(T.mul(T.reshape(p[0], (2, 6)), T.reshape(p[0], (2, 6)))), [a])

    def test_narrow(self):
        a = rand64(self.rng, 4, 5)
        _fd(lambda p: tensor_sum(T.mul(narrow(p[0], 1, 1, 3), 2.0)), [a])

    def test_sum_with_axis_keepdims(self):
        a = rand64(self.rng, 3, 4)
        _fd(lambda p: tensor_sum(T.mul(tensor_sum(p[0], axis=1, keepdims=True), p[0])), [a])

    def test_mean(self):
        a = rand64(self.rng, 3, 4)
        _fd(lambda p: tensor_mean(T.mul(p[0], p[0])), [a])

    def test_gelu(self):
        _fd(lambda p: tensor_sum(T.gelu(p[0])), [rand64(self.rng, 4, 4)])

    @pytest.mark.parametrize("soft", [False, True])
    def test_bce_with_logits(self, soft):
        z = rand64(self.rng, 3, 4)
        z.data *= 3.0
        y = self.rng.random((3, 4)) if soft else (self.rng.random((3, 4)) < 0.5).astype(float)
        w = self.rng.random((3, 4))
        w[0, 0] = 0.0
        _fd(lambda p: T.bce_with_logits(p[0], y, w), [z])

    def test_softmax_grad(self):
        a = rand64(self.rng, 3, 5)
        w = self.rng.standard_normal((3, 5))
        _fd(lambda p: tensor_sum(T.mul(T.softmax(p[0], axis=-1), t64(w, False))), [a])

    def test_log_softmax_grad(self):
        a = rand64(self.rng, 3, 5)
        w = self.rng.standard_normal((3, 5))
        _fd(lambda p: tensor_sum(T.mul(T.log_softmax(p[0], axis=-1), t64(w, False))), [a])

    def test_layer_norm_grad_all_inputs(self):
        a = rand64(self.rng, 3, 6)
        gamma = Tensor(np.ones(6) + 0.1 * self.rng.standard_normal(6), requires_grad=True)
        beta = Tensor(0.1 * self.rng.standard_normal(6), requires_grad=True)
        w = self.rng.standard_normal((3, 6))
        _fd(
            lambda p: tensor_sum(T.mul(T.layer_norm(p[0], p[1], p[2]), t64(w, False))),
            [a, gamma, beta],
        )

    def test_masked_fill_grad(self):
        a = rand64(self.rng, 3, 4)
        mask = self.rng.random((3, 4)) < 0.4
        _fd(lambda p: tensor_sum(T.mul(T.masked_fill(p[0], mask, -9.0), 2.0)), [a])

    def test_embedding_lookup_scatter_add(self):
        table = rand64(self.rng, 6, 3)
        ids = np.array([[0, 2, 2], [5, 0, 1]])
        _fd(lambda p: tensor_sum(T.mul(T.embedding_lookup(p[0], ids), 1.7)), [table])

    def test_take_along_last_grad(self):
        a = rand64(self.rng, 3, 4)
        idx = np.array([1, 0, 3])
        _fd(lambda p: tensor_sum(T.mul(T.take_along_last(p[0], idx), 2.0)), [a])

    def test_dropout_train_grad_with_fixed_mask(self):
        a = rand64(self.rng, 4, 4)

        def f(p):
            gen = SplitRng(99).child("drop").generator()
            return tensor_sum(T.dropout(p[0], 0.5, train=True, rng=gen))

        _fd(f, [a])


class TestDropout:
    def test_eval_mode_is_identity(self):
        x = t64([[1.0, -2.0, 3.0]])
        out = T.dropout(x, 0.9, train=False)
        assert np.array_equal(out.data, x.data)

    def test_p_zero_is_identity_in_both_modes(self):
        x = t64([[1.0, 2.0]])
        gen = SplitRng(1).child("d").generator()
        assert np.array_equal(T.dropout(x, 0.0, train=True, rng=gen).data, x.data)
        assert np.array_equal(T.dropout(x, 0.0, train=False).data, x.data)

    def test_train_mode_zeros_or_scales(self):
        rng = SplitRng(5).child("d").generator()
        x = t64(np.ones((100,)))
        out = T.dropout(x, 0.25, train=True, rng=rng).data
        assert set(np.round(np.unique(out), 6)) <= {0.0, round(1 / 0.75, 6)}
        assert (out == 0).sum() > 0

    def test_invalid_p(self):
        with pytest.raises(ConfigError):
            T.dropout(t64([1.0]), 1.0, train=True)
        with pytest.raises(ConfigError):
            T.dropout(t64([1.0]), -0.1, train=False)

    def test_train_mode_without_rng_rejected(self):
        with pytest.raises(ConfigError):
            T.dropout(t64([1.0]), 0.5, train=True)

    def test_same_seed_same_mask(self):
        x = t64(np.ones((8, 8)))
        a = T.dropout(x, 0.5, True, SplitRng(3).child("m").generator()).data
        b = T.dropout(x, 0.5, True, SplitRng(3).child("m").generator()).data
        assert np.array_equal(a, b)


class TestBroadcastOracle:
    """Broadcasting add/mul against naive index-by-index loops."""

    def _naive(self, op, a, b):
        out_shape = np.broadcast_shapes(a.shape, b.shape)
        out = np.empty(out_shape)
        for idx in np.ndindex(out_shape):
            ai = tuple(
                0 if a.shape[d - (len(out_shape) - len(a.shape))] == 1 else idx[d]
                for d in range(len(out_shape) - len(a.shape), len(out_shape))
            )
            bi = tuple(
                0 if b.shape[d - (len(out_shape) - len(b.shape))] == 1 else idx[d]
                for d in range(len(out_shape) - len(b.shape), len(out_shape))
            )
            out[idx] = op(a[ai], b[bi])
        return out

    @pytest.mark.parametrize(
        "shape_a,shape_b",
        [((3, 4), (4,)), ((2, 3, 4), (3, 4)), ((2, 1, 4), (3, 1)), ((5,), (1,))],
    )
    def test_add_matches_naive(self, shape_a, shape_b):
        rng = np.random.default_rng(hash((shape_a, shape_b)) % 2**32)
        a, b = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
        got = T.add(t64(a), t64(b)).data
        assert np.allclose(got, self._naive(lambda x, y: x + y, a, b))

    @pytest.mark.parametrize(
        "shape_a,shape_b",
        [((3, 4), (4,)), ((2, 3, 4), (3, 4)), ((2, 1, 4), (3, 1))],
    )
    def test_mul_matches_naive(self, shape_a, shape_b):
        rng = np.random.default_rng(hash((shape_a, shape_b)) % 2**32)
        a, b = rng.standard_normal(shape_a), rng.standard_normal(shape_b)
        got = T.mul(t64(a), t64(b)).data
        assert np.allclose(got, self._naive(lambda x, y: x * y, a, b))


class TestForwardSemantics:
    def test_masked_fill_values(self):
        x = t64([[1.0, 2.0], [3.0, 4.0]])
        out = T.masked_fill(x, np.array([[True, False], [False, True]]), -9.0)
        assert out.data.tolist() == [[-9.0, 2.0], [3.0, -9.0]]

    def test_gelu_float32_is_the_multiplied_cube_bitwise(self):
        # x**3 rounds differently in about 30% of cubes but moves only about
        # 0.3% of outputs, so the sample must be large enough to tell them apart.
        x = np.random.default_rng(6).standard_normal((16, 64, 64)).astype(np.float32) * 3
        c, a = math.sqrt(2.0 / math.pi), 0.044715  # Python floats keep float32
        expected = 0.5 * x * (1.0 + np.tanh(c * (x + a * (x * x * x))))
        assert expected.dtype == np.float32
        out = T.gelu(Tensor(x)).data
        assert out.dtype == np.float32
        assert np.array_equal(out, expected)

    def test_gelu_float32_within_a_few_ulps_of_float64(self):
        x = np.random.default_rng(7).standard_normal(20000).astype(np.float32) * 3
        x64 = x.astype(np.float64)
        c, a = math.sqrt(2.0 / math.pi), 0.044715
        ref = 0.5 * x64 * (1.0 + np.tanh(c * (x64 + a * x64**3)))
        err = np.abs(T.gelu(Tensor(x)).data - ref)
        # 1 + tanh cancels for negative x, so the scale is max(1, |x|), not |gelu(x)|.
        assert np.all(err <= 4 * np.finfo(np.float32).eps * np.maximum(1.0, np.abs(x64)))

    def test_gelu_known_values(self):
        # tanh approximation: gelu(0)=0 and gelu is odd-ish around small x
        out = T.gelu(t64([0.0, 1.0, -1.0])).data
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(0.841192, abs=1e-4)
        assert out[2] == pytest.approx(-0.158808, abs=1e-4)

    def test_embedding_rows(self):
        table = t64(np.arange(12.0).reshape(4, 3))
        out = T.embedding_lookup(table, np.array([[1, 1], [3, 0]]))
        assert out.data[0, 0].tolist() == [3.0, 4.0, 5.0]
        assert out.data[1, 0].tolist() == [9.0, 10.0, 11.0]

    def test_embedding_duplicate_ids_accumulate_grad(self):
        table = t64(np.zeros((3, 2)))
        out = T.embedding_lookup(table, np.array([[0, 0, 2]]))
        backward(tensor_sum(out))
        assert table.grad.tolist() == [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]

    def test_narrow_forward(self):
        c = t64([[1.0, 2.0], [3.0, 4.0]])
        assert narrow(c, 0, 1, 1).data.tolist() == [[3.0, 4.0]]


# --- dropout keep masks and graph consumption ---

class TestPackedKeepMask:
    """The keep mask is drawn one leading index at a time and held as
    packed bits; it must be the bool mask of one whole draw, bit for bit,
    and leave the generator where one whole draw would."""

    @pytest.mark.parametrize("shape", [
        (3, 5, 7), (8, 4, 43, 43), (2, 1, 3), (1, 3, 3), (5, 7), (9,), (), (0, 3, 4),
    ], ids=str)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("make_rng", [
        lambda: SplitRng(11).child("dropout", 1).generator(),
        lambda: np.random.default_rng(11),
    ], ids=["philox", "pcg64"])
    def test_item_draws_equal_one_whole_draw(self, shape, dtype, make_rng):
        rng, ref = make_rng(), make_rng()
        keep, factor = T._keep_mask(rng, shape, 0.1, dtype)
        whole = ref.random(shape, dtype=np.float32) >= np.float32(0.1)
        _, item_shape = T._items(shape)
        rows = shape[0] if len(shape) > 2 else 1
        assert keep.dtype == np.uint8
        assert keep.shape == (rows, math.ceil(math.prod(item_shape) / 8))
        assert np.array_equal(_unpacked(keep, shape), whole)
        assert type(factor) is np.dtype(dtype).type and factor == np.dtype(dtype).type(1 / 0.9)
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
        assert rng.random(3, dtype=np.float32).tobytes() == ref.random(3, dtype=np.float32).tobytes()

    @pytest.mark.parametrize("make_rng", [
        lambda: SplitRng(11).child("dropout", 1).generator(),
        lambda: np.random.default_rng(11),
    ], ids=["philox", "pcg64"])
    def test_a_row_per_head_unpacks_to_the_items_draw(self, make_rng):
        """attention_block draws its scores' bits as [B·h, L, L], a row per
        head. With an odd L², every other row starts on a pending half of a
        64-bit output; the rows are still the [B, h, L, L] draw's bools, and
        the generator ends in the same state."""
        b, h, n = 3, 4, 7
        rng, ref = make_rng(), make_rng()
        per_head, _ = T._keep_mask(rng, (b * h, n, n), 0.1, np.float32)
        per_item, _ = T._keep_mask(ref, (b, h, n, n), 0.1, np.float32)
        assert per_head.shape == (b * h, math.ceil(n * n / 8))
        assert np.array_equal(_unpacked(per_head, (b * h, n, n)).reshape(b, h, n, n),
                              _unpacked(per_item, (b, h, n, n)))
        assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state)
        assert rng.random(3, dtype=np.float32).tobytes() == ref.random(3, dtype=np.float32).tobytes()


class TestRawKeepDraw:
    """_keep_mask compares the generator's raw uint32 halves with a
    threshold; it must equal the float32 comparison bit for bit and leave
    the state exactly as float32 draws leave it."""

    @pytest.mark.parametrize("make_rng", [
        lambda: np.random.Generator(np.random.Philox(5)),
        lambda: np.random.default_rng(5),
        lambda: np.random.Generator(np.random.SFC64(5)),
    ], ids=["philox", "pcg64", "sfc64"])
    @pytest.mark.parametrize("p", [0.1, 0.5, 1e-9, 0.99999999], ids=str)
    def test_equals_float32_draws_with_pending_halves(self, make_rng, p):
        """Odd item sizes leave a half pending for the next draw, and an
        even size after it leaves `uinteger` stale."""
        rng, ref = make_rng(), make_rng()
        for shape in [(3, 5, 7), (1,), (2, 2), (1,), (4, 1, 3), (0, 3, 4), (2, 9, 11)]:
            keep, _ = T._keep_mask(rng, shape, p, np.float32)
            whole = ref.random(shape, dtype=np.float32) >= np.float32(p)
            assert np.array_equal(_unpacked(keep, shape), whole), shape
            assert repr(rng.bit_generator.state) == repr(ref.bit_generator.state), shape
        assert rng.random(3).tobytes() == ref.random(3).tobytes()

    def test_p_rounding_to_one_in_float32_keeps_nothing(self):
        assert np.float32(0.99999999) == 1.0
        keep, _ = T._keep_mask(np.random.default_rng(0), (4, 5, 6), 0.99999999, np.float32)
        assert not keep.any()

    def test_generator_without_split_outputs_is_refused(self):
        with pytest.raises(ConfigError, match="MT19937"):
            T._keep_mask(np.random.Generator(np.random.MT19937(0)), (2, 3, 4), 0.1, np.float32)


def _reference_backward(loss):
    """The sweep before graph consumption and row parts, in the same
    visiting order: keeps every node, takes an `embedding_lookup`'s part as
    the zero table its closure once scattered the gradient into, copies
    each first gradient and adds each later one into a new array."""
    seen: set[int] = set()
    topo = []
    root = T._vertex(loss)
    stack = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if p is not None and id(p) not in seen)
    root.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is None or node.grad is None:
            continue
        grads = node._backward(node.grad)
        if node._backward.__qualname__.startswith("embedding_lookup."):
            cells = _cells(node._backward)
            table = np.zeros(cells["shape"], cells["dtype"])
            np.add.at(table, cells["ids"].reshape(-1), node.grad.reshape(-1, cells["shape"][-1]))
            grads = (table,)
        for parent, g in zip(node._parents, grads):
            if g is None or parent is None:
                continue
            if parent.grad is None:
                parent.grad = g.astype(parent.dtype, copy=True)
            else:
                parent.grad = parent.grad + g


def _cells(fn) -> dict:
    """A closure's captured variables by name; unassigned ones are left out."""
    out = {}
    for name, cell in zip(fn.__code__.co_freevars, fn.__closure__):
        try:
            out[name] = cell.cell_contents
        except ValueError:  # e.g. a block's factor when nothing is dropped
            pass
    return out


def _assert_same_bits(a, b, name=""):
    assert a is not None and b is not None, name
    assert a.dtype == b.dtype and a.shape == b.shape, name
    unsigned = f"u{a.dtype.itemsize}"
    assert np.array_equal(a.view(unsigned), b.view(unsigned)), name


def _unpacked(keep, shape):
    """A packed keep mask, one row of bits per item of T._items(shape), as
    one bool array of `shape`."""
    _, item_shape = T._items(shape)
    return np.unpackbits(keep, axis=-1, count=math.prod(item_shape)).view(bool).reshape(shape)


_SMALL = ModelConfig(vocab_size=30, d_model=8, n_heads=2, d_ff=16,
                     n_enc_layers=1, n_dec_layers=1, max_positions=16, dropout=0.2)


def _small_model_loss(seed=0):
    model = build_model(_SMALL, "abs", seed=seed)
    r = np.random.default_rng(seed)
    src = r.integers(7, 30, (2, 9))
    pad = np.zeros((2, 9), dtype=bool)
    pad[1, 6:] = True
    tgt = r.integers(7, 30, (2, 5))
    drop_rng = np.random.default_rng(seed)
    hidden = model.encode(src, np.zeros_like(src), pad, train=True, rng=drop_rng)
    states = model.decode_teacher_forced(hidden, tgt, pad, train=True, rng=drop_rng)
    tok_emb = model.params["encoder.tok_emb"]
    return model.params, abs_loss(states, tok_emb, tgt, np.zeros(tgt.shape, dtype=bool))


def _small_ext_loss(seed=0):
    model = build_model(_SMALL, "ext", seed=seed)
    r = np.random.default_rng(seed)
    src = r.integers(7, 30, (2, 9))
    pad = np.zeros((2, 9), dtype=bool)
    pad[1, 6:] = True
    clss = np.array([[0, 4], [0, 3]])
    logits = model.forward_scores(src, np.zeros_like(src), pad, clss,
                                  train=True, rng=np.random.default_rng(seed))
    return model.params, ext_loss(logits, np.array([[1, 0], [0, 1]]), np.ones((2, 2)))


class TestGraphConsumption:
    def test_inner_nodes_freed_and_leaf_grads_unchanged(self):
        params, loss = _small_model_loss()
        _reference_backward(loss)
        expected = {name: p.grad for name, p in params.items()}

        params, loss = _small_model_loss()
        inner = [n for n in graph_vertices(loss) if n._backward is not None]
        assert len(inner) > 20  # 28: each sublayer is one vertex
        assert all(type(n) is T._Node for n in inner)
        backward(loss)
        for node in inner:
            assert node.grad is None
            assert node._parents == ()
        for name, p in params.items():
            assert p.requires_grad
            assert np.array_equal(p.grad, expected[name]), name

    def test_second_backward_raises(self):
        x = t64([1.0, 2.0])
        loss = tensor_sum(T.mul(x, x))
        backward(loss)
        with pytest.raises(ValueError, match="consumed"):
            backward(loss)
        assert x.grad.tolist() == [2.0, 4.0]

    def test_loss_sharing_a_consumed_node_raises(self):
        # The shared node must not be skipped as if it were a constant:
        # that would leave x without the gradient that flows through h.
        x = t64([1.0, 2.0])
        h = T.mul(x, x)
        backward(tensor_sum(h))
        x.grad = None
        with pytest.raises(ValueError, match="consumed"):
            backward(tensor_sum(T.mul(h, 2.0)) + tensor_sum(x))
        assert x.grad is None

    def test_log_softmax_grad_bitwise_old_formula(self):
        r = np.random.default_rng(4)
        a = Tensor(r.standard_normal((3, 7, 11)).astype(np.float32), requires_grad=True)
        g = r.standard_normal((3, 7, 11)).astype(np.float32)
        out = T.log_softmax(a, axis=-1)
        expected = g - np.exp(out.data) * g.sum(axis=-1, keepdims=True)
        backward(tensor_sum(T.mul(out, Tensor(g))))
        assert np.array_equal(a.grad, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
    def test_dropout_keep_factor_bitwise_old_formula(self, dtype, p):
        shape = (4, 5, 6)
        out = T.dropout(Tensor(np.ones(shape, dtype)), p, True, np.random.default_rng(8))
        # The mask is drawn and compared in float32 whatever the tensor's dtype.
        r = np.random.default_rng(8).random(shape, dtype=np.float32)
        expected = ((r >= np.float32(p)) / (1 - p)).astype(dtype)
        assert out.dtype == dtype
        assert np.array_equal(out.data, expected)


@st.composite
def _row_plans(draw):
    """A graph over one `[v, d]` table: 1–3 lookups into the leaf or into an
    inner vertex of its shape (a reshape, as `gather_rows` makes), 0–2
    dense parts, in the drawn order, which is the order their parts reach
    the table, and maybe a gradient the table holds already."""
    v, d = draw(st.integers(1, 40)), draw(st.integers(1, 3))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    ids = st.lists(st.sampled_from([0, v - 1]) | st.integers(0, v - 1), max_size=6)
    lookups = draw(st.lists(st.tuples(st.sampled_from(["rows", "inner"]), ids), min_size=1, max_size=3))
    wide = ["add_float64"] if dtype == np.float32 else []
    dense = draw(st.lists(st.sampled_from(["tied", "add", "inner_add", *wide]).map(lambda k: (k, [])), max_size=2))
    terms = draw(st.permutations(lookups + dense))
    return v, d, dtype, terms, draw(st.booleans()), draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


def _row_graph(plan):
    """The table and `h` leaves and the loss of a `_row_plans` plan. With
    `zeros`, every other weight is -0.0, so dense parts hold -0.0 entries."""
    v, d, dtype, terms, prior, zeros, seed = plan
    r = np.random.default_rng(seed)
    table = Tensor(r.standard_normal((v, d)).astype(dtype), requires_grad=True)
    h = Tensor(r.standard_normal((2, d)).astype(dtype), requires_grad=True)
    if prior:
        table.grad = np.where(r.random((v, d)) < 0.5, -0.0, r.standard_normal((v, d))).astype(dtype)
    flat = T.reshape(T.mul(table, 1.5), (v, d))
    loss = None
    for kind, ids in terms:
        ids = np.asarray(ids, dtype=np.int64)
        if kind == "rows":
            out = T.embedding_lookup(table, ids)
        elif kind == "inner":
            out = T.embedding_lookup(flat, ids.reshape(1, -1))
        elif kind == "tied":
            out = T.matmul(h, T.permute(table, (1, 0)))
        else:
            target = flat if kind == "inner_add" else table
            other = np.float64 if kind == "add_float64" else dtype
            out = T.add(target, Tensor(r.standard_normal((v, d)).astype(other)))
        w = r.standard_normal(out.shape).astype(out.dtype)
        if zeros:
            w.reshape(-1)[::2] = -0.0
        part = tensor_sum(T.mul(out, Tensor(w)))
        loss = part if loss is None else loss + part
    return (table, h), loss


class TestRowGradients:
    """`embedding_lookup`'s gradient is the rows it touched; `backward`
    holds them and adds them into one table, and adds later dense parts in
    place into a gradient it made. Every leaf's gradient keeps the bits and
    dtype of adding each part as a dense array in turn."""

    @settings(max_examples=150, deadline=None)
    @given(plan=_row_plans())
    def test_same_bits_as_dense_parts(self, plan):
        expected, loss = _row_graph(plan)
        _reference_backward(loss)
        leaves, loss = _row_graph(plan)
        backward(loss)
        for name, want, got in zip(("table", "h"), expected, leaves):
            if want.grad is None:
                assert got.grad is None, name
            else:
                _assert_same_bits(want.grad, got.grad, name)

    @pytest.mark.parametrize("ids", [[0.0, 1.0], [True, False, True, False], [0, -1], [0, 4]],
                             ids=["float", "bool", "negative", "rows"])
    def test_ids_outside_the_table_raise(self, ids):
        table = t64(np.zeros((4, 2)))
        with pytest.raises(IdOutOfRange, match=r"\[0, 4\)"):
            T.embedding_lookup(table, np.asarray(ids))


class TestTapeHoldsOnlyWhatBackwardReads:
    def test_matmul_output_feeding_only_bias_is_freed_before_backward(self):
        r = np.random.default_rng(0)
        x = t64(r.standard_normal((4, 3)))
        w, bias = t64(r.standard_normal((3, 5))), t64(r.standard_normal(5))
        h = T.gelu(x)
        y = T.matmul(h, w)
        y_data, h_data, h_copy = weakref.ref(y.data), weakref.ref(h.data), h.data.copy()
        z = y + bias
        del y, h
        assert y_data() is None  # add keeps shapes only
        assert h_data() is not None  # matmul's backward reads its input
        backward(tensor_sum(z))
        assert h_data() is None  # the sweep dropped the closure that held it
        assert np.array_equal(w.grad, h_copy.T @ np.ones((4, 5)))
        assert np.array_equal(bias.grad, np.full(5, 4.0))

    def test_masked_token_loss_frees_the_hidden_state(self):
        r = np.random.default_rng(1)
        x = t64(r.standard_normal((2, 3, 4)))
        hidden = T.layer_norm(x, t64(np.ones(4)), t64(np.zeros(4)))
        held = weakref.ref(hidden.data)
        chosen = np.array([[True, False, False], [False, False, True]])
        loss = masked_token_loss(hidden, t64(r.standard_normal((6, 4))), t64(np.zeros(6)),
                                 r.integers(0, 6, (2, 3)), chosen)
        del hidden
        assert held() is None
        backward(loss)
        assert x.grad.shape == (2, 3, 4)

    @pytest.mark.parametrize("make_loss", [_small_ext_loss, _small_model_loss], ids=["ext", "abs"])
    def test_training_step_vertices_hold_no_data(self, make_loss):
        params, loss = make_loss()
        vertices = graph_vertices(loss)
        leaves = [v for v in vertices if isinstance(v, Tensor)]
        inner = [v for v in vertices if not isinstance(v, Tensor)]
        # The walk found the step's graph: its sublayer ops and more.
        assert len(inner) > 10
        assert {"attention_block", "ff_block"} <= {v._backward.__qualname__.split(".")[0] for v in inner}
        assert {id(v) for v in leaves} <= {id(p) for p in params.values()}
        for v in inner:
            assert type(v) is T._Node
            assert not hasattr(v, "data")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_grads_bitwise_equal_with_every_output_kept(self, seed, monkeypatch):
        """Closures read the arrays they captured in forward, where the old
        tape read parent Tensors' .data in backward: the two agree because no
        forward array is rebound or written in place before backward."""
        params, loss = _small_model_loss(seed)
        backward(loss)
        expected = {name: p.grad for name, p in params.items()}

        kept = []
        make = T._make

        def keeping(data, parents, backward_fn):
            out = make(data, parents, backward_fn)
            kept.append((out, out.data, out.data.copy()))
            return out

        monkeypatch.setattr(T, "_make", keeping)
        params, loss = _small_model_loss(seed)
        before = {name: (p.data, p.data.copy()) for name, p in params.items()}
        backward(loss)
        assert len(kept) > 20
        for out, array, copy in kept:
            assert out.data is array and np.array_equal(array, copy)
        for name, p in params.items():
            assert p.data is before[name][0] and np.array_equal(p.data, before[name][1]), name
            assert np.array_equal(p.grad, expected[name]), name


class TestOpHook:
    """`op_hook` routes every op call and backward closure through the hook,
    by op name, and changes no bits."""

    @staticmethod
    def _step(make_loss):
        params, loss = make_loss()
        backward(loss)
        return loss.data, {name: p.grad for name, p in params.items()}

    @pytest.mark.parametrize("make_loss", [_small_ext_loss, _small_model_loss], ids=["ext", "abs"])
    def test_training_step_same_bytes_with_a_counting_hook(self, make_loss):
        seen = {}

        def counting(name, pass_, fn, *args, **kwargs):
            seen[name, pass_] = seen.get((name, pass_), 0) + 1
            return fn(*args, **kwargs)

        want_loss, want = self._step(make_loss)
        with T.op_hook(counting):
            loss, grads = self._step(make_loss)
        assert loss.tobytes() == want_loss.tobytes()
        assert grads.keys() == want.keys()
        for name, g in want.items():
            assert grads[name].dtype == g.dtype and grads[name].tobytes() == g.tobytes(), name
        names = {name for name, _ in seen}
        assert names <= set(T.OPS)
        assert {"attention_block", "ff_block", "layer_norm", "matmul"} <= names
        assert "attention" not in names  # every attention sublayer is one block
        head = "projected_cross_entropy" if make_loss is _small_model_loss else "bce_with_logits"
        assert seen[head, "forward"] == seen[head, "backward"] == 1
        assert {pass_ for _, pass_ in seen} == {"forward", "backward"}

    def test_nests_and_restores_the_outer_hook_after_an_exception(self):
        calls = []

        def tagged(tag):
            def hook(name, pass_, fn, *args, **kwargs):
                calls.append((tag, name, pass_))
                return fn(*args, **kwargs)
            return hook

        x = t64(np.ones((2, 2)))
        with T.op_hook(tagged("outer")):
            transpose(x)
            with pytest.raises(ShapeMismatch), T.op_hook(tagged("inner")):
                transpose(x)
                T.add(x, np.ones(3))
            loss = T.bce_with_logits(transpose(x), np.ones((2, 2)), np.ones((2, 2)))
        backward(loss)  # outside every hook
        transpose(x)
        assert calls == [
            ("outer", "permute", "forward"), ("inner", "permute", "forward"), ("inner", "add", "forward"),
            ("outer", "permute", "forward"), ("outer", "bce_with_logits", "forward"),
        ]
        calls.clear()
        loss = T.bce_with_logits(transpose(x), np.ones((2, 2)), np.ones((2, 2)))
        with T.op_hook(tagged("sweep")):
            backward(loss)
        assert calls == [("sweep", "bce_with_logits", "backward"), ("sweep", "permute", "backward")]

    def test_block_backward_runs_under_its_own_name(self):
        seen = []

        def recording(name, pass_, fn, *args, **kwargs):
            seen.append((name, pass_))
            return fn(*args, **kwargs)

        *arrays, _ = TestFeedForward._case(np.float64, (2, 3, 4))
        params = [Tensor(a, requires_grad=True) for a in arrays]
        with T.op_hook(recording):
            out = T.ff_block(*params, 0.0, False)
            loss = T.bce_with_logits(out, np.ones((2, 3, 4)), np.ones((2, 3, 4)))
            backward(loss)
        assert seen == [
            ("ff_block", "forward"), ("bce_with_logits", "forward"),
            ("bce_with_logits", "backward"), ("ff_block", "backward"),
        ]

    def test_registry_holds_the_module_ops(self):
        assert len(T.OPS) == 17
        for name, fn in T.OPS.items():
            assert fn is getattr(T, name), name
            assert fn.__name__ == fn.__wrapped__.__name__ == name


class TestInPlaceClosuresSameBits:
    """Closures that work in buffers they allocated, against the expressions
    they replaced, bit for bit."""

    @staticmethod
    def _specials(shape, dtype, seed):
        x = np.random.default_rng(seed).standard_normal(shape).astype(dtype) * 3
        x.flat[:6] = [np.nan, np.inf, -np.inf, -0.0, 0.0, -1e-30]
        return x

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_dropout(self, dtype, p):
        x, g = self._specials((4, 5, 6), dtype, 0), self._specials((4, 5, 6), dtype, 1)[::-1].copy()
        with np.errstate(invalid="ignore"):
            out = T.dropout(Tensor(x, requires_grad=True), p, True, np.random.default_rng(8))
            (gx,) = out._node._backward(g)
            keep, factor = T._keep_mask(np.random.default_rng(8), x.shape, p, dtype)
            old_keep = _unpacked(keep, x.shape) * factor
            expected_out, expected_gx = x * old_keep, g * old_keep
        assert _cells(_cells(out._node._backward)["dropped"])["keep"].dtype == np.uint8
        _assert_same_bits(out.data, expected_out, "out")
        _assert_same_bits(gx, expected_gx, "grad")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_backward(self, dtype):
        x, g = self._specials((3, 7, 11), dtype, 2), self._specials((3, 7, 11), dtype, 3)
        with np.errstate(invalid="ignore"):
            out = T.gelu(Tensor(x, requires_grad=True))
            (gx,) = out._node._backward(g)
            t = _cells(out._node._backward)["t"]
            d_inner = T._GELU_C * (1.0 + 3.0 * T._GELU_A * (x * x))
            expected = g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * d_inner)
        _assert_same_bits(gx, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_forward(self, dtype):
        x = self._specials((3, 7, 11), dtype, 7)
        x.flat[6:12] = [1e30, -1e30, 1.0, -1.0, 1e-30, 40.0]
        with np.errstate(all="ignore"):
            out, t = T._gelu_forward(x)
            # The expression _gelu_forward replaced, temporaries and all.
            inner = T._GELU_C * (x + T._GELU_A * (x * x * x))
            t_old = np.tanh(inner)
            expected = 0.5 * x * (1.0 + t_old)
        _assert_same_bits(t, t_old, "tanh")
        _assert_same_bits(out, expected, "gelu")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("axis", [-1, 1])
    def test_log_softmax_backward(self, dtype, axis):
        r = np.random.default_rng(4)
        x = (r.standard_normal((3, 7, 11)) * 5).astype(dtype)
        g = r.standard_normal((3, 7, 11)).astype(dtype)
        out = T.log_softmax(Tensor(x, requires_grad=True), axis=axis)
        (gx,) = out._node._backward(g)
        _assert_same_bits(gx, g - np.exp(out.data) * g.sum(axis=axis, keepdims=True))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape, axis", [
        ((3, 7, 11), -1), ((3, 7, 11), 1), ((3, 7, 11), 0), ((40, 3001), -1), ((2, 5, 8000), 2),
        ((13,), 0), ((4, 1, 6), 1), ((0, 5), 1), ((234, 300), -1), ((9, 3, 5), 1),
        *(((n, 8000), -1) for n in range(1, 6)),  # the beam's [live hypotheses, V]
    ], ids=str)
    def test_log_softmax_forward(self, dtype, shape, axis):
        x = self._specials(shape, dtype, 6) if math.prod(shape) > 6 else np.ones(shape, dtype)
        x[np.isnan(x) | np.isinf(x)] = 1e4  # a NaN or inf row has no log-softmax to pin
        out = T.log_softmax(Tensor(x), axis=axis).data
        shifted = x - x.max(axis=axis, keepdims=True)
        _assert_same_bits(out, shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(5,), (3, 4), (1,), (1, 1), (0,), (2, 0)])
    def test_shared_weight_matmul_grad(self, dtype, lead):
        r = np.random.default_rng(5)
        x = (r.standard_normal(lead + (7, 9)) * 10.0 ** r.integers(-3, 3, lead + (7, 9))).astype(dtype)
        w = r.standard_normal((9, 13)).astype(dtype)
        g = r.standard_normal(lead + (7, 13)).astype(dtype)
        out = T.matmul(Tensor(x, requires_grad=True), Tensor(w, requires_grad=True))
        gx, gw = out._node._backward(g)
        _assert_same_bits(gx, T._unbroadcast(g @ w.T, x.shape), "x")
        _assert_same_bits(gw, T._unbroadcast(np.swapaxes(x, -1, -2) @ g, w.shape), "w")
        if 0 in lead:
            assert not gw.any()

    def test_empty_batch_gives_a_zero_weight_gradient(self):
        x = Tensor(np.zeros((0, 4, 3), np.float32), requires_grad=True)
        w = Tensor(np.ones((3, 2), np.float32), requires_grad=True)
        backward(tensor_sum(T.matmul(x, w)))
        assert w.grad is not None and w.grad.dtype == np.float32
        assert np.array_equal(w.grad, np.zeros((3, 2)))
        assert x.grad.shape == (0, 4, 3)


def _composed_cross_entropy(logits, targets, weights, smoothing):
    """The chain cross_entropy replaced, op for op: the reference."""
    lp = T.log_softmax(logits, axis=-1)
    nll = neg(T.take_along_last(lp, targets))
    if smoothing > 0.0:
        uniform = neg(tensor_mean(lp, axis=-1))
        per_pos = T.mul(nll, 1.0 - smoothing) + T.mul(uniform, smoothing)
    else:
        per_pos = nll
    return tensor_sum(T.mul(per_pos, weights))


class TestCrossEntropy:
    @staticmethod
    def _inputs(shape, dtype, seed=0):
        """Logits with a wide spread, targets that repeat and hit columns 0
        and V-1, and weights with zero rows."""
        r = np.random.default_rng(seed)
        x = (r.standard_normal(shape) * 6).astype(dtype)
        lead, v = shape[:-1], shape[-1]
        targets = r.integers(0, 3, lead)  # few distinct ids: repeats
        targets.flat[0], targets.flat[-1] = 0, v - 1
        weights = (r.random(lead) < 0.7).astype(dtype)
        weights.flat[1] = 0.0
        return x, targets, weights

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("smoothing", [0.0, 0.1])
    @pytest.mark.parametrize("shape, narrowed", [
        ((37, 501), False), ((16, 3001), False), ((3, 10, 1001), True), ((8, 13, 257), True),
        ((1, 2, 5), True),
    ], ids=str)
    def test_bits_equal_the_composed_chain(self, dtype, smoothing, shape, narrowed):
        x, targets, weights = self._inputs(shape, dtype)
        if narrowed:  # abs_loss's layout: the last position predicts nothing
            targets, weights = targets[:, 1:], weights[:, 1:]
        results = []
        for loss_fn in (_composed_cross_entropy, cross_entropy):
            logits = Tensor(x.copy(), requires_grad=True)
            inp = narrow(logits, 1, 0, shape[1] - 1) if narrowed else logits
            loss = loss_fn(inp, targets, weights, smoothing) / 7.0
            backward(loss)
            results.append((loss.data, logits.grad))
        (ref_loss, ref_grad), (loss, grad) = results
        _assert_same_bits(loss, ref_loss, "loss")
        _assert_same_bits(grad, ref_grad, "grad")

    @pytest.mark.parametrize("smoothing", [0.0, 0.2])
    def test_gradient_matches_finite_differences(self, smoothing):
        r = np.random.default_rng(2)
        x = rand64(r, 2, 4, 6)
        targets = np.array([[0, 5, 5, 2], [1, 0, 3, 5]])
        weights = np.array([[1.0, 0.0, 2.0, 1.0], [0.5, 1.0, 1.0, 0.0]])
        err = finite_diff_check(lambda p: cross_entropy(p[0], targets, weights, smoothing), [x])
        assert err < 1e-6

    @pytest.mark.parametrize("targets", [[0, -1], [0, 5], [0.0, 1.0], [True, False]],
                             ids=["negative", "vocab_size", "float", "bool"])
    def test_targets_outside_the_vocabulary_raise(self, targets):
        x = Tensor(np.zeros((2, 5), np.float32), requires_grad=True)
        with pytest.raises(IdOutOfRange, match=r"\[0, 5\)"):
            cross_entropy(x, np.asarray(targets), np.ones(2), 0.1)

    def test_shapes_and_smoothing_are_checked(self):
        x = Tensor(np.zeros((2, 3, 5), np.float32), requires_grad=True)
        with pytest.raises(ShapeMismatch):
            cross_entropy(x, np.zeros((2, 2), int), np.ones((2, 3)), 0.1)
        with pytest.raises(ShapeMismatch):
            cross_entropy(x, np.zeros((2, 3), int), np.ones(2), 0.1)
        with pytest.raises(ConfigError, match="smoothing"):
            cross_entropy(x, np.zeros((2, 3), int), np.ones((2, 3)), 1.0)

    def test_second_call_of_the_closure_raises(self):
        # backward writes the gradient over the saved log-probabilities, so
        # a second call must not read that gradient as log-probabilities.
        x, targets, weights = self._inputs((6, 11), np.float64)
        out = cross_entropy(Tensor(x, requires_grad=True), targets, weights, 0.1)
        closure = out._node._backward
        (grad,) = closure(np.asarray(1.0))
        assert "held" in _cells(closure) and not _cells(closure)["held"]
        with pytest.raises(ValueError, match="already ran"):
            closure(np.asarray(1.0))
        assert np.isfinite(grad).all()

    def test_losses_use_the_fused_op(self, monkeypatch):
        calls, fused = [], T.projected_cross_entropy

        def counted(h, table_t, bias, targets, weights, smoothing=0.0):
            calls.append((h.data.ndim, bias is not None, smoothing))
            return fused(h, table_t, bias, targets, weights, smoothing)

        monkeypatch.setattr(T, "projected_cross_entropy", counted)
        for name in ("matmul", "log_softmax", "take_along_last"):
            monkeypatch.setattr(T, name, None)
        r = np.random.default_rng(3)
        abs_loss(rand64(r, 2, 4, 5), rand64(r, 7, 5), r.integers(0, 7, (2, 4)),
                 np.zeros((2, 4), bool), smoothing=0.1)
        chosen = np.array([[True, False, True], [False, True, False]])
        masked_token_loss(rand64(r, 2, 3, 4), rand64(r, 7, 4), rand64(r, 7),
                          r.integers(0, 7, (2, 3)), chosen)
        assert calls == [(3, False, 0.1), (2, True, 0.0)]


class TestProjectedCrossEntropy:
    """The vocabulary head and its loss as one op, against the chain it
    replaced: matmul (+ bias) → narrow → cross_entropy."""

    @staticmethod
    def _case(dtype, shape, v, seed=0):
        """h, a table, a bias for a [n, d] h, targets that repeat and hit
        ids 0 and V − 1, and weights with zero (padded) rows; a [B, n, d] h
        scores its first n − 1 rows, as abs_loss does."""
        r = np.random.default_rng(seed)
        h = r.standard_normal(shape).astype(dtype)
        table = (r.standard_normal((v, shape[-1])) * 0.5).astype(dtype)
        bias = None if len(shape) > 2 else (r.standard_normal(v) * 0.1).astype(dtype)
        lead = shape[:-2] + (shape[-2] - 1,) if len(shape) > 2 else shape[:-1]
        targets = r.integers(0, 3, lead)
        targets.flat[0], targets.flat[-1] = 0, v - 1
        weights = (r.random(lead) < 0.7).astype(dtype)
        weights.flat[1] = 0.0
        return h, table, bias, targets, weights

    @staticmethod
    def _run(head, case, smoothing):
        h, table, bias, targets, weights = case
        params = [Tensor(a.copy(), requires_grad=True) for a in (h, table) + ((bias,) if bias is not None else ())]
        bias_t = params[2] if bias is not None else None
        loss = head(params[0], transpose(params[1]), bias_t, targets, weights, smoothing) / 7.0
        backward(loss)
        return [loss.data] + [p.grad for p in params]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("smoothing", [0.0, 0.1])
    @pytest.mark.parametrize("shape, v", [
        ((3, 10, 16), 1001), ((8, 41, 128), 3001), ((37, 16), 501), ((522, 128), 3000),
    ], ids=str)
    def test_bits_equal_the_composed_chain(self, dtype, smoothing, shape, v):
        case = self._case(dtype, shape, v)
        want = self._run(composed_head_loss, case, smoothing)
        got = self._run(T.projected_cross_entropy, case, smoothing)
        for name, a, b in zip(("loss", "h", "table", "bias"), got, want):
            _assert_same_bits(a, b, name)
            assert a.strides == b.strides, name  # the layout clipping's sum reads

    @pytest.mark.parametrize("smoothing", [0.0, 0.2])
    @pytest.mark.parametrize("shape", [(2, 4, 3), (5, 3)], ids=["abs", "prefit"])
    def test_gradient_matches_finite_differences(self, smoothing, shape):
        _, _, bias, targets, weights = self._case(np.float64, shape, 6, seed=4)
        r = np.random.default_rng(5)
        params = [rand64(r, *shape), rand64(r, 6, 3)] + ([rand64(r, 6)] if bias is not None else [])

        def f(p):
            return T.projected_cross_entropy(
                p[0], transpose(p[1]), p[2] if len(p) > 2 else None, targets, weights, smoothing
            )

        assert finite_diff_check(f, params) < 1e-6

    @pytest.mark.parametrize("targets", [[0, -1], [0, 5], [0.0, 1.0], [True, False]],
                             ids=["negative", "vocab_size", "float", "bool"])
    def test_targets_outside_the_vocabulary_raise(self, targets):
        h, table = Tensor(np.zeros((2, 3), np.float32)), Tensor(np.zeros((5, 3), np.float32))
        with pytest.raises(IdOutOfRange, match=r"target ids must be integers in \[0, 5\)"):
            T.projected_cross_entropy(h, transpose(table), None, np.asarray(targets), np.ones(2), 0.1)

    def test_shapes_and_smoothing_are_checked(self):
        h3, h2 = Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((3, 4)))
        table_t, bias = transpose(Tensor(np.zeros((5, 4)))), Tensor(np.zeros(5))
        ids, ones = np.zeros((2, 2), int), np.ones((2, 2))
        for args in [
            (h3, table_t, None, np.zeros((2, 4), int), np.ones((2, 4))),  # m > n
            (h3, table_t, None, ids, np.ones((2, 3))),  # weights' shape
            (h3, table_t, None, np.zeros(2, int), np.ones(2)),  # targets' rank
            (h3, transpose(Tensor(np.zeros((5, 3)))), None, ids, ones),  # d
            (h3, table_t, bias, ids, ones),  # a bias takes a [n, d] h
            (h2, table_t, Tensor(np.zeros(4)), np.zeros(3, int), np.ones(3)),  # bias' length
        ]:
            with pytest.raises(ShapeMismatch):
                T.projected_cross_entropy(*args, 0.1)
        with pytest.raises(ConfigError, match="smoothing"):
            T.projected_cross_entropy(h3, table_t, None, ids, ones, 1.0)

    def test_backward_leaves_its_inputs_as_they_were(self):
        h, table, bias, targets, weights = self._case(np.float32, (37, 16), 501)
        copies = [a.copy() for a in (h, table, bias, targets, weights)]
        out = T.projected_cross_entropy(Tensor(h, requires_grad=True), transpose(Tensor(table)),
                                        Tensor(bias), targets, weights, 0.1)
        first = out._node._backward(np.asarray(1.0, np.float32))
        second = out._node._backward(np.asarray(1.0, np.float32))
        for a, b in zip(first, second):
            _assert_same_bits(a, b)
        for a, b in zip((h, table, bias, targets, weights), copies):
            assert np.array_equal(a, b)


class TestSaturatedLosses:
    """Both losses at logits of ±1e4: a finite loss, and finite gradients
    equal in sign and magnitude to weights · (sigmoid(z) − y) and to
    weights · (softmax − target distribution), also where a saturated logit
    is wrong."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bce_with_logits(self, dtype):
        z = np.array([[1e4, -1e4, 1e4, -1e4, 0.0, 3.0]], dtype)
        y = np.array([[1.0, 0.0, 0.0, 1.0, 1.0, 0.0]], dtype)  # right, right, wrong, wrong
        w = np.array([[1.0, 2.0, 0.5, 1.5, 1.0, 0.0]], dtype)
        logits = Tensor(z.copy(), requires_grad=True)
        loss = T.bce_with_logits(logits, y, w)
        backward(loss)
        z64 = z.astype(np.float64)
        sigmoid = np.exp(-np.logaddexp(0.0, -z64))
        want_loss = (w * (np.maximum(z64, 0) - z64 * y + np.log1p(np.exp(-np.abs(z64))))).sum()
        assert np.isfinite(loss.data) and np.isclose(float(loss.data), want_loss, rtol=1e-6)
        want = w * (sigmoid - y)
        assert np.all(np.isfinite(logits.grad))
        assert np.allclose(logits.grad, want, rtol=1e-6, atol=0)
        assert np.array_equal(np.sign(logits.grad), np.sign(want))
        # Saturated: |σ − y| is 0 where the logit is right and 1 where it is wrong.
        assert np.array_equal(np.abs(logits.grad[0, :4]), w[0, :4] * [0, 0, 1, 1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("smoothing", [0.0, 0.1])
    @pytest.mark.parametrize("shape", [(4, 5), (2, 4, 5)], ids=["prefit", "abs"])
    def test_projected_cross_entropy(self, dtype, smoothing, shape):
        # The table is the identity, so h is the logits and h's gradient
        # is the logits' gradient.
        r = np.random.default_rng(0)
        v = shape[-1]
        z = r.choice(np.array([1e4, -1e4, 0.0, 2.5], dtype), shape)
        z[..., 0], z[..., 1] = 1e4, -1e4
        lead = shape[:-2] + (shape[-2] - 1,) if len(shape) > 2 else shape[:-1]
        # Targets at the -1e4 logit (wrong) and the +1e4 one (right), in turn.
        targets = np.where(np.arange(math.prod(lead)).reshape(lead) % 2, 0, 1)
        weights = np.linspace(0.5, 2.0, math.prod(lead)).reshape(lead).astype(dtype)
        h = Tensor(z.copy(), requires_grad=True)
        bias = Tensor(np.zeros(v, dtype), requires_grad=True) if len(shape) == 2 else None
        loss = T.projected_cross_entropy(h, transpose(Tensor(np.eye(v, dtype=dtype))), bias,
                                         targets, weights, smoothing)
        backward(loss)
        scored = z.astype(np.float64)[..., : lead[-1], :]
        shifted = scored - scored.max(axis=-1, keepdims=True)
        lp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        target = (1 - smoothing) * np.eye(v)[targets] + smoothing / v
        want_loss = (weights * -(target * lp).sum(axis=-1)).sum()
        assert np.isfinite(loss.data) and np.isclose(float(loss.data), want_loss, rtol=1e-6)
        want = np.zeros(shape)
        want[..., : lead[-1], :] = weights[..., None] * (np.exp(lp) - target)
        assert np.all(np.isfinite(h.grad))
        assert np.allclose(h.grad, want, rtol=1e-5, atol=1e-7)
        big = np.abs(want) > 1e-3
        assert np.array_equal(np.sign(h.grad[big]), np.sign(want[big]))
        # A wrong target's logit gets −weight · its target mass, not 0.
        wrong = (targets == 1)[..., None] & (np.arange(v) == 1)
        mass = 1 - smoothing + smoothing / v
        assert np.allclose(h.grad[..., : lead[-1], :][wrong], -(weights * mass)[targets == 1], rtol=1e-5)


def composed_feed_forward(x, w1, b1, w2, b2):
    """matmul → add → gelu → matmul → add: the feed-forward block as the
    model composed it before it became part of ff_block."""
    return T.matmul(T.gelu(T.matmul(x, w1) + b1), w2) + b2


def composed_attention(q, k, v, mask, p, train, rng):
    """Scaled dot-product attention as the model composed it before
    attention_block, op by op: the reference for the block's attention."""
    scores = T.mul(T.matmul(q, transpose(k)), 1.0 / np.sqrt(k.shape[-1]))
    if mask is not None:
        scores = T.masked_fill(scores, mask, T.NEG_INF)
    probs = T.dropout(T.softmax(scores, axis=-1), p, train, rng)
    return T.matmul(probs, v)


def composed_attention_block(x, gamma, beta, wq, bq, wk, bk, wv, bv, wo, bo, mask, n_heads, p, train,
                             rng=None, rows=None, k=None, v=None):
    """The attention sublayer as the model composed it before
    attention_block, op by op: layer_norm, the q (and k/v) projections split
    into heads, composed_attention, the output projection, dropout and the
    residual. Keys and values are projected before the rows are picked, as
    the encoder did, or are k and v, as the decoder passed its
    cross-attention and cached ones. The reference attention_block is
    checked against bit for bit."""
    lead = (0, 2, 1, 3)

    def heads(y):
        return T.permute(T.reshape(y, y.shape[:-1] + (n_heads, y.shape[-1] // n_heads)), lead)

    normed = T.layer_norm(x, gamma, beta)
    if k is None:
        k, v = heads(T.matmul(normed, wk) + bk), heads(T.matmul(normed, wv) + bv)
    if rows is not None:
        flat = np.arange(len(rows))[:, None] * x.shape[1] + rows
        x, normed = gather_rows(x, flat), gather_rows(normed, flat)
    ctx = composed_attention(heads(T.matmul(normed, wq) + bq), k, v, mask, p, train, rng)
    ctx = T.reshape(T.permute(ctx, lead), x.shape)
    return x + T.dropout(T.matmul(ctx, wo) + bo, p, train, rng)


def gathered_attention_block(x, gamma, beta, wq, bq, wk, bk, wv, bv, wo, bo, mask, n_heads, p, train, rng,
                             rows):
    """The attention sublayer at rows only, as `Encoder.encode(rows=...)`
    builds it: keys and values projected from every row's layer norm, then
    attention_block over the gathered rows, given them as k and v."""
    params = dict(zip(["ln.gamma", "ln.beta", "attn.wk", "attn.bk", "attn.wv", "attn.bv"],
                      [gamma, beta, wk, bk, wv, bv]))
    k, v = M._keys_values(params, "attn", M._ln(params, "ln", x), n_heads)
    return T.attention_block(gather_rows(x, flat_rows(rows, *x.shape[:2])), gamma, beta, wq, bq,
                             None, None, None, None, wo, bo, mask, n_heads, p, train, rng, k=k, v=v)


def composed_ff_block(x, gamma, beta, w1, b1, w2, b2, p, train, rng=None):
    """The feed-forward sublayer as the model composed it before ff_block:
    layer_norm → the feed-forward block → dropout → add. The reference
    ff_block is checked against bit for bit."""
    normed = T.layer_norm(x, gamma, beta)
    return x + T.dropout(composed_feed_forward(normed, w1, b1, w2, b2), p, train, rng)


_BLOCK_CONFIG = ModelConfig(vocab_size=30, d_model=8, n_heads=2, d_ff=16, n_enc_layers=2,
                            n_dec_layers=2, max_positions=16, dropout=0.2)


def _block_step(task, dtype=np.float32, config=_BLOCK_CONFIG):
    """One training step's loss of a 2-layer model on three documents, the
    last of them padding only, so its query rows are masked whole."""
    model = build_model(config, task, seed=3, dtype=dtype)
    r = np.random.default_rng(1)
    src = r.integers(7, 30, (3, 9))
    pad = np.zeros((3, 9), bool)
    pad[1, 6:] = pad[2, :] = True
    rng = np.random.default_rng(5)
    if task == "abs":
        tgt = r.integers(7, 30, (3, 5))
        hidden = model.encode(src, np.zeros_like(src), pad, train=True, rng=rng)
        states = model.decode_teacher_forced(hidden, tgt, pad, train=True, rng=rng)
        loss = abs_loss(states, model.params["encoder.tok_emb"], tgt, np.zeros(tgt.shape, bool))
    else:
        logits = model.forward_scores(src, np.zeros_like(src), pad, np.array([[0, 4], [0, 3], [1, 1]]),
                                      train=True, rng=rng)
        loss = ext_loss(logits, np.array([[1, 0], [0, 1], [1, 1]]), np.ones((3, 2)))
    return model, loss, rng


class TestSublayerBlocks:
    """attention_block and ff_block against the chains they replaced: value,
    every gradient and its layout, and the dropout stream, bit for bit."""

    @staticmethod
    def _attention_case(dtype, kind, seed=0, d=8):
        """The arrays (x, gamma, beta, then each weight and its bias), an
        output gradient, a mask and rows. "padding" hides every key of the
        first document, so its query rows are masked whole; "rows" picks
        [CLS]-like rows that repeat; "single" is one document, [1, 7, d],
        under a 2-D causal mask that also masks one query row whole."""
        r = np.random.default_rng(seed)
        shape = (1, 7, d) if kind == "single" else (3, 6, d)
        arrays = [
            (r.standard_normal(shape) * 2 + 0.5).astype(dtype),
            (1 + 0.2 * r.standard_normal(d)).astype(dtype), (0.2 * r.standard_normal(d)).astype(dtype),
        ]
        for _ in range(4):
            arrays += [(r.standard_normal((d, d)) * 0.5).astype(dtype), (0.2 * r.standard_normal(d)).astype(dtype)]
        padding = (r.random((3, 1, 1, 6)) < 0.3) | (np.arange(3) == 0)[:, None, None, None]
        mask, rows = {
            "none": (None, None),
            "padding": (padding, None),
            "causal": (np.triu(np.ones((6, 6), bool), k=1)[None, None], None),
            "rows": (padding, np.array([[0, 3, 3, 5], [5, 0, 1, 1], [2, 2, 4, 0]])),
            "single": (np.triu(np.ones((7, 7), bool), k=1) | (np.arange(7) == 3)[:, None], None),
        }[kind]
        out = shape[:-2] + ((shape[-2] if rows is None else rows.shape[1]), d)
        return arrays, r.standard_normal(out).astype(dtype), mask, rows

    @staticmethod
    def _kv_case(dtype, kind, heads, seed=0, d=8):
        """The arrays (x, gamma, beta, wq, bq, wo, bo, then the k and v
        operands in heads layout), an output gradient and a mask.
        "cross" masks every key of the first document, so its query rows
        are masked whole; "cross1" is decode_step's cross-attention, four
        one-position hypotheses over one document's keys and values, and
        "past" its self-attention, each over its own three positions;
        "single" is one document's queries over its keys and values, under a
        1-D key mask."""
        r = np.random.default_rng(seed)
        shape, kv_lead, lk = {
            "cross": ((3, 6, d), (3,), 5), "cross1": ((4, 1, d), (1,), 7),
            "past": ((4, 1, d), (4,), 3), "single": ((1, 7, d), (1,), 5),
        }[kind]
        arrays = [
            (r.standard_normal(shape) * 2 + 0.5).astype(dtype),
            (1 + 0.2 * r.standard_normal(d)).astype(dtype), (0.2 * r.standard_normal(d)).astype(dtype),
        ]
        for _ in range(2):
            arrays += [(r.standard_normal((d, d)) * 0.5).astype(dtype), (0.2 * r.standard_normal(d)).astype(dtype)]
        for _ in range(2):  # k and v: a projection's [..., Lk, d] split into heads
            y = r.standard_normal(kv_lead + (lk, d)).astype(dtype)
            arrays.append(np.swapaxes(y.reshape(kv_lead + (lk, heads, d // heads)), -2, -3))
        padding = (r.random((3, 1, 1, lk)) < 0.3) | (np.arange(3) == 0)[:, None, None, None]
        mask = {
            "cross": padding,
            "cross1": r.random((1, 1, 1, lk)) < 0.3,
            "past": None,
            "single": r.random(lk) < 0.3,
        }[kind]
        return arrays, r.standard_normal(shape).astype(dtype), mask

    @staticmethod
    def _kv_call(block, mask, heads, p, train):
        """call(params, rng) of an attention block whose keys and values
        are the operands k and v, the last two params."""
        def call(params, rng):
            x, gamma, beta, wq, bq, wo, bo, k, v = params
            return block(x, gamma, beta, wq, bq, None, None, None, None, wo, bo, mask, heads, p, train, rng,
                         k=k, v=v)
        return call

    @staticmethod
    def _run(call, arrays, g, grad):
        """call(params, rng) once: its value, the arrays' gradients and the
        next draw of the generator its dropouts drew from."""
        params = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        rng = np.random.default_rng(5)
        if not grad:
            with T.no_grad():
                out = call(params, rng)
            assert not out.requires_grad and out._node is None
            return [out.data], rng.random()
        out = call(params, rng)
        backward(tensor_sum(T.mul(out, Tensor(g))))
        return [out.data] + [p.grad for p in params], rng.random()

    @staticmethod
    def _assert_same(got, want, names, close=()):
        """The same bits, layout and draws; the arrays named in close need
        only be close."""
        (got, got_next), (want, want_next) = got, want
        assert len(got) == len(want)
        for name, a, b in zip(names, got, want):
            if name in close:
                tol = 1e-4 if a.dtype == np.float32 else 1e-12
                np.testing.assert_allclose(a, b, rtol=tol, atol=tol, err_msg=name)
                assert a.dtype == b.dtype, name
            else:
                _assert_same_bits(a, b, name)
            assert a.strides == b.strides, name  # the layout clipping's sum reads
        assert got_next == want_next  # the same draws were taken

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["none", "padding", "causal", "rows", "single"])
    @pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
    @pytest.mark.parametrize("heads", [1, 2, 8])  # 8: one-wide heads, whose merges are strided views
    def test_attention_block_bits_equal_the_composed_chain(self, dtype, kind, train, grad, heads):
        self._check_attention(dtype, kind, train, grad, heads)

    def _check_attention(self, dtype, kind, train, grad, heads, d=8):
        """The block against the chain; with rows, the chain that picks
        them against `gathered_attention_block`."""
        arrays, g, mask, rows = self._attention_case(dtype, kind, d=d)
        at = {} if rows is None else {"rows": rows}

        def call(block):
            return lambda params, rng: block(*params, mask, heads, 0.25, train, rng, **at)

        want = self._run(call(composed_attention_block), arrays, g, grad)
        got = self._run(call(T.attention_block if rows is None else gathered_attention_block), arrays, g, grad)
        names = ["out", "x", "gamma", "beta", "wq", "bq", "wk", "bk", "wv", "bv", "wo", "bo"]
        # With rows, ln(x) runs twice, for the keys and for the rows, so x's,
        # gamma's and beta's gradients add their parts in another order.
        self._assert_same(got, want, names, ["x", "gamma", "beta"] if rows is not None and grad else ())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["cross", "cross1", "past", "single"])
    @pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
    @pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
    @pytest.mark.parametrize("heads", [1, 2, 8])
    def test_kv_operands_bits_equal_the_composed_chain(self, dtype, kind, train, grad, heads):
        self._check_kv(dtype, kind, train, grad, heads)

    def _check_kv(self, dtype, kind, train, grad, heads, d=8):
        arrays, g, mask = self._kv_case(dtype, kind, heads, d=d)
        want = self._run(self._kv_call(composed_attention_block, mask, heads, 0.25, train), arrays, g, grad)
        got = self._run(self._kv_call(T.attention_block, mask, heads, 0.25, train), arrays, g, grad)
        self._assert_same(got, want, ["out", "x", "gamma", "beta", "wq", "bq", "wo", "bo", "k", "v"])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", [
        "none", "padding", "causal", "rows", "single", "kv-cross", "kv-cross1", "kv-past", "kv-single",
    ])
    @pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
    @pytest.mark.parametrize("per_pass", [1, 2])  # three heads as 1+1+1 and as 2+1
    def test_passes_of_heads_bits_equal_the_composed_chain(self, dtype, kind, grad, per_pass, monkeypatch):
        """With SCORE_BLOCK holding per_pass heads' scores, training scores
        each item's heads per_pass at a time, with dropout on, and its
        values, gradients and draws stay the chain's."""
        kv, kind = kind.startswith("kv-"), kind.removeprefix("kv-")
        if kv:
            arrays, rows = self._kv_case(dtype, kind, 3, d=6)[0], None
        else:
            arrays, _, _, rows = self._attention_case(dtype, kind, d=6)
        lq = arrays[0].shape[1] if rows is None else rows.shape[1]
        lk = arrays[-1].shape[2] if kv else arrays[0].shape[1]
        monkeypatch.setattr(T, "SCORE_BLOCK", per_pass * lq * lk)
        passes, probs = [], T._probs

        def counted(q, *args):
            passes.append(q.shape[0])
            return probs(q, *args)

        monkeypatch.setattr(T, "_probs", counted)
        (self._check_kv if kv else self._check_attention)(dtype, kind, True, grad, 3, d=6)
        runs = arrays[0].shape[0] * (2 if grad else 1)  # each item forward, then backward
        assert passes == ([1, 1, 1] if per_pass == 1 else [2, 1]) * runs

    def test_rows_while_a_graph_is_recorded_raise(self):
        model = build_model(_BLOCK_CONFIG, "encoder", seed=3)
        src = np.random.default_rng(1).integers(7, 30, (3, 9))
        with pytest.raises(ShapeMismatch, match="inference"):
            model.encode(src, np.zeros_like(src), np.zeros((3, 9), bool), rows=np.zeros((3, 2), int))

    def test_decode_steps_and_beam_search_equal_the_chain(self, monkeypatch):
        """decode_step's logits, over steps that reorder and drop
        hypotheses, and beam search's tokens, against the decoder composed
        op by op, whose attention sublayers took their cached keys and
        values the same way."""
        def decode():
            model = build_model(_BLOCK_CONFIG, "abs", seed=3)
            r = np.random.default_rng(4)
            src = r.integers(7, 30, (1, 9))
            pad = np.arange(9)[None] >= 7
            with T.no_grad():
                cache = model.start_decoding(model.encode(src, np.zeros_like(src), pad), pad)
                logits = [model.decode_step(cache, np.array(parents), np.array(tokens)).data
                          for parents, tokens in [([0], [5]), ([0, 0, 0], [9, 11, 12]), ([2, 0, 1], [7, 7, 8]),
                                                  ([1, 1], [12, 3])]]
            example = synthetic_example(np.random.default_rng(6), vocab_size=30)
            beam = beam_search(model, example, BeamConfig(max_len=8, min_len=4, beam_size=3), bos_id=5, eos_id=6)
            return logits, beam

        logits, beam = decode()
        monkeypatch.setattr(T, "attention_block", composed_attention_block)
        monkeypatch.setattr(T, "ff_block", composed_ff_block)
        want_logits, want_beam = decode()
        assert len(logits) == len(want_logits) == 4
        for step, (a, b) in enumerate(zip(logits, want_logits)):
            _assert_same_bits(a, b, f"step {step}")
        assert beam == want_beam and len(beam) >= 5

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("task", ["ext", "abs"])
    def test_training_step_bits_equal_the_chain(self, dtype, task, monkeypatch):
        # Every layer of a 2-layer model, so the sweep's order of gradient
        # sums elsewhere in the graph must not move either, nor the draws
        # of the dropouts that come after the blocks'.
        results = []
        for composed in (False, True):
            if composed:
                monkeypatch.setattr(T, "attention_block", composed_attention_block)
                monkeypatch.setattr(T, "ff_block", composed_ff_block)
            model, loss, rng = _block_step(task, dtype)
            backward(loss)
            results.append((loss.data, {n: p.grad for n, p in model.params.items()}, rng.random()))
        (loss, grads, draw), (want_loss, want, want_draw) = results
        _assert_same_bits(loss, want_loss, "loss")
        assert grads.keys() == want.keys() and draw == want_draw
        for name, g in want.items():
            _assert_same_bits(grads[name], g, name)
            assert grads[name].strides == g.strides, name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(8, 435, 128), (3, 17, 768), (2, 5, 8), (1, 9, 3)], ids=str)
    def test_layer_norm_rows_of_one_item_equal_the_whole_arrays(self, dtype, shape):
        """The blocks take layer norm's row statistics one item at a time in
        training; each row is reduced alone, so they are the whole array's."""
        x = (np.random.default_rng(2).standard_normal(shape) * 3 + 1).astype(dtype)
        x[0, 0] = 0.0  # a constant row: var 0, so inv_std is 1/sqrt(eps)
        whole = T._ln_stats(x)
        for i in range(shape[0]):
            for name, a, b in zip(("mu", "inv_std", "xhat"), T._ln_stats(x[i]), whole):
                _assert_same_bits(a, b[i], name)
        layer_norm = T.layer_norm(Tensor(x), Tensor(np.ones(shape[-1], dtype)), Tensor(np.zeros(shape[-1], dtype)))
        _assert_same_bits(T._ln_affine(whole[2], np.ones(shape[-1], dtype), np.zeros(shape[-1], dtype)),
                          layer_norm.data)
        _assert_same_bits(T._ln_xhat(x, whole[0], whole[1]), whole[2])

    @pytest.mark.parametrize("kind", ["padding", "causal", "single"])
    def test_attention_block_finite_differences_float64(self, kind):
        arrays, g, mask, _ = self._attention_case(np.float64, kind, seed=1)
        w = Tensor(g)

        def f(params):
            # A fresh generator per call: every evaluation drops the same entries.
            out = T.attention_block(*params, mask, 2, 0.25, True, np.random.default_rng(3))
            return tensor_sum(T.mul(out, w))

        _fd(f, [Tensor(a, requires_grad=True) for a in arrays], tol=1e-6)

    @pytest.mark.parametrize("kind", ["cross", "cross1", "single"])
    def test_kv_operands_finite_differences_float64(self, kind):
        arrays, g, mask = self._kv_case(np.float64, kind, 2, seed=1)
        block, w = self._kv_call(T.attention_block, mask, 2, 0.25, True), Tensor(g)

        def f(params):
            # A fresh generator per call: every evaluation drops the same entries.
            return tensor_sum(T.mul(block(params, np.random.default_rng(3)), w))

        _fd(f, [Tensor(a.copy(), requires_grad=True) for a in arrays], tol=1e-6)

    @pytest.mark.parametrize("kind, fully_masked", [
        ("padding", True), ("single", True), ("causal", False), ("none", False), ("cross", True),
        ("cross1", False),
    ])
    def test_backward_masks_only_when_a_row_is_fully_masked(self, kind, fully_masked):
        """Unless a query row is masked whole, the masked probabilities are
        exactly 0 and the backward mask pass could change no bit, so the
        closure keeps no mask for it."""
        if kind.startswith("cross"):
            arrays, _, mask = self._kv_case(np.float32, kind, 2)
            out = self._kv_call(T.attention_block, mask, 2, 0.0, False)([Tensor(a, requires_grad=True) for a in arrays], None)
        else:
            arrays, _, mask, _ = self._attention_case(np.float32, kind)
            out = T.attention_block(*(Tensor(a, requires_grad=True) for a in arrays), mask, 2, 0.0, False)
        assert (_cells(out._node._backward)["mask"] is not None) == fully_masked

    @pytest.mark.parametrize("block", ["attention", "kv", "ff"])
    @pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
    def test_backward_holds_only_x_parameters_bits_and_row_stats(self, block, train):
        if block == "attention":
            arrays, _, mask, _ = self._attention_case(np.float32, "padding")
            params = [Tensor(a, requires_grad=True) for a in arrays]
            out = T.attention_block(*params, mask, 2, 0.25, train, np.random.default_rng(0))
        elif block == "kv":  # k and v are parameters here, held whole
            arrays, _, mask = self._kv_case(np.float32, "cross", 2)
            params = [Tensor(a, requires_grad=True) for a in arrays]
            out = self._kv_call(T.attention_block, mask, 2, 0.25, train)(params, np.random.default_rng(0))
            params = params[:5] + params[7:] + params[5:7]  # the op's parents' order: ..., k, v, wo, bo
        else:
            *arrays, _ = TestFeedForward._case(np.float32, (3, 9, 8))
            params = [Tensor(a, requires_grad=True) for a in arrays]
            out = T.ff_block(*params, 0.25, train, np.random.default_rng(0))
        assert out._node._parents == tuple(params)
        held = {id(a): a for a in closure_arrays(out._node._backward)}
        x = params[0].data
        for p in params:
            assert held.pop(id(p.data)) is p.data
        stats = [a for a in held.values() if a.dtype == x.dtype and a.ndim]
        bits = [a for a in held.values() if a.dtype == np.uint8]
        assert [a.shape for a in stats] == [x.shape[:-1] + (1,)] * 2  # mu and 1/std
        assert len(bits) == (0 if not train else 1 if block == "ff" else 2)
        rest = [a for a in held.values() if a.dtype != np.uint8 and not (a.dtype == x.dtype and a.ndim)]
        assert all(a.nbytes < x.nbytes / 4 for a in rest)  # the scale and masks
        assert not any(isinstance(c.cell_contents, Tensor) for c in out._node._backward.__closure__
                       if c.cell_contents is not None)

    def test_shapes_are_checked(self):
        arrays, _, mask, _ = self._attention_case(np.float32, "padding")
        t = [Tensor(a) for a in arrays]
        x, gamma, beta, *proj = t
        for args, kwargs in [
            ((Tensor(np.zeros(8, np.float32)), gamma, beta, *proj, None, 2), {}),  # x's rank
            ((Tensor(arrays[0][0]), gamma, beta, *proj, None, 2), {}),  # a [n, d] x
            ((x, gamma, beta, *proj, None, 3), {}),  # heads must divide d
            ((x, Tensor(np.ones(7, np.float32)), beta, *proj, None, 2), {}),  # gamma's length
            ((x, gamma, beta, transpose(Tensor(np.ones((8, 7), np.float32))), *proj[1:], None, 2), {}),
            ((x, gamma, beta, *proj, np.zeros((2, 1, 1, 6), bool), 2), {}),  # the mask's batch
        ]:
            with pytest.raises(ShapeMismatch):
                T.attention_block(*args, 0.0, False, **kwargs)
        with pytest.raises(ConfigError):
            T.attention_block(x, gamma, beta, *proj, mask, 2, 0.1, True, None)

    def test_encode_rows_are_checked(self):
        """`encode` checks rows before its [CLS]-only layer gathers them:
        a position of 9 in sequences of length 9 (or -1) would read the next
        (or the previous) document's first (or last) row."""
        model = build_model(_BLOCK_CONFIG, "encoder", seed=3)
        src = np.random.default_rng(1).integers(7, 30, (3, 9))

        def encode(rows):
            with T.no_grad():
                return model.encode(src, np.zeros_like(src), np.zeros((3, 9), bool), rows=rows)

        for rows in (np.zeros((2, 1), int), np.zeros((3, 1)), np.zeros(3, int), np.zeros((3, 1), bool)):
            with pytest.raises(ShapeMismatch):  # rows' batch, float rows, [B] rows, bool rows
                encode(rows)
        for rows in ([[0], [6], [10]], [[9], [0], [1]], [[0], [-1], [1]]):
            with pytest.raises(IndexOutOfRange):
                encode(np.array(rows))
        assert encode(np.array([[8], [0], [4]])).shape == (3, 1, 8)

    def test_kv_operand_shapes_are_checked(self):
        arrays, _, mask = self._kv_case(np.float32, "cross", 2)
        x, gamma, beta, wq, bq, wo, bo, k, v = (Tensor(a) for a in arrays)
        wk, bk, wv, bv = (Tensor(a) for a in self._attention_case(np.float32, "padding")[0][5:9])

        def block(k, v, proj=(None,) * 4, heads=2, x=x):
            return T.attention_block(x, gamma, beta, wq, bq, *proj, wo, bo, mask, heads, 0.0, False, k=k, v=v)

        kd = k.data
        for args, kwargs in [
            ((k, None), {}),  # k without v
            ((None, v), {}),  # v without k
            ((k, v), {"proj": (wk, bk, wv, bv)}),  # both projections and operands
            ((None, None), {"proj": (wk, None, wv, bv)}),  # a missing projection
            ((k, Tensor(kd[:, :, :4])), {}),  # k and v differ
            ((Tensor(kd[0]), Tensor(kd[0])), {}),  # no batch axis
            ((k, v), {"heads": 4}),  # the heads' count
            ((Tensor(kd[..., :3]), Tensor(kd[..., :3])), {}),  # the heads' width
            ((Tensor(kd[:2]), Tensor(kd[:2])), {}),  # the batch
            ((k, v), {"x": Tensor(arrays[0][0])}),  # a [n, d] x over batched keys
            ((Tensor(kd[:, :, :4]), Tensor(kd[:, :, :4])), {}),  # the mask's keys
        ]:
            with pytest.raises(ShapeMismatch):
                block(*args, **kwargs)
        assert block(Tensor(kd[:1]), Tensor(kd[:1])).shape == x.shape  # keys shared by the batch


class TestFeedForward:
    """ff_block against the chain it replaced: value, every gradient and its
    layout, and the dropout stream, bit for bit."""

    @staticmethod
    def _case(dtype, shape, f=16, seed=0):
        """x, gamma, beta, w1 [d, f], b1, w2 [f, d], b2 and an output
        gradient, with gelu inputs spread over both tails."""
        r = np.random.default_rng(seed)
        d = shape[-1]
        return [
            (r.standard_normal(shape) * 2 + 0.5).astype(dtype),
            (1 + 0.2 * r.standard_normal(d)).astype(dtype), (0.2 * r.standard_normal(d)).astype(dtype),
            (r.standard_normal((d, f)) * 2).astype(dtype), r.standard_normal(f).astype(dtype),
            (r.standard_normal((f, d)) * 0.3).astype(dtype), r.standard_normal(d).astype(dtype),
            r.standard_normal(shape).astype(dtype),
        ]

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("grad", [True, False], ids=["grad", "no_grad"])
    @pytest.mark.parametrize("shape", [(1, 7, 8), (3, 9, 8), (4, 1, 8)],
                             ids=["B1", "B3", "decode_step"])
    def test_bits_equal_the_composed_chain(self, dtype, grad, shape):
        *arrays, g = self._case(dtype, shape)
        for train in (False, True):
            def call(block):
                return lambda params, rng: block(*params, 0.25, train, rng)

            want = TestSublayerBlocks._run(call(composed_ff_block), arrays, g, grad)
            got = TestSublayerBlocks._run(call(T.ff_block), arrays, g, grad)
            TestSublayerBlocks._assert_same(got, want, ["out", "x", "gamma", "beta", "w1", "b1", "w2", "b2"])

    def test_finite_differences_float64(self):
        *arrays, g = self._case(np.float64, (2, 3, 4), f=5, seed=1)
        w = Tensor(g)

        def f(params):
            return tensor_sum(T.mul(T.ff_block(*params, 0.25, True, np.random.default_rng(3)), w))

        _fd(f, [Tensor(a, requires_grad=True) for a in arrays], tol=1e-6)

    def test_shapes_are_checked(self):
        *arrays, _ = self._case(np.float32, (2, 3, 8))
        x, gamma, beta, w1, b1, w2, b2 = (Tensor(a) for a in arrays)
        for args in [
            (Tensor(np.zeros((1, 2, 3, 8), np.float32)), gamma, beta, w1, b1, w2, b2),  # x's rank
            (Tensor(arrays[0][0]), gamma, beta, w1, b1, w2, b2),  # a [n, d] x
            (x, b1, beta, w1, b1, w2, b2),  # gamma's length
            (x, gamma, beta, transpose(w1), b1, w2, b2),  # d
            (x, gamma, beta, w1, b2, w2, b2),  # b1's length
            (x, gamma, beta, w1, b1, transpose(w2), b2),  # f
            (x, gamma, beta, w1, b1, w2, b1),  # b2's length
        ]:
            with pytest.raises(ShapeMismatch):
                T.ff_block(*args, 0.0, False)
        with pytest.raises(ConfigError):
            T.ff_block(x, gamma, beta, w1, b1, w2, b2, 1.0, False)


class TestTapeCensus:
    """What the forward tape of a training step holds, array by array."""

    @staticmethod
    def _held(model, loss) -> dict[str, dict[int, np.ndarray]]:
        """The buffers each op's closures hold, by op; parameters left out."""
        params = {id(p.data) for p in model.params.values()}
        ops = {}
        for vertex in graph_vertices(loss):
            if vertex._backward is None:
                continue
            name = vertex._backward.__qualname__.split(".", 1)[0]
            for a in closure_arrays(vertex._backward):
                base = buffer(a)
                if id(base) not in params:
                    ops.setdefault(name, {})[id(base)] = base
        return ops

    @staticmethod
    def _floats(arrays) -> list[tuple[int, ...]]:
        """The shapes of the float32 arrays that are not scalars, sorted."""
        return sorted(a.shape for a in arrays if a.dtype == np.float32 and a.ndim)

    def test_each_encoder_layer_holds_two_activations(self):
        """A tiny 2-layer encoder in train mode with dropout: each layer's
        closures hold its two sublayers' inputs, packed keep bits and layer
        norm's [B, L, 1] row statistics, and no other [B, L, d] array; the
        final layer norm keeps one more."""
        config = ModelConfig(vocab_size=30, d_model=8, n_heads=2, d_ff=16, n_enc_layers=2,
                             n_dec_layers=1, max_positions=16, dropout=0.2)
        model, loss, _ = _block_step("ext", config=config)
        b, length, d = 3, 9, config.d_model
        ops = self._held(model, loss)
        held = {i: a for arrays in ops.values() for i, a in arrays.items()}
        activations = [a for a in held.values() if a.size >= b * length * d]
        assert all(a.shape == (b, length, d) for a in activations), [a.shape for a in activations]
        assert len(activations) <= 2 * config.n_enc_layers + 1
        for name in ("attention_block", "ff_block"):
            arrays = ops.get(name, {}).values()
            assert self._floats(arrays) == sorted(
                [(b, length, d)] * 2 + [(b, length, 1)] * 4
            ), name  # two layers: x, mu and 1/std each
            assert all(a.dtype in (np.float32, np.uint8) or a.nbytes < b * length * d for a in arrays), name

    def test_each_decoder_layer_holds_its_sublayer_inputs_and_cross_keys_values(self):
        """A tiny 2+2-layer abs step in train mode with dropout: each decoder
        layer's closures hold its three sublayers' inputs, cross-attention's
        k and v operands, packed keep bits and layer norm's [B, T, 1] row
        statistics. No op holds attention's operands apart from the blocks,
        and layer_norm holds only the two final norms' xhat and 1/std."""
        model, loss, _ = _block_step("abs")
        enc, dec = _BLOCK_CONFIG.n_enc_layers, _BLOCK_CONFIG.n_dec_layers
        b, length, t, d = 3, 9, 5, _BLOCK_CONFIG.d_model
        ops = self._held(model, loss)
        assert "attention" not in ops
        floats = {name: self._floats(arrays.values()) for name, arrays in ops.items()}
        stats = [(b, length, 1)] * 2 * enc + [(b, t, 1)] * 2 * dec  # mu and 1/std, one pair per layer
        assert floats["layer_norm"] == sorted([(b, length, d), (b, length, 1), (b, t, d), (b, t, 1)])
        assert floats["ff_block"] == sorted([(b, length, d)] * enc + [(b, t, d)] * dec + stats)
        # Each encoder layer's input, each decoder layer's self- and
        # cross-attention inputs, and the cross k and v: heads views of
        # their projections of the encoder output, which matmul holds.
        assert floats["attention_block"] == sorted(
            [(b, length, d)] * enc + [(b, t, d)] * 2 * dec + [(b, length, d)] * 2 * dec + stats + stats[2 * enc:]
        )
        assert floats["matmul"] == [(b, length, d)]
        bits = {name for name, arrays in ops.items() if any(a.dtype == np.uint8 for a in arrays.values())}
        assert bits == {"attention_block", "ff_block", "dropout"}


def _traced_peak(fn, *args):
    """Bytes allocated at the peak of fn(*args), above what was live before,
    counting what fn returns."""
    if tracemalloc.is_tracing():
        pytest.skip("tracemalloc already running")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    del result
    return peak


class TestVocabularySizedArrays:
    """Traced peaks of a 1+1-layer `abs` model at a 60,000-piece vocabulary
    and d 16, counted in `[V, d]` float32 tables: `build_model` draws the
    token table in parts, and one `abs` backward makes `tok_emb`'s gradient
    as one table that the tied head's part is added into in place (with
    whole-table float64 draws and a zero-filled table per lookup, the peaks
    were 4.7 and 4.0 tables)."""

    V, D = 60_000, 16
    TABLE = V * D * 4
    CONFIG = ModelConfig(vocab_size=V, d_model=D, n_heads=2, d_ff=32, n_enc_layers=1, n_dec_layers=1,
                         max_positions=32, dropout=0.1)

    def test_build_model_makes_at_most_two_tables(self):
        assert _traced_peak(build_model, self.CONFIG, "abs", 3) <= 2 * self.TABLE

    def test_abs_backward_makes_at_most_three_tables(self):
        model = build_model(self.CONFIG, "abs", seed=3)
        r, drop = np.random.default_rng(0), np.random.default_rng(1)
        src, tgt = r.integers(0, self.V, (2, 12)), r.integers(0, self.V, (2, 6))
        pad = np.zeros(src.shape, dtype=bool)
        hidden = model.encode(src, np.zeros_like(src), pad, train=True, rng=drop)
        states = model.decode_teacher_forced(hidden, tgt, pad, train=True, rng=drop)
        loss = abs_loss(states, model.params["encoder.tok_emb"], tgt, np.zeros(tgt.shape, dtype=bool))
        assert _traced_peak(backward, loss) <= 3 * self.TABLE
        assert model.params["encoder.tok_emb"].grad.shape == (self.V, self.D)


_NUMPY_BUFFERS = 64 * 1024  # room for a ufunc's iteration buffers and small arrays


class TestClosureTemporaries:
    """Traced peaks of single backward closures at small shapes, so an edit
    that brings back a whole-array temporary fails here."""

    @pytest.mark.parametrize("kv", [False, True], ids=["self", "cross"])
    def test_attention_block_makes_no_score_array(self, kv):
        """A training step of the block, with dropout and a fully masked
        query row: forward and backward work one item's scores at a time,
        where the composed chain held the whole probabilities."""
        r = np.random.default_rng(0)
        b, length, d, heads = 16, 128, 8, 2
        x = r.standard_normal((b, length, d)).astype(np.float32)
        vectors = [(1 + 0.1 * r.standard_normal(d)).astype(np.float32)] + [
            (0.1 * r.standard_normal(d)).astype(np.float32) for _ in range(5)]
        weights = [(0.3 * r.standard_normal((d, d))).astype(np.float32) for _ in range(4)]
        gamma, beta, bq, bk, bv, bo = (Tensor(a, requires_grad=True) for a in vectors)
        wq, wk, wv, wo = (Tensor(a, requires_grad=True) for a in weights)
        k, v = (Tensor(r.standard_normal((b, heads, length, d // heads)).astype(np.float32), requires_grad=True)
                for _ in range(2))
        mask = np.zeros((b, 1, length, length), dtype=bool)
        mask[0, :, 3] = True
        g = Tensor(r.standard_normal(x.shape).astype(np.float32))
        kv_args = ((None,) * 4, {"k": k, "v": v}) if kv else ((wk, bk, wv, bv), {})

        def step(block):
            xt = Tensor(x, requires_grad=True)
            out = block(xt, gamma, beta, wq, bq, *kv_args[0], wo, bo, mask, heads, 0.25, True,
                        np.random.default_rng(1), **kv_args[1])
            backward(tensor_sum(T.mul(out, g)))

        score = b * heads * length * length * 4  # [B, h, L, L] float32
        assert _traced_peak(step, T.attention_block) < score
        assert _traced_peak(step, composed_attention_block) > 2 * score

    def test_attention_block_scores_one_head_a_pass(self, monkeypatch):
        """When one head's scores fill SCORE_BLOCK, a training step holds one
        head's probabilities and score gradient at a time, not the item's
        four heads' of a pass that takes them all."""
        r = np.random.default_rng(0)
        b, length, d, heads = 4, 128, 16, 4
        x = r.standard_normal((b, length, d)).astype(np.float32)
        params = [Tensor((1 + 0.1 * r.standard_normal(d)).astype(np.float32), requires_grad=True),
                  Tensor((0.1 * r.standard_normal(d)).astype(np.float32), requires_grad=True)]
        for _ in range(4):
            params += [Tensor((0.3 * r.standard_normal((d, d))).astype(np.float32), requires_grad=True),
                       Tensor((0.1 * r.standard_normal(d)).astype(np.float32), requires_grad=True)]
        g = Tensor(r.standard_normal(x.shape).astype(np.float32))

        def step(score_block):
            monkeypatch.setattr(T, "SCORE_BLOCK", score_block)
            out = T.attention_block(Tensor(x, requires_grad=True), *params, None, heads, 0.25, True,
                                    np.random.default_rng(1))
            backward(tensor_sum(T.mul(out, g)))

        head = length * length * 4  # one head's [L, L] float32 scores
        assert _traced_peak(step, length * length) + 2 * (heads - 1) * head < _traced_peak(step, heads * length * length)

    def test_row_blocks_are_an_eighth_but_at_least_8_rows(self):
        # The beam's [n <= 5, V] log-softmax is one block; a [B, n, V]
        # input, whose leading index holds n rows, keeps one index a block.
        assert [T._row_block(n) for n in (0, 1, 5, 8, 64, 65, 522)] == [8, 8, 8, 8, 8, 9, 66]
        assert [T._row_block(8, rows) for rows in (0, 1, 5, 64)] == [8, 8, 2, 1]

    def test_log_softmax_forward_builds_one_output_sized_array(self):
        x = Tensor(np.random.default_rng(0).standard_normal((8, 64, 512)).astype(np.float32))
        # The output, plus one leading slice of exp() and the [8, 64, 1] sums.
        bound = x.data.nbytes + x.data.nbytes // 8 + _NUMPY_BUFFERS
        assert _traced_peak(T.log_softmax, x, -1) < bound

    @staticmethod
    def _loss_inputs(dtype):
        x, targets, weights = TestCrossEntropy._inputs((8, 64, 512), dtype)
        return Tensor(x, requires_grad=True), targets, weights

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cross_entropy_forward_builds_one_input_sized_array(self, dtype):
        x, targets, weights = self._loss_inputs(dtype)
        # The saved log-probabilities, plus one leading slice of exp() and
        # the [8, 64] per-position terms.
        bound = x.data.nbytes + x.data.nbytes // 8 + _NUMPY_BUFFERS
        assert _traced_peak(cross_entropy, x, targets, weights, 0.1) < bound

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("smoothing", [0.0, 0.1])
    def test_cross_entropy_backward_works_in_row_blocks(self, dtype, smoothing):
        x, targets, weights = self._loss_inputs(dtype)
        loss = cross_entropy(x, targets, weights, smoothing) / 3.0
        # The gradient is the saved log-probabilities, rewritten; the sweep
        # makes one block of an eighth of the rows and a dozen per-row
        # vectors at most.
        per_row = 12 * math.prod(x.shape[:-1]) * x.data.itemsize
        assert _traced_peak(backward, loss) < x.data.nbytes // 8 + per_row + _NUMPY_BUFFERS
        assert x.grad.shape == x.shape

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(8, 64, 32), (512, 32)], ids=["abs", "prefit"])
    def test_projected_cross_entropy_holds_no_logits(self, dtype, shape):
        r = np.random.default_rng(0)
        v, size = 2048, np.dtype(dtype).itemsize
        h = Tensor(r.standard_normal(shape).astype(dtype), requires_grad=True)
        table = Tensor((r.standard_normal((v, shape[-1])) * 0.1).astype(dtype), requires_grad=True)
        bias = Tensor(np.zeros(v, dtype), requires_grad=True) if len(shape) == 2 else None
        lead = shape[:-2] + (shape[-2] - 1,) if len(shape) > 2 else shape[:-1]
        targets, weights = r.integers(0, v, lead), np.ones(lead, dtype)

        def step(head):
            h.grad = table.grad = None
            backward(head(h, transpose(table), bias, targets, weights, 0.1))

        item = shape[-2] * v * size  # one item's logits: for a [n, d] h, all of them
        # One item's logits and an eighth of its rows, the table's gradient
        # and one item's product for it, and h's gradient.
        bound = item + item // 8 + 2 * table.data.nbytes + h.data.nbytes + _NUMPY_BUFFERS
        rows_by_vocab = math.prod(lead) * v * size
        assert _traced_peak(step, T.projected_cross_entropy) < bound
        # The chain held the logits, their log-probabilities and, for a
        # [B, n, d] h, narrow's gradient: more than the bound.
        assert _traced_peak(step, composed_head_loss) > bound + rows_by_vocab // 2
        if len(shape) > 2:
            assert bound < rows_by_vocab  # no [rows, V] array at all

    def test_feed_forward_keeps_no_hidden_array(self):
        *arrays, g = TestFeedForward._case(np.float32, (8, 64, 32), f=128)
        params = [Tensor(a, requires_grad=True) for a in arrays]
        g = Tensor(g)

        def step(block):
            for p in params:
                p.grad = None
            backward(tensor_sum(T.mul(block(*params, 0.1, True, np.random.default_rng(0)), g)))

        hidden = 8 * 64 * 128 * 4  # one [B, L, d_ff] float32 array
        # The chain keeps the gelu input, its tanh and the gelu output from
        # forward to backward; ff_block recomputes them item by item.
        assert _traced_peak(step, T.ff_block) + 2 * hidden < _traced_peak(step, composed_ff_block)

    def test_shared_weight_matmul_builds_no_stack(self):
        r = np.random.default_rng(0)
        x = Tensor(r.standard_normal((32, 4, 32)).astype(np.float32), requires_grad=True)
        w = Tensor(r.standard_normal((32, 64)).astype(np.float32), requires_grad=True)
        out = T.matmul(x, w)
        stack = 32 * w.data.nbytes  # the [B, d, V] products
        g = r.standard_normal(out.shape).astype(np.float32)
        assert _traced_peak(out._node._backward, g) < stack / 4

    def test_gelu_forward_makes_three_arrays(self):
        x = np.random.default_rng(0).standard_normal((256, 512)).astype(np.float32)
        # The output, the tanh, and 1 + tanh for the last product.
        assert _traced_peak(T._gelu_forward, x) <= 3 * x.nbytes + _NUMPY_BUFFERS

    @pytest.mark.parametrize("op, arrays", [(T.gelu, 2), (lambda a: T.log_softmax(a, -1), 1)],
                             ids=["gelu", "log_softmax"])
    def test_elementwise_backward_stays_within_its_buffers(self, op, arrays):
        r = np.random.default_rng(0)
        x = Tensor(r.standard_normal((256, 512)).astype(np.float32), requires_grad=True)
        out = op(x)
        g = r.standard_normal(out.shape).astype(np.float32)
        assert _traced_peak(out._node._backward, g) <= arrays * x.data.nbytes + _NUMPY_BUFFERS
