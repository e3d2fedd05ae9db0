"""Autodiff core: op gradients against central differences, RNG splitting."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumforge import tensor as T
from sumforge.errors import GraphCycle, InvalidAxis, NotScalar, ShapeMismatch
from sumforge.model import ModelConfig, abs_loss, build_abs_model
from sumforge.tensor import SplitRng, Tensor, backward, finite_diff_check


def t64(data, requires_grad=True) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


def rand64(rng, *shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True)


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
        a, b = t64([2.0, 4.0]), t64([1.0, 2.0])
        assert np.allclose((a + b).data, [3, 6])
        assert np.allclose((a - b).data, [1, 2])
        assert np.allclose((a * b).data, [2, 8])
        assert np.allclose((a / 2.0).data, [1, 2])
        assert np.allclose((-a).data, [-2, -4])
        assert np.allclose((1.0 - b).data, [0, -1])

    def test_matmul_operator(self):
        a = t64([[1.0, 2.0]])
        b = t64([[3.0], [4.0]])
        assert (a @ b).data.tolist() == [[11.0]]


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
        loss = T.tensor_sum(T.matmul(a, b))
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
        backward(T.tensor_sum(x * x))
        assert np.allclose(x.grad, 2.0 * x.data)

    def test_fan_out_accumulates(self):
        x = t64([1.0, 2.0])
        backward(T.tensor_sum(x) + T.tensor_sum(x))
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
        # Corrupt the graph on purpose; backward must refuse, not hang.
        a._parents = (b,)
        a._backward = lambda g: (g,)
        with pytest.raises(GraphCycle):
            backward(T.tensor_sum(b))

    def test_no_grad_leaves_untouched(self):
        x = t64([1.0, 2.0])
        c = Tensor([3.0, 4.0], requires_grad=False, dtype=np.float64)
        backward(T.tensor_sum(x * c))
        assert np.allclose(x.grad, c.data)
        assert c.grad is None

    def test_grad_not_double_counted_on_second_backward(self):
        x = t64([2.0])
        loss = T.tensor_sum(x * x)
        backward(loss)
        first = x.grad.copy()
        x.grad = None
        loss2 = T.tensor_sum(x * x)
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
        assert (x * 2.0).requires_grad

    def test_nested_contexts_restore_outer_mode(self):
        x = t64([1.0, 2.0])
        with T.no_grad():
            with T.no_grad():
                assert not (x * 2.0).requires_grad
            assert not (x * 2.0).requires_grad
        assert (x * 2.0).requires_grad

    def test_decorator_form(self):
        x = t64([1.0, 2.0])

        @T.no_grad()
        def double(t):
            return t * 2.0

        assert not double(x).requires_grad
        assert (x * 2.0).requires_grad


class TestFiniteDiffCheck:
    def test_quadratic_form_near_exact(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((4, 4))

        def f(params):
            (x,) = params
            col = T.reshape(x, (4, 1))
            return T.tensor_sum(T.matmul(T.transpose(col), T.matmul(t64(A, False), col)))

        err = finite_diff_check(f, [rand64(rng, 4)])
        assert err < 1e-8

    def test_linear_at_rounding_level(self):
        rng = np.random.default_rng(12)

        def f(params):
            return T.tensor_sum(params[0] * 3.0)

        assert finite_diff_check(f, [rand64(rng, 5)]) < 1e-9

    def test_softmax_cross_entropy_composite(self):
        rng = np.random.default_rng(13)
        labels = np.array([2, 0, 1])

        def f(params):
            logp = T.log_softmax(params[0], axis=-1)
            picked = T.take_along_last(logp, labels)
            return -T.tensor_mean(picked)

        assert finite_diff_check(f, [rand64(rng, 3, 4)]) < 1e-6

    def test_rejects_float32(self):
        x = Tensor(np.zeros(3, dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError):
            finite_diff_check(lambda p: T.tensor_sum(p[0]), [x])


def _fd(f, params, tol=1e-4):
    err = finite_diff_check(f, params)
    assert err < tol, f"finite-diff rel err {err:.3e} >= {tol}"


class TestPerOpGradients:
    """Every differentiable op against the central-difference oracle."""

    def setup_method(self):
        self.rng = np.random.default_rng(20240817)

    def test_add_broadcast(self):
        a, b = rand64(self.rng, 3, 4), rand64(self.rng, 4)
        _fd(lambda p: T.tensor_sum(T.add(p[0], p[1]) * T.add(p[0], p[1])), [a, b])

    def test_mul_broadcast(self):
        a, b = rand64(self.rng, 2, 3, 4), rand64(self.rng, 3, 1)
        _fd(lambda p: T.tensor_sum(T.mul(p[0], p[1])), [a, b])

    def test_div_by_scalar(self):
        a = rand64(self.rng, 3, 3)
        _fd(lambda p: T.tensor_sum(p[0] / 3.0), [a])

    def test_tensor_division_rejected(self):
        with pytest.raises(TypeError):
            rand64(self.rng, 2) / rand64(self.rng, 2)

    def test_neg(self):
        _fd(lambda p: T.tensor_sum(T.neg(p[0]) * 2.0), [rand64(self.rng, 4)])

    def test_matmul(self):
        a, b = rand64(self.rng, 3, 4), rand64(self.rng, 4, 2)
        _fd(lambda p: T.tensor_sum(T.matmul(p[0], p[1]) * T.matmul(p[0], p[1])), [a, b])

    def test_batched_matmul(self):
        a, b = rand64(self.rng, 2, 3, 4), rand64(self.rng, 2, 4, 2)
        _fd(lambda p: T.tensor_sum(T.matmul(p[0], p[1])), [a, b])

    def test_transpose(self):
        a, b = rand64(self.rng, 3, 4), rand64(self.rng, 3, 4)
        _fd(lambda p: T.tensor_sum(T.matmul(p[0], T.transpose(p[1]))), [a, b])

    def test_permute(self):
        a = rand64(self.rng, 2, 3, 4)
        _fd(lambda p: T.tensor_sum(T.permute(p[0], (2, 0, 1)) * 1.5), [a])

    def test_reshape(self):
        a = rand64(self.rng, 3, 4)
        _fd(lambda p: T.tensor_sum(T.reshape(p[0], (2, 6)) * T.reshape(p[0], (2, 6))), [a])

    def test_concat(self):
        a, b = rand64(self.rng, 2, 3), rand64(self.rng, 2, 3)

        def f(p):
            c = T.concat([p[0], p[1]], axis=1)
            return T.tensor_sum(c * c)

        _fd(f, [a, b])

    def test_narrow(self):
        a = rand64(self.rng, 4, 5)
        _fd(lambda p: T.tensor_sum(T.narrow(p[0], 1, 1, 3) * 2.0), [a])

    def test_sum_with_axis_keepdims(self):
        a = rand64(self.rng, 3, 4)
        _fd(lambda p: T.tensor_sum(T.tensor_sum(p[0], axis=1, keepdims=True) * p[0]), [a])

    def test_mean(self):
        a = rand64(self.rng, 3, 4)
        _fd(lambda p: T.tensor_mean(p[0] * p[0]), [a])

    def test_relu(self):
        a = rand64(self.rng, 4, 4)
        a.data += np.sign(a.data) * 0.1  # keep clear of the kink
        _fd(lambda p: T.tensor_sum(T.relu(p[0])), [a])

    def test_gelu(self):
        _fd(lambda p: T.tensor_sum(T.gelu(p[0])), [rand64(self.rng, 4, 4)])

    def test_sigmoid(self):
        _fd(lambda p: T.tensor_sum(T.sigmoid(p[0])), [rand64(self.rng, 3, 3)])

    def test_exp(self):
        _fd(lambda p: T.tensor_sum(T.exp(p[0])), [rand64(self.rng, 3, 3)])

    def test_log(self):
        a = rand64(self.rng, 3, 3)
        a.data = np.abs(a.data) + 0.5
        _fd(lambda p: T.tensor_sum(T.log(p[0])), [a])

    def test_clip_interior(self):
        a = rand64(self.rng, 4)
        a.data = np.clip(a.data, -0.8, 0.8)  # keep away from the clamp edges
        _fd(lambda p: T.tensor_sum(T.clip(p[0], -1.0, 1.0) * p[0]), [a])

    def test_softmax_grad(self):
        a = rand64(self.rng, 3, 5)
        w = self.rng.standard_normal((3, 5))
        _fd(lambda p: T.tensor_sum(T.softmax(p[0], axis=-1) * t64(w, False)), [a])

    def test_log_softmax_grad(self):
        a = rand64(self.rng, 3, 5)
        w = self.rng.standard_normal((3, 5))
        _fd(lambda p: T.tensor_sum(T.log_softmax(p[0], axis=-1) * t64(w, False)), [a])

    def test_layer_norm_grad_all_inputs(self):
        a = rand64(self.rng, 3, 6)
        gamma = Tensor(np.ones(6) + 0.1 * self.rng.standard_normal(6), requires_grad=True)
        beta = Tensor(0.1 * self.rng.standard_normal(6), requires_grad=True)
        w = self.rng.standard_normal((3, 6))
        _fd(
            lambda p: T.tensor_sum(T.layer_norm(p[0], p[1], p[2]) * t64(w, False)),
            [a, gamma, beta],
        )

    def test_masked_fill_grad(self):
        a = rand64(self.rng, 3, 4)
        mask = self.rng.random((3, 4)) < 0.4
        _fd(lambda p: T.tensor_sum(T.masked_fill(p[0], mask, -9.0) * 2.0), [a])

    def test_embedding_lookup_scatter_add(self):
        table = rand64(self.rng, 6, 3)
        ids = np.array([[0, 2, 2], [5, 0, 1]])
        _fd(lambda p: T.tensor_sum(T.embedding_lookup(p[0], ids) * 1.7), [table])

    def test_gather_positions_grad(self):
        a = rand64(self.rng, 2, 5, 3)
        pos = np.array([[0, 3], [4, 4]])
        _fd(lambda p: T.tensor_sum(T.gather_positions(p[0], pos) * 1.3), [a])

    def test_take_along_last_grad(self):
        a = rand64(self.rng, 3, 4)
        idx = np.array([1, 0, 3])
        _fd(lambda p: T.tensor_sum(T.take_along_last(p[0], idx) * 2.0), [a])

    def test_dropout_train_grad_with_fixed_mask(self):
        a = rand64(self.rng, 4, 4)

        def f(p):
            gen = SplitRng(99).child("drop").generator()
            return T.tensor_sum(T.dropout(p[0], 0.5, train=True, rng=gen))

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
        with pytest.raises(ValueError):
            T.dropout(t64([1.0]), 1.0, train=True)
        with pytest.raises(ValueError):
            T.dropout(t64([1.0]), -0.1, train=False)

    def test_train_mode_without_rng_rejected(self):
        with pytest.raises(ValueError):
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

    def test_clip_forward(self):
        out = T.clip(t64([-2.0, 0.5, 2.0]), -1.0, 1.0)
        assert out.data.tolist() == [-1.0, 0.5, 1.0]

    def test_clip_grad_zero_outside_range(self):
        x = t64([-2.0, 0.5, 2.0])
        backward(T.tensor_sum(T.clip(x, -1.0, 1.0)))
        assert x.grad.tolist() == [0.0, 1.0, 0.0]

    def test_relu_forward(self):
        assert T.relu(t64([-1.0, 0.0, 2.0])).data.tolist() == [0.0, 0.0, 2.0]

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
        backward(T.tensor_sum(out))
        assert table.grad.tolist() == [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]]

    def test_gather_positions_forward(self):
        x = t64(np.arange(24.0).reshape(2, 4, 3))
        out = T.gather_positions(x, np.array([[0, 2], [3, 3]]))
        assert out.data[0, 1].tolist() == [6.0, 7.0, 8.0]
        assert out.data[1, 0].tolist() == [21.0, 22.0, 23.0]

    def test_concat_forward_and_narrow_inverse(self):
        a, b = t64([[1.0, 2.0]]), t64([[3.0, 4.0]])
        c = T.concat([a, b], axis=0)
        assert c.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert T.narrow(c, 0, 1, 1).data.tolist() == [[3.0, 4.0]]


# --- fused attention and graph consumption ---

def _composed_attention(q, k, v, mask, p, train, rng):
    """The unfused chain that `attention` must reproduce bit for bit."""
    scores = T.mul(T.matmul(q, T.transpose(k)), 1.0 / np.sqrt(k.shape[-1]))
    if mask is not None:
        scores = T.masked_fill(scores, mask, T.NEG_INF)
    probs = T.dropout(T.softmax(scores, axis=-1), p, train, rng)
    return T.matmul(probs, v)


def _attention_case(kind, dtype=np.float32, seed=0):
    """q [B,h,Lq,dk], k/v [B or 1,h,Lk,dk], an upstream gradient and a mask.
    The padding mask hides every key of the first example, so its rows are
    uniform and only the mask keeps their score gradients at zero."""
    r = np.random.default_rng(seed)
    b, kv_b, h, lq, lk, dk = 3, 3, 2, 6, 6, 4
    if kind == "cross1":  # decode_step: n hypotheses over one document's k/v
        b, kv_b, lq, lk = 4, 1, 1, 7
    q = r.standard_normal((b, h, lq, dk)).astype(dtype)
    k = r.standard_normal((kv_b, h, lk, dk)).astype(dtype)
    v = r.standard_normal((kv_b, h, lk, dk)).astype(dtype)
    g = r.standard_normal((b, h, lq, dk)).astype(dtype)
    mask = {
        "none": None,
        "padding": (r.random((b, 1, 1, lk)) < 0.3) | (np.arange(b) == 0)[:, None, None, None],
        "causal": np.triu(np.ones((lq, lk), dtype=bool), k=1)[None, None],
        "cross1": r.random((1, 1, 1, lk)) < 0.3,
    }[kind]
    return q, k, v, g, mask


def _run_attention(fn, q, k, v, g, mask, train):
    ts = [Tensor(x.copy(), requires_grad=True) for x in (q, k, v)]
    out = fn(*ts, mask, 0.25, train, np.random.default_rng(5))
    backward(T.tensor_sum(T.mul(out, Tensor(g))))
    return [out.data] + [t.grad for t in ts]


def _reference_backward(loss):
    """The sweep before graph consumption, in the same visiting order: keeps
    every node and copies each first gradient."""
    seen: set[int] = set()
    topo: list[Tensor] = []
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        stack.extend((p, False) for p in node._parents if p.requires_grad and id(p) not in seen)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is None or node.grad is None:
            continue
        for parent, g in zip(node._parents, node._backward(node.grad)):
            if g is None or not parent.requires_grad:
                continue
            if parent.grad is None:
                parent.grad = g.astype(parent.dtype, copy=True)
            else:
                parent.grad = parent.grad + g


def _graph_nodes(loss):
    nodes, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(p for p in node._parents if p.requires_grad)
    return nodes


class TestAttention:
    @pytest.mark.parametrize("kind", ["none", "padding", "causal", "cross1"])
    @pytest.mark.parametrize("train", [False, True])
    def test_bitwise_equal_to_composed_chain(self, kind, train):
        case = _attention_case(kind)
        fused = _run_attention(T.attention, *case, train)
        composed = _run_attention(_composed_attention, *case, train)
        for name, a, b in zip(("out", "dq", "dk", "dv"), fused, composed):
            assert a.dtype == b.dtype == np.float32, name
            assert a.shape == b.shape, name
            assert np.array_equal(a, b), name
            assert np.array_equal(np.signbit(a), np.signbit(b)), name

    def test_dropout_draws_the_same_stream_as_dropout(self):
        q, k, v, g, mask = _attention_case("padding")
        rng = np.random.default_rng(9)
        T.attention(Tensor(q), Tensor(k), Tensor(v), mask, 0.5, True, rng)
        ref = np.random.default_rng(9)
        ref.random((q.shape[0], q.shape[1], q.shape[2], k.shape[2]))
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("kind", ["padding", "causal", "cross1"])
    @pytest.mark.parametrize("train", [False, True])
    def test_finite_differences_float64(self, kind, train):
        q, k, v, g, mask = _attention_case(kind, np.float64, seed=1)
        w = Tensor(g)

        def f(params):
            # A fresh generator per call: every evaluation drops the same entries.
            out = T.attention(*params, mask, 0.25, train, np.random.default_rng(3))
            return T.tensor_sum(T.mul(out, w))

        params = [Tensor(x, requires_grad=True) for x in (q, k, v)]
        _fd(f, params, tol=1e-6)

    def test_keeps_only_probabilities_and_keep_mask(self):
        q, k, v, _, mask = _attention_case("padding")
        ts = [Tensor(x, requires_grad=True) for x in (q, k, v)]
        out = T.attention(*ts, mask, 0.25, True, np.random.default_rng(0))
        assert out._parents == tuple(ts)
        held = [c.cell_contents for c in out._backward.__closure__]
        score_shape = (q.shape[0], q.shape[1], q.shape[2], k.shape[2])
        big = [x for x in held if isinstance(x, np.ndarray) and x.shape == score_shape]
        assert sorted(x.dtype.name for x in big) == ["bool", "float32"]

    def test_shape_errors(self):
        q, k, v, _, mask = _attention_case("padding")
        with pytest.raises(ShapeMismatch):
            T.attention(Tensor(q), Tensor(k[..., :3]), Tensor(v), mask, 0.0, False)
        with pytest.raises(ShapeMismatch):
            T.attention(Tensor(q), Tensor(k), Tensor(v[:, :, :2]), mask, 0.0, False)
        with pytest.raises(ShapeMismatch):
            T.attention(Tensor(q), Tensor(k), Tensor(v), np.zeros((2, 1, 1, 6), bool), 0.0, False)

    def test_bad_dropout_arguments(self):
        q, k, v, _, _ = _attention_case("none")
        with pytest.raises(ValueError):
            T.attention(Tensor(q), Tensor(k), Tensor(v), None, 1.0, False)
        with pytest.raises(ValueError):
            T.attention(Tensor(q), Tensor(k), Tensor(v), None, 0.1, True, None)


def _small_model_loss(seed=0):
    cfg = ModelConfig(vocab_size=30, d_model=8, n_heads=2, d_ff=16,
                      n_enc_layers=1, n_dec_layers=1, max_positions=16, dropout=0.2)
    model = build_abs_model(cfg, seed=seed)
    r = np.random.default_rng(seed)
    src = r.integers(7, 30, (2, 9))
    pad = np.zeros((2, 9), dtype=bool)
    pad[1, 6:] = True
    tgt = r.integers(7, 30, (2, 5))
    logits = model.forward_logits(src, np.zeros_like(src), pad, tgt,
                                  train=True, rng=np.random.default_rng(seed))
    return model.parameters(), abs_loss(logits, tgt, np.zeros(tgt.shape, dtype=bool))


class TestGraphConsumption:
    def test_inner_nodes_freed_and_leaf_grads_unchanged(self):
        params, loss = _small_model_loss()
        _reference_backward(loss)
        expected = {name: p.grad for name, p in params.items()}

        params, loss = _small_model_loss()
        inner = [n for n in _graph_nodes(loss) if n._backward is not None]
        assert len(inner) > 50
        backward(loss)
        for node in inner:
            assert node.grad is None
            assert node._parents == ()
        for name, p in params.items():
            assert p.requires_grad
            assert np.array_equal(p.grad, expected[name]), name

    def test_second_backward_raises(self):
        x = t64([1.0, 2.0])
        loss = T.tensor_sum(x * x)
        backward(loss)
        with pytest.raises(ValueError, match="consumed"):
            backward(loss)
        assert x.grad.tolist() == [2.0, 4.0]

    def test_loss_sharing_a_consumed_node_raises(self):
        # The shared node must not be skipped as if it were a constant:
        # that would leave x without the gradient that flows through h.
        x = t64([1.0, 2.0])
        h = x * x
        backward(T.tensor_sum(h))
        x.grad = None
        with pytest.raises(ValueError, match="consumed"):
            backward(T.tensor_sum(h * 2.0) + T.tensor_sum(x))
        assert x.grad is None

    def test_log_softmax_grad_bitwise_old_formula(self):
        r = np.random.default_rng(4)
        a = Tensor(r.standard_normal((3, 7, 11)).astype(np.float32), requires_grad=True)
        g = r.standard_normal((3, 7, 11)).astype(np.float32)
        out = T.log_softmax(a, axis=-1)
        expected = g - np.exp(out.data) * g.sum(axis=-1, keepdims=True)
        backward(T.tensor_sum(T.mul(out, Tensor(g))))
        assert np.array_equal(a.grad, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
    def test_dropout_keep_factor_bitwise_old_formula(self, dtype, p):
        shape = (4, 5, 6)
        out = T.dropout(Tensor(np.ones(shape, dtype)), p, True, np.random.default_rng(8))
        r = np.random.default_rng(8).random(shape)
        expected = ((r >= p) / (1 - p)).astype(dtype)
        assert out.dtype == dtype
        assert np.array_equal(out.data, expected)
