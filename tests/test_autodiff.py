"""Tests for the reverse-mode autodiff engine.

Derived expectations are computed by independent oracles: central finite
differences for gradients, direct formula evaluation for batch norm and the
losses, and Monte-Carlo estimation for dropout.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdrpipe import autodiff as ad
from cdrpipe.model import ModelConfig, init_params
from oracles import propagate, sum_all


def scalar(t):
    return float(t.data.reshape(-1)[0])


class TestMatmul:
    def test_identity(self):
        a = ad.Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = ad.Tensor([[3.0, 4.0], [5.0, 6.0]])
        out = ad.matmul(None, a, b)
        np.testing.assert_array_equal(out.data, b.data)

    def test_hand_product(self):
        out = ad.matmul(None, ad.Tensor([[1.0, 2.0]]), ad.Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 3\)"):
            ad.matmul(None, ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_matches_finite_differences(self, seed):
        """d sum(a @ b) / da checked against the central-difference oracle."""
        rng = np.random.default_rng(seed)
        b = ad.Tensor(rng.normal(size=(3, 3)))

        def f(tape, a):
            return sum_all(tape, ad.matmul(tape, a, b))

        err = ad.finite_diff_check(f, ad.Tensor(rng.normal(size=(3, 3))), epsilon=1e-5)
        assert err < 1e-4

    def test_gradient_wrt_right_operand(self):
        rng = np.random.default_rng(7)
        a = ad.Tensor(rng.normal(size=(2, 4)))

        def f(tape, b):
            return sum_all(tape, ad.matmul(tape, a, b))

        assert ad.finite_diff_check(f, ad.Tensor(rng.normal(size=(4, 3)))) < 1e-4


class TestElementwise:
    def test_relu(self):
        out = ad.relu(None, ad.Tensor([-1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    @pytest.mark.parametrize("op", ["relu", "dropout"])
    @pytest.mark.parametrize("seed", range(3))
    def test_gradients(self, op, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(3, 4))
        x = np.sign(x) * (np.abs(x) + 0.2)  # keep inputs away from the relu kink
        ops = {
            "relu": ad.relu,
            "dropout": lambda tape, t: ad.dropout(tape, t, 0.4, "train",
                                                  np.random.default_rng(seed)),
        }

        def f(tape, t):
            return sum_all(tape, ops[op](tape, t))

        assert ad.finite_diff_check(f, ad.Tensor(x)) < 1e-4


class TestMul:
    def test_hand_products(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ad.mul(None, a, a).data, [[1.0, 4.0], [9.0, 16.0]])
        np.testing.assert_array_equal(ad.mul(None, a, ad.Tensor([[2.0, -1.0]])).data,
                                      [[2.0, -2.0], [6.0, -4.0]])

    def test_a_row_scale_gradient_sums_over_the_rows(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        s = ad.Tensor([[2.0, -1.0]], requires_grad=True)
        tape = ad.Tape()
        ga, gs = ad.backward(tape, sum_all(tape, ad.mul(tape, a, s)), [a, s])
        np.testing.assert_array_equal(ga, [[2.0, -1.0], [2.0, -1.0]])
        np.testing.assert_array_equal(gs, [[4.0, 6.0]])

    @pytest.mark.parametrize("op", [ad.add, ad.mul])
    @pytest.mark.parametrize("shapes", [((2, 3), (3, 2)), ((2, 3), (2, 1)), ((2, 3), (1, 2)),
                                        ((1, 3), (2, 3))])
    def test_a_shape_mismatch_names_both_shapes(self, op, shapes):
        """Only equal shapes, or one row of a's width as b, are accepted."""
        a, b = (ad.Tensor(np.ones(shape)) for shape in shapes)
        symbol = {"add": "+", "mul": "*"}[op.__name__]
        with pytest.raises(ValueError) as raised:
            op(None, a, b)
        assert str(raised.value) == (f"{op.__name__} shape mismatch: {shapes[0]} {symbol} "
                                     f"{shapes[1]}")


class TestRowSlice:
    def test_rows_are_a_view(self):
        x = ad.Tensor(np.arange(12.0).reshape(4, 3))
        out = ad.row_slice(None, x, 1, 3)
        np.testing.assert_array_equal(out.data, [[3.0, 4.0, 5.0], [6.0, 7.0, 8.0]])
        assert np.shares_memory(out.data, x.data) and out.data.flags.c_contiguous

    def test_gradient_is_zero_outside_the_rows(self):
        tape = ad.Tape()
        x = ad.Tensor(np.ones((4, 2)), requires_grad=True)
        out = ad.row_slice(tape, x, 1, 3)
        (gx,) = ad.backward(tape, sum_all(tape, out), [x])
        np.testing.assert_array_equal(gx, [[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])

    def test_two_slices_of_one_weight_sum_their_gradients(self):
        """The head's split: [a ; b] W = a W_top + b W_bottom, so W's
        gradient stacks the two halves' gradients."""
        rng = np.random.default_rng(1)
        a, b = ad.Tensor(rng.normal(size=(2, 2))), ad.Tensor(rng.normal(size=(2, 3)))
        tape = ad.Tape()
        w = ad.Tensor(rng.normal(size=(5, 1)), requires_grad=True)
        out = ad.add(tape, ad.matmul(tape, a, ad.row_slice(tape, w, 0, 2)),
                     ad.matmul(tape, b, ad.row_slice(tape, w, 2, 5)))
        (gw,) = ad.backward(tape, sum_all(tape, out), [w])
        np.testing.assert_array_equal(gw, np.concatenate([a.data, b.data], axis=1)
                                      .sum(axis=0)[:, None])

    @pytest.mark.parametrize("start, stop", [(-1, 2), (2, 1), (0, 5)])
    def test_rows_outside_the_matrix_are_rejected(self, start, stop):
        with pytest.raises(ValueError, match=rf"rows {start}:{stop} of shape \(4, 2\)"):
            ad.row_slice(None, ad.Tensor(np.ones((4, 2))), start, stop)


class TestGatherRows:
    def test_gather_and_split_gradient(self):
        tape = ad.Tape()
        x = ad.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        out = ad.gather_rows(tape, x, [1, 0])
        np.testing.assert_array_equal(out.data, [[3.0, 4.0], [1.0, 2.0]])
        (gx,) = ad.backward(tape, sum_all(tape, out), [x])
        np.testing.assert_array_equal(gx, [[1.0, 1.0], [1.0, 1.0]])

    def test_repeated_row_accumulates(self):
        tape = ad.Tape()
        x = ad.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        out = ad.gather_rows(tape, x, [0, 0, 0])
        (gx,) = ad.backward(tape, sum_all(tape, out), [x])
        np.testing.assert_array_equal(gx, [[3.0, 3.0], [0.0, 0.0]])


class TestPropagate:
    """The reference propagation that graph_conv is checked against."""

    def test_equals_the_block_diagonal_product(self):
        rng = np.random.default_rng(0)
        blocks = [rng.normal(size=(n, n)) for n in (3, 1, 4)]
        x = rng.normal(size=(8, 5))
        dense = np.zeros((8, 8))
        dense[:3, :3], dense[3:4, 3:4], dense[4:, 4:] = blocks
        out = propagate(None, blocks, ad.Tensor(x))
        np.testing.assert_allclose(out.data, dense @ x, atol=1e-14)

    def test_blocks_must_tile_the_rows(self):
        with pytest.raises(ValueError, match="do not tile 5 rows"):
            propagate(None, [np.eye(2), np.eye(2)], ad.Tensor(np.zeros((5, 3))))
        with pytest.raises(ValueError, match="do not tile"):
            propagate(None, [np.zeros((2, 3))], ad.Tensor(np.zeros((2, 3))))

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        blocks = [rng.normal(size=(n, n)) for n in (2, 1, 3)]  # not symmetric
        target = ad.Tensor(rng.normal(size=(6, 4)))

        def f(tape, t):
            return ad.loss(tape, propagate(tape, blocks, t), target)

        assert ad.finite_diff_check(f, ad.Tensor(rng.normal(size=(6, 4)))) < 1e-4


class TestGraphConv:
    @staticmethod
    def case(seed, sizes=(2, 1, 3)):
        rng = np.random.default_rng(seed)
        n = sum(sizes)
        blocks = [rng.normal(size=(k, k)) for k in sizes]
        return (blocks, rng.normal(size=(n, 4)), rng.normal(size=(4, 5)),
                rng.normal(size=(1, 5)))

    def test_equals_the_dense_layer(self):
        blocks, x, w, b = self.case(0)
        dense = np.zeros((6, 6))
        dense[:2, :2], dense[2:3, 2:3], dense[3:, 3:] = blocks
        w_t, b_t = ad.Tensor(w), ad.Tensor(b)
        out = ad.graph_conv(None, ad.Tensor(x), w_t, b_t, blocks)
        np.testing.assert_allclose(out.data, np.maximum(dense @ x @ w + b, 0.0), atol=1e-13)
        plain = ad.graph_conv(None, ad.Tensor(x), w_t, b_t)
        np.testing.assert_allclose(plain.data, np.maximum(x @ w + b, 0.0), atol=1e-13)

    @pytest.mark.parametrize("with_blocks", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_bytes_of_the_unfused_ops(self, seed, with_blocks):
        """Value and gradients equal matmul, propagate, add and relu recorded
        one by one, byte for byte."""
        blocks, *arrays = self.case(seed)
        blocks = blocks if with_blocks else None
        target = ad.Tensor(np.random.default_rng(seed + 10).normal(size=(6, 5)))

        def run(layer):
            x, w, b = (ad.Tensor(a.copy(), requires_grad=True) for a in arrays)
            tape = ad.Tape()
            out = layer(tape, x, w, b)
            grads = ad.backward(tape, ad.loss(tape, out, target), [x, w, b])
            return [a.tobytes() for a in (out.data, *grads)]

        def unfused(tape, x, w, b):
            h = ad.matmul(tape, x, w)
            if blocks is not None:
                h = propagate(tape, blocks, h)
            return ad.relu(tape, ad.add(tape, h, b))

        assert run(lambda tape, x, w, b: ad.graph_conv(tape, x, w, b, blocks)) == run(unfused)

    def test_a_constant_input_gets_no_gradient_work(self):
        blocks, x, w, b = self.case(1)
        tape = ad.Tape()
        ad.graph_conv(tape, ad.Tensor(x), ad.Tensor(w, requires_grad=True),
                      ad.Tensor(b, requires_grad=True), blocks)
        gx, gw, gb = tape.nodes[0].backward_fn(np.ones((6, 5)))
        assert gx is None and gw.shape == (4, 5) and gb.shape == (1, 5)

    def test_shape_errors(self):
        blocks, x, w, b = self.case(2)
        with pytest.raises(ValueError, match="shape mismatch"):
            ad.graph_conv(None, ad.Tensor(x), ad.Tensor(w.T), ad.Tensor(b))
        with pytest.raises(ValueError, match="bias of shape"):
            ad.graph_conv(None, ad.Tensor(x), ad.Tensor(w), ad.Tensor(b.T))
        with pytest.raises(ValueError, match="do not tile 6 rows"):
            ad.graph_conv(None, ad.Tensor(x), ad.Tensor(w), ad.Tensor(b), blocks[:2])
        with pytest.raises(ValueError, match="do not tile 6 rows"):  # a block not square
            ad.graph_conv(None, ad.Tensor(x), ad.Tensor(w), ad.Tensor(b),
                          [blocks[0], np.zeros((4, 3))])


class TestSegmentMax:
    def test_columnwise_max(self):
        x = ad.Tensor([[1.0, 5.0], [3.0, 2.0], [-1.0, -4.0], [0.0, 7.0], [-2.0, -3.0]])
        out = ad.segment_max(None, x, [2, 1, 2])
        np.testing.assert_array_equal(out.data, [[3.0, 5.0], [-1.0, -4.0], [0.0, 7.0]])

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            ad.segment_max(None, ad.Tensor(np.zeros((2, 3))), [2, 0])
        with pytest.raises(ValueError, match="at least one row"):
            ad.segment_max(None, ad.Tensor(np.zeros((2, 3))), [1, 2])

    def test_tie_gradient_goes_to_first_row(self):
        tape = ad.Tape()
        x = ad.Tensor([[9.0, 9.0], [1.0, 5.0], [1.0, 2.0]], requires_grad=True)
        (gx,) = ad.backward(tape, sum_all(tape, ad.segment_max(tape, x, [1, 2])), [x])
        np.testing.assert_array_equal(gx, [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)

        def f(tape, t):
            return sum_all(tape, ad.segment_max(tape, t, [1, 3, 2]))

        # distinct entries keep the argmax stable under the probe epsilon
        x = rng.permutation(np.linspace(-2.0, 2.0, 30)).reshape(6, 5)
        assert ad.finite_diff_check(f, ad.Tensor(x)) < 1e-4


class TestBatchNorm:
    def test_train_normalizes_two_rows(self):
        """Direct formula oracle: (x - mean) / sqrt(var + eps)."""
        st = ad.BatchNormState(1)
        out = ad.batch_norm(ad.Tape(), ad.Tensor([[1.0], [3.0]]), st, "train")
        expected = (np.array([[1.0], [3.0]]) - 2.0) / np.sqrt(1.0 + st.eps)
        np.testing.assert_allclose(out.data, expected, rtol=1e-12)

    def test_eval_with_unit_stats_is_identity(self):
        st = ad.BatchNormState(3)
        x = np.array([[0.5, -1.0, 2.0]])
        out = ad.batch_norm(ad.Tape(), ad.Tensor(x), st, "eval")
        np.testing.assert_allclose(out.data, x, atol=1e-5)

    def test_train_needs_two_rows(self):
        with pytest.raises(ValueError, match="batch of >= 2"):
            ad.batch_norm(ad.Tape(), ad.Tensor([[1.0]]), ad.BatchNormState(1), "train")

    def test_running_stats_updated_with_momentum(self):
        st = ad.BatchNormState(1)
        ad.batch_norm(ad.Tape(), ad.Tensor([[1.0], [3.0]]), st, "train")
        np.testing.assert_allclose(st.running_mean, [0.99 * 0.0 + 0.01 * 2.0])
        np.testing.assert_allclose(st.running_var, [0.99 * 1.0 + 0.01 * 1.0])

    @pytest.mark.parametrize("seed", range(3))
    def test_train_column_statistics(self, seed):
        """Before scale/shift, each column has mean ~0 and variance ~1."""
        rng = np.random.default_rng(seed)
        st = ad.BatchNormState(3)
        x = ad.Tensor(rng.normal(2.0, 3.0, size=(16, 3)))
        out = ad.batch_norm(ad.Tape(), x, st, "train")
        assert np.all(np.abs(out.data.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(out.data.var(axis=0) - 1.0) < 1e-4)

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_wrt_input(self, mode, seed):
        # a fixed target breaks the symmetry that makes d(sum)/dx vanish in train mode
        rng = np.random.default_rng(seed)
        st = ad.BatchNormState(3)
        st.gamma.data[:] = rng.normal(size=(1, 3))
        st.beta.data[:] = rng.normal(size=(1, 3))
        st.running_mean[:] = rng.normal(size=3)
        st.running_var[:] = rng.uniform(0.5, 2.0, size=3)
        target = ad.Tensor(rng.normal(size=(4, 3)))

        def f(tape, t):
            return ad.loss(tape, ad.batch_norm(tape, t, st, mode), target)

        assert ad.finite_diff_check(f, ad.Tensor(rng.normal(size=(4, 3)))) < 1e-4

    def test_gradient_wrt_scale_and_shift(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(5, 3))
        u = rng.normal(size=(1, 5))
        w = rng.normal(size=(3, 1))
        st = ad.BatchNormState(3)
        tape = ad.Tape()
        out = ad.batch_norm(tape, ad.Tensor(x), st, "train")
        g_gamma, g_beta = ad.backward(
            tape, ad.matmul(tape, ad.matmul(tape, ad.Tensor(u), out), ad.Tensor(w)),
            [st.gamma, st.beta])
        xhat = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + st.eps)
        expected_gamma = (u.T * xhat * w.T).sum(axis=0, keepdims=True)
        expected_beta = (u.T * w.T * np.ones_like(x)).sum(axis=0, keepdims=True)
        np.testing.assert_allclose(g_gamma, expected_gamma, atol=1e-12)
        np.testing.assert_allclose(g_beta, expected_beta, atol=1e-12)


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = ad.Tensor([[1.0, -2.0]])
        for mode in ("train", "eval"):
            assert ad.dropout(None, x, 0.0, mode, np.random.default_rng(0)) is x

    def test_eval_is_identity(self):
        x = ad.Tensor([[1.0, -2.0]])
        assert ad.dropout(None, x, 0.5, "eval") is x

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError, match="rate"):
            ad.dropout(None, ad.Tensor([1.0]), 1.0, "train", np.random.default_rng(0))

    def test_preserves_expectation(self):
        """Monte-Carlo oracle: the empirical mean over 1e5 draws stays within
        3 standard errors of the input value."""
        n, rate, value = 100_000, 0.3, 2.0
        out = ad.dropout(None, ad.Tensor(np.full(n, value)), rate, "train",
                         np.random.default_rng(42))
        se = np.sqrt(value**2 * rate / (1.0 - rate) / n)
        assert abs(out.data.mean() - value) < 3.0 * se

    def test_seeded_draws_reproduce(self):
        x = ad.Tensor(np.linspace(0.0, 1.0, 50))
        a = ad.dropout(None, x, 0.4, "train", np.random.default_rng(9))
        b = ad.dropout(None, x, 0.4, "train", np.random.default_rng(9))
        np.testing.assert_array_equal(a.data, b.data)

    def test_gradient_uses_same_mask(self):
        tape = ad.Tape()
        x = ad.Tensor(np.ones((1, 8)), requires_grad=True)
        out = ad.dropout(tape, x, 0.5, "train", np.random.default_rng(3))
        (gx,) = ad.backward(tape, sum_all(tape, out), [x])
        np.testing.assert_array_equal(gx, np.where(out.data > 0, 2.0, 0.0))


class TestLoss:
    def test_mse_zero_at_perfect_prediction(self):
        t = ad.Tensor([[1.0], [2.0]])
        assert scalar(ad.loss(None, t, ad.Tensor(t.data.copy()))) == 0.0

    def test_mse_hand_value(self):
        assert scalar(ad.loss(None, ad.Tensor([[0.0]]), ad.Tensor([[2.0]]))) == 4.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            ad.loss(None, ad.Tensor([[1.0]]), ad.Tensor([[1.0], [2.0]]))

    def test_gradients(self):
        rng = np.random.default_rng(5)
        pred = rng.normal(size=(4, 1))
        target = ad.Tensor(rng.normal(size=(4, 1)))

        def f(tape, t):
            return ad.loss(tape, t, target)

        assert ad.finite_diff_check(f, ad.Tensor(pred)) < 1e-4


class TestBackward:
    def test_square_derivative(self):
        """d(x^2)/dx at x=3 is 6, via mse(x, 0) = x^2."""
        tape = ad.Tape()
        x = ad.Tensor([[3.0]], requires_grad=True)
        (gx,) = ad.backward(tape, ad.loss(tape, x, ad.Tensor([[0.0]])), [x])
        np.testing.assert_allclose(gx, [[6.0]])

    def test_non_scalar_loss_rejected(self):
        tape = ad.Tape()
        x = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        out = ad.relu(tape, x)
        with pytest.raises(ValueError, match="scalar"):
            ad.backward(tape, out, [x])

    @pytest.mark.parametrize("seed", range(5))
    def test_chain_matches_finite_differences(self, seed):
        """matmul -> relu -> mse, gradient wrt the weight matrix."""
        rng = np.random.default_rng(seed)
        x = ad.Tensor(np.sign(rng.normal(size=(4, 3))) * rng.uniform(0.2, 1.0, (4, 3)))
        target = ad.Tensor(rng.normal(size=(4, 2)))

        def f(tape, w):
            return ad.loss(tape, ad.relu(tape, ad.matmul(tape, x, w)), target)

        w0 = np.sign(rng.normal(size=(3, 2))) * rng.uniform(0.2, 1.0, (3, 2))
        assert ad.finite_diff_check(f, ad.Tensor(w0)) < 1e-4

    def test_shared_input_accumulates_both_paths(self):
        # loss = sum(x @ a + x @ b): dx = column sums of a plus b
        tape = ad.Tape()
        x = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        a = ad.Tensor([[1.0], [2.0]])
        b = ad.Tensor([[10.0], [20.0]])
        total = ad.add(tape, ad.matmul(tape, x, a), ad.matmul(tape, x, b))
        (gx,) = ad.backward(tape, sum_all(tape, total), [x])
        np.testing.assert_allclose(gx, [[11.0, 22.0]])

    def test_operation_output_gets_its_gradient(self):
        # h = 3w = 6, loss = h^2 = 36: dh = 2h = 12, dw = 3 * 12 = 36
        tape = ad.Tape()
        w = ad.Tensor([[2.0]], requires_grad=True)
        h = ad.matmul(tape, ad.Tensor([[3.0]]), w)
        gh, gw = ad.backward(tape, ad.loss(tape, h, ad.Tensor([[0.0]])), [h, w])
        np.testing.assert_array_equal(gh, [[12.0]])
        np.testing.assert_array_equal(gw, [[36.0]])

    def test_operation_output_gradient_matches_finite_differences(self):
        """The gradient at a hidden layer equals that of the rest of the chain
        taken as a function of the hidden layer, checked numerically."""
        rng = np.random.default_rng(4)
        x = ad.Tensor(rng.uniform(0.2, 1.0, (4, 3)))
        v = ad.Tensor(rng.normal(size=(2, 1)))
        target = ad.Tensor(rng.normal(size=(4, 1)))

        def rest(tape, hidden):
            return ad.loss(tape, ad.matmul(tape, hidden, v), target)

        tape = ad.Tape()
        w = ad.Tensor(rng.uniform(0.2, 1.0, (3, 2)), requires_grad=True)
        hidden = ad.relu(tape, ad.matmul(tape, x, w))
        (g_hidden,) = ad.backward(tape, rest(tape, hidden), [hidden])
        at_leaf = ad.Tensor(hidden.data.copy(), requires_grad=True)
        leaf_tape = ad.Tape()
        (expected,) = ad.backward(leaf_tape, rest(leaf_tape, at_leaf), [at_leaf])
        np.testing.assert_array_equal(g_hidden, expected)
        assert ad.finite_diff_check(rest, ad.Tensor(hidden.data)) < 1e-6


class TestNoTape:
    """An operation given the tape ``None`` computes the value it would
    record, records nothing, and its output requires no gradient."""

    OPS = {
        "matmul": lambda tape, x: ad.matmul(tape, x, ad.Tensor(np.ones((3, 2)))),
        "add": lambda tape, x: ad.add(tape, x, x),
        "mul": lambda tape, x: ad.mul(tape, x, x),
        "relu": ad.relu,
        "row_slice": lambda tape, x: ad.row_slice(tape, x, 1, 3),
        "graph_conv": lambda tape, x: ad.graph_conv(tape, x, ad.Tensor(np.ones((3, 2))),
                                                    ad.Tensor(np.zeros((1, 2)))),
        "graph_conv_blocks": lambda tape, x: ad.graph_conv(
            tape, x, ad.Tensor(np.ones((3, 2))), ad.Tensor(np.zeros((1, 2))),
            [np.eye(1), np.full((2, 2), 0.5)]),
        "segment_max": lambda tape, x: ad.segment_max(tape, x, [1, 2]),
        "gather_rows": lambda tape, x: ad.gather_rows(tape, x, [2, 0, 2]),
        "batch_norm": lambda tape, x: ad.batch_norm(tape, x, ad.BatchNormState(3), "train"),
        "dropout": lambda tape, x: ad.dropout(tape, x, 0.5, "train", np.random.default_rng(0)),
        "loss": lambda tape, x: ad.loss(tape, x, ad.Tensor(np.zeros((3, 3)))),
    }

    @pytest.mark.parametrize("name", sorted(OPS))
    def test_an_op_without_a_tape_evaluates_and_records_nothing(self, name):
        x = ad.Tensor(np.random.default_rng(0).normal(size=(3, 3)), requires_grad=True)
        tape = ad.Tape()
        recorded = self.OPS[name](tape, x)
        evaluated = self.OPS[name](None, x)
        assert recorded.requires_grad and len(tape.nodes) == 1
        assert not evaluated.requires_grad
        np.testing.assert_array_equal(evaluated.data, recorded.data)


def textbook_moments(m, v, g):
    """Adam's moment updates, written out with fresh arrays."""
    return 0.9 * m + (1.0 - 0.9) * g, 0.999 * v + (1.0 - 0.999) * (g * g)


def folded_update(p, m, v, t, lr):
    """The parameter update with the bias corrections folded into the step
    size and epsilon, written out with fresh arrays in adam_step's order."""
    root_bc2 = math.sqrt(1.0 - 0.999 ** t)
    step_size = lr * root_bc2 / (1.0 - 0.9 ** t)
    return p - (m / (np.sqrt(v) + 1e-8 * root_bc2)) * step_size


def unfolded_update(p, m, v, t, lr):
    """The textbook parameter update from bias-corrected moments."""
    m_hat = m / (1.0 - 0.9 ** t)
    v_hat = v / (1.0 - 0.999 ** t)
    return p - lr * m_hat / (np.sqrt(v_hat) + 1e-8)


def assert_near_the_unfolded_update(new_p, p, m, v, t, lr):
    """new_p, one step on from p with the moments m and v, lies within
    1e-14 times the textbook step, plus two units in the last place, of the
    textbook update."""
    ref = unfolded_update(p, m, v, t, lr)
    slack = 1e-14 * np.abs(ref - p) + 2 * np.spacing(np.maximum(np.abs(p), np.abs(ref)))
    assert np.all(np.abs(new_p - ref) <= slack)


class TestAdam:
    def test_zero_gradient_is_noop_for_any_state(self):
        p = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        state = ad.adam_init([p], lr=0.5)
        state.m[0][:] = 3.0  # pretend momentum from earlier steps
        state.v[0][:] = 2.0
        before = p.data.copy()
        ad.adam_step([p], [np.zeros_like(p.data)], state)
        np.testing.assert_array_equal(p.data, before)
        assert state.step == 1

    def test_a_gradient_zero_only_in_its_first_element_still_updates(self):
        p = ad.Tensor(np.array([[1.0, -2.0], [3.0, 4.0]]), requires_grad=True)
        state = ad.adam_init([p], lr=0.5)
        before = p.data.copy()
        ad.adam_step([p], [np.array([[0.0, 0.0], [0.0, 2.0]])], state)
        assert p.data[1, 1] < before[1, 1]
        np.testing.assert_array_equal(p.data[[0, 0, 1], [0, 1, 0]], before[[0, 0, 1], [0, 1, 0]])
        assert state.m[0][1, 1] != 0

    def test_first_step_magnitude(self):
        """Closed form: after bias correction the first update is
        lr * g / (|g| + eps), i.e. lr * sign(g) up to eps."""
        p = ad.Tensor(np.array([0.0, 0.0]), requires_grad=True)
        g = np.array([0.3, -4.0])
        state = ad.adam_init([p], lr=0.1)
        ad.adam_step([p], [g], state)
        expected = -0.1 * g / (np.abs(g) + state.epsilon)
        np.testing.assert_allclose(p.data, expected, rtol=1e-12)

    def test_scalar_quadratic_convergence(self):
        """Minimize (w - 5)^2 from 0 with lr 0.1: |w - 5| < 0.01 by 500 steps."""
        w = ad.Tensor(np.array([[0.0]]), requires_grad=True)
        state = ad.adam_init([w], lr=0.1)
        for _ in range(500):
            ad.adam_step([w], [2.0 * (w.data - 5.0)], state)
        assert abs(w.data[0, 0] - 5.0) < 0.01

    def test_in_place_update_matches_the_textbook_formula_bytewise(self):
        """Three steps, the second with an all-zero gradient, against the
        update written out with fresh arrays."""
        rng = np.random.default_rng(5)
        p = ad.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        grads = [rng.normal(size=(4, 3)), np.zeros((4, 3)), rng.normal(size=(4, 3))]
        state = ad.adam_init([p], lr=0.01)
        ref_p, ref_m, ref_v, t = p.data.copy(), np.zeros((4, 3)), np.zeros((4, 3)), 0
        for g in grads:
            ad.adam_step([p], [g], state)
            t += 1
            if g.any():
                ref_m, ref_v = textbook_moments(ref_m, ref_v, g)
                assert_near_the_unfolded_update(p.data, ref_p, ref_m, ref_v, t, 0.01)
                ref_p = folded_update(ref_p, ref_m, ref_v, t, 0.01)
            assert p.data.tobytes() == ref_p.tobytes()
            assert state.m[0].tobytes() == ref_m.tobytes()
            assert state.v[0].tobytes() == ref_v.tobytes()

    def test_shape_mismatch(self):
        """Every shape is checked before the first parameter is updated, so
        a mismatch in the second changes nothing."""
        rng = np.random.default_rng(9)
        params = [ad.Tensor(rng.normal(size=(3, 2)), requires_grad=True),
                  ad.Tensor(rng.normal(size=4), requires_grad=True)]
        state = ad.adam_init(params, lr=0.1)
        ad.adam_step(params, [rng.normal(size=(3, 2)), rng.normal(size=4)], state)
        before = [a.tobytes() for a in [p.data for p in params] + state.m + state.v]
        with pytest.raises(ValueError, match="shape"):
            ad.adam_step(params, [rng.normal(size=(3, 2)), rng.normal(size=5)], state)
        assert [a.tobytes() for a in [p.data for p in params] + state.m + state.v] == before
        assert state.step == 1

    def test_a_step_allocates_no_block_sized_temporary(self):
        """The update works in the state's scratch array: one step of the
        widest default model (a 5002-input cell layer) allocates well under
        one 512 KB block."""
        params = init_params(ModelConfig(cell_input_dim=5002), 0).parameters()
        rng = np.random.default_rng(10)
        grads = [rng.normal(size=p.shape) for p in params]
        state = ad.adam_init(params, lr=1e-3)
        tracemalloc.start()
        try:
            ad.adam_step(params, grads, state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    @staticmethod
    def textbook_steps(p_data, grads, lr=0.01):
        """adam_step from p_data through grads, compared after every step
        with the update written out with fresh arrays; returns the final
        parameter bytes."""
        p = ad.Tensor(p_data.copy(order="K"), requires_grad=True)
        state = ad.adam_init([p], lr=lr)
        buffers = (p.data, state.m[0], state.v[0])
        ref_p, ref_m, ref_v = p.data.copy(), np.zeros(p.shape), np.zeros(p.shape)
        for t, g in enumerate(grads, start=1):
            ad.adam_step([p], [g], state)
            if g.any():
                ref_m, ref_v = textbook_moments(ref_m, ref_v, g)
                assert_near_the_unfolded_update(p.data, ref_p, ref_m, ref_v, t, lr)
                ref_p = folded_update(ref_p, ref_m, ref_v, t, lr)
            assert p.data.tobytes() == ref_p.tobytes()
            assert state.m[0].tobytes() == ref_m.tobytes()
            assert state.v[0].tobytes() == ref_v.tobytes()
        assert all(a is b for a, b in zip((p.data, state.m[0], state.v[0]), buffers))
        return p.data.tobytes()

    @pytest.mark.parametrize("shape", [
        (2 * ad.ADAM_BLOCK // 7 + 3, 7),   # several blocks, the last one ragged
        (1, 128),                          # a bias row
        (1, ad.ADAM_BLOCK + 5),            # one row wider than a block
        (2 * ad.ADAM_BLOCK + 11,),         # 1-D, sliced by elements
        (),                                # 0-D
    ], ids=["ragged", "bias", "wide-row", "1d", "0d"])
    def test_blocked_update_matches_the_textbook_formula_bytewise(self, shape):
        rng = np.random.default_rng(6)
        grads = [rng.normal(size=shape), np.zeros(shape), rng.normal(size=shape)]
        self.textbook_steps(rng.normal(size=shape), grads)

    @pytest.mark.parametrize("layout", ["fortran", "transposed"])
    def test_non_contiguous_arrays_give_the_bytes_of_contiguous_ones(self, layout):
        rng = np.random.default_rng(7)
        shape = (ad.ADAM_BLOCK // 50 + 9, 100)
        p0 = rng.normal(size=shape)
        grads = [rng.normal(size=shape) for _ in range(2)]
        if layout == "fortran":
            odd_p, odd_grads = np.asfortranarray(p0), [np.asfortranarray(g) for g in grads]
        else:
            odd_p, odd_grads = p0.T.copy().T, [g.T.copy().T for g in grads]
        assert not odd_p.flags.c_contiguous and not odd_grads[0].flags.c_contiguous
        assert self.textbook_steps(odd_p, odd_grads) == self.textbook_steps(p0, grads)

    def test_one_call_over_several_parameters_equals_one_call_each(self):
        """The parameters share the state's scratch arrays."""
        rng = np.random.default_rng(8)
        shapes = [(3 * ad.ADAM_BLOCK // 128 + 1, 128), (1, 128), (5,), (40, 3)]
        start = [rng.normal(size=s) for s in shapes]
        grads = [rng.normal(size=s) for s in shapes]
        together = [ad.Tensor(a.copy(), requires_grad=True) for a in start]
        ad.adam_step(together, grads, ad.adam_init(together, lr=0.01))
        for t, a, g in zip(together, start, grads):
            alone = ad.Tensor(a.copy(), requires_grad=True)
            ad.adam_step([alone], [g], ad.adam_init([alone], lr=0.01))
            assert t.data.tobytes() == alone.data.tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(shape=st.sampled_from([(), (1,), (7,), (1, 5), (6, 4), (33, 3)]),
           log_lr=st.floats(-6, 0), log_scale=st.floats(-6, 6),
           start=st.integers(0, 10_000), zero_steps=st.lists(st.booleans(), min_size=1,
                                                             max_size=12),
           seed=st.integers(0, 2**32 - 1))
    def test_the_folded_update_is_the_textbook_update_up_to_rounding(
            self, shape, log_lr, log_scale, start, zero_steps, seed):
        """Each step's moments equal the textbook moments byte for byte;
        its parameter update lies within assert_near_the_unfolded_update's
        bound of the textbook update from the same starting state; and an
        all-zero gradient changes nothing."""
        rng = np.random.default_rng(seed)
        lr = 10.0 ** log_lr
        p = ad.Tensor(rng.normal(size=shape), requires_grad=True)
        state = ad.adam_init([p], lr=lr)
        state.step = start
        for zero in zero_steps:
            g = np.zeros(shape) if zero else rng.normal(scale=10.0 ** log_scale, size=shape)
            p0, m0, v0 = p.data.copy(), state.m[0].copy(), state.v[0].copy()
            ad.adam_step([p], [g], state)
            if zero:
                assert p.data.tobytes() == p0.tobytes()
                assert state.m[0].tobytes() == m0.tobytes()
                assert state.v[0].tobytes() == v0.tobytes()
                continue
            m, v = textbook_moments(m0, v0, g)
            assert state.m[0].tobytes() == m.tobytes()
            assert state.v[0].tobytes() == v.tobytes()
            assert_near_the_unfolded_update(p.data, p0, m, v, state.step, lr)
        assert state.step == start + len(zero_steps)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(cols=st.integers(1, 2 * ad.ADAM_BLOCK), extra_row=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_shapes_around_one_block_match_the_textbook_formula(self, cols, extra_row, seed):
        """rows * cols lies within cols of ADAM_BLOCK, on either side."""
        rows = max(1, ad.ADAM_BLOCK // cols + extra_row)
        assert abs(rows * cols - ad.ADAM_BLOCK) <= cols
        rng = np.random.default_rng(seed)
        shape = (rows, cols)
        grads = [rng.normal(size=shape), np.zeros(shape), rng.normal(size=shape)]
        self.textbook_steps(rng.normal(size=shape), grads)


class TestFiniteDiffCheck:
    def test_sum_gradient_is_exact(self):
        err = ad.finite_diff_check(sum_all, ad.Tensor(np.linspace(-1, 1, 12).reshape(3, 4)))
        assert err < 1e-10

    def test_two_layer_mlp(self):
        rng = np.random.default_rng(21)
        w1 = ad.Tensor(rng.normal(size=(4, 5)))
        w2 = ad.Tensor(rng.normal(size=(5, 1)))
        target = ad.Tensor(rng.normal(size=(2, 1)))

        def f(tape, x):
            h = ad.relu(tape, ad.matmul(tape, x, w1))
            return ad.loss(tape, ad.matmul(tape, h, w2), target)

        x0 = rng.normal(size=(2, 4))
        assert np.abs(x0 @ w1.data).min() > 1e-3  # hidden units clear of the relu kink
        assert ad.finite_diff_check(f, ad.Tensor(x0)) < 1e-4

    def test_forward_determinism(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 3))
        a = ad.relu(None, ad.matmul(None, ad.Tensor(x), ad.Tensor(x)))
        b = ad.relu(None, ad.matmul(None, ad.Tensor(x), ad.Tensor(x)))
        assert a.data.tobytes() == b.data.tobytes()


class FakeLibc:
    """A C library whose ``mallopt`` records its calls and succeeds."""

    def __init__(self, glibc: bool = True):
        self.calls = []
        if glibc:
            self.gnu_get_libc_version = lambda: b"2.0"

        def mallopt(param, value):
            self.calls.append((param, value))
            return 1

        self.mallopt = mallopt


class TestPinAllocator:
    def test_mallopt_runs_on_the_first_call_only(self, monkeypatch):
        libc = FakeLibc()
        monkeypatch.setattr(ad, "_allocator", None)
        monkeypatch.setattr(ad.ctypes, "CDLL", lambda name: libc)
        setting = "glibc mmap_threshold=33554432 trim_threshold=67108864"
        assert ad.pin_allocator() == setting
        assert ad.pin_allocator() == setting
        assert libc.calls == [(-3, 32 << 20), (-1, 64 << 20)]

    @pytest.mark.parametrize("libc", [OSError("no C library"), FakeLibc(glibc=False)],
                             ids=["unloadable", "not_glibc"])
    def test_without_glibc_nothing_is_set(self, monkeypatch, libc):
        def cdll(name):
            if isinstance(libc, OSError):
                raise libc
            return libc

        monkeypatch.setattr(ad, "_allocator", None)
        monkeypatch.setattr(ad.ctypes, "CDLL", cdll)
        assert ad.pin_allocator() == "default"
        assert ad.pin_allocator() == "default"
        assert getattr(libc, "calls", []) == []
