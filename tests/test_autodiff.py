"""Tests for the reverse-mode autodiff engine.

Derived expectations are computed by independent oracles: central finite
differences for gradients, direct formula evaluation for batch norm and the
losses, and Monte-Carlo estimation for dropout.
"""

import numpy as np
import pytest

from cdrpipe import autodiff as ad


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
            return ad.sum_all(tape, ad.matmul(tape, a, b))

        err = ad.finite_diff_check(f, ad.Tensor(rng.normal(size=(3, 3))), epsilon=1e-5)
        assert err < 1e-4

    def test_gradient_wrt_right_operand(self):
        rng = np.random.default_rng(7)
        a = ad.Tensor(rng.normal(size=(2, 4)))

        def f(tape, b):
            return ad.sum_all(tape, ad.matmul(tape, a, b))

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
            return ad.sum_all(tape, ops[op](tape, t))

        assert ad.finite_diff_check(f, ad.Tensor(x)) < 1e-4


class TestConcat:
    def test_simple(self):
        out = ad.concat_cols(None, ad.Tensor([[1.0, 2.0]]), ad.Tensor([[3.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0]])

    def test_empty_left(self):
        out = ad.concat_cols(None, ad.Tensor(np.zeros((2, 0))), ad.Tensor([[5.0], [6.0]]))
        np.testing.assert_array_equal(out.data, [[5.0], [6.0]])

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"\(2, 2\) vs \(1, 1\)"):
            ad.concat_cols(None, ad.Tensor(np.ones((2, 2))), ad.Tensor([[1.0]]))

    def test_gradient_routing(self):
        """First p gradient columns go to the left operand, the rest to the right."""
        rng = np.random.default_rng(1)
        b = ad.Tensor(rng.normal(size=(2, 3)))
        w = ad.Tensor(rng.normal(size=(5, 1)))

        def f(tape, a):
            return ad.sum_all(tape, ad.matmul(tape, ad.concat_cols(tape, a, b), w))

        assert ad.finite_diff_check(f, ad.Tensor(rng.normal(size=(2, 2)))) < 1e-4

        tape = ad.Tape()
        a = ad.Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        b2 = ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        ga, gb = ad.backward(
            tape, ad.sum_all(tape, ad.matmul(tape, ad.concat_cols(tape, a, b2), w)), [a, b2])
        np.testing.assert_allclose(ga, np.tile(w.data[:2].T, (2, 1)))
        np.testing.assert_allclose(gb, np.tile(w.data[2:].T, (2, 1)))


class TestGatherRows:
    def test_gather_and_split_gradient(self):
        tape = ad.Tape()
        x = ad.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        out = ad.gather_rows(tape, x, [1, 0])
        np.testing.assert_array_equal(out.data, [[3.0, 4.0], [1.0, 2.0]])
        (gx,) = ad.backward(tape, ad.sum_all(tape, out), [x])
        np.testing.assert_array_equal(gx, [[1.0, 1.0], [1.0, 1.0]])

    def test_repeated_row_accumulates(self):
        tape = ad.Tape()
        x = ad.Tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
        out = ad.gather_rows(tape, x, [0, 0, 0])
        (gx,) = ad.backward(tape, ad.sum_all(tape, out), [x])
        np.testing.assert_array_equal(gx, [[3.0, 3.0], [0.0, 0.0]])


class TestPropagate:
    def test_equals_the_block_diagonal_product(self):
        rng = np.random.default_rng(0)
        blocks = [rng.normal(size=(n, n)) for n in (3, 1, 4)]
        x = rng.normal(size=(8, 5))
        dense = np.zeros((8, 8))
        dense[:3, :3], dense[3:4, 3:4], dense[4:, 4:] = blocks
        out = ad.propagate(None, blocks, ad.Tensor(x))
        np.testing.assert_allclose(out.data, dense @ x, atol=1e-14)

    def test_blocks_must_tile_the_rows(self):
        with pytest.raises(ValueError, match="do not tile 5 rows"):
            ad.propagate(None, [np.eye(2), np.eye(2)], ad.Tensor(np.zeros((5, 3))))
        with pytest.raises(ValueError, match="do not tile"):
            ad.propagate(None, [np.zeros((2, 3))], ad.Tensor(np.zeros((2, 3))))

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        blocks = [rng.normal(size=(n, n)) for n in (2, 1, 3)]  # not symmetric
        target = ad.Tensor(rng.normal(size=(6, 4)))

        def f(tape, t):
            return ad.loss(tape, ad.propagate(tape, blocks, t), target)

        assert ad.finite_diff_check(f, ad.Tensor(rng.normal(size=(6, 4)))) < 1e-4


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
        (gx,) = ad.backward(tape, ad.sum_all(tape, ad.segment_max(tape, x, [1, 2])), [x])
        np.testing.assert_array_equal(gx, [[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("seed", range(3))
    def test_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)

        def f(tape, t):
            return ad.sum_all(tape, ad.segment_max(tape, t, [1, 3, 2]))

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
        (gx,) = ad.backward(tape, ad.sum_all(tape, out), [x])
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
        # loss = sum(x @ a) + sum(x @ b): dx = column sums of a plus b
        tape = ad.Tape()
        x = ad.Tensor([[1.0, 2.0]], requires_grad=True)
        a = ad.Tensor([[1.0], [2.0]])
        b = ad.Tensor([[10.0], [20.0]])
        total = ad.concat_cols(tape, ad.matmul(tape, x, a), ad.matmul(tape, x, b))
        (gx,) = ad.backward(tape, ad.sum_all(tape, total), [x])
        np.testing.assert_allclose(gx, [[11.0, 22.0]])


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
                ref_m = 0.9 * ref_m + (1.0 - 0.9) * g
                ref_v = 0.999 * ref_v + (1.0 - 0.999) * (g * g)
                m_hat = ref_m / (1.0 - 0.9 ** t)
                v_hat = ref_v / (1.0 - 0.999 ** t)
                ref_p = ref_p - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert p.data.tobytes() == ref_p.tobytes()
            assert state.m[0].tobytes() == ref_m.tobytes()
            assert state.v[0].tobytes() == ref_v.tobytes()

    def test_shape_mismatch(self):
        p = ad.Tensor(np.zeros(3), requires_grad=True)
        state = ad.adam_init([p])
        with pytest.raises(ValueError, match="shape"):
            ad.adam_step([p], [np.zeros(4)], state)


class TestFiniteDiffCheck:
    def test_sum_gradient_is_exact(self):
        err = ad.finite_diff_check(ad.sum_all, ad.Tensor(np.linspace(-1, 1, 12).reshape(3, 4)))
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
