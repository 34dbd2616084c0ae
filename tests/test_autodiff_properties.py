"""Property tests for the autodiff engine over random small shapes and seeds.

Every operation's gradient, and that of each reference operation the tests
reduce or compare with, must match central finite differences, and a
backward sweep must return the full gradient of each tensor it is asked for
while changing no tensor's data.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdrpipe import autodiff as ad
from oracles import (batch_norm_train, finite_diff_params, graph_conv_point, propagate,
                     segment_argmax, sum_all)

# derandomized so that every run of the suite draws the same examples
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
SHAPES = dict(n=st.integers(3, 5), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))


def _away_from_zero(rng, shape):
    return np.sign(rng.normal(size=shape)) * rng.uniform(0.2, 1.5, size=shape)


def _bn_state(rng, d):
    state = ad.BatchNormState(d)
    state.gamma.data[:] = rng.normal(size=(1, d))
    state.beta.data[:] = rng.normal(size=(1, d))
    state.running_mean[:] = rng.normal(size=d)
    state.running_var[:] = rng.uniform(0.5, 2.0, size=d)
    return state


def _cases(rng, n, d):
    """op name -> (f, x0): f(tape, x) applies the op to x, then reduces the
    result to a scalar by mse against a fixed random target (a plain sum
    would make the batch-norm gradient vanish)."""

    def fixed(*shape):
        return ad.Tensor(rng.normal(size=shape))

    def to_scalar(shape, op):
        target = fixed(*shape)
        return lambda t, x: ad.loss(t, op(t, x), target)

    b, a = fixed(d, 3), fixed(2, n)
    same, bias_base = fixed(n, d), fixed(n, d)
    pool_x = rng.permutation(np.linspace(-2.0, 2.0, n * d)).reshape(n, d)  # distinct values
    blocks = [rng.normal(size=(1, 1)), rng.normal(size=(n - 1, n - 1))]
    picks = rng.integers(0, n, size=n + 2)
    bn_train, bn_eval = _bn_state(rng, d), _bn_state(rng, d)
    drop_seed = int(rng.integers(1 << 30))
    x = rng.normal(size=(n, d))
    plain = graph_conv_point(rng, n, d, 3, None)
    conv_x, conv_w, conv_b = graph_conv_point(rng, n, d, 3, blocks)

    def conv(i, blk, point):
        """The layer as a function of its i-th input (x, W, b), the others fixed."""
        return to_scalar((n, 3), lambda t, v: ad.graph_conv(
            t, *[v if j == i else ad.Tensor(a) for j, a in enumerate(point)], blk))

    return {
        "matmul_left": (to_scalar((n, 3), lambda t, x: ad.matmul(t, x, b)), x),
        "matmul_right": (to_scalar((2, d), lambda t, x: ad.matmul(t, a, x)), x),
        "add": (to_scalar((n, d), lambda t, x: ad.add(t, x, same)), x),
        "add_bias": (to_scalar((n, d), lambda t, x: ad.add(t, bias_base, x)),
                     rng.normal(size=(1, d))),
        "relu": (to_scalar((n, d), ad.relu), _away_from_zero(rng, (n, d))),
        "row_slice": (to_scalar((n - 2, d), lambda t, x: ad.row_slice(t, x, 1, n - 1)), x),
        "gather_rows": (to_scalar((n + 2, d), lambda t, x: ad.gather_rows(t, x, picks)), x),
        "propagate": (to_scalar((n, d), lambda t, x: propagate(t, blocks, x)), x),
        "graph_conv": (conv(0, None, plain), plain[0]),
        "graph_conv_blocks": (conv(0, blocks, (conv_x, conv_w, conv_b)), conv_x),
        "graph_conv_weight": (conv(1, blocks, (conv_x, conv_w, conv_b)), conv_w),
        "graph_conv_bias": (conv(2, blocks, (conv_x, conv_w, conv_b)), conv_b),
        "segment_max": (to_scalar((2, d), lambda t, x: ad.segment_max(t, x, [n - 2, 2])),
                        pool_x),
        "batch_norm_train": (to_scalar((n, d), lambda t, x: ad.batch_norm(t, x, bn_train, "train")),
                             x),
        "batch_norm_eval": (to_scalar((n, d), lambda t, x: ad.batch_norm(t, x, bn_eval, "eval")),
                            x),
        "dropout": (to_scalar((n, d), lambda t, x: ad.dropout(
            t, x, 0.4, "train", np.random.default_rng(drop_seed))), x),
        "sum_all": (to_scalar((1, 1), sum_all), x),
        "loss": (lambda t, x: ad.loss(t, x, same), x),
    }


OPS = sorted(_cases(np.random.default_rng(0), 3, 2))


@pytest.mark.parametrize("op", OPS)
@PROPERTY
@given(**SHAPES)
def test_every_op_gradient_matches_finite_differences(op, n, d, seed):
    f, x0 = _cases(np.random.default_rng(seed), n, d)[op]
    assert ad.finite_diff_check(f, ad.Tensor(x0)) < 1e-4


@PROPERTY
@given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=5), d=st.integers(2, 5),
       seed=st.integers(0, 2**32 - 1))
def test_segment_max_routes_each_column_like_argmax(sizes, d, seed):
    """Small integers tie often; one column is all zero, as a relu-dead unit
    is, so every row of every segment ties there, and another holds a NaN.
    The maxima and the gradient equal one ``np.argmax`` per segment exactly."""
    rng = np.random.default_rng(seed)
    x = rng.integers(-2, 3, size=(sum(sizes), d)).astype(float)
    dead, nan_col = rng.permutation(d)[:2]
    x[:, dead] = 0.0
    x[rng.integers(len(x)), nan_col] = np.nan
    maxima, routing = segment_argmax(x, sizes)
    t = ad.Tensor(x, requires_grad=True)
    tape = ad.Tape()
    pooled = ad.segment_max(tape, t, sizes)
    (grad,) = ad.backward(tape, sum_all(tape, pooled), [t])
    np.testing.assert_array_equal(pooled.data, maxima)
    np.testing.assert_array_equal(grad, routing)


# values where a max-pool can go wrong: signed zeros, NaN and infinities
POOL_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.nan, np.inf, -np.inf])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6), d=st.integers(1, 5),
       data=st.data())
def test_segment_max_forward_bytes_equal_reduceat(sizes, d, data):
    """The maxima, reduced segment by segment, are byte for byte those of
    one strided ``np.maximum.reduceat`` over every segment, one-row segments
    included, and the gradient still routes each column like ``np.argmax``."""
    n = sum(sizes)
    x = np.array(data.draw(st.lists(POOL_VALUES, min_size=n * d, max_size=n * d))).reshape(n, d)
    t = ad.Tensor(x, requires_grad=True)
    tape = ad.Tape()
    pooled = ad.segment_max(tape, t, sizes)
    starts = np.cumsum([0, *sizes[:-1]])
    assert pooled.data.tobytes() == np.maximum.reduceat(x, starts, axis=0).tobytes()
    assert ad.segment_max(None, ad.Tensor(x), sizes).data.tobytes() == pooled.data.tobytes()
    with np.errstate(invalid="ignore"):  # the sum of inf and -inf; its gradient is all ones
        total = sum_all(tape, pooled)
    (grad,) = ad.backward(tape, total, [t])
    np.testing.assert_array_equal(grad, segment_argmax(x, sizes)[1])


@pytest.mark.parametrize("mode", ["train", "eval"])
@PROPERTY
@given(**SHAPES)
def test_batch_norm_bytes_equal_the_formula(mode, n, d, seed):
    """Built in two arrays, the normalized batch has the bytes of
    ``gamma * ((x - mean) * inv_std) + beta`` with its four temporaries."""
    rng = np.random.default_rng(seed)
    state = _bn_state(rng, d)
    x = rng.normal(3.0, 5.0, size=(n, d))
    if mode == "train":
        mean, var = x.mean(axis=0), x.var(axis=0)
    else:
        mean, var = state.running_mean.copy(), state.running_var.copy()
    inv_std = 1.0 / np.sqrt(var + state.eps)
    want = state.gamma.data * ((x - mean) * inv_std) + state.beta.data
    got = ad.batch_norm(None, ad.Tensor(x), state, mode).data
    assert got.tobytes() == want.tobytes()


@PROPERTY
@given(n=st.integers(2, 40), d=st.integers(1, 9), loc=st.floats(-1e3, 1e3),
       scale=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
def test_train_batch_norm_bytes_equal_mean_and_var(n, d, loc, scale, seed):
    """Batch statistics from one centred batch give the bytes of ``x.mean``
    and ``x.var``: the output, both running statistics, and the gradients
    of x, gamma and beta."""
    rng = np.random.default_rng(seed)
    x = loc + scale * rng.normal(size=(n, d))
    target = ad.Tensor(rng.normal(size=(n, d)))
    states = [_bn_state(np.random.default_rng(seed), d) for _ in range(2)]
    got = []
    for norm, state in zip((lambda t, x, s: ad.batch_norm(t, x, s, "train"), batch_norm_train),
                           states):
        t, tape = ad.Tensor(x, requires_grad=True), ad.Tape()
        out = norm(tape, t, state)
        grads = ad.backward(tape, ad.loss(tape, out, target), [t, state.gamma, state.beta])
        got.append([a.tobytes() for a in (out.data, state.running_mean, state.running_var,
                                          *grads)])
    assert got[0] == got[1]


@PROPERTY
@given(**SHAPES)
def test_backward_returns_the_gradient_of_each_requested_tensor(n, d, seed):
    """A small network with a shared input, a broadcast bias, batch norm, a
    same-shape add of the input to a hidden layer (both operands get one
    gradient array, so x's gradient starts as that array), a row slice of a
    weight and a dead branch: every returned gradient matches central
    differences, a second sweep returns the same bytes and changes no
    tensor's data, and the tensor only the dead branch reads gets zeros."""
    rng = np.random.default_rng(seed)
    x = ad.Tensor(rng.normal(size=(n, d)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(d, d)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(1, d)), requires_grad=True)
    v = ad.Tensor(rng.normal(size=(d + 2, 1)), requires_grad=True)
    e = ad.Tensor(rng.normal(size=(n, d)), requires_grad=True)
    unreached = ad.Tensor(rng.normal(size=(d, 2)), requires_grad=True)
    state = _bn_state(rng, d)
    target = ad.Tensor(rng.normal(size=(n, 1)))

    def forward(tape):
        ad.matmul(tape, x, unreached)  # recorded, but the loss never reads it
        h = ad.batch_norm(tape, ad.add(tape, ad.matmul(tape, x, w), b), state, "train")
        y = ad.add(tape, ad.add(tape, h, x), e)
        return ad.loss(tape, ad.matmul(tape, y, ad.row_slice(tape, v, 1, d + 1)), target)

    tape = ad.Tape()
    out = forward(tape)
    leaves = [x, w, b, v, e, state.gamma, state.beta, unreached]
    tensors = leaves + [target] + [node.output for node in tape.nodes]
    before = [t.data.tobytes() for t in tensors]

    grads = ad.backward(tape, out, leaves)
    first = [g.tobytes() for g in grads]
    again = ad.backward(tape, out, leaves)
    assert [g.tobytes() for g in again] == first
    assert [t.data.tobytes() for t in tensors] == before
    assert [g.shape for g in grads] == [t.shape for t in leaves]
    assert not grads[-1].any()

    rel_err, small_err = finite_diff_params(
        lambda: float(forward(ad.Tape()).data[0, 0]), leaves, grads)
    assert rel_err < 1e-4
    assert small_err < 1e-9
