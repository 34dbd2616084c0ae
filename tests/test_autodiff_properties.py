"""Property tests for the autodiff engine over random small shapes and seeds.

Every operation's gradient must match central finite differences, and a
backward sweep must return the full gradient of each tensor it is asked for
while changing no tensor's data.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdrpipe import autodiff as ad
from oracles import finite_diff_params

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

    b, a, right = fixed(d, 3), fixed(2, n), fixed(n, 2)
    same, bias_base = fixed(n, d), fixed(n, d)
    pool_x = rng.permutation(np.linspace(-2.0, 2.0, n * d)).reshape(n, d)  # distinct values
    blocks = [rng.normal(size=(1, 1)), rng.normal(size=(n - 1, n - 1))]
    picks = rng.integers(0, n, size=n + 2)
    bn_train, bn_eval = _bn_state(rng, d), _bn_state(rng, d)
    drop_seed = int(rng.integers(1 << 30))
    x = rng.normal(size=(n, d))
    return {
        "matmul_left": (to_scalar((n, 3), lambda t, x: ad.matmul(t, x, b)), x),
        "matmul_right": (to_scalar((2, d), lambda t, x: ad.matmul(t, a, x)), x),
        "add": (to_scalar((n, d), lambda t, x: ad.add(t, x, same)), x),
        "add_bias": (to_scalar((n, d), lambda t, x: ad.add(t, bias_base, x)),
                     rng.normal(size=(1, d))),
        "relu": (to_scalar((n, d), ad.relu), _away_from_zero(rng, (n, d))),
        "concat_cols_left": (to_scalar((n, d + 2), lambda t, x: ad.concat_cols(t, x, right)), x),
        "concat_cols_right": (to_scalar((n, d + 2), lambda t, x: ad.concat_cols(t, right, x)), x),
        "gather_rows": (to_scalar((n + 2, d), lambda t, x: ad.gather_rows(t, x, picks)), x),
        "propagate": (to_scalar((n, d), lambda t, x: ad.propagate(t, blocks, x)), x),
        "segment_max": (to_scalar((2, d), lambda t, x: ad.segment_max(t, x, [n - 2, 2])),
                        pool_x),
        "batch_norm_train": (to_scalar((n, d), lambda t, x: ad.batch_norm(t, x, bn_train, "train")),
                             x),
        "batch_norm_eval": (to_scalar((n, d), lambda t, x: ad.batch_norm(t, x, bn_eval, "eval")),
                            x),
        "dropout": (to_scalar((n, d), lambda t, x: ad.dropout(
            t, x, 0.4, "train", np.random.default_rng(drop_seed))), x),
        "sum_all": (to_scalar((1, 1), ad.sum_all), x),
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
@given(**SHAPES)
def test_backward_returns_the_gradient_of_each_requested_tensor(n, d, seed):
    """A small network with a shared input, a broadcast bias, batch norm, a
    concatenation, a same-shape add (both operands get one gradient array,
    and x's gradient starts as a view of it) and a dead branch: every
    returned gradient matches central differences, a second sweep returns
    the same bytes and changes no tensor's data, and the tensor only the
    dead branch reads gets zeros."""
    rng = np.random.default_rng(seed)
    k = 3
    x = ad.Tensor(rng.normal(size=(n, d)), requires_grad=True)
    w = ad.Tensor(rng.normal(size=(d, k)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(1, k)), requires_grad=True)
    v = ad.Tensor(rng.normal(size=(k + d, 1)), requires_grad=True)
    e = ad.Tensor(rng.normal(size=(n, k + d)), requires_grad=True)
    unreached = ad.Tensor(rng.normal(size=(d, 2)), requires_grad=True)
    state = _bn_state(rng, k)
    target = ad.Tensor(rng.normal(size=(n, 1)))

    def forward(tape):
        ad.matmul(tape, x, unreached)  # recorded, but the loss never reads it
        h = ad.batch_norm(tape, ad.add(tape, ad.matmul(tape, x, w), b), state, "train")
        y = ad.add(tape, ad.concat_cols(tape, h, x), e)
        return ad.loss(tape, ad.matmul(tape, y, v), target)

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
