"""A tour of the tape-based gradient engine.

Builds a tiny computation by hand, checks its gradients against central
finite differences, and runs the Adam optimizer on a toy objective.
"""

import numpy as np

from cdrpipe import (Tape, Tensor, adam_init, adam_step, backward, finite_diff_check,
                     loss, matmul, relu)

rng = np.random.default_rng(0)

# ---------------------------------------------------------------------------
# 1. Record a forward pass on a tape, then sweep it backwards.
# ---------------------------------------------------------------------------
tape = Tape()
x = Tensor(rng.normal(size=(4, 3)))
w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
target = Tensor(rng.normal(size=(4, 2)))

hidden = relu(tape, matmul(tape, x, w))
mse = loss(tape, hidden, target)
# backward returns one gradient per tensor asked for; tensors store none.
(grad_w,) = backward(tape, mse, [w])

print("loss:", mse.data[0, 0])
print("gradient of the weight matrix:\n", grad_w)

# ---------------------------------------------------------------------------
# 2. Every gradient in this package is validated against finite differences.
# ---------------------------------------------------------------------------
w1 = Tensor(rng.normal(size=(3, 5)))
w2 = Tensor(rng.normal(size=(5, 1)))
y = Tensor(rng.normal(size=(2, 1)))


def two_layer(tape, t):
    h = relu(tape, matmul(tape, t, w1))
    return loss(tape, matmul(tape, h, w2), y)


err = finite_diff_check(two_layer, Tensor(rng.normal(size=(2, 3))))
print(f"finite-difference check, max relative error: {err:.2e}")

# ---------------------------------------------------------------------------
# 3. Adam on a quadratic bowl: w converges to 5.
# ---------------------------------------------------------------------------
param = Tensor(np.array([[0.0]]), requires_grad=True)
state = adam_init([param], lr=0.1)
for step in range(500):
    grad = 2.0 * (param.data - 5.0)
    adam_step([param], [grad], state)
print(f"after {state.step} Adam steps, w = {param.data[0, 0]:.4f} (target 5.0)")
