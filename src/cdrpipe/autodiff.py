"""Reverse-mode automatic differentiation over small dense tensors.

Provides exactly the operations the drug-response regression model needs:
matrix products, bias addition, per-element and per-column products, relu,
row slicing, row gathering, batch normalization, inverted dropout and the
mean squared error, plus two for graphs packed as one disjoint union of
row segments: ``graph_conv`` (a whole graph-convolution layer, product,
propagation over each graph's adjacency block, bias and relu, as one node)
and ``segment_max`` (column-wise max-pool per graph). An Adam optimizer and a
central-finite-difference gradient checker complete it, and
:func:`pin_allocator` keeps the memory a step frees for the next step.
Everything is float64 and at most rank 2, recorded on an explicit
:class:`Tape` so independent runs share no mutable state; an operation
given the tape ``None`` records nothing, and its output requires no
gradient.

Tensors hold no gradient state. :func:`backward` passes gradients along in
a local map, drops each operation output's gradient as soon as the node
that produced it has consumed it (unless it was asked for), and returns the
gradients of the tensors it is asked for. Those arrays are read-only to the
caller and may share memory with one another.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Sequence

import numpy as np


class Tensor:
    """A dense float64 array of rank <= 2.

    ``requires_grad`` marks a tensor that gradients flow to: a parameter
    built with ``requires_grad=True``, or an operation output recorded on a
    tape from such an input. The tensor stores no gradient; :func:`backward`
    returns them.
    """

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise ValueError(f"tensors are at most rank 2, got shape {arr.shape}")
        self.data = arr
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


@dataclass
class TapeNode:
    """One recorded operation: inputs, output, and its local backward rule."""

    inputs: tuple[Tensor, ...]
    output: Tensor
    backward_fn: Callable[[np.ndarray], tuple]


class Tape:
    """Forward-order record of differentiable operations.

    An operation can only consume tensors that already exist, so recording
    order is a topological order: the reverse sweep in :func:`backward`
    visits every node exactly once with its output gradient complete.
    Build one only where :func:`backward` sweeps it; evaluation passes ``None``.
    """

    def __init__(self):
        self.nodes: list[TapeNode] = []


def _result(tape: Tape | None, inputs: tuple[Tensor, ...], data: np.ndarray,
            backward_fn) -> Tensor:
    out = Tensor(data)
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.nodes.append(TapeNode(inputs, out, backward_fn))
    return out


# ---------------------------------------------------------------------------
# forward operations
# ---------------------------------------------------------------------------

def matmul(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    """Matrix product a @ b for 2-D tensors with matching inner dimension."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul shape mismatch: {a.data.shape} @ {b.data.shape}")

    def backward_fn(g):
        ga = g @ b.data.T if a.requires_grad else None
        gb = a.data.T @ g if b.requires_grad else None
        return ga, gb

    return _result(tape, (a, b), a.data @ b.data, backward_fn)


def _row_broadcast(op: str, symbol: str, a: Tensor, b: Tensor) -> bool:
    """Whether b is one row broadcast over a's rows (False where a and b
    have the same shape); any other pair of shapes is a ValueError."""
    if a.data.shape == b.data.shape:
        return False
    row = b.data.reshape(1, -1) if b.data.ndim == 1 else b.data
    if a.data.ndim == 2 and row.shape == (1, a.data.shape[1]):
        return True
    raise ValueError(f"{op} shape mismatch: {a.data.shape} {symbol} {b.data.shape}")


def add(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    """a + b; b may be a single row broadcast over a's rows (bias add)."""
    broadcast = _row_broadcast("add", "+", a, b)

    def backward_fn(g):
        ga = g if a.requires_grad else None
        gb = None
        if b.requires_grad:
            gb = g.sum(axis=0).reshape(b.data.shape) if broadcast else g
        return ga, gb

    return _result(tape, (a, b), a.data + b.data, backward_fn)


def mul(tape: Tape | None, a: Tensor, b: Tensor) -> Tensor:
    """a * b per element; b may be a single row broadcast over a's rows
    (a per-column scale)."""
    broadcast = _row_broadcast("mul", "*", a, b)

    def backward_fn(g):
        ga = g * b.data if a.requires_grad else None
        gb = None
        if b.requires_grad:
            gb = g * a.data
            if broadcast:
                gb = gb.sum(axis=0).reshape(b.data.shape)
        return ga, gb

    return _result(tape, (a, b), a.data * b.data, backward_fn)


def relu(tape: Tape | None, x: Tensor) -> Tensor:
    """max(x, 0) per element; the gradient at 0 is taken as 0."""

    def backward_fn(g):
        return (g * (x.data > 0.0),)

    return _result(tape, (x,), np.maximum(x.data, 0.0), backward_fn)


def row_slice(tape: Tape | None, x: Tensor, start: int, stop: int) -> Tensor:
    """Rows ``start:stop`` of a matrix, as a view of its data; the gradient
    is zero on every other row."""
    if x.data.ndim != 2 or not 0 <= start <= stop <= x.data.shape[0]:
        raise ValueError(f"row_slice: rows {start}:{stop} of shape {x.data.shape}")

    def backward_fn(g):
        gx = np.zeros_like(x.data)
        gx[start:stop] = g
        return (gx,)

    return _result(tape, (x,), x.data[start:stop], backward_fn)


def _block_bounds(blocks: Sequence[np.ndarray], rows: int) -> np.ndarray:
    """Row offsets of each square block's segment, checking that the blocks
    tile ``rows`` rows."""
    sizes = [b.shape[0] for b in blocks]
    if any(b.shape != (n, n) for b, n in zip(blocks, sizes)) or sum(sizes) != rows:
        raise ValueError(f"graph_conv: blocks of sizes {sizes} do not tile {rows} rows")
    return np.cumsum([0] + sizes)


def _block_product(blocks: Sequence[np.ndarray], bounds: np.ndarray, m: np.ndarray,
                   transpose: bool) -> np.ndarray:
    """Each block (or its transpose) times its own row segment of m, into a
    new array; one matmul per block."""
    out = np.empty_like(m)
    for block, s, e in zip(blocks, bounds[:-1], bounds[1:]):
        np.matmul(block.T if transpose else block, m[s:e], out=out[s:e])
    return out


def graph_conv(tape: Tape | None, x: Tensor, w: Tensor, b: Tensor,
               blocks: Sequence[np.ndarray] | None = None) -> Tensor:
    """One graph-convolution layer as one node: ``relu(A (x w) + b)``, where
    A is the block-diagonal matrix of ``blocks``, each square block
    multiplying its own segment of the rows in order (the matrix is never
    formed), or the identity when ``blocks`` is None, and b is one row
    broadcast over the rows.

    The bias add and the relu work in place on the product, and the relu's
    mask is read back from the output (``out > 0`` exactly where the
    pre-activation is), so the node keeps one array. The values and
    gradients are, bit for bit, those of ``matmul``, the per-block product,
    ``add`` and ``relu`` recorded as four nodes: the same ufuncs in the same
    order. The one exception is the sign of a zero in the bias gradient of
    a one-row x, which ``add`` passes on unsummed; Adam moves no parameter
    differently for it.
    """
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"graph_conv shape mismatch: {x.data.shape} @ {w.data.shape}")
    if b.data.shape != (1, w.data.shape[1]):
        raise ValueError(f"graph_conv bias of shape {b.data.shape}, expected "
                         f"(1, {w.data.shape[1]})")
    bounds = None if blocks is None else _block_bounds(blocks, x.data.shape[0])
    z = x.data @ w.data
    if bounds is not None:
        z = _block_product(blocks, bounds, z, False)
    z += b.data
    np.maximum(z, 0.0, out=z)

    def backward_fn(g):
        gz = g * (z > 0.0)
        gb = gz.sum(axis=0).reshape(b.data.shape) if b.requires_grad else None
        if bounds is not None:
            gz = _block_product(blocks, bounds, gz, True)
        gw = x.data.T @ gz if w.requires_grad else None
        gx = gz @ w.data.T if x.requires_grad else None
        return gx, gw, gb

    return _result(tape, (x, w, b), z, backward_fn)


def segment_max(tape: Tape | None, x: Tensor, sizes: Sequence[int]) -> Tensor:
    """Column-wise maximum over each consecutive segment of x's rows: one
    output row per segment, every segment at least one row long. A segment
    holding a NaN in a column has the maximum NaN there.

    Each segment is reduced on its own, a contiguous block of rows, into
    its output row: ``np.maximum.reduceat`` gives the same bytes but
    reads the rows strided, and took about twice as long on eval packs
    and training batches. Only the backward pass finds the winning rows,
    so an unrecorded call computes the maxima alone. Each column's gradient
    goes to the lowest row of the segment that equals its maximum (to the
    first NaN row where the maximum is NaN), which is the row ``np.argmax``
    picks.
    """
    if x.data.ndim != 2 or min(sizes, default=0) < 1 or sum(sizes) != x.data.shape[0]:
        raise ValueError(f"segment_max needs segments of at least one row tiling the input, "
                         f"got sizes {list(sizes)} for shape {x.data.shape}")
    bounds = np.cumsum([0, *sizes]).tolist()
    out = np.empty((len(bounds) - 1, x.data.shape[1]))
    for row, s, e in zip(out, bounds[:-1], bounds[1:]):
        np.maximum.reduce(x.data[s:e], axis=0, out=row)

    def backward_fn(g):
        n, d = x.data.shape
        # one pass over all segments. An argmax per segment picks the same
        # rows, ties and NaNs included, but neither form wins on every shape
        # (one Xeon thread, numpy 2.4): 20 segments of 5-30 rows by 128 took
        # 354 us here against 213 us by argmax, 16 segments of 4-12 rows
        # took 79 against 117 us. Time both shapes before switching.
        # only NaN maxima have NaN rows in their segment, so the two tests never mix
        hit = (x.data == np.repeat(out, sizes, axis=0)) | np.isnan(x.data)
        rows = np.where(hit, np.arange(n)[:, None], n)
        winners = np.minimum.reduceat(rows, bounds[:-1], axis=0)
        gx = np.zeros_like(x.data)
        gx[winners, np.arange(d)] = g
        return (gx,)

    return _result(tape, (x,), out, backward_fn)


def gather_rows(tape: Tape | None, x: Tensor, index: Sequence[int]) -> Tensor:
    """The rows of x at ``index``, in that order; a row may repeat, and its
    gradient is then the sum over its occurrences."""
    index = np.asarray(index, dtype=np.intp)

    def backward_fn(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, index, g)
        return (gx,)

    return _result(tape, (x,), x.data[index], backward_fn)


class BatchNormState:
    """Learnable scale/shift plus running statistics for one feature axis."""

    momentum = 0.99  # weight of the old running statistics per train batch
    eps = 1e-5       # added to the variance before the square root

    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones((1, dim)), requires_grad=True)
        self.beta = Tensor(np.zeros((1, dim)), requires_grad=True)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)


def batch_norm(tape: Tape | None, x: Tensor, state: BatchNormState, mode: str) -> Tensor:
    """Normalize a B x d batch by batch (train) or running (eval) statistics."""
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    if x.data.ndim != 2 or x.data.shape[1] != state.running_mean.shape[0]:
        raise ValueError(f"batch_norm expects B x {state.running_mean.shape[0]}, got {x.data.shape}")
    n = x.data.shape[0]
    if mode == "train":
        if n < 2:
            raise ValueError(f"batch_norm in train mode needs a batch of >= 2 rows, got {n}")
        # the ufuncs np.mean and np.var run, so their bytes, with the
        # centred batch computed once: var is biased, matching xhat below
        mean = np.add.reduce(x.data, axis=0) / n
        xhat = x.data - mean
        var = np.add.reduce(np.square(xhat), axis=0) / n
        m = state.momentum
        state.running_mean = m * state.running_mean + (1.0 - m) * mean
        state.running_var = m * state.running_var + (1.0 - m) * var
    else:
        mean = state.running_mean
        var = state.running_var
        xhat = x.data - mean
    inv_std = 1.0 / np.sqrt(var + state.eps)
    # the ufuncs of gamma * ((x - mean) * inv_std) + beta in the same order,
    # so the same bytes, in two arrays rather than four
    xhat *= inv_std
    out = state.gamma.data * xhat
    out += state.beta.data
    gamma, beta = state.gamma, state.beta

    def backward_fn(g):
        g_gamma = (g * xhat).sum(axis=0, keepdims=True) if gamma.requires_grad else None
        g_beta = g.sum(axis=0, keepdims=True) if beta.requires_grad else None
        gx = None
        if x.requires_grad:
            gh = g * gamma.data
            if mode == "train":
                gx = inv_std / n * (
                    n * gh - gh.sum(axis=0) - xhat * (gh * xhat).sum(axis=0)
                )
            else:
                gx = gh * inv_std
        return gx, g_gamma, g_beta

    return _result(tape, (x, gamma, beta), out, backward_fn)


def dropout(tape: Tape | None, x: Tensor, rate: float, mode: str,
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with probability `rate`, scale survivors by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must lie in [0, 1), got {rate}")
    if mode not in ("train", "eval"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "eval" or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in train mode needs a seeded generator")
    scale = 1.0 / (1.0 - rate)
    keep = (rng.random(x.data.shape) >= rate) * scale

    def backward_fn(g):
        return (g * keep,)

    return _result(tape, (x,), x.data * keep, backward_fn)


def loss(tape: Tape | None, pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error as a 1 x 1 tensor."""
    if pred.data.shape != target.data.shape:
        raise ValueError(f"loss shape mismatch: {pred.data.shape} vs {target.data.shape}")
    n = pred.data.size
    diff = pred.data - target.data

    def backward_fn(g):
        scale = g.reshape(-1)[0] * 2.0 / n
        gp = scale * diff if pred.requires_grad else None
        gt = -scale * diff if target.requires_grad else None
        return gp, gt

    return _result(tape, (pred, target), np.array([[np.mean(diff * diff)]]), backward_fn)


# ---------------------------------------------------------------------------
# backward sweep
# ---------------------------------------------------------------------------

def backward(tape: Tape, loss_node: Tensor, wrt: Sequence[Tensor]) -> list[np.ndarray]:
    """d(loss)/d(t) for each tensor t in ``wrt``, in order, for the scalar
    loss_node; zeros of t's shape where the loss does not reach t.

    A ``wrt`` tensor may be a parameter or any operation output. Gradients
    live only in a local map; an operation output's gradient is dropped once
    its producing node has passed it on to that node's inputs, unless it is
    one of the ``wrt`` tensors. The returned arrays are read-only: they
    may share memory with one another (an addition hands the same gradient
    to both operands). The tape and the tensors are left unchanged, so
    calling again returns equal arrays.
    """
    if loss_node.data.size != 1:
        raise ValueError(f"backward needs a scalar loss, got shape {loss_node.data.shape}")
    flows: dict[int, np.ndarray] = {id(loss_node): np.ones_like(loss_node.data)}
    kept = {id(t) for t in wrt}
    for node in reversed(tape.nodes):
        key = id(node.output)
        g_out = flows.get(key) if key in kept else flows.pop(key, None)
        if g_out is None:
            continue  # not on a path to the loss
        for tensor, g in zip(node.inputs, node.backward_fn(g_out)):
            if g is not None and tensor.requires_grad:
                key = id(tensor)
                flows[key] = flows[key] + g if key in flows else g
    return [flows[id(t)] if id(t) in flows else np.zeros_like(t.data) for t in wrt]


# ---------------------------------------------------------------------------
# Adam optimizer
# ---------------------------------------------------------------------------

# Elements per Adam block: 512 KB per float64 array. It is no smaller than
# the largest parameter of the default model over a 512-wide cell embedding
# (512 x 128), so each parameter of that model is updated as one block.
ADAM_BLOCK = 65_536


def _block_rows(shape: tuple[int, ...]) -> int:
    """Leading-axis entries (rows, or elements of a 1-D array) per Adam block."""
    return max(1, ADAM_BLOCK // math.prod(shape[1:]))


@dataclass
class AdamState:
    """Adam moment buffers and learning rate for a fixed parameter list,
    plus the one-block scratch array :func:`adam_step` works in."""

    beta1: ClassVar[float] = 0.9
    beta2: ClassVar[float] = 0.999
    epsilon: ClassVar[float] = 1e-8

    lr: float = 1e-4
    step: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)
    scratch: np.ndarray = field(default_factory=lambda: np.empty(0))


def adam_init(params: Sequence[Tensor], lr: float = 1e-4) -> AdamState:
    shapes = [p.data.shape or (1,) for p in params]
    block = max((min(s[0], _block_rows(s)) * math.prod(s[1:]) for s in shapes), default=0)
    return AdamState(
        lr=lr,
        m=[np.zeros_like(p.data) for p in params],
        v=[np.zeros_like(p.data) for p in params],
        scratch=np.empty(block),
    )


def adam_step(params: Sequence[Tensor], grads: Sequence[np.ndarray],
              state: AdamState) -> None:
    """One bias-corrected Adam update, in place, with the corrections
    folded into the step size and epsilon (Kingma & Ba 2015, section 2):
    ``p -= a_t * m / (sqrt(v) + e_t)``, where ``a_t = lr * sqrt(1 - beta2**t)
    / (1 - beta1**t)`` and ``e_t = epsilon * sqrt(1 - beta2**t)``. That is the
    textbook ``lr * m_hat / (sqrt(v_hat) + epsilon)`` up to rounding, with
    no per-element division by ``1 - beta**t``.

    Every shape is checked before anything changes. A parameter whose
    gradient is exactly all-zero is left untouched for that step (no
    moment decay), so zero gradients are a strict no-op.
    Each parameter is updated one block of rows (of elements, for a 1-D
    parameter) at a time, about ``ADAM_BLOCK`` elements, and all twelve
    passes of the update run on one block before the next block starts. A
    block of the parameter, its gradient, both moments and the scratch
    array then stays in cache across the passes, where whole arrays as
    wide as the 5002-input cell layer would stream through memory once per
    pass. Moments and parameters are updated in their own buffers, in the
    operation order of the folded update written out; every operation is
    element-wise, so the results match it bit for bit.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("parameter, gradient, and state lists must align")
    for p, g in zip(params, grads):
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} does not match parameter {p.data.shape}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - state.beta1 ** t
    root_bc2 = math.sqrt(1.0 - state.beta2 ** t)
    step_size = state.lr * root_bc2 / bc1
    eps_hat = state.epsilon * root_bc2
    for i, (p, g) in enumerate(zip(params, grads)):
        if g.flat[0] == 0 and not g.any():  # a nonzero or NaN first element skips the scan
            continue
        # row slices of these are views whatever the memory layout
        p_all, g_all, m_all, v_all = map(np.atleast_1d, (p.data, g, state.m[i], state.v[i]))
        rows = _block_rows(p_all.shape)
        for s in range(0, p_all.shape[0], rows):
            g_b, m_b, v_b = g_all[s : s + rows], m_all[s : s + rows], v_all[s : s + rows]
            scratch = state.scratch[: g_b.size].reshape(g_b.shape)
            np.multiply(g_b, 1.0 - state.beta1, out=scratch)
            m_b *= state.beta1
            m_b += scratch
            np.square(g_b, out=scratch)
            scratch *= 1.0 - state.beta2
            v_b *= state.beta2
            v_b += scratch
            np.sqrt(v_b, out=scratch)
            scratch += eps_hat
            np.divide(m_b, scratch, out=scratch)
            scratch *= step_size
            p_all[s : s + rows] -= scratch


# ---------------------------------------------------------------------------
# process allocator
# ---------------------------------------------------------------------------

# glibc mallopt(3) parameters, as (name, <malloc.h> number, value). A step
# frees its whole tape at once. By default glibc then trims the heap top
# back to the OS, and the next step page-faults the same memory in again:
# about 600 minor faults per paper-shaped training step. It also maps each
# array above its mmap threshold fresh, and that threshold moves with
# whichever large array was freed last; setting any parameter freezes it.
# The pair keeps a step's temporaries in a resident heap: about 0 faults
# per training step and per evaluation pass. Neither alone does: the mmap
# threshold alone leaves the trim (about 700 faults per step), the trim
# threshold alone leaves large arrays mapped fresh (about 3,000 per pass).
# A top pad adds nothing to the pair, so it is not set.
MALLOPT = (("mmap_threshold", -3, 32 << 20), ("trim_threshold", -1, 64 << 20))

_allocator: str | None = None  # the setting, once pin_allocator has run


def pin_allocator() -> str:
    """Fix glibc's mmap and trim thresholds (:data:`MALLOPT`) on the first
    call; return the setting as one line, ``"default"`` where it did not
    apply.

    The setting is process-wide and is made once: later calls change
    nothing. It overrides any ``MALLOC_MMAP_THRESHOLD_`` or
    ``MALLOC_TRIM_THRESHOLD_`` in the environment. Where the C library is
    not glibc, or cannot be loaded, nothing is set.
    """
    global _allocator
    if _allocator is None:
        _allocator = "default"
        try:
            libc = ctypes.CDLL(None)
            libc.gnu_get_libc_version  # present in glibc only
            mallopt = libc.mallopt
        except (OSError, AttributeError):
            return _allocator
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        applied = [f"{name}={value}" for name, param, value in MALLOPT
                   if mallopt(param, value) == 1]
        if applied:
            _allocator = " ".join(["glibc", *applied])
    return _allocator


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def finite_diff_check(f, x: Tensor, epsilon: float = 1e-5) -> float:
    """Max relative error between the autodiff gradient of f at x and
    central finite differences.

    `f(tape, t)` must build a scalar Tensor from `t`; the probes pass the
    tape ``None``. Relative error per coordinate uses the denominator
    max(|autodiff|, |numeric|, 1e-8). Only meaningful where f is
    differentiable (keep inputs away from relu kinks).
    """
    x_ad = Tensor(x.data.copy(), requires_grad=True)
    tape = Tape()
    out = f(tape, x_ad)
    if out.data.size != 1:
        raise ValueError("finite_diff_check needs a scalar-valued function")
    (auto,) = backward(tape, out, [x_ad])

    work = Tensor(x.data.copy())
    numeric = np.zeros_like(work.data)
    flat = work.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + epsilon
        f_plus = float(f(None, work).data.reshape(-1)[0])
        flat[i] = orig - epsilon
        f_minus = float(f(None, work).data.reshape(-1)[0])
        flat[i] = orig
        num_flat[i] = (f_plus - f_minus) / (2.0 * epsilon)

    denom = np.maximum(np.maximum(np.abs(auto), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(auto - numeric) / denom))
