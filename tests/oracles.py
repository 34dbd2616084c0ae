"""Independent oracles shared by the unit and acceptance suites.

These stay deliberately naive: exact-summation Pearson, an explicit
central-difference sweep over parameter tensors, a hand-rolled graph
builder that does not go through the library's normalization code path more
than it must, a forward pass over zero-padded, masked graph matrices, an
eval-mode prediction computed one record at a time, a max-pool routed by
one ``np.argmax`` per segment, the segment-Pearson arithmetic run one
group at a time, raw-expression features built by stacking,
fancy-indexing and scaling whole matrices, a drug graph's bond checks and
normalized adjacency taken one bond at a time, a train-mode batch norm
whose statistics come from ``x.mean`` and ``x.var``, and two tape
operations only the tests use: the graph propagation on its own, which the
fused ``graph_conv`` layer is checked against, and the sum every gradient
test reduces an output to.
"""

import math

import numpy as np

from cdrpipe import autodiff as ad
from cdrpipe import evaluation
from cdrpipe.molgraph import GraphError, PaddedGraph


def propagate(tape, blocks, x):
    """Block-diagonal product recorded as one node: each square block
    multiplies its own segment of x's rows, in order, with one ``np.matmul``
    per block; the gradient is each block's transpose times its segment of
    the output gradient. The blocks are constants and must be square and
    tile x's rows, or rows of the output would be left unwritten."""
    sizes = [block.shape[0] for block in blocks]
    if (any(block.shape != (n, n) for block, n in zip(blocks, sizes))
            or sum(sizes) != x.data.shape[0]):
        raise ValueError(f"propagate: blocks of sizes {sizes} do not tile "
                         f"{x.data.shape[0]} rows")

    def per_block(m, transpose):
        out, start = np.empty_like(m), 0
        for block in blocks:
            stop = start + block.shape[0]
            np.matmul(block.T if transpose else block, m[start:stop], out=out[start:stop])
            start = stop
        return out

    return ad._result(tape, (x,), per_block(x.data, False), lambda g: (per_block(g, True),))


def sum_all(tape, x):
    """Sum of all elements as a 1 x 1 tensor, recorded as one node."""
    return ad._result(tape, (x,), np.array([[x.data.sum()]]),
                      lambda g: (np.full_like(x.data, g.reshape(-1)[0]),))


def batch_norm_train(tape, x, state):
    """Train-mode batch norm with its batch statistics from ``x.mean`` and
    ``x.var``, each of which centres the batch itself; it updates the
    running statistics of ``state`` and records one node."""
    mean, var = x.data.mean(axis=0), x.data.var(axis=0)
    m = state.momentum
    state.running_mean = m * state.running_mean + (1.0 - m) * mean
    state.running_var = m * state.running_var + (1.0 - m) * var
    inv_std = 1.0 / np.sqrt(var + state.eps)
    xhat = (x.data - mean) * inv_std
    gamma, beta, n = state.gamma, state.beta, x.data.shape[0]

    def backward_fn(g):
        gh = g * gamma.data
        gx = inv_std / n * (n * gh - gh.sum(axis=0) - xhat * (gh * xhat).sum(axis=0))
        return gx, (g * xhat).sum(axis=0, keepdims=True), g.sum(axis=0, keepdims=True)

    return ad._result(tape, (x, gamma, beta), gamma.data * xhat + beta.data, backward_fn)


def pearson_bruteforce(x, y):
    """Two-pass Pearson with exact (fsum) accumulation."""
    n = len(x)
    if n < 2:
        return None
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxy = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    sxx = math.fsum((a - mx) ** 2 for a in x)
    syy = math.fsum((b - my) ** 2 for b in y)
    if sxx == 0.0 or syy == 0.0:
        return None
    return sxy / math.sqrt(sxx * syy)


def finite_diff_params(loss_fn, tensors, grads, epsilon=1e-5, informative=1e-4):
    """Compare the autodiff gradients ``grads`` (one array per tensor, in
    order) against central differences of loss_fn() under in-place
    perturbation of each tensor's data.

    Returns (max relative error over informative coordinates, max absolute
    disagreement over the rest). Central differences of an O(1) double-
    precision loss resolve gradients to roughly 1e-10 absolute, so on
    coordinates where both sides are below `informative` the relative
    formula only measures that noise; there agreement is asserted
    absolutely (a real backward bug still shows up as an absolute gap far
    above 1e-9).

    loss_fn must be a pure forward pass reading the tensors' current data.
    """
    worst_rel = 0.0
    worst_small = 0.0
    for t, grad in zip(tensors, grads, strict=True):
        flat = t.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + epsilon
            f_plus = loss_fn()
            flat[i] = orig - epsilon
            f_minus = loss_fn()
            flat[i] = orig
            numeric[i] = (f_plus - f_minus) / (2.0 * epsilon)
        auto = grad.reshape(-1)
        small = (np.abs(auto) < informative) & (np.abs(numeric) < informative)
        diff = np.abs(auto - numeric)
        if np.any(small):
            worst_small = max(worst_small, float(diff[small].max()))
        if np.any(~small):
            denom = np.maximum(np.maximum(np.abs(auto), np.abs(numeric)), 1e-8)
            worst_rel = max(worst_rel, float((diff[~small] / denom[~small]).max()))
    return worst_rel, worst_small


def reference_forward(graphs, cells, params, cfg):
    """Plain-numpy replication of the batched train-mode regression forward.

    Each graph's features and adjacency are zero-padded to its capacity
    (the mask's length), as in DeepCDR, and the mask selects the real atoms
    for the readout. Returns (predictions, kink margin): the margin is the
    smallest distance of any relu input from zero, together with the
    smallest live top-two max-pool gap. Finite-difference probes of step
    epsilon are only meaningful when the margin comfortably exceeds epsilon.
    """
    margins = [np.inf]
    pooled_by_graph = {}
    rows = []
    for g in graphs:
        key = id(g)
        if key not in pooled_by_graph:
            n_max = g.mask.shape[0]
            h = np.zeros((n_max, g.features.shape[1]))
            h[g.mask] = g.features
            adj = np.zeros((n_max, n_max))
            adj[np.ix_(g.mask, g.mask)] = g.norm_adjacency
            for layer in params.gcn:
                pre = adj @ (h @ layer.weight.data) + layer.bias.data
                margins.append(np.abs(pre[g.mask]).min())
                h = np.maximum(pre, 0.0)
            real = h[g.mask]
            if real.shape[0] >= 2:
                top2 = np.sort(real, axis=0)[-2:]
                gap = top2[1] - top2[0]
                live = (top2[1] > 0) & (gap > 0)  # identical dead rows tie harmlessly
                if np.any(live):
                    margins.append(gap[live].min())
            pooled_by_graph[key] = real.max(axis=0)
        rows.append(pooled_by_graph[key])
    drug = np.stack(rows)

    def dense_stack(x, layers, activate_last):
        for i, layer in enumerate(layers):
            x = x @ layer.weight.data + layer.bias.data
            if not activate_last and i == len(layers) - 1:
                return x
            if layer.norm is not None:
                xhat = (x - x.mean(axis=0)) / np.sqrt(x.var(axis=0) + layer.norm.eps)
                x = layer.norm.gamma.data * xhat + layer.norm.beta.data
            margins.append(np.abs(x).min())
            x = np.maximum(x, 0.0)
        return x

    cell = dense_stack(np.asarray(cells, dtype=np.float64), params.cell, True)
    out = dense_stack(np.concatenate([drug, cell], axis=1), params.head, False)
    return out, float(min(margins))


def reference_predict(dataset, params):
    """Plain-numpy eval-mode predictions for a joined dataset, one record at
    a time, in record order.

    Each record's graph runs every GCN layer over its own normalized
    adjacency and is max-pooled; its cell vector runs the cell branch; their
    concatenation runs the whole head. Batch norm uses the running
    statistics and dropout is the identity. Nothing is packed, factorized,
    recorded or shared between records.
    """
    def dense_stack(x, layers, activate_last):
        for i, layer in enumerate(layers):
            x = x @ layer.weight.data + layer.bias.data[0]
            if not activate_last and i == len(layers) - 1:
                return x
            if layer.norm is not None:
                bn = layer.norm
                xhat = (x - bn.running_mean) / np.sqrt(bn.running_var + bn.eps)
                x = bn.gamma.data[0] * xhat + bn.beta.data[0]
            x = np.maximum(x, 0.0)
        return x

    out = []
    for record in dataset.records:
        graph = dataset.graphs[record.drug_id]
        h = graph.features
        for layer in params.gcn:
            h = np.maximum(graph.norm_adjacency @ (h @ layer.weight.data) + layer.bias.data[0], 0.0)
        cell = dense_stack(dataset.cells.vectors[record.cell_line_id], params.cell, True)
        out.append(dense_stack(np.concatenate([h.max(axis=0), cell]), params.head, False)[0])
    return np.array(out)


def reference_expression_features(profiles, canonical):
    """Raw-expression features the way they were first built, as a
    (cells x canonical genes) matrix in profile order.

    The profiles (which share one gene list) are stacked into a table, the
    table is aligned onto the canonical list with one fancy index into a
    zeroed matrix, and the aligned matrix is scaled by the CPM-log1p formula
    as written, ``log1p(values / total * 1e6)``, each step making new arrays.
    """
    genes = profiles[0].gene_ids
    table = np.array([p.values for p in profiles]).reshape(len(profiles), len(genes))
    index = {g: j for j, g in enumerate(genes)}
    present = [i for i, gene in enumerate(canonical) if gene in index]
    aligned = np.zeros((len(profiles), len(canonical)))
    aligned[..., present] = table[..., [index[canonical[i]] for i in present]]
    total = aligned.sum(axis=-1, keepdims=True)
    return np.log1p(aligned / total * 1e6)


def random_padded_graph(rng, n_atoms, n_max, feat_dim):
    """A random connected graph, symmetrically normalized by hand, as the
    encoder's real-atom record with capacity n_max."""
    adj = np.zeros((n_atoms, n_atoms))
    for i in range(1, n_atoms):
        j = int(rng.integers(0, i))
        adj[i, j] = adj[j, i] = 1.0
    adj += np.eye(n_atoms)
    inv_sqrt = 1.0 / np.sqrt(adj.sum(axis=1))
    norm = inv_sqrt[:, None] * adj * inv_sqrt[None, :]

    features = rng.normal(size=(n_atoms, feat_dim))
    mask = np.zeros(n_max, dtype=bool)
    mask[:n_atoms] = True
    return PaddedGraph(features=features, norm_adjacency=norm, mask=mask)


def graph_conv_point(rng, n, d, k, blocks, margin=0.05):
    """Inputs x (n x d), W (d x k) and b (1 x k) of a graph-convolution layer
    ``relu(A (x W) + b)`` whose pre-activations all lie at least ``margin``
    from the relu kink, some of them above it; redrawn from rng until they
    do. A is the block-diagonal matrix of ``blocks``, formed densely here,
    or the identity when ``blocks`` is None."""
    a = np.eye(n)
    if blocks is not None:
        s = 0
        for block in blocks:
            e = s + block.shape[0]
            a[s:e, s:e] = block
            s = e
    while True:
        x, w, b = rng.normal(size=(n, d)), rng.normal(size=(d, k)), rng.normal(size=(1, k))
        pre = a @ (x @ w) + b
        if np.abs(pre).min() > margin and (pre > 0).any():
            return x, w, b


def segment_pearson_per_group(x, y, codes, n_groups):
    """One PCC per group, NaN where undefined, each group scored on its own
    with ``evaluation.segment_pearson``'s arithmetic: its rows in input
    order (the order a stable sort of the codes as ``np.intp`` gives),
    ``_scaled_deviations`` over one segment, and the three sums of
    products. No sort is involved."""
    out = np.full(n_groups, np.nan)
    one = np.zeros(1, dtype=np.intp)
    for g in np.unique(codes):
        group = [x[codes == g], y[codes == g]]
        extremes = [(v.min(keepdims=True), v.max(keepdims=True)) for v in group]
        if not all(np.isfinite(lo) & np.isfinite(hi) & (lo < hi) for lo, hi in extremes):
            continue
        xc, yc = (evaluation._scaled_deviations(v, lo, hi, one, np.array([v.size]),
                                                np.zeros(v.size, dtype=np.intp))
                  for v, (lo, hi) in zip(group, extremes))
        sxy, sxx, syy = (np.add.reduceat(a * b, one) for a, b in ((xc, yc), (xc, xc), (yc, yc)))
        out[g] = np.clip(sxy / np.sqrt(sxx * syy), -1.0, 1.0)[0]
    return out


def segment_argmax(x, sizes):
    """Column maxima of each consecutive segment of x's rows, and the
    gradient of their sum with respect to x: a 1 in each column at the row
    ``np.argmax`` picks within the segment (the lowest maximal row, or the
    first NaN row), 0 elsewhere. One argmax per segment."""
    maxima = np.empty((len(sizes), x.shape[1]))
    routing = np.zeros_like(x)
    cols = np.arange(x.shape[1])
    start = 0
    for i, n in enumerate(sizes):
        rows = start + np.argmax(x[start : start + n], axis=0)
        maxima[i] = x[rows, cols]
        routing[rows, cols] = 1.0
        start += n
    return maxima, routing


def reference_bonds(drug_id, n, adjacency, degrees):
    """A graph's bonds checked one at a time, in file order: the canonical
    ``(min, max)`` pairs in file order, or the GraphError of the first bond
    out of range, on one atom or repeating an earlier one, else of the first
    atom whose degree the bonds do not give."""
    seen: dict[tuple[int, int], None] = {}
    counts = np.zeros(n, dtype=np.int64)
    for i, j in adjacency:
        if not (0 <= i < n and 0 <= j < n):
            raise GraphError(f"drug {drug_id!r}: bond ({i}, {j}) references an "
                             f"atom outside [0, {n})")
        if i == j:
            raise GraphError(f"drug {drug_id!r}: self-loop on atom {i}")
        pair = (min(i, j), max(i, j))
        if pair in seen:
            raise GraphError(f"drug {drug_id!r}: duplicate bond {pair}")
        seen[pair] = None
        counts[i] += 1
        counts[j] += 1
    degrees = np.asarray(degrees, dtype=np.int64)
    if not np.array_equal(counts, degrees):
        bad = int(np.nonzero(counts != degrees)[0][0])
        raise GraphError(
            f"drug {drug_id!r}: degree list says {int(degrees[bad])} for atom "
            f"{bad} but the adjacency implies {int(counts[bad])}")
    return list(seen)


def reference_normalized_adjacency(n, adjacency):
    """D^{-1/2} (A + I) D^{-1/2} with A's entries set one bond at a time."""
    a = np.eye(n)
    for i, j in adjacency:
        a[i, j] = 1.0
        a[j, i] = 1.0
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return inv_sqrt[:, None] * a * inv_sqrt[None, :]
