"""Independent oracles shared by the unit and acceptance suites.

These stay deliberately naive: exact-summation Pearson, an explicit
central-difference sweep over parameter tensors, a hand-rolled graph
builder that does not go through the library's normalization code path more
than it must, and a forward pass over zero-padded, masked graph matrices.
"""

import math

import numpy as np

from cdrpipe.molgraph import PaddedGraph


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
