"""The predictive network: a graph-convolutional drug encoder with max-pool
readout, a dense branch over precomputed cell-line vectors, and an MLP head
over both embeddings.

The graph encoder packs a list of drugs into one disjoint union: their atoms
stacked into one matrix, each graph's normalized adjacency applied to its
own row segment, and one max-pooled row per graph. Each layer,
``relu(Â(H W) + b)``, is one node on the tape. The first layer's
propagation is a per-drug constant, ``ÂX``, built at ingest (see
``PaddedGraph``), so only the deeper layers apply ``Â``. It carries no batch
normalization or dropout, so a drug's embedding depends only on its graph
and the parameters. Batch normalization sits after each hidden linear layer
of the cell branch and head, before the activation. The head's last layer
emits the IC50 regression output directly, with no activation.

The head is written once, in :func:`predict`. Its first layer is linear
over ``[drug ; cell]``, so with its weight split as ``W = [W_d ; W_c]`` a
record's first pre-activation is ``d W_d + (c W_c + b)``. Both entry
points encode and project each distinct drug once and gather a projected
row per record. Training (``forward_batch``, on a tape) projects the cells
per record, since batch norm takes its statistics over the batch; the
eval-mode pass (``predict_records``) records nothing and projects each
distinct cell line once. In eval mode the head's first batch norm lives
in the weights: there it is a fixed per-column affine map, so
:func:`_first_layer` folds it into ``W_d``, ``W_c`` and ``b`` for both
entry points, and a record's own work is a gather-add, relu and the rest
of the head (the width-1 product at the default widths). The cell
branch's batch norm is not folded: in eval mode it already runs once per
distinct cell line, not once per record, so a fold would save little. The
eval pass also closes a drug pack before its atom rows times the widest
GCN layer's 8-byte activations would pass ``DRUG_PACK_BYTES``, one core's
L2 cache, so each layer works on an activation held in L2 rather than
streamed from L3. Each row's arithmetic is the same in any pack and in
both entry points, so where BLAS runs every product as a matrix product
(layers at least 4 wide, packs of at least 2 atom rows) the two give equal
bytes; a one-row product takes BLAS's matrix-vector routine and may
differ in the last bit.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, asdict
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .molgraph import ATOM_FEATURE_DIM, PaddedGraph
from .tables import atomic_write

CHECKPOINT_MAGIC = "cdr-checkpoint"
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """A checkpoint file is unreadable or does not match expectations."""


@dataclass
class ModelConfig:
    gcn_layer_dims: tuple[int, ...] = (256, 128)
    cell_branch_dims: tuple[int, ...] = (128,)
    head_dims: tuple[int, ...] = (128, 1)
    dropout_rate: float = 0.1
    use_batch_norm: bool = True
    n_max_atoms: int = 100
    cell_input_dim: int = 512
    atom_input_dim: int = ATOM_FEATURE_DIM

    def __post_init__(self):
        self.gcn_layer_dims = tuple(int(d) for d in self.gcn_layer_dims)
        self.cell_branch_dims = tuple(int(d) for d in self.cell_branch_dims)
        self.head_dims = tuple(int(d) for d in self.head_dims)
        dims = self.gcn_layer_dims + self.cell_branch_dims + self.head_dims
        if not dims or any(d <= 0 for d in dims):
            raise ValueError("all layer widths must be positive")
        if not self.gcn_layer_dims or not self.head_dims:
            raise ValueError("the graph encoder and head each need at least one layer")
        if self.head_dims[-1] != 1:
            raise ValueError(f"the head must end in width 1, got {self.head_dims[-1]}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        for name in ("n_max_atoms", "cell_input_dim", "atom_input_dim"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


@dataclass
class Layer:
    """One affine map ``x W + b``, followed by batch norm when ``norm`` is set."""

    weight: ad.Tensor
    bias: ad.Tensor
    norm: ad.BatchNormState | None = None


@dataclass
class ModelParams:
    """All trainable tensors plus batch-norm running statistics."""

    gcn: list[Layer]
    cell: list[Layer]
    head: list[Layer]

    def _entries(self) -> Iterator[tuple[str, ad.Tensor | np.ndarray]]:
        """Every checkpointed entry by name, branch by branch and layer by
        layer: tensors are trainable, bare arrays are running statistics."""
        for branch in ("gcn", "cell", "head"):
            for i, layer in enumerate(getattr(self, branch)):
                yield f"{branch}.{i}.weight", layer.weight
                yield f"{branch}.{i}.bias", layer.bias
                if layer.norm is not None:
                    yield f"{branch}.{i}.norm.gamma", layer.norm.gamma
                    yield f"{branch}.{i}.norm.beta", layer.norm.beta
                    yield f"{branch}.{i}.norm.running_mean", layer.norm.running_mean
                    yield f"{branch}.{i}.norm.running_var", layer.norm.running_var

    def parameters(self) -> list[ad.Tensor]:
        return [entry for _, entry in self._entries() if isinstance(entry, ad.Tensor)]

    def named_arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        """Every array worth checkpointing, in a stable order."""
        for name, entry in self._entries():
            yield name, entry.data if isinstance(entry, ad.Tensor) else entry

    def copy(self) -> "ModelParams":
        return copy.deepcopy(self)


def init_params(cfg: ModelConfig, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, unit batch norm; deterministic per seed.

    ``np.random.default_rng(seed)`` draws one ``uniform(-b, b)`` weight of shape
    (fan_in, fan_out), ``b = sqrt(6 / (fan_in + fan_out))``, per layer in the
    order gcn, cell, head, and nothing else, so a seed fixes every initial byte.
    """
    rng = np.random.default_rng(seed)

    def stack(in_dim, dims, norm_hidden, norm_last):
        layers = []
        for i, out_dim in enumerate(dims):
            bound = np.sqrt(6.0 / (in_dim + out_dim))
            weight = rng.uniform(-bound, bound, size=(in_dim, out_dim))
            with_norm = norm_last if i == len(dims) - 1 else norm_hidden
            layers.append(Layer(ad.Tensor(weight, requires_grad=True),
                                ad.Tensor(np.zeros((1, out_dim)), requires_grad=True),
                                ad.BatchNormState(out_dim) if with_norm else None))
            in_dim = out_dim
        return layers

    bn = cfg.use_batch_norm
    cell_width = cfg.cell_branch_dims[-1] if cfg.cell_branch_dims else cfg.cell_input_dim
    # keyword arguments evaluate left to right, which fixes the draw order
    return ModelParams(
        gcn=stack(cfg.atom_input_dim, cfg.gcn_layer_dims, False, False),
        cell=stack(cfg.cell_input_dim, cfg.cell_branch_dims, bn, bn),
        head=stack(cfg.gcn_layer_dims[-1] + cell_width, cfg.head_dims, bn, False),
    )


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def encode_drug(tape: ad.Tape | None, graphs: Sequence[PaddedGraph], params: ModelParams,
                cfg: ModelConfig) -> ad.Tensor:
    """One pooled embedding row per graph, in order.

    The graphs' ingest-time propagated features ``ÂX`` are stacked into one
    (total atoms) x features matrix. Each GCN layer is one
    :func:`autodiff.graph_conv` node: the first layer's takes no blocks,
    since its propagation is already done; each deeper layer's propagates
    over the graphs' normalized adjacencies, one block per graph. A
    per-graph column max is the readout, so a tape gains one node per layer
    plus one. No other graph in the list reaches a graph's row.
    """
    propagated = np.concatenate([g.propagated for g in graphs])
    if propagated.shape[1] != cfg.atom_input_dim:
        raise ValueError(f"atom features of width {propagated.shape[1]}, model expects "
                         f"{cfg.atom_input_dim}")
    blocks = [g.norm_adjacency for g in graphs]
    first, *deeper = params.gcn
    h = ad.graph_conv(tape, ad.Tensor(propagated), first.weight, first.bias)
    for layer in deeper:
        h = ad.graph_conv(tape, h, layer.weight, layer.bias, blocks)
    return ad.segment_max(tape, h, [b.shape[0] for b in blocks])


def _post_linear(tape, x, norm: ad.BatchNormState | None, cfg, mode, rng):
    """A hidden layer's step after its affine map: batch norm (if ``norm``
    is set), relu, dropout."""
    if norm is not None:
        x = ad.batch_norm(tape, x, norm, mode)
    x = ad.relu(tape, x)
    return ad.dropout(tape, x, cfg.dropout_rate, mode, rng)


def _dense_stack(tape, x, layers: Sequence[Layer], cfg, mode, rng,
                 activate_last: bool):
    for i, layer in enumerate(layers):
        x = ad.add(tape, ad.matmul(tape, x, layer.weight), layer.bias)
        if activate_last or i < len(layers) - 1:
            x = _post_linear(tape, x, layer.norm, cfg, mode, rng)
    return x


def encode_cell(tape: ad.Tape | None, features: ad.Tensor, params: ModelParams,
                cfg: ModelConfig, mode: str,
                rng: np.random.Generator | None = None) -> ad.Tensor:
    """Dense branch over fixed, precomputed cell-line vectors."""
    x = features if isinstance(features, ad.Tensor) else ad.Tensor(features)
    if x.data.shape[1] != cfg.cell_input_dim:
        raise ValueError(
            f"cell vector of width {x.data.shape[1]}, model expects {cfg.cell_input_dim}")
    return _dense_stack(tape, x, params.cell, cfg, mode, rng, activate_last=True)


def _first_layer(tape, params: ModelParams, cfg: ModelConfig, mode: str):
    """The head's first affine map as ``(W_d, W_c, b)``: its weight's two
    row halves, ``W = [W_d ; W_c]``, and its bias.

    In eval mode the layer's batch norm is a fixed per-column affine map,
    so it is folded in (Jacob et al. 2018, section 3.2): with
    ``s = gamma / sqrt(running_var + eps)`` the halves become ``W_d s`` and
    ``W_c s`` and the bias ``(b - running_mean) s + beta``, and
    :func:`predict` applies no norm to the layer. The fold is built from
    taped ops, so gradients reach ``W``, ``b``, ``gamma`` and ``beta``. In
    train mode, or where the layer has no norm, the halves are row views of
    ``W`` and the bias is ``b`` itself.
    """
    first, width = params.head[0], cfg.gcn_layer_dims[-1]
    w, norm = first.weight, first.norm
    w_drug = ad.row_slice(tape, w, 0, width)
    w_cell = ad.row_slice(tape, w, width, w.data.shape[0])
    if mode != "eval" or norm is None:
        return w_drug, w_cell, first.bias
    inv_std = ad.Tensor((1.0 / np.sqrt(norm.running_var + norm.eps)).reshape(1, -1))
    scale = ad.mul(tape, norm.gamma, inv_std)
    centred = ad.add(tape, first.bias, ad.Tensor(-norm.running_mean))
    bias = ad.add(tape, ad.mul(tape, centred, scale), norm.beta)
    return ad.mul(tape, w_drug, scale), ad.mul(tape, w_cell, scale), bias


def predict(tape: ad.Tape | None, drug_part: ad.Tensor, cell_part: ad.Tensor,
            params: ModelParams, cfg: ModelConfig, mode: str,
            rng: np.random.Generator | None = None) -> ad.Tensor:
    """The head: one regressed IC50 per row, from each row's two halves of
    the first layer's affine map, ``drug_part = d W_d`` and
    ``cell_part = c W_c + b``, with ``(W_d, W_c, b)`` from
    :func:`_first_layer` in the same mode. Their sum is the first
    pre-activation, and the head's output where the head has one layer.
    In eval mode that layer's batch norm is already folded into the
    halves, so only relu and dropout follow the sum; in train mode batch
    norm runs on it, over the batch's statistics."""
    first, rest = params.head[0], params.head[1:]
    h = ad.add(tape, drug_part, cell_part)
    # untaped and passed as temporaries (predict_records), the halves are
    # freed here, so the rest of the head reuses their memory while it is
    # in cache (BENCH_23.json)
    del drug_part, cell_part
    if not rest:
        return h
    h = _post_linear(tape, h, None if mode == "eval" else first.norm, cfg, mode, rng)
    return _dense_stack(tape, h, rest, cfg, mode, rng, activate_last=False)


def forward_batch(tape: ad.Tape, graphs: Sequence[PaddedGraph], cell_matrix,
                  params: ModelParams, cfg: ModelConfig, mode: str,
                  rng: np.random.Generator | None = None) -> ad.Tensor:
    """Predictions for a batch of (graph, cell vector) pairs.

    The batch's distinct graph objects are encoded in one packed call and
    projected through ``W_d``; each record gathers its drug's projected
    row, so a repeated graph's gradient sums over its records. The cells
    are encoded and projected per record, as train-mode batch norm needs.
    In eval mode the head's first batch norm is folded into ``W_d``,
    ``W_c`` and ``b`` (:func:`_first_layer`), as in
    :func:`predict_records`, and the fold's ops are on the tape.
    """
    distinct = list({id(g): g for g in graphs}.values())
    slot = {id(g): i for i, g in enumerate(distinct)}
    w_drug, w_cell, bias = _first_layer(tape, params, cfg, mode)
    drug_part = ad.gather_rows(
        tape, ad.matmul(tape, encode_drug(tape, distinct, params, cfg), w_drug),
        [slot[id(g)] for g in graphs])
    cell_emb = encode_cell(tape, ad.Tensor(np.asarray(cell_matrix)), params, cfg, mode, rng)
    cell_part = ad.add(tape, ad.matmul(tape, cell_emb, w_cell), bias)
    return predict(tape, drug_part, cell_part, params, cfg, mode, rng)


# An eval drug pack closes before its widest GCN activation (atom rows x the
# widest layer x 8 bytes) would pass this many bytes: one core's 2 MiB L2 on
# the 2-core x86-64 host measured, 1,024 rows at the default widths. With
# screen_eval's 200 drugs (6,244 atom rows) in one pack, the first layer's
# activation was 12.8 MB and streamed from L3; in packs, predict_records_per_s
# rose 11.2% in 10 of 10 pairs (BENCH_22.json). 0.75 to 4 MiB timed alike.
DRUG_PACK_BYTES = 2 * 1024 * 1024


def _packs(items: list, size: int, rows: Sequence[int], max_rows: int) -> list[list]:
    """Consecutive packs of ``items``, in order, each of at most ``size``
    items whose ``rows`` sum to at most ``max_rows``; an item with more rows
    than that is a pack of its own."""
    packs, total = [], 0
    for item, n in zip(items, rows):
        if packs and len(packs[-1]) < size and total + n <= max_rows:
            packs[-1].append(item)
            total += n
        else:
            packs.append([item])
            total = n
    return packs


def predict_records(params: ModelParams, cfg: ModelConfig, dataset,
                    batch_size: int = 256) -> np.ndarray:
    """Eval-mode predictions for every record of a joined dataset, in
    record order.

    Three passes run with the tape ``None``, so nothing is recorded. The
    dataset's ``drug_ids``, distinct and in order of first appearance, are
    encoded in consecutive packs, then projected through ``W_d`` in one
    product. A pack holds at most ``batch_size`` graphs and at most
    ``DRUG_PACK_BYTES`` of its widest GCN activation (atom rows x the widest
    of ``gcn_layer_dims`` x 8 bytes), so each layer's activation stays in one
    core's L2 cache; a graph over that budget is a pack of its own. The
    dataset's ``cell_ids`` are encoded at most ``batch_size`` rows per
    ``encode_cell`` call, each pack taken from ``dataset.cells.matrix`` in
    one ``np.take`` through the ``cell_rows`` column, and projected through
    ``W_c`` plus ``b``. The head's first batch norm is folded into ``W_d``,
    ``W_c`` and ``b`` (:func:`_first_layer`), so it runs once per column
    of those, not once per record; the cell branch's own batch norm
    already runs once per distinct cell line. Then each chunk of
    ``batch_size`` records gathers its two rows through the ``drug_index``
    and ``cell_index`` columns and runs :func:`predict` on them: a
    gather-add, relu and the rest of the head. It reads the columns and
    the matrix only,
    never ``dataset.records`` or a per-id lookup. A ``batch_size`` below 1
    raises ``ValueError``.

    On entry it pins the process's allocator (:func:`autodiff.pin_allocator`):
    a process-wide setting, made once, that overrides any
    ``MALLOC_MMAP_THRESHOLD_`` or ``MALLOC_TRIM_THRESHOLD_`` in the
    environment.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be at least 1, got {batch_size}")
    ad.pin_allocator()
    out = np.empty(len(dataset))
    if not out.size:
        return out
    w_drug, w_cell, bias = _first_layer(None, params, cfg, "eval")
    graphs = [dataset.graphs[d] for d in dataset.drug_ids]
    packs = _packs(graphs, batch_size, [g.n_atoms for g in graphs],
                   DRUG_PACK_BYTES // (8 * max(cfg.gcn_layer_dims)))
    drug_part = np.concatenate([encode_drug(None, pack, params, cfg).data
                                for pack in packs]) @ w_drug.data
    cells, rows = dataset.cells.matrix, dataset.cell_rows
    cell_part = np.concatenate([
        encode_cell(None, np.take(cells, rows[s:s + batch_size], axis=0), params, cfg,
                    "eval").data @ w_cell.data
        for s in range(0, rows.size, batch_size)]) + bias.data
    for start in range(0, out.size, batch_size):
        chunk = slice(start, start + batch_size)
        out[chunk] = predict(None, ad.Tensor(drug_part[dataset.drug_index[chunk]]),
                             ad.Tensor(cell_part[dataset.cell_index[chunk]]),
                             params, cfg, "eval").data[:, 0]
    return out


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def save_checkpoint(path, cfg: ModelConfig, params: ModelParams) -> None:
    """Write a versioned container: JSON header plus raw little-endian float64.

    The file appears whole or not at all (see :func:`tables.atomic_write`).
    """
    arrays = list(params.named_arrays())
    header = {
        "magic": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "config": asdict(cfg),
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in arrays],
    }
    with atomic_write(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for _, arr in arrays:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelConfig, ModelParams]:
    """Read a checkpoint, rejecting a file that cannot be opened, version,
    header-key or shape mismatches, and non-finite array values."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"{path}: cannot open the checkpoint: {exc.strerror}") from None
    with fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise CheckpointError(f"{path}: not a checkpoint file") from None
        if not isinstance(header, dict) or header.get("magic") != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"{path}: checkpoint version {header.get('version')} is not supported "
                f"(expected {CHECKPOINT_VERSION})")
        try:
            cfg = ModelConfig(**header["config"])
            declared = [(d["name"], tuple(d["shape"])) for d in header["arrays"]]
        except KeyError as exc:
            raise CheckpointError(f"{path}: checkpoint header has no key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise CheckpointError(f"{path}: checkpoint header does not fit this model: {exc}") from None
        params = init_params(cfg, seed=0)
        expected = list(params.named_arrays())
        if [name for name, _ in declared] != [n for n, _ in expected]:
            raise CheckpointError(f"{path}: checkpoint arrays do not match the configuration")
        for (_, shape), (name, arr) in zip(declared, expected):
            if shape != arr.shape:
                raise CheckpointError(
                    f"{path}: array {name} has shape {shape}, expected {arr.shape}")
            count = int(np.prod(shape)) if shape else 1
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise CheckpointError(f"{path}: truncated while reading {name}")
            arr[...] = np.frombuffer(buf, dtype="<f8").reshape(shape)
            bad = ~np.isfinite(arr)
            if bad.any():
                at = tuple(int(i) for i in np.argwhere(bad)[0])
                raise CheckpointError(f"{path}: array {name} holds a non-finite value at {at}")
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after the last array")
    return cfg, params
