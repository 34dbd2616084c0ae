"""The predictive network: a graph-convolutional drug encoder with max-pool
readout, a dense branch over precomputed cell-line vectors, and an MLP head
over the concatenated embeddings.

The graph encoder packs a list of drugs into one disjoint union: their atoms
stacked into one matrix, each graph's normalized adjacency applied to its
own row segment, and one max-pooled row per graph. The first layer's
propagation is a per-drug constant, ``ÂX``, built at ingest (see
``PaddedGraph``), so only the deeper layers propagate. It carries no batch
normalization or dropout, so a drug's embedding depends only on its graph
and the parameters. Batch normalization sits after each hidden linear layer
of the cell branch and head, before the activation. The head's last layer
emits the IC50 regression output directly, with no activation.

Training runs the whole network per batch (``forward_batch``) on a tape.
The eval-mode prediction pass (``predict_records``) records nothing and is
factorized: in eval mode a cell line's embedding depends only on its
vector, and the head's first layer is linear over ``[drug ; cell]``. So one
pass encodes and projects through its half of that layer each distinct drug,
another each distinct cell line, at most ``batch_size`` per call; a third
runs, per chunk of records, the gathered sum and the rest of the head.
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
    (total atoms) x features matrix, so the first GCN layer records only
    the product with its weight, the bias add and the relu. Each deeper
    layer records the product, one block-diagonal propagation over the
    graphs' normalized adjacencies, the bias add and the relu; a per-graph
    column max is the readout. No other graph in the list reaches a graph's
    row.
    """
    propagated = np.concatenate([g.propagated for g in graphs])
    if propagated.shape[1] != cfg.atom_input_dim:
        raise ValueError(f"atom features of width {propagated.shape[1]}, model expects "
                         f"{cfg.atom_input_dim}")
    blocks = [g.norm_adjacency for g in graphs]
    first, *deeper = params.gcn
    h = ad.relu(tape, ad.add(tape, ad.matmul(tape, ad.Tensor(propagated), first.weight),
                             first.bias))
    for layer in deeper:
        h = ad.propagate(tape, blocks, ad.matmul(tape, h, layer.weight))
        h = ad.relu(tape, ad.add(tape, h, layer.bias))
    return ad.segment_max(tape, h, [b.shape[0] for b in blocks])


def _post_linear(tape, x, layer: Layer, cfg, mode, rng):
    """A hidden layer's step after its affine map: batch norm (if the layer
    has one), relu, dropout."""
    if layer.norm is not None:
        x = ad.batch_norm(tape, x, layer.norm, mode)
    x = ad.relu(tape, x)
    return ad.dropout(tape, x, cfg.dropout_rate, mode, rng)


def _dense_stack(tape, x, layers: Sequence[Layer], cfg, mode, rng,
                 activate_last: bool):
    for i, layer in enumerate(layers):
        x = ad.add(tape, ad.matmul(tape, x, layer.weight), layer.bias)
        if activate_last or i < len(layers) - 1:
            x = _post_linear(tape, x, layer, cfg, mode, rng)
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


def predict(tape: ad.Tape, drug_emb: ad.Tensor, cell_emb: ad.Tensor,
            params: ModelParams, cfg: ModelConfig, mode: str,
            rng: np.random.Generator | None = None) -> ad.Tensor:
    """Head MLP over the concatenated embeddings: one regressed IC50 per row."""
    h = ad.concat_cols(tape, drug_emb, cell_emb)
    return _dense_stack(tape, h, params.head, cfg, mode, rng, activate_last=False)


def forward_batch(tape: ad.Tape, graphs: Sequence[PaddedGraph], cell_matrix,
                  params: ModelParams, cfg: ModelConfig, mode: str,
                  rng: np.random.Generator | None = None) -> ad.Tensor:
    """Predictions for a batch of (graph, cell vector) pairs.

    The batch's distinct graph objects are encoded in one packed call; each
    record gathers its drug's row, so a repeated graph's gradient sums over
    its records.
    """
    distinct = list({id(g): g for g in graphs}.values())
    slot = {id(g): i for i, g in enumerate(distinct)}
    drug_emb = ad.gather_rows(tape, encode_drug(tape, distinct, params, cfg),
                              [slot[id(g)] for g in graphs])
    cell_emb = encode_cell(tape, ad.Tensor(np.asarray(cell_matrix)), params, cfg, mode, rng)
    return predict(tape, drug_emb, cell_emb, params, cfg, mode, rng)


def _packs(items: list, size: int) -> list[list]:
    return [items[s : s + size] for s in range(0, len(items), size)]


def predict_records(params: ModelParams, cfg: ModelConfig, dataset,
                    batch_size: int = 256) -> np.ndarray:
    """Eval-mode predictions for every record of a joined dataset, in
    record order.

    In eval mode a drug's embedding depends only on its graph and a cell
    line's only on its vector, and the head's first layer is linear over
    ``[drug ; cell]``: with its weight split as ``W = [W_d ; W_c]``, a
    record's first pre-activation is ``(D W_d)[drug] + (C W_c + b)[cell]``.
    Three passes run with the tape ``None``, so nothing is recorded. The
    dataset's ``drug_ids``, distinct and in order of first appearance, are
    encoded at most ``batch_size`` graphs per ``encode_drug`` call and
    projected through ``W_d``; its ``cell_ids`` likewise, at most
    ``batch_size`` rows per ``encode_cell`` call, through ``W_c`` plus ``b``.
    Then each chunk of ``batch_size`` records gathers its two rows through
    the ``drug_index`` and ``cell_index`` columns, sums them, and runs the
    first layer's batch norm and relu and the rest of the head. It reads
    the columns only, never ``dataset.records``.

    On entry it pins the process's allocator (:func:`autodiff.pin_allocator`):
    a process-wide setting, made once, that overrides any
    ``MALLOC_MMAP_THRESHOLD_`` or ``MALLOC_TRIM_THRESHOLD_`` in the
    environment.
    """
    ad.pin_allocator()
    out = np.empty(len(dataset))
    if not out.size:
        return out
    first, rest = params.head[0], params.head[1:]
    w_drug, w_cell = np.split(first.weight.data, [cfg.gcn_layer_dims[-1]])
    drug_part = np.concatenate([
        encode_drug(None, [dataset.graphs[d] for d in pack], params, cfg).data @ w_drug
        for pack in _packs(dataset.drug_ids, batch_size)])
    cell_part = np.concatenate([
        encode_cell(None, np.stack([dataset.cells.vectors[c] for c in pack]), params, cfg,
                    "eval").data @ w_cell
        for pack in _packs(dataset.cell_ids, batch_size)]) + first.bias.data
    for start in range(0, out.size, batch_size):
        chunk = slice(start, start + batch_size)
        h = ad.Tensor(drug_part[dataset.drug_index[chunk]]
                      + cell_part[dataset.cell_index[chunk]])
        if rest:
            h = _dense_stack(None, _post_linear(None, h, first, cfg, "eval", None), rest,
                             cfg, "eval", None, activate_last=False)
        out[chunk] = h.data[:, 0]
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
