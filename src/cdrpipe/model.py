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

Training runs the whole network per batch (``forward_batch``). The
eval-mode prediction pass (``predict_records``) is factorized instead: in
eval mode a cell line's embedding depends only on its vector, and the
head's first layer is linear over ``[drug ; cell]``, so each distinct drug
and cell line is encoded and projected through its half of that layer once
per call, and per record only the sum of the two rows and the rest of the
head run.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, asdict
from typing import Iterator, Sequence

import numpy as np

from . import autodiff as ad
from .atomic import atomic_write
from .molgraph import ATOM_FEATURE_DIM, PaddedGraph

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
        if min(self.n_max_atoms, self.cell_input_dim, self.atom_input_dim) <= 0:
            raise ValueError("sizes must be positive")


@dataclass
class GraphConvLayer:
    weight: ad.Tensor
    bias: ad.Tensor


@dataclass
class DenseLayer:
    weight: ad.Tensor
    bias: ad.Tensor
    norm: ad.BatchNormState | None = None


@dataclass
class ModelParams:
    """All trainable tensors plus batch-norm running statistics."""

    gcn: list[GraphConvLayer]
    cell: list[DenseLayer]
    head: list[DenseLayer]

    def parameters(self) -> list[ad.Tensor]:
        out: list[ad.Tensor] = []
        for layer in self.gcn:
            out += [layer.weight, layer.bias]
        for layer in (*self.cell, *self.head):
            out += [layer.weight, layer.bias]
            if layer.norm is not None:
                out += [layer.norm.gamma, layer.norm.beta]
        return out

    def named_arrays(self) -> Iterator[tuple[str, np.ndarray]]:
        """Every array worth checkpointing, in a stable order."""
        for i, layer in enumerate(self.gcn):
            yield f"gcn.{i}.weight", layer.weight.data
            yield f"gcn.{i}.bias", layer.bias.data
        for branch, layers in (("cell", self.cell), ("head", self.head)):
            for i, layer in enumerate(layers):
                yield f"{branch}.{i}.weight", layer.weight.data
                yield f"{branch}.{i}.bias", layer.bias.data
                if layer.norm is not None:
                    yield f"{branch}.{i}.norm.gamma", layer.norm.gamma.data
                    yield f"{branch}.{i}.norm.beta", layer.norm.beta.data
                    yield f"{branch}.{i}.norm.running_mean", layer.norm.running_mean
                    yield f"{branch}.{i}.norm.running_var", layer.norm.running_var

    def copy(self) -> "ModelParams":
        return copy.deepcopy(self)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> ad.Tensor:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return ad.Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out)), requires_grad=True)


def _zero_bias(dim: int) -> ad.Tensor:
    return ad.Tensor(np.zeros((1, dim)), requires_grad=True)


def init_params(cfg: ModelConfig, seed: int) -> ModelParams:
    """Glorot-uniform weights, zero biases, unit batch-norm; deterministic per seed."""
    rng = np.random.default_rng(seed)

    def dense(in_dim, out_dim, with_norm):
        return DenseLayer(
            weight=_glorot(rng, in_dim, out_dim),
            bias=_zero_bias(out_dim),
            norm=ad.BatchNormState(out_dim) if with_norm else None,
        )

    gcn = []
    in_dim = cfg.atom_input_dim
    for out_dim in cfg.gcn_layer_dims:
        gcn.append(GraphConvLayer(weight=_glorot(rng, in_dim, out_dim), bias=_zero_bias(out_dim)))
        in_dim = out_dim

    cell = []
    in_dim = cfg.cell_input_dim
    for out_dim in cfg.cell_branch_dims:
        cell.append(dense(in_dim, out_dim, cfg.use_batch_norm))
        in_dim = out_dim

    head = []
    in_dim = cfg.gcn_layer_dims[-1] + (cfg.cell_branch_dims[-1] if cfg.cell_branch_dims
                                       else cfg.cell_input_dim)
    for out_dim in cfg.head_dims[:-1]:
        head.append(dense(in_dim, out_dim, cfg.use_batch_norm))
        in_dim = out_dim
    head.append(dense(in_dim, cfg.head_dims[-1], False))
    return ModelParams(gcn=gcn, cell=cell, head=head)


# ---------------------------------------------------------------------------
# forward passes
# ---------------------------------------------------------------------------

def encode_drug(tape: ad.Tape, graphs: Sequence[PaddedGraph], params: ModelParams,
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


def _post_linear(tape, x, layer: DenseLayer, cfg, mode, rng):
    """A hidden layer's step after its affine map: batch norm (if the layer
    has one), relu, dropout."""
    if layer.norm is not None:
        x = ad.batch_norm(tape, x, layer.norm, mode)
    x = ad.relu(tape, x)
    return ad.dropout(tape, x, cfg.dropout_rate, mode, rng)


def _dense_stack(tape, x, layers: Sequence[DenseLayer], cfg, mode, rng,
                 activate_last: bool):
    for i, layer in enumerate(layers):
        x = ad.add(tape, ad.matmul(tape, x, layer.weight), layer.bias)
        if activate_last or i < len(layers) - 1:
            x = _post_linear(tape, x, layer, cfg, mode, rng)
    return x


def encode_cell(tape: ad.Tape, features: ad.Tensor, params: ModelParams,
                cfg: ModelConfig, mode: str,
                rng: np.random.Generator | None = None) -> ad.Tensor:
    """Dense branch over fixed, precomputed cell-line vectors."""
    x = features if isinstance(features, ad.Tensor) else ad.Tensor(features)
    if x.data.ndim == 1:
        x = ad.Tensor(x.data.reshape(1, -1), requires_grad=x.requires_grad)
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


def predict_records(params: ModelParams, cfg: ModelConfig, dataset,
                    batch_size: int = 256) -> np.ndarray:
    """Eval-mode predictions for every record of a joined dataset.

    In eval mode a drug's embedding depends only on its graph and a cell
    line's only on its vector, and the head's first layer is linear over
    ``[drug ; cell]``: with its weight split as ``W = [W_d ; W_c]``, a
    record's first pre-activation is ``(D W_d)[drug] + (C W_c + b)[cell]``.
    Drugs and cell lines get integer codes in order of first appearance,
    and each chunk of ``batch_size`` records encodes and projects only the
    drugs and cell lines no earlier chunk reached, so each is encoded once
    per call. Per record remain that sum, the first layer's batch norm and
    relu, and the rest of the head.
    """
    records = dataset.records
    drug_code = {d: i for i, d in enumerate(dict.fromkeys(r.drug_id for r in records))}
    cell_code = {c: i for i, c in enumerate(dict.fromkeys(r.cell_line_id for r in records))}
    drug_ids, cell_ids = list(drug_code), list(cell_code)
    first, rest = params.head[0], params.head[1:]
    w_drug, w_cell = np.split(first.weight.data, [cfg.gcn_layer_dims[-1]])
    drug_part = np.empty((len(drug_ids), w_drug.shape[1]))
    cell_part = np.empty((len(cell_ids), w_cell.shape[1]))
    drugs_done = cells_done = 0
    out = np.empty(len(records))
    for start in range(0, len(records), batch_size):
        batch = records[start : start + batch_size]
        drugs = np.array([drug_code[r.drug_id] for r in batch])
        cells = np.array([cell_code[r.cell_line_id] for r in batch])
        # codes follow first appearance, so a chunk's unseen codes form one range;
        # each encoding gets a throwaway tape, freeing its intermediates at once
        if drugs.max() >= drugs_done:
            new = slice(drugs_done, drugs.max() + 1)
            pooled = encode_drug(ad.Tape(), [dataset.graphs[d] for d in drug_ids[new]],
                                 params, cfg)
            drug_part[new] = pooled.data @ w_drug
            drugs_done = new.stop
        if cells.max() >= cells_done:
            new = slice(cells_done, cells.max() + 1)
            vectors = np.stack([dataset.cells.vectors[c] for c in cell_ids[new]])
            emb = encode_cell(ad.Tape(), vectors, params, cfg, "eval")
            cell_part[new] = emb.data @ w_cell + first.bias.data
            cells_done = new.stop
        tape = ad.Tape()
        h = ad.add(tape, ad.gather_rows(tape, ad.Tensor(drug_part), drugs),
                   ad.gather_rows(tape, ad.Tensor(cell_part), cells))
        if rest:
            h = _dense_stack(tape, _post_linear(tape, h, first, cfg, "eval", None), rest,
                             cfg, "eval", None, activate_last=False)
        out[start : start + len(batch)] = h.data[:, 0]
    return out


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------

def save_checkpoint(path, cfg: ModelConfig, params: ModelParams) -> None:
    """Write a versioned container: JSON header plus raw little-endian float64.

    The file appears whole or not at all (see :func:`atomic.atomic_write`).
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
    """Read a checkpoint, rejecting version, header-key or shape mismatches."""
    with open(path, "rb") as fh:
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
        if fh.read(1):
            raise CheckpointError(f"{path}: trailing bytes after the last array")
    return cfg, params
