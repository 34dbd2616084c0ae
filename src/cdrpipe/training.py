"""Dataset splitting and the mini-batch training loop.

Splits follow the evaluation protocol: a seeded shuffle with a 95/5
train/test partition, an optional cap on training records (slice mode keeps
the first cap records, reproducing the biased subset; random mode draws a
seeded sample to quantify that bias), and leave-one-drug-out folds. The
training loop records validation PCC after every epoch and returns the
parameters from the best-validation epoch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, TypeVar

import numpy as np

from . import autodiff as ad
from .evaluation import EpochRecord, pearson
from .model import ModelConfig, ModelParams, forward_batch, init_params, predict_records
from .omics import ResponseDataset
from .seeding import derive_seed

T = TypeVar("T")

CAP_MODES = ("slice", "random")


class SplitError(ValueError):
    """A split would leave one side empty, or leaves batch norm a batch of one record."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss, or a step overflowed or computed
    an invalid (NaN) value."""


@dataclass
class SplitSpec:
    test_fraction: float = 0.05
    train_cap: int | None = 90_000
    cap_mode: str = "slice"
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must lie in (0, 1), got {self.test_fraction}")
        if self.train_cap is not None and self.train_cap <= 0:
            raise ValueError(f"train_cap must be positive, got {self.train_cap}")
        if self.cap_mode not in CAP_MODES:
            raise ValueError(f"cap_mode must be one of {CAP_MODES}, got {self.cap_mode!r}")


def split_dataset(records: Sequence[T], spec: SplitSpec) -> tuple[list[T], list[T]]:
    """Seeded shuffle, then the first ceil((1-f)*N) records train, rest test.

    The pre-cap split partitions the input exactly; a train_cap then keeps
    the first cap records (slice mode) or a seeded subset in current order
    (random mode), intentionally dropping the remainder.
    """
    n = len(records)
    if n < 2:
        raise SplitError(f"cannot split {n} records")
    rng = np.random.default_rng(spec.seed)
    order = rng.permutation(n)
    n_train = math.ceil((1.0 - spec.test_fraction) * n)
    train = [records[i] for i in order[:n_train]]
    test = [records[i] for i in order[n_train:]]
    if not train or not test:
        raise SplitError(
            f"splitting {n} records at test_fraction {spec.test_fraction} leaves one side empty")
    if spec.train_cap is not None and len(train) > spec.train_cap:
        if spec.cap_mode == "slice":
            train = train[: spec.train_cap]
        else:
            keep = np.sort(rng.choice(len(train), size=spec.train_cap, replace=False))
            train = [train[i] for i in keep]
    return train, test


def lodo_splits(records: Sequence, n_drugs: int, seed: int) -> list[tuple[str, list, list]]:
    """Leave-one-drug-out folds over a seeded drug sample.

    For each sampled drug, its records form the test side and everything
    else trains; the drug sample is fixed by the seed so model variants are
    compared on paired folds.
    """
    distinct = sorted({r.drug_id for r in records})
    if n_drugs > len(distinct):
        raise SplitError(f"asked for {n_drugs} held-out drugs, dataset has {len(distinct)}")
    if n_drugs < 1:
        raise SplitError("need at least one held-out drug")
    rng = np.random.default_rng(seed)
    chosen = [distinct[i] for i in rng.choice(len(distinct), size=n_drugs, replace=False)]
    folds = []
    for drug in chosen:
        test = [r for r in records if r.drug_id == drug]
        train = [r for r in records if r.drug_id != drug]
        folds.append((drug, train, test))
    return folds


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0
    early_stop_patience: int | None = None

    def __post_init__(self):
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0, batch_size >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and > 0, got {self.lr}")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ValueError("early_stop_patience must be >= 1 when set")


def _batches(n: int, batch_size: int, order: np.ndarray) -> list[np.ndarray]:
    batches = [order[i : i + batch_size] for i in range(0, n, batch_size)]
    # fold a trailing singleton into its neighbor so batch norm always sees >= 2 rows
    if len(batches) > 1 and len(batches[-1]) == 1:
        batches[-2] = np.concatenate([batches[-2], batches[-1]])
        batches.pop()
    return batches


def finite_predictions(params: ModelParams, model_cfg: ModelConfig,
                       dataset: ResponseDataset, where: str) -> np.ndarray:
    """``predict_records`` with overflow counted, not warned about: a
    DivergenceError naming ``where`` if any prediction is NaN or inf."""
    with np.errstate(all="ignore"):
        preds = predict_records(params, model_cfg, dataset)
    bad = int(np.count_nonzero(~np.isfinite(preds)))
    if bad:
        raise DivergenceError(f"{where}: {bad} of {len(preds)} predictions are not finite")
    return preds


def train(train_set: ResponseDataset, val_set: ResponseDataset,
          model_cfg: ModelConfig, train_cfg: TrainConfig
          ) -> tuple[ModelParams, list[EpochRecord]]:
    """Mini-batch Adam training with per-epoch validation tracking.

    Returns the parameters of the best-validation epoch (the final ones if
    no validation PCC was ever defined) and the full epoch history, which
    is shorter than train_cfg.epochs only under early stopping. A step that
    overflows or yields NaN, and a validation pass with a non-finite
    prediction, raise DivergenceError naming the epoch.

    On entry it pins the process's allocator (:func:`autodiff.pin_allocator`):
    a process-wide setting, made once, that overrides any
    ``MALLOC_MMAP_THRESHOLD_`` or ``MALLOC_TRIM_THRESHOLD_`` in the
    environment.
    """
    ad.pin_allocator()
    n = len(train_set)
    if not n:
        raise SplitError("empty training set")
    params = init_params(model_cfg, derive_seed(train_cfg.seed, "init"))
    if train_cfg.epochs == 0:
        return params, []
    if model_cfg.use_batch_norm and min(train_cfg.batch_size, n) < 2:
        raise SplitError(f"batch norm needs batches of >= 2 records, got batch_size "
                         f"{train_cfg.batch_size} and {n} training record(s)")

    order_rng = np.random.default_rng(derive_seed(train_cfg.seed, "batch-order"))
    dropout_rng = np.random.default_rng(derive_seed(train_cfg.seed, "dropout"))
    tensors = params.parameters()
    opt = ad.adam_init(tensors, lr=train_cfg.lr)

    # a batch's graphs and cell rows are gathered through the dataset's
    # columns, never looked up per record: one graph per distinct drug, and
    # each record's row of the cell matrix
    graphs = [train_set.graphs[d] for d in train_set.drug_ids]
    cell_matrix = train_set.cells.matrix
    cell_rows = train_set.cell_rows[train_set.cell_index]
    history: list[EpochRecord] = []
    best_params: ModelParams | None = None
    best_pcc = -np.inf
    epochs_since_best = 0

    for epoch in range(1, train_cfg.epochs + 1):
        order = order_rng.permutation(n)
        total = 0.0
        for batch_no, idx in enumerate(_batches(n, train_cfg.batch_size, order)):
            batch_graphs = [graphs[k] for k in train_set.drug_index[idx].tolist()]
            cells = np.take(cell_matrix, cell_rows[idx], axis=0)
            target = ad.Tensor(train_set.labels()[idx][:, None])

            tape = ad.Tape()
            try:
                with np.errstate(over="raise", invalid="raise"):
                    pred = forward_batch(tape, batch_graphs, cells, params, model_cfg,
                                         "train", dropout_rng)
                    batch_loss = ad.loss(tape, pred, target)
                    value = float(batch_loss.data[0, 0])
                    if not math.isfinite(value):
                        raise DivergenceError(
                            f"non-finite loss at epoch {epoch}, batch {batch_no}")
                    ad.adam_step(tensors, ad.backward(tape, batch_loss, tensors), opt)
            except FloatingPointError as exc:
                raise DivergenceError(
                    f"training diverged at epoch {epoch}, batch {batch_no}: {exc}") from None
            total += value * len(idx)

        val_pcc = None
        if len(val_set) >= 2:
            preds = finite_predictions(params, model_cfg, val_set,
                                       f"validation after epoch {epoch}")
            val_pcc = pearson(preds, val_set.labels())
        history.append(EpochRecord(epoch=epoch, train_loss=total / n,
                                   val_pcc=val_pcc))

        if val_pcc is not None and val_pcc > best_pcc:
            best_pcc = val_pcc
            best_params = params.copy()
            epochs_since_best = 0
        else:
            epochs_since_best += 1
        if (train_cfg.early_stop_patience is not None
                and epochs_since_best >= train_cfg.early_stop_patience):
            break

    return (best_params if best_params is not None else params), history
