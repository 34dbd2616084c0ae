"""Correlation-based evaluation and report emission.

Predictions are scored by Pearson correlation overall and per group (cell
line, cancer type, drug); leave-one-drug-out results become ranked gain
tables against a baseline; per-epoch validation histories become stability
tables. Writers emit the comma-separated files that back the result figures
plus a flat key-value summary, each of which appears whole or not at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .atomic import atomic_write

GROUP_KINDS = ("cell_line", "cancer_type", "drug")

STOPPED_MARKER = "stopped"
UNDEFINED_MARKER = "undefined"


class ComparisonError(ValueError):
    """Model reports cover different drug sets and cannot be compared."""


class ReportError(ValueError):
    """Histories or run outputs cannot be merged into one report."""


def _scaled_deviations(v: np.ndarray) -> np.ndarray | None:
    """v minus its mean, divided by the largest magnitude among the
    differences; None when all of v's values are equal."""
    lo, hi = v.min(), v.max()
    if lo == hi:
        return None
    mean = v.sum() / v.size  # what v.mean() returns, without its dispatch overhead
    out = v - mean
    out /= max(hi - mean, mean - lo)  # rounding is monotone: the extreme differences
    return out


def pearson(pred, obs) -> float | None:
    """Pearson correlation, or None when undefined (n < 2 or zero variance).

    A vector whose values are all equal has zero variance, whatever its
    rounded mean. The deviations are scaled to a largest magnitude of 1
    before the products, so the result does not overflow or underflow with
    the values' scale.
    """
    x = np.asarray(pred, dtype=np.float64)
    y = np.asarray(obs, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"pearson needs two equal-length vectors, got {x.shape} and {y.shape}")
    if x.size < 2:
        return None
    xc = _scaled_deviations(x)
    yc = None if xc is None else _scaled_deviations(y)
    if yc is None:
        return None
    r = (xc @ yc) / math.sqrt((xc @ xc) * (yc @ yc))  # each sum of squares is >= 1
    return float(min(1.0, max(-1.0, r)))


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_pcc: float | None


@dataclass
class PredictionRow:
    drug_id: str
    cell_line_id: str
    predicted: float
    observed: float
    cancer_type: str | None = None


@dataclass
class GroupStat:
    pcc: float | None   # None marks an undefined correlation
    n: int


def _group_key(row: PredictionRow, group_by: str):
    if group_by == "cell_line":
        return row.cell_line_id
    if group_by == "drug":
        return row.drug_id
    if group_by == "cancer_type":
        return row.cancer_type
    raise ValueError(f"group_by must be one of {GROUP_KINDS}, got {group_by!r}")


def grouped_pcc(rows: Sequence[PredictionRow], group_by: str) -> dict[str, GroupStat]:
    """Per-group Pearson over that group's (predicted, observed) pairs.

    Groups with an undefined correlation keep an entry with pcc=None so the
    report can count them; rows lacking the group key (absent cancer type)
    are skipped.
    """
    buckets: dict[str, list[PredictionRow]] = {}
    for row in rows:
        key = _group_key(row, group_by)
        if key is None:
            continue
        buckets.setdefault(key, []).append(row)
    return {
        key: GroupStat(
            pcc=pearson([r.predicted for r in members], [r.observed for r in members]),
            n=len(members))
        for key, members in buckets.items()
    }


@dataclass
class EvalReport:
    """Everything the result figures draw from, in memory."""

    overall_pcc: float | None
    n_predictions: int
    grouped: dict[str, dict[str, GroupStat]]


def build_eval_report(rows: Sequence[PredictionRow]) -> EvalReport:
    return EvalReport(
        overall_pcc=pearson([r.predicted for r in rows], [r.observed for r in rows])
        if len(rows) >= 2 else None,
        n_predictions=len(rows),
        grouped={kind: grouped_pcc(rows, kind) for kind in GROUP_KINDS},
    )


# ---------------------------------------------------------------------------
# leave-one-drug-out gain ranking
# ---------------------------------------------------------------------------

@dataclass
class GainRow:
    drug_id: str
    rank: int
    gains: dict[str, float]


def ranked_gains(model_pccs: Mapping[str, Mapping[str, float]],
                 baseline: Mapping[str, float]) -> list[GainRow]:
    """Per-drug PCC gains over the baseline, ranked ascending.

    Every model must cover exactly the baseline's drug set. Ranks follow the
    first model's gain (insertion order), so the rank column is one
    consistent ordering for all gain columns.
    """
    drugs = set(baseline)
    for name, pccs in model_pccs.items():
        if set(pccs) != drugs:
            raise ComparisonError(
                f"model {name!r} covers {sorted(set(pccs) ^ drugs)} differently "
                f"from the baseline")
    names = list(model_pccs)
    primary = names[0]
    gains = {d: {n: model_pccs[n][d] - baseline[d] for n in names} for d in baseline}
    order = sorted(baseline, key=lambda d: (gains[d][primary], d))
    return [GainRow(drug_id=d, rank=i + 1, gains=gains[d]) for i, d in enumerate(order)]


# ---------------------------------------------------------------------------
# training stability
# ---------------------------------------------------------------------------

@dataclass
class StabilitySummary:
    max_pcc: float | None
    final_pcc: float | None
    fluctuation: float  # std of successive val_pcc differences


@dataclass
class StabilityReport:
    epochs: list[int]
    table: dict[str, dict[int, float | None]]  # model -> epoch -> val_pcc
    summary: dict[str, StabilitySummary]


def stability_report(histories: Mapping[str, Sequence]) -> StabilityReport:
    """Merge per-model epoch histories into one table plus dispersion stats.

    Histories may have different lengths (early stopping); epochs a model
    never reached stay None and are written out as explicit markers. Two
    histories with no epoch in common cannot be merged.
    """
    if not histories:
        raise ReportError("stability report needs at least one history")
    per_model: dict[str, dict[int, float | None]] = {}
    for name, records in histories.items():
        per_model[name] = {int(r.epoch): r.val_pcc for r in records}
    epoch_sets = [set(epochs) for epochs in per_model.values() if epochs]
    common = set.intersection(*epoch_sets) if epoch_sets else set()
    if len(epoch_sets) > 1 and not common:
        raise ReportError(
            f"histories of {sorted(per_model)} cover disjoint epoch ranges")
    epochs = sorted(set.union(*epoch_sets)) if epoch_sets else []

    summary = {}
    for name, by_epoch in per_model.items():
        values = [by_epoch[e] for e in sorted(by_epoch) if by_epoch[e] is not None]
        diffs = np.diff(values) if len(values) >= 2 else np.zeros(0)
        summary[name] = StabilitySummary(
            max_pcc=max(values) if values else None,
            final_pcc=values[-1] if values else None,
            fluctuation=float(diffs.std()) if diffs.size else 0.0,
        )
    table = {name: {e: per_model[name].get(e) for e in epochs} for name in per_model}
    return StabilityReport(epochs=epochs, table=table, summary=summary)


# ---------------------------------------------------------------------------
# file writers (the plotting inputs)
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    return repr(float(value))


def write_predictions_csv(path, rows: Sequence[PredictionRow]) -> None:
    with atomic_write(path) as fh:
        fh.write("drug_id,cell_line_id,predicted,observed,cancer_type\n")
        for r in rows:
            fh.write(f"{r.drug_id},{r.cell_line_id},{_fmt(r.predicted)},"
                     f"{_fmt(r.observed)},{r.cancer_type or ''}\n")


def write_grouped_csv(path, stats: Mapping[str, GroupStat]) -> None:
    """Defined groups only; undefined ones are counted in the summary."""
    with atomic_write(path) as fh:
        fh.write("group_id,pcc,n_samples\n")
        for key in sorted(stats):
            st = stats[key]
            if st.pcc is not None:
                fh.write(f"{key},{_fmt(st.pcc)},{st.n}\n")


def write_history_csv(path, model_name: str, history: Sequence[EpochRecord]) -> None:
    with atomic_write(path) as fh:
        fh.write("epoch,model,val_pcc,train_loss\n")
        for rec in history:
            pcc = UNDEFINED_MARKER if rec.val_pcc is None else _fmt(rec.val_pcc)
            fh.write(f"{rec.epoch},{model_name},{pcc},{_fmt(rec.train_loss)}\n")


def read_history_csv(path) -> dict[str, list[EpochRecord]]:
    """Inverse of write_history_csv; returns model -> EpochRecord rows.

    A file that is not UTF-8 text is a ReportError naming the file; a row
    with the wrong field count, a non-numeric value, a non-finite loss or a
    PCC outside [-1, 1], or one that repeats an earlier row's model and
    epoch, is one naming the file and line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise ReportError(f"{path}: not UTF-8 text ({exc.reason})") from None
    header = (lines[0] if lines else "").strip().split(",")
    if header != ["epoch", "model", "val_pcc", "train_loss"]:
        raise ReportError(f"{path}: not a history table (header {header})")
    out: dict[str, list[EpochRecord]] = {}
    seen: dict[tuple[str, int], int] = {}  # (model, epoch) -> line it is on
    for line_no, line in enumerate(lines[1:], start=2):
        try:
            epoch, model, pcc, loss = line.strip().split(",")
            record = EpochRecord(
                epoch=int(epoch),
                train_loss=float(loss),
                val_pcc=None if pcc == UNDEFINED_MARKER else float(pcc),
            )
            if not math.isfinite(record.train_loss):
                raise ValueError(f"loss {loss} is not finite")
            if record.val_pcc is not None and not -1.0 <= record.val_pcc <= 1.0:
                raise ValueError(f"pcc {pcc} is outside [-1, 1]")
        except ValueError as exc:
            raise ReportError(f"{path}, line {line_no}: malformed history row ({exc})") from None
        first = seen.setdefault((model, record.epoch), line_no)
        if first != line_no:
            raise ReportError(f"{path}, line {line_no}: epoch {record.epoch} of model "
                              f"{model!r} repeats line {first}")
        out.setdefault(model, []).append(record)
    return out


def write_stability_csv(path, report: StabilityReport) -> None:
    names = sorted(report.table)
    with atomic_write(path) as fh:
        fh.write("epoch," + ",".join(f"val_pcc_{n}" for n in names) + "\n")
        for epoch in report.epochs:
            cells = []
            for name in names:
                value = report.table[name].get(epoch)
                cells.append(STOPPED_MARKER if value is None else _fmt(value))
            fh.write(f"{epoch}," + ",".join(cells) + "\n")


def write_lodo_gains_csv(path, rows: Sequence[GainRow]) -> None:
    if not rows:
        raise ReportError("no gain rows to write")
    names = list(rows[0].gains)
    with atomic_write(path) as fh:
        fh.write("drug_id,rank," + ",".join(f"gain_{n}" for n in names) + "\n")
        for row in rows:
            fh.write(f"{row.drug_id},{row.rank},"
                     + ",".join(_fmt(row.gains[n]) for n in names) + "\n")


def write_summary(path, entries: Mapping[str, object]) -> None:
    """Flat key=value text; nesting expressed through dotted keys."""
    with atomic_write(path) as fh:
        for key, value in entries.items():
            if isinstance(value, float):
                value = _fmt(value)
            fh.write(f"{key}={value}\n")


def summary_entries(report: EvalReport) -> dict[str, object]:
    entries: dict[str, object] = {
        "predictions.count": report.n_predictions,
        "overall.pcc": UNDEFINED_MARKER if report.overall_pcc is None else report.overall_pcc,
    }
    for kind in GROUP_KINDS:
        stats = report.grouped[kind]
        undefined = sorted(k for k, st in stats.items() if st.pcc is None)
        entries[f"groups.{kind}.total"] = len(stats)
        entries[f"groups.{kind}.undefined"] = len(undefined)
        if undefined:
            entries[f"groups.{kind}.undefined_ids"] = ";".join(undefined)
    return entries
