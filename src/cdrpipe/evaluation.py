"""Correlation-based evaluation and report emission.

Predictions are scored by Pearson correlation overall and per group (cell
line, cancer type, drug). One vectorized segment kernel computes every
correlation: ``pearson`` is its one-group case, and each grouping of a
report is one pass over integer group codes. Leave-one-drug-out results
become ranked gain tables against a baseline; per-epoch validation
histories become stability tables. Writers emit the comma-separated files
that back the result figures plus a flat key-value summary, each of which
appears whole or not at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Mapping, Sequence

import numpy as np

from .atomic import atomic_write

_KEY_FIELDS = {"cell_line": "cell_line_id", "cancer_type": "cancer_type", "drug": "drug_id"}
GROUP_KINDS = tuple(_KEY_FIELDS)

STOPPED_MARKER = "stopped"
UNDEFINED_MARKER = "undefined"


class ComparisonError(ValueError):
    """Model reports cover different drug sets and cannot be compared."""


class ReportError(ValueError):
    """Histories or run outputs cannot be merged into one report."""


def _scaled_deviations(v, lo, hi, starts, sizes, seg) -> np.ndarray:
    """Each segment of v minus its mean, divided by its largest deviation;
    lo and hi are the segments' extremes, seg each element's segment.

    The segment is first scaled by the exact power of two that brings its
    largest magnitude into [0.5, 1), so its sum cannot overflow."""
    shift = -np.frexp(np.maximum(-lo, hi))[1]
    lo, hi = np.ldexp(lo, shift), np.ldexp(hi, shift)
    v = np.ldexp(v, shift[seg])
    mean = np.add.reduceat(v, starts) / sizes
    v -= mean[seg]
    v /= np.maximum(hi - mean, mean - lo)[seg]  # rounding is monotone: the extreme differences
    return v


def segment_pearson(x: np.ndarray, y: np.ndarray, codes: np.ndarray,
                    n_groups: int) -> np.ndarray:
    """One Pearson correlation per group: entry g scores the pairs whose
    integer code is g, NaN where it is undefined (fewer than two pairs, or
    either vector all-equal or holding NaN or +-inf in the group).

    A stable argsort of the codes lays each group out as one segment in its
    rows' order, and every per-group figure is one ``reduceat`` over the
    segments. Groups that cannot be scored drop out after the min and max,
    before any other arithmetic. Each remaining vector is scaled by a power
    of two, centred and divided by its largest deviation (see
    ``_scaled_deviations``), so the sums of products neither overflow nor
    underflow with the values' scale, and scaling a vector exactly by a
    power of two changes no bit of the result.
    """
    order = np.argsort(codes, kind="stable")
    codes, x, y = codes[order], x[order], y[order]
    out = np.full(n_groups, np.nan)
    if not codes.size:
        return out
    starts = np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]])
    sizes = np.diff(np.r_[starts, codes.size])
    extremes = [(np.minimum.reduceat(v, starts), np.maximum.reduceat(v, starts)) for v in (x, y)]
    ok = np.logical_and.reduce([np.isfinite(lo) & np.isfinite(hi) & (lo < hi)
                                for lo, hi in extremes])
    if not ok.all():
        kept = np.repeat(ok, sizes)
        codes, x, y = codes[kept], x[kept], y[kept]
        extremes = [(lo[ok], hi[ok]) for lo, hi in extremes]
        sizes = sizes[ok]
        starts = np.cumsum(sizes) - sizes
    seg = np.repeat(np.arange(sizes.size), sizes)
    xc, yc = (_scaled_deviations(v, lo, hi, starts, sizes, seg)
              for v, (lo, hi) in zip((x, y), extremes))
    sums = [np.add.reduceat(a * b, starts) for a, b in ((xc, yc), (xc, xc), (yc, yc))]
    # each vector's largest deviation is now 1, so each sum of squares is >= 1
    out[codes[starts]] = np.clip(sums[0] / np.sqrt(sums[1] * sums[2]), -1.0, 1.0)
    return out


def pearson(pred, obs) -> float | None:
    """Pearson correlation, or None when undefined: n < 2, or either vector
    all-equal or holding NaN or +-inf.

    It is ``segment_pearson``'s one-group case, so it scores a group exactly
    as ``grouped_pcc`` does. A vector whose values are all equal has zero
    variance, whatever its rounded mean; the result neither overflows nor
    underflows with the values' scale, and does not change at all when a
    vector is scaled exactly by a power of two.
    """
    x = np.asarray(pred, dtype=np.float64)
    y = np.asarray(obs, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"pearson needs two equal-length vectors, got {x.shape} and {y.shape}")
    r = segment_pearson(x, y, np.zeros(x.size, dtype=np.intp), 1)[0]
    return None if math.isnan(r) else float(r)


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


def _grouped(rows: Sequence[PredictionRow], attr: str, x: np.ndarray,
             y: np.ndarray) -> dict[str, GroupStat]:
    """grouped_pcc over the rows' already extracted (predicted, observed)
    columns x and y; attr names the key's field."""
    slot: dict = {}  # key -> code, in order of first appearance
    codes = np.array([slot.setdefault(key, len(slot)) for key in map(attrgetter(attr), rows)],
                     dtype=np.intp)
    skipped = slot.pop(None, None)
    if skipped is not None:
        kept = codes != skipped
        codes, x, y = codes[kept], x[kept], y[kept]
        codes[codes > skipped] -= 1
    pccs = segment_pearson(x, y, codes, len(slot)).tolist()
    sizes = np.bincount(codes, minlength=len(slot)).tolist()
    return {key: GroupStat(pcc=None if math.isnan(r) else r, n=n)
            for key, r, n in zip(slot, pccs, sizes)}


def _columns(rows: Sequence[PredictionRow]) -> tuple[np.ndarray, np.ndarray]:
    return (np.array([r.predicted for r in rows], dtype=np.float64),
            np.array([r.observed for r in rows], dtype=np.float64))


def grouped_pcc(rows: Sequence[PredictionRow], group_by: str) -> dict[str, GroupStat]:
    """Per-group Pearson over that group's (predicted, observed) pairs.

    Keys get integer codes in order of first appearance, which is the
    result's key order, and one ``segment_pearson`` pass scores every
    group, each exactly as ``pearson`` scores its own pairs. Groups with an
    undefined correlation keep an entry with pcc=None so the report can
    count them; rows lacking the group key (absent cancer type) are skipped.
    An unknown ``group_by`` is a ValueError, with or without rows.
    """
    if group_by not in _KEY_FIELDS:
        raise ValueError(f"group_by must be one of {GROUP_KINDS}, got {group_by!r}")
    return _grouped(rows, _KEY_FIELDS[group_by], *_columns(rows))


@dataclass
class EvalReport:
    """Everything the result figures draw from, in memory."""

    overall_pcc: float | None
    n_predictions: int
    grouped: dict[str, dict[str, GroupStat]]


def build_eval_report(rows: Sequence[PredictionRow]) -> EvalReport:
    """The overall PCC and every grouping's, from one extraction of the rows'
    (predicted, observed) columns."""
    x, y = _columns(rows)
    return EvalReport(
        overall_pcc=pearson(x, y),
        n_predictions=len(rows),
        grouped={kind: _grouped(rows, _KEY_FIELDS[kind], x, y) for kind in GROUP_KINDS},
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
