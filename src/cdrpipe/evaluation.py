"""Correlation-based evaluation and report emission.

Predictions are scored by Pearson correlation overall and per group (cell
line, cancer type, drug). One vectorized segment kernel computes every
correlation: ``pearson`` is its one-group case, and each grouping of a
report is one pass over integer group codes. Leave-one-drug-out results
become ranked gain tables against a baseline; per-epoch validation
histories become stability tables. Writers emit the CSV files that back the
result figures through :func:`tables.write_rows`, so any id or model name
parses back whole, plus a flat key-value summary; each file appears whole or
not at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Mapping, Sequence

import numpy as np

from .omics import code_ids
from .tables import atomic_write, csv_rows, text_input, write_rows

_KEY_FIELDS = {"cell_line": "cell_line_id", "cancer_type": "cancer_type", "drug": "drug_id"}
GROUP_KINDS = tuple(_KEY_FIELDS)

HISTORY_COLUMNS = ["epoch", "model", "val_pcc", "train_loss"]
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
    segments. The codes are sorted as the smallest unsigned type that holds
    ``n_groups - 1``: a stable sort of equal keys gives the same
    permutation, and for 8- and 16-bit keys numpy's stable sort is a radix
    sort (0.05 against 0.75 ms for ``np.intp`` keys, 14,000 codes in 200
    groups on a 2-core x86-64 host). Groups that cannot be scored drop out
    after the min and max, before any other arithmetic. Each remaining vector is scaled by a power
    of two, centred and divided by its largest deviation (see
    ``_scaled_deviations``), so the sums of products neither overflow nor
    underflow with the values' scale, and scaling a vector exactly by a
    power of two changes no bit of the result.
    """
    keys = codes.astype(np.min_scalar_type(max(n_groups - 1, 0)))
    order = np.argsort(keys, kind="stable")
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


@dataclass(slots=True)
class PredictionRow:
    drug_id: str
    cell_line_id: str
    predicted: float
    observed: float
    cancer_type: str | None = None


@dataclass(slots=True)
class GroupStat:
    pcc: float | None   # None marks an undefined correlation
    n: int


def _grouped(rows: Sequence[PredictionRow], attr: str, x: np.ndarray,
             y: np.ndarray) -> dict[str, GroupStat]:
    """grouped_pcc over the rows' already extracted (predicted, observed)
    columns x and y; attr names the key's field."""
    keys, codes = code_ids(map(attrgetter(attr), rows))
    if None in keys:
        skipped = keys.index(None)
        del keys[skipped]
        kept = codes != skipped
        codes, x, y = codes[kept], x[kept], y[kept]
        codes[codes > skipped] -= 1
    pccs = segment_pearson(x, y, codes, len(keys)).tolist()
    sizes = np.bincount(codes, minlength=len(keys)).tolist()
    return {key: GroupStat(pcc=None if math.isnan(r) else r, n=n)
            for key, r, n in zip(keys, pccs, sizes)}


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


def _fmt_or(value, marker: str) -> str:
    return marker if value is None else _fmt(value)


def write_predictions_csv(path, rows: Sequence[PredictionRow]) -> None:
    header = ["drug_id", "cell_line_id", "predicted", "observed", "cancer_type"]
    body = ([r.drug_id, r.cell_line_id, _fmt(r.predicted), _fmt(r.observed),
             r.cancer_type or ""] for r in rows)
    write_rows(path, chain([header], body))


def write_grouped_csv(path, stats: Mapping[str, GroupStat]) -> None:
    """Defined groups only; undefined ones are counted in the summary."""
    body = ([key, _fmt(st.pcc), st.n] for key, st in sorted(stats.items())
            if st.pcc is not None)
    write_rows(path, chain([["group_id", "pcc", "n_samples"]], body))


def write_history_csv(path, model_name: str, history: Sequence[EpochRecord]) -> None:
    body = ([rec.epoch, model_name, _fmt_or(rec.val_pcc, UNDEFINED_MARKER),
             _fmt(rec.train_loss)] for rec in history)
    write_rows(path, chain([HISTORY_COLUMNS], body))


def read_history_csv(path) -> dict[str, list[EpochRecord]]:
    """Inverse of write_history_csv; returns model -> EpochRecord rows.

    A file that cannot be read or is not UTF-8 text is a ReportError naming
    the file; a row the csv module cannot read, or one with the wrong field
    count, a non-numeric value, a non-finite loss or a PCC outside [-1, 1],
    or one that repeats an earlier row's model and epoch, is one naming the
    file and line.
    """
    try:
        with text_input(path, ReportError) as fh:
            lines = list(csv_rows(path, fh, ReportError))
    except OSError as exc:
        raise ReportError(f"{path}: cannot be read ({exc.strerror})") from None
    header = lines[0][1] if lines else []
    if header != HISTORY_COLUMNS:
        raise ReportError(f"{path}: not a history table (header {header})")
    out: dict[str, list[EpochRecord]] = {}
    seen: dict[tuple[str, int], int] = {}  # (model, epoch) -> line it is on
    for line_no, fields in lines[1:]:
        try:
            epoch, model, pcc, loss = fields
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
    header = ["epoch", *(f"val_pcc_{n}" for n in names)]
    body = ([epoch, *(_fmt_or(report.table[n].get(epoch), STOPPED_MARKER) for n in names)]
            for epoch in report.epochs)
    write_rows(path, chain([header], body))


def write_lodo_gains_csv(path, names: Sequence[str], rows: Sequence[GainRow]) -> None:
    """One gain column per model in ``names``; with no rows, the header alone."""
    header = ["drug_id", "rank", *(f"gain_{n}" for n in names)]
    body = ([row.drug_id, row.rank, *(_fmt(row.gains[n]) for n in names)] for row in rows)
    write_rows(path, chain([header], body))


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
