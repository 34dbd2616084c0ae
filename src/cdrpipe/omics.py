"""Cell-line feature ingestion: expression matrices, precomputed embedding
files, response tables, and the join that assembles a training dataset.

All inputs are comma-separated UTF-8 tables read through :mod:`tables`.
Each expression or embedding table is read into a single matrix by
:func:`tables.read_matrix`, so the profiles of one expression table share
one gene list. A plain table is parsed by one ``np.loadtxt`` call; any other
goes to the row reader, which gives the same values and error messages.
Every error names the line its row starts on. Gene alignment zero-pads genes
missing from a table and drops genes outside the canonical list;
dropped/padded counts are surfaced so dataset shrinkage stays visible.

A joined :class:`ResponseDataset` codes its records once, when it is built:
integer columns give each record's drug and cell line as a position in the
dataset's distinct ids, and a float column its IC50. Training batches and
the prediction pass read those columns, not the records.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .molgraph import PaddedGraph
from .tables import read_matrix, read_table, text_input

FEATURE_SOURCES = ("scgpt", "scfoundation", "raw_expression")

# declared widths; raw_expression takes its width from the canonical gene list
EXPECTED_EMBEDDING_DIM = {"scgpt": 512, "scfoundation": 768}


class IngestError(ValueError):
    """Any schema, parse, domain, or consistency problem in an input table."""


@dataclass
class ExpressionProfile:
    """One cell line's non-negative expression values over a gene list."""

    cell_line_id: str
    values: np.ndarray
    gene_ids: list[str]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.gene_ids),):
            raise IngestError(
                f"cell line {self.cell_line_id!r}: {self.values.shape[0]} values for "
                f"{len(self.gene_ids)} genes")
        if np.any(self.values < 0):
            raise IngestError(f"cell line {self.cell_line_id!r}: negative expression value")


@dataclass
class CellFeatureSet:
    """Per-cell-line feature vectors from one named source."""

    source: str
    dim: int
    vectors: dict[str, np.ndarray]

    def __post_init__(self):
        if self.source not in FEATURE_SOURCES:
            raise IngestError(f"unknown feature source {self.source!r}")
        expected = EXPECTED_EMBEDDING_DIM.get(self.source)
        if expected is not None and self.dim != expected:
            raise IngestError(
                f"source {self.source!r} declares {expected}-dim vectors, got {self.dim}")
        for cid, vec in self.vectors.items():
            if vec.shape != (self.dim,):
                raise IngestError(
                    f"cell line {cid!r}: vector of length {vec.shape[0]}, expected {self.dim}")


@dataclass
class ResponseRecord:
    """One (drug, cell line, IC50, cancer type) ground-truth row."""

    drug_id: str
    cell_line_id: str
    ic50: float
    cancer_type: str | None = None

    def __post_init__(self):
        if not self.drug_id or not self.cell_line_id:
            raise IngestError("response records need non-empty drug and cell line ids")
        if not math.isfinite(self.ic50):
            raise IngestError(
                f"response ({self.drug_id}, {self.cell_line_id}): non-finite ic50")


@dataclass
class JoinStats:
    total: int = 0
    matched: int = 0
    missing_drug: int = 0
    missing_cell: int = 0


def _code(ids: Iterable[str]) -> tuple[list[str], np.ndarray]:
    """The distinct ids in order of first appearance, and each id's position
    among them."""
    code: dict[str, int] = {}
    index = np.fromiter((code.setdefault(i, len(code)) for i in ids), dtype=np.intp)
    return list(code), index


class ResponseDataset:
    """Joined records plus the graph and cell lookups they reference, and
    the records coded as columns.

    Built once, from the ids and values the records carry: ``drug_ids`` and
    ``cell_ids`` list the distinct ids in order of first appearance;
    ``drug_index[k]`` and ``cell_index[k]`` (``np.intp``) give record ``k``'s
    positions in them, and ``labels()[k]`` its IC50. The columns are read-only
    and are not rebuilt, so a record changed afterwards does not reach them.
    Any dataset over the same records codes them the same way, whatever
    graphs and cells it holds.
    """

    def __init__(self, records: Iterable[ResponseRecord], graphs: Mapping[str, PaddedGraph],
                 cells: CellFeatureSet):
        self.records = list(records)
        self.graphs = graphs
        self.cells = cells
        self.drug_ids, self.drug_index = _code(r.drug_id for r in self.records)
        self.cell_ids, self.cell_index = _code(r.cell_line_id for r in self.records)
        self._labels = np.fromiter((r.ic50 for r in self.records), dtype=np.float64,
                                   count=len(self.records))
        for column in (self.drug_index, self.cell_index, self._labels):
            column.flags.writeable = False

    def __len__(self) -> int:
        return len(self._labels)

    def subset(self, records: Iterable[ResponseRecord]) -> "ResponseDataset":
        """A dataset of ``records`` over this one's graphs and cells."""
        return ResponseDataset(records, self.graphs, self.cells)

    def labels(self) -> np.ndarray:
        """The IC50 column, read-only."""
        return self._labels


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def _read_cells(path) -> tuple[list[str], list[str], np.ndarray, list[int]]:
    """:func:`tables.read_matrix` keyed by ``cell_line_id``: (ids, column
    names, matrix, start line of each row); a table with no rows is an
    error."""
    ids, columns, matrix, lines = read_matrix(path, IngestError, "cell_line_id")
    if not ids:
        raise IngestError(f"{path}: no cell lines")
    return ids, columns, matrix, lines


def _reject_first(path, bad: np.ndarray, lines: Sequence[int], what: str) -> None:
    """Raise naming the file line and column of the first True in ``bad``,
    whose row ``i`` starts on line ``lines[i]``."""
    if bad.any():
        row, col = np.argwhere(bad)[0]
        raise IngestError(f"{path}: row {lines[row]} column {col + 2} is {what}")


def load_expression(matrix_file) -> list[ExpressionProfile]:
    """Load an expression matrix: header of gene ids, one row per cell line.
    The profiles are the rows of one matrix and share the header's gene list."""
    ids, genes, matrix, lines = _read_cells(matrix_file)
    repeated = [gene for gene, count in Counter(genes).items() if count > 1]
    if repeated:
        raise IngestError(f"{matrix_file}: gene {repeated[0]!r} appears more than once "
                          f"in the header")
    _reject_first(matrix_file, ~(np.isfinite(matrix) & (matrix >= 0)), lines,
                  "outside the non-negative expression domain")
    return [ExpressionProfile(cid, values, genes) for cid, values in zip(ids, matrix)]


def load_gene_list(path) -> list[str]:
    """One gene id per line; order defines the canonical feature layout."""
    with text_input(path, IngestError) as fh:
        genes = [ln.strip() for ln in fh if ln.strip()]
    if not genes:
        raise IngestError(f"{path}: empty gene list")
    if len(set(genes)) != len(genes):
        raise IngestError(f"{path}: gene list has duplicate entries")
    return genes


def align_genes(gene_ids: Sequence[str], values: np.ndarray,
                canonical: Sequence[str]) -> np.ndarray:
    """Reorder values whose last axis runs over ``gene_ids`` onto the
    canonical gene list, zero-padding absentees.

    Genes outside the canonical list are dropped; use
    :func:`alignment_stats` to count them for the ingestion report.
    """
    if len(set(canonical)) != len(canonical):
        raise IngestError("canonical gene list has duplicate entries")
    index = {g: j for j, g in enumerate(gene_ids)}
    present = [i for i, gene in enumerate(canonical) if gene in index]
    out = np.zeros(values.shape[:-1] + (len(canonical),))
    out[..., present] = values[..., [index[canonical[i]] for i in present]]
    return out


def alignment_stats(profile: ExpressionProfile, canonical: Sequence[str]) -> tuple[int, int]:
    """(padded, dropped): canonical genes absent from the profile, and
    profile genes absent from the canonical list."""
    have = set(profile.gene_ids)
    want = set(canonical)
    return len(want - have), len(have - want)


def cpm_log1p(values: np.ndarray) -> np.ndarray:
    """Counts-per-million scaling followed by log1p, along the last axis.

    out[..., i] = log1p(values[..., i] / sum(values[..., :]) * 1e6). Division
    by the total makes the result invariant to exact rescaling of the input.
    """
    values = np.asarray(values, dtype=np.float64)
    total = values.sum(axis=-1, keepdims=True)
    if np.any(total <= 0):
        raise IngestError("cpm normalization needs a positive total, got an all-zero vector")
    return np.log1p(values / total * 1e6)


def load_embeddings(path, expected_source: str) -> CellFeatureSet:
    """Load a precomputed embedding table; every value must be finite and
    the width must match the source's declared one."""
    ids, columns, matrix, lines = _read_cells(path)
    _reject_first(path, ~np.isfinite(matrix), lines, "not finite")
    dim = len(columns)
    expected = EXPECTED_EMBEDDING_DIM.get(expected_source)
    if expected is not None and dim != expected:
        raise IngestError(f"{path}: {dim} embedding columns but source "
                          f"{expected_source!r} declares {expected}")
    return CellFeatureSet(source=expected_source, dim=dim, vectors=dict(zip(ids, matrix)))


def expression_feature_set(profiles: Iterable[ExpressionProfile],
                           canonical: Sequence[str]) -> CellFeatureSet:
    """Raw-expression baseline features: align to the canonical list, then
    apply the same CPM+log1p scaling the embedding pipeline used. The
    profiles must share one gene list, as those of one table do."""
    profiles = list(profiles)
    genes = profiles[0].gene_ids if profiles else []
    for p in profiles:
        if p.gene_ids != genes:
            raise IngestError(f"cell line {p.cell_line_id!r}: gene list differs from that "
                              f"of {profiles[0].cell_line_id!r}")
    matrix = np.array([p.values for p in profiles]).reshape(len(profiles), len(genes))
    aligned = align_genes(genes, matrix, canonical)
    try:
        scaled = cpm_log1p(aligned)
    except IngestError:
        empty = profiles[int(np.argmax(aligned.sum(axis=1) <= 0))]
        raise IngestError(f"cell line {empty.cell_line_id!r}: no counts on the "
                          f"canonical genes, so cpm normalization is undefined") from None
    vectors = {p.cell_line_id: row for p, row in zip(profiles, scaled)}
    return CellFeatureSet(source="raw_expression", dim=len(canonical), vectors=vectors)


def load_responses(path) -> list[ResponseRecord]:
    """Load the ground-truth response table.

    A (drug, cell line) pair may appear once: a repeat could fall on both
    sides of a split. Referential checks against available drugs/cells
    happen at join time, where unmatched rows are counted rather than
    silently dropped.
    """
    records = []
    lines = []
    with read_table(path, IngestError, ("drug_id", "cell_line_id", "ic50")) as (header, rows):
        for lineno, fields in rows:
            row = dict(zip(header, fields))
            lines.append(lineno)
            try:
                ic50 = float(row["ic50"])
            except ValueError:
                raise IngestError(f"{path}: row {lineno} ic50 is not numeric: "
                                  f"{row['ic50']!r}") from None
            try:
                records.append(ResponseRecord(
                    drug_id=row["drug_id"],
                    cell_line_id=row["cell_line_id"],
                    ic50=ic50,
                    cancer_type=(row.get("cancer_type") or None),
                ))
            except IngestError as exc:
                raise IngestError(f"{path}: row {lineno}: {exc}") from None
    # keyed once the records exist: keys made between them slowed the eval pass
    first_row: dict[tuple[str, str], int] = {}
    for lineno, rec in zip(lines, records):
        pair = (rec.drug_id, rec.cell_line_id)
        first = first_row.setdefault(pair, lineno)
        if first != lineno:
            raise IngestError(f"{path}: row {lineno}: duplicate (drug_id, cell_line_id) "
                              f"{pair} (first at row {first})")
    return records


def join_dataset(responses: Sequence[ResponseRecord],
                 graphs: Mapping[str, PaddedGraph],
                 cells: CellFeatureSet) -> tuple[ResponseDataset, JoinStats]:
    """Keep records whose drug graph and cell vector both exist.

    Unmatched rows are counted per missing side (a row missing both counts
    in both tallies), never silently dropped from the statistics.
    """
    stats = JoinStats(total=len(responses))
    kept = []
    for rec in responses:
        ok = True
        if rec.drug_id not in graphs:
            stats.missing_drug += 1
            ok = False
        if rec.cell_line_id not in cells.vectors:
            stats.missing_cell += 1
            ok = False
        if ok:
            kept.append(rec)
    stats.matched = len(kept)
    return ResponseDataset(kept, graphs, cells), stats
