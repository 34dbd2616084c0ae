"""Cell-line feature ingestion: expression matrices, precomputed embedding
files, response tables, and the join that assembles a training dataset.

All inputs are comma-separated UTF-8 tables read through :mod:`tables`.
Each expression or embedding table is read into a single matrix by
:func:`tables.read_matrix`, so the profiles of one expression table share
one gene list. A plain table is parsed by ``np.loadtxt``; any other goes to
the row reader, which gives the same values and error messages. A count
matrix, whose first row's values hold only ASCII digits, ``+``, spaces and
commas, is read as int32, skipping strtod, and its profiles are int32 views
of that matrix; a ``-`` in any value, or a count of 2**31 or more, sends it
to the float64 read, which is exact to 2**53.
Every error names the line its row starts on. Gene alignment zero-pads genes
missing from a table and drops genes outside the canonical list;
dropped/padded counts are surfaced so dataset shrinkage stays visible.

The raw-expression features are built in one matrix. The profiles' values
are copied row by row into a preallocated (cells x canonical genes) matrix,
through two index arrays computed once, and CPM-log1p then scales that
matrix in place. Stacking, fancy-indexing and scaling whole matrices would
make about five matrix-sized copies (a stacked table, a fancy-index
temporary, the zeroed aligned matrix and three scaling temporaries); for a
1000 x 5000 table that step set the peak memory of a raw-expression run.

A :class:`CellFeatureSet` keeps its vectors as the rows of one matrix,
the one that :func:`load_embeddings` reads or :func:`expression_feature_set`
builds, and finds an id's row through one id -> row index. A joined
:class:`ResponseDataset` codes its records once, when it is built:
integer columns give each record's drug and cell line as a position in the
dataset's distinct ids, a float column its IC50, and ``cell_rows`` each
distinct cell line's row of the feature matrix. Training batches and the
prediction pass read those columns and take cell rows from the matrix.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
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
    """One cell line's finite, non-negative expression values over a gene
    list: an int32 array, a count table's row, as it is, else float64."""

    cell_line_id: str
    values: np.ndarray
    gene_ids: list[str]

    def __post_init__(self):
        if not (isinstance(self.values, np.ndarray) and self.values.dtype == np.int32):
            self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.gene_ids),):
            raise IngestError(
                f"cell line {self.cell_line_id!r}: {self.values.shape[0]} values for "
                f"{len(self.gene_ids)} genes")
        if not np.all(np.isfinite(self.values) & (self.values >= 0)):
            raise IngestError(f"cell line {self.cell_line_id!r}: expression value outside "
                              f"the non-negative finite domain")


@dataclass
class CellFeatureSet:
    """Per-cell-line feature vectors from one named source: row ``i`` of the
    (cell lines x ``dim``) float64 ``matrix`` is the vector of ``ids[i]``.

    A float64 matrix is kept as it is, not copied, and made read-only. Ids
    must be distinct. The package goes by id only through the id -> row
    index (``id in cells``, :meth:`rows`); ``vectors``, each id's row view,
    stays for the benchmark's tracer and input writer and the tests.
    """

    source: str
    dim: int
    ids: list[str]
    matrix: np.ndarray
    vectors: dict[str, np.ndarray] = field(init=False, repr=False)
    _row: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        if self.source not in FEATURE_SOURCES:
            raise IngestError(f"unknown feature source {self.source!r}")
        expected = EXPECTED_EMBEDDING_DIM.get(self.source)
        if expected is not None and self.dim != expected:
            raise IngestError(
                f"source {self.source!r} declares {expected}-dim vectors, got {self.dim}")
        self.matrix = np.asarray(self.matrix, dtype=np.float64)
        if self.matrix.shape != (len(self.ids), self.dim):
            raise IngestError(f"a matrix of shape {self.matrix.shape} for {len(self.ids)} "
                              f"cell lines of {self.dim}-dim vectors")
        self._row = dict(zip(self.ids, range(len(self.ids))))
        if len(self._row) != len(self.ids):
            repeated = next(cid for cid, n in Counter(self.ids).items() if n > 1)
            raise IngestError(f"cell line {repeated!r} appears more than once")
        self.matrix.flags.writeable = False
        self.vectors = dict(zip(self.ids, self.matrix))

    def __contains__(self, cell_line_id: str) -> bool:
        return cell_line_id in self._row

    def rows(self, ids: Iterable[str]) -> np.ndarray:
        """The matrix row of each id, as ``np.intp``; an id without a vector
        raises IngestError naming it."""
        try:
            return np.fromiter(map(self._row.__getitem__, ids), dtype=np.intp)
        except KeyError as exc:
            raise IngestError(f"cell line {exc.args[0]!r} has no {self.source} vector") from None


@dataclass(slots=True)
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


def code_ids(keys: Iterable) -> tuple[list, np.ndarray]:
    """The distinct keys in order of first appearance, and each key's
    position among them (``np.intp``).

    One pass in C: a key the ``defaultdict`` has not seen draws the next
    number from the counter. A Python-level ``setdefault`` per key, or a
    ``dict.fromkeys`` pass followed by a lookup pass, each took 35-45%
    longer to code the three groupings of 14,000 prediction rows.
    """
    index = defaultdict(itertools.count().__next__)
    codes = np.fromiter(map(index.__getitem__, keys), dtype=np.intp)
    return list(index), codes


class ResponseDataset:
    """Joined records plus the graph and cell lookups they reference, and
    the records coded as columns.

    Built once, from the ids and values the records carry: ``drug_ids`` and
    ``cell_ids`` list the distinct ids in order of first appearance;
    ``drug_index[k]`` and ``cell_index[k]`` (``np.intp``) give record ``k``'s
    positions in them, and ``labels()[k]`` its IC50. ``cell_rows[j]`` is the
    row of ``cells.matrix`` that holds ``cell_ids[j]``'s vector, so every
    record's cell line must have one (IngestError otherwise). The columns
    are read-only and are not rebuilt, so a record changed afterwards does
    not reach them. Any dataset over the same records codes them the same
    way, whatever graphs and cells it holds.
    """

    def __init__(self, records: Iterable[ResponseRecord], graphs: Mapping[str, PaddedGraph],
                 cells: CellFeatureSet):
        self.records = list(records)
        self.graphs = graphs
        self.cells = cells
        self.drug_ids, self.drug_index = code_ids(map(attrgetter("drug_id"), self.records))
        self.cell_ids, self.cell_index = code_ids(map(attrgetter("cell_line_id"), self.records))
        self.cell_rows = cells.rows(self.cell_ids)
        self._labels = np.fromiter(map(attrgetter("ic50"), self.records), dtype=np.float64,
                                   count=len(self.records))
        for column in (self.drug_index, self.cell_index, self.cell_rows, self._labels):
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
    first_line: dict[str, int] = {}
    with text_input(path, IngestError) as fh:
        for line, text in enumerate(fh, 1):
            gene = text.strip()
            if gene and first_line.setdefault(gene, line) != line:
                raise IngestError(f"{path}: gene list has duplicate entries: {gene!r} "
                                  f"on lines {first_line[gene]} and {line}")
    if not first_line:
        raise IngestError(f"{path}: empty gene list")
    return list(first_line)


def alignment_stats(profile: ExpressionProfile, canonical: Sequence[str]) -> tuple[int, int]:
    """(padded, dropped): canonical genes absent from the profile, and
    profile genes absent from the canonical list."""
    have = set(profile.gene_ids)
    want = set(canonical)
    return len(want - have), len(have - want)


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
    return CellFeatureSet(source=expected_source, dim=dim, ids=ids, matrix=matrix)


def expression_feature_set(profiles: Iterable[ExpressionProfile],
                           canonical: Sequence[str]) -> CellFeatureSet:
    """Raw-expression baseline features: align to the canonical list, then
    apply the same CPM+log1p scaling the embedding pipeline used. The
    profiles must share one gene list, as those of one table do.

    The features are built in one (cells x canonical genes) float64 matrix:
    each row is copied from its profile's values, the only place int32
    counts are widened (exactly), and the matrix is scaled in place. Dividing
    by each row's total makes a row invariant to exact rescaling of its
    counts. A cell line with no counts on the canonical genes, or whose
    counts there sum past float64 (the division would then give zeros),
    raises IngestError naming it, before any value is scaled.
    """
    profiles = list(profiles)
    genes = profiles[0].gene_ids if profiles else []
    for p in profiles:
        if p.gene_ids != genes:
            raise IngestError(f"cell line {p.cell_line_id!r}: gene list differs from that "
                              f"of {profiles[0].cell_line_id!r}")
    if len(set(canonical)) != len(canonical):
        raise IngestError("canonical gene list has duplicate entries")
    # np.intp index arrays computed once; list indices made a 1000-row fill
    # about 13x slower
    index = {g: j for j, g in enumerate(genes)}
    at = np.array([i for i, gene in enumerate(canonical) if gene in index], dtype=np.intp)
    take = np.array([index[canonical[i]] for i in at], dtype=np.intp)
    matrix = np.zeros((len(profiles), len(canonical)))
    for row, p in zip(matrix, profiles):
        row[at] = p.values[take]
    with np.errstate(over="ignore"):  # an overflowing total is reported below
        total = matrix.sum(axis=1, keepdims=True)
    bad = np.flatnonzero(~((total > 0) & np.isfinite(total)))
    if bad.size:
        cell, t = profiles[bad[0]].cell_line_id, total[bad[0], 0]
        why = ("no counts (an all-zero vector)" if t <= 0 else
               f"the counts do not sum to a finite float64 (got {t})")
        raise IngestError(f"cell line {cell!r}: {why}, so cpm normalization is undefined")
    # the ufuncs of np.log1p(matrix / total * 1e6) in the same order, so the
    # same bytes, without its three matrix-sized temporaries
    matrix /= total
    matrix *= 1e6
    np.log1p(matrix, out=matrix)
    return CellFeatureSet(source="raw_expression", dim=len(canonical),
                          ids=[p.cell_line_id for p in profiles], matrix=matrix)


def load_responses(path) -> list[ResponseRecord]:
    """Load the ground-truth response table.

    A (drug, cell line) pair may appear once: a repeat could fall on both
    sides of a split. Referential checks against available drugs/cells
    happen at join time, where unmatched rows are counted rather than
    silently dropped. The records share one str per distinct drug, cell
    line and cancer type id: a screen repeats each id across its rows, and
    a str per row would be most of the loaded table.
    """
    records = []
    lines = []
    ids: dict[str | None, str | None] = {}
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
                drug, cell = row["drug_id"], row["cell_line_id"]
                cancer = row.get("cancer_type") or None
                records.append(ResponseRecord(
                    drug_id=ids.setdefault(drug, drug),
                    cell_line_id=ids.setdefault(cell, cell),
                    ic50=ic50,
                    cancer_type=ids.setdefault(cancer, cancer),
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
    row_of = cells._row
    for rec in responses:
        ok = True
        if rec.drug_id not in graphs:
            stats.missing_drug += 1
            ok = False
        if rec.cell_line_id not in row_of:
            stats.missing_cell += 1
            ok = False
        if ok:
            kept.append(rec)
    stats.matched = len(kept)
    return ResponseDataset(kept, graphs, cells), stats
