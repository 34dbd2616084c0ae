"""Drug molecular graphs in their three-file tabular form.

Each drug is described by a per-atom feature matrix (75 columns), an
undirected bond list of 0-based atom index pairs, and a degree list,
each a headerless CSV file read by :func:`tables.read_headerless` under the
tables rules (so a line of whitespace is an error naming its line, not a
blank line); a drug manifest table, read through :func:`tables.read_table`,
names them. All are written through :func:`tables.write_rows`. This module
loads and validates that representation, builds the symmetrically
normalized adjacency (with self loops) used by the graph encoder, and
enforces the atom capacity. The encoder's input record holds the real atoms
only, nothing padded to the capacity: their features propagated once over the
normalized adjacency, ``ÂX``, and that adjacency, ``Â``. It does not keep the
atom features themselves, which the encoder never reads.

The bond checks run on the whole bond array at once: range and self-loop
masks, duplicates (in either orientation) found among the canonical
``(min, max)`` pairs once sorted, and degrees counted by ``np.bincount``.
Where several bonds are bad, the error names the first in file order, with
the message a check of one bond at a time would give. A graph holds its
bonds once, as one ``m x 2`` int64 array of canonical pairs in file order;
the normalized adjacency is filled by fancy indexing on it, and
:func:`save_graph` writes it back.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from pathlib import Path

import numpy as np

from .tables import read_headerless, read_table, write_rows

ATOM_FEATURE_DIM = 75


class GraphError(ValueError):
    """A drug graph or its files are malformed, inconsistent, or over the
    atom capacity."""


@dataclass
class MolecularGraph:
    """A validated drug graph: atom features, canonical bonds, degrees.

    ``adjacency`` may be given as any sequence of index pairs, a list or an
    ``m x 2`` integer array; it is held as the graph's one copy of its bonds,
    an ``m x 2`` int64 array of canonical pairs in the given order."""

    drug_id: str
    features: np.ndarray          # n_atoms x ATOM_FEATURE_DIM
    adjacency: np.ndarray         # m x 2 int64, canonical (min, max) pairs, deduplicated
    degrees: np.ndarray           # int vector, length n_atoms

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.degrees = np.asarray(self.degrees, dtype=np.int64)
        n = self.n_atoms
        if self.features.ndim != 2 or self.features.shape[1] != ATOM_FEATURE_DIM:
            raise GraphError(
                f"drug {self.drug_id!r}: feature matrix must be n x {ATOM_FEATURE_DIM}, "
                f"got {self.features.shape}")
        if self.degrees.shape != (n,):
            raise GraphError(f"drug {self.drug_id!r}: degree list has "
                             f"{self.degrees.shape[0]} entries for {n} atoms")
        pairs = np.asarray(self.adjacency, dtype=np.int64).reshape(len(self.adjacency), 2)
        canonical = np.sort(pairs, axis=1)
        lo, hi = canonical.T
        outside = (lo < 0) | (hi >= n)
        # a bond repeats where an earlier one has its canonical pair; lexsort
        # is stable, so the earliest of equal pairs sorts first
        order = np.lexsort((hi, lo))
        lo_sorted, hi_sorted = lo[order], hi[order]
        repeat = np.zeros(len(pairs), dtype=bool)
        repeat[order[1:]] = (lo_sorted[1:] == lo_sorted[:-1]) & (hi_sorted[1:] == hi_sorted[:-1])
        bad = outside | (lo == hi) | repeat
        if bad.any():  # the first bad bond in file order, checked as one at a time would
            k = int(bad.argmax())
            i, j = pairs[k]
            if outside[k]:
                raise GraphError(f"drug {self.drug_id!r}: bond ({i}, {j}) references an "
                                 f"atom outside [0, {n})")
            if i == j:
                raise GraphError(f"drug {self.drug_id!r}: self-loop on atom {i}")
            raise GraphError(f"drug {self.drug_id!r}: duplicate bond "
                             f"{(int(lo[k]), int(hi[k]))}")
        self.adjacency = canonical
        counts = np.bincount(pairs.ravel(), minlength=n)
        if not np.array_equal(counts, self.degrees):
            bad = int(np.nonzero(counts != self.degrees)[0][0])
            raise GraphError(
                f"drug {self.drug_id!r}: degree list says {int(self.degrees[bad])} for atom "
                f"{bad} but the adjacency implies {int(counts[bad])}")

    @property
    def n_atoms(self) -> int:
        return self.features.shape[0]


@dataclass
class PaddedGraph:
    """The encoder's input for one drug: its real atoms only, no padding.

    ``propagated`` is the first GCN layer's propagation, ``ÂX``, built once
    here: the atom features need no gradient, so that layer's ``Â(XW)``
    equals ``(ÂX)W``. The record holds ``ÂX`` and ``Â``, the two arrays
    the encoder reads; the features ``X`` are a constructor argument only
    and are not kept. ``mask`` stays only for the benchmark's
    ``molgraph.pad_fill_ratio``, until that metric moves onto the run's
    event recorder."""

    features: InitVar[np.ndarray]  # n_atoms x ATOM_FEATURE_DIM, read once, not kept
    norm_adjacency: np.ndarray     # n_atoms x n_atoms, symmetric
    mask: np.ndarray               # bool, length n_max, true on the first n_atoms
    propagated: np.ndarray = field(init=False)  # norm_adjacency @ features

    def __post_init__(self, features):
        self.propagated = self.norm_adjacency @ features

    @property
    def n_atoms(self) -> int:
        return self.propagated.shape[0]


def normalized_adjacency(graph: MolecularGraph) -> np.ndarray:
    """Symmetrically normalized adjacency D^{-1/2} (A + I) D^{-1/2}.

    The self loops make every degree at least 1, so an isolated atom keeps
    a unit self-entry.
    """
    n = graph.n_atoms
    a = np.eye(n)
    i, j = graph.adjacency.T
    a[i, j] = 1.0
    a[j, i] = 1.0
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return inv_sqrt[:, None] * a * inv_sqrt[None, :]


def pad_graph(graph: MolecularGraph, n_max: int) -> PaddedGraph:
    """Check that the graph fits n_max atoms; return its encoder record."""
    n = graph.n_atoms
    if n > n_max:
        raise GraphError(f"drug {graph.drug_id!r} has {n} atoms but the atom capacity is {n_max}")
    return PaddedGraph(graph.features, normalized_adjacency(graph), np.arange(n_max) < n)


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------

def _read_graph_file(path, kind: str, width: int, integer: bool = False) -> np.ndarray:
    """One graph file as a float64 matrix; a value that is not finite (or,
    where ``integer``, not a 64-bit integer) raises naming its line and column."""
    matrix, lines = read_headerless(path, GraphError, width)
    bad = ~np.isfinite(matrix)
    if integer:
        bad |= (matrix != np.trunc(matrix)) | (np.abs(matrix) >= 2.0 ** 63)
    for row, col in np.argwhere(bad)[:1]:
        value = float(matrix[row, col])
        what = "not a 64-bit integer" if np.isfinite(value) else "not finite"
        raise GraphError(f"{path}: {kind} row {lines[row]} is {what} "
                         f"in column {col + 1}: {value!r}")
    return matrix


def load_graph(feature_file, adjacency_file, degree_file, drug_id: str | None = None) -> MolecularGraph:
    """Load and cross-validate one drug's three-part graph representation."""
    features = _read_graph_file(feature_file, "feature", ATOM_FEATURE_DIM)
    if not len(features):
        raise GraphError(f"{feature_file}: no atoms")
    pairs = _read_graph_file(adjacency_file, "adjacency", 2, integer=True)
    degrees = _read_graph_file(degree_file, "degree", 1, integer=True)
    return MolecularGraph(drug_id if drug_id is not None else Path(feature_file).stem,
                          features, pairs, degrees[:, 0])


def save_graph(graph: MolecularGraph, feature_file, adjacency_file, degree_file) -> None:
    """Write a graph back out in the canonical three-file form."""
    write_rows(feature_file, ([repr(float(v)) for v in row] for row in graph.features))
    write_rows(adjacency_file, graph.adjacency)  # csv writes each int64 as its digits
    write_rows(degree_file, ([int(d)] for d in graph.degrees))


MANIFEST_COLUMNS = ("drug_id", "feature_file", "adjacency_file", "degree_file")


def load_drug_manifest(manifest_file) -> dict[str, MolecularGraph]:
    """Load every drug listed in a manifest mapping drug_id to its three files.

    Relative paths are resolved against the manifest's directory. Returns
    drugs in file order. A listed file that cannot be opened raises
    :class:`GraphError` naming the manifest, the row, the drug and the file.
    """
    base = Path(manifest_file).parent
    graphs: dict[str, MolecularGraph] = {}
    first_row: dict[str, int] = {}
    with read_table(manifest_file, GraphError, MANIFEST_COLUMNS) as (header, rows):
        for lineno, fields in rows:
            row = dict(zip(header, fields))
            drug_id = row["drug_id"]  # as written, as the response table's ids are
            if not drug_id.strip():
                raise GraphError(f"{manifest_file}: row {lineno}: empty drug_id")
            if drug_id in graphs:
                raise GraphError(f"{manifest_file}: row {lineno}: duplicate drug_id "
                                 f"{drug_id!r} (first at row {first_row[drug_id]})")
            first_row[drug_id] = lineno
            paths = [base / row[c].strip() for c in MANIFEST_COLUMNS[1:]]
            try:
                graphs[drug_id] = load_graph(*paths, drug_id=drug_id)
            except OSError as exc:  # a listed file is missing, a directory, unreadable
                raise GraphError(f"{manifest_file}: row {lineno}: drug {drug_id!r}: cannot "
                                 f"open {exc.filename}: {exc.strerror}") from None
    return graphs


def write_drug_manifest(manifest_file, entries: dict[str, tuple[str, str, str]]) -> None:
    """Write a manifest of drug_id -> (feature, adjacency, degree) file paths."""
    rows = [[drug_id, *paths] for drug_id, paths in entries.items()]
    write_rows(manifest_file, [MANIFEST_COLUMNS, *rows])
