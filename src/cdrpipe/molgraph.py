"""Drug molecular graphs in their three-file tabular form.

Each drug is described by a per-atom feature matrix (75 columns), an
undirected adjacency list of 0-based atom index pairs, and a degree list.
This module loads and validates that representation, builds the
symmetrically normalized adjacency (with self loops) used by the graph
encoder, and enforces the atom capacity. The encoder's input record holds
the real atoms only, nothing padded to the capacity, and their features
already propagated once over the normalized adjacency.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ATOM_FEATURE_DIM = 75


class GraphError(ValueError):
    """Base class for molecular-graph problems."""


class GraphFormatError(GraphError):
    """A graph file does not parse as the expected numeric table."""


class GraphIndexError(GraphError):
    """An adjacency pair references an atom outside [0, n_atoms)."""


class GraphConsistencyError(GraphError):
    """Self-loops, duplicate bonds, or degrees that contradict the bonds."""


class GraphCapacityError(GraphError):
    """A graph has more atoms than the atom capacity (n_max) allows."""


@dataclass
class MolecularGraph:
    """A validated drug graph: atom features, canonical bond list, degrees."""

    drug_id: str
    features: np.ndarray          # n_atoms x ATOM_FEATURE_DIM
    adjacency: list[tuple[int, int]]   # canonical (min, max) pairs, deduplicated
    degrees: np.ndarray           # int vector, length n_atoms

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.degrees = np.asarray(self.degrees, dtype=np.int64)
        n = self.n_atoms
        if self.features.ndim != 2 or self.features.shape[1] != ATOM_FEATURE_DIM:
            raise GraphFormatError(
                f"drug {self.drug_id!r}: feature matrix must be n x {ATOM_FEATURE_DIM}, "
                f"got {self.features.shape}")
        if self.degrees.shape != (n,):
            raise GraphConsistencyError(
                f"drug {self.drug_id!r}: degree list has {self.degrees.shape[0]} entries "
                f"for {n} atoms")
        seen = set()
        counts = np.zeros(n, dtype=np.int64)
        for i, j in self.adjacency:
            if not (0 <= i < n and 0 <= j < n):
                raise GraphIndexError(
                    f"drug {self.drug_id!r}: bond ({i}, {j}) references an atom outside "
                    f"[0, {n})")
            if i == j:
                raise GraphConsistencyError(f"drug {self.drug_id!r}: self-loop on atom {i}")
            pair = (min(i, j), max(i, j))
            if pair in seen:
                raise GraphConsistencyError(f"drug {self.drug_id!r}: duplicate bond {pair}")
            seen.add(pair)
            counts[i] += 1
            counts[j] += 1
        if not np.array_equal(counts, self.degrees):
            bad = int(np.nonzero(counts != self.degrees)[0][0])
            raise GraphConsistencyError(
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
    equals ``(ÂX)W``. ``mask`` stays only for the benchmark's
    ``molgraph.pad_fill_ratio``, until that metric moves onto the run's
    event recorder."""

    features: np.ndarray        # n_atoms x ATOM_FEATURE_DIM, the graph's own array
    norm_adjacency: np.ndarray  # n_atoms x n_atoms, symmetric
    mask: np.ndarray            # bool, length n_max, true on the first n_atoms
    propagated: np.ndarray = field(init=False)  # norm_adjacency @ features

    def __post_init__(self):
        self.propagated = self.norm_adjacency @ self.features

    @property
    def n_atoms(self) -> int:
        return self.features.shape[0]


def normalized_adjacency(graph: MolecularGraph) -> np.ndarray:
    """Symmetrically normalized adjacency D^{-1/2} (A + I) D^{-1/2}.

    The self loops make every degree at least 1, so an isolated atom keeps
    a unit self-entry.
    """
    n = graph.n_atoms
    a = np.eye(n)
    for i, j in graph.adjacency:
        a[i, j] = 1.0
        a[j, i] = 1.0
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return inv_sqrt[:, None] * a * inv_sqrt[None, :]


def pad_graph(graph: MolecularGraph, n_max: int) -> PaddedGraph:
    """Check that the graph fits n_max atoms; return its encoder record."""
    n = graph.n_atoms
    if n > n_max:
        raise GraphCapacityError(
            f"drug {graph.drug_id!r} has {n} atoms but the atom capacity is {n_max}")
    return PaddedGraph(graph.features, normalized_adjacency(graph), np.arange(n_max) < n)


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------

def _numeric_rows(path, kind: str) -> list[list[float]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            row = [float(v) for v in line.split(",")]
        except ValueError:
            raise GraphFormatError(f"{path}: {kind} row {lineno} is not numeric: {line!r}") from None
        if not all(map(math.isfinite, row)):
            raise GraphFormatError(f"{path}: {kind} row {lineno} is not finite: {line!r}")
        rows.append(row)
    return rows


def load_graph(feature_file, adjacency_file, degree_file, drug_id: str | None = None) -> MolecularGraph:
    """Load and cross-validate one drug's three-part graph representation."""
    drug_id = drug_id if drug_id is not None else Path(feature_file).stem
    feat_rows = _numeric_rows(feature_file, "feature")
    if not feat_rows:
        raise GraphFormatError(f"{feature_file}: no atoms")
    for idx, row in enumerate(feat_rows):
        if len(row) != ATOM_FEATURE_DIM:
            raise GraphFormatError(
                f"{feature_file}: feature row {idx} has {len(row)} values, "
                f"expected {ATOM_FEATURE_DIM}")
    pairs = []
    for row in _numeric_rows(adjacency_file, "adjacency"):
        if len(row) != 2 or any(v != int(v) for v in row):
            raise GraphFormatError(
                f"{adjacency_file}: adjacency rows must hold two integer indices, got {row}")
        i, j = int(row[0]), int(row[1])
        pairs.append((min(i, j), max(i, j)))
    degrees = []
    for row in _numeric_rows(degree_file, "degree"):
        if len(row) != 1 or row[0] != int(row[0]):
            raise GraphFormatError(f"{degree_file}: degree rows must hold one integer, got {row}")
        degrees.append(int(row[0]))
    return MolecularGraph(
        drug_id=drug_id,
        features=np.array(feat_rows),
        adjacency=pairs,
        degrees=np.array(degrees, dtype=np.int64),
    )


def save_graph(graph: MolecularGraph, feature_file, adjacency_file, degree_file) -> None:
    """Write a graph back out in the canonical three-file form."""
    with open(feature_file, "w", encoding="utf-8") as fh:
        for row in graph.features:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    with open(adjacency_file, "w", encoding="utf-8") as fh:
        for i, j in graph.adjacency:
            fh.write(f"{i},{j}\n")
    with open(degree_file, "w", encoding="utf-8") as fh:
        for d in graph.degrees:
            fh.write(f"{int(d)}\n")


MANIFEST_COLUMNS = ("drug_id", "feature_file", "adjacency_file", "degree_file")


def load_drug_manifest(manifest_file) -> dict[str, MolecularGraph]:
    """Load every drug listed in a manifest mapping drug_id to its three files.

    Relative paths are resolved against the manifest's directory. Returns
    drugs in file order.
    """
    base = Path(manifest_file).parent
    graphs: dict[str, MolecularGraph] = {}
    try:
        with open(manifest_file, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in MANIFEST_COLUMNS if c not in (reader.fieldnames or [])]
            if missing:
                raise GraphFormatError(f"{manifest_file}: manifest is missing columns {missing}")
            for row in reader:
                drug_id = row["drug_id"].strip()
                if not drug_id:
                    raise GraphFormatError(f"{manifest_file}: empty drug_id")
                if drug_id in graphs:
                    raise GraphConsistencyError(f"{manifest_file}: duplicate drug_id {drug_id!r}")
                paths = [base / row[c].strip() for c in MANIFEST_COLUMNS[1:]]
                graphs[drug_id] = load_graph(*paths, drug_id=drug_id)
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{manifest_file}: not UTF-8 text ({exc.reason})") from None
    return graphs


def write_drug_manifest(manifest_file, entries: dict[str, tuple[str, str, str]]) -> None:
    """Write a manifest of drug_id -> (feature, adjacency, degree) file paths."""
    with open(manifest_file, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        for drug_id, paths in entries.items():
            writer.writerow([drug_id, *paths])
