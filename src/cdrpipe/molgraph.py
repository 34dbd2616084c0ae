"""Drug molecular graphs in their three-file tabular form.

Each drug is described by a per-atom feature matrix (75 columns), an
undirected adjacency list of 0-based atom index pairs, and a degree list.
This module loads and validates that representation, builds the
symmetrically normalized adjacency (with self loops) used by the graph
encoder, and embeds graphs top-left into fixed-size zero-padded matrices,
enforcing the atom capacity. The encoder reads only the real-atom block.
"""

from __future__ import annotations

import csv
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
    """A graph has more atoms than the padding size allows."""


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
    """A graph embedded top-left into fixed-size matrices of capacity n_max."""

    features: np.ndarray        # n_max x ATOM_FEATURE_DIM, zero beyond n_atoms
    norm_adjacency: np.ndarray  # n_max x n_max, symmetric, zero beyond n_atoms
    mask: np.ndarray            # bool, true where the atom is real

    @property
    def n_atoms(self) -> int:
        return int(self.mask.sum())


def _canonical_pairs(pairs) -> list[tuple[int, int]]:
    return [(min(i, j), max(i, j)) for i, j in pairs]


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
    """Zero-pad features and normalized adjacency to n_max atoms."""
    n = graph.n_atoms
    if n > n_max:
        raise GraphCapacityError(
            f"drug {graph.drug_id!r} has {n} atoms but the padding size is {n_max}")
    features = np.zeros((n_max, ATOM_FEATURE_DIM))
    features[:n] = graph.features
    adj = np.zeros((n_max, n_max))
    adj[:n, :n] = normalized_adjacency(graph)
    mask = np.zeros(n_max, dtype=bool)
    mask[:n] = True
    return PaddedGraph(features=features, norm_adjacency=adj, mask=mask)


# ---------------------------------------------------------------------------
# file loading
# ---------------------------------------------------------------------------

def _numeric_rows(path, kind: str) -> list[list[float]]:
    rows = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError:
            raise GraphFormatError(f"{path}: {kind} row {lineno} is not numeric: {line!r}") from None
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
        pairs.append((int(row[0]), int(row[1])))
    degrees = []
    for row in _numeric_rows(degree_file, "degree"):
        if len(row) != 1 or row[0] != int(row[0]):
            raise GraphFormatError(f"{degree_file}: degree rows must hold one integer, got {row}")
        degrees.append(int(row[0]))
    return MolecularGraph(
        drug_id=drug_id,
        features=np.array(feat_rows),
        adjacency=_canonical_pairs(pairs),
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
    return graphs


def write_drug_manifest(manifest_file, entries: dict[str, tuple[str, str, str]]) -> None:
    """Write a manifest of drug_id -> (feature, adjacency, degree) file paths."""
    with open(manifest_file, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(MANIFEST_COLUMNS)
        for drug_id, paths in entries.items():
            writer.writerow([drug_id, *paths])
