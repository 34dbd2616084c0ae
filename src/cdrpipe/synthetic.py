"""Synthetic fixtures: random molecular graphs and benchmark datasets whose
labels are a fixed random linear function of the pooled drug features
concatenated with the cell features, plus Gaussian noise.

Used by the test suite and the demo scripts; real data never flows through
this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .molgraph import (ATOM_FEATURE_DIM, MolecularGraph, PaddedGraph, pad_graph,
                       save_graph, write_drug_manifest)
from .omics import CellFeatureSet, ResponseRecord
from .tables import write_rows


def random_graph(rng: np.random.Generator, drug_id: str, n_atoms: int,
                 extra_edge_prob: float = 0.15) -> MolecularGraph:
    """A random connected graph: a random spanning tree plus optional extras."""
    features = rng.normal(size=(n_atoms, ATOM_FEATURE_DIM))
    pairs = set()
    for i in range(1, n_atoms):
        j = int(rng.integers(0, i))
        pairs.add((j, i))
    for i in range(n_atoms):
        for j in range(i + 1, n_atoms):
            if (i, j) not in pairs and rng.random() < extra_edge_prob:
                pairs.add((i, j))
    bonds = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2)
    return MolecularGraph(drug_id=drug_id, features=features, adjacency=bonds,
                          degrees=np.bincount(bonds.ravel(), minlength=n_atoms))


@dataclass
class SyntheticBenchmark:
    """A generated dataset plus everything needed to train on it."""

    graphs: dict[str, MolecularGraph]
    padded: dict[str, PaddedGraph]
    cells: CellFeatureSet
    records: list[ResponseRecord]
    n_max_atoms: int


def pooled_features(graph: MolecularGraph) -> np.ndarray:
    """Column-wise max of the raw atom features (the label-side drug summary)."""
    return graph.features.max(axis=0)


def make_benchmark(n_cells: int = 500, cell_dim: int = 64, n_drugs: int = 30,
                   atom_range: tuple[int, int] = (5, 30), n_records: int = 9000,
                   noise_std: float = 0.1, n_cancer_types: int = 8,
                   seed: int = 0) -> SyntheticBenchmark:
    """Generate graphs, cell vectors, and linear-plus-noise response labels.

    Raw labels w . (pooled drug features ++ cell vector) + b are standardized
    to zero mean / unit variance across the dataset before noise is added, so
    noise_std is directly the noise-to-signal scale.
    """
    rng = np.random.default_rng(seed)
    n_max = atom_range[1]
    graphs, padded = {}, {}
    for d in range(n_drugs):
        drug_id = f"D{d:03d}"
        n_atoms = int(rng.integers(atom_range[0], atom_range[1] + 1))
        graphs[drug_id] = random_graph(rng, drug_id, n_atoms)
        padded[drug_id] = pad_graph(graphs[drug_id], n_max)

    cell_ids = [f"C{c:03d}" for c in range(n_cells)]
    # one draw of the whole matrix gives the bytes of a draw per cell line
    cells = CellFeatureSet(source="raw_expression", dim=cell_dim, ids=cell_ids,
                           matrix=rng.normal(size=(n_cells, cell_dim)))
    cancer_type = {cid: f"T{rng.integers(0, n_cancer_types)}" for cid in cell_ids}

    w = rng.normal(size=ATOM_FEATURE_DIM + cell_dim)
    w[:ATOM_FEATURE_DIM] /= np.sqrt(ATOM_FEATURE_DIM)
    w[ATOM_FEATURE_DIM:] /= np.sqrt(cell_dim)
    bias = rng.normal()

    n_pairs = n_drugs * n_cells
    if n_records > n_pairs:
        raise ValueError(f"cannot draw {n_records} unique pairs from {n_pairs}")
    chosen = rng.choice(n_pairs, size=n_records, replace=False)
    drug_ids = sorted(graphs)
    pooled = {d: pooled_features(graphs[d]) for d in drug_ids}

    raw = np.empty(n_records)
    pairs = []
    for k, flat in enumerate(chosen):
        d, cell = drug_ids[flat // n_cells], flat % n_cells
        pairs.append((d, cell_ids[cell]))
        raw[k] = w @ np.concatenate([pooled[d], cells.matrix[cell]]) + bias
    raw = (raw - raw.mean()) / raw.std()
    labels = raw + rng.normal(0.0, noise_std, size=n_records)

    records = [
        ResponseRecord(drug_id=d, cell_line_id=c, ic50=float(y), cancer_type=cancer_type[c])
        for (d, c), y in zip(pairs, labels)
    ]
    return SyntheticBenchmark(graphs=graphs, padded=padded, cells=cells,
                              records=records, n_max_atoms=n_max)


def noisy_projection_set(cells: CellFeatureSet, out_dim: int = 256,
                         noise_std: float = 2.0, seed: int = 0) -> CellFeatureSet:
    """A degraded view of a feature set: random projection plus per-cell noise.

    Stands in for a weak baseline representation; the projection keeps the
    signal recoverable in principle while the noise drowns most of it.
    """
    rng = np.random.default_rng(seed)
    proj = rng.normal(size=(out_dim, cells.dim)) / np.sqrt(cells.dim)
    # rescale to unit per-coordinate variance so the degradation is purely
    # informational, not a feature-scale change
    scale = 1.0 / np.sqrt(1.0 + noise_std**2)
    matrix = np.empty((len(cells.ids), out_dim))
    # a matrix-vector product per row keeps the per-cell bytes; one matrix
    # product may round differently
    for row, vec in zip(matrix, cells.matrix):
        row[:] = scale * (proj @ vec + rng.normal(0.0, noise_std, size=out_dim))
    return CellFeatureSet(source="raw_expression", dim=out_dim, ids=list(cells.ids),
                          matrix=matrix)


# ---------------------------------------------------------------------------
# on-disk fixtures for the command-line pipeline
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return repr(float(x))


def write_embedding_csv(path, cells: CellFeatureSet, pad_to: int | None = None) -> None:
    """Write a feature set as an embedding table, optionally zero-padded wider."""
    width = pad_to if pad_to is not None else cells.dim
    if width < cells.dim:
        raise ValueError(f"cannot pad {cells.dim}-dim vectors down to {width}")
    padding = [_fmt(0.0)] * (width - cells.dim)
    header = ["cell_line_id", *(f"e{i}" for i in range(width))]
    body = ([cid, *map(_fmt, vec), *padding] for cid, vec in zip(cells.ids, cells.matrix))
    write_rows(path, chain([header], body))


def write_response_csv(path, records: list[ResponseRecord]) -> None:
    header = ["drug_id", "cell_line_id", "ic50", "cancer_type"]
    body = ([r.drug_id, r.cell_line_id, _fmt(r.ic50), r.cancer_type or ""] for r in records)
    write_rows(path, chain([header], body))


def write_benchmark_files(bench: SyntheticBenchmark, outdir,
                          embedding_width: int | None = None) -> dict[str, Path]:
    """Materialize a benchmark as the text tables the pipeline ingests.

    The expression matrix holds integer pseudo-counts derived from the cell
    vectors, and the canonical gene list carries two genes absent from the
    matrix so zero-padding is exercised.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    drug_dir = outdir / "drugs"
    drug_dir.mkdir(exist_ok=True)

    entries = {}
    for drug_id, graph in bench.graphs.items():
        names = (f"{drug_id}.features.csv", f"{drug_id}.adjacency.csv", f"{drug_id}.degrees.csv")
        save_graph(graph, *(drug_dir / n for n in names))
        entries[drug_id] = tuple(f"drugs/{n}" for n in names)
    manifest = outdir / "drug_manifest.csv"
    write_drug_manifest(manifest, entries)

    embeddings = outdir / "embeddings.csv"
    write_embedding_csv(embeddings, bench.cells, pad_to=embedding_width)

    responses = outdir / "responses.csv"
    write_response_csv(responses, bench.records)

    genes = [f"g{i:04d}" for i in range(bench.cells.dim)]
    expression = outdir / "expression.csv"
    counts = ([cid, *np.rint(np.abs(vec) * 100).astype(int).tolist()]
              for cid, vec in zip(bench.cells.ids, bench.cells.matrix))
    write_rows(expression, chain([["cell_line_id", *genes]], counts))
    gene_list = outdir / "gene_list.txt"
    write_rows(gene_list, ([gene] for gene in genes + ["g_absent_a", "g_absent_b"]))

    return {
        "drug_manifest": manifest,
        "embeddings": embeddings,
        "responses": responses,
        "expression": expression,
        "gene_list": gene_list,
    }
