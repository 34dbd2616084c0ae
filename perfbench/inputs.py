"""Seeded input generation for the benchmark workloads.

Every table the program reads is written here, in its own process and before
any clock starts: ``synthetic.make_benchmark`` and its CSV writers, plus a
wide count-expression table for ``raw_lodo`` and a checkpoint for
``screen_eval``. The same seed gives byte-identical inputs.

Run as ``python -m perfbench.inputs --workload W --size S --seed N --out DIR``;
it writes the tables, ``run.ini`` and ``inputs.json`` (the input properties
the later optimisations depend on) into DIR.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from cdrpipe.model import ModelConfig, init_params, save_checkpoint
from cdrpipe.seeding import derive_seed
from cdrpipe.synthetic import make_benchmark, noisy_projection_set, write_benchmark_files

EMBEDDING_DIM = 512        # scGPT width; the embedding table is the label-side signal
TRAIN_BATCH = 32           # cdrpipe's default training batch
EVAL_BATCH = 256           # predict_records' batch
ABSENT_GENES = 2           # canonical genes missing from the expression table

# The shapes are each workload's identity; "smoke" is a seconds-long version
# of the same code path for the harness's own tests.
SIZES = {
    "paper_train": {
        "full": dict(n_cells=500, n_drugs=30, atom_range=(5, 30), n_records=4000,
                     n_max_atoms=100, epochs=2),
        "smoke": dict(n_cells=60, n_drugs=6, atom_range=(5, 30), n_records=360,
                      n_max_atoms=100, epochs=4),
    },
    "raw_lodo": {
        "full": dict(n_cells=1000, n_genes=5000, n_drugs=20, atom_range=(4, 12),
                     n_records=4000, n_max_atoms=12, epochs=2),
        "smoke": dict(n_cells=100, n_genes=300, n_drugs=6, atom_range=(4, 12),
                      n_records=300, n_max_atoms=12, epochs=1),
    },
    "screen_eval": {
        "full": dict(n_cells=1000, n_drugs=200, atom_range=(5, 60), n_records=14000,
                     n_max_atoms=100),
        "smoke": dict(n_cells=100, n_drugs=20, atom_range=(5, 60), n_records=600,
                      n_max_atoms=100),
    },
}

CONFIG_TEMPLATE = """\
[paths]
drug_manifest = drug_manifest.csv
embeddings_scgpt = embeddings.csv
responses = responses.csv
expression = expression.csv
gene_list = gene_list.txt
output_dir = out

[run]
seed = {seed}
feature_source = scgpt

[model]
gcn_layer_dims = 256,128
cell_branch_dims = 128
head_dims = 128,1
n_max_atoms = {n_max_atoms}

[train]
epochs = {epochs}
batch_size = {batch}

[split]
test_fraction = 0.05

[lodo]
n_drugs = 1
variants = scgpt
baseline = raw
"""


def write_expression(path: Path, cells, gene_ids: list[str]) -> None:
    """Integer pseudo-counts, the same encoding ``write_benchmark_files`` uses."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("cell_line_id," + ",".join(gene_ids) + "\n")
        for cid, vec in cells.vectors.items():
            counts = np.rint(np.abs(vec) * 100).astype(np.int64)
            fh.write(cid + "," + ",".join(map(str, counts.tolist())) + "\n")


def write_checkpoint(path: Path, n_max_atoms: int, seed: int) -> None:
    """Seeded parameters with non-trivial batch-norm statistics, so an
    eval-mode forward that skipped or misapplied them would show."""
    cfg = ModelConfig(cell_input_dim=EMBEDDING_DIM, n_max_atoms=n_max_atoms)
    params = init_params(cfg, derive_seed(seed, "checkpoint"))
    rng = np.random.default_rng(derive_seed(seed, "checkpoint-norm"))
    for layer in (*params.cell, *params.head):
        if layer.norm is not None:
            dim = layer.norm.running_mean.shape[0]
            layer.norm.gamma.data[...] = rng.uniform(0.5, 1.5, size=(1, dim))
            layer.norm.beta.data[...] = rng.normal(0.0, 0.2, size=(1, dim))
            layer.norm.running_mean = rng.normal(0.0, 0.3, size=dim)
            layer.norm.running_var = rng.uniform(1.0, 2.0, size=dim)
    save_checkpoint(path, cfg, params)


def param_count(cell_dim: int, n_max_atoms: int) -> int:
    cfg = ModelConfig(cell_input_dim=cell_dim, n_max_atoms=n_max_atoms)
    return sum(p.data.size for p in init_params(cfg, 0).parameters())


def mean_distinct_per_batch(drug_ids: list[str], batch: int) -> float:
    counts = [len(set(drug_ids[i:i + batch])) for i in range(0, len(drug_ids), batch)]
    return float(np.mean(counts))


def generate(workload: str, size: str, seed: int, out: Path) -> dict:
    """Write every input of one workload into ``out``; return its properties."""
    spec = SIZES[workload][size]
    out.mkdir(parents=True, exist_ok=True)
    master = derive_seed(seed, workload)
    bench = make_benchmark(n_cells=spec["n_cells"], cell_dim=EMBEDDING_DIM,
                           n_drugs=spec["n_drugs"], atom_range=spec["atom_range"],
                           n_records=spec["n_records"], seed=master)
    write_benchmark_files(bench, out)
    n_max = spec["n_max_atoms"]
    widths = {"scgpt": EMBEDDING_DIM}
    if workload == "raw_lodo":
        raw = noisy_projection_set(bench.cells, out_dim=spec["n_genes"],
                                   seed=derive_seed(master, "raw-projection"))
        genes = [f"g{i:05d}" for i in range(spec["n_genes"])]
        write_expression(out / "expression.csv", raw, genes)
        absent = [f"g_absent_{i}" for i in range(ABSENT_GENES)]
        (out / "gene_list.txt").write_text("\n".join(genes + absent) + "\n", encoding="utf-8")
        widths["raw_expression"] = spec["n_genes"] + ABSENT_GENES
    if workload == "screen_eval":
        write_checkpoint(out / "model.ckpt", n_max, master)
    (out / "run.ini").write_text(CONFIG_TEMPLATE.format(
        seed=seed, n_max_atoms=n_max, epochs=spec.get("epochs", 1), batch=TRAIN_BATCH),
        encoding="utf-8")

    atoms = np.array([g.n_atoms for g in bench.graphs.values()])
    bonds = sum(len(g.adjacency) for g in bench.graphs.values())
    drug_ids = [r.drug_id for r in bench.records]
    if workload == "screen_eval":
        batch, order = EVAL_BATCH, drug_ids  # eval scores records in file order
    else:
        batch = TRAIN_BATCH
        perm = np.random.default_rng(derive_seed(master, "batch-sample")).permutation(len(drug_ids))
        order = [drug_ids[i] for i in perm]
    q = np.percentile(atoms, [0, 25, 50, 75, 100])
    return {
        "workload": workload,
        "size": size,
        "seed": seed,
        "drugs": len(bench.graphs),
        "cells": len(bench.cells.vectors),
        "records": len(bench.records),
        "atoms_min_q1_median_q3_max": [float(v) for v in q],
        "atoms_mean": float(atoms.mean()),
        "n_max_atoms": n_max,
        "pad_fill_ratio": float(atoms.sum() / (len(atoms) * n_max)),
        "bonds_per_atom": float(bonds / atoms.sum()),
        "batch_size": batch,
        "distinct_drugs_per_batch": mean_distinct_per_batch(order, batch),
        "cell_input_width": widths,
        "param_count": {src: param_count(w, n_max) for src, w in widths.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    props = generate(args.workload, args.size, args.seed, out)
    (out / "inputs.json").write_text(json.dumps(props, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
