"""Comparing cell-feature sources: informative embeddings vs a degraded view.

Trains the same architecture on two versions of the cell features (the
signal-carrying vectors, and a noisy random projection of them), scores
both per drug, ranks the gains the way the leave-one-drug-out figures do,
and prints a stability table of the two validation trajectories.
"""

from pathlib import Path

from cdrpipe import (ModelConfig, PredictionRow, ResponseDataset, SplitSpec,
                     TrainConfig, grouped_pcc, predict_records, ranked_gains,
                     split_dataset, stability_report, train)
from cdrpipe.evaluation import write_lodo_gains_csv, write_stability_csv
from cdrpipe.synthetic import make_benchmark, noisy_projection_set

out = Path("demo_output")
out.mkdir(exist_ok=True)

bench = make_benchmark(n_cells=600, cell_dim=32, n_drugs=12, atom_range=(4, 12),
                       n_records=1500, noise_std=0.1, seed=9)
degraded = noisy_projection_set(bench.cells, out_dim=128, noise_std=2.0, seed=10)

per_drug = {}
histories = {}
for name, cells in (("embedding", bench.cells), ("degraded", degraded)):
    dataset = ResponseDataset(bench.records, bench.padded, cells)
    train_records, test_records = split_dataset(dataset.records,
                                                SplitSpec(test_fraction=0.1, seed=1))
    cfg = ModelConfig(gcn_layer_dims=(32, 16), cell_branch_dims=(16,), head_dims=(16, 1),
                      cell_input_dim=cells.dim, n_max_atoms=bench.n_max_atoms)
    params, history = train(dataset.subset(train_records), dataset.subset(test_records),
                            cfg, TrainConfig(epochs=10, batch_size=32, seed=1))
    histories[name] = history
    test_set = dataset.subset(test_records)
    preds = predict_records(params, cfg, test_set)
    rows = [PredictionRow(r.drug_id, r.cell_line_id, float(p), r.ic50)
            for r, p in zip(test_set.records, preds)]
    per_drug[name] = {d: s.pcc for d, s in grouped_pcc(rows, "drug").items()
                      if s.pcc is not None}
    print(f"{name}: final val pcc {history[-1].val_pcc:.3f}")

# Rank per-drug gains of the embedding model over the degraded baseline.
shared = sorted(set(per_drug["embedding"]) & set(per_drug["degraded"]))
gains = ranked_gains({"embedding": {d: per_drug["embedding"][d] for d in shared}},
                     {d: per_drug["degraded"][d] for d in shared})
wins = sum(row.gains["embedding"] > 0 for row in gains)
print(f"embedding model ahead on {wins}/{len(gains)} drugs")
for row in gains:
    print(f"  rank {row.rank:2d}  {row.drug_id}  gain {row.gains['embedding']:+.3f}")
write_lodo_gains_csv(out / "gains.csv", ["embedding"], gains)

# Per-epoch stability comparison of the two runs.
report = stability_report(histories)
for name, summary in sorted(report.summary.items()):
    print(f"{name}: max pcc {summary.max_pcc:.3f}, final {summary.final_pcc:.3f}, "
          f"fluctuation {summary.fluctuation:.4f}")
write_stability_csv(out / "stability.csv", report)
print(f"tables written to {out}/")
