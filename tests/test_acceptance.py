"""Acceptance suite: one test per release criterion, each printing a
[PASS] line with its measured figure when it holds.

Criterion 8 needs the real expression/response/embedding tables and is
skipped unless the CDRPIPE_REAL_DATA environment variable points at a
directory containing expression.csv, gene_list.txt, embeddings_scgpt.csv,
drug_manifest.csv, and responses.csv.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from cdrpipe import autodiff as ad
from cdrpipe import evaluation as ev
from cdrpipe import omics
from cdrpipe import training as tr
from cdrpipe.model import ModelConfig, init_params, forward_batch, predict_records
from cdrpipe.molgraph import pad_graph
from cdrpipe.omics import ResponseDataset
from cdrpipe.synthetic import make_benchmark, noisy_projection_set, random_graph
from oracles import (finite_diff_params, graph_conv_point, pearson_bruteforce,
                     random_padded_graph, reference_forward, sum_all)

GRAD_TOL = 1e-4
N_GRAD_SEEDS = 20


def report_pass(number, text):
    print(f"\n[PASS] criterion {number}: {text}")


# ---------------------------------------------------------------------------
# criterion 1 — gradient correctness
# ---------------------------------------------------------------------------

def _check_single_ops(seed):
    """Every differentiable operation against the central-difference oracle,
    at random inputs bounded away from relu kinks and pool ties."""
    rng = np.random.default_rng(seed)
    worst = 0.0

    def away_from_zero(shape):
        return np.sign(rng.normal(size=shape)) * rng.uniform(0.2, 1.5, size=shape)

    b = ad.Tensor(rng.normal(size=(3, 4)))
    worst = max(worst, ad.finite_diff_check(
        lambda t, x: sum_all(t, ad.matmul(t, x, b)), ad.Tensor(rng.normal(size=(5, 3)))))
    a = ad.Tensor(rng.normal(size=(5, 3)))
    worst = max(worst, ad.finite_diff_check(
        lambda t, x: sum_all(t, ad.matmul(t, a, x)), ad.Tensor(rng.normal(size=(3, 4)))))
    worst = max(worst, ad.finite_diff_check(
        lambda t, x: sum_all(t, ad.add(t, x, b)), ad.Tensor(rng.normal(size=(3, 4)))))
    bias = ad.Tensor(rng.normal(size=(1, 4)))
    worst = max(worst, ad.finite_diff_check(
        lambda t, x: sum_all(t, ad.add(t, x, bias)), ad.Tensor(rng.normal(size=(3, 4)))))

    u = ad.Tensor(rng.normal(size=(1, 3)))
    w = ad.Tensor(rng.normal(size=(4, 1)))
    worst = max(worst, ad.finite_diff_check(
        lambda t, x: ad.matmul(t, ad.matmul(t, u, ad.relu(t, x)), w),
        ad.Tensor(away_from_zero((3, 4)))))
    worst = max(worst, ad.finite_diff_check(
        lambda t, x: ad.matmul(t, ad.matmul(t, u, ad.gather_rows(t, x, [1, 0, 1])), w),
        ad.Tensor(rng.normal(size=(2, 4)))))

    ones = ad.Tensor(np.ones((1, 2)))
    worst = max(worst, ad.finite_diff_check(
        lambda t, x: ad.matmul(t, ad.matmul(t, ones, ad.row_slice(t, x, 1, 3)), w),
        ad.Tensor(rng.normal(size=(4, 4)))))

    pool_in = rng.permutation(np.linspace(-2, 2, 20)).reshape(4, 5)  # distinct values
    w_pool = ad.Tensor(rng.normal(size=(5, 1)))
    u2 = ad.Tensor(rng.normal(size=(1, 2)))
    worst = max(worst, ad.finite_diff_check(
        lambda t, x: ad.matmul(t, ad.matmul(t, u2, ad.segment_max(t, x, [3, 1])), w_pool),
        ad.Tensor(pool_in)))

    for mode in ("train", "eval"):
        st = ad.BatchNormState(3)
        st.gamma.data[:] = rng.normal(size=(1, 3))
        st.beta.data[:] = rng.normal(size=(1, 3))
        st.running_mean[:] = rng.normal(size=3)
        st.running_var[:] = rng.uniform(0.5, 2.0, size=3)
        bn_target = ad.Tensor(rng.normal(size=(4, 3)))
        worst = max(worst, ad.finite_diff_check(
            lambda t, x, mode=mode: ad.loss(t, ad.batch_norm(t, x, st, mode), bn_target),
            ad.Tensor(rng.normal(size=(4, 3)))))

    drop_seed = int(rng.integers(1 << 30))
    w4 = ad.Tensor(rng.normal(size=(4, 1)))
    u3 = ad.Tensor(rng.normal(size=(1, 3)))
    worst = max(worst, ad.finite_diff_check(
        lambda t, x: ad.matmul(t, ad.matmul(t, u3, ad.dropout(
            t, x, 0.4, "train", np.random.default_rng(drop_seed))), w4),
        ad.Tensor(away_from_zero((3, 4)))))

    target = ad.Tensor(rng.normal(size=(4, 1)))
    worst = max(worst, ad.finite_diff_check(
        lambda t, x: ad.loss(t, x, target), ad.Tensor(rng.normal(size=(4, 1)))))

    u5 = ad.Tensor(rng.normal(size=(1, 5)))
    conv_blocks = [rng.normal(size=(2, 2)), rng.normal(size=(3, 3))]
    for blk in (None, conv_blocks):
        x0, w0, b0 = graph_conv_point(rng, 5, 3, 4, blk)
        for i in range(3):
            def f(t, v, i=i, blk=blk):
                args = [v if j == i else ad.Tensor(a) for j, a in enumerate((x0, w0, b0))]
                return ad.matmul(t, ad.matmul(t, u5, ad.graph_conv(t, *args, blk)), w)
            worst = max(worst, ad.finite_diff_check(f, ad.Tensor((x0, w0, b0)[i])))
    return worst


def _check_full_model(seed):
    """Full network on a 3-sample batch, dropout off, batch norm training.

    Central differences with step 1e-5 are undefined near relu kinks and
    max-pool ties, so setups are rerolled (deterministically, by seed
    offset) until every relu input and live pool gap clears a 1e-4 margin.
    Biases are re-drawn at least 0.05 away from zero because the zero
    initialization parks atoms with vanishing aggregated input exactly on
    the kink. The plain-numpy reference forward also cross-checks the
    engine's forward pass while supplying those margins.
    """
    cfg = ModelConfig(gcn_layer_dims=(8, 6), cell_branch_dims=(5,), head_dims=(7, 1),
                      dropout_rate=0.0, n_max_atoms=5, cell_input_dim=4, atom_input_dim=6)
    for attempt in range(8):
        rng = np.random.default_rng(seed + 100_000 * attempt)
        params = init_params(cfg, seed=seed + 100_000 * attempt)
        for layer in (*params.gcn, *params.cell, *params.head):
            b = layer.bias.data
            b[:] = np.sign(rng.normal(size=b.shape)) * rng.uniform(0.05, 0.2, size=b.shape)
        g1 = random_padded_graph(rng, 3, 5, 6)
        g2 = random_padded_graph(rng, 4, 5, 6)
        graphs = [g1, g2, g1]
        cells = rng.normal(size=(3, 4))
        target = ad.Tensor(rng.normal(size=(3, 1)))
        reference, margin = reference_forward(graphs, cells, params, cfg)
        if margin >= 1e-4:
            break
    else:
        raise AssertionError(f"no kink-free configuration found for seed {seed}")

    def loss_value():
        tape = ad.Tape()
        pred = forward_batch(tape, graphs, cells, params, cfg, "train")
        return float(ad.loss(tape, pred, target).data[0, 0])

    tape = ad.Tape()
    pred = forward_batch(tape, graphs, cells, params, cfg, "train")
    np.testing.assert_allclose(pred.data, reference, atol=1e-12)
    grads = ad.backward(tape, ad.loss(tape, pred, target), params.parameters())
    return finite_diff_params(loss_value, params.parameters(), grads)


def test_criterion_1_gradient_correctness():
    """Autodiff matches central differences (eps=1e-5) with max relative
    error < 1e-4 over >= 20 seeds, in under 30 s. Coordinates whose true
    gradient is exactly zero (bias feeding batch norm, relu columns dead
    across the batch) are compared absolutely at 1e-9, because there the
    central difference measures only floating-point noise (~1e-11), which
    the 1e-8-floored relative formula would misread as disagreement."""
    start = time.monotonic()
    worst_op = 0.0
    worst_model = 0.0
    worst_zero = 0.0
    for seed in range(N_GRAD_SEEDS):
        worst_op = max(worst_op, _check_single_ops(seed))
        rel, zero = _check_full_model(seed)
        worst_model = max(worst_model, rel)
        worst_zero = max(worst_zero, zero)
    elapsed = time.monotonic() - start
    assert worst_op < GRAD_TOL
    assert worst_model < GRAD_TOL
    assert worst_zero < 1e-9
    assert elapsed < 30.0
    report_pass(1, f"max rel err {max(worst_op, worst_model):.2e} (ops/model), "
                   f"zero-coordinate gap {worst_zero:.1e}, "
                   f"{N_GRAD_SEEDS} seeds in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 2 — Pearson oracle equivalence
# ---------------------------------------------------------------------------

def test_criterion_2_pearson_matches_bruteforce():
    rng = np.random.default_rng(2024)
    lengths = np.concatenate([
        rng.integers(2, 200, size=800),
        rng.integers(200, 2000, size=195),
        np.full(4, 10_000),
        [2],
    ])
    assert len(lengths) == 1000
    worst = 0.0
    for n in lengths:
        x = rng.normal(size=int(n))
        slope = rng.uniform(-2.0, 2.0)
        y = slope * x + rng.normal(size=int(n)) * rng.uniform(0.0, 3.0)
        got = ev.pearson(x, y)
        want = pearson_bruteforce(x, y)
        if want is None:
            assert got is None
            continue
        worst = max(worst, abs(got - want))
    assert worst < 1e-12
    assert abs(ev.pearson([1, 2, 3, 4], [1, 3, 2, 4]) - 0.8) < 1e-12
    assert ev.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
    report_pass(2, f"1000 random pairs, worst |impl - oracle| = {worst:.2e}, "
                   f"hand case [1,2,3,4]~[1,3,2,4] = 0.8")


# ---------------------------------------------------------------------------
# criterion 3 — synthetic end-to-end convergence
# ---------------------------------------------------------------------------

def test_criterion_3_synthetic_convergence():
    """500 cells x 64 dims, 30 drugs of 5-30 atoms, linear labels with
    sigma=0.1 noise; default model and training configs, 20 epochs."""
    start = time.monotonic()
    bench = make_benchmark(n_cells=500, cell_dim=64, n_drugs=30, atom_range=(5, 30),
                           n_records=4000, noise_std=0.1, seed=42)
    dataset = ResponseDataset(bench.records, bench.padded, bench.cells)
    train_recs, test_recs = tr.split_dataset(dataset.records, tr.SplitSpec(seed=1))
    cfg = ModelConfig(cell_input_dim=64, n_max_atoms=bench.n_max_atoms)
    params, history = tr.train(dataset.subset(train_recs), dataset.subset(test_recs),
                               cfg, tr.TrainConfig(seed=0))
    test_set = dataset.subset(test_recs)
    test_pcc = ev.pearson(predict_records(params, cfg, test_set), test_set.labels())
    elapsed = time.monotonic() - start
    assert len(history) == 20
    assert test_pcc >= 0.9
    assert elapsed < 300.0
    report_pass(3, f"test PCC {test_pcc:.3f} after 20 epochs in {elapsed:.0f}s "
                   f"({len(train_recs)} train / {len(test_recs)} test records)")


# ---------------------------------------------------------------------------
# criterion 4 — embedding advantage over a degraded raw branch
# ---------------------------------------------------------------------------

def test_criterion_4_embedding_advantage():
    """The signal lives in 64-dim cell vectors; the raw branch sees a noisy
    256-dim projection. With most test-record cells effectively unseen
    (1500 cells, 2500 records), the embedding-fed model must win the
    per-drug PCC comparison for >= 80% of drugs over 5 seeds."""
    wins = comparisons = 0
    for seed in range(5):
        bench = make_benchmark(n_cells=1500, cell_dim=64, n_drugs=20, atom_range=(4, 12),
                               n_records=2500, noise_std=0.1, seed=100 + seed)
        raw_cells = noisy_projection_set(bench.cells, out_dim=256, noise_std=2.0,
                                         seed=200 + seed)
        per_drug = {}
        for name, cells in (("embedding", bench.cells), ("raw", raw_cells)):
            ds = ResponseDataset(bench.records, bench.padded, cells)
            train_recs, test_recs = tr.split_dataset(
                ds.records, tr.SplitSpec(test_fraction=0.1, train_cap=None, seed=seed))
            cfg = ModelConfig(gcn_layer_dims=(32, 16), cell_branch_dims=(16,),
                              head_dims=(16, 1), cell_input_dim=cells.dim,
                              n_max_atoms=bench.n_max_atoms)
            params, _ = tr.train(ds.subset(train_recs), ds.subset(test_recs), cfg,
                                 tr.TrainConfig(epochs=15, batch_size=32, seed=seed))
            test_set = ds.subset(test_recs)
            preds = predict_records(params, cfg, test_set)
            rows = [ev.PredictionRow(r.drug_id, r.cell_line_id, float(p), r.ic50)
                    for r, p in zip(test_set.records, preds)]
            per_drug[name] = ev.grouped_pcc(rows, "drug")
        for drug, stat in per_drug["embedding"].items():
            other = per_drug["raw"].get(drug)
            if stat.pcc is None or other is None or other.pcc is None:
                continue
            comparisons += 1
            wins += stat.pcc > other.pcc
    fraction = wins / comparisons
    assert fraction >= 0.8
    report_pass(4, f"embedding model wins {wins}/{comparisons} per-drug comparisons "
                   f"({fraction:.0%}) across 5 seeds")


# ---------------------------------------------------------------------------
# criterion 5 — split contracts over 10,000 randomized trials
# ---------------------------------------------------------------------------

class _R:
    __slots__ = ("drug_id",)

    def __init__(self, drug_id):
        self.drug_id = drug_id


def test_criterion_5_split_contracts():
    rng = np.random.default_rng(7)
    trials = 0

    # exact 95/5 sizing from the protocol
    train, test = tr.split_dataset(list(range(100)), tr.SplitSpec(seed=0, train_cap=None))
    assert len(train) == 95 and len(test) == 5
    trials += 1

    # the literal 90,000 slice cap on a larger-than-cap dataset
    big = list(range(120_000))
    spec = tr.SplitSpec(seed=11)
    uncapped, utest = tr.split_dataset(big, tr.SplitSpec(seed=11, train_cap=None))
    capped, ctest = tr.split_dataset(big, spec)
    assert len(capped) == 90_000 and capped == uncapped[:90_000] and ctest == utest
    trials += 1

    for _ in range(8400):
        n = int(rng.integers(40, 300))
        frac = float(rng.choice([0.05, 0.1, 0.25, 0.5]))
        seed = int(rng.integers(1 << 31))
        cap = None if rng.random() < 0.5 else int(rng.integers(1, n))
        mode = "slice" if rng.random() < 0.5 else "random"
        spec = tr.SplitSpec(test_fraction=frac, train_cap=cap, cap_mode=mode, seed=seed)
        records = list(range(n))
        train, test = tr.split_dataset(records, spec)
        again = tr.split_dataset(records, spec)
        assert (train, test) == again  # bit-exact reproduction per seed
        n_train_full = math.ceil((1.0 - frac) * n)
        assert len(test) == n - n_train_full
        assert set(train).isdisjoint(test)
        if cap is None:
            assert len(train) == n_train_full
            assert sorted(train + test) == records  # exact partition
        else:
            assert len(train) == min(cap, n_train_full)
            full_train, _ = tr.split_dataset(
                records, tr.SplitSpec(test_fraction=frac, train_cap=None, seed=seed))
            if mode == "slice":
                assert train == full_train[:cap]
            else:
                positions = [full_train.index(r) for r in train]
                assert positions == sorted(positions)
        trials += 1

    for _ in range(1600):
        n_drugs_total = int(rng.integers(2, 12))
        records = [_R(f"D{rng.integers(0, n_drugs_total)}") for _ in range(60)]
        distinct = len({r.drug_id for r in records})
        k = int(rng.integers(1, distinct + 1))
        seed = int(rng.integers(1 << 31))
        folds = tr.lodo_splits(records, k, seed)
        assert [d for d, _, _ in folds] == [d for d, _, _ in tr.lodo_splits(records, k, seed)]
        assert len(folds) == k
        for drug, fold_train, fold_test in folds:
            assert {r.drug_id for r in fold_test} == {drug}
            assert drug not in {r.drug_id for r in fold_train}
            assert len(fold_train) + len(fold_test) == len(records)
        trials += 1

    assert trials >= 10_000
    report_pass(5, f"{trials} randomized split/fold trials, all contracts hold")


# ---------------------------------------------------------------------------
# criterion 6 — invariance suite
# ---------------------------------------------------------------------------

def test_criterion_6_invariances():
    from test_model import permute_graph  # atom relabeling helper

    cfg_small = ModelConfig(gcn_layer_dims=(16, 8), cell_branch_dims=(4,), head_dims=(1,),
                            n_max_atoms=20, cell_input_dim=4)
    cfg_large = ModelConfig(gcn_layer_dims=(16, 8), cell_branch_dims=(4,), head_dims=(1,),
                            n_max_atoms=37, cell_input_dim=4)
    worst_perm = 0.0
    worst_pad = 0.0
    graphs = []
    rng = np.random.default_rng(0)
    for i in range(100):
        g = random_graph(rng, f"d{i}", int(rng.integers(2, 16)))
        params = init_params(cfg_small, seed=i)
        base = forward_batch(ad.Tape(), [pad_graph(g, 20)],
                             np.zeros((1, 4)), params, cfg_small, "eval")
        permuted = permute_graph(g, rng.permutation(g.n_atoms))
        out_perm = forward_batch(ad.Tape(), [pad_graph(permuted, 20)],
                                 np.zeros((1, 4)), params, cfg_small, "eval")
        out_pad = forward_batch(ad.Tape(), [pad_graph(g, 37)],
                                np.zeros((1, 4)), params, cfg_large, "eval")
        worst_perm = max(worst_perm, float(np.max(np.abs(base.data - out_perm.data))))
        worst_pad = max(worst_pad, float(np.max(np.abs(base.data - out_pad.data))))
        graphs.append(pad_graph(g, 20))
    assert worst_perm < 1e-10
    assert worst_pad < 1e-10

    # all 100 graphs packed in one batch (some repeated) against the padded,
    # masked reference forward
    cfg_packed = ModelConfig(gcn_layer_dims=(16, 8), cell_branch_dims=(4,), head_dims=(6, 1),
                             dropout_rate=0.0, n_max_atoms=20, cell_input_dim=4)
    batch = graphs + graphs[:20]
    cells = rng.normal(size=(len(batch), 4))
    params = init_params(cfg_packed, seed=100)
    packed = forward_batch(ad.Tape(), batch, cells, params, cfg_packed, "train")
    reference, _ = reference_forward(batch, cells, params, cfg_packed)
    worst_packed = float(np.max(np.abs(packed.data - reference)))
    assert worst_packed < 1e-10

    counts = rng.integers(0, 10_000, size=300).astype(float)
    counts[0] = 3.0
    genes = [f"g{j}" for j in range(300)]

    def cpm_log1p(values):
        profile = omics.ExpressionProfile("c", values, genes)
        return omics.expression_feature_set([profile], genes).vectors["c"]

    for k in (2.0, 10.0, 1000.0):
        assert np.array_equal(cpm_log1p(k * counts), cpm_log1p(counts))
    report_pass(6, f"100 graphs: permutation gap {worst_perm:.1e}, padding gap "
                   f"{worst_pad:.1e}, packed-vs-padded gap {worst_packed:.1e}; "
                   f"CPM-log1p features exactly scale-invariant for k in 2,10,1000")


# ---------------------------------------------------------------------------
# criterion 7 — stability tooling
# ---------------------------------------------------------------------------

def test_criterion_7_stability_tooling(tmp_path):
    bench = make_benchmark(n_cells=24, cell_dim=6, n_drugs=4, atom_range=(3, 6),
                           n_records=70, noise_std=0.05, seed=11)
    dataset = ResponseDataset(bench.records, bench.padded, bench.cells)
    cfg = ModelConfig(gcn_layer_dims=(12, 8), cell_branch_dims=(8,), head_dims=(8, 1),
                      n_max_atoms=bench.n_max_atoms, cell_input_dim=6)
    train_set = dataset.subset(dataset.records[:50])
    val_set = dataset.subset(dataset.records[50:])

    _, full = tr.train(train_set, val_set, cfg, tr.TrainConfig(epochs=5, batch_size=16, seed=0))
    assert [r.epoch for r in full] == [1, 2, 3, 4, 5]  # every epoch recorded

    noisy = make_benchmark(n_cells=24, cell_dim=6, n_drugs=4, atom_range=(3, 6),
                           n_records=70, noise_std=3.0, seed=13)
    nds = ResponseDataset(noisy.records, noisy.padded, noisy.cells)
    _, short = tr.train(nds.subset(nds.records[:50]), nds.subset(nds.records[50:]),
                        cfg, tr.TrainConfig(epochs=20, batch_size=16, seed=2,
                                            early_stop_patience=2))
    assert len(short) < 20  # early stop produced a shorter history

    report = ev.stability_report({"full": full, "short": short})
    assert len(short) != len(full)
    shorter, longer = sorted(
        ("full", "short"),
        key=lambda k: sum(v is not None for v in report.table[k].values()))
    assert report.table[shorter][report.epochs[-1]] is None
    assert report.table[longer][report.epochs[-1]] is not None
    path = tmp_path / "stability.csv"
    ev.write_stability_csv(path, report)
    text = path.read_text()
    assert ev.STOPPED_MARKER in text  # explicit markers, not fabricated values

    constant = [tr.EpochRecord(epoch=i + 1, train_loss=1.0, val_pcc=0.5) for i in range(6)]
    assert ev.stability_report({"m": constant}).summary["m"].fluctuation == 0.0
    report_pass(7, f"histories recorded per epoch; early stop at {len(short)}/20 with "
                   f"explicit '{ev.STOPPED_MARKER}' markers; constant-history fluctuation 0")


# ---------------------------------------------------------------------------
# criterion 8 — conditional real-data reproduction
# ---------------------------------------------------------------------------

REAL_DATA = os.environ.get("CDRPIPE_REAL_DATA", "")


@pytest.mark.skipif(not REAL_DATA, reason="CDRPIPE_REAL_DATA not set; real CCLE/GDSC "
                                          "tables and scGPT embeddings not available")
def test_criterion_8_real_data_trajectory():
    """With the real 697-gene expression matrix, GDSC responses, and 512-dim
    embeddings present, the validation-PCC trajectory must start near 0.80
    and exceed 0.90 by epoch 20 (tolerance 0.05 at both checkpoints)."""
    from cdrpipe.molgraph import load_drug_manifest
    from cdrpipe.seeding import derive_seed

    root = Path(REAL_DATA)
    graphs = load_drug_manifest(root / "drug_manifest.csv")
    padded = {d: pad_graph(g, 100) for d, g in graphs.items()}
    cells = omics.load_embeddings(root / "embeddings_scgpt.csv", "scgpt")
    responses = omics.load_responses(root / "responses.csv")
    dataset, _ = omics.join_dataset(responses, padded, cells)

    train_recs, test_recs = tr.split_dataset(
        dataset.records, tr.SplitSpec(seed=derive_seed(0, "split")))
    cfg = ModelConfig(cell_input_dim=cells.dim)
    _, history = tr.train(dataset.subset(train_recs), dataset.subset(test_recs),
                          cfg, tr.TrainConfig(seed=derive_seed(0, "train")))
    first = history[0].val_pcc
    peak = max(r.val_pcc for r in history if r.val_pcc is not None)
    assert first == pytest.approx(0.80, abs=0.05)
    assert peak >= 0.90 - 0.05
    report_pass(8, f"real-data trajectory: epoch 1 PCC {first:.3f}, peak {peak:.3f}")
