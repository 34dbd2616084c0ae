"""Split contracts and the training loop."""

import math
import platform
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdrpipe import training as tr
from cdrpipe.evaluation import pearson
from cdrpipe.model import ModelConfig, predict_records
from cdrpipe.omics import ResponseDataset
from cdrpipe.synthetic import make_benchmark


@dataclass(frozen=True, order=True)
class Rec:
    drug_id: str
    item: int = 0


def small_bench(**kw):
    defaults = dict(n_cells=24, cell_dim=6, n_drugs=4, atom_range=(3, 6),
                    n_records=70, noise_std=0.05, seed=11)
    defaults.update(kw)
    bench = make_benchmark(**defaults)
    return bench, ResponseDataset(bench.records, bench.padded, bench.cells)


def small_cfg(bench, **kw):
    defaults = dict(gcn_layer_dims=(12, 8), cell_branch_dims=(8,), head_dims=(8, 1),
                    dropout_rate=0.1, n_max_atoms=bench.n_max_atoms,
                    cell_input_dim=bench.cells.dim)
    defaults.update(kw)
    return ModelConfig(**defaults)


class TestSplitDataset:
    def test_95_5_sizing(self):
        records = list(range(100))
        train, test = tr.split_dataset(records, tr.SplitSpec(seed=3, train_cap=None))
        assert len(train) == 95 and len(test) == 5

    def test_exact_partition_without_cap(self):
        records = [Rec(f"D{i}") for i in range(57)]
        train, test = tr.split_dataset(records, tr.SplitSpec(test_fraction=0.2,
                                                             train_cap=None, seed=9))
        assert len(train) + len(test) == 57
        assert {id(r) for r in train}.isdisjoint({id(r) for r in test})
        assert {id(r) for r in train} | {id(r) for r in test} == {id(r) for r in records}

    def test_slice_cap_keeps_the_prefix(self):
        records = list(range(120))
        uncapped, test_u = tr.split_dataset(records, tr.SplitSpec(seed=5, train_cap=None))
        capped, test_c = tr.split_dataset(records, tr.SplitSpec(seed=5, train_cap=90))
        assert capped == uncapped[:90]
        assert test_c == test_u

    def test_random_cap_is_a_seeded_subset_in_order(self):
        records = list(range(200))
        uncapped, _ = tr.split_dataset(records, tr.SplitSpec(seed=7, train_cap=None))
        capped_a, _ = tr.split_dataset(records, tr.SplitSpec(seed=7, train_cap=50,
                                                             cap_mode="random"))
        capped_b, _ = tr.split_dataset(records, tr.SplitSpec(seed=7, train_cap=50,
                                                             cap_mode="random"))
        assert capped_a == capped_b
        assert len(capped_a) == 50
        positions = [uncapped.index(r) for r in capped_a]
        assert positions == sorted(positions)

    def test_same_seed_reproduces(self):
        records = list(range(40))
        spec = tr.SplitSpec(test_fraction=0.25, train_cap=None, seed=21)
        assert tr.split_dataset(records, spec) == tr.split_dataset(records, spec)

    def test_empty_side_is_an_error(self):
        with pytest.raises(tr.SplitError):
            tr.split_dataset(list(range(10)), tr.SplitSpec(test_fraction=0.05,
                                                           train_cap=None, seed=0))

    def test_too_few_records(self):
        with pytest.raises(tr.SplitError, match="1 records"):
            tr.split_dataset([1], tr.SplitSpec(seed=0))


class TestLodoSplits:
    def test_two_drug_toy(self):
        records = [Rec("A", 1), Rec("B", 2), Rec("A", 3)]
        folds = tr.lodo_splits(records, n_drugs=1, seed=0)
        assert len(folds) == 1
        drug, train, test = folds[0]
        assert {r.drug_id for r in test} == {drug}
        assert {r.drug_id for r in train} == {"A", "B"} - {drug}

    def test_folds_never_leak_the_held_out_drug(self):
        rng = np.random.default_rng(0)
        records = [Rec(f"D{rng.integers(0, 30)}", i) for i in range(300)]
        for drug, train, test in tr.lodo_splits(records, n_drugs=10, seed=4):
            assert all(r.drug_id == drug for r in test)
            assert all(r.drug_id != drug for r in train)
            assert len(train) + len(test) == 300

    def test_twenty_folds_from_223_drugs(self):
        records = [Rec(f"D{i:03d}") for i in range(223)]
        folds = tr.lodo_splits(records, n_drugs=20, seed=1)
        assert len(folds) == 20
        assert len({drug for drug, _, _ in folds}) == 20

    def test_seed_fixes_the_drug_sample(self):
        records = [Rec(f"D{i}") for i in range(30)]
        a = [d for d, _, _ in tr.lodo_splits(records, 5, seed=2)]
        b = [d for d, _, _ in tr.lodo_splits(records, 5, seed=2)]
        assert a == b

    def test_too_many_drugs_requested(self):
        with pytest.raises(tr.SplitError, match="asked for 3"):
            tr.lodo_splits([Rec("A"), Rec("B")], n_drugs=3, seed=0)


# derandomized so that every run of the suite draws the same examples
PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


class TestSplitProperties:
    @PROPERTY
    @given(n=st.integers(2, 300), fraction=st.floats(0.01, 0.99), seed=st.integers(0, 2**32 - 1),
           cap=st.integers(1, 300), cap_mode=st.sampled_from(tr.CAP_MODES))
    def test_split_dataset_contracts(self, n, fraction, seed, cap, cap_mode):
        records = [Rec("D", i) for i in range(n)]
        n_train = math.ceil((1.0 - fraction) * n)
        spec = tr.SplitSpec(test_fraction=fraction, train_cap=None, seed=seed)
        if not 0 < n_train < n:
            with pytest.raises(tr.SplitError, match="leaves one side empty"):
                tr.split_dataset(records, spec)
            return
        train, test = tr.split_dataset(records, spec)
        assert len(train) == n_train
        assert sorted(train + test) == records  # an exact partition
        assert tr.split_dataset(records, spec) == (train, test)

        capped, capped_test = tr.split_dataset(
            records, replace(spec, train_cap=cap, cap_mode=cap_mode))
        assert capped_test == test
        if cap_mode == "slice":
            assert capped == train[:cap]
        else:
            assert len(capped) == min(cap, n_train)
            position = {r: i for i, r in enumerate(train)}
            kept = [position[r] for r in capped]
            assert kept == sorted(set(kept))  # a subset, in the uncapped order

    @PROPERTY
    @given(drugs=st.lists(st.integers(0, 12), min_size=1, max_size=80),
           data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_lodo_splits_contracts(self, drugs, data, seed):
        records = [Rec(f"D{d}", i) for i, d in enumerate(drugs)]
        distinct = {r.drug_id for r in records}
        n_drugs = data.draw(st.integers(1, len(distinct)))
        folds = tr.lodo_splits(records, n_drugs, seed)
        held_out = [drug for drug, _, _ in folds]
        assert len(held_out) == n_drugs == len(set(held_out))
        assert set(held_out) <= distinct
        for drug, train, test in folds:
            assert test == [r for r in records if r.drug_id == drug]
            assert train == [r for r in records if r.drug_id != drug]
        assert [d for d, _, _ in tr.lodo_splits(records, n_drugs, seed)] == held_out


class TestTrain:
    def test_zero_epochs_returns_initial_params(self):
        bench, dataset = small_bench()
        cfg = small_cfg(bench)
        params, history = tr.train(dataset, dataset, cfg,
                                   tr.TrainConfig(epochs=0, seed=3))
        assert history == []
        from cdrpipe.model import init_params
        from cdrpipe.seeding import derive_seed
        fresh = init_params(cfg, derive_seed(3, "init"))
        for (_, a), (_, b) in zip(params.named_arrays(), fresh.named_arrays()):
            assert a.tobytes() == b.tobytes()

    def test_bit_reproducible_end_to_end(self):
        bench, dataset = small_bench()
        train_set = dataset.subset(dataset.records[:50])
        val_set = dataset.subset(dataset.records[50:])
        cfg = small_cfg(bench)
        tcfg = tr.TrainConfig(epochs=3, batch_size=16, seed=5)
        params_a, hist_a = tr.train(train_set, val_set, cfg, tcfg)
        params_b, hist_b = tr.train(train_set, val_set, cfg, tcfg)
        assert hist_a == hist_b
        for (na, va), (nb, vb) in zip(params_a.named_arrays(), params_b.named_arrays()):
            assert na == nb and va.tobytes() == vb.tobytes()

    def test_history_covers_every_epoch_and_loss_decreases(self):
        bench, dataset = small_bench(n_records=90)
        train_set = dataset.subset(dataset.records[:70])
        val_set = dataset.subset(dataset.records[70:])
        params, history = tr.train(train_set, val_set, small_cfg(bench),
                                   tr.TrainConfig(epochs=6, batch_size=8, seed=0))
        assert [r.epoch for r in history] == list(range(1, 7))
        assert history[-1].train_loss < history[0].train_loss
        assert all(r.val_pcc is not None for r in history)

    def test_returned_params_match_best_validation_epoch(self):
        bench, dataset = small_bench()
        train_set = dataset.subset(dataset.records[:50])
        val_set = dataset.subset(dataset.records[50:])
        cfg = small_cfg(bench)
        params, history = tr.train(train_set, val_set, cfg,
                                   tr.TrainConfig(epochs=5, batch_size=16, seed=8))
        best = max(r.val_pcc for r in history)
        replayed = pearson(predict_records(params, cfg, val_set), val_set.labels())
        np.testing.assert_allclose(replayed, best, rtol=1e-12)

    def test_early_stop_shortens_history(self):
        bench, dataset = small_bench(noise_std=3.0, seed=13)  # labels mostly noise
        train_set = dataset.subset(dataset.records[:50])
        val_set = dataset.subset(dataset.records[50:])
        params, history = tr.train(train_set, val_set, small_cfg(bench),
                                   tr.TrainConfig(epochs=20, batch_size=16, seed=2,
                                                  early_stop_patience=2))
        assert len(history) < 20

    def test_divergence_error_names_epoch_and_batch(self):
        bench, _ = small_bench()
        for r in bench.records:
            r.ic50 = 1e200  # squared error overflows on the first batch
        dataset = ResponseDataset(bench.records, bench.padded, bench.cells)
        with np.errstate(over="ignore"), pytest.raises(tr.DivergenceError,
                                                       match="epoch 1, batch 0"):
            tr.train(dataset, dataset, small_cfg(bench),
                     tr.TrainConfig(epochs=1, batch_size=16, seed=0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_validation_pass_that_overflows_raises_naming_the_epoch(self):
        """lr = 1e150 keeps the one step finite, but its parameters are
        about 1e149, so every validation prediction overflows."""
        bench, dataset = small_bench()
        train_set = dataset.subset(dataset.records[:50])
        val_set = dataset.subset(dataset.records[50:])
        with pytest.raises(tr.DivergenceError,
                           match=r"validation after epoch 1: 20 of 20 predictions"):
            tr.train(train_set, val_set, small_cfg(bench),
                     tr.TrainConfig(epochs=1, batch_size=50, lr=1e150, seed=0))

    def test_trailing_singleton_batch_is_folded(self):
        batches = tr._batches(33, 16, np.arange(33))
        assert [len(b) for b in batches] == [16, 17]
        assert sorted(np.concatenate(batches)) == list(range(33))

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="pins glibc's allocator")
    def test_a_training_step_reuses_the_memory_the_last_one_freed(self, monkeypatch):
        """``train`` pins the allocator, so a step's temporaries come from
        heap memory the previous step freed, not from pages faulted in anew
        (about 500 minor faults per step without the pin)."""
        import resource

        bench = make_benchmark(n_cells=200, cell_dim=512, n_drugs=30, atom_range=(5, 30),
                               n_records=1000, seed=1)
        dataset = ResponseDataset(bench.records, bench.padded, bench.cells)
        faults = []
        adam_step = tr.ad.adam_step

        def counted(*args):
            adam_step(*args)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)

        monkeypatch.setattr(tr.ad, "adam_step", counted)
        tr.train(dataset, dataset.subset([]), ModelConfig(n_max_atoms=bench.n_max_atoms,
                                                          cell_input_dim=512),
                 tr.TrainConfig(epochs=2, batch_size=32, seed=0))
        per_step = np.diff(faults)
        steps_per_epoch = len(tr._batches(1000, 32, np.arange(1000)))
        assert len(faults) == 2 * steps_per_epoch
        assert np.median(per_step[-steps_per_epoch:]) <= 5
