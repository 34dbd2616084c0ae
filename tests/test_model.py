"""Model construction, forward passes, invariances, and checkpointing."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdrpipe import autodiff as ad
from cdrpipe import model as m
from cdrpipe.molgraph import ATOM_FEATURE_DIM, MolecularGraph, pad_graph
from cdrpipe.omics import ResponseDataset, ResponseRecord
from cdrpipe.synthetic import make_benchmark, random_graph
from oracles import finite_diff_params, random_padded_graph, reference_predict

TINY = m.ModelConfig(
    gcn_layer_dims=(8, 6), cell_branch_dims=(5,), head_dims=(7, 1),
    dropout_rate=0.0, n_max_atoms=5, cell_input_dim=4, atom_input_dim=6)


def permute_graph(g: MolecularGraph, perm: np.ndarray) -> MolecularGraph:
    """Relabel atoms so that new atom i is old atom perm[i]."""
    inv = np.argsort(perm)
    pairs = sorted((min(inv[a], inv[b]), max(inv[a], inv[b])) for a, b in g.adjacency)
    return MolecularGraph(g.drug_id, g.features[perm], pairs, g.degrees[perm])


class TestConfig:
    def test_head_must_end_in_one(self):
        with pytest.raises(ValueError, match="width 1"):
            m.ModelConfig(head_dims=(16, 2))

    def test_bad_dropout(self):
        with pytest.raises(ValueError, match="dropout"):
            m.ModelConfig(dropout_rate=1.0)


class TestInitParams:
    def test_same_seed_is_bit_identical(self):
        a = m.init_params(TINY, seed=7)
        b = m.init_params(TINY, seed=7)
        for (na, va), (nb, vb) in zip(a.named_arrays(), b.named_arrays()):
            assert na == nb
            assert va.tobytes() == vb.tobytes()

    def test_different_seeds_differ(self):
        a = m.init_params(TINY, seed=7)
        b = m.init_params(TINY, seed=8)
        assert any(not np.array_equal(va, vb)
                   for (_, va), (_, vb) in zip(a.named_arrays(), b.named_arrays()))

    def test_glorot_bound(self):
        params = m.init_params(m.ModelConfig(), seed=0)
        layers = params.gcn + params.cell + params.head
        for layer in layers:
            fan_in, fan_out = layer.weight.data.shape
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(layer.weight.data) <= bound)
            assert np.all(layer.bias.data == 0.0)


class TestLayout:
    @settings(max_examples=40, deadline=None)
    @given(gcn=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           cell=st.lists(st.integers(1, 6), max_size=3),
           head=st.lists(st.integers(1, 6), max_size=2),
           use_batch_norm=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_parameters_and_initial_arrays_follow_the_documented_layout(
            self, gcn, cell, head, use_batch_norm, seed):
        cfg = m.ModelConfig(gcn_layer_dims=gcn, cell_branch_dims=cell, head_dims=(*head, 1),
                            use_batch_norm=use_batch_norm, cell_input_dim=5, atom_input_dim=4)
        params = m.init_params(cfg, seed)
        named = list(params.named_arrays())
        trainable = [arr for name, arr in named
                     if name.endswith((".weight", ".bias", ".gamma", ".beta"))]
        got = params.parameters()
        assert len(got) == len(trainable)
        assert all(t.data is arr for t, arr in zip(got, trainable))

        # gcn, cell, head: one uniform(-b, b) weight per layer, nothing else drawn
        rng = np.random.default_rng(seed)
        cell_width = cell[-1] if cell else 5
        branches = [("gcn", 4, gcn, [False] * len(gcn)),
                    ("cell", 5, cell, [use_batch_norm] * len(cell)),
                    ("head", gcn[-1] + cell_width, [*head, 1],
                     [use_batch_norm] * len(head) + [False])]
        expected = []
        for branch, in_dim, dims, norms in branches:
            for i, (out_dim, norm) in enumerate(zip(dims, norms)):
                bound = np.sqrt(6.0 / (in_dim + out_dim))
                key = f"{branch}.{i}"
                expected += [(f"{key}.weight", rng.uniform(-bound, bound, (in_dim, out_dim))),
                             (f"{key}.bias", np.zeros((1, out_dim)))]
                if norm:
                    expected += [(f"{key}.norm.gamma", np.ones((1, out_dim))),
                                 (f"{key}.norm.beta", np.zeros((1, out_dim))),
                                 (f"{key}.norm.running_mean", np.zeros(out_dim)),
                                 (f"{key}.norm.running_var", np.ones(out_dim))]
                in_dim = out_dim
        assert [name for name, _ in named] == [name for name, _ in expected]
        for (name, arr), (_, want) in zip(named, expected):
            assert arr.shape == want.shape and arr.tobytes() == want.tobytes(), name


class TestEncodeDrug:
    def test_single_atom_equals_plain_mlp(self):
        """With one atom the normalized adjacency is [[1]], so the encoder
        reduces to a relu stack over that atom's feature row."""
        cfg = m.ModelConfig(gcn_layer_dims=(8, 6), cell_branch_dims=(5,), head_dims=(1,),
                            dropout_rate=0.0, n_max_atoms=1, cell_input_dim=4,
                            atom_input_dim=6)
        params = m.init_params(cfg, seed=3)
        rng = np.random.default_rng(0)
        g, h = random_padded_graph(rng, 1, 1, 6)
        out = m.encode_drug(ad.Tape(), [g], params, cfg)
        for layer in params.gcn:
            h = np.maximum(h @ layer.weight.data + layer.bias.data, 0.0)
        np.testing.assert_allclose(out.data, h, atol=1e-12)

    def test_identical_isolated_atoms_pool_to_shared_vector(self):
        row = np.random.default_rng(1).normal(size=75)
        twin = MolecularGraph("twin", np.stack([row, row]), [], np.array([0, 0]))
        solo = MolecularGraph("solo", row.reshape(1, -1), [], np.array([0]))
        cfg = m.ModelConfig(gcn_layer_dims=(8,), cell_branch_dims=(4,), head_dims=(1,),
                            n_max_atoms=4, cell_input_dim=4)
        params = m.init_params(cfg, seed=2)
        out_twin = m.encode_drug(ad.Tape(), [pad_graph(twin, 4)], params, cfg)
        out_solo = m.encode_drug(ad.Tape(), [pad_graph(solo, 4)], params, cfg)
        np.testing.assert_allclose(out_twin.data, out_solo.data, atol=1e-12)

    def test_wrong_feature_width_is_a_shape_error(self):
        g, _ = random_padded_graph(np.random.default_rng(0), 2, 5, 7)
        with pytest.raises(ValueError, match="width 7, model expects 6"):
            m.encode_drug(ad.Tape(), [g], m.init_params(TINY, 0), TINY)

    @pytest.mark.parametrize("seed", range(8))
    def test_atom_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, "d", int(rng.integers(2, 12)))
        perm = rng.permutation(g.n_atoms)
        cfg = m.ModelConfig(gcn_layer_dims=(16, 8), cell_branch_dims=(4,), head_dims=(1,),
                            n_max_atoms=16, cell_input_dim=4)
        params = m.init_params(cfg, seed=seed)
        out = m.encode_drug(ad.Tape(), [pad_graph(g, 16)], params, cfg)
        out_p = m.encode_drug(ad.Tape(), [pad_graph(permute_graph(g, perm), 16)],
                              params, cfg)
        np.testing.assert_allclose(out.data, out_p.data, atol=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_padding_invariance(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng, "d", 6)
        cfg_small = m.ModelConfig(gcn_layer_dims=(16, 8), cell_branch_dims=(4,),
                                  head_dims=(1,), n_max_atoms=8, cell_input_dim=4)
        cfg_large = m.ModelConfig(gcn_layer_dims=(16, 8), cell_branch_dims=(4,),
                                  head_dims=(1,), n_max_atoms=30, cell_input_dim=4)
        params = m.init_params(cfg_small, seed=seed)
        out_small = m.encode_drug(ad.Tape(), [pad_graph(g, 8)], params, cfg_small)
        out_large = m.encode_drug(ad.Tape(), [pad_graph(g, 30)], params, cfg_large)
        np.testing.assert_allclose(out_small.data, out_large.data, atol=1e-10)

    def test_first_layer_records_no_propagation(self, monkeypatch):
        """Layer 1 reads the ingest-time propagation, so only layer 2 runs a
        block product; each layer is one node, plus one readout. Two block
        products would mean the first layer propagates again."""
        rng = np.random.default_rng(5)
        cfg = m.ModelConfig(gcn_layer_dims=(16, 8), cell_branch_dims=(4,), head_dims=(1,),
                            n_max_atoms=12, cell_input_dim=4)
        graphs = [pad_graph(random_graph(rng, f"d{i}", 4 + i), 12) for i in range(3)]
        calls = []
        block_product = ad._block_product
        monkeypatch.setattr(ad, "_block_product",
                            lambda *args: calls.append(args) or block_product(*args))
        tape = ad.Tape()
        m.encode_drug(tape, graphs, m.init_params(cfg, seed=0), cfg)
        assert len(tape.nodes) == 3
        assert len(calls) == 1

    def test_packed_rows_equal_each_graph_encoded_alone(self):
        """A 1-atom graph, isolated atoms whose twin rows tie in every column,
        connected graphs, and one graph object twice, in one packed call."""
        rng = np.random.default_rng(4)
        row = rng.normal(size=75)
        one = MolecularGraph("one", row.reshape(1, -1), [], np.array([0]))
        isolated = MolecularGraph("iso", np.stack([row, -row, row]), [], np.zeros(3))
        cfg = m.ModelConfig(gcn_layer_dims=(16, 8), cell_branch_dims=(4,), head_dims=(1,),
                            n_max_atoms=12, cell_input_dim=4)
        params = m.init_params(cfg, seed=1)
        chain = pad_graph(random_graph(rng, "chain", 9), 12)
        graphs = [pad_graph(one, 12), chain, pad_graph(isolated, 12),
                  pad_graph(random_graph(rng, "big", 12), 12), chain]
        packed = m.encode_drug(ad.Tape(), graphs, params, cfg)
        assert packed.shape == (5, 8)
        for i, g in enumerate(graphs):
            alone = m.encode_drug(ad.Tape(), [g], params, cfg)
            np.testing.assert_allclose(packed.data[i : i + 1], alone.data, rtol=0, atol=1e-12)


class TestEncodeCell:
    def test_zero_vector_zero_bias_stays_zero(self):
        cfg = m.ModelConfig(gcn_layer_dims=(4,), cell_branch_dims=(6, 3), head_dims=(1,),
                            use_batch_norm=False, cell_input_dim=5, n_max_atoms=2)
        params = m.init_params(cfg, seed=0)
        out = m.encode_cell(ad.Tape(), ad.Tensor(np.zeros((1, 5))), params, cfg, "eval")
        np.testing.assert_array_equal(out.data, np.zeros((1, 3)))

    def test_eval_mode_is_deterministic(self):
        params = m.init_params(TINY, seed=1)
        x = ad.Tensor(np.random.default_rng(2).normal(size=(1, 4)))
        a = m.encode_cell(ad.Tape(), x, params, TINY, "eval")
        b = m.encode_cell(ad.Tape(), x, params, TINY, "eval")
        assert a.data.tobytes() == b.data.tobytes()

    def test_width_mismatch_is_a_shape_error(self):
        cfg = m.ModelConfig(cell_input_dim=768)
        params = m.init_params(cfg, seed=0)
        with pytest.raises(ValueError, match="512.*768"):
            m.encode_cell(ad.Tape(), ad.Tensor(np.zeros((1, 512))), params, cfg, "eval")


class TestPredict:
    def batch(self, cfg, n=3, seed=0):
        rng = np.random.default_rng(seed)
        g1, _ = random_padded_graph(rng, 3, cfg.n_max_atoms, cfg.atom_input_dim)
        g2, _ = random_padded_graph(rng, 4, cfg.n_max_atoms, cfg.atom_input_dim)
        graphs = [g1, g2, g1][:n]
        cells = rng.normal(size=(n, cfg.cell_input_dim))
        return graphs, cells

    def test_eval_predictions_bit_identical(self):
        params = m.init_params(TINY, seed=4)
        graphs, cells = self.batch(TINY)
        a = m.forward_batch(None, graphs, cells, params, TINY, "eval")
        b = m.forward_batch(None, graphs, cells, params, TINY, "eval")
        assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("seed", range(3))
    def test_full_model_gradients_match_finite_differences(self, seed):
        """End-to-end mse gradient wrt every parameter on a 3-sample batch,
        dropout off, batch norm in train mode."""
        rng = np.random.default_rng(seed)
        params = m.init_params(TINY, seed=seed)
        graphs, cells = self.batch(TINY, seed=seed)
        target = ad.Tensor(rng.normal(size=(3, 1)))

        def loss_value():
            tape = ad.Tape()
            pred = m.forward_batch(tape, graphs, cells, params, TINY, "train")
            return float(ad.loss(tape, pred, target).data[0, 0])

        tape = ad.Tape()
        pred = m.forward_batch(tape, graphs, cells, params, TINY, "train")
        grads = ad.backward(tape, ad.loss(tape, pred, target), params.parameters())
        rel_err, small_err = finite_diff_params(loss_value, params.parameters(), grads)
        assert rel_err < 1e-4
        assert small_err < 1e-9

    def test_a_taped_eval_pass_needs_a_head_without_a_first_norm(self):
        """The eval-mode fold of the head's first batch norm is constant, so
        a tape would get no gradient for it: ``forward_batch`` refuses one.
        A head whose first layer has no norm runs on a tape, with the bytes
        of the untaped pass."""
        graphs, cells = self.batch(TINY)
        params = m.init_params(TINY, seed=4)
        with pytest.raises(ValueError, match="takes the tape None"):
            m.forward_batch(ad.Tape(), graphs, cells, params, TINY, "eval")
        for cfg in (replace(TINY, head_dims=(1,)), replace(TINY, use_batch_norm=False)):
            params = m.init_params(cfg, seed=4)
            tape = ad.Tape()
            taped = m.forward_batch(tape, graphs, cells, params, cfg, "eval")
            assert tape.nodes and taped.requires_grad
            untaped = m.forward_batch(None, graphs, cells, params, cfg, "eval")
            assert taped.data.tobytes() == untaped.data.tobytes()


def perturb(layers, rng):
    """Random biases and, where a layer has batch norm, a running mean,
    variance, gamma and beta that do not make eval batch norm the identity."""
    for layer in layers:
        layer.bias.data[...] = rng.normal(size=layer.bias.shape)
        if layer.norm is not None:
            layer.norm.running_mean = rng.normal(size=layer.norm.running_mean.shape)
            layer.norm.running_var = rng.uniform(0.5, 2.0, layer.norm.running_var.shape)
            layer.norm.gamma.data[...] = rng.uniform(0.5, 1.5, layer.norm.gamma.shape)
            layer.norm.beta.data[...] = rng.normal(size=layer.norm.beta.shape)


PROPERTY_BENCH = make_benchmark(n_cells=5, cell_dim=4, n_drugs=4, atom_range=(1, 6),
                                n_records=10, seed=11)
# no one-atom graph: a one-row product goes through BLAS's matrix-vector
# routine, which may round differently from the same row in a matrix product
PACK_BENCH = make_benchmark(n_cells=5, cell_dim=4, n_drugs=6, atom_range=(2, 6),
                            n_records=10, seed=11)


class TestPredictRecords:
    def dataset(self):
        # graphs of 2 or more atoms and layers 4 or more wide: see PACK_BENCH
        bench = make_benchmark(n_cells=20, cell_dim=4, n_drugs=9, atom_range=(2, 8),
                               n_records=150, seed=3)
        cfg = m.ModelConfig(gcn_layer_dims=(8, 6), cell_branch_dims=(5,), head_dims=(7, 1),
                            n_max_atoms=bench.n_max_atoms, cell_input_dim=4)
        return ResponseDataset(bench.records, bench.padded, bench.cells), cfg

    def test_each_distinct_drug_is_encoded_once(self, monkeypatch):
        dataset, cfg = self.dataset()
        encoded = []
        original = m.encode_drug

        def counting(tape, graphs, *rest):
            encoded.extend(graphs)
            return original(tape, graphs, *rest)

        monkeypatch.setattr(m, "encode_drug", counting)
        m.predict_records(m.init_params(cfg, seed=0), cfg, dataset, batch_size=16)
        drugs = {r.drug_id for r in dataset.records}
        assert len(encoded) == len(drugs) == 9
        assert {id(g) for g in encoded} == {id(dataset.graphs[d]) for d in drugs}

    def test_equals_per_batch_forward(self):
        """Training's forward in eval mode and the prediction pass reach the
        head the same way, so where every product is a matrix product each
        batch's predictions are equal bytes: 20 seeds of 10 batches, each
        holding at least two drugs and two cell lines."""
        dataset, cfg = self.dataset()
        batch_size = 16
        for seed in range(20):
            params = m.init_params(cfg, seed)
            perturb(params.gcn + params.cell + params.head, np.random.default_rng(seed))
            preds = m.predict_records(params, cfg, dataset, batch_size)
            for start in range(0, len(dataset.records), batch_size):
                batch = dataset.records[start : start + batch_size]
                assert len({r.drug_id for r in batch}) >= 2
                assert len({r.cell_line_id for r in batch}) >= 2
                expected = m.forward_batch(
                    None, [dataset.graphs[r.drug_id] for r in batch],
                    np.stack([dataset.cells.vectors[r.cell_line_id] for r in batch]),
                    params, cfg, "eval")
                assert np.array_equal(preds[start : start + len(batch)],
                                      expected.data[:, 0]), (seed, start)

    def test_each_distinct_cell_line_is_encoded_once(self, monkeypatch):
        dataset, cfg = self.dataset()
        encoded = []
        original = m.encode_cell

        def counting(tape, features, *rest):
            encoded.append(len(features))
            return original(tape, features, *rest)

        monkeypatch.setattr(m, "encode_cell", counting)
        m.predict_records(m.init_params(cfg, seed=0), cfg, dataset, batch_size=16)
        cells = {r.cell_line_id for r in dataset.records}
        assert len(cells) == 20 < len(dataset.records)
        assert sum(encoded) == len(cells)

    def test_batch_norm_runs_only_in_the_cell_branch(self, monkeypatch):
        """The head's first batch norm is folded into its weights, so one
        pass runs ``autodiff.batch_norm`` once per cell pack and cell layer,
        over the distinct cell lines, and never once per record chunk."""
        dataset, cfg = self.dataset()
        params = m.init_params(cfg, seed=0)
        calls = []
        original = ad.batch_norm

        def counting(tape, x, state, mode):
            calls.append((id(state), len(x.data)))
            return original(tape, x, state, mode)

        monkeypatch.setattr(ad, "batch_norm", counting)
        m.predict_records(params, cfg, dataset, batch_size=16)
        cells = len({r.cell_line_id for r in dataset.records})
        assert cells == 20 and len(dataset.records) == 150
        assert {state for state, _ in calls} == {id(layer.norm) for layer in params.cell}
        assert [rows for _, rows in calls] == [16, 4]

    @pytest.mark.parametrize("head_dims, use_batch_norm", [((1,), True), ((7, 1), False)])
    def test_a_head_without_a_first_norm_is_not_folded(self, head_dims, use_batch_norm):
        """With no batch norm on the head's first layer, the halves are row
        views of its weight and the bias is the layer's own, and the
        predictions are the bytes of the unfolded head written out."""
        dataset, cfg = self.dataset()
        cfg = replace(cfg, head_dims=head_dims, use_batch_norm=use_batch_norm)
        params = m.init_params(cfg, seed=5)
        perturb(params.cell + params.head, np.random.default_rng(5))
        first, width = params.head[0], cfg.gcn_layer_dims[-1]
        assert first.norm is None
        w_drug, w_cell, bias = m._first_layer(None, params, cfg, "eval")
        assert bias is first.bias
        assert np.shares_memory(w_drug.data, first.weight.data)
        assert np.shares_memory(w_cell.data, first.weight.data)

        drugs = m.encode_drug(None, [dataset.graphs[d] for d in dataset.drug_ids], params,
                              cfg).data @ first.weight.data[:width]
        cells = m.encode_cell(None, dataset.cells.matrix[dataset.cell_rows], params, cfg,
                              "eval").data @ first.weight.data[width:] + first.bias.data
        h = drugs[dataset.drug_index] + cells[dataset.cell_index]
        for layer in params.head[1:]:
            h = np.maximum(h, 0.0) @ layer.weight.data + layer.bias.data
        assert m.predict_records(params, cfg, dataset).tobytes() == h[:, 0].tobytes()

    def test_a_head_with_a_first_norm_is_folded(self):
        """With batch norm on the head's first layer, the predictions are the
        bytes of the folded head written out: ``s = gamma / sqrt(var + eps)``
        scales both halves of the weight, and the bias becomes
        ``(b - mean) s + beta``, over a perturbed norm."""
        dataset, cfg = self.dataset()
        params = m.init_params(cfg, seed=5)
        perturb(params.cell + params.head, np.random.default_rng(5))
        first, width = params.head[0], cfg.gcn_layer_dims[-1]
        norm = first.norm
        scale = norm.gamma.data * (1.0 / np.sqrt(norm.running_var + norm.eps))
        bias = (first.bias.data - norm.running_mean) * scale + norm.beta.data

        drugs = m.encode_drug(None, [dataset.graphs[d] for d in dataset.drug_ids], params,
                              cfg).data @ (first.weight.data[:width] * scale)
        cells = m.encode_cell(None, dataset.cells.matrix[dataset.cell_rows], params, cfg,
                              "eval").data @ (first.weight.data[width:] * scale) + bias
        h = drugs[dataset.drug_index] + cells[dataset.cell_index]
        for layer in params.head[1:]:
            h = np.maximum(h, 0.0) @ layer.weight.data + layer.bias.data
        assert m.predict_records(params, cfg, dataset).tobytes() == h[:, 0].tobytes()

    def test_reads_the_columns_not_the_records(self):
        dataset, cfg = self.dataset()
        params = m.init_params(cfg, seed=2)
        expected = m.predict_records(params, cfg, dataset, batch_size=16)

        class Unreadable(list):
            def __iter__(self):
                raise AssertionError("predict_records read dataset.records")

            def __getitem__(self, key):
                raise AssertionError("predict_records read dataset.records")

        dataset.records = Unreadable(dataset.records)
        assert m.predict_records(params, cfg, dataset, batch_size=16).tobytes() == \
            expected.tobytes()

    def test_records_no_tape_node(self, monkeypatch):
        dataset, cfg = self.dataset()

        def refuse(*args):
            raise AssertionError("predict_records recorded a tape node")

        monkeypatch.setattr(ad, "TapeNode", refuse)
        preds = m.predict_records(m.init_params(cfg, seed=0), cfg, dataset, batch_size=16)
        assert preds.shape == (len(dataset.records),)

    @pytest.mark.parametrize("batch_size", [0, -3])
    def test_a_batch_size_below_one_is_named(self, batch_size):
        dataset, cfg = self.dataset()
        with pytest.raises(ValueError, match=f"batch_size must be at least 1, got {batch_size}"):
            m.predict_records(m.init_params(cfg, seed=0), cfg, dataset, batch_size)

    def test_an_empty_dataset_gives_an_empty_array(self):
        dataset, cfg = self.dataset()
        preds = m.predict_records(m.init_params(cfg, seed=0), cfg, dataset.subset([]))
        assert preds.shape == (0,)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data(),
           gcn_layer_dims=st.lists(st.integers(4, 9), min_size=1, max_size=3),
           max_rows=st.integers(1, 8),
           seed=st.integers(0, 2**16))
    def test_drug_packs_fit_the_byte_budget(self, data, gcn_layer_dims, max_rows, seed):
        """With ``DRUG_PACK_BYTES`` patched down to ``max_rows`` atom rows of
        the widest layer, plus a remainder short of one more row, the packs
        cover each distinct drug once in first-appearance order, close only
        at ``batch_size`` graphs or at the row budget, and put one graph over
        the budget alone; the predictions equal, byte for byte, those from
        one ``encode_drug`` call on every drug. Layer widths of 4 or more and
        graphs of 2 or more atoms keep every product on BLAS's matrix-matrix
        routine, whose rows round the same however many rows a pack holds."""
        bench = PACK_BENCH
        width = max(gcn_layer_dims)
        rng = np.random.default_rng(seed)
        n_big = data.draw(st.integers(max_rows + 1, max_rows + 6))
        big, _ = random_padded_graph(rng, n_big, n_big, ATOM_FEATURE_DIM)
        graphs = {**bench.padded, "big": big}
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(sorted(bench.padded)),
                                             st.sampled_from(sorted(bench.cells.vectors))),
                                   min_size=1, max_size=20))
        pairs.insert(data.draw(st.integers(0, len(pairs))),
                     ("big", data.draw(st.sampled_from(sorted(bench.cells.vectors)))))
        batch_size = data.draw(st.integers(1, len(pairs) + 2))
        dataset = ResponseDataset([ResponseRecord(d, c, 0.0) for d, c in pairs], graphs,
                                  bench.cells)
        cfg = m.ModelConfig(gcn_layer_dims=tuple(gcn_layer_dims), cell_branch_dims=(5,),
                            head_dims=(7, 1), n_max_atoms=bench.n_max_atoms, cell_input_dim=4)
        params = m.init_params(cfg, seed)
        perturb(params.gcn + params.cell + params.head, rng)
        packs = []
        original = m.encode_drug

        def recording(tape, pack, *rest):
            packs.append(list(pack))
            return original(tape, pack, *rest)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(m, "DRUG_PACK_BYTES", 8 * width * max_rows
                       + data.draw(st.integers(0, 8 * width - 1)))
            mp.setattr(m, "encode_drug", recording)
            preds = m.predict_records(params, cfg, dataset, batch_size)
        first_seen = [graphs[d] for d in dict.fromkeys(d for d, _ in pairs)]
        assert [id(g) for pack in packs for g in pack] == [id(g) for g in first_seen]
        assert len(packs) >= 2
        for pack, following in zip(packs, [*packs[1:], None]):
            rows = sum(g.n_atoms for g in pack)
            assert len(pack) <= batch_size
            assert rows <= max_rows or len(pack) == 1
            if following is not None:
                assert len(pack) == batch_size or rows + following[0].n_atoms > max_rows

        everything = original(None, first_seen, params, cfg).data
        row = {id(g): i for i, g in enumerate(first_seen)}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(m, "encode_drug", lambda tape, pack, *rest:
                       ad.Tensor(everything[[row[id(g)] for g in pack]]))
            expected = m.predict_records(params, cfg, dataset, batch_size)
        assert np.array_equal(preds, expected)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(),
           gcn_layer_dims=st.lists(st.integers(1, 6), min_size=1, max_size=3),
           cell_branch_dims=st.lists(st.integers(1, 6), max_size=2),
           hidden_head_dims=st.lists(st.integers(1, 6), max_size=2),
           use_batch_norm=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_equals_the_per_record_reference(self, data, gcn_layer_dims, cell_branch_dims,
                                             hidden_head_dims, use_batch_norm, seed):
        """``oracles.reference_predict`` shares no code path with
        ``predict_records``: GCN depth 1-3, cell depth 0-2, head depth 1-3,
        repeated drugs and cells, chunks of one record up to more than all."""
        bench = PROPERTY_BENCH
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(sorted(bench.padded)),
                                             st.sampled_from(sorted(bench.cells.vectors))),
                                   min_size=1, max_size=20))
        batch_size = data.draw(st.integers(1, len(pairs) + 2))
        dataset = ResponseDataset([ResponseRecord(d, c, 0.0) for d, c in pairs],
                                  bench.padded, bench.cells)
        cfg = m.ModelConfig(gcn_layer_dims=tuple(gcn_layer_dims),
                            cell_branch_dims=tuple(cell_branch_dims),
                            head_dims=(*hidden_head_dims, 1), use_batch_norm=use_batch_norm,
                            n_max_atoms=bench.n_max_atoms, cell_input_dim=4)
        params = m.init_params(cfg, seed)
        perturb(params.gcn + params.cell + params.head, np.random.default_rng(seed))
        features = {d: g.features for d, g in bench.graphs.items()}
        np.testing.assert_allclose(m.predict_records(params, cfg, dataset, batch_size),
                                   reference_predict(dataset, params, features),
                                   rtol=0, atol=1e-10)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(),
           cell_branch_dims=st.sampled_from([(), (5,), (6, 3)]),
           head_dims=st.sampled_from([(1,), (7, 1), (5, 4, 1)]),
           use_batch_norm=st.booleans())
    def test_equals_per_chunk_forward_for_any_shape(self, data, cell_branch_dims, head_dims,
                                                    use_batch_norm):
        """Repeated drugs and cells within and across chunks, any chunk size."""
        bench = PROPERTY_BENCH
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(sorted(bench.padded)),
                                             st.sampled_from(sorted(bench.cells.vectors))),
                                   min_size=1, max_size=30))
        batch_size = data.draw(st.integers(1, len(pairs)))
        dataset = ResponseDataset([ResponseRecord(d, c, 0.0) for d, c in pairs],
                                  bench.padded, bench.cells)
        cfg = m.ModelConfig(gcn_layer_dims=(8, 6), cell_branch_dims=cell_branch_dims,
                            head_dims=head_dims, use_batch_norm=use_batch_norm,
                            n_max_atoms=bench.n_max_atoms, cell_input_dim=4)
        params = m.init_params(cfg, seed=len(pairs))
        perturb(params.cell + params.head, np.random.default_rng(batch_size))
        packs = {"drug": [], "cell": []}

        def counting(kind, encode):
            def counted(tape, items, *rest):
                packs[kind].append(len(items))
                return encode(tape, items, *rest)
            return counted

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(m, "encode_drug", counting("drug", m.encode_drug))
            mp.setattr(m, "encode_cell", counting("cell", m.encode_cell))
            preds = m.predict_records(params, cfg, dataset, batch_size)
        assert sum(packs["drug"]) == len({d for d, _ in pairs})
        assert sum(packs["cell"]) == len({c for _, c in pairs})
        assert max(packs["drug"] + packs["cell"]) <= batch_size
        for start in range(0, len(pairs), batch_size):
            chunk = pairs[start : start + batch_size]
            expected = m.forward_batch(
                None, [bench.padded[d] for d, _ in chunk],
                np.stack([bench.cells.vectors[c] for _, c in chunk]), params, cfg, "eval")
            np.testing.assert_allclose(preds[start : start + len(chunk)], expected.data[:, 0],
                                       rtol=0, atol=1e-12)


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        params = m.init_params(TINY, seed=9)
        params.cell[0].norm.running_mean[:] = [1.0, 2.0, 3.0, 4.0, 5.0]
        path = tmp_path / "model.ckpt"
        m.save_checkpoint(path, TINY, params)
        cfg2, params2 = m.load_checkpoint(path)
        assert cfg2 == TINY
        for (na, va), (nb, vb) in zip(params.named_arrays(), params2.named_arrays()):
            assert na == nb
            assert va.tobytes() == vb.tobytes()

    def test_save_is_deterministic(self, tmp_path):
        params = m.init_params(TINY, seed=9)
        m.save_checkpoint(tmp_path / "a.ckpt", TINY, params)
        m.save_checkpoint(tmp_path / "b.ckpt", TINY, params)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()

    def test_a_save_that_fails_mid_file_leaves_the_old_checkpoint(self, tmp_path):
        """The header and every real array are written before the last
        array fails to convert."""
        path = tmp_path / "model.ckpt"
        m.save_checkpoint(path, TINY, m.init_params(TINY, seed=1))
        before = path.read_bytes()
        params = m.init_params(TINY, seed=2)
        arrays = list(params.named_arrays())
        params.named_arrays = lambda: iter(arrays + [("bad", np.array(["x"]))])
        with pytest.raises(ValueError):
            m.save_checkpoint(path, TINY, params)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "model.ckpt"
        m.save_checkpoint(path, TINY, m.init_params(TINY, 0))
        data = path.read_bytes()
        head, _, body = data.partition(b"\n")
        path.write_bytes(head.replace(b'"version": 1', b'"version": 2') + b"\n" + body)
        with pytest.raises(m.CheckpointError, match="version 2"):
            m.load_checkpoint(path)

    def test_rejects_non_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"\x00\x01\x02 not a checkpoint\n")
        with pytest.raises(m.CheckpointError, match="not a checkpoint"):
            m.load_checkpoint(path)

    def test_rejects_a_header_that_is_not_an_object(self, tmp_path):
        path = tmp_path / "number.ckpt"
        path.write_bytes(b"42\n")
        with pytest.raises(m.CheckpointError, match="not a checkpoint"):
            m.load_checkpoint(path)

    @pytest.mark.parametrize("edit, named", [
        (lambda h: h["config"].update(task="regression"), "task"),
        (lambda h: h.pop("arrays"), "arrays"),
        (lambda h: h.pop("config"), "config"),
        (lambda h: h["arrays"][0].pop("shape"), "shape"),
    ], ids=["unknown_config_key", "no_arrays", "no_config", "no_shape"])
    def test_malformed_header_names_file_and_key(self, tmp_path, edit, named):
        path = tmp_path / "model.ckpt"
        m.save_checkpoint(path, TINY, m.init_params(TINY, 0))
        head, _, body = path.read_bytes().partition(b"\n")
        header = json.loads(head)
        edit(header)
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        with pytest.raises(m.CheckpointError, match=named) as caught:
            m.load_checkpoint(path)
        assert str(path) in str(caught.value)

    def test_rejects_truncation(self, tmp_path):
        path = tmp_path / "model.ckpt"
        m.save_checkpoint(path, TINY, m.init_params(TINY, 0))
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(m.CheckpointError, match="truncated"):
            m.load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_value_naming_the_array_and_file(self, tmp_path, value):
        params = m.init_params(TINY, seed=0)
        params.gcn[0].weight.data[1, 2] = value
        path = tmp_path / "model.ckpt"
        m.save_checkpoint(path, TINY, params)
        with pytest.raises(m.CheckpointError, match=r"gcn\.0\.weight .*\(1, 2\)") as caught:
            m.load_checkpoint(path)
        assert str(path) in str(caught.value)

    def test_a_file_that_cannot_be_opened_names_its_path(self, tmp_path):
        with pytest.raises(m.CheckpointError, match="cannot open") as caught:
            m.load_checkpoint(tmp_path)
        assert str(tmp_path) in str(caught.value)
