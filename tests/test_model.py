"""Model construction, forward passes, invariances, and checkpointing."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdrpipe import autodiff as ad
from cdrpipe import model as m
from cdrpipe.molgraph import MolecularGraph, pad_graph
from cdrpipe.omics import ResponseDataset, ResponseRecord
from cdrpipe.synthetic import make_benchmark, random_graph
from oracles import finite_diff_params, random_padded_graph

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


class TestEncodeDrug:
    def test_single_atom_equals_plain_mlp(self):
        """With one atom the normalized adjacency is [[1]], so the encoder
        reduces to a relu stack over that atom's feature row."""
        cfg = m.ModelConfig(gcn_layer_dims=(8, 6), cell_branch_dims=(5,), head_dims=(1,),
                            dropout_rate=0.0, n_max_atoms=1, cell_input_dim=4,
                            atom_input_dim=6)
        params = m.init_params(cfg, seed=3)
        rng = np.random.default_rng(0)
        g = random_padded_graph(rng, 1, 1, 6)
        out = m.encode_drug(ad.Tape(), [g], params, cfg)
        h = g.features
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
        g = random_padded_graph(np.random.default_rng(0), 2, 5, 7)
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

    def test_first_layer_records_no_propagation(self):
        """Layer 1 reads the ingest-time propagation: matmul, add and relu;
        layer 2 adds a propagation; one readout. Nine nodes would mean the
        first layer propagates again."""
        rng = np.random.default_rng(5)
        cfg = m.ModelConfig(gcn_layer_dims=(16, 8), cell_branch_dims=(4,), head_dims=(1,),
                            n_max_atoms=12, cell_input_dim=4)
        graphs = [pad_graph(random_graph(rng, f"d{i}", 4 + i), 12) for i in range(3)]
        tape = ad.Tape()
        m.encode_drug(tape, graphs, m.init_params(cfg, seed=0), cfg)
        assert len(tape.nodes) == 8

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
        g1 = random_padded_graph(rng, 3, cfg.n_max_atoms, cfg.atom_input_dim)
        g2 = random_padded_graph(rng, 4, cfg.n_max_atoms, cfg.atom_input_dim)
        graphs = [g1, g2, g1][:n]
        cells = rng.normal(size=(n, cfg.cell_input_dim))
        return graphs, cells

    def test_eval_predictions_bit_identical(self):
        params = m.init_params(TINY, seed=4)
        graphs, cells = self.batch(TINY)
        a = m.forward_batch(ad.Tape(), graphs, cells, params, TINY, "eval")
        b = m.forward_batch(ad.Tape(), graphs, cells, params, TINY, "eval")
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


PROPERTY_BENCH = make_benchmark(n_cells=5, cell_dim=4, n_drugs=4, atom_range=(1, 6),
                                n_records=10, seed=11)


class TestPredictRecords:
    def dataset(self):
        bench = make_benchmark(n_cells=20, cell_dim=4, n_drugs=9, atom_range=(1, 8),
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
        dataset, cfg = self.dataset()
        params = m.init_params(cfg, seed=2)
        batch_size = 16
        preds = m.predict_records(params, cfg, dataset, batch_size)
        for start in range(0, len(dataset.records), batch_size):
            batch = dataset.records[start : start + batch_size]
            expected = m.forward_batch(
                ad.Tape(), [dataset.graphs[r.drug_id] for r in batch],
                np.stack([dataset.cells.vectors[r.cell_line_id] for r in batch]),
                params, cfg, "eval")
            np.testing.assert_allclose(preds[start : start + len(batch)], expected.data[:, 0],
                                       rtol=0, atol=1e-12)

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
        rng = np.random.default_rng(batch_size)
        for layer in params.cell + params.head:
            layer.bias.data[...] = rng.normal(size=layer.bias.shape)
            if layer.norm is not None:  # eval batch norm that is not the identity
                layer.norm.running_mean = rng.normal(size=layer.norm.running_mean.shape)
                layer.norm.running_var = rng.uniform(0.5, 2.0, layer.norm.running_var.shape)
                layer.norm.gamma.data[...] = rng.uniform(0.5, 1.5, layer.norm.gamma.shape)
                layer.norm.beta.data[...] = rng.normal(size=layer.norm.beta.shape)
        preds = m.predict_records(params, cfg, dataset, batch_size)
        for start in range(0, len(pairs), batch_size):
            chunk = pairs[start : start + batch_size]
            expected = m.forward_batch(
                ad.Tape(), [bench.padded[d] for d, _ in chunk],
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
