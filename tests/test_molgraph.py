"""Molecular graph loading, normalization, and the atom capacity check."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdrpipe import molgraph as mg
from cdrpipe.synthetic import random_graph


def write_graph_files(tmp_path, features, adjacency, degrees, stem="drug"):
    f = tmp_path / f"{stem}.features.csv"
    a = tmp_path / f"{stem}.adjacency.csv"
    d = tmp_path / f"{stem}.degrees.csv"
    f.write_text("\n".join(",".join(str(v) for v in row) for row in features) + "\n")
    a.write_text("".join(f"{i},{j}\n" for i, j in adjacency))
    d.write_text("".join(f"{v}\n" for v in degrees))
    return f, a, d


def two_atom_graph(bond=True):
    rng = np.random.default_rng(0)
    features = rng.normal(size=(2, mg.ATOM_FEATURE_DIM))
    adjacency = [(0, 1)] if bond else []
    degrees = [1, 1] if bond else [0, 0]
    return mg.MolecularGraph("toy", features, adjacency, np.array(degrees))


class TestMolecularGraph:
    def test_bonds_are_held_as_canonical_pairs_in_their_given_order(self):
        g = mg.MolecularGraph("x", np.zeros((3, 75)), [(2, 0), (1, 0)], np.array([2, 1, 1]))
        assert g.adjacency == [(0, 2), (0, 1)]


class TestLoadGraph:
    def test_valid_two_atom_graph(self, tmp_path):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(2, 75))
        paths = write_graph_files(tmp_path, feats, [(0, 1)], [1, 1])
        g = mg.load_graph(*paths, drug_id="d1")
        assert g.n_atoms == 2
        assert g.adjacency == [(0, 1)]
        np.testing.assert_allclose(g.features, feats)

    def test_degree_mismatch(self, tmp_path):
        feats = np.zeros((2, 75))
        paths = write_graph_files(tmp_path, feats, [(0, 1)], [2, 1])
        with pytest.raises(mg.GraphError, match="degree"):
            mg.load_graph(*paths)

    def test_short_feature_row_names_the_row(self, tmp_path):
        rows = [list(range(75)), list(range(74))]
        paths = write_graph_files(tmp_path, rows, [], [0, 0])
        with pytest.raises(mg.GraphError, match="row 2 has 74"):
            mg.load_graph(*paths)

    def test_out_of_range_index(self, tmp_path):
        paths = write_graph_files(tmp_path, np.zeros((2, 75)), [(0, 5)], [1, 1])
        with pytest.raises(mg.GraphError, match=r"\(0, 5\)"):
            mg.load_graph(*paths)

    def test_duplicate_bond_is_an_error(self, tmp_path):
        paths = write_graph_files(tmp_path, np.zeros((2, 75)), [(0, 1), (1, 0)], [2, 2])
        with pytest.raises(mg.GraphError, match="duplicate"):
            mg.load_graph(*paths)

    def test_self_loop_rejected(self, tmp_path):
        paths = write_graph_files(tmp_path, np.zeros((2, 75)), [(1, 1)], [0, 2])
        with pytest.raises(mg.GraphError, match="self-loop"):
            mg.load_graph(*paths)

    @pytest.mark.parametrize("part, text, message", [
        (2, "0,1\n\n1,0.5\n", "adjacency row 3 is not a 64-bit integer in column 2: 0.5"),
        (2, "0,1\n1e300,0\n", "adjacency row 2 is not a 64-bit integer in column 1: 1e+300"),
        (3, "1\n1e300\n", "degree row 2 is not a 64-bit integer in column 1: 1e+300"),
        (3, "1\n \n1\n", "row 2 column 1 is not numeric: ' '"),
        (1, "0,1\n", "row 1 has 2 fields, expected 75"),
    ], ids=["fraction", "huge-index", "huge-degree", "whitespace-line", "narrow"])
    def test_a_bad_graph_row_names_its_file_line_and_column(self, tmp_path, part, text,
                                                           message):
        paths = write_graph_files(tmp_path, np.zeros((2, 75)), [(0, 1)], [1, 1])
        paths[part - 1].write_text(text)
        with pytest.raises(mg.GraphError) as info:
            mg.load_graph(*paths)
        assert str(info.value) == f"{paths[part - 1]}: {message}"

    def test_non_numeric_feature(self, tmp_path):
        f = tmp_path / "f.csv"
        f.write_text(",".join(["x"] * 75) + "\n")
        a = tmp_path / "a.csv"
        a.write_text("")
        d = tmp_path / "d.csv"
        d.write_text("0\n")
        with pytest.raises(mg.GraphError, match="not numeric"):
            mg.load_graph(f, a, d)

    @pytest.mark.parametrize("isolated", range(5))
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(n_bonded=st.integers(1, 19), seed=st.integers(0, 2**32 - 1))
    def test_round_trip(self, tmp_path_factory, isolated, n_bonded, seed):
        """A connected graph plus `isolated` atoms without bonds, with features
        across the float64 exponent range, loads back exactly."""
        rng = np.random.default_rng(seed)
        bonded = random_graph(rng, "d", n_bonded)
        n = n_bonded + isolated
        scale = 10.0 ** rng.integers(-300, 300, size=(n, 1))
        g = mg.MolecularGraph("d", rng.normal(size=(n, mg.ATOM_FEATURE_DIM)) * scale,
                              bonded.adjacency, np.append(bonded.degrees, [0] * isolated))
        tmp = tmp_path_factory.mktemp("round_trip")
        paths = (tmp / "f.csv", tmp / "a.csv", tmp / "d.csv")
        mg.save_graph(g, *paths)
        back = mg.load_graph(*paths, drug_id=g.drug_id)
        assert back.adjacency == g.adjacency
        np.testing.assert_array_equal(back.degrees, g.degrees)
        np.testing.assert_array_equal(back.features, g.features)


class TestNormalizedAdjacency:
    def test_two_atoms_one_bond_with_self_loops(self):
        """Hand evaluation: A+I is all-ones, degrees 2, so every entry is 1/2."""
        got = mg.normalized_adjacency(two_atom_graph())
        np.testing.assert_allclose(got, [[0.5, 0.5], [0.5, 0.5]])

    def test_isolated_atom_with_self_loops(self):
        g = mg.MolecularGraph("one", np.zeros((1, 75)), [], np.array([0]))
        np.testing.assert_allclose(mg.normalized_adjacency(g), [[1.0]])

    @pytest.mark.parametrize("seed", range(10))
    def test_symmetric_with_bounded_spectrum(self, seed):
        """Power-iteration oracle: spectral radius of the normalized matrix
        stays within 1 + 1e-9."""
        rng = np.random.default_rng(seed)
        g = random_graph(rng, "d", int(rng.integers(2, 15)))
        adj = mg.normalized_adjacency(g)
        assert np.max(np.abs(adj - adj.T)) <= 1e-12
        v = rng.normal(size=adj.shape[0])
        for _ in range(200):
            w = adj @ v
            norm = np.linalg.norm(w)
            if norm == 0:
                break
            v = w / norm
        radius = abs(v @ adj @ v) / (v @ v)
        assert radius <= 1.0 + 1e-9


class TestPadGraph:
    def test_mask_marks_real_atoms(self):
        g = two_atom_graph()
        padded = mg.pad_graph(g, 4)
        np.testing.assert_array_equal(padded.mask, [True, True, False, False])
        assert padded.n_atoms == 2
        assert padded.features.shape == (2, 75)
        assert padded.features is g.features  # shared, not copied
        assert padded.norm_adjacency.shape == (2, 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_record_holds_the_first_propagation(self, seed):
        padded = mg.pad_graph(random_graph(np.random.default_rng(seed), "d", 3 + 4 * seed), 20)
        np.testing.assert_array_equal(padded.propagated,
                                      padded.norm_adjacency @ padded.features)
        assert padded.propagated.shape == (padded.n_atoms, 75)

    def test_exact_fit(self):
        padded = mg.pad_graph(two_atom_graph(), 2)
        assert padded.mask.all()
        np.testing.assert_allclose(padded.norm_adjacency, [[0.5, 0.5], [0.5, 0.5]])

    def test_capacity_error_reports_both_sizes(self):
        g = random_graph(np.random.default_rng(0), "big", 3)
        with pytest.raises(mg.GraphError, match="3 atoms.*2"):
            mg.pad_graph(g, 2)
