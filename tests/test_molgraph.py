"""Molecular graph loading, normalization, and the atom capacity check."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdrpipe import molgraph as mg, tables
from cdrpipe.synthetic import random_graph
from oracles import reference_bonds, reference_normalized_adjacency


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


DEFECTS = ["outside", "negative", "self_loop", "repeat", "reversed"]


@st.composite
def bond_lists(draw):
    """``(n, bonds, degrees)``: distinct bonds in either orientation, with up
    to three defects inserted anywhere (an index at or past ``n``, a
    negative index, a self-loop, an earlier bond again as written or
    reversed), and degrees the in-range bonds give, one of them maybe off
    by one."""
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    bonds = [pair if draw(st.booleans()) else pair[::-1]
             for pair in draw(st.lists(st.sampled_from(pairs), unique=True))] if pairs else []
    for defect in draw(st.lists(st.sampled_from(DEFECTS), max_size=3)):
        atom = st.integers(0, n - 1)
        if defect == "outside":
            bond = (draw(atom), draw(st.integers(n, n + 2)))
        elif defect == "negative":
            bond = (draw(st.integers(-3, -1)), draw(st.integers(-3, n + 2)))
        elif defect == "self_loop":
            bond = (draw(atom),) * 2
        elif bonds:
            bond = draw(st.sampled_from(bonds))
            bond = bond if defect == "repeat" else bond[::-1]
        else:
            continue
        bonds.insert(draw(st.integers(0, len(bonds))), bond if draw(st.booleans()) else bond[::-1])
    degrees = np.zeros(n, dtype=np.int64)
    for i, j in bonds:
        if 0 <= min(i, j) and max(i, j) < n:
            degrees[[i, j]] += 1
    if draw(st.booleans()):
        degrees[draw(st.integers(0, n - 1))] += draw(st.sampled_from([-1, 1]))
    return n, bonds, degrees


def graph_or_message(build):
    try:
        return build()
    except mg.GraphError as exc:
        return str(exc)


class TestMolecularGraph:
    def test_bonds_are_held_as_canonical_pairs_in_their_given_order(self):
        g = mg.MolecularGraph("x", np.zeros((3, 75)), [(2, 0), (1, 0)], np.array([2, 1, 1]))
        assert g.adjacency.dtype == np.int64
        assert g.adjacency.tolist() == [[0, 2], [0, 1]]

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(drawn=bond_lists(), as_array=st.booleans())
    def test_array_checks_match_the_one_bond_at_a_time_oracle(self, drawn, as_array):
        """The same canonical bonds and normalized adjacency bytes, or the
        same first error, whether the bonds come as a list or, as
        ``load_graph`` gives them, as an integer array."""
        n, bonds, degrees = drawn
        given_bonds = np.array(bonds, dtype=np.int64).reshape(-1, 2) if as_array else bonds
        got = graph_or_message(
            lambda: mg.MolecularGraph("d", np.zeros((n, 75)), given_bonds, degrees))
        expected = graph_or_message(lambda: reference_bonds("d", n, bonds, degrees))
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got.adjacency.dtype == np.int64
            assert got.adjacency.shape == (len(expected), 2)
            assert got.adjacency.tolist() == [list(pair) for pair in expected]
            assert (mg.normalized_adjacency(got).tobytes()
                    == reference_normalized_adjacency(n, expected).tobytes())


class TestLoadGraph:
    def test_valid_two_atom_graph(self, tmp_path):
        rng = np.random.default_rng(1)
        feats = rng.normal(size=(2, 75))
        paths = write_graph_files(tmp_path, feats, [(0, 1)], [1, 1])
        g = mg.load_graph(*paths, drug_id="d1")
        assert g.n_atoms == 2
        assert g.adjacency.tolist() == [[0, 1]]
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
        assert back.adjacency.dtype == np.int64
        np.testing.assert_array_equal(back.adjacency, g.adjacency)
        np.testing.assert_array_equal(back.degrees, g.degrees)
        np.testing.assert_array_equal(back.features, g.features)


EDGE_VALUES = [-0.0, 0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308, -1e308,
               1.7976931348623157e308]
VARIANTS = ["blank_lines", "crlf", "quoted", "whitespace_line", "wrong_width", "non_numeric",
            "underscore", "over_limit", "control_space"]


@st.composite
def headerless_texts(draw):
    """``(width, text)``: a headerless table of ``repr``-written finite
    floats and integers, maybe with a byte-order mark and a final line end,
    and with some of VARIANTS applied."""
    width, n = draw(st.integers(1, 4)), draw(st.integers(0, 5))
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                      st.integers(-2**63, 2**63).map(str), st.sampled_from(EDGE_VALUES).map(repr))
    rows = [draw(st.lists(value, min_size=width, max_size=width)) for _ in range(n)]
    variants = {draw(st.sampled_from([None, *VARIANTS])) for _ in range(2)} - {None}
    field = st.tuples(st.integers(0, n - 1), st.integers(0, width - 1)) if n else st.nothing()
    if n and "quoted" in variants:
        i, j = draw(field)
        rows[i][j] = f'"{rows[i][j]}"'
    if n and "non_numeric" in variants:
        i, j = draw(field)
        rows[i][j] = draw(st.sampled_from(["oops", "", "1.2.3", "0x1p3", "nan(1)", "1e"]))
    if n and "control_space" in variants:  # loadtxt strips it, float() does not
        i, j = draw(field)
        space = draw(st.sampled_from(tables._LOADTXT_ONLY_SPACES))
        rows[i][j] = draw(st.sampled_from([space + rows[i][j], rows[i][j] + space]))
    if n and "underscore" in variants:
        i, j = draw(field)
        rows[i][j] = "1_0"
    if n and "over_limit" in variants:
        i, j = draw(field)
        rows[i][j] += " " * csv.field_size_limit()
    if n and "wrong_width" in variants:
        row = rows[draw(st.integers(0, n - 1))]
        row.append("1") if draw(st.booleans()) or width == 1 else row.pop()
    lines = [",".join(row) for row in rows]
    if "whitespace_line" in variants:
        lines.insert(draw(st.integers(0, n)), draw(st.sampled_from([" ", "\t", "\u3000", "\x0c"])))
    if "blank_lines" in variants:
        lines.insert(draw(st.integers(0, len(lines))), "")
    end = "\r\n" if "crlf" in variants else "\n"
    text = end.join(lines) + (end if lines and draw(st.booleans()) else "")
    return width, ("\ufeff" if draw(st.booleans()) else "") + text


def headerless(read, path, width):
    """A headerless reader's matrix bytes and lines, or its error message."""
    try:
        matrix, lines = read(path, mg.GraphError, width)
    except mg.GraphError as exc:
        return str(exc)
    return matrix.dtype, matrix.shape, matrix.tobytes(), lines


class TestReadHeaderless:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(drawn=headerless_texts())
    @pytest.mark.filterwarnings("error::UserWarning")  # loadtxt's warning on an empty table
    def test_loadtxt_gives_the_row_readers_table_or_error(self, tmp_path_factory, drawn):
        width, text = drawn
        path = tmp_path_factory.mktemp("h") / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        read = headerless(tables.read_headerless, path, width)
        assert read == headerless(tables._headerless_rows, path, width)
        plain = tables._plain_headerless(path, width)
        if plain is not None:
            assert plain[1] == list(range(1, len(plain[1]) + 1))

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
        assert padded.propagated.shape == (2, 75)
        assert not hasattr(padded, "features")  # the record keeps ÂX, not X
        assert padded.norm_adjacency.shape == (2, 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_record_holds_the_first_propagation(self, seed):
        g = random_graph(np.random.default_rng(seed), "d", 3 + 4 * seed)
        padded = mg.pad_graph(g, 20)
        np.testing.assert_array_equal(padded.propagated, padded.norm_adjacency @ g.features)
        assert padded.propagated.shape == (padded.n_atoms, 75)

    def test_exact_fit(self):
        padded = mg.pad_graph(two_atom_graph(), 2)
        assert padded.mask.all()
        np.testing.assert_allclose(padded.norm_adjacency, [[0.5, 0.5], [0.5, 0.5]])

    def test_capacity_error_reports_both_sizes(self):
        g = random_graph(np.random.default_rng(0), "big", 3)
        with pytest.raises(mg.GraphError, match="3 atoms.*2"):
            mg.pad_graph(g, 2)
