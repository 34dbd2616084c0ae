"""Expression/embedding/response ingestion and the dataset join."""

import csv
import io
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdrpipe import omics
from cdrpipe.molgraph import pad_graph
from cdrpipe.synthetic import random_graph


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadExpression:
    def test_small_matrix(self, tmp_path):
        p = write_csv(tmp_path / "e.csv", "cell_line_id,g1,g2,g3\nA,1,2,3\nB,4,5,6\n")
        profiles = omics.load_expression(p)
        assert [pr.cell_line_id for pr in profiles] == ["A", "B"]
        np.testing.assert_array_equal(profiles[0].values, [1.0, 2.0, 3.0])
        assert profiles[1].gene_ids == ["g1", "g2", "g3"]

    def test_negative_value(self, tmp_path):
        p = write_csv(tmp_path / "e.csv", "cell_line_id,g1\nA,-2\n")
        with pytest.raises(omics.IngestError, match="row 2.*domain"):
            omics.load_expression(p)

    def test_duplicate_cell_line(self, tmp_path):
        p = write_csv(tmp_path / "e.csv", "cell_line_id,g1\nA,1\nA,2\n")
        with pytest.raises(omics.IngestError, match="duplicate"):
            omics.load_expression(p)

    def test_repeated_gene_in_header_names_the_gene(self, tmp_path):
        p = write_csv(tmp_path / "e.csv", "cell_line_id,g1,g2,g1\nA,1,5,2\n")
        with pytest.raises(omics.IngestError, match=f"{re.escape(str(p))}: gene 'g1' appears "
                                                    f"more than once"):
            omics.load_expression(p)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        p = write_csv(tmp_path / "e.csv", "cell_line_id,g1,g2\nA,1,oops\n")
        with pytest.raises(omics.IngestError, match="row 2 column 3"):
            omics.load_expression(p)

    def test_deterministic_ordering(self, tmp_path):
        p = write_csv(tmp_path / "e.csv", "cell_line_id,g1\nB,1\nA,2\nC,3\n")
        ids = [pr.cell_line_id for pr in omics.load_expression(p)]
        assert ids == ["B", "A", "C"]  # file order, twice
        assert ids == [pr.cell_line_id for pr in omics.load_expression(p)]


# derandomized so that every run of the suite draws the same examples
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True, database=None)
TABLES = dict(n=st.integers(1, 30), m=st.integers(1, 20), seed=st.integers(0, 2**32 - 1))


def spread_values(rng, n, m):
    """An n x m table with values across the float64 exponent range."""
    return rng.normal(size=(n, m)) * 10.0 ** rng.integers(-300, 300, size=(n, m))


def write_table(path, cells):
    """Write rows of value strings under a cell_line_id header."""
    lines = ["cell_line_id," + ",".join(f"g{j}" for j in range(len(cells[0])))]
    lines += [f"C{i}," + ",".join(row) for i, row in enumerate(cells)]
    return write_csv(path, "\n".join(lines) + "\n")


def repr_cells(values):
    return [[repr(float(v)) for v in row] for row in values]


class TestTableProperties:
    @PROPERTY
    @given(**TABLES)
    def test_table_loads_back_exactly(self, tmp_path_factory, n, m, seed):
        values = spread_values(np.random.default_rng(seed), n, m)
        tmp = tmp_path_factory.mktemp("table")
        ids = [f"C{i}" for i in range(n)]

        cells = omics.load_embeddings(write_table(tmp / "signed.csv", repr_cells(values)),
                                      "raw_expression")
        assert list(cells.vectors) == ids and cells.dim == m
        assert np.array(list(cells.vectors.values())).tobytes() == values.tobytes()

        counts = np.abs(values)
        profiles = omics.load_expression(write_table(tmp / "counts.csv", repr_cells(counts)))
        assert [p.cell_line_id for p in profiles] == ids
        assert all(p.gene_ids == [f"g{j}" for j in range(m)] for p in profiles)
        assert np.array([p.values for p in profiles]).tobytes() == counts.tobytes()

    @PROPERTY
    @given(token=st.sampled_from(["oops", "", "1.2.3", "0x1p3", "1e", "--1", "nan(1)"]),
           **TABLES)
    def test_bad_value_names_its_row_and_column(self, tmp_path_factory, token, n, m, seed):
        rng = np.random.default_rng(seed)
        cells = repr_cells(np.abs(spread_values(rng, n, m)))
        row, col = int(rng.integers(n)), int(rng.integers(m))
        cells[row][col] = token
        path = write_table(tmp_path_factory.mktemp("bad") / "t.csv", cells)
        message = re.escape(f"row {row + 2} column {col + 2} is not numeric: {token!r}")
        with pytest.raises(omics.IngestError, match=message):
            omics.load_embeddings(path, "raw_expression")
        with pytest.raises(omics.IngestError, match=message):
            omics.load_expression(path)


class TestAlignGenes:
    def test_pad_and_reorder(self):
        p = omics.ExpressionProfile("A", np.array([4.0, 7.0]), ["g1", "g3"])
        np.testing.assert_array_equal(omics.align_genes(p.gene_ids, p.values, ["g1", "g2", "g3"]),
                                      [4.0, 0.0, 7.0])

    def test_empty_profile(self):
        p = omics.ExpressionProfile("A", np.zeros(0), [])
        np.testing.assert_array_equal(omics.align_genes(p.gene_ids, p.values, ["g1", "g2"]),
                                      [0.0, 0.0])

    def test_subset_reorders_and_counts_drops(self):
        p = omics.ExpressionProfile("A", np.array([1.0, 2.0, 3.0]), ["g1", "g2", "g3"])
        np.testing.assert_array_equal(omics.align_genes(p.gene_ids, p.values, ["g3", "g1"]),
                                      [3.0, 1.0])
        assert omics.alignment_stats(p, ["g3", "g1"]) == (0, 1)

    def test_output_length_matches_canonical(self):
        rng = np.random.default_rng(3)
        for n_prof, n_canon in [(0, 5), (3, 1), (10, 10)]:
            genes = [f"g{i}" for i in range(n_prof)]
            p = omics.ExpressionProfile("A", rng.uniform(size=n_prof), genes)
            canonical = [f"g{i}" for i in range(0, 2 * n_canon, 2)]
            assert omics.align_genes(p.gene_ids, p.values, canonical).shape == (len(canonical),)


class TestCpmLog1p:
    def test_direct_formula_values(self):
        got = omics.cpm_log1p(np.array([1.0, 1.0, 2.0]))
        np.testing.assert_allclose(
            got, [12.429220196836383, 12.429220196836383, 13.122365377402328], rtol=1e-15)

    def test_zero_entry_maps_to_zero(self):
        got = omics.cpm_log1p(np.array([0.0, 7.5]))
        np.testing.assert_allclose(got, [0.0, 13.815511557963774])

    def test_all_zero_vector(self):
        with pytest.raises(omics.IngestError, match="all-zero"):
            omics.cpm_log1p(np.zeros(3))

    @pytest.mark.parametrize("k", [2.0, 10.0, 1000.0])
    def test_scale_invariance_is_exact(self, k):
        # integer counts keep k*v exactly representable, so the quotient
        # v_i / sum(v) is the same real number before and after scaling
        rng = np.random.default_rng(8)
        v = rng.integers(0, 10_000, size=200).astype(float)
        v[0] = 1.0
        assert np.array_equal(omics.cpm_log1p(k * v), omics.cpm_log1p(v))


class TestLoadEmbeddings:
    def header(self, dim):
        return "cell_line_id," + ",".join(f"e{i}" for i in range(dim))

    def test_scgpt_width(self, tmp_path):
        rows = [self.header(512)] + [f"C{i}," + ",".join("0.5" for _ in range(512)) for i in range(3)]
        p = write_csv(tmp_path / "emb.csv", "\n".join(rows) + "\n")
        cells = omics.load_embeddings(p, "scgpt")
        assert cells.dim == 512
        assert set(cells.vectors) == {"C0", "C1", "C2"}

    def test_wrong_declared_width(self, tmp_path):
        rows = [self.header(768)] + ["C0," + ",".join("0.5" for _ in range(768))]
        p = write_csv(tmp_path / "emb.csv", "\n".join(rows) + "\n")
        with pytest.raises(omics.IngestError, match="768.*declares 512"):
            omics.load_embeddings(p, "scgpt")

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path / "emb.csv", self.header(512) + "\n")
        with pytest.raises(omics.IngestError, match="no cell lines"):
            omics.load_embeddings(p, "scgpt")

    def test_ragged_row(self, tmp_path):
        p = write_csv(tmp_path / "emb.csv", "cell_line_id,e0,e1\nC0,1.0\n")
        with pytest.raises(omics.IngestError, match="row 2 has 2 fields, expected 3"):
            omics.load_embeddings(p, "raw_expression")

    def test_raw_source_takes_any_width(self, tmp_path):
        p = write_csv(tmp_path / "emb.csv", "cell_line_id,e0,e1\nC0,1.0,2.0\n")
        assert omics.load_embeddings(p, "raw_expression").dim == 2


class TestLoadResponses:
    def test_valid_rows(self, tmp_path):
        body = "drug_id,cell_line_id,ic50,cancer_type\n" + "".join(
            f"D{i},C{i},{i}.5,lung\n" for i in range(5))
        records = omics.load_responses(write_csv(tmp_path / "r.csv", body))
        assert len(records) == 5
        assert records[2].ic50 == 2.5
        assert records[0].cancer_type == "lung"

    def test_missing_column(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "drug_id,ic50\nD0,1.0\n")
        with pytest.raises(omics.IngestError, match="missing columns.*cell_line_id"):
            omics.load_responses(p)

    def test_na_ic50_names_the_row(self, tmp_path):
        p = write_csv(tmp_path / "r.csv",
                      "drug_id,cell_line_id,ic50\nD0,C0,1.0\nD1,C1,NA\n")
        with pytest.raises(omics.IngestError, match="row 3"):
            omics.load_responses(p)

    @pytest.mark.parametrize("row", [",C1,2.0", "D1,,2.0"], ids=["drug", "cell_line"])
    def test_an_empty_id_names_the_file_and_row(self, tmp_path, row):
        p = write_csv(tmp_path / "r.csv", f"drug_id,cell_line_id,ic50\nD0,C0,1.0\n{row}\n")
        with pytest.raises(omics.IngestError, match=f"{re.escape(str(p))}: row 3: .*non-empty"):
            omics.load_responses(p)

    def test_a_row_wider_than_the_header_names_the_file_and_row(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "drug_id,cell_line_id,ic50\nD0,C0,1.0\nD1,C1,2.0,x\n")
        with pytest.raises(omics.IngestError,
                           match=f"{re.escape(str(p))}: row 3 has 4 fields, expected 3"):
            omics.load_responses(p)

    @pytest.mark.parametrize("row, message", [
        ("D1,C1", "{p}: row 4 has 2 fields, expected 3"),
        ("D1,C1," + "1" * (csv.field_size_limit() + 1), "{p}, line 4: unreadable CSV row"),
    ], ids=["field_count", "over_limit"])
    def test_a_row_after_a_quoted_newline_is_named_by_its_line(self, tmp_path, row, message):
        p = write_csv(tmp_path / "r.csv", f'drug_id,cell_line_id,ic50\n"D\n0",C0,1.0\n{row}\n')
        with pytest.raises(omics.IngestError, match=re.escape(message.format(p=p))):
            omics.load_responses(p)

    @PROPERTY
    @given(ids=st.lists(st.text(alphabet='ab\n,"', min_size=1, max_size=6)
                        .filter(str.strip), max_size=6),
           bad_id=st.text(alphabet='ab\n,"', min_size=1, max_size=6).filter(str.strip),
           over_limit=st.booleans())
    def test_a_bad_row_is_named_by_the_line_it_starts_on(self, tmp_path_factory, ids,
                                                        bad_id, over_limit):
        """Ids may hold quoted newlines, so a record can span lines; the
        field-count and the unreadable-row errors both name the line the bad
        record starts on."""
        good = [[d, f"C{i}", "1.0"] for i, d in enumerate(ids)]
        bad = ([bad_id + "1" * (csv.field_size_limit() + 1), "C", "1.0"] if over_limit
               else [bad_id, "C"])
        text = io.StringIO()
        writer = csv.writer(text, lineterminator="\n")
        writer.writerows([["drug_id", "cell_line_id", "ic50"], *good])
        line = text.getvalue().count("\n") + 1
        writer.writerow(bad)
        p = write_csv(tmp_path_factory.mktemp("r") / "r.csv", text.getvalue())
        message = (f"{p}, line {line}: unreadable CSV row" if over_limit
                   else f"{p}: row {line} has 2 fields, expected 3")
        with pytest.raises(omics.IngestError, match=re.escape(message)):
            omics.load_responses(p)

    def test_cancer_type_optional(self, tmp_path):
        p = write_csv(tmp_path / "r.csv", "drug_id,cell_line_id,ic50\nD0,C0,1.0\n")
        assert omics.load_responses(p)[0].cancer_type is None

    def test_unknown_cell_retained_at_load(self, tmp_path):
        p = write_csv(tmp_path / "r.csv",
                      "drug_id,cell_line_id,ic50\nD0,GHOST,1.0\n")
        records = omics.load_responses(p)
        assert records[0].cell_line_id == "GHOST"  # flagged later, at join


class TestJoin:
    def make_parts(self):
        rng = np.random.default_rng(0)
        graphs = {f"D{i}": pad_graph(random_graph(rng, f"D{i}", 4), 6) for i in range(2)}
        cells = omics.CellFeatureSet(
            "raw_expression", 3, {f"C{i}": rng.normal(size=3) for i in range(2)})
        return graphs, cells

    def test_counts(self):
        graphs, cells = self.make_parts()
        responses = [
            omics.ResponseRecord("D0", "C0", 1.0),
            omics.ResponseRecord("D1", "C1", 2.0),
            omics.ResponseRecord("DX", "C0", 3.0),   # unknown drug
            omics.ResponseRecord("D0", "CX", 4.0),   # unknown cell
            omics.ResponseRecord("DX", "CX", 5.0),   # both unknown
        ]
        dataset, stats = omics.join_dataset(responses, graphs, cells)
        assert stats.total == 5
        assert stats.matched == 2 == len(dataset)
        assert stats.missing_drug == 2
        assert stats.missing_cell == 2
        assert [r.drug_id for r in dataset.records] == ["D0", "D1"]

    def test_gene_list_round_trip(self, tmp_path):
        p = write_csv(tmp_path / "genes.txt", "g1\ng2\n\ng3\n")
        assert omics.load_gene_list(p) == ["g1", "g2", "g3"]
        bad = write_csv(tmp_path / "dup.txt", "g1\ng1\n")
        with pytest.raises(omics.IngestError, match="duplicate"):
            omics.load_gene_list(bad)

    def test_expression_feature_set_applies_cpm(self, tmp_path):
        profiles = [omics.ExpressionProfile("A", np.array([1.0, 1.0, 2.0]), ["g1", "g2", "g3"])]
        cells = omics.expression_feature_set(profiles, ["g1", "g2", "g3", "g4"])
        assert cells.dim == 4
        np.testing.assert_allclose(
            cells.vectors["A"][:3],
            [12.429220196836383, 12.429220196836383, 13.122365377402328])
        assert cells.vectors["A"][3] == 0.0

    def test_stacked_features_equal_each_profile_on_its_own(self):
        """Aligning and scaling the stacked table is the per-profile arithmetic."""
        rng = np.random.default_rng(4)
        genes = [f"g{i}" for i in range(300)]
        canonical = [f"g{i}" for i in rng.permutation(320)]  # drops none, pads 20
        values = rng.integers(0, 10_000, size=(7, 300)).astype(float)
        profiles = [omics.ExpressionProfile(f"C{i}", row, genes) for i, row in enumerate(values)]
        cells = omics.expression_feature_set(profiles, canonical)
        for p in profiles:
            alone = omics.cpm_log1p(omics.align_genes(genes, p.values, canonical))
            assert cells.vectors[p.cell_line_id].tobytes() == alone.tobytes()

    def test_a_row_without_canonical_counts_names_its_cell_line(self):
        profiles = [omics.ExpressionProfile("A", np.array([1.0, 0.0]), ["g1", "g9"]),
                    omics.ExpressionProfile("B", np.array([0.0, 5.0]), ["g1", "g9"])]
        with pytest.raises(omics.IngestError, match="cell line 'B': no counts"):
            omics.expression_feature_set(profiles, ["g1", "g2"])

    def test_expression_feature_set_needs_one_gene_list(self):
        profiles = [omics.ExpressionProfile("A", np.array([1.0, 2.0]), ["g1", "g2"]),
                    omics.ExpressionProfile("B", np.array([2.0, 1.0]), ["g2", "g1"])]
        with pytest.raises(omics.IngestError, match="cell line 'B': gene list differs"):
            omics.expression_feature_set(profiles, ["g1", "g2"])


class TestColumns:
    """The integer columns a dataset codes its records into when it is built."""

    DRUGS = ["D0", "D1", "D2", "D3"]
    CELLS = ["C0", "C1", "C2"]

    @classmethod
    def cells(cls, dim, seed):
        rng = np.random.default_rng(seed)
        return omics.CellFeatureSet("raw_expression", dim,
                                    {c: rng.normal(size=dim) for c in cls.CELLS})

    @staticmethod
    def columns(ds):
        return (ds.drug_ids, ds.cell_ids, ds.drug_index.tolist(), ds.cell_index.tolist(),
                ds.labels().tolist())

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), pairs=st.lists(
        st.tuples(st.sampled_from(DRUGS), st.sampled_from(CELLS),
                  st.floats(-1e6, 1e6, allow_nan=False)), max_size=25))
    def test_columns_round_trip_and_subsets_code_by_id(self, data, pairs):
        graphs = {d: object() for d in self.DRUGS}
        records = [omics.ResponseRecord(d, c, y) for d, c, y in pairs]
        ds = omics.ResponseDataset(records, graphs, self.cells(3, 0))

        assert ds.drug_ids == list(dict.fromkeys(r.drug_id for r in records))
        assert ds.cell_ids == list(dict.fromkeys(r.cell_line_id for r in records))
        assert ds.drug_index.dtype == ds.cell_index.dtype == np.intp
        for k, r in enumerate(records):
            assert ds.drug_ids[ds.drug_index[k]] == r.drug_id
            assert ds.cell_ids[ds.cell_index[k]] == r.cell_line_id
            assert ds.labels()[k] == r.ic50
        assert len(ds) == len(ds.labels()) == len(records)

        outer = [r for r in records if data.draw(st.booleans())]
        inner = [r for r in outer if data.draw(st.booleans())]
        assert self.columns(ds.subset(outer).subset(inner)) == self.columns(ds.subset(inner))
        assert ds.subset(outer).subset(inner).records == inner

        # a sibling source: the same responses loaded again, other cell vectors
        other = self.cells(2, 1)
        sibling = omics.ResponseDataset(
            [omics.ResponseRecord(r.drug_id, r.cell_line_id, r.ic50) for r in records],
            graphs, other)
        borrowed = sibling.subset(outer)
        assert borrowed.cells is other and borrowed.graphs is graphs
        assert self.columns(borrowed) == self.columns(ds.subset(outer))

    def test_empty_subset(self):
        ds = omics.ResponseDataset([omics.ResponseRecord("D0", "C0", 1.0)], {}, self.cells(3, 0))
        empty = ds.subset([])
        assert len(empty) == 0 and empty.records == []
        assert empty.drug_ids == empty.cell_ids == []
        assert empty.drug_index.shape == empty.cell_index.shape == empty.labels().shape == (0,)
        assert empty.drug_index.dtype == np.intp

    def test_columns_are_read_only_and_built_once(self):
        record = omics.ResponseRecord("D0", "C0", 1.0)
        ds = omics.ResponseDataset([record], {}, self.cells(3, 0))
        for column in (ds.drug_index, ds.cell_index, ds.labels()):
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0
        record.ic50 = 2.0
        assert ds.labels().tolist() == [1.0]
