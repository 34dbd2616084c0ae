"""Expression/embedding/response ingestion and the dataset join."""

import contextlib
import csv
import io
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdrpipe import omics, tables
from cdrpipe.molgraph import GraphError, pad_graph
from cdrpipe.synthetic import random_graph
from oracles import float64_table, reference_expression_features


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestExpressionProfile:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0,
                                     np.array([-1, 1], dtype=np.int32)])
    def test_a_value_outside_the_domain_names_the_cell_line(self, bad):
        values = bad if isinstance(bad, np.ndarray) else [bad, 1.0]
        with pytest.raises(omics.IngestError, match=re.escape(
                "cell line 'c1': expression value outside the non-negative finite domain")):
            omics.ExpressionProfile("c1", values, ["a", "b"])

    @pytest.mark.parametrize("dtype", [np.int32, np.float64])
    def test_a_wrong_length_names_the_cell_line(self, dtype):
        with pytest.raises(omics.IngestError,
                           match=re.escape("cell line 'c1': 3 values for 2 genes")):
            omics.ExpressionProfile("c1", np.array([1, 2, 3], dtype=dtype), ["a", "b"])

    def test_a_float64_array_is_kept_as_it_is(self):
        values = np.array([3, 0], dtype=np.float64)
        assert omics.ExpressionProfile("c1", values, ["a", "b"]).values is values

    @pytest.mark.parametrize("values", [[3, 0], [3.0, 0.0], np.array([3, 0], dtype=np.int32),
                                        np.array([3, 0], dtype=np.int64),
                                        np.array([3, 0], dtype=np.float32)])
    def test_any_other_input_becomes_float64(self, values):
        got = omics.ExpressionProfile("c1", values, ["a", "b"]).values
        assert got.dtype == np.float64 and got.tolist() == [3.0, 0.0]


class TestLoadExpression:
    def test_small_matrix(self, tmp_path):
        p = write_csv(tmp_path / "e.csv", "cell_line_id,g1,g2,g3\nA,1,2,3\nB,4,5,6\n")
        profiles = omics.load_expression(p)
        assert [pr.cell_line_id for pr in profiles] == ["A", "B"]
        np.testing.assert_array_equal(profiles[0].values, [1.0, 2.0, 3.0])
        assert profiles[1].gene_ids == ["g1", "g2", "g3"]

    @pytest.mark.parametrize("five", ["5", "5.5"])
    def test_profiles_are_views_of_one_matrix(self, tmp_path, five):
        """A count table's profiles, and any other table's, are float64 rows
        of one matrix."""
        profiles = omics.load_expression(write_csv(tmp_path / "e.csv", "cell_line_id,g1,g2\n"
                                                   f"A,1,2\nB,4,{five}\nC,0,7\n"))
        table = profiles[0].values.base
        assert table.dtype == np.float64 and table.shape == (3, 2)
        for row, profile in zip(table, profiles):
            assert profile.values.dtype == np.float64 and np.shares_memory(profile.values, table)
            assert profile.values.tobytes() == row.tobytes()
        assert table.tolist() == [[1, 2], [4, float(five)], [0, 7]]

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

    def test_a_domain_error_after_a_blank_line_names_the_line(self, tmp_path):
        p = write_csv(tmp_path / "e.csv", "cell_line_id,g1,g2\nA,1,2\n\nB,3,-4\n")
        with pytest.raises(omics.IngestError, match=re.escape(
                f"{p}: row 4 column 3 is outside the non-negative expression domain")):
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


def one_profile_features(values, genes, canonical):
    """The raw-expression features of a set holding one profile, cell line A."""
    profile = omics.ExpressionProfile("A", np.asarray(values, dtype=float), genes)
    return omics.expression_feature_set([profile], canonical).vectors["A"]


def cpm_formula(values):
    """CPM-log1p as written."""
    return np.log1p(values / values.sum() * 1e6)


class TestAlignGenes:
    def test_pad_and_reorder(self):
        got = one_profile_features([4.0, 7.0], ["g1", "g3"], ["g1", "g2", "g3"])
        assert got.tobytes() == cpm_formula(np.array([4.0, 0.0, 7.0])).tobytes()

    def test_empty_profile(self):
        with pytest.raises(omics.IngestError, match="cell line 'A': no counts"):
            one_profile_features([], [], ["g1", "g2"])

    def test_subset_reorders_and_counts_drops(self):
        got = one_profile_features([1.0, 2.0, 3.0], ["g1", "g2", "g3"], ["g3", "g1"])
        assert got.tobytes() == cpm_formula(np.array([3.0, 1.0])).tobytes()
        p = omics.ExpressionProfile("A", np.array([1.0, 2.0, 3.0]), ["g1", "g2", "g3"])
        assert omics.alignment_stats(p, ["g3", "g1"]) == (0, 1)

    def test_output_length_matches_canonical(self):
        rng = np.random.default_rng(3)
        for n_prof, n_canon in [(1, 5), (3, 1), (10, 10)]:
            genes = [f"g{i}" for i in range(n_prof)]
            canonical = [f"g{i}" for i in range(0, 2 * n_canon, 2)]
            got = one_profile_features(rng.uniform(0.1, 1.0, size=n_prof), genes, canonical)
            assert got.shape == (len(canonical),)


class TestCpmLog1p:
    def test_direct_formula_values(self):
        got = one_profile_features([1.0, 1.0, 2.0], ["g1", "g2", "g3"], ["g1", "g2", "g3"])
        np.testing.assert_allclose(
            got, [12.429220196836383, 12.429220196836383, 13.122365377402328], rtol=1e-15)

    def test_zero_entry_maps_to_zero(self):
        got = one_profile_features([0.0, 7.5], ["g1", "g2"], ["g1", "g2"])
        np.testing.assert_allclose(got, [0.0, 13.815511557963774])

    def test_all_zero_vector(self):
        with pytest.raises(omics.IngestError, match="cell line 'A': no counts .*all-zero"):
            one_profile_features(np.zeros(3), ["g1", "g2", "g3"], ["g1", "g2", "g3"])

    @pytest.mark.parametrize("k", [2.0, 10.0, 1000.0])
    def test_scale_invariance_is_exact(self, k):
        # integer counts keep k*v exactly representable, so the quotient
        # v_i / sum(v) is the same real number before and after scaling
        rng = np.random.default_rng(8)
        v = rng.integers(0, 10_000, size=200).astype(float)
        v[0] = 1.0
        genes = [f"g{i}" for i in range(200)]
        assert np.array_equal(one_profile_features(k * v, genes, genes),
                              one_profile_features(v, genes, genes))


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

    @pytest.mark.filterwarnings("error")
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

    def test_a_non_finite_value_after_a_quoted_newline_names_the_line(self, tmp_path):
        p = write_csv(tmp_path / "emb.csv", 'cell_line_id,e0\n"A\nx",1\nB,nan\n')
        with pytest.raises(omics.IngestError, match=re.escape(f"{p}: row 4 column 2 is not finite")):
            omics.load_embeddings(p, "raw_expression")


def csv_line(fields):
    """One CSV record without its line end, quoted where csv needs it."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\r\n").writerow(fields)
    return text.getvalue()[:-2]


# whitespace that both np.loadtxt and float() strip around a number
PADDING = " \t\x0b\x0c\u2000\u3000"
EDGE_VALUES = [5e-324, -2.5e-320, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1e300, 1e-300, 0.0, -0.0]
FORMATS = [repr, "{:.17g}".format, "{:.6e}".format, "{:.3f}".format]
ARABIC_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                            "\u0665\u0666\u0667\u0668\u0669")


@st.composite
def number_texts(draw):
    """A float written in one of the formats tables are saved in, maybe
    padded with whitespace."""
    value = draw(st.one_of(st.floats(), st.sampled_from(EDGE_VALUES)))
    pad = st.text(PADDING, max_size=2)
    return draw(pad) + draw(st.sampled_from(FORMATS))(value) + draw(pad)


@st.composite
def numeric_tables(draw, plain=True):
    """(header, rows) of a valid table keyed by cell_line_id. Each row holds
    floats or, as a count table's rows do, integers below 2**31, so a table
    read in small blocks mixes int32 and float64 blocks. A table that is
    not plain holds one thing np.loadtxt must not see: an id csv quotes, or
    a value only float() reads."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    # the index keeps the ids distinct
    ids = [draw(st.text("aB #._-\u00e9", max_size=3)) + str(i) for i in range(n)]
    rows = [[ids[i]] + draw(st.lists(integer_tokens(2**31 - 1) if draw(st.booleans())
                                     else number_texts(), min_size=m, max_size=m))
            for i in range(n)]
    if not plain:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(1, m))
        kind = draw(st.sampled_from(["quoted_id", "underscore", "arabic"]))
        if kind == "quoted_id":
            rows[i][0] = ids[i][:-1] + draw(st.sampled_from([",", '"', "\n", "\r\n"])) + ids[i][-1]
        elif kind == "underscore":
            rows[i][j] = f"{draw(st.integers(1, 99))}_{draw(st.integers(0, 9))}"
        else:
            rows[i][j] = str(draw(st.integers(0, 10**6))).translate(ARABIC_DIGITS)
    return ["cell_line_id"] + [f"g{j}" for j in range(m)], rows


@st.composite
def table_texts(draw, header, rows):
    """The table's text with blank lines between rows, LF or CRLF line ends
    and maybe no end on the last line."""
    ends = st.sampled_from(["\n", "\r\n"])
    text = csv_line(header)
    for row in rows:
        text += draw(ends) + "".join(draw(ends) for _ in range(draw(st.integers(0, 1))))
        text += csv_line(row)
    return text + (draw(ends) if draw(st.booleans()) else "")


def read_cells(path, **patches):
    """omics._read_cells' result, or its error message, with ``patches``
    set on the tables module."""
    with mock.patch.multiple(tables, **patches) if patches else contextlib.nullcontext():
        try:
            ids, columns, matrix, lines = omics._read_cells(path)
        except omics.IngestError as exc:
            return str(exc)
    return ids, columns, matrix.dtype, matrix.shape, matrix.tobytes(), lines


def no_row_reader(path, error, key):
    raise AssertionError("a plain table reached the row reader")


def not_plain(*args):
    raise tables.NotPlain


# leaves every table to the row reader
ROW_READER = dict(read_blocks=not_plain)
# block sizes at which the drawn tables span one block or up to one per row
SMALL_BLOCKS = st.integers(4, 11).map(lambda k: 2**k)


class TestReadMatrix:
    """np.loadtxt reads plain tables a block at a time; every other table
    goes to the row reader, and both readers give the same result."""

    @settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), plain=st.booleans(), block_bytes=SMALL_BLOCKS)
    @pytest.mark.filterwarnings("error::UserWarning")  # loadtxt's warning on an empty table
    def test_both_readers_return_the_same_table(self, tmp_path_factory, data, plain,
                                                block_bytes):
        header, rows = data.draw(numeric_tables(plain))
        path = write_csv(tmp_path_factory.mktemp("m") / "t.csv",
                         data.draw(table_texts(header, rows)))
        row_reader = no_row_reader if plain else mock.Mock(wraps=tables._read_rows)
        with mock.patch.object(tables, "BLOCK_BYTES", block_bytes):
            read = read_cells(path, _read_rows=row_reader)
            assert not isinstance(read, str)
            assert read == read_cells(path, **ROW_READER)
        assert read[0] == [row[0] for row in rows]
        assert read[2] == np.float64
        assert plain or row_reader.called

    @pytest.mark.parametrize("defect", ["short", "long", "non_numeric", "repeated_id",
                                        "over_limit", "header_only", "bad_header"])
    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), block_bytes=SMALL_BLOCKS)
    @pytest.mark.filterwarnings("error::UserWarning")  # loadtxt's warning on an empty table
    def test_both_readers_raise_the_same_error(self, tmp_path_factory, data, defect,
                                               block_bytes):
        header, rows = data.draw(numeric_tables())
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(1, len(header) - 1))
        if defect == "short":
            rows[i].pop()
        elif defect == "long":
            rows[i].append("1.0")
        elif defect == "non_numeric":
            rows[i][j] = data.draw(st.sampled_from(["oops", "", " ", "1.2.3", "0x1p3", "1e",
                                                    "\x1c1", "1\x1f"]))
        elif defect == "repeated_id":
            rows.insert(i, list(rows[i]))
        elif defect == "over_limit":
            rows[i][data.draw(st.sampled_from([0, j]))] += " " * csv.field_size_limit()
        elif defect == "header_only":
            rows = []
        else:
            header[0] = data.draw(st.sampled_from(["", "cell", " cell_line_id", '"cell_line_id"']))
        path = write_csv(tmp_path_factory.mktemp("m") / "t.csv",
                         data.draw(table_texts(header, rows)))
        with mock.patch.object(tables, "BLOCK_BYTES", block_bytes):
            message = read_cells(path)
            assert isinstance(message, str)
            assert message == read_cells(path, **ROW_READER)

    @pytest.mark.parametrize("value", ["\x1c1", "1\x1f"])
    def test_a_value_only_loadtxt_reads_is_not_numeric(self, tmp_path, value):
        """loadtxt strips these ASCII controls around a number; float() does not."""
        p = write_csv(tmp_path / "t.csv", f"cell_line_id,g1\nA,1\nB,{value}\n")
        with pytest.raises(omics.IngestError, match=re.escape(
                f"{p}: row 3 column 2 is not numeric: {value!r}")):
            omics.load_embeddings(p, "raw_expression")



INTEGER_EDGES = [0, 1, 2**31 - 1, 2**31, 2**31 + 1, 2**53 - 1, 2**53, 2**53 + 1, 2**62 + 1,
                 2**63 - 2, 2**63 - 1]
# tokens that send an integer table back to the float64 read: a -0 int32
# would read as +0.0, a float, an int32 overflow, an int64 one, a negative
# count, a value only float() reads, and one no reader takes
LATE_TOKENS = ["-0", "-00", "1.5", "1e3", str(2**31), str(2**63), str(2**64 + 1), "-7", "1_0",
               "oops"]


@st.composite
def integer_tokens(draw, top):
    """An integer from 0 to ``top``, maybe zero-padded or ``+``-signed,
    with spaces or a tab around it."""
    edges = [edge for edge in INTEGER_EDGES if edge <= top]
    text = str(draw(st.one_of(st.integers(0, top), st.sampled_from(edges))))
    text = "0" * draw(st.integers(0, 2)) + text
    text = draw(st.sampled_from(["", "+"])) + text
    pad = st.sampled_from(["", "", "", " ", "  ", "\t"])
    return draw(pad) + text + draw(pad)


@st.composite
def integer_tables(draw, keyed):
    """The text of an integer table, keyed by cell_line_id or headerless,
    with blank lines, LF or CRLF line ends and maybe a byte-order mark. Its
    values are below 2**31 or below 2**63, and one row after the first may
    hold one of LATE_TOKENS."""
    late = draw(st.none() | st.sampled_from(LATE_TOKENS))
    top = draw(st.sampled_from([2**31 - 1, 2**63 - 1]))
    n, m = draw(st.integers(1 if late is None else 2, 6)), draw(st.integers(1, 4))
    rows = [[draw(integer_tokens(top)) for _ in range(m)] for _ in range(n)]
    if late is not None:
        rows[draw(st.integers(1, n - 1))][draw(st.integers(0, m - 1))] = late
    lines = [",".join(row) for row in rows]
    if keyed:
        ids = st.sampled_from(["C", "ACH-", "x y"])
        lines = (["cell_line_id," + ",".join(f"g{j}" for j in range(m))]
                 + [f"{draw(ids)}{i}," + line for i, line in enumerate(lines)])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        lines.insert(draw(st.integers(1 if keyed else 0, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    text = end.join(lines) + (end if draw(st.booleans()) else "")
    return m, ("\ufeff" if draw(st.booleans()) else "") + text


def read_as_int32(text):
    """Whether a keyed integer table's text, read as one block, falls under
    the int32 rule: its first data row's values hold only ASCII digits,
    ``+``, spaces and commas, and every value is an unsigned integer below
    2**31, maybe padded with spaces or tabs."""
    rows = [line.split(",", 1)[1] for line in text.lstrip("\ufeff").split("\n")[1:]
            if line.rstrip("\r")]
    values = [v.rstrip("\r") for row in rows for v in row.split(",")]
    return (set(rows[0].rstrip("\r")) <= set("0123456789+ ,")
            and all(re.fullmatch(r"[ \t]*\+?[0-9]+[ \t]*", v) and int(v) < 2**31
                    for v in values))


def headerless_read(path, width):
    """tables.read_headerless' matrix and lines, or its error message."""
    try:
        return tables.read_headerless(path, GraphError, width)
    except GraphError as exc:
        return str(exc)


def same_read(got, want):
    """Whether two reads, ``(..., matrix, lines)`` or messages, are equal
    in every field and in the matrix's dtype, shape and bytes."""
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    return (got[:-2] == want[:-2] and got[-1] == want[-1]
            and (got[-2].dtype, got[-2].shape, got[-2].tobytes())
            == (want[-2].dtype, want[-2].shape, want[-2].tobytes()))


def block_dtypes(path):
    """The dtype of each block ``tables.read_blocks`` reads of a keyed
    table, or None where it leaves the table to the row reader."""
    try:
        with tables.read_blocks(path, "cell_line_id", {}, []) as (_, _, blocks):
            return [block.dtype for _, block in blocks]
    except tables.NotPlain:
        return None


class TestIntegerTables:
    """Integer blocks below 2**31 are parsed as int32, and every read
    gives the float64 read's values, ids, lines and messages."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), keyed=st.booleans())
    @pytest.mark.filterwarnings("error::UserWarning")  # loadtxt's warning on an empty table
    def test_both_readers_give_the_float64_read(self, tmp_path_factory, data, keyed):
        """A keyed table's one block is int32 exactly where the int32 rule
        holds, and its read is float64 with the float64 read's bytes; a
        headerless read is float64 too."""
        width, text = data.draw(integer_tables(keyed))
        path = tmp_path_factory.mktemp("i") / "t.csv"
        path.write_bytes(text.encode("utf-8"))
        if keyed:
            dtypes = block_dtypes(path)
            if read_as_int32(text):
                assert dtypes == [np.int32]
            else:
                assert dtypes in (None, [np.float64])
            try:
                got = omics._read_cells(path)
            except omics.IngestError as exc:
                got = str(exc)
        else:
            got = headerless_read(path, width)
        assert same_read(got, float64_table(path, keyed))

    def test_a_count_table_is_parsed_as_int32(self, tmp_path):
        """Ids may hold ``-``; only the values decide."""
        p = write_csv(tmp_path / "e.csv", "cell_line_id,g1,g2\nACH-1,+1, 2\nACH-2,3,04\n")
        with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            ids, _, matrix, _ = omics._read_cells(p)
        assert [call.kwargs["dtype"] for call in loadtxt.call_args_list] == [np.int32]
        assert ids == ["ACH-1", "ACH-2"]
        assert matrix.dtype == np.float64 and matrix.tolist() == [[1, 2], [3, 4]]

    @pytest.mark.parametrize("numpy_reads", ["as installed", "integers through float"])
    @pytest.mark.parametrize("late", ["1.5", str(2**31), str(2**63)])
    def test_a_plain_caller_gets_the_float64_read(self, tmp_path, numpy_reads, late):
        """Outside pytest's warning filters, which hide a DeprecationWarning
        raised in library code, a value int32 rejects still sends the table
        to the float64 read, also where numpy reads it through a float and
        only warns, as releases did while that parse was deprecated."""
        loadtxt = np.loadtxt

        def loadtxt_reading_integers_through_float(lines, **kw):
            if kw["dtype"] is not np.int32:
                return loadtxt(lines, **kw)
            lines = list(lines)
            try:
                return loadtxt(lines, **kw)
            except ValueError:
                warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                              DeprecationWarning, stacklevel=2)
                return loadtxt(lines, **{**kw, "dtype": np.float64}).astype(np.int32)

        p = write_csv(tmp_path / "e.csv", f"cell_line_id,g1,g2\nA,1,2\nB,3,{late}\n")
        with contextlib.ExitStack() as stack:
            if numpy_reads == "integers through float":
                stack.enter_context(mock.patch.object(
                    np, "loadtxt", loadtxt_reading_integers_through_float))
            stack.enter_context(warnings.catch_warnings())
            warnings.simplefilter("ignore")
            matrix = tables.read_matrix(p, omics.IngestError, "cell_line_id")[2]
        assert matrix.dtype == np.float64
        assert matrix.tolist() == [[1.0, 2.0], [3.0, float(late)]]

    @pytest.mark.parametrize("kind", ["counts", "floats"])
    def test_a_keyed_read_peaks_at_the_matrix_and_one_block(self, tmp_path, kind):
        """A keyed read of an n x g table peaks below its float64 matrix and
        one block, n*g*8 + tables.BLOCK_BYTES bytes, plus 10%: it holds one
        block's text and values at a time, whether the blocks are int32 or
        float64, and makes no copy of the matrix."""
        n, g = 1000, 512
        rng = np.random.default_rng(38)
        table = (rng.integers(0, 10**6, size=(n, g)) if kind == "counts"
                 else rng.normal(size=(n, g))).tolist()
        p = write_csv(tmp_path / "t.csv", "\n".join(
            ["cell_line_id," + ",".join(f"g{j}" for j in range(g))]
            + [f"C{i}," + ",".join(map(repr, row)) for i, row in enumerate(table)]) + "\n")

        def peak_of_read():
            tracemalloc.start()
            try:
                matrix = tables.read_matrix(p, omics.IngestError, "cell_line_id")[2]
                return matrix, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak_of_read()  # the first read's one-time costs
        matrix, peak = peak_of_read()
        assert matrix.dtype == np.float64
        assert matrix.tobytes() == np.array(table, dtype=np.float64).tobytes()
        assert peak < 1.1 * (n * g * 8 + tables.BLOCK_BYTES)


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

    def test_a_repeated_pair_names_both_rows(self, tmp_path):
        p = write_csv(tmp_path / "r.csv",
                      "drug_id,cell_line_id,ic50\nD0,C0,1.0\nD0,C1,2.0\nD0,C0,3.0\n")
        with pytest.raises(omics.IngestError, match=re.escape(
                f"{p}: row 4: duplicate (drug_id, cell_line_id) ('D0', 'C0') (first at row 2)")):
            omics.load_responses(p)

    def test_records_share_one_str_per_distinct_id(self, tmp_path):
        """The csv reader gives each row fresh strs, and a screen repeats each
        drug id once per cell line: a str per row would be most of the
        loaded table."""
        body = "drug_id,cell_line_id,ic50,cancer_type\n" + "".join(
            f"D{d},C{c},1.0,{'lung' if c % 2 else 'skin'}\n" for d in range(4) for c in range(6))
        records = omics.load_responses(write_csv(tmp_path / "r.csv", body))
        for column in ("drug_id", "cell_line_id", "cancer_type"):
            values = [getattr(r, column) for r in records]
            assert len({id(v) for v in values}) == len(set(values)), column

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
        cells = omics.CellFeatureSet("raw_expression", 3, ["C0", "C1"], rng.normal(size=(2, 3)))
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

    def test_a_repeated_gene_is_named_with_the_lines_of_both_copies(self, tmp_path):
        p = write_csv(tmp_path / "genes.txt", "g1\ng2\n\n g3\ng2\ng1\n")
        with pytest.raises(omics.IngestError, match=re.escape(
                f"{p}: gene list has duplicate entries: 'g2' on lines 2 and 5")):
            omics.load_gene_list(p)

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
            alone = omics.expression_feature_set([p], canonical).vectors[p.cell_line_id]
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


class TestExpressionFeatureMatrix:
    """The raw-expression features are built in one matrix, with the bytes
    of the stack-then-fancy-index-then-scale construction."""

    @settings(max_examples=60, deadline=None)
    @given(n_cells=st.integers(1, 40), n_shared=st.integers(1, 30),
           n_absent=st.integers(0, 10), n_extra=st.integers(0, 10),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_the_stacked_construction_byte_for_byte(self, n_cells, n_shared,
                                                            n_absent, n_extra, seed):
        rng = np.random.default_rng(seed)
        shared = [f"s{i}" for i in range(n_shared)]
        genes = [str(g) for g in rng.permutation(shared + [f"x{i}" for i in range(n_extra)])]
        canonical = [str(g) for g in rng.permutation(shared + [f"a{i}" for i in range(n_absent)])]
        values = rng.lognormal(0.0, 3.0, size=(n_cells, len(genes)))
        values[rng.random(values.shape) < 0.3] = 0.0
        values[:, genes.index(shared[0])] += 1.0  # every cell has counts on a canonical gene
        profiles = [omics.ExpressionProfile(f"C{i}", row, genes) for i, row in enumerate(values)]
        cells = omics.expression_feature_set(profiles, canonical)
        got = np.array([cells.vectors[p.cell_line_id] for p in profiles])
        want = reference_expression_features(profiles, canonical)
        assert got.tobytes() == want.tobytes()

    def test_peak_memory_is_about_the_result(self):
        rng = np.random.default_rng(12)
        genes = [f"g{i}" for i in range(3000)]
        canonical = genes[::-1]
        values = rng.integers(1, 1000, size=(200, 3000)).astype(float)
        profiles = [omics.ExpressionProfile(f"C{i}", row, genes) for i, row in enumerate(values)]
        tracemalloc.start()
        try:
            omics.expression_feature_set(profiles, canonical)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * len(profiles) * len(canonical) * 8  # the result's bytes

    def test_counts_past_float64_name_the_cell_line(self):
        profiles = [omics.ExpressionProfile("A", np.array([1.0, 2.0, 3.0]), ["g1", "g2", "g3"]),
                    omics.ExpressionProfile("B", np.array([1e308, 1e308, 5.0]),
                                            ["g1", "g2", "g3"])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(omics.IngestError, match="cell line 'B': .*not sum to a finite"):
                omics.expression_feature_set(profiles, ["g1", "g2", "g3"])
            with pytest.raises(omics.IngestError, match="cell line 'B': .*not sum to a finite"):
                omics.expression_feature_set(profiles[1:], ["g1", "g2"])

    def test_the_helpers_leave_their_input_untouched(self):
        """The features and their reference copy the profiles' values and
        scale the copy; the profiles keep their values."""
        values = np.array([[3.0, 0.0, 1.0], [2.0, 5.0, 1.0]])
        profiles = [omics.ExpressionProfile(f"C{i}", row.copy(), ["g1", "g2", "g3"])
                    for i, row in enumerate(values)]
        canonical = ["g3", "g1", "g4"]
        cells = omics.expression_feature_set(profiles, canonical)
        want = reference_expression_features(profiles, canonical)
        for p, row, expected in zip(profiles, values, want):
            got = cells.vectors[p.cell_line_id]
            assert got.tobytes() == expected.tobytes()
            assert got.tobytes() == cpm_formula(np.array([row[2], row[0], 0.0])).tobytes()
            assert not np.shares_memory(got, p.values)
            np.testing.assert_array_equal(p.values, row)


# every value of a drawn streamed table is this wide, so every line's values
# part is 11 * width - 1 characters and the rows of a block are known
TOKEN = 10
# tokens that make a block take the float64 read, right-aligned to TOKEN
FLOAT_READ_TOKENS = ["-0", "1.5", str(2**31)]


def whole_table_features(path, canonical):
    """``expression_feature_set(load_expression(path), canonical)``, the
    features' ids and bytes and alignment_stats' counts, or the message."""
    try:
        profiles = omics.load_expression(path)
        cells = omics.expression_feature_set(profiles, canonical)
    except omics.IngestError as exc:
        return str(exc)
    return cells.ids, cells.matrix.tobytes(), omics.alignment_stats(profiles[0], canonical)


def streamed_features(path, canonical):
    """The same read through ``load_expression_features``."""
    try:
        cells, counts = omics.load_expression_features(path, canonical, "genes.txt")
    except omics.IngestError as exc:
        return str(exc)
    assert cells.matrix.shape == (len(cells.ids), len(canonical))
    return cells.ids, cells.matrix.tobytes(), counts


class TestStreamedExpression:
    """``load_expression_features`` reads a count table a block of rows at
    a time into the features, the counts and the messages of the
    whole-table path."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), width=st.integers(1, 40), blocks=st.integers(1, 3),
           fault=st.sampled_from([None, None, "oops", "-3"]))
    @pytest.mark.filterwarnings("error::UserWarning")  # loadtxt's warning on an empty table
    def test_equals_the_whole_table_path(self, tmp_path_factory, data, width, blocks, fault):
        per_block = tables.BLOCK_BYTES // ((TOKEN + 1) * width - 1 + 8 * width)
        n = (blocks - 1) * per_block + data.draw(st.integers(1, per_block))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cells = [[f"{v:0{TOKEN}d}" for v in row]
                 for row in rng.integers(1, 10**6, size=(n, width)).tolist()]
        for token in data.draw(st.lists(st.sampled_from(FLOAT_READ_TOKENS), max_size=3)):
            block = data.draw(st.integers(0, blocks - 1))
            row = data.draw(st.integers(block * per_block, min(n, (block + 1) * per_block) - 1))
            cells[row][data.draw(st.integers(0, width - 1))] = token.rjust(TOKEN)
        if fault is not None:
            cells[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, width - 1))] = (
                fault.rjust(TOKEN))
        genes = [f"g{j}" for j in range(width)]
        kept = data.draw(st.lists(st.sampled_from(genes), min_size=1, unique=True))
        canonical = data.draw(st.permutations(kept + [f"absent{k}" for k in range(
            data.draw(st.integers(0, 3)))]))
        lines = ["cell_line_id," + ",".join(genes)]
        lines += [f"C{i}," + ",".join(row) for i, row in enumerate(cells)]
        if data.draw(st.booleans()):
            lines.insert(data.draw(st.integers(1, len(lines))), "")
        path = tmp_path_factory.mktemp("s") / "expression.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        with mock.patch.object(tables, "_parse", wraps=tables._parse) as parse:
            got = streamed_features(path, canonical)
        assert got == whole_table_features(path, canonical)
        if fault is not None:
            assert isinstance(got, str)
        elif not isinstance(got, str):  # both refuse a row that -0 left without counts
            # one list of lines per block, parsed again where int32 gave up
            assert len({id(call.args[0]) for call in parse.call_args_list}) == blocks

    @pytest.mark.parametrize("text, refused", [
        ('cell_line_id,g1,g2\nA,1,2\n"B",3,4\n', False),
        ("cell_line_id,g1,g2\nA,1,2\nB,1_0,4\n", False),
        ("cell_line_id,g1,g2\rA,1,2\rB,3,4\r", False),
        ("cell_line_id,g1,g2\r\nA,1,2\r\nB,3,4", False),
        ("cell_line_id,g1,g2\nA,1,2\nA,3,4\n", True),
        ("cell_line_id,g1,g2\nA,1,2\nB,3\n", True),
        ("cell_line_id,g1,g2\nA,1,2\nB,3,-4\nC,x,1\n", True)])
    def test_a_table_that_is_not_plain_gives_the_whole_table_read(self, tmp_path, text,
                                                                  refused):
        """A quoted field, a value only ``float`` reads, carriage-return
        line ends and CRLF ones without a last one load; a repeated id, a
        row of another width, and a domain error ahead of a value no reader
        takes are refused as the row reader refuses them."""
        path = tmp_path / "expression.csv"
        path.write_bytes(text.encode("utf-8"))
        got = streamed_features(path, ["g2", "g1", "g3"])
        assert got == whole_table_features(path, ["g2", "g1", "g3"])
        assert isinstance(got, str) == refused

    def test_a_domain_error_waits_for_a_later_block_the_row_reader_rejects(self, tmp_path):
        """The whole-table path parses every row before it checks a value,
        so a value no reader takes in a later block is reported, not the
        negative count in the first block."""
        width = 500
        per_block = tables.BLOCK_BYTES // (2 * width - 1 + 8 * width)
        rows = [["1"] * width for _ in range(per_block + 1)]
        rows[0][3], rows[per_block][7] = "-4", "x"
        path = write_table(tmp_path / "expression.csv", rows)
        got = streamed_features(path, ["g1"])
        assert got == whole_table_features(path, ["g1"])
        assert got == f"{path}: row {per_block + 2} column 9 is not numeric: 'x'"

    def test_the_header_is_checked_before_any_value(self, tmp_path):
        path = write_csv(tmp_path / "e.csv", "cell_line_id,g1,g2\nA,1,oops\n")
        with pytest.raises(omics.IngestError, match=re.escape(
                f"{path}: no gene of its header is in the gene list genes.txt")):
            omics.load_expression_features(path, ["g3"], "genes.txt")
        path = write_csv(tmp_path / "r.csv", "cell_line_id,g1,g1\nA,1,oops\n")
        with pytest.raises(omics.IngestError, match="gene 'g1' appears more than once"):
            omics.load_expression_features(path, ["g1"], "genes.txt")


@pytest.mark.parametrize("rows", ["", "\nA,1,2\n"])
def test_a_header_over_a_carriage_return_gives_the_row_readers_read(tmp_path, rows):
    """A quoted carriage return makes the header span more lines than its
    ``\\n``s count, so the row bound undercounts: the streamed and the
    keyed reads leave such a table to the row reader, with or without
    rows, and size no matrix from a negative bound."""
    path = tmp_path / "expression.csv"
    path.write_bytes(('cell_line_id,"g\r1",g2' + rows).encode("utf-8"))
    assert streamed_features(path, ["g2"]) == whole_table_features(path, ["g2"])
    assert read_cells(path) == read_cells(path, **ROW_READER)


class TestCellFeatureSet:
    """The vectors are the rows of one matrix, shared and read-only."""

    def test_vectors_are_read_only_views_of_the_matrix_rows(self):
        matrix = np.arange(6.0).reshape(3, 2)
        cells = omics.CellFeatureSet("raw_expression", 2, ["B", "A", "C"], matrix)
        assert cells.matrix is matrix
        assert list(cells.vectors) == ["B", "A", "C"]
        for i, vec in enumerate(cells.vectors.values()):
            assert np.shares_memory(vec, matrix) and vec.tobytes() == matrix[i].tobytes()
        with pytest.raises(ValueError, match="read-only"):
            cells.vectors["A"][0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            cells.matrix[0, 0] = 1.0
        assert cells.rows(["C", "B", "C"]).tolist() == [2, 0, 2]

    def test_loaders_keep_the_matrix_they_build(self, tmp_path):
        path = write_csv(tmp_path / "e.csv", "cell_line_id,e0,e1\nX,1.0,2.0\nY,3.0,4.0\n")
        cells = omics.load_embeddings(path, "raw_expression")
        assert cells.ids == ["X", "Y"]
        assert cells.matrix.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert all(np.shares_memory(v, cells.matrix) for v in cells.vectors.values())
        profiles = [omics.ExpressionProfile(c, np.array([1.0, 3.0]), ["g1", "g2"])
                    for c in ("P", "Q")]
        features = omics.expression_feature_set(profiles, ["g2", "g1"])
        assert features.ids == ["P", "Q"] and features.matrix.shape == (2, 2)
        assert all(np.shares_memory(v, features.matrix) for v in features.vectors.values())

    @pytest.mark.parametrize("ids, shape, message", [
        (["A", "B"], (2, 3), "shape \\(2, 3\\) for 2 cell lines of 2-dim"),
        (["A", "B"], (3, 2), "shape \\(3, 2\\) for 2 cell lines"),
        (["A", "B", "A"], (3, 2), "cell line 'A' appears more than once"),
    ])
    def test_a_matrix_that_does_not_fit_the_ids_is_rejected(self, ids, shape, message):
        with pytest.raises(omics.IngestError, match=message):
            omics.CellFeatureSet("raw_expression", 2, ids, np.zeros(shape))


class TestColumns:
    """The integer columns a dataset codes its records into when it is built."""

    DRUGS = ["D0", "D1", "D2", "D3"]
    CELLS = ["C0", "C1", "C2"]

    @classmethod
    def cells(cls, dim, seed):
        rng = np.random.default_rng(seed)
        return omics.CellFeatureSet("raw_expression", dim, list(cls.CELLS),
                                    rng.normal(size=(len(cls.CELLS), dim)))

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

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), pairs=st.lists(
        st.tuples(st.sampled_from(DRUGS), st.sampled_from(CELLS)), max_size=25))
    def test_cell_rows_index_each_cell_lines_row_on_subsets(self, data, pairs):
        """Whatever order the records meet the cell lines in, ``cell_rows``
        points each distinct cell line at its own row of the matrix, in a
        dataset, its subsets, and a subset over another source's cells."""
        graphs = {d: object() for d in self.DRUGS}
        records = [omics.ResponseRecord(d, c, 0.0) for d, c in pairs]
        ds = omics.ResponseDataset(records, graphs, self.cells(3, 0))
        outer = [r for r in records if data.draw(st.booleans())]
        inner = [r for r in outer if data.draw(st.booleans())]
        sibling = omics.ResponseDataset(records, graphs, self.cells(2, 1))
        for each in (ds, ds.subset(outer), ds.subset(outer).subset(inner),
                     sibling.subset(outer)):
            assert each.cell_rows.dtype == np.intp
            assert each.cell_rows.shape == (len(each.cell_ids),)
            taken = np.take(each.cells.matrix, each.cell_rows, axis=0)
            want = np.array([each.cells.vectors[c] for c in each.cell_ids]).reshape(taken.shape)
            assert taken.tobytes() == want.tobytes()

    def test_a_record_without_a_cell_vector_is_named(self):
        record = omics.ResponseRecord("D0", "GHOST", 1.0)
        with pytest.raises(omics.IngestError, match="cell line 'GHOST' has no"):
            omics.ResponseDataset([record], {}, self.cells(3, 0))

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
