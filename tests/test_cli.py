"""End-to-end command-line pipeline tests on synthetic fixture files."""

import contextlib
import csv
import hashlib
import io
import json
import re
import shutil
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdrpipe import cli
from cdrpipe.evaluation import (ranked_gains, read_history_csv, summary_entries,
                                write_grouped_csv, write_history_csv, write_lodo_gains_csv,
                                write_predictions_csv, write_summary)
from cdrpipe.model import ModelConfig, init_params, load_checkpoint, predict_records, save_checkpoint
from cdrpipe.omics import ResponseDataset, load_expression
from cdrpipe.synthetic import make_benchmark, write_benchmark_files, write_response_csv
from cdrpipe.training import EpochRecord, SplitSpec, TrainConfig

MODEL_SECTION = """\
[model]
gcn_layer_dims = 12,8
cell_branch_dims = 8
head_dims = 8,1
dropout_rate = 0.1
use_batch_norm = true
n_max_atoms = {n_max_atoms}
"""


def write_config(path, files, n_max_atoms, extra=""):
    path.write_text(f"""\
[paths]
expression = {files['expression']}
gene_list = {files['gene_list']}
embeddings_scgpt = {files['embeddings']}
drug_manifest = {files['drug_manifest']}
responses = {files['responses']}
output_dir = out

{MODEL_SECTION.format(n_max_atoms=n_max_atoms)}
[train]
epochs = 2
batch_size = 16
lr = 0.003

[split]
test_fraction = 0.1
train_cap =
cap_mode = slice

[run]
seed = 0
feature_source = scgpt

[lodo]
n_drugs = 1
variants = scgpt
baseline = raw
{extra}
""", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_fixture")
    bench = make_benchmark(n_cells=40, cell_dim=12, n_drugs=5, atom_range=(3, 7),
                           n_records=160, noise_std=0.05, seed=7)
    files = write_benchmark_files(bench, root / "data", embedding_width=512)
    config = write_config(root / "run.ini", files, bench.n_max_atoms)
    return {"root": root, "bench": bench, "files": files, "config": config}


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def copy_fixture(fixture_dir, tmp_path):
    """A writable copy of the fixture's input files and a config naming them."""
    data = tmp_path / "data"
    shutil.copytree(fixture_dir["files"]["drug_manifest"].parent, data)
    files = {k: data / v.name for k, v in fixture_dir["files"].items()}
    config = write_config(tmp_path / "run.ini", files, fixture_dir["bench"].n_max_atoms)
    return data, files, config


def replace_field(path, line, field, token):
    lines = path.read_text(encoding="utf-8").splitlines()
    fields = lines[line].split(",")
    fields[field] = token
    lines[line] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestIngest:
    def test_reports_matched_records(self, fixture_dir, capsys):
        out = fixture_dir["root"] / "ingest_out"
        code = cli.main(["ingest", "--config", str(fixture_dir["config"]),
                         "--out", str(out)])
        assert code == 0
        report = dict(line.split("=", 1)
                      for line in (out / "ingest_report.txt").read_text().splitlines())
        assert report["join.matched"] == "160"
        assert report["cells.dim"] == "512"
        assert "160 matched" in capsys.readouterr().out

    def test_raw_source_reports_gene_padding(self, fixture_dir):
        out = fixture_dir["root"] / "ingest_raw_out"
        code = cli.main(["ingest", "--config", str(fixture_dir["config"]),
                         "--feature-source", "raw", "--out", str(out)])
        assert code == 0
        report = dict(line.split("=", 1)
                      for line in (out / "ingest_report.txt").read_text().splitlines())
        assert report["genes.padded"] == "2"  # two canonical genes absent from the matrix
        assert report["cells.dim"] == "14"

    def test_raw_expression_ingest_holds_the_counts_at_four_bytes(self, tmp_path):
        """One raw-expression ``load_cells`` of an n x g count table and c
        canonical genes peaks below the int32 counts and the float64
        features, n*g*4 + n*c*8 bytes, plus 10%: the counts are widened
        only into the aligned matrix."""
        n, g, absent = 300, 2000, 2
        counts = np.random.default_rng(36).integers(0, 10**6, size=(n, g))
        genes = [f"g{j:05d}" for j in range(g)]
        (tmp_path / "expression.csv").write_text("\n".join(
            ["cell_line_id," + ",".join(genes)]
            + [f"C{i}," + ",".join(map(str, row)) for i, row in enumerate(counts)]) + "\n")
        canonical = genes + [f"g_absent_{i}" for i in range(absent)]
        (tmp_path / "genes.txt").write_text("\n".join(canonical) + "\n")
        config = tmp_path / "run.ini"
        config.write_text("[paths]\nexpression = expression.csv\ngene_list = genes.txt\n")
        cfg = cli.load_run_config(config)
        tracemalloc.start()
        try:
            cells, entries = cli.load_cells(cfg, "raw_expression")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        c = len(canonical)
        assert entries["genes.padded"] == absent and cells.matrix.shape == (n, c)
        assert cells.matrix.dtype == np.float64 and np.isfinite(cells.matrix).all()
        assert peak < 1.1 * (n * g * 4 + n * c * 8)

    def test_raw_expression_ingest_pins_the_allocator_first(self, fixture_dir, monkeypatch):
        """Pinned before the count table is read, glibc does not raise its
        mmap threshold to the table's size when the table is freed."""
        calls = []
        monkeypatch.setattr(cli, "pin_allocator", lambda: calls.append("pin"))
        monkeypatch.setattr(cli, "load_expression",
                            lambda path: calls.append("read") or load_expression(path))
        cli.load_cells(cli.load_run_config(fixture_dir["config"]), "raw_expression")
        assert calls == ["pin", "read"]

    def test_missing_embedding_file_names_the_path(self, fixture_dir, tmp_path, capsys):
        files = dict(fixture_dir["files"])
        files["embeddings"] = tmp_path / "nowhere.csv"
        config = write_config(tmp_path / "bad.ini", files,
                              fixture_dir["bench"].n_max_atoms)
        code = cli.main(["ingest", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "nowhere.csv" in capsys.readouterr().err

    def test_embedding_width_mismatch(self, fixture_dir, tmp_path, capsys):
        narrow = tmp_path / "narrow"
        write_benchmark_files(fixture_dir["bench"], narrow)  # 12-wide, declared scgpt
        files = {k: narrow / v.name for k, v in fixture_dir["files"].items()}
        files["drug_manifest"] = narrow / "drug_manifest.csv"
        config = write_config(tmp_path / "mismatch.ini", files,
                              fixture_dir["bench"].n_max_atoms)
        code = cli.main(["ingest", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "declares 512" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_expression_table_without_cell_lines_exits_2(self, fixture_dir, tmp_path, capsys):
        header = fixture_dir["files"]["expression"].read_text().splitlines()[0]
        files = dict(fixture_dir["files"], expression=tmp_path / "header_only.csv")
        files["expression"].write_text(header + "\n", encoding="utf-8")
        config = write_config(tmp_path / "run.ini", files, fixture_dir["bench"].n_max_atoms)
        code = cli.main(["ingest", "--config", str(config), "--feature-source", "raw",
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {files['expression']}: no cell lines\n"

    def test_expression_header_without_a_listed_gene_exits_2_naming_both_files(
            self, fixture_dir, tmp_path, capsys):
        _, files, config = copy_fixture(fixture_dir, tmp_path)
        lines = files["expression"].read_text(encoding="utf-8").splitlines()
        width = lines[0].count(",")
        lines[0] = ",".join(["cell_line_id"] + [f"unlisted{i}" for i in range(width)])
        files["expression"].write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = cli.main(["ingest", "--config", str(config), "--feature-source", "raw",
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {files['expression']}: no gene of its header is in the gene list "
            f"{files['gene_list']}\n")

    @pytest.mark.parametrize("token", ["nan", "-inf"])
    def test_non_finite_embedding_exits_2_naming_row_and_column(self, fixture_dir, tmp_path,
                                                                capsys, token):
        _, files, config = copy_fixture(fixture_dir, tmp_path)
        replace_field(files["embeddings"], 3, 5, token)
        code = cli.main(["ingest", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {files['embeddings']}: row 4 column 6 is not finite\n")

    @pytest.mark.parametrize("target, source", [
        ("config", "scgpt"), ("responses", "scgpt"), ("embeddings", "scgpt"),
        ("expression", "raw"), ("gene_list", "raw"), ("drug_manifest", "scgpt"),
        ("adjacency", "scgpt"),
    ])
    def test_input_that_is_not_utf8_exits_2_naming_the_file(self, fixture_dir, tmp_path,
                                                              capsys, target, source):
        data, files, config = copy_fixture(fixture_dir, tmp_path)
        first_drug = next(iter(fixture_dir["bench"].graphs))
        path = dict(files, config=config,
                    adjacency=data / "drugs" / f"{first_drug}.adjacency.csv")[target]
        path.write_bytes(path.read_bytes() + b"\xff\xfe")
        code = cli.main(["ingest", "--config", str(config), "--feature-source", source,
                         "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {path}: not UTF-8")

    @pytest.mark.parametrize("token", ["nan", "inf"])
    @pytest.mark.parametrize("part, kind", [("features", "feature"), ("adjacency", "adjacency"),
                                            ("degrees", "degree")])
    def test_non_finite_graph_value_exits_2_naming_file_and_row(self, fixture_dir, tmp_path,
                                                                capsys, part, kind, token):
        data, _, config = copy_fixture(fixture_dir, tmp_path)
        path = data / "drugs" / f"{next(iter(fixture_dir['bench'].graphs))}.{part}.csv"
        replace_field(path, 0, -1, token)
        code = cli.main(["ingest", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: {kind} row 1 is not finite")

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(source=st.sampled_from(["scgpt", "raw"]),
           target=st.sampled_from(["responses", "embeddings", "expression", "gene_list",
                                   "drug_manifest", "features", "adjacency", "degrees"]),
           token=st.sampled_from(["nan", "inf", "-inf", "1e400", "-1", "0.5", "", "x"]),
           data=st.data())
    def test_one_corrupt_field_exits_0_or_2(self, fixture_dir, tmp_path_factory,
                                            source, target, token, data):
        """Whatever single field of whichever input is replaced, ingest either
        succeeds or exits 2 with an error line; no exception escapes."""
        tmp = tmp_path_factory.mktemp("corrupt")
        root, files, config = copy_fixture(fixture_dir, tmp)
        if target in ("features", "adjacency", "degrees"):
            drug = data.draw(st.sampled_from(sorted(fixture_dir["bench"].graphs)))
            path = root / "drugs" / f"{drug}.{target}.csv"
        else:
            path = files[target]
        lines = path.read_text(encoding="utf-8").splitlines()
        line = data.draw(st.integers(0, len(lines) - 1))
        field = data.draw(st.integers(0, lines[line].count(",")))
        replace_field(path, line, field, token)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["ingest", "--config", str(config), "--feature-source", source,
                             "--out", str(tmp / "o")])
        assert code in (0, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ")


    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(target=st.sampled_from(["expression", "embeddings", "responses", "drug_manifest",
                                   "features", "adjacency", "degrees"]),
           duplicate=st.booleans(), data=st.data())
    def test_a_row_of_the_wrong_width_exits_2_naming_file_and_row(
            self, fixture_dir, tmp_path_factory, target, duplicate, data):
        """Dropping or duplicating one field of one row of a keyed table or
        of a drug's headerless graph file is an ingest error naming the file
        and the row."""
        tmp = tmp_path_factory.mktemp("shape")
        root, files, config = copy_fixture(fixture_dir, tmp)
        headerless = target in ("features", "adjacency", "degrees")
        if headerless:
            drug = data.draw(st.sampled_from(sorted(fixture_dir["bench"].graphs)))
            path = root / "drugs" / f"{drug}.{target}.csv"
        else:
            path = files[target]
        lines = path.read_text(encoding="utf-8").splitlines()
        line = data.draw(st.integers(0 if headerless else 1, len(lines) - 1))
        fields = lines[line].split(",")
        field = data.draw(st.integers(0, len(fields) - 1))
        # a row's only field dropped leaves a blank line, which holds no row
        duplicate = duplicate or len(fields) == 1
        fields[field:field + 1] = [fields[field]] * 2 if duplicate else []
        lines[line] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["ingest", "--config", str(config),
                             "--feature-source", "raw" if target == "expression" else "scgpt",
                             "--out", str(tmp / "o")])
        assert code == 2
        assert err.getvalue().startswith(f"error: {path}: row {line + 1} has ")

    @pytest.mark.parametrize("target, source", [
        ("responses", "scgpt"), ("embeddings", "scgpt"), ("expression", "raw"),
        ("drug_manifest", "scgpt"), ("features", "scgpt")])
    def test_a_field_over_the_csv_size_limit_exits_2_naming_file_and_row(
            self, fixture_dir, tmp_path, capsys, target, source):
        """csv rejects a field longer than csv.field_size_limit() (131,072
        characters); that is an ingest error, not a traceback."""
        data, files, config = copy_fixture(fixture_dir, tmp_path)
        first_drug = next(iter(fixture_dir["bench"].graphs))
        path = dict(files, features=data / "drugs" / f"{first_drug}.features.csv")[target]
        replace_field(path, 2, -1, "1" * 140_000)
        code = cli.main(["ingest", "--config", str(config), "--feature-source", source,
                         "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}, line 3: unreadable CSV row (field larger than field limit")

    @pytest.mark.parametrize("edit, message", [
        (lambda lines: lines + [lines[1]], "row {n}: duplicate drug_id {drug!r} (first at row 2)"),
        (lambda lines: lines + ["," + lines[1].split(",", 1)[1]], "row {n}: empty drug_id"),
    ], ids=["repeated", "empty"])
    def test_a_bad_manifest_drug_id_names_its_row(self, fixture_dir, tmp_path, capsys,
                                                  edit, message):
        _, files, config = copy_fixture(fixture_dir, tmp_path)
        path = files["drug_manifest"]
        lines = edit(path.read_text(encoding="utf-8").splitlines())
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = cli.main(["ingest", "--config", str(config), "--out", str(tmp_path / "o")])
        drug = next(iter(fixture_dir["bench"].graphs))
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: {message.format(n=len(lines), drug=drug)}\n")

    @pytest.mark.parametrize("target, column", [
        ("responses", "ic50"), ("drug_manifest", "drug_id")])
    def test_a_repeated_column_exits_2_naming_it(self, fixture_dir, tmp_path, capsys,
                                                 target, column):
        """A table read by column name would take a repeated column's last
        copy; each row's second copy here holds the next row's value."""
        _, files, config = copy_fixture(fixture_dir, tmp_path)
        path = files[target]
        header, *rows = [line.split(",") for line in
                         path.read_text(encoding="utf-8").splitlines()]
        k = header.index(column)
        lines = [header + [column]] + [row + [rows[(i + 1) % len(rows)][k]]
                                       for i, row in enumerate(rows)]
        path.write_text("".join(",".join(line) + "\n" for line in lines), encoding="utf-8")
        code = cli.main(["ingest", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {path}: header repeats column {column!r}\n"

    @pytest.mark.parametrize("part, make, reason", [
        ("adjacency", lambda path: path.unlink(), "No such file or directory"),
        ("degrees", lambda path: (path.unlink(), path.mkdir()), "Is a directory"),
    ], ids=["missing", "directory"])
    def test_a_graph_file_that_cannot_be_opened_names_its_manifest_row_and_drug(
            self, fixture_dir, tmp_path, capsys, part, make, reason):
        data, files, config = copy_fixture(fixture_dir, tmp_path)
        drug = sorted(fixture_dir["bench"].graphs)[1]
        path = data / "drugs" / f"{drug}.{part}.csv"
        make(path)
        code = cli.main(["ingest", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {files['drug_manifest']}: row 3: drug {drug!r}: cannot open {path}: "
            f"{reason}\n")

    def test_a_drug_id_with_surrounding_spaces_joins_as_written(self, fixture_dir, tmp_path):
        """The manifest's ids are taken as written, like the response table's,
        so an id spelled the same way in both joins."""
        _, files, config = copy_fixture(fixture_dir, tmp_path)
        drug = next(iter(fixture_dir["bench"].graphs))
        for key in ("drug_manifest", "responses"):
            lines = files[key].read_text(encoding="utf-8").splitlines()
            lines = [f"{drug} ,{line[len(drug) + 1:]}" if line.startswith(f"{drug},") else line
                     for line in lines]
            files[key].write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert cli.main(["ingest", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        report = dict(line.split("=", 1)
                      for line in (tmp_path / "o" / "ingest_report.txt").read_text().splitlines())
        assert (report["join.matched"], report["join.missing_drug"]) == ("160", "0")

    def test_a_repeated_response_pair_exits_2_naming_both_rows(self, fixture_dir, tmp_path,
                                                                capsys):
        """A pair held twice could fall on both sides of the split."""
        _, files, config = copy_fixture(fixture_dir, tmp_path)
        path = files["responses"]
        lines = path.read_text(encoding="utf-8").splitlines()
        drug, cell, _, cancer = lines[1].split(",")
        lines.append(f"{drug},{cell},0.5,{cancer}")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = cli.main(["ingest", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {path}: row {len(lines)}: duplicate (drug_id, cell_line_id) "
            f"{(drug, cell)} (first at row 2)\n")

    @pytest.mark.parametrize("source", ["scgpt", "raw"])
    def test_a_byte_order_mark_changes_no_report(self, fixture_dir, tmp_path, source):
        """A UTF-8 byte-order mark is not part of any input's first field."""
        plain = tmp_path / "plain"
        assert cli.main(["ingest", "--config", str(fixture_dir["config"]),
                         "--feature-source", source, "--out", str(plain)]) == 0
        data, files, config = copy_fixture(fixture_dir, tmp_path)
        first_drug = next(iter(fixture_dir["bench"].graphs))
        for path in [config, *files.values(), data / "drugs" / f"{first_drug}.features.csv"]:
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        code = cli.main(["ingest", "--config", str(config), "--feature-source", source,
                         "--out", str(tmp_path / "bom")])
        assert code == 0
        assert ((tmp_path / "bom" / "ingest_report.txt").read_bytes()
                == (plain / "ingest_report.txt").read_bytes())


class TestConfigErrors:
    @pytest.mark.parametrize("old, new, named", [
        ("head_dims = 8,1", "head_dims = 8,2", "width 1"),
        ("test_fraction = 0.1", "test_fraction = 1.5", "test_fraction"),
        ("epochs = 2", "epochs = two", "[train] epochs"),
        ("gcn_layer_dims = 12,8", "gcn_layer_dims = 12,x", "[model] gcn_layer_dims"),
        ("use_batch_norm = true", "use_batch_norm = yes please", "[model] use_batch_norm"),
        ("[model]", "[model]\ntask = classification", "unknown key(s) in [model]: task"),
        ("[paths]", "stray line before any section\n[paths]", "no section headers"),
        ("epochs = 2", "epoch = 3", "unknown key(s) in [train]: epoch"),
        ("test_fraction = 0.1", "test_fracton = 0.1", "unknown key(s) in [split]: test_fracton"),
        ("[train]", "[trian]", "unknown section [trian]"),
        ("seed = 0", "sede = 5", "unknown key(s) in [run]: sede"),
        ("lr = 0.003", "lr = inf", "[train] lr"),
        ("lr = 0.003", "lr = nan", "[train] lr"),
        ("variants = scgpt", "variants = scgpt,bogus", "[lodo] variants: unknown feature "
                                                        "source 'bogus'"),
        ("baseline = raw", "baseline = bogus", "[lodo] baseline: unknown feature source 'bogus'"),
        ("n_drugs = 1", "n_drugs = 0", "[lodo] n_drugs must be at least 1, got 0"),
        ("n_drugs = 1", "n_drugs = -3", "[lodo] n_drugs must be at least 1, got -3"),
        ("gcn_layer_dims = 12,8", "gcn_layer_dims = 12,,8",
         "[model] gcn_layer_dims: empty item in '12,,8'"),
        ("cell_branch_dims = 8", "cell_branch_dims = 8,",
         "[model] cell_branch_dims: empty item in '8,'"),
        ("variants = scgpt", "variants = scgpt,,raw", "[lodo] variants: empty item in 'scgpt,,raw'"),
        ("variants = scgpt", "variants =", "[lodo] variants must name at least one non-baseline"),
        ("gcn_layer_dims = 12,8", "gcn_layer_dims = 1 2,8", "[model] gcn_layer_dims: invalid"),
    ], ids=["head_width", "test_fraction", "epochs", "dims", "boolean", "task",
            "no_section", "train_key", "split_key", "section", "run_key", "lr_inf", "lr_nan",
            "lodo_variant", "lodo_baseline", "n_drugs_0", "n_drugs_negative", "dims_empty_item",
            "dims_trailing_comma", "variants_empty_item", "variants_blank", "dims_inner_space"])
    def test_bad_config_exits_2_naming_the_problem(self, fixture_dir, tmp_path, capsys,
                                                   old, new, named):
        config = write_config(tmp_path / "bad.ini", fixture_dir["files"],
                              fixture_dir["bench"].n_max_atoms)
        text = config.read_text()
        assert old in text
        config.write_text(text.replace(old, new, 1))
        code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and named in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["ingest", "train", "lodo"])
    @pytest.mark.parametrize("key, value, reason", [
        ("head_dims", "8,2", "[model] the head must end in width 1, got 2"),
        ("dropout_rate", "1.5", "[model] dropout_rate must lie in [0, 1), got 1.5"),
        ("n_max_atoms", "0", "[model] n_max_atoms must be positive, got 0"),
        ("n_drugs", "0", "[lodo] n_drugs must be at least 1, got 0"),
    ], ids=["head_dims", "dropout_rate", "n_max_atoms", "n_drugs"])
    def test_a_bad_model_value_exits_2_before_any_table_is_read(
            self, fixture_dir, tmp_path, capsys, command, key, value, reason):
        files = dict(fixture_dir["files"], responses=tmp_path / "missing.csv")
        config = write_config(tmp_path / "bad.ini", files, fixture_dir["bench"].n_max_atoms)
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", config.read_text(),
                              flags=re.MULTILINE)
        assert count == 1
        config.write_text(text)
        code = cli.main([command, "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {config}: {reason}\n"
        assert not (tmp_path / "o").exists()

    def test_empty_sections_take_the_dataclass_defaults(self, tmp_path):
        config = tmp_path / "empty.ini"
        config.write_text("[model]\n[train]\n[split]\n", encoding="utf-8")
        cfg = cli.load_run_config(config)
        assert cfg.model == ModelConfig()
        assert cfg.train_cfg == TrainConfig()
        assert cfg.split == SplitSpec()
        assert (cfg.seed, cfg.feature_source, cfg.lodo_n_drugs, cfg.lodo_variants,
                cfg.lodo_baseline) == (0, "scgpt", 20, ["scgpt"], "raw_expression")

    def test_percent_sign_in_a_path_is_taken_literally(self, fixture_dir, tmp_path, capsys):
        files = dict(fixture_dir["files"], drug_manifest="50%off/m.csv")
        config = write_config(tmp_path / "pct.ini", files, fixture_dir["bench"].n_max_atoms)
        code = cli.main(["ingest", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {config}: paths.drug_manifest does not exist: "
            f"{tmp_path / '50%off/m.csv'}\n")

    @pytest.mark.parametrize("kind", ["directory", "missing"])
    @pytest.mark.parametrize("key, entry, source", [
        ("drug_manifest", "drug_manifest", "scgpt"),
        ("responses", "responses", "scgpt"),
        ("embeddings_scgpt", "embeddings", "scgpt"),
        ("expression", "expression", "raw"),
        ("gene_list", "gene_list", "raw"),
    ])
    def test_an_input_that_is_not_a_file_exits_2_naming_config_and_key(
            self, fixture_dir, tmp_path, capsys, key, entry, source, kind):
        target = tmp_path / "input"
        if kind == "directory":
            target.mkdir()
        files = dict(fixture_dir["files"], **{entry: target})
        config = write_config(tmp_path / "run.ini", files, fixture_dir["bench"].n_max_atoms)
        code = cli.main(["ingest", "--config", str(config), "--feature-source", source,
                         "--out", str(tmp_path / "o")])
        reason = "is not a readable file" if kind == "directory" else "does not exist"
        assert code == 2
        assert capsys.readouterr().err == f"error: {config}: paths.{key} {reason}: {target}\n"
        assert not (tmp_path / "o").exists()

    def test_a_config_path_that_is_a_directory_exits_2_naming_it(self, tmp_path, capsys):
        config = tmp_path / "data"
        config.mkdir()
        code = cli.main(["ingest", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == f"error: config file is not a readable file: {config}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, text", [
        ("foo = 1", None),  # in the full config it was reported as a key of [model]
        ("seed = 5", "[paths]\nresponses = r.csv\n"),  # it was taken as paths.seed
    ], ids=["named_as_model", "taken_as_a_path"])
    def test_a_default_section_exits_2_naming_it(self, fixture_dir, tmp_path, capsys, key,
                                                 text):
        config = write_config(tmp_path / "run.ini", fixture_dir["files"],
                              fixture_dir["bench"].n_max_atoms)
        body = config.read_text() if text is None else text
        config.write_text(f"[DEFAULT]\n{key}\n\n{body}")
        code = cli.main(["ingest", "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {config}: [DEFAULT] is not supported; set each key in its section\n")
        assert not (tmp_path / "o").exists()


class TestOutputLocation:
    """The output location is checked before any work: a run that could not
    write its results fails at once, not after the fit or the last fold."""

    @pytest.mark.parametrize("command", ["ingest", "train", "eval", "lodo"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_a_file"])
    def test_an_out_that_is_not_a_directory_exits_2_before_any_work(
            self, fixture_dir, tmp_path, capsys, monkeypatch, command, below):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        out = afile / "o" if below else afile

        def spy(*args, **kwargs):
            raise AssertionError("train was called")
        monkeypatch.setattr(cli, "train", spy)
        code = cli.main([command, "--config", str(fixture_dir["config"]), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"error: --out {out}: {afile} is not a directory\n"
        assert captured.out == ""
        assert afile.read_text() == "kept\n"

    def test_an_output_dir_that_is_a_file_exits_2_naming_the_config_key(
            self, fixture_dir, tmp_path, capsys):
        config = copy_fixture(fixture_dir, tmp_path)[2]
        (tmp_path / "out").write_text("")  # the config's output_dir
        code = cli.main(["train", "--config", str(config)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {config}: paths.output_dir {tmp_path / 'out'}: {tmp_path / 'out'} "
            f"is not a directory\n")

    def test_a_report_out_that_is_a_file_exits_2(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        write_history_csv(run / "history.csv", "m", [EpochRecord(1, 1.0, 0.5)])
        afile = tmp_path / "afile"
        afile.write_text("")
        assert cli.main(["report", str(run), "--out", str(afile)]) == 2
        assert capsys.readouterr().err == f"error: --out {afile}: {afile} is not a directory\n"

    def test_an_out_below_missing_directories_is_created(self, fixture_dir, tmp_path):
        out = tmp_path / "a" / "b" / "o"
        assert cli.main(["ingest", "--config", str(fixture_dir["config"]),
                         "--out", str(out)]) == 0
        assert (out / "ingest_report.txt").is_file()


class TestTrain:
    def test_inputs_are_hashed_in_blocks(self, tmp_path):
        """The manifest's digests are sha256 of the whole file, read a block
        at a time, so hashing holds at most two blocks (the last one and the
        next), never an input whole."""
        data = np.random.default_rng(0).bytes(6 * cli._HASH_BLOCK + 7)
        path = tmp_path / "big.bin"
        path.write_bytes(data)
        tracemalloc.start()
        try:
            digest = cli._sha256(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(data).hexdigest()
        assert peak < 3 * cli._HASH_BLOCK

    def test_an_unused_input_that_is_a_directory_is_left_out_of_the_manifest(
            self, fixture_dir, tmp_path):
        files = dict(fixture_dir["files"], expression=tmp_path / "expression")
        files["expression"].mkdir()
        config = write_config(tmp_path / "run.ini", files, fixture_dir["bench"].n_max_atoms)
        assert cli.main(["train", "--config", str(config), "--out", str(tmp_path / "o")]) == 0
        manifest = (tmp_path / "o" / "run_manifest.txt").read_text(encoding="utf-8")
        assert "data.responses.sha256" in manifest
        assert "data.expression" not in manifest

    def test_fixed_seed_gives_identical_checkpoints(self, fixture_dir):
        outs = []
        for name in ("t1", "t2"):
            out = fixture_dir["root"] / name
            assert cli.main(["train", "--config", str(fixture_dir["config"]),
                             "--out", str(out)]) == 0
            outs.append(out)
        assert sha(outs[0] / "checkpoint.ckpt") == sha(outs[1] / "checkpoint.ckpt")
        assert sha(outs[0] / "history.csv") == sha(outs[1] / "history.csv")
        assert sha(outs[0] / "run_manifest.txt") == sha(outs[1] / "run_manifest.txt")

    def test_different_seed_changes_the_checkpoint(self, fixture_dir):
        out = fixture_dir["root"] / "t_seed"
        assert cli.main(["train", "--config", str(fixture_dir["config"]),
                         "--seed", "99", "--out", str(out)]) == 0
        assert sha(out / "checkpoint.ckpt") != sha(
            fixture_dir["root"] / "t1" / "checkpoint.ckpt")

    def test_zero_epochs_checkpoints_initial_params(self, fixture_dir, tmp_path):
        config = write_config(tmp_path / "zero.ini", fixture_dir["files"],
                              fixture_dir["bench"].n_max_atoms)
        text = config.read_text().replace("epochs = 2", "epochs = 0")
        config.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
        cfg, params = load_checkpoint(out / "checkpoint.ckpt")
        from cdrpipe.seeding import derive_seed
        fresh = init_params(cfg, derive_seed(derive_seed(0, "train"), "init"))
        for (_, a), (_, b) in zip(params.named_arrays(), fresh.named_arrays()):
            assert a.tobytes() == b.tobytes()
        assert (out / "history.csv").read_text().splitlines() == [
            "epoch,model,val_pcc,train_loss"]

    @pytest.mark.parametrize("old, new, named", [
        ("batch_size = 16", "batch_size = 1", "batch_size 1 and 144 training record(s)"),
        ("train_cap =", "train_cap = 1", "batch_size 16 and 1 training record(s)"),
    ], ids=["batch_size", "train_cap"])
    def test_batch_norm_without_two_record_batches_exits_2(self, fixture_dir, tmp_path, capsys,
                                                           old, new, named):
        config = write_config(tmp_path / "bn.ini", fixture_dir["files"],
                              fixture_dir["bench"].n_max_atoms)
        text = config.read_text()
        assert old in text
        config.write_text(text.replace(old, new, 1))
        code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: batch norm needs batches of >= 2 records") and named in err
        assert not (tmp_path / "o").exists()

    def test_extreme_atom_feature_exits_3_naming_epoch_and_batch(self, fixture_dir, tmp_path,
                                                                capsys):
        """1e300 is a legal feature value, so ingest accepts it; the first
        training step then overflows in the batch statistics."""
        data, _, config = copy_fixture(fixture_dir, tmp_path)
        replace_field(data / "drugs" / "D000.features.csv", 0, 0, "1e300")
        assert cli.main(["ingest", "--config", str(config), "--out", str(tmp_path / "i")]) == 0
        code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert re.match(r"error: training diverged at epoch 1, batch \d+: overflow", err)
        assert not (tmp_path / "o" / "checkpoint.ckpt").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_validation_pass_that_overflows_exits_3_naming_the_epoch(self, fixture_dir,
                                                                        tmp_path, capsys):
        """One step at lr = 1e150 stays finite; the validation pass after it
        overflows."""
        config = write_config(tmp_path / "run.ini", fixture_dir["files"],
                              fixture_dir["bench"].n_max_atoms)
        config.write_text(config.read_text().replace("epochs = 2", "epochs = 1")
                          .replace("batch_size = 16", "batch_size = 1000")
                          .replace("lr = 0.003", "lr = 1e150"))
        code = cli.main(["train", "--config", str(config), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert re.match(r"error: validation after epoch 1: \d+ of \d+ predictions are not "
                        r"finite", err)
        assert not (tmp_path / "o" / "checkpoint.ckpt").exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_a_lodo_fold_that_overflows_exits_3_naming_fold_and_variant(self, fixture_dir,
                                                                         tmp_path, capsys):
        config = write_config(tmp_path / "run.ini", fixture_dir["files"],
                              fixture_dir["bench"].n_max_atoms)
        config.write_text(config.read_text().replace("epochs = 2", "epochs = 1")
                          .replace("batch_size = 16", "batch_size = 1000")
                          .replace("lr = 0.003", "lr = 1e150"))
        code = cli.main(["lodo", "--config", str(config), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 3
        assert re.match(r"error: fold '\w+' variant 'raw_expression': validation after "
                        r"epoch 1: \d+ of \d+ predictions are not finite", err)
        assert not (tmp_path / "o").exists()

    def test_synthetic_fixture_reaches_high_pcc(self, tmp_path):
        """A convergence fixture: low noise, enough records, 12 epochs."""
        bench = make_benchmark(n_cells=120, cell_dim=12, n_drugs=6, atom_range=(3, 7),
                               n_records=700, noise_std=0.03, seed=7)
        files = write_benchmark_files(bench, tmp_path / "data", embedding_width=512)
        config = write_config(tmp_path / "run.ini", files, bench.n_max_atoms)
        config.write_text(config.read_text().replace("epochs = 2", "epochs = 12"))
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
        history = read_history_csv(out / "history.csv")["scgpt"]
        assert history[-1].val_pcc >= 0.9


class TestEval:
    def test_rerun_is_byte_identical(self, fixture_dir):
        train_out = fixture_dir["root"] / "t1"
        outs = []
        for name in ("e1", "e2"):
            out = fixture_dir["root"] / name
            assert cli.main(["eval", "--config", str(fixture_dir["config"]),
                             "--out", str(out),
                             "--checkpoint", str(train_out / "checkpoint.ckpt")]) == 0
            outs.append(out)
        for fname in ("predictions.csv", "grouped_pcc_drug.csv", "summary.txt"):
            assert sha(outs[0] / fname) == sha(outs[1] / fname)

    def test_perfect_oracle_checkpoint_scores_one_everywhere(self, tmp_path):
        """Labels generated by the model itself make every defined group PCC 1."""
        bench = make_benchmark(n_cells=30, cell_dim=12, n_drugs=4, atom_range=(3, 6),
                               n_records=110, noise_std=0.0, seed=3)
        files = write_benchmark_files(bench, tmp_path / "data", embedding_width=512)
        cfg = ModelConfig(gcn_layer_dims=(12, 8), cell_branch_dims=(8,), head_dims=(8, 1),
                          dropout_rate=0.1, n_max_atoms=bench.n_max_atoms,
                          cell_input_dim=512)
        params = init_params(cfg, seed=5)
        wide = np.hstack([bench.cells.matrix, np.zeros((len(bench.cells.ids), 500))])
        oracle_cells = type(bench.cells)("raw_expression", 512, bench.cells.ids, wide)
        dataset = ResponseDataset(bench.records, bench.padded, oracle_cells)
        preds = predict_records(params, cfg, dataset)
        for record, value in zip(bench.records, preds):
            record.ic50 = float(value)
        write_response_csv(files["responses"], bench.records)
        ckpt = tmp_path / "oracle.ckpt"
        save_checkpoint(ckpt, cfg, params)

        config = write_config(tmp_path / "run.ini", files, bench.n_max_atoms)
        out = tmp_path / "out"
        assert cli.main(["eval", "--config", str(config), "--out", str(out),
                         "--checkpoint", str(ckpt)]) == 0
        for kind in ("cell_line", "cancer_type", "drug"):
            lines = (out / f"grouped_pcc_{kind}.csv").read_text().splitlines()[1:]
            assert lines, f"no defined groups for {kind}"
            for line in lines:
                assert float(line.split(",")[1]) == 1.0
        summary = dict(line.split("=", 1)
                       for line in (out / "summary.txt").read_text().splitlines())
        assert summary["overall.pcc"] == "1.0"

    def test_single_sample_groups_are_counted_undefined(self, fixture_dir):
        summary_path = fixture_dir["root"] / "e1" / "summary.txt"
        summary = dict(line.split("=", 1) for line in summary_path.read_text().splitlines())
        # 16 test records over 40 cell lines: singleton cell-line groups exist
        assert int(summary["groups.cell_line.undefined"]) > 0
        assert "groups.cell_line.undefined_ids" in summary

    def test_config_mismatch_exits_4(self, fixture_dir, capsys):
        train_out = fixture_dir["root"] / "t1"
        code = cli.main(["eval", "--config", str(fixture_dir["config"]),
                         "--feature-source", "raw",
                         "--out", str(fixture_dir["root"] / "e_mismatch"),
                         "--checkpoint", str(train_out / "checkpoint.ckpt")])
        assert code == 4
        assert "different configuration" in capsys.readouterr().err

    def test_missing_checkpoint_exits_4(self, fixture_dir, capsys):
        ghost = fixture_dir["root"] / "ghost.ckpt"
        code = cli.main(["eval", "--config", str(fixture_dir["config"]),
                         "--out", str(fixture_dir["root"] / "e_none"),
                         "--checkpoint", str(ghost)])
        err = capsys.readouterr().err
        assert code == 4
        assert str(ghost) in err and "cannot open" in err

    def test_a_checkpoint_that_cannot_be_opened_exits_4(self, fixture_dir, capsys):
        run_dir = fixture_dir["root"] / "t1"
        code = cli.main(["eval", "--config", str(fixture_dir["config"]),
                         "--out", str(fixture_dir["root"] / "e_dir"),
                         "--checkpoint", str(run_dir)])
        err = capsys.readouterr().err
        assert code == 4
        assert str(run_dir) in err and "cannot open" in err

    def test_a_non_finite_checkpoint_value_exits_4(self, fixture_dir, tmp_path, capsys):
        cfg, params = load_checkpoint(fixture_dir["root"] / "t1" / "checkpoint.ckpt")
        params.gcn[0].weight.data[0, 0] = np.nan
        ckpt = tmp_path / "nan.ckpt"
        save_checkpoint(ckpt, cfg, params)
        code = cli.main(["eval", "--config", str(fixture_dir["config"]),
                         "--out", str(tmp_path / "o"), "--checkpoint", str(ckpt)])
        err = capsys.readouterr().err
        assert code == 4
        assert "nan.ckpt" in err and "gcn.0.weight" in err
        assert not (tmp_path / "o").exists()

    def test_weights_that_overflow_the_forward_pass_exit_4(self, fixture_dir, tmp_path,
                                                           capsys):
        """Finite weights whose products overflow give no RuntimeWarning (tests
        turn one into an error) and no scored output."""
        cfg, params = load_checkpoint(fixture_dir["root"] / "t1" / "checkpoint.ckpt")
        for layer in params.gcn + params.cell + params.head:
            layer.weight.data *= 1e200
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(ckpt, cfg, params)
        code = cli.main(["eval", "--config", str(fixture_dir["config"]),
                         "--out", str(tmp_path / "o"), "--checkpoint", str(ckpt)])
        err = capsys.readouterr().err
        assert code == 4
        assert re.search(r"huge\.ckpt: 16 of 16 predictions are not finite", err)
        assert not (tmp_path / "o").exists()

    def test_checkpoint_with_a_task_key_exits_4(self, fixture_dir, tmp_path, capsys):
        """Checkpoints written while the model still had a task field no longer load."""
        head, _, body = (fixture_dir["root"] / "t1" / "checkpoint.ckpt").read_bytes().partition(b"\n")
        header = json.loads(head)
        header["config"]["task"] = "regression"
        old = tmp_path / "old.ckpt"
        old.write_bytes(json.dumps(header, sort_keys=True).encode() + b"\n" + body)
        code = cli.main(["eval", "--config", str(fixture_dir["config"]),
                         "--out", str(tmp_path / "o"), "--checkpoint", str(old)])
        err = capsys.readouterr().err
        assert code == 4
        assert "old.ckpt" in err and "task" in err


class TestLodo:
    def test_one_fold_yields_one_gain_row(self, fixture_dir, tmp_path):
        config = write_config(tmp_path / "lodo.ini", fixture_dir["files"],
                              fixture_dir["bench"].n_max_atoms)
        out = tmp_path / "out"
        assert cli.main(["lodo", "--config", str(config), "--out", str(out)]) == 0
        lines = (out / "lodo_gains.csv").read_text().splitlines()
        assert lines[0] == "drug_id,rank,gain_scgpt"
        assert len(lines) == 2
        assert lines[1].split(",")[1] == "1"
        summary = dict(line.split("=", 1)
                       for line in (out / "lodo_summary.txt").read_text().splitlines())
        assert summary["baseline"] == "raw_expression"
        assert summary["folds"] == "1"

    def test_two_sources_read_the_drugs_and_responses_once(self, fixture_dir, tmp_path,
                                                            monkeypatch):
        """Both sources join the same graphs and responses, so each table is
        read once; the outputs are the bytes the run wrote when each source
        read its own copy."""
        calls = []

        def counted(name):
            real = getattr(cli, name)

            def read(path):
                calls.append(name)
                return real(path)
            return read

        for name in ("load_drug_manifest", "load_responses"):
            monkeypatch.setattr(cli, name, counted(name))
        config = write_config(tmp_path / "lodo.ini", fixture_dir["files"],
                              fixture_dir["bench"].n_max_atoms)
        out = tmp_path / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["lodo", "--config", str(config), "--out", str(out)]) == 0
        assert sorted(calls) == ["load_drug_manifest", "load_responses"]
        assert (out / "lodo_gains.csv").read_bytes() == (
            b"drug_id,rank,gain_scgpt\nD002,1,0.05778812497177138\n")
        assert (out / "lodo_summary.txt").read_bytes() == (
            b"baseline=raw_expression\nvariants=scgpt\nfolds=1\nfolds_scored=1\n"
            b"folds_undefined=none\npairs_dropped.raw_expression=0\npairs_dropped.scgpt=0\n")

    def test_variants_train_and_score_on_the_pairs_every_source_covers(
            self, fixture_dir, tmp_path, monkeypatch):
        """C000 has no expression row, so raw_expression cannot score its
        pairs; scGPT must then leave them out too."""
        _, files, config = copy_fixture(fixture_dir, tmp_path)
        lines = files["expression"].read_text(encoding="utf-8").splitlines()
        files["expression"].write_text(
            "\n".join(ln for ln in lines if not ln.startswith("C000,")) + "\n", encoding="utf-8")
        missing = sum(r.cell_line_id == "C000" for r in fixture_dir["bench"].records)
        assert missing > 0
        seen = []
        real_train = cli.train

        def spy(train_set, test_set, mcfg, tcfg):
            seen.append([[(r.drug_id, r.cell_line_id) for r in s.records]
                         for s in (train_set, test_set)])
            return real_train(train_set, test_set, mcfg, tcfg)

        monkeypatch.setattr(cli, "train", spy)
        out = tmp_path / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["lodo", "--config", str(config), "--out", str(out)]) == 0
        assert len(seen) == 2 and seen[0] == seen[1]  # one fold: baseline, then scgpt
        assert not any(cell == "C000" for part in seen[0] for _, cell in part)
        summary = dict(line.split("=", 1)
                       for line in (out / "lodo_summary.txt").read_text().splitlines())
        assert summary["pairs_dropped.raw_expression"] == "0"
        assert summary["pairs_dropped.scgpt"] == str(missing)

    def test_no_scorable_fold_exits_0_with_a_header_only_gains_table(self, fixture_dir,
                                                                       tmp_path):
        """D000 keeps one response, so its held-out fold has no PCC; the run
        still writes the gains header and a summary naming the fold."""
        _, files, config = copy_fixture(fixture_dir, tmp_path)
        lines = files["responses"].read_text(encoding="utf-8").splitlines()
        rest = [ln for ln in lines[1:] if not ln.startswith("D000,")]
        kept = next(ln for ln in lines[1:] if ln.startswith("D000,"))
        files["responses"].write_text("\n".join([lines[0], *rest, kept]) + "\n",
                                      encoding="utf-8")
        config.write_text(config.read_text().replace("seed = 0", "seed = 1"))
        out = tmp_path / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["lodo", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "lodo_gains.csv").read_text() == "drug_id,rank,gain_scgpt\n"
        summary = dict(line.split("=", 1)
                       for line in (out / "lodo_summary.txt").read_text().splitlines())
        assert summary["folds"] == "1"
        assert summary["folds_scored"] == "0"
        assert summary["folds_undefined"] == "raw_expression:D000;scgpt:D000"

    def test_requires_a_non_baseline_variant(self, fixture_dir, tmp_path, capsys):
        config = write_config(tmp_path / "lodo.ini", fixture_dir["files"],
                              fixture_dir["bench"].n_max_atoms)
        config.write_text(config.read_text().replace("variants = scgpt", "variants = raw"))
        assert cli.main(["lodo", "--config", str(config),
                         "--out", str(tmp_path / "o")]) == 2
        assert "non-baseline" in capsys.readouterr().err

    def test_more_held_out_drugs_than_the_dataset_has_exits_2(self, fixture_dir, tmp_path,
                                                                 capsys):
        config = write_config(tmp_path / "lodo.ini", fixture_dir["files"],
                              fixture_dir["bench"].n_max_atoms)
        config.write_text(config.read_text().replace("n_drugs = 1", "n_drugs = 50"))
        assert cli.main(["lodo", "--config", str(config),
                         "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: {config}: [lodo] n_drugs: asked for 50 held-out drugs, dataset has 5\n")

    def test_batch_norm_without_two_record_batches_exits_2_naming_the_fold(
            self, fixture_dir, tmp_path, capsys):
        config = write_config(tmp_path / "lodo.ini", fixture_dir["files"],
                              fixture_dir["bench"].n_max_atoms)
        config.write_text(config.read_text().replace("batch_size = 16", "batch_size = 1"))
        assert cli.main(["lodo", "--config", str(config),
                         "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert re.match(r"error: fold 'D\d{3}' variant 'raw_expression': "
                        r"batch norm needs batches of >= 2 records", err), err
        assert not (tmp_path / "o").exists()


class TestProtocolSteps:
    """The steps the commands are built from, called directly, give the
    bytes the commands write."""

    SEED = 3

    def run(self, command, config, out):
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            assert cli.main([command, "--config", str(config), "--seed", str(self.SEED),
                             "--out", str(out)]) == 0
        return printed.getvalue()

    def test_fit_on_the_split_sets_gives_the_train_command_checkpoint(self, fixture_dir,
                                                                      tmp_path):
        self.run("train", fixture_dir["config"], tmp_path / "out")
        cfg = cli.load_run_config(fixture_dir["config"], seed=self.SEED)
        dataset, _ = cli.assemble_dataset(cfg, cfg.feature_source)
        params, history, mcfg = cli.fit(cfg, *cli.split_sets(cfg, dataset), "train")
        save_checkpoint(tmp_path / "fit.ckpt", mcfg, params)
        write_history_csv(tmp_path / "history.csv", cfg.feature_source, history)
        for name, mine in (("checkpoint.ckpt", "fit.ckpt"), ("history.csv", "history.csv")):
            assert (tmp_path / mine).read_bytes() == (tmp_path / "out" / name).read_bytes()

    def test_score_on_the_test_set_gives_the_eval_command_outputs(self, fixture_dir, tmp_path):
        out = tmp_path / "out"
        self.run("train", fixture_dir["config"], out)
        self.run("eval", fixture_dir["config"], out)
        cfg = cli.load_run_config(fixture_dir["config"], seed=self.SEED)
        mcfg, params = load_checkpoint(out / "checkpoint.ckpt")
        dataset, _ = cli.assemble_dataset(cfg, cfg.feature_source)
        rows, report = cli.score(params, mcfg, cli.split_sets(cfg, dataset)[1], "test set")
        mine = tmp_path / "mine"
        mine.mkdir()
        write_predictions_csv(mine / "predictions.csv", rows)
        for kind, stats in report.grouped.items():
            write_grouped_csv(mine / f"grouped_pcc_{kind}.csv", stats)
        write_summary(mine / "summary.txt", summary_entries(report))
        assert len(list(mine.iterdir())) == 5
        for path in mine.iterdir():
            assert path.read_bytes() == (out / path.name).read_bytes(), path.name

    def test_lodo_folds_and_lodo_fold_give_the_lodo_command_outputs(self, fixture_dir,
                                                                     tmp_path):
        """Two folds over the pairs both sources cover: C000 has no
        expression row, so scGPT drops its pairs."""
        _, files, config = copy_fixture(fixture_dir, tmp_path)
        lines = files["expression"].read_text(encoding="utf-8").splitlines()
        files["expression"].write_text(
            "\n".join(ln for ln in lines if not ln.startswith("C000,")) + "\n", encoding="utf-8")
        config.write_text(config.read_text().replace("n_drugs = 1", "n_drugs = 2"))
        printed = self.run("lodo", config, tmp_path / "out")

        cfg = cli.load_run_config(config, seed=self.SEED)
        datasets = {source: joined[0] for source, joined
                    in cli.assemble_datasets(cfg, cfg.lodo_sources).items()}
        folds, dropped = cli.lodo_folds(cfg, datasets)
        pccs = {drug: cli.lodo_fold(cfg, datasets, drug, train_records, test_records)
                for drug, train_records, test_records in folds}
        assert list(pccs) == re.findall(r"^fold (\w+):", printed, re.M)
        for drug, fold in pccs.items():
            assert list(fold) == ["raw_expression", "scgpt"]
            assert f"fold {drug}: raw_expression={fold['raw_expression']:.3f}, " \
                   f"scgpt={fold['scgpt']:.3f}\n" in printed
        summary = dict(line.split("=", 1) for line in
                       (tmp_path / "out" / "lodo_summary.txt").read_text().splitlines())
        assert {key: str(count) for key, count in dropped.items()} == {
            key: value for key, value in summary.items() if key.startswith("pairs_dropped.")}
        assert dropped["pairs_dropped.scgpt"] > 0

        gains = ranked_gains({"scgpt": {d: fold["scgpt"] for d, fold in pccs.items()}},
                             {d: fold["raw_expression"] for d, fold in pccs.items()})
        write_lodo_gains_csv(tmp_path / "gains.csv", ["scgpt"], gains)
        assert len(gains) == 2
        assert (tmp_path / "gains.csv").read_bytes() == (
            tmp_path / "out" / "lodo_gains.csv").read_bytes()


class TestReport:
    def make_run(self, path, name, pccs):
        path.mkdir(parents=True)
        write_history_csv(path / "history.csv", name, [
            EpochRecord(epoch=i + 1, train_loss=1.0, val_pcc=p) for i, p in enumerate(pccs)])

    def test_merges_histories_with_stopped_markers(self, tmp_path):
        self.make_run(tmp_path / "run_a", "scgpt", list(np.linspace(0.8, 0.92, 20)))
        self.make_run(tmp_path / "run_b", "baseline", list(np.linspace(0.7, 0.8, 17)))
        out = tmp_path / "report"
        assert cli.main(["report", str(tmp_path / "run_a"), str(tmp_path / "run_b"),
                         "--out", str(out)]) == 0
        lines = (out / "stability.csv").read_text().splitlines()
        assert lines[0] == "epoch,val_pcc_baseline,val_pcc_scgpt"
        assert len(lines) == 21
        assert lines[18].split(",")[1] == "stopped"  # epoch 18, baseline stopped at 17
        assert lines[17].split(",")[1] != "stopped"

    def test_single_run_report_equals_history(self, tmp_path):
        self.make_run(tmp_path / "only", "m", [0.5, 0.6, 0.55])
        out = tmp_path / "report"
        assert cli.main(["report", str(tmp_path / "only"), "--out", str(out)]) == 0
        lines = (out / "stability.csv").read_text().splitlines()
        assert [ln.split(",")[1] for ln in lines[1:]] == ["0.5", "0.6", "0.55"]

    def test_run_names_holding_a_comma_or_quote_keep_the_table_rectangular(self, tmp_path):
        """x/history.csv and 'a,"b'/history.csv both hold model m, so the
        second is keyed by its run directory's name."""
        odd = 'a,"b'
        self.make_run(tmp_path / "x", "m", [0.5, 0.6])
        self.make_run(tmp_path / odd, "m", [0.4, 0.7])
        out = tmp_path / "report"
        assert cli.main(["report", str(tmp_path / "x"), str(tmp_path / odd),
                         "--out", str(out)]) == 0
        with open(out / "stability.csv", newline="", encoding="utf-8") as fh:
            header, *body = csv.reader(fh)
        assert header == ["epoch", f"val_pcc_{odd}:m", "val_pcc_m"]
        assert body == [["1", "0.4", "0.5"], ["2", "0.7", "0.6"]]

    def test_missing_history_exits_5(self, tmp_path, capsys):
        (tmp_path / "empty_run").mkdir()
        assert cli.main(["report", str(tmp_path / "empty_run"),
                         "--out", str(tmp_path / "o")]) == 5
        assert "history.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("beside", [False, True], ids=["alone", "beside_a_run"])
    def test_a_history_without_epochs_exits_5_naming_it(self, tmp_path, capsys, beside):
        """`train` with epochs = 0 writes the header alone; beside a run
        with epochs it was dropped silently and the report exited 0."""
        self.make_run(tmp_path / "zero", "scgpt", [])
        runs = [tmp_path / "zero"]
        if beside:
            self.make_run(tmp_path / "full", "raw", [0.5, 0.6])
            runs.insert(0, tmp_path / "full")
        assert cli.main(["report", *map(str, runs), "--out", str(tmp_path / "o")]) == 5
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'zero' / 'history.csv'}: history holds no epochs\n")
        assert not (tmp_path / "o").exists()

    def test_unreadable_history_exits_5(self, tmp_path, capsys):
        history = tmp_path / "run" / "history.csv"
        history.mkdir(parents=True)
        assert cli.main(["report", str(tmp_path / "run"), "--out", str(tmp_path / "o")]) == 5
        assert capsys.readouterr().err.startswith(f"error: {history}: cannot be read (")
        assert not (tmp_path / "o").exists()

    def test_one_run_directory_given_twice_exits_5(self, tmp_path, capsys, monkeypatch):
        """The same directory by another path would count its run twice."""
        self.make_run(tmp_path / "out1", "scgpt", [0.5, 0.6])
        monkeypatch.chdir(tmp_path)
        assert cli.main(["report", "out1", str(tmp_path / "out1"), "--out", "o"]) == 5
        assert capsys.readouterr().err == (
            f"error: run directory {tmp_path / 'out1'} is given more than once\n")
        assert not (tmp_path / "o").exists()

    def test_disjoint_epoch_ranges_exit_5(self, tmp_path, capsys):
        self.make_run(tmp_path / "a", "m1", [0.5, 0.6])
        run_b = tmp_path / "b"
        run_b.mkdir()
        write_history_csv(run_b / "history.csv", "m2", [
            EpochRecord(epoch=e, train_loss=1.0, val_pcc=0.5) for e in (10, 11)])
        assert cli.main(["report", str(tmp_path / "a"), str(run_b),
                         "--out", str(tmp_path / "o")]) == 5
        assert "disjoint" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["2,m,0.6", "2,m,0.6,1.0,9", "two,m,0.6,1.0",
                                     "2,m,0.6,high", "2,m,nan,1.0", "2,m,0.6,inf",
                                     "2,m,1.5,1.0",
                                     pytest.param("2,m,0.6," + "1" * 140_000,
                                                  id="field_over_csv_limit")])
    def test_malformed_history_row_exits_5(self, tmp_path, capsys, row):
        self.make_run(tmp_path / "run", "m", [0.5])
        history = tmp_path / "run" / "history.csv"
        history.write_text(history.read_text() + row + "\n")
        assert cli.main(["report", str(tmp_path / "run"), "--out", str(tmp_path / "o")]) == 5
        assert f"{history}, line 3" in capsys.readouterr().err

    def test_repeated_history_key_exits_5(self, tmp_path, capsys):
        """a/run, b/run and c/run all hold model scgpt: b's history is keyed
        run:scgpt, and c's would take the same key."""
        runs = [tmp_path / parent / "run" for parent in "abc"]
        for run in runs:
            self.make_run(run, "scgpt", [0.5, 0.6])
        assert cli.main(["report", *map(str, runs), "--out", str(tmp_path / "o")]) == 5
        err = capsys.readouterr().err
        assert err.startswith(f"error: {runs[2]}: ") and "'run:scgpt'" in err

    def test_repeated_epoch_of_one_model_exits_5(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        history = run / "history.csv"
        history.write_text("epoch,model,val_pcc,train_loss\n"
                           "1,m,0.5,1.0\n1,m,0.9,1.0\n2,m,0.6,1.0\n", encoding="utf-8")
        assert cli.main(["report", str(run), "--out", str(tmp_path / "o")]) == 5
        assert capsys.readouterr().err == (
            f"error: {history}, line 3: epoch 1 of model 'm' repeats line 2\n")
        assert not (tmp_path / "o").exists()

    def test_history_that_is_not_utf8_exits_5(self, tmp_path, capsys):
        self.make_run(tmp_path / "run", "m", [0.5])
        history = tmp_path / "run" / "history.csv"
        history.write_bytes(history.read_bytes() + b"\xff\xfe\n")
        assert cli.main(["report", str(tmp_path / "run"), "--out", str(tmp_path / "o")]) == 5
        assert capsys.readouterr().err.startswith(f"error: {history}: not UTF-8")
