"""Command-line entry point: config-driven, reproducible pipeline runs.

Subcommands: ingest, train, eval, lodo, report. A sectioned key-value config
file names every input; a single master seed expands into per-purpose
sub-seeds (split, training, fold sampling) so runs are bit-reproducible and
enabling one feature never perturbs another's random stream.

The run protocol is five steps; ``train``, ``eval`` and ``lodo`` are config,
file I/O and printing around them:

- ``split_sets``: the seeded train/test split, seed purpose ``"split"``.
- ``fit``: one source's model config and training run; the caller names
  the seed purpose (``"train"``, or ``"lodo:<source>:<drug>"`` per fold).
- ``score``: finite predictions on a dataset as prediction rows and a
  grouped-PCC report; non-finite ones raise DivergenceError naming ``where``.
- ``lodo_folds``: the folds over the pairs every LODO source covers, drugs
  sampled with seed purpose ``"lodo-drugs"``, and each source's dropped-pair
  count; an impossible drug count is a ConfigError naming ``[lodo] n_drugs``.
- ``lodo_fold``: one fold's held-out PCC per source, baseline first; a
  DivergenceError or SplitError keeps its kind and gains the fold's drug
  and variant.

Exit codes are stable contracts: 0 ok, 2 ingest or configuration problem,
3 training problem, 4 evaluation problem, 5 report problem.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import platform
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .autodiff import pin_allocator
from .evaluation import (EpochRecord, EvalReport, PredictionRow, ReportError,
                         build_eval_report, pearson, ranked_gains, read_history_csv,
                         stability_report, summary_entries, write_grouped_csv, write_history_csv,
                         write_lodo_gains_csv, write_predictions_csv,
                         write_stability_csv, write_summary)
from .model import (CheckpointError, ModelConfig, ModelParams, load_checkpoint,
                    save_checkpoint)
from .molgraph import GraphError, load_drug_manifest, pad_graph
from .omics import (FEATURE_SOURCES, CellFeatureSet, IngestError, ResponseDataset,
                    alignment_stats, expression_feature_set, join_dataset,
                    load_embeddings, load_expression, load_gene_list, load_responses)
from .seeding import derive_seed
from .tables import text_input
from .training import (DivergenceError, SplitError, SplitSpec, TrainConfig,
                       finite_predictions, lodo_splits, split_dataset, train)

EXIT_OK = 0
EXIT_INGEST = 2
EXIT_TRAIN = 3
EXIT_EVAL = 4
EXIT_REPORT = 5

# flag spelling -> internal source name
SOURCE_ALIASES = {"scgpt": "scgpt", "scfoundation": "scfoundation", "raw": "raw_expression"}


class ConfigError(ValueError):
    """The run configuration is missing or inconsistent."""


# section -> key -> ConfigParser getter: the only keys a config may set,
# besides [paths], which is open because its keys name the inputs. A key the
# file leaves out takes the default of the dataclass field it fills.
CONFIG_SCHEMA = {
    "run": {"seed": "getint", "feature_source": "get"},
    "model": {"gcn_layer_dims": "getints", "cell_branch_dims": "getints", "head_dims": "getints",
              "dropout_rate": "getfloat", "use_batch_norm": "getboolean", "n_max_atoms": "getint"},
    "train": {"epochs": "getint", "batch_size": "getint", "lr": "getfloat",
              "early_stop_patience": "getoptint"},
    "split": {"test_fraction": "getfloat", "train_cap": "getoptint", "cap_mode": "get"},
    "lodo": {"n_drugs": "getint", "variants": "getlist", "baseline": "get"},
}
# section -> the RunConfig field it fills and that field's dataclass; [run]
# and [lodo] fill RunConfig's own fields, [lodo]'s keys prefixed "lodo_"
SECTION_CLASSES = {"model": ("model", ModelConfig), "train": ("train_cfg", TrainConfig),
                   "split": ("split", SplitSpec)}


def _source(raw: str, where: str) -> str:
    source = SOURCE_ALIASES.get(raw, raw)
    if source not in FEATURE_SOURCES:
        raise ValueError(f"{where}: unknown feature source {raw!r}")
    return source


@dataclass
class RunConfig:
    """Everything a run needs, resolved from one config file plus overrides.

    Feature sources may be given by their flag spelling (``raw``);
    ``lodo_variants`` keeps the distinct variants in file order, without the
    baseline, which every LODO fold scores them against."""

    config_path: Path
    paths: dict[str, Path]
    output_dir: Path
    model: ModelConfig  # cell_input_dim is set per dataset by model_config
    train_cfg: TrainConfig
    split: SplitSpec
    seed: int = 0
    feature_source: str = "scgpt"
    lodo_n_drugs: int = 20
    lodo_variants: list[str] = field(default_factory=lambda: ["scgpt"])
    lodo_baseline: str = "raw_expression"

    def __post_init__(self):
        self.feature_source = _source(self.feature_source, "[run] feature_source")
        self.lodo_baseline = _source(self.lodo_baseline, "[lodo] baseline")
        variants = dict.fromkeys(_source(v, "[lodo] variants") for v in self.lodo_variants)
        variants.pop(self.lodo_baseline, None)
        self.lodo_variants = list(variants)
        if not self.lodo_variants:
            raise ValueError("[lodo] variants must name at least one non-baseline source")
        if self.lodo_n_drugs < 1:
            raise ValueError(f"[lodo] n_drugs must be at least 1, got {self.lodo_n_drugs}")

    @property
    def lodo_sources(self) -> list[str]:
        """The baseline, then the variants: the order LODO fits and reports them in."""
        return [self.lodo_baseline, *self.lodo_variants]


def _list(raw: str) -> list[str]:
    """An INI list value: comma-separated items, each stripped; a blank
    value is the empty list, and an empty item is an error."""
    items = [item.strip() for item in raw.split(",")] if raw.strip() else []
    if "" in items:
        raise ValueError(f"empty item in {raw!r}")
    return items


def _optional_int(raw: str) -> int | None:
    return int(raw) if raw.strip() else None


def load_run_config(path, seed=None, out=None, feature_source=None) -> RunConfig:
    """Resolve a config file plus overrides; any bad value is a ConfigError."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    if not path.is_file():
        raise ConfigError(f"config file is not a readable file: {path}")
    cp = configparser.ConfigParser(interpolation=None, converters={
        "list": _list, "ints": lambda raw: [int(item) for item in _list(raw)],
        "optint": _optional_int})
    try:
        with text_input(path, ConfigError) as fh:
            cp.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    if cp.defaults():  # configparser would merge its keys into every section
        raise ConfigError(f"{path}: [DEFAULT] is not supported; set each key in its section")
    for section in cp.sections():
        if section == "paths":
            continue
        if section not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}: unknown section [{section}]")
        unknown = [key for key in cp.options(section) if key not in CONFIG_SCHEMA[section]]
        if unknown:
            raise ConfigError(f"{path}: unknown key(s) in [{section}]: {', '.join(unknown)}")
    base = path.parent  # relative paths are the config's; `/` keeps an absolute one
    entries = cp.items("paths") if cp.has_section("paths") else []
    paths = {key: base / value for key, value in entries if key != "output_dir" and value}
    output_dir = Path(out) if out else base / cp.get("paths", "output_dir", fallback="out")
    fields: dict = {}
    where = ""  # the part of the file a ValueError below is about
    try:
        for section, schema in CONFIG_SCHEMA.items():
            values = {}
            for key, getter in schema.items():
                if cp.has_option(section, key):
                    where = f"[{section}] {key}: "
                    values[key] = getattr(cp, getter)(section, key)
            where = f"[{section}] "
            if section in SECTION_CLASSES:  # seeds stay 0; a run derives them per purpose
                name, cls = SECTION_CLASSES[section]
                fields[name] = cls(**values)
            else:
                prefix = "lodo_" if section == "lodo" else ""
                fields.update((prefix + key, value) for key, value in values.items())
        where = ""  # RunConfig names the section and key itself
        overrides = {"seed": seed, "feature_source": feature_source}
        fields.update((key, value) for key, value in overrides.items() if value is not None)
        return RunConfig(path, paths, output_dir, **fields)
    except ValueError as exc:
        raise ConfigError(f"{path}: {where}{exc}") from None


def _require_path(cfg: RunConfig, key: str) -> Path:
    """The configured input file ``paths.<key>``; a ConfigError naming the
    config file, the key and the path where it is unset, missing, or not a
    regular file (a directory, say)."""
    p = cfg.paths.get(key)
    if p is None:
        raise ConfigError(f"config {cfg.config_path} does not set paths.{key}")
    if not p.exists():
        raise ConfigError(f"{cfg.config_path}: paths.{key} does not exist: {p}")
    if not p.is_file():
        raise ConfigError(f"{cfg.config_path}: paths.{key} is not a readable file: {p}")
    return p


def _check_output_dir(path: Path, where: str) -> None:
    """Before any work, so a run cannot fail at its end for want of a place to
    write: a ConfigError unless ``path``, or its nearest existing ancestor, is
    a directory."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"{where} {path}: {existing} is not a directory")


_HASH_BLOCK = 1 << 20  # bytes hashed per read, so no input is held whole


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_HASH_BLOCK):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# data assembly
# ---------------------------------------------------------------------------

def load_cells(cfg: RunConfig, source: str) -> tuple[CellFeatureSet, dict]:
    """Feature vectors for one source plus ingestion-report entries."""
    entries: dict[str, object] = {}
    if source == "raw_expression":
        # glibc would raise its mmap threshold to the int32 count table's size
        # when it is freed, and hold later set-up arrays in an untrimmed heap
        pin_allocator()
        expression = _require_path(cfg, "expression")
        profiles = load_expression(expression)
        gene_list = _require_path(cfg, "gene_list")
        genes = load_gene_list(gene_list)
        padded, dropped = alignment_stats(profiles[0], genes)
        if padded == len(genes):
            raise IngestError(f"{expression}: no gene of its header is in the gene list "
                              f"{gene_list}")
        entries["expression.rows"] = len(profiles)
        entries["genes.canonical"] = len(genes)
        entries["genes.padded"] = padded
        entries["genes.dropped"] = dropped
        cells = expression_feature_set(profiles, genes)
    else:
        cells = load_embeddings(_require_path(cfg, f"embeddings_{source}"), source)
    entries["cells.rows"] = len(cells.ids)
    entries["cells.dim"] = cells.dim
    return cells, entries


def assemble_datasets(cfg: RunConfig,
                      sources: list[str]) -> dict[str, tuple[ResponseDataset, dict]]:
    """Each source's joined dataset plus ingestion-report entries. The drug
    graphs and the responses are read once and joined with every source's
    cells."""
    graphs = load_drug_manifest(_require_path(cfg, "drug_manifest"))
    padded = {d: pad_graph(g, cfg.model.n_max_atoms) for d, g in graphs.items()}
    cells = {source: load_cells(cfg, source) for source in sources}
    responses = load_responses(_require_path(cfg, "responses"))
    joined = {}
    for source, (cell_set, cell_entries) in cells.items():
        dataset, stats = join_dataset(responses, padded, cell_set)
        joined[source] = dataset, {
            "feature_source": source, "drugs.rows": len(padded), **cell_entries,
            "responses.rows": len(responses), "join.matched": stats.matched,
            "join.missing_drug": stats.missing_drug, "join.missing_cell": stats.missing_cell}
    return joined


def assemble_dataset(cfg: RunConfig, source: str) -> tuple[ResponseDataset, dict]:
    """Load graphs, cells, and responses for one source and join them."""
    return assemble_datasets(cfg, [source])[source]


def model_config(cfg: RunConfig, cell_dim: int) -> ModelConfig:
    return replace(cfg.model, cell_input_dim=cell_dim)


def split_sets(cfg: RunConfig,
               dataset: ResponseDataset) -> tuple[ResponseDataset, ResponseDataset]:
    """The seeded train and test sets of one dataset."""
    spec = replace(cfg.split, seed=derive_seed(cfg.seed, "split"))
    train_records, test_records = split_dataset(dataset.records, spec)
    return dataset.subset(train_records), dataset.subset(test_records)


def fit(cfg: RunConfig, train_set: ResponseDataset, val_set: ResponseDataset,
        purpose: str) -> tuple[ModelParams, list[EpochRecord], ModelConfig]:
    """Train one model on ``train_set``, seeded for ``purpose``."""
    mcfg = model_config(cfg, train_set.cells.dim)
    tcfg = replace(cfg.train_cfg, seed=derive_seed(cfg.seed, purpose))
    params, history = train(train_set, val_set, mcfg, tcfg)
    return params, history, mcfg


def score(params: ModelParams, mcfg: ModelConfig, dataset: ResponseDataset,
          where: str) -> tuple[list[PredictionRow], EvalReport]:
    """Predictions on ``dataset`` as rows, and their grouped-PCC report."""
    preds = finite_predictions(params, mcfg, dataset, where)
    rows = [PredictionRow(drug_id=r.drug_id, cell_line_id=r.cell_line_id,
                          predicted=float(p), observed=r.ic50, cancer_type=r.cancer_type)
            for r, p in zip(dataset.records, preds)]
    return rows, build_eval_report(rows)


def lodo_folds(cfg: RunConfig, datasets: dict[str, ResponseDataset]
               ) -> tuple[list[tuple[str, list, list]], dict[str, int]]:
    """The LODO folds, and ``pairs_dropped.<source>`` counts: the pairs a
    source joined that some other source has no cells for."""
    sources = cfg.lodo_sources
    # every source joins the same responses and graphs, so the pairs all of
    # them cover are the baseline's records whose cell line every source has
    records = [r for r in datasets[cfg.lodo_baseline].records
               if all(r.cell_line_id in datasets[s].cells for s in sources)]
    dropped = {f"pairs_dropped.{s}": len(datasets[s]) - len(records) for s in sources}
    try:
        folds = lodo_splits(records, cfg.lodo_n_drugs, derive_seed(cfg.seed, "lodo-drugs"))
    except SplitError as exc:  # the one count lodo_splits checks comes from the config
        raise ConfigError(f"{cfg.config_path}: [lodo] n_drugs: {exc}") from None
    return folds, dropped


def lodo_fold(cfg: RunConfig, datasets: dict[str, ResponseDataset], drug: str,
              train_records: list, test_records: list) -> dict[str, float | None]:
    """Each LODO source's PCC on the held-out drug ``drug``, None where it is
    undefined."""
    pccs = {}
    for source in cfg.lodo_sources:
        ds = datasets[source]
        train_set, test_set = ds.subset(train_records), ds.subset(test_records)
        try:
            params, _, mcfg = fit(cfg, train_set, test_set, f"lodo:{source}:{drug}")
            preds = finite_predictions(params, mcfg, test_set, "test predictions")
        except (DivergenceError, SplitError) as exc:  # keep the kind: it picks the exit code
            raise type(exc)(f"fold {drug!r} variant {source!r}: {exc}") from exc
        pccs[source] = pearson(preds, test_set.labels())
    return pccs


def write_run_manifest(path: Path, cfg: RunConfig, extra: dict) -> None:
    entries: dict[str, object] = {
        "package_version": __version__,
        "seed": cfg.seed,
        "feature_source": cfg.feature_source,
        "config_sha256": _sha256(cfg.config_path),
        "env.python": platform.python_version(),
        "env.numpy": np.__version__,
        "env.allocator": pin_allocator(),
    }
    for key in sorted(cfg.paths):
        if cfg.paths[key].is_file():
            entries[f"data.{key}.sha256"] = _sha256(cfg.paths[key])
    entries.update(extra)
    write_summary(path, entries)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_ingest(cfg: RunConfig) -> int:
    dataset, entries = assemble_dataset(cfg, cfg.feature_source)
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    write_summary(cfg.output_dir / "ingest_report.txt", entries)
    print(f"ingested {entries['join.matched']} matched records "
          f"({entries['join.missing_drug']} missing drug, "
          f"{entries['join.missing_cell']} missing cell)")
    return EXIT_OK


def cmd_train(cfg: RunConfig) -> int:
    dataset, entries = assemble_dataset(cfg, cfg.feature_source)
    train_set, test_set = split_sets(cfg, dataset)
    params, history, mcfg = fit(cfg, train_set, test_set, "train")

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    save_checkpoint(cfg.output_dir / "checkpoint.ckpt", mcfg, params)
    write_history_csv(cfg.output_dir / "history.csv", cfg.feature_source, history)
    write_summary(cfg.output_dir / "ingest_report.txt", entries)
    write_run_manifest(cfg.output_dir / "run_manifest.txt", cfg, {
        "train.records": len(train_set.records),
        "test.records": len(test_set.records),
        "train.epochs_run": len(history),
    })
    if history:
        last = history[-1]
        pcc = "undefined" if last.val_pcc is None else f"{last.val_pcc:.4f}"
        print(f"trained {len(history)} epochs; final val_pcc {pcc}")
    else:
        print("trained 0 epochs; checkpoint holds the initial parameters")
    return EXIT_OK


def cmd_eval(cfg: RunConfig, checkpoint: Path | None) -> int:
    ckpt_path = checkpoint or (cfg.output_dir / "checkpoint.ckpt")
    saved_cfg, params = load_checkpoint(ckpt_path)
    dataset, _ = assemble_dataset(cfg, cfg.feature_source)
    expected = model_config(cfg, dataset.cells.dim)
    if saved_cfg != expected:
        raise CheckpointError(
            f"checkpoint {ckpt_path} was trained with a different configuration "
            f"than the one this config and feature source imply")
    _, test_set = split_sets(cfg, dataset)
    # finite weights can still overflow; the checkpoint is then at fault
    try:
        rows, report = score(params, saved_cfg, test_set, f"checkpoint {ckpt_path}")
    except DivergenceError as exc:
        raise CheckpointError(str(exc)) from None

    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    write_predictions_csv(cfg.output_dir / "predictions.csv", rows)
    for kind, stats in report.grouped.items():
        write_grouped_csv(cfg.output_dir / f"grouped_pcc_{kind}.csv", stats)
    write_summary(cfg.output_dir / "summary.txt", summary_entries(report))
    overall = "undefined" if report.overall_pcc is None else f"{report.overall_pcc:.4f}"
    print(f"evaluated {report.n_predictions} predictions; overall pcc {overall}")
    return EXIT_OK


def cmd_lodo(cfg: RunConfig) -> int:
    sources = cfg.lodo_sources
    datasets = {source: joined[0] for source, joined in assemble_datasets(cfg, sources).items()}
    folds, dropped = lodo_folds(cfg, datasets)
    fold_drugs = [drug for drug, _, _ in folds]

    pccs: dict[str, dict[str, float]] = {s: {} for s in sources}
    undefined: list[str] = []
    for drug, train_records, test_records in folds:
        for source, pcc in lodo_fold(cfg, datasets, drug, train_records, test_records).items():
            if pcc is None:
                undefined.append(f"{source}:{drug}")
            else:
                pccs[source][drug] = pcc
        print(f"fold {drug}: " + ", ".join(
            f"{s}={pccs[s].get(drug, float('nan')):.3f}" for s in sources))

    scored = [d for d in fold_drugs if all(d in pccs[s] for s in sources)]
    rows = ranked_gains({v: {d: pccs[v][d] for d in scored} for v in cfg.lodo_variants},
                        {d: pccs[cfg.lodo_baseline][d] for d in scored})
    cfg.output_dir.mkdir(parents=True, exist_ok=True)
    write_lodo_gains_csv(cfg.output_dir / "lodo_gains.csv", cfg.lodo_variants, rows)
    write_summary(cfg.output_dir / "lodo_summary.txt", {
        "baseline": cfg.lodo_baseline,
        "variants": ",".join(cfg.lodo_variants),
        "folds": len(fold_drugs),
        "folds_scored": len(scored),
        "folds_undefined": ";".join(undefined) if undefined else "none",
        **dropped,
    })
    print(f"lodo finished: {len(scored)} of {len(fold_drugs)} folds scored")
    return EXIT_OK


def cmd_report(run_dirs: list[Path], out: Path) -> int:
    histories = {}
    seen = set()
    for run_dir in run_dirs:
        if run_dir.resolve() in seen:  # its runs would count twice
            raise ReportError(f"run directory {run_dir} is given more than once")
        seen.add(run_dir.resolve())
        path = run_dir / "history.csv"
        if not path.exists():
            raise ReportError(f"no history.csv in {run_dir}")
        runs = read_history_csv(path)
        if not runs:  # a header alone, as train writes for epochs = 0
            raise ReportError(f"{path}: history holds no epochs")
        for model_name, records in runs.items():
            key = model_name if model_name not in histories else f"{Path(run_dir).name}:{model_name}"
            if key in histories:
                raise ReportError(f"{run_dir}: history key {key!r} repeats an earlier run's")
            histories[key] = records
    report = stability_report(histories)
    out.mkdir(parents=True, exist_ok=True)
    write_stability_csv(out / "stability.csv", report)
    entries: dict[str, object] = {}
    for name in sorted(report.summary):
        s = report.summary[name]
        entries[f"{name}.max_pcc"] = "undefined" if s.max_pcc is None else s.max_pcc
        entries[f"{name}.final_pcc"] = "undefined" if s.final_pcc is None else s.final_pcc
        entries[f"{name}.fluctuation"] = s.fluctuation
    write_summary(out / "stability_summary.txt", entries)
    print(f"merged {len(histories)} histories over epochs "
          f"{report.epochs[0]}..{report.epochs[-1]}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdrpipe",
        description="Drug-response prediction pipeline: ingest, train, evaluate.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--seed", type=int, default=None, help="override the master seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--feature-source", choices=sorted(SOURCE_ALIASES),
                       default=None, help="override the cell feature source")

    add_common(sub.add_parser("ingest", help="load, validate, and join all inputs"))
    add_common(sub.add_parser("train", help="train one model variant"))
    p_eval = sub.add_parser("eval", help="grouped-PCC evaluation of a checkpoint")
    add_common(p_eval)
    p_eval.add_argument("--checkpoint", default=None, help="checkpoint to evaluate")
    add_common(sub.add_parser("lodo", help="paired leave-one-drug-out comparison"))
    p_rep = sub.add_parser("report", help="merge run histories into stability tables")
    p_rep.add_argument("run_dirs", nargs="+", help="run directories holding history.csv")
    p_rep.add_argument("--out", default=".", help="where to write the report")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            _check_output_dir(Path(args.out), "--out")
            return cmd_report([Path(d) for d in args.run_dirs], Path(args.out))
        cfg = load_run_config(args.config, seed=args.seed, out=args.out,
                              feature_source=args.feature_source)
        _check_output_dir(cfg.output_dir, "--out" if args.out else
                          f"{cfg.config_path}: paths.output_dir")
        if args.command == "ingest":
            return cmd_ingest(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "eval":
            checkpoint = Path(args.checkpoint) if args.checkpoint else None
            return cmd_eval(cfg, checkpoint)
        if args.command == "lodo":
            return cmd_lodo(cfg)
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, IngestError, GraphError, SplitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INGEST
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TRAIN
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_EVAL
    except ReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REPORT


if __name__ == "__main__":
    sys.exit(main())
