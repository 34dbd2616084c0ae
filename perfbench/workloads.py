"""The three workloads: set-up, one timed unit of work, and output checks.

Each workload reads the tables :mod:`perfbench.inputs` wrote, through the
same calls the ``cdrpipe`` command line makes (``cli.load_run_config``,
``cli.assemble_dataset``, ``training.train``, ``model.predict_records``, ...).
Every call goes through its module attribute so the traced run sees it.

``setup(workdir)`` returns the state a unit needs; ``unit(state, clock)`` runs
the workload once and returns its outputs and its timings read from
``clock``, plus a ``repredict`` callable that repeats its prediction pass
(for a steadier predictions-per-second figure; None where the pass is long
enough to time once); ``check(state, out)`` returns the list of failed
output checks.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from cdrpipe import cli, evaluation, model, training
from cdrpipe.seeding import derive_seed

PCC_FLOOR = 0.9            # paper_train: test PCC after its epochs
REFERENCE_TOL = 1e-9       # screen_eval: predictions vs the plain-numpy forward
REFERENCE_SAMPLE = 64      # screen_eval: records checked against the reference
BN_EPS = 1e-5              # BatchNormState's default; checkpoints do not store it


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(values)))


def _train_config(cfg, seed_purpose: str) -> training.TrainConfig:
    base = cfg.train_cfg
    return training.TrainConfig(epochs=base.epochs, batch_size=base.batch_size, lr=base.lr,
                                seed=derive_seed(cfg.seed, seed_purpose),
                                early_stop_patience=base.early_stop_patience)


def _join_problems(entries: dict, expected_records: int) -> list[str]:
    if entries["join.matched"] != expected_records:
        return [f"join kept {entries['join.matched']} of {expected_records} records"]
    return []


# ---------------------------------------------------------------------------
# paper_train: train on the 95/5 split at the paper shape, predict the test side
# ---------------------------------------------------------------------------

class PaperTrain:
    name = "paper_train"

    def setup(self, workdir: Path):
        cfg = cli.load_run_config(workdir / "run.ini")
        dataset, entries = cli.assemble_dataset(cfg, "scgpt")
        return {"cfg": cfg, "dataset": dataset, "entries": entries}

    def unit(self, state, clock) -> dict:
        cfg, dataset = state["cfg"], state["dataset"]
        t0 = clock()
        spec = training.SplitSpec(test_fraction=cfg.split.test_fraction,
                                  train_cap=cfg.split.train_cap, cap_mode=cfg.split.cap_mode,
                                  seed=derive_seed(cfg.seed, "split"))
        train_records, test_records = training.split_dataset(dataset.records, spec)
        train_set, test_set = dataset.subset(train_records), dataset.subset(test_records)
        mcfg = cli.model_config(cfg, dataset.cells.dim)
        params, history = training.train(train_set, test_set, mcfg, _train_config(cfg, "train"))
        t1 = clock()
        preds = model.predict_records(params, mcfg, test_set)
        t2 = clock()
        pcc = evaluation.pearson(preds, test_set.labels())
        return {
            "wall_s": clock() - t0,
            "train_s": t1 - t0,
            "train_records": len(train_set.records) * len(history),
            "predict_records": len(test_set.records),
            "predict_s": t2 - t1,
            "repredict": lambda: model.predict_records(params, mcfg, test_set),
            "losses": [h.train_loss for h in history],
            "preds": preds,
            "test_pcc": pcc,
        }

    def check(self, state, out) -> list[str]:
        problems = _join_problems(state["entries"], len(state["dataset"].records))
        if not _finite(out["losses"]) or not _finite(out["preds"]):
            problems.append("non-finite training loss or prediction")
        if out["test_pcc"] is None or out["test_pcc"] < PCC_FLOOR:
            problems.append(f"test PCC {out['test_pcc']} is below {PCC_FLOOR}")
        return problems


# ---------------------------------------------------------------------------
# raw_lodo: one leave-one-drug-out fold, raw expression against scGPT
# ---------------------------------------------------------------------------

class RawLodo:
    """The steps of ``cli.cmd_lodo`` for one fold, minus its file output."""

    name = "raw_lodo"

    def setup(self, workdir: Path):
        cfg = cli.load_run_config(workdir / "run.ini")
        sources = [cfg.lodo_baseline] + [v for v in cfg.lodo_variants if v != cfg.lodo_baseline]
        datasets, entries = {}, {}
        for source in sources:
            datasets[source], entries[source] = cli.assemble_dataset(cfg, source)
        return {"cfg": cfg, "sources": sources, "datasets": datasets, "entries": entries}

    def unit(self, state, clock) -> dict:
        cfg, sources, datasets = state["cfg"], state["sources"], state["datasets"]
        baseline, variants = sources[0], sources[1:]
        t0 = clock()
        common = set.intersection(*({r.drug_id for r in datasets[s].records} for s in sources))
        anchor = [r for r in datasets[baseline].records if r.drug_id in common]
        folds = training.lodo_splits(anchor, cfg.lodo_n_drugs,
                                     derive_seed(cfg.seed, "lodo-drugs"))
        pccs = {s: {} for s in sources}
        fitted, losses, preds_all = [], [], []
        train_s = predict_s = 0.0
        train_records = predict_records = 0
        for drug, _, _ in folds:
            for source in sources:
                ds = datasets[source]
                train_set = ds.subset([r for r in ds.records if r.drug_id != drug])
                test_set = ds.subset([r for r in ds.records if r.drug_id == drug])
                mcfg = cli.model_config(cfg, ds.cells.dim)
                t_fit = clock()
                params, history = training.train(train_set, test_set, mcfg,
                                                 _train_config(cfg, f"lodo:{source}:{drug}"))
                t_pred = clock()
                preds = model.predict_records(params, mcfg, test_set)
                predict_s += clock() - t_pred
                train_s += t_pred - t_fit
                train_records += len(train_set.records) * len(history)
                predict_records += len(test_set.records)
                fitted.append((params, mcfg, test_set))
                losses += [h.train_loss for h in history]
                preds_all.append(preds)
                pcc = evaluation.pearson(preds, test_set.labels())
                if pcc is not None:
                    pccs[source][drug] = pcc
        scored = [d for d, _, _ in folds if all(d in pccs[s] for s in sources)]
        rows = evaluation.ranked_gains({v: {d: pccs[v][d] for d in scored} for v in variants},
                                       {d: pccs[baseline][d] for d in scored})
        wall = clock() - t0

        def repredict():
            for params, mcfg, test_set in fitted:
                model.predict_records(params, mcfg, test_set)

        return {
            "wall_s": wall,
            "train_s": train_s,
            "train_records": train_records,
            "predict_records": predict_records,
            "predict_s": predict_s,
            "repredict": repredict,
            "losses": losses,
            "preds": np.concatenate(preds_all),
            "pccs": pccs,
            "folds": [d for d, _, _ in folds],
            "gain_rows": rows,
            "lodo_gain": rows[0].gains[variants[0]] if len(rows) == 1 else None,
        }

    def check(self, state, out) -> list[str]:
        problems = []
        for source in state["sources"]:
            ds = state["datasets"][source]
            problems += _join_problems(state["entries"][source], len(ds.records))
        if not _finite(out["losses"]) or not _finite(out["preds"]):
            problems.append("non-finite training loss or prediction")
        for source, by_drug in out["pccs"].items():
            if set(by_drug) != set(out["folds"]):
                problems.append(f"variant {source} has no defined PCC on the held-out drug")
        if len(out["gain_rows"]) != 1:
            problems.append(f"expected one gain row, got {len(out['gain_rows'])}")
        return problems


# ---------------------------------------------------------------------------
# screen_eval: eval-mode scoring of every pair under a saved checkpoint
# ---------------------------------------------------------------------------

class ScreenEval:
    name = "screen_eval"

    def setup(self, workdir: Path):
        cfg = cli.load_run_config(workdir / "run.ini")
        dataset, entries = cli.assemble_dataset(cfg, "scgpt")
        saved_cfg, params = model.load_checkpoint(workdir / "model.ckpt")
        if saved_cfg != cli.model_config(cfg, dataset.cells.dim):
            raise ValueError("checkpoint configuration does not match the run configuration")
        return {"cfg": cfg, "dataset": dataset, "entries": entries, "model_cfg": saved_cfg,
                "params": params, "workdir": workdir}

    def unit(self, state, clock) -> dict:
        dataset, mcfg, params = state["dataset"], state["model_cfg"], state["params"]
        t0 = clock()
        preds = model.predict_records(params, mcfg, dataset)
        predict_s = clock() - t0
        rows = [evaluation.PredictionRow(drug_id=r.drug_id, cell_line_id=r.cell_line_id,
                                         predicted=float(p), observed=r.ic50,
                                         cancer_type=r.cancer_type)
                for r, p in zip(dataset.records, preds)]
        report = evaluation.build_eval_report(rows)
        return {
            "wall_s": clock() - t0,
            "train_s": 0.0,
            "train_records": 0,
            "predict_records": len(dataset.records),
            "predict_s": predict_s,
            "repredict": None,  # one pass over every pair is long enough to time once
            "preds": preds,
            "report": report,
        }

    def check(self, state, out) -> list[str]:
        dataset = state["dataset"]
        problems = _join_problems(state["entries"], len(dataset.records))
        if not _finite(out["preds"]):
            problems.append("non-finite prediction")
        if out["report"].n_predictions != len(dataset.records):
            problems.append("the eval report does not cover every prediction")
        rng = np.random.default_rng(derive_seed(state["cfg"].seed, "reference-sample"))
        sample = rng.choice(len(dataset.records), size=min(REFERENCE_SAMPLE, len(dataset.records)),
                            replace=False)
        records = [dataset.records[i] for i in sample]
        expected = reference_predictions(state["workdir"], records)
        worst = float(np.max(np.abs(expected - out["preds"][sample])))
        if not worst <= REFERENCE_TOL:
            problems.append(f"predictions differ from the reference forward by {worst:.3g}")
        return problems


WORKLOADS = {w.name: w for w in (PaperTrain(), RawLodo(), ScreenEval())}


# ---------------------------------------------------------------------------
# plain-numpy eval-mode reference, reading the input files itself
# ---------------------------------------------------------------------------

def _read_checkpoint(path: Path) -> dict[str, np.ndarray]:
    """The checkpoint container: a JSON header line, then raw little-endian
    float64 arrays in header order."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = {}
        for decl in header["arrays"]:
            shape = tuple(decl["shape"])
            count = int(np.prod(shape))
            arrays[decl["name"]] = np.frombuffer(fh.read(8 * count), dtype="<f8").reshape(shape)
    return arrays


def _drug_files(workdir: Path) -> dict[str, tuple[Path, Path]]:
    """drug_id -> (feature file, adjacency file)."""
    with open(workdir / "drug_manifest.csv", newline="", encoding="utf-8") as fh:
        return {row["drug_id"]: (workdir / row["feature_file"], workdir / row["adjacency_file"])
                for row in csv.DictReader(fh)}


def _embedding_rows(path: Path, wanted: set[str]) -> dict[str, np.ndarray]:
    out = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if row[0] in wanted:
                out[row[0]] = np.array([float(v) for v in row[1:]])
    return out


def _drug_embedding(features: np.ndarray, bonds: np.ndarray, w: dict) -> np.ndarray:
    n = features.shape[0]
    adj = np.eye(n)
    for i, j in bonds.reshape(-1, 2).astype(int):
        adj[i, j] = adj[j, i] = 1.0
    scale = 1.0 / np.sqrt(adj.sum(axis=1))
    adj = scale[:, None] * adj * scale[None, :]
    h = features
    layer = 0
    while f"gcn.{layer}.weight" in w:
        h = np.maximum(adj @ (h @ w[f"gcn.{layer}.weight"]) + w[f"gcn.{layer}.bias"], 0.0)
        layer += 1
    return h.max(axis=0)


def _dense(x: np.ndarray, w: dict, branch: str, activate_last: bool) -> np.ndarray:
    layer = 0
    while f"{branch}.{layer}.weight" in w:
        key = f"{branch}.{layer}"
        x = x @ w[f"{key}.weight"] + w[f"{key}.bias"][0]
        last = f"{branch}.{layer + 1}.weight" not in w
        if last and not activate_last:
            return x
        if f"{key}.norm.gamma" in w:
            x = (x - w[f"{key}.norm.running_mean"]) / np.sqrt(w[f"{key}.norm.running_var"] + BN_EPS)
            x = w[f"{key}.norm.gamma"][0] * x + w[f"{key}.norm.beta"][0]
        x = np.maximum(x, 0.0)
        layer += 1
    return x


def reference_predictions(workdir: Path, records) -> np.ndarray:
    """Eval-mode regression output for each record, from the unpadded graph
    files, the embedding table and the checkpoint bytes."""
    w = _read_checkpoint(workdir / "model.ckpt")
    files = _drug_files(workdir)
    cells = _embedding_rows(workdir / "embeddings.csv", {r.cell_line_id for r in records})
    drugs = {}
    for drug in {r.drug_id for r in records}:
        feat_file, adj_file = files[drug]
        drugs[drug] = _drug_embedding(np.loadtxt(feat_file, delimiter=",", ndmin=2),
                                      np.loadtxt(adj_file, delimiter=",", ndmin=1), w)
    out = np.empty(len(records))
    for k, r in enumerate(records):
        cell = _dense(cells[r.cell_line_id], w, "cell", activate_last=True)
        out[k] = _dense(np.concatenate([drugs[r.drug_id], cell]), w, "head", False)[0]
    return out

