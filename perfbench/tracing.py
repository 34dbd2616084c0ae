"""Spans recorded from outside the program.

:func:`installed` wraps the public functions of each cdrpipe module, patching
each name where its caller looks it up (``cdrpipe.training.forward_batch`` is
the name ``train`` calls, ``cdrpipe.model.forward_batch`` the one
``predict_records`` calls). Each call becomes a span: name, start, end,
parent, plus a few counts read from its arguments and result. Spans stay in
memory; :func:`layer_metrics` turns them into the per-layer metrics and
:func:`self_time_table` into the self-time breakdown.

A training step is not a function call, so it is synthesized: it opens when
``train`` calls ``forward_batch`` in train mode and closes when the matching
``adam_step`` returns.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

import numpy as np

from perfbench.metrics import PER_LAYER

STEP = "training.step"


class Span:
    __slots__ = ("name", "start", "end", "parent", "info")

    def __init__(self, name: str, start: float, parent: int | None):
        self.name = name
        self.start = start
        self.end: float | None = None
        self.parent = parent
        self.info: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, **self.info}


class Tracer:
    """A stack of open spans over a flat list of every span recorded."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), self._open[-1] if self._open else None))
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        """Close span ``index`` and any span still open inside it."""
        now = time.perf_counter()
        while self._open:
            top = self._open.pop()
            self.spans[top].end = now
            if top == index:
                return
        raise ValueError(f"span {index} is not open")

    def top_name(self) -> str | None:
        return self.spans[self._open[-1]].name if self._open else None

    def close_top(self) -> None:
        self.close(self._open[-1])

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            if observe is not None:
                observe(self.spans[index].info, args, out)
            return out
        return traced


# ---------------------------------------------------------------------------
# what gets wrapped, and the counts read at each boundary
# ---------------------------------------------------------------------------

def _pad(info, args, out):
    info["atoms"] = out.n_atoms
    info["rows"] = out.mask.shape[0]


def _manifest(info, args, out):
    info["atoms"] = sum(g.n_atoms for g in out.values())
    info["bonds"] = sum(len(g.adjacency) for g in out.values())


def _expression(info, args, out):
    info["values"] = sum(p.values.size for p in out)


def _embeddings(info, args, out):
    info["values"] = out.dim * len(out.vectors)


def _forward(info, args, out):
    info["mode"] = args[5] if len(args) > 5 else "eval"
    info["records"] = len(args[1])
    info["distinct"] = len({id(g) for g in args[1]})
    info["nodes"] = len(args[0].nodes)


def _predict_records(info, args, out):
    info["records"] = len(args[2].records)
    info["distinct"] = len({r.drug_id for r in args[2].records})


def _backward(info, args, out):
    info["nodes"] = len(args[0].nodes)


def _adam(info, args, out):
    info["params"] = sum(p.data.size for p in args[0])


def _train(info, args, out):
    info["records"] = len(args[0].records)
    info["epochs"] = len(out[1])


# (module, attribute, span name, observer)
PATCHES = [
    ("cdrpipe.cli", "load_run_config", "cli.load_run_config", None),
    ("cdrpipe.cli", "assemble_dataset", "cli.assemble_dataset", None),
    ("cdrpipe.cli", "load_drug_manifest", "molgraph.load_drug_manifest", _manifest),
    ("cdrpipe.cli", "pad_graph", "molgraph.pad_graph", _pad),
    ("cdrpipe.cli", "load_expression", "omics.load_expression", _expression),
    ("cdrpipe.cli", "load_gene_list", "omics.load_gene_list", None),
    ("cdrpipe.cli", "alignment_stats", "omics.alignment_stats", None),
    ("cdrpipe.cli", "expression_feature_set", "omics.expression_feature_set", None),
    ("cdrpipe.cli", "load_embeddings", "omics.load_embeddings", _embeddings),
    ("cdrpipe.cli", "load_responses", "omics.load_responses", None),
    ("cdrpipe.cli", "join_dataset", "omics.join_dataset", None),
    ("cdrpipe.model", "load_checkpoint", "model.load_checkpoint", None),
    ("cdrpipe.training", "split_dataset", "training.split_dataset", None),
    ("cdrpipe.training", "lodo_splits", "training.lodo_splits", None),
    ("cdrpipe.training", "train", "training.train", _train),
    ("cdrpipe.training", "init_params", "model.init_params", None),
    ("cdrpipe.training", "forward_batch", "model.forward_batch", _forward),
    ("cdrpipe.training", "predict_records", "model.predict_records", _predict_records),
    ("cdrpipe.training", "pearson", "evaluation.pearson", None),
    ("cdrpipe.model", "predict_records", "model.predict_records", _predict_records),
    ("cdrpipe.model", "forward_batch", "model.forward_batch", _forward),
    ("cdrpipe.model", "encode_drug", "model.encode_drug", None),
    ("cdrpipe.model", "encode_cell", "model.encode_cell", None),
    ("cdrpipe.model", "predict", "model.predict", None),
    ("cdrpipe.autodiff", "loss", "autodiff.loss", None),
    ("cdrpipe.autodiff", "backward", "autodiff.backward", _backward),
    ("cdrpipe.autodiff", "adam_step", "autodiff.adam_step", _adam),
    ("cdrpipe.evaluation", "build_eval_report", "evaluation.build_eval_report", None),
    ("cdrpipe.evaluation", "grouped_pcc", "evaluation.grouped_pcc", None),
    ("cdrpipe.evaluation", "pearson", "evaluation.pearson", None),
    ("cdrpipe.evaluation", "ranked_gains", "evaluation.ranked_gains", None),
]


@contextmanager
def patched(replacements):
    """For the block, set each ``(module name, attribute)`` to ``wrap(original)``."""
    saved = []
    try:
        for (module_name, attr), wrap in replacements:
            module = importlib.import_module(module_name)
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrap(saved[-1][2]))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def installed(tracer: Tracer):
    """Patch every name in :data:`PATCHES` for the duration of the block."""
    def wrapper(module_name, attr, name, observe):
        def wrap(original):
            traced = tracer.wrap(name, original, observe)
            if (module_name, attr) == ("cdrpipe.training", "forward_batch"):
                return _opens_step(tracer, traced)
            if (module_name, attr) == ("cdrpipe.autodiff", "adam_step"):
                return _closes_step(tracer, traced)
            return traced
        return wrap

    return patched([((m, a), wrapper(m, a, n, o)) for m, a, n, o in PATCHES])


def _opens_step(tracer: Tracer, forward):
    @functools.wraps(forward)
    def traced(*args, **kwargs):
        mode = args[5] if len(args) > 5 else kwargs.get("mode")
        if mode == "train":
            tracer.open(STEP)
        return forward(*args, **kwargs)
    return traced


def _closes_step(tracer: Tracer, adam_step):
    @functools.wraps(adam_step)
    def traced(*args, **kwargs):
        out = adam_step(*args, **kwargs)
        if tracer.top_name() == STEP:
            tracer.close_top()
        return out
    return traced


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

SETUP_ROOT = "bench.setup"
UNIT_ROOT = "bench.unit"

_SETUP_TOTALS = {
    "omics.load_expression_s": "omics.load_expression",
    "omics.expression_feature_set_s": "omics.expression_feature_set",
    "omics.load_embeddings_s": "omics.load_embeddings",
    "omics.load_responses_s": "omics.load_responses",
    "omics.join_dataset_s": "omics.join_dataset",
    "molgraph.load_drug_manifest_s": "molgraph.load_drug_manifest",
    "molgraph.pad_graph_s": "molgraph.pad_graph",
    "model.load_checkpoint_s": "model.load_checkpoint",
}

_UNIT_TOTALS_MS = {
    "model.encode_drug_ms": "model.encode_drug",
    "model.encode_cell_ms": "model.encode_cell",
    "model.predict_ms": "model.predict",
    "autodiff.backward_ms": "autodiff.backward",
    "autodiff.adam_step_ms": "autodiff.adam_step",
    "evaluation.build_eval_report_ms": "evaluation.build_eval_report",
}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def groups(spans: list[Span], root_name: str) -> list[list[Span]]:
    """The spans under each root span named ``root_name``, root first."""
    root_of = []
    found: dict[int, list[Span]] = {}
    for i, s in enumerate(spans):  # a parent is always recorded before its children
        root_of.append(i if s.parent is None else root_of[s.parent])
        if spans[root_of[i]].name == root_name:
            found.setdefault(root_of[i], []).append(s)
    return list(found.values())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _named(group, name):
    return [s for s in group if s.name == name]


def _total(group, name) -> float:
    return sum(s.duration for s in group if s.name == name)


def _setup_metrics(spans: list[Span], group: list[Span], selfs: dict[int, float]) -> dict[str, float]:
    out = {key: _total(group, name) for key, name in _SETUP_TOTALS.items()}
    parsed = _named(group, "omics.load_expression") + _named(group, "omics.load_embeddings")
    out["omics.us_per_value"] = 1e6 * _ratio(sum(s.duration for s in parsed),
                                             sum(s.info["values"] for s in parsed))
    pads = _named(group, "molgraph.pad_graph")
    out["molgraph.pad_fill_ratio"] = _ratio(sum(s.info["atoms"] for s in pads),
                                            sum(s.info["rows"] for s in pads))
    manifests = _named(group, "molgraph.load_drug_manifest")
    out["molgraph.bonds_per_atom"] = _ratio(sum(s.info["bonds"] for s in manifests),
                                            sum(s.info["atoms"] for s in manifests))
    return out


def _unit_metrics(spans: list[Span], group: list[Span], selfs: dict[int, float]) -> dict[str, float]:
    out = {key: 1e3 * _total(group, name) for key, name in _UNIT_TOTALS_MS.items()}
    encodes = _named(group, "model.encode_drug")
    out["model.encode_drug_calls"] = float(len(encodes))

    predicts = _named(group, "model.predict_records")
    inside_predict = 0
    for s in encodes:
        p = s.parent
        while p is not None and spans[p].name != "model.predict_records":
            p = spans[p].parent
        inside_predict += p is not None
    out["model.encodes_per_distinct_drug"] = _ratio(
        inside_predict, sum(s.info["distinct"] for s in predicts))

    forwards = _named(group, "model.forward_batch")
    out["model.distinct_drugs_per_batch"] = _median([s.info["distinct"] for s in forwards])
    evals = [s for s in forwards if s.info["mode"] == "eval"]
    out["autodiff.tape_nodes_per_predict"] = _ratio(sum(s.info["nodes"] for s in evals),
                                                    sum(s.info["records"] for s in evals))
    out["autodiff.tape_nodes_per_step"] = _median(
        [s.info["nodes"] for s in _named(group, "autodiff.backward")])
    out["autodiff.param_count"] = _median(
        [s.info["params"] for s in _named(group, "autodiff.adam_step")])

    steps = [s for s in group if s.name == STEP]
    step_ms = [1e3 * s.duration for s in steps]
    out["training.step_ms_p50"] = float(np.percentile(step_ms, 50)) if steps else 0.0
    out["training.step_ms_p90"] = float(np.percentile(step_ms, 90)) if steps else 0.0
    step_wall = sum(s.duration for s in steps)
    out["training.step_coverage_pct"] = 100.0 * _ratio(
        step_wall - sum(selfs[id(s)] for s in steps), step_wall)
    out["training.validation_ms"] = 1e3 * _median(
        [s.duration for s in predicts
         if s.parent is not None and spans[s.parent].name == "training.train"])
    trains = _named(group, "training.train")
    out["training.records_per_s"] = _ratio(
        sum(s.info["records"] * s.info["epochs"] for s in trains),
        sum(s.duration for s in trains))
    out["evaluation.pearson_calls"] = float(len(_named(group, "evaluation.pearson")))
    return out


def layer_metrics(spans: list[Span], overhead_s: float, overhead_pct: float) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric; 0 for a layer the workload never runs."""
    selfs = {id(s): t for s, t in zip(spans, self_times(spans))}
    out: dict[str, float] = {}
    for root, compute in ((SETUP_ROOT, _setup_metrics), (UNIT_ROOT, _unit_metrics)):
        per_group = [compute(spans, g, selfs) for g in groups(spans, root)]
        for key in (per_group[0] if per_group else {}):
            out[key] = _median([m[key] for m in per_group])
    out["trace.overhead_s"] = overhead_s
    out["trace.overhead_pct"] = overhead_pct
    return {key: float(out.get(key, 0.0)) for key in PER_LAYER}


def self_time_table(spans: list[Span], root_name: str) -> list[tuple[str, int, float, float]]:
    """(name, calls, inclusive s, self s) per span name under the given roots,
    by descending self time."""
    selfs = {id(s): t for s, t in zip(spans, self_times(spans))}
    rows: dict[str, list] = {}
    for group in groups(spans, root_name):
        for s in group:
            row = rows.setdefault(s.name, [s.name, 0, 0.0, 0.0])
            row[1] += 1
            row[2] += s.duration
            row[3] += selfs[id(s)]
    return sorted((tuple(r) for r in rows.values()), key=lambda r: -r[3])
