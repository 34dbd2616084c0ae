"""Tests of the benchmark harness itself, at the seconds-long smoke size."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench import inputs, run, tracing, worker
from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def _launch(workload, trace, cwd=ROOT, seed=0):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_the_metrics_and_workloads_the_harness_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {(m["name"], m["unit"]) for m in spec["end_to_end"]} == set(END_TO_END.items())
    assert {(m["name"], m["unit"]) for m in spec["per_layer"]} == set(PER_LAYER.items())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOAD_NAMES) == list(WORKLOADS) == list(inputs.SIZES)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_emits_every_metric_with_its_unit(workload):
    for trace, table in ((0, END_TO_END), (1, PER_LAYER)):
        done = _launch(workload, trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0, done.stdout
        assert result["attempted"] >= 1
        assert {k: m["unit"] for k, m in result["metrics"].items()} == table
        assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
        if trace == 0:
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "results"))
    done = _launch("paper_train", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_same_seed_gives_the_same_inputs(tmp_path):
    first = inputs.generate("raw_lodo", "smoke", 5, tmp_path / "a")
    second = inputs.generate("raw_lodo", "smoke", 5, tmp_path / "b")
    assert first == second
    for name in ("responses.csv", "expression.csv", "embeddings.csv", "run.ini"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.fixture(scope="module")
def traced_paper_train(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("paper_train")
    inputs.generate("paper_train", "smoke", 0, workdir)
    workload = WORKLOADS["paper_train"]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        with tracer.span(tracing.SETUP_ROOT):
            state = workload.setup(workdir)
        with tracer.span(tracing.UNIT_ROOT):
            workload.unit(state, time.perf_counter)
    return tracer


def test_spans_nest_and_self_times_never_go_negative(traced_paper_train):
    spans = traced_paper_train.spans
    for span in spans:
        assert span.end is not None and span.end >= span.start
        if span.parent is not None:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
    assert min(tracing.self_times(spans)) >= 0.0
    names = {s.name for s in spans}
    assert {"model.encode_drug", "autodiff.backward", "autodiff.adam_step",
            tracing.STEP, "omics.load_embeddings"} <= names


def test_step_self_times_cover_the_step(traced_paper_train):
    metrics = tracing.layer_metrics(traced_paper_train.spans, 0.0, 0.0)
    assert set(metrics) == set(PER_LAYER)
    assert metrics["training.step_coverage_pct"] >= 90.0
    assert metrics["autodiff.tape_nodes_per_step"] > 0
    assert metrics["molgraph.pad_fill_ratio"] < 1.0


def test_patches_are_removed_after_the_traced_block():
    import importlib
    before = [getattr(importlib.import_module(m), a) for m, a, _, _ in tracing.PATCHES]
    with tracing.installed(tracing.Tracer()):
        pass
    after = [getattr(importlib.import_module(m), a) for m, a, _, _ in tracing.PATCHES]
    assert all(x is y for x, y in zip(before, after))


def test_a_failing_output_check_raises_error_rate(tmp_path, monkeypatch):
    inputs.generate("screen_eval", "smoke", 0, tmp_path)
    from cdrpipe import model
    original = model.predict_records
    monkeypatch.setattr(model, "predict_records",
                        lambda *args, **kwargs: original(*args, **kwargs) + 1e-6)
    result = worker.run_workload("screen_eval", tmp_path, 0.0, trace=False)
    assert result["failed"] >= 1
    assert result["error_rate"] == result["failed"] / result["attempted"] > 0
    assert any("reference forward" in f for f in result["failures"])
