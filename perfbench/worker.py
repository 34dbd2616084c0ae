"""Runs one workload in its own process and writes its result as JSON.

``python -m perfbench.worker --workload W --workdir DIR --seconds S --trace T
--out FILE``. The inputs must already sit in DIR (see :mod:`perfbench.inputs`).

Untraced (``--trace 0``): set up ``SETUP_REPS`` times, then run units of the
workload until the next one would end past ``--seconds`` (at least one), and
report the end-to-end metrics as medians, in reference seconds (see
:mod:`perfbench.calibrate`). Traced (``--trace 1``): the set-ups are traced,
and units run in pairs, untraced then traced, so the difference of their
medians (both calibrated) is the tracing overhead.

Every set-up and unit is one attempted operation; it fails when it raises or
when one of its output checks fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from perfbench import calibrate, tracing
from perfbench.workloads import WORKLOADS

SETUP_REPS = 3
PREDICT_REPS = 20          # repeated short prediction passes per untraced unit


class Run:
    """Attempts, failures and timings of one worker run."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_s: list[float] = []     # reference seconds, see calibrate.py
        self.raw_setup_s: list[float] = []
        self.units: list[dict] = []        # untraced
        self.traced_units: list[dict] = []
        self.probe = calibrate.SpeedProbe()

    def attempt(self, what: str, fn):
        """fn() as one operation; returns its result, or None if it failed."""
        self.attempted += 1
        try:
            result, problems = fn()
        except Exception as exc:  # a raised error is a counted failure, not a crash
            self.failures.append(f"{what}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))
            return None
        return result


def _setup(run: Run, workdir: Path, tracer: tracing.Tracer | None):
    probe = run.probe

    def once():
        since = len(probe.samples)
        probe.bracket()
        t0 = probe.clock()
        if tracer is None:
            state = run.workload.setup(workdir)
        else:
            with tracing.installed(tracer), tracer.span(tracing.SETUP_ROOT):
                state = run.workload.setup(workdir)
        seconds = probe.clock() - t0
        probe.bracket()
        return (seconds, seconds * probe.factor(since), state), []

    state = None
    for rep in range(SETUP_REPS):
        state = None
        gc.collect()
        result = run.attempt(f"setup {rep}", once)
        if result is not None:
            run.raw_setup_s.append(result[0])
            run.setup_s.append(result[1])
            state = result[2]
    return state


def _repredict(probe: calibrate.SpeedProbe, repredict) -> list[float]:
    """Short prediction passes, each between two calibration samples and
    scaled by them."""
    times = []
    for _ in range(PREDICT_REPS):
        since = len(probe.samples)
        probe.sample()
        t0 = probe.clock()
        repredict()
        seconds = probe.clock() - t0
        probe.sample()
        times.append(seconds * probe.factor(since))
    return times


def _unit(run: Run, state, tracer: tracing.Tracer | None) -> None:
    probe = run.probe

    def once():
        gc.collect()
        since = len(probe.samples)
        probe.bracket()
        if tracer is not None:  # calibrated around, not inside, so spans stay clean
            with tracing.installed(tracer), tracer.span(tracing.UNIT_ROOT):
                out = run.workload.unit(state, time.perf_counter)
            probe.bracket()
            out.pop("repredict")
            out["raw_wall_s"] = out["wall_s"]
            out["wall_s"] *= probe.factor(since)
            return out, run.workload.check(state, out)
        with probe.interleaved():
            out = run.workload.unit(state, probe.clock)
        probe.bracket()
        factor = probe.factor(since)
        out["raw_wall_s"] = out["wall_s"]
        out["wall_s"] *= factor
        out["train_s"] *= factor
        out["predict_s"] = [out["predict_s"] * factor]
        repredict = out.pop("repredict")
        if repredict is not None:
            out["predict_s"] += _repredict(probe, repredict)
        return out, run.workload.check(state, out)

    kind = "traced unit" if tracer is not None else "unit"
    out = run.attempt(f"{kind} {len(run.units) + len(run.traced_units)}", once)
    if out is not None:
        (run.units if tracer is None else run.traced_units).append(out)


def run_workload(name: str, workdir: Path, seconds: float, trace: bool) -> dict:
    run = Run(WORKLOADS[name])
    tracer = tracing.Tracer() if trace else None
    state = _setup(run, workdir, tracer)
    if state is not None:
        start = time.perf_counter()
        rounds = 0
        while True:
            _unit(run, state, None)
            if trace:
                _unit(run, state, tracer)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed * (rounds + 1) / rounds > seconds or not (run.units or run.traced_units):
                break
    return report(run, tracer)


def _median(values) -> float:
    return float(np.median(values))


def _numpy_build() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


def report(run: Run, tracer: tracing.Tracer | None) -> dict:
    out = {
        "build": _numpy_build(),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "failures": run.failures,
        "error_rate": len(run.failures) / run.attempted,
        "units": len(run.units),
        "traced_units": len(run.traced_units),
    }
    units = run.units
    if run.setup_s and units:
        rates = [u["predict_records"] / t for u in units for t in u["predict_s"]]
        out["end_to_end"] = {
            "setup_s": _median(run.setup_s),
            "wall_s": _median([u["wall_s"] for u in units]),
            "predict_records_per_s": _median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        trained = [u["train_records"] / u["train_s"] for u in units if u["train_records"]]
        out["outcome"] = {"train_records_per_s": _median(trained)} if trained else {}
        for key in ("test_pcc", "lodo_gain"):  # the workload-specific quality figures
            values = [u[key] for u in units if u.get(key) is not None]
            if values:
                out["outcome"][key] = _median(values)
        out["samples"] = {"setup_s": run.setup_s, "wall_s": [u["wall_s"] for u in units],
                          "predict_records_per_s": rates, "raw_setup_s": run.raw_setup_s,
                          "raw_wall_s": [u["raw_wall_s"] for u in units],
                          "calibration_samples": len(run.probe.samples),
                          "calibration_median_s": _median(run.probe.samples)}
    if tracer is not None and units and run.traced_units:
        untraced = _median([u["wall_s"] for u in units])
        traced = _median([u["wall_s"] for u in run.traced_units])
        out["per_layer"] = tracing.layer_metrics(tracer.spans, traced - untraced,
                                                 100.0 * (traced - untraced) / untraced)
        out["self_time"] = tracing.self_time_table(tracer.spans, tracing.UNIT_ROOT)
        out["spans"] = [s.as_dict() for s in tracer.spans]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, Path(args.workdir), args.seconds, bool(args.trace))
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
