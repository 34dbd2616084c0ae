"""Benchmark launcher: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {paper_train,raw_lodo,screen_eval}
        --seed N --seconds S --trace {0,1} [--size {full,smoke}]

Run from the repository root. It generates the workload's inputs from the
seed in one process, runs the workload in a second (so input generation is
neither timed nor counted in its memory), prints the environment, the input
properties and every metric with its unit, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones. A full record, spans
included, goes to ``perfbench/results/``. Scratch files live under
``perfbench/.work/`` and are removed on exit.

The BLAS thread count is fixed here, not inherited from the caller's shell.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:  # run as a script, perfbench is not yet importable
    sys.path.insert(0, str(ROOT))
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402

BENCH_DIR = ROOT / "perfbench"
BLAS_THREADS = 1           # small per-drug matmuls dominate; one thread is the steadiest
DEADLINE_S = 170.0         # every run ends within 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("paper_train", "raw_lodo", "screen_eval")


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over the package sources; identifies the code when git is absent."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: str(threads) for var in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = "0"
    return env


def _run_child(args: list[str], env: dict, deadline: float) -> None:
    """A child Python module run to completion; its stdout goes to our stderr
    so the last line of our stdout stays the result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("no time left for " + args[1])
    subprocess.run([sys.executable, "-m", *args], cwd=ROOT, env=env, stdout=sys.stderr,
                   check=True, timeout=remaining)


def environment(build: dict, threads: int) -> dict:
    """Where and on what a result was measured; ``build`` comes from the worker."""
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        **build,
        "blas_threads": threads,
        "nproc": _nproc(),
        "machine": platform.machine(),
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_report(workload: str, env_info: dict, inputs: dict, result: dict,
                 metrics: dict, trace: bool) -> None:
    print("env: " + json.dumps(env_info, sort_keys=True))
    print("inputs: " + json.dumps(inputs, sort_keys=True))
    if result["failures"]:
        print("failures: " + " | ".join(result["failures"]))
    outcome = result.get("outcome")
    if outcome:
        units = {"train_records_per_s": "1/s", "test_pcc": "1", "lodo_gain": "1"}
        print(f"{workload} outcome: " + ", ".join(
            f"{k} {_fmt(v)} {units[k]}" for k, v in outcome.items()))
    print(f"{workload} error_rate = {_fmt(result['error_rate'])} "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    for name, m in metrics.items():
        print(f"{workload} {name} = {_fmt(m['value'])} {m['unit']}")
    if trace:
        unit_wall = sum(row[2] for row in result["self_time"] if row[0] == "bench.unit")
        print(f"{workload} self time per layer over {result['traced_units']} traced unit(s):")
        print(f"  {'span':34s} {'calls':>7s} {'incl_s':>9s} {'self_s':>9s} {'self%':>6s}")
        for name, calls, incl, self_s in result["self_time"]:
            share = 100.0 * self_s / unit_wall if unit_wall else 0.0
            print(f"  {name:34s} {calls:7d} {incl:9.3f} {self_s:9.3f} {share:6.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cdrpipe benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "cdrpipe" / "__init__.py").is_file():
        print(f"error: the cdrpipe sources are not under {ROOT / 'src'}", file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, _nproc())
    env = _child_env(threads)
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        _run_child(["perfbench.inputs", "--workload", args.workload, "--size", args.size,
                    "--seed", str(args.seed), "--out", str(workdir)], env, deadline)
        _run_child(["perfbench.worker", "--workload", args.workload, "--workdir", str(workdir),
                    "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--out", str(workdir / "result.json")], env, deadline)
        inputs = json.loads((workdir / "inputs.json").read_text(encoding="utf-8"))
        result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    except (OSError, ValueError, TimeoutError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env_info = environment(result["build"], threads)
    section = "per_layer" if args.trace else "end_to_end"
    if section not in result:
        print("error: no set-up or unit of the workload succeeded: "
              + " | ".join(result["failures"]), file=sys.stderr)
        return 1
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": result[section][name], "unit": unit}
               for name, unit in units.items()}

    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "env": env_info, "inputs": inputs,
              **result}
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record), encoding="utf-8")

    print_report(args.workload, env_info, inputs, result, metrics, bool(args.trace))
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
