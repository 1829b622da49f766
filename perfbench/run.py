"""Benchmark of the efgeo command line, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload identity --seed 0 --seconds 35 --trace 0

--workload is identity, propagate, tensors, or all (each workload in its own
process, then a summary table).  With --trace 0 the run measures set-up time
in fresh processes, then calls efgeo.cli.main in this process for about
--seconds seconds and reports the end-to-end metrics.  With --trace 1 it
alternates untraced and traced runs and reports the per-layer metrics.
Every run's outputs are checked; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from tracer import Tracer, run_summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 9
MIN_RUNS = 3
MIN_TRACED_RUNS = 4  # two untraced and two traced

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "grid.derivative.calls": "count",
    "grid.derivative.self_s": "s",
    "grid.cumulative_integral.calls": "count",
    "grid.cumulative_integral.self_s": "s",
    "grid.x.evals": "count",
    "grid.wavenumbers.evals": "count",
    "grid.integrate.calls": "count",
    "fft.calls": "count",
    "model.hamiltonian_entries.calls": "count",
    "model.hamiltonian_entries.self_s": "s",
    "model.assemble_psi.calls": "count",
    "model.assemble_psi.self_s": "s",
    "ef.decompose.calls": "count",
    "ef.decompose.self_s": "s",
    "ef.energies.calls": "count",
    "ef.energies.self_s": "s",
    "identity.verify.self_s": "s",
    "identity.rhs_terms.calls": "count",
    "identity.rhs_terms.self_s": "s",
    "identity.t_geo_series.calls": "count",
    "geometry.ParamGrid.diff.calls": "count",
    "geometry.ParamGrid.diff.self_s": "s",
    "geometry.build_family.self_s": "s",
    "geometry.tensors.self_s": "s",
    "geometry.check_decompositions.self_s": "s",
    "geometry.check_symmetries.self_s": "s",
    "geometry.check_cb_identity.self_s": "s",
    "geometry.check_d_christoffel.self_s": "s",
    "geometry.convergence_study.self_s": "s",
    "propagator.steps": "count",
    "propagator.propagate.self_s": "s",
    "propagator.step_self_ms": "ms",
    "cli.main.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}

# Runs in a fresh interpreter: import the CLI and resolve one config.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
from efgeo import cli
cli.resolve_config(cli.build_parser().parse_args(sys.argv[1:]))
print(repr(time.perf_counter() - start))
"""


def measure_setup(argv: list) -> list:
    """Seconds to import efgeo.cli and resolve argv, once per fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def one_run(cli, argv: list, out_dir: Path) -> dict:
    """One complete cli.main call with its console output captured."""
    shutil.rmtree(out_dir, ignore_errors=True)
    console = io.StringIO()
    with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            code = cli.main(argv)
        except Exception as err:  # a crash is a failed run, not a crashed benchmark
            code = f"{type(err).__name__}: {err}"
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    written = sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir.is_dir() else 0
    return {"code": code, "wall": wall, "cpu": cpu, "bytes": written}


def measure_runs(workload: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> list:
    """Repeat cli.main runs until the next one would end after `seconds`.

    With trace, runs alternate untraced and traced, starting untraced.
    """
    from efgeo import cli

    argv = workloads.cli_args(workload, seed) + ["--out", str(out_dir)]
    tracer = Tracer()
    runs = []
    start = time.perf_counter()
    while True:
        traced = trace and len(runs) % 2 == 1
        if traced:
            tracer.new_run()
        with tracer if traced else contextlib.nullcontext():
            run = one_run(cli, argv, out_dir)
        run["traced"] = traced
        if traced:
            run["layers"] = run_summary(tracer.spans, tracer.counts[tracer.run], tracer.run)
        run["problems"] = checks.check_run(workload, seed, out_dir, run["code"])
        runs.append(run)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["wall"] for r in runs)
        if len(runs) >= (MIN_TRACED_RUNS if trace else MIN_RUNS) and elapsed + typical > seconds:
            return runs


def end_to_end(runs: list, setup: list) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(r["wall"] for r in runs),
        "cpu_s": statistics.median(r["cpu"] for r in runs),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(runs: list) -> tuple:
    """Per-layer metrics of the traced runs, plus notes on any count that
    did not repeat exactly between them."""
    traced = [r for r in runs if r["traced"]]
    layers = [dict(r["layers"], **{"cli.bytes_written": r["bytes"]}) for r in traced]
    for item in layers:
        steps = item.get("propagator.steps", 0)
        self_s = item.get("propagator.propagate.self_s", 0.0)
        item["propagator.step_self_ms"] = 1e3 * self_s / steps if steps else 0.0
    metrics, notes = {}, []
    for name in PER_LAYER:
        values = [item.get(name, 0) for item in layers]
        if PER_LAYER[name] in ("count", "bytes"):
            if len(set(values)) > 1:
                notes.append(f"{name} varied between traced runs: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall"] for r in traced)
        - statistics.median(r["wall"] for r in runs if not r["traced"])
    )
    return metrics, notes


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    print(workloads.describe(workload, seed))
    out_dir = OUT / f"{workload}-{os.getpid()}"
    try:
        setup = [] if trace else measure_setup(workloads.cli_args(workload, seed) + ["--out", str(out_dir)])
        runs = measure_runs(workload, seed, seconds, trace, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            OUT.rmdir()
    failed = [r for r in runs if r["problems"]]
    for i, run in enumerate(runs):
        for problem in run["problems"]:
            print(f"run {i} failed: {problem}")
    if trace:
        metrics, notes = per_layer(runs)
        units = PER_LAYER
        for note in notes:
            print(note)
    else:
        metrics, units = end_to_end(runs, setup), END_TO_END
        print(f"setup_s      median of {len(setup)} fresh processes")
        print(f"run_s        median of {len(runs)} runs")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':40s} {len(failed) / len(runs):14.6g} ({len(failed)} of {len(runs)} runs)")
    return {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process, then one table."""
    results = {}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"workload {workload} exited {proc.returncode}: {proc.stderr.strip()}")
        results[workload] = json.loads(lines[-1])
    names = list(results[workloads.WORKLOADS[0]]["metrics"])
    print(f"{'metric':40s}" + "".join(f"{w:>14s}" for w in results))
    for name in names:
        row = [results[w]["metrics"][name]["value"] for w in results]
        unit = results[workloads.WORKLOADS[0]]["metrics"][name]["unit"]
        print(f"{name + ' (' + unit + ')':40s}" + "".join(f"{v:14.6g}" for v in row))
    fracs = [results[w]["failed"] / results[w]["attempted"] for w in results]
    print(f"{'failed_frac':40s}" + "".join(f"{v:14.6g}" for v in fracs))
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("identity", "propagate", "tensors", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "efgeo" / "__init__.py").is_file():
        print(f"efgeo sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
