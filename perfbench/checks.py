"""Correctness check of one benchmark run's outputs.

Every run must pass its workload's physics check:

- identity: reading B wins and its relative residual is at or below rel_tol;
- propagate: the expected step count, norm drift at most 1e-12 and maximum
  L2 error at most 1e-3 (the bounds of acceptance criterion 6);
- tensors: the report passes and every fitted order is at least slope_min.

At seed 0 (and always for tensors, which has no seeded input) the outputs
must also match the reference outputs in reference/: report.json to 1e-12
relative and error_series.csv to 1e-12 absolute.  "Relative" is taken
against the largest magnitude in the same JSON list, or the value itself
for a scalar, so that entries near zero in a series are held to the scale
of that series.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import workloads

REFERENCE = Path(__file__).resolve().parent / "reference"
REPORT_REL_TOL = 1e-12
SERIES_ABS_TOL = 1e-12

IDENTITY_REL_TOL = 1e-3
PROPAGATE_DRIFT_MAX = 1e-12
PROPAGATE_L2_MAX = 1e-3
TENSORS_SLOPE_MIN = 3.5


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _numbers(value):
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif _is_number(value) and math.isfinite(value):
        yield abs(value)


def json_mismatches(got, ref, rel: float, path: str = "$", scale: float = 0.0) -> list:
    """Paths at which got differs from ref beyond the relative tolerance."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{path}: keys differ"]
        out = []
        for key in sorted(ref):
            out += json_mismatches(got[key], ref[key], rel, f"{path}.{key}")
        return out
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            return [f"{path}: length differs"]
        scale = max(scale, max(_numbers(ref), default=0.0))
        out = []
        for i, (g, r) in enumerate(zip(got, ref)):
            out += json_mismatches(g, r, rel, f"{path}[{i}]", scale)
        return out
    if _is_number(ref):
        if not _is_number(got):
            return [f"{path}: {got!r} is not a number"]
        if math.isnan(ref) or math.isnan(got):
            return [] if math.isnan(ref) and math.isnan(got) else [f"{path}: {got!r} != {ref!r}"]
        if abs(got - ref) > rel * max(abs(ref), scale):
            return [f"{path}: {got!r} differs from {ref!r}"]
        return []
    return [] if got == ref else [f"{path}: {got!r} != {ref!r}"]


def read_csv(path: Path) -> tuple:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def csv_mismatches(got_path: Path, ref_path: Path, tol: float) -> list:
    got_head, got = read_csv(got_path)
    ref_head, ref = read_csv(ref_path)
    if got_head != ref_head or len(got) != len(ref):
        return [f"{got_path.name}: header or row count differs"]
    out = []
    for i, (g_row, r_row) in enumerate(zip(got, ref)):
        for name, g, r in zip(ref_head, g_row, r_row):
            if not abs(g - r) <= tol:
                out.append(f"{got_path.name} row {i} {name}: {g!r} differs from {r!r}")
    return out


def _load(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _against_reference(workload: str, out_dir: Path) -> list:
    ref_dir = REFERENCE / workload
    problems = json_mismatches(_load(out_dir / "report.json"), _load(ref_dir / "report.json"),
                               REPORT_REL_TOL, "report.json")
    if (ref_dir / "error_series.csv").exists():
        problems += csv_mismatches(out_dir / "error_series.csv", ref_dir / "error_series.csv",
                                   SERIES_ABS_TOL)
    return problems


def _check_inputs(manifest: dict, seed: int) -> list:
    config = manifest["config"]
    return [f"manifest {key} = {config[key]!r}, expected {value!r}"
            for key, value in workloads.model_inputs(seed).items() if config[key] != value]


def _check_identity(out_dir: Path, seed: int) -> list:
    report = _load(out_dir / "report.json")
    problems = _check_inputs(_load(out_dir / "manifest.json"), seed)
    if report["winner"] != "B":
        problems.append(f"reading {report['winner']} won, expected B")
    if not report["rel_residual_b"] <= IDENTITY_REL_TOL:
        problems.append(f"reading B residual {report['rel_residual_b']!r} above {IDENTITY_REL_TOL}")
    return problems


def _check_propagate(out_dir: Path, seed: int) -> list:
    report = _load(out_dir / "report.json")
    problems = _check_inputs(_load(out_dir / "manifest.json"), seed)
    steps = round(workloads.PROPAGATE["t_end"] / workloads.PROPAGATE["dt"])
    if report["steps"] != steps:
        problems.append(f"{report['steps']} steps, expected {steps}")
    if not report["norm_drift"] <= PROPAGATE_DRIFT_MAX:
        problems.append(f"norm drift {report['norm_drift']!r} above {PROPAGATE_DRIFT_MAX}")
    head, rows = read_csv(out_dir / "error_series.csv")
    if len(rows) != workloads.PROPAGATE["n_samples"]:
        problems.append(f"{len(rows)} samples, expected {workloads.PROPAGATE['n_samples']}")
    l2 = max((row[head.index("l2_error")] for row in rows), default=math.inf)
    if not l2 <= PROPAGATE_L2_MAX:
        problems.append(f"max L2 error {l2!r} above {PROPAGATE_L2_MAX}")
    return problems


def _check_tensors(out_dir: Path, seed: int) -> list:
    report = _load(out_dir / "report.json")
    problems = [] if report["passed"] is True else ["tensor report did not pass"]
    for recipe, entry in report["recipes"].items():
        for ident, rec in entry.items():
            if not rec["order"] >= TENSORS_SLOPE_MIN:
                problems.append(f"{recipe}/{ident} order {rec['order']!r} below {TENSORS_SLOPE_MIN}")
    return problems


_CHECKS = {"identity": _check_identity, "propagate": _check_propagate, "tensors": _check_tensors}


def check_run(workload: str, seed: int, out_dir: Path, exit_code: int) -> list:
    """Problems found in one run's outputs; an empty list means correct."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        problems = _CHECKS[workload](out_dir, seed)
        if seed == 0 or workload == "tensors":
            problems += _against_reference(workload, out_dir)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as err:
        return [f"unreadable output: {type(err).__name__}: {err}"]
    return problems
