"""Command-line front end: verification suites, figure data and propagation.

Subcommands: verify-identity, verify-tensors, emit-figure, propagate.
Every run resolves its configuration from built-in defaults, then an
optional JSON config file, then per-key command-line flags, and writes the
resolved values to manifest.json next to the other outputs.  A run writes
its files only once its computation returns, so a refused run leaves none.
Outputs are bit-reproducible: nothing time- or host-dependent is ever
written.

Exit codes: 0 pass, 1 verification failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, ef, geometry, identity, model, propagator
from .errors import ConfigError, VerificationFailure
from .grid import Grid1D

# fewest grid points across the narrowest packet width 1/(3 sqrt(mass)).
# Coarser grids fail the state-norm check; grids just finer still give an
# identity residual of order 1 (1.47 relative at 1.69 points, mass 10, t in
# [0, 1]), far above any tolerance a passing run meets.
MIN_POINTS_PER_WIDTH = 1.5

_MODEL_KEYS = {f.name: f.default for f in dataclasses.fields(model.ModelParams)}
_GRID_KEYS = {"x_min": -4.0, "x_max": 6.0, "n": 4096}

_DEFAULTS = {
    "verify-identity": {
        **_MODEL_KEYS, **_GRID_KEYS,
        "t_start": 0.0, "t_end": 10.0, "samples": 101,
        "delta_t": 1e-4, "rel_tol": 1e-3, "method": "fd12", "mutation": None,
    },
    "verify-tensors": {
        "recipes": "smooth,pure-gauge",
        "sizes": "64,128,256",
        "dimension": 2,
        "tol": 1e-6,
        "slope_min": 3.5,
    },
    "emit-figure": {**_MODEL_KEYS, **_GRID_KEYS, "t_start": 0.0, "t_end": 10.0, "samples": 201},
    "propagate": {
        **_MODEL_KEYS, **_GRID_KEYS,
        "dt": 1e-4, "t_end": 2.0, "h_update": "per-step",
        "kinetic_precision": "extended", "n_samples": 11, "dump": False,
    },
}


# keys whose default is None and therefore carries no type information
_FLAG_TYPES = {"inertia": float, "mutation": str}


def _key_type(key, default):
    return _FLAG_TYPES.get(key, type(default))


def _add_override_flags(sub, defaults):
    for key, default in defaults.items():
        flag = "--" + key.replace("_", "-")
        kind = _key_type(key, default)
        if kind is bool:
            sub.add_argument(flag, action="store_const", const=True, default=None)
        else:
            sub.add_argument(flag, type=kind, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="efgeo",
        description="Geometric kinetic-energy verification suites for two-component systems",
    )
    parser.add_argument("--version", action="version", version=f"efgeo {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    helps = {
        "verify-identity": "check the energy-transfer identity on the solvable model",
        "verify-tensors": "check the rank-3 tensor identities on synthetic families",
        "emit-figure": "write packet center, width and geometric energy versus time",
        "propagate": "propagate the model state and compare with the closed form",
    }
    for name, defaults in _DEFAULTS.items():
        sub = subs.add_parser(name, help=helps[name])
        sub.add_argument("--config", type=str, default=None, help="JSON config file")
        sub.add_argument("--out", type=str, default="out", help="output directory")
        _add_override_flags(sub, defaults)
    return parser


def resolve_config(args) -> dict:
    defaults = _DEFAULTS[args.command]
    resolved = dict(defaults)
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                file_cfg = json.load(fh)
            except ValueError as err:  # malformed, or an integer past the digit limit
                raise ConfigError(f"config file {args.config}: {err}") from None
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold one JSON object")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys {sorted(unknown)} for {args.command}")
        resolved.update(file_cfg)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    for key, value in resolved.items():
        resolved[key] = _checked(key, value, defaults[key])
    return resolved


def _checked(key, value, default):
    """The value, refused if its type does not match the key's flag type.
    JSON ints are legal floats and come back as floats, which numpy takes
    at any size; bools are never numbers."""
    if value is None and default is None:
        return None
    kind = _key_type(key, default)
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) != (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"config key {key!r} must be {kind.__name__}, got {type(value).__name__}")
    if kind is float and not abs(value) <= sys.float_info.max:
        shown = value if isinstance(value, float) else "an integer beyond the double range"
        raise ConfigError(f"config key {key!r} must be a finite float, got {shown}")
    return float(value) if kind is float else value


def _tensor_lists(cfg) -> tuple:
    """Grid sizes and recipe names of a verify-tensors run."""
    try:
        sizes = [int(s) for s in cfg["sizes"].split(",") if s]
    except ValueError:
        raise ConfigError(f"sizes must be comma-separated integers, got {cfg['sizes']!r}") from None
    recipes = [r.strip() for r in cfg["recipes"].split(",") if r.strip()]
    # the convergence order is a fit over the sizes: one point fits no line
    if len(sizes) < 2 or len(set(sizes)) < len(sizes):
        raise ConfigError(f"sizes must be at least two distinct grid sizes, got {cfg['sizes']!r}")
    if not recipes:
        raise ConfigError("need at least one recipe")
    for name in recipes:
        if name not in geometry.NAMED_RECIPES:
            raise ConfigError(f"unknown recipe {name!r}; choose from {sorted(geometry.NAMED_RECIPES)}")
    return sizes, recipes


def _write_json(path: Path, data: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: str, columns):
    """One row per sample, each value in round-trip precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _write_manifest(out_dir: Path, command: str, cfg: dict, tolerances: dict):
    manifest = {"command": command, "config": cfg, "tolerances": tolerances, "version": __version__}
    _write_json(out_dir / "manifest.json", manifest)


def _model_and_grid(cfg, times):
    """Model and grid of a run that builds the model state at `times`.

    Refuses a grid too coarse for the packet and a domain that leaves more
    of the packet outside than the state-norm check in ef accepts at any of
    those times, with a message that names the cause.
    """
    params = model.ModelParams(**{key: cfg[key] for key in _MODEL_KEYS})
    grid = Grid1D(x_min=cfg["x_min"], x_max=cfg["x_max"], n=cfg["n"])
    narrowest = 1.0 / (3.0 * np.sqrt(params.mass))  # model.width where cos t = 0
    points = narrowest / grid.dx
    if not points >= MIN_POINTS_PER_WIDTH:
        raise ConfigError(
            f"grid spacing dx = {grid.dx:.3g} gives {points:.3g} points across the narrowest "
            f"packet width {narrowest:.3g}; need at least {MIN_POINTS_PER_WIDTH}"
        )
    centres = model.mean_position(times, params)
    widths = model.width(times, params)
    # mass of the gaussian exp(-u^2)/(sqrt(pi) sigma) beyond each edge
    outside = [0.5 * (math.erfc((c - grid.x_min) / s) + math.erfc((grid.x_max - c) / s))
               for c, s in zip(centres, widths)]
    worst = int(np.argmax(outside))
    if not outside[worst] <= ef.NORM_TOL:
        raise ConfigError(
            f"domain x_min = {grid.x_min}, x_max = {grid.x_max} misses the packet: at "
            f"t = {times[worst]:.6g} its centre {centres[worst]:.6g} (width {widths[worst]:.3g}) "
            f"leaves {outside[worst]:.3g} of the norm outside, more than {ef.NORM_TOL:g}"
        )
    return params, grid


def cmd_verify_identity(cfg: dict, out_dir: Path) -> int:
    times = identity.sample_times(cfg["t_start"], cfg["t_end"], cfg["samples"])
    # refuses a delta_t that is not positive before the stencil is built from it
    identity.check_settings(cfg["delta_t"], cfg["rel_tol"], cfg["method"], cfg["mutation"])
    # each sample also builds states at t +- delta_t and t +- 2 delta_t
    stencil = times[:, None] + cfg["delta_t"] * np.arange(-2, 3)
    params, grid = _model_and_grid(cfg, stencil.ravel())
    try:
        report = identity.verify(
            params, grid,
            t_start=cfg["t_start"], t_end=cfg["t_end"], samples=cfg["samples"],
            delta_t=cfg["delta_t"], rel_tol=cfg["rel_tol"],
            mutation=cfg["mutation"], method=cfg["method"],
        )
        failed = False
    except VerificationFailure as err:
        report = err.report
        failed = True
    _write_manifest(out_dir, "verify-identity", cfg, {"rel_tol": cfg["rel_tol"]})
    _write_json(out_dir / "report.json", report.to_dict())
    _write_csv(out_dir / "series.csv", "t,lhs,rhs_a,rhs_b,residual_a,residual_b", [
        report.times, report.lhs, report.rhs_a, report.rhs_b,
        np.abs(report.lhs - report.rhs_a), np.abs(report.lhs - report.rhs_b),
    ])
    print(
        f"identity: winner reading {report.winner}, "
        f"relative residual {report.rel_residual(report.winner):.3e} "
        f"(tolerance {report.rel_tol:.1e}) -> {'FAIL' if failed else 'PASS'}"
    )
    return 1 if failed else 0


def cmd_verify_tensors(cfg: dict, out_dir: Path) -> int:
    sizes, recipes = _tensor_lists(cfg)
    report = {"recipes": {}, "passed": True}
    for name in recipes:
        recipe = geometry.NAMED_RECIPES[name]()
        study = geometry.convergence_study(recipe, sizes=sizes, d=cfg["dimension"])
        entry = {}
        for ident, rec in study.items():
            finest = rec["max_abs"][-1]
            base = rec["max_abs"][0]
            ok = base <= cfg["tol"]
            # order is only measurable while the residual is above roundoff
            if base > 1e-12 and not np.isnan(rec["order"]):
                ok = ok and rec["order"] >= cfg["slope_min"]
            entry[ident] = {
                "max_abs": rec["max_abs"], "sizes": rec["sizes"],
                "order": rec["order"], "finest": finest, "passed": ok,
            }
            report["passed"] = report["passed"] and ok
        report["recipes"][name] = entry
    _write_manifest(out_dir, "verify-tensors", cfg,
                    {"tol": cfg["tol"], "slope_min": cfg["slope_min"]})
    _write_json(out_dir / "report.json", report)
    for name, entry in report["recipes"].items():
        worst = max(v["max_abs"][0] for v in entry.values())
        print(f"tensors[{name}]: worst residual {worst:.3e} -> "
              f"{'PASS' if all(v['passed'] for v in entry.values()) else 'FAIL'}")
    return 0 if report["passed"] else 1


def cmd_emit_figure(cfg: dict, out_dir: Path) -> int:
    times = identity.sample_times(cfg["t_start"], cfg["t_end"], cfg["samples"])
    params, grid = _model_and_grid(cfg, times)
    xbar = model.mean_position(times, params)
    sigma = model.width(times, params)
    t_geo = identity.t_geo_series(params, grid, times)
    _write_manifest(out_dir, "emit-figure", cfg, {})
    _write_csv(out_dir / "figure.csv", "t,xbar,sigma,t_geo", [times, xbar, sigma, t_geo])
    print(f"figure: {times.size} samples over [{cfg['t_start']}, {cfg['t_end']}] written")
    return 0


def cmd_propagate(cfg: dict, out_dir: Path) -> int:
    prop_cfg = propagator.PropagatorConfig(
        dt=cfg["dt"], t_end=cfg["t_end"], h_update=cfg["h_update"],
        kinetic_precision=cfg["kinetic_precision"],
    )
    samples = propagator.sample_steps(prop_cfg.steps, cfg["n_samples"])
    params, grid = _model_and_grid(cfg, np.asarray(samples) * prop_cfg.dt)
    dump_path = out_dir / "trajectory.csv" if cfg["dump"] else None
    try:
        result = propagator.propagate(
            params, grid, prop_cfg, n_samples=cfg["n_samples"], dump_path=dump_path
        )
    except BaseException:  # the trajectory is written as the run goes
        if dump_path:
            dump_path.unlink(missing_ok=True)
        raise
    _write_manifest(out_dir, "propagate", cfg, {})
    _write_csv(out_dir / "error_series.csv", "t,l2_error,chi2_error,w_error,t_geo_error", [
        result.times, result.l2_errors, result.chi2_errors, result.w_errors, result.t_geo_errors,
    ])
    summary = {
        "steps": result.steps,
        "final_l2_error": float(result.l2_errors[-1]),
        "norm_drift": result.norm_drift,
        "max_chi2_error": float(np.max(result.chi2_errors)),
        "max_t_geo_error": float(np.max(result.t_geo_errors)),
    }
    _write_json(out_dir / "report.json", summary)
    print(
        f"propagate: {result.steps} steps, final L2 error {summary['final_l2_error']:.3e}, "
        f"norm drift {summary['norm_drift']:.3e}"
    )
    return 0


_COMMANDS = {
    "verify-identity": cmd_verify_identity,
    "verify-tensors": cmd_verify_tensors,
    "emit-figure": cmd_emit_figure,
    "propagate": cmd_propagate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out_dir)
    except VerificationFailure as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return 1
    except (ConfigError, OSError, MemoryError) as err:  # MemoryError: arrays too large to allocate
        print(f"configuration error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
