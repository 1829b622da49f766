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
import ctypes
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__, geometry, identity, model, propagator
from .errors import ConfigError, VerificationFailure
from .grid import Grid1D

_MODEL_KEYS = {f.name: f.default for f in dataclasses.fields(model.ModelParams)}
_GRID_KEYS = {"x_min": -4.0, "x_max": 6.0, "n": 4096}

_DEFAULTS = {
    "verify-identity": {
        **_MODEL_KEYS, **_GRID_KEYS,
        "t_start": 0.0, "t_end": 10.0, "samples": 101,
        "delta_t": 1e-4, "rel_tol": 1e-3, "mutation": None,
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
        "dt": 1e-4, "t_end": 2.0, "n_samples": 11, "dump": False,
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


class _Parser(argparse.ArgumentParser):
    """Raises each usage error as a ConfigError, which main reports in one
    line with exit 2; the subcommand parsers share the class."""

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    """Grid sizes and recipe names of a verify-tensors run, as geometry.verify takes them."""
    try:
        sizes = [int(s) for s in cfg["sizes"].split(",") if s]
    except ValueError:
        raise ConfigError(f"sizes must be comma-separated integers, got {cfg['sizes']!r}") from None
    return sizes, [r.strip() for r in cfg["recipes"].split(",") if r.strip()]


def _write_json(path: Path, data: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: str, columns):
    """One row per entry of the columns, each value in round-trip precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in zip(*columns):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def _write_manifest(out_dir: Path, command: str, cfg: dict, tolerances: dict):
    manifest = {"command": command, "config": cfg, "tolerances": tolerances, "version": __version__}
    _write_json(out_dir / "manifest.json", manifest)


def _model_and_grid(cfg):
    params = model.ModelParams(**{key: cfg[key] for key in _MODEL_KEYS})
    return params, Grid1D(x_min=cfg["x_min"], x_max=cfg["x_max"], n=cfg["n"])


def cmd_verify_identity(cfg: dict, out_dir: Path) -> int:
    params, grid = _model_and_grid(cfg)
    try:
        report = identity.verify(
            params, grid,
            t_start=cfg["t_start"], t_end=cfg["t_end"], samples=cfg["samples"],
            delta_t=cfg["delta_t"], rel_tol=cfg["rel_tol"],
            mutation=cfg["mutation"],
        )
        failed = False
    except VerificationFailure as err:
        report = err.report
        failed = True
    _write_manifest(out_dir, "verify-identity", cfg, {"rel_tol": cfg["rel_tol"]})
    _write_json(out_dir / "report.json", report.to_dict())
    _write_csv(out_dir / "series.csv", "t,lhs,rhs_a,rhs_b,residual_a,residual_b", [
        report.times, report.lhs, report.rhs_a, report.rhs_b,
        report.residual("A"), report.residual("B"),
    ])
    print(
        f"identity: winner reading {report.winner}, "
        f"relative residual {report.rel_residual(report.winner):.3e} "
        f"(tolerance {report.rel_tol:.1e}) -> {'FAIL' if failed else 'PASS'}"
    )
    return 1 if failed else 0


def cmd_verify_tensors(cfg: dict, out_dir: Path) -> int:
    sizes, recipes = _tensor_lists(cfg)
    try:
        report = geometry.verify(recipes, sizes, cfg["dimension"], cfg["tol"], cfg["slope_min"])
    except VerificationFailure as err:
        report = err.report
    _write_manifest(out_dir, "verify-tensors", cfg, {k: cfg[k] for k in ("tol", "slope_min")})
    _write_json(out_dir / "report.json", report.to_dict())
    for name, entry in report.recipes.items():
        worst = np.max([v["max_abs"][0] for v in entry.values()])  # NaN if any is NaN
        print(f"tensors[{name}]: worst residual {worst:.3e} -> "
              f"{'PASS' if all(v['passed'] for v in entry.values()) else 'FAIL'}")
    return 0 if report.passed else 1


def cmd_emit_figure(cfg: dict, out_dir: Path) -> int:
    times = identity.sample_times(cfg["t_start"], cfg["t_end"], cfg["samples"])
    params, grid = _model_and_grid(cfg)
    t_geo = identity.t_geo_series(params, grid, times)  # refuses a grid before any state
    xbar = model.mean_position(times, params)
    sigma = model.width(times, params)
    _write_manifest(out_dir, "emit-figure", cfg, {})
    _write_csv(out_dir / "figure.csv", "t,xbar,sigma,t_geo", [times, xbar, sigma, t_geo])
    print(f"figure: {times.size} samples over [{cfg['t_start']}, {cfg['t_end']}] written")
    return 0


def cmd_propagate(cfg: dict, out_dir: Path) -> int:
    prop_cfg = propagator.PropagatorConfig(dt=cfg["dt"], t_end=cfg["t_end"])
    params, grid = _model_and_grid(cfg)
    result = propagator.propagate(
        params, grid, prop_cfg, n_samples=cfg["n_samples"], keep_states=cfg["dump"]
    )
    _write_manifest(out_dir, "propagate", cfg, {})
    _write_csv(out_dir / "error_series.csv", "t,l2_error,chi2_error,w_error,t_geo_error", [
        result.times, result.l2_errors, result.chi2_errors, result.w_errors, result.t_geo_errors,
    ])
    if cfg["dump"]:  # one row per grid point per sampled state
        psi1, psi2 = np.hstack([(s.psi1, s.psi2) for s in result.states])
        _write_csv(out_dir / "trajectory.csv", "t,x,re_psi1,im_psi1,re_psi2,im_psi2", [
            np.repeat(result.times, grid.n), np.tile(grid.x, len(result.states)),
            psi1.real, psi1.imag, psi2.real, psi2.imag,
        ])
    report = result.to_dict()
    _write_json(out_dir / "report.json", report)
    print(
        f"propagate: {result.steps} steps, final L2 error {report['final_l2_error']:.3e}, "
        f"norm drift {report['norm_drift']:.3e}"
    )
    return 0


# glibc's mallopt parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, and the
# values set for them: 32 MiB is glibc's ceiling for its dynamic mmap
# threshold, and the trim threshold is twice it, as glibc's dynamic rule sets it
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD


def _keep_heap():
    """Let the heap keep up to 64 MiB of freed memory, not return it to the kernel.

    At n = 4096 every whole-grid complex field is 64 KiB, glibc's fastbin
    consolidation threshold, so each free of one checks the top of the
    heap and returns it to the kernel once more than the default 128 KiB
    trim threshold is free there; the next state assembly faults it back
    in.  No field reaches the default 128 KiB mmap threshold, so glibc
    never raises the trim threshold itself.  Setting the trim threshold
    alone would pin the mmap threshold at 128 KiB, so both are set.  Does
    nothing where the C library has no mallopt.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to load
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_COMMANDS = {
    "verify-identity": cmd_verify_identity,
    "verify-tensors": cmd_verify_tensors,
    "emit-figure": cmd_emit_figure,
    "propagate": cmd_propagate,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _keep_heap()
        return _COMMANDS[args.command](cfg, out_dir)
    except VerificationFailure as err:
        print(f"verification failure: {err}", file=sys.stderr)
        return 1
    except (ConfigError, OSError, MemoryError) as err:  # MemoryError: arrays too large to allocate
        print(f"configuration error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
