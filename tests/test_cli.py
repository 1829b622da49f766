import dataclasses
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efgeo import cli, geometry, identity, model, propagator
from efgeo.cli import main
from efgeo.errors import ConfigError
from efgeo.grid import Grid1D, central_difference


def run(argv):
    return main(argv)


class TestEmitFigure:
    def test_default_range_shape(self, tmp_path):
        out = tmp_path / "fig"
        code = run(["emit-figure", "--n", "1024", "--samples", "21",
                    "--t-end", "2.0", "--out", str(out)])
        assert code == 0
        lines = (out / "figure.csv").read_text().splitlines()
        assert lines[0] == "t,xbar,sigma,t_geo"
        assert len(lines) == 22
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0 and first[1] == 0.0

    def test_special_times_on_four_pi_range(self, tmp_path):
        out = tmp_path / "fig4pi"
        code = run(["emit-figure", "--n", "1024", "--samples", "201",
                    "--t-end", str(4.0 * np.pi), "--out", str(out)])
        assert code == 0
        rows = np.loadtxt(out / "figure.csv", delimiter=",", skiprows=1)
        # sample 100 lands exactly on t = 2 pi
        assert rows[100, 0] == pytest.approx(2.0 * np.pi, abs=1e-12)
        assert rows[100, 1] == pytest.approx(0.38586954509503757, abs=1e-9)
        assert np.all(rows[:, 3] > 0.0)

    def test_byte_identical_reruns(self, tmp_path):
        args = ["emit-figure", "--n", "1024", "--samples", "11", "--t-end", "1.0"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert (out1 / "figure.csv").read_bytes() == (out2 / "figure.csv").read_bytes()
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()


class TestVerifyIdentity:
    def test_quick_pass(self, tmp_path):
        out = tmp_path / "vi"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 2048, "t_end": 1.0, "samples": 5, "delta_t": 2e-4}))
        code = run(["verify-identity", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["winner"] == "B" and report["passed"]
        assert (out / "series.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["n"] == 2048

    def test_mutated_run_fails(self, tmp_path):
        out = tmp_path / "vim"
        code = run(["verify-identity", "--n", "2048", "--t-end", "1.0",
                    "--samples", "4", "--delta-t", "2e-4",
                    "--mutation", "flip_t2", "--out", str(out)])
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert not report["passed"]

    def test_missing_config_file(self, tmp_path):
        assert run(["verify-identity", "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path / "x")]) == 2

    def test_malformed_config_file(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        assert run(["verify-identity", "--config", str(cfg),
                    "--out", str(tmp_path / "x")]) == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        # a misspelt key, and the retired keys method, h_update and
        # kinetic_precision as an old config file holds them
        cases = [
            ("verify-identity", "etaa", 0.1),
            ("verify-identity", "method", "fd12"),
            ("propagate", "h_update", "per-step"),
            ("propagate", "kinetic_precision", "extended"),
        ]
        for command, key, value in cases:
            cfg = tmp_path / f"{key}.json"
            cfg.write_text(json.dumps({key: value}))
            out = tmp_path / key
            assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error: unknown config keys")
            assert err.count("\n") == 1
            assert not out.exists()

    def test_invalid_parameter_value(self, tmp_path):
        assert run(["verify-identity", "--eta", "0.7",
                    "--out", str(tmp_path / "x")]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        args = ["verify-identity", "--n", "1024", "--t-end", "0.5",
                "--samples", "5", "--delta-t", "4e-4"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        for name in ("report.json", "series.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_inertia_flag_parses_as_float(self, tmp_path):
        out = tmp_path / "inertia"
        code = run(["verify-identity", "--n", "1024", "--t-end", "0.5",
                    "--samples", "5", "--delta-t", "4e-4",
                    "--inertia", "0.1", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["inertia"] == 0.1


class TestVerifyTensors:
    def test_default_recipes_pass(self, tmp_path):
        out = tmp_path / "vt"
        code = run(["verify-tensors", "--sizes", "64,96,128", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["passed"]
        smooth = report["recipes"]["smooth"]
        for entry in smooth.values():
            assert entry["max_abs"][0] <= 1e-6

    def test_pure_gauge_residuals_zero(self, tmp_path):
        out = tmp_path / "vtg"
        code = run(["verify-tensors", "--recipes", "pure-gauge",
                    "--sizes", "32,64", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        for entry in report["recipes"]["pure-gauge"].values():
            assert entry["max_abs"][0] <= 1e-12

    def test_tiny_grid_rejected(self, tmp_path):
        out = tmp_path / "x"
        assert run(["verify-tensors", "--sizes", "8,16", "--out", str(out)]) == 2
        assert not any(out.iterdir())

    def test_nan_residual_fails(self, tmp_path, capsys):
        assert run(_QUICK_TENSORS + ["--out", str(tmp_path / "clean")]) == 0
        capsys.readouterr()
        out = tmp_path / "vtn"
        clean = geometry.tensors

        def poisoned(phi, rows=slice(None), carry=None):
            # the slab holding row 3 of the grid
            ts = clean(phi, rows, carry)
            if rows.start <= 3 < rows.stop:
                ts.c[1, 1, 0][3 - rows.start, 4] = np.nan
            return ts

        with mock.patch.object(geometry, "tensors", poisoned):
            code = run(_QUICK_TENSORS + ["--out", str(out)])
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert not report["passed"]
        assert np.isnan(report["recipes"]["smooth"]["c_b_exchange"]["max_abs"][0])
        assert "tensors[smooth]: worst residual nan -> FAIL" in capsys.readouterr().out

    def test_unknown_recipe(self, tmp_path):
        assert run(["verify-tensors", "--recipes", "mystery",
                    "--out", str(tmp_path / "x")]) == 2


# d = 2, smooth recipe: worst residual 7.84e-7 against tol 1e-6, order about 4
_QUICK_TENSORS = ["verify-tensors", "--recipes", "smooth", "--sizes", "64,72"]


def _drop_aaa(monkeypatch):
    # c_expected without its - A[mu] A[nu] A[tau] term: the same residual as
    # c - A A A against the whole expansion, and c_raw is the only piece of
    # check_decompositions that reads c
    clean = geometry.check_decompositions

    def mutated(ts):
        A = ts.a
        aaa = A[:, None, None] * A[None, :, None] * A[None, None, :]
        return clean(dataclasses.replace(ts, c=ts.c - aaa))

    monkeypatch.setattr(geometry, "check_decompositions", mutated)


def _swap_christoffel(monkeypatch):
    # gamma[nu, mu, tau] in place of gamma[mu, nu, tau]
    clean = geometry._christoffel_pieces

    def mutated(ts):
        pieces = dict(clean(ts))
        for mu, nu, tau in pieces:
            yield (mu, nu, tau), pieces[nu, mu, tau]

    monkeypatch.setattr(geometry, "_christoffel_pieces", mutated)


class _ScaledDiff(geometry.TensorFieldSet):
    # check_cb_identity differentiates only the curvature, so 1.2 times its
    # derivative puts 0.6 in place of 1/2 on half_db
    def diff(self, values, axis):
        return 1.2 * super().diff(values, axis)


def _scale_half_db(monkeypatch):
    clean = geometry.check_cb_identity

    def mutated(ts):
        return clean(_ScaledDiff(**{f.name: getattr(ts, f.name) for f in dataclasses.fields(ts)}))

    monkeypatch.setattr(geometry, "check_cb_identity", mutated)


def _second_order_stencil(monkeypatch):
    # (f[i+1] - f[i-1]) / 2h in place of fd4: every residual converges at
    # order 2, below slope_min
    def fd2(grid, values, axis, rows=slice(None)):
        window, values = (rows, values) if axis == 0 else (slice(None), values[rows])
        return central_difference(values, (1.0,), 2.0 * grid.spacings[axis], axis, window)

    monkeypatch.setattr(geometry.ParamGrid, "diff", fd2)


TENSOR_MUTATIONS = {
    "drop_aaa": _drop_aaa,
    "swap_christoffel": _swap_christoffel,
    "scale_half_db": _scale_half_db,
    "second_order_stencil": _second_order_stencil,
}


@pytest.mark.parametrize("mutation", sorted(TENSOR_MUTATIONS))
def test_tensor_mutation_fails(mutation, tmp_path, capsys, monkeypatch):
    assert run(_QUICK_TENSORS + ["--out", str(tmp_path / "clean")]) == 0
    assert capsys.readouterr().out.endswith("-> PASS\n")
    TENSOR_MUTATIONS[mutation](monkeypatch)
    assert run(_QUICK_TENSORS + ["--out", str(tmp_path / "mutated")]) == 1
    assert "-> FAIL" in capsys.readouterr().out


class TestPropagate:
    def test_short_run(self, tmp_path):
        out = tmp_path / "prop"
        code = run(["propagate", "--n", "1024", "--dt", "5e-4", "--t-end", "0.05",
                    "--n-samples", "3", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["steps"] == 100
        assert report["final_l2_error"] <= 1e-4
        lines = (out / "error_series.csv").read_text().splitlines()
        assert lines[0] == "t,l2_error,chi2_error,w_error,t_geo_error"

    def test_accuracy_guard_is_verification_failure(self, tmp_path):
        assert run(["propagate", "--dt", "1.0", "--out", str(tmp_path / "x")]) == 1

    def test_zero_horizon(self, tmp_path):
        out = tmp_path / "prop0"
        code = run(["propagate", "--n", "1024", "--t-end", "0.0", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["steps"] == 0
        assert report["final_l2_error"] == 0.0

    def test_trajectory_dump_flag(self, tmp_path):
        out = tmp_path / "propd"
        code = run(["propagate", "--n", "1024", "--dt", "1e-3", "--t-end", "0.002",
                    "--n-samples", "2", "--dump", "--out", str(out)])
        assert code == 0
        header, columns = _read_csv(out / "trajectory.csv")
        assert header == "t,x,re_psi1,im_psi1,re_psi2,im_psi2"
        # one row per grid point per sample, the first sample the initial state
        grid = Grid1D(-4.0, 6.0, 1024)
        assert np.array_equal(columns[0], np.repeat([0.0, 0.002], grid.n))
        assert np.array_equal(columns[1], np.tile(grid.x, 2))
        psi = model.assemble_psi(0.0, grid, model.ModelParams())
        assert np.array_equal(columns[2:, :grid.n],
                              [psi.psi1.real, psi.psi1.imag, psi.psi2.real, psi.psi2.imag])


def _raw_config(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return ["--config", str(path)]


def _config(tmp_path, data):
    return _raw_config(tmp_path, json.dumps(data))


_SHORT_RUN = ["--n", "1024", "--dt", "1e-3", "--t-end", "0.002"]
_OFF_PACKET = ["--x-min", "5", "--x-max", "6"]  # the packet starts at x = 0

# one case per input defect that used to traceback or exit with the wrong code
BAD_INPUTS = {
    "string_for_int": lambda p: ["verify-identity", *_config(p, {"n": "4096"})],
    "float_for_int": lambda p: ["verify-identity", *_config(p, {"samples": 10.5})],
    "bool_for_float": lambda p: ["verify-identity", *_config(p, {"mass": True})],
    "list_for_sizes": lambda p: ["verify-tensors", *_config(p, {"sizes": [64, 128]})],
    "non_integer_size": lambda p: ["verify-tensors", "--sizes", "64,abc"],
    "partial_last_step": lambda p: ["propagate", "--dt", "3e-4", "--t-end", "1e-3"],
    "no_figure_samples": lambda p: ["emit-figure", "--samples", "0"],
    "reversed_figure_range": lambda p: ["emit-figure", "--t-start", "2", "--t-end", "1"],
    "reversed_identity_range": lambda p: ["verify-identity", "--t-start", "2", "--t-end", "1"],
    "no_propagate_samples": lambda p: ["propagate", *_SHORT_RUN, "--n-samples", "0"],
    "one_propagate_sample": lambda p: ["propagate", *_SHORT_RUN, "--n-samples", "1"],
    # 2 steps have 3 step indices to record at
    "more_propagate_samples_than_steps": lambda p: [
        "propagate", "--n", "512", "--dt", "1e-3", "--t-end", "0.002", "--n-samples", "5"
    ],
    "huge_int_for_float": lambda p: ["verify-identity", *_config(p, {"inertia": 10 ** 400})],
    "int_past_digit_limit": lambda p: [
        "verify-identity", *_raw_config(p, '{"inertia": ' + "1" * 5000 + "}")
    ],
    "infinite_mass": lambda p: ["verify-identity", *_config(p, {"mass": float("inf")})],
    "unresolved_heavy_packet": lambda p: ["verify-identity", "--mass", "1e308"],
    "unresolved_coarse_grid": lambda p: ["verify-identity", "--n", "64"],
    # 1.5 points across the narrowest width: the state misses its norm by 3.6e-10
    "norm_lost_to_sampling": lambda p: [
        "verify-identity", "--eta", "0.25", "--mass", "1", "--gamma", "1", "--x-min", "-8",
        "--x-max", "10", "--n", "81", "--t-start", "1.6", "--t-end", "1.65", "--samples", "3"
    ],
    "identity_domain_misses_packet": lambda p: ["verify-identity", *_OFF_PACKET],
    "figure_domain_misses_packet": lambda p: ["emit-figure", *_OFF_PACKET],
    "propagate_domain_misses_packet": lambda p: ["propagate", *_OFF_PACKET],
    "unknown_mutation": lambda p: ["verify-identity", "--mutation", "foo"],
    "zero_delta_t": lambda p: ["verify-identity", "--delta-t", "0"],
    # the sample stencil t + k delta_t would overflow to inf
    "huge_negative_delta_t": lambda p: ["verify-identity", "--delta-t=-1e308"],
    "huge_delta_t": lambda p: ["verify-identity", "--delta-t", "1e308"],
    "zero_rel_tol": lambda p: ["verify-identity", "--rel-tol", "0"],
    # the stencil t - 2 delta_t would reach the model's edge at t = -1/3
    "delta_t_past_model_edge": lambda p: [
        "verify-identity", "--delta-t", "0.5", "--t-end", "1", "--samples", "3", "--n", "1024"
    ],
    "delta_t_far_past_model_edge": lambda p: ["verify-identity", "--delta-t", "1e300"],
    # t_end + delta_t rounds to t_end: the rate would read one state twice
    "delta_t_below_time_spacing": lambda p: [
        "verify-identity", "--delta-t", "1e-300", "--t-end", "1", "--samples", "3", "--n", "1024"
    ],
    # the stencil times are distinct, but the rate differences energies at
    # their roundoff: it FAILed at relative residual 1.369
    "delta_t_at_roundoff": lambda p: [
        "verify-identity", "--delta-t", "2e-16", "--t-end", "1", "--samples", "3", "--n", "1024"
    ],
    "negative_tensor_tol": lambda p: [
        "verify-tensors", "--tol=-1", "--dimension", "1", "--sizes", "32,40"
    ],
    "step_count_beyond_double": lambda p: ["propagate", "--t-end", "1e300"],
    # counts refused before numpy is asked for the arrays: the sample times,
    # the step indices, and a grid of sizes multiplied over its axes
    "huge_identity_samples": lambda p: ["verify-identity", "--samples", str(10 ** 20)],
    "huge_figure_samples": lambda p: ["emit-figure", "--samples", str(10 ** 20)],
    "huge_propagate_samples": lambda p: [
        "propagate", "--n", "512", "--dt", "1e-3", "--t-end", "0.002", "--n-samples", str(10 ** 20)
    ],
    "huge_tensor_size": lambda p: ["verify-tensors", "--sizes", f"64,{10 ** 20}"],
    # fails before any allocation: 2**53 int64 points need 64 PiB, more than
    # any address space holds
    "grid_beyond_memory": lambda p: ["verify-identity", "--n", str(2 ** 53)],
    "grid_beyond_array_size": lambda p: ["verify-identity", "--n", str(2 ** 62)],
    "int_beyond_int64_for_float": lambda p: ["verify-identity", *_config(p, {"delta_t": 2 ** 63})],
    "underflowing_inertia": lambda p: ["propagate", "--inertia", "5e-324"],
    "underflowing_spacing": lambda p: ["emit-figure", "--x-min", "0", "--x-max", "5e-324"],
    # the largest wavenumber pi/dx would overflow
    "overflowing_wavenumbers": lambda p: ["emit-figure", "--x-min", "0", "--x-max", "1e-310"],
    # narrowest/dx would overflow: a fine grid under a wide packet
    "fine_grid_wide_packet": lambda p: [
        "emit-figure", "--x-min", "0", "--x-max", "1.5e-304", "--mass", "1e-4"
    ],
    # 2 / inertia, the scale of the model's drift phase, would overflow
    "overflowing_inertia": lambda p: [
        "emit-figure", "--n", "512", "--samples", "2", "--t-end", "0.01", "--inertia", "1e-308"
    ],
    # the model's front steepness gamma (1 + eta t), squared, would overflow
    "overflowing_steepness_propagate": lambda p: [
        "propagate", "--gamma", "1e155", "--t-end", "0.002", "--dt", "1e-3", "--n", "512",
        "--n-samples", "2"
    ],
    "overflowing_steepness_identity": lambda p: [
        "verify-identity", "--gamma", "1e155", "--n", "512", "--t-end", "0.01", "--samples", "2"
    ],
    # about 3e-147 grid points across the front: its potential gradients overflow
    "unresolved_front": lambda p: [
        "verify-identity", "--gamma", "9.9e150", "--n", "262144", "--t-end", "0.01", "--samples", "2"
    ],
    # a convergence order is a fit through the sizes
    "repeated_sizes": lambda p: ["verify-tensors", "--sizes", "32,32"],
    # the verdict holds tol against the first size and reports the last as finest
    "descending_tensor_sizes": lambda p: [
        "verify-tensors", "--recipes", "smooth", "--dimension", "1", "--sizes", "64,40"
    ],
    # each recipe's entry in report.json is keyed by its name
    "repeated_recipes": lambda p: [
        "verify-tensors", "--recipes", "smooth,smooth", "--dimension", "1", "--sizes", "32,40"
    ],
    "single_size": lambda p: ["verify-tensors", "--sizes", "64"],
    "zero_tensor_tol": lambda p: ["verify-tensors", "--tol", "0"],
    "no_recipes": lambda p: ["verify-tensors", "--recipes", ""],
    "unknown_recipe": lambda p: ["verify-tensors", "--recipes", "mystery"],
    "zero_dimension": lambda p: ["verify-tensors", "--dimension", "0"],
    # the model's front terms vanish at t = -1 and t = -1/3
    "negative_figure_start": lambda p: ["emit-figure", "--t-start", "-1"],
    "negative_identity_start": lambda p: ["verify-identity", "--t-start", "-0.5"],
    "vanishing_mass": lambda p: ["emit-figure", "--mass", "1e-300"],
    # flag-level usage errors, refused by the parser before any config is read
    "flag_not_an_int": lambda p: ["verify-identity", "--n", "abc"],
    "removed_method_flag": lambda p: ["verify-identity", "--method", "fd12"],
    "unknown_subcommand": lambda p: ["verify-everything"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bad_input_exits_2_with_one_line(case, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(BAD_INPUTS[case](tmp_path) + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (out / "report.json").exists()
    assert not out.exists() or not any(out.iterdir())


_DEFAULT_RECIPES = ["smooth", "pure-gauge"]
# each refusal of verify-tensors as geometry.verify arguments (recipes,
# sizes, d, tol) and its line; a case of BAD_INPUTS by the same name prints
# it.  The command line refuses a NaN tol as a config value first.
_TENSOR_REFUSALS = {
    "negative_tensor_tol": (_DEFAULT_RECIPES, [32, 40], 1, -1.0, "tol must be positive, got -1.0"),
    "zero_tensor_tol": (_DEFAULT_RECIPES, [64, 128, 256], 2, 0.0, "tol must be positive, got 0.0"),
    "nan_tensor_tol": (_DEFAULT_RECIPES, [64, 128, 256], 2, float("nan"),
                       "tol must be positive, got nan"),
    "single_size": (_DEFAULT_RECIPES, [64], 2, 1e-6,
                    "sizes must be at least two distinct grid sizes, got '64'"),
    "repeated_sizes": (_DEFAULT_RECIPES, [32, 32], 2, 1e-6,
                       "sizes must be at least two distinct grid sizes, got '32,32'"),
    "descending_tensor_sizes": (["smooth"], [64, 40], 1, 1e-6, "sizes must increase, got '64,40'"),
    "no_recipes": ([], [64, 128, 256], 2, 1e-6, "need at least one recipe, each named once, got ''"),
    "repeated_recipes": (["smooth", "smooth"], [32, 40], 1, 1e-6,
                         "need at least one recipe, each named once, got 'smooth,smooth'"),
    "unknown_recipe": (["mystery"], [64, 128, 256], 2, 1e-6,
                       "unknown recipe 'mystery'; choose from ['constant', 'pure-gauge', 'smooth']"),
    "huge_tensor_size": (_DEFAULT_RECIPES, [64, 10 ** 20], 2, 1e-6,
                         f"grid {(10 ** 20, 10 ** 20)} has more than 2**53 points"),
}


@pytest.mark.parametrize("case", sorted(_TENSOR_REFUSALS))
def test_tensor_refusal_is_the_library_refusal(case, tmp_path, capsys, monkeypatch):
    *args, line = _TENSOR_REFUSALS[case]
    monkeypatch.setattr(geometry, "identity_residuals", lambda *a: pytest.fail("grid built"))
    with pytest.raises(ConfigError) as refusal:
        geometry.verify(*args, slope_min=3.5)
    assert str(refusal.value) == line
    if case in BAD_INPUTS:
        assert run(BAD_INPUTS[case](tmp_path) + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"configuration error: {line}\n"


@pytest.mark.parametrize("flag", ["--help", "--version"])
def test_help_and_version_exit_0(flag, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_keep_heap", lambda: pytest.fail("allocator set for " + flag))
    with pytest.raises(SystemExit) as stop:
        run([flag])
    assert stop.value.code == 0
    assert capsys.readouterr().out


def _fresh_python(code):
    """A fresh interpreter that runs `code` with this checkout's efgeo."""
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)


# at t = 10 the front is resolved by 5.12 points and the identity passes at
# a relative residual of 2e-10: a run this grid serves prints nothing on stderr
@pytest.mark.parametrize("argv", [
    ["verify-identity", "--t-start", "9.9", "--t-end", "10", "--samples", "2"],
    ["emit-figure", "--t-start", "9.9", "--t-end", "10", "--samples", "2"],
    ["propagate", "--dt", "1e-3", "--t-end", "0.3", "--n-samples", "2"],
], ids=lambda argv: argv[0])
def test_default_grid_run_is_silent_on_stderr(argv, tmp_path):
    done = _fresh_python(f"import sys\nfrom efgeo import cli\n"
                         f"sys.exit(cli.main({argv + ['--out', str(tmp_path)]!r}))")
    assert done.returncode == 0 and done.stderr == ""


class TestHeapThresholds:
    QUICK = ["verify-identity", "--n", "1024", "--t-end", "0.5", "--samples", "5",
             "--delta-t", "4e-4"]

    def test_import_leaves_the_thresholds_and_main_sets_both(self):
        code = f"""
import ctypes, sys, tempfile
import numpy
calls = []
class Mallopt:
    def __call__(self, param, value):
        calls.append((param, value))
        return 1
class Libc:
    mallopt = Mallopt()
ctypes.CDLL = lambda name, *args, **kwargs: Libc()
from efgeo import cli
if calls:
    sys.exit(f"import called mallopt: {{calls}}")
with tempfile.TemporaryDirectory() as out:
    code = cli.main({self.QUICK!r} + ["--out", out])
if code != 0 or calls != [(-3, 32 << 20), (-1, 64 << 20)]:
    sys.exit(f"exit {{code}}, mallopt calls {{calls}}")
"""
        done = _fresh_python(code)
        assert done.returncode == 0, done.stderr

    def test_libc_without_mallopt_changes_nothing(self, tmp_path, monkeypatch):
        assert run(self.QUICK + ["--out", str(tmp_path / "kept")]) == 0
        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name, *args, **kwargs: object())
        assert run(self.QUICK + ["--out", str(tmp_path / "bare")]) == 0
        for name in ("report.json", "series.csv", "manifest.json"):
            assert (tmp_path / "kept" / name).read_bytes() == (tmp_path / "bare" / name).read_bytes()

    # musl's mallopt does nothing, and other C libraries have none
    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
    def test_repeated_run_keeps_its_heap(self):
        # at n = 4096 every whole-grid complex field is 64 KiB; with glibc's
        # default thresholds the second run refaulted about 9000 pages of
        # heap that the first had freed, with them it faults about 10
        code = """
import resource, tempfile
from efgeo import cli
argv = ["verify-identity", "--t-end", "1", "--samples", "11"]
with tempfile.TemporaryDirectory() as out:
    for _ in range(2):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        assert cli.main(argv + ["--out", out]) == 0
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults)
"""
        done = _fresh_python(code)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout.split()[-1]) < 1000


@pytest.mark.parametrize("case, key", [
    ("overflowing_inertia", "inertia = "),
    ("overflowing_wavenumbers", "dx = "),
    ("huge_delta_t", "delta_t = "),
    ("delta_t_far_past_model_edge", "delta_t = "),
])
def test_overflow_refusal_names_the_key(case, key, tmp_path, capsys):
    assert run(BAD_INPUTS[case](tmp_path) + ["--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


def test_domain_message_names_the_edges_and_the_packet_centre(tmp_path, capsys):
    assert run(["propagate", *_OFF_PACKET, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "x_min = 5.0, x_max = 6.0" in err and "centre 0 " in err


def test_singular_gauge_mid_run_exits_2_with_one_line(tmp_path, capsys):
    # eta near 0 puts the Bloch angles on a coordinate singularity, which
    # only the Hamiltonian entries of the run detect, after the first sample
    singular = ["--eta", "1e-62", "--n", "512"]
    runs = {
        "identity": ["verify-identity", *singular, "--t-end", "0.01", "--samples", "2"],
        "dump": ["propagate", *singular, "--dt", "1e-3", "--t-end", "0.002", "--dump"],
    }
    for name, argv in runs.items():
        out = tmp_path / name
        assert run(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert not any(out.iterdir()), name


def test_subnormal_front_steepness_runs(tmp_path):
    # the resolution test used to divide by gamma * dx, which underflows to 0
    out = tmp_path / "prop"
    assert run(["propagate", *_SHORT_RUN, "--n-samples", "3", "--gamma", "5e-324",
                "--out", str(out)]) == 0


def test_json_int_is_a_legal_float(tmp_path):
    out = tmp_path / "fig"
    args = _config(tmp_path, {"n": 1024, "samples": 3, "t_end": 1})
    assert run(["emit-figure", *args, "--out", str(out)]) == 0
    assert len((out / "figure.csv").read_text().splitlines()) == 4
    # resolved to the float it stands for
    assert isinstance(json.loads((out / "manifest.json").read_text())["config"]["t_end"], float)


# keys whose default is None, with the type their values must have
_NULLABLE = {"inertia": float, "mutation": str}

# any JSON value: scalars (NaN and infinities too, which Python's reader
# accepts), nested lists and objects
_ANY = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=5)),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _legal(default, kind, value):
    if value is None:
        return default is None
    if isinstance(value, bool):
        return kind is bool
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, kind)


def _must_not_run(cfg, out_dir):
    raise AssertionError("computation started on a mistyped config")


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_mistyped_config_value_exits_2_before_any_computation(data):
    command = data.draw(st.sampled_from(sorted(cli._DEFAULTS)))
    key = data.draw(st.sampled_from(sorted(cli._DEFAULTS[command])))
    default = cli._DEFAULTS[command][key]
    kind = _NULLABLE.get(key, type(default))
    value = data.draw(_ANY.filter(lambda v: not _legal(default, kind, v)))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        never = dict.fromkeys(cli._COMMANDS, _must_not_run)
        with mock.patch.dict(cli._COMMANDS, never):
            code = run([command, *_config(tmp, {key: value}), "--out", str(tmp / "out")])
        assert code == 2
        assert not (tmp / "out").exists()


def _spy(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each return value."""
    seen = []
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        seen.append(original(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(owner, name, wrapper)
    return seen


def _read_csv(path):
    header, *rows = path.read_text().splitlines()
    return header, np.array([[float(v) for v in row.split(",")] for row in rows]).T


def test_csv_outputs_parse_back_bit_exactly(tmp_path, monkeypatch):
    reports = _spy(monkeypatch, identity, "verify")
    results = _spy(monkeypatch, propagator, "propagate")
    t_geos = _spy(monkeypatch, identity, "t_geo_series")
    assert run(["verify-identity", "--n", "1024", "--t-end", "0.5", "--samples", "5",
                "--delta-t", "4e-4", "--out", str(tmp_path / "vi")]) == 0
    assert run(["propagate", *_SHORT_RUN, "--n-samples", "3", "--out", str(tmp_path / "p")]) == 0
    assert run(["emit-figure", "--n", "1024", "--samples", "3", "--t-end", "1.0",
                "--out", str(tmp_path / "f")]) == 0

    rep, res = reports[0], results[0]
    times = identity.sample_times(0.0, 1.0, 3)
    params = model.ModelParams()
    expected = {
        "vi/series.csv": ("t,lhs,rhs_a,rhs_b,residual_a,residual_b", [
            rep.times, rep.lhs, rep.rhs_a, rep.rhs_b,
            np.abs(rep.lhs - rep.rhs_a), np.abs(rep.lhs - rep.rhs_b),
        ]),
        "p/error_series.csv": ("t,l2_error,chi2_error,w_error,t_geo_error", [
            res.times, res.l2_errors, res.chi2_errors, res.w_errors, res.t_geo_errors,
        ]),
        "f/figure.csv": ("t,xbar,sigma,t_geo", [
            times, model.mean_position(times, params), model.width(times, params), t_geos[-1],
        ]),
    }
    for name, (header, columns) in expected.items():
        got_header, got = _read_csv(tmp_path / name)
        assert got_header == header, name
        assert np.array_equal(got, np.array(columns, dtype=float)), name


_SIZES = st.lists(st.integers(0, 40), min_size=1, max_size=2).map(lambda m: ",".join(map(str, m)))
_RECIPES = st.lists(st.sampled_from(sorted(geometry.NAMED_RECIPES)), min_size=1, max_size=2)
# size-like keys stay within bounds that keep a run short; names are valid or
# arbitrary text
_VALUES = {
    "n": st.integers(-16, 512),
    "samples": st.integers(-1, 4),
    "n_samples": st.integers(-1, 4),
    "t_end": st.floats(-0.01, 0.01),
    "dt": st.floats(-1e-3, 1e-3).filter(lambda dt: not 0.0 < dt < 5e-4),
    "dimension": st.integers(-1, 4),
    "sizes": st.one_of(_SIZES, st.text(alphabet=" ,-x", max_size=5)),
    "recipes": st.one_of(_RECIPES.map(",".join), st.text(max_size=5)),
    "mutation": st.one_of(st.sampled_from(identity.MUTATIONS), st.text(max_size=5)),
}
# a number or a digit string could make a size-like key arbitrarily large
_SIZE_LIKE = ("n", "samples", "n_samples", "t_end", "dt", "dimension", "sizes")
_UNKNOWN = ("", "etaa", "N")  # keys no subcommand knows
_BASE = {
    "verify-identity": {"n": 512, "samples": 2, "t_end": 0.01},
    "propagate": {"n": 512, "dt": 1e-3, "t_end": 0.002, "n_samples": 2},
    "emit-figure": {"n": 512, "samples": 2, "t_end": 0.01},
    "verify-tensors": {"sizes": "32,40", "dimension": 2, "recipes": "smooth"},
}


def _near(default):
    """Values of a key's type, between zero and twice its default."""
    if isinstance(default, bool):
        return st.booleans()
    if not default:
        return st.floats(-1.0, 1.0)
    return st.floats(*sorted((0.0, 2.0 * default)))


@pytest.mark.parametrize("command", sorted(_BASE))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_arbitrary_config_exits_0_1_or_2(command, data):
    defaults = cli._DEFAULTS[command]
    keys = data.draw(st.lists(st.sampled_from(sorted(defaults)), max_size=3, unique=True))
    cfg = {key: data.draw(_VALUES[key] if key in _VALUES else _near(defaults[key]), label=key)
           for key in keys}
    # in some draws, one key, known or not, holding any JSON value
    if data.draw(st.booleans(), label="with junk"):
        junk = data.draw(st.sampled_from([*sorted(defaults), *_UNKNOWN]), label="junk key")
        bad = _ANY.filter(lambda v: isinstance(v, bool) or not isinstance(v, (int, float, str)))
        cfg[junk] = data.draw(bad if junk in _SIZE_LIKE else _ANY, label="junk value")
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        args = _config(tmp, {**_BASE[command], **cfg})
        code = run([command, *args, "--out", str(tmp / "out")])
        assert code in (0, 1, 2)
        if code == 2:  # a refused run leaves no file
            assert not (tmp / "out").exists() or not any((tmp / "out").iterdir())
