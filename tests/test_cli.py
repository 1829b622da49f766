import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efgeo import cli, geometry
from efgeo.cli import main


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

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "extra.json"
        cfg.write_text(json.dumps({"etaa": 0.1}))
        assert run(["verify-identity", "--config", str(cfg),
                    "--out", str(tmp_path / "x")]) == 2

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
        assert run(["verify-tensors", "--sizes", "8,16",
                    "--out", str(tmp_path / "x")]) == 2

    def test_nan_residual_fails(self, tmp_path):
        out = tmp_path / "vtn"
        clean = geometry.tensors

        def poisoned(family, richardson=False):
            ts = clean(family, richardson)
            ts.c[1, 1, 0][3, 4] = np.nan
            return ts

        with mock.patch.object(geometry, "tensors", poisoned):
            code = run(["verify-tensors", "--recipes", "smooth", "--sizes", "32,40",
                        "--out", str(out)])
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert not report["passed"]
        assert np.isnan(report["recipes"]["smooth"]["c_b_exchange"]["max_abs"][0])

    def test_unknown_recipe(self, tmp_path):
        assert run(["verify-tensors", "--recipes", "mystery",
                    "--out", str(tmp_path / "x")]) == 2


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
        assert (out / "trajectory.csv").exists()


def _raw_config(tmp_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    return ["--config", str(path)]


def _config(tmp_path, data):
    return _raw_config(tmp_path, json.dumps(data))


_SHORT_RUN = ["--n", "1024", "--dt", "1e-3", "--t-end", "0.002"]

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
    "no_propagate_samples": lambda p: ["propagate", *_SHORT_RUN, "--n-samples", "0"],
    "one_propagate_sample": lambda p: ["propagate", *_SHORT_RUN, "--n-samples", "1"],
    "huge_int_for_float": lambda p: ["verify-identity", *_config(p, {"inertia": 10 ** 400})],
    "int_past_digit_limit": lambda p: [
        "verify-identity", *_raw_config(p, '{"inertia": ' + "1" * 5000 + "}")
    ],
    "infinite_mass": lambda p: ["verify-identity", *_config(p, {"mass": float("inf")})],
    "unresolved_heavy_packet": lambda p: ["verify-identity", "--mass", "1e308"],
    "unresolved_coarse_grid": lambda p: ["verify-identity", "--n", "64"],
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_2_with_one_line(case, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(BAD_INPUTS[case](tmp_path) + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (out / "report.json").exists()
    assert not out.exists() or not any(out.iterdir())


def test_json_int_is_a_legal_float(tmp_path):
    out = tmp_path / "fig"
    args = _config(tmp_path, {"n": 1024, "samples": 3, "t_end": 1})
    assert run(["emit-figure", *args, "--out", str(out)]) == 0
    assert len((out / "figure.csv").read_text().splitlines()) == 4


# keys whose default is None, with the type their values must have
_NULLABLE = {"inertia": float, "mutation": str}
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=6), st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
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
    value = data.draw(_JSON_VALUES.filter(lambda v: not _legal(default, kind, v)))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        never = dict.fromkeys(cli._COMMANDS, _must_not_run)
        with mock.patch.dict(cli._COMMANDS, never):
            code = run([command, *_config(tmp, {key: value}), "--out", str(tmp / "out")])
        assert code == 2
        assert not (tmp / "out").exists()
