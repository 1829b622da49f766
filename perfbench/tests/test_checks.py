import json
import shutil

import pytest

import checks
import workloads


def _outputs(tmp_path, workload, seed=0):
    """A copy of the reference outputs, as a run at `seed` would leave them."""
    shutil.copytree(checks.REFERENCE / workload, tmp_path, dirs_exist_ok=True)
    (tmp_path / "manifest.json").write_text(json.dumps({"config": workloads.model_inputs(seed)}))
    return tmp_path


def _edit_json(path, **changes):
    data = json.loads(path.read_text())
    data.update(changes)
    path.write_text(json.dumps(data))


def _edit_csv(path, row, column, delta):
    lines = path.read_text().splitlines()
    head = lines[0].split(",")
    cells = lines[row + 1].split(",")
    cells[head.index(column)] = repr(float(cells[head.index(column)]) + delta)
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_outputs_pass(tmp_path, workload):
    assert checks.check_run(workload, 0, _outputs(tmp_path, workload), 0) == []


def test_nonzero_exit_fails(tmp_path):
    assert checks.check_run("identity", 0, _outputs(tmp_path, "identity"), 1) == ["exit code 1"]
    assert checks.check_run("identity", 0, tmp_path, "ValueError: boom")


def test_missing_output_fails(tmp_path):
    (problem,) = checks.check_run("tensors", 0, tmp_path, 0)
    assert problem.startswith("unreadable output")


def test_flipped_verdict_fails(tmp_path):
    out = _outputs(tmp_path, "identity")
    _edit_json(out / "report.json", winner="A")
    assert any("reading A won" in p for p in checks.check_run("identity", 0, out, 0))


def test_identity_residual_above_tolerance_fails_at_any_seed(tmp_path):
    out = _outputs(tmp_path, "identity", seed=4)
    _edit_json(out / "report.json", rel_residual_b=2e-3)
    assert checks.check_run("identity", 4, out, 0) == [
        "reading B residual 0.002 above 0.001"
    ]


def test_wrong_inputs_fail(tmp_path):
    out = _outputs(tmp_path, "identity", seed=0)
    assert any("manifest eta" in p for p in checks.check_run("identity", 3, out, 0))


def test_drift_above_bound_fails(tmp_path):
    out = _outputs(tmp_path, "propagate", seed=2)
    _edit_json(out / "report.json", norm_drift=2e-12)
    assert checks.check_run("propagate", 2, out, 0) == ["norm drift 2e-12 above 1e-12"]


def test_wrong_step_count_fails(tmp_path):
    out = _outputs(tmp_path, "propagate", seed=2)
    _edit_json(out / "report.json", steps=999)
    assert checks.check_run("propagate", 2, out, 0) == ["999 steps, expected 1000"]


def test_l2_error_above_bound_fails(tmp_path):
    out = _outputs(tmp_path, "propagate", seed=2)
    _edit_csv(out / "error_series.csv", 5, "l2_error", 2e-3)
    (problem,) = checks.check_run("propagate", 2, out, 0)
    assert problem.startswith("max L2 error")


def test_perturbed_series_fails_at_seed_zero(tmp_path):
    out = _outputs(tmp_path, "propagate")
    _edit_csv(out / "error_series.csv", 3, "w_error", 1e-11)
    (problem,) = checks.check_run("propagate", 0, out, 0)
    assert "error_series.csv row 3 w_error" in problem


def test_series_within_absolute_tolerance_passes(tmp_path):
    out = _outputs(tmp_path, "propagate")
    _edit_csv(out / "error_series.csv", 3, "w_error", 1e-13)
    assert checks.check_run("propagate", 0, out, 0) == []


def test_perturbed_report_fails_at_seed_zero(tmp_path):
    out = _outputs(tmp_path, "identity")
    report = json.loads((out / "report.json").read_text())
    report["lhs"][50] *= 1.0 + 1e-9
    (out / "report.json").write_text(json.dumps(report))
    (problem,) = checks.check_run("identity", 0, out, 0)
    assert problem.startswith("report.json.lhs[50]")


def test_tensor_failures(tmp_path):
    out = _outputs(tmp_path, "tensors")
    report = json.loads((out / "report.json").read_text())
    report["passed"] = False
    report["recipes"]["smooth"]["c_b_exchange"]["order"] = 3.0
    (out / "report.json").write_text(json.dumps(report))
    problems = checks.check_run("tensors", 7, out, 0)
    assert "tensor report did not pass" in problems
    assert "smooth/c_b_exchange order 3.0 below 3.5" in problems
    assert any(p.startswith("report.json.passed") for p in problems)


def test_json_tolerance_is_relative_to_the_list_scale():
    ref = {"series": [1.0, 1e-20], "scalar": 2.0, "flag": "B", "nan": float("nan")}
    same = {"series": [1.0 + 1e-13, 5e-13], "scalar": 2.0 * (1 + 1e-13), "flag": "B",
            "nan": float("nan")}
    assert checks.json_mismatches(same, ref, 1e-12) == []
    worse = dict(same, series=[1.0, 2e-12], scalar=2.0 * (1 + 1e-11), flag="A")
    assert checks.json_mismatches(worse, ref, 1e-12) == [
        "$.flag: 'A' != 'B'",
        "$.scalar: 2.00000000002 differs from 2.0",
        "$.series[1]: 2e-12 differs from 1e-20",
    ]
