import json
from pathlib import Path

import pytest

import run
import workloads
from efgeo import cli


def _resolved(argv):
    return cli.resolve_config(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("workload,command", [("identity", "verify-identity"), ("propagate", "propagate")])
def test_seed_zero_is_the_cli_defaults(workload, command):
    seeded = _resolved(workloads.cli_args(workload, 0))
    defaults = _resolved([command])
    for key in workloads.DEFAULT_MODEL:
        assert seeded[key] == defaults[key]
    if workload == "identity":
        assert seeded == defaults


def test_seeds_are_reproducible_and_within_ten_percent():
    for seed in (1, 2, 17, 12345):
        values = workloads.model_inputs(seed)
        assert values == workloads.model_inputs(seed)
        for key, default in workloads.DEFAULT_MODEL.items():
            assert abs(values[key] / default - 1.0) <= workloads.SPREAD
    assert workloads.model_inputs(1) != workloads.model_inputs(2)


def test_seed_reaches_the_program_and_is_recorded():
    resolved = _resolved(workloads.cli_args("propagate", 5))
    for key, value in workloads.model_inputs(5).items():
        assert resolved[key] == value
    assert resolved["t_end"] == workloads.PROPAGATE["t_end"]
    assert "seed 5" in workloads.describe("propagate", 5)
    assert workloads.cli_args("tensors", 5) == workloads.cli_args("tensors", 0)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_per_layer_derives_step_time_and_flags_unsteady_counts():
    runs = [
        {"traced": False, "wall": 1.0},
        {"traced": True, "wall": 1.5, "bytes": 10,
         "layers": {"propagator.steps": 100, "propagator.propagate.self_s": 0.2, "fft.calls": 4}},
        {"traced": False, "wall": 1.2},
        {"traced": True, "wall": 1.7, "bytes": 10,
         "layers": {"propagator.steps": 100, "propagator.propagate.self_s": 0.4, "fft.calls": 5}},
    ]
    metrics, notes = run.per_layer(runs)
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["propagator.step_self_ms"] == pytest.approx(3.0)
    assert metrics["trace.overhead_s"] == pytest.approx(0.5)
    assert metrics["geometry.tensors.self_s"] == 0
    assert metrics["cli.bytes_written"] == 10
    assert notes == ["fft.calls varied between traced runs: [4, 5]"]
