import numpy as np
import pytest

import tracer
from efgeo import cli, geometry, grid
from tracer import Span, Tracer, run_summary, self_times


def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 4.0, 0, 1),
        Span(2, "b", 5.0, 6.0, 0, 1),
        Span(3, "a.child", 2.0, 3.5, 1, 1),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 6.0, 1: 1.5, 2: 1.0, 3: 1.5})


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 5.0, 0, 1),
        Span(2, "b", 3.0, 7.0, 0, 1),   # overlaps a by 2
        Span(3, "c", 4.0, 6.0, 0, 1),   # inside the union
        Span(4, "d", 9.0, 12.0, 0, 1),  # sticks out past the parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_run_summary_sums_self_time_per_name_and_selects_run():
    spans = [
        Span(0, "root", 0.0, 4.0, None, 1),
        Span(1, "leaf", 0.0, 1.0, 0, 1),
        Span(2, "leaf", 2.0, 3.0, 0, 1),
        Span(3, "root", 10.0, 20.0, None, 2),
    ]
    out = run_summary(spans, {"leaf.calls": 2}, 1)
    assert out == pytest.approx({"leaf.calls": 2, "root.self_s": 2.0, "leaf.self_s": 2.0})


def test_install_records_spans_counts_and_restores():
    saved = {
        "derivative": grid.Grid1D.__dict__["derivative"],
        "x": grid.Grid1D.__dict__["x"],
        "fft": np.fft.fft,
        "main": cli.main,
    }
    tr = Tracer()
    tr.new_run()
    with tr:
        g = grid.Grid1D(0.0, 1.0, 32)
        f = np.sin(2 * np.pi * g.x)
        g.derivative(f, 1, "spectral")
        g.derivative(f, 1, "fd4")
    assert grid.Grid1D.__dict__["derivative"] is saved["derivative"]
    assert grid.Grid1D.__dict__["x"] is saved["x"]
    assert np.fft.fft is saved["fft"] and cli.main is saved["main"]

    counts = tr.counts[1]
    assert counts["grid.derivative.calls"] == 2
    assert counts["fft.calls"] == 2  # one fft and one ifft, spectral only
    assert counts["grid.x.evals"] == 1
    assert counts["grid.wavenumbers.evals"] == 1
    assert [s.name for s in tr.spans] == ["grid.derivative", "grid.derivative"]
    assert all(s.parent is None and s.run == 1 and s.end >= s.start for s in tr.spans)


def test_nested_calls_get_parent_span():
    tr = Tracer()
    tr.new_run()
    with tr:
        geometry.tensors(geometry.build_family(geometry.smooth_recipe(), geometry.ParamGrid((32,))))
    by_id = {s.id: s for s in tr.spans}
    diffs = [s for s in tr.spans if s.name == "geometry.ParamGrid.diff"]
    assert diffs and all(by_id[s.parent].name == "geometry.tensors" for s in diffs)
    assert tr.counts[1]["geometry.tensors.calls"] == 1


def test_result_counts_and_double_install():
    tr = Tracer()
    tr.install()
    try:
        with pytest.raises(RuntimeError):
            tr.install()
    finally:
        tr.uninstall()
    assert cli.main.__module__ == "efgeo.cli" and not hasattr(cli.main, "__wrapped__")
    assert tracer.RESULT_COUNTS["propagator.propagate"](type("R", (), {"steps": 7})()) == {
        "propagator.steps": 7
    }
