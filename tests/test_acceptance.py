"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible with pytest -s); the asserts
carry the same thresholds.  Expensive runs stay within the stated budgets
on a single core.
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from periodic_states import make_periodic_state, regauged, smooth_gauge
from efgeo import cli, ef, geometry as geo, identity, model, propagator
from efgeo.grid import Grid1D
from test_ef import closed_form_tensors


def report(num, desc, ok, detail=""):
    print(f"criterion {num} ({desc}): {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


def _bench_checks():
    """The benchmark's output checks, with its references and tolerances."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    if str(bench) not in sys.path:
        sys.path.insert(0, str(bench))
    import checks

    return checks


def test_criterion_1_main_identity(params, grid4096):
    start = time.perf_counter()
    rep = identity.verify(
        params, grid4096, t_start=0.0, t_end=10.0, samples=101,
        delta_t=1e-4, rel_tol=1e-3,
    )
    elapsed = time.perf_counter() - start
    base = rep.rel_residual(rep.winner)

    refined = identity.verify(
        params, Grid1D(-4.0, 6.0, 8192), t_start=0.0, t_end=10.0, samples=101,
        delta_t=5e-5, rel_tol=1e-3,
    )
    ratio = base / refined.rel_residual(rep.winner)

    ok = rep.passed and base <= 1e-3 and ratio >= 8.0 and elapsed <= 300.0
    report(
        1, "main identity",
        ok,
        f"reading {rep.winner}, residual {base:.3e} <= 1e-3, "
        f"refinement ratio {ratio:.1f} >= 8, runtime {elapsed:.1f}s <= 300s",
    )
    assert rep.passed and rep.winner == "B"
    assert base <= 1e-3
    assert ratio >= 8.0
    assert elapsed <= 300.0

    # the same run is the benchmark's identity workload at seed 0: hold its
    # report to the benchmark's reference, read in place, at its tolerance
    checks = _bench_checks()
    reference = json.loads((checks.REFERENCE / "identity" / "report.json").read_text())
    got = json.loads(json.dumps(rep.to_dict()))
    assert checks.json_mismatches(got, reference, checks.REPORT_REL_TOL) == []


def test_criterion_2_kinetic_partition(params, grid4096):
    worst = 0.0
    for t in (0.0, 1.0, 2.0, 5.0):
        dec = ef.decompose(model.assemble_psi(t, grid4096, params), inertia=params.inertia)
        en = ef.energies(dec)
        gap = abs(en.total - en.marginal - en.geometric) / en.total
        worst = max(worst, gap)
        assert gap <= 1e-8, f"partition gap {gap:.2e} at t={t}"
    report(2, "kinetic partition", worst <= 1e-8, f"worst relative gap {worst:.2e} <= 1e-8")


def test_criterion_3_model_closed_form_tensors(params, grid4096):
    worst = 0.0
    for t in (0.0, 1.0):
        dec = ef.decompose(model.assemble_psi(t, grid4096, params))
        _, g_cf, c_cf, d_cf = closed_form_tensors(t, grid4096, params)
        m = dec.mask
        metric, c_tensor, d_tensor = (dec.on_grid(f) for f in (dec.metric, dec.c_tensor, dec.d_tensor))
        errs = [
            np.max(np.abs(metric - g_cf)[m]),
            np.max(np.abs(c_tensor - c_cf)[m]),
            np.max(np.abs(d_tensor - d_cf)[m]),
            np.max(np.abs(d_tensor + 0.5 * grid4096.derivative(metric, 1, "fd12"))[m]),
        ]
        worst = max(worst, *errs)
        assert max(errs) <= 1e-6, f"tensor mismatch {max(errs):.2e} at t={t}"
    report(3, "model closed-form tensors", worst <= 1e-6, f"worst max-norm error {worst:.2e} <= 1e-6")


def test_criterion_4_tensor_identity_suite():
    start = time.perf_counter()
    study = geo.convergence_study(geo.smooth_recipe(), sizes=(64, 128, 256), d=2)
    elapsed = time.perf_counter() - start
    worst_res = max(study[name]["max_abs"][0] for name in geo.IDENTITY_NAMES)
    worst_order = min(study[name]["order"] for name in geo.IDENTITY_NAMES)
    ok = worst_res <= 1e-6 and worst_order >= 3.5 and elapsed <= 60.0
    report(
        4, "rank-3 identity suite",
        ok,
        f"worst residual {worst_res:.2e} <= 1e-6 at 64^2, "
        f"worst order {worst_order:.2f} >= 3.5, runtime {elapsed:.1f}s <= 60s",
    )
    for name in geo.IDENTITY_NAMES:
        assert study[name]["max_abs"][0] <= 1e-6, name
        assert study[name]["order"] >= 3.5, name
    assert elapsed <= 60.0


def test_criterion_5_continuity_and_gauge(params, grid4096, grid1024):
    worst_cont = 0.0
    for t in (0.0, 1.0):
        dec = ef.decompose(model.assemble_psi(t, grid4096, params), inertia=params.inertia)
        current = params.inertia * dec.chi2 * dec.on_grid(dec.connection)
        residual = model.nuclear_density_rate(grid4096.x, t, params) + grid4096.derivative(
            current, 1, "fd12"
        )
        worst_cont = max(worst_cont, np.max(np.abs(residual)[dec.mask]))
    assert worst_cont <= 1e-7

    worst_inv, worst_shift = 0.0, 0.0
    for seed in (0, 1):
        state, _ = make_periodic_state(grid1024, seed=seed)
        theta, theta_x = smooth_gauge(grid1024, seed=seed)
        base = ef.decompose(state, method="spectral")
        shifted = ef.decompose(regauged(state, theta), method="spectral")
        worst_shift = max(
            worst_shift, np.max(np.abs(shifted.connection - base.connection - theta_x))
        )
        worst_inv = max(
            worst_inv,
            np.max(np.abs(shifted.metric - base.metric)),
            np.max(np.abs(shifted.c_tensor - base.c_tensor)),
            np.max(np.abs(shifted.d_tensor - base.d_tensor)),
        )
    ok = worst_cont <= 1e-7 and worst_inv <= 1e-8 and worst_shift <= 1e-9
    report(
        5, "continuity and gauge",
        ok,
        f"continuity {worst_cont:.2e} <= 1e-7, invariance {worst_inv:.2e} <= 1e-8, "
        f"connection shift {worst_shift:.2e} <= 1e-9",
    )
    assert worst_inv <= 1e-8
    assert worst_shift <= 1e-9


def test_criterion_6_propagator_cross_check(params, grid4096, convergence_study):
    cfg = propagator.PropagatorConfig(dt=1e-4, t_end=2.0)
    res = propagator.propagate(params, grid4096, cfg, n_samples=5)
    l2 = float(np.max(res.l2_errors))

    order = convergence_study["order"]

    ok = l2 <= 1e-3 and 1.8 <= order <= 2.2 and res.norm_drift <= 1e-12
    report(
        6, "propagator cross-check",
        ok,
        f"L2 {l2:.3e} <= 1e-3, order {order:.3f} in [1.8, 2.2], "
        f"norm drift {res.norm_drift:.2e} <= 1e-12",
    )
    assert l2 <= 1e-3
    assert 1.8 <= order <= 2.2
    assert res.norm_drift <= 1e-12


def test_propagate_workload_matches_benchmark_reference(tmp_path):
    # the benchmark's propagate workload at seed 0 (1000 steps), through the
    # CLI: hold its outputs to the benchmark's reference, read in place
    checks = _bench_checks()
    import workloads

    out = tmp_path / "propagate"
    assert cli.main([*workloads.cli_args("propagate", 0), "--out", str(out)]) == 0
    ref = checks.REFERENCE / "propagate"
    got = json.loads((out / "report.json").read_text())
    reference = json.loads((ref / "report.json").read_text())
    assert checks.json_mismatches(got, reference, checks.REPORT_REL_TOL) == []
    assert checks.csv_mismatches(
        out / "error_series.csv", ref / "error_series.csv", checks.SERIES_ABS_TOL
    ) == []


def test_tensors_workload_matches_benchmark_reference(tmp_path):
    # the benchmark's tensors workload (d = 3, sizes 64 and 72, smooth
    # recipe), through the CLI: hold its report to the benchmark's reference
    checks = _bench_checks()
    import workloads

    out = tmp_path / "tensors"
    assert cli.main([*workloads.cli_args("tensors", 0), "--out", str(out)]) == 0
    got = json.loads((out / "report.json").read_text())
    reference = json.loads((checks.REFERENCE / "tensors" / "report.json").read_text())
    assert checks.json_mismatches(got, reference, checks.REPORT_REL_TOL) == []


def test_criterion_7_figure_reproduction(params, tmp_path):
    out = tmp_path / "figure"
    code = cli.main([
        "emit-figure", "--t-end", str(4.0 * np.pi), "--samples", "201",
        "--out", str(out),
    ])
    assert code == 0
    rows = np.loadtxt(out / "figure.csv", delimiter=",", skiprows=1)
    t, xbar, sigma, t_geo = rows.T

    checks = [abs(xbar[0]) <= 1e-15]
    # xbar(2 pi k) = 1 - 1/(1 + 2 pi k eta), k = 1, 2 (samples 100 and 200)
    for k, idx in ((1, 100), (2, 200)):
        expected = 1.0 - 1.0 / (1.0 + 2.0 * np.pi * k * params.eta)
        checks.append(abs(xbar[idx] - expected) <= 1e-12)
    # sigma(pi/2 + k pi) = 1/(3 sqrt(M)) at samples 25, 75, 125, 175
    for idx in (25, 75, 125, 175):
        checks.append(abs(sigma[idx] - 1.0 / (3.0 * np.sqrt(params.mass))) <= 1e-12)
    positive = bool(np.all(t_geo > 0.0))
    checks.append(positive)

    ok = all(checks)
    report(
        7, "figure reproduction",
        ok,
        f"center/width values exact at special times, min T_geo {t_geo.min():.2e} > 0",
    )
    assert ok


@pytest.mark.parametrize(
    "mutation",
    [
        "flip_t1",
        "flip_t2",
        pytest.param(
            "flip_t3",
            marks=pytest.mark.xfail(
                strict=True,
                reason="the flux term is a total derivative and integrates to"
                " ~1e-15, so flipping its sign moves the residual thirteen"
                " orders below the detection threshold; no implementation can"
                " register this mutation (see the decisions ledger)",
            ),
        ),
        "flip_t4",
        "drop_weight_t1",
    ],
)
def test_criterion_8_mutation_sensitivity(params, grid4096, mutation):
    try:
        rep = identity.verify(
            params, grid4096, t_start=0.0, t_end=10.0, samples=101,
            delta_t=1e-4, rel_tol=1e-3, mutation=mutation,
        )
        detected = False
        residual = rep.rel_residual(rep.winner)
    except identity.VerificationFailure as err:
        detected = True
        residual = err.report.rel_residual(err.report.winner)
    report(
        8, f"mutation sensitivity [{mutation}]",
        detected,
        f"mutated residual {residual:.3e}" + ("" if detected else " (undetected)"),
    )
    assert detected and residual > 1e-3
