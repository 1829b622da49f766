import json
import math
import types
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from efgeo import ef, identity, model
from efgeo.errors import ConfigError, VerificationFailure
from efgeo.grid import _D1_COEFFS, Grid1D, five_point

# independent oracle: closed-form metric integrated against the gaussian
# density with a 2^18-point rectangle rule
T_GEO_AT_ZERO = 1.6715843808924357e-10


def _rate(params, grid, t, delta_t):
    """dT_geo/dt at one time t: the 5-point rate over the energy at
    t - 2 delta_t, t - delta_t, t + delta_t and t + 2 delta_t."""
    vals = identity.t_geo_series(params, grid, [t - 2 * delta_t, t - delta_t, t + delta_t, t + 2 * delta_t])
    return float(five_point(*vals, delta_t))


class TestGeometricEnergySeries:
    def test_regression_against_fine_quadrature(self, params, grid4096):
        value = identity.t_geo_series(params, grid4096, [0.0])[0]
        assert value == pytest.approx(T_GEO_AT_ZERO, rel=5e-8)

    def test_positive_along_trajectory(self, params, grid4096):
        series = identity.t_geo_series(params, grid4096, np.linspace(0.0, 10.0, 21))
        assert np.all(series > 0.0)


class TestLhsRate:
    @pytest.mark.parametrize("t", [0.5, 1.5])
    def test_step_size_self_consistency(self, params, grid4096, t):
        coarse = _rate(params, grid4096, t, 1e-3)
        fine = _rate(params, grid4096, t, 1e-4)
        assert abs(coarse - fine) <= 1e-8 * max(1.0, abs(fine))


class TestRhsTerms:
    @pytest.mark.parametrize("t", [0.3, 2.1])
    def test_flux_term_is_negligible(self, params, grid4096, t):
        t1, t2, t3, t4 = identity.rhs_terms(params, grid4096, t)["B"][:, 0]
        assert abs(t3) <= 1e-10

    def test_reading_b_matches_rate(self, params, grid4096):
        t = 1.6
        lhs = _rate(params, grid4096, t, 1e-4)
        terms = identity.rhs_terms(params, grid4096, [t])
        total_a, total_b = terms["A"][:, 0].sum(), terms["B"][:, 0].sum()
        assert abs(lhs - total_b) <= 1e-9 * max(1.0, abs(lhs))
        assert abs(lhs - total_a) > 1e3 * abs(lhs - total_b)

    def test_unknown_mutation(self, params, grid4096):
        with pytest.raises(ConfigError):
            identity.rhs_terms(params, grid4096, 0.5, mutation="flip_t9")

    @pytest.mark.parametrize("t", [0.4, 1.0, 3.0])
    def test_general_form_agrees_with_model_form(self, params, grid4096, t):
        t1, t2, t3, t4 = identity.rhs_terms(params, grid4096, t)["B"][:, 0]
        gen = identity.rhs_general(params, grid4096, t)
        scale = max(1.0, abs(gen.force), abs(gen.transport))
        assert gen.curvature == 0.0
        assert abs(gen.force - (t1 + t2)) <= 1e-12 * scale
        assert abs(gen.transport - t4) <= 1e-12 * scale


def _old_rhs_terms(params, grid, t, reading, mutation):
    """rhs_terms as it was when each call evaluated one reading: every
    derivative taken again per reading, and arrays of ones as the unit weight."""
    dec = ef.decompose(model.assemble_psi(t, grid, params), inertia=params.inertia, method="fd12")
    dphi1, dphi2, A, metric, c_tensor = (
        dec.on_grid(f) for f in (dec.dphi1, dec.dphi2, dec.connection, dec.metric, dec.c_tensor)
    )
    ham = model.hamiltonian_entries(t, grid, params)
    dh0 = grid.derivative(ham.h0, 1, "fd12")
    dh1 = grid.derivative(ham.h1, 1, "fd12")
    dh3 = grid.derivative(ham.h3, 1, "fd12")
    up, dn = dh0 + dh3, dh0 - dh3
    sand_dphi = (
        np.conj(dec.phi1) * (up * dphi1 + dh1 * dphi2)
        + np.conj(dec.phi2) * (dh1 * dphi1 + dn * dphi2)
    )
    sand_pop = (
        up * np.abs(dec.phi1) ** 2
        + dn * np.abs(dec.phi2) ** 2
        + 2.0 * dh1 * np.real(np.conj(dec.phi1) * dec.phi2)
    )
    w1 = dec.chi2 if mutation != "drop_weight_t1" else np.ones_like(dec.chi2)
    w24 = dec.chi2 if reading == "B" else np.ones_like(dec.chi2)
    I = params.inertia

    def integral(values):
        return grid.dx * float(np.sum(values[dec.mask]))

    t1 = -I * integral(np.imag(sand_dphi) * w1)
    t2 = I * integral(A * sand_pop * w24)
    t3 = -0.5 * I * I * integral(grid.derivative(c_tensor * dec.chi2, 1, "fd12"))
    dA = grid.derivative(A, 1, "fd12")
    t4 = -I * I * integral(metric * dA * w24)
    signs = {"flip_t1": (-1, 1, 1, 1), "flip_t2": (1, -1, 1, 1),
             "flip_t3": (1, 1, -1, 1), "flip_t4": (1, 1, 1, -1)}
    s = signs.get(mutation, (1, 1, 1, 1))
    return (s[0] * t1, s[1] * t2, s[2] * t3, s[3] * t4)


def _count_calls(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call; returns the record."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestOnePass:
    @pytest.mark.parametrize("mutation", [None, *identity.MUTATIONS])
    def test_readings_keep_the_per_reading_bits(self, params, grid4096, mutation):
        times = [0.7, 1.3]
        terms = identity.rhs_terms(params, grid4096, times, mutation)
        for reading in ("A", "B"):
            assert terms[reading].shape == (4, len(times))
            for column, t in zip(terms[reading].T, times):
                old = _old_rhs_terms(params, grid4096, t, reading, mutation)
                assert np.array_equal(column, old), (reading, t)

    def test_verify_evaluates_each_sample_once(self, params, grid1024, monkeypatch):
        derivative = _count_calls(monkeypatch, Grid1D, "derivative")
        diff = _count_calls(monkeypatch, ef.EFDecomposition, "diff")
        rhs = _count_calls(monkeypatch, identity, "rhs_terms")
        k = 3
        report = identity.verify(params, grid1024, 0.0, 0.5, samples=k, delta_t=4e-4, rel_tol=1.0)
        # per sample: 4 decompositions for the rate, which read only the
        # metric (2 derivatives each), 1 whose rank-3 bracket is also read,
        # then the potential gradient (3); every window lies inside the
        # grid, so the bracket (2), the flux and dA/dx differentiate window
        # fields with diff, which calls no grid.derivative there
        assert len(derivative) == 13 * k
        assert len(diff) == 4 * k
        # one right-side series covers every sample
        assert len(rhs) == 1
        assert np.array_equal(rhs[0][2], report.times)

    def test_verify_rate_is_the_five_point_rate_of_each_sample(self, params, grid1024):
        report = identity.verify(params, grid1024, 0.0, 0.5, samples=4, delta_t=4e-4, rel_tol=1.0)
        expected = [_rate(params, grid1024, t, 4e-4) for t in report.times]
        assert np.array_equal(report.lhs, expected)

    @pytest.mark.parametrize("k", [3, 6])
    def test_verify_checks_the_grid_once_per_series(self, params, grid1024, monkeypatch, k):
        # verify's own check over every stencil time, then one each in
        # t_geo_series and rhs_terms
        checks = _count_calls(monkeypatch, model, "check_grid")
        identity.verify(params, grid1024, 0.0, 0.5, samples=k, delta_t=4e-4, rel_tol=1.0)
        assert len(checks) == 3

    def test_t_geo_series_differentiates_only_to_decompose(self, params, grid1024, monkeypatch):
        derivative = _count_calls(monkeypatch, Grid1D, "derivative")
        energies = _count_calls(monkeypatch, ef, "energies")
        ef.decompose(model.assemble_psi(0.3, grid1024, params), inertia=params.inertia)
        per_decomposition = len(derivative)
        times = [0.1, 0.2, 0.3]
        identity.t_geo_series(params, grid1024, times)
        assert len(derivative) == (1 + len(times)) * per_decomposition
        assert energies == []


def _whole_grid_extent(t, grid, params, method):
    return slice(0, grid.n)


class TestPacketExtent:
    @settings(max_examples=40, deadline=None)
    @given(eta=st.floats(0.01, 0.45), log_mass=st.floats(-0.5, 2.5), log_gamma=st.floats(0.0, 1.5),
           t=st.floats(0.0, 10.0), resolution=st.one_of(st.just(1.0), st.floats(1.0, 3.0)))
    def test_extent_keeps_the_whole_grid_bits(self, eta, log_mass, log_gamma, t, resolution):
        params = model.ModelParams(eta=eta, mass=10.0 ** log_mass, gamma=10.0 ** log_gamma)
        # `resolution` times the coarsest grid that check_grid accepts, most
        # often set by MIN_POINTS_PER_WIDTH across the narrowest width
        x_min, x_max = -8.0, 10.0
        narrowest = 1.0 / (3.0 * math.sqrt(params.mass))
        steepness = params.gamma * (1.0 + params.eta * t)
        coarsest = max(model.MIN_POINTS_PER_WIDTH / narrowest,
                       model.MIN_POINTS_ACROSS_FRONT * steepness) * (x_max - x_min)
        grid = Grid1D(x_min, x_max, max(16, math.ceil(resolution * coarsest)))
        # the whole-grid build first: where it refuses, so must the extent's
        try:
            with mock.patch.object(model, "packet_extent", _whole_grid_extent):
                ref = identity._decompose_at(params, grid, t)
                whole_terms = identity.rhs_terms(params, grid, [t])
                whole_balance = identity.pointwise_check(params, grid, t)
        except ConfigError:  # the domain, the state's norm or the entries refused
            assume(False)

        extent = model.packet_extent(t, grid, params, identity.METHOD)
        dec = identity._decompose_at(params, grid, t)
        # the state and its density are exact on the extent and zero off it
        for name in ("psi1", "psi2", "chi2"):
            built, whole = getattr(dec, name), getattr(ref, name)
            assert np.array_equal(built[extent], whole[extent]), name
            assert not built[:extent.start].any() and not built[extent.stop:].any(), name
        for name in ("mask", "phi1", "phi2", "dphi1", "dphi2", "cov1", "cov2",
                     "connection", "metric", "bracket"):
            assert np.array_equal(getattr(dec, name), getattr(ref, name)), name
        assert dec.window == ref.window
        assert ef.geometric_energy(dec) == ef.geometric_energy(ref)
        # every read of the state, the window and a half-width on either side, lies in the extent
        if extent != slice(0, grid.n):
            halo = len(_D1_COEFFS[identity.METHOD][0])
            assert extent.start <= dec.window.start - halo
            assert dec.window.stop + halo <= extent.stop
        terms = identity.rhs_terms(params, grid, [t])
        for reading in ("A", "B"):
            assert np.array_equal(terms[reading], whole_terms[reading])
        assert identity.pointwise_check(params, grid, t) == whole_balance


class TestPointwiseBalance:
    def test_model_residual_small(self, params, grid4096):
        rep = identity.pointwise_check(params, grid4096, 0.5)
        assert rep.rel_residual <= 1e-4

    def test_refinement_reduces_residual(self, params):
        coarse = identity.pointwise_check(params, Grid1D(-4.0, 6.0, 1024), 0.5, delta_t=2e-2)
        fine = identity.pointwise_check(params, Grid1D(-4.0, 6.0, 2048), 0.5, delta_t=5e-3)
        assert coarse.rel_residual / fine.rel_residual >= 8.0

    # verify refuses the same values through check_settings
    @pytest.mark.parametrize("delta_t", [0.0, float("nan")])
    def test_unusable_delta_t_refused_before_any_division(self, params, grid1024, delta_t):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ConfigError, match="delta_t must be positive"):
                identity.pointwise_check(params, grid1024, 0.5, delta_t=delta_t)


class TestVerify:
    def test_short_range_passes_with_reading_b(self, params):
        grid = Grid1D(-4.0, 6.0, 2048)
        report = identity.verify(params, grid, 0.0, 1.0, samples=6, delta_t=2e-4)
        assert report.passed
        assert report.winner == "B"
        assert report.rel_residual("A") > report.rel_residual("B")

    def test_single_point_range_rejected(self, params, grid4096):
        with pytest.raises(ConfigError):
            identity.verify(params, grid4096, 1.0, 1.0, samples=1)

    def test_fractional_samples_refused(self, params, grid4096):
        with pytest.raises(ConfigError, match=r"^samples = 2.5 is not an integer$"):
            identity.verify(params, grid4096, samples=2.5)

    # delta_t = 0.2: the stencil around t_start = 0 reaches t = -0.4, past the
    # model's edge at -1/3
    @pytest.mark.parametrize("bad", [{"delta_t": 0.0}, {"rel_tol": 0.0},
                                     {"delta_t": 0.2}, {"mutation": "flip_t9"}])
    def test_unusable_settings_rejected(self, params, grid4096, bad):
        with pytest.raises(ConfigError):
            identity.verify(params, grid4096, **bad)

    @pytest.mark.parametrize("t_end", [1.0, 10.0, 100.0])
    def test_delta_t_floor_is_a_number_of_spacings_of_the_largest_time(self, t_end):
        # the largest stencil time, t_end + 2 delta_t, has the spacing of t_end
        floor = identity.MIN_DELTA_T_SPACINGS * float(np.spacing(t_end))
        identity.check_settings(0.0, t_end, floor, 1e-3, None)
        below = float(np.nextafter(floor, 0.0))
        with pytest.raises(ConfigError, match=rf"delta_t = {below!r} is too small at t = "
                                              rf"{t_end:.6g}: .* {floor:.3g}, or it is roundoff"):
            identity.check_settings(0.0, t_end, below, 1e-3, None)

    def test_default_delta_t_accepted_wherever_the_default_model_is(self, params):
        # the default delta_t is refused first at t_end just below 2^24, where
        # the front rule on the default domain needs more than 2^29 points
        identity.check_settings(0.0, 2.0 ** 24 - 1.0, 1e-4, 1e-3, None)
        t_end = 2.0 ** 24 - 1e-4
        with pytest.raises(ConfigError, match="too small"):
            identity.check_settings(0.0, t_end, 1e-4, 1e-3, None)
        n = 2 ** 29
        grid = types.SimpleNamespace(x_min=-4.0, x_max=6.0, n=n, dx=10.0 / n)
        with pytest.raises(ConfigError, match="points across the front"):
            model.check_grid(params, grid, [t_end])

    def test_domain_missing_the_packet_refused_before_any_state(self, params, monkeypatch):
        built = []
        monkeypatch.setattr(model, "assemble_psi", lambda *args: built.append(args))
        with pytest.raises(ConfigError, match="misses the packet"):
            identity.verify(params, Grid1D(5.0, 6.0, 4096), t_end=0.01, samples=2)
        assert built == []

    @pytest.mark.parametrize("entry", [
        lambda p, g: identity.t_geo_series(p, g, [0.5, 0.51]),
        lambda p, g: identity.rhs_terms(p, g, [0.5, 0.51]),
        lambda p, g: identity.rhs_general(p, g, 0.5),
        lambda p, g: identity.pointwise_check(p, g, 0.5),
    ], ids=["t_geo_series", "rhs_terms", "rhs_general", "pointwise_check"])
    def test_entry_point_refuses_a_domain_missing_the_packet_before_any_state(
        self, params, monkeypatch, entry
    ):
        built = []
        monkeypatch.setattr(model, "assemble_psi", lambda *args: built.append(args))
        with pytest.raises(ConfigError, match="misses the packet"):
            entry(params, Grid1D(5.0, 6.0, 4096))
        assert built == []

    # each builds a state at t = -0.5, or (delta_t = 0.2 around t = 0) at
    # t = -0.4, past the model's edge at -1/3 where 1 + 3t vanishes
    @pytest.mark.parametrize("entry", [
        lambda p, g: identity.t_geo_series(p, g, [-0.5]),
        lambda p, g: identity.rhs_terms(p, g, -0.5),
        lambda p, g: identity.rhs_general(p, g, -0.5),
        lambda p, g: identity.pointwise_check(p, g, 0.0, delta_t=0.2),
    ], ids=["t_geo_series", "rhs_terms", "rhs_general", "pointwise_check"])
    def test_entry_point_refuses_a_time_past_the_model_edge_before_any_state(
        self, params, grid4096, monkeypatch, entry
    ):
        built = []
        monkeypatch.setattr(model, "assemble_psi", lambda *args: built.append(args))
        with pytest.raises(ConfigError, match="model's edge"):
            entry(params, grid4096)
        assert built == []

    def test_no_times_refused_as_no_times(self, params, grid1024):
        with pytest.raises(ConfigError, match="no times"):
            identity.t_geo_series(params, grid1024, [])

    def test_sign_flip_mutation_fails(self, params):
        grid = Grid1D(-4.0, 6.0, 2048)
        with pytest.raises(VerificationFailure) as err:
            identity.verify(params, grid, 0.0, 1.0, samples=4, delta_t=2e-4, mutation="flip_t2")
        assert err.value.report is not None
        assert not err.value.report.passed

    def test_wrong_reading_plateaus_under_refinement(self, params):
        # the adjudication signature: the consistent reading converges while
        # the unweighted one stalls at a finite offset
        rels = {}
        for n in (1024, 2048):
            grid = Grid1D(-4.0, 6.0, n)
            rep = identity.verify(params, grid, 0.0, 2.0, samples=5,
                                  delta_t=2e-4, rel_tol=1.0)
            rels[n] = (rep.rel_residual("A"), rep.rel_residual("B"))
        assert rels[1024][1] / rels[2048][1] >= 10.0
        assert 0.5 <= rels[1024][0] / rels[2048][0] <= 2.0

    def test_report_round_trip(self, params):
        # the report dict survives JSON unchanged; the CLI writes it as is
        grid = Grid1D(-4.0, 6.0, 1024)
        report = identity.verify(params, grid, 0.0, 0.5, samples=5, delta_t=4e-4, rel_tol=1e-2)
        data = json.loads(json.dumps(report.to_dict()))
        assert data == report.to_dict()
        assert data["winner"] == "B"
        assert data["passed"] is True
        assert data["residual_b"] == np.abs(report.lhs - report.rhs_b).tolist()


class TestTrivialFamily:
    def test_static_single_surface_balance_is_zero(self, grid1024):
        # static gaussian with a position-independent spinor under zero
        # potential: every term of the pointwise balance vanishes
        grid = grid1024
        chi = np.exp(-((grid.x - 0.5) ** 2) / (2.0 * 0.49))
        chi = chi / np.sqrt(grid.integrate(chi ** 2))
        psi = ef.TwoComponentWavefunction(
            grid=grid, psi1=(0.8 * chi).astype(complex), psi2=(0.6 * chi).astype(complex)
        )
        dec = ef.decompose(psi, inertia=0.1)
        m = dec.mask
        assert np.max(np.abs(dec.metric[m])) <= 1e-13
        assert np.max(np.abs(dec.c_tensor[m])) <= 1e-13
        assert abs(ef.energies(dec).geometric) <= 1e-15
