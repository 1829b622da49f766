import math

import numpy as np
import pytest

from efgeo import ef, model
from efgeo.errors import ConfigError
from efgeo.grid import _D1_COEFFS, Grid1D, five_point
from efgeo.model import ModelParams


class TestModelParams:
    def test_defaults(self, params):
        assert params.eta == 0.1
        assert params.mass == 10.0
        assert params.gamma == 40.0
        assert params.inertia == pytest.approx(0.1)

    @pytest.mark.parametrize("eta", [0.0, 0.5, 0.7, -0.1])
    def test_eta_bounds(self, eta):
        with pytest.raises(ConfigError):
            ModelParams(eta=eta)

    def test_positive_constants(self):
        with pytest.raises(ConfigError):
            ModelParams(mass=0.0)
        with pytest.raises(ConfigError):
            ModelParams(gamma=-1.0)
        with pytest.raises(ConfigError):
            ModelParams(inertia=0.0)

    def test_inertia_override(self):
        assert ModelParams(inertia=0.25).inertia == 0.25



class TestPacketFunctions:
    def test_mean_position_at_zero(self, params):
        assert model.mean_position(0.0, params) == 0.0

    def test_mean_position_quarter_period(self, params):
        assert model.mean_position(np.pi / 2, params) == pytest.approx(1.0, abs=1e-15)

    def test_mean_position_full_period(self, params):
        # 1 - 1/(1 + 0.2 pi), by direct arithmetic
        assert model.mean_position(2.0 * np.pi, params) == pytest.approx(
            0.38586954509503757, abs=1e-14
        )

    def test_width_values(self, params):
        assert model.width(np.pi / 2, params) == pytest.approx(0.10540925533894598, abs=1e-15)
        assert model.width(0.0, params) == pytest.approx(0.21081851067789195, abs=1e-15)
        assert model.width(np.pi, params) == pytest.approx(0.24393380489721228, abs=1e-15)

    def test_rates_match_numerical_differentiation(self, params):
        ts = np.array([0.3, 1.7, 6.2])
        dt = 1e-6
        for fn, rate in [(model.mean_position, model.mean_position_rate),
                         (model.width, model.width_rate)]:
            fd = (fn(ts + dt, params) - fn(ts - dt, params)) / (2.0 * dt)
            assert np.max(np.abs(fd - rate(ts, params))) <= 1e-8


class TestDensity:
    def test_normalization(self, params, grid4096):
        for t in (0.0, 1.0, 5.0):
            rho = model.nuclear_density(grid4096.x, t, params)
            assert grid4096.integrate(rho) == pytest.approx(1.0, abs=1e-12)

    def test_peak_value(self, params):
        t = 0.7
        peak = 1.0 / (np.sqrt(np.pi) * model.width(t, params))
        assert model.nuclear_density(model.mean_position(t, params), t, params) == pytest.approx(peak)

    def test_one_sigma_point(self, params):
        t = 0.7
        x = model.mean_position(t, params) + model.width(t, params)
        peak = 1.0 / (np.sqrt(np.pi) * model.width(t, params))
        assert model.nuclear_density(x, t, params) == pytest.approx(peak / np.e)

    def test_density_rate_matches_finite_difference(self, params, grid1024):
        t, dt = 0.9, 1e-6
        fd = (model.nuclear_density(grid1024.x, t + dt, params)
              - model.nuclear_density(grid1024.x, t - dt, params)) / (2.0 * dt)
        assert np.max(np.abs(fd - model.nuclear_density_rate(grid1024.x, t, params))) <= 1e-7


class TestVectorPotential:
    def test_initial_peak_value(self, params):
        # xbar'(0) = eta, so A = eta / inertia = 1 exactly at the center
        assert model.vector_potential(0.0, 0.0, params) == pytest.approx(1.0, abs=1e-14)

    def test_center_value_any_time(self, params):
        for t in (0.4, 2.2, 7.7):
            xb = model.mean_position(t, params)
            expected = model.mean_position_rate(t, params) / params.inertia
            assert model.vector_potential(xb, t, params) == pytest.approx(expected, abs=1e-12)

    def test_stationary_density_gives_zero(self):
        u = np.linspace(-3.0, 3.0, 11)
        assert np.all(model._potential_from_rates(u, 0.0, 0.0, 0.1) == 0.0)

    def test_closed_form_matches_quadrature_definition(self, params, grid4096):
        # A = -(1/(inertia |chi|^2)) int^x d_t |chi|^2, integrated spectrally
        for t in (0.0, 1.3):
            rho = model.nuclear_density(grid4096.x, t, params)
            rate = model.nuclear_density_rate(grid4096.x, t, params)
            F = grid4096.cumulative_integral(rate)
            visible = rho > 1e-6 * rho.max()
            quad = -F[visible] / (params.inertia * rho[visible])
            closed = model.vector_potential(grid4096.x[visible], t, params)
            assert np.max(np.abs(quad - closed)) <= 1e-8


class TestBlochFields:
    def test_front_midpoint_values(self, params, grid4096):
        # x = 1 is a grid point; the sigmoid exponent vanishes there at t = 0
        b = model._Fields(0.0, grid4096, params)
        i = np.argmin(np.abs(grid4096.x - 1.0))
        assert grid4096.x[i] == pytest.approx(1.0, abs=1e-12)
        assert b.w[i] == pytest.approx(0.5, abs=1e-12)
        assert b.phi[i] == pytest.approx(-0.5, abs=1e-12)

    def test_saturation_limits(self, params, grid4096):
        b = model._Fields(0.0, grid4096, params)
        assert abs(b.w[-1] - params.eta) <= 1e-12
        assert abs(b.w[0] - (1.0 - params.eta)) <= 1e-12
        assert abs(b.phi[-1] + params.eta) <= 1e-12

    def test_alpha_reference_and_gradient(self, params, grid4096):
        t = 0.8
        f = model._Fields(t, grid4096, params)
        assert f.alpha[0] == pytest.approx(0.0, abs=1e-12)
        num = grid4096.derivative(f.alpha, 1, "fd12")
        interior = slice(16, grid4096.n - 16)
        assert np.max(np.abs(num - f.alpha_x)[interior]) <= 1e-8

    def test_chi_abs_positive_on_retained_domain(self, params, grid4096):
        b = model._Fields(0.0, grid4096, params)
        retained = b.chi_abs ** 2 > 1e-13 * np.max(b.chi_abs ** 2)
        assert np.all(b.chi_abs[retained] > 0.0)


def _count_cumulative_integrals(monkeypatch):
    calls = []
    original = Grid1D.cumulative_integral

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Grid1D, "cumulative_integral", counted)
    return calls


# fields that only the Hamiltonian entries (and the tests) read
HAMILTONIAN_ONLY = (
    "w_x", "w_xx", "phi_xx", "s_t", "w_t", "phi_t", "phi_xt", "lnchi_x",
    "lnchi_xx", "vector_potential", "alpha_x", "alpha_t", "alpha_xx",
)


class TestLazyFields:
    def test_hamiltonian_entries_integrate_once(self, params, grid4096, monkeypatch):
        calls = _count_cumulative_integrals(monkeypatch)
        model.hamiltonian_entries(0.8, grid4096, params)
        assert len(calls) == 1  # alpha_t; the phase alpha is never built

    def test_assemble_psi_integrates_once(self, params, grid4096, monkeypatch):
        calls = _count_cumulative_integrals(monkeypatch)
        model.assemble_psi(0.8, grid4096, params)
        assert len(calls) == 1  # alpha; its rate alpha_t is never built

    @pytest.mark.parametrize("t", [0.0, 0.8])
    def test_lazy_fields_keep_the_eager_bits(self, params, grid4096, t):
        f = model._Fields(t, grid4096, params)
        x = grid4096.x
        # reference: every field in one eager pass, in the operation order
        # the lazy fields must keep
        eta, gamma, inertia = params.eta, params.gamma, params.inertia
        amp, gp, p, q, r, s = f.amp, f.gp, f.p, f.q, f.r, f.s
        chi2 = np.exp(-f.u ** 2) / (np.sqrt(np.pi) * f.sigma)
        xi_t = gamma * eta * (x - 1.0)
        r_t = r * (1.0 - r) * (1.0 / p - xi_t)
        s_t = s * (1.0 - s) * (3.0 / q - xi_t)
        vector_potential = model._potential_from_rates(f.u, f.xbar_rate, f.sigma_rate, inertia)
        w_x = -amp * gp * r * (1.0 - r)
        phi_xx = -amp * gp ** 2 * s * (1.0 - s) * (1.0 - 2.0 * s)
        w_t = amp * r_t
        phi_xt = amp * (gamma * eta * s * (1.0 - s) + gp * (1.0 - 2.0 * s) * s_t)
        eager = {
            "chi2": chi2,
            "chi_abs": np.sqrt(chi2),
            "alpha": f._drift_phase(x) + grid4096.cumulative_integral(f.w * f.phi_x),
            "alpha_t": f._drift_phase_rate(x) + grid4096.cumulative_integral(
                w_t * f.phi_x + f.w * phi_xt
            ),
            "alpha_xx": 2.0 * f.vector_potential_x + w_x * f.phi_x + f.w * phi_xx,
            "w_x": w_x,
            "w_xx": amp * gp ** 2 * r * (1.0 - r) * (1.0 - 2.0 * r),
            "phi_xx": phi_xx,
            "s_t": s_t,
            "w_t": w_t,
            "phi_t": -amp * s_t,
            "phi_xt": phi_xt,
            "lnchi_x": -f.u / f.sigma,
            "lnchi_xx": np.full(grid4096.n, -1.0 / f.sigma ** 2),
            "vector_potential": vector_potential,
            "alpha_x": 2.0 * vector_potential + f.w * f.phi_x,
        }
        assert set(eager).isdisjoint(vars(f))
        for name, value in eager.items():
            lazy = getattr(f, name)
            assert np.array_equal(lazy, value), name
            assert getattr(f, name) is lazy, name

    def test_assemble_psi_builds_no_hamiltonian_field(self, params, grid4096, monkeypatch):
        made = []

        class Recorded(model._Fields):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(model, "_Fields", Recorded)
        model.assemble_psi(0.8, grid4096, params)
        (f,) = made
        built = vars(f).keys()
        assert {"alpha", "chi_abs"} <= built
        assert built.isdisjoint(HAMILTONIAN_ONLY), sorted(built & set(HAMILTONIAN_ONLY))


class TestHamiltonianEntries:
    @pytest.mark.parametrize("t", [0.0, 0.8])
    def test_equation_lines_close(self, params, grid4096, t):
        # all four defining lines, with time derivatives of the closed-form
        # fields as the independent oracle
        dt = 1e-5
        f = model._Fields(t, grid4096, params)
        h = model.hamiltonian_entries(t, grid4096, params)
        I = params.inertia
        sin_th = np.sqrt(1.0 - f.w ** 2)
        theta_x = -f.w_x / sin_th
        theta_xx = -f.w_xx / sin_th - f.w * f.w_x ** 2 / (1.0 - f.w ** 2) ** 1.5
        cos_phi, sin_phi = np.cos(f.phi), np.sin(f.phi)

        def fd(attr):
            vals = [getattr(model._Fields(t + j * dt, grid4096, params), attr)
                    for j in (-2, -1, 1, 2)]
            return (vals[0] - 8.0 * vals[1] + 8.0 * vals[2] - vals[3]) / (12.0 * dt)

        w_t, phi_t, alpha_t = fd("w"), fd("phi"), fd("alpha")
        theta_t = -w_t / sin_th
        supported = f.chi2 > 1e-40 * f.chi2.max()  # ln|chi| evaluable here
        lnchi_t = np.zeros(grid4096.n)
        lnchi_t[supported] = fd("chi_abs")[supported] / f.chi_abs[supported]

        line1 = (
            -0.5 * I * f.lnchi_x * (f.alpha_x - f.w * f.phi_x)
            - 0.25 * I * (f.alpha_xx - f.w * f.phi_xx)
            - 0.25 * I * sin_th * theta_x * f.phi_x
        )
        assert np.max(np.abs(lnchi_t - line1)[supported]) <= 1e-6

        line2 = (
            -2.0 * h.h1 * sin_phi
            - I * sin_th * f.lnchi_x * f.phi_x
            - 0.5 * I * sin_th * f.phi_xx
            - 0.5 * I * theta_x * (f.alpha_x + f.w * f.phi_x)
        )
        assert np.max(np.abs(theta_t - line2)) <= 1e-6

        line3 = (
            2.0 * (-h.h1 * f.w * cos_phi + h.h3 * sin_th)
            + I * f.lnchi_x * theta_x
            - 0.5 * I * sin_th * f.alpha_x * f.phi_x
            + 0.5 * I * theta_xx
        )
        assert np.max(np.abs(sin_th * phi_t - line3)) <= 1e-6

        line4 = (
            -2.0 * (h.h0 + h.h1 * sin_th * cos_phi + h.h3 * f.w)
            + I * f.lnchi_xx
            + I * f.lnchi_x ** 2
            - 0.25 * I * (f.alpha_x ** 2 + f.phi_x ** 2 - 2.0 * f.w * f.alpha_x * f.phi_x)
            - 0.25 * I * theta_x ** 2
        )
        assert np.max(np.abs(alpha_t - f.w * phi_t - line4)) <= 1e-6

    def test_analytic_and_fd_time_derivatives_agree(self, params, grid4096, monkeypatch):
        # the entries built from five-point rates of the Bloch fields, swapped
        # in for the closed-form rates, match the closed-form entries
        t, delta_t = 1.1, 1e-5
        analytic = model.hamiltonian_entries(t, grid4096, params)
        states = [model._Fields(t + j * delta_t, grid4096, params) for j in (-2, -1, 1, 2)]
        for name in ("w", "phi", "alpha"):
            rate = five_point(*(getattr(s, name) for s in states), delta_t)
            monkeypatch.setattr(model._Fields, name + "_t", rate)
        fd = model.hamiltonian_entries(t, grid4096, params)
        for a, b in ((analytic.h0, fd.h0), (analytic.h1, fd.h1), (analytic.h3, fd.h3)):
            assert np.max(np.abs(a - b)) <= 1e-8

    def test_entries_are_real(self, params, grid4096):
        h = model.hamiltonian_entries(0.5, grid4096, params)
        for field in (h.h0, h.h1, h.h3):
            assert np.isrealobj(field)
            assert np.all(np.isfinite(field))

    def test_singular_gauge_detected(self, grid1024):
        # with eta this small, |sin(phi)| falls below the guard near x -> +inf
        nearly_singular = ModelParams(eta=1e-7)
        with pytest.raises(ConfigError, match=r"sin\(phi\) or sin\(theta\) below 1e-6"):
            model.hamiltonian_entries(0.0, grid1024, nearly_singular)


class TestAssemblePsi:
    def test_normalized(self, params, grid4096):
        for t in (0.0, 2.3):
            psi = model.assemble_psi(t, grid4096, params)
            assert abs(psi.norm() - 1.0) <= 1e-12

    def test_density_equals_gaussian(self, params, grid4096):
        t = 1.4
        psi = model.assemble_psi(t, grid4096, params)
        rho = model.nuclear_density(grid4096.x, t, params)
        assert np.max(np.abs(psi.density - rho)) <= 1e-14 * rho.max()

    def test_population_difference_recovers_w(self, params, grid4096):
        t = 0.6
        psi = model.assemble_psi(t, grid4096, params)
        rho = psi.density
        b = model._Fields(t, grid4096, params)
        vis = rho > 1e-30 * rho.max()
        wrec = (np.abs(psi.psi1[vis]) ** 2 - np.abs(psi.psi2[vis]) ** 2) / rho[vis]
        assert np.max(np.abs(wrec - b.w[vis])) <= 1e-12


    def test_window_keeps_the_whole_grid_bits_and_zeros_off_it(self, params, grid4096):
        t, win = 1.4, slice(1000, 3000)  # the packet sits near x = 0.85, index 1987
        whole = model.assemble_psi(t, grid4096, params)
        part = model.assemble_psi(t, grid4096, params, win)
        for built, ref in ((part.psi1, whole.psi1), (part.psi2, whole.psi2)):
            assert np.array_equal(built[win], ref[win])
            assert not built[:win.start].any() and not built[win.stop:].any()


class TestPacketExtent:
    # default model at t = 0: centre 0 and width 0.2108, so the support level
    # sqrt(ln 1e17) widths lies 1.3192 from the centre.  With dx = 0.01 the
    # extent reaches 19 points (3 fd12 half-widths and one) beyond it.
    @pytest.mark.parametrize("x_min, inside", [(-1.504, True), (-1.494, False)])
    def test_extent_at_the_left_edge(self, params, x_min, inside):
        grid = Grid1D(x_min, x_min + 10.24, 1024)
        extent = model.packet_extent(0.0, grid, params, "fd12")
        # the level sits 18.48 and 17.48 points from the first point
        assert extent.start == 0 if inside else extent == slice(0, grid.n)

    @pytest.mark.parametrize("x_max, inside", [(1.514, True), (1.504, False)])
    def test_extent_at_the_right_edge(self, params, x_max, inside):
        grid = Grid1D(x_max - 10.24, x_max, 1024)
        extent = model.packet_extent(0.0, grid, params, "fd12")
        # the last point at or inside the level is 1004 and 1005
        assert extent.stop == grid.n if inside else extent == slice(0, grid.n)

    def test_extent_holds_the_window_and_its_halo(self, params):
        grid = Grid1D(-1.504, 8.736, 1024)
        extent = model.packet_extent(0.0, grid, params, "fd12")
        window = ef.decompose(model.assemble_psi(0.0, grid, params)).window
        halo = len(_D1_COEFFS["fd12"][0])
        assert extent.start <= window.start - halo and window.stop + halo <= extent.stop

    @pytest.mark.parametrize("method", ["fd99", "spectral"])
    def test_unknown_method_refused(self, params, grid1024, method):
        with pytest.raises(ConfigError, match=f"^unknown method '{method}'; known methods: fd4, fd12$"):
            model.packet_extent(0.0, grid1024, params, method)


class TestContinuity:
    @pytest.mark.parametrize("t", [0.0, 1.0, 3.7])
    def test_density_rate_plus_current_divergence(self, params, grid4096, t):
        f = model._Fields(t, grid4096, params)
        J = params.inertia * f.chi2 * f.vector_potential
        residual = model.nuclear_density_rate(grid4096.x, t, params) + grid4096.derivative(
            J, 1, "spectral"
        )
        assert np.max(np.abs(residual)) <= 1e-7

    def test_with_finite_difference_density_rate(self, params, grid4096):
        t, dt = 0.5, 1e-5
        rate = (
            model.nuclear_density(grid4096.x, t - 2 * dt, params)
            - 8.0 * model.nuclear_density(grid4096.x, t - dt, params)
            + 8.0 * model.nuclear_density(grid4096.x, t + dt, params)
            - model.nuclear_density(grid4096.x, t + 2 * dt, params)
        ) / (12.0 * dt)
        f = model._Fields(t, grid4096, params)
        J = params.inertia * f.chi2 * f.vector_potential
        residual = rate + grid4096.derivative(J, 1, "spectral")
        assert np.max(np.abs(residual)) <= 1e-7


class TestCheckGrid:
    # NaN compares false with the model's edge: the refusal names the NaN,
    # not the edge; an infinite time would reach cos(inf) in the packet centre
    @pytest.mark.parametrize("times", [[float("nan")], [0.5, float("nan")], [float("inf")],
                                       [0.5, float("inf")], [float("-inf")]])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_nan_time_refused_as_nan(self, times):
        with pytest.raises(ConfigError, match="a time is NaN"):
            model.check_grid(ModelParams(), Grid1D(-4.0, 6.0, 1024), times)

    def test_accepted_width_keeps_the_norm(self):
        # 1.5 points across the narrowest width lost 3.6e-10 of the norm to
        # sampling; the coarsest grid the width rule accepts keeps it inside
        # NORM_TOL at every time around the narrowest width, t = pi / 2
        params = ModelParams(eta=0.25, mass=1.0, gamma=1.0)
        times = np.linspace(1.45, 1.7, 26)
        with pytest.raises(ConfigError, match=r"gives 1.5 points across .*; need at least 1.57$"):
            model.check_grid(params, Grid1D(-8.0, 10.0, 81), times)
        coarsest = Grid1D(-8.0, 10.0, math.ceil(18.0 * 3.0 * model.MIN_POINTS_PER_WIDTH))
        model.check_grid(params, coarsest, times)
        for t in times:
            assert abs(model.assemble_psi(t, coarsest, params).norm() - 1.0) <= ef.NORM_TOL / 2

    @pytest.mark.parametrize("n, t_end, accepted", [
        (768, 10.0, False),       # 0.96 points across the front at t = 10
        (1024, 10.0, True),       # 1.28, a default-window PASS at 8.4e-4
        (1024, 4 * np.pi, True),  # 1.13, emit-figure's range in test_cli
        (4096, 10.0, True),       # 5.12, the default grid
    ])
    def test_front_needs_points_across_it(self, n, t_end, accepted):
        check = lambda: model.check_grid(ModelParams(), Grid1D(-4.0, 6.0, n), [0.0, t_end])
        if accepted:
            check()
        else:
            with pytest.raises(ConfigError, match=r"gamma = 40 with n = 768 gives 0.96 points"):
                check()

    def test_steepness_bound_is_sharp(self):
        # at t = 0 gamma = 1e151 passes the steepness clause, and the front
        # rule after it refuses the grid; the next float is too steep
        grid = Grid1D(-4.0, 6.0, 1024)
        with pytest.raises(ConfigError, match="points across the front"):
            model.check_grid(ModelParams(gamma=1e151), grid, [0.0])
        with pytest.raises(ConfigError, match=r"gamma = 1e\+151 is too steep"):
            model.check_grid(ModelParams(gamma=np.nextafter(1e151, np.inf)), grid, [0.0])


class TestModelEdge:
    # the front term 1 + 3t vanishes at MODEL_EDGE: no field is built there
    @pytest.mark.parametrize("build", [model.hamiltonian_entries, model.assemble_psi])
    @pytest.mark.parametrize("t", [-1.0, -0.5, model.MODEL_EDGE])
    def test_time_at_or_before_the_edge_refused(self, params, grid1024, build, t):
        with pytest.raises(ConfigError, match=r"^t = -[0-9.]+ is at or before the model's "
                                              r"edge t = -1/3$"):
            build(t, grid1024, params)

    @pytest.mark.parametrize("build", [model.hamiltonian_entries, model.assemble_psi])
    def test_nan_time_refused_as_nan(self, params, grid1024, build):
        with pytest.raises(ConfigError, match="^t is NaN$"):
            build(float("nan"), grid1024, params)

    def test_first_time_past_the_edge_builds(self, params, grid4096):
        psi = model.assemble_psi(np.nextafter(model.MODEL_EDGE, 0.0), grid4096, params)
        assert abs(psi.norm() - 1.0) <= ef.NORM_TOL
