import numpy as np
import pytest

from efgeo import model
from efgeo.errors import ConfigError
from efgeo.grid import Grid1D, five_point
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
