import numpy as np
import pytest

from efgeo import model
from efgeo.errors import ConfigError
from efgeo.geometry import ParamGrid
from efgeo.grid import _D1_COEFFS, Grid1D, central_difference


def test_grid_construction_and_points():
    g = Grid1D(0.0, 1.0, 64)
    assert g.dx == pytest.approx(1.0 / 64)
    assert g.x[0] == 0.0
    assert g.x[-1] < 1.0
    assert np.all(np.diff(g.x) > 0)


@pytest.mark.parametrize("name", ["x", "wavenumbers"])
def test_coordinate_arrays_are_built_once_and_read_only(name):
    g = Grid1D(-4.0, 6.0, 128)
    arr = getattr(g, name)
    assert getattr(g, name) is arr
    with pytest.raises(ValueError):
        arr[0] = 1.0
    formula = {
        "x": g.x_min + g.dx * np.arange(g.n),
        "wavenumbers": 2.0 * np.pi * np.fft.fftfreq(g.n, g.dx),
    }[name]
    assert np.array_equal(arr, formula)


def test_grid_rejects_small_n_and_bad_bounds():
    with pytest.raises(ConfigError, match=r"n = 8 outside \[16, 2\*\*53\]"):
        Grid1D(0.0, 1.0, 8)
    with pytest.raises(ConfigError, match="give spacing dx = 0.0"):
        Grid1D(1.0, 1.0, 64)


def test_spectral_derivative_single_mode_exact():
    g = Grid1D(0.0, 10.0, 256)
    k = 2.0 * np.pi / g.length
    f = np.sin(k * g.x)
    df = g.derivative(f, 1, "spectral")
    assert np.max(np.abs(df - k * np.cos(k * g.x))) <= 1e-12


def test_derivative_of_constant_is_exactly_zero():
    g = Grid1D(-3.0, 7.0, 1024)
    f = np.full(g.n, 2.75)
    assert np.all(g.derivative(f, 1, "spectral") == 0.0)
    assert np.all(g.derivative(f, 1, "fd4") == 0.0)


def test_spectral_derivative_gaussian():
    g = Grid1D(-10.0, 10.0, 512)
    f = np.exp(-g.x ** 2)
    exact = -2.0 * g.x * np.exp(-g.x ** 2)
    assert np.max(np.abs(g.derivative(f, 1, "spectral") - exact)) <= 1e-10


def test_second_derivative_gaussian():
    g = Grid1D(-10.0, 10.0, 1024)
    f = np.exp(-g.x ** 2)
    exact = (4.0 * g.x ** 2 - 2.0) * f
    assert np.max(np.abs(g.derivative(f, 2, "spectral") - exact)) <= 1e-9


@pytest.mark.parametrize("method,bound", [("fd4", 1e-5), ("fd12", 1e-11)])
def test_fd_orders_on_band_limited_field(method, bound):
    g = Grid1D(0.0, 10.0, 512)
    k = 3.0 * 2.0 * np.pi / g.length
    f = np.sin(k * g.x + 0.7)
    exact = k * np.cos(k * g.x + 0.7)
    assert np.max(np.abs(g.derivative(f, 1, method) - exact)) <= bound


def test_fd4_fourth_order_convergence():
    k = 3.0 * 2.0 * np.pi / 10.0
    errs = []
    for n in (256, 512):
        g = Grid1D(0.0, 10.0, n)
        f = np.sin(k * g.x)
        errs.append(np.max(np.abs(g.derivative(f, 1, "fd4") - k * np.cos(k * g.x))))
    ratio = errs[0] / errs[1]
    assert 14.0 < ratio < 18.0


@pytest.mark.parametrize("m", [32, 64, 128])
def test_param_grid_diff_matches_grid_fd4(m):
    # both layers differentiate through the one central-difference helper,
    # with the one fd4 entry of the stencil table
    g = Grid1D(0.0, 2.0 * np.pi, m)
    f = np.exp(np.sin(g.x)) * np.cos(3.0 * g.x)
    expected = g.derivative(f, 1, "fd4")
    assert np.array_equal(ParamGrid((m,)).diff(f, 0), expected)


def _roll_stencil(f, coeffs, h, axis):
    # reference: the same sum in the same order, with np.roll copies
    out = coeffs[0] * (np.roll(f, -1, axis) - np.roll(f, 1, axis))
    for j, cj in enumerate(coeffs[1:], start=2):
        out += cj * (np.roll(f, -j, axis) - np.roll(f, j, axis))
    return out / h


def _field(shape, kind):
    rng = np.random.default_rng(7)
    f = rng.standard_normal(shape)
    return f + 1j * rng.standard_normal(shape) if kind == "complex" else f


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("method", sorted(_D1_COEFFS))
def test_central_difference_bits_match_roll_1d(method, kind):
    f = _field(256, kind)
    coeffs, scale = _D1_COEFFS[method]
    h = scale * 0.03
    assert np.array_equal(central_difference(f, coeffs, h), _roll_stencil(f, coeffs, h, -1))


@pytest.mark.parametrize("axis", [0, 1, 2])
def test_central_difference_bits_match_roll_3d(axis):
    f = _field((20, 24, 18), "real")
    coeffs, scale = _D1_COEFFS["fd4"]
    h = scale * 0.1
    got = central_difference(f, coeffs, h, axis)
    assert np.array_equal(got, _roll_stencil(f, coeffs, h, axis))


# windows inside the grid, touching either edge, across the whole grid, and
# windows whose stencil reach would leave the grid (read with wrap)
_WINDOWS = [slice(40, 200), slice(6, 250), slice(0, 256), slice(3, 100), slice(150, 253),
            slice(0, 1), slice(255, 256)]


@pytest.mark.parametrize("window", _WINDOWS, ids=str)
@pytest.mark.parametrize("method", sorted(_D1_COEFFS))
def test_windowed_derivative_keeps_the_whole_grid_bits(method, window):
    g = Grid1D(0.0, 7.5, 256)
    f = _field(256, "complex")
    whole = g.derivative(f, 1, method)
    assert np.array_equal(g.derivative(f, 1, method, window), whole[window])


@pytest.mark.parametrize("window", [slice(0, 10, 2), slice(None, None, -1)], ids=str)
def test_stepped_window_refused(window):
    g = Grid1D(0.0, 7.5, 256)
    with pytest.raises(ValueError, match="not a slice of consecutive points"):
        g.derivative(_field(256, "real"), 1, "fd12", window)
    with pytest.raises(ValueError, match="not a slice of consecutive points"):
        ParamGrid((32, 32)).diff(np.zeros((32, 32)), 0, window)


def test_complex_field_derivative():
    g = Grid1D(0.0, 2.0 * np.pi, 128)
    f = np.exp(1j * 3.0 * g.x)
    for method in ("spectral", "fd12"):
        df = g.derivative(f, 1, method)
        assert np.max(np.abs(df - 3j * f)) <= 1e-10


@pytest.mark.parametrize("n", [16, 100, 1024])
def test_integrate_constant_any_n(n):
    g = Grid1D(0.0, 1.0, n)
    assert g.integrate(np.ones(n)) == pytest.approx(1.0, abs=1e-14)


def test_integrate_normalized_gaussian(params):
    g = Grid1D(-4.0, 6.0, 2048)
    assert g.integrate(model.nuclear_density(g.x, 0.0, params)) == pytest.approx(1.0, abs=1e-12)


def test_integrate_periodic_mean_zero():
    g = Grid1D(0.0, 10.0, 512)
    f = np.sin(2.0 * np.pi * g.x / g.length)
    assert abs(g.integrate(f)) <= 1e-14


def test_integrate_linearity():
    rng = np.random.default_rng(7)
    g = Grid1D(0.0, 5.0, 300)
    f, h = rng.normal(size=(2, g.n))
    a, b = 1.7, -0.3
    lhs = g.integrate(a * f + b * h)
    rhs = a * g.integrate(f) + b * g.integrate(h)
    assert lhs == pytest.approx(rhs, abs=1e-13)


def test_cumulative_integral_of_one_is_x():
    g = Grid1D(0.0, 1.0, 128)
    F = g.cumulative_integral(np.ones(g.n))
    assert np.max(np.abs(F - g.x)) <= 1e-13


def test_cumulative_integral_zero_at_reference():
    g = Grid1D(-3.0, 10.0, 200)
    F = g.cumulative_integral(np.sin(g.x))
    assert F[0] == 0.0


def test_cumulative_density_rate_matches_closed_form(params):
    # spectral antiderivative of the density rate against its closed form
    g = Grid1D(-4.0, 6.0, 4096)
    rate = model.nuclear_density_rate(g.x, 0.0, params)
    sig = model.width(0.0, params)
    u = (g.x - model.mean_position(0.0, params)) / sig
    closed = -model.nuclear_density(g.x, 0.0, params) * (
        model.mean_position_rate(0.0, params) + u * model.width_rate(0.0, params)
    )
    F = g.cumulative_integral(rate)
    assert np.max(np.abs(F - (closed - closed[0]))) <= 1e-8


def test_derivative_of_cumulative_recovers_integrand():
    g = Grid1D(0.0, 10.0, 512)
    f = np.exp(np.sin(2.0 * np.pi * g.x / g.length))
    F = g.cumulative_integral(f)
    recovered = g.derivative(F, 1, "fd4")
    interior = slice(8, g.n - 8)
    assert np.max(np.abs(recovered - f)[interior]) <= 20.0 * g.dx ** 2


def test_invalid_field_errors():
    g = Grid1D(0.0, 1.0, 64)
    bad = np.ones(g.n)
    bad[3] = np.nan
    with pytest.raises(ConfigError, match="field contains non-finite entries"):
        g.derivative(bad, 1, "spectral")
    with pytest.raises(ConfigError, match="field contains non-finite entries"):
        g.integrate(bad)
    with pytest.raises(ConfigError, match=r"field has shape \(10,\), expected \(64,\)"):
        g.derivative(np.ones(10), 1, "spectral")


def test_unknown_method_and_order():
    g = Grid1D(0.0, 1.0, 64)
    with pytest.raises(ValueError):
        g.derivative(np.ones(g.n), 1, "fd6")
    with pytest.raises(ValueError):
        g.derivative(np.ones(g.n), 3, "spectral")
    with pytest.raises(ValueError):  # the stencils are first-derivative only
        g.derivative(np.ones(g.n), 2, "fd12")
    with pytest.raises(ValueError):  # spectral derivatives need the whole grid
        g.derivative(np.ones(g.n), 1, "spectral", slice(10, 50))

