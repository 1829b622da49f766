"""Closed-form fields of the exactly solvable two-level wavepacket model.

A gaussian nuclear density with prescribed damped-oscillation mean and width
is combined with sigmoid Bloch-angle fields; the 2x2 Hamiltonian entries are
reverse engineered so that the assembled two-component state solves the
Schroedinger equation exactly.  Everything here is a pure function of the
model parameters, the time and the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .ef import DEFAULT_FLOOR_RATIO, EXTENSION_RATIO, NORM_TOL, TwoComponentWavefunction
from .errors import ConfigError
from .grid import _D1_COEFFS, Grid1D, check_method

_CLIP = 700.0  # exp argument guard
# fewest grid points across the narrowest packet width 1/(3 sqrt(mass)).  By
# Poisson summation the gaussian exp(-u^2) sampled at dx misses its norm by
# at most 2 exp(-pi^2 (width / dx)^2); this holds that to NORM_TOL / 2 (1.57
# points), leaving the other half to the norm outside the domain.  Grids just
# finer still give an identity residual of order 1 (1.47 relative at 1.69
# points, mass 10, t in [0, 1]), far above any tolerance a passing run meets.
MIN_POINTS_PER_WIDTH = math.sqrt(math.log(4.0 / NORM_TOL)) / math.pi
# the model's front term 1 + 3t vanishes here; no state is built at or before it
MODEL_EDGE = -1.0 / 3.0
# largest front steepness gamma (1 + eta t): the potential entries grow like
# its square, their gradients by 1/dx more.  verify-identity overflows from
# 1e153 at n = 4096 and 2e152 at n = 16384, propagate's square from 1.34e154;
# at the bound every subcommand runs clean up to n = 65536.
MAX_STEEPNESS = 1e151
# fewest grid points across the front 1/(gamma (1 + eta t)) at the latest time.
# Default verify-identity: relative residual 1.02e-2 at 0.96 points, 7.3e-3 at
# 1.00, a PASS from 1.26 (n = 1008) on; emit-figure's test range [0, 4 pi] runs
# at n = 1024 with 1.13.  It does not imply MAX_STEEPNESS: the width rule lets
# dx fall to about 1e-155 at mass 1e308.
MIN_POINTS_ACROSS_FRONT = 1.0


@dataclass(frozen=True)
class ModelParams:
    """Model constants: damping eta, nuclear mass, front steepness gamma and
    the inverse-mass inertia (defaults to 1/mass)."""

    eta: float = 0.1
    mass: float = 10.0
    gamma: float = 40.0
    inertia: float = None

    def __post_init__(self):
        for key in ("eta", "mass", "gamma", "inertia"):
            value = getattr(self, key)
            if value is not None and not np.isfinite(value):
                raise ConfigError(f"{key} = {value} is not finite")
        if not 0.0 < self.eta < 0.5:
            raise ConfigError(f"eta = {self.eta} outside (0, 1/2)")
        if self.mass <= 0.0:
            raise ConfigError("mass must be positive")
        if self.gamma <= 0.0:
            raise ConfigError("gamma must be positive")
        if self.inertia is None:
            object.__setattr__(self, "inertia", 1.0 / self.mass)
        elif self.inertia <= 0.0:
            raise ConfigError("inertia must be positive")
        # the model divides by sigma * inertia, and sigma >= 1/(3 sqrt(mass));
        # a Python float product overflows to inf without a warning
        if not 1.0 / (3.0 * math.sqrt(self.mass)) * self.inertia > 0.0:
            raise ConfigError(f"inertia = {self.inertia} with mass = {self.mass}: sigma * inertia is 0")
        # the drift phase of the model state scales with 2 / inertia
        if not math.isfinite(2.0 / self.inertia):
            raise ConfigError(f"inertia = {self.inertia} is too small: 2 / inertia overflows")


class HamiltonianFields(NamedTuple):
    """Entries of the 2x2 potential matrix (h0 + h3, h1; h1, h0 - h3)."""

    h0: np.ndarray
    h1: np.ndarray
    h3: np.ndarray


def mean_position(t, params: ModelParams):
    """Packet center xbar(t) = 1 - cos(t)/(1 + eta*t)."""
    t = np.asarray(t, dtype=float)
    return 1.0 - np.cos(t) / (1.0 + params.eta * t)


def mean_position_rate(t, params: ModelParams):
    t = np.asarray(t, dtype=float)
    eta = params.eta
    d = 1.0 + eta * t
    return np.sin(t) / d + eta * np.cos(t) / d ** 2


def _mean_position_accel(t, params):
    t = np.asarray(t, dtype=float)
    eta = params.eta
    d = 1.0 + eta * t
    return np.cos(t) / d - 2.0 * eta * np.sin(t) / d ** 2 - 2.0 * eta ** 2 * np.cos(t) / d ** 3


def width(t, params: ModelParams):
    """Packet width sigma(t) = (1 + (1 + eta*t) cos^2 t) / (3 sqrt(M))."""
    t = np.asarray(t, dtype=float)
    return (1.0 + (1.0 + params.eta * t) * np.cos(t) ** 2) / (3.0 * np.sqrt(params.mass))


def width_rate(t, params: ModelParams):
    t = np.asarray(t, dtype=float)
    eta = params.eta
    return (eta * np.cos(t) ** 2 - (1.0 + eta * t) * np.sin(2.0 * t)) / (3.0 * np.sqrt(params.mass))


def _width_accel(t, params):
    t = np.asarray(t, dtype=float)
    eta = params.eta
    return (-2.0 * eta * np.sin(2.0 * t) - 2.0 * (1.0 + eta * t) * np.cos(2.0 * t)) / (
        3.0 * np.sqrt(params.mass)
    )


def nuclear_density(x, t, params: ModelParams):
    """Gaussian marginal density |chi|^2, normalized on the real line."""
    sig = width(t, params)
    u = (np.asarray(x, dtype=float) - mean_position(t, params)) / sig
    return np.exp(-u ** 2) / (np.sqrt(np.pi) * sig)


def nuclear_density_rate(x, t, params: ModelParams):
    """Time derivative of the gaussian density, in closed form."""
    sig = width(t, params)
    u = (np.asarray(x, dtype=float) - mean_position(t, params)) / sig
    drift = mean_position_rate(t, params) + u * width_rate(t, params)
    return nuclear_density(x, t, params) * (2.0 * u * drift - width_rate(t, params)) / sig


def vector_potential(x, t, params: ModelParams):
    """Berry connection fixed by continuity of the gaussian density.

    Integrating the density rate from the left tail gives the closed form
    A = (xbar' + u sigma') / inertia with u = (x - xbar)/sigma.
    """
    sig = width(t, params)
    u = (np.asarray(x, dtype=float) - mean_position(t, params)) / sig
    return _potential_from_rates(u, mean_position_rate(t, params), width_rate(t, params), params.inertia)


def check_grid(params: ModelParams, grid: Grid1D, times):
    """Refuse no times or a non-finite time, a time at or before MODEL_EDGE, a
    front steeper than MAX_STEEPNESS, a grid too coarse for the packet or for
    the front, or a domain leaving more of the packet outside than ef's norm
    check accepts at `times`."""
    if np.size(times) == 0:
        raise ConfigError("no times to check the grid at")
    if not np.all(np.isfinite(times)):
        raise ConfigError("a time is NaN or infinite")
    if not np.all(np.asarray(times) > MODEL_EDGE):
        raise ConfigError(f"t = {np.min(times):.6g} is at or before the model's edge t = -1/3")
    # steepest at the latest time; 1 + eta t > 5/6, so the quotient cannot overflow
    last = float(np.max(times))
    if not params.gamma <= MAX_STEEPNESS / (1.0 + params.eta * last):
        raise ConfigError(f"gamma = {params.gamma:g} is too steep: gamma (1 + eta t) "
                          f"exceeds {MAX_STEEPNESS:g} at t = {last:.6g}")
    narrowest = 1.0 / (3.0 * np.sqrt(params.mass))  # width where cos t = 0
    # compared as a product: narrowest / dx can overflow for a fine grid
    if not narrowest >= MIN_POINTS_PER_WIDTH * grid.dx:
        raise ConfigError(
            f"grid spacing dx = {grid.dx:.3g} gives {narrowest / grid.dx:.3g} points across the "
            f"narrowest packet width {narrowest:.3g}; need at least {MIN_POINTS_PER_WIDTH:.3g}"
        )
    steepness = params.gamma * (1.0 + params.eta * last)
    if not 1.0 >= MIN_POINTS_ACROSS_FRONT * steepness * grid.dx:  # a product, as above
        raise ConfigError(
            f"gamma = {params.gamma:g} with n = {grid.n} gives {1.0 / (steepness * grid.dx):.3g} "
            f"points across the front 1/(gamma (1 + eta t)) at t = {last:.6g}; "
            f"need at least {MIN_POINTS_ACROSS_FRONT}"
        )
    centres = mean_position(times, params)
    widths = width(times, params)
    # mass of the gaussian exp(-u^2)/(sqrt(pi) sigma) beyond each edge
    outside = [0.5 * (math.erfc((c - grid.x_min) / s) + math.erfc((grid.x_max - c) / s))
               for c, s in zip(centres, widths)]
    worst = int(np.argmax(outside))
    if not outside[worst] <= NORM_TOL:
        raise ConfigError(
            f"domain x_min = {grid.x_min}, x_max = {grid.x_max} misses the packet: at "
            f"t = {times[worst]:.6g} its centre {centres[worst]:.6g} (width {widths[worst]:.3g}) "
            f"leaves {outside[worst]:.3g} of the norm outside, more than {NORM_TOL:g}"
        )


def packet_extent(t, grid: Grid1D, params: ModelParams, method: str) -> slice:
    """Points that a decomposition by `method` at time t reads of the state.

    The gaussian drops below ef's support level, EXTENSION_RATIO times the
    mask floor DEFAULT_FLOOR_RATIO, at sqrt(ln(1 / (DEFAULT_FLOOR_RATIO
    EXTENSION_RATIO))) = 6.26 widths from its centre.  Beyond those points
    sit the decomposition window's two stencil half-widths and the one
    half-width that a derivative on the window reads; one point more covers
    the grid's density maximum lying below the gaussian's peak.  Where that
    slice would leave [0, n), the extent is the whole grid, as the window
    is in ef._window: a window over the whole periodic grid reads every
    point.  A rule on how far the packet keeps from the domain's edges
    reads its level here.  Raises ConfigError for a method other than
    fd4 and fd12.
    """
    check_method(method, tuple(_D1_COEFFS))
    reach = math.sqrt(-math.log(DEFAULT_FLOOR_RATIO * EXTENSION_RATIO)) * float(width(t, params))
    centre = float(mean_position(t, params))
    halo = 3 * len(_D1_COEFFS[method][0]) + 1
    lo = math.ceil((centre - reach - grid.x_min) / grid.dx) - halo
    hi = math.floor((centre + reach - grid.x_min) / grid.dx) + 1 + halo
    return slice(lo, hi) if 0 <= lo and hi <= grid.n else slice(0, grid.n)


def _potential_from_rates(u, xbar_rate, sigma_rate, inertia):
    return (xbar_rate + u * sigma_rate) / inertia


class _Fields:
    """All analytic fields of the model state at one time on one grid.

    Spatial derivatives and time rates are exact expressions; the gauge phase
    alpha and its time derivative integrate the exponentially localized front
    term with the spectral antiderivative (the smooth drift term is
    integrated in closed form).  The Bloch description of the state is read
    straight off the attributes: w = cos(theta), phi, alpha (zero at x_min)
    and chi_abs, the root of chi2 = nuclear_density.  Besides the packet
    scalars, the constructor builds only the arrays the state reads: u, w,
    phi, phi_x and the front terms r and s (with their scalars gp, amp, p,
    q).  Every other field is computed on first read and cached: chi2,
    chi_abs and alpha for the state; w_x, w_xx, phi_xx, w_t, s_t, phi_t,
    phi_xt, lnchi_x, lnchi_xx, vector_potential, alpha_x and alpha_t for the
    Hamiltonian entries; alpha_xx for the tests.  chi2, chi_abs and alpha
    span `window` (by default the whole grid), the points at which
    assemble_psi builds the state; every other field spans the grid.
    """

    def __init__(self, t: float, grid: Grid1D, params: ModelParams, window: slice = slice(None)):
        if not MODEL_EDGE < t < math.inf:  # one chained test: a Strang step makes one call
            raise ConfigError("t is NaN" if math.isnan(t) else f"t = {t} is not finite" if t > 0
                              else f"t = {t:.6g} is at or before the model's edge t = -1/3")
        eta, gamma = params.eta, params.gamma
        self.x = x = grid.x
        self.t = float(t)
        self.grid = grid
        self.params = params
        self.window = window

        self.sigma = float(width(t, params))
        self.sigma_rate = float(width_rate(t, params))
        self.xbar = float(mean_position(t, params))
        self.xbar_rate = float(mean_position_rate(t, params))
        self.u = (x - self.xbar) / self.sigma

        self.gp = gp = gamma * (1.0 + eta * t)  # instantaneous front steepness
        xi = np.clip(gp * (x - 1.0), -_CLIP, _CLIP)
        E = np.exp(xi)
        self.p = p = 1.0 + t
        self.q = q = 1.0 + 3.0 * t
        self.r = r = p / (p + E)
        self.s = s = q / (q + E)
        self.amp = amp = 1.0 - 2.0 * eta

        self.w = eta + amp * r
        self.phi = -eta - amp * s
        self.phi_x = amp * gp * s * (1.0 - s)
        self.vector_potential_x = self.sigma_rate / (self.sigma * params.inertia)

    @cached_property
    def w_x(self):
        return -self.amp * self.gp * self.r * (1.0 - self.r)

    @cached_property
    def w_xx(self):
        r = self.r
        return self.amp * self.gp ** 2 * r * (1.0 - r) * (1.0 - 2.0 * r)

    @cached_property
    def phi_xx(self):
        s = self.s
        return -self.amp * self.gp ** 2 * s * (1.0 - s) * (1.0 - 2.0 * s)

    @cached_property
    def _xi_t(self):
        return self.params.gamma * self.params.eta * (self.x - 1.0)

    @cached_property
    def s_t(self):
        return self.s * (1.0 - self.s) * (3.0 / self.q - self._xi_t)

    @cached_property
    def w_t(self):
        return self.amp * (self.r * (1.0 - self.r) * (1.0 / self.p - self._xi_t))

    @cached_property
    def phi_t(self):
        return -self.amp * self.s_t

    @cached_property
    def phi_xt(self):
        s, par = self.s, self.params
        return self.amp * (par.gamma * par.eta * s * (1.0 - s) + self.gp * (1.0 - 2.0 * s) * self.s_t)

    @cached_property
    def lnchi_x(self):
        return -self.u / self.sigma

    @cached_property
    def lnchi_xx(self):
        return np.full(self.grid.n, -1.0 / self.sigma ** 2)

    @cached_property
    def vector_potential(self):
        return _potential_from_rates(self.u, self.xbar_rate, self.sigma_rate, self.params.inertia)

    @cached_property
    def alpha_x(self):
        return 2.0 * self.vector_potential + self.w * self.phi_x

    @cached_property
    def chi2(self):
        # the one gaussian formula, whose u and sigma repeat this object's bits
        return nuclear_density(self.x[self.window], self.t, self.params)

    @cached_property
    def chi_abs(self):
        return np.sqrt(self.chi2)

    @cached_property
    def alpha(self):
        # alpha = int_{x_min}^{x} (2A + w phi_x); drift part in closed form,
        # localized front part by spectral antiderivative over the whole grid
        front = self.grid.cumulative_integral(self.w * self.phi_x)
        return self._drift_phase(self.x[self.window]) + front[self.window]

    @cached_property
    def alpha_t(self):
        return self._drift_phase_rate(self.x) + self.grid.cumulative_integral(
            self.w_t * self.phi_x + self.w * self.phi_xt
        )

    @cached_property
    def alpha_xx(self):
        return 2.0 * self.vector_potential_x + self.w_x * self.phi_x + self.w * self.phi_xx

    def _drift_phase(self, x):
        par = self.params
        G = (x - self.xbar) ** 2 - (self.grid.x_min - self.xbar) ** 2
        return (2.0 / par.inertia) * (
            self.xbar_rate * (x - self.grid.x_min) + self.sigma_rate / (2.0 * self.sigma) * G
        )

    def _drift_phase_rate(self, x):
        par = self.params
        sig, sigd = self.sigma, self.sigma_rate
        sigdd = float(_width_accel(self.t, par))
        xbdd = float(_mean_position_accel(self.t, par))
        G = (x - self.xbar) ** 2 - (self.grid.x_min - self.xbar) ** 2
        return (2.0 / par.inertia) * (
            xbdd * (x - self.grid.x_min)
            + (sigdd * sig - sigd ** 2) / (2.0 * sig ** 2) * G
            - (sigd / sig) * self.xbar_rate * (x - self.grid.x_min)
        )


def hamiltonian_entries(t, grid: Grid1D, params: ModelParams) -> HamiltonianFields:
    """Reverse-engineered potential entries h0, h1, h3 at time t, from the
    closed-form rates of the Bloch fields.  Raises ConfigError for t at or
    before MODEL_EDGE or not finite."""
    f = _Fields(t, grid, params)
    sin_th = np.sqrt(1.0 - f.w ** 2)
    sin_phi = np.sin(f.phi)
    if np.min(np.abs(sin_phi)) < 1e-6 or np.min(sin_th) < 1e-6:
        raise ConfigError("sin(phi) or sin(theta) below 1e-6")

    # rates first: built lazily inside the h3 and h0 sums they measured 2-6 % slower
    w_t, phi_t, alpha_t = f.w_t, f.phi_t, f.alpha_t
    theta_t = -w_t / sin_th
    theta_x = -f.w_x / sin_th
    theta_xx = -f.w_xx / sin_th - f.w * f.w_x ** 2 / (1.0 - f.w ** 2) ** 1.5
    cos_phi = np.cos(f.phi)
    I = params.inertia

    h1 = (
        -0.5 * theta_t
        - 0.5 * I * sin_th * f.lnchi_x * f.phi_x
        - 0.25 * I * sin_th * f.phi_xx
        - 0.25 * I * theta_x * (f.alpha_x + f.w * f.phi_x)
    ) / sin_phi
    h3 = (
        h1 * f.w * cos_phi
        + 0.5 * sin_th * phi_t
        - 0.5 * I * f.lnchi_x * theta_x
        + 0.25 * I * sin_th * f.alpha_x * f.phi_x
        - 0.25 * I * theta_xx
    ) / sin_th
    h0 = (
        -h1 * sin_th * cos_phi
        - h3 * f.w
        - 0.5 * alpha_t
        + 0.5 * f.w * phi_t
        + 0.5 * I * f.lnchi_xx
        + 0.5 * I * f.lnchi_x ** 2
        - 0.125 * I * (f.alpha_x ** 2 + f.phi_x ** 2 - 2.0 * f.w * f.alpha_x * f.phi_x)
        - 0.125 * I * theta_x ** 2
    )
    return HamiltonianFields(h0=h0, h1=h1, h3=h3)


def assemble_psi(t, grid: Grid1D, params: ModelParams,
                 window: slice = slice(None)) -> TwoComponentWavefunction:
    """Build the normalized two-component state at time t on the points of
    window (by default the whole grid), with exact zeros elsewhere.

    alpha, w and phi come from the whole grid, because alpha's spectral
    antiderivative is global.  chi_abs, the two half-angle roots, the two
    phases and their products are taken on window alone; each is
    elementwise, so every point of window gets the bits of the whole-grid
    build.  identity builds its states on packet_extent.  Raises
    ConfigError for t at or before MODEL_EDGE or not finite.
    """
    f = _Fields(t, grid, params, window)
    w, alpha, phi = f.w[window], f.alpha, f.phi[window]
    half_cos = np.sqrt(0.5 * (1.0 + w))
    half_sin = np.sqrt(0.5 * (1.0 - w))
    psi1, psi2 = np.zeros(grid.n, complex), np.zeros(grid.n, complex)
    psi1[window] = f.chi_abs * np.exp(0.5j * (alpha - phi)) * half_cos
    psi2[window] = f.chi_abs * np.exp(0.5j * (alpha + phi)) * half_sin
    return TwoComponentWavefunction(grid=grid, psi1=psi1, psi2=psi2)
