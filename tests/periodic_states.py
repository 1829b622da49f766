"""Synthetic periodic two-component states and gauge changes shared by the
tests.  A plain module rather than conftest.py: test modules import these
helpers by name, and more than one conftest.py is collected next to them."""

import numpy as np

from efgeo import ef


def make_periodic_state(grid, seed=0, winding=0):
    """Fully periodic synthetic two-component state with everywhere-positive
    density, so the support mask covers the whole grid and spectral and
    stencil derivatives are both exact to roundoff."""
    rng = np.random.default_rng(seed)
    k0 = 2.0 * np.pi / grid.length
    x = grid.x
    amp = rng.uniform(0.2, 0.45, size=3)
    ph = rng.uniform(0.0, 2.0 * np.pi, size=4)
    chi2 = 1.0 + 0.6 * np.cos(k0 * x + ph[0])
    chi2 = chi2 / grid.integrate(chi2)
    w = 0.25 + amp[0] * np.sin(k0 * x + ph[1])
    phi = 0.4 + amp[1] * np.cos(2.0 * k0 * x + ph[2])
    # e^{i alpha / 2} must be periodic, hence the even winding in k0 units
    alpha = amp[2] * np.sin(k0 * x + ph[3]) + winding * 2.0 * k0 * x
    half = np.arccos(w) / 2.0
    chi = np.sqrt(chi2)
    psi1 = chi * np.exp(0.5j * (alpha - phi)) * np.cos(half)
    psi2 = chi * np.exp(0.5j * (alpha + phi)) * np.sin(half)
    state = ef.TwoComponentWavefunction(grid=grid, psi1=psi1, psi2=psi2)
    fields = {"chi2": chi2, "w": w, "phi": phi, "alpha": alpha}
    return state, fields


def smooth_gauge(grid, seed=0):
    """Periodic gauge function theta(x) with its exact derivative."""
    rng = np.random.default_rng(seed + 100)
    k0 = 2.0 * np.pi / grid.length
    a, b = rng.uniform(0.15, 0.4, size=2)
    p, q = rng.uniform(0.0, 2.0 * np.pi, size=2)
    x = grid.x
    theta = a * np.sin(k0 * x + p) + b * np.cos(2.0 * k0 * x + q)
    theta_x = a * k0 * np.cos(k0 * x + p) - 2.0 * b * k0 * np.sin(2.0 * k0 * x + q)
    return theta, theta_x


def regauged(state, theta):
    phase = np.exp(1j * theta)
    return ef.TwoComponentWavefunction(
        grid=state.grid, psi1=phase * state.psi1, psi2=phase * state.psi2
    )
