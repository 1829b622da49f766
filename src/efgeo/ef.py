"""Exact-factorization geometry of a two-component wavefunction on a grid.

decompose() splits psi into the real non-negative marginal amplitude |chi|
(gauge fixed to lambda = 0) and the unit conditional spinor Phi, then
evaluates the Berry connection, the quantum metric and the rank-3 tensors
from gauge-covariant derivatives of Phi.  All quantities are reported on the
support mask where the marginal density exceeds the floor; values outside
the mask are numerically meaningless and excluded from every integral.

The conditional spinor is generally not periodic across the domain wrap, so
its derivatives default to high-order central stencils (local, so only the
wrap-adjacent off-mask points are polluted).  Spectral differentiation
remains available for genuinely periodic states.

Outside the support the spinor is a frozen constant, so every derivative of
it vanishes there: the stencils run only on a window around the support,
the fields built from them are kept on that window alone, and every value
on it carries the bits of the same stencil run over the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .grid import _D1_COEFFS, Grid1D, central_difference, check_method

DEFAULT_FLOOR_RATIO = 1e-13
NORM_TOL = 1e-10  # largest |norm - 1| a TwoComponentWavefunction accepts
# Phi is frozen (constant continuation) only well below the mask floor, so
# derivative stencils near the mask edge still see smooth data.
EXTENSION_RATIO = 1e-4


@dataclass(frozen=True)
class TwoComponentWavefunction:
    """Normalized complex 2-spinor field over a Grid1D."""

    grid: Grid1D
    psi1: np.ndarray
    psi2: np.ndarray

    def __post_init__(self):
        for comp in (self.psi1, self.psi2):
            if np.asarray(comp).shape != (self.grid.n,):
                raise ConfigError("spinor component length does not match grid")
            if not np.all(np.isfinite(comp)):
                raise ConfigError("spinor component has non-finite entries")
        norm = self.norm()
        if abs(norm - 1.0) > NORM_TOL:
            raise ConfigError(f"state norm {norm!r} deviates from 1 by more than {NORM_TOL:g}")

    @cached_property
    def density(self) -> np.ndarray:
        """|psi1|^2 + |psi2|^2, computed once: the norm check, the
        decomposition and the propagator's error record all read it."""
        return np.abs(self.psi1) ** 2 + np.abs(self.psi2) ** 2

    def norm(self) -> float:
        return float(self.grid.integrate(self.density))


@dataclass(frozen=True)
class EFDecomposition:
    """Marginal density, conditional spinor and geometric fields of a state.

    chi2, mask and Phi span the grid, Phi with the box of the support's edge
    values beyond it.  dphi, cov, connection, metric and the rank-3 bracket
    span window: that box widened by two stencil half-widths, or the whole
    grid.  Their first and last half-widths hold exact zeros.  The bracket
    and its parts c_tensor (Re) and d_tensor (Im) are built on first read:
    the metric costs two derivatives, the bracket two more.
    """

    grid: Grid1D
    psi1: np.ndarray
    psi2: np.ndarray
    chi2: np.ndarray          # marginal density |chi|^2
    phi1: np.ndarray          # conditional spinor, unit pointwise norm on mask
    phi2: np.ndarray
    dphi1: np.ndarray         # d(phi)/dx on window
    dphi2: np.ndarray
    cov1: np.ndarray          # covariant derivative (P - A)Phi, P = -i d/dx
    cov2: np.ndarray
    connection: np.ndarray    # A = Im <Phi| dPhi/dx>
    metric: np.ndarray        # g = <(P-A)Phi|(P-A)Phi>, non-negative
    mask: np.ndarray          # density above floor: tensors valid here
    window: slice             # where the derivatives run and their fields live
    method: str
    inertia: float = None

    @property
    def chi_abs(self) -> np.ndarray:
        return np.sqrt(self.chi2)

    def on_grid(self, values: np.ndarray) -> np.ndarray:
        """A window field as a whole-grid field, zero off the window: a sum
        over the whole grid keeps the bits of numpy's pairwise grouping."""
        if values.size == self.grid.n:
            return values
        out = np.zeros(self.grid.n, values.dtype)
        out[self.window] = values
        return out

    def diff(self, values: np.ndarray) -> np.ndarray:
        """d/dx of a window field on the window, in the bits of the method's
        stencil over on_grid(values): a window inside the grid wraps round
        itself, onto the zeros of its end half-widths."""
        if values.size == self.grid.n:
            return self.grid.derivative(values, 1, self.method)
        coeffs, scale = _D1_COEFFS[self.method]
        return central_difference(values, coeffs, scale * self.grid.dx)

    @cached_property
    def bracket(self) -> np.ndarray:
        """<(P-A)Phi|(P-A)(P-A)Phi>: only the rate of the geometric energy
        reads it."""
        A, g1, g2 = self.connection, self.cov1, self.cov2
        h1 = -1j * self.diff(g1) - A * g1
        h2 = -1j * self.diff(g2) - A * g2
        return np.conj(g1) * h1 + np.conj(g2) * h2

    @property
    def c_tensor(self) -> np.ndarray:
        """Re of the rank-3 bracket."""
        return self.bracket.real

    @property
    def d_tensor(self) -> np.ndarray:
        """Im of the rank-3 bracket; equals -g'/2."""
        return self.bracket.imag


class KineticPartition(NamedTuple):
    marginal: float
    geometric: float
    total: float


def _nearest_fill(support: np.ndarray) -> np.ndarray:
    """Index of the nearest supported point for every point: the point itself
    where supported, so one gather fills every field that shares the support."""
    idx = np.arange(support.size)
    good = idx[support]
    pos = np.searchsorted(good, idx)
    pos = np.clip(pos, 0, good.size - 1)
    left = good[np.maximum(pos - 1, 0)]
    right = good[pos]
    return np.where(np.abs(idx - left) <= np.abs(right - idx), left, right)


def _window(box: slice, n: int, method: str) -> slice:
    """Points at which decompose differentiates: box widened by two stencil
    half-widths (the bracket differentiates twice), or the whole grid when
    that window and the half-width read around it would leave the grid, and
    always for spectral derivatives."""
    if method not in _D1_COEFFS:
        return slice(0, n)
    halo = len(_D1_COEFFS[method][0])
    lo, hi = box.start - 2 * halo, box.stop + 2 * halo
    return slice(lo, hi) if halo <= lo and hi <= n - halo else slice(0, n)


def decompose(psi: TwoComponentWavefunction, inertia: float = None,
              method: str = "fd12") -> EFDecomposition:
    """Exact factorization of psi with gauge lambda = 0 (chi real >= 0).

    The density floor is DEFAULT_FLOOR_RATIO of the density maximum; the
    derivative fields span the window only.  inertia scales the energies.
    Raises ConfigError for a method that grid.METHODS does not name.
    """
    check_method(method)
    grid, n = psi.grid, psi.grid.n
    chi2 = psi.density
    # positive: TwoComponentWavefunction refuses a state whose norm is off 1
    floor = DEFAULT_FLOOR_RATIO * chi2.max()
    mask = chi2 > floor

    # Phi = psi/|chi| on the bounding box of the support, filled from the
    # nearest supported point in its gaps and beyond its edges
    support = chi2 > floor * EXTENSION_RATIO
    live = np.flatnonzero(support)
    box = slice(int(live[0]), int(live[-1]) + 1)
    chi_safe = np.where(support[box], np.sqrt(chi2[box]), 1.0)
    phi1, phi2 = psi.psi1[box] / chi_safe, psi.psi2[box] / chi_safe
    if live.size < chi_safe.size:
        nearest = _nearest_fill(support[box])
        phi1, phi2 = phi1[nearest], phi2[nearest]
    whole = np.empty(n, phi1.dtype), np.empty(n, phi2.dtype)
    for out, part in zip(whole, (phi1, phi2)):
        out[:box.start], out[box], out[box.stop:] = part[0], part, part[-1]
    phi1, phi2 = whole

    win = _window(box, n, method)
    d1 = grid.derivative(phi1, 1, method, win)
    d2 = grid.derivative(phi2, 1, method, win)
    p1, p2 = phi1[win], phi2[win]
    A = np.imag(np.conj(p1) * d1 + np.conj(p2) * d2)

    # covariant derivative field (P - A)Phi; the bracket applies it once more
    g1 = -1j * d1 - A * p1
    g2 = -1j * d2 - A * p2
    metric = np.abs(g1) ** 2 + np.abs(g2) ** 2

    return EFDecomposition(
        grid=grid, psi1=psi.psi1, psi2=psi.psi2, chi2=chi2, phi1=phi1, phi2=phi2,
        dphi1=d1, dphi2=d2, cov1=g1, cov2=g2, connection=A, metric=metric,
        mask=mask, window=win, method=method, inertia=inertia,
    )


def geometric_energy(dec: EFDecomposition) -> float:
    """Geometric kinetic energy: inertia/2 times the integral of the marginal
    density against the metric, over the support mask."""
    if dec.inertia is None:
        raise ConfigError("inertia required: decompose with inertia set")
    weight = np.where(dec.mask, dec.chi2, 0.0)
    return float(0.5 * dec.inertia * dec.grid.integrate(weight * dec.on_grid(dec.metric)))


def energies(dec: EFDecomposition) -> KineticPartition:
    """Kinetic partition (marginal, geometric, total).

    The total is computed independently of the factorization, from the
    spectral second derivative of psi, so that the partition identity
    total = marginal + geometric is a genuine cross-check.
    """
    geometric = geometric_energy(dec)
    inertia, grid = dec.inertia, dec.grid
    weight = np.where(dec.mask, dec.chi2, 0.0)
    dchi = grid.derivative(dec.chi_abs, 1, dec.method)
    marginal = 0.5 * inertia * (
        grid.integrate(dchi ** 2) + grid.integrate(weight * dec.on_grid(dec.connection) ** 2)
    )

    lap1 = grid.derivative(dec.psi1, 2, "spectral")
    lap2 = grid.derivative(dec.psi2, 2, "spectral")
    total = -0.5 * inertia * grid.integrate(
        np.real(np.conj(dec.psi1) * lap1 + np.conj(dec.psi2) * lap2)
    )
    return KineticPartition(marginal=float(marginal), geometric=geometric, total=float(total))
