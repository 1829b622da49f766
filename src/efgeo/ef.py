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
and every value on that window carries the bits of the same stencil run
over the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .grid import _D1_COEFFS, Grid1D

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

    The rank-3 bracket and its parts c_tensor (Re) and d_tensor (Im) are
    computed on first read and cached; the metric alone costs two
    derivatives, the bracket two more.  Every derivative runs on window: the
    bounding box of the support widened by two stencil half-widths, or the
    whole grid.  Outside it Phi keeps the box's edge values and every field
    derived from its derivatives is zero.
    """

    grid: Grid1D
    psi1: np.ndarray
    psi2: np.ndarray
    chi2: np.ndarray          # marginal density |chi|^2
    phi1: np.ndarray          # conditional spinor, unit pointwise norm on mask
    phi2: np.ndarray
    dphi1: np.ndarray         # d(phi)/dx
    dphi2: np.ndarray
    cov1: np.ndarray          # covariant derivative (P - A)Phi, P = -i d/dx
    cov2: np.ndarray
    connection: np.ndarray    # A = Im <Phi| dPhi/dx>
    metric: np.ndarray        # g = <(P-A)Phi|(P-A)Phi>, non-negative
    mask: np.ndarray          # density above floor: tensors valid here
    extended: np.ndarray      # points where Phi is a frozen continuation
    window: slice             # where the derivatives run; zero outside
    method: str
    inertia: float = None

    @property
    def current(self) -> np.ndarray:
        """J = inertia * chi2 * A, or None without an inertia."""
        return None if self.inertia is None else self.inertia * self.chi2 * self.connection

    @property
    def chi_abs(self) -> np.ndarray:
        return np.sqrt(self.chi2)

    @cached_property
    def bracket(self) -> np.ndarray:
        """<(P-A)Phi|(P-A)(P-A)Phi>: only the rate of the geometric energy
        reads it."""
        grid, win, method = self.grid, self.window, self.method
        A, g1, g2 = self.connection[win], self.cov1[win], self.cov2[win]
        h1 = -1j * grid.derivative(self.cov1, 1, method, win) - A * g1
        h2 = -1j * grid.derivative(self.cov2, 1, method, win) - A * g2
        return _on_grid(np.conj(g1) * h1 + np.conj(g2) * h2, win, grid.n)

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


def _on_grid(values: np.ndarray, part: slice, n: int, edges: bool = False) -> np.ndarray:
    """values on part of the grid as a whole-grid field: zero outside it, or
    with edges, continued by the first and last of values."""
    if values.size == n:
        return values
    out = np.zeros(n, values.dtype)
    out[part] = values
    if edges:
        out[:part.start] = values[0]
        out[part.stop:] = values[-1]
    return out


def decompose(psi: TwoComponentWavefunction, inertia: float = None,
              method: str = "fd12") -> EFDecomposition:
    """Exact factorization of psi with gauge lambda = 0 (chi real >= 0).

    The density floor is DEFAULT_FLOOR_RATIO of the density maximum.
    inertia, when given, also defines the current.
    """
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
    phi1, phi2 = _on_grid(phi1, box, n, edges=True), _on_grid(phi2, box, n, edges=True)

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
        grid=grid,
        psi1=psi.psi1,
        psi2=psi.psi2,
        chi2=chi2,
        phi1=phi1,
        phi2=phi2,
        dphi1=_on_grid(d1, win, n),
        dphi2=_on_grid(d2, win, n),
        cov1=_on_grid(g1, win, n),
        cov2=_on_grid(g2, win, n),
        connection=_on_grid(A, win, n),
        metric=_on_grid(metric, win, n),
        mask=mask,
        extended=~support,
        window=win,
        method=method,
        inertia=inertia,
    )


def geometric_energy(dec: EFDecomposition) -> float:
    """Geometric kinetic energy: inertia/2 times the integral of the marginal
    density against the metric, over the support mask."""
    if dec.inertia is None:
        raise ConfigError("inertia required: decompose with inertia set")
    weight = np.where(dec.mask, dec.chi2, 0.0)
    return float(0.5 * dec.inertia * dec.grid.integrate(weight * dec.metric))


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
        grid.integrate(dchi ** 2) + grid.integrate(weight * dec.connection ** 2)
    )

    lap1 = grid.derivative(dec.psi1, 2, "spectral")
    lap2 = grid.derivative(dec.psi2, 2, "spectral")
    total = -0.5 * inertia * grid.integrate(
        np.real(np.conj(dec.psi1) * lap1 + np.conj(dec.psi2) * lap2)
    )
    return KineticPartition(marginal=float(marginal), geometric=geometric, total=float(total))
