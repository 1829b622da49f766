"""Uniform periodic 1D grid with spectral and finite-difference calculus.

The grid follows the periodic convention: point i sits at x_min + i*dx with
dx = (x_max - x_min)/n, so x_max itself is identified with x_min.  All
operations are pure functions of their arguments and are safe to call
concurrently on shared inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

# Central first-derivative stencils (c, s) of both finite-difference layers:
# f'_i ~ sum_j c_j (f_{i+j} - f_{i-j}) / (s dx).
_D1_COEFFS = {
    "fd4": ((8.0, -1.0), 12.0),
    "fd12": ((6 / 7, -15 / 56, 5 / 63, -1 / 56, 1 / 385, -1 / 5544), 1.0),
}
# first-derivative methods of Grid1D.derivative
METHODS = ("spectral", *_D1_COEFFS)


def check_method(method, known=METHODS):
    """Refuse a method that is not one of `known`, naming both."""
    if method not in known:
        raise ConfigError(f"unknown method {method!r}; known methods: {', '.join(known)}")


def central_difference(f, coeffs, h, axis=-1, window=slice(None)):
    """Periodic sum_j c_j (f_{i+j} - f_{i-j}) / h along one axis, at the
    points i of window (a slice of indices; by default every point).

    Every shifted operand is a slice view of one array that holds the
    w = len(coeffs) neighbours on either side of the window: f itself when the
    window lies w points inside the axis, else a wrapped copy of the window's
    points and their w neighbours on either side.  Starts from the first term
    and adds the rest in place: fixed order, fixed bits, so each point of a
    window gets the bits it gets when the stencil runs over the whole axis.
    """
    f = np.asarray(f)
    axis = axis % f.ndim
    n = f.shape[axis]
    w = len(coeffs)
    lo, hi, step = window.indices(n)
    if step != 1:
        raise ValueError(f"window {window} is not a slice of consecutive points")
    hi = max(hi, lo)
    lead = (slice(None),) * axis
    if w <= lo and hi <= n - w:
        padded, start = f, lo
    else:
        padded, start = np.take(f, np.arange(lo - w, hi + w), axis, mode="wrap"), w

    def shifted(k):
        return padded[lead + (slice(start + k, start + k + hi - lo),)]

    out = coeffs[0] * (shifted(1) - shifted(-1))
    for j, cj in enumerate(coeffs[1:], start=2):
        out += cj * (shifted(j) - shifted(-j))
    return out / h


def five_point(f_m2, f_m1, f_p1, f_p2, h):
    """4th-order central rate from samples at offsets -2h, -h, +h, +2h, in
    one fixed operation order."""
    return (f_m2 - 8.0 * f_m1 + 8.0 * f_p1 - f_p2) / (12.0 * h)


def _validated(grid, values):
    f = np.asarray(values)
    if f.shape != (grid.n,):
        raise ConfigError(f"field has shape {f.shape}, expected ({grid.n},)")
    if not np.all(np.isfinite(f)):
        raise ConfigError("field contains non-finite entries")
    return f


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [x_min, x_max) with n points."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if not 16 <= self.n <= 2 ** 53:  # the index i in x_min + i*dx is exact up to 2**53
            raise ConfigError(f"n = {self.n} outside [16, 2**53]")
        if not 0.0 < self.dx < np.inf:  # x_max > x_min, and no under- or overflow
            raise ConfigError(f"x_min = {self.x_min}, x_max = {self.x_max} give spacing dx = {self.dx}")
        # the largest wavenumber is pi/dx, and fftfreq divides by n dx on the way
        if not math.isfinite(2.0 * math.pi / self.dx):
            raise ConfigError(f"spacing dx = {self.dx} is too small: 2 pi/dx overflows")
        # coordinate arrays are built once and shared by every reader, so
        # they are read-only: a write would change the grid for all of them
        x = self.x_min + self.dx * np.arange(self.n)
        k = 2.0 * np.pi * np.fft.fftfreq(self.n, self.dx)
        for name, arr in (("_x", x), ("_wavenumbers", k)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def x(self) -> np.ndarray:
        """Grid points x_min + i*dx (read-only)."""
        return self._x

    @property
    def wavenumbers(self) -> np.ndarray:
        """FFT-ordered angular wavenumbers 2 pi fftfreq(n, dx) (read-only)."""
        return self._wavenumbers

    def derivative(self, values, order: int = 1, method: str = "spectral",
                   window: slice = slice(None)) -> np.ndarray:
        """Pointwise derivative of a field sampled on the grid, at the points
        of window (a slice of indices; by default every point).

        method "spectral" is exact for band-limited periodic input and gives
        order 1 or 2 on the whole grid only; the fd variants are central
        first-derivative stencils of the named order with periodic wrap, and
        read the window plus the stencil's half-width on either side.  Local
        stencils are the right choice for fields that are smooth on the grid
        but not periodic across the wrap (only the wrap-adjacent points are
        then polluted).
        """
        f = _validated(self, values)
        if method in _D1_COEFFS and order == 1:
            coeffs, scale = _D1_COEFFS[method]
            return central_difference(f, coeffs, scale * self.dx, window=window)
        if method != "spectral" or order not in (1, 2) or window.indices(self.n)[:2] != (0, self.n):
            raise ValueError(f"no {method!r} derivative of order {order} on {window}")
        fh = np.fft.fft(f)
        k = self.wavenumbers
        if order == 1:
            sym = 1j * k
            if self.n % 2 == 0:
                sym[self.n // 2] = 0.0  # Nyquist mode carries no odd derivative
            out = np.fft.ifft(sym * fh)
        else:
            out = np.fft.ifft(-(k ** 2) * fh)
        return out if np.iscomplexobj(f) else out.real

    def integrate(self, values) -> float:
        """Periodic rectangle rule, spectrally accurate for periodic or
        edge-decayed integrands."""
        f = _validated(self, values)
        return self.dx * np.sum(f)

    def cumulative_integral(self, values) -> np.ndarray:
        """Antiderivative F(x) = int_{x_min}^{x} f dx', so F(x_min) = 0.

        Splits off the mean and integrates the oscillatory part spectrally
        exactly; the integrand must be periodic or decayed at the domain edges.
        """
        f = _validated(self, values)
        fh = np.fft.fft(f)
        k = self.wavenumbers.copy()
        k[0] = 1.0
        sym = fh / (1j * k)
        sym[0] = 0.0
        if self.n % 2 == 0:
            sym[self.n // 2] = 0.0
        F = np.fft.ifft(sym) + fh[0] / self.n * (self.x - self.x_min)
        if not np.iscomplexobj(f):
            F = F.real
        return F - F[0]
