"""Uniform periodic 1D grid with spectral and finite-difference calculus.

The grid follows the periodic convention: point i sits at x_min + i*dx with
dx = (x_max - x_min)/n, so x_max itself is identified with x_min.  All
operations are pure functions of their arguments and are safe to call
concurrently on shared inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError, InvalidField

# Central first-derivative stencils: f'_i ~ sum_j c_j (f_{i+j} - f_{i-j}) / dx.
_D1_COEFFS = {
    "fd4": (2 / 3, -1 / 12),
    "fd8": (4 / 5, -1 / 5, 4 / 105, -1 / 280),
    "fd12": (6 / 7, -15 / 56, 5 / 63, -1 / 56, 1 / 385, -1 / 5544),
}
# Central second-derivative wing weights d_j; applied in difference form
# sum_j d_j ((f_{i+j} - f_i) + (f_{i-j} - f_i)) / dx^2 so that constants
# cancel exactly in floating point.
_D2_WINGS = {
    "fd4": (4 / 3, -1 / 12),
    "fd8": (8 / 5, -1 / 5, 8 / 315, -1 / 560),
    "fd12": (12 / 7, -15 / 56, 10 / 189, -1 / 112, 2 / 1925, -1 / 16632),
}
# every method Grid1D.derivative accepts
DERIVATIVE_METHODS = ("spectral", *_D1_COEFFS)


def central_difference(f, coeffs, h, axis=-1, step=1):
    """Periodic sum_j c_j (f_{i+j*step} - f_{i-j*step}) / h along one axis.

    Every shifted operand is a slice view of one wrapped copy of f, which
    holds w = len(coeffs)*step <= n entries of periodic image on either side.
    Starts from the first term and adds the rest in place: fixed order, fixed bits.
    """
    f = np.asarray(f)
    axis = axis % f.ndim
    n = f.shape[axis]
    w = len(coeffs) * step
    lead = (slice(None),) * axis
    padded = np.concatenate([f[lead + (slice(n - w, None),)], f, f[lead + (slice(0, w),)]], axis)

    def shifted(k):
        return padded[lead + (slice(w + k, w + k + n),)]

    out = coeffs[0] * (shifted(step) - shifted(-step))
    for j, cj in enumerate(coeffs[1:], start=2):
        out += cj * (shifted(j * step) - shifted(-j * step))
    return out / h


def five_point(f_m2, f_m1, f_p1, f_p2, h):
    """4th-order central rate from samples at offsets -2h, -h, +h, +2h, in
    one fixed operation order."""
    return (f_m2 - 8.0 * f_m1 + 8.0 * f_p1 - f_p2) / (12.0 * h)


def _validated(grid, values):
    f = np.asarray(values)
    if f.shape != (grid.n,):
        raise InvalidField(f"field has shape {f.shape}, expected ({grid.n},)")
    if not np.all(np.isfinite(f)):
        raise InvalidField("field contains non-finite entries")
    return f


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid on [x_min, x_max) with n points."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        if self.n < 16:
            raise GridError(f"n = {self.n} < 16")
        if not self.x_max > self.x_min:
            raise GridError("x_max must exceed x_min")
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

    def derivative(self, values, order: int = 1, method: str = "spectral") -> np.ndarray:
        """Pointwise derivative of a field sampled on the grid.

        method "spectral" is exact for band-limited periodic input; the fd
        variants are central stencils of the named order with periodic wrap.
        Local stencils are the right choice for fields that are smooth on the
        grid but not periodic across the wrap (only the wrap-adjacent points
        are then polluted).
        """
        f = _validated(self, values)
        if order not in (1, 2):
            raise ValueError(f"order must be 1 or 2, got {order}")
        if method == "spectral":
            return self._spectral_derivative(f, order)
        if method in _D1_COEFFS:
            return self._fd_derivative(f, order, method)
        raise ValueError(f"unknown derivative method {method!r}")

    def _spectral_derivative(self, f, order):
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

    def _fd_derivative(self, f, order, method):
        if order == 1:
            return central_difference(f, _D1_COEFFS[method], self.dx)
        out = np.zeros_like(f)
        for j, dj in enumerate(_D2_WINGS[method], start=1):
            out += dj * ((np.roll(f, -j) - f) + (np.roll(f, j) - f))
        return out / self.dx ** 2

    def integrate(self, values) -> float:
        """Periodic rectangle rule, spectrally accurate for periodic or
        edge-decayed integrands."""
        f = _validated(self, values)
        return self.dx * np.sum(f)

    def cumulative_integral(self, values, x_ref: float, method: str = "trapezoid") -> np.ndarray:
        """Antiderivative F(x) = int_{x_ref}^{x} f dx' with F(x_ref) = 0.

        "trapezoid" is local with monotone O(dx^2) error.  "spectral" splits
        off the mean and integrates the oscillatory part exactly; it needs an
        integrand that is periodic or decayed at the domain edges.
        """
        f = _validated(self, values)
        if not (self.x_min <= x_ref <= self.x[-1]):
            raise DomainError(f"x_ref = {x_ref} outside [{self.x_min}, {self.x[-1]}]")
        if method == "trapezoid":
            F = np.zeros(self.n, dtype=f.dtype if np.iscomplexobj(f) else float)
            F[1:] = np.cumsum(0.5 * (f[1:] + f[:-1])) * self.dx
        elif method == "spectral":
            F = self._spectral_antiderivative(f)
        else:
            raise ValueError(f"unknown cumulative method {method!r}")
        if np.iscomplexobj(F):
            offset = np.interp(x_ref, self.x, F.real) + 1j * np.interp(x_ref, self.x, F.imag)
        else:
            offset = np.interp(x_ref, self.x, F)
        return F - offset

    def _spectral_antiderivative(self, f):
        fh = np.fft.fft(f)
        mean = fh[0] / self.n
        k = self.wavenumbers.copy()
        k[0] = 1.0
        sym = fh / (1j * k)
        sym[0] = 0.0
        if self.n % 2 == 0:
            sym[self.n // 2] = 0.0
        P = np.fft.ifft(sym)
        ramp = mean * (self.x - self.x_min)
        out = P + ramp
        return out if np.iscomplexobj(f) else out.real

    def edges_decayed(self, values, rel_tol: float = 1e-12, margin: int = 8) -> bool:
        """Domain-adequacy check: field magnitude within `margin` points of
        either edge has decayed below rel_tol of its maximum."""
        f = np.abs(_validated(self, values))
        scale = f.max()
        if scale == 0.0:
            return True
        edge = max(f[:margin].max(), f[-margin:].max())
        return bool(edge <= rel_tol * scale)
