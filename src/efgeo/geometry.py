"""Synthetic multi-dimensional check bench for the rank-3 tensor identities.

A two-level conditional state parametrized over a periodic d-dimensional
grid provides every geometric object of interest: Berry connection and
curvature, quantum metric, the rank-3 tensors and the Christoffel symbol of
the metric.  The identities relating them are exact in the continuum, so
their discrete residuals are pure stencil truncation and must shrink at the
stencil order under refinement.  Derivatives are 4th-order central stencils
with periodic wrap; recipes must therefore produce periodic spinors.

build_family evaluates a recipe into that state, a spinor array, on the
whole grid or on given axis-0 rows.  Every stencil and product is local, so
identity_residuals works in one pass over slabs of about SLAB_POINTS grid
points, whole axis-0 rows each: tensors(phi, rows, carry) builds a slab's
spinor rows from the recipe, its first-derivative fields and its rank-3
tensors, and takes over from the slab before it the rows of those fields
that both hold (the carry).  A lead slab of zero rows builds the halo that
wraps in below row 0, so every slab that holds rank-3 tensors starts from a
carry.  Every row's first derivatives are taken once, no field of the grid
is held whole, and every point keeps the bits of the whole-grid evaluation.

Index convention for the Christoffel symbol of the first kind, chosen so
that the imaginary rank-3 tensor is exactly its negative:
Gamma[m,n,t] = (d_t g[m,n] + d_n g[m,t] - d_m g[n,t]) / 2.  Classical
references permute these indices differently.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError
from .grid import _D1_COEFFS, central_difference

_W_BOUND = 1.0 - 1e-3
# grid points per slab, in whole axis-0 rows and at least one.  The largest
# slab sets the tensor bench's peak memory.  perfbench tensors (64^3 + 72^3,
# 2-vCPU Xeon), medians of 3 alternating rounds, with the lead slab:
#   rows' worth at 72^3    2       3       4
#   run_s                  1.68 s  1.60 s  1.48 s
#   peak_rss_mb            57.6    61.8    67.7
# Peak memory is the bench's defining cost, so 2 rows' worth: in 10
# alternating pairs against 4 rows' worth with no lead slab it peaked 17 %
# lower, at a run_s 2.7 % higher.
SLAB_POINTS = 2 * 72 ** 2


@dataclass(frozen=True)
class ParamGrid:
    """Periodic uniform grid of period 2 pi along each axis of a
    d-dimensional parameter manifold.

    d = 2 and d = 3 are the verification targets; d = 1 is allowed as the
    embedding used to cross-check the 1D module on identical fields.
    """

    shape: tuple

    def __post_init__(self):
        try:  # operator.index refuses a float size rather than truncate it
            shape = tuple(operator.index(m) for m in self.shape)
        except TypeError:
            raise ConfigError(f"shape {self.shape!r} is not a tuple of integer sizes") from None
        object.__setattr__(self, "shape", shape)
        if not 1 <= len(shape) <= 3:
            raise ConfigError(f"dimension {len(shape)} not in 1..3")
        if any(m < 32 for m in shape):
            raise ConfigError(f"need >= 32 points per axis, got {shape}")

    @property
    def d(self) -> int:
        return len(self.shape)

    @property
    def spacings(self) -> tuple:
        return tuple(2.0 * np.pi / m for m in self.shape)

    def meshes(self, rows=None):
        """Open coordinate meshes: axis k varies along dimension k only.  Given
        axis-0 row indices, axis 0 holds the coordinates of those rows,
        wrapped round the axis: row i has the coordinate of row i mod m."""
        axes = [h * np.arange(m) for h, m in zip(self.spacings, self.shape)]
        if rows is not None:
            axes[0] = np.take(axes[0], rows, mode="wrap")
        return np.meshgrid(*axes, indexing="ij", sparse=True)

    def diff(self, values: np.ndarray, axis: int, rows: slice = slice(None)) -> np.ndarray:
        """4th-order central derivative along one axis, periodic wrap (the
        stencil of Grid1D's fd4), on a slice of consecutive axis-0 rows."""
        coeffs, scale = _D1_COEFFS["fd4"]
        window, values = (rows, values) if axis == 0 else (slice(None), values[rows])
        return central_difference(values, coeffs, scale * self.spacings[axis], axis, window)


@dataclass(frozen=True)
class FamilyRecipe:
    """Callables producing w, phi and the gauge phase on the open mesh
    coordinates of ParamGrid.meshes; each result broadcasts to the grid."""

    w: Callable
    phi: Callable
    a: Callable


def smooth_recipe() -> FamilyRecipe:
    """Generic band-limited family exercising every tensor component."""

    def w(*Q):
        out = 0.25 + 0.15 * np.sin(Q[0] + 0.4) * (np.cos(Q[1]) if len(Q) > 1 else 1.0)
        if len(Q) > 2:
            out = out + 0.1 * 0.15 * np.sin(Q[2])
        return out

    def phi(*Q):
        out = 0.18 * np.cos(Q[0]) + 0.2
        if len(Q) > 1:
            out = out + 0.8 * 0.18 * np.sin(Q[1] + 0.3)
        if len(Q) > 2:
            out = out + 0.5 * 0.18 * np.cos(Q[2] + 0.1)
        return out

    def a(*Q):
        out = 0.09 * np.sin(Q[0] + 0.2)
        if len(Q) > 1:
            out = out + 0.7 * 0.09 * np.cos(Q[1])
        return out

    return FamilyRecipe(w=w, phi=phi, a=a)


def pure_gauge_recipe() -> FamilyRecipe:
    """Constant Bloch angles with the linear (grid-eigenmode) gauge phase
    a = Q^1, periodic over the 2 pi axis.

    For a linear phase every discrete tensor vanishes identically, so the
    identity residuals are exactly zero.
    """
    return FamilyRecipe(w=lambda *Q: 0.3, phi=lambda *Q: 0.4, a=lambda *Q: Q[0])


def constant_recipe() -> FamilyRecipe:
    """Constant spinor everywhere: every tensor vanishes."""
    return FamilyRecipe(w=lambda *Q: 0.2, phi=lambda *Q: 0.5, a=lambda *Q: 0.0)


NAMED_RECIPES = {
    "smooth": smooth_recipe,
    "pure-gauge": pure_gauge_recipe,
    "constant": constant_recipe,
}


def build_family(recipe: FamilyRecipe, grid: ParamGrid, rows=None) -> np.ndarray:
    """The two-level conditional state of a recipe over a ParamGrid: a complex
    array of shape (2,) + grid.shape; smooth and periodic.

    Given axis-0 row indices, only those rows, wrapped round the axis, in an
    array of shape (2, len(rows)) + grid.shape[1:]: each point takes its
    coordinates from ParamGrid.meshes, so it gets the bits of the whole-grid
    build, and |w| is checked on those rows alone.  The gauge field enters as
    a full overall phase, so a pure gauge change a -> a + theta shifts the
    connection by exactly the gradient of theta.
    """
    Q = grid.meshes(rows)
    shape = Q[0].shape[:1] + grid.shape[1:]
    fields = []
    for name in ("w", "phi", "a"):
        arr = np.asarray(getattr(recipe, name)(*Q), dtype=float)
        try:
            arr = np.broadcast_to(arr, shape)
        except ValueError:
            raise ConfigError(f"recipe field {name} has shape {arr.shape}, expected {shape}") from None
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"recipe field {name} is not finite")
        fields.append(arr)
    w, phi, a = fields
    if np.max(np.abs(w)) > _W_BOUND:
        raise ConfigError(f"|w| reaches {np.max(np.abs(w)):.4f} > {_W_BOUND}")
    half = np.arccos(w) / 2.0
    up = np.exp(1j * (a - 0.5 * phi)) * np.cos(half)
    dn = np.exp(1j * (a + 0.5 * phi)) * np.sin(half)
    return np.stack([up, dn])


@dataclass(frozen=True)
class TensorFieldSet:
    """All tensors of a family on a slab of axis-0 grid rows: connection
    a[mu], curvature b[mu,nu], metric g[mu,nu] and rank-3 c/d[mu,nu,tau], with
    the spinor's first derivatives dphi[mu] and the connection gradient
    da[nu,tau] = d_nu a[tau], whose antisymmetric part is b.  base holds a,
    dphi, da, g and the covariant derivative G on the slab's rows and one fd4
    half-width on either side; window is the slab's rows among them.  carry
    holds the rows that the next slab takes over, as views.  The Christoffel
    symbol is never held whole: _christoffel_pieces yields it one component
    at a time."""

    grid: ParamGrid
    window: slice
    a: np.ndarray
    b: np.ndarray
    g: np.ndarray
    c: np.ndarray
    d: np.ndarray
    dphi: np.ndarray = field(repr=False)
    da: np.ndarray = field(repr=False)
    base: dict = field(repr=False)
    carry: dict = field(repr=False)

    def diff(self, values: np.ndarray, axis: int) -> np.ndarray:
        """The derivative of a field of base on the slab's rows."""
        return self.grid.diff(values, axis, self.window)


def _symmetric_derivatives(D, field, d):
    """Table of D(field(m, n), t) for a field symmetric in (m, n).

    Each derivative is taken once, for m <= n, and stored under both index
    orders; field(n, m) must hold the same values as field(m, n), so the
    lookup is bit-exact.
    """
    table = {}
    for m in range(d):
        for n in range(m, d):
            f = field(m, n)
            for t in range(d):
                table[m, n, t] = table[n, m, t] = D(f, t)
    return table


def _christoffel_pieces(ts: TensorFieldSet):
    """(mu, nu, tau) and gamma[mu,nu,tau] on the slab, one component at a
    time, from one table of the metric's derivatives."""
    dg = _symmetric_derivatives(ts.diff, lambda m, n: ts.base["g"][m, n], ts.grid.d)
    for mu, nu, tau in np.ndindex((ts.grid.d,) * 3):
        yield (mu, nu, tau), 0.5 * (dg[mu, nu, tau] + dg[mu, tau, nu] - dg[nu, tau, mu])


def tensors(phi, rows: slice = slice(None), carry: dict | None = None) -> TensorFieldSet:
    """The TensorFieldSet of a spinor on a slice of axis-0 rows, by default
    every row; row indices wrap round the axis.  phi is the spinor from
    build_family, or a (recipe, grid) pair whose rows the slab builds with
    build_family.  An empty slice, slice(0, 0), is the lead slab: it holds no
    rank-3 tensors, only the halo rows that wrap in below row 0, and its carry
    starts the slab at row 0.

    The spinor is held on the slab's rows and three fd4 half-widths on either
    side, dphi and a on two, the covariant derivative
    G[mu] = -i dphi[mu] - a[mu] phi, g and da on one.  Given the carry of the
    slab that ends where this one starts, each field takes over the carried
    rows and builds only the rows past them; the carry lets go of each, so
    that the slab before is freed field by field.
    """
    if isinstance(phi, np.ndarray):
        grid = ParamGrid(phi.shape[1:])

        def source(idx):
            return np.take(phi, idx, axis=1, mode="wrap")
    else:
        recipe, grid = phi

        def source(idx):
            return build_family(recipe, grid, idx)
    d = grid.d
    D = grid.diff
    lo, hi, _ = rows.indices(grid.shape[0])
    w = len(_D1_COEFFS["fd4"][0])
    carried = carry is not None
    if carried and carry["stop"] != lo:
        raise ValueError(f"slab {rows} does not start at row {carry['stop']}, where the carry stops")

    def field(name, lead, k, dtype=float):
        """A field on the rows up to k half-widths past either side of the
        slab, after leading axes `lead`, with the carried rows copied in; and
        the slice of the rows left to build."""
        kept = carry[name].shape[len(lead)] if carried else 0
        built = hi - lo + (0 if carried else 2 * k * w)
        out = np.empty(lead + (kept + built,) + grid.shape[1:], dtype)
        if carried:
            out[(slice(None),) * len(lead) + (slice(0, kept),)] = carry.pop(name)
        return out, slice(kept, kept + built)

    def before(new, held, gap):
        """The rows of a source of held rows that line up with a field's new
        rows; the source ends gap rows past the field."""
        return slice(held - gap - (new.stop - new.start), held - gap)

    # each field ends k half-widths past the slab: the spinor 3, dphi and a 2,
    # the fields of base 1; a stencil reads one half-width past its rows
    spinor, new = field("spinor", (2,), 3, complex)
    spinor[:, new] = source(np.arange(hi + 3 * w - spinor.shape[1], hi + 3 * w)[new])
    dphi, new = field("dphi", (d, 2), 2, complex)
    A, _ = field("a", (d,), 2)
    rows2 = before(new, spinor.shape[1], w)
    for mu in range(d):
        for s in range(2):
            dphi[mu, s, new] = D(spinor[s], mu, rows2)
        A[mu, new] = np.imag(np.conj(spinor[0, rows2]) * dphi[mu, 0, new]
                             + np.conj(spinor[1, rows2]) * dphi[mu, 1, new])
    da, new = field("da", (d, d), 1)
    G, _ = field("G", (d, 2), 1, complex)
    g, _ = field("g", (d, d), 1)
    rows1 = before(new, A.shape[1], w)
    phi_new = spinor[:, before(new, spinor.shape[1], 2 * w)]
    for nu in range(d):
        for tau in range(d):
            da[nu, tau, new] = D(A[tau], nu, rows1)
    for mu in range(d):
        G[mu, :, new] = -1j * dphi[mu][:, rows1] - A[mu][rows1] * phi_new
    for m in range(d):
        for n in range(m, d):
            g[m, n, new] = g[n, m, new] = np.real(np.conj(G[m, 0, new]) * G[n, 0, new]
                                                  + np.conj(G[m, 1, new]) * G[n, 1, new])
    held = slice(A.shape[1] - w - G.shape[2], A.shape[1] - w)  # the rows of base
    base = dict(a=A[:, held], dphi=dphi[:, :, held], da=da, g=g, G=G)
    # the rows the next slab, which starts at hi, holds below its own new rows
    carry = dict(stop=hi, spinor=spinor[:, -2 * w:], dphi=dphi[:, :, -3 * w:], a=A[:, -3 * w:],
                 da=da[:, :, -2 * w:], G=G[:, :, -2 * w:], g=g[:, :, -2 * w:])

    window = slice(w, w + hi - lo)
    A, G, da = base["a"][:, window], G[:, :, window], da[:, :, window]
    c = np.empty((d, d, d) + A.shape[1:])
    dten = np.empty((d, d, d) + A.shape[1:])
    for nu in range(d):
        for tau in range(d):
            H = [-1j * D(base["G"][tau][s], nu, window) - A[nu] * G[tau][s] for s in range(2)]
            for mu in range(d):
                bracket = np.conj(G[mu][0]) * H[0] + np.conj(G[mu][1]) * H[1]
                c[mu, nu, tau] = bracket.real
                dten[mu, nu, tau] = bracket.imag
    # the curvature is the antisymmetric part: b[mu, nu] = da[mu, nu] - da[nu, mu]
    return TensorFieldSet(grid=grid, window=window, a=A, b=da - da.swapaxes(0, 1),
                          g=g[:, :, window], c=c, d=dten, dphi=base["dphi"][:, :, window], da=da,
                          base=base, carry=carry)


def _peak(residual):
    """max |r| of one residual piece."""
    return np.max(np.abs(residual))


def _report(peaks) -> float:
    """The largest of the per-piece peaks.  np.max, unlike the built-in max,
    is NaN when any peak is NaN."""
    return float(np.max(list(peaks)))


def check_cb_identity(ts: TensorFieldSet) -> float:
    """Residual of c[tau,sigma,mu] - c[mu,sigma,tau] - d_sigma b[tau,mu] / 2.

    b is antisymmetric with a zero diagonal, and the stencil commutes
    exactly with negation, so d_sigma b[mu,tau] = -d_sigma b[tau,mu] bit for
    bit: only tau < mu is differentiated, and the diagonal residual is c - c.
    """
    d = ts.grid.d
    c, da = ts.c, ts.base["da"]

    def pieces():
        for tau in range(d):
            for sig in range(d):
                yield c[tau, sig, tau] - c[tau, sig, tau]
                for mu in range(tau + 1, d):
                    half_db = 0.5 * ts.diff(da[tau, mu] - da[mu, tau], sig)
                    yield c[tau, sig, mu] - c[mu, sig, tau] - half_db
                    yield c[mu, sig, tau] - c[tau, sig, mu] + half_db

    return _report(map(_peak, pieces()))


def check_d_christoffel(ts: TensorFieldSet) -> float:
    """Residual of d + gamma, one component at a time: gamma is never built
    whole."""
    return _report(_peak(ts.d[i] + piece) for i, piece in _christoffel_pieces(ts))


def check_symmetries(ts: TensorFieldSet) -> dict:
    d = ts.grid.d
    out = {}
    for name, ten in (("c_last_two_symmetric", ts.c), ("d_last_two_symmetric", ts.d)):
        sym = (ten[m, n, t] - ten[m, t, n] for m, n, t in np.ndindex((d,) * 3))
        out[name] = _report(map(_peak, sym))
    return out


def check_decompositions(ts: TensorFieldSet) -> dict:
    """Residuals of the raw-derivative expansions of the rank-3 tensors and
    of the real-part identity that closes them."""
    d = ts.grid.d
    D = ts.diff
    dphi, A, g, b, da = ts.dphi, ts.a, ts.g, ts.b, ts.da
    base = ts.base
    dgaa = _symmetric_derivatives(D, lambda m, n: base["g"][m, n] + base["a"][m] * base["a"][n], d)

    # peaks of |residual| per piece: no full residual outlives its iteration,
    # and the spinor's second derivatives live for one (nu, tau)
    d_raw, c_raw, real_part = [], [], []
    for nu in range(d):
        for tau in range(d):
            ddphi = [D(base["dphi"][tau][s], nu) for s in range(2)]
            for mu in range(d):
                raw = np.conj(dphi[mu][0]) * ddphi[0] + np.conj(dphi[mu][1]) * ddphi[1]
                d_expected = (
                    -raw.real
                    - 0.5 * b[mu, nu] * A[tau]
                    - 0.5 * b[mu, tau] * A[nu]
                    + 0.5 * A[mu] * da[nu, tau]
                    + 0.5 * A[mu] * da[tau, nu]
                )
                d_raw.append(_peak(ts.d[mu, nu, tau] - d_expected))
                c_expected = (
                    raw.imag
                    - A[mu] * g[nu, tau]
                    - A[nu] * g[mu, tau]
                    - A[tau] * g[mu, nu]
                    - A[mu] * A[nu] * A[tau]
                )
                c_raw.append(_peak(ts.c[mu, nu, tau] - c_expected))
                rp = dgaa[mu, nu, tau] + dgaa[mu, tau, nu] - dgaa[nu, tau, mu]
                real_part.append(_peak(2.0 * raw.real - rp))
    return {
        "d_raw_expansion": _report(d_raw),
        "c_raw_expansion": _report(c_raw),
        "real_part_identity": _report(real_part),
    }


IDENTITY_NAMES = (
    "d_raw_expansion",
    "c_raw_expansion",
    "real_part_identity",
    "d_plus_christoffel",
    "c_b_exchange",
)


def _slab_residuals(phi, rows: slice, carry: dict | None) -> tuple:
    """Peak |residual| of the five identities on one slab, and the slab's
    carry.  The slab is freed on return but for the fields that the carry's
    views hold, which the next slab frees as it takes their rows over."""
    ts = tensors(phi, rows, carry)
    peaks = {**check_decompositions(ts), "d_plus_christoffel": check_d_christoffel(ts),
             "c_b_exchange": check_cb_identity(ts)}
    return peaks, ts.carry


def identity_residuals(recipe: FamilyRecipe, grid: ParamGrid) -> dict:
    """Peak |residual| of the five identities on one grid, by name: the
    largest of their peaks on each slab of SLAB_POINTS // (points per axis-0
    row) rows, at least one.  The slabs run in row order, each building its
    own rows of the spinor from the recipe and taking over the overlap that
    the slab before it carries; the lead slab of zero rows builds the rows
    that wrap in below row 0 and carries them to the first.  No field of the
    grid is held whole."""
    m = grid.shape[0]
    step = max(1, SLAB_POINTS // int(np.prod(grid.shape[1:])))
    slabs, carry = [], tensors((recipe, grid), slice(0, 0)).carry
    for start in range(0, m, step):
        peaks, carry = _slab_residuals((recipe, grid), slice(start, min(start + step, m)), carry)
        slabs.append(peaks)
    return {name: _report(slab[name] for slab in slabs) for name in IDENTITY_NAMES}


def convergence_study(recipe: FamilyRecipe, sizes, d: int) -> dict:
    """Identity residuals across grid refinements with fitted orders.

    Returns {identity: {"sizes": [...], "max_abs": [...], "order": slope}}.
    The order is the least-squares slope of log(residual) against log(1/n)
    and is reported as nan when the residuals sit at the roundoff floor.
    """
    results = {name: [] for name in IDENTITY_NAMES}
    for m in sizes:
        res = identity_residuals(recipe, ParamGrid(shape=(m,) * d))
        for name in IDENTITY_NAMES:
            results[name].append(res[name])
    out = {}
    for name, vals in results.items():
        vals_arr = np.asarray(vals)
        if np.all(vals_arr > 1e-14):
            slope = float(np.polyfit(np.log(1.0 / np.asarray(sizes, dtype=float)), np.log(vals_arr), 1)[0])
        else:
            slope = float("nan")
        out[name] = {"sizes": list(sizes), "max_abs": vals, "order": slope}
    return out
