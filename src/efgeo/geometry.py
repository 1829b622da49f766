"""Synthetic multi-dimensional check bench for the rank-3 tensor identities.

A two-level conditional state parametrized over a periodic d-dimensional
grid provides every geometric object of interest: Berry connection and
curvature, quantum metric, the rank-3 tensors and the Christoffel symbol of
the metric.  The identities relating them are exact in the continuum, so
their discrete residuals are pure stencil truncation and must shrink at the
stencil order under refinement.  Derivatives are 4th-order central stencils
with periodic wrap; recipes must therefore produce periodic spinors.

Index convention for the Christoffel symbol of the first kind, chosen so
that the imaginary rank-3 tensor is exactly its negative:
Gamma[m,n,t] = (d_t g[m,n] + d_n g[m,t] - d_m g[n,t]) / 2.  Classical
references permute these indices differently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError
from .grid import central_difference

_W_BOUND = 1.0 - 1e-3


@dataclass(frozen=True)
class ParamGrid:
    """Periodic uniform grid over a d-dimensional parameter manifold.

    d = 2 and d = 3 are the verification targets; d = 1 is allowed as the
    embedding used to cross-check the 1D module on identical fields.
    """

    shape: tuple
    lengths: tuple = None

    def __post_init__(self):
        shape = tuple(int(m) for m in self.shape)
        object.__setattr__(self, "shape", shape)
        if not 1 <= len(shape) <= 3:
            raise ConfigError(f"dimension {len(shape)} not in 1..3")
        if any(m < 32 for m in shape):
            raise ConfigError(f"need >= 32 points per axis, got {shape}")
        lengths = self.lengths or (2.0 * np.pi,) * len(shape)
        lengths = tuple(float(L) for L in lengths)
        if len(lengths) != len(shape) or any(L <= 0 for L in lengths):
            raise ConfigError("lengths must be positive, one per axis")
        object.__setattr__(self, "lengths", lengths)

    @property
    def d(self) -> int:
        return len(self.shape)

    @property
    def spacings(self) -> tuple:
        return tuple(L / m for L, m in zip(self.lengths, self.shape))

    def meshes(self):
        axes = [h * np.arange(m) for h, m in zip(self.spacings, self.shape)]
        return np.meshgrid(*axes, indexing="ij")

    def diff(self, values: np.ndarray, axis: int) -> np.ndarray:
        """4th-order central derivative along one axis, periodic wrap."""
        return central_difference(values, (8.0, -1.0), 12.0 * self.spacings[axis], axis, 1)


@dataclass(frozen=True)
class FamilyRecipe:
    """Callables producing w, phi and the gauge phase on mesh coordinates."""

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
        return np.broadcast_to(out, np.broadcast_shapes(*[q.shape for q in Q])).copy()

    return FamilyRecipe(w=w, phi=phi, a=a)


def _const(value):
    """Recipe field equal to value on every mesh point."""

    def f(*Q):
        return np.full(np.broadcast_shapes(*[q.shape for q in Q]), value)

    return f


def pure_gauge_recipe(mode: int = 1) -> FamilyRecipe:
    """Constant Bloch angles with a linear (grid-eigenmode) gauge phase.

    For a linear phase every discrete tensor vanishes identically, so the
    identity residuals are exactly zero.
    """
    if mode != int(mode):
        raise ConfigError("pure gauge mode must be an integer to stay periodic")

    def a(*Q):
        return float(mode) * Q[0]

    return FamilyRecipe(w=_const(0.3), phi=_const(0.4), a=a)


def constant_recipe() -> FamilyRecipe:
    """Constant spinor everywhere: every tensor vanishes."""
    return FamilyRecipe(w=_const(0.2), phi=_const(0.5), a=_const(0.0))


NAMED_RECIPES = {
    "smooth": smooth_recipe,
    "pure-gauge": pure_gauge_recipe,
    "constant": constant_recipe,
}


@dataclass(frozen=True)
class TwoLevelFamily:
    """Two-level conditional state over a ParamGrid."""

    grid: ParamGrid
    w: np.ndarray
    phi: np.ndarray
    a: np.ndarray

    def spinor(self) -> np.ndarray:
        """Complex array of shape (2,) + grid.shape; smooth and periodic.

        The gauge field enters as a full overall phase, so a pure gauge
        change a -> a + theta shifts the connection by exactly the gradient
        of theta.
        """
        half = np.arccos(self.w) / 2.0
        up = np.exp(1j * (self.a - 0.5 * self.phi)) * np.cos(half)
        dn = np.exp(1j * (self.a + 0.5 * self.phi)) * np.sin(half)
        return np.stack([up, dn])


def build_family(recipe: FamilyRecipe, grid: ParamGrid) -> TwoLevelFamily:
    Q = grid.meshes()
    w = np.asarray(recipe.w(*Q), dtype=float)
    phi = np.asarray(recipe.phi(*Q), dtype=float)
    a = np.asarray(recipe.a(*Q), dtype=float)
    for name, arr in (("w", w), ("phi", phi), ("a", a)):
        if arr.shape != grid.shape:
            raise ConfigError(f"recipe field {name} has shape {arr.shape}, expected {grid.shape}")
        if not np.all(np.isfinite(arr)):
            raise ConfigError(f"recipe field {name} is not finite")
    if np.max(np.abs(w)) > _W_BOUND:
        raise ConfigError(f"|w| reaches {np.max(np.abs(w)):.4f} > {_W_BOUND}")
    return TwoLevelFamily(grid=grid, w=w, phi=phi, a=a)


@dataclass(frozen=True)
class TensorFieldSet:
    """All tensors of a family: connection a[mu], curvature b[mu,nu], metric
    g[mu,nu], rank-3 c/d[mu,nu,tau] and the Christoffel symbol gamma."""

    grid: ParamGrid
    a: np.ndarray
    b: np.ndarray
    g: np.ndarray
    c: np.ndarray
    d: np.ndarray
    gamma: np.ndarray
    # first derivatives of the spinor, which check_decompositions expands
    dphi: np.ndarray = field(default=None, repr=False)


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


def tensors(family: TwoLevelFamily) -> TensorFieldSet:
    """Evaluate connection, curvature, metric and the rank-3 tensors."""
    grid = family.grid
    d = grid.d
    phi = family.spinor()
    D = grid.diff

    dphi = np.stack([np.stack([D(phi[s], mu) for s in range(2)]) for mu in range(d)])
    A = np.stack(
        [np.imag(np.conj(phi[0]) * dphi[mu][0] + np.conj(phi[1]) * dphi[mu][1]) for mu in range(d)]
    )
    G = np.stack([-1j * dphi[mu] - A[mu] * phi for mu in range(d)])

    shape = grid.shape
    g = np.zeros((d, d) + shape)
    for mu in range(d):
        for nu in range(mu, d):
            val = np.real(np.conj(G[mu][0]) * G[nu][0] + np.conj(G[mu][1]) * G[nu][1])
            g[mu, nu] = val
            g[nu, mu] = val

    b = np.zeros((d, d) + shape)
    for mu in range(d):
        for nu in range(mu + 1, d):
            val = D(A[nu], mu) - D(A[mu], nu)
            b[mu, nu] = val
            b[nu, mu] = -val

    c = np.zeros((d, d, d) + shape)
    dten = np.zeros((d, d, d) + shape)
    for nu in range(d):
        for tau in range(d):
            H = -1j * np.stack([D(G[tau][s], nu) for s in range(2)]) - A[nu] * G[tau]
            for mu in range(d):
                bracket = np.conj(G[mu][0]) * H[0] + np.conj(G[mu][1]) * H[1]
                c[mu, nu, tau] = bracket.real
                dten[mu, nu, tau] = bracket.imag

    dg = _symmetric_derivatives(D, lambda m, n: g[m, n], d)
    gamma = np.zeros((d, d, d) + shape)
    for mu in range(d):
        for nu in range(d):
            for tau in range(d):
                gamma[mu, nu, tau] = 0.5 * (dg[mu, nu, tau] + dg[mu, tau, nu] - dg[nu, tau, mu])

    return TensorFieldSet(
        grid=grid, a=A, b=b, g=g, c=c, d=dten, gamma=gamma, dphi=dphi,
    )


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
    grid = ts.grid
    d = grid.d
    c = ts.c

    def pieces():
        for tau in range(d):
            for sig in range(d):
                yield c[tau, sig, tau] - c[tau, sig, tau]
                for mu in range(tau + 1, d):
                    half_db = 0.5 * grid.diff(ts.b[tau, mu], sig)
                    yield c[tau, sig, mu] - c[mu, sig, tau] - half_db
                    yield c[mu, sig, tau] - c[tau, sig, mu] + half_db

    return _report(map(_peak, pieces()))


def check_d_christoffel(ts: TensorFieldSet) -> float:
    pieces = (ts.d[i] + ts.gamma[i] for i in np.ndindex((ts.grid.d,) * 3))
    return _report(map(_peak, pieces))


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
    grid = ts.grid
    d = grid.d
    D = grid.diff
    dphi, A, g, b = ts.dphi, ts.a, ts.g, ts.b

    ddphi = np.empty((d, d), dtype=object)
    for nu in range(d):
        for tau in range(d):
            ddphi[nu, tau] = np.stack([D(dphi[tau][s], nu) for s in range(2)])

    dA = np.stack([np.stack([D(A[tau], nu) for tau in range(d)]) for nu in range(d)])
    dgaa = _symmetric_derivatives(D, lambda m, n: g[m, n] + A[m] * A[n], d)

    # peaks of |residual| per piece: no full residual outlives its iteration
    d_raw, c_raw, real_part = [], [], []
    for mu in range(d):
        for nu in range(d):
            for tau in range(d):
                raw = (
                    np.conj(dphi[mu][0]) * ddphi[nu, tau][0]
                    + np.conj(dphi[mu][1]) * ddphi[nu, tau][1]
                )
                d_expected = (
                    -raw.real
                    - 0.5 * b[mu, nu] * A[tau]
                    - 0.5 * b[mu, tau] * A[nu]
                    + 0.5 * A[mu] * dA[nu, tau]
                    + 0.5 * A[mu] * dA[tau, nu]
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


def identity_residuals(recipe: FamilyRecipe, grid: ParamGrid) -> dict:
    """Peak |residual| of the five identities on one grid, by name."""
    ts = tensors(build_family(recipe, grid))
    out = check_decompositions(ts)
    out["d_plus_christoffel"] = check_d_christoffel(ts)
    out["c_b_exchange"] = check_cb_identity(ts)
    return out


def convergence_study(recipe: FamilyRecipe, sizes=(64, 128, 256), d: int = 2) -> dict:
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
