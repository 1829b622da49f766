"""Two-sided evaluation of the geometric kinetic-energy transfer identity.

The left side is the time derivative of the geometric kinetic energy,
differenced from the energy series itself so that it stays independent of
the right side.  The right side is assembled from the model state at one
time: the force-like sandwich with the 2x2 potential gradient, the
total-derivative flux of the rank-3 tensor, and the metric transport term.

Two candidate weightings of the right side are evaluated: reading "A"
leaves the second and fourth integrands unweighted, reading "B" weights
them by the marginal density as the general multi-dimensional form
requires.  The verdict between them is decided numerically, never assumed.

Every state is built on model.packet_extent alone, with exact zeros
elsewhere: the decomposition and the identity read it on the support
window and one stencil half-width around it, which the extent holds, so
every value they read has the bits of the whole-grid build.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import ef, model
from .errors import ConfigError, VerificationFailure
from .grid import Grid1D, five_point

MUTATIONS = ("flip_t1", "flip_t2", "flip_t3", "flip_t4", "drop_weight_t1")
# the conditional spinor is not periodic across the wrap, so every spatial
# derivative of the identity is a local 12th-order stencil
METHOD = "fd12"
# offsets, in units of delta_t, of the 5-point time stencil around a time t;
# a rate reads the states at the four nonzero ones, in five_point's order
STENCIL = (-2.0, -1.0, 0.0, 1.0, 2.0)
# the smallest delta_t, in float spacings of the stencil's largest |t|: the
# stencil times carry rounding errors of up to half a spacing, which the
# five-point rate divides by delta_t.  In a sweep over t_end = 1, 10, 100 and
# two n each, every run from 2^15 spacings up kept its relative residual
# below rel_tol / 10 or at the floor its grid sets
MIN_DELTA_T_SPACINGS = 2 ** 15


@dataclass(frozen=True)
class GeneralFormTerms:
    """Unsplit general-form right side specialized to one dimension."""

    force: float      # matches t1 + t2 of reading B algebraically
    curvature: float  # Berry-curvature term, identically zero in 1D
    transport: float  # matches t4 of reading B


@dataclass(frozen=True)
class PointwiseReport:
    max_residual: float
    scale: float

    @property
    def rel_residual(self) -> float:
        return self.max_residual / self.scale if self.scale > 0 else float("inf")


@dataclass
class IdentityReport:
    """Series and verdict of one verification run."""

    times: np.ndarray
    lhs: np.ndarray
    terms_a: np.ndarray  # shape (4, len(times))
    terms_b: np.ndarray
    rel_tol: float
    mutation: str = None
    extras: dict = field(default_factory=dict)

    @property
    def rhs_a(self) -> np.ndarray:
        return self.terms_a.sum(axis=0)

    @property
    def rhs_b(self) -> np.ndarray:
        return self.terms_b.sum(axis=0)

    @property
    def scale(self) -> float:
        return float(np.max(np.abs(self.lhs)))

    def residual(self, reading: str) -> np.ndarray:
        return np.abs(self.lhs - (self.rhs_a if reading == "A" else self.rhs_b))

    def rel_residual(self, reading: str) -> float:
        return float(np.max(self.residual(reading)) / self.scale)

    @property
    def winner(self) -> str:
        return "A" if self.rel_residual("A") <= self.rel_residual("B") else "B"

    @property
    def passed(self) -> bool:
        return self.rel_residual(self.winner) <= self.rel_tol

    def to_dict(self) -> dict:
        return {
            "rel_tol": self.rel_tol,
            "mutation": self.mutation,
            "winner": self.winner,
            "passed": self.passed,
            "rel_residual_a": self.rel_residual("A"),
            "rel_residual_b": self.rel_residual("B"),
            "lhs_scale": self.scale,
            "times": self.times.tolist(),
            "lhs": self.lhs.tolist(),
            "terms_a": self.terms_a.tolist(),
            "terms_b": self.terms_b.tolist(),
            "rhs_a": self.rhs_a.tolist(),
            "rhs_b": self.rhs_b.tolist(),
            "residual_a": self.residual("A").tolist(),
            "residual_b": self.residual("B").tolist(),
            "extras": self.extras,
        }


def sample_times(t_start: float, t_end: float, samples: int) -> np.ndarray:
    """Uniform sample times over [t_start, t_end], both ends included.

    The model starts at t = 0: its front terms 1 + t and 1 + 3t vanish at
    t = -1 and t = model.MODEL_EDGE = -1/3.
    """
    try:
        samples = operator.index(samples)
    except TypeError:
        raise ConfigError(f"samples = {samples!r} is not an integer") from None
    if not t_start >= 0.0:
        raise ConfigError(f"t_start = {t_start} is negative; the model starts at t = 0")
    if samples < 2 or not t_end > t_start:
        raise ConfigError("need at least 2 samples spanning a nonzero time range")
    return np.linspace(t_start, t_end, samples)


def check_settings(t_start: float, t_end: float, delta_t: float, rel_tol: float, mutation: str):
    """Refuse settings with which verify cannot reach a verdict: a delta_t or
    rel_tol that is not positive, a stencil that reaches model.MODEL_EDGE
    below t_start, overflows above t_end, or whose times round onto each
    other or lie so close that the rate is roundoff, or an unknown
    mutation."""
    _check_stencil(t_start, t_end, delta_t)
    if not rel_tol > 0.0:
        raise ConfigError(f"rel_tol must be positive, got {rel_tol}")
    _check_mutation(mutation)


def _check_stencil(t_start, t_end, delta_t):
    """Refuse a delta_t that is not positive, or whose stencil around
    [t_start, t_end] reaches model.MODEL_EDGE, overflows, or is not strictly
    increasing: t + delta_t that rounds to t leaves the rate a 0/delta_t.
    Last, refuse a delta_t below MIN_DELTA_T_SPACINGS float spacings of the
    stencil's largest |t|, where the rate is at roundoff."""
    if not delta_t > 0.0:
        raise ConfigError(f"delta_t must be positive, got {delta_t}")
    first, last = t_start + STENCIL[0] * delta_t, t_end + STENCIL[-1] * delta_t
    if not first > model.MODEL_EDGE:
        raise ConfigError(
            f"delta_t = {delta_t} is too large: its stencil reaches t_start - 2 delta_t = "
            f"{first:.6g} with t_start = {t_start}, at or below the model's edge t = -1/3"
        )
    if not math.isfinite(last):
        raise ConfigError(f"delta_t = {delta_t} is too large: t_end + 2 delta_t overflows")
    # the times between lie in [t_start, t_end]: no float spacing there is
    # coarser than at an end
    for t in (t_start, t_end):
        if not np.all(np.diff(t + delta_t * np.array(STENCIL)) > 0.0):
            raise ConfigError(
                f"delta_t = {delta_t} is too small at t = {t:.6g}: the stencil times "
                "t + k delta_t, k = -2..2, round onto each other"
            )
    t = max(abs(first), abs(last))
    floor = MIN_DELTA_T_SPACINGS * float(np.spacing(t))
    if not delta_t >= floor:
        raise ConfigError(
            f"delta_t = {delta_t} is too small at t = {t:.6g}: the rate needs at least "
            f"{MIN_DELTA_T_SPACINGS} float spacings of t, {floor:.3g}, or it is roundoff"
        )


def _check_mutation(mutation):
    if mutation is not None and mutation not in MUTATIONS:
        raise ConfigError(f"unknown mutation {mutation!r}")


def _decompose_at(params, grid, t):
    psi = model.assemble_psi(t, grid, params, model.packet_extent(t, grid, params, METHOD))
    return ef.decompose(psi, inertia=params.inertia, method=METHOD)


def _masked_integral(grid, values, mask):
    return grid.dx * float(np.sum(values[mask]))


def t_geo_series(params, grid: Grid1D, times) -> np.ndarray:
    """Geometric kinetic energy of the model state at each requested time;
    model.check_grid refuses the grid at those times before any state."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    model.check_grid(params, grid, times)
    return np.array([ef.geometric_energy(_decompose_at(params, grid, t)) for t in times])


def _potential_gradient(dec, ham):
    """Spatial gradient of the 2x2 potential on dec's window, as its entries
    (up, off, dn)."""
    grid, win = dec.grid, dec.window
    dh0 = grid.derivative(ham.h0, 1, METHOD, win)
    dh1 = grid.derivative(ham.h1, 1, METHOD, win)
    dh3 = grid.derivative(ham.h3, 1, METHOD, win)
    return dh0 + dh3, dh1, dh0 - dh3


def _force_density(dec, ham):
    """Re <Phi| dH |(P - A)Phi> on dec's window, the force density of the
    general form."""
    up, dh1, dn = _potential_gradient(dec, ham)
    phi1, phi2, cov1, cov2 = dec.phi1[dec.window], dec.phi2[dec.window], dec.cov1, dec.cov2
    return np.real(
        np.conj(phi1) * (up * cov1 + dh1 * cov2)
        + np.conj(phi2) * (dh1 * cov1 + dn * cov2)
    )


_SIGNS = {"flip_t1": (-1, 1, 1, 1), "flip_t2": (1, -1, 1, 1),
          "flip_t3": (1, 1, -1, 1), "flip_t4": (1, 1, 1, -1)}


def rhs_terms(params, grid: Grid1D, times, mutation: str = None) -> dict:
    """The four right-hand-side integrals at each of `times`, as {"A": array,
    "B": array} of shape (4, len(times)); model.check_grid refuses the grid
    at `times` before any state.  Rows t1..t4 are the potential-gradient
    sandwich against dPhi, the connection-weighted potential gradient, the
    flux of c_tensor * density (which should vanish) and the metric against
    the connection gradient.

    Both readings come from one decomposition and one set of derivatives:
    reading B only weights the t2 and t4 integrands by the marginal density,
    and reading A weights them by 1.0, which leaves every bit unchanged.
    Every integrand lives on the decomposition's window, which holds the mask.
    """
    _check_mutation(mutation)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    model.check_grid(params, grid, times)
    I = params.inertia
    signs = _SIGNS.get(mutation, (1, 1, 1, 1))
    terms = {"A": np.empty((4, times.size)), "B": np.empty((4, times.size))}
    for i, t in enumerate(times):
        dec = _decompose_at(params, grid, t)
        ham = model.hamiltonian_entries(t, grid, params)
        win = dec.window
        mask, chi2 = dec.mask[win], dec.chi2[win]
        phi1, phi2, dphi1, dphi2 = dec.phi1[win], dec.phi2[win], dec.dphi1, dec.dphi2
        up, dh1, dn = _potential_gradient(dec, ham)
        # <Phi| dH |dPhi> (complex) and <Phi| dH |Phi> (real)
        sand_dphi = (
            np.conj(phi1) * (up * dphi1 + dh1 * dphi2)
            + np.conj(phi2) * (dh1 * dphi1 + dn * dphi2)
        )
        sand_pop = (
            up * np.abs(phi1) ** 2
            + dn * np.abs(phi2) ** 2
            + 2.0 * dh1 * np.real(np.conj(phi1) * phi2)
        )
        t1_density = np.imag(sand_dphi)
        if mutation != "drop_weight_t1":
            t1_density = t1_density * chi2
        t1 = -I * _masked_integral(grid, t1_density, mask)
        t3 = -0.5 * I * I * _masked_integral(grid, dec.diff(dec.c_tensor * chi2), mask)
        t2_density = dec.connection * sand_pop
        t4_density = dec.metric * dec.diff(dec.connection)

        for reading, weight in (("A", 1.0), ("B", chi2)):
            t2 = I * _masked_integral(grid, t2_density * weight, mask)
            t4 = -I * I * _masked_integral(grid, t4_density * weight, mask)
            terms[reading][:, i] = np.multiply(signs, (t1, t2, t3, t4))
    return terms


def rhs_general(params, grid: Grid1D, t: float) -> GeneralFormTerms:
    """Literal 1D specialization of the general identity (constant inertia).

    The Berry-curvature term vanishes identically in one dimension, which is
    asserted rather than computed.
    """
    model.check_grid(params, grid, [t])
    dec = _decompose_at(params, grid, t)
    ham = model.hamiltonian_entries(t, grid, params)
    I = params.inertia
    win = dec.window
    mask, chi2 = dec.mask[win], dec.chi2[win]
    force = -I * _masked_integral(grid, chi2 * _force_density(dec, ham), mask)

    curvature = 0.0  # B = dA/dx - dA/dx in a single dimension

    # the current inertia * chi2 * A over chi2
    ratio = np.divide(I * chi2 * dec.connection, chi2, out=np.zeros_like(chi2), where=chi2 > 0)
    transport = -I * _masked_integral(grid, chi2 * dec.metric * dec.diff(ratio), mask)
    return GeneralFormTerms(force=force, curvature=curvature, transport=transport)


def pointwise_check(params, grid: Grid1D, t: float, delta_t: float = 1e-5) -> PointwiseReport:
    """Pointwise residual of the local geometric energy-density equation.

    The left side differences the metric in time; the right side combines
    the force density, the rank-3 flux terms and the transport terms, all at
    the single time t, on the window of its decomposition.  Reported over the
    intersection of the masks used.
    """
    _check_stencil(t, t, delta_t)
    times = t + delta_t * np.array(STENCIL)
    model.check_grid(params, grid, times)
    decs = [_decompose_at(params, grid, s) for s in times]
    dec = decs[STENCIL.index(0.0)]
    win = dec.window
    I = params.inertia
    ham = model.hamiltonian_entries(t, grid, params)
    force_density = _force_density(dec, ham)
    chi2, c_tensor, D = dec.chi2[win], dec.c_tensor, dec.diff
    dchi2 = grid.derivative(dec.chi2, 1, METHOD, win)
    dlog_chi2 = np.divide(dchi2, chi2, out=np.zeros_like(chi2), where=chi2 > 0)
    rhs = (
        -I * force_density
        - 0.5 * I * I * D(c_tensor)
        - 0.5 * I * I * c_tensor * dlog_chi2
        - 0.5 * I * I * dec.connection * D(dec.metric)
        - I * I * dec.metric * D(dec.connection)
    )

    # each decomposition has its own window: their metrics meet on the grid
    metrics = (d.on_grid(d.metric)[win] for off, d in zip(STENCIL, decs) if off)
    lhs = 0.5 * I * five_point(*metrics, delta_t)

    mask = np.logical_and.reduce([d.mask[win] for d in decs])
    residual = np.abs(lhs - rhs)[mask]
    scale = float(np.max(np.abs(lhs[mask])))
    return PointwiseReport(max_residual=float(np.max(residual)), scale=scale)


def verify(
    params,
    grid: Grid1D,
    t_start: float = 0.0,
    t_end: float = 10.0,
    samples: int = 101,
    delta_t: float = 1e-4,
    rel_tol: float = 1e-3,
    mutation: str = None,
) -> IdentityReport:
    """Evaluate both sides over a time range and adjudicate the readings.

    Raises ConfigError, before any evaluation, for settings that
    check_settings refuses and for a grid that model.check_grid refuses at
    the stencil times, and VerificationFailure (carrying the report) when
    neither reading meets rel_tol in the max norm relative to the peak rate.
    """
    times = sample_times(t_start, t_end, samples)
    check_settings(t_start, t_end, delta_t, rel_tol, mutation)
    # row i holds the stencil times of sample i; the rate reads all but t itself
    stencil = times[:, None] + delta_t * np.array(STENCIL)
    model.check_grid(params, grid, stencil.ravel())
    rate_times = stencil[:, [off != 0.0 for off in STENCIL]]
    t_geo = t_geo_series(params, grid, rate_times.ravel()).reshape(rate_times.shape)
    terms = rhs_terms(params, grid, times, mutation)
    report = IdentityReport(
        times=times, lhs=five_point(*t_geo.T, delta_t), terms_a=terms["A"], terms_b=terms["B"],
        rel_tol=rel_tol, mutation=mutation,
        extras={
            "grid": {"x_min": grid.x_min, "x_max": grid.x_max, "n": grid.n},
            "params": {"eta": params.eta, "mass": params.mass,
                       "gamma": params.gamma, "inertia": params.inertia},
            "delta_t": delta_t,
            "method": METHOD,
        },
    )
    if not report.passed:
        raise VerificationFailure(
            f"identity residual {report.rel_residual(report.winner):.3e} above {rel_tol:.1e}"
            f" (winner {report.winner})",
            report=report,
        )
    return report
