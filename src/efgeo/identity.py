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
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, field

import numpy as np

from . import ef, model
from .errors import ConfigError, VerificationFailure
from .grid import DERIVATIVE_METHODS, Grid1D, five_point

MUTATIONS = ("flip_t1", "flip_t2", "flip_t3", "flip_t4", "drop_weight_t1")


@dataclass(frozen=True)
class RhsTerms:
    """The four right-hand-side integrals at one time, one reading."""

    t1: float  # potential-gradient sandwich against dPhi
    t2: float  # connection-weighted potential gradient
    t3: float  # total derivative of (c_tensor * density): should vanish
    t4: float  # metric against the connection gradient

    @property
    def total(self) -> float:
        return self.t1 + self.t2 + self.t3 + self.t4


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

    def rel_residual(self, reading: str) -> float:
        rhs = self.rhs_a if reading == "A" else self.rhs_b
        return float(np.max(np.abs(self.lhs - rhs)) / self.scale)

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
            "residual_a": np.abs(self.lhs - self.rhs_a).tolist(),
            "residual_b": np.abs(self.lhs - self.rhs_b).tolist(),
            "extras": self.extras,
        }


def sample_times(t_start: float, t_end: float, samples: int) -> np.ndarray:
    """Uniform sample times over [t_start, t_end], both ends included.

    The model starts at t = 0: its front terms 1 + t and 1 + 3t vanish at
    t = -1 and t = -1/3.
    """
    if not t_start >= 0.0:
        raise ConfigError(f"t_start = {t_start} is negative; the model starts at t = 0")
    if samples < 2 or not t_end > t_start:
        raise ConfigError("need at least 2 samples spanning a nonzero time range")
    return np.linspace(t_start, t_end, samples)


def check_settings(delta_t: float, rel_tol: float, method: str, mutation: str):
    """Refuse settings with which verify cannot reach a verdict: a time step
    or tolerance that is not positive, or an unknown method or mutation."""
    if not delta_t > 0.0:
        raise ConfigError(f"delta_t must be positive, got {delta_t}")
    if not rel_tol > 0.0:
        raise ConfigError(f"rel_tol must be positive, got {rel_tol}")
    if method not in DERIVATIVE_METHODS:
        raise ConfigError(
            f"unknown derivative method {method!r}; choose from {list(DERIVATIVE_METHODS)}"
        )
    _check_mutation(mutation)


def _check_mutation(mutation):
    if mutation is not None and mutation not in MUTATIONS:
        raise ConfigError(f"unknown mutation {mutation!r}")


def _decompose_at(params, grid, t, method="fd12"):
    psi = model.assemble_psi(t, grid, params)
    return ef.decompose(psi, inertia=params.inertia, method=method)


def _masked_integral(grid, values, mask):
    return grid.dx * float(np.sum(values[mask]))


def t_geo_series(params, grid: Grid1D, times, method="fd12") -> np.ndarray:
    """Geometric kinetic energy of the model state at each requested time."""
    times = np.atleast_1d(np.asarray(times, dtype=float))
    out = np.empty(times.size)
    for i, t in enumerate(times):
        out[i] = ef.geometric_energy(_decompose_at(params, grid, t, method))
    return out


def _rate_local(params, grid, t, delta_t, method="fd12") -> float:
    """dT_geo/dt at one time from a 5-point central stencil around t."""
    vals = t_geo_series(
        params, grid, [t - 2 * delta_t, t - delta_t, t + delta_t, t + 2 * delta_t], method
    )
    return float(five_point(*vals, delta_t))


def _potential_gradient(dec, ham):
    """Spatial gradient of the 2x2 potential as its entries (up, off, dn)."""
    grid, method = dec.grid, dec.method
    dh0 = grid.derivative(ham.h0, 1, method)
    dh1 = grid.derivative(ham.h1, 1, method)
    dh3 = grid.derivative(ham.h3, 1, method)
    return dh0 + dh3, dh1, dh0 - dh3


def _force_density(dec, ham):
    """Re <Phi| dH |(P - A)Phi>, the force density of the general form."""
    up, dh1, dn = _potential_gradient(dec, ham)
    return np.real(
        np.conj(dec.phi1) * (up * dec.cov1 + dh1 * dec.cov2)
        + np.conj(dec.phi2) * (dh1 * dec.cov1 + dn * dec.cov2)
    )


_SIGNS = {"flip_t1": (-1, 1, 1, 1), "flip_t2": (1, -1, 1, 1),
          "flip_t3": (1, 1, -1, 1), "flip_t4": (1, 1, 1, -1)}


def rhs_terms(params, grid: Grid1D, t: float, mutation: str = None,
              method: str = "fd12") -> dict:
    """The four right-hand-side integrals at time t, as {"A": RhsTerms,
    "B": RhsTerms}.

    Both readings come from one decomposition and one set of derivatives:
    reading B only weights the t2 and t4 integrands by the marginal density,
    and reading A weights them by 1.0, which leaves every bit unchanged.
    """
    _check_mutation(mutation)
    dec = _decompose_at(params, grid, t, method)
    ham = model.hamiltonian_entries(t, grid, params)
    I = params.inertia
    mask = dec.mask
    up, dh1, dn = _potential_gradient(dec, ham)
    # <Phi| dH |dPhi> (complex) and <Phi| dH |Phi> (real)
    sand_dphi = (
        np.conj(dec.phi1) * (up * dec.dphi1 + dh1 * dec.dphi2)
        + np.conj(dec.phi2) * (dh1 * dec.dphi1 + dn * dec.dphi2)
    )
    sand_pop = (
        up * np.abs(dec.phi1) ** 2
        + dn * np.abs(dec.phi2) ** 2
        + 2.0 * dh1 * np.real(np.conj(dec.phi1) * dec.phi2)
    )

    t1_density = np.imag(sand_dphi)
    if mutation != "drop_weight_t1":
        t1_density = t1_density * dec.chi2
    t1 = -I * _masked_integral(grid, t1_density, mask)
    flux = grid.derivative(dec.c_tensor * dec.chi2, 1, method)
    t3 = -0.5 * I * I * _masked_integral(grid, flux, mask)
    t2_density = dec.connection * sand_pop
    t4_density = dec.metric * grid.derivative(dec.connection, 1, method)

    s = _SIGNS.get(mutation, (1, 1, 1, 1))
    terms = {}
    for reading, weight in (("A", 1.0), ("B", dec.chi2)):
        t2 = I * _masked_integral(grid, t2_density * weight, mask)
        t4 = -I * I * _masked_integral(grid, t4_density * weight, mask)
        terms[reading] = RhsTerms(t1=s[0] * t1, t2=s[1] * t2, t3=s[2] * t3, t4=s[3] * t4)
    return terms


def rhs_general(params, grid: Grid1D, t: float) -> GeneralFormTerms:
    """Literal 1D specialization of the general identity (constant inertia).

    The Berry-curvature term vanishes identically in one dimension, which is
    asserted rather than computed.
    """
    dec = _decompose_at(params, grid, t)
    ham = model.hamiltonian_entries(t, grid, params)
    I = params.inertia
    mask = dec.mask
    force = -I * _masked_integral(grid, dec.chi2 * _force_density(dec, ham), mask)

    curvature = 0.0  # B = dA/dx - dA/dx in a single dimension

    ratio = np.divide(dec.current, dec.chi2, out=np.zeros_like(dec.chi2), where=dec.chi2 > 0)
    transport = -I * _masked_integral(
        grid, dec.chi2 * dec.metric * grid.derivative(ratio, 1, dec.method), mask
    )
    return GeneralFormTerms(force=force, curvature=curvature, transport=transport)


def pointwise_check(params, grid: Grid1D, t: float, delta_t: float = 1e-5) -> PointwiseReport:
    """Pointwise residual of the local geometric energy-density equation.

    The left side differences the metric in time; the right side combines
    the force density, the rank-3 flux terms and the transport terms, all at
    the single time t.  Reported over the intersection of the masks used.
    """
    decs = {dt_off: _decompose_at(params, grid, t + dt_off * delta_t)
            for dt_off in (-2, -1, 0, 1, 2)}
    dec = decs[0]
    I = params.inertia
    ham = model.hamiltonian_entries(t, grid, params)
    force_density = _force_density(dec, ham)
    D = lambda f: grid.derivative(f, 1, dec.method)
    dlog_chi2 = np.divide(D(dec.chi2), dec.chi2, out=np.zeros_like(dec.chi2), where=dec.chi2 > 0)
    rhs = (
        -I * force_density
        - 0.5 * I * I * D(dec.c_tensor)
        - 0.5 * I * I * dec.c_tensor * dlog_chi2
        - 0.5 * I * I * dec.connection * D(dec.metric)
        - I * I * dec.metric * D(dec.connection)
    )

    lhs = 0.5 * I * five_point(*(decs[off].metric for off in (-2, -1, 1, 2)), delta_t)

    mask = decs[0].mask.copy()
    for off in (-2, -1, 1, 2):
        mask &= decs[off].mask
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
    method: str = "fd12",
) -> IdentityReport:
    """Evaluate both sides over a time range and adjudicate the readings.

    Raises ConfigError, before any evaluation, for settings that
    check_settings refuses, and VerificationFailure (carrying the report)
    when neither reading meets rel_tol in the max norm relative to the peak
    rate.
    """
    check_settings(delta_t, rel_tol, method, mutation)
    times = sample_times(t_start, t_end, samples)
    lhs = np.empty(samples)
    terms_a = np.empty((4, samples))
    terms_b = np.empty((4, samples))
    for i, t in enumerate(times):
        lhs[i] = _rate_local(params, grid, t, delta_t, method)
        terms = rhs_terms(params, grid, t, mutation, method)
        terms_a[:, i] = astuple(terms["A"])
        terms_b[:, i] = astuple(terms["B"])
    report = IdentityReport(
        times=times, lhs=lhs, terms_a=terms_a, terms_b=terms_b,
        rel_tol=rel_tol, mutation=mutation,
        extras={
            "grid": {"x_min": grid.x_min, "x_max": grid.x_max, "n": grid.n},
            "params": {"eta": params.eta, "mass": params.mass,
                       "gamma": params.gamma, "inertia": params.inertia},
            "delta_t": delta_t,
            "method": method,
        },
    )
    if not report.passed:
        raise VerificationFailure(
            f"identity residual {report.rel_residual(report.winner):.3e} above {rel_tol:.1e}"
            f" (winner {report.winner})",
            report=report,
        )
    return report
