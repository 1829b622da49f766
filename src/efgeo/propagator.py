"""Strang-split propagation of the two-component Schroedinger equation.

Each step factors the evolution into an exact pointwise 2x2 potential
half-step (closed-form Pauli exponential), a full kinetic step applied in
Fourier space, and a second potential half-step.  Every factor is unitary,
so the norm is conserved to roundoff.  The potential entries are sampled at
the step midpoint, which keeps the scheme second order for time-dependent
entries; both half-steps then share one potential factor, built once per
step.

Double-precision FFT round trips carry a small systematic gain bias
(measured around 2e-16 per step at n = 4096), which accumulates coherently
and would dominate the norm drift over long runs.  The kinetic factor is
therefore applied in long-double precision: both components go through one
numpy.fft round trip on a (2, n) clongdouble buffer (numpy >= 2.0 computes
it in long double), and the per-step rounding back to double is unbiased,
so the drift stays at the random-walk level.
"""

from __future__ import annotations

import numbers
import operator
from dataclasses import dataclass

import numpy as np

from . import ef, model
from .errors import ConfigError, VerificationFailure
from .grid import Grid1D

DT_MAX = 1e-3  # accuracy guard on the step size
HORIZON_REL_TOL = 1e-9  # largest |steps * dt - t_end| / t_end accepted


@dataclass(frozen=True)
class PropagatorConfig:
    """Step size and horizon of one Strang propagation run."""

    dt: float
    t_end: float

    def __post_init__(self):
        for name in ("dt", "t_end"):  # as floats, so that no comparison below can raise
            value = getattr(self, name)
            if not isinstance(value, numbers.Real):
                raise ConfigError(f"{name} = {value!r} is not a real number")
            try:
                object.__setattr__(self, name, float(value))
            except OverflowError:
                raise ConfigError(f"{name} is an integer beyond the double range") from None
        if not 0.0 < self.dt < np.inf:
            raise ConfigError("dt must be positive and finite")
        if not 0.0 <= self.t_end < np.inf:
            raise ConfigError("t_end must be non-negative and finite")
        if not self.t_end / self.dt <= 2 ** 53:  # beyond exact integers in a double, or inf
            raise ConfigError(f"t_end / dt = {self.t_end / self.dt:.3g} steps exceeds 2**53")
        if abs(self.steps * self.dt - self.t_end) > HORIZON_REL_TOL * self.t_end:
            raise ConfigError(f"t_end = {self.t_end} is not a whole number of steps dt = {self.dt}")
        if self.dt > DT_MAX:
            raise VerificationFailure(f"dt = {self.dt} exceeds the guard {DT_MAX}")

    @property
    def steps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass
class PropagationResult:
    """Errors against the reference at each sampled step, the largest norm
    drift of the run, its final state, and the sampled states when kept."""

    times: np.ndarray
    l2_errors: np.ndarray
    chi2_errors: np.ndarray
    w_errors: np.ndarray
    t_geo_errors: np.ndarray
    norm_drift: float
    final_state: ef.TwoComponentWavefunction
    steps: int
    states: list

    def to_dict(self) -> dict:
        """The run's summary, as propagate writes it to report.json."""
        return {
            "steps": self.steps,
            "final_l2_error": float(self.l2_errors[-1]),
            "norm_drift": self.norm_drift,
            "max_chi2_error": float(np.max(self.chi2_errors)),
            "max_t_geo_error": float(np.max(self.t_geo_errors)),
        }


def _potential_factor(h0, h1, h3, tau):
    """Pointwise coefficients of exp(-i tau (h0 I + h1 sigma_x + h3 sigma_z)).

    Pauli closed form: exp(-i a I - i b.sigma) = e^{-ia}(cos|b| I
    - i sin|b| bhat.sigma), with the sin|b|/|b| limit handled explicitly.
    Returns (e^{-ia}, upper diagonal, off diagonal, lower diagonal) of the
    bracket, for _apply_potential.
    """
    b = tau * np.hypot(h1, h3)
    phase = np.exp(-1j * tau * h0)
    cosb = np.cos(b)
    safe = np.where(b != 0.0, b, 1.0)
    sinc = np.where(b != 0.0, np.sin(b) / safe, 1.0)
    # the diagonals cosb -/+ 1j tau h3 sinc filled part by part, in the bits
    # of the complex sums: 0 +/- d maps a zero d to +0 as they do
    upper, lower = np.empty((2, b.size), complex)
    upper.real = lower.real = cosb
    diag = -tau * h3 * sinc
    np.add(0.0, diag, out=upper.imag)
    np.subtract(0.0, diag, out=lower.imag)
    off = -1j * tau * h1 * sinc
    return phase, upper, off, lower


def _apply_potential(psi1, psi2, factor):
    phase, upper, off, lower = factor
    new1 = phase * (upper * psi1 + off * psi2)
    new2 = phase * (off * psi1 + lower * psi2)
    return new1, new2


def _kinetic_phase(grid, dt, inertia):
    theta = (0.5 * dt * inertia) * grid.wavenumbers.astype(np.longdouble) ** 2
    return np.cos(theta) - 1j * np.sin(theta)  # clongdouble


def _kinetic_full(psi1, psi2, phase, work):
    # one long-double round trip for both components, in place on the run's
    # (2, n) clongdouble buffer: the FFTs by module attribute, so that a
    # tracer patching numpy.fft sees them
    work[0], work[1] = psi1, psi2
    np.fft.fft(work, out=work)
    work *= phase
    np.fft.ifft(work, out=work)
    out = work.astype(complex)
    return out[0], out[1]


def _step_arrays(psi1, psi2, t, dt, h_provider, kin_phase, work):
    # both half-steps share h at the midpoint and tau, so one factor
    factor = _potential_factor(*h_provider(t + 0.5 * dt), 0.5 * dt)
    psi1, psi2 = _apply_potential(psi1, psi2, factor)
    psi1, psi2 = _kinetic_full(psi1, psi2, kin_phase, work)
    return _apply_potential(psi1, psi2, factor)


def sample_steps(n_steps: int, n_samples: int) -> list:
    """Step indices at which a run of n_steps records its errors: n_samples
    distinct ones evenly spaced from the first step to the last, both
    included; a run of no steps records its one state.  Raises ConfigError,
    before any allocation, for an n_samples that is not an integer, is
    below 2, or exceeds the run's step indices."""
    try:
        n_samples = operator.index(n_samples)
    except TypeError:
        raise ConfigError(f"n_samples = {n_samples!r} is not an integer") from None
    if n_samples < 2:
        raise ConfigError(f"n_samples = {n_samples}: need at least 2, the first and the last step")
    if not n_steps:
        return [0]
    if n_samples > n_steps + 1:
        raise ConfigError(f"n_samples = {n_samples} exceeds the {n_steps + 1} step indices "
                          f"0..{n_steps} of a run of {n_steps} steps")
    return np.linspace(0, n_steps, n_samples).astype(int).tolist()


def propagate(
    params,
    grid: Grid1D,
    cfg: PropagatorConfig,
    initial=None,
    h_provider=None,
    reference=None,
    n_samples: int = 11,
    keep_states: bool = False,
) -> PropagationResult:
    """Propagate from t = 0 to cfg.t_end, recording errors at sample times.

    By default the initial state, the potential entries and the reference
    trajectory all come from the closed-form model, which makes the run an
    end-to-end check of the reverse engineering.  Each argument can be
    overridden independently (e.g. zero potential against a free-packet
    reference); h_provider(t) returns (h0, h1, h3), as
    model.hamiltonian_entries does.  With keep_states the result holds the
    state at each sample time.  Raises ConfigError, before any state is
    built, for n_samples that sample_steps refuses and for a grid that
    model.check_grid refuses at the sample times.  The initial state and
    the reference span the whole grid: every FFT of a step reads each point.
    """
    n_steps = cfg.steps
    samples = sample_steps(n_steps, n_samples)
    model.check_grid(params, grid, np.asarray(samples) * cfg.dt)
    if h_provider is None:
        h_provider = lambda t: model.hamiltonian_entries(t, grid, params)
    if initial is None:
        initial = model.assemble_psi(0.0, grid, params)
    if reference is None:
        reference = lambda t: model.assemble_psi(t, grid, params)

    kin_phase = _kinetic_phase(grid, cfg.dt, params.inertia)
    work = np.empty((2, grid.n), np.clongdouble)  # the kinetic step's buffer

    psi1 = initial.psi1.astype(complex)
    psi2 = initial.psi2.astype(complex)
    # raw sum, not grid.integrate: the norm is also the blowup sentinel and
    # must be allowed to come out non-finite
    norm0 = grid.dx * (np.sum(np.abs(psi1) ** 2) + np.sum(np.abs(psi2) ** 2))
    norm_drift = abs(norm0 - 1.0)

    rows, states, sampled = [], [], set(samples)
    for step_idx in range(n_steps + 1):
        t = step_idx * cfg.dt
        if step_idx in sampled:  # the last step always is, so state ends as the final one
            state = ef.TwoComponentWavefunction(grid=grid, psi1=psi1, psi2=psi2)
            rows.append(_record(state, reference(t), params, t))
            if keep_states:
                states.append(state)
        if step_idx == n_steps:
            break
        psi1, psi2 = _step_arrays(psi1, psi2, t, cfg.dt, h_provider, kin_phase, work)
        norm = grid.dx * (np.sum(np.abs(psi1) ** 2) + np.sum(np.abs(psi2) ** 2))
        if not np.isfinite(norm):
            raise VerificationFailure(f"norm diverged at step {step_idx + 1}")
        norm_drift = max(norm_drift, abs(norm - 1.0))

    return PropagationResult(*map(np.asarray, zip(*rows)), norm_drift=float(norm_drift),
                             final_state=state, steps=n_steps, states=states)


def _record(state, ref, params, t) -> tuple:
    """The errors of state against the reference ref at time t, one row of
    PropagationResult's first five fields."""
    grid = state.grid
    diff2 = np.abs(state.psi1 - ref.psi1) ** 2 + np.abs(state.psi2 - ref.psi2) ** 2
    l2 = float(np.sqrt(grid.integrate(diff2)))
    rho_num, rho_ref = state.density, ref.density
    chi2 = float(np.max(np.abs(rho_num - rho_ref)))
    # population difference on the visible part of the packet
    vis = rho_ref > 1e-8 * rho_ref.max()
    w_num = np.where(vis, (np.abs(state.psi1) ** 2 - np.abs(state.psi2) ** 2), 0.0)
    w_ref = np.where(vis, (np.abs(ref.psi1) ** 2 - np.abs(ref.psi2) ** 2), 0.0)
    rho_safe = np.where(vis, rho_ref, 1.0)
    w = float(np.max(np.abs(w_num - w_ref) / rho_safe))
    dec_num = ef.decompose(state, inertia=params.inertia)
    dec_ref = ef.decompose(ref, inertia=params.inertia)
    return t, l2, chi2, w, abs(ef.geometric_energy(dec_num) - ef.geometric_energy(dec_ref))


def convergence_order(params, grid: Grid1D, dts, t_end: float) -> dict:
    """Final-time L2 error for each dt plus the fitted convergence order, and
    each dt's PropagationResult, recorded at its first, middle and last step."""
    runs = [propagate(params, grid, PropagatorConfig(dt=dt, t_end=t_end), n_samples=3) for dt in dts]
    errors = [res.l2_errors[-1] for res in runs]
    order = float(np.polyfit(np.log(np.asarray(dts, dtype=float)), np.log(np.asarray(errors)), 1)[0])
    return {"dts": list(dts), "l2_errors": errors, "order": order, "runs": runs}
