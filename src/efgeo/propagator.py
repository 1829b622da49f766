"""Strang-split propagation of the two-component Schroedinger equation.

Each step factors the evolution into an exact pointwise 2x2 potential
half-step (closed-form Pauli exponential), a full kinetic step applied in
Fourier space, and a second potential half-step.  Every factor is unitary,
so the norm is conserved to roundoff.  The potential entries are sampled at
the step midpoint by default, which keeps the scheme second order for
time-dependent entries; both half-steps then share one potential factor,
built once per step (per-half-step sampling builds one per half-step).

Double-precision FFT round trips carry a small systematic gain bias
(measured around 2e-16 per step at n = 4096), which accumulates coherently
and would dominate the norm drift over long runs.  The kinetic factor is
therefore applied in long-double precision by default; the per-step rounding
back to double is unbiased and the drift stays at the random-walk level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ef, model
from .errors import ConfigError, VerificationFailure
from .grid import Grid1D

DT_MAX = 1e-3  # accuracy guard on the step size
HORIZON_REL_TOL = 1e-9  # largest |steps * dt - t_end| / t_end accepted


@dataclass(frozen=True)
class PropagatorConfig:
    """Step size, horizon and sampling of one Strang propagation run."""

    dt: float
    t_end: float
    h_update: str = "per-step"  # sample h at midpoint once, or per half-step
    kinetic_precision: str = "extended"  # "extended" (long double) or "double"

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ConfigError("dt must be positive and finite")
        if not 0.0 <= self.t_end < np.inf:
            raise ConfigError("t_end must be non-negative and finite")
        if self.steps > 2 ** 53:  # beyond exact integers in a double
            raise ConfigError(f"t_end / dt = {self.t_end / self.dt:.3g} steps exceeds 2**53")
        if abs(self.steps * self.dt - self.t_end) > HORIZON_REL_TOL * self.t_end:
            raise ConfigError(f"t_end = {self.t_end} is not a whole number of steps dt = {self.dt}")
        if self.h_update not in ("per-step", "per-half-step"):
            raise ConfigError(f"unknown h_update {self.h_update!r}")
        if self.kinetic_precision not in ("extended", "double"):
            raise ConfigError(f"unknown kinetic_precision {self.kinetic_precision!r}")
        if self.dt > DT_MAX:
            raise VerificationFailure(f"dt = {self.dt} exceeds the guard {DT_MAX}")

    @property
    def steps(self) -> int:
        return round(self.t_end / self.dt)


@dataclass
class PropagationResult:
    times: np.ndarray
    l2_errors: np.ndarray
    chi2_errors: np.ndarray
    w_errors: np.ndarray
    t_geo_errors: np.ndarray
    norm_drift: float
    final_state: ef.TwoComponentWavefunction
    steps: int


def model_h_provider(params, grid: Grid1D):
    """Provider of (h0, h1, h3) fields for the reverse-engineered model."""

    def provider(t):
        h = model.hamiltonian_entries(t, grid, params)
        return h.h0, h.h1, h.h3

    return provider


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
    diag = -1j * tau * h3 * sinc
    off = -1j * tau * h1 * sinc
    return phase, cosb + diag, off, cosb - diag


def _apply_potential(psi1, psi2, factor):
    phase, upper, off, lower = factor
    new1 = phase * (upper * psi1 + off * psi2)
    new2 = phase * (off * psi1 + lower * psi2)
    return new1, new2


def _kinetic_phase(grid, dt, inertia, precision):
    if precision == "extended":
        theta = (0.5 * dt * inertia) * grid.wavenumbers.astype(np.longdouble) ** 2
        return np.cos(theta) - 1j * np.sin(theta)  # clongdouble
    return np.exp(-0.5j * dt * inertia * grid.wavenumbers ** 2)


def _kinetic_full(psi1, psi2, phase):
    if phase.dtype == np.clongdouble:
        # imported on first use: only this step needs scipy, whose import
        # is most of the package's import time (numpy.fft is slower here)
        import scipy.fft as sfft

        extended = lambda p: sfft.ifft(phase * sfft.fft(p.astype(np.clongdouble))).astype(complex)
        return extended(psi1), extended(psi2)
    return np.fft.ifft(phase * np.fft.fft(psi1)), np.fft.ifft(phase * np.fft.fft(psi2))


def _step_arrays(psi1, psi2, t, dt, h_provider, kin_phase, h_update):
    per_step = h_update == "per-step"
    factor = _potential_factor(*h_provider(t + (0.5 if per_step else 0.25) * dt), 0.5 * dt)
    psi1, psi2 = _apply_potential(psi1, psi2, factor)
    psi1, psi2 = _kinetic_full(psi1, psi2, kin_phase)
    if not per_step:  # per-step: both half-steps share h and tau, so one factor
        factor = _potential_factor(*h_provider(t + 0.75 * dt), 0.5 * dt)
    return _apply_potential(psi1, psi2, factor)


def sample_steps(n_steps: int, n_samples: int) -> list:
    """Step indices at which a run of n_steps records its errors: n_samples
    evenly spaced from the first step to the last, fewer where they coincide."""
    if n_samples < 2:
        raise ConfigError(f"n_samples = {n_samples}: need at least 2, the first and the last step")
    return sorted(set(np.linspace(0, n_steps, n_samples).astype(int))) if n_steps else [0]


def propagate(
    params,
    grid: Grid1D,
    cfg: PropagatorConfig,
    initial=None,
    h_provider=None,
    reference=None,
    n_samples: int = 11,
    dump_path=None,
) -> PropagationResult:
    """Propagate from t = 0 to cfg.t_end, recording errors at sample times.

    By default the initial state, the potential entries and the reference
    trajectory all come from the closed-form model, which makes the run an
    end-to-end check of the reverse engineering.  Each argument can be
    overridden independently (e.g. zero potential against a free-packet
    reference).
    """
    n_steps = cfg.steps
    samples = sample_steps(n_steps, n_samples)
    if h_provider is None:
        h_provider = model_h_provider(params, grid)
    if initial is None:
        initial = model.assemble_psi(0.0, grid, params)
    if reference is None:
        reference = lambda t: model.assemble_psi(t, grid, params)

    kin_phase = _kinetic_phase(grid, cfg.dt, params.inertia, cfg.kinetic_precision)

    psi1 = initial.psi1.astype(complex)
    psi2 = initial.psi2.astype(complex)
    # raw sum, not grid.integrate: the norm is also the blowup sentinel and
    # must be allowed to come out non-finite
    norm0 = grid.dx * (np.sum(np.abs(psi1) ** 2) + np.sum(np.abs(psi2) ** 2))
    norm_drift = abs(norm0 - 1.0)

    times, l2s, chi2s, ws, tgeos = [], [], [], [], []
    dump = open(dump_path, "w", encoding="utf-8") if dump_path else None
    try:
        if dump:
            dump.write("t,x,re_psi1,im_psi1,re_psi2,im_psi2\n")
        sample_iter = iter(samples)
        next_sample = next(sample_iter)
        for step_idx in range(n_steps + 1):
            t = step_idx * cfg.dt
            if step_idx == next_sample:
                self_state = ef.TwoComponentWavefunction(grid=grid, psi1=psi1, psi2=psi2)
                _record(self_state, reference(t), params, times, l2s, chi2s, ws, tgeos, t)
                if dump:
                    for xi, a, b in zip(grid.x, psi1, psi2):
                        dump.write(
                            f"{t:.17g},{xi:.17g},{a.real:.17g},{a.imag:.17g},"
                            f"{b.real:.17g},{b.imag:.17g}\n"
                        )
                next_sample = next(sample_iter, None)
            if step_idx == n_steps:
                break
            psi1, psi2 = _step_arrays(psi1, psi2, t, cfg.dt, h_provider, kin_phase, cfg.h_update)
            norm = grid.dx * (np.sum(np.abs(psi1) ** 2) + np.sum(np.abs(psi2) ** 2))
            if not np.isfinite(norm):
                raise VerificationFailure(f"norm diverged at step {step_idx + 1}")
            norm_drift = max(norm_drift, abs(norm - 1.0))
    finally:
        if dump:
            dump.close()

    final = ef.TwoComponentWavefunction(grid=grid, psi1=psi1, psi2=psi2)
    return PropagationResult(
        times=np.asarray(times),
        l2_errors=np.asarray(l2s),
        chi2_errors=np.asarray(chi2s),
        w_errors=np.asarray(ws),
        t_geo_errors=np.asarray(tgeos),
        norm_drift=float(norm_drift),
        final_state=final,
        steps=n_steps,
    )


def _record(state, ref, params, times, l2s, chi2s, ws, tgeos, t):
    grid = state.grid
    diff2 = np.abs(state.psi1 - ref.psi1) ** 2 + np.abs(state.psi2 - ref.psi2) ** 2
    l2s.append(float(np.sqrt(grid.integrate(diff2))))
    rho_num, rho_ref = state.density, ref.density
    chi2s.append(float(np.max(np.abs(rho_num - rho_ref))))
    # population difference on the visible part of the packet
    vis = rho_ref > 1e-8 * rho_ref.max()
    w_num = np.where(vis, (np.abs(state.psi1) ** 2 - np.abs(state.psi2) ** 2), 0.0)
    w_ref = np.where(vis, (np.abs(ref.psi1) ** 2 - np.abs(ref.psi2) ** 2), 0.0)
    rho_safe = np.where(vis, rho_ref, 1.0)
    ws.append(float(np.max(np.abs(w_num - w_ref) / rho_safe)))
    dec_num = ef.decompose(state, inertia=params.inertia)
    dec_ref = ef.decompose(ref, inertia=params.inertia)
    tgeos.append(abs(ef.geometric_energy(dec_num) - ef.geometric_energy(dec_ref)))
    times.append(t)


def convergence_order(params, grid: Grid1D, dts, t_end: float, h_update="per-step") -> dict:
    """Final-time L2 error for each dt plus the fitted convergence order."""
    errors = []
    for dt in dts:
        cfg = PropagatorConfig(dt=dt, t_end=t_end, h_update=h_update)
        res = propagate(params, grid, cfg, n_samples=2)
        errors.append(res.l2_errors[-1])
    order = float(np.polyfit(np.log(np.asarray(dts, dtype=float)), np.log(np.asarray(errors)), 1)[0])
    return {"dts": list(dts), "l2_errors": errors, "order": order}
