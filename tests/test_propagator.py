import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from efgeo import ef, model, propagator
from efgeo.errors import ConfigError, VerificationFailure


def zero_h(grid):
    z = np.zeros(grid.n)
    return lambda t: (z, z, z)


def half_step(psi1, psi2, h0, h1, h3, tau):
    factor = propagator._potential_factor(h0, h1, h3, tau)
    return propagator._apply_potential(psi1, psi2, factor)


def eigh_exponential(h0, h1, h3, tau):
    """exp(-i tau H) of H = [[h0 + h3, h1], [h1, h0 - h3]] through numpy.linalg.eigh."""
    H = np.array([[h0 + h3, h1], [h1, h0 - h3]])
    vals, vecs = np.linalg.eigh(H)
    return vecs @ np.diag(np.exp(-1j * tau * vals)) @ vecs.conj().T


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            propagator.PropagatorConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ConfigError):
            propagator.PropagatorConfig(dt=1e-4, t_end=-1.0)
        with pytest.raises(ConfigError):
            propagator.PropagatorConfig(dt=1e-4, t_end=1.0, h_update="sometimes")

    def test_accuracy_guard(self):
        with pytest.raises(VerificationFailure, match="exceeds the guard"):
            propagator.PropagatorConfig(dt=1.0, t_end=1.0)


class TestPotentialFactor:
    def test_pure_global_phase(self, grid1024):
        # h1 = h3 = 0 leaves only exp(-i h0 tau) on each component
        rng = np.random.default_rng(0)
        psi1 = rng.normal(size=grid1024.n) + 1j * rng.normal(size=grid1024.n)
        psi2 = rng.normal(size=grid1024.n) + 1j * rng.normal(size=grid1024.n)
        h0 = np.full(grid1024.n, 0.37)
        zeros = np.zeros(grid1024.n)
        out1, out2 = half_step(psi1, psi2, h0, zeros, zeros, 0.01)
        phase = np.exp(-0.01j * 0.37)
        assert np.max(np.abs(out1 - phase * psi1)) <= 1e-15
        assert np.max(np.abs(out2 - phase * psi2)) <= 1e-15

    def test_matches_eigendecomposition_exponential(self):
        # independent oracle: 2x2 matrix exponential via numpy.linalg.eigh
        rng = np.random.default_rng(1)
        h0, h1, h3 = rng.normal(size=(3, 40))
        tau = 0.013
        psi1 = rng.normal(size=40) + 1j * rng.normal(size=40)
        psi2 = rng.normal(size=40) + 1j * rng.normal(size=40)
        out1, out2 = half_step(psi1, psi2, h0, h1, h3, tau)
        for i in range(40):
            expected = eigh_exponential(h0[i], h1[i], h3[i], tau) @ np.array([psi1[i], psi2[i]])
            assert abs(out1[i] - expected[0]) <= 1e-14
            assert abs(out2[i] - expected[1]) <= 1e-14

    def test_unitary_pointwise(self, grid1024):
        rng = np.random.default_rng(2)
        h0, h1, h3 = rng.normal(size=(3, grid1024.n))
        psi1 = rng.normal(size=grid1024.n) + 1j * rng.normal(size=grid1024.n)
        psi2 = rng.normal(size=grid1024.n) + 1j * rng.normal(size=grid1024.n)
        out1, out2 = half_step(psi1, psi2, h0, h1, h3, 0.02)
        before = np.abs(psi1) ** 2 + np.abs(psi2) ** 2
        after = np.abs(out1) ** 2 + np.abs(out2) ** 2
        assert np.max(np.abs(after - before)) <= 1e-13 * before.max()



# entries and step sizes of the fixed-seed cases above; zero couplings
# (|b| = 0, the sin|b|/|b| limit) drawn on purpose
_ENTRY = st.floats(-5.0, 5.0)
_COUPLING = st.one_of(st.just(0.0), _ENTRY)
_TAU = st.one_of(st.just(0.0), st.floats(0.0, 0.05))
_AMPLITUDE = st.complex_numbers(max_magnitude=3.0)


class TestPotentialFactorProperties:
    @settings(max_examples=200, deadline=None)
    @given(h0=_ENTRY, h1=_COUPLING, h3=_COUPLING, tau=_TAU)
    def test_unitary_pointwise(self, h0, h1, h3, tau):
        phase, upper, off, lower = propagator._potential_factor(
            np.array([h0]), np.array([h1]), np.array([h3]), tau
        )
        U = phase[0] * np.array([[upper[0], off[0]], [off[0], lower[0]]])
        assert np.max(np.abs(U.conj().T @ U - np.eye(2))) <= 1e-13

    @settings(max_examples=200, deadline=None)
    @given(h0=_ENTRY, h1=_COUPLING, h3=_COUPLING, tau=_TAU, psi1=_AMPLITUDE, psi2=_AMPLITUDE)
    def test_matches_eigendecomposition_exponential(self, h0, h1, h3, tau, psi1, psi2):
        out1, out2 = half_step(
            np.array([psi1]), np.array([psi2]), np.array([h0]), np.array([h1]), np.array([h3]), tau
        )
        expected = eigh_exponential(h0, h1, h3, tau) @ np.array([psi1, psi2])
        assert abs(out1[0] - expected[0]) <= 1e-14
        assert abs(out2[0] - expected[1]) <= 1e-14


def _old_potential_half(psi1, psi2, h0, h1, h3, tau):
    """The potential half-step as one function that builds its own factor,
    as every half-step did before the factor was shared."""
    b = tau * np.hypot(h1, h3)
    phase = np.exp(-1j * tau * h0)
    cosb = np.cos(b)
    safe = np.where(b != 0.0, b, 1.0)
    sinc = np.where(b != 0.0, np.sin(b) / safe, 1.0)
    diag = -1j * tau * h3 * sinc
    off = -1j * tau * h1 * sinc
    new1 = phase * ((cosb + diag) * psi1 + off * psi2)
    new2 = phase * (off * psi1 + (cosb - diag) * psi2)
    return new1, new2


def _old_step_arrays(psi1, psi2, t, dt, h_provider, kin_phase, h_update):
    per_step = h_update == "per-step"
    h = h_provider(t + (0.5 if per_step else 0.25) * dt)
    psi1, psi2 = _old_potential_half(psi1, psi2, *h, 0.5 * dt)
    psi1, psi2 = propagator._kinetic_full(psi1, psi2, kin_phase)
    if not per_step:
        h = h_provider(t + 0.75 * dt)
    return _old_potential_half(psi1, psi2, *h, 0.5 * dt)


@pytest.mark.parametrize("h_update", ["per-step", "per-half-step"])
@pytest.mark.parametrize("precision", ["extended", "double"])
def test_step_keeps_the_bits_of_two_full_half_steps(params, grid1024, h_update, precision):
    dt = 1e-3
    provider = propagator.model_h_provider(params, grid1024)
    kin_phase = propagator._kinetic_phase(grid1024, dt, params.inertia, precision)
    state = model.assemble_psi(0.0, grid1024, params)
    new = old = (state.psi1, state.psi2)
    for step in range(5):
        new = propagator._step_arrays(*new, step * dt, dt, provider, kin_phase, h_update)
        old = _old_step_arrays(*old, step * dt, dt, provider, kin_phase, h_update)
        assert np.array_equal(new[0], old[0]) and np.array_equal(new[1], old[1])


class TestScipyOnFirstUse:
    def test_cli_import_leaves_scipy_fft_unloaded(self):
        src = str(Path(propagator.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        code = "import sys, efgeo.cli; sys.exit(3 if 'scipy.fft' in sys.modules else 0)"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_extended_step_calls_scipy_fft_by_module_attribute(self, params, grid1024,
                                                               monkeypatch):
        # the benchmark tracer counts FFTs by patching these attributes
        calls = []
        for name in ("fft", "ifft"):
            original = getattr(scipy.fft, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(scipy.fft, name, counted)
        cfg = propagator.PropagatorConfig(dt=1e-4, t_end=1e-4)
        propagator.propagate(params, grid1024, cfg, n_samples=2)
        assert sorted(calls) == ["fft", "fft", "ifft", "ifft"]


class TestFreeParticle:
    def test_gaussian_spreading_matches_closed_form(self, params, grid1024):
        s0, x0 = 0.6, 1.0
        I = params.inertia
        x = grid1024.x
        envelope = (np.pi * s0 ** 2) ** -0.25 * np.exp(-((x - x0) ** 2) / (2.0 * s0 ** 2))
        initial = ef.TwoComponentWavefunction(
            grid=grid1024,
            psi1=envelope.astype(complex),
            psi2=np.zeros(grid1024.n, dtype=complex),
        )

        def reference(t):
            z = 1.0 + 1j * I * t / s0 ** 2
            f = (np.pi * s0 ** 2) ** -0.25 / np.sqrt(z) * np.exp(
                -((x - x0) ** 2) / (2.0 * s0 ** 2 * z)
            )
            return ef.TwoComponentWavefunction(
                grid=grid1024, psi1=f, psi2=np.zeros(grid1024.n, dtype=complex)
            )

        cfg = propagator.PropagatorConfig(dt=1e-3, t_end=1.0)
        res = propagator.propagate(
            params, grid1024, cfg,
            initial=initial, h_provider=zero_h(grid1024), reference=reference, n_samples=3,
        )
        assert res.l2_errors[-1] <= 1e-8


class TestModelPropagation:
    def test_short_horizon_accuracy(self, params, grid4096):
        cfg = propagator.PropagatorConfig(dt=2e-4, t_end=0.5)
        res = propagator.propagate(params, grid4096, cfg, n_samples=3)
        assert res.l2_errors[-1] <= 1e-6
        assert np.max(res.chi2_errors) <= 1e-6
        assert np.max(res.w_errors) <= 1e-5
        assert np.max(res.t_geo_errors) <= 1e-8
        assert res.norm_drift <= 1e-13

        # gaussian moments of the propagated density recover the prescribed
        # center and width (variance of exp(-u^2) is sigma^2 / 2)
        rho = res.final_state.density
        center = grid4096.integrate(grid4096.x * rho)
        spread = np.sqrt(2.0 * grid4096.integrate((grid4096.x - center) ** 2 * rho))
        assert abs(center - model.mean_position(0.5, params)) <= 1e-3
        assert abs(spread - model.width(0.5, params)) <= 1e-3

    def test_second_order_convergence(self, convergence_study):
        assert convergence_study["dts"] == [8e-4, 4e-4, 2e-4]
        assert 1.8 <= convergence_study["order"] <= 2.2

    def test_half_step_sampling_also_second_order(self, params, grid4096):
        study = propagator.convergence_order(
            params, grid4096, (8e-4, 4e-4), t_end=0.2, h_update="per-half-step"
        )
        assert 1.8 <= study["order"] <= 2.2

    def test_zero_horizon_is_identity(self, params, grid4096):
        cfg = propagator.PropagatorConfig(dt=1e-4, t_end=0.0)
        res = propagator.propagate(params, grid4096, cfg, n_samples=2)
        assert res.steps == 0
        assert res.l2_errors[-1] == 0.0

    def test_single_step(self, params, grid4096):
        cfg = propagator.PropagatorConfig(dt=1e-4, t_end=1e-4)
        stepped = propagator.propagate(params, grid4096, cfg, n_samples=2).final_state
        ref = model.assemble_psi(1e-4, grid4096, params)
        diff2 = np.abs(stepped.psi1 - ref.psi1) ** 2 + np.abs(stepped.psi2 - ref.psi2) ** 2
        assert np.sqrt(grid4096.integrate(diff2)) <= 1e-9

    def test_double_precision_kinetic_still_accurate(self, params, grid4096):
        cfg = propagator.PropagatorConfig(dt=4e-4, t_end=0.2, kinetic_precision="double")
        res = propagator.propagate(params, grid4096, cfg, n_samples=2)
        assert res.l2_errors[-1] <= 1e-5

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_detected(self, params, grid1024):
        # the closed-form factors are unitary for any finite entries, so a
        # blowup can only come from a provider that itself overflowed
        bad = np.full(grid1024.n, np.inf)
        provider = lambda t: (bad, bad, bad)
        cfg = propagator.PropagatorConfig(dt=1e-3, t_end=0.1)
        with pytest.raises(VerificationFailure, match="norm diverged at step 1$"):
            propagator.propagate(params, grid1024, cfg, h_provider=provider, n_samples=2)

    def test_trajectory_dump(self, params, grid1024, tmp_path):
        cfg = propagator.PropagatorConfig(dt=1e-3, t_end=0.01)
        path = tmp_path / "trajectory.csv"
        propagator.propagate(params, grid1024, cfg, n_samples=2, dump_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,re_psi1,im_psi1,re_psi2,im_psi2"
        assert len(lines) == 1 + 2 * grid1024.n
