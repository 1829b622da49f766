import numpy as np
import pytest

from efgeo import ef, model, propagator
from efgeo.errors import AccuracyGuard, ConfigError, NumericalBlowup


def zero_h(grid):
    z = np.zeros(grid.n)
    return lambda t: (z, z, z)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            propagator.PropagatorConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ConfigError):
            propagator.PropagatorConfig(dt=1e-4, t_end=-1.0)
        with pytest.raises(ConfigError):
            propagator.PropagatorConfig(dt=1e-4, t_end=1.0, h_update="sometimes")

    def test_accuracy_guard(self):
        with pytest.raises(AccuracyGuard):
            propagator.PropagatorConfig(dt=1.0, t_end=1.0)


class TestPotentialFactor:
    def test_pure_global_phase(self, grid1024):
        # h1 = h3 = 0 leaves only exp(-i h0 tau) on each component
        rng = np.random.default_rng(0)
        psi1 = rng.normal(size=grid1024.n) + 1j * rng.normal(size=grid1024.n)
        psi2 = rng.normal(size=grid1024.n) + 1j * rng.normal(size=grid1024.n)
        h0 = np.full(grid1024.n, 0.37)
        zeros = np.zeros(grid1024.n)
        out1, out2 = propagator._potential_half(psi1, psi2, h0, zeros, zeros, 0.01)
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
        out1, out2 = propagator._potential_half(psi1, psi2, h0, h1, h3, tau)
        for i in range(40):
            H = np.array([[h0[i] + h3[i], h1[i]], [h1[i], h0[i] - h3[i]]])
            vals, vecs = np.linalg.eigh(H)
            U = vecs @ np.diag(np.exp(-1j * tau * vals)) @ vecs.conj().T
            expected = U @ np.array([psi1[i], psi2[i]])
            assert abs(out1[i] - expected[0]) <= 1e-14
            assert abs(out2[i] - expected[1]) <= 1e-14

    def test_unitary_pointwise(self, grid1024):
        rng = np.random.default_rng(2)
        h0, h1, h3 = rng.normal(size=(3, grid1024.n))
        psi1 = rng.normal(size=grid1024.n) + 1j * rng.normal(size=grid1024.n)
        psi2 = rng.normal(size=grid1024.n) + 1j * rng.normal(size=grid1024.n)
        out1, out2 = propagator._potential_half(psi1, psi2, h0, h1, h3, 0.02)
        before = np.abs(psi1) ** 2 + np.abs(psi2) ** 2
        after = np.abs(out1) ** 2 + np.abs(out2) ** 2
        assert np.max(np.abs(after - before)) <= 1e-13 * before.max()


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
        rho = res.final_state.density()
        center = grid4096.integrate(grid4096.x * rho)
        spread = np.sqrt(2.0 * grid4096.integrate((grid4096.x - center) ** 2 * rho))
        assert abs(center - model.mean_position(0.5, params)) <= 1e-3
        assert abs(spread - model.width(0.5, params)) <= 1e-3

    def test_second_order_convergence(self, params, grid4096):
        study = propagator.convergence_order(params, grid4096, (8e-4, 4e-4, 2e-4), t_end=0.5)
        assert 1.8 <= study["order"] <= 2.2

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
        with pytest.raises(NumericalBlowup):
            propagator.propagate(params, grid1024, cfg, h_provider=provider, n_samples=2)

    def test_trajectory_dump(self, params, grid1024, tmp_path):
        cfg = propagator.PropagatorConfig(dt=1e-3, t_end=0.01)
        path = tmp_path / "trajectory.csv"
        propagator.propagate(params, grid1024, cfg, n_samples=2, dump_path=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,x,re_psi1,im_psi1,re_psi2,im_psi2"
        assert len(lines) == 1 + 2 * grid1024.n
