import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from efgeo import ef, model, propagator
from efgeo.errors import ConfigError, VerificationFailure
from efgeo.grid import Grid1D


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

    def test_accuracy_guard(self):
        with pytest.raises(VerificationFailure, match="exceeds the guard"):
            propagator.PropagatorConfig(dt=1.0, t_end=1.0)

    def test_accuracy_guard_is_sharp(self):
        assert propagator.PropagatorConfig(dt=1e-3, t_end=1e-3).steps == 1
        past = np.nextafter(1e-3, np.inf)
        with pytest.raises(VerificationFailure, match="exceeds the guard"):
            propagator.PropagatorConfig(dt=past, t_end=past)

    # 100 steps of dt = 1e-3 end at 0.1; each pair of neighbouring floats
    # straddles a relative miss of 1e-9 (9.99999943e-10 and 1.00000008e-09 above,
    # 9.99999945e-10 and 1.00000008e-09 below)
    @pytest.mark.parametrize("accepted, refused", [(0.1000000001, 0.10000000010000001),
                                                   (0.09999999990000001, 0.0999999999)])
    def test_horizon_tolerance_is_sharp(self, accepted, refused):
        assert np.nextafter(accepted, refused) == refused
        assert propagator.PropagatorConfig(dt=1e-3, t_end=accepted).steps == 100
        with pytest.raises(ConfigError, match="is not a whole number of steps"):
            propagator.PropagatorConfig(dt=1e-3, t_end=refused)


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


def _old_step_arrays(psi1, psi2, t, dt, h_provider, kin_phase, work):
    h = h_provider(t + 0.5 * dt)
    psi1, psi2 = _old_potential_half(psi1, psi2, *h, 0.5 * dt)
    psi1, psi2 = propagator._kinetic_full(psi1, psi2, kin_phase, work)
    return _old_potential_half(psi1, psi2, *h, 0.5 * dt)


def test_step_keeps_the_bits_of_two_full_half_steps(params, grid1024):
    dt = 1e-3
    provider = lambda t: model.hamiltonian_entries(t, grid1024, params)
    kin_phase = propagator._kinetic_phase(grid1024, dt, params.inertia)
    work = np.empty((2, grid1024.n), np.clongdouble)
    state = model.assemble_psi(0.0, grid1024, params)
    new = old = (state.psi1, state.psi2)
    for step in range(5):
        new = propagator._step_arrays(*new, step * dt, dt, provider, kin_phase, work)
        old = _old_step_arrays(*old, step * dt, dt, provider, kin_phase, work)
        assert np.array_equal(new[0], old[0]) and np.array_equal(new[1], old[1])


class TestKineticStepOnNumpy:
    def test_propagate_leaves_scipy_unloaded(self):
        src = str(Path(propagator.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path}
        code = ("import sys\n"
                "from efgeo import model, propagator\n"
                "from efgeo.grid import Grid1D\n"
                "cfg = propagator.PropagatorConfig(dt=1e-3, t_end=1e-3)\n"
                "res = propagator.propagate(model.ModelParams(), Grid1D(-4.0, 6.0, 1024), cfg, n_samples=2)\n"
                "assert res.steps == 1\n"
                "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
                "sys.exit(f'scipy modules loaded: {loaded}' if loaded else 0)\n")
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_round_trip_computes_in_long_double(self, grid1024):
        # with a unit phase the buffer holds the round trip before it is
        # rounded back to double: a long-double transform misses the input
        # by about 1e-18, a double one (numpy < 2) by about 1e-15
        rng = np.random.default_rng(3)
        psi1, psi2 = rng.normal(size=(2, grid1024.n)) + 1j * rng.normal(size=(2, grid1024.n))
        work = np.empty((2, grid1024.n), np.clongdouble)
        propagator._kinetic_full(psi1, psi2, np.ones(grid1024.n, np.clongdouble), work)
        assert work.dtype == np.clongdouble
        assert np.max(np.abs(work - np.stack([psi1, psi2]))) <= 1e-17

    def test_step_makes_one_long_double_fft_and_ifft_by_module_attribute(self, params, grid1024,
                                                                         monkeypatch):
        # the benchmark tracer counts FFTs by patching these attributes; the
        # double-precision FFTs of the model's spectral antiderivative are
        # left out of the count
        calls = []
        for name in ("fft", "ifft"):
            original = getattr(np.fft, name)

            def counted(a, *args, _name=name, _original=original, **kwargs):
                if np.asarray(a).dtype == np.clongdouble:
                    calls.append(_name)
                return _original(a, *args, **kwargs)

            monkeypatch.setattr(np.fft, name, counted)
        cfg = propagator.PropagatorConfig(dt=1e-4, t_end=1e-4)
        propagator.propagate(params, grid1024, cfg, n_samples=2)
        assert calls == ["fft", "ifft"]


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
    def test_short_horizon_accuracy(self, params, grid4096, convergence_study):
        # the dt = 2e-4, t_end = 0.5 run, recorded at three times
        assert convergence_study["dts"][-1] == 2e-4
        res = convergence_study["runs"][-1]
        assert res.steps == 2500 and len(res.times) == 3
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

    def test_domain_missing_the_packet_refused_before_any_state(self, params, monkeypatch):
        built = []
        monkeypatch.setattr(model, "assemble_psi", lambda *args: built.append(args))
        cfg = propagator.PropagatorConfig(dt=1e-3, t_end=0.002)
        with pytest.raises(ConfigError, match="misses the packet"):  # 3 samples in 2 steps
            propagator.propagate(params, Grid1D(5.0, 6.0, 4096), cfg, n_samples=3)
        assert built == []

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_blowup_detected(self, params, grid1024):
        # the closed-form factors are unitary for any finite entries, so a
        # blowup can only come from a provider that itself overflowed
        bad = np.full(grid1024.n, np.inf)
        provider = lambda t: (bad, bad, bad)
        cfg = propagator.PropagatorConfig(dt=1e-3, t_end=0.1)
        with pytest.raises(VerificationFailure, match="norm diverged at step 1$"):
            propagator.propagate(params, grid1024, cfg, h_provider=provider, n_samples=2)

    @pytest.mark.parametrize("keep_states", [False, True])
    def test_keep_states(self, params, grid1024, keep_states):
        cfg = propagator.PropagatorConfig(dt=1e-3, t_end=0.01)
        res = propagator.propagate(params, grid1024, cfg, n_samples=3, keep_states=keep_states)
        if not keep_states:  # a default run holds only its final state
            assert res.states == []
            return
        # the state recorded at each sample time, the last of them the final state
        assert len(res.states) == 3 and res.states[-1] is res.final_state
        for t, state, l2 in zip(res.times, res.states, res.l2_errors):
            ref = model.assemble_psi(t, grid1024, params)
            diff2 = np.abs(state.psi1 - ref.psi1) ** 2 + np.abs(state.psi2 - ref.psi2) ** 2
            assert np.sqrt(grid1024.integrate(diff2)) == l2

    def test_report_is_the_run_summary(self, params, grid1024):
        res = propagator.propagate(params, grid1024, propagator.PropagatorConfig(1e-3, 0.002),
                                   n_samples=3)
        assert res.to_dict() == {
            "steps": 2,
            "final_l2_error": res.l2_errors[-1],
            "norm_drift": res.norm_drift,
            "max_chi2_error": max(res.chi2_errors),
            "max_t_geo_error": max(res.t_geo_errors),
        }
        assert all(type(value) in (int, float) for value in res.to_dict().values())


class TestSampleSteps:
    @settings(max_examples=200, deadline=None)
    @given(n_steps=st.integers(1, 1500), data=st.data())
    def test_every_accepted_count_gives_distinct_steps(self, n_steps, data):
        # the rule refuses exactly the counts that would make two samples coincide
        n_samples = data.draw(st.integers(2, n_steps + 1), label="n_samples")
        samples = propagator.sample_steps(n_steps, n_samples)
        assert len(set(samples)) == n_samples
        assert samples == sorted(samples) and samples[0] == 0 and samples[-1] == n_steps
        with pytest.raises(ConfigError, match=f"exceeds the {n_steps + 1} step indices"):
            propagator.sample_steps(n_steps, n_steps + 2)

    @pytest.mark.parametrize("n_samples, message", [
        (10 ** 20, "n_samples = 100000000000000000000 exceeds the 3 step indices 0..2 "
                   "of a run of 2 steps"),
        (2.5, "n_samples = 2.5 is not an integer"),
        (float("nan"), "n_samples = nan is not an integer"),
    ], ids=["huge", "fractional", "nan"])
    def test_refused_before_any_allocation(self, n_samples, message, monkeypatch):
        # 10**20 samples made np.linspace fail on its size, 10**12 ask for
        # 7.28 TiB; a float count raised TypeError
        monkeypatch.setattr(np, "linspace", lambda *args: pytest.fail("allocated"))
        with pytest.raises(ConfigError) as refusal:
            propagator.sample_steps(2, n_samples)
        assert str(refusal.value) == message

    def test_a_run_of_no_steps_records_its_one_state(self):
        assert propagator.sample_steps(0, 10 ** 20) == [0]


@pytest.mark.parametrize("dt, t_end, message", [
    ("1e-3", 1.0, "dt = '1e-3' is not a real number"),
    (1e-3, None, "t_end = None is not a real number"),
    (10 ** 400, 1.0, "dt is an integer beyond the double range"),
    (1e-3, 10 ** 400, "t_end is an integer beyond the double range"),
    (1e-300, 1e300, "t_end / dt = inf steps exceeds 2**53"),
    (5e-324, 1e-3, "t_end / dt = inf steps exceeds 2**53"),
], ids=["string_dt", "none_t_end", "huge_int_dt", "huge_int_t_end", "overflowing_ratio",
        "subnormal_dt"])
def test_config_refuses_what_it_cannot_compare(dt, t_end, message):
    # each raised TypeError or OverflowError
    with pytest.raises(ConfigError) as refusal:
        propagator.PropagatorConfig(dt=dt, t_end=t_end)
    assert str(refusal.value) == message


# anything a caller might pass, including NaN, infinities, negatives and
# huge values
_ANY = st.one_of(st.floats(), st.integers(), st.integers(2 ** 53, 2 ** 1100), st.booleans(),
                 st.text(max_size=4), st.none())
_GRID512 = Grid1D(-4.0, 6.0, 512)


def _half(usual, anything):
    """A usual value in about half the draws, anything in the rest."""
    return st.booleans().flatmap(lambda use: usual if use else anything)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
@pytest.mark.filterwarnings("error")
def test_public_entry_points_return_or_raise_their_own_errors(params, data):
    # usually a run of at most 3 steps
    dt = data.draw(_half(st.sampled_from([1e-3, 5e-4, 1e-4]), _ANY), label="dt")
    steps = st.integers(0, 3).map(lambda k: k * dt) if isinstance(dt, float) else _ANY
    t_end = data.draw(_half(steps, _ANY), label="t_end")
    n_samples = data.draw(_half(st.integers(2, 4), st.one_of(
        st.integers(-1, 5), st.integers(), st.integers(2 ** 53, 2 ** 80), st.floats(),
        st.booleans())), label="n_samples")
    keep_states = data.draw(st.booleans(), label="keep_states")
    try:
        cfg = propagator.PropagatorConfig(dt=dt, t_end=t_end)
        if cfg.steps > 3:  # accepted, but too long a run to take here
            event("long run")
            return
        samples = propagator.sample_steps(cfg.steps, n_samples)
        res = propagator.propagate(params, _GRID512, cfg, n_samples=n_samples,
                                   keep_states=keep_states)
    except (ConfigError, VerificationFailure) as err:
        event(f"refused: {type(err).__name__}")
        assert "\n" not in str(err)
        return
    event("ran")
    assert res.steps == cfg.steps
    assert res.times.tolist() == [step * cfg.dt for step in samples]
    assert len(res.states) == (len(samples) if keep_states else 0)
