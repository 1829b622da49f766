import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from periodic_states import make_periodic_state, regauged, smooth_gauge
from efgeo import ef, model
from efgeo.errors import ConfigError
from efgeo.grid import _D1_COEFFS, Grid1D


def closed_form_tensors(t, grid, params):
    """Printed closed forms for the model's metric and rank-3 tensors."""
    f = model._Fields(t, grid, params)
    wm2 = 1.0 - f.w ** 2
    g = 0.25 * f.w_x ** 2 / wm2 + 0.25 * wm2 * f.phi_x ** 2
    c = -0.25 / wm2 * (
        -f.w * wm2 ** 2 * f.phi_x ** 3
        - 3.0 * f.w * f.w_x ** 2 * f.phi_x
        + wm2 * (f.w_x * f.phi_xx - f.w_xx * f.phi_x)
    )
    d = -0.125 / wm2 ** 2 * (
        2.0 * f.w * f.w_x * (wm2 ** 2 * f.phi_x ** 2 + f.w_x ** 2)
        - wm2 * (
            4.0 * f.w * wm2 * f.w_x * f.phi_x ** 2
            - 2.0 * wm2 ** 2 * f.phi_x * f.phi_xx
            - 2.0 * f.w_x * f.w_xx
        )
    )
    return f, g, c, d


def whole(dec, name):
    """A window field of dec as a whole-grid field, zero off the window."""
    return dec.on_grid(getattr(dec, name))


def support(dec):
    """Points where decompose divides psi by |chi|; elsewhere Phi is a
    continuation from the nearest of them."""
    floor = ef.DEFAULT_FLOOR_RATIO * dec.chi2.max()
    return dec.chi2 > floor * ef.EXTENSION_RATIO


def gaussian_state(grid, spinor=(1.0, 0.0), k=0.0, x0=0.5, s0=0.7):
    chi = np.exp(-((grid.x - x0) ** 2) / (2.0 * s0 ** 2))
    chi = chi / np.sqrt(grid.integrate(chi ** 2))
    a, b = spinor
    carrier = np.exp(1j * k * grid.x)
    return ef.TwoComponentWavefunction(
        grid=grid, psi1=a * chi * carrier, psi2=b * chi * carrier
    )


class TestWavefunctionType:
    def test_rejects_unnormalized(self, grid1024):
        chi = np.exp(-grid1024.x ** 2)
        with pytest.raises(ConfigError, match="deviates from 1"):
            ef.TwoComponentWavefunction(
                grid=grid1024, psi1=chi.astype(complex), psi2=np.zeros(grid1024.n, dtype=complex)
            )

    def test_rejects_all_zero_state(self, grid1024):
        zero = np.zeros(grid1024.n, dtype=complex)
        with pytest.raises(ConfigError, match=r"state norm 0\.0 deviates from 1"):
            ef.TwoComponentWavefunction(grid=grid1024, psi1=zero, psi2=zero)

    def test_rejects_non_finite(self, grid1024):
        psi = gaussian_state(grid1024)
        bad = psi.psi1.copy()
        bad[0] = np.nan
        with pytest.raises(ConfigError, match="spinor component has non-finite entries"):
            ef.TwoComponentWavefunction(grid=grid1024, psi1=bad, psi2=psi.psi2)


class TestDecompose:
    def test_single_surface_real_state(self, grid1024):
        dec = ef.decompose(gaussian_state(grid1024))
        m = dec.mask
        assert np.max(np.abs(dec.phi1[m] - 1.0)) <= 1e-13
        assert np.max(np.abs(dec.phi2[m])) <= 1e-13
        assert np.max(np.abs(dec.connection[m])) <= 1e-13
        assert np.max(np.abs(dec.metric[m])) <= 1e-13
        assert np.max(np.abs(dec.c_tensor[m])) <= 1e-13
        assert np.max(np.abs(dec.d_tensor[m])) <= 1e-13

    def test_global_phase_invariance(self, grid1024):
        psi = gaussian_state(grid1024, spinor=(0.8, 0.6), k=2.0 * np.pi / grid1024.length)
        base = ef.decompose(psi)
        rot = ef.decompose(
            ef.TwoComponentWavefunction(
                grid=grid1024,
                psi1=np.exp(1.3j) * psi.psi1,
                psi2=np.exp(1.3j) * psi.psi2,
            )
        )
        m = base.mask
        for a, b in ((base.connection, rot.connection), (base.metric, rot.metric),
                     (base.c_tensor, rot.c_tensor), (base.d_tensor, rot.d_tensor)):
            assert np.max(np.abs(a - b)[m]) <= 1e-12

    def test_population_difference_matches_model(self, params, grid4096):
        psi = model.assemble_psi(0.0, grid4096, params)
        dec = ef.decompose(psi)
        b = model._Fields(0.0, grid4096, params)
        m = dec.mask
        wrec = np.abs(dec.phi1) ** 2 - np.abs(dec.phi2) ** 2
        assert np.max(np.abs(wrec - b.w)[m]) <= 1e-10

    def test_partial_normalization(self, params, grid4096):
        dec = ef.decompose(model.assemble_psi(1.0, grid4096, params))
        norm = np.abs(dec.phi1) ** 2 + np.abs(dec.phi2) ** 2
        assert np.max(np.abs(norm - 1.0)[dec.mask]) <= 1e-10

    def test_covariant_projection_vanishes(self, params, grid4096):
        # Re <Phi | (P - A) Phi> = 0 pointwise by construction of A
        dec = ef.decompose(model.assemble_psi(0.5, grid4096, params))
        win = dec.window
        proj = np.real(np.conj(dec.phi1[win]) * dec.cov1 + np.conj(dec.phi2[win]) * dec.cov2)
        assert np.max(np.abs(proj)[dec.mask[win]]) <= 1e-8

    @pytest.mark.parametrize("seed", [0, 1])
    def test_factorization_reconstructs_state(self, params, grid4096, seed):
        # chi * Phi must reproduce psi wherever the division was performed
        t = 0.4 + 0.9 * seed
        psi = model.assemble_psi(t, grid4096, params)
        dec = ef.decompose(psi)
        live = support(dec)
        chi = dec.chi_abs
        err1 = np.abs(chi * dec.phi1 - psi.psi1)[live]
        err2 = np.abs(chi * dec.phi2 - psi.psi2)[live]
        scale = np.abs(psi.psi1).max()
        assert max(err1.max(), err2.max()) <= 1e-14 * scale

    def test_eager_fields_populated_with_inertia(self, params, grid4096):
        dec = ef.decompose(model.assemble_psi(0.2, grid4096, params), inertia=params.inertia)
        assert dec.inertia == params.inertia
        # the current formed on the window is the whole-grid current there
        current = params.inertia * dec.chi2[dec.window] * dec.connection
        assert np.array_equal(dec.on_grid(current), params.inertia * dec.chi2 * whole(dec, "connection"))
        bare = ef.decompose(model.assemble_psi(0.2, grid4096, params))
        assert bare.inertia is None

    def test_decomposition_reads_the_state_density(self, params, grid4096):
        psi = model.assemble_psi(0.2, grid4096, params)
        assert ef.decompose(psi).chi2 is psi.density

    def test_disjoint_support_islands(self, grid1024):
        # two well-separated packets: the mask splits into islands and the
        # continuation bridges the dead valley without producing non-finite
        # tensors; each island still carries its own plane-wave connection
        x = grid1024.x
        k = 4.0 * 2.0 * np.pi / grid1024.length
        left = np.exp(-((x + 1.5) ** 2) / (2.0 * 0.15 ** 2)) * np.exp(1j * k * x)
        right = np.exp(-((x - 3.5) ** 2) / (2.0 * 0.15 ** 2))
        chi = np.sqrt(np.abs(left) ** 2 + np.abs(right) ** 2)
        norm = np.sqrt(grid1024.integrate(chi ** 2))
        psi = ef.TwoComponentWavefunction(
            grid=grid1024, psi1=left / norm, psi2=right / norm
        )
        dec = ef.decompose(psi)
        islands = np.flatnonzero(np.diff(dec.mask.astype(int)) == 1)
        assert islands.size >= 2
        assert np.all(np.isfinite(dec.connection)) and np.all(np.isfinite(dec.c_tensor))
        left_core = dec.mask & (np.abs(x + 1.5) < 0.3)
        assert np.max(np.abs(whole(dec, "connection")[left_core] - k)) <= 1e-6

    def test_extension_flag_marks_dead_zone(self, params, grid4096):
        # at t = 5 the gaussian underflows to exact zero near the left edge
        dec = ef.decompose(model.assemble_psi(5.0, grid4096, params))
        extended = ~support(dec)
        assert extended.any()
        assert not extended[dec.mask].any()
        assert np.all(np.isfinite(dec.phi1)) and np.all(np.isfinite(dec.phi2))
        # beyond the support Phi keeps the values of its first and last points
        live = np.flatnonzero(~extended)
        for phi in (dec.phi1, dec.phi2):
            assert np.all(phi[:live[0]] == phi[live[0]]) and np.all(phi[live[-1]:] == phi[live[-1]])

    def test_floor_insensitivity(self, params, grid4096, monkeypatch):
        psi = model.assemble_psi(1.0, grid4096, params)
        decs = []
        for ratio in (1e-12, 1e-13, 1e-14):
            monkeypatch.setattr(ef, "DEFAULT_FLOOR_RATIO", ratio)
            decs.append(ef.decompose(psi))
        common = decs[0].mask & decs[1].mask & decs[2].mask
        for a, b in ((decs[0], decs[1]), (decs[1], decs[2])):
            assert np.max(np.abs(whole(a, "connection") - whole(b, "connection"))[common]) <= 1e-9
            assert np.max(np.abs(whole(a, "metric") - whole(b, "metric"))[common]) <= 1e-9
            assert np.max(np.abs(whole(a, "c_tensor") - whole(b, "c_tensor"))[common]) <= 1e-9
            assert np.max(np.abs(whole(a, "d_tensor") - whole(b, "d_tensor"))[common]) <= 1e-9


class TestConnection:
    def test_real_spinor_gives_zero(self, grid1024):
        dec = ef.decompose(gaussian_state(grid1024, spinor=(0.6, 0.8)))
        assert np.max(np.abs(dec.connection[dec.mask])) <= 1e-13

    def test_plane_wave_phase(self, grid1024):
        k = 3.0 * 2.0 * np.pi / grid1024.length
        dec = ef.decompose(gaussian_state(grid1024, k=k))
        assert np.max(np.abs(dec.connection - k)[dec.mask]) <= 1e-9

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_model_connection_matches_closed_form(self, params, grid4096, t):
        dec = ef.decompose(model.assemble_psi(t, grid4096, params))
        closed = model.vector_potential(grid4096.x, t, params)
        assert np.max(np.abs(whole(dec, "connection") - closed)[dec.mask]) <= 1e-7


class TestMetric:
    def test_position_independent_spinor(self, grid1024):
        dec = ef.decompose(gaussian_state(grid1024, spinor=(0.6, 0.8)))
        assert np.max(np.abs(dec.metric[dec.mask])) <= 1e-13

    def test_pure_phase_state(self, grid1024):
        k = 2.0 * 2.0 * np.pi / grid1024.length
        dec = ef.decompose(gaussian_state(grid1024, k=k))
        assert np.max(np.abs(dec.metric[dec.mask])) <= 1e-12

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_model_metric_matches_closed_form(self, params, grid4096, t):
        dec = ef.decompose(model.assemble_psi(t, grid4096, params))
        _, g_closed, _, _ = closed_form_tensors(t, grid4096, params)
        assert np.max(np.abs(whole(dec, "metric") - g_closed)[dec.mask]) <= 1e-7

    def test_metric_non_negative(self, params, grid4096):
        dec = ef.decompose(model.assemble_psi(0.8, grid4096, params))
        assert np.min(dec.metric) >= 0.0

    def test_equivalent_forms(self, params, grid4096):
        # <dPhi|dPhi> - A^2 against the covariant-square form
        dec = ef.decompose(model.assemble_psi(0.3, grid4096, params))
        alt = (np.abs(dec.dphi1) ** 2 + np.abs(dec.dphi2) ** 2) - dec.connection ** 2
        assert np.max(np.abs(alt - dec.metric)[dec.mask[dec.window]]) <= 1e-10


class TestRankThreeTensors:
    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_model_tensors_match_closed_forms(self, params, grid4096, t):
        dec = ef.decompose(model.assemble_psi(t, grid4096, params))
        _, _, c_closed, d_closed = closed_form_tensors(t, grid4096, params)
        m = dec.mask
        assert np.max(np.abs(whole(dec, "c_tensor") - c_closed)[m]) <= 1e-6
        assert np.max(np.abs(whole(dec, "d_tensor") - d_closed)[m]) <= 1e-6

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_d_equals_minus_half_metric_gradient(self, params, grid4096, t):
        dec = ef.decompose(model.assemble_psi(t, grid4096, params))
        dg = grid4096.derivative(whole(dec, "metric"), 1, "fd12")
        assert np.max(np.abs(whole(dec, "d_tensor") + 0.5 * dg)[dec.mask]) <= 1e-6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_d_relation_on_synthetic_states(self, grid1024, seed):
        state, _ = make_periodic_state(grid1024, seed=seed)
        dec = ef.decompose(state, method="spectral")
        dg = grid1024.derivative(dec.metric, 1, "spectral")
        assert np.max(np.abs(dec.d_tensor + 0.5 * dg)) <= 1e-8

    def test_position_independent_spinor_gives_zero(self, grid1024):
        dec = ef.decompose(gaussian_state(grid1024, spinor=(0.6, 0.8)))
        m = dec.mask
        assert np.max(np.abs(dec.c_tensor[m])) <= 1e-12
        assert np.max(np.abs(dec.d_tensor[m])) <= 1e-12


def _eager_bracket(dec):
    """Reference: the rank-3 bracket built eagerly, (P - A)Phi from dPhi and
    then once more over the whole grid, in the operation order the lazy
    bracket must keep."""
    grid, A, method = dec.grid, whole(dec, "connection"), dec.method
    g1 = -1j * whole(dec, "dphi1") - A * dec.phi1
    g2 = -1j * whole(dec, "dphi2") - A * dec.phi2
    h1 = -1j * grid.derivative(g1, 1, method) - A * g1
    h2 = -1j * grid.derivative(g2, 1, method) - A * g2
    return np.conj(g1) * h1 + np.conj(g2) * h2


class TestLazyBracket:
    @pytest.mark.parametrize("first", ["c_tensor", "d_tensor"])
    @pytest.mark.parametrize("method", ["fd12", "spectral"])
    def test_bracket_is_built_once_on_first_read(self, params, grid1024, monkeypatch,
                                                 first, method):
        # decompose takes dPhi with grid.derivative; only the bracket
        # differentiates a window field, once for each component
        state = model.assemble_psi(0.7, grid1024, params)
        calls = []
        original = ef.EFDecomposition.diff

        def counted(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(ef.EFDecomposition, "diff", counted)
        dec = ef.decompose(state, inertia=params.inertia, method=method)
        assert len(calls) == 0
        ef.geometric_energy(dec)
        assert len(calls) == 0
        getattr(dec, first)
        assert len(calls) == 2
        c, d = dec.c_tensor, dec.d_tensor
        assert len(calls) == 2
        monkeypatch.undo()

        eager = _eager_bracket(dec)
        assert np.array_equal(dec.on_grid(c), eager.real)
        assert np.array_equal(dec.on_grid(d), eager.imag)


class TestEnergies:
    @pytest.mark.parametrize("t", [0.0, 1.0, 2.0])
    def test_kinetic_partition_model(self, params, grid4096, t):
        dec = ef.decompose(model.assemble_psi(t, grid4096, params), inertia=params.inertia)
        en = ef.energies(dec)
        assert abs(en.total - en.marginal - en.geometric) <= 1e-8 * en.total

    @pytest.mark.parametrize("seed", [3, 4])
    def test_kinetic_partition_synthetic(self, grid1024, seed):
        state, _ = make_periodic_state(grid1024, seed=seed, winding=1)
        dec = ef.decompose(state, inertia=0.1, method="spectral")
        en = ef.energies(dec)
        assert abs(en.total - en.marginal - en.geometric) <= 1e-8 * en.total

    def test_real_gaussian_single_surface(self, grid1024):
        dec = ef.decompose(gaussian_state(grid1024), inertia=0.1)
        en = ef.energies(dec)
        assert abs(en.geometric) <= 1e-12
        assert en.marginal == pytest.approx(en.total, abs=1e-12)

    def test_plane_wave_carrier_adds_kinetic_energy(self, grid1024):
        inertia = 0.1
        k = 4.0 * 2.0 * np.pi / grid1024.length
        dec0 = ef.decompose(gaussian_state(grid1024, spinor=(0.6, 0.8)), inertia=inertia)
        dec_k = ef.decompose(gaussian_state(grid1024, spinor=(0.6, 0.8), k=k), inertia=inertia)
        en0, en_k = ef.energies(dec0), ef.energies(dec_k)
        assert abs(en_k.geometric) <= 1e-12
        assert en_k.marginal - en0.marginal == pytest.approx(0.5 * inertia * k ** 2, rel=1e-10)

    def test_inertia_required(self, grid1024):
        dec = ef.decompose(gaussian_state(grid1024))
        with pytest.raises(ConfigError):
            ef.energies(dec)


def current(dec):
    """The current inertia * chi2 * A over the whole grid."""
    return dec.inertia * dec.chi2 * whole(dec, "connection")


class TestCurrent:
    def test_zero_for_real_state(self, grid1024):
        dec = ef.decompose(gaussian_state(grid1024), inertia=0.1)
        assert np.max(np.abs(current(dec))) <= 1e-13

    def test_linear_in_inertia(self, params, grid4096):
        psi = model.assemble_psi(0.7, grid4096, params)
        j2 = current(ef.decompose(psi, inertia=0.2))
        j1 = current(ef.decompose(psi, inertia=0.1))
        assert np.allclose(j2, 2.0 * j1, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_continuity_through_decomposition(self, params, grid4096, t):
        dec = ef.decompose(model.assemble_psi(t, grid4096, params), inertia=params.inertia)
        dJ = grid4096.derivative(current(dec), 1, "fd12")
        residual = model.nuclear_density_rate(grid4096.x, t, params) + dJ
        assert np.max(np.abs(residual)[dec.mask]) <= 1e-7


class TestGaugeTransformations:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_connection_shifts_by_gauge_gradient(self, grid1024, seed):
        state, _ = make_periodic_state(grid1024, seed=seed)
        theta, theta_x = smooth_gauge(grid1024, seed=seed)
        base = ef.decompose(state, method="spectral")
        shifted = ef.decompose(regauged(state, theta), method="spectral")
        assert np.max(np.abs(shifted.connection - base.connection - theta_x)) <= 1e-9

    @pytest.mark.parametrize("seed", [0, 5])
    def test_covariant_tensors_invariant(self, grid1024, seed):
        state, _ = make_periodic_state(grid1024, seed=seed)
        theta, _ = smooth_gauge(grid1024, seed=seed)
        base = ef.decompose(state, method="spectral")
        shifted = ef.decompose(regauged(state, theta), method="spectral")
        assert np.max(np.abs(shifted.metric - base.metric)) <= 1e-8
        assert np.max(np.abs(shifted.c_tensor - base.c_tensor)) <= 1e-8
        assert np.max(np.abs(shifted.d_tensor - base.d_tensor)) <= 1e-8


# random periodic states: every seed draws its amplitudes and phases from the
# same bounded ranges, so the roundoff-level bounds below hold for any seed
_SEEDS = st.integers(min_value=0, max_value=2 ** 32 - 1)


class TestRandomStateProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=_SEEDS, winding=st.sampled_from([0, 1]))
    def test_kinetic_partition(self, grid1024, seed, winding):
        state, _ = make_periodic_state(grid1024, seed=seed, winding=winding)
        en = ef.energies(ef.decompose(state, inertia=0.1, method="spectral"))
        assert abs(en.total - en.marginal - en.geometric) <= 1e-8 * en.total

    @settings(max_examples=25, deadline=None)
    @given(seed=_SEEDS, gauge_seed=_SEEDS, winding=st.sampled_from([0, 1]))
    def test_gauge_covariance(self, grid1024, seed, gauge_seed, winding):
        state, _ = make_periodic_state(grid1024, seed=seed, winding=winding)
        theta, theta_x = smooth_gauge(grid1024, seed=gauge_seed)
        base = ef.decompose(state, method="spectral")
        shifted = ef.decompose(regauged(state, theta), method="spectral")
        for name in ("metric", "c_tensor", "d_tensor"):
            assert np.max(np.abs(getattr(shifted, name) - getattr(base, name))) <= 1e-8, name
        assert np.max(np.abs(shifted.connection - base.connection - theta_x)) <= 1e-9


def _whole_grid_reference(psi, inertia):
    """Reference: the decomposition with every stencil over the whole grid,
    as (mask, connection, metric, bracket, geometric energy)."""
    grid, chi2 = psi.grid, psi.density
    floor = ef.DEFAULT_FLOOR_RATIO * chi2.max()
    support = chi2 > floor * ef.EXTENSION_RATIO
    chi_safe = np.where(support, np.sqrt(chi2), 1.0)
    nearest = ef._nearest_fill(support)
    phi1, phi2 = (psi.psi1 / chi_safe)[nearest], (psi.psi2 / chi_safe)[nearest]
    d1, d2 = grid.derivative(phi1, 1, "fd12"), grid.derivative(phi2, 1, "fd12")
    A = np.imag(np.conj(phi1) * d1 + np.conj(phi2) * d2)
    g1, g2 = -1j * d1 - A * phi1, -1j * d2 - A * phi2
    metric = np.abs(g1) ** 2 + np.abs(g2) ** 2
    h1 = -1j * grid.derivative(g1, 1, "fd12") - A * g1
    h2 = -1j * grid.derivative(g2, 1, "fd12") - A * g2
    bracket = np.conj(g1) * h1 + np.conj(g2) * h2
    mask = chi2 > floor
    energy = float(0.5 * inertia * grid.integrate(np.where(mask, chi2, 0.0) * metric))
    return mask, A, metric, bracket, energy


def _assert_window_keeps_bits(psi, inertia, where=None):
    """The decomposition on its window against the whole-grid reference, bit
    for bit on the mask (or on where) and in the geometric energy."""
    dec = ef.decompose(psi, inertia=inertia)
    mask, A, metric, bracket, energy = _whole_grid_reference(psi, inertia)
    assert np.array_equal(dec.mask, mask)
    m = mask if where is None else where
    for name, ref in (("connection", A), ("metric", metric),
                      ("c_tensor", bracket.real), ("d_tensor", bracket.imag)):
        assert np.array_equal(whole(dec, name)[m], ref[m])
    assert ef.geometric_energy(dec) == energy
    return dec


class TestSupportWindow:
    @settings(max_examples=30, deadline=None)
    @given(eta=st.floats(0.005, 0.49), log_mass=st.floats(1.0, 2.5),
           log_gamma=st.floats(0.0, 2.2), t=st.floats(0.0, 10.0))
    def test_window_keeps_the_whole_grid_bits(self, eta, log_mass, log_gamma, t):
        params = model.ModelParams(eta=eta, mass=10.0 ** log_mass, gamma=10.0 ** log_gamma)
        grid = Grid1D(-4.0, 6.0, 2048)
        try:
            psi = model.assemble_psi(t, grid, params)
        except ConfigError:  # the packet has left the domain: no state
            assume(False)
        dec = _assert_window_keeps_bits(psi, params.inertia)
        win = dec.window
        assert dec.mask[win].sum() == dec.mask.sum()
        # diff wraps round a window inside the grid onto its zero ends
        if win != slice(0, grid.n):
            halo = len(_D1_COEFFS["fd12"][0])
            for field in (dec.dphi1, dec.cov2, dec.connection, dec.metric, dec.bracket):
                assert not field[:halo].any() and not field[-halo:].any()
        for field in (dec.connection, dec.cov1, dec.metric, dec.c_tensor * dec.chi2[win]):
            whole_grid = grid.derivative(dec.on_grid(field), 1, "fd12", win)
            assert np.array_equal(dec.diff(field), whole_grid)

    def test_support_islands_keep_the_bits(self, grid1024):
        # two packets with a dead valley between them: the window spans both,
        # and Phi is filled from the nearest supported point inside it
        x = grid1024.x
        left = np.exp(-((x + 1.5) ** 2) / (2.0 * 0.15 ** 2)) * np.exp(1j * 3.0 * x)
        right = np.exp(-((x - 3.5) ** 2) / (2.0 * 0.15 ** 2))
        norm = np.sqrt(grid1024.integrate(np.abs(left) ** 2 + np.abs(right) ** 2))
        psi = ef.TwoComponentWavefunction(grid=grid1024, psi1=left / norm, psi2=right / norm)
        dec = _assert_window_keeps_bits(psi, 0.1)
        assert 0 < dec.window.start and dec.window.stop < grid1024.n
        assert not support(dec)[dec.window].all()

    def test_edge_packet_uses_the_whole_periodic_grid(self, grid1024):
        # the support reaches the left edge, so the window would leave the
        # grid: every stencil runs over the whole grid, with wrap, and every
        # field keeps its bits also off the mask
        psi = gaussian_state(grid1024, spinor=(0.8, 0.6), k=2.0, x0=-3.4, s0=0.3)
        dec = _assert_window_keeps_bits(psi, 0.1, where=slice(None))
        assert dec.window == slice(0, grid1024.n)

    def test_periodic_state_uses_the_whole_grid(self, grid1024):
        state, _ = make_periodic_state(grid1024, seed=2, winding=1)
        dec = _assert_window_keeps_bits(state, 0.1, where=slice(None))
        assert dec.mask.all() and dec.window == slice(0, grid1024.n)

    @pytest.mark.parametrize("box,method,window", [
        (slice(18, 100), "fd12", slice(6, 112)),       # the halo starts at the first point
        (slice(17, 100), "fd12", slice(0, 1024)),      # it would wrap
        (slice(300, 1006), "fd12", slice(288, 1018)),  # the halo ends at the last point
        (slice(300, 1007), "fd12", slice(0, 1024)),
        (slice(300, 400), "fd4", slice(296, 404)),
        (slice(300, 400), "spectral", slice(0, 1024)),
    ])
    def test_window_widens_the_box_by_two_half_widths(self, box, method, window):
        assert ef._window(box, 1024, method) == window
