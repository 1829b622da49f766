import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from efgeo import ef, geometry as geo
from efgeo.errors import ConfigError
from efgeo.grid import Grid1D


@pytest.fixture(scope="module")
def smooth64():
    grid = geo.ParamGrid((64, 64))
    family = geo.build_family(geo.smooth_recipe(), grid)
    return family, geo.tensors(family)


class TestParamGrid:
    def test_valid_construction(self):
        grid = geo.ParamGrid((64, 48))
        assert grid.d == 2
        assert grid.spacings[0] == pytest.approx(2.0 * np.pi / 64)

    def test_too_few_points(self):
        with pytest.raises(ConfigError):
            geo.ParamGrid((8, 8))

    @pytest.mark.parametrize("shape", [(32.7, 40), (32.0, 40), 32])
    def test_non_integer_sizes_refused(self, shape):
        # a float size would otherwise be truncated
        with pytest.raises(ConfigError, match=r"^shape .* is not a tuple of integer sizes$"):
            geo.ParamGrid(shape)

    def test_dimension_bound(self):
        with pytest.raises(ConfigError):
            geo.ParamGrid((32, 32, 32, 32))

    def test_diff_single_mode(self):
        grid = geo.ParamGrid((64, 64))
        Q1, Q2 = grid.meshes()
        f = np.sin(Q1 + 0.3) * np.cos(Q2)
        exact = np.cos(Q1 + 0.3) * np.cos(Q2)
        assert np.max(np.abs(grid.diff(f, 0) - exact)) <= 1e-4

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_diff_on_rows_is_the_whole_derivative_on_rows(self, data):
        # single planes, slices inside the axis, and slices that touch the
        # wrap or whose stencil crosses it
        shape = data.draw(st.lists(st.integers(32, 40), min_size=1, max_size=3), label="shape")
        m = shape[0]
        bound = st.one_of(st.none(), st.integers(-m - 2, m + 2))
        rows = data.draw(st.one_of(
            st.integers(-m, m - 1).map(lambda i: slice(i, i + 1 or None)),
            st.builds(slice, bound, bound),
        ), label="rows")
        grid = geo.ParamGrid(shape)
        rng = np.random.default_rng(len(shape))
        f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        for axis in range(grid.d):
            assert np.array_equal(grid.diff(f, axis, rows), grid.diff(f, axis)[rows]), axis


class TestRecipes:
    def test_w_bound_enforced(self):
        grid = geo.ParamGrid((32, 32))
        bad = geo.FamilyRecipe(
            w=lambda *Q: 1.2 * np.sin(Q[0]),
            phi=lambda *Q: np.zeros(Q[0].shape),
            a=lambda *Q: np.zeros(Q[0].shape),
        )
        with pytest.raises(ConfigError, match=r"\|w\| reaches 1.2000 > 0.999"):
            geo.build_family(bad, grid)

    def test_field_that_does_not_broadcast_to_the_grid(self):
        # a recipe field may depend on fewer axes, but must broadcast
        grid = geo.ParamGrid((32, 40))
        rec = geo.smooth_recipe()
        bad = geo.FamilyRecipe(w=rec.w, phi=lambda *Q: np.zeros((40, 32)), a=rec.a)
        with pytest.raises(ConfigError, match=r"recipe field phi has shape \(40, 32\), expected \(32, 40\)"):
            geo.build_family(bad, grid)

    def test_constant_family_all_tensors_vanish(self):
        grid = geo.ParamGrid((32, 32))
        ts = geo.tensors(geo.build_family(geo.constant_recipe(), grid))
        christoffel = [piece for _, piece in geo._christoffel_pieces(ts)]
        for field in (ts.a, ts.b, ts.g, ts.c, ts.d, *christoffel):
            assert np.max(np.abs(field)) <= 1e-14

    def test_pure_gauge_tensors(self):
        grid = geo.ParamGrid((64, 64))
        ts = geo.tensors(geo.build_family(geo.pure_gauge_recipe(), grid))
        # connection equals the gauge gradient 1 up to the stencil symbol error
        assert np.max(np.abs(ts.a[0] - 1.0)) <= 1e-4
        assert np.max(np.abs(ts.a[1])) <= 1e-14
        for field in (ts.b, ts.g, ts.c, ts.d):
            assert np.max(np.abs(field)) <= 1e-12

    def test_constant_w_linear_phi_metric(self):
        # phi = c Q^1 with even c keeps the spinor periodic;
        # g_11 = (1 - w^2) c^2 / 4 and g_22 = 0
        w0, c = 0.3, 2.0
        rec = geo.FamilyRecipe(
            w=lambda *Q: np.full(Q[0].shape, w0),
            phi=lambda *Q: c * Q[0],
            a=lambda *Q: np.zeros(Q[0].shape),
        )
        errs = []
        for m in (64, 128):
            ts = geo.tensors(geo.build_family(rec, geo.ParamGrid((m, m))))
            errs.append(np.max(np.abs(ts.g[0, 0] - 0.25 * (1.0 - w0 ** 2) * c ** 2)))
            assert np.max(np.abs(ts.g[1, 1])) <= 1e-14
        assert errs[0] <= 1e-4
        assert errs[0] / errs[1] > 12.0


class TestTensorStructure:
    def test_metric_symmetric(self, smooth64):
        _, ts = smooth64
        assert np.array_equal(ts.g[0, 1], ts.g[1, 0])

    def test_curvature_antisymmetric(self, smooth64):
        _, ts = smooth64
        assert np.array_equal(ts.b[0, 1], -ts.b[1, 0])
        assert np.max(np.abs(ts.b[0, 0])) == 0.0

    def test_rank3_symmetric_in_last_two_indices(self, smooth64):
        _, ts = smooth64
        checks = geo.check_symmetries(ts)
        assert checks["c_last_two_symmetric"] <= 1e-7
        assert checks["d_last_two_symmetric"] <= 1e-7

    def test_metric_positive_semidefinite(self, smooth64):
        _, ts = smooth64
        mats = np.moveaxis(ts.g, (0, 1), (-2, -1))
        eigvals = np.linalg.eigvalsh(mats)
        assert eigvals.min() >= -1e-12


class TestIdentities:
    def test_smooth_family_all_identities(self, smooth64):
        _, ts = smooth64
        res = geo.check_decompositions(ts)
        res["d_plus_christoffel"] = geo.check_d_christoffel(ts)
        res["c_b_exchange"] = geo.check_cb_identity(ts)
        for name in geo.IDENTITY_NAMES:
            assert res[name] <= 1e-6, name

    def test_pure_gauge_residuals_vanish(self):
        res = geo.identity_residuals(geo.pure_gauge_recipe(), geo.ParamGrid((64, 64)))
        for name in geo.IDENTITY_NAMES:
            assert res[name] <= 1e-12, name

    def test_d1_embedding_trivial_exchange(self):
        # in one dimension the curvature vanishes and the exchange identity
        # reduces to the last-two-index symmetry
        grid = geo.ParamGrid((64,))
        rec = geo.smooth_recipe()
        ts = geo.tensors(geo.build_family(rec, grid))
        assert np.max(np.abs(ts.b)) == 0.0
        assert geo.check_cb_identity(ts) <= 1e-7

    def test_convergence_orders(self):
        study = geo.convergence_study(geo.smooth_recipe(), sizes=(48, 64, 96), d=2)
        for name in geo.IDENTITY_NAMES:
            assert study[name]["order"] >= 3.5, name

    def test_gauge_shift_leaves_residuals_stable(self):
        # both sides of the raw expansions transform consistently, so the
        # discretization residual barely moves under a gauge change
        grid = geo.ParamGrid((128, 128))
        base = geo.identity_residuals(geo.smooth_recipe(), grid)
        rec = geo.smooth_recipe()
        shifted = geo.FamilyRecipe(
            w=rec.w,
            phi=rec.phi,
            a=lambda *Q: rec.a(*Q) + 0.02 * np.sin(Q[0] + 0.2) * np.cos(Q[1]),
        )
        res = geo.identity_residuals(shifted, grid)
        for name in ("d_raw_expansion", "c_raw_expansion"):
            assert abs(res[name] - base[name]) <= 1e-8, name

    def test_three_dimensional_family(self):
        res = geo.identity_residuals(geo.smooth_recipe(), geo.ParamGrid((32, 32, 32)))
        for name in geo.IDENTITY_NAMES:
            assert res[name] <= 1e-4, name

    def test_three_dimensional_convergence(self):
        study = geo.convergence_study(geo.smooth_recipe(), sizes=(32, 48, 64), d=3)
        for name in geo.IDENTITY_NAMES:
            assert study[name]["order"] >= 3.5, name


def _whole_stack_tensors(phi):
    """The tensors as whole stacks: H stacked over the spinor components and
    the Christoffel symbol built eagerly.  Reference for the streamed code."""
    grid = geo.ParamGrid(phi.shape[1:])
    d, D = grid.d, grid.diff
    dphi = np.stack([np.stack([D(phi[s], mu) for s in range(2)]) for mu in range(d)])
    A = np.stack(
        [np.imag(np.conj(phi[0]) * dphi[mu][0] + np.conj(phi[1]) * dphi[mu][1]) for mu in range(d)]
    )
    G = np.stack([-1j * dphi[mu] - A[mu] * phi for mu in range(d)])
    g = np.zeros((d, d) + grid.shape)
    b = np.zeros((d, d) + grid.shape)
    da = np.zeros((d, d) + grid.shape)
    for mu in range(d):
        for nu in range(d):
            g[mu, nu] = np.real(np.conj(G[mu][0]) * G[nu][0] + np.conj(G[mu][1]) * G[nu][1])
            da[mu, nu] = D(A[nu], mu)
            if mu < nu:
                b[mu, nu] = D(A[nu], mu) - D(A[mu], nu)
                b[nu, mu] = -b[mu, nu]
    c = np.zeros((d, d, d) + grid.shape)
    dten = np.zeros((d, d, d) + grid.shape)
    for nu in range(d):
        for tau in range(d):
            H = -1j * np.stack([D(G[tau][s], nu) for s in range(2)]) - A[nu] * G[tau]
            for mu in range(d):
                bracket = np.conj(G[mu][0]) * H[0] + np.conj(G[mu][1]) * H[1]
                c[mu, nu, tau] = bracket.real
                dten[mu, nu, tau] = bracket.imag
    dg = {(m, n, t): D(g[m, n], t) for m, n, t in np.ndindex((d,) * 3)}
    gamma = np.zeros((d, d, d) + grid.shape)
    for mu, nu, tau in np.ndindex((d,) * 3):
        gamma[mu, nu, tau] = 0.5 * (dg[mu, nu, tau] + dg[mu, tau, nu] - dg[nu, tau, mu])
    return {"a": A, "b": b, "g": g, "c": c, "d": dten, "gamma": gamma, "dphi": dphi, "da": da}


def _whole_stack_decompositions(ts):
    """check_decompositions with every second derivative of the spinor held
    at once and mu as the outer loop.  Reference for the streamed code."""
    d, D = ts.grid.d, ts.grid.diff
    dphi, A, g, b = ts.dphi, ts.a, ts.g, ts.b
    ddphi = {(nu, tau): np.stack([D(dphi[tau][s], nu) for s in range(2)])
             for nu, tau in np.ndindex(d, d)}
    dgaa = {(m, n, t): D(g[m, n] + A[m] * A[n], t) for m, n, t in np.ndindex((d,) * 3)}
    d_raw, c_raw, real_part = [], [], []
    for mu, nu, tau in np.ndindex((d,) * 3):
        raw = np.conj(dphi[mu][0]) * ddphi[nu, tau][0] + np.conj(dphi[mu][1]) * ddphi[nu, tau][1]
        d_expected = (
            -raw.real
            - 0.5 * b[mu, nu] * A[tau]
            - 0.5 * b[mu, tau] * A[nu]
            + 0.5 * A[mu] * D(A[tau], nu)
            + 0.5 * A[mu] * D(A[nu], tau)
        )
        d_raw.append(np.max(np.abs(ts.d[mu, nu, tau] - d_expected)))
        c_expected = (
            raw.imag
            - A[mu] * g[nu, tau]
            - A[nu] * g[mu, tau]
            - A[tau] * g[mu, nu]
            - A[mu] * A[nu] * A[tau]
        )
        c_raw.append(np.max(np.abs(ts.c[mu, nu, tau] - c_expected)))
        rp = dgaa[mu, nu, tau] + dgaa[mu, tau, nu] - dgaa[nu, tau, mu]
        real_part.append(np.max(np.abs(2.0 * raw.real - rp)))
    return {
        "d_raw_expansion": float(np.max(d_raw)),
        "c_raw_expansion": float(np.max(c_raw)),
        "real_part_identity": float(np.max(real_part)),
    }


class TestStreamedBench:
    @pytest.mark.parametrize("recipe", sorted(geo.NAMED_RECIPES))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bit_identical_to_whole_stacks(self, d, recipe):
        family = geo.build_family(geo.NAMED_RECIPES[recipe](), geo.ParamGrid((40,) * d))
        ts = geo.tensors(family)
        ref = _whole_stack_tensors(family)
        gamma = ref.pop("gamma")
        for name, value in ref.items():
            assert np.array_equal(getattr(ts, name), value), name
        for index, piece in geo._christoffel_pieces(ts):
            assert np.array_equal(piece, gamma[index]), index
        expected = _whole_stack_decompositions(ts)
        expected["d_plus_christoffel"] = float(np.max(np.abs(ts.d + gamma)))
        got = geo.check_decompositions(ts)
        got["d_plus_christoffel"] = geo.check_d_christoffel(ts)
        assert got == expected

    @pytest.mark.parametrize("recipe", sorted(geo.NAMED_RECIPES))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_slabs_give_the_whole_grid_residuals(self, d, recipe):
        # 37 rows: one slab at d = 1 and 2; at d = 3 slabs of
        # SLAB_POINTS // 37^2 = 7 rows, the last one of 2
        m = 37
        rows = geo.SLAB_POINTS // m ** (d - 1)
        assert (rows >= m) if d < 3 else (m % rows)
        rec = geo.NAMED_RECIPES[recipe]()
        ts = geo.tensors(geo.build_family(rec, geo.ParamGrid((m,) * d)))
        assert ts.c.shape == (d,) * 3 + (m,) * d
        whole = geo.check_decompositions(ts)
        whole["d_plus_christoffel"] = geo.check_d_christoffel(ts)
        whole["c_b_exchange"] = geo.check_cb_identity(ts)
        assert geo.identity_residuals(rec, geo.ParamGrid((m,) * d)) == whole

    def test_peak_memory_of_one_grid(self):
        # a whole-grid TensorFieldSet held 96 real fields at d = 3; the whole
        # stacks (eager gamma, every second derivative of the spinor) peaked
        # at about 186
        m = 40
        tracemalloc.start()
        try:
            geo.identity_residuals(geo.smooth_recipe(), geo.ParamGrid((m,) * 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 150 * 8 * m ** 3

    def test_peak_memory_of_slabbed_grid(self):
        # real fields of the grid at d = 3: the lead slab builds the rows that
        # wrap in below row 0 with no rank-3 tensors beside them, so every
        # slab of 6 rows holds the rows carried from the slab before, its
        # own first-derivative fields and its rows' share of the rank-3
        # tensors and derivative tables: the peak is about 28.4
        m = 40
        tracemalloc.start()
        try:
            geo.identity_residuals(geo.smooth_recipe(), geo.ParamGrid((m,) * 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 31 * 8 * m ** 3

    @pytest.mark.parametrize("shape, fields", [((32,) * 3, 96), ((32, 32), 38)])
    def test_each_derivative_taken_once(self, shape, fields, monkeypatch):
        # whole fields differentiated per grid, summed over the slabs: the
        # spinor (2d), connection gradient (d^2), H (2d^2), the raw second
        # derivatives (2d^2) and the symmetric tables of the metric and of
        # g + A A (d^2 (d + 1) / 2 each), plus the curvature derivatives of
        # the exchange identity (d^2 (d - 1) / 2); and once per grid, in the
        # lead slab of zero rows, since each slab takes over the halo rows it
        # shares with the slab before it, the halo rows wrapped round axis 0:
        # the spinor's 2d derivatives on 2 x 4 rows and the d^2 of the
        # connection on 2 x 2, (16 d + 4 d^2) rows' worth.  32^3 runs in slabs
        # of 10 rows and a last one of 2, 32^2 in one
        clean = geo.ParamGrid.diff
        points = []

        def counted(grid, values, axis, rows=slice(None)):
            out = clean(grid, values, axis, rows)
            points.append(out.size)
            return out

        monkeypatch.setattr(geo.ParamGrid, "diff", counted)
        geo.identity_residuals(geo.smooth_recipe(), geo.ParamGrid(shape))
        d, m = len(shape), shape[0]
        assert sum(points) == (fields * m + 16 * d + 4 * d * d) * m ** (d - 1)


def _whole_grid_base(phi):
    """The fields of a TensorFieldSet's base on every row of the grid at
    once, as they were taken before each slab took its own.  Oracle for the
    per-slab fields."""
    grid = geo.ParamGrid(phi.shape[1:])
    d = grid.d
    D = grid.diff
    dphi = np.stack([np.stack([D(phi[s], mu) for s in range(2)]) for mu in range(d)])
    A = np.stack(
        [np.imag(np.conj(phi[0]) * dphi[mu][0] + np.conj(phi[1]) * dphi[mu][1]) for mu in range(d)]
    )
    G = np.stack([-1j * dphi[mu] - A[mu] * phi for mu in range(d)])
    pairs = [(m, n) for m in range(d) for n in range(m, d)]
    g = np.zeros((d, d) + grid.shape)
    for m, n in pairs:
        g[m, n] = g[n, m] = np.real(np.conj(G[m][0]) * G[n][0] + np.conj(G[m][1]) * G[n][1])
    da = np.stack([np.stack([D(A[tau], nu) for tau in range(d)]) for nu in range(d)])
    return dict(a=A, dphi=dphi, da=da, g=g, G=G)


class TestSlabBase:
    @pytest.mark.parametrize("where", ["first", "last", "short last", "any"])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_slab_base_is_the_whole_grid_base_on_its_rows(self, where, data):
        # the first and last slabs' halos wrap round the axis; each field
        # holds the slab's rows and 2 more on either side
        shape = data.draw(st.lists(st.integers(32, 40), min_size=1, max_size=3), label="shape")
        m = shape[0]
        if where == "short last":
            step = data.draw(st.integers(1, m - 1).filter(lambda k: m % k), label="step")
        else:
            step = data.draw(st.integers(1, m + 2), label="step")
        starts = range(0, m, step)
        start = {"first": starts[0], "last": starts[-1], "short last": starts[-1]}.get(where)
        if start is None:
            start = data.draw(st.sampled_from(starts), label="start")
        rows = slice(start, min(start + step, m))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        phi = rng.standard_normal((2, *shape)) + 1j * rng.standard_normal((2, *shape))
        ts = geo.tensors(phi, rows)
        whole = _whole_grid_base(phi)
        held = np.arange(rows.start - 2, rows.stop + 2)
        assert ts.window == slice(2, 2 + rows.stop - rows.start)
        assert ts.base.keys() == whole.keys()
        for name, field in whole.items():
            expected = np.take(field, held, axis=field.ndim - len(shape), mode="wrap")
            assert np.array_equal(ts.base[name], expected), name

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_chain_of_slabs_is_the_whole_grid_base_on_every_slab(self, data):
        # slabs in row order, each taking over the carry of the one before:
        # steps that leave a short last slab, and steps of m or more (one slab);
        # the first slab builds its wrapped rows itself or takes them over
        # from the lead slab of zero rows
        shape = data.draw(st.lists(st.integers(32, 40), min_size=1, max_size=3), label="shape")
        m = shape[0]
        step = data.draw(st.one_of(st.integers(1, m - 1).filter(lambda k: m % k),
                                   st.integers(1, m + 2)), label="step")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
        phi = rng.standard_normal((2, *shape)) + 1j * rng.standard_normal((2, *shape))
        whole = _whole_grid_base(phi)
        carry = geo.tensors(phi, slice(0, 0)).carry if data.draw(st.booleans(), label="lead") else None
        for start in range(0, m, step):
            rows = slice(start, min(start + step, m))
            ts = geo.tensors(phi, rows, carry)
            held = np.arange(rows.start - 2, rows.stop + 2)
            assert ts.window == slice(2, 2 + rows.stop - rows.start)
            assert ts.base.keys() == whole.keys()
            for name, field in whole.items():
                expected = np.take(field, held, axis=field.ndim - len(shape), mode="wrap")
                assert np.array_equal(ts.base[name], expected), (start, name)
            carry = ts.carry

    @pytest.mark.parametrize("rows", [slice(0, 5), slice(0, 33)])
    @pytest.mark.parametrize("recipe", sorted(geo.NAMED_RECIPES))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_slab_after_lead_slab_is_the_slab_without_carry(self, d, recipe, rows):
        # the lead slab of zero rows holds no rank-3 tensors; the slab that
        # takes over its carry holds every field, and carries on, with the
        # bits of the same slab built with no carry
        phi = (geo.NAMED_RECIPES[recipe](), geo.ParamGrid((33,) * d))
        lead = geo.tensors(phi, slice(0, 0))
        assert lead.c.shape == (d,) * 3 + (0,) + (33,) * (d - 1)
        got, expected = geo.tensors(phi, rows, lead.carry), geo.tensors(phi, rows)
        assert got.window == expected.window
        for name in ("a", "b", "g", "c", "d", "dphi", "da"):
            assert np.array_equal(getattr(got, name), getattr(expected, name)), name
        for part in ("base", "carry"):
            one, other = getattr(got, part), getattr(expected, part)
            assert one.keys() == other.keys()
            for name in one:
                assert np.array_equal(one[name], other[name]), (part, name)

    def test_carry_of_another_slab_refused(self):
        phi = geo.build_family(geo.smooth_recipe(), geo.ParamGrid((32, 32)))
        carry = geo.tensors(phi, slice(0, 4)).carry
        with pytest.raises(ValueError, match="does not start at row 4"):
            geo.tensors(phi, slice(5, 9), carry)


class TestRecipeRows:
    @pytest.mark.parametrize("recipe", sorted(geo.NAMED_RECIPES))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_recipe_rows_are_the_whole_spinor_rows(self, d, recipe):
        # pure-gauge's a = Q^1 is not periodic in value: a row past either
        # end must take the coordinate of its row mod m
        m = 37
        grid = geo.ParamGrid((m,) * d)
        rec = geo.NAMED_RECIPES[recipe]()
        whole = geo.build_family(rec, grid)
        for rows in (np.arange(-6, 10), np.arange(m - 10, m + 6), np.arange(-6, m + 6),
                     np.arange(12, 17)):
            expected = np.take(whole, rows, axis=1, mode="wrap")
            assert np.array_equal(geo.build_family(rec, grid, rows), expected), (rows[0], rows[-1])

    def test_w_bound_names_the_maximum_on_the_rows(self):
        grid = geo.ParamGrid((32, 32))
        bad = geo.FamilyRecipe(w=lambda *Q: 1.2 * np.sin(Q[0]), phi=lambda *Q: 0.0, a=lambda *Q: 0.0)
        with pytest.raises(ConfigError, match=r"\|w\| reaches 1.1087 > 0.999"):
            geo.build_family(bad, grid, np.arange(3, 7))  # 1.2 sin(6 pi / 16)
        assert geo.build_family(bad, grid, np.arange(-3, 4)).shape == (2, 7, 32)  # up to 0.667


class TestNanResiduals:
    # (1, 1, 0) sits in an off-diagonal exchange piece, (1, 0, 1) in a diagonal one
    @pytest.mark.parametrize("idx", [(1, 1, 0), (1, 0, 1)])
    def test_nan_in_later_component_propagates(self, smooth64, idx):
        _, ts = smooth64
        c = ts.c.copy()
        c[idx][5, 7] = np.nan
        bad = dataclasses.replace(ts, c=c)
        assert np.isnan(geo.check_symmetries(bad)["c_last_two_symmetric"])
        assert np.isnan(geo.check_cb_identity(bad))
        assert not np.isnan(geo.check_symmetries(bad)["d_last_two_symmetric"])


class TestIrreducibleThirdOrder:
    def test_c_not_determined_by_lower_tensors(self):
        # two families with identical connection, curvature and metric at one
        # point but different second derivatives: only the rank-3 c differs
        grid = geo.ParamGrid((64, 64))
        base = geo.smooth_recipe()
        q0 = (np.pi, np.pi)
        idx = (32, 32)

        def bumped_w(*Q):
            return base.w(*Q) + 0.05 * (1.0 - np.cos(Q[0] - q0[0]))

        bumped = geo.FamilyRecipe(w=bumped_w, phi=base.phi, a=base.a)
        ts1 = geo.tensors(geo.build_family(base, grid))
        ts2 = geo.tensors(geo.build_family(bumped, grid))

        lower = max(
            np.max(np.abs(ts1.a[(...,) + idx] - ts2.a[(...,) + idx])),
            np.max(np.abs(ts1.g[(...,) + idx] - ts2.g[(...,) + idx])),
            np.max(np.abs(ts1.b[(...,) + idx] - ts2.b[(...,) + idx])),
        )
        dc = np.max(np.abs(ts1.c[(...,) + idx] - ts2.c[(...,) + idx]))
        assert dc > 100.0 * lower


class TestEmbeddingAgainstEF:
    def test_one_dimensional_fields_match_ef_module(self):
        # same spinor, same 4th-order stencils: the two pipelines must agree
        # to roundoff
        n, L = 256, 2.0 * np.pi
        pgrid = geo.ParamGrid((n,))
        rec = geo.FamilyRecipe(
            w=lambda *Q: 0.2 + 0.3 * np.sin(Q[0]),
            phi=lambda *Q: 0.5 * np.cos(Q[0]) + 0.1,
            a=lambda *Q: 0.4 * np.sin(Q[0] + 0.6),
        )
        spinor = geo.build_family(rec, pgrid)
        ts = geo.tensors(spinor)

        grid = Grid1D(0.0, L, n)
        chi = np.full(n, 1.0 / np.sqrt(L))
        psi = ef.TwoComponentWavefunction(
            grid=grid, psi1=chi * spinor[0], psi2=chi * spinor[1]
        )
        dec = ef.decompose(psi, method="fd4")
        assert np.max(np.abs(dec.connection - ts.a[0])) <= 1e-10
        assert np.max(np.abs(dec.metric - ts.g[0, 0])) <= 1e-10
        assert np.max(np.abs(dec.c_tensor - ts.c[0, 0, 0])) <= 1e-10
        assert np.max(np.abs(dec.d_tensor - ts.d[0, 0, 0])) <= 1e-10
