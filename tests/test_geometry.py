import dataclasses

import numpy as np
import pytest

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

    def test_dimension_bound(self):
        with pytest.raises(ConfigError):
            geo.ParamGrid((32, 32, 32, 32))

    def test_diff_single_mode(self):
        grid = geo.ParamGrid((64, 64))
        Q1, Q2 = grid.meshes()
        f = np.sin(Q1 + 0.3) * np.cos(Q2)
        exact = np.cos(Q1 + 0.3) * np.cos(Q2)
        assert np.max(np.abs(grid.diff(f, 0) - exact)) <= 1e-4


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

    def test_fractional_gauge_mode_rejected(self):
        with pytest.raises(ConfigError):
            geo.pure_gauge_recipe(mode=1.5)

    def test_constant_family_all_tensors_vanish(self):
        grid = geo.ParamGrid((32, 32))
        ts = geo.tensors(geo.build_family(geo.constant_recipe(), grid))
        for field in (ts.a, ts.b, ts.g, ts.c, ts.d, ts.gamma):
            assert np.max(np.abs(field)) <= 1e-14

    def test_pure_gauge_tensors(self):
        grid = geo.ParamGrid((64, 64))
        mode = 1
        ts = geo.tensors(geo.build_family(geo.pure_gauge_recipe(mode=mode), grid))
        # connection equals the gauge gradient up to the stencil symbol error
        assert np.max(np.abs(ts.a[0] - mode)) <= 1e-4
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
        n, L = 256, 10.0
        pgrid = geo.ParamGrid((n,), lengths=(L,))
        k0 = 2.0 * np.pi / L
        rec = geo.FamilyRecipe(
            w=lambda *Q: 0.2 + 0.3 * np.sin(k0 * Q[0]),
            phi=lambda *Q: 0.5 * np.cos(k0 * Q[0]) + 0.1,
            a=lambda *Q: 0.4 * np.sin(k0 * Q[0] + 0.6),
        )
        family = geo.build_family(rec, pgrid)
        ts = geo.tensors(family)

        grid = Grid1D(0.0, L, n)
        chi = np.full(n, 1.0 / np.sqrt(L))
        spinor = family.spinor()
        psi = ef.TwoComponentWavefunction(
            grid=grid, psi1=chi * spinor[0], psi2=chi * spinor[1]
        )
        dec = ef.decompose(psi, method="fd4")
        assert np.max(np.abs(dec.connection - ts.a[0])) <= 1e-10
        assert np.max(np.abs(dec.metric - ts.g[0, 0])) <= 1e-10
        assert np.max(np.abs(dec.c_tensor - ts.c[0, 0, 0])) <= 1e-10
        assert np.max(np.abs(dec.d_tensor - ts.d[0, 0, 0])) <= 1e-10
