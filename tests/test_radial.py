import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphrad as sp
from sphrad.radial import RootOptions, inequality_hits


def _model2():
    return sp.build_model(np.zeros(2), np.eye(2))


class TestRootOptionsDefaults:
    def test_values(self):
        opts = RootOptions()
        assert opts.g_tol == 1e-10
        assert opts.d_tol == 1e-10
        assert opts.tie_rel == 1e-7
        assert opts.tie_abs == 1e-9
        assert opts.max_bracket_doublings == 64
        assert opts.max_bisections == 200


class TestInequalityRoots:
    def test_halfspace_axis_direction(self):
        sys_ = sp.make_halfspace([1.0, 0.0])
        hit = sp.radial_root_inequality(sys_, [3.0], np.array([1.0, 0.0]), _model2())
        assert hit.finite
        assert hit.rho == pytest.approx(3.0, abs=1e-9)
        assert hit.active == (0,)
        assert np.allclose(hit.boundary_point, [3.0, 0.0], atol=1e-9)
        gx, gz = hit.normal_data[0]
        assert gx[0] == -1.0 and np.allclose(gz, [1.0, 0.0])

    def test_halfspace_orthogonal_direction_infinite(self):
        sys_ = sp.make_halfspace([1.0, 0.0])
        hit = sp.radial_root_inequality(sys_, [3.0], np.array([0.0, 1.0]), _model2())
        assert not hit.finite
        assert hit.rho == np.inf
        assert hit.active == ()

    def test_hyperbolic_closed_form(self):
        sys_ = sp.make_hyperbolic_system()
        hit = sp.radial_root_inequality(sys_, [1.0], np.array([-1.0, 0.0]), _model2())
        assert hit.rho == pytest.approx(1.5, abs=1e-9)
        assert hit.active == (0,)

    def test_slab_constant_ray_infinite(self):
        sys_ = sp.make_slab([1.0, 0.0], lambda x: x[0], lambda x: np.array([1.0]))
        hit = sp.radial_root_inequality(sys_, [-1.0], np.array([0.0, 1.0]), _model2())
        assert not hit.finite

    def test_residual_invariant(self):
        # Finite hits satisfy |g_active| <= 10 * g_tol, recomputed directly.
        rng = np.random.default_rng(23)
        model = _model2()
        systems = [
            (sp.make_halfspace([1.0, 0.0]), [1.0]),
            (sp.make_slab([1.0, 0.0], lambda x: x[0], lambda x: np.array([1.0])), [-1.0]),
            (sp.make_hyperbolic_system(), [1.0]),
        ]
        for sys_, x in systems:
            for _ in range(40):
                theta = rng.uniform(0, 2 * np.pi)
                v = np.array([np.cos(theta), np.sin(theta)])
                hit = sp.radial_root_inequality(sys_, x, v, model)
                if hit.finite and all(i < sys_.s for i in hit.active):
                    for i in hit.active:
                        g = sys_.eval_g(i, x, hit.boundary_point[None, :])[0]
                        assert abs(g) <= 10 * RootOptions().g_tol

    def test_interior_violation_raised(self):
        sys_ = sp.make_halfspace([1.0, 0.0])
        with pytest.raises(sp.InteriorViolated):
            sp.radial_root_inequality(sys_, [-1.0], np.array([1.0, 0.0]), _model2())

    def test_non_quasiconvex_rejected(self):
        # sin crosses zero more than once along the first axis.
        def eval_g(i, x, Z):
            return np.sin(Z[:, 0]) - 0.5

        sys_ = sp.InequalitySystem(
            s=1, x_dim=1, z_dim=2, eval_g=eval_g,
            grad_x_g=lambda i, x, Z: np.zeros((Z.shape[0], 1)),
            grad_z_g=lambda i, x, Z: np.stack(
                [np.cos(Z[:, 0]), np.zeros(Z.shape[0])], axis=1),
            name="wavy")
        with pytest.raises(sp.BracketFailure):
            sp.radial_root_inequality(sys_, [0.0], np.array([1.0, 0.0]), _model2())

    def test_unit_direction_required(self):
        sys_ = sp.make_halfspace([1.0, 0.0])
        with pytest.raises(ValueError):
            sp.radial_root_inequality(sys_, [1.0], np.array([2.0, 0.0]), _model2())


class TestDomainCaps:
    def test_cap_attribution_at_zero_commitment(self):
        # With zero committed wind power the wind-speed positivity cap is the
        # boundary, not the cubic constraint whose slope degenerates there.
        params = sp.EnergyParams(periods=1)
        sys_ = sp.make_energy_system(params)
        model = sp.build_energy_covariance(params)
        x = np.array([0.0, 15.0])
        v = np.array([-1.0, 0.0])
        lv = model.factor_L @ v
        hit = sp.radial_root_inequality(sys_, x, v, model)
        assert hit.finite
        assert hit.active == (2,)                  # cap index = s + 0 = 2
        assert hit.rho == pytest.approx(-params.mu_wind / lv[0], rel=1e-12)
        gx, gz = hit.normal_data[0]
        assert np.array_equal(gx, np.zeros(2))
        assert np.allclose(gz, [-1.0, 0.0])

    def test_positive_commitment_uses_cubic_root(self):
        params = sp.EnergyParams(periods=1)
        sys_ = sp.make_energy_system(params)
        model = sp.build_energy_covariance(params)
        x = np.array([0.5, 15.0])
        v = np.array([-1.0, 0.0])
        lv = model.factor_L @ v
        hit = sp.radial_root_inequality(sys_, x, v, model)
        zstar = (0.5 / params.wind_coeff) ** (1.0 / 3.0)
        assert hit.active == (0,)
        assert hit.rho == pytest.approx((zstar - params.mu_wind) / lv[0], rel=1e-9)

    def test_hyperbolic_caps_never_bind(self):
        sys_ = sp.make_hyperbolic_system()
        model = _model2()
        rng = np.random.default_rng(31)
        for _ in range(100):
            theta = rng.uniform(0, 2 * np.pi)
            hit = sp.radial_root_inequality(
                sys_, [1.0], np.array([np.cos(theta), np.sin(theta)]), model)
            if hit.finite:
                assert all(i < sys_.s for i in hit.active)


class TestEnlargedRoots:
    def test_ball_closed_form(self):
        oracle = sp.make_ball(np.zeros(2))
        hit = sp.radial_root_enlarged(oracle, [1.0], np.array([0.6, 0.8]), 0.5, _model2())
        assert hit.rho == pytest.approx(1.5, abs=1e-9)
        assert np.allclose(hit.normal_data[0], [0.6, 0.8], atol=1e-8)

    def test_enlargement_monotone_in_eps(self):
        oracle = sp.make_hyperbolic_set()
        model = _model2()
        rng = np.random.default_rng(37)
        for _ in range(100):
            theta = rng.uniform(0, 2 * np.pi)
            v = np.array([np.cos(theta), np.sin(theta)])
            x = [rng.uniform(0.5, 2.0)]
            e1, e2 = sorted(rng.uniform(0.0, 0.6, 2))
            h1 = sp.radial_root_enlarged(oracle, x, v, e1, model)
            h2 = sp.radial_root_enlarged(oracle, x, v, e2, model)
            assert h1.rho <= h2.rho + 1e-9

    def test_eps_to_zero_continuity(self):
        # The enlarged root approaches the plain boundary radius 1.5.
        oracle = sp.make_hyperbolic_set()
        model = _model2()
        v = np.array([-1.0, 0.0])
        prev_gap = np.inf
        for eps in (0.1, 0.01, 0.001, 1e-5):
            hit = sp.radial_root_enlarged(oracle, [1.0], v, eps, model)
            gap = abs(hit.rho - 1.5)
            assert gap <= prev_gap + 1e-12
            prev_gap = gap
        assert prev_gap <= 1e-4

    def test_distance_residual(self):
        oracle = sp.make_hyperbolic_set()
        model = _model2()
        hit = sp.radial_root_enlarged(oracle, [1.0], np.array([-0.8, -0.6]), 0.25, model)
        z = hit.boundary_point
        P = oracle.project([1.0], z[None, :])[0]
        assert abs(np.linalg.norm(z - P) - 0.25) <= 10 * RootOptions().d_tol

    def test_mean_outside_rejected(self):
        oracle = sp.make_ball(np.array([5.0, 5.0]))
        with pytest.raises(sp.InteriorViolated):
            sp.radial_root_enlarged(oracle, [1.0], np.array([1.0, 0.0]), 0.1, _model2())

    @settings(max_examples=40, deadline=None)
    @given(theta=st.floats(0, 2 * np.pi), x=st.floats(0.5, 2.0),
           e1=st.floats(0.0, 0.5), e2=st.floats(0.0, 0.5))
    def test_nesting_property_ball(self, theta, x, e1, e2):
        oracle = sp.make_ball(np.zeros(2))
        model = _model2()
        v = np.array([np.cos(theta), np.sin(theta)])
        lo, hi = sorted((e1, e2))
        h_lo = sp.radial_root_enlarged(oracle, [x], v, lo, model)
        h_hi = sp.radial_root_enlarged(oracle, [x], v, hi, model)
        assert h_lo.rho <= h_hi.rho + 1e-9
        assert h_lo.rho == pytest.approx(x + lo, abs=1e-8)


class TestBatchConsistency:
    def test_batch_matches_single_calls(self):
        sys_ = sp.make_hyperbolic_system()
        model = _model2()
        dirs = sp.sample_sphere(2, 64, seed=2)
        batch = inequality_hits(sys_, [1.0], dirs.directions, model)
        for k in range(0, 64, 7):
            hit = sp.radial_root_inequality(sys_, [1.0], dirs.directions[k], model)
            if hit.finite:
                assert batch.rho[k] == pytest.approx(hit.rho, rel=1e-12)
            else:
                assert not batch.finite[k]
