import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphrad as sp
from sphrad import radial
from sphrad.radial import enlarged_hits, inequality_hits

from _helpers import energy_case


def _model2():
    return sp.build_model(np.zeros(2), np.eye(2))


def _ineq(system, x, v, model):
    """One-row ray solve of an inequality system along ``v``."""
    return inequality_hits(system, x, np.asarray(v, dtype=float)[None, :], model)


def _enl(oracle, x, v, eps, model):
    """One-row ray solve of an eps-enlarged oracle along ``v``."""
    return enlarged_hits(oracle, x, np.asarray(v, dtype=float)[None, :], eps, model)


def _point(hits, model, v):
    """Boundary point ``mean + rho L v`` of a one-row solve along ``v``, shape (1, m)."""
    return model.mean + hits.rho[:, None] * (np.atleast_2d(v) @ model.factor_L.T)


def _active(hits):
    return tuple(int(i) for i in np.flatnonzero(hits.act[:, 0]))


class TestRootConstants:
    def test_values(self):
        assert radial.TIE_REL == 1e-7
        assert radial.TIE_ABS == 1e-9
        assert radial.SLOPE_FLOOR == 1e-12
        assert radial.MAX_BRACKET_DOUBLINGS == 64
        assert radial.MAX_ROOT_STEPS == 200


class TestInequalityRoots:
    def test_halfspace_axis_direction(self):
        sys_ = sp.make_halfspace([1.0, 0.0])
        model = _model2()
        hit = _ineq(sys_, [3.0], [1.0, 0.0], model)
        assert hit.finite[0]
        assert hit.rho[0] == pytest.approx(3.0, abs=1e-9)
        assert _active(hit) == (0,)
        z = _point(hit, model, [1.0, 0.0])
        assert np.allclose(z[0], [3.0, 0.0], atol=1e-9)
        gx = sys_.grad_x_g(0, [3.0], z)[0]
        gz = sys_.grad_z_g(0, [3.0], z)[0]
        assert gx[0] == -1.0 and np.allclose(gz, [1.0, 0.0])

    def test_halfspace_orthogonal_direction_infinite(self):
        sys_ = sp.make_halfspace([1.0, 0.0])
        hit = _ineq(sys_, [3.0], [0.0, 1.0], _model2())
        assert not hit.finite[0]
        assert hit.rho[0] == np.inf
        assert _active(hit) == ()

    def test_hyperbolic_closed_form(self):
        sys_ = sp.make_hyperbolic_system()
        hit = _ineq(sys_, [1.0], [-1.0, 0.0], _model2())
        assert hit.rho[0] == pytest.approx(1.5, abs=1e-9)
        assert _active(hit) == (0,)

    def test_slab_constant_ray_infinite(self):
        sys_ = sp.make_slab([1.0, 0.0], lambda x: x[0], lambda x: np.array([1.0]))
        hit = _ineq(sys_, [-1.0], [0.0, 1.0], _model2())
        assert not hit.finite[0]

    def test_residual_invariant(self):
        # Finite hits satisfy |g_active| <= 1e-9, recomputed directly.
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
                hit = _ineq(sys_, x, v, model)
                active = _active(hit)
                if hit.finite[0] and all(i < sys_.s for i in active):
                    for i in active:
                        g = sys_.eval_g(i, x, _point(hit, model, v))[0]
                        assert abs(g) <= 1e-9

    def test_interior_violation_raised(self):
        sys_ = sp.make_halfspace([1.0, 0.0])
        with pytest.raises(sp.InteriorViolated):
            _ineq(sys_, [-1.0], [1.0, 0.0], _model2())

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
            _ineq(sys_, [0.0], [1.0, 0.0], _model2())

    @pytest.mark.xfail(strict=True, reason=(
        "bracket-scan limit: signs are tested only at r = 1, 2, 4, ..., so "
        "three roots inside one doubling interval go undetected and "
        "bisection returns the last one"))
    def test_sign_changes_within_one_doubling_interval(self):
        # g = (z1 - 1.2)(z1 - 1.5)(z1 - 1.8): the ray along e1 first leaves
        # the feasible set at 1.2; all three roots lie in (1, 2].
        roots = (1.2, 1.5, 1.8)

        def eval_g(i, x, Z):
            return np.prod([Z[:, 0] - c for c in roots], axis=0)

        def grad_z_g(i, x, Z):
            a, b, c = (Z[:, 0] - r for r in roots)
            return np.stack([a * b + a * c + b * c, np.zeros(Z.shape[0])], axis=1)

        sys_ = sp.InequalitySystem(
            s=1, x_dim=1, z_dim=2, eval_g=eval_g,
            grad_x_g=lambda i, x, Z: np.zeros((Z.shape[0], 1)),
            grad_z_g=grad_z_g, name="cubic")
        try:
            hit = _ineq(sys_, [0.0], [1.0, 0.0], _model2())
        except sp.BracketFailure:
            return
        assert hit.rho[0] == pytest.approx(1.2, abs=1e-9)

    def test_unit_direction_required(self):
        sys_ = sp.make_halfspace([1.0, 0.0])
        dirs = np.array([[1.0, 0.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            inequality_hits(sys_, [1.0], dirs, _model2())
        with pytest.raises(ValueError):
            enlarged_hits(sp.make_ball(np.zeros(2)), [1.0], dirs, 0.1, _model2())


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
        hit = _ineq(sys_, x, v, model)
        assert hit.finite[0]
        assert _active(hit) == (2,)                # cap index = s + 0 = 2
        assert hit.rho[0] == pytest.approx(-params.mu_wind / lv[0], rel=1e-12)

    def test_positive_commitment_uses_cubic_root(self):
        params = sp.EnergyParams(periods=1)
        sys_ = sp.make_energy_system(params)
        model = sp.build_energy_covariance(params)
        x = np.array([0.5, 15.0])
        v = np.array([-1.0, 0.0])
        lv = model.factor_L @ v
        hit = _ineq(sys_, x, v, model)
        zstar = (0.5 / params.wind_coeff) ** (1.0 / 3.0)
        assert _active(hit) == (0,)
        assert hit.rho[0] == pytest.approx((zstar - params.mu_wind) / lv[0], rel=1e-9)

    def test_hyperbolic_caps_never_bind(self):
        sys_ = sp.make_hyperbolic_system()
        model = _model2()
        rng = np.random.default_rng(31)
        for _ in range(100):
            theta = rng.uniform(0, 2 * np.pi)
            hit = _ineq(sys_, [1.0], [np.cos(theta), np.sin(theta)], model)
            if hit.finite[0]:
                assert all(i < sys_.s for i in _active(hit))


class TestHalfspaceClosedForm:
    """Declared halfspaces are solved in closed form; the scan on the same
    system with the declaration removed is the reference."""

    @pytest.mark.parametrize("method, n", [(sp.SphereMethod.QMC, 10000),
                                           (sp.SphereMethod.MONTE_CARLO, 50000)],
                             ids=["qmc-10k", "mc-50k"])
    @pytest.mark.parametrize("case", ["energy-start", "energy-interior", "energy-tied",
                                      "halfspace-dim8"])
    def test_matches_scan(self, case, method, n):
        tie = None
        if case == "halfspace-dim8":
            rng = np.random.default_rng(8)
            a = rng.normal(size=8)
            B = rng.normal(size=(8, 8))
            system = sp.make_halfspace(a / np.linalg.norm(a))
            model = sp.build_model(np.zeros(8), B @ B.T / 8 + np.eye(8))
            x = np.array([0.7])
        else:
            system, model, x, tie = energy_case(case.split("-")[1])
        assert system.halfspaces is not None
        dirs = sp.sample_sphere(model.dim, n, seed=5, method=method).directions
        if tie is not None:
            dirs = np.vstack([dirs, tie])
        fast = inequality_hits(system, x, dirs, model)
        scan = inequality_hits(dataclasses.replace(system, halfspaces=None), x, dirs, model)
        assert np.array_equal(fast.finite, scan.finite)
        assert np.array_equal(fast.act, scan.act)
        np.testing.assert_allclose(fast.rho, scan.rho, rtol=1e-12, atol=0)
        if tie is not None:
            assert tuple(np.flatnonzero(fast.act[:, -1])) == (0, 4)


class TestEnlargedRoots:
    def test_ball_closed_form(self):
        oracle = sp.make_ball(np.zeros(2))
        model = _model2()
        hit = _enl(oracle, [1.0], [0.6, 0.8], 0.5, model)
        assert hit.rho[0] == pytest.approx(1.5, abs=1e-9)
        z = _point(hit, model, [0.6, 0.8])[0]
        u = z - oracle.project([1.0], z[None, :])[0]
        assert np.allclose(u / np.linalg.norm(u), [0.6, 0.8], atol=1e-8)

    def test_enlargement_monotone_in_eps(self):
        oracle = sp.make_hyperbolic_set()
        model = _model2()
        rng = np.random.default_rng(37)
        for _ in range(100):
            theta = rng.uniform(0, 2 * np.pi)
            v = np.array([np.cos(theta), np.sin(theta)])
            x = [rng.uniform(0.5, 2.0)]
            e1, e2 = sorted(rng.uniform(0.0, 0.6, 2))
            h1 = _enl(oracle, x, v, e1, model)
            h2 = _enl(oracle, x, v, e2, model)
            assert h1.rho[0] <= h2.rho[0] + 1e-9

    def test_eps_to_zero_continuity(self):
        # The enlarged root approaches the plain boundary radius 1.5.
        oracle = sp.make_hyperbolic_set()
        model = _model2()
        v = np.array([-1.0, 0.0])
        prev_gap = np.inf
        for eps in (0.1, 0.01, 0.001, 1e-5):
            hit = _enl(oracle, [1.0], v, eps, model)
            gap = abs(hit.rho[0] - 1.5)
            assert gap <= prev_gap + 1e-12
            prev_gap = gap
        assert prev_gap <= 1e-4

    def test_distance_residual(self):
        oracle = sp.make_hyperbolic_set()
        model = _model2()
        hit = _enl(oracle, [1.0], [-0.8, -0.6], 0.25, model)
        z = _point(hit, model, [-0.8, -0.6])[0]
        P = oracle.project([1.0], z[None, :])[0]
        assert abs(np.linalg.norm(z - P) - 0.25) <= 1e-9

    def test_mean_outside_rejected(self):
        oracle = sp.make_ball(np.array([5.0, 5.0]))
        with pytest.raises(sp.InteriorViolated):
            _enl(oracle, [1.0], [1.0, 0.0], 0.1, _model2())

    @settings(max_examples=40, deadline=None)
    @given(theta=st.floats(0, 2 * np.pi), x=st.floats(0.5, 2.0),
           e1=st.floats(0.0, 0.5), e2=st.floats(0.0, 0.5))
    def test_nesting_property_ball(self, theta, x, e1, e2):
        oracle = sp.make_ball(np.zeros(2))
        model = _model2()
        v = np.array([np.cos(theta), np.sin(theta)])
        lo, hi = sorted((e1, e2))
        h_lo = _enl(oracle, [x], v, lo, model)
        h_hi = _enl(oracle, [x], v, hi, model)
        assert h_lo.rho[0] <= h_hi.rho[0] + 1e-9
        assert h_lo.rho[0] == pytest.approx(x + lo, abs=1e-8)


def _hyperbolic_exit(V, x):
    """First positive root of (r v1 + 2)(r v2 + 2) = x per row of V, or inf."""
    a, b, c = V[:, 0] * V[:, 1], 2.0 * (V[:, 0] + V[:, 1]), 4.0 - x
    disc = b * b - 4.0 * a * c
    sq = np.sqrt(np.maximum(disc, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(b < 0, 2.0 * c / (sq - b), -(b + sq) / (2.0 * a))
    return np.where((disc >= 0) & (r > 0), r, np.inf)


class TestClosedFormRoots:
    """Roots of the scanned rays against closed forms that do not use the
    ray solver; the model is standard, so ``L v = v``."""

    @staticmethod
    def _case(m):
        model = sp.build_model(np.zeros(m), np.eye(m))
        dirs = sp.sample_sphere(m, 10000, seed=sp.DEFAULT_SEED,
                                method=sp.SphereMethod.QMC).directions
        return model, dirs, sp.RadialLaw(m).r_max

    @staticmethod
    def _agree(hits, closed, r_max):
        assert np.array_equal(hits.finite, closed < r_max)
        f = hits.finite
        np.testing.assert_allclose(hits.rho[f], closed[f], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("m", [2, 8])
    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_ball_centered_at_mean(self, m, eps):
        model, dirs, r_max = self._case(m)
        hits = enlarged_hits(sp.make_ball(np.zeros(m)), [3.0], dirs, eps, model)
        self._agree(hits, np.full(dirs.shape[0], 3.0 + eps), r_max)

    @pytest.mark.parametrize("m", [2, 8])
    def test_slab(self, m):
        model, dirs, r_max = self._case(m)
        c = np.zeros(m)
        c[0] = 1.0
        slab = sp.make_slab(c, lambda x: x[0], lambda x: np.array([1.0]))
        hits = inequality_hits(slab, [-0.5], dirs, model)
        with np.errstate(divide="ignore"):
            closed = sp.slab_threshold(-0.5) / np.abs(dirs @ c)
        self._agree(hits, closed, r_max)

    @pytest.mark.parametrize("x", [0.75, 2.25, 3.25])
    def test_hyperbolic_system_and_set(self, x):
        model, dirs, r_max = self._case(2)
        closed = _hyperbolic_exit(dirs, x)
        self._agree(inequality_hits(sp.make_hyperbolic_system(), [x], dirs, model),
                    closed, r_max)
        oracle = sp.make_hyperbolic_set()
        hits = enlarged_hits(oracle, [x], dirs, 0.0, model)
        self._agree(hits, closed, r_max)
        # Membership on both sides of the root: a solve that stopped where the
        # distance first reads 0 would return points deep inside.
        f = hits.finite
        Z = hits.rho[f, None] * dirs[f]
        assert oracle.contains([x], Z * (1 - 1e-9)).all()
        assert not oracle.contains([x], Z * (1 + 1e-9)).any()

    @pytest.mark.parametrize("x", [0.75, 2.25, 3.25])
    def test_hyperbolic_set_enlarged_distance(self, x):
        model, dirs, _ = self._case(2)
        oracle = sp.make_hyperbolic_set()
        hits = enlarged_hits(oracle, [x], dirs, 0.05, model)
        f = hits.finite
        assert f.any()
        Z = hits.rho[f, None] * dirs[f]
        dist = np.linalg.norm(Z - oracle.project([x], Z), axis=1)
        assert np.max(np.abs(dist - 0.05)) <= 1e-12


class TestBatchConsistency:
    def test_batch_matches_single_calls(self):
        sys_ = sp.make_hyperbolic_system()
        model = _model2()
        dirs = sp.sample_sphere(2, 64, seed=2)
        batch = inequality_hits(sys_, [1.0], dirs.directions, model)
        for k in range(0, 64, 7):
            hit = _ineq(sys_, [1.0], dirs.directions[k], model)
            if hit.finite[0]:
                assert batch.rho[k] == pytest.approx(hit.rho[0], rel=1e-12)
            else:
                assert not batch.finite[k]
