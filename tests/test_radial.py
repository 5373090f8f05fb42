import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphrad as sp
from sphrad import radial
from sphrad.errors import NumericalError
from sphrad.oracles import _hyperbolic_inside
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
        assert np.isfinite(hit.rho[0])
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
        assert not np.isfinite(hit.rho[0])
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
        assert not np.isfinite(hit.rho[0])

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
                if np.isfinite(hit.rho[0]) and all(i < sys_.s for i in active):
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
        for bad in ([2.0, 0.0], [np.nan, 0.0]):
            dirs = np.array([[1.0, 0.0], bad])
            with pytest.raises(ValueError, match="direction 1 is not a unit vector"):
                inequality_hits(sys_, [1.0], dirs, _model2())
            with pytest.raises(ValueError, match="direction 1 is not a unit vector"):
                enlarged_hits(sp.make_ball(np.zeros(2)), [1.0], dirs, 0.1, _model2())


def _holed_system(c, lo, hi=np.inf):
    """g = z1 - c, but NaN where lo < z1 < hi."""
    def eval_g(i, x, Z):
        return np.where((Z[:, 0] > lo) & (Z[:, 0] < hi), np.nan, Z[:, 0] - c)

    return sp.InequalitySystem(
        s=1, x_dim=1, z_dim=2, eval_g=eval_g,
        grad_x_g=lambda i, x, Z: np.zeros((Z.shape[0], 1)),
        grad_z_g=lambda i, x, Z: np.stack([np.ones(Z.shape[0]), np.zeros(Z.shape[0])], axis=1),
        name="holed")


class TestNaNRayValues:
    """A NaN ray value is an error, never a direction that does not exit."""

    def test_nan_at_scan_point(self):
        dirs = sp.sample_sphere(2, 1000, seed=3, method=sp.SphereMethod.MONTE_CARLO)
        with pytest.raises(NumericalError, match="holed: g_0: NaN ray value at direction"):
            sp.evaluate(_holed_system(1.0, 0.5), [0.0], _model2(), dirs)

    def test_nan_at_newton_iterate(self):
        # Scan points r = 1, 2, 4, ... miss the hole; the first Newton
        # iterate from the bracket [1, 2] along e1 is 1.5.
        sys_ = _holed_system(1.5, 1.2, 1.8)
        with pytest.raises(NumericalError, match="direction 0$"):
            _ineq(sys_, [0.0], [1.0, 0.0], _model2())

    def test_nan_projection(self):
        ball = sp.make_ball(np.zeros(2))
        oracle = dataclasses.replace(ball, project=lambda x, Z: np.where(
            Z[:, :1] > 0.5, np.nan, ball.project(x, Z)))
        with pytest.raises(NumericalError, match="NaN ray value at direction 0$"):
            _enl(oracle, [1.0], [1.0, 0.0], 0.05, _model2())

    @pytest.mark.parametrize("entry", ["W", "t"])
    def test_nan_in_declared_halfspaces(self, entry):
        # A NaN in W is refused when the system is built, one in t(x) per call.
        system, model, x, _ = energy_case("interior")
        W, t = system.halfspaces[0].copy(), system.halfspaces[1](x).copy()
        (W if entry == "W" else t)[0] = np.nan
        if entry == "W":
            with pytest.raises(ValueError, match=r"energy: halfspaces must be \(W, t\) with W "
                                                 r"a constant, finite \(8, 8\) array"):
                dataclasses.replace(system, halfspaces=(W, system.halfspaces[1]))
            return
        broken = dataclasses.replace(system, halfspaces=(W, lambda x_: t))
        with pytest.raises(NumericalError, match=r"energy: t\(x\) returned a NaN"):
            inequality_hits(broken, x, np.eye(model.dim), model)


@pytest.mark.parametrize("cap, block, direction", [(2, radial.BLOCK_ROWS, 0), (6, 50, 64)])
def test_newton_step_cap_raises(monkeypatch, cap, block, direction):
    # The cap never binds (8 steps suffice here); when it does, the rows
    # still moving hold no root, and the error names the first of them.
    slab = sp.make_slab(np.eye(2)[0], lambda x: x[0], lambda x: np.array([1.0]))
    V = sp.sample_sphere(2, 1000, seed=sp.DEFAULT_SEED).directions
    monkeypatch.setattr(radial, "MAX_ROOT_STEPS", cap)
    monkeypatch.setattr(radial, "BLOCK_ROWS", block)
    with pytest.raises(NumericalError, match=f"slab: g_0: ray root not converged in {cap} "
                                             f"steps at direction {direction}$"):
        inequality_hits(slab, [-0.5], V, _model2())


@pytest.mark.parametrize("w_shape, t_shape", [((2, 2), (2,)), ((1, 3), (1,)),
                                              ((1, 2), (2,)), ((2,), (1,))])
def test_declared_halfspace_shapes_checked(w_shape, t_shape):
    # A one-row system in R^2 must declare W of shape (1, 2), checked when the
    # system is built, and t(x) of shape (1,), checked on each call.
    def declare():
        return dataclasses.replace(sp.make_halfspace([1.0, 0.0]), halfspaces=(
            np.ones(w_shape), lambda x: np.ones(t_shape)))

    if w_shape != (1, 2):
        with pytest.raises(ValueError, match=r"halfspace: halfspaces must be \(W, t\) with W "
                                             r"a constant, finite \(1, 2\) array"):
            declare()
        return
    with pytest.raises(ValueError, match=r"halfspace: t\(x\) has shape \(2,\), not \(1,\)"):
        _ineq(declare(), [1.0], [1.0, 0.0], _model2())


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
        assert np.isfinite(hit.rho[0])
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

    @pytest.mark.parametrize("case", ["declared", "scanned"])
    def test_mean_outside_cap_raised(self, case):
        # A cap's own gap c - C . mean is part of the interior check.  The
        # hyperbolic mean (-2.5, 0) also makes g_0(x, mean) = 2 positive;
        # the cap is reported first.
        if case == "declared":
            system, model, x, _ = _dense_affine_case()
            C, c = system.domain_caps
            c = c.copy()
            c[1] = C[1] @ model.mean - 0.5
            system, k = dataclasses.replace(system, domain_caps=(C, c)), 1
        else:
            system, x, k = sp.make_hyperbolic_system(), np.array([1.0]), 0
            model = sp.build_model(np.array([-2.5, 0.0]), np.eye(2))
        with pytest.raises(sp.InteriorViolated, match=f"{system.name}: mean outside "
                                                      f"domain cap {k}$") as info:
            inequality_hits(system, x, np.eye(model.dim), model)
        assert info.value.index == k

    def test_hyperbolic_caps_never_bind(self):
        sys_ = sp.make_hyperbolic_system()
        model = _model2()
        rng = np.random.default_rng(31)
        for _ in range(100):
            theta = rng.uniform(0, 2 * np.pi)
            hit = _ineq(sys_, [1.0], [np.cos(theta), np.sin(theta)], model)
            if np.isfinite(hit.rho[0]):
                assert all(i < sys_.s for i in _active(hit))


def _dense_affine_case():
    """Three dense declared rows and two domain caps under a correlated model.

    Every row and cap has a zero or sign-fixed last entry, and the factor is
    lower triangular, so along the extra direction e_4 row 0's ray speed is
    exactly 0 and no other row or cap is ever left: that ray is infinite.
    """
    rng = np.random.default_rng(11)
    W = rng.normal(size=(3, 5))
    W[:, -1] = [0.0, -0.4, -0.2]
    W /= np.linalg.norm(W, axis=1)[:, None]
    c = np.array([0.3, 0.0, 0.8])
    caps = (-np.array([[0.6, -0.8, 0.0, 0.0, 0.0], [0.0, 0.5, 0.5, -0.5, 0.5]]), [1.1, 1.4])

    def eval_g(i, x, Z):
        return Z @ W[i] - (x[0] + c[i])

    def grad_x_g(i, x, Z):
        return np.full((Z.shape[0], 1), -1.0)

    def grad_z_g(i, x, Z):
        return np.broadcast_to(W[i], Z.shape).copy()

    system = sp.InequalitySystem(
        s=3, x_dim=1, z_dim=5, eval_g=eval_g, grad_x_g=grad_x_g, grad_z_g=grad_z_g,
        domain_caps=caps, name="dense-affine",
        halfspaces=(W, lambda x: np.asarray(x, dtype=float)[0] + c))
    B = rng.normal(size=(5, 5))
    model = sp.build_model(np.full(5, 0.1), B @ B.T / 5 + np.eye(5))
    return system, model, np.array([1.2]), np.eye(5)[-1]


class TestHalfspaceClosedForm:
    """Declared halfspaces are solved in closed form; the scan on the same
    system with the declaration removed is the reference."""

    @pytest.mark.parametrize("method, n", [(sp.SphereMethod.QMC, 10000),
                                           (sp.SphereMethod.MONTE_CARLO, 50000)],
                             ids=["qmc-10k", "mc-50k"])
    @pytest.mark.parametrize("case", ["energy-start", "energy-interior", "energy-tied",
                                      "halfspace-dim8", "dense-caps"])
    def test_matches_scan(self, case, method, n):
        tie = orthogonal = None
        if case == "dense-caps":
            system, model, x, orthogonal = _dense_affine_case()
        elif case == "halfspace-dim8":
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
        extra = tie if tie is not None else orthogonal
        if extra is not None:
            dirs = np.vstack([dirs, extra])
        fast = inequality_hits(system, x, dirs, model)
        scan = inequality_hits(dataclasses.replace(system, halfspaces=None), x, dirs, model)
        assert np.array_equal(np.isfinite(fast.rho), np.isfinite(scan.rho))
        assert np.array_equal(fast.act, scan.act)
        np.testing.assert_allclose(fast.rho, scan.rho, rtol=1e-12, atol=0)
        if tie is not None:
            assert tuple(np.flatnonzero(fast.act[:, -1])) == (0, 4)
        if orthogonal is not None:
            assert (system.halfspaces[0][0] @ model.factor_L) @ orthogonal == 0.0
            assert fast.rho[-1] == np.inf
            # Both caps and the dense rows are all exercised.
            hit_rows = fast.act[:, np.isfinite(fast.rho)].any(axis=1)
            assert hit_rows.all(), hit_rows

    def test_mean_outside_declared_halfspace_raised(self):
        # eval_g has the mean inside, but the declared row 5 leaves it out:
        # its gap t - w . mean is negative, and so would its radii be.
        system, model, x, _ = energy_case("interior")
        W, t = system.halfspaces[0], system.halfspaces[1](x).copy()
        t[5] = W[5] @ model.mean - 1.0
        system = dataclasses.replace(system, halfspaces=(W, lambda x_: t))
        with pytest.raises(sp.InteriorViolated, match="declared halfspace 5") as info:
            inequality_hits(system, x, sp.sample_sphere(model.dim, 10).directions, model)
        assert info.value.index == 5

    @pytest.mark.parametrize("case", ["start", "interior", "tied"])
    def test_axis_rows_match_per_row_form(self, case):
        # The per-row form divides (t - w . mean) / (L v . w) row by row; the
        # gauge takes 1 / max of the rows scaled by 1 / (t - w . mean).  Energy's
        # rows are all +-e_j, so both see the same speeds, and the gauge's two
        # extra roundings keep rho within 2 ulps with the same hits and ties.
        system, model, x, tie = energy_case(case)
        dirs = sp.sample_sphere(model.dim, 10000, seed=5).directions
        if tie is not None:
            dirs = np.vstack([dirs, tie])
        LV = dirs @ model.factor_L.T
        W, t = system.halfspaces[0], system.halfspaces[1](x)
        rows = [(w, ti) for w, ti in zip(W, t)]
        rows += list(zip(*system.domain_caps))
        ref = np.full((len(rows), dirs.shape[0]), np.inf)
        for k, (w, ti) in enumerate(rows):
            speed = LV @ w
            np.divide(ti - w @ model.mean, speed, out=ref[k], where=speed > 0)
        r_max = sp.chi_cutoff(model.dim)
        r_search = np.minimum(r_max, ref[system.s:].min(axis=0) * (1.0 - 1e-10))
        ref[:system.s][ref[:system.s] >= r_search] = np.inf
        rho = ref.min(axis=0)
        f = rho < r_max
        act = ref <= np.where(f, rho * (1.0 + radial.TIE_REL) + radial.TIE_ABS, -np.inf)
        fast = inequality_hits(system, x, dirs, model)
        assert np.array_equal(np.isfinite(fast.rho), f)
        assert np.array_equal(fast.act, act)
        assert np.all(np.abs(fast.rho[f] - rho[f]) <= 2 * np.spacing(rho[f]))
        if tie is not None:
            assert fast.act[:, -1].sum() == 2


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

    def test_mean_on_boundary_rejected_at_eps0(self):
        # project(mean) returns the mean on the boundary as well; at eps 0
        # its zero radii give it away before any value is formed.
        oracle, model = sp.make_ball(np.array([1.0, 0.0])), _model2()
        dirs = sp.sample_sphere(2, 2000, seed=12)
        with pytest.raises(sp.InteriorViolated, match="ball: mean is on the boundary of S"):
            sp.evaluate(oracle, [1.0], model, dirs)
        assert sp.evaluate(oracle, [1.0], model, dirs, eps=0.05).n_infinite == 0

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
        return model, dirs, sp.chi_cutoff(m)

    @staticmethod
    def _agree(hits, closed, r_max):
        assert np.array_equal(np.isfinite(hits.rho), closed < r_max)
        f = np.isfinite(hits.rho)
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
        f = np.isfinite(hits.rho)
        assert np.all(np.abs(hits.rho[f] - closed[f]) <= 1e-13 * np.maximum(1.0, closed[f]))
        # Membership on both sides of the root: a solve that stopped where the
        # distance first reads 0 would return points deep inside.
        Z = hits.rho[f, None] * dirs[f]
        assert _hyperbolic_inside(x, Z * (1 - 1e-9)).all()
        assert not _hyperbolic_inside(x, Z * (1 + 1e-9)).any()

    @pytest.mark.parametrize("x", [0.75, 2.25, 3.25])
    def test_hyperbolic_set_enlarged_distance(self, x):
        model, dirs, _ = self._case(2)
        oracle = sp.make_hyperbolic_set()
        hits = enlarged_hits(oracle, [x], dirs, 0.05, model)
        f = np.isfinite(hits.rho)
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
            if np.isfinite(hit.rho[0]):
                assert batch.rho[k] == pytest.approx(hit.rho[0], rel=1e-12)
            else:
                assert not np.isfinite(batch.rho[k])


class TestBlockedBatches:
    """A batch solved in blocks of ``BLOCK_ROWS`` directions matches the
    one-block solve: each ray's result depends on its own row alone, except
    for the BLAS rounding of a correlated model's products."""

    @staticmethod
    def _case(case, n):
        c = np.zeros(8)
        c[0] = 1.0
        std = lambda m: sp.build_model(np.zeros(m), np.eye(m))
        qmc = lambda m: sp.sample_sphere(m, n, seed=sp.DEFAULT_SEED).directions
        if case == "energy-interior":
            system, model, x, _ = energy_case("interior")
            dirs = sp.sample_sphere(8, n, seed=5, method=sp.SphereMethod.MONTE_CARLO)
            return lambda: inequality_hits(system, x, dirs.directions, model)
        if case == "slab-dim8":
            slab = sp.make_slab(c, lambda x: x[0], lambda x: np.array([1.0]))
            return lambda: inequality_hits(slab, [-0.5], qmc(8), std(8))
        if case == "hyperbolic-system":
            return lambda: inequality_hits(sp.make_hyperbolic_system(), [2.25], qmc(2), std(2))
        target, m, x, eps = {
            "hyperbolic-set-eps0": (sp.make_hyperbolic_set(), 2, 2.25, 0.0),
            "hyperbolic-set-eps0.05": (sp.make_hyperbolic_set(), 2, 2.25, 0.05),
            "ball-dim8-eps0.05": (sp.make_ball(np.zeros(8)), 8, 3.0, 0.05),
        }[case]
        return lambda: enlarged_hits(target, [x], qmc(m), eps, std(m))

    @staticmethod
    def _same(a, b):
        for field in ("rho", "act"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), field

    @staticmethod
    def _close(a, b):
        # With a correlated factor, BLAS rounds a column of (W L) V^T by where
        # it falls in the product's tiling (and by thread count): at blocks of
        # 7, radius 300 of 303 moves by two ulps.  Ties and finiteness hold.
        assert np.array_equal(np.isfinite(a.rho), np.isfinite(b.rho))
        assert np.array_equal(a.act, b.act)
        np.testing.assert_allclose(b.rho, a.rho, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("block, n", [(7, 303), (1000, 2503)])
    @pytest.mark.parametrize("case", ["energy-interior", "slab-dim8", "hyperbolic-system",
                                      "hyperbolic-set-eps0", "hyperbolic-set-eps0.05",
                                      "ball-dim8-eps0.05"])
    def test_matches_one_block(self, monkeypatch, case, block, n):
        assert n % block and n <= radial.BLOCK_ROWS
        solve = self._case(case, n)
        whole = solve()
        monkeypatch.setattr(radial, "BLOCK_ROWS", block)
        blocked = solve()
        assert np.isfinite(blocked.rho).any()
        if case == "energy-interior":
            self._close(whole, blocked)
        else:
            self._same(whole, blocked)       # standard models: every product is exact

    def test_energy_validation_matches_one_block(self, monkeypatch):
        problem = sp.make_energy_problem()
        x = np.r_[np.full(4, 1.5), np.full(4, 11.0)]
        V = problem.validate_dirs.directions
        assert V.shape[0] > radial.BLOCK_ROWS
        blocked = inequality_hits(problem.system, x, V, problem.model)
        monkeypatch.setattr(radial, "BLOCK_ROWS", V.shape[0])
        self._close(inequality_hits(problem.system, x, V, problem.model), blocked)

    def test_errors_name_the_global_direction(self, monkeypatch):
        monkeypatch.setattr(radial, "BLOCK_ROWS", 7)
        dirs = np.tile([-1.0, 0.0], (20, 1))
        dirs[16] = [1.0, 0.0]
        holed = _holed_system(1.5, 1.2, 1.8)
        with pytest.raises(NumericalError, match="direction 16$"):
            inequality_hits(holed, [0.0], dirs, _model2())
        dirs[16] = [np.nan, 0.0]
        with pytest.raises(ValueError, match="direction 16 is not a unit vector"):
            inequality_hits(holed, [0.0], dirs, _model2())
        with pytest.raises(ValueError, match="direction 16 is not a unit vector"):
            enlarged_hits(sp.make_ball(np.zeros(2)), [1.0], dirs, 0.1, _model2())

    def test_scan_nan_names_the_global_direction(self):
        # Scan points pass no row index; a NaN at the first scan point, r = 1,
        # of a direction in the second block still names that direction.
        k = radial.BLOCK_ROWS + 5
        dirs = np.tile([-1.0, 0.0], (k + 3, 1))
        dirs[k] = [1.0, 0.0]
        with pytest.raises(NumericalError, match=f"holed: g_0: NaN ray value at direction {k}$"):
            inequality_hits(_holed_system(1.5, 0.5), [0.0], dirs, _model2())
        ball = sp.make_ball(np.zeros(2))
        oracle = dataclasses.replace(ball, project=lambda x, Z: np.where(
            Z[:, :1] > 0.5, np.nan, ball.project(x, Z)))
        with pytest.raises(NumericalError, match=f"ball: NaN ray value at direction {k}$"):
            enlarged_hits(oracle, [1.0], dirs, 0.05, _model2())


class TestPinnedRadii:
    """Radii of the scan and set-oracle ray paths at 1,000 QMC directions
    (``DEFAULT_SEED``, standard models, so no product rounds).  A change of
    these bits changes every output built on them; say so when it does."""

    DIGESTS = {
        "slab-dim2": "29cf4e3d2b205fae00c0eed2c4dd48bc043c5c49bb72af22bd3f4ae715569e4f",
        "slab-dim8": "fb99339807e7f74fbb49863b48bd412ff71aa8a1a56929f7163cf862ed80bad4",
        "hyperbolic-system": "7a11c1041a8bf83520d056eb8bbdf53bb80b255f0a05ddec928d782d7b8ef582",
        "hyperbolic-set-eps0": "0f78af90c203b3608b052af14d7363fbb14f6d505e6339e569fafb8092d4e301",
        "hyperbolic-set-eps0.05":
            "773afa835139167d36164421301c1f34080f0c50e75be2384be0f89232b788c0",
        # A ball in dimension 2 around (0.4, -0.3), x = 1.5.
        "ball-dim2-eps0": "942dae559fe6b16c8a0f9289e7b1abc10d3dc08e852be216e14f89da23d5174d",
        "ball-dim2-eps0.05": "b328ea1606aeb1c7381b0742e7dd5d311aecf69a0f878a3044e8e79eda786fd4",
    }
    # Every 100th radius of a ball in dimension 8 around BALL_CENTER, x = 3.
    # The residual norm sums its 8 squares in a set order, so these may move
    # by a few ulps when that order does; 4 ulps is the bar.
    BALL_CENTER = np.array([0.4, -0.3, 0.2, 0.0, 0.1, -0.2, 0.3, -0.1])
    BALL_RADII = {
        0.05: [2.848851113914913, 3.0027694748955316, 2.765888118650058, 2.8853263474162123,
               2.722475781270212, 2.9359514650977485, 3.0735077094236525, 3.2022268183299336,
               2.7609977097373775, 3.1028994713193154],
        0.0: [2.79765418356455, 2.9515240507387395, 2.714781481808815, 2.8341044795636465,
              2.6714359608684255, 2.884709128083698, 3.0222868761854693, 3.1511178219470657,
              2.709897909375421, 3.0516968125978656],
    }

    @staticmethod
    def _setup(m):
        return (sp.sample_sphere(m, 1000, seed=sp.DEFAULT_SEED).directions,
                sp.build_model(np.zeros(m), np.eye(m)))

    @pytest.mark.parametrize("case", list(DIGESTS))
    def test_digest(self, case):
        slab = lambda m: sp.make_slab(np.eye(m)[0], lambda x: x[0], lambda x: np.array([1.0]))
        if case.startswith("slab"):
            m = int(case[-1])
            hits = inequality_hits(slab(m), [-0.5], *self._setup(m))
        elif case == "hyperbolic-system":
            hits = inequality_hits(sp.make_hyperbolic_system(), [2.25], *self._setup(2))
        else:
            eps = float(case.rsplit("eps", 1)[1])
            V, model = self._setup(2)
            oracle, x = ((sp.make_ball(np.array([0.4, -0.3])), 1.5) if case.startswith("ball")
                         else (sp.make_hyperbolic_set(), 2.25))
            hits = enlarged_hits(oracle, [x], V, eps, model)
        assert np.isfinite(hits.rho).sum() > 600
        assert hashlib.sha256(hits.rho.tobytes()).hexdigest() == self.DIGESTS[case]

    @pytest.mark.parametrize("eps", list(BALL_RADII))
    def test_ball_dim8_within_4_ulps(self, eps):
        V, model = self._setup(8)
        rho = enlarged_hits(sp.make_ball(self.BALL_CENTER, 8), [3.0], V, eps, model).rho
        want = np.array(self.BALL_RADII[eps])
        assert np.all(np.abs(rho[::100] - want) <= 4 * np.spacing(want))


class TestRayCallbackCounts:
    """Callback calls and rows of one 10k-direction ray solve of each case of
    ``scripts/bench_layers.py`` (``DEFAULT_SEED``, standard models).  They
    are deterministic; a change that moves them changes the ray work."""

    # case: (target, x, m, eps, {callback: (calls, rows)})
    CASES = {
        "hyperbolic-set-x0.75": (sp.make_hyperbolic_set, 0.75, 2, 0.05,
                                 {"project": (9, 59011)}),
        "hyperbolic-set-x2.25": (sp.make_hyperbolic_set, 2.25, 2, 0.05,
                                 {"project": (9, 63125)}),
        # Bisecting after an untrusted outside slope would take 50 calls here.
        "hyperbolic-set-x0.75-eps0": (sp.make_hyperbolic_set, 0.75, 2, 0.0,
                                      {"project": (15, 62289)}),
        "ball-dim8-x3": (lambda: sp.make_ball(np.zeros(8)), 3.0, 8, 0.05,
                         {"project": (7, 60001)}),
        "ball-dim2-x1.5": (lambda: sp.make_ball(np.zeros(2)), 1.5, 2, 0.05,
                           {"project": (6, 50001)}),
        "slab-dim2": (lambda: sp.make_slab(np.eye(2)[0], lambda x: x[0],
                                           lambda x: np.array([1.0])), -0.5, 2, None,
                      {"eval_g": (12, 75381), "grad_z_g": (10, 44242)}),
        "slab-dim8": (lambda: sp.make_slab(np.eye(8)[0], lambda x: x[0],
                                           lambda x: np.array([1.0])), -0.5, 8, None,
                      {"eval_g": (14, 77705), "grad_z_g": (12, 34642)}),
        "hyperbolic-system": (sp.make_hyperbolic_system, 2.25, 2, None,
                              {"eval_g": (10, 60649), "grad_z_g": (9, 33217)}),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_counts(self, case):
        make, x, m, eps, want = self.CASES[case]
        target = make()
        seen = {name: [0, 0] for name in want}

        def counting(name, fn):
            def counted(*args):
                seen[name][0] += 1
                seen[name][1] += np.shape(args[-1])[0]
                return fn(*args)
            return counted

        counted = dataclasses.replace(
            target, **{name: counting(name, getattr(target, name)) for name in want})
        V = sp.sample_sphere(m, 10000, seed=sp.DEFAULT_SEED).directions
        model = sp.build_model(np.zeros(m), np.eye(m))
        if eps is None:
            inequality_hits(counted, [x], V, model)
        else:
            enlarged_hits(counted, [x], V, eps, model)
        assert {name: tuple(n) for name, n in seen.items()} == want
