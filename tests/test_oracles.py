import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphrad as sp
from sphrad import oracles
from sphrad.oracles import _hyperbolic_inside, _hyperbolic_project
from sphrad.radial import inequality_hits


def _model2():
    return sp.build_model(np.zeros(2), np.eye(2))


def _slab2():
    return sp.make_slab([1.0, 0.0], lambda x: x[0], lambda x: np.array([1.0]))


class TestHalfspace:
    def test_direct_evaluation(self):
        sys_ = sp.make_halfspace([1.0, 0.0])
        g = sys_.eval_g(0, [1.0], np.array([[0.5, 123.0]]))
        assert g[0] == pytest.approx(-0.5)

    def test_gradients_constant(self):
        sys_ = sp.make_halfspace([1.0, 0.0])
        Z = np.array([[0.3, -2.0], [5.0, 1.0]])
        assert np.allclose(sys_.grad_z_g(0, [2.0], Z), [[1.0, 0.0], [1.0, 0.0]])
        assert np.allclose(sys_.grad_x_g(0, [2.0], Z), [[-1.0], [-1.0]])

    def test_requires_unit_vector(self):
        with pytest.raises(ValueError):
            sp.make_halfspace([2.0, 0.0])


class TestDeclaredHalfspaces:
    @pytest.mark.parametrize("fixture", ["halfspace", "energy"])
    def test_sublevel_sets_agree_with_g(self, fixture):
        # Away from the boundary, W[i] . z <= t[i] exactly where g_i <= 0.
        rng = np.random.default_rng(3)
        if fixture == "halfspace":
            sys_, x = sp.make_halfspace(np.ones(3) / np.sqrt(3)), np.array([0.4])
            Z = rng.normal(scale=2.0, size=(4000, 3))
        else:
            params = sp.EnergyParams()
            sys_ = sp.make_energy_system(params)
            x = np.r_[-0.5, 0.0, 1.5, 2.0, np.full(4, 11.0)]
            Z = sp.build_energy_covariance(params).mean + rng.normal(scale=3.0,
                                                                    size=(4000, 8))
        W, t = sys_.halfspaces[0], sys_.halfspaces[1](x)
        assert W.shape == (sys_.s, sys_.z_dim) and t.shape == (sys_.s,)
        for i in range(sys_.s):
            g = sys_.eval_g(i, x, Z)
            clear = np.abs(g) > 1e-9
            assert np.array_equal((Z @ W[i] <= t[i])[clear], (g <= 0)[clear])

    def test_w_is_a_read_only_copy(self):
        a = np.array([1.0, 0.0])
        sys_ = sp.make_halfspace(a)
        a[0] = 5.0
        W = sys_.halfspaces[0]
        assert np.array_equal(W, [[1.0, 0.0]]) and not W.flags.writeable
        with pytest.raises(ValueError):
            W[0, 0] = 2.0

    def test_caps_are_read_only_copies(self):
        C, c = -np.eye(2), np.array([2.0, 2.0])
        sys_ = dataclasses.replace(sp.make_halfspace([1.0, 0.0]), domain_caps=(C, c))
        C[0, 0], c[0] = 5.0, 5.0
        for stored, expected in zip(sys_.domain_caps, (-np.eye(2), [2.0, 2.0])):
            assert np.array_equal(stored, expected) and not stored.flags.writeable
            with pytest.raises(ValueError):
                stored[0] = 2.0

    @pytest.mark.parametrize("field, value", [
        ("halfspaces", lambda x: (np.eye(2)[:1], np.ones(1))),  # the whole pair per decision
        ("halfspaces", (np.eye(2)[:1], np.ones(1))),            # t a constant
        ("domain_caps", (-np.eye(3)[:2], np.ones(2))),          # rows of length 3 in R^2
        ("domain_caps", (np.array([[-1.0, np.nan]]), np.ones(1))),
        ("domain_caps", (-np.eye(2), np.ones(3))),              # c of the wrong length
        ("domain_caps", (lambda x: -np.eye(2), np.ones(2))),    # C per decision
    ], ids=["callable", "constant-t", "caps-shape", "caps-nan", "caps-c-length",
            "caps-callable"])
    def test_declaration_is_a_constant_w_and_a_callable_t(self, field, value):
        # Declared rows (W, t) and caps (C, c) are checked when the system is built.
        what = {"halfspaces": r"halfspaces must be \(W, t\)",
                "domain_caps": r"domain_caps must be \(C, c\)"}[field]
        with pytest.raises(ValueError, match=f"halfspace: {what}"):
            dataclasses.replace(sp.make_halfspace([1.0, 0.0]), **{field: value})

    def test_energy_needs_positive_wind_coefficient(self):
        with pytest.raises(ValueError):
            sp.make_energy_system(sp.EnergyParams(wind_coeff=0.0))


class TestSlab:
    def test_log_term_vanishes(self):
        sys_ = _slab2()
        g = sys_.eval_g(0, [-1.3], np.array([[0.0, 7.0]]))
        assert g[0] == pytest.approx(-1.3)

    def test_grad_z_closed_form(self):
        sys_ = _slab2()
        Z = np.array([[0.7, 3.0], [-2.1, 0.0]])
        t = Z[:, 0]
        expected = np.stack([t / (1 + t * t), np.zeros(2)], axis=1)
        assert np.allclose(sys_.grad_z_g(0, [-1.0], Z), expected, atol=1e-14)

    def test_boundary_threshold(self):
        tau = sp.slab_threshold(-1.0)
        assert tau == pytest.approx(np.sqrt(np.exp(2) - 1), abs=1e-12)
        sys_ = _slab2()
        g = sys_.eval_g(0, [-1.0], np.array([[tau, 0.0]]))
        assert abs(g[0]) <= 1e-12

    def test_interior_violated(self):
        sys_ = _slab2()
        with pytest.raises(sp.InteriorViolated):
            sys_.eval_g(0, [0.5], np.zeros((1, 2)))
        with pytest.raises(sp.InteriorViolated):
            inequality_hits(sys_, [0.0], np.eye(2), _model2())


def _all_systems():
    params = sp.EnergyParams()
    return [
        (sp.make_halfspace([1.0, 0.0]), np.array([1.2]), 2),
        (_slab2(), np.array([-0.8]), 2),
        (sp.make_hyperbolic_system(), np.array([1.0]), 2),
        (sp.make_energy_system(params),
         np.r_[np.full(4, 0.5), np.full(4, 12.0)], 8),
    ]


class TestGradientConsistency:
    def test_fd_matches_gradients(self):
        # Central differences of g in x and z at 20 random points per fixture.
        rng = np.random.default_rng(3)
        for sys_, x, m in _all_systems():
            for _ in range(20):
                z = rng.uniform(0.05, 1.2, m)
                i = rng.integers(sys_.s)
                gx = sys_.grad_x_g(i, x, z[None, :])[0]
                gz = sys_.grad_z_g(i, x, z[None, :])[0]
                for j in range(len(x)):
                    h = 1e-6 * max(1.0, abs(x[j]))
                    xp, xm = x.copy(), x.copy()
                    xp[j] += h
                    xm[j] -= h
                    fd = (sys_.eval_g(i, xp, z[None, :])[0]
                          - sys_.eval_g(i, xm, z[None, :])[0]) / (2 * h)
                    assert fd == pytest.approx(gx[j], rel=1e-6, abs=1e-9)
                for j in range(m):
                    h = 1e-6 * max(1.0, abs(z[j]))
                    zp, zm = z.copy(), z.copy()
                    zp[j] += h
                    zm[j] -= h
                    fd = (sys_.eval_g(i, x, zp[None, :])[0]
                          - sys_.eval_g(i, x, zm[None, :])[0]) / (2 * h)
                    assert fd == pytest.approx(gz[j], rel=1e-6, abs=1e-9)

    def test_quasi_convex_midpoints(self):
        # g_i(x, (z+z')/2) <= max(g_i(x,z), g_i(x,z')) + 1e-9 on samples.
        rng = np.random.default_rng(5)
        for sys_, x, m in _all_systems():
            lo = np.zeros(m) if sys_.name == "energy" else np.full(m, -1.9)
            hi = np.full(m, 3.0)
            Z1 = rng.uniform(lo, hi, (1000, m))
            Z2 = rng.uniform(lo, hi, (1000, m))
            mid = 0.5 * (Z1 + Z2)
            for i in range(sys_.s):
                g1 = sys_.eval_g(i, x, Z1)
                g2 = sys_.eval_g(i, x, Z2)
                gm = sys_.eval_g(i, x, mid)
                assert np.all(gm <= np.maximum(g1, g2) + 1e-9)


class TestHyperbolicOracle:
    def test_interior_point_fixed(self):
        oracle = sp.make_hyperbolic_set()
        P = oracle.project([1.0], np.array([[0.0, 0.0]]))
        assert np.allclose(P[0], [0.0, 0.0])

    def test_symmetric_corner_projection(self):
        oracle = sp.make_hyperbolic_set()
        P = oracle.project([1.0], np.array([[-2.0, -2.0]]))[0]
        assert P[0] == pytest.approx(P[1], abs=1e-10)
        assert (P[0] + 2) * (P[1] + 2) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(P, [-1.0, -1.0], atol=1e-9)
        # Grid-search oracle over the boundary curve confirms optimality.
        s = np.linspace(-1.999, 6.0, 20001)
        curve = np.stack([s, 1.0 / (s + 2) - 2], axis=1)
        d = np.linalg.norm(curve - np.array([-2.0, -2.0]), axis=1)
        assert np.linalg.norm(P - np.array([-2.0, -2.0])) <= d.min() + 1e-6

    def test_normal_direction_on_boundary(self):
        # Residual of an exterior point is anti-parallel to (z2+2, z1+2)
        # at its projection.
        oracle = sp.make_hyperbolic_set()
        rng = np.random.default_rng(11)
        W = rng.uniform(-2.5, 0.5, (200, 2))
        outside = ~_hyperbolic_inside(1.0, W)
        W = W[outside]
        P = oracle.project([1.0], W)
        U = W - P
        N = np.stack([P[:, 1] + 2.0, P[:, 0] + 2.0], axis=1)
        cross = U[:, 0] * N[:, 1] - U[:, 1] * N[:, 0]
        assert np.abs(cross).max() <= 1e-8
        assert np.all(np.einsum("km,km->k", U, N) < 0)
        # Points 1e-8 outside the curve along its outward normal: the residual
        # is tiny, and its direction is still the normal's.
        a = np.geomspace(0.1, 10.0, 101)
        for x in (0.75, 2.25, 3.25):
            n = np.stack([x / a, a], axis=1)
            n /= np.linalg.norm(n, axis=1)[:, None]
            W = np.stack([a, x / a], axis=1) - 2.0 - 1e-8 * n
            assert not _hyperbolic_inside(x, W).any()
            P = oracle.project([x], W)
            U = W - P
            N = np.stack([P[:, 1] + 2.0, P[:, 0] + 2.0], axis=1)
            cross = (U[:, 0] * N[:, 1] - U[:, 1] * N[:, 0]) / (
                np.linalg.norm(U, axis=1) * np.linalg.norm(N, axis=1))
            assert np.abs(cross).max() <= 1e-5

    @staticmethod
    def _assert_feet_polished(x, W):
        # Polishing each foot with long-double Newton steps on the quartic
        # moves it by a few ulps at most.  The foot's a = s + 2 is read from
        # the coordinate that carries it: s + 2 where a >= sqrt(x), else
        # x / (t + 2), as s + 2 loses a tiny a to the shift by 2.
        A = sp.make_hyperbolic_set().project([x], W) + 2.0
        with np.errstate(divide="ignore"):
            a = np.where(A[:, 0] >= np.sqrt(x), A[:, 0], x / A[:, 1])
        p, q = (W + 2.0).astype(np.longdouble).T
        ref, xl = a.astype(np.longdouble), np.longdouble(x)
        for _ in range(4):
            ref -= ((ref ** 3 * (ref - p) + xl * (q * ref - xl))
                    / (ref * ref * (4 * ref - 3 * p) + xl * q))
        assert np.all(np.abs(a - ref.astype(float)) <= 8 * np.spacing(a))

    def test_foot_matches_extended_precision(self):
        rng = np.random.default_rng(23)
        for x in (0.75, 2.25, 3.25):
            W = rng.uniform(-4.0, 4.0, (4000, 2))
            self._assert_feet_polished(x, W[~_hyperbolic_inside(x, W)])

    def test_far_exterior_feet(self):
        # Far below or left of the body the foot is near |w|^(1/3) from the
        # curve's end, and Newton starts within a factor of it.
        W = np.array([[-3.0, -1e38], [-1e36, -1e36], [-3.0, -1e80]])
        P = sp.make_hyperbolic_set().project([1.0], W)
        assert np.array_equal(P[1], [-1.0, -1.0])
        self._assert_feet_polished(1.0, W)

    @pytest.mark.parametrize("radius", [1e6, 1e12, 1e17, 1e20])
    def test_far_circle_feet(self, radius):
        # Far left of the body neither the start nor a Newton step may cancel:
        # p + |w - c| and a - f / f' both subtract nearly equal numbers there.
        theta = np.deg2rad(np.arange(0.0, 360.0, 0.05))
        W = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        self._assert_feet_polished(1.0, W[~_hyperbolic_inside(1.0, W)])

    def test_idempotent_and_variational(self):
        oracle = sp.make_hyperbolic_set()
        rng = np.random.default_rng(13)
        W = rng.uniform(-3.0, 3.0, (300, 2))
        P = oracle.project([1.0], W)
        P2 = oracle.project([1.0], P)
        assert np.abs(P2 - P).max() <= 1e-9
        # <z - P(z), w - P(z)> <= 1e-9 for sampled members w.
        S = rng.uniform(-1.9, 4.0, (300, 2))
        S = S[_hyperbolic_inside(1.0, S)]
        U = W - P
        for w in S[:50]:
            assert np.max(np.einsum("km,km->k", U, w - P)) <= 1e-9

    def test_nonexpansive(self):
        oracle = sp.make_hyperbolic_set()
        rng = np.random.default_rng(17)
        A = rng.uniform(-3.0, 3.0, (200, 2))
        B = rng.uniform(-3.0, 3.0, (200, 2))
        PA = oracle.project([1.0], A)
        PB = oracle.project([1.0], B)
        lhs = np.linalg.norm(PA - PB, axis=1)
        rhs = np.linalg.norm(A - B, axis=1)
        assert np.all(lhs <= rhs + 1e-9)

    def test_transversality_at_origin(self):
        # <z - P(z), z - mean> >= r * d(z, S(x)) with an empirical r > 0.
        oracle = sp.make_hyperbolic_set()
        rng = np.random.default_rng(19)
        W = rng.uniform(-4.0, 4.0, (500, 2))
        W = W[~_hyperbolic_inside(1.0, W)]
        P = oracle.project([1.0], W)
        U = W - P
        d = np.linalg.norm(U, axis=1)
        inner = np.einsum("km,km->k", U, W)
        r_emp = (inner / d).min()
        print(f"empirical transversality constant r = {r_emp:.4f}")
        assert r_emp > 0

    def test_x_domain_guard(self):
        oracle = sp.make_hyperbolic_set()
        with pytest.raises(sp.InteriorViolated):
            oracle.project([5.0], np.array([[10.0, 10.0]]))

    def test_batch_matches_each_row_alone(self):
        # The projection iterates only the rows still moving, which is exact
        # because rows are independent and a converged row is frozen.
        x = 0.75
        oracle = sp.make_hyperbolic_set()
        dirs = sp.sample_sphere(2, 200).directions
        Z = np.concatenate([r * dirs for r in (1.0, 2.0, 4.0, 8.0)])
        Z = Z[~_hyperbolic_inside(x, Z)]
        batch = oracle.project([x], Z)
        alone = np.concatenate([oracle.project([x], z[None, :]) for z in Z])
        assert batch.tobytes() == alone.tobytes()

    def test_step_cap_raises(self, monkeypatch):
        # A row still moving when the Newton steps run out is reported, and so
        # is one whose quartic overflows (with numpy's warnings), never a NaN
        # projection; so is a foot below the smallest double (a* near
        # x / q = 1e-400), never an infinite one.
        with pytest.raises(sp.ProjectionDiverged), np.errstate(over="ignore", invalid="ignore"):
            _hyperbolic_project(0.75, np.array([[-3.0, -1e300]]))
        with pytest.raises(sp.ProjectionDiverged, match="rounding"):
            _hyperbolic_project(1e-200, np.array([[-3.0, 1e200]]))
        monkeypatch.setattr(oracles, "_PROJECT_MAX_NEWTON", 2)
        with pytest.raises(sp.ProjectionDiverged):
            _hyperbolic_project(0.75, np.array([[-5.0, 3.0]]))


class TestBallOracle:
    def test_projection_and_membership(self):
        oracle = sp.make_ball(np.zeros(2))
        P = oracle.project([1.0], np.array([[3.0, 4.0], [0.1, 0.1]]))
        assert np.allclose(P[0], [0.6, 0.8])
        assert np.allclose(P[1], [0.1, 0.1])
        # Membership is a zero projection residual: inside points come back unchanged.
        Z = np.array([[0.0, 0.5], [2.0, 0.0]])
        assert list((oracle.project([1.0], Z) == Z).all(axis=1)) == [True, False]

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3), st.floats(-3, 3))
    def test_nonexpansive_property(self, a1, a2, b1, b2):
        oracle = sp.make_ball(np.zeros(2))
        A = np.array([[a1, a2]])
        B = np.array([[b1, b2]])
        PA, PB = oracle.project([1.0], A), oracle.project([1.0], B)
        assert np.linalg.norm(PA - PB) <= np.linalg.norm(A - B) + 1e-9

    @pytest.mark.parametrize("m", [2, 8])
    def test_center_projects_silently(self, m):
        # The scale x / max(|z - c|, x) never divides by 0; pytest turns a
        # RuntimeWarning into an error, so this also checks it stays silent.
        center = np.linspace(-0.5, 0.5, m)
        P = sp.make_ball(center, m).project([1.5], center[None, :])
        assert P.tobytes() == center[None, :].tobytes()


class TestProjectionLayout:
    """Ray points reach ``project`` as column-major (k, m) views; a C-ordered
    and a Fortran-ordered copy of the same points project to the same bytes."""

    @staticmethod
    def _ball_points(center, x, rng):
        m = center.shape[0]
        u = rng.standard_normal((40, m))
        u /= np.linalg.norm(u, axis=1)[:, None]
        r = np.r_[np.zeros(1), rng.uniform(0.0, 3.0 * x, 29), np.full(10, x)]
        return center + r[:, None] * u     # the center, inside, outside, on the sphere

    @pytest.mark.parametrize("m, offset", [(2, 0.0), (2, 0.7), (8, 0.0), (8, 0.7)])
    def test_ball(self, m, offset):
        center = offset * np.linspace(-1.0, 1.0, m)
        Z = self._ball_points(center, 1.5, np.random.default_rng(m))
        self._same_bytes(sp.make_ball(center, m), [1.5], Z)

    @pytest.mark.parametrize("x", [0.75, 2.25])
    def test_hyperbolic_set(self, x):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.2, 4.0, 10)
        boundary = np.stack([a - 2.0, x / a - 2.0], axis=1)
        Z = np.vstack([rng.uniform(-4.0, 3.0, (60, 2)), boundary, np.zeros((1, 2))])
        self._same_bytes(sp.make_hyperbolic_set(), [x], Z)

    @staticmethod
    def _same_bytes(oracle, x, Z):
        C, F = np.array(Z, order="C"), np.array(Z, order="F")
        strided = np.asfortranarray(np.repeat(Z, 2, axis=0))[::2]     # neither order
        assert F.flags.f_contiguous and not F.flags.c_contiguous
        assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
        want = np.ascontiguousarray(oracle.project(x, C)).tobytes()
        for points in (F, strided):
            P = oracle.project(x, points)
            assert P.shape == Z.shape and np.ascontiguousarray(P).tobytes() == want
        for points in (C, F, strided):
            assert np.array_equal(points, Z)        # project wrote into none of them


class TestEnergySystem:
    def test_mean_wind_power_bound(self):
        params = sp.EnergyParams()
        assert params.wind_coeff * params.mu_wind**3 == pytest.approx(2.4220, abs=5e-4)

    def test_load_constraint_at_mean(self):
        params = sp.EnergyParams()
        sys_ = sp.make_energy_system(params)
        x = np.r_[np.zeros(4), np.full(4, 20.0)]
        model = sp.build_energy_covariance(params)
        g = sys_.eval_g(4, x, model.mean[None, :])
        assert g[0] == pytest.approx(-10.0)

    def test_decision_gradient_blocks(self):
        params = sp.EnergyParams()
        sys_ = sp.make_energy_system(params)
        x = np.r_[np.full(4, 0.5), np.full(4, 12.0)]
        Z = np.zeros((1, 8))
        for t in range(4):
            gx = sys_.grad_x_g(4 + t, x, Z)[0]
            expected = np.zeros(8)
            expected[t] = -1.0
            expected[4 + t] = -1.0
            assert np.array_equal(gx, expected)

    def test_interior_violation_reports_period(self):
        params = sp.EnergyParams()
        sys_ = sp.make_energy_system(params)
        model = sp.build_energy_covariance(params)
        x = np.r_[np.full(4, 0.5), np.full(4, 12.0)]
        x[2] = 3.0            # above the mean wind power bound for period 2
        with pytest.raises(sp.InteriorViolated, match="declared halfspace 2") as info:
            inequality_hits(sys_, x, np.eye(8), model)
        assert info.value.index == 2


class TestEnergyCovariance:
    def test_single_period_matrix(self):
        params = sp.EnergyParams(periods=1)
        model = sp.build_energy_covariance(params)
        off = -0.3 * np.sqrt(1.54)
        assert np.allclose(model.covariance, [[1.54, off], [off, 1.0]], atol=1e-12)

    def test_default_diagonal(self):
        model = sp.build_energy_covariance(sp.EnergyParams())
        assert np.allclose(np.diag(model.covariance),
                           [1.54, 1.54, 1.54, 1.54, 1, 1, 1, 1], atol=1e-12)

    def test_positive_definite(self):
        model = sp.build_energy_covariance(sp.EnergyParams())
        assert np.linalg.eigvalsh(model.covariance).min() > 0

    def test_mean_vector(self):
        model = sp.build_energy_covariance(sp.EnergyParams())
        assert np.allclose(model.mean, [4.23] * 4 + [10.0] * 4)
