import dataclasses

import numpy as np
import pytest
from scipy import stats

import sphrad as sp
from sphrad.gaussian import RadialLaw

from _helpers import energy_case, fd_gradient, fd_rel_error, window_tie_free


def _model2():
    return sp.build_model(np.zeros(2), np.eye(2))


def _dirs(n=10000, m=2, seed=sp.DEFAULT_SEED, method=sp.SphereMethod.QMC):
    return sp.sample_sphere(m, n, seed=seed, method=method)


def _slab2():
    return sp.make_slab([1.0, 0.0], lambda x: x[0], lambda x: np.array([1.0]))


class TestRayWork:
    def test_energy_evaluation_evaluates_g_only_at_the_mean(self):
        # Every energy constraint is a declared halfspace, so value and
        # gradient call eval_g once per constraint, on the mean, for the
        # interior check, and never along a ray.
        params = sp.EnergyParams()
        system = sp.make_energy_system(params)
        rows = []

        def eval_g(i, x, Z):
            rows.append(Z.shape[0])
            return system.eval_g(i, x, Z)

        counted = dataclasses.replace(system, eval_g=eval_g)
        x = np.r_[np.full(4, 1.5), np.full(4, 11.0)]
        ev = sp.evaluate(counted, x, sp.build_energy_covariance(params), _dirs(m=8))
        ev.gradient()
        assert rows == [1] * system.s

    @pytest.mark.parametrize("case, bound", [
        ("hyperbolic-set-eps0.05", 10), ("hyperbolic-set-eps0", 15),
        ("ball-dim8-eps0.05", 10), ("ball-dim8-eps0", 10),
        ("slab-dim8", 14), ("hyperbolic-system", 14)])
    def test_callback_rows_per_ray(self, case, bound):
        # Rays on the doubling scan: callback rows per ray of one evaluate,
        # plus its gradient where eps > 0 or the target is a system.
        c = np.zeros(8)
        c[0] = 1.0
        target, x, m, eps, names = {
            "hyperbolic-set-eps0.05": (sp.make_hyperbolic_set(), 2.25, 2, 0.05, ["project"]),
            "hyperbolic-set-eps0": (sp.make_hyperbolic_set(), 2.25, 2, 0.0, ["project"]),
            "ball-dim8-eps0.05": (sp.make_ball(np.zeros(8)), 3.0, 8, 0.05, ["project"]),
            "ball-dim8-eps0": (sp.make_ball(np.zeros(8)), 3.0, 8, 0.0, ["project"]),
            "slab-dim8": (sp.make_slab(c, lambda x: x[0], lambda x: np.array([1.0])),
                          -0.5, 8, None, ["eval_g", "grad_z_g"]),
            "hyperbolic-system": (sp.make_hyperbolic_system(), 2.25, 2, None,
                                  ["eval_g", "grad_z_g"]),
        }[case]
        rows = []

        def counting(fn):
            def wrapped(*args):
                rows.append(np.shape(args[-1])[0])
                return fn(*args)
            return wrapped

        counted = dataclasses.replace(
            target, **{name: counting(getattr(target, name)) for name in names})
        dirs = _dirs(m=m)
        ev = sp.evaluate(counted, [x], sp.build_model(np.zeros(m), np.eye(m)), dirs, eps=eps)
        if eps != 0.0:
            ev.gradient()
        assert sum(rows) / dirs.n <= bound


class TestProbValue:
    def test_halfspace_analytic(self):
        est = sp.evaluate(sp.make_halfspace([1.0, 0.0]), [1.0], _model2(), _dirs())
        tol = max(1e-3, 3 * (est.std_error or 0.0))
        assert abs(est.value - stats.norm.cdf(1.0)) <= tol

    def test_slab_analytic(self):
        tau = sp.slab_threshold(-1.0)
        est = sp.evaluate(_slab2(), [-1.0], _model2(), _dirs())
        assert abs(est.value - (2 * stats.norm.cdf(tau) - 1)) <= 1e-3

    def test_slab_analytic_higher_dims(self):
        # The slab statistic c.z is standard normal in any ambient dimension.
        tau = sp.slab_threshold(-1.0)
        truth_v = 2 * stats.norm.cdf(tau) - 1
        truth_g = 2 * stats.norm.pdf(tau) * (-np.exp(2) / tau)
        for m in (4, 8):
            c = np.zeros(m)
            c[0] = 1.0
            sys_ = sp.make_slab(c, lambda x: x[0], lambda x: np.array([1.0]))
            model = sp.build_model(np.zeros(m), np.eye(m))
            dirs = _dirs(m=m)
            ev = sp.evaluate(sys_, [-1.0], model, dirs)
            v, g = ev.value, ev.gradient().gradient[0]
            assert abs(v - truth_v) <= 1e-3
            assert abs(g - truth_g) <= 1e-3

    def test_value_equals_weighted_contributions(self):
        est = sp.evaluate(sp.make_hyperbolic_system(), [1.0], _model2(), _dirs(n=500))
        es = est.e
        assert est.value == pytest.approx(es.mean(), abs=1e-14)
        assert np.all((es >= 0) & (es <= 1))
        assert np.all(es[~est.hits.finite] == 1.0)

    def test_infinite_only_system(self):
        est = sp.evaluate(sp.make_constant(), [0.0], _model2(), _dirs(n=200))
        assert est.value == 1.0
        assert est.n_infinite == 200

    def test_std_error_mc_only(self):
        mc = sp.evaluate(sp.make_halfspace([1.0, 0.0]), [1.0], _model2(),
                         _dirs(n=2000, method=sp.SphereMethod.MONTE_CARLO))
        qmc = sp.evaluate(sp.make_halfspace([1.0, 0.0]), [1.0], _model2(),
                          _dirs(n=2000, method=sp.SphereMethod.QMC))
        assert mc.std_error is not None and mc.std_error > 0
        assert qmc.std_error is None

    def test_oracle_with_eps(self):
        # Enlarging a ball of radius x by eps gives the chi cdf at x + eps.
        law = RadialLaw(2)
        est = sp.evaluate(sp.make_ball(np.zeros(2)), [1.0], _model2(), _dirs(),
                          eps=0.5)
        assert est.value == pytest.approx(sp.chi_cdf(law, 1.5), abs=1e-9)

    def test_empty_budget_rejected(self):
        with pytest.raises(ValueError):
            sp.sample_sphere(2, 0)

    def test_eps_with_inequality_rejected(self):
        with pytest.raises(ValueError):
            sp.evaluate(sp.make_halfspace([1.0, 0.0]), [1.0], _model2(), _dirs(n=16),
                        eps=0.1)

    @pytest.mark.parametrize("target", [sp.make_halfspace([1.0, 0.0]),
                                        sp.make_ball(np.zeros(2))])
    def test_decision_length_checked(self, target):
        with pytest.raises(ValueError, match="decision has 2 entries"):
            sp.evaluate(target, [1.0, 2.0], _model2(), _dirs(n=16))


class TestProbGradient:
    def test_halfspace_analytic(self):
        est = sp.evaluate(sp.make_halfspace([1.0, 0.0]), [1.0], _model2(),
                          _dirs()).gradient()
        assert abs(est.gradient[0] - stats.norm.pdf(1.0)) <= 1e-3
        assert est.tie_fraction == 0.0

    def test_slab_chain_rule(self):
        tau = sp.slab_threshold(-1.0)
        true_grad = 2 * stats.norm.pdf(tau) * (-np.exp(2) / tau)
        est = sp.evaluate(_slab2(), [-1.0], _model2(), _dirs()).gradient()
        assert abs(est.gradient[0] - true_grad) <= 1e-3

    def test_crn_identity(self):
        dirs = _dirs(n=2000, seed=3)
        model = _model2()
        for sys_, x in ((sp.make_halfspace([1.0, 0.0]), [1.1]),
                        (_slab2(), [-0.9]),
                        (sp.make_hyperbolic_system(), [1.3])):
            assert window_tie_free(sys_, x, model, dirs, h0=5e-5)
            assert fd_rel_error(sys_, x, model, dirs, h0=5e-5) <= 1e-6

    def test_infinite_only_gradient_zero(self):
        est = sp.evaluate(sp.make_constant(), [0.0], _model2(), _dirs(n=200)).gradient()
        assert np.array_equal(est.gradient, np.zeros(1))

    def test_gradient_is_weighted_contribution_sum(self):
        dirs = _dirs(n=400)
        est = sp.evaluate(sp.make_hyperbolic_system(), [1.0], _model2(), dirs).gradient()
        assert np.allclose(est.gradient, dirs.weights @ est.w, atol=1e-15)

    def test_transversality_breakdown(self):
        # Cubic boundary with vanishing slope at its root.
        def eval_g(i, x, Z):
            return (Z[:, 0] - 1.0) ** 3

        sys_ = sp.InequalitySystem(
            s=1, x_dim=1, z_dim=2, eval_g=eval_g,
            grad_x_g=lambda i, x, Z: np.ones((Z.shape[0], 1)),
            grad_z_g=lambda i, x, Z: np.stack(
                [3.0 * (Z[:, 0] - 1.0) ** 2, np.zeros(Z.shape[0])], axis=1),
            name="degenerate")
        with pytest.raises(sp.TransversalityBreakdown):
            sp.evaluate(sys_, [0.0], _model2(), _dirs(n=64)).gradient()

    def test_nan_slope_breakdown(self):
        # A z normal that turns NaN at the boundary must not pass the slope
        # floor and leave NaN weights in the gradient.
        sys_ = dataclasses.replace(sp.make_halfspace([1.0, 0.0]),
                                   grad_z_g=lambda i, x, Z: np.full((Z.shape[0], 2), np.nan))
        with pytest.raises(sp.TransversalityBreakdown):
            sp.evaluate(sys_, [1.0], _model2(), _dirs(n=64)).gradient()

    def test_tie_policies_on_duplicated_constraint(self):
        # Two identical constraints tie on every finite direction; both
        # policies must reproduce the single-constraint gradient.
        base = sp.make_halfspace([1.0, 0.0])
        dup = sp.InequalitySystem(
            s=2, x_dim=1, z_dim=2,
            eval_g=lambda i, x, Z: base.eval_g(0, x, Z),
            grad_x_g=lambda i, x, Z: base.grad_x_g(0, x, Z),
            grad_z_g=lambda i, x, Z: base.grad_z_g(0, x, Z),
            name="dup")
        dirs = _dirs(n=4000)
        ev = sp.evaluate(dup, [1.0], _model2(), dirs)
        g_avg = ev.gradient(tie_policy="average")
        g_min = ev.gradient(tie_policy="min_index")
        assert g_avg.tie_fraction > 0.4
        assert np.allclose(g_avg.gradient, g_min.gradient, atol=1e-12)
        assert abs(g_avg.gradient[0] - stats.norm.pdf(1.0)) <= 1e-3

    def test_tie_policies_split_a_tied_energy_direction(self):
        # Period 0's wind (row 0) and load (row 4) constraints tie on the
        # appended direction: min_index keeps the wind term alone, average
        # takes the mean of the two terms -pdf(rho) n_i / <z_i, L v>.
        system, model, x, tie = energy_case("tied")
        V = np.vstack([_dirs(n=2000, m=8).directions, tie])
        dirs = sp.DirectionSet(V, np.full(len(V), 1 / len(V)), sp.DEFAULT_SEED,
                               sp.SphereMethod.QMC)
        ev = sp.evaluate(system, x, model, dirs)
        assert tuple(np.flatnonzero(ev.hits.act[:, -1])) == (0, 4)
        rho = ev.hits.rho[-1:]
        lv = tie[None, :] @ model.factor_L.T
        z = model.mean + rho[:, None] * lv
        pdf = sp.chi_pdf(RadialLaw(8), rho)[0]
        wind, load = (-pdf * system.grad_x_g(i, x, z)[0]
                      / (system.grad_z_g(i, x, z)[0] @ lv[0]) for i in (0, 4))
        assert np.array_equal(ev.gradient("min_index").w[-1], wind)
        np.testing.assert_allclose(ev.gradient("average").w[-1], (wind + load) / 2,
                                   rtol=0, atol=1e-15)

    def test_cap_hits_contribute_zero(self):
        params = sp.EnergyParams(periods=1)
        sys_ = sp.make_energy_system(params)
        model = sp.build_energy_covariance(params)
        dirs = _dirs(n=2000, m=2)
        x = np.array([0.0, 15.0])
        val = sp.evaluate(sys_, x, model, dirs)
        # Rows: wind, load, then the wind-speed cap.  The cap boundary is
        # x-independent, so a direction that only the cap stops adds nothing.
        act = val.hits.act
        cap_only = val.hits.finite & act[2] & ~act[:2].any(axis=0)
        assert cap_only.sum() > 0
        for policy in ("average", "min_index"):
            est = val.gradient(policy)
            assert np.all(est.w[cap_only] == 0)
            assert np.isfinite(est.gradient).all()
        assert val.value < 1.0


class TestEnlargedGradient:
    def test_ball_matches_density(self):
        # d/dx P[|z| <= x + eps] = chi pdf at x + eps.
        law = RadialLaw(2)
        dirs = _dirs(n=4000, method=sp.SphereMethod.MONTE_CARLO, seed=21)
        est = sp.evaluate(sp.make_ball(np.zeros(2)), [1.0], _model2(), dirs,
                          eps=0.25).gradient()
        expected = sp.chi_pdf(law, 1.25)
        se = est.w[:, 0].std(ddof=1) / np.sqrt(dirs.n)
        assert abs(est.gradient[0] - expected) <= max(3 * se, 1e-9)
        # Growth check in oracle mode: |sensitivity| / |u| = |d/dx dist| = 1.
        assert est.max_ratio == pytest.approx(1.0, abs=1e-12)
        assert est.n_points == dirs.n

    def test_ball_matches_fd(self):
        dirs = _dirs(n=4000, method=sp.SphereMethod.MONTE_CARLO, seed=21)
        oracle = sp.make_ball(np.zeros(2))
        est = sp.evaluate(oracle, [1.0], _model2(), dirs, eps=0.25).gradient()
        fd = fd_gradient(oracle, [1.0], _model2(), dirs, h0=1e-5, eps=0.25)
        assert abs(fd[0] - est.gradient[0]) <= 1e-5

    def test_hyperbolic_matches_exact_set_fd(self):
        # The enlarged gradient at small eps tracks the finite-difference
        # derivative of the exact-set estimator.
        dirs = _dirs(n=10000)
        model = _model2()
        grad_eps = sp.evaluate(sp.make_hyperbolic_set(), [1.0], model, dirs,
                               eps=0.01).gradient()
        fd_exact = fd_gradient(sp.make_hyperbolic_system(), [1.0], model, dirs,
                               h0=1e-5)
        rel = abs(grad_eps.gradient[0] - fd_exact[0]) / abs(fd_exact[0])
        assert rel <= 5e-2

    def test_missing_sensitivity(self):
        bare = sp.ConvexSetOracle(z_dim=2,
                                  contains=sp.make_ball(np.zeros(2)).contains,
                                  project=sp.make_ball(np.zeros(2)).project)
        with pytest.raises(sp.MissingSensitivity):
            sp.evaluate(bare, [1.0], _model2(), _dirs(n=16), eps=0.1).gradient()

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            sp.evaluate(sp.make_ball(np.zeros(2)), [1.0], _model2(), _dirs(n=16),
                        eps=0.0).gradient()


class TestEnlargedValueOracle:
    def test_hyperbolic_vs_rejection_sampling(self):
        # Independent oracle: the fraction of Gaussian draws within
        # distance eps of the body.
        eps = 0.01
        oracle = sp.make_hyperbolic_set()
        est = sp.evaluate(oracle, [1.0], _model2(), _dirs(), eps=eps)
        rng = np.random.Generator(np.random.Philox(key=424242))
        Z = rng.standard_normal((200000, 2))
        P = oracle.project([1.0], Z)
        near = np.linalg.norm(Z - P, axis=1) <= eps
        p_mc = near.mean()
        se = np.sqrt(p_mc * (1 - p_mc) / len(Z))
        assert abs(est.value - p_mc) <= 3 * se


class TestEnlargementLimit:
    def test_monotone_ladder_and_limit(self):
        dirs = _dirs(n=4000)
        model = _model2()
        for oracle, exact in (
                (sp.make_ball(np.zeros(2)),
                 sp.evaluate(sp.make_ball(np.zeros(2)), [1.0], model, dirs,
                             eps=0.0).value),
                (sp.make_hyperbolic_set(),
                 sp.evaluate(sp.make_hyperbolic_system(), [1.0], model, dirs).value)):
            vals = [sp.evaluate(oracle, [1.0], model, dirs, eps=e).value
                    for e in (0.5, 0.1, 0.01, 0.001)]
            assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(3))
            assert vals[-1] >= exact - 1e-9
            assert abs(vals[-1] - exact) <= 2e-3


class TestGrowthReport:
    def test_halfspace_ratio_one(self):
        rep = sp.evaluate(sp.make_halfspace([1.0, 0.0]), [1.0], _model2(),
                          _dirs(n=500)).gradient()
        assert rep.max_ratio == pytest.approx(1.0, abs=1e-12)

    def test_slab_ratio_closed_form(self):
        # At the boundary |c.z| = tau the ratio is (1 + tau^2) / tau.
        tau = sp.slab_threshold(-1.0)
        rep = sp.evaluate(_slab2(), [-1.0], _model2(), _dirs(n=2000)).gradient()
        assert rep.max_ratio == pytest.approx((1 + tau**2) / tau, rel=1e-6)

    def test_hyperbolic_bound(self):
        rep = sp.evaluate(sp.make_hyperbolic_system(), [1.0], _model2(),
                          _dirs(n=2000)).gradient()
        assert rep.max_ratio <= 1.0 / np.sqrt(1.0) + 1e-9
        assert rep.n_points > 0
