import dataclasses
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import sphrad as sp
from sphrad import radial

from _helpers import (energy_case, fd_gradient, fd_rel_error, reference_weights,
                      window_tie_free)


def _model2():
    return sp.build_model(np.zeros(2), np.eye(2))


def _dirs(n=10000, m=2, seed=sp.DEFAULT_SEED, method=sp.SphereMethod.QMC):
    return sp.sample_sphere(m, n, seed=seed, method=method)


def _slab2():
    return sp.make_slab([1.0, 0.0], lambda x: x[0], lambda x: np.array([1.0]))


def _cubic():
    """Cubic boundary z0 = 1, with vanishing ray slope at its root."""
    return sp.InequalitySystem(
        s=1, x_dim=1, z_dim=2, eval_g=lambda i, x, Z: (Z[:, 0] - 1.0) ** 3,
        grad_x_g=lambda i, x, Z: np.ones((Z.shape[0], 1)),
        grad_z_g=lambda i, x, Z: np.stack(
            [3.0 * (Z[:, 0] - 1.0) ** 2, np.zeros(Z.shape[0])], axis=1),
        name="degenerate")


class TestRayWork:
    def test_energy_evaluation_never_evaluates_g(self):
        # Every energy constraint is a declared halfspace, so value and
        # gradient never call eval_g: not along a ray, and not for the
        # interior check, which the declared rows' gaps make.
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
        assert rows == []

    def test_energy_levels_read_once_per_decision(self):
        # evaluate forms the declared gaps t(x) - W mean once; gradient reads
        # them from the hits instead of calling t(x) again.
        params = sp.EnergyParams()
        system = sp.make_energy_system(params)
        W, level = system.halfspaces
        calls = []
        counted = dataclasses.replace(
            system, halfspaces=(W, lambda x_: calls.append(x_) or level(x_)))
        x = np.r_[np.full(4, 1.5), np.full(4, 11.0)]
        ev = sp.evaluate(counted, x, sp.build_energy_covariance(params), _dirs(m=8))
        grad = ev.gradient()
        assert len(calls) == 1
        assert np.all(grad.gradient != 0)      # every declared row was read

    @pytest.mark.parametrize("case, bound", [
        ("hyperbolic-set-eps0.05", 7.5), ("hyperbolic-set-eps0", 8.5),
        ("ball-dim8-eps0.05", 7.5), ("ball-dim8-eps0", 7),
        ("slab-dim8", 14), ("hyperbolic-system", 14)])
    def test_callback_rows_per_ray(self, case, bound):
        # Rays on the doubling scan: callback rows per ray of one evaluate,
        # plus its gradient where eps > 0 or the target is a system.  In
        # oracle mode Newton starts from the scan's projection at the
        # bracket's outer end, so no radius is projected twice.
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

    def test_each_ray_point_is_evaluated_once(self):
        # Newton starts from the scan's (h, slope) at the bracket's outer end
        # instead of evaluating it again.  The slab has no domain caps, so
        # every search window ends at r_max; the hyperbolic system's windows
        # end at a cap on many rays, and the scan leaves such a row at its
        # window end while other rows keep doubling, without evaluating it
        # there again.
        c = np.zeros(8)
        c[0] = 1.0
        cases = {
            "slab-dim8": (sp.make_slab(c, lambda x: x[0], lambda x: np.array([1.0])), -0.5, 8),
            "hyperbolic-system": (sp.make_hyperbolic_system(), 2.25, 2),
        }
        for case, (system, x, m) in cases.items():
            points = []

            def eval_g(i, x, Z, _system=system):
                points.append(np.column_stack([np.full(Z.shape[0], i), Z]))
                return _system.eval_g(i, x, Z)

            counted = dataclasses.replace(system, eval_g=eval_g)
            sp.evaluate(counted, [x], sp.build_model(np.zeros(m), np.eye(m)),
                        _dirs(n=2000, m=m))
            Z = np.vstack(points)
            repeats = Z.shape[0] - np.unique(Z, axis=0).shape[0]
            assert repeats == 0, f"{case}: {repeats} of {Z.shape[0]} rows repeat"

    @pytest.mark.parametrize("case", ["energy-validate", "ball-dim8-eps0.05-200k",
                                      "energy-gradient-200k"])
    def test_peak_memory_of_large_batches(self, case):
        # A batch is solved in blocks, so 200k directions hold O(N) arrays plus
        # one block's temporaries; solved whole, these batches peak at about
        # 60 MB (energy validation) and 97 MB (ball).  The gradient is summed in
        # the same blocks (whole, it peaks at about 31 MB).  Directions and the
        # gradient's evaluation are built first.
        if case == "energy-validate":
            problem = sp.make_energy_problem()
            run = lambda: sp.validate(problem.start, problem)
        elif case == "energy-gradient-200k":
            system, model, x, _ = energy_case("interior")
            ev = sp.evaluate(system, x, model, sp.make_energy_problem().validate_dirs)
            run = ev.gradient
        else:
            dirs = _dirs(n=200000, m=8, method=sp.SphereMethod.MONTE_CARLO)
            model = sp.build_model(np.zeros(8), np.eye(8))
            run = lambda: sp.evaluate(sp.make_ball(np.zeros(8)), [3.0], model, dirs, eps=0.05)
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16e6, f"{peak / 1e6:.1f} MB"


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
        assert est.value == es.mean()
        assert np.all((es >= 0) & (es <= 1))
        assert np.all(es[~np.isfinite(est.hits.rho)] == 1.0)

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

    @pytest.mark.parametrize("system, x", [
        (sp.make_slab(np.eye(8)[0], lambda x: x[0], lambda x: np.array([1.0])), -0.5),
        (sp.make_halfspace(np.eye(8)[0]), 0.5)], ids=["slab", "halfspace"])
    def test_std_error_matches_spread_over_seeds(self, system, x):
        # The two directions of an antithetic pair are correlated (positively
        # on the symmetric slab, negatively on the halfspace), so the error
        # bar is read from the pair means.
        model = sp.build_model(np.zeros(8), np.eye(8))
        ests = [sp.evaluate(system, [x], model,
                            _dirs(n=1000, m=8, seed=seed, method=sp.SphereMethod.MONTE_CARLO))
                for seed in range(200)]
        ratio = np.std([e.value for e in ests], ddof=1) / np.mean([e.std_error for e in ests])
        assert 0.85 <= ratio <= 1.15

    def test_oracle_with_eps(self):
        # Enlarging a ball of radius x by eps gives the chi cdf at x + eps.
        est = sp.evaluate(sp.make_ball(np.zeros(2)), [1.0], _model2(), _dirs(),
                          eps=0.5)
        assert est.value == pytest.approx(sp.chi_cdf(2, 1.5), abs=1e-9)

    def test_empty_budget_rejected(self):
        with pytest.raises(ValueError):
            sp.sample_sphere(2, 0)

    def test_eps_with_inequality_rejected(self):
        with pytest.raises(ValueError):
            sp.evaluate(sp.make_halfspace([1.0, 0.0]), [1.0], _model2(), _dirs(n=16),
                        eps=0.1)

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -0.1])
    def test_non_finite_or_negative_eps_rejected(self, eps):
        # Before any ray solve: a NaN eps would surface as a NaN ray value.
        with pytest.raises(ValueError, match="eps must be finite and nonnegative"):
            sp.evaluate(sp.make_ball(np.zeros(2)), [1.0], _model2(), _dirs(n=16), eps=eps)

    @pytest.mark.parametrize("target", [sp.make_halfspace([1.0, 0.0]),
                                        sp.make_ball(np.zeros(2))])
    def test_decision_length_checked(self, target):
        with pytest.raises(ValueError, match="decision has 2 entries"):
            sp.evaluate(target, [1.0, 2.0], _model2(), _dirs(n=16))

    @pytest.mark.parametrize("target, callback, eps", [
        (sp.make_hyperbolic_system(), "eval_g", None),
        (sp.make_hyperbolic_set(), "project", 0.05)], ids=["system", "oracle"])
    def test_z_dim_checked_before_any_callback(self, target, callback, eps):
        # A body in R^2 under a model on R^3 is refused before the interior
        # check asks a callback about the mean.
        calls = []
        fn = getattr(target, callback)
        target = dataclasses.replace(target, **{callback: lambda *a: calls.append(a) or fn(*a)})
        model = sp.build_model(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="z_dim 2 != model dimension 3"):
            sp.evaluate(target, [1.0], model, _dirs(n=16, m=3), eps=eps)
        assert calls == []


# The value bits of three fixtures on 10,007 MC directions (standard models).
_VALUE_BITS = """
import numpy as np
import sphrad as sp
for system, x, m in [(sp.make_halfspace(np.eye(8)[0]), 0.5, 8),
                     (sp.make_slab(np.eye(8)[0], lambda x: x[0], lambda x: np.array([1.0])),
                      -0.5, 8),
                     (sp.make_hyperbolic_system(), 2.25, 2)]:
    dirs = sp.sample_sphere(m, 10007, seed=5, method=sp.SphereMethod.MONTE_CARLO)
    print(sp.evaluate(system, [x], sp.build_model(np.zeros(m), np.eye(m)), dirs).value.hex())
"""


def test_values_independent_of_blas_threads():
    # The value is a numpy mean of the per-direction contributions.  A BLAS
    # dot product with the direction weights rounds by the OpenBLAS thread
    # count at this length.
    src = str(Path(sp.__file__).resolve().parents[1])
    out = [subprocess.run([sys.executable, "-c", _VALUE_BITS], capture_output=True, text=True,
                          check=True, env={**os.environ, "PYTHONPATH": src,
                                           "OPENBLAS_NUM_THREADS": threads}).stdout
           for threads in ("1", "2")]
    assert len(out[0].split()) == 3
    assert out[0] == out[1]


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
        ev = sp.evaluate(sp.make_hyperbolic_system(), [1.0], _model2(), dirs)
        assert np.allclose(ev.gradient().gradient, reference_weights(ev).mean(axis=0),
                           atol=1e-15)

    def test_transversality_breakdown(self):
        with pytest.raises(sp.TransversalityBreakdown):
            sp.evaluate(_cubic(), [0.0], _model2(), _dirs(n=64)).gradient()

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
        # Period 0's wind (row 0) and load (row 4) constraints tie on the one
        # direction: min_index keeps the wind term alone, average takes the
        # mean of the two terms -pdf(rho) n_i / <z_i, L v>.
        system, model, x, tie = energy_case("tied")
        dirs = sp.DirectionSet(tie[None, :], sp.DEFAULT_SEED, sp.SphereMethod.QMC)
        ev = sp.evaluate(system, x, model, dirs)
        assert tuple(np.flatnonzero(ev.hits.act[:, -1])) == (0, 4)
        rho = ev.hits.rho[-1:]
        lv = tie[None, :] @ model.factor_L.T
        z = model.mean + rho[:, None] * lv
        pdf = sp.chi_pdf(8, rho)[0]
        wind, load = (-pdf * system.grad_x_g(i, x, z)[0]
                      / (system.grad_z_g(i, x, z)[0] @ lv[0]) for i in (0, 4))
        g_min = ev.gradient("min_index").gradient
        assert abs(g_min[0] / wind[0] - 1) <= 1e-14
        assert np.all(g_min[1:] == 0)
        np.testing.assert_allclose(ev.gradient("average").gradient, (wind + load) / 2,
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
        cap_only = np.isfinite(val.hits.rho) & act[2] & ~act[:2].any(axis=0)
        k = int(cap_only.sum())
        assert k > 0
        sub = sp.DirectionSet(dirs.directions[cap_only], dirs.seed, dirs.method)
        cap_val = sp.evaluate(sys_, x, model, sub)
        assert np.isfinite(cap_val.hits.rho).all()
        assert np.array_equal(cap_val.hits.act, np.tile([[False], [False], [True]], sub.n))
        for policy in ("average", "min_index"):
            assert np.all(cap_val.gradient(policy).gradient == 0)
            assert np.isfinite(val.gradient(policy).gradient).all()
        assert val.value < 1.0


class TestBlockedGradient:
    """The gradient sums its weights over the ray solve's blocks of
    ``BLOCK_ROWS`` directions; across a block boundary it still matches the
    reference weighted sum, and errors name the global direction."""

    @pytest.mark.parametrize("make, eps", [
        (lambda: energy_case("tied"), None),
        (lambda: (sp.make_hyperbolic_system(), _model2(), [2.25], None), None),
        (lambda: (sp.make_hyperbolic_set(), _model2(), [2.25], None), 0.0),
        (lambda: (sp.make_hyperbolic_set(), _model2(), [2.25], None), 0.05)],
        ids=["energy-tied", "hyperbolic-system", "hyperbolic-set-eps0", "hyperbolic-set-eps0.05"])
    def test_matches_reference_across_blocks(self, monkeypatch, make, eps):
        # Declared rows (energy), scanned rows and a set oracle, each on
        # BLOCK_ROWS + 5000 directions, so the gradient sums over two blocks.
        target, model, x, tie = make()
        V = sp.sample_sphere(model.dim, radial.BLOCK_ROWS + 5000, seed=5,
                             method=sp.SphereMethod.MONTE_CARLO).directions.copy()
        if tie is not None:
            V[radial.BLOCK_ROWS + 3] = tie           # a tied direction in the second block
        dirs = sp.DirectionSet(V, 5, sp.SphereMethod.MONTE_CARLO)
        ev = sp.evaluate(target, x, model, dirs, eps=eps)
        for policy in ("average", "min_index"):
            blocked = ev.gradient(policy)
            np.testing.assert_allclose(blocked.gradient,
                                       reference_weights(ev, policy).mean(axis=0),
                                       rtol=1e-14, atol=0)
            with monkeypatch.context() as m:
                m.setattr(radial, "BLOCK_ROWS", dirs.n)
                whole = ev.gradient(policy)
            assert blocked.tie_fraction == whole.tie_fraction == np.mean(ev.hits.act.sum(0) > 1)
            if tie is not None:
                assert blocked.tie_fraction > 0
            assert blocked.max_ratio == whole.max_ratio

    def test_breakdown_names_the_global_direction(self):
        # Only direction BLOCK_ROWS + 5 reaches the cubic boundary; every other
        # ray runs along z0 = 0 and is infinite.
        k = radial.BLOCK_ROWS + 5
        V = np.tile([0.0, 1.0], (k + 6, 1))
        V[k] = [1.0, 0.0]
        dirs = sp.DirectionSet(V, sp.DEFAULT_SEED, sp.SphereMethod.QMC)
        ev = sp.evaluate(_cubic(), [0.0], _model2(), dirs)
        assert np.flatnonzero(np.isfinite(ev.hits.rho)).tolist() == [k]
        with pytest.raises(sp.TransversalityBreakdown) as info:
            ev.gradient()
        assert info.value.direction_index == k


def _energy_at(T, decision):
    """Energy system of ``T`` periods, its model and an evaluation on 10k QMC
    directions at the start, at (pw, pg) = (0.35, 10) in every period, or at
    (1.5, 11) with a direction appended on which period 0's wind and load
    rows tie (``tied``)."""
    params = sp.EnergyParams(periods=T)
    system, model = sp.make_energy_system(params), sp.build_energy_covariance(params)
    dirs = _dirs(m=2 * T)
    x = {"start": sp.starting_point(params), "interior": np.repeat([0.35, 10.0], T),
         "tied": np.repeat([1.5, 11.0], T)}[decision]
    if decision == "tied":
        zstar = model.mean.copy()
        zstar[0], zstar[T] = np.cbrt(x[0] / params.wind_coeff), x[0] + x[T]
        d = np.linalg.solve(model.factor_L, zstar - model.mean)
        dirs = sp.DirectionSet(np.vstack([dirs.directions, d / np.linalg.norm(d)]),
                               dirs.seed, dirs.method)
    return sp.evaluate(system, x, model, dirs)


def _per_direction(ev, tie_policy):
    """Gradient, tie fraction and growth ratio of an inequality-system
    evaluation, read direction by direction from its hits and the callbacks:
    ``-pdf * lam * grad_x g / <grad_z g, L v>`` at each boundary point."""
    hits, system, model = ev.hits, ev.target, ev.model
    ratio = 0.0
    for i in range(system.s):
        rows = np.flatnonzero(hits.act[i])
        if rows.size:
            z = model.mean + hits.rho[rows, None] * (ev.dirs.directions[rows] @ model.factor_L.T)
            gx, gz = system.grad_x_g(i, ev.x, z), system.grad_z_g(i, ev.x, z)
            ratio = max(ratio, float(np.max(np.linalg.norm(gx, axis=1)
                                            / np.linalg.norm(gz, axis=1))))
    return (reference_weights(ev, tie_policy).mean(axis=0),
            np.mean(hits.act.sum(axis=0) > 1), ratio)


class TestDeclaredGradient:
    """A declared row ``w . z <= t(x)`` weighs its active directions by
    ``mass * lam * rho / gap`` and reads ``dt/dx`` once, at the mean's foot on
    its hyperplane; that equals the per-direction formula."""

    @staticmethod
    def _assert_matches(ev):
        for policy in ("average", "min_index"):
            est = ev.gradient(policy)
            ref, tie_fraction, ratio = _per_direction(ev, policy)
            assert np.linalg.norm(est.gradient - ref) <= 1e-14 * np.linalg.norm(ref)
            assert est.tie_fraction == tie_fraction
            assert abs(est.max_ratio - ratio) <= 1e-14 * ratio

    @pytest.mark.parametrize("T", [4, 24, 48])
    @pytest.mark.parametrize("decision", ["start", "interior", "tied"])
    def test_energy_matches_per_direction(self, T, decision):
        ev = _energy_at(T, decision)
        if decision == "tied":
            assert tuple(np.flatnonzero(ev.hits.act[:, -1])) == (0, T)
        self._assert_matches(ev)

    @pytest.mark.parametrize("m", [2, 8])
    def test_halfspace_matches_per_direction(self, m):
        model = sp.build_model(np.zeros(m), np.eye(m))
        self._assert_matches(sp.evaluate(sp.make_halfspace(np.eye(m)[0]), [0.7], model,
                                         _dirs(m=m)))

    def test_flat_row_breakdown_names_the_largest_radius(self):
        # g = (a . z - x)^3 declared as a . z <= x: its z normal vanishes on the
        # whole hyperplane.  Three directions reach it, the farthest
        # (rho = x / 0.6) just past a block boundary.
        a = np.array([1.0, 0.0])
        system = sp.InequalitySystem(
            s=1, x_dim=1, z_dim=2, eval_g=lambda i, x, Z: (Z @ a - x[0]) ** 3,
            grad_x_g=lambda i, x, Z: -3.0 * (Z @ a - x[0])[:, None] ** 2,
            grad_z_g=lambda i, x, Z: 3.0 * (Z @ a - x[0])[:, None] ** 2 * a,
            name="flat", halfspaces=(a[None, :], lambda x: np.asarray(x, dtype=float)[:1]))
        k = radial.BLOCK_ROWS + 5
        V = np.tile([0.0, 1.0], (k + 6, 1))
        V[3], V[k], V[k + 2] = [1.0, 0.0], [0.6, 0.8], [0.8, 0.6]
        ev = sp.evaluate(system, [1.0], _model2(),
                         sp.DirectionSet(V, sp.DEFAULT_SEED, sp.SphereMethod.QMC))
        assert np.flatnonzero(np.isfinite(ev.hits.rho)).tolist() == [3, k, k + 2]
        with pytest.raises(sp.TransversalityBreakdown) as info:
            ev.gradient()
        assert info.value.direction_index == k

    def test_energy_start_is_zero(self):
        # At pw = 0 each wind row coincides with its cap, which keeps the hits,
        # so the wind rows' zero foot scale is never read.
        ev = _energy_at(4, "start")
        assert np.isfinite(ev.hits.rho).any() and not ev.hits.act[:8].any()
        est = ev.gradient()
        assert np.array_equal(est.gradient, np.zeros(8))
        assert est.max_ratio == 0.0


def _moving_normal(declare=False):
    """g = x z1 + z2 - 1: its normal w = (x, 1) moves with x."""
    return sp.InequalitySystem(
        s=1, x_dim=1, z_dim=2, eval_g=lambda i, x, Z: x[0] * Z[:, 0] + Z[:, 1] - 1.0,
        grad_x_g=lambda i, x, Z: Z[:, :1].copy(),
        grad_z_g=lambda i, x, Z: np.tile([x[0], 1.0], (Z.shape[0], 1)),
        name="moving", halfspaces=(lambda x: np.array([[x[0], 1.0]]),
                                   lambda x: np.ones(1)) if declare else None)


class TestMovingNormals:
    """A declared row's gradient reads dt/dx alone, which holds only for a
    constant W; a system whose normal moves with x is refused as a
    declaration and served by the scan."""

    def test_callable_w_refused(self):
        with pytest.raises(ValueError, match=r"moving: halfspaces must be \(W, t\)"):
            _moving_normal(declare=True)

    @pytest.mark.parametrize("cov", [np.eye(2), np.array([[1.0, 0.7], [0.7, 2.0]])],
                             ids=["identity", "correlated"])
    @pytest.mark.parametrize("x", [0.5, 2.0])
    def test_scanned_gradient(self, cov, x):
        # P[w . xi <= 1] = Phi(a), a = 1 / sqrt(w' C w), so dphi/dx = pdf(a) da/dx
        # with da/dx = -(C w)_0 / (w' C w)^1.5.
        model, dirs, w = sp.build_model(np.zeros(2), cov), _dirs(), np.array([x, 1.0])
        q = w @ cov @ w
        exact = stats.norm.pdf(1.0 / np.sqrt(q)) * -(cov @ w)[0] / q ** 1.5
        grad = sp.evaluate(_moving_normal(), [x], model, dirs).gradient().gradient[0]
        assert abs(grad - exact) <= 0.01 * abs(exact)
        assert abs(grad - fd_gradient(_moving_normal(), [x], model, dirs)[0]) <= 1e-7


class TestEnlargedGradient:
    def test_ball_matches_density(self):
        # d/dx P[|z| <= x + eps] = chi pdf at x + eps.
        dirs = _dirs(n=4000, method=sp.SphereMethod.MONTE_CARLO, seed=21)
        ev = sp.evaluate(sp.make_ball(np.zeros(2)), [1.0], _model2(), dirs, eps=0.25)
        est = ev.gradient()
        expected = sp.chi_pdf(2, 1.25)
        se = reference_weights(ev)[:, 0].std(ddof=1) / np.sqrt(dirs.n)
        assert abs(est.gradient[0] - expected) <= max(3 * se, 1e-9)
        # Growth check in oracle mode: |sensitivity| at a unit normal = |d/dx dist| = 1.
        assert est.max_ratio == pytest.approx(1.0, abs=1e-12)
        assert dirs.n - ev.n_infinite == dirs.n

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
        bare = sp.ConvexSetOracle(z_dim=2, project=sp.make_ball(np.zeros(2)).project)
        with pytest.raises(sp.MissingSensitivity):
            sp.evaluate(bare, [1.0], _model2(), _dirs(n=16), eps=0.1).gradient()


class TestOracleContract:
    """A set oracle is its projection: the mean is inside S(x) exactly when
    ``project`` returns it unchanged, bit for bit."""

    @staticmethod
    def _counted(oracle, calls):
        def project(x, Z):
            calls.append(Z.shape[0])
            return oracle.project(x, Z)
        return dataclasses.replace(oracle, project=project)

    def test_projection_alone_evaluates_and_differentiates(self):
        # A ball of radius x around the mean, enlarged by eps: every ray exits
        # at x + eps, so the value is the chi cdf there and the x-derivative
        # the chi density.
        ball = sp.make_ball(np.zeros(2))
        oracle = sp.ConvexSetOracle(z_dim=2, project=ball.project,
                                    sensitivity=ball.sensitivity)
        ev = sp.evaluate(oracle, [1.5], _model2(), _dirs(), eps=0.05)
        assert ev.value == pytest.approx(stats.chi.cdf(1.55, 2), rel=1e-12)
        assert ev.gradient().gradient[0] == pytest.approx(stats.chi.pdf(1.55, 2), rel=1e-9)

    def test_mean_on_boundary_accepted(self):
        # The unit ball around (1, 0) has the mean 0 on its boundary, which the
        # projection returns unchanged; eps > 0 puts it inside the enlarged body.
        calls = []
        oracle = self._counted(sp.make_ball(np.array([1.0, 0.0])), calls)
        ev = sp.evaluate(oracle, [1.0], _model2(), _dirs(), eps=0.05)
        assert calls[0] == 1
        assert ev.value == pytest.approx(stats.ncx2.cdf(1.05 ** 2, 2, 1.0), abs=1e-3)

    def test_outside_mean_refused_after_one_projection(self):
        calls = []
        oracle = self._counted(sp.make_ball(np.array([3.0, 0.0])), calls)
        with pytest.raises(sp.InteriorViolated, match="mean is not contained"):
            sp.evaluate(oracle, [1.0], _model2(), _dirs(), eps=0.05)
        assert calls == [1]

    def test_inside_mean_moved_by_one_ulp_refused(self):
        ball = sp.make_ball(np.zeros(2))
        oracle = dataclasses.replace(
            ball, project=lambda x, Z: np.nextafter(ball.project(x, Z), np.inf))
        assert np.array_equal(ball.project([1.0], np.zeros((1, 2))), np.zeros((1, 2)))
        with pytest.raises(sp.InteriorViolated, match="mean is not contained"):
            sp.evaluate(oracle, [1.0], _model2(), _dirs(n=16), eps=0.05)

    def test_hyperbolic_set_x_range(self):
        # The interior check is the projection's own, so an x outside (0, 4)
        # is reported by the projection's x-range guard.
        with pytest.raises(sp.InteriorViolated, match=r"requires x in \(0, 4\), got 5.0"):
            sp.evaluate(sp.make_hyperbolic_set(), [5.0], _model2(), _dirs(n=16), eps=0.1)


def _energy_box(params):
    """The energy event as a set oracle, the box z_w >= max(0, cbrt(pw / c)),
    z_l <= pw + pg, sharing no callback with ``make_energy_system``."""
    T, c = params.periods, params.wind_coeff

    def bounds(x):
        pw, pg = np.split(np.asarray(x, dtype=float).reshape(-1), 2)
        return (np.r_[np.maximum(0.0, np.cbrt(pw / c)), np.full(T, -np.inf)],
                np.r_[np.full(T, np.inf), pw + pg])

    def sensitivity(x, P, n):
        # Minus the x-gradient of the support function: a wind face moves out
        # along -e_t at d lo_t / d pw_t, a load face along e_{T+t} at -1.
        pw = np.asarray(x, dtype=float)[:T]
        wind, load = -np.minimum(n[:, :T], 0.0), np.maximum(n[:, T:], 0.0)
        return np.hstack([wind / (3 * np.cbrt(c) * np.cbrt(pw) ** 2) - load, -load])

    return sp.ConvexSetOracle(z_dim=2 * T, project=lambda x, Z: np.clip(Z, *bounds(x)),
                              sensitivity=sensitivity, x_dim=2 * T, name="energy_box")


class TestOracleGradientAtZero:
    """At eps = 0 the oracle gradient reads its normals just outside the body."""

    @pytest.mark.parametrize("x", [0.75, 2.25, 3.25])
    def test_hyperbolic_set_matches_system(self, x):
        dirs, model = _dirs(), _model2()
        ev = sp.evaluate(sp.make_hyperbolic_set(), [x], model, dirs, eps=0.0)
        g = ev.gradient()
        ref = sp.evaluate(sp.make_hyperbolic_system(), [x], model, dirs).gradient()
        assert abs(g.gradient[0] / ref.gradient[0] - 1) <= 1e-7
        assert g.max_ratio == pytest.approx(ref.max_ratio, rel=1e-6)
        fd = fd_gradient(sp.make_hyperbolic_set(), [x], model, dirs, h0=5e-5, eps=0.0)
        assert abs(fd[0] / g.gradient[0] - 1) <= 1e-6
        np.testing.assert_allclose(g.gradient, reference_weights(ev).mean(axis=0),
                                   rtol=1e-14, atol=0)

    @pytest.mark.parametrize("m", [2, 8])
    def test_ball_at_mean_gives_chi_pdf(self, m):
        model = sp.build_model(np.zeros(m), np.eye(m))
        est = sp.evaluate(sp.make_ball(np.zeros(m)), [1.5], model, _dirs(n=2000, m=m),
                          eps=0.0).gradient()
        assert abs(est.gradient[0] - sp.chi_pdf(m, 1.5)) <= 1e-12
        assert est.max_ratio == pytest.approx(1.0, abs=1e-12)

    def test_energy_box_matches_system(self):
        system, model, x, _ = energy_case("interior")
        box, dirs = _energy_box(sp.EnergyParams()), _dirs(m=8)
        ev = sp.evaluate(box, x, model, dirs, eps=0.0)
        ref = sp.evaluate(system, x, model, dirs)
        assert abs(ev.value - ref.value) <= 1e-12
        g, g_ref = ev.gradient().gradient, ref.gradient().gradient
        assert np.linalg.norm(g - g_ref) <= 1e-12 * np.linalg.norm(g_ref)

    @pytest.mark.parametrize("eps", [0.0, 0.05])
    def test_one_projection_per_finite_direction(self, eps):
        oracle, rows = sp.make_hyperbolic_set(), []

        def project(x, Z):
            rows.append(Z.shape[0])
            return oracle.project(x, Z)

        counted = dataclasses.replace(oracle, project=project)
        ev = sp.evaluate(counted, [2.25], _model2(), _dirs(n=2000), eps=eps)
        rows.clear()
        ev.gradient()
        assert sum(rows) == ev.dirs.n - ev.n_infinite


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
        dirs = _dirs(n=2000)
        ev = sp.evaluate(sp.make_hyperbolic_system(), [1.0], _model2(), dirs)
        assert ev.gradient().max_ratio <= 1.0 / np.sqrt(1.0) + 1e-9
        assert dirs.n - ev.n_infinite > 0
