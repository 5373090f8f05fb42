import dataclasses

import numpy as np
import pytest
from scipy import optimize, stats

import sphrad as sp
from sphrad.solver import INFEAS_TOL, PROB_BAND, _lp_box_cut


def _model2():
    return sp.build_model(np.zeros(2), np.eye(2))


def _dirs(seed, n=4000, m=2, method=sp.SphereMethod.QMC):
    return sp.sample_sphere(m, n, seed=seed, method=method)


def _halfspace_problem(p_level=0.8, upper=4.0, cost=1.0, start=None):
    return sp.ChanceProblem(
        cost=[cost], lower=[-4.0], upper=[upper], p_level=p_level,
        system=sp.make_halfspace([1.0, 0.0]), model=_model2(),
        eval_dirs=_dirs(seed=12), validate_dirs=_dirs(seed=99, n=20000,
                                                      method=sp.SphereMethod.MONTE_CARLO),
        start=start)


class TestLPBoxCut:
    def test_against_linprog_oracle(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = rng.integers(1, 8)
            cost = rng.normal(size=n)
            lower = rng.uniform(-2, 0, n)
            upper = lower + rng.uniform(0.1, 3, n)
            a = rng.normal(size=n)
            mid = 0.5 * (lower + upper)
            b = a @ mid + rng.uniform(-1, 1)
            x, ok, _ = _lp_box_cut(cost, lower, upper, a, b)
            ref = optimize.linprog(cost, A_ub=-a[None, :], b_ub=[-b],
                                   bounds=list(zip(lower, upper)), method="highs")
            if ref.status == 2:
                assert not ok
                continue
            assert ok
            assert a @ x >= b - 1e-9
            assert np.all((x >= lower - 1e-12) & (x <= upper + 1e-12))
            assert cost @ x == pytest.approx(ref.fun, abs=1e-9)

    def test_slack_cut_reports_flag(self):
        x, ok, slack = _lp_box_cut(np.array([1.0]), np.array([0.0]),
                                   np.array([2.0]), np.array([1.0]), -5.0)
        assert ok and slack and x[0] == 0.0


# phat is 0.52 at 0.05, so that start climbs to the level first.
_starts = pytest.mark.parametrize("start", [[3.0], [0.05]], ids=["feasible", "infeasible"])


class TestHalfspaceSolve:
    @_starts
    def test_quantile_solution(self, start):
        problem = _halfspace_problem(start=start)
        x, trace = sp.solve(problem)
        assert trace.status in ("converged", "box_optimum")
        assert abs(x[0] - stats.norm.ppf(0.8)) <= 2e-3
        val = sp.validate(x, problem)
        assert abs(val.value - 0.8) <= 3 * val.std_error + 5e-3

    @_starts
    def test_monotone_feasibility(self, start):
        problem = _halfspace_problem(start=start)
        _, trace = sp.solve(problem)
        for rec in trace.records:
            if rec.accepted:
                assert rec.phat >= problem.p_level - INFEAS_TOL

    def test_determinism(self):
        problem = _halfspace_problem(start=[3.0])
        x1, t1 = sp.solve(problem)
        x2, t2 = sp.solve(problem)
        assert np.array_equal(x1, x2)
        assert len(t1.records) == len(t2.records)
        for a, b in zip(t1.records, t2.records):
            assert np.array_equal(a.x, b.x)
            assert a.phat == b.phat and a.delta == b.delta and a.accepted == b.accepted

    def test_box_only_solution(self):
        # Maximizing the level keeps the chance constraint slack; the bound
        # vertex is returned directly.
        problem = _halfspace_problem(p_level=0.8, upper=3.0, cost=-1.0, start=[0.9])
        x, trace = sp.solve(problem)
        assert trace.status == "box_optimum"
        assert x[0] == pytest.approx(3.0, abs=1e-12)

    def test_no_feasible_start(self):
        problem = _halfspace_problem(p_level=0.999, upper=2.0, start=[1.0])
        with pytest.raises(sp.NoFeasibleStart):
            sp.solve(problem)


class TestSlabSolve:
    def test_matches_scalar_root(self):
        # max x with P[|z1| <= sqrt(exp(-2x)-1)] >= 1/2; the optimum solves
        # 2 Phi(sqrt(exp(-2x)-1)) - 1 = 1/2.
        system = sp.make_slab([1.0, 0.0], lambda x: x[0], lambda x: np.array([1.0]))
        problem = sp.ChanceProblem(
            cost=[-1.0], lower=[-2.0], upper=[-0.05], p_level=0.5,
            system=system, model=_model2(), eval_dirs=_dirs(seed=12),
            validate_dirs=_dirs(seed=99, n=20000, method=sp.SphereMethod.MONTE_CARLO),
            start=[-1.5])
        x, trace = sp.solve(problem)
        x_star = optimize.brentq(
            lambda t: 2 * stats.norm.cdf(np.sqrt(np.expm1(-2 * t))) - 1 - 0.5,
            -1.0, -0.05)
        assert trace.status == "converged"
        assert abs(x[0] - x_star) <= 2e-3


class TestValidateConsistency:
    def test_low_probability_point(self):
        # Evaluation and validation sets agree where the estimate is near 0;
        # the slab probability vanishes as its level approaches zero while
        # the mean stays interior.
        system = sp.make_slab([1.0, 0.0], lambda x: x[0], lambda x: np.array([1.0]))
        problem = sp.ChanceProblem(
            cost=[1.0], lower=[-1.0], upper=[-1e-4], p_level=0.5,
            system=system, model=_model2(), eval_dirs=_dirs(seed=12),
            validate_dirs=_dirs(seed=99, n=20000, method=sp.SphereMethod.MONTE_CARLO))
        x = np.array([-5e-4])
        tau = sp.slab_threshold(x[0])
        truth = 2 * stats.norm.cdf(tau) - 1
        assert truth < 0.03
        eval_est = sp.evaluate(problem.system, x, problem.model, problem.eval_dirs)
        val_est = sp.validate(x, problem)
        assert abs(eval_est.value - truth) <= 1e-3
        assert abs(val_est.value - truth) <= 3 * val_est.std_error + 1e-4


class TestProblemValidation:
    def test_seed_collision_rejected(self):
        with pytest.raises(ValueError):
            sp.ChanceProblem(cost=[1.0], lower=[0.0], upper=[1.0], p_level=0.5,
                             system=sp.make_halfspace([1.0, 0.0]), model=_model2(),
                             eval_dirs=_dirs(seed=12),
                             validate_dirs=_dirs(seed=12))

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            sp.ChanceProblem(cost=[1.0], lower=[2.0], upper=[1.0], p_level=0.5,
                             system=sp.make_halfspace([1.0, 0.0]), model=_model2(),
                             eval_dirs=_dirs(seed=12), validate_dirs=_dirs(seed=13))

    def test_bad_level_rejected(self):
        with pytest.raises(ValueError):
            sp.ChanceProblem(cost=[1.0], lower=[0.0], upper=[1.0], p_level=1.5,
                             system=sp.make_halfspace([1.0, 0.0]), model=_model2(),
                             eval_dirs=_dirs(seed=12), validate_dirs=_dirs(seed=13))


class TestEnergyProblemSmall:
    def test_reduced_solve_reaches_band(self):
        # Two-period instance at a modest direction budget.
        params = sp.EnergyParams(periods=2)
        problem = sp.make_energy_problem(params, n_dirs=2000, validate_n=50000)
        x, trace = sp.solve(problem)
        assert trace.status == "converged"
        assert abs(trace.records[-1].phat - 0.8) <= 5e-3
        val = sp.validate(x, problem)
        assert abs(val.value - 0.8) <= 3 * val.std_error + 5e-3
        # wind commitment stays below the mean power bound
        assert np.all(x[:2] < params.wind_coeff * params.mu_wind**3)


    def test_infeasible_interior_start_climbs(self):
        # Both dispatch decisions inside their bounds, below the level.
        problem = dataclasses.replace(
            sp.make_energy_problem(sp.EnergyParams(periods=2), n_dirs=2000,
                                   validate_n=20000),
            start=[1.0, 1.0, 9.5, 9.5])
        x, trace = sp.solve(problem)
        assert trace.records[0].phat < 0.8 - INFEAS_TOL
        assert trace.status == "converged"
        assert abs(trace.records[-1].phat - 0.8) <= PROB_BAND


def _recording_hits(monkeypatch, problem):
    """Record the decision of every ray batch on the evaluation set."""
    import sphrad.estimates as estimates
    from sphrad.radial import inequality_hits

    solved = []

    def recording(system, x, dirs, model):
        if dirs is problem.eval_dirs.directions:
            solved.append(np.asarray(x, dtype=float).tobytes())
        return inequality_hits(system, x, dirs, model)

    monkeypatch.setattr(estimates, "inequality_hits", recording)
    return solved


class TestDefaultEnergySolve:
    def test_work_and_cost(self, monkeypatch):
        # The case study at its defaults: 86 ray batches, cost 223.7372.
        problem = sp.make_energy_problem(validate_n=1000)
        solved = _recording_hits(monkeypatch, problem)
        x, trace = sp.solve(problem)
        assert trace.status == "converged"
        assert len(solved) <= 86
        assert abs(float(problem.cost @ x) - 223.7372) <= 0.01


class TestOneSolvePerDecision:
    def test_no_decision_solved_twice(self, monkeypatch):
        # The reduced instance of the CLI determinism criterion: every
        # decision's rays on the evaluation set are solved once, and the
        # gradient reads the same hits as the value.
        problem = sp.make_energy_problem(sp.EnergyParams(periods=2), n_dirs=800,
                                         validate_n=20000)
        solved = _recording_hits(monkeypatch, problem)
        _, trace = sp.solve(problem)
        assert trace.status == "converged"
        assert len(solved) >= len(trace.records)
        assert len(set(solved)) == len(solved)
