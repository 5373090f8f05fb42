import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats
from scipy.stats import qmc

import sphrad as sp
from sphrad import gaussian
from sphrad.gaussian import TAIL_MASS

# Every dimension with the short draws, and a few large ones, so the
# comparison with scipy stays under 2 s.
SOBOL_CASES = ([(d, n) for d in (1, 2, 3, 8, 24, 96) for n in (1, 2, 3, 7)]
               + [(1, 100000), (2, 5000), (3, 4096), (8, 4096), (8, 100000),
                  (24, 5000), (96, 4096), (1111, 1), (1111, 7)])
SOBOL_SEEDS = (0, 12, 77, 123457, 5000018)

# Every dimension the tail sum serves, and two served by gammainc.
CDF_DIMS = [*range(1, gaussian._SUM_MAX_DIM + 1), gaussian._SUM_MAX_DIM + 1,
            2 * gaussian._SUM_MAX_DIM]


class TestBuildModel:
    def test_identity(self):
        model = sp.build_model(np.zeros(2), np.eye(2))
        assert np.array_equal(model.factor_L, np.eye(2))
        assert model.dim == 2

    def test_diagonal_square_root(self):
        model = sp.build_model([0.0, 0.0], [[4.0, 0.0], [0.0, 1.0]])
        assert np.allclose(model.factor_L, np.diag([2.0, 1.0]))

    def test_reconstruction_tolerance(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((5, 5))
        cov = A @ A.T + 5 * np.eye(5)
        model = sp.build_model(np.zeros(5), cov)
        scale = 1.0 + np.abs(cov).max()
        assert np.abs(model.factor_L @ model.factor_L.T - cov).max() <= 1e-10 * scale

    def test_indefinite_rejected(self):
        # Perturb a near-singular correlation into indefiniteness; the
        # eigenvalue oracle confirms the matrix really is indefinite.
        cov = np.array([[1.0, 0.99999], [0.99999, 1.0]])
        cov[0, 0] -= 2e-5
        assert np.linalg.eigvalsh(cov).min() < 0
        with pytest.raises(sp.NotPositiveDefinite):
            sp.build_model(np.zeros(2), cov)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            sp.build_model(np.zeros(2), [[1.0, 0.2], [0.1, 1.0]])

    @pytest.mark.parametrize("mean, cov", [
        (np.zeros(2), [[np.nan, 0.0], [0.0, 1.0]]),
        (np.zeros(2), [[np.inf, 0.0], [0.0, 1.0]]),
        ([0.0, np.nan], np.eye(2))], ids=["nan-cov", "inf-cov", "nan-mean"])
    def test_non_finite_rejected(self, mean, cov):
        # Every comparison with NaN is False, so only an explicit check
        # keeps a NaN entry out of the factor.
        with pytest.raises(ValueError, match="finite"):
            sp.build_model(mean, cov)


class TestChiLaw:
    def test_cdf_m2_closed_form(self):
        assert sp.chi_cdf(2, 1.0) == pytest.approx(1 - np.exp(-0.5), abs=1e-12)

    def test_cdf_at_zero(self):
        for m in (1, 2, 5, 16):
            assert sp.chi_cdf(m, 0.0) == 0.0

    def test_cdf_m1_matches_normal(self):
        # For one degree of freedom the cdf folds two normal tails.
        r = stats.norm.ppf(0.975)
        assert sp.chi_cdf(1, r) == pytest.approx(0.95, abs=1e-9)
        assert sp.chi_cdf(1, 1.959964) == pytest.approx(0.95, abs=1e-6)

    def test_pdf_values(self):
        assert sp.chi_pdf(1, 0.0) == pytest.approx(np.sqrt(2 / np.pi), abs=1e-13)
        assert sp.chi_pdf(3, 0.0) == 0.0
        assert sp.chi_pdf(2, 1.0) == pytest.approx(np.exp(-0.5), abs=1e-13)

    def test_negative_r_rejected(self):
        # A NaN radius would otherwise read as "never exits" (cdf 1, pdf 0).
        for m, r in ((2, -0.1), (8, np.nan), (300, [np.nan, 1.0])):
            with pytest.raises(ValueError):
                sp.chi_cdf(m, r)
            with pytest.raises(ValueError):
                sp.chi_pdf(m, r)

    def test_quantile_roundtrip(self):
        for m in (1, 2, 8):
            for q in (0.1, 0.5, 0.95):
                r = np.sqrt(2.0 * special.gammaincinv(m / 2.0, q))
                assert sp.chi_cdf(m, r) == pytest.approx(q, abs=1e-12)

    def test_normalization_by_quadrature(self):
        for m in range(1, 17):
            total, _ = integrate.quad(lambda r: sp.chi_pdf(m, r), 0.0, sp.chi_cutoff(m),
                                      limit=200)
            assert abs(total - 1.0) <= 1e-9

    def test_cdf_pdf_consistency(self):
        h = 1e-4
        for m in (1, 2, 5, 9):
            for r in (0.5, 1.0, 2.0, 5.0):
                fd = (sp.chi_cdf(m, r + h) - sp.chi_cdf(m, r - h)) / (2 * h)
                assert fd == pytest.approx(sp.chi_pdf(m, r), rel=1e-6)

    def test_cutoff_retains_mass(self):
        for m in CDF_DIMS:
            assert sp.chi_cdf(m, sp.chi_cutoff(m)) >= 1.0 - TAIL_MASS

    @pytest.mark.parametrize("fn", [sp.chi_cutoff, lambda m: sp.chi_cdf(m, 1.0),
                                    lambda m: sp.chi_pdf(m, 1.0)], ids=["cutoff", "cdf", "pdf"])
    def test_dimension_below_one_rejected(self, fn):
        with pytest.raises(ValueError, match="m must be >= 1"):
            fn(0)

    @pytest.mark.parametrize("m", CDF_DIMS)
    def test_cdf_matches_gammainc(self, m):
        # Radii beyond the sum's cap of 37 included: the cdf is 1 there.
        r = np.r_[np.linspace(0.0, 1.2 * sp.chi_cutoff(m), 2001), 36.9, 37.0, 37.1, 1e3]
        ref = special.gammainc(m / 2.0, r * r / 2.0)
        got = sp.chi_cdf(m, np.r_[r, np.inf])
        assert got[-1] == 1.0
        err = np.abs(got[:-1] - ref)
        assert err.max() <= 1e-14
        # Relative error where the cdf is below 1/2 and a normal double:
        # gammainc returns 0 for a subnormal cdf.
        lower = (ref < 0.5) & (ref >= np.finfo(float).tiny)
        assert np.all(err[lower] <= 1e-12 * ref[lower])

    def test_cdf_keeps_shape_and_scalars(self):
        r = np.array([[0.0, 1.0], [2.5, np.inf]])
        out = sp.chi_cdf(8, r)
        assert out.shape == (2, 2)
        assert isinstance(sp.chi_cdf(8, 2.5), float)
        assert sp.chi_cdf(8, 2.5) == out[1, 0]

    def test_cutoff_nudge_is_bounded(self, monkeypatch):
        # One ulp of r near r_max moves the cdf by about 1e-26, so a cdf that
        # misses the bound there must raise rather than step ulp by ulp.
        monkeypatch.setattr(gaussian, "_chi_cdf", lambda m, r: np.zeros_like(r))
        with pytest.raises(sp.NumericalError, match="stays below"):
            gaussian.chi_cutoff.__wrapped__(3)


class TestSampleSphere:
    def test_antithetic_pairs(self):
        d = sp.sample_sphere(2, 4, seed=1, method=sp.SphereMethod.QMC)
        assert np.array_equal(d.directions[0], -d.directions[1])
        assert np.array_equal(d.directions[2], -d.directions[3])

    def test_determinism_bytes(self):
        for method in sp.SphereMethod:
            a = sp.sample_sphere(3, 100, seed=9, method=method)
            b = sp.sample_sphere(3, 100, seed=9, method=method)
            assert a.directions.tobytes() == b.directions.tobytes()

    def test_seed_changes_directions(self):
        a = sp.sample_sphere(3, 100, seed=1)
        b = sp.sample_sphere(3, 100, seed=2)
        assert not np.array_equal(a.directions, b.directions)

    def test_mean_concentration(self):
        d = sp.sample_sphere(3, 10**4, seed=5, method=sp.SphereMethod.MONTE_CARLO)
        assert np.linalg.norm(d.directions.mean(axis=0)) <= 0.05

    def test_hemisphere_average_unbiased(self):
        # E[max(<u, v>, 0)] = 1/4 in three dimensions.
        d = sp.sample_sphere(3, 10**5, seed=11, method=sp.SphereMethod.MONTE_CARLO)
        vals = np.maximum(d.directions @ np.array([1.0, 0.0, 0.0]), 0.0)
        se = vals.std(ddof=1) / np.sqrt(d.n)
        assert abs(vals.mean() - 0.25) <= 3 * se

    def test_degenerate_counts_rejected(self):
        with pytest.raises(ValueError):
            sp.sample_sphere(2, 0, seed=1)
        with pytest.raises(ValueError):
            sp.sample_sphere(0, 4, seed=1)

    @settings(max_examples=25, deadline=None)
    @given(m=st.integers(1, 8), n=st.integers(1, 64),
           seed=st.integers(0, 2**31 - 1),
           method=st.sampled_from(list(sp.SphereMethod)))
    def test_invariants_hold(self, m, n, seed, method):
        d = sp.sample_sphere(m, n, seed=seed, method=method)
        assert d.directions.shape == (n, m)
        assert np.abs(np.linalg.norm(d.directions, axis=1) - 1.0).max() <= 1e-12
        if n % 2 == 0:
            assert np.array_equal(d.directions[0::2], -d.directions[1::2])


class TestScrambledSobol:
    @staticmethod
    def _scipy(d, n, seed):
        with warnings.catch_warnings():     # the balance warning at n not a power of 2
            warnings.simplefilter("ignore")
            return qmc.Sobol(d=d, scramble=True, seed=seed).random(n)

    @pytest.mark.parametrize("d,n", SOBOL_CASES)
    def test_matches_scipy_bit_for_bit(self, d, n):
        for seed in SOBOL_SEEDS:
            assert np.array_equal(gaussian._sobol(d, n, seed), self._scipy(d, n, seed))

    def test_direction_numbers_match_scipy_every_dimension(self):
        v = gaussian._sobol_directions(gaussian._SOBOL_MAX_DIM)
        assert not v.flags.writeable
        assert np.array_equal(v, qmc.Sobol(d=gaussian._SOBOL_MAX_DIM, scramble=False)._sv)

    def test_limits_raise_as_scipy_does(self):
        with pytest.raises(ValueError):
            qmc.Sobol(d=21202, scramble=True, seed=1)
        with pytest.raises(ValueError, match="at most 21201 dimensions"):
            sp.sample_sphere(21202, 2, seed=1)
        with pytest.raises(ValueError, match="at most 2\\*\\*30 points"):
            gaussian._sobol(1, 2**30 + 1, 1)      # raised before anything is allocated

    def test_sphere_directions_from_sobol(self):
        d = sp.sample_sphere(8, 10, seed=3)
        g = special.ndtri(np.clip(self._scipy(8, 5, 3), 1e-16, 1 - 1e-16))
        assert np.array_equal(d.directions[0::2], g / np.linalg.norm(g, axis=1, keepdims=True))
