import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import sphrad as sp
from sphrad.gaussian import RadialLaw, TAIL_MASS


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
        law = RadialLaw(2)
        assert sp.chi_cdf(law, 1.0) == pytest.approx(1 - np.exp(-0.5), abs=1e-12)

    def test_cdf_at_zero(self):
        for m in (1, 2, 5, 16):
            assert sp.chi_cdf(RadialLaw(m), 0.0) == 0.0

    def test_cdf_m1_matches_normal(self):
        # For one degree of freedom the cdf folds two normal tails.
        law = RadialLaw(1)
        r = stats.norm.ppf(0.975)
        assert sp.chi_cdf(law, r) == pytest.approx(0.95, abs=1e-9)
        assert sp.chi_cdf(law, 1.959964) == pytest.approx(0.95, abs=1e-6)

    def test_pdf_values(self):
        assert sp.chi_pdf(RadialLaw(1), 0.0) == pytest.approx(np.sqrt(2 / np.pi), abs=1e-13)
        assert sp.chi_pdf(RadialLaw(3), 0.0) == 0.0
        assert sp.chi_pdf(RadialLaw(2), 1.0) == pytest.approx(np.exp(-0.5), abs=1e-13)

    def test_negative_r_rejected(self):
        law = RadialLaw(2)
        with pytest.raises(ValueError):
            sp.chi_cdf(law, -0.1)
        with pytest.raises(ValueError):
            sp.chi_pdf(law, -0.1)

    def test_quantile_roundtrip(self):
        for m in (1, 2, 8):
            law = RadialLaw(m)
            for q in (0.1, 0.5, 0.95):
                assert sp.chi_cdf(law, sp.chi_quantile(law, q)) == pytest.approx(q, abs=1e-12)

    def test_normalization_by_quadrature(self):
        for m in range(1, 17):
            law = RadialLaw(m)
            total, _ = integrate.quad(lambda r: sp.chi_pdf(law, r), 0.0, law.r_max,
                                      limit=200)
            assert abs(total - 1.0) <= 1e-9

    def test_cdf_pdf_consistency(self):
        h = 1e-4
        for m in (1, 2, 5, 9):
            law = RadialLaw(m)
            for r in (0.5, 1.0, 2.0, 5.0):
                fd = (sp.chi_cdf(law, r + h) - sp.chi_cdf(law, r - h)) / (2 * h)
                assert fd == pytest.approx(sp.chi_pdf(law, r), rel=1e-6)

    def test_cutoff_retains_mass(self):
        for m in range(1, 17):
            law = RadialLaw(m)
            assert sp.chi_cdf(law, law.r_max) >= 1.0 - TAIL_MASS


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
        assert abs(d.weights.sum() - 1.0) <= 1e-12
        assert np.all(d.weights == d.weights[0])
        if n % 2 == 0:
            assert np.array_equal(d.directions[0::2], -d.directions[1::2])
