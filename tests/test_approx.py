"""Gaussian KL, the conjugate dual-path identity, and the inflation audit."""

import math
import warnings

import numpy as np
import pytest

from effdim import (
    GaussianDistribution,
    RidgeModel,
    audit_approximation,
    conjugate_regression_info,
    dominating_diagonal,
    gaussian_kl,
    loewner_dominates,
    regression_mi,
)
from effdim import approx as approx_module, linalg
from effdim.errors import (
    DimensionMismatch,
    InputError,
    NotPositiveDefinite,
    NumericalError,
    SampleSizeTooSmall,
)

from conftest import random_covariance


class TestGaussianKl:
    def test_identical_distributions(self):
        q = GaussianDistribution(mean=np.zeros(3), cov=np.eye(3))
        assert gaussian_kl(q, np.eye(3)) == 0.0

    def test_unit_mean_shift(self):
        q = GaussianDistribution(mean=[1.0], cov=[[1.0]])
        assert gaussian_kl(q, [[1.0]]) == pytest.approx(0.5, abs=1e-15)

    def test_worked_scalar_case(self):
        # p=1, prior 1, posterior variance 0.5, zero mean
        q = GaussianDistribution(mean=[0.0], cov=[[0.5]])
        expected = 0.5 * (0.5 - math.log(0.5) - 1.0)
        assert gaussian_kl(q, [[1.0]]) == pytest.approx(expected, abs=1e-15)

    def test_nonnegative_with_equality_only_at_prior(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            dim = int(rng.integers(1, 6))
            prior = random_covariance(rng, dim)
            cov = random_covariance(rng, dim)
            mean = rng.standard_normal(dim)
            kl = gaussian_kl(GaussianDistribution(mean=mean, cov=cov), prior)
            assert kl >= 0.0
            same = gaussian_kl(GaussianDistribution(mean=np.zeros(dim), cov=prior), prior)
            assert abs(same) <= 1e-10
            perturbed = gaussian_kl(
                GaussianDistribution(mean=np.zeros(dim), cov=prior + 0.3 * np.eye(dim)),
                prior,
            )
            assert perturbed > 1e-10

    def test_dimension_mismatch(self):
        q = GaussianDistribution(mean=[0.0], cov=[[1.0]])
        with pytest.raises(DimensionMismatch):
            gaussian_kl(q, np.eye(2))

    def test_prior_must_be_pd(self):
        q = GaussianDistribution(mean=[0.0], cov=[[1.0]])
        with pytest.raises(NotPositiveDefinite):
            gaussian_kl(q, [[0.0]])


    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_mean_rejected(self, bad):
        with pytest.raises(InputError, match="mean has non-finite"):
            GaussianDistribution(mean=[0.0, bad], cov=np.eye(2))

    def test_factor_kept(self):
        cov = random_covariance(np.random.default_rng(6), 3)
        q = GaussianDistribution(mean=np.zeros(3), cov=cov)
        np.testing.assert_array_equal(q.lower, np.linalg.cholesky(q.cov))


class TestConjugateRegressionInfo:
    def test_zero_design(self):
        model = RidgeModel(design=np.zeros((3, 2)), noise_var=1.0, prior_var=1.0)
        assert conjugate_regression_info(model) == pytest.approx(0.0, abs=1e-14)

    def test_identity_two_modes(self):
        model = RidgeModel(design=np.eye(2), noise_var=1.0, prior_var=1.0)
        assert conjugate_regression_info(model) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_dual_path_agreement_seed9(self):
        rng = np.random.default_rng(9)
        model = RidgeModel(design=rng.standard_normal((5, 3)), noise_var=1.0, prior_var=1.0)
        mi = regression_mi(model)
        np.testing.assert_allclose(conjugate_regression_info(model), mi, rtol=1e-9)

    def test_dual_path_agreement_random(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            model = RidgeModel(
                design=rng.standard_normal((int(rng.integers(1, 9)), int(rng.integers(1, 7)))),
                noise_var=float(rng.uniform(0.25, 4.0)),
                prior_var=float(rng.uniform(0.25, 4.0)),
            )
            mi = regression_mi(model)
            np.testing.assert_allclose(
                conjugate_regression_info(model), mi, rtol=1e-9, atol=1e-12
            )

    def test_tiny_prior_variance_stays_finite(self):
        # I / prior_var would overflow; the prior-normalized precision does not
        model = RidgeModel(design=np.eye(2), noise_var=1.0, prior_var=5e-324)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            info = conjugate_regression_info(model)
        assert math.isfinite(info)
        assert info == pytest.approx(regression_mi(model), abs=1e-12)

    def test_zero_prior_rejected(self):
        model = RidgeModel(design=np.eye(2), noise_var=1.0, prior_var=0.0)
        with pytest.raises(ValueError):
            conjugate_regression_info(model)


class TestLoewnerDominates:
    def test_equality_dominates(self):
        s = random_covariance(np.random.default_rng(0), 3)
        assert loewner_dominates(s, s)

    def test_identity_shift_dominates(self):
        s = random_covariance(np.random.default_rng(1), 3)
        assert loewner_dominates(s + np.eye(3), s)

    def test_rank_one_deficit_detected(self):
        u = np.zeros((3, 1))
        u[0, 0] = 1.0
        sigma = np.eye(3)
        sigma_tilde = sigma - 0.5 * (u @ u.T)
        assert not loewner_dominates(sigma_tilde, sigma)
        # eigenvalue of the difference is exactly -0.5
        assert np.linalg.eigvalsh(sigma_tilde - sigma)[0] == pytest.approx(-0.5)

    def test_mismatched_shapes(self):
        with pytest.raises(DimensionMismatch):
            loewner_dominates(np.eye(2), np.eye(3))


class TestAuditApproximation:
    def test_posteriors_of_different_dimension_rejected(self):
        exact = GaussianDistribution(mean=[0.0, 0.0], cov=np.eye(2))
        approx = GaussianDistribution(mean=[0.0], cov=np.eye(1))
        with pytest.raises(DimensionMismatch, match="differ in dimension"):
            audit_approximation(exact, approx, np.eye(2), 100)

    def test_prior_validated_and_factored_once(self, monkeypatch):
        exact = GaussianDistribution(mean=[0.0, 0.0], cov=0.5 * np.eye(2))
        approx = GaussianDistribution(mean=[0.0, 0.0], cov=np.eye(2))
        factored = []
        original = linalg.cholesky_lower

        def recording(m, name="matrix"):
            factored.append(name)
            return original(m, name)

        monkeypatch.setattr(linalg, "cholesky_lower", recording)
        audit_approximation(exact, approx, np.eye(2), 100)
        assert len(factored) == 1

    @pytest.mark.parametrize("prior", [np.zeros((2, 2)), np.diag([1.0, -1.0])])
    def test_non_pd_prior_is_input_error(self, prior):
        post = GaussianDistribution(mean=[0.0, 0.0], cov=np.eye(2))
        with pytest.raises(InputError, match="prior covariance is not positive definite"):
            audit_approximation(post, post, prior, 100)

    def test_prior_dimension_checked(self):
        post = GaussianDistribution(mean=[0.0, 0.0], cov=np.eye(2))
        with pytest.raises(DimensionMismatch, match="prior covariance has shape"):
            audit_approximation(post, post, [[1.0]], 100)

    def test_identical_posteriors(self):
        rng = np.random.default_rng(3)
        cov = random_covariance(rng, 3, eig_low=0.2, eig_high=0.8)
        post = GaussianDistribution(mean=np.zeros(3), cov=cov)
        audit = audit_approximation(post, post, np.eye(3), 100)
        assert audit.kl_exact == audit.kl_approx
        assert audit.loewner_dominates and audit.means_equal
        assert audit.truncation_certified

    def test_worked_scalar_pair(self):
        exact = GaussianDistribution(mean=[0.0], cov=[[0.5]])
        approx = GaussianDistribution(mean=[0.0], cov=[[1.0]])
        audit = audit_approximation(exact, approx, [[1.0]], 100)
        assert audit.kl_exact == pytest.approx(0.5 * (0.5 - math.log(0.5) - 1.0), abs=1e-12)
        assert audit.kl_approx == 0.0
        assert audit.loewner_dominates
        assert audit.kl_approx <= audit.kl_exact
        assert audit.deff_approx <= audit.deff_exact

    def test_inflation_reduces_information(self):
        # posterior-like instances: both covariances stay inside the prior
        # envelope, the regime where the inflation inequality is a theorem
        rng = np.random.default_rng(21)
        for _ in range(500):
            dim = int(rng.integers(1, 6))
            prior = random_covariance(rng, dim)
            root = np.linalg.cholesky(prior)
            contraction = random_covariance(rng, dim, eig_low=0.1, eig_high=0.9)
            exact_cov = root @ contraction @ root.T
            exact_cov = 0.5 * (exact_cov + exact_cov.T)
            u = float(rng.uniform(0.05, 1.0))
            approx_cov = exact_cov + u * (prior - exact_cov)
            approx_cov = 0.5 * (approx_cov + approx_cov.T)
            mean = rng.standard_normal(dim)
            audit = audit_approximation(
                GaussianDistribution(mean=mean, cov=exact_cov),
                GaussianDistribution(mean=mean, cov=approx_cov),
                prior,
                int(rng.integers(3, 10_000)),
            )
            assert audit.loewner_dominates and audit.means_equal
            assert audit.prior_dominates_approx
            assert audit.truncation_certified
            assert audit.kl_approx <= audit.kl_exact + 1e-12
            assert audit.logdet_approx >= audit.logdet_exact - 1e-12
            assert audit.deff_approx <= audit.deff_exact + 1e-12

    def test_logdet_order_holds_even_past_the_prior(self):
        # the log-det ordering needs only the Loewner flag; the KL ordering
        # additionally needs the prior envelope, and fails without it
        exact = GaussianDistribution(mean=[0.0], cov=[[1.0]])
        approx = GaussianDistribution(mean=[0.0], cov=[[10.0]])
        audit = audit_approximation(exact, approx, [[1.0]], 100)
        assert audit.loewner_dominates and audit.means_equal
        assert not audit.prior_dominates_approx
        assert not audit.truncation_certified
        assert audit.logdet_approx >= audit.logdet_exact
        assert audit.kl_approx > audit.kl_exact  # inflation past the prior

    def test_non_dominating_pair_not_certified(self):
        exact = GaussianDistribution(mean=[0.0, 0.0], cov=np.eye(2))
        approx = GaussianDistribution(mean=[0.0, 0.0], cov=np.diag([0.5, 2.0]))
        audit = audit_approximation(exact, approx, np.eye(2), 50)
        assert not audit.loewner_dominates
        assert not audit.truncation_certified

    def test_small_n_rejected(self):
        post = GaussianDistribution(mean=[0.0], cov=[[1.0]])
        from effdim.errors import SampleSizeTooSmall

        with pytest.raises(SampleSizeTooSmall):
            audit_approximation(post, post, [[1.0]], 2)

    def test_small_n_rejected_before_any_kl(self, monkeypatch):
        def no_kl(*args):
            raise AssertionError("a KL was formed before n was checked")

        monkeypatch.setattr(approx_module, "_kl_to_prior", no_kl)
        post = GaussianDistribution(mean=[0.0], cov=[[1.0]])
        with pytest.raises(SampleSizeTooSmall):
            audit_approximation(post, post, [[1.0]], -1)

    def test_overflowing_kl_is_numerical_error(self):
        exact = GaussianDistribution(mean=[0.0, 0.0], cov=np.eye(2))
        huge = GaussianDistribution(mean=[0.0, 0.0], cov=np.diag([1e308, 1e308]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="KL to the prior overflows"):
                audit_approximation(exact, huge, np.eye(2), 10)
            with pytest.raises(NumericalError, match="KL to the prior overflows"):
                gaussian_kl(GaussianDistribution(mean=[1e200, 1e200], cov=np.eye(2)), np.eye(2))


class TestDominatingDiagonal:
    def test_diagonal_input_unchanged(self):
        sigma = np.diag([1.0, 2.0, 0.5])
        np.testing.assert_array_equal(dominating_diagonal(sigma), sigma)

    def test_strong_correlation_doubles(self):
        sigma = np.array([[1.0, 0.9], [0.9, 1.0]])
        # correlation eigenvalues are 1 +/- 0.9, so c=2 is the smallest
        # power of two at least 1.9
        out = dominating_diagonal(sigma)
        np.testing.assert_array_equal(out, 2.0 * np.eye(2))
        assert loewner_dominates(out, sigma)

    def test_random_correlation_certified(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            dim = int(rng.integers(2, 6))
            cov = random_covariance(rng, dim)
            d = np.sqrt(np.diag(cov))
            corr = cov / np.outer(d, d)
            corr = 0.5 * (corr + corr.T)
            out = dominating_diagonal(corr)
            assert loewner_dominates(out, corr)
            assert out.shape == corr.shape
