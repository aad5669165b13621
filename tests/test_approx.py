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
    gaussian_kl,
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


def _loewner_flag(approx_cov, exact_cov):
    """The audit's Loewner flag of two zero-mean posteriors, under the prior 4 * exact_cov."""
    zero = np.zeros(len(exact_cov))
    audit = audit_approximation(GaussianDistribution(mean=zero, cov=exact_cov),
                                GaussianDistribution(mean=zero, cov=approx_cov),
                                4.0 * np.asarray(exact_cov), 100)
    return audit.loewner_dominates


def _congruent(rng, cov, eig_low, eig_high):
    """A covariance whose generalized eigenvalues against ``cov`` are uniform draws."""
    root = np.linalg.cholesky(cov)
    out = root @ random_covariance(rng, len(cov), eig_low, eig_high) @ root.T
    return 0.5 * (out + out.T)


class TestLoewnerDominates:
    def test_equality_dominates(self):
        s = random_covariance(np.random.default_rng(0), 3)
        assert _loewner_flag(s, s)

    def test_identity_shift_dominates(self):
        s = random_covariance(np.random.default_rng(1), 3)
        assert _loewner_flag(s + np.eye(3), s)

    def test_mismatched_shapes(self):
        # both pairs the audit orders refuse covariances of different shapes:
        # approximate against exact posterior, and prior against approximate
        two = GaussianDistribution(mean=np.zeros(2), cov=np.eye(2))
        three = GaussianDistribution(mean=np.zeros(3), cov=np.eye(3))
        with pytest.raises(DimensionMismatch):
            audit_approximation(two, three, np.eye(2), 100)
        with pytest.raises(DimensionMismatch):
            audit_approximation(two, two, np.eye(3), 100)

    def test_rank_one_deficit_detected(self):
        u = np.zeros((3, 1))
        u[0, 0] = 1.0
        sigma = np.eye(3)
        sigma_tilde = sigma - 0.5 * (u @ u.T)
        assert not _loewner_flag(sigma_tilde, sigma)
        # eigenvalue of the difference is exactly -0.5
        assert np.linalg.eigvalsh(sigma_tilde - sigma)[0] == pytest.approx(-0.5)

    @pytest.mark.parametrize("large, small", [
        (1e-12, 1e-12), (1e-200, 1e-200), (1e200, 1e200),
        (1e10, 1.0), (1.0, 2e-12), (1.0, 2e-300),
    ])
    def test_tolerance_holds_at_every_scale_and_in_every_direction(self, large, small):
        # halving the covariance in one direction is a violation, whatever
        # the scale of the pair or of the other direction
        sigma = np.diag([large, small])
        assert not _loewner_flag(np.diag([large, 0.5 * small]), sigma)
        assert _loewner_flag(np.diag([large, 2.0 * small]), sigma)

    def test_flags_match_the_generalized_eigenvalues(self):
        # an independent reference: S_dom dominates S iff no generalized
        # eigenvalue of S against S_dom exceeds 1
        sla = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(31)
        # p = 40 is past linalg.INVERT_LEAF, so invert_lower recurses
        cases = [*((int(dim), 0.5) for dim in rng.integers(2, 8, size=300)), (40, 1.0), (40, 0.5)]
        flags = []
        for dim, eig_low in cases:
            exact = GaussianDistribution(mean=np.zeros(dim), cov=random_covariance(rng, dim))
            approx = GaussianDistribution(mean=np.zeros(dim),
                                          cov=_congruent(rng, exact.cov, eig_low, 3.0))
            prior = _congruent(rng, approx.cov, eig_low, 3.0)
            audit = audit_approximation(exact, approx, prior, 100)
            for flag, dominating, dominated in ((audit.loewner_dominates, approx.cov, exact.cov),
                                               (audit.prior_dominates_approx, prior, approx.cov)):
                top = sla.eigh(dominated, dominating, eigvals_only=True).max()
                if abs(top - 1.0) > 1e-8:
                    assert flag == (top <= 1.0), (dim, top)
                    flags.append(flag)
        assert len(flags) == 2 * len(cases) and True in flags and False in flags


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

    @pytest.mark.parametrize("exact_cov, approx_cov, prior", [
        # posteriors this small come from n near 1e12
        (2e-12 * np.eye(3), 1e-12 * np.eye(3), np.eye(3)),
        # one direction of scale 1e10 must not excuse halving the unit one
        (np.diag([1e10, 1.0]), np.diag([1e10, 0.5]), np.diag([1e11, 10.0])),
        (np.diag([1.0, 2e-12]), np.diag([1.0, 1e-12]), np.eye(2)),
    ], ids=["small-scale", "beside-a-large-direction", "small-direction"])
    def test_shrinkage_not_certified(self, exact_cov, approx_cov, prior):
        # the shrunk covariance has the larger KL, so the audit must not certify it
        dim = len(prior)
        exact = GaussianDistribution(mean=np.zeros(dim), cov=exact_cov)
        approx = GaussianDistribution(mean=np.zeros(dim), cov=approx_cov)
        audit = audit_approximation(exact, approx, prior, 100)
        assert audit.kl_approx > audit.kl_exact
        assert not audit.loewner_dominates
        assert not audit.truncation_certified

    def test_prior_envelope_checked_in_every_direction(self):
        # the prior exceeds the approximation 1e14-fold in one direction and
        # falls short by a third in the other, so the envelope fails
        exact = GaussianDistribution(mean=np.zeros(2), cov=np.diag([1e-2, 1.0]))
        approx = GaussianDistribution(mean=np.zeros(2), cov=np.diag([1e-2, 1.5]))
        audit = audit_approximation(exact, approx, np.diag([1e12, 1.0]), 100)
        assert audit.loewner_dominates and audit.means_equal
        assert audit.kl_approx > audit.kl_exact
        assert not audit.prior_dominates_approx
        assert not audit.truncation_certified

    def test_equal_ill_conditioned_covariances_dominate(self, monkeypatch):
        # the whitened difference of two equal matrices is exactly zero,
        # however ill-conditioned they are; E = 0 has no Cholesky factor, so
        # both flags come from the eigenvalue rule
        rng = np.random.default_rng(9)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        cov = (q * np.array([1e6, 1.0, 1e-4, 1e-8])) @ q.T
        cov = 0.5 * (cov + cov.T)
        post = GaussianDistribution(mean=np.zeros(4), cov=cov)
        eigvalsh = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        audit = audit_approximation(post, post, cov, 100)
        assert audit.loewner_dominates and audit.prior_dominates_approx
        assert audit.truncation_certified
        assert len(calls) == 2 and not any(m.any() for m in calls)

    def test_whitened_overflow_is_a_violation(self):
        exact = GaussianDistribution(mean=np.zeros(2), cov=np.diag([1e300, 1.0]))
        approx = GaussianDistribution(mean=np.zeros(2), cov=np.diag([1e-300, 1.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            audit = audit_approximation(exact, approx, np.diag([1e300, 1.0]), 100)
        assert not audit.loewner_dominates

    def test_one_solve_per_dominating_factor(self, monkeypatch):
        rng = np.random.default_rng(12)
        exact = GaussianDistribution(mean=rng.standard_normal(4),
                                     cov=random_covariance(rng, 4, eig_low=0.1, eig_high=0.5))
        approx = GaussianDistribution(mean=exact.mean, cov=random_covariance(rng, 4))
        prior = random_covariance(rng, 4)
        calls, solves = [], []
        original = linalg.invert_lower
        solve_lower = linalg.solve_lower

        def recording(lower):
            calls.append(lower)
            return original(lower)

        monkeypatch.setattr(linalg, "invert_lower", recording)
        monkeypatch.setattr(linalg, "solve_lower",
                            lambda lower, b: solves.append(lower) or solve_lower(lower, b))
        audit_approximation(exact, approx, prior, 100)
        # the prior's factor serves both KLs and the envelope test, the
        # approximation's the Loewner flag; no dense solve is left
        assert len(calls) == 2
        assert solves == []
        np.testing.assert_array_equal(calls[0], np.linalg.cholesky(prior))
        assert calls[1] is approx.lower
        gaussian_kl(exact, np.eye(4))
        assert len(calls) == 3

    def test_kl_terms_match_a_triangular_solve_reference(self):
        sla = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(50)
        dim = 50
        for _ in range(5):
            prior = random_covariance(rng, dim)
            l0 = np.linalg.cholesky(prior)
            posts = [GaussianDistribution(mean=mean, cov=random_covariance(rng, dim, 0.05, 0.9))
                     for mean in (np.zeros(dim), rng.standard_normal(dim))]
            audit = audit_approximation(*posts, prior, 100)
            for q, kl in zip(posts, (audit.kl_exact, audit.kl_approx)):
                trace_term = np.sum(sla.solve_triangular(l0, q.lower, lower=True) ** 2)
                quad_term = np.sum(sla.solve_triangular(l0, q.mean, lower=True) ** 2)
                logdet_ratio = 2.0 * np.sum(np.log(np.diag(q.lower) / np.diag(l0)))
                reference = 0.5 * (trace_term + quad_term - logdet_ratio - dim)
                assert kl == pytest.approx(reference, rel=1e-12)
                assert gaussian_kl(q, prior) == pytest.approx(reference, rel=1e-12)

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


def _eigenvalue_rule(dominating, dominated, dominating_lower, eigvalsh):
    """The Loewner flag by the eigenvalues of the audit's own whitened difference."""
    inverse = linalg.solve_lower(dominating_lower, np.eye(dominating.shape[0]))
    whitened = inverse @ (dominating - dominated) @ inverse.T
    eigs = eigvalsh(whitened)
    return bool(eigs.min() >= -approx_module.LOEWNER_TOL * (np.abs(eigs).max() + 1.0))


class TestCholeskyCertificate:
    def test_flags_equal_the_eigenvalue_rule(self, monkeypatch):
        # inflations toward the prior, on and just past both ends of the
        # envelope, for full-rank and rank-deficient forward maps
        eigvalsh = np.linalg.eigvalsh
        fallbacks = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: fallbacks.append(m) or eigvalsh(m))
        rng = np.random.default_rng(21)
        shortcut_audits = fallback_audits = 0
        for dim in (3, 20, 64, 65, 130, 200):
            for rank in (dim, dim // 2 + 1):
                prior = random_covariance(rng, dim)
                a = rng.standard_normal((rank, dim))
                precision = np.linalg.inv(prior) + a.T @ a
                exact_cov = np.linalg.inv(0.5 * (precision + precision.T))
                exact = GaussianDistribution(mean=np.zeros(dim), cov=exact_cov)
                prior_cov, prior_lower = linalg.factor_covariance(prior)
                for t in (1e-12, 0.5, 1.0 - 1e-12, 1.0 + 1e-9, -1e-9):
                    approx = GaussianDistribution(
                        mean=np.zeros(dim), cov=exact.cov + t * (prior_cov - exact.cov))
                    fallbacks.clear()
                    audit = audit_approximation(exact, approx, prior, 100)
                    shortcut_audits += not fallbacks
                    fallback_audits += bool(fallbacks)
                    assert audit.loewner_dominates == _eigenvalue_rule(
                        approx.cov, exact.cov, approx.lower, eigvalsh), (dim, rank, t)
                    assert audit.prior_dominates_approx == _eigenvalue_rule(
                        prior_cov, approx.cov, prior_lower, eigvalsh), (dim, rank, t)
        # both the certificate and the eigenvalue fallback were exercised
        assert shortcut_audits and fallback_audits

    def test_positive_definite_difference_needs_no_eigensolve(self, monkeypatch):
        rng = np.random.default_rng(22)
        prior = random_covariance(rng, 6, eig_low=2.0, eig_high=4.0)
        exact = GaussianDistribution(mean=np.zeros(6), cov=random_covariance(rng, 6, 0.1, 0.5))
        approx = GaussianDistribution(mean=np.zeros(6), cov=random_covariance(rng, 6, 1.0, 1.5))
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m))
        audit = audit_approximation(exact, approx, prior, 100)
        assert audit.truncation_certified and calls == []

    def test_certificate_stops_at_its_dimension_bound(self, monkeypatch):
        # n (n + 1) u <= LOEWNER_TOL holds up to n = 948; past it the
        # eigenvalues decide even a positive definite difference
        u = approx_module.UNIT_ROUNDOFF
        assert 948 * 949 * u <= approx_module.LOEWNER_TOL < 949 * 950 * u
        eigvalsh = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or eigvalsh(m))
        for dim, expected_calls in ((948, 0), (949, 1)):
            calls.clear()
            inverse = np.eye(dim) / math.sqrt(2.0)
            assert approx_module._dominates(2.0 * np.eye(dim), np.eye(dim), inverse)
            assert len(calls) == expected_calls
