"""Shrinkage functionals: conditional information, bounds, nested estimators."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from effdim import (
    FixedScale,
    GaussianChannel,
    GlobalLocalRegression,
    HalfCauchy,
    InverseGammaMixture,
    RidgeModel,
    ScalarShrinkageModel,
    TabulatedPrior,
    TailCertificate,
    chain_decomposition,
    conditional_mi,
    estimate_channel_mi,
    expected_conditional_mi,
    heavy_tail_bound,
    jensen_bound,
    random_deff,
    random_deff_distribution,
    regression_conditional_mi,
    regression_mi,
)
from effdim.errors import InsufficientSamples, NumericalError, SampleSizeTooSmall


def half_cauchy_log_moment_oracle() -> float:
    """Quadrature oracle for E[log(1 + lam^2)], lam ~ half-Cauchy(1)."""
    value, err = quad(
        lambda t: (2.0 / math.pi) * math.log1p(t * t) / (1.0 + t * t), 0.0, np.inf
    )
    assert err < 1e-9
    return value


class TestConditionalMi:
    def test_zero_scale(self):
        m = ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=1.0, n=1)
        assert conditional_mi(m, 0.0) == 0.0

    def test_unit_case(self):
        m = ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=1.0, n=1)
        assert conditional_mi(m, 1.0) == pytest.approx(0.5 * math.log(2.0), abs=1e-15)

    def test_snr_case(self):
        # c = 100, lam = 0.3 -> c lam^2 = 9
        m = ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=1.0, n=100)
        assert conditional_mi(m, 0.3) == pytest.approx(0.5 * math.log(10.0), abs=1e-12)

    def test_strictly_increasing_in_scale_and_snr(self):
        m1 = ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=1.0, n=10)
        m2 = ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=1.0, n=20)
        lams = np.linspace(0.1, 5.0, 50)
        values = [conditional_mi(m1, lam) for lam in lams]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(conditional_mi(m2, lam) > conditional_mi(m1, lam) for lam in lams)


class TestRandomDeff:
    def test_zero_scale(self):
        m = ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=1.0, n=100)
        assert random_deff(m, 0.0) == 0.0

    def test_constructed_unit_case(self):
        # c lam^2 = 99 at n = 100 makes the ratio exactly log(100)/log(100)
        m = ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=1.0, n=100)
        lam = math.sqrt(99.0 / 100.0)
        assert random_deff(m, lam) == pytest.approx(1.0, abs=1e-12)

    def test_thousand_sample_case(self):
        m = ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=1.0, n=1000)
        expected = math.log(11.0) / math.log(1000.0)
        assert random_deff(m, 0.1) == pytest.approx(expected, abs=1e-12)

    def test_small_n_rejected(self):
        m = ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=1.0, n=2)
        with pytest.raises(SampleSizeTooSmall):
            random_deff(m, 1.0)


class TestExpectedConditionalMi:
    def test_fixed_prior_exact(self):
        m = ScalarShrinkageModel(prior=FixedScale(2.0), noise_var=1.0, n=1)
        est = expected_conditional_mi(m, 5000, seed=3)
        assert est.estimate == 0.5 * math.log1p(4.0)
        assert est.std_error == 0.0
        assert est.n_samples == 5000

    def test_half_cauchy_matches_quadrature_oracle(self):
        oracle = half_cauchy_log_moment_oracle()
        assert oracle == pytest.approx(2.0 * math.log(2.0), abs=1e-9)
        m = ScalarShrinkageModel(prior=HalfCauchy(1.0), noise_var=1.0, n=1)
        est = expected_conditional_mi(m, 1_000_000, seed=31)
        assert abs(2.0 * est.estimate - oracle) <= 3.0 * (2.0 * est.std_error)

    @pytest.mark.parametrize("tau, c", [(1.0, 100), (0.5, 10)])
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_half_cauchy_closed_form(self, tau, c, seed):
        # E[1/2 log(1 + c lam^2)] = log(1 + tau sqrt(c)) for lam ~ half-Cauchy(tau),
        # from int_0^(pi/2) log(1 + b^2 tan^2 phi) dphi = pi log(1 + b)
        m = ScalarShrinkageModel(prior=HalfCauchy(tau), noise_var=1.0, n=c)
        est = expected_conditional_mi(m, 200_000, seed=seed)
        assert abs(est.estimate - math.log1p(tau * math.sqrt(c))) <= 5.0 * est.std_error

    def test_student_t_respects_jensen(self):
        m = ScalarShrinkageModel(
            prior=InverseGammaMixture(dof=4.0, scale_sq=1.0), noise_var=1.0, n=1
        )
        est = expected_conditional_mi(m, 200_000, seed=5)
        assert est.estimate <= 0.5 * math.log(3.0) + 3.0 * est.std_error

    def test_minimum_samples(self):
        m = ScalarShrinkageModel(prior=HalfCauchy(1.0), noise_var=1.0, n=1)
        with pytest.raises(InsufficientSamples):
            expected_conditional_mi(m, 999, seed=0)

    def test_deterministic(self):
        m = ScalarShrinkageModel(prior=HalfCauchy(1.0), noise_var=1.0, n=4)
        a = expected_conditional_mi(m, 50_000, seed=8)
        b = expected_conditional_mi(m, 50_000, seed=8, n_threads=4)
        assert a.estimate == b.estimate and a.std_error == b.std_error


class TestJensenBound:
    def test_fixed_prior_coincides_with_exact(self):
        m = ScalarShrinkageModel(prior=FixedScale(1.5), noise_var=1.0, n=2)
        assert jensen_bound(m) == pytest.approx(conditional_mi(m, 1.5), abs=1e-15)

    def test_student_t_value(self):
        m = ScalarShrinkageModel(
            prior=InverseGammaMixture(dof=4.0, scale_sq=1.0), noise_var=1.0, n=1
        )
        assert jensen_bound(m) == pytest.approx(0.5 * math.log(3.0), abs=1e-12)

    def test_half_cauchy_absent(self):
        m = ScalarShrinkageModel(prior=HalfCauchy(1.0), noise_var=1.0, n=1)
        assert jensen_bound(m) is None

    def test_mc_respects_bound_across_snr(self):
        priors = [
            FixedScale(0.8),
            InverseGammaMixture(dof=4.0, scale_sq=1.0),
            TabulatedPrior(table=[0.0, 0.5, 1.0, 2.0]),
        ]
        for prior in priors:
            for idx, c in enumerate((0.1, 1.0, 10.0, 100.0)):
                m = ScalarShrinkageModel(prior=prior, noise_var=1.0 / c, n=1)
                est = expected_conditional_mi(m, 100_000, seed=100 + idx)
                bound = jensen_bound(m)
                assert bound is not None
                assert 2.0 * est.estimate <= 2.0 * bound + 3.0 * (2.0 * est.std_error)


class TestHeavyTailBound:
    def test_massless_tail_limit(self):
        cert = TailCertificate(c_const=1e-300, alpha_exp=1.0, t0=1.0)
        for c in (0.5, 1.0, 9.0):
            assert heavy_tail_bound(cert, c) == pytest.approx(
                math.log1p(c) + math.log(2.0), abs=1e-12
            )

    def test_half_cauchy_certificate_value(self):
        cert = HalfCauchy(1.0).tail_certificate
        expected = 2.0 * math.log(2.0) + 4.0 / math.pi
        assert heavy_tail_bound(cert, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_dominates_monte_carlo_log_moment(self):
        cert = HalfCauchy(1.0).tail_certificate
        for seed, c in ((1, 1.0), (2, 10.0), (3, 100.0)):
            m = ScalarShrinkageModel(prior=HalfCauchy(1.0), noise_var=1.0 / c, n=1)
            est = expected_conditional_mi(m, 200_000, seed=seed)
            assert 2.0 * est.estimate <= heavy_tail_bound(cert, c) + 3.0 * (2.0 * est.std_error)

    def test_c_nine_dominates_oracle(self):
        cert = HalfCauchy(1.0).tail_certificate
        m = ScalarShrinkageModel(prior=HalfCauchy(1.0), noise_var=1.0 / 9.0, n=1)
        est = expected_conditional_mi(m, 200_000, seed=6)
        assert 2.0 * est.estimate <= heavy_tail_bound(cert, 9.0) + 3.0 * (2.0 * est.std_error)

    def test_c_nine_value(self):
        cert = HalfCauchy(1.0).tail_certificate
        expected = math.log(10.0) + math.log(2.0) + 4.0 / math.pi
        assert heavy_tail_bound(cert, 9.0) == pytest.approx(expected, abs=1e-12)

    def test_subadditivity_pointwise(self):
        rng = np.random.default_rng(44)
        c = 10.0 ** rng.uniform(-3, 3, size=10_000)
        lam = 10.0 ** rng.uniform(-3, 3, size=10_000)
        lhs = np.log1p(c * lam * lam)
        rhs = np.log1p(c) + np.log1p(lam * lam)
        assert np.all(lhs <= rhs + 1e-12)


class TestChainDecomposition:
    def test_fixed_prior_collapses(self):
        m = ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=1.0, n=1)
        out = chain_decomposition(m, 20_000, 10_000, seed=11)
        assert out.i_lambda_y.estimate == 0.0
        assert out.i_lambda_y.std_error == 0.0
        assert out.e_cond_mi.estimate == 0.5 * math.log(2.0)
        # decomposition collapses to the exact Gaussian MI
        assert abs(out.i_theta_y.estimate - 0.5 * math.log(2.0)) <= 3.0 * out.i_theta_y.std_error
        assert out.bound_satisfied

    def test_student_t_worked_run(self):
        # nu=4 Student-t mixture, c=1, 1e5 outer and inner draws
        m = ScalarShrinkageModel(
            prior=InverseGammaMixture(dof=4.0, scale_sq=1.0), noise_var=1.0, n=1
        )
        out = chain_decomposition(m, 100_000, 100_000, seed=17, n_threads=2)
        assert out.bound_satisfied
        # all three pieces positive and the chain sum close to i_theta
        assert out.i_lambda_y.estimate > 0
        gap = abs(out.i_theta_y.estimate
                  - (out.i_lambda_y.estimate + out.e_cond_mi.estimate))
        assert gap <= 0.02

    def test_half_cauchy_high_snr(self):
        m = ScalarShrinkageModel(prior=HalfCauchy(1.0), noise_var=1.0, n=10)
        out = chain_decomposition(m, 20_000, 20_000, seed=23, n_threads=2)
        assert out.bound_satisfied

    def test_minimum_samples(self):
        m = ScalarShrinkageModel(prior=HalfCauchy(1.0), noise_var=1.0, n=1)
        with pytest.raises(InsufficientSamples):
            chain_decomposition(m, 100, 10_000, seed=0)


class TestRegressionConditionalMi:
    def test_constant_scales_reduce_exactly(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 4))
        m = GlobalLocalRegression(design=x, noise_var=1.3, local_priors=HalfCauchy(1.0))
        tau = 0.85
        via_scales = regression_conditional_mi(m, np.full(4, tau))
        via_ridge, _ = regression_mi(RidgeModel(design=x, noise_var=1.3, prior_var=tau**2))
        assert via_scales == via_ridge

    def test_zero_scales(self):
        x = np.ones((3, 2))
        m = GlobalLocalRegression(design=x, noise_var=1.0, local_priors=HalfCauchy(1.0))
        assert regression_conditional_mi(m, np.zeros(2)) == 0.0

    def test_matches_channel_oracle(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((5, 4))
        lam = np.abs(rng.standard_cauchy(4))
        m = GlobalLocalRegression(design=x, noise_var=1.0, local_priors=HalfCauchy(1.0))
        closed = regression_conditional_mi(m, lam)
        channel = GaussianChannel(
            a=x, prior_cov=np.diag(lam * lam), noise_cov=np.eye(5)
        )
        est = estimate_channel_mi(channel, 1_000_000, seed=31)
        assert abs(est.estimate - closed) <= 3.0 * est.std_error

    def test_wrong_length_rejected(self):
        from effdim.errors import DimensionMismatch

        m = GlobalLocalRegression(
            design=np.ones((3, 2)), noise_var=1.0, local_priors=HalfCauchy(1.0)
        )
        with pytest.raises(DimensionMismatch):
            regression_conditional_mi(m, [1.0])


class TestRandomDeffDistribution:
    def test_non_finite_draws_raise_numerical_error(self):
        # Gamma(0.005) draws underflow to 0, so scales of inf enter the mean
        model = ScalarShrinkageModel(prior=InverseGammaMixture(dof=0.01), n=100)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(NumericalError, match="has mean inf"):
                random_deff_distribution(model, 10_000, seed=1)

    def test_fixed_prior_degenerate(self):
        m = ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=1.0, n=100)
        summary = random_deff_distribution(m, 10_000, seed=1)
        point = math.log1p(100.0) / math.log(100.0)
        assert summary.mean == pytest.approx(point, abs=1e-12)
        assert summary.sd == 0.0
        for q in (0.05, 0.25, 0.50, 0.75, 0.95):
            assert summary.quantiles[q] == pytest.approx(point, abs=1e-12)

    def test_half_cauchy_median(self):
        # the half-Cauchy median scale is 1, so the d_eff median is
        # log(101)/log(100) up to Monte Carlo error
        m = ScalarShrinkageModel(prior=HalfCauchy(1.0), noise_var=1.0, n=100)
        summary = random_deff_distribution(m, 200_000, seed=7)
        assert summary.quantiles[0.50] == pytest.approx(
            math.log(101.0) / math.log(100.0), abs=0.02
        )

    def test_consistency_with_expected_conditional_mi(self):
        m = ScalarShrinkageModel(
            prior=InverseGammaMixture(dof=4.0, scale_sq=1.0), noise_var=1.0, n=1000
        )
        summary = random_deff_distribution(m, 200_000, seed=9)
        cond = expected_conditional_mi(m, 200_000, seed=10)
        translated = 2.0 * cond.estimate / math.log(1000.0)
        pooled = math.hypot(
            summary.sd / math.sqrt(summary.n_samples),
            2.0 * cond.std_error / math.log(1000.0),
        )
        assert abs(summary.mean - translated) <= 3.0 * pooled

    @pytest.mark.parametrize("tau, n, seed", [(1.0, 100, 21), (0.5, 10, 22), (2.0, 1000, 23)])
    def test_half_cauchy_quantiles_within_rank_band(self, tau, n, seed):
        # lam = tau tan(pi U / 2), so the q-quantile of d_eff is
        # log1p(c tau^2 tan^2(pi q / 2)) / log n; the nearest-rank sample
        # quantile sits between the exact quantiles at q -/+ 5 binomial SEs
        m = ScalarShrinkageModel(prior=HalfCauchy(tau), noise_var=1.0, n=n)
        samples = 20_000
        summary = random_deff_distribution(m, samples, seed=seed)

        def exact(q):
            return math.log1p(m.c_snr * (tau * math.tan(0.5 * math.pi * q)) ** 2) / math.log(n)

        for q, value in summary.quantiles.items():
            half_width = 5.0 * math.sqrt(q * (1.0 - q) / samples)
            assert exact(q - half_width) <= value <= exact(q + half_width), q

    def test_quantiles_sorted(self):
        m = ScalarShrinkageModel(prior=HalfCauchy(1.0), noise_var=1.0, n=50)
        summary = random_deff_distribution(m, 20_000, seed=3)
        values = [summary.quantiles[q] for q in (0.05, 0.25, 0.50, 0.75, 0.95)]
        assert values == sorted(values)

    def test_validation(self):
        m = ScalarShrinkageModel(prior=HalfCauchy(1.0), noise_var=1.0, n=2)
        with pytest.raises(SampleSizeTooSmall):
            random_deff_distribution(m, 10_000, seed=0)
        m3 = ScalarShrinkageModel(prior=HalfCauchy(1.0), noise_var=1.0, n=10)
        with pytest.raises(InsufficientSamples):
            random_deff_distribution(m3, 999, seed=0)

    def test_deterministic(self):
        m = ScalarShrinkageModel(prior=HalfCauchy(1.0), noise_var=1.0, n=10)
        a = random_deff_distribution(m, 20_000, seed=5)
        b = random_deff_distribution(m, 20_000, seed=5, n_threads=4)
        assert a.mean == b.mean and a.sd == b.sd and a.quantiles == b.quantiles
