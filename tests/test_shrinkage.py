"""Shrinkage functionals: conditional information, bounds, nested estimators."""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from effdim import (
    FixedScale,
    GaussianChannel,
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
    mutual_information,
    random_deff,
    random_deff_distribution,
    regression_mi,
)
from effdim.errors import InputError, InsufficientSamples, NumericalError, SampleSizeTooSmall
from effdim.oracle import seeded_blocks
from effdim.sampling import FLAT_BLOCK, STREAM_DEFF_DIST, MomentAccumulator
from effdim.shrinkage import NESTED_BIAS_ALLOWANCE, QUANTILE_LEVELS


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


class TestOverflowingSnrTimesScale:
    """c lam^2 past the float range, for a finite lam: log c + 2 log lam."""

    STUDENT_T = ScalarShrinkageModel(prior=InverseGammaMixture(dof=3.0, scale_sq=1e307), n=100)

    @pytest.mark.parametrize("lam", [1e200, 1e300, 1.7976931348623157e308])
    def test_scalar_functions_take_the_log_sum(self, lam):
        m = ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=1.0, n=100)
        exact = math.log(100.0) + 2.0 * math.log(lam)  # log1p(u) = log(u) here
        assert conditional_mi(m, lam) == pytest.approx(0.5 * exact, rel=1e-15)
        assert random_deff(m, lam) == pytest.approx(exact / math.log(100.0), rel=1e-15)

    def test_continuous_across_the_overflow_threshold(self):
        # c lam^2 = 100 lam^2 crosses the largest float near lam = 1.34e153
        m = ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=1.0, n=100)
        edge = math.sqrt(np.finfo(float).max / 100.0)
        below, above = math.nextafter(edge, 0.0), math.nextafter(edge * (1 + 1e-15), math.inf)
        assert math.isfinite(100.0 * below * below) and math.isinf(100.0 * above * above)
        assert conditional_mi(m, above) - conditional_mi(m, below) == pytest.approx(0.0, abs=1e-12)

    def test_jensen_bound_of_an_overflowing_second_moment_product(self):
        # E[lam^2] = 3e307 is a float; c E[lam^2] = 3e309 is not
        bound = jensen_bound(self.STUDENT_T)
        assert bound == pytest.approx(0.5 * (math.log(100.0) + math.log(3e307)), rel=1e-15)

    def test_student_t_draws_whose_square_overflows_stay_finite(self):
        lam = self.STUDENT_T.prior.sample(np.random.default_rng(1), 100_000)
        g = np.random.default_rng(1).gamma(shape=1.5, scale=1.0, size=100_000)
        with np.errstate(over="ignore"):
            direct = np.sqrt(1.5e307 / g)
        overflowed = np.isinf(direct)
        assert overflowed.any() and np.isfinite(lam).all()
        # every draw whose square is a float keeps its bits
        np.testing.assert_array_equal(lam[~overflowed], direct[~overflowed])
        np.testing.assert_allclose(lam[overflowed], np.sqrt(1.5e307) / np.sqrt(g[overflowed]),
                                   rtol=1e-15)

    @pytest.mark.parametrize("tau_g", [1e150, 1e300])
    def test_half_cauchy_summaries_are_finite(self, tau_g):
        # log |C| has mean 0 for a standard Cauchy C, so E[log(c lam^2)] = log c + 2 log tau_g
        m = ScalarShrinkageModel(prior=HalfCauchy(tau_g), noise_var=1.0, n=100)
        summary = random_deff_distribution(m, 20_000, seed=1)
        expected = (math.log(100.0) + 2.0 * math.log(tau_g)) / math.log(100.0)
        assert abs(summary.mean - expected) <= 5.0 * summary.sd / math.sqrt(20_000)
        cond = expected_conditional_mi(m, 20_000, seed=1)
        assert abs(cond.estimate - 0.5 * expected * math.log(100.0)) <= 5.0 * cond.std_error

    def test_finite_products_keep_their_bits(self):
        m = ScalarShrinkageModel(prior=HalfCauchy(1e150), noise_var=1.0, n=100)
        lam = HalfCauchy(1e150).sample(np.random.default_rng(4), 1000)
        values = [random_deff(m, float(x)) for x in lam]
        for x, value in zip(lam, values):
            u = 100.0 * float(x) * float(x)
            if math.isfinite(u):
                assert value == math.log1p(u) / math.log(100.0)


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

    def test_no_certificate_is_no_bound(self):
        assert heavy_tail_bound(None, 1.0) is None
        with pytest.raises(InputError, match="^c_snr "):
            heavy_tail_bound(None, -1.0)

    @pytest.mark.parametrize("cert", [
        HalfCauchy(1.0).tail_certificate,
        TailCertificate(c_const=3.0, alpha_exp=0.5, t0=7.0),
        TailCertificate(c_const=1e300, alpha_exp=2.0, t0=1e100),
    ])
    def test_finite_factors_match_the_textbook_expression(self, cert):
        direct = (math.log1p(2.0) + math.log1p(cert.t0 * cert.t0)
                  + (2.0 * cert.c_const / cert.alpha_exp) * cert.t0 ** (-cert.alpha_exp))
        assert heavy_tail_bound(cert, 2.0) == pytest.approx(direct, rel=1e-15)

    @pytest.mark.parametrize("cert, bound", [
        # t0^2 overflows; log1p(t0^2) is 2 log t0
        (TailCertificate(c_const=1.0, alpha_exp=1.0, t0=1e200), 921.7271843781782),
        # 2C overflows; the tail term 2C / t0 is 2e298
        (TailCertificate(c_const=1e308, alpha_exp=1.0, t0=1e10), 2e298),
        # 2C/alpha overflows and t0^-alpha underflows to 0: the tail term of
        # 1e-92 vanishes beside 2 log t0, where inf * 0 gave nan
        (TailCertificate(c_const=1e308, alpha_exp=2.0, t0=1e200), 921.7271843781782),
    ], ids=["t0-squared", "two-c", "two-c-times-zero"])
    def test_bound_a_float_can_hold_past_an_overflowing_factor(self, cert, bound):
        assert heavy_tail_bound(cert, 1.0) == pytest.approx(bound, rel=1e-15)

    def test_bound_past_the_float_range_is_inf(self):
        cert = TailCertificate(c_const=1e308, alpha_exp=1e-10, t0=1.0)
        assert heavy_tail_bound(cert, 1.0) == math.inf

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

    def test_scales_far_above_the_noise_keep_the_chain_rule(self):
        # |theta| ~ 1e16 against a noise sd of 0.1: y - theta is lost to
        # cancellation, so log p(y | theta) must come from the drawn noise
        m = ScalarShrinkageModel(prior=HalfCauchy(1e16), noise_var=1.0, n=100)
        out = chain_decomposition(m, 10_000, 10_000, seed=1)
        pieces = (out.i_theta_y, out.i_lambda_y, out.e_cond_mi)
        pooled_se = math.sqrt(sum(e.std_error ** 2 for e in pieces))
        gap = out.i_theta_y.estimate - out.i_lambda_y.estimate - out.e_cond_mi.estimate
        assert out.bound_satisfied
        assert abs(gap) <= 3.0 * pooled_se + NESTED_BIAS_ALLOWANCE

    def test_minimum_samples(self):
        m = ScalarShrinkageModel(prior=HalfCauchy(1.0), noise_var=1.0, n=1)
        with pytest.raises(InsufficientSamples):
            chain_decomposition(m, 100, 10_000, seed=0)


class TestRegressionGivenScales:
    """Given per-column scales lam, the regression is ridge on the design X diag(lam)."""

    def test_matches_channel_oracle(self):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((5, 4))
        lam = np.abs(rng.standard_cauchy(4))
        closed = regression_mi(RidgeModel(design=x * lam, noise_var=1.0, prior_var=1.0))
        channel = GaussianChannel(
            a=x, prior_cov=np.diag(lam * lam), noise_cov=np.eye(5)
        )
        est = estimate_channel_mi(channel, 1_000_000, seed=31)
        assert abs(est.estimate - closed) <= 3.0 * est.std_error

    @pytest.mark.parametrize("mode", ["spectral", "observation", "parameter"])
    def test_matches_every_channel_route(self, mode):
        rng = np.random.default_rng(47)
        for _ in range(20):
            n, p = int(rng.integers(1, 9)), int(rng.integers(1, 7))
            x = rng.standard_normal((n, p))
            lam = np.abs(rng.standard_cauchy(p))
            lam[rng.random(p) < 0.25] = 0.0
            noise_var = float(rng.uniform(0.2, 3.0))
            model = RidgeModel(design=x * lam, noise_var=noise_var, prior_var=1.0)
            channel = GaussianChannel(a=x, prior_cov=np.diag(lam * lam),
                                      noise_cov=noise_var * np.eye(n))
            np.testing.assert_allclose(regression_mi(model),
                                       mutual_information(channel, mode), rtol=1e-10)

    def test_constant_scales_reduce_exactly(self):
        # dividing the scales by their largest makes X diag(lam / lam_max) = X
        # bit for bit, so the ridge model is (X, sigma^2, lam_max^2) itself
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 4))
        lam = np.full(4, 0.85)
        via_scales = regression_mi(RidgeModel(design=x * (lam / lam.max()), noise_var=1.3,
                                              prior_var=lam.max() ** 2))
        assert via_scales == regression_mi(RidgeModel(design=x, noise_var=1.3, prior_var=0.85**2))

    def test_zero_scales(self):
        x = np.ones((3, 2))
        lam = np.zeros(2)
        assert regression_mi(RidgeModel(design=x * lam, noise_var=1.0, prior_var=1.0)) == 0.0
        channel = GaussianChannel(a=x, prior_cov=np.diag(lam * lam), noise_cov=np.eye(3))
        assert mutual_information(channel) == 0.0

    def test_zero_scale_drops_its_column(self):
        rng = np.random.default_rng(19)
        x = rng.standard_normal((7, 5))
        lam = np.array([0.7, 0.0, 2.5, 0.0, 1.1])
        kept = lam > 0
        full = regression_mi(RidgeModel(design=x * lam, noise_var=0.6, prior_var=1.0))
        narrow = regression_mi(RidgeModel(design=x[:, kept] * lam[kept], noise_var=0.6,
                                          prior_var=1.0))
        np.testing.assert_allclose(full, narrow, rtol=1e-12)

    @pytest.mark.parametrize("c", [1e-3, 3.0, 1e3])
    def test_design_prior_and_noise_scales_trade_off(self, c):
        # the information depends on (tau^2 / sigma^2) s_j^2 only
        x = np.random.default_rng(23).standard_normal((6, 4))
        scaled_design = regression_mi(RidgeModel(design=c * x, noise_var=1.5, prior_var=0.4))
        scaled_prior = regression_mi(RidgeModel(design=x, noise_var=1.5, prior_var=0.4 * c * c))
        scaled_noise = regression_mi(RidgeModel(design=x, noise_var=1.5 / (c * c), prior_var=0.4))
        np.testing.assert_allclose(scaled_design, scaled_prior, rtol=1e-12)
        np.testing.assert_allclose(scaled_design, scaled_noise, rtol=1e-12)

    @pytest.mark.parametrize("lam", [[1e200, 1.0], [1e200, 1e200]])
    def test_scale_without_a_finite_square_is_input_error(self, lam):
        with pytest.raises(InputError, match=r"^snr_trace must be finite, got inf$"):
            RidgeModel(design=np.eye(2) * lam, noise_var=1.0, prior_var=1.0)

    def test_memory_stays_near_the_design_size(self):
        x = np.random.default_rng(5).standard_normal((2000, 200))
        lam = np.abs(np.random.default_rng(6).standard_cauchy(200))
        scaled = x * (lam / lam.max())
        tracemalloc.start()
        try:
            regression_mi(RidgeModel(design=scaled, noise_var=1.0, prior_var=lam.max() ** 2))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * x.nbytes


class TestRandomDeffDistribution:
    def test_non_finite_draws_raise_numerical_error(self):
        # Gamma(0.005) draws underflow to 0, so scales of inf enter the mean
        model = ScalarShrinkageModel(prior=InverseGammaMixture(dof=0.01), n=100)
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

    @staticmethod
    def block_list_summary(m, samples, seed) -> tuple:
        """The summary from joined per-block arrays and a sorted copy, in hex."""
        def worker(rng, size):
            lam = m.prior.sample(rng, size)
            return np.log1p(m.c_snr * lam * lam) / math.log(m.n)

        values = np.concatenate(
            seeded_blocks(worker, samples, FLAT_BLOCK, seed, STREAM_DEFF_DIST))
        acc = MomentAccumulator.from_block(values)
        ordered = np.sort(values)
        return (acc.mean.hex(), math.sqrt(acc.variance).hex(),
                *(float(ordered[math.ceil(q * samples) - 1]).hex() for q in QUANTILE_LEVELS))

    @pytest.mark.parametrize("samples", [65_537, 300_001])
    @pytest.mark.parametrize("prior", [HalfCauchy(1.0), InverseGammaMixture(dof=3.0)],
                             ids=["half-cauchy", "student-t"])
    def test_one_buffer_matches_the_block_list_at_any_thread_count(self, prior, samples):
        m = ScalarShrinkageModel(prior=prior, noise_var=1.0, n=100)
        expected = self.block_list_summary(m, samples, seed=13)
        for threads in (1, 2):
            s = random_deff_distribution(m, samples, seed=13, n_threads=threads)
            got = (s.mean.hex(), s.sd.hex(), *(s.quantiles[q].hex() for q in QUANTILE_LEVELS))
            assert got == expected, threads

    @pytest.mark.parametrize("threads", [1, 2])
    def test_peak_memory_is_one_sample_and_a_half(self, threads):
        m = ScalarShrinkageModel(prior=InverseGammaMixture(dof=3.0), noise_var=1.0, n=100)
        samples = 2_000_000
        tracemalloc.start()
        try:
            random_deff_distribution(m, samples, seed=2, n_threads=threads)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # joined blocks, an array of squares and a sorted copy peak at 2.00x
        assert peak <= 1.65 * 8 * samples

    def test_peak_memory_is_the_sample(self):
        m = ScalarShrinkageModel(prior=InverseGammaMixture(dof=3.0), noise_var=1.0, n=100)
        samples = 2_000_000
        tracemalloc.start()
        try:
            random_deff_distribution(m, samples, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the moments' scratch is strip-sized (a half-length buffer read 1.51x);
        # two threads read up to 1.14x, with two blocks' prior draws alive at once
        assert peak <= 1.1 * 8 * samples
