"""Mixing laws: moments, tail certificates, and sampler behavior."""

import math
import sys

import numpy as np
import pytest

from effdim import (
    FixedScale,
    ShrinkagePrior,
    HalfCauchy,
    InverseGammaMixture,
    ScalarShrinkageModel,
    TabulatedPrior,
    TailCertificate,
)
from effdim.errors import DimensionMismatch, InputError


def test_base_prior_has_no_sampler():
    with pytest.raises(NotImplementedError):
        ShrinkagePrior().sample(np.random.default_rng(0), 3)


class TestFixedScale:
    def test_moment_and_samples(self):
        prior = FixedScale(tau=0.7)
        assert prior.second_moment == pytest.approx(0.49)
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(prior.sample(rng, 5), np.full(5, 0.7))
        assert prior.tail_certificate is None

    def test_positive_scale_required(self):
        with pytest.raises(InputError):
            FixedScale(tau=0.0)


class TestInverseGammaMixture:
    def test_second_moment_formula(self):
        assert InverseGammaMixture(dof=4.0, scale_sq=1.0).second_moment == pytest.approx(2.0)
        assert InverseGammaMixture(dof=5.0, scale_sq=2.0).second_moment == pytest.approx(10.0 / 3.0)

    def test_heavy_dof_has_infinite_moment(self):
        assert math.isinf(InverseGammaMixture(dof=2.0, scale_sq=1.0).second_moment)
        assert math.isinf(InverseGammaMixture(dof=1.0, scale_sq=1.0).second_moment)

    def test_sample_moment_matches(self):
        prior = InverseGammaMixture(dof=6.0, scale_sq=1.0)
        rng = np.random.default_rng(11)
        lam = prior.sample(rng, 400_000)
        # E[lam^2] = 6/4 = 1.5; Monte Carlo agreement at 4 sigma
        m2 = lam * lam
        se = m2.std(ddof=1) / math.sqrt(m2.size)
        assert abs(m2.mean() - 1.5) < 4 * se

    def test_marginal_is_student_t(self):
        # theta = lam * z should have Student-t tail behavior; check the
        # variance identity Var(theta) = E[lam^2] for nu=6
        prior = InverseGammaMixture(dof=6.0, scale_sq=1.0)
        rng = np.random.default_rng(12)
        lam = prior.sample(rng, 400_000)
        theta = lam * rng.standard_normal(lam.size)
        se = (theta**2).std(ddof=1) / math.sqrt(theta.size)
        assert abs((theta**2).mean() - prior.second_moment) < 4 * se

    @pytest.mark.parametrize("shape", [0.05, 0.5, 1.0, 1.5, 50.0])
    def test_draws_are_numpys_unit_scale_gamma(self, shape):
        # numpy's gamma is scale * standard_gamma on the same stream, so the
        # sampler's standard_gamma keeps the bits of gamma(scale=1.0)
        gamma = np.random.default_rng(7).gamma(shape=shape, scale=1.0, size=10_000)
        standard = np.random.default_rng(7).standard_gamma(shape, 10_000)
        assert standard.tobytes() == gamma.tobytes()
        lam = InverseGammaMixture(dof=2.0 * shape, scale_sq=3.0).sample(
            np.random.default_rng(7), 10_000)
        with np.errstate(over="ignore", divide="ignore"):
            expected = np.sqrt(np.divide(3.0 * shape, gamma))
        finite = np.isfinite(expected)
        assert lam[finite].tobytes() == expected[finite].tobytes()


class TestHalfCauchy:
    def test_infinite_second_moment(self):
        assert math.isinf(HalfCauchy(1.0).second_moment)

    def test_certificate_constants(self):
        cert = HalfCauchy(1.0).tail_certificate
        assert cert.c_const == pytest.approx(2.0 / math.pi)
        assert cert.alpha_exp == 1.0
        assert cert.t0 == 1.0
        cert3 = HalfCauchy(3.0).tail_certificate
        assert cert3.c_const == pytest.approx(6.0 / math.pi)

    def test_certificate_is_valid_tail_bound(self):
        # P(lam >= t) = (2/pi) arctan(tau_g / t) <= C t^-alpha for t >= 1
        for tau_g in (0.5, 1.0, 2.0):
            cert = HalfCauchy(tau_g).tail_certificate
            for t in np.linspace(1.0, 50.0, 200):
                exact = (2.0 / math.pi) * math.atan(tau_g / t)
                assert exact <= cert.c_const * t ** (-cert.alpha_exp) + 1e-15

    def test_tail_constant_has_the_bits_of_two_tau_over_pi(self):
        # tau / (pi / 2) and 2 tau / pi are one rounding of the same real
        # (pi / 2 and 2 tau are exact), so they agree wherever 2 tau is finite
        scales = 10.0 ** np.random.default_rng(41).uniform(-323.3, 307.95, 20_000)
        for tau_g in [*scales.tolist(), 5e-324, 2.2250738585072014e-308, 8.98e307]:
            assert HalfCauchy(tau_g).tail_certificate.c_const == 2.0 * tau_g / math.pi, tau_g

    @pytest.mark.parametrize("tau_g", [1e308, sys.float_info.max])
    def test_tail_constant_is_finite_up_to_the_float_maximum(self, tau_g):
        # 2 tau overflows here; tau / (pi / 2) is below tau
        c_const = HalfCauchy(tau_g).tail_certificate.c_const
        assert math.isfinite(c_const) and c_const == tau_g / (math.pi / 2)

    def test_certificate_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            HalfCauchy(1.0, tail_certificate=TailCertificate(c_const=9.0, alpha_exp=1.0))

    def test_zero_global_scale_rejected(self):
        with pytest.raises(InputError, match=r"^global_scale must be finite and positive, got 0\.0$"):
            HalfCauchy(global_scale=0.0)

    def test_median_is_global_scale(self):
        rng = np.random.default_rng(5)
        lam = HalfCauchy(2.0).sample(rng, 200_000)
        assert np.median(lam) == pytest.approx(2.0, rel=0.02)


class TestTabulatedPrior:
    def test_samples_from_table(self):
        prior = TabulatedPrior(table=[0.0, 1.0, 2.0])
        rng = np.random.default_rng(1)
        lam = prior.sample(rng, 1000)
        assert set(np.unique(lam)) <= {0.0, 1.0, 2.0}
        assert prior.second_moment == pytest.approx(5.0 / 3.0)

    def test_square_past_the_float_range_gives_an_infinite_moment_silently(self):
        # the suite's warning filter turns numpy's overflow warning into an error
        assert TabulatedPrior(table=[1e200, 1.0]).second_moment == math.inf

    def test_rejects_bad_tables(self):
        with pytest.raises(InputError):
            TabulatedPrior(table=[])
        with pytest.raises(InputError):
            TabulatedPrior(table=[-1.0])
        with pytest.raises(InputError):
            TabulatedPrior(table=[np.inf])
        with pytest.raises(DimensionMismatch):
            TabulatedPrior(table=[[1.0, 2.0], [3.0, 4.0]])


class TestTailCertificate:
    def test_validation(self):
        with pytest.raises(InputError):
            TailCertificate(c_const=0.0, alpha_exp=1.0)
        with pytest.raises(InputError):
            TailCertificate(c_const=1.0, alpha_exp=1.0, t0=0.5)


class TestModels:
    def test_scalar_model_snr(self):
        m = ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=0.5, n=10)
        assert m.c_snr == pytest.approx(20.0)
        assert m.obs_var == pytest.approx(0.05)

    def test_scalar_model_validation(self):
        with pytest.raises(InputError):
            ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=0.0, n=10)
        with pytest.raises(InputError):
            ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=1.0, n=0)

    @pytest.mark.parametrize("build", [
        lambda bad: FixedScale(bad),
        lambda bad: InverseGammaMixture(dof=bad, scale_sq=1.0),
        lambda bad: InverseGammaMixture(dof=3.0, scale_sq=bad),
        lambda bad: HalfCauchy(bad),
        lambda bad: TailCertificate(c_const=bad, alpha_exp=1.0),
        lambda bad: ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=bad, n=10),
    ], ids=["fixed", "t-dof", "t-scale", "half-cauchy", "certificate", "model"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_parameters_rejected(self, build, bad):
        with pytest.raises(InputError, match="must be finite"):
            build(bad)

    def test_overflowing_snr_rejected(self):
        with pytest.raises(InputError, match="c_snr must be finite"):
            ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=1e-320, n=10)
