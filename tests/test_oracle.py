"""Monte Carlo oracles: exactness cases, coverage, and determinism."""

import math
import tracemalloc

import numpy as np
import pytest

from effdim import (
    FixedScale,
    GaussianChannel,
    GaussianDistribution,
    HalfCauchy,
    InverseGammaMixture,
    ScalarShrinkageModel,
    estimate_channel_mi,
    estimate_gaussian_kl,
    estimate_mixture_marginal_mi,
    gaussian_kl,
    mutual_information,
)
from effdim import linalg
from effdim.errors import DimensionMismatch, InputError, InsufficientSamples
from effdim.oracle import _log_mixture_marginal
from effdim.sampling import FLAT_BLOCK, NESTED_OUTER_BLOCK

from conftest import random_channel, random_covariance


class TestChannelMiOracle:
    def test_zero_prior_exact_zero(self):
        ch = GaussianChannel(a=[[1.0]], prior_cov=[[0.0]], noise_cov=[[1.0]])
        est = estimate_channel_mi(ch, 10_000, seed=1)
        assert est.estimate == 0.0
        assert est.std_error == 0.0

    def test_scalar_channel_within_three_se(self):
        ch = GaussianChannel(a=[[1.0]], prior_cov=[[1.0]], noise_cov=[[1.0]])
        est = estimate_channel_mi(ch, 1_000_000, seed=42)
        assert abs(est.estimate - 0.5 * math.log(2.0)) <= 3.0 * est.std_error

    def test_random_channel_matches_closed_form(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 3))
        ch = GaussianChannel(a=a, prior_cov=np.eye(3), noise_cov=np.eye(4))
        est = estimate_channel_mi(ch, 1_000_000, seed=7)
        assert abs(est.estimate - mutual_information(ch)) <= 3.0 * est.std_error

    def test_location_sufficient_statistic_channel(self):
        # d=3 location model at n=100: the reduced experiment through the
        # sample mean carries the full information (3/2) ln(101)
        ch = GaussianChannel(
            a=np.eye(3), prior_cov=np.eye(3), noise_cov=0.01 * np.eye(3)
        )
        est = estimate_channel_mi(ch, 1_000_000, seed=30)
        assert abs(est.estimate - 1.5 * math.log(101.0)) <= 3.0 * est.std_error

    def test_minimum_samples_enforced(self):
        ch = GaussianChannel(a=[[1.0]], prior_cov=[[1.0]], noise_cov=[[1.0]])
        with pytest.raises(InsufficientSamples):
            estimate_channel_mi(ch, 9_999, seed=0)

    def test_three_se_coverage_over_seeds(self):
        # unbiased estimator: the closed form should land inside +/- 3 SE in
        # at least 47 of 50 independent runs (99.7% per-run coverage)
        ch = GaussianChannel(a=[[1.0]], prior_cov=[[1.0]], noise_cov=[[1.0]])
        truth = mutual_information(ch)
        hits = 0
        for seed in range(50):
            est = estimate_channel_mi(ch, 10_000, seed=seed)
            if abs(est.estimate - truth) <= 3.0 * est.std_error:
                hits += 1
        assert hits >= 47


class TestGaussianKlOracle:
    def test_prior_equals_posterior(self):
        q = GaussianDistribution(mean=np.zeros(2), cov=np.eye(2))
        est = estimate_gaussian_kl(q, np.eye(2), 100_000, seed=3)
        assert abs(est.estimate) <= 3.0 * est.std_error

    def test_scalar_mean_shift(self):
        q = GaussianDistribution(mean=[1.0], cov=[[1.0]])
        est = estimate_gaussian_kl(q, [[1.0]], 1_000_000, seed=4)
        assert abs(est.estimate - 0.5) <= 3.0 * est.std_error

    def test_random_instance_matches_closed_form(self):
        rng = np.random.default_rng(5)
        cov = random_covariance(rng, 3)
        prior = random_covariance(rng, 3)
        q = GaussianDistribution(mean=rng.standard_normal(3), cov=cov)
        est = estimate_gaussian_kl(q, prior, 1_000_000, seed=5)
        assert abs(est.estimate - gaussian_kl(q, prior)) <= 3.0 * est.std_error

    def test_minimum_samples_enforced(self):
        q = GaussianDistribution(mean=[0.0], cov=[[1.0]])
        with pytest.raises(InsufficientSamples):
            estimate_gaussian_kl(q, [[1.0]], 100, seed=0)

    def test_prior_dimension_checked(self):
        q = GaussianDistribution(mean=np.zeros(2), cov=np.eye(2))
        with pytest.raises(DimensionMismatch, match="prior covariance has shape"):
            estimate_gaussian_kl(q, [[1.0]], 10_000, seed=0)

    def test_non_pd_prior_is_input_error(self):
        q = GaussianDistribution(mean=np.zeros(2), cov=np.eye(2))
        with pytest.raises(InputError, match="prior covariance is not positive definite"):
            estimate_gaussian_kl(q, np.diag([1.0, -1.0]), 10_000, seed=0)


class TestWhitening:
    """Each flat oracle inverts its two factors once per call, not per block."""

    @pytest.fixture()
    def solves(self, monkeypatch):
        calls = []
        original = linalg.solve_lower

        def counting(lower, b):
            calls.append(np.shape(b))
            return original(lower, b)

        monkeypatch.setattr(linalg, "solve_lower", counting)
        return calls

    def test_channel_mi_solves_once_per_call(self, solves):
        ch = random_channel(np.random.default_rng(8))
        estimate_channel_mi(ch, 3 * FLAT_BLOCK, seed=8, n_threads=2)
        assert solves == [(ch.n_obs, ch.n_obs)] * 2

    def test_gaussian_kl_solves_once_per_call(self, solves):
        rng = np.random.default_rng(9)
        q = GaussianDistribution(mean=rng.standard_normal(3), cov=random_covariance(rng, 3))
        estimate_gaussian_kl(q, random_covariance(rng, 3), 3 * FLAT_BLOCK, seed=9)
        assert solves == [(3, 3)] * 2


class TestMixtureMarginalOracle:
    def test_fixed_prior_matches_channel_oracle(self):
        m = ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=1.0, n=1)
        est = estimate_mixture_marginal_mi(m, 20_000, 10_000, seed=9)
        chan = estimate_channel_mi(
            GaussianChannel(a=[[1.0]], prior_cov=[[1.0]], noise_cov=[[1.0]]),
            20_000, seed=9,
        )
        pooled = math.hypot(est.std_error, chan.std_error)
        assert abs(est.estimate - chan.estimate) <= 3.0 * pooled
        assert est.inner_samples == 10_000

    def test_student_t_below_jensen_plus_slack(self):
        m = ScalarShrinkageModel(
            prior=InverseGammaMixture(dof=4.0, scale_sq=1.0), noise_var=1.0, n=1
        )
        est = estimate_mixture_marginal_mi(m, 20_000, 20_000, seed=13)
        jensen = 0.5 * math.log(3.0)  # E[lam^2] = 2 at nu=4, s2=1
        assert est.estimate <= jensen + 3.0 * est.std_error + 0.01

    def test_half_cauchy_respects_chain_bound(self):
        from effdim import HalfCauchy, chain_decomposition

        m = ScalarShrinkageModel(prior=HalfCauchy(1.0), noise_var=1.0, n=1)
        est = estimate_mixture_marginal_mi(m, 20_000, 20_000, seed=15)
        chain = chain_decomposition(m, 20_000, 20_000, seed=15)
        # shared sweep: the marginal estimate is the chain's first component
        assert est.estimate == chain.i_theta_y.estimate
        slack = 3.0 * math.sqrt(
            est.std_error**2
            + chain.i_lambda_y.std_error**2
            + chain.e_cond_mi.std_error**2
        ) + 0.01
        assert est.estimate <= chain.i_lambda_y.estimate + chain.e_cond_mi.estimate + slack

    def test_minimum_samples_enforced(self):
        m = ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=1.0, n=1)
        with pytest.raises(InsufficientSamples):
            estimate_mixture_marginal_mi(m, 100, 10_000, seed=0)
        with pytest.raises(InsufficientSamples):
            estimate_mixture_marginal_mi(m, 10_000, 100, seed=0)


def _mixture_args(variances):
    """Kernel arguments (neg_half_prec, log_norm) for component variances."""
    v = np.asarray(variances, dtype=float)
    return -0.5 / v, -0.5 * np.log(2.0 * math.pi * v)


def _reference_marginal(y, neg_half_prec, log_norm):
    """Row-by-row log-mean-exp through numpy's logaddexp over the whole row."""
    return np.array([
        np.logaddexp.reduce(yi * yi * neg_half_prec + log_norm) for yi in y
    ]) - math.log(neg_half_prec.size)


def _scale_mixture_inputs(prior, n_outer, n_inner, seed):
    """Outer observations and inner components of a unit-noise scale mixture."""
    rng = np.random.default_rng(seed)
    lam = prior.sample(rng, n_inner)
    outer = prior.sample(rng, n_outer)
    y = outer * rng.standard_normal(n_outer) + rng.standard_normal(n_outer)
    return (y, *_mixture_args(lam * lam + 1.0))


class TestMixtureKernel:
    @pytest.mark.parametrize("prior", [InverseGammaMixture(dof=3.0), HalfCauchy(1.0)],
                             ids=["student-t", "half-cauchy"])
    @pytest.mark.parametrize("shape", [(NESTED_OUTER_BLOCK, 20_000), (37, 10_001)],
                             ids=["block", "ragged"])
    def test_matches_logaddexp_over_whole_row(self, prior, shape):
        y, prec, log_norm = _scale_mixture_inputs(prior, *shape, seed=21)
        y[:3] = [0.0, 1e-160, 1e154]
        out = _log_mixture_marginal(y, prec, log_norm)
        ref = _reference_marginal(y, prec, log_norm)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=0.0)

    def test_two_point_mixture_at_extreme_scales(self):
        prec, log_norm = _mixture_args([1e-150, 1e150])
        y = np.array([0.0, 1e-160, 1.0, 1e75, 1e150, 1e154])
        # y^2 / (2 v) overflows to inf for the narrow component at large y,
        # and its density to exactly 0, which is the correct limit
        with np.errstate(over="ignore", under="ignore"):
            out = _log_mixture_marginal(y, prec, log_norm)
            ref = _reference_marginal(y, prec, log_norm)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=0.0)

    def test_degenerate_mixture_is_its_component_bit_for_bit(self):
        v = 1.0 + 0.25**2
        prec, log_norm = _mixture_args(np.full(10_001, v))
        y = np.array([0.0, 0.3, math.sqrt(v), 2.0, 1e3, -7.5])
        out = _log_mixture_marginal(y, prec, log_norm)
        assert np.array_equal(out, y * y * prec[0] + log_norm[0])

    def test_scratch_stays_cache_sized(self):
        y, prec, log_norm = _scale_mixture_inputs(
            InverseGammaMixture(dof=3.0), NESTED_OUTER_BLOCK, 20_000, seed=22)
        tracemalloc.start()
        try:
            _log_mixture_marginal(y, prec, log_norm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20


class TestDeterminism:
    def test_bit_identical_reruns(self):
        rng = np.random.default_rng(11)
        ch = random_channel(rng)
        a = estimate_channel_mi(ch, 50_000, seed=123)
        b = estimate_channel_mi(ch, 50_000, seed=123)
        assert (a.estimate, a.std_error, a.n_samples) == (b.estimate, b.std_error, b.n_samples)

    def test_thread_count_does_not_change_results(self):
        rng = np.random.default_rng(13)
        ch = random_channel(rng)
        serial = estimate_channel_mi(ch, 300_000, seed=7)
        threaded = estimate_channel_mi(ch, 300_000, seed=7, n_threads=8)
        assert serial.estimate == threaded.estimate
        assert serial.std_error == threaded.std_error

    def test_nested_thread_independence(self):
        m = ScalarShrinkageModel(
            prior=InverseGammaMixture(dof=4.0, scale_sq=1.0), noise_var=1.0, n=1
        )
        one = estimate_mixture_marginal_mi(m, 20_000, 10_000, seed=3, n_threads=1)
        many = estimate_mixture_marginal_mi(m, 20_000, 10_000, seed=3, n_threads=4)
        assert one.estimate == many.estimate
        assert one.std_error == many.std_error

    def test_different_seeds_differ(self):
        ch = GaussianChannel(a=[[1.0]], prior_cov=[[1.0]], noise_cov=[[1.0]])
        a = estimate_channel_mi(ch, 20_000, seed=1)
        b = estimate_channel_mi(ch, 20_000, seed=2)
        assert a.estimate != b.estimate
