"""Monte Carlo oracles: exactness cases, coverage, and determinism."""

import importlib
import math
import re
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from effdim import (
    FixedScale,
    GaussianChannel,
    GaussianDistribution,
    HalfCauchy,
    InverseGammaMixture,
    ScalarShrinkageModel,
    chain_decomposition,
    estimate_channel_mi,
    estimate_gaussian_kl,
    estimate_mixture_marginal_mi,
    expected_conditional_mi,
    gaussian_kl,
    mutual_information,
    random_deff_distribution,
)
from effdim import linalg, oracle, sampling
from effdim.errors import DimensionMismatch, InputError, InsufficientSamples
from effdim.oracle import McEstimate, _log_mixture_marginal, block_mean, seeded_blocks
from effdim.sampling import FLAT_BLOCK, NESTED_OUTER_BLOCK, block_rng

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
    """Each flat oracle runs one triangular solve per call, not per block."""

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
        assert solves == [(ch.n_obs, 1 + ch.dim + ch.n_obs)]

    def test_gaussian_kl_solves_once_per_call(self, solves):
        rng = np.random.default_rng(9)
        q = GaussianDistribution(mean=rng.standard_normal(3), cov=random_covariance(rng, 3))
        estimate_gaussian_kl(q, random_covariance(rng, 3), 3 * FLAT_BLOCK, seed=9)
        assert solves == [(3, 1 + 3)]


def _block_values(monkeypatch, estimate, size):
    """Per-sample log ratios of block 0 of ``estimate()``, and that block's generator."""
    captured = {}

    def capture(values, n_samples, seed, stream, n_threads):
        captured.update(values=values, seed=seed, stream=stream)
        return McEstimate(estimate=0.0, std_error=0.0, n_samples=n_samples, seed=seed)

    monkeypatch.setattr(oracle, "block_mean", capture)
    estimate()
    values = captured["values"](block_rng(captured["seed"], captured["stream"], 0), size)
    return values, block_rng(captured["seed"], captured["stream"], 0)


def _assert_log_ratio(values, log_p, log_q):
    # a difference of two logs is exact only to the rounding of its terms
    np.testing.assert_array_less(np.abs(values - (log_p - log_q)),
                                 1e-12 * (np.abs(log_p) + np.abs(log_q)))


class TestLogRatioSecondRoute:
    """Per-sample values equal log N(x; m_p, S_p) - log N(x; m_q, S_q) evaluated directly."""

    def test_channel_block(self, monkeypatch):
        from scipy.stats import multivariate_normal

        ch = random_channel(np.random.default_rng(21), max_dim=8)
        size = 2048
        values, rng = _block_values(
            monkeypatch, lambda: estimate_channel_mi(ch, FLAT_BLOCK, seed=21), size)
        signal = rng.standard_normal((size, ch.dim)) @ linalg.psd_sqrt(ch.prior_cov) @ ch.a.T
        y = signal + rng.standard_normal((size, ch.n_obs)) @ ch.noise_lower.T
        marginal = ch.a @ ch.prior_cov @ ch.a.T + ch.noise_cov
        log_p = multivariate_normal(np.zeros(ch.n_obs), ch.noise_cov).logpdf(y - signal)
        log_q = multivariate_normal(np.zeros(ch.n_obs), marginal).logpdf(y)
        _assert_log_ratio(values, log_p, log_q)

    def test_gaussian_kl_block(self, monkeypatch):
        from scipy.stats import multivariate_normal

        rng = np.random.default_rng(22)
        q = GaussianDistribution(mean=rng.standard_normal(5), cov=random_covariance(rng, 5))
        prior = random_covariance(rng, 5)
        size = 2048
        values, rng = _block_values(
            monkeypatch, lambda: estimate_gaussian_kl(q, prior, FLAT_BLOCK, seed=22), size)
        x = q.mean + rng.standard_normal((size, q.dim)) @ q.lower.T
        log_p = multivariate_normal(q.mean, q.cov).logpdf(x)
        log_q = multivariate_normal(np.zeros(q.dim), prior).logpdf(x)
        _assert_log_ratio(values, log_p, log_q)


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


def _fsum_marginal(y, neg_half_prec, log_norm):
    """Row-by-row log-mean-exp with one exp per component and an exact sum."""
    out = []
    for yi in y:
        f = yi * yi * neg_half_prec + log_norm
        top = f.max()
        out.append(top + math.log(math.fsum(np.exp(f - top)) / neg_half_prec.size))
    return np.array(out)


def _scale_mixture_inputs(prior, n_outer, n_inner, seed):
    """Outer observations and inner components of a unit-noise scale mixture."""
    rng = np.random.default_rng(seed)
    lam = prior.sample(rng, n_inner)
    outer = prior.sample(rng, n_outer)
    y = outer * rng.standard_normal(n_outer) + rng.standard_normal(n_outer)
    return (y, *_mixture_args(lam * lam + 1.0))


PRIORS = pytest.mark.parametrize("prior", [InverseGammaMixture(dof=3.0), HalfCauchy(1.0)],
                                 ids=["student-t", "half-cauchy"])
SHAPES = pytest.mark.parametrize("shape", [(NESTED_OUTER_BLOCK, 20_000), (37, 10_001)],
                                 ids=["block", "ragged"])


class TestMixtureKernel:
    @PRIORS
    @SHAPES
    def test_matches_logaddexp_over_whole_row(self, prior, shape):
        y, prec, log_norm = _scale_mixture_inputs(prior, *shape, seed=21)
        y[:3] = [0.0, 1e-160, 1e154]
        out = _log_mixture_marginal(y, prec, log_norm)
        # logaddexp's own rounding grows along the row, hence the loose bound
        np.testing.assert_allclose(out, _reference_marginal(y, prec, log_norm),
                                   rtol=1e-12, atol=0.0)

    @PRIORS
    @SHAPES
    def test_within_a_few_ulps_of_an_exact_sum(self, prior, shape):
        # truncation and dropped components stay below 2^-60 of the row sum,
        # so what is left is the rounding of about a dozen operations
        y, prec, log_norm = _scale_mixture_inputs(prior, *shape, seed=21)
        y[:3] = [0.0, 1e-160, 1e5]
        exact = _fsum_marginal(y, prec, log_norm)
        out = _log_mixture_marginal(y, prec, log_norm)
        assert np.all(np.abs(out - exact) <= 32 * np.spacing(np.maximum(np.abs(exact), 1.0)))

    @PRIORS
    def test_each_row_alone_equals_its_row_in_the_block(self, prior):
        y, prec, log_norm = _scale_mixture_inputs(prior, NESTED_OUTER_BLOCK, 20_000, seed=21)
        y[:3] = [0.0, 1e-160, 1e154]
        tables = oracle._mixture_tables(prec, log_norm)
        block = _log_mixture_marginal(y, prec, log_norm, tables)
        alone = np.concatenate([_log_mixture_marginal(row, prec, log_norm, tables)
                                for row in np.split(y, y.size)])
        assert alone.tobytes() == block.tobytes()
        halves = np.concatenate([_log_mixture_marginal(y[:100], prec, log_norm, tables),
                                 _log_mixture_marginal(y[100:], prec, log_norm, tables)])
        assert halves.tobytes() == block.tobytes()

    @PRIORS
    def test_component_order_does_not_change_a_bit(self, prior):
        y, prec, log_norm = _scale_mixture_inputs(prior, NESTED_OUTER_BLOCK, 20_000, seed=23)
        order = np.argsort(-0.5 / prec)  # ascending variance
        shuffle = np.random.default_rng(4).permutation(prec.size)
        shuffled = _log_mixture_marginal(y, prec, log_norm)
        ordered = _log_mixture_marginal(y, prec[order], log_norm[order])
        reshuffled = _log_mixture_marginal(y, prec[shuffle], log_norm[shuffle])
        assert ordered.tobytes() == shuffled.tobytes() == reshuffled.tobytes()

    def test_prebuilt_tables_give_the_same_bits(self):
        y, prec, log_norm = _scale_mixture_inputs(HalfCauchy(1.0), 64, 10_000, seed=24)
        tables = oracle._mixture_tables(prec, log_norm)
        assert (_log_mixture_marginal(y, prec, log_norm, tables).tobytes()
                == _log_mixture_marginal(y, prec, log_norm).tobytes())

    def test_two_point_mixture_at_extreme_scales(self):
        prec, log_norm = _mixture_args([1e-150, 1e150])
        y = np.array([0.0, 1e-160, 1.0, 1e75, 1e150, 1e154])
        # y^2 / (2 v) overflows to inf for the narrow component at large y,
        # and its density to exactly 0, which is the correct limit
        out = _log_mixture_marginal(y, prec, log_norm)
        with np.errstate(over="ignore", under="ignore"):
            ref = _reference_marginal(y, prec, log_norm)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=0.0)

    def test_degenerate_mixture_is_its_component_bit_for_bit(self):
        v = 1.0 + 0.25**2
        prec, log_norm = _mixture_args(np.full(10_001, v))
        y = np.array([0.0, 0.3, math.sqrt(v), 2.0, 1e3, -7.5, 1e154])
        out = _log_mixture_marginal(y, prec, log_norm)
        assert out.tobytes() == (y * y * prec[0] + log_norm[0]).tobytes()

    def test_zero_weight_components_count_in_k_only(self):
        y, prec, log_norm = _scale_mixture_inputs(InverseGammaMixture(dof=3.0), 64, 1_000, seed=25)
        with np.errstate(divide="ignore"):
            wide_prec, wide_norm = _mixture_args(np.full(3, np.inf))
        out = _log_mixture_marginal(y, np.append(prec, wide_prec), np.append(log_norm, wide_norm))
        np.testing.assert_allclose(
            out, _log_mixture_marginal(y, prec, log_norm) + math.log(1_000 / 1_003),
            rtol=1e-14, atol=1e-14)
        assert np.array_equal(_log_mixture_marginal(y, wide_prec, wide_norm),
                              np.full(y.size, -np.inf))

    def test_non_finite_square_gives_nan(self):
        y, prec, log_norm = _scale_mixture_inputs(HalfCauchy(1.0), 4, 1_000, seed=26)
        y[:3] = [1e155, np.inf, np.nan]
        out = _log_mixture_marginal(y, prec, log_norm)
        assert np.isnan(out[:3]).all() and np.isfinite(out[3])

    def test_constants_keep_both_bounds_below_two_to_the_minus_60(self):
        radius, terms = oracle.TAYLOR_RADIUS, oracle.TAYLOR_TERMS
        assert radius == 2.0 ** oracle.TAYLOR_RADIUS_LOG2
        assert radius**terms / math.factorial(terms) <= 2.0**-60  # truncation
        assert math.exp(-oracle.TAYLOR_CUT) <= 2.0**-60  # dropped components

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

    def test_nested_pass_bits_do_not_depend_on_threads(self):
        m = ScalarShrinkageModel(prior=HalfCauchy(1.0), noise_var=1.0, n=100)
        one = chain_decomposition(m, 20_000, 10_000, seed=5, n_threads=1)
        two = chain_decomposition(m, 20_000, 10_000, seed=5, n_threads=2)
        assert one == two

    def test_different_seeds_differ(self):
        ch = GaussianChannel(a=[[1.0]], prior_cov=[[1.0]], noise_cov=[[1.0]])
        a = estimate_channel_mi(ch, 20_000, seed=1)
        b = estimate_channel_mi(ch, 20_000, seed=2)
        assert a.estimate != b.estimate


class TestSeededBlocks:
    def test_blocks_in_order_with_their_own_generators(self):
        got = seeded_blocks(lambda rng, size: (size, rng.standard_normal(3)),
                            2 * FLAT_BLOCK + 5, FLAT_BLOCK, seed=4, stream=9, n_threads=2)
        assert [size for size, _ in got] == [FLAT_BLOCK, FLAT_BLOCK, 5]
        for b, (_, draws) in enumerate(got):
            np.testing.assert_array_equal(draws, block_rng(4, 9, b).standard_normal(3))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_each_block_fills_its_own_slice(self, threads):
        n = 2 * FLAT_BLOCK + 5
        out = np.full(n, np.nan)

        def fill(rng, dest):
            dest[:] = rng.standard_normal(dest.size)

        seeded_blocks(fill, n, FLAT_BLOCK, seed=4, stream=9, n_threads=threads, out=out)
        joined = np.concatenate(seeded_blocks(lambda rng, size: rng.standard_normal(size),
                                              n, FLAT_BLOCK, seed=4, stream=9))
        assert out.tobytes() == joined.tobytes()

    def test_block_mean_is_thread_independent(self):
        def values(rng, size):
            return rng.standard_normal(size)

        one = block_mean(values, 3 * FLAT_BLOCK + 1, seed=2, stream=9, n_threads=1)
        two = block_mean(values, 3 * FLAT_BLOCK + 1, seed=2, stream=9, n_threads=2)
        assert one == two and one.n_samples == 3 * FLAT_BLOCK + 1

    def test_shrinkage_blocks_are_seeded_through_oracle(self, monkeypatch):
        # the benchmark's spans count blocks at oracle.block_rng
        blocks = []
        original = oracle.block_rng

        def counting(seed, stream, block):
            blocks.append((stream, block))
            return original(seed, stream, block)

        monkeypatch.setattr(oracle, "block_rng", counting)
        m = ScalarShrinkageModel(prior=HalfCauchy(1.0), noise_var=1.0, n=10)
        expected_conditional_mi(m, 2 * FLAT_BLOCK + 1, seed=1, n_threads=2)
        random_deff_distribution(m, FLAT_BLOCK + 1, seed=1)
        assert [b for _, b in blocks] == [0, 1, 2, 0, 1]


def _channel():
    return GaussianChannel(a=[[1.0]], prior_cov=[[1.0]], noise_cov=[[1.0]])


def _model():
    return ScalarShrinkageModel(prior=HalfCauchy(1.0), noise_var=1.0, n=10)


class TestMinimumSamples:
    """Every estimator rejects a short run with the same message shape."""

    @pytest.mark.parametrize("call, message", [
        (lambda: estimate_channel_mi(_channel(), 9_999, seed=0),
         "channel MI oracle needs >= 10000 samples, got 9999"),
        (lambda: estimate_gaussian_kl(GaussianDistribution(mean=[0.0], cov=[[1.0]]), [[1.0]],
                                      100, seed=0),
         "Gaussian KL oracle needs >= 10000 samples, got 100"),
        (lambda: estimate_mixture_marginal_mi(_model(), 9_000, 10_000, seed=0),
         "nested estimator needs >= 10000 samples, got 9000"),
        (lambda: chain_decomposition(_model(), 10_000, 500, seed=0),
         "nested estimator needs >= 10000 inner_samples, got 500"),
        (lambda: expected_conditional_mi(_model(), 999, seed=0),
         "expected conditional MI needs >= 1000 samples, got 999"),
        (lambda: random_deff_distribution(_model(), 9_999, seed=0),
         "distribution summary needs >= 10000 samples, got 9999"),
        (lambda: McEstimate(estimate=0.0, std_error=0.0, n_samples=1, seed=0),
         "an estimate needs >= 2 n_samples, got 1"),
    ], ids=["channel-mi", "gaussian-kl", "mixture-outer", "chain-inner", "expected-mi",
            "deff-distribution", "estimate"])
    def test_short_run_rejected(self, call, message):
        with pytest.raises(InsufficientSamples, match=f"^{re.escape(message)}$"):
            call()

    def test_oversized_inner_count_rejected(self):
        with pytest.raises(InputError, match="^inner_samples is too large for an array index"):
            estimate_mixture_marginal_mi(_model(), 10_000, 10**30, seed=0)


def test_benchmark_hook_names_exist(monkeypatch):
    # bench/tracing.py looks every patched name up with vars(owner)[name], so
    # a refactor that drops one breaks the traced benchmark with a KeyError
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    try:
        tracing = importlib.import_module("tracing")
        with tracing.instrument(tracing.Tracer()):
            assert oracle.block_rng is not sampling.block_rng
    finally:
        for name in ("tracing", "harness", "workloads"):
            sys.modules.pop(name, None)
    assert oracle.block_rng is sampling.block_rng
