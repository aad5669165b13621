"""Independent Monte Carlo oracles for mutual information and Gaussian KL.

These estimators exist to validate every closed form in the library through a
second, sampling-based route. Mutual information is estimated as the expected
log-density ratio E[log p(y | theta) - log p(y)] over joint draws; for the
linear Gaussian channel both densities are analytic, so the estimator is
unbiased and its 3-standard-error band is an honest acceptance gate.

For scale-mixture models the marginal density is not available in closed
form; there the marginal is replaced by an inner Monte Carlo mixture average
over fresh scale draws. That estimator is consistent but biased (the log of
an unbiased average), which downstream acceptance checks absorb with a
documented bias allowance.

All routines follow the seed-partitioning contract in ``sampling``: fixed
block sizes, one sub-seed per block, ordered merges. Identical seeds and
sample counts reproduce estimates bit for bit, regardless of thread count.
Log densities are evaluated from Cholesky factors: each estimator inverts its
two lower factors once per call and whitens every block with a matrix
product, so no block runs a linear solve. Nothing is ever computed in non-log
space.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .approx import GaussianDistribution, _factor_prior
from .channel import GaussianChannel
from .errors import InsufficientSamples, NumericalError, require_index_count
from .priors import ScalarShrinkageModel
from .sampling import (
    FLAT_BLOCK,
    NESTED_INNER_CHUNK,
    NESTED_OUTER_BLOCK,
    NESTED_TILE_ROWS,
    STREAM_CHANNEL_MI,
    STREAM_GAUSSIAN_KL,
    STREAM_MIXTURE_INNER,
    STREAM_MIXTURE_OUTER,
    MomentAccumulator,
    block_rng,
    block_sizes,
    map_blocks,
    reduce_moments,
)

MIN_ORACLE_SAMPLES = 10_000


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo point estimate with its streaming standard error.

    ``std_error`` is the sample standard deviation divided by sqrt(n_samples).
    ``inner_samples`` is set only by nested estimators, recording the size of
    the inner mixture average.
    """

    estimate: float
    std_error: float
    n_samples: int
    seed: int
    inner_samples: int | None = None

    def __post_init__(self):
        if self.n_samples < 2:
            raise InsufficientSamples("an estimate needs at least 2 samples")
        if self.std_error < 0:
            raise NumericalError("standard error must be nonnegative")


def _estimate_from_moments(acc: MomentAccumulator, seed: int,
                           inner_samples: int | None = None) -> McEstimate:
    return McEstimate(
        estimate=acc.mean,
        std_error=acc.std_error,
        n_samples=acc.count,
        seed=seed,
        inner_samples=inner_samples,
    )


def estimate_channel_mi(
    ch: GaussianChannel, n_samples: int, seed: int, n_threads: int = 1
) -> McEstimate:
    """Unbiased MC estimate of the channel mutual information.

    Draws (theta, y) from the joint law and averages
    log p(y | theta) - log p(y), with p(y | theta) = N(A theta, noise_cov)
    and p(y) = N(0, A S A^T + noise_cov), both evaluated analytically.
    """
    if n_samples < MIN_ORACLE_SAMPLES:
        raise InsufficientSamples(
            f"channel MI oracle needs >= {MIN_ORACLE_SAMPLES} samples, got {n_samples}"
        )
    require_index_count(samples=n_samples)
    prior_root = linalg.psd_sqrt(ch.prior_cov)
    marginal = ch.a @ ch.prior_cov @ ch.a.T + ch.noise_cov
    marginal_lower = linalg.cholesky_lower(0.5 * (marginal + marginal.T), "output covariance")
    half_logdet_gap = 0.5 * (
        linalg.logdet_from_cholesky(marginal_lower) - linalg.logdet_from_cholesky(ch.noise_lower)
    )
    eye = np.eye(ch.n_obs)
    noise_inv = linalg.solve_lower(ch.noise_lower, eye)
    marginal_inv = linalg.solve_lower(marginal_lower, eye)
    sizes = block_sizes(n_samples, FLAT_BLOCK)

    def worker(b: int) -> MomentAccumulator:
        rng = block_rng(seed, STREAM_CHANNEL_MI, b)
        nb = sizes[b]
        theta = rng.standard_normal((nb, ch.dim)) @ prior_root
        noise = rng.standard_normal((nb, ch.n_obs)) @ ch.noise_lower.T
        signal = theta @ ch.a.T
        y = signal + noise
        resid_white = noise_inv @ (y - signal).T
        y_white = marginal_inv @ y.T
        contrib = half_logdet_gap + 0.5 * (
            np.sum(y_white * y_white, axis=0) - np.sum(resid_white * resid_white, axis=0)
        )
        return MomentAccumulator.from_block(contrib)

    acc = reduce_moments(map_blocks(worker, len(sizes), n_threads))
    return _estimate_from_moments(acc, seed)


def estimate_gaussian_kl(
    q: GaussianDistribution, prior_cov, n_samples: int, seed: int, n_threads: int = 1
) -> McEstimate:
    """Unbiased MC estimate of KL(q || N(0, prior_cov)).

    Samples x ~ q and averages log q(x) - log prior(x).
    """
    if n_samples < MIN_ORACLE_SAMPLES:
        raise InsufficientSamples(
            f"Gaussian KL oracle needs >= {MIN_ORACLE_SAMPLES} samples, got {n_samples}"
        )
    require_index_count(samples=n_samples)
    _, prior_lower = _factor_prior(prior_cov, q.dim)
    half_logdet_gap = 0.5 * (
        linalg.logdet_from_cholesky(prior_lower) - linalg.logdet_from_cholesky(q.lower)
    )
    eye = np.eye(q.dim)
    q_inv = linalg.solve_lower(q.lower, eye)
    prior_inv = linalg.solve_lower(prior_lower, eye)
    sizes = block_sizes(n_samples, FLAT_BLOCK)

    def worker(b: int) -> MomentAccumulator:
        rng = block_rng(seed, STREAM_GAUSSIAN_KL, b)
        x = q.mean + rng.standard_normal((sizes[b], q.dim)) @ q.lower.T
        centered_white = q_inv @ (x - q.mean).T
        prior_white = prior_inv @ x.T
        contrib = half_logdet_gap + 0.5 * (
            np.sum(prior_white * prior_white, axis=0)
            - np.sum(centered_white * centered_white, axis=0)
        )
        return MomentAccumulator.from_block(contrib)

    acc = reduce_moments(map_blocks(worker, len(sizes), n_threads))
    return _estimate_from_moments(acc, seed)


def _log_mixture_marginal(y: np.ndarray, neg_half_prec: np.ndarray,
                          log_norm: np.ndarray) -> np.ndarray:
    """log of the inner mixture average of scalar normal densities at y.

    Component k has log density f_k(y) = y^2 * neg_half_prec[k] + log_norm[k]
    with neg_half_prec = -1/(2 v_k) and log_norm = -1/2 log(2 pi v_k). Each row
    is shifted by a bound on its maximum found in closed form: as a function
    of v, f is unimodal with its peak -1/2 - 1/2 log(2 pi y^2) at v = y^2. If
    y^2 lies strictly inside [v_min, v_max] that peak is the shift; otherwise
    the shift is the nearest endpoint component's own log density. The shift
    is never below the row maximum, so no exp overflows, and at most about
    1/2 log(v_max / y^2) above it, so the leading term cannot underflow.

    With the shift known, one pass over NESTED_TILE_ROWS x NESTED_INNER_CHUNK
    tiles (multiply, add, subtract, exp, row sum) sums the exponentials; the
    chunk sums of a row add up in column order. For a given numpy build the
    result is fixed by the inputs and the tile constants, whatever thread
    runs it.
    """
    y_sq = y * y
    lo, hi = int(np.argmin(neg_half_prec)), int(np.argmax(neg_half_prec))
    v_min, v_max = -0.5 / neg_half_prec[lo], -0.5 / neg_half_prec[hi]
    peak = -0.5 - 0.5 * np.log(2.0 * math.pi * np.clip(y_sq, v_min, v_max))
    # a degenerate mixture (v_min == v_max) always takes an endpoint, so its
    # shift equals every component's log density bit for bit
    shift = np.where(y_sq <= v_min, y_sq * neg_half_prec[lo] + log_norm[lo],
                     np.where(y_sq >= v_max, y_sq * neg_half_prec[hi] + log_norm[hi], peak))
    k_total = neg_half_prec.size
    total = np.zeros(y.size)
    scratch = np.empty(min(NESTED_TILE_ROWS, y.size) * min(NESTED_INNER_CHUNK, k_total))
    for r0 in range(0, y.size, NESTED_TILE_ROWS):
        rows = slice(r0, r0 + NESTED_TILE_ROWS)
        strip_y_sq, strip_shift = y_sq[rows, None], shift[rows, None]
        for c0 in range(0, k_total, NESTED_INNER_CHUNK):
            cols = slice(c0, c0 + NESTED_INNER_CHUNK)
            prec = neg_half_prec[cols]
            tile = scratch[:strip_y_sq.size * prec.size].reshape(strip_y_sq.size, prec.size)
            np.multiply(strip_y_sq, prec, out=tile)
            tile += log_norm[cols]
            tile -= strip_shift
            np.exp(tile, out=tile)
            total[rows] += tile.sum(axis=1)
    # divide before the log: a degenerate mixture then hits log(1.0) == 0 and
    # cancels against the conditional density bit for bit
    return shift + np.log(total / float(k_total))


def _nested_mixture_pass(
    m: ScalarShrinkageModel,
    outer_samples: int,
    inner_samples: int,
    seed: int,
    n_threads: int = 1,
) -> tuple[MomentAccumulator, MomentAccumulator, MomentAccumulator]:
    """Shared nested-MC sweep over the scale-mixture experiment.

    One joint outer draw (lam_i, theta_i, y_i) feeds three streaming
    accumulators:

      t1 = log p(y | theta) - log phat(y)   -> marginal information about theta
      t2 = log p(y | lam)   - log phat(y)   -> information about the scale
      t3 = 1/2 log1p(c lam^2)               -> conditional information

    phat is the same inner mixture average in t1 and t2, so the estimators
    share its bias and the chain-rule comparison cancels it exactly.
    """
    if outer_samples < MIN_ORACLE_SAMPLES or inner_samples < MIN_ORACLE_SAMPLES:
        raise InsufficientSamples(
            f"nested estimator needs >= {MIN_ORACLE_SAMPLES} outer and inner samples"
        )
    require_index_count(samples=outer_samples, inner_samples=inner_samples)
    obs_var = m.obs_var
    c_snr = m.c_snr
    inner_blocks = block_sizes(inner_samples, FLAT_BLOCK)
    inner_lam = np.concatenate(
        [m.prior.sample(block_rng(seed, STREAM_MIXTURE_INNER, b), nb)
         for b, nb in enumerate(inner_blocks)]
    )
    mix_var = inner_lam * inner_lam + obs_var
    neg_half_prec = -0.5 / mix_var
    log_norm = -0.5 * np.log(2.0 * math.pi * mix_var)
    obs_sd = math.sqrt(obs_var)
    log_norm_cond = -0.5 * math.log(2.0 * math.pi * obs_var)
    sizes = block_sizes(outer_samples, NESTED_OUTER_BLOCK)

    def worker(b: int):
        rng = block_rng(seed, STREAM_MIXTURE_OUTER, b)
        nb = sizes[b]
        lam = m.prior.sample(rng, nb)
        theta = lam * rng.standard_normal(nb)
        y = theta + obs_sd * rng.standard_normal(nb)
        log_cond_theta = log_norm_cond - 0.5 * (y - theta) ** 2 / obs_var
        # same expression shape as the mixture components, so that a
        # deterministic scale yields log_cond_lam == log_marginal bit for bit
        lam_var = lam * lam + obs_var
        log_cond_lam = y * y * (-0.5 / lam_var) + (-0.5 * np.log(2.0 * math.pi * lam_var))
        log_marginal = _log_mixture_marginal(y, neg_half_prec, log_norm)
        return (
            MomentAccumulator.from_block(log_cond_theta - log_marginal),
            MomentAccumulator.from_block(log_cond_lam - log_marginal),
            MomentAccumulator.from_block(0.5 * np.log1p(c_snr * lam * lam)),
        )

    parts = map_blocks(worker, len(sizes), n_threads)
    acc_theta = reduce_moments([p[0] for p in parts])
    acc_lam = reduce_moments([p[1] for p in parts])
    acc_cond = reduce_moments([p[2] for p in parts])
    return acc_theta, acc_lam, acc_cond


def estimate_mixture_marginal_mi(
    m: ScalarShrinkageModel,
    outer_samples: int,
    inner_samples: int,
    seed: int,
    n_threads: int = 1,
) -> McEstimate:
    """Nested MC estimate of the marginal information about theta.

    The marginal density is the inner mixture average over fresh scale
    draws, making the estimator consistent but biased; the inner count is
    recorded on the returned estimate.
    """
    acc_theta, _, _ = _nested_mixture_pass(m, outer_samples, inner_samples, seed, n_threads)
    return _estimate_from_moments(acc_theta, seed, inner_samples=inner_samples)
