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

Every Monte Carlo routine here and in ``shrinkage`` draws its blocks through
``seeded_blocks``, the one place the seed-partitioning contract of
``sampling`` is applied: fixed block sizes, one sub-seed per block, results
merged in block order (``block_mean`` reduces them to an estimate).
Identical seeds and sample counts reproduce estimates bit for bit,
regardless of thread count. The channel-MI and Gaussian-KL oracles are one
estimator, E_p[log p(x) - log q(x)] for two Gaussians (``_gaussian_log_ratio``):
it inverts the two lower Cholesky factors once per call and whitens every
block with a matrix product, so no block runs a linear solve. Nothing is
ever computed in non-log space.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .approx import GaussianDistribution, _factor_prior
from .channel import GaussianChannel
from .errors import NumericalError, require_samples
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
        require_samples("an estimate", 2, n_samples=self.n_samples)
        if self.std_error < 0:
            raise NumericalError("standard error must be nonnegative")


def seeded_blocks(work, n_samples: int, block: int, seed: int, stream: int,
                  n_threads: int = 1) -> list:
    """``work(rng, size)`` for each seeded block of ``n_samples``, in block order.

    The one place the seed-partitioning contract of ``sampling`` is applied:
    fixed-size blocks, one generator per (stream, block) cell, and results
    collected in block order whatever the thread count.
    """
    sizes = block_sizes(n_samples, block)
    return map_blocks(lambda b: work(block_rng(seed, stream, b), sizes[b]),
                      len(sizes), n_threads)


def block_mean(values, n_samples: int, seed: int, stream: int, n_threads: int) -> McEstimate:
    """Mean and standard error of ``values(rng, size)`` over FLAT_BLOCK blocks.

    Each block reduces to its moments, which merge in block order.
    """
    acc = reduce_moments(seeded_blocks(
        lambda rng, size: MomentAccumulator.from_block(values(rng, size)),
        n_samples, FLAT_BLOCK, seed, stream, n_threads))
    return McEstimate(estimate=acc.mean, std_error=acc.std_error, n_samples=acc.count, seed=seed)


def _gaussian_log_ratio(draw, p_lower: np.ndarray, q_lower: np.ndarray, n_samples: int,
                        seed: int, stream: int, n_threads: int) -> McEstimate:
    """MC estimate of E_p[log p(x) - log q(x)] for Gaussians p and q.

    ``p_lower`` and ``q_lower`` are the lower Cholesky factors of the two
    covariances; ``draw(rng, size)`` samples x ~ p and returns the centred
    draws (x - m_p, x - m_q), one row per sample. Both factors are inverted
    once per call, so each block whitens with a matrix product.
    """
    half_logdet_gap = 0.5 * (
        linalg.logdet_from_cholesky(q_lower) - linalg.logdet_from_cholesky(p_lower)
    )
    eye = np.eye(p_lower.shape[0])
    p_inv = linalg.solve_lower(p_lower, eye)
    q_inv = linalg.solve_lower(q_lower, eye)

    def values(rng, size):
        from_p, from_q = draw(rng, size)
        p_white = p_inv @ from_p.T
        q_white = q_inv @ from_q.T
        return half_logdet_gap + 0.5 * (
            np.sum(q_white * q_white, axis=0) - np.sum(p_white * p_white, axis=0)
        )

    return block_mean(values, n_samples, seed, stream, n_threads)


def estimate_channel_mi(
    ch: GaussianChannel, n_samples: int, seed: int, n_threads: int = 1
) -> McEstimate:
    """Unbiased MC estimate of the channel mutual information.

    Draws (theta, y) from the joint law and averages
    log p(y | theta) - log p(y), with p(y | theta) = N(A theta, noise_cov)
    and p(y) = N(0, A S A^T + noise_cov), both evaluated analytically.
    """
    require_samples("channel MI oracle", MIN_ORACLE_SAMPLES, samples=n_samples)
    prior_root = linalg.psd_sqrt(ch.prior_cov)
    marginal = ch.a @ ch.prior_cov @ ch.a.T + ch.noise_cov
    marginal_lower = linalg.cholesky_lower(0.5 * (marginal + marginal.T), "output covariance")

    def draw(rng, size):
        theta = rng.standard_normal((size, ch.dim)) @ prior_root
        noise = rng.standard_normal((size, ch.n_obs)) @ ch.noise_lower.T
        signal = theta @ ch.a.T
        y = signal + noise
        return y - signal, y

    return _gaussian_log_ratio(draw, ch.noise_lower, marginal_lower, n_samples, seed,
                               STREAM_CHANNEL_MI, n_threads)


def estimate_gaussian_kl(
    q: GaussianDistribution, prior_cov, n_samples: int, seed: int, n_threads: int = 1
) -> McEstimate:
    """Unbiased MC estimate of KL(q || N(0, prior_cov)).

    Samples x ~ q and averages log q(x) - log prior(x).
    """
    require_samples("Gaussian KL oracle", MIN_ORACLE_SAMPLES, samples=n_samples)
    _, prior_lower = _factor_prior(prior_cov, q.dim)

    def draw(rng, size):
        x = q.mean + rng.standard_normal((size, q.dim)) @ q.lower.T
        return x - q.mean, x

    return _gaussian_log_ratio(draw, q.lower, prior_lower, n_samples, seed,
                               STREAM_GAUSSIAN_KL, n_threads)


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
) -> tuple[McEstimate, McEstimate, McEstimate]:
    """Shared nested-MC sweep over the scale-mixture experiment.

    One joint outer draw (lam_i, theta_i, y_i) feeds three streaming
    estimates (the first two record the inner count):

      t1 = log p(y | theta) - log phat(y)   -> marginal information about theta
      t2 = log p(y | lam)   - log phat(y)   -> information about the scale
      t3 = 1/2 log1p(c lam^2)               -> conditional information

    phat is the same inner mixture average in t1 and t2, so the estimators
    share its bias and the chain-rule comparison cancels it exactly.
    """
    require_samples("nested estimator", MIN_ORACLE_SAMPLES,
                    samples=outer_samples, inner_samples=inner_samples)
    obs_var = m.obs_var
    c_snr = m.c_snr
    inner_lam = np.concatenate(seeded_blocks(
        m.prior.sample, inner_samples, FLAT_BLOCK, seed, STREAM_MIXTURE_INNER))
    mix_var = inner_lam * inner_lam + obs_var
    neg_half_prec = -0.5 / mix_var
    log_norm = -0.5 * np.log(2.0 * math.pi * mix_var)
    obs_sd = math.sqrt(obs_var)
    log_norm_cond = -0.5 * math.log(2.0 * math.pi * obs_var)

    def worker(rng, nb):
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

    parts = seeded_blocks(worker, outer_samples, NESTED_OUTER_BLOCK, seed,
                          STREAM_MIXTURE_OUTER, n_threads)
    estimates = []
    for k, inner in enumerate((inner_samples, inner_samples, None)):
        acc = reduce_moments([p[k] for p in parts])
        estimates.append(McEstimate(estimate=acc.mean, std_error=acc.std_error,
                                    n_samples=acc.count, seed=seed, inner_samples=inner))
    return tuple(estimates)


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
    return _nested_mixture_pass(m, outer_samples, inner_samples, seed, n_threads)[0]
