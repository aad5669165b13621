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
p's whitened draw is its own standard-normal vector, so only q's side is
whitened, through maps built by one triangular solve per call; no block runs
a linear solve. Nothing is ever computed in non-log space.
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


def _gaussian_log_ratio(q_lower: np.ndarray, offset: np.ndarray, factors: list,
                        n_samples: int, seed: int, stream: int, n_threads: int) -> McEstimate:
    """MC estimate of E_p[log p(x) - log q(x)] for Gaussians p and q.

    Each block draws standard normals z_1, ..., z_k in that order, z_i with
    ``factors[i].shape[1]`` columns per sample, and x ~ p is written as
    x - m_q = offset + sum_i F_i z_i with F_i = ``factors[i]``. The last
    factor is the lower Cholesky factor of p's covariance and x - m_p = F_k z_k,
    so z_k is p's whitened draw as it stands. q's whitened draw is
    w = L_q^-1 (x - m_q) = c + sum_i M_i z_i, whose maps c = L_q^-1 offset and
    M_i = L_q^-1 F_i come from one ``solve_lower`` per call. Then

        log p(x) - log q(x) = 1/2 log(det S_q / det S_p) + 1/2 (|w|^2 - |z_k|^2),

    so a block costs one small matrix product per draw and two row dot products.
    """
    half_logdet_gap = 0.5 * (
        linalg.logdet_from_cholesky(q_lower) - linalg.logdet_from_cholesky(factors[-1])
    )
    widths = [f.shape[1] for f in factors]
    splits = np.cumsum(widths)[:-1]
    whitened = linalg.solve_lower(q_lower, np.column_stack([offset, *factors]))
    shift = whitened[:, 0]
    maps = [m.T for m in np.split(whitened[:, 1:], splits, axis=1)]

    def values(rng, size):
        # one draw of every normal in the block is the same stream as one
        # draw per factor, in factor order
        normals = rng.standard_normal(size * sum(widths))
        draws = [part.reshape(size, -1) for part in np.split(normals, size * splits)]
        w = draws[0] @ maps[0]
        for z, m in zip(draws[1:], maps[1:]):
            w += z @ m
        w += shift
        own = draws[-1]
        return half_logdet_gap + 0.5 * (
            np.einsum("ij,ij->i", w, w) - np.einsum("ij,ij->i", own, own)
        )

    return block_mean(values, n_samples, seed, stream, n_threads)


def estimate_channel_mi(
    ch: GaussianChannel, n_samples: int, seed: int, n_threads: int = 1
) -> McEstimate:
    """Unbiased MC estimate of the channel mutual information.

    Draws (theta, y) from the joint law and averages
    log p(y | theta) - log p(y), with p(y | theta) = N(A theta, noise_cov)
    and p(y) = N(0, A S A^T + noise_cov), both evaluated analytically. Each
    block draws the prior normals z_theta, then the noise normals z_noise:
    y = A S^1/2 z_theta + L_noise z_noise, and z_noise whitens p(y | theta).
    The prior root and the output factor are the channel's own.
    """
    require_samples("channel MI oracle", MIN_ORACLE_SAMPLES, samples=n_samples)
    return _gaussian_log_ratio(ch.output_lower, np.zeros(ch.n_obs),
                               [ch.a @ ch.prior_root, ch.noise_lower], n_samples, seed,
                               STREAM_CHANNEL_MI, n_threads)


def estimate_gaussian_kl(
    q: GaussianDistribution, prior_cov, n_samples: int, seed: int, n_threads: int = 1
) -> McEstimate:
    """Unbiased MC estimate of KL(q || N(0, prior_cov)).

    Samples x = q.mean + q.lower z and averages log q(x) - log prior(x).
    """
    require_samples("Gaussian KL oracle", MIN_ORACLE_SAMPLES, samples=n_samples)
    _, prior_lower = _factor_prior(prior_cov, q.dim)
    return _gaussian_log_ratio(prior_lower, q.mean, [q.lower], n_samples, seed,
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
