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
from .errors import NumericalError, require_count, require_samples, require_seed
from .priors import ScalarShrinkageModel
from .sampling import (
    FLAT_BLOCK,
    NESTED_OUTER_BLOCK,
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

# The nested kernel's binned Taylor expansion (``_log_mixture_marginal``):
# each row's bin width h keeps h y^2 <= TAYLOR_RADIUS, a power of two, each
# bin's series has TAYLOR_TERMS terms, and the components a level leaves out
# weigh at most exp(-TAYLOR_CUT) of the row sum. Both bounds are below 2^-60.
TAYLOR_RADIUS_LOG2 = 2
TAYLOR_RADIUS = 2.0 ** TAYLOR_RADIUS_LOG2
TAYLOR_TERMS = 36
TAYLOR_CUT = 60.0


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
                  n_threads: int = 1, out: np.ndarray | None = None) -> list:
    """``work(rng, size)`` for each seeded block of ``n_samples``, in block order.

    The one place the seed-partitioning contract of ``sampling`` is applied:
    fixed-size blocks, one generator per (stream, block) cell, and results
    collected in block order whatever the thread count. Given ``out``, an
    array of ``n_samples``, each block instead calls ``work(rng, dest)`` on
    its own slice ``dest`` of it and fills that slice in place, so the whole
    sample is held once, never also as a list of blocks.
    """
    require_seed(seed)
    require_count(1, n_threads=n_threads)
    sizes = block_sizes(n_samples, block)

    def run(b):
        part = sizes[b] if out is None else out[b * block:b * block + sizes[b]]
        # numpy's error state is per thread; from_block reports a non-finite block
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            return work(block_rng(seed, stream, b), part)

    return map_blocks(run, len(sizes), n_threads)


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
    ch: "GaussianChannel", n_samples: int, seed: int, n_threads: int = 1
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
    q: "GaussianDistribution", prior_cov, n_samples: int, seed: int, n_threads: int = 1
) -> McEstimate:
    """Unbiased MC estimate of KL(q || N(0, prior_cov)).

    Samples x = q.mean + q.lower z and averages log q(x) - log prior(x).
    """
    from .approx import _factor_prior
    require_samples("Gaussian KL oracle", MIN_ORACLE_SAMPLES, samples=n_samples)
    _, prior_lower = _factor_prior(prior_cov, q.dim)
    return _gaussian_log_ratio(prior_lower, q.mean, [q.lower], n_samples, seed,
                               STREAM_GAUSSIAN_KL, n_threads)


@dataclass(frozen=True)
class _MixtureTables:
    """Binned Taylor tables of one inner sample (see ``_log_mixture_marginal``).

    Level l has bin width h = 2^-l. Its bins are numbered ``first[l - level_min]``
    onwards, ``bins[l - level_min]`` of them, in ascending s. Bin B has centre
    c_B, the largest s in it, and its centre's log weight, and column B of
    ``moments`` holds M_B,m = sum over its components of w_k x_k^m / m!, with
    w_k the weight relative to the centre's and x_k = (c_B - s_k) / h in [0, 1).
    Built once per inner sample, read-only after that.
    """

    components: int  # K, zero-weight components included
    level_min: int
    level_max: int
    first: np.ndarray
    bins: np.ndarray
    neg_centre: np.ndarray  # -c_B, the centre's own neg_half_prec
    log_weight: np.ndarray  # the centre's own log_norm
    moments: np.ndarray  # TAYLOR_TERMS x bins


def _mixture_tables(neg_half_prec: np.ndarray, log_norm: np.ndarray) -> _MixtureTables:
    """The tables of ``_log_mixture_marginal`` for components in any order.

    The components are sorted by (s, log_norm), so any order of the same
    components gives the same tables. Level ``level_min`` is the coarsest
    whose bin width exceeds every s (at most 2^1023), and holds all bins.
    Every finer level holds the bins of the components with
    s <= s_0 + (2 span / delta + 1) h, where s_0 is the smallest s,
    span = TAYLOR_CUT + log(W / w_0), W the total weight and w_0 that of
    s_0's component; the one extra h absorbs rounding. ``level_max`` is the
    first level whose bins each hold one distinct s.
    """
    s = -np.asarray(neg_half_prec, dtype=float)
    log_w = np.asarray(log_norm, dtype=float)
    components = s.size
    # v = inf has zero weight and v = 0 (s = inf) is a point mass at 0: neither
    # adds anything at y^2 > 0
    keep = (log_w > -np.inf) & (s < np.inf)
    order = np.lexsort((log_w[keep], s[keep]))
    s, log_w = s[keep][order], log_w[keep][order]
    if s.size == 0:
        none = np.zeros(1, dtype=int)
        return _MixtureTables(components, 0, 0, none, none, np.zeros(0), np.zeros(0),
                              np.zeros((TAYLOR_TERMS, 0)))
    top = log_w.max()
    span = TAYLOR_CUT + top + math.log(float(np.exp(log_w - top).sum())) - log_w[0]
    reach = (2.0 * span) / TAYLOR_RADIUS + 1.0
    level_min = max(-int(np.frexp(s[-1])[1]), -1023)
    first, bins, centres, weights, moments = [], [], [], [], []
    level = level_min
    while True:
        n = s.size if level == level_min else int(
            np.searchsorted(s, s[0] + np.ldexp(reach, -level), side="right"))
        cells = np.floor(np.ldexp(s[:n], level))
        starts = np.flatnonzero(np.concatenate(([True], cells[1:] != cells[:-1])))
        ends = np.append(starts[1:], n)
        last = ends - 1
        sizes = ends - starts
        x = np.ldexp(np.repeat(s[last], sizes) - s[:n], level)
        term = np.exp(log_w[:n] - np.repeat(log_w[last], sizes))
        table = np.empty((TAYLOR_TERMS, starts.size))
        table[0] = np.add.reduceat(term, starts)
        for m in range(1, TAYLOR_TERMS):
            term *= x
            table[m] = np.add.reduceat(term, starts) / math.factorial(m)
        first.append(sum(bins))
        bins.append(starts.size)
        centres.append(s[last])
        weights.append(log_w[last])
        moments.append(table)
        if np.array_equal(s[starts], s[last]):
            break
        level += 1
    return _MixtureTables(components, level_min, level, np.array(first), np.array(bins),
                          -np.concatenate(centres), np.concatenate(weights),
                          np.concatenate(moments, axis=1))


def _log_mixture_marginal(y: np.ndarray, neg_half_prec: np.ndarray, log_norm: np.ndarray,
                          tables: _MixtureTables | None = None) -> np.ndarray:
    """log of the inner mixture average of scalar normal densities at y.

    Component k has log density f_k(y) = -s_k y^2 + log w_k with
    s_k = -neg_half_prec[k] = 1/(2 v_k) and log w_k = log_norm[k]
    = -1/2 log(2 pi v_k), so the average is a one-dimensional Gauss transform,
    (1/K) sum_k w_k exp(-s_k u) at u = y^2. It is evaluated by binned Taylor
    expansions (Greengard and Strain 1991, "The fast Gauss transform"), in
    O(bins) per row instead of K exps, from ``tables``
    (``_mixture_tables(neg_half_prec, log_norm)`` when not given).

    A row with u > 0 takes the level l = ceil(log2(u / delta)) with
    delta = TAYLOR_RADIUS, clamped to the tables' levels, and a row with
    u = 0 takes ``level_min``; so h u <= delta except on a row clamped down
    to ``level_max``. A bin B with centre c_B and centre weight w_B adds
    w_B exp(-c_B u) sum_m (h u)^m M_B,m with m < TAYLOR_TERMS: each component's
    exp(x h u) is cut to its Taylor polynomial. Every term is nonnegative, so
    nothing cancels. The row sum is shifted by its largest bin exponent,
    -c_B u + log w_B, so no exp overflows and the sum is at least 1.

    Two error bounds, both below 2^-60 of the row sum with the constants
    delta = 4, P = TAYLOR_TERMS = 36 and TAYLOR_CUT = 60:

    - truncation: with x h u <= delta, the cut Taylor series falls short of
      exp(x h u) by at most delta^P / P! of it (1.3e-20). At ``level_max``
      each bin holds one distinct s, so x = 0 and the expansion is exact for
      any u;
    - dropped components: a level holds only the components with
      s <= s_0 + (2 span / delta + 1) h, and u > delta / (2 h) on every row
      that takes it, so a left-out component has s_k > s_0 + span / u. Together
      they weigh at most W exp(-s_0 u - span) = w_0 exp(-s_0 u) exp(-TAYLOR_CUT),
      which is e^-60 (8.8e-27) of s_0's own term.

    Rounding adds a few units in the last place. A row's value depends only on
    its y and the tables: each row sums its own bins in ascending order, so
    neither the rows beside it nor the component order changes a bit. A
    degenerate mixture (v_min == v_max) is one exact bin of K components, so
    the result is y^2 * neg_half_prec + log_norm of its component bit for
    bit. A non-finite y^2 gives NaN, and a mixture with no weight (every
    v = inf) gives -inf; zero-weight components still count in K.
    """
    if tables is None:
        tables = _mixture_tables(neg_half_prec, log_norm)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        u = y * y
        finite = np.isfinite(u)
        if y.size == 0 or tables.neg_centre.size == 0:
            return np.where(finite, -np.inf, np.nan)
        mant, power = np.frexp(u)
        level = np.where(u > 0, power - (mant == 0.5) - TAYLOR_RADIUS_LOG2, tables.level_min)
        level = np.clip(level, tables.level_min, tables.level_max)
        t = np.minimum(np.ldexp(u, -level), TAYLOR_RADIUS)
        index = level - tables.level_min
        # (row, bin) pairs, row by row: row r takes the bins of its level,
        # pairs[starts[r]:starts[r] + counts[r]], in ascending s
        counts = tables.bins[index]
        starts = np.cumsum(counts) - counts
        pair_bin = np.arange(counts.sum()) + np.repeat(tables.first[index] - starts, counts)
        expo = np.repeat(u, counts)
        expo *= tables.neg_centre[pair_bin]
        expo += tables.log_weight[pair_bin]
        shift = np.maximum.reduceat(expo, starts)
        t = np.repeat(t, counts)
        series = tables.moments[-1][pair_bin]
        for m in range(TAYLOR_TERMS - 2, -1, -1):
            series *= t
            series += tables.moments[m][pair_bin]
        expo -= np.repeat(shift, counts)
        series *= np.exp(expo, out=expo)
        # each row sums its own pairs, whatever rows sit beside it
        total = np.add.reduceat(series, starts)
        # divide before the log: a degenerate mixture then hits log(1.0) == 0 and
        # cancels against the conditional density bit for bit
        out = shift + np.log(total / float(tables.components))
        out[~finite] = np.nan
    return out


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

    y = theta + sqrt(noise_var / n) z, and p(y | theta) is read off the drawn
    noise normal z as its own whitened draw, log p(y | theta) =
    -1/2 log(2 pi noise_var / n) - z^2 / 2, as in ``_gaussian_log_ratio``;
    recomputing the noise as y - theta would cancel once |theta| is far above
    the noise scale. t3 is ``linalg.log1p_product``, so c lam^2 may overflow.
    phat is the same inner mixture average in t1 and t2, so the estimators
    share its bias and the chain-rule comparison cancels it exactly. The
    kernel's tables (``_mixture_tables``) are built once, before the blocks,
    and every block reads them. The outer blocks run on one thread whatever
    ``n_threads`` is: each is about a millisecond of small numpy calls, and a
    second thread only added its start-up and GIL hand-offs to them.
    """
    require_samples("nested estimator", MIN_ORACLE_SAMPLES,
                    samples=outer_samples, inner_samples=inner_samples)
    obs_var = m.obs_var
    inner_lam = np.empty(inner_samples)

    def draw_scales(rng, dest):
        dest[:] = m.prior.sample(rng, dest.size)

    seeded_blocks(draw_scales, inner_samples, FLAT_BLOCK, seed, STREAM_MIXTURE_INNER,
                  n_threads, out=inner_lam)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mix_var = inner_lam * inner_lam + obs_var
        neg_half_prec = -0.5 / mix_var
        log_norm = -0.5 * np.log(2.0 * math.pi * mix_var)
        tables = _mixture_tables(neg_half_prec, log_norm)
    obs_sd = math.sqrt(obs_var)
    log_norm_cond = -0.5 * math.log(2.0 * math.pi * obs_var)

    def worker(rng, nb):
        lam = m.prior.sample(rng, nb)
        theta = lam * rng.standard_normal(nb)
        z = rng.standard_normal(nb)
        y = theta + obs_sd * z
        # same expression shape as the mixture components, so that a
        # deterministic scale yields log_cond_lam == log_marginal bit for bit
        lam_var = lam * lam + obs_var
        log_cond_lam = y * y * (-0.5 / lam_var) + (-0.5 * np.log(2.0 * math.pi * lam_var))
        log_marginal = _log_mixture_marginal(y, neg_half_prec, log_norm, tables)
        return (
            MomentAccumulator.from_block(log_norm_cond - 0.5 * z * z - log_marginal),
            MomentAccumulator.from_block(log_cond_lam - log_marginal),
            MomentAccumulator.from_block(0.5 * linalg.log1p_product(m.c_snr, lam, lam)),
        )

    parts = seeded_blocks(worker, outer_samples, NESTED_OUTER_BLOCK, seed,
                          STREAM_MIXTURE_OUTER)
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
