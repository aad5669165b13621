"""Information functionals of global-local shrinkage experiments.

Conditional on the latent scale lam the experiment is Gaussian, so

    I(theta; Y | lam) = 1/2 log(1 + c lam^2),     c = n / sigma^2,

and each realization of lam induces a per-draw effective dimension
log(1 + c lam^2) / log(n). Marginally over lam no closed form exists; the
module therefore provides the two bounds that do hold in general:

  * the Jensen bound 1/2 log(1 + c E[lam^2]) for finite-second-moment laws,
  * the heavy-tail log-moment bound log(1+c) + log(1+t0^2) + (2C/alpha) t0^-alpha
    for laws with a polynomial tail certificate,

together with nested Monte Carlo estimates of the chain-rule pieces
I(theta;Y), I(lambda;Y) and E[I(theta;Y|lambda)], and the sampled
distribution of the per-draw effective dimension.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    require_count,
    require_nonnegative,
    require_sample_size,
    require_samples,
    require_seed,
)
from .oracle import McEstimate, _nested_mixture_pass, block_mean, seeded_blocks
from .priors import FixedScale, ScalarShrinkageModel, TailCertificate
from .sampling import FLAT_BLOCK, STREAM_COND_MI, STREAM_DEFF_DIST, MomentAccumulator

# not called here: bench/tracing.py patches these names on this module, but
# this module's Monte Carlo runs through oracle.seeded_blocks and block_mean,
# which look them up in oracle, so the spans patched here never fire
from .sampling import block_rng, map_blocks, reduce_moments  # noqa: F401

#: Documented bias allowance (nats) for nested log-of-average estimators.
NESTED_BIAS_ALLOWANCE = 0.01

#: Quantile levels reported by the effective-dimension distribution summary.
QUANTILE_LEVELS = (0.05, 0.25, 0.50, 0.75, 0.95)

MIN_EXPECTED_MI_SAMPLES = 1000
MIN_DISTRIBUTION_SAMPLES = 10_000


@dataclass(frozen=True)
class ChainDecomposition:
    """Chain-rule pieces of the scale-mixture experiment, all Monte Carlo.

    ``bound_satisfied`` checks the marginal-information bound
    i_theta_y <= i_lambda_y + e_cond_mi within 3 pooled standard errors plus
    the documented nested-estimator bias allowance.
    """

    i_theta_y: McEstimate
    i_lambda_y: McEstimate
    e_cond_mi: McEstimate
    bound_satisfied: bool


@dataclass(frozen=True)
class DeffDistributionSummary:
    """Moments and nearest-rank quantiles of the sampled effective dimension."""

    mean: float
    sd: float
    quantiles: dict[float, float]
    n_samples: int
    seed: int


def conditional_mi(m: ScalarShrinkageModel, lam: float) -> float:
    """1/2 log(1 + c lam^2), the exact Gaussian information given the scale.

    lam = 0 is accepted and returns 0 (the continuous limit).
    """
    require_nonnegative(lam=lam)
    return 0.5 * _log1p_product(m.c_snr, lam, lam)


def random_deff(m: ScalarShrinkageModel, lam: float) -> float:
    """Per-realization effective dimension log(1 + c lam^2) / log(n)."""
    require_sample_size(m.n)
    require_nonnegative(lam=lam)
    return _log1p_product(m.c_snr, lam, lam) / math.log(m.n)


def _log1p_product(*factors: float) -> float:
    """log1p of the product of finite ``factors``, or the sum of their logs where it overflows."""
    product = math.prod(map(float, factors))
    return math.fsum(map(math.log, factors)) if math.isinf(product) else math.log1p(product)


def expected_conditional_mi(
    m: ScalarShrinkageModel, samples: int, seed: int, n_threads: int = 1
) -> McEstimate:
    """Monte Carlo average of the conditional information over prior draws.

    A deterministic (fixed-scale) prior short-circuits to the exact value
    with zero standard error.
    """
    require_samples("expected conditional MI", MIN_EXPECTED_MI_SAMPLES, samples=samples)
    require_seed(seed)
    require_count(1, n_threads=n_threads)
    if isinstance(m.prior, FixedScale):
        exact = conditional_mi(m, m.prior.tau)
        return McEstimate(estimate=exact, std_error=0.0, n_samples=samples, seed=seed)

    def values(rng, size):
        lam = m.prior.sample(rng, size)
        return 0.5 * linalg.log1p_product(m.c_snr, lam, lam)

    return block_mean(values, samples, seed, STREAM_COND_MI, n_threads)


def jensen_bound(m: ScalarShrinkageModel) -> float | None:
    """1/2 log(1 + c E[lam^2]) when the second moment is finite, else None.

    Concavity of log(1+u) makes this an upper bound on the expected
    conditional information; absence (infinite second moment) is a value,
    not an error.
    """
    second = m.prior.second_moment
    if not math.isfinite(second):
        return None
    return 0.5 * _log1p_product(m.c_snr, second)


def heavy_tail_bound(cert: TailCertificate | None, c_snr: float) -> float | None:
    """log(1+c) + log(1+t0^2) + (2C/alpha) t0^-alpha, or None without a certificate.

    Upper-bounds E[log(1 + c lam^2)] for any scale law satisfying the tail
    certificate; finite even when the second moment is not. ``c_snr`` is
    checked first; a law without a certificate has no bound, a value as in
    ``jensen_bound``. log(1+t0^2) is taken without forming t0^2, and the
    tail term scales C by t0^-alpha <= 1 before dividing by alpha and
    doubling, so every bound a float can hold is returned.
    """
    require_nonnegative(c_snr=c_snr)
    if cert is None:
        return None
    tail = 2.0 * (cert.c_const * cert.t0 ** (-cert.alpha_exp) / cert.alpha_exp)
    return math.log1p(c_snr) + _log1p_product(cert.t0, cert.t0) + tail


def chain_decomposition(
    m: ScalarShrinkageModel,
    outer_samples: int,
    inner_samples: int,
    seed: int,
    n_threads: int = 1,
) -> ChainDecomposition:
    """Nested MC estimates of I(theta;Y), I(lambda;Y) and E[I(theta;Y|lambda)].

    All three are computed in a single sweep over joint draws
    (lam, theta, y), sharing one inner mixture marginal, so the bound
    comparison cancels the nested estimator's bias. ``bound_satisfied``
    allows 3 pooled standard errors plus NESTED_BIAS_ALLOWANCE nats of slack.
    """
    i_theta, i_lam, e_cond = _nested_mixture_pass(
        m, outer_samples, inner_samples, seed, n_threads
    )
    pooled_se = math.sqrt(
        i_theta.std_error**2 + i_lam.std_error**2 + e_cond.std_error**2
    )
    slack = 3.0 * pooled_se + NESTED_BIAS_ALLOWANCE
    satisfied = i_theta.estimate <= i_lam.estimate + e_cond.estimate + slack
    return ChainDecomposition(
        i_theta_y=i_theta,
        i_lambda_y=i_lam,
        e_cond_mi=e_cond,
        bound_satisfied=bool(satisfied),
    )


def random_deff_distribution(
    m: ScalarShrinkageModel, samples: int, seed: int, n_threads: int = 1
) -> DeffDistributionSummary:
    """Sampled distribution of the per-draw effective dimension.

    Draws scales from the prior, maps through ``random_deff``, and summarizes
    with the mean, standard deviation, and nearest-rank quantiles (rank
    ceil(q*N) of the sorted sample, a deterministic convention). The sample
    lives in one buffer of ``samples`` floats: each seeded block fills its own
    slice, the moments take a few strips of scratch per tree level on top,
    and the quantiles come from sorting the buffer in place.
    """
    require_samples("distribution summary", MIN_DISTRIBUTION_SAMPLES, samples=samples)
    require_sample_size(m.n)
    require_seed(seed)
    require_count(1, n_threads=n_threads)
    if isinstance(m.prior, FixedScale):
        point = random_deff(m, m.prior.tau)
        return DeffDistributionSummary(
            mean=point,
            sd=0.0,
            quantiles={q: point for q in QUANTILE_LEVELS},
            n_samples=samples,
            seed=seed,
        )
    log_n = math.log(m.n)

    def fill(rng, dest):
        lam = m.prior.sample(rng, dest.size)
        linalg.log1p_product(m.c_snr, lam, lam, out=dest)
        dest /= log_n

    values = np.empty(samples)
    seeded_blocks(fill, samples, FLAT_BLOCK, seed, STREAM_DEFF_DIST, n_threads, out=values)
    acc = MomentAccumulator.from_block(values)
    values.sort()
    quantiles = {
        q: float(values[min(max(math.ceil(q * samples), 1), samples) - 1])
        for q in QUANTILE_LEVELS
    }
    return DeffDistributionSummary(
        mean=acc.mean,
        sd=float(math.sqrt(acc.variance)),
        quantiles=quantiles,
        n_samples=samples,
        seed=seed,
    )
