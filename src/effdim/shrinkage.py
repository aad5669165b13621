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

from .dimension import regression_mi, RidgeModel
from .channel import GaussianChannel, mutual_information
from .errors import (
    DimensionMismatch,
    InputError,
    InsufficientSamples,
    SampleSizeTooSmall,
    require_index_count,
)
from .oracle import McEstimate, _estimate_from_moments, _nested_mixture_pass
from .priors import (
    FixedScale,
    GlobalLocalRegression,
    ScalarShrinkageModel,
    TailCertificate,
)
from .sampling import (
    FLAT_BLOCK,
    STREAM_COND_MI,
    STREAM_DEFF_DIST,
    MomentAccumulator,
    block_rng,
    block_sizes,
    map_blocks,
    reduce_moments,
)

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
    if lam < 0:
        raise InputError("latent scale must be nonnegative")
    return 0.5 * math.log1p(m.c_snr * lam * lam)


def random_deff(m: ScalarShrinkageModel, lam: float) -> float:
    """Per-realization effective dimension log(1 + c lam^2) / log(n)."""
    if m.n < 3:
        raise SampleSizeTooSmall(f"sample size {m.n} < 3")
    if lam < 0:
        raise InputError("latent scale must be nonnegative")
    return math.log1p(m.c_snr * lam * lam) / math.log(m.n)


def expected_conditional_mi(
    m: ScalarShrinkageModel, samples: int, seed: int, n_threads: int = 1
) -> McEstimate:
    """Monte Carlo average of the conditional information over prior draws.

    A deterministic (fixed-scale) prior short-circuits to the exact value
    with zero standard error.
    """
    if samples < MIN_EXPECTED_MI_SAMPLES:
        raise InsufficientSamples(
            f"expected conditional MI needs >= {MIN_EXPECTED_MI_SAMPLES} samples"
        )
    require_index_count(samples=samples)
    if isinstance(m.prior, FixedScale):
        exact = conditional_mi(m, m.prior.tau)
        return McEstimate(estimate=exact, std_error=0.0, n_samples=samples, seed=seed)
    sizes = block_sizes(samples, FLAT_BLOCK)

    def worker(b: int) -> MomentAccumulator:
        lam = m.prior.sample(block_rng(seed, STREAM_COND_MI, b), sizes[b])
        return MomentAccumulator.from_block(0.5 * np.log1p(m.c_snr * lam * lam))

    acc = reduce_moments(map_blocks(worker, len(sizes), n_threads))
    return _estimate_from_moments(acc, seed)


def jensen_bound(m: ScalarShrinkageModel) -> float | None:
    """1/2 log(1 + c E[lam^2]) when the second moment is finite, else None.

    Concavity of log(1+u) makes this an upper bound on the expected
    conditional information; absence (infinite second moment) is a value,
    not an error.
    """
    second = m.prior.second_moment
    if not math.isfinite(second):
        return None
    return 0.5 * math.log1p(m.c_snr * second)


def heavy_tail_bound(cert: TailCertificate, c_snr: float) -> float:
    """log(1+c) + log(1+t0^2) + (2C/alpha) t0^-alpha.

    Upper-bounds E[log(1 + c lam^2)] for any scale law satisfying the tail
    certificate; finite even when the second moment is not.
    """
    if c_snr < 0:
        raise InputError("signal-to-noise factor must be nonnegative")
    return (
        math.log1p(c_snr)
        + math.log1p(cert.t0 * cert.t0)
        + (2.0 * cert.c_const / cert.alpha_exp) * cert.t0 ** (-cert.alpha_exp)
    )


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
    acc_theta, acc_lam, acc_cond = _nested_mixture_pass(
        m, outer_samples, inner_samples, seed, n_threads
    )
    i_theta = _estimate_from_moments(acc_theta, seed, inner_samples=inner_samples)
    i_lam = _estimate_from_moments(acc_lam, seed, inner_samples=inner_samples)
    e_cond = _estimate_from_moments(acc_cond, seed)
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


def regression_conditional_mi(m: GlobalLocalRegression, lambdas) -> float:
    """1/2 log det(I_n + sigma^-2 X diag(lam^2) X^T) given the scale vector.

    Evaluated through the Gaussian channel (X, diag(lam^2), sigma^2 I). An
    exactly constant scale vector reduces to the ridge experiment and is
    routed through the same spectral code path as ``regression_mi`` so the
    reduction is exact, not merely within tolerance.
    """
    lam = np.asarray(lambdas, dtype=float).reshape(-1)
    if lam.size != m.dim:
        raise DimensionMismatch(
            f"{lam.size} scales for a design with {m.dim} columns"
        )
    if np.any(lam < 0):
        raise InputError("latent scales must be nonnegative")
    if lam.size and np.all(lam == lam[0]):
        mi, _ = regression_mi(
            RidgeModel(design=m.design, noise_var=m.noise_var,
                       prior_var=float(lam[0]) ** 2)
        )
        return mi
    channel = GaussianChannel(
        a=m.design,
        prior_cov=np.diag(lam * lam),
        noise_cov=m.noise_var * np.eye(m.design.shape[0]),
    )
    return mutual_information(channel)


def random_deff_distribution(
    m: ScalarShrinkageModel, samples: int, seed: int, n_threads: int = 1
) -> DeffDistributionSummary:
    """Sampled distribution of the per-draw effective dimension.

    Draws scales from the prior, maps through ``random_deff``, and summarizes
    with the mean, standard deviation, and nearest-rank quantiles (rank
    ceil(q*N) of the sorted sample, a deterministic convention).
    """
    if samples < MIN_DISTRIBUTION_SAMPLES:
        raise InsufficientSamples(
            f"distribution summary needs >= {MIN_DISTRIBUTION_SAMPLES} samples"
        )
    require_index_count(samples=samples)
    if m.n < 3:
        raise SampleSizeTooSmall(f"sample size {m.n} < 3")
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
    sizes = block_sizes(samples, FLAT_BLOCK)

    def worker(b: int) -> np.ndarray:
        lam = m.prior.sample(block_rng(seed, STREAM_DEFF_DIST, b), sizes[b])
        return np.log1p(m.c_snr * lam * lam) / log_n

    values = np.concatenate(map_blocks(worker, len(sizes), n_threads))
    acc = MomentAccumulator.from_block(values)
    ordered = np.sort(values)
    quantiles = {
        q: float(ordered[min(max(math.ceil(q * samples), 1), samples) - 1])
        for q in QUANTILE_LEVELS
    }
    return DeffDistributionSummary(
        mean=acc.mean,
        sd=float(math.sqrt(acc.variance)),
        quantiles=quantiles,
        n_samples=samples,
        seed=seed,
    )
