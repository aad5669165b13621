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
from .dimension import regression_mi, RidgeModel
from .errors import (
    DimensionMismatch,
    InputError,
    require_nonnegative,
    require_sample_size,
    require_samples,
    require_seed,
)
from .oracle import McEstimate, _nested_mixture_pass, block_mean, seeded_blocks
from .priors import (
    FixedScale,
    GlobalLocalRegression,
    ScalarShrinkageModel,
    TailCertificate,
)
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


def _log1p_c_lam_sq(c: float, lam: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log1p(c * lam * lam), or log c + 2 log lam where the product overflows."""
    u = np.multiply(c, lam, out=out)  # the seeded blocks' error state hides an overflow
    u *= lam
    np.log1p(u, out=u)
    if math.isinf(u.max(initial=0.0)):  # no mask is built for a block without overflow
        big = np.isinf(u)
        u[big] = math.log(c) + 2.0 * np.log(lam[big])  # every finite product keeps its bits
    return u


def expected_conditional_mi(
    m: ScalarShrinkageModel, samples: int, seed: int, n_threads: int = 1
) -> McEstimate:
    """Monte Carlo average of the conditional information over prior draws.

    A deterministic (fixed-scale) prior short-circuits to the exact value
    with zero standard error.
    """
    require_samples("expected conditional MI", MIN_EXPECTED_MI_SAMPLES, samples=samples)
    require_seed(seed)
    if isinstance(m.prior, FixedScale):
        exact = conditional_mi(m, m.prior.tau)
        return McEstimate(estimate=exact, std_error=0.0, n_samples=samples, seed=seed)

    def values(rng, size):
        return 0.5 * _log1p_c_lam_sq(m.c_snr, m.prior.sample(rng, size))

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


def heavy_tail_bound(cert: TailCertificate, c_snr: float) -> float:
    """log(1+c) + log(1+t0^2) + (2C/alpha) t0^-alpha.

    Upper-bounds E[log(1 + c lam^2)] for any scale law satisfying the tail
    certificate; finite even when the second moment is not.
    """
    require_nonnegative(c_snr=c_snr)
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


def regression_conditional_mi(m: GlobalLocalRegression, lambdas) -> float:
    """1/2 log det(I_n + sigma^-2 X diag(lam^2) X^T) given the scale vector.

    Given the scales, the experiment is the ridge experiment on the rescaled
    design X diag(lam / lam_max) with prior variance lam_max^2, so this is
    ``regression_mi`` of that model: one design SVD, no n x n matrix. A
    constant scale vector leaves X unchanged, so the reduction to the ridge
    experiment is exact, not merely within tolerance. ``lambdas`` is a vector
    (``linalg.as_array``) of one nonnegative scale per column.
    """
    lam = linalg.as_array(lambdas, "latent scales", ndim=1, nonnegative=True)
    if lam.size != m.dim:
        raise DimensionMismatch(
            f"{lam.size} scales for a design with {m.dim} columns"
        )
    top = float(lam.max(initial=0.0))
    if top == 0.0:
        return 0.0
    try:
        prior_var = top ** 2
    except OverflowError:
        raise InputError(f"latent scale {top!r} has no finite square") from None
    return regression_mi(RidgeModel(design=m.design * (lam / top), noise_var=m.noise_var,
                                    prior_var=prior_var))


def random_deff_distribution(
    m: ScalarShrinkageModel, samples: int, seed: int, n_threads: int = 1
) -> DeffDistributionSummary:
    """Sampled distribution of the per-draw effective dimension.

    Draws scales from the prior, maps through ``random_deff``, and summarizes
    with the mean, standard deviation, and nearest-rank quantiles (rank
    ceil(q*N) of the sorted sample, a deterministic convention). The sample
    lives in one buffer of ``samples`` floats: each seeded block fills its own
    slice, the moments take n/2 floats of scratch on top, and the quantiles
    come from sorting the buffer in place.
    """
    require_samples("distribution summary", MIN_DISTRIBUTION_SAMPLES, samples=samples)
    require_sample_size(m.n)
    require_seed(seed)
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
        _log1p_c_lam_sq(m.c_snr, m.prior.sample(rng, dest.size), out=dest)
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
