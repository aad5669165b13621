"""Prior-to-posterior KL for Gaussians and the covariance-inflation audit.

For a Gaussian posterior N(m, S) against a zero-mean Gaussian prior N(0, S0),

    KL = 1/2 [ tr(S0^{-1} S) + m^T S0^{-1} m - log det(S0^{-1} S) - p ].

Whenever an approximate posterior's covariance dominates the exact one in the
Loewner order (S_approx - S_exact PSD), the means agree, and the inflation
stays within the prior envelope (S_approx dominated by S0), the approximation
can only lose information: its KL to the prior, and hence its per-realization
effective dimension 2*KL/log n, is no larger than the exact posterior's.

The prior-envelope condition is not cosmetic: for scalar v, d/dv KL(N(0,v) ||
N(0,v0)) = (1/v0 - 1/v)/2, which is negative only while v < v0, so inflating
past the prior variance increases the divergence again (the log-det ordering
alone does not control the trace term). Posterior covariances in the
conjugate Gaussian model always satisfy the envelope condition.

The audit below computes both sides and reports whether the hypotheses hold;
it never assumes them.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .dimension import RidgeModel, deff
from .errors import DimensionMismatch, NumericalError, require_positive, require_sample_size

#: Signed relative tolerance of the Loewner-order eigenvalue test.
LOEWNER_TOL = 1e-10


@dataclass(frozen=True)
class GaussianDistribution:
    """Mean vector and PD covariance of a Gaussian; validated at construction.

    The covariance's lower Cholesky factor is kept as ``lower``. A covariance
    that is not PD raises ``NotPositiveDefinite``.
    """

    mean: np.ndarray
    cov: np.ndarray
    lower: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = linalg.as_matrix(np.reshape(self.mean, (1, -1)), "mean")[0]
        cov, lower = linalg.factor_covariance(self.cov)
        if mean.size != cov.shape[0]:
            raise DimensionMismatch(
                f"mean has dimension {mean.size} but covariance is {cov.shape[0]}x{cov.shape[0]}"
            )
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class ApproxAuditReport:
    """Side-by-side KL / log-det / effective-dimension audit of two posteriors.

    ``loewner_dominates`` alone certifies logdet_approx >= logdet_exact.
    ``truncation_certified`` is True exactly when the full inflation
    hypothesis held (Loewner flag, equal means, and the approximate
    covariance dominated by the prior), in which case kl_approx <= kl_exact
    and deff_approx <= deff_exact are guaranteed.
    """

    kl_exact: float
    kl_approx: float
    logdet_exact: float
    logdet_approx: float
    loewner_dominates: bool
    deff_exact: float
    deff_approx: float
    n: int
    means_equal: bool
    prior_dominates_approx: bool

    @property
    def truncation_certified(self) -> bool:
        return self.loewner_dominates and self.means_equal and self.prior_dominates_approx


def gaussian_kl(q: GaussianDistribution, prior_cov) -> float:
    """KL(N(m, S) || N(0, S0)) in nats, via Cholesky solves; always >= 0."""
    return _kl_to_prior(q, _factor_prior(prior_cov, q.dim)[1])


def _factor_prior(prior_cov, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated prior covariance of a ``dim``-dimensional posterior, and its factor."""
    if np.shape(prior_cov) != (dim, dim):
        raise DimensionMismatch(
            f"prior covariance has shape {np.shape(prior_cov)}, expected ({dim}, {dim})"
        )
    return linalg.factor_covariance(prior_cov, "prior covariance")


def _kl_to_prior(q: GaussianDistribution, l0: np.ndarray) -> float:
    """``gaussian_kl`` given the prior covariance's lower Cholesky factor.

    A trace or quadratic term beyond the float range (a posterior near 1e308
    times the prior) is a ``NumericalError`` here, not an inf in a report.
    """
    p = q.dim
    with np.errstate(over="ignore"):
        trace_term = float(np.sum(linalg.solve_lower(l0, linalg.solve_lower(l0, q.cov).T)
                                  .diagonal()))
        quad_term = float(np.sum(linalg.solve_lower(l0, q.mean) ** 2))
    if not (math.isfinite(trace_term) and math.isfinite(quad_term)):
        raise NumericalError(
            f"KL to the prior overflows: trace term {trace_term!r}, quadratic term {quad_term!r}"
        )
    logdet_ratio = linalg.logdet_from_cholesky(q.lower) - linalg.logdet_from_cholesky(l0)
    return max(0.5 * (trace_term + quad_term - logdet_ratio - p), 0.0)


def conjugate_regression_info(model: RidgeModel) -> float:
    """Expected prior-to-posterior KL in the conjugate linear model.

    Assembles the expectation term by term: with posterior covariance
    S = (prior_var^{-1} I + noise_var^{-1} X^T X)^{-1} and prior S0 =
    prior_var * I,

        E tr(S0^{-1} S)      = tr(S0^{-1} S)          (S nonrandom),
        E [m^T S0^{-1} m]    = tr(S0^{-1} (S0 - S)),
        E log det(S0^{-1} S) = log det(S0^{-1} S),

    and returns 1/2 (trace + quadratic - logdet - p). This is an independent
    derivation route that must agree with the spectral regression formula.
    """
    require_positive(prior_var=model.prior_var)
    x = model.design
    p = x.shape[1]
    precision = np.eye(p) / model.prior_var + (x.T @ x) / model.noise_var
    lp = linalg.cholesky_lower(0.5 * (precision + precision.T), "posterior precision")
    # precision = Lp Lp^T, so S = Lp^{-T} Lp^{-1} = W^T W with W = Lp^{-1}.
    w = linalg.solve_lower(lp, np.eye(p))
    post_cov = w.T @ w

    prior_full = model.prior_var * np.eye(p)
    trace_term = float(np.trace(post_cov)) / model.prior_var
    quad_term = float(np.trace(prior_full - post_cov)) / model.prior_var
    # log det(S0^{-1} S) = -log det(S) prior-normalized = -(logdet precision + p log prior_var)
    logdet_term = -(linalg.logdet_from_cholesky(lp) + p * math.log(model.prior_var))
    return max(0.5 * (trace_term + quad_term - logdet_term - p), 0.0)


def loewner_dominates(sigma_tilde, sigma) -> bool:
    """True iff sigma_tilde - sigma is PSD up to a signed relative tolerance.

    The eigenvalue route (rather than attempting a Cholesky of the difference)
    degrades gracefully at the semidefinite boundary: the minimum eigenvalue
    may dip to -LOEWNER_TOL * (max |eigenvalue| + 1) before the order is declared
    violated.
    """
    sigma_tilde = linalg.symmetrize(sigma_tilde, "dominating covariance")
    sigma = linalg.symmetrize(sigma, "dominated covariance")
    if sigma_tilde.shape != sigma.shape:
        raise DimensionMismatch(
            f"covariances have shapes {sigma_tilde.shape} and {sigma.shape}"
        )
    eigs = np.linalg.eigvalsh(sigma_tilde - sigma)
    return bool(eigs[0] >= -LOEWNER_TOL * (np.abs(eigs).max() + 1.0))


def audit_approximation(
    exact: GaussianDistribution,
    approx: GaussianDistribution,
    prior_cov,
    n: int,
) -> ApproxAuditReport:
    """Full covariance-inflation audit of an approximate posterior.

    Computes both prior-to-posterior KLs, both prior-normalized
    log-determinants, the Loewner flag, and both per-realization effective
    dimensions 2*KL/log(n). Per-realization means the KLs of these specific
    posterior instances are used rather than an expectation over data; in
    the conjugate case the posterior covariance is nonrandom and the two
    notions coincide.
    """
    require_sample_size(n)
    if exact.dim != approx.dim:
        raise DimensionMismatch("exact and approximate posteriors differ in dimension")
    prior_cov, prior_lower = _factor_prior(prior_cov, exact.dim)
    kl_exact = _kl_to_prior(exact, prior_lower)
    kl_approx = _kl_to_prior(approx, prior_lower)
    # log det(S0^{-1} S) from the two Cholesky factors
    prior_logdet = linalg.logdet_from_cholesky(prior_lower)
    return ApproxAuditReport(
        kl_exact=kl_exact,
        kl_approx=kl_approx,
        logdet_exact=linalg.logdet_from_cholesky(exact.lower) - prior_logdet,
        logdet_approx=linalg.logdet_from_cholesky(approx.lower) - prior_logdet,
        loewner_dominates=loewner_dominates(approx.cov, exact.cov),
        deff_exact=deff(kl_exact, n),
        deff_approx=deff(kl_approx, n),
        n=n,
        means_equal=bool(np.array_equal(exact.mean, approx.mean)),
        prior_dominates_approx=loewner_dominates(prior_cov, approx.cov),
    )


def dominating_diagonal(sigma) -> np.ndarray:
    """Smallest power-of-two multiple of diag(S) that dominates S (Loewner).

    Starts at c = 1 and doubles until c * diag(S) >= S, certifying each step
    with ``loewner_dominates``. A finite c always exists: any c at least the
    largest eigenvalue of the correlation-normalized matrix works.
    """
    sigma, _ = linalg.factor_covariance(sigma)
    diag = np.diag(np.diag(sigma))
    c = 1.0
    while not loewner_dominates(c * diag, sigma):
        c *= 2.0
    return c * diag
