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
it never assumes them. It inverts each dominating Cholesky factor once, by
``linalg.invert_lower``, and every KL term and Loewner test reads that inverse.

Both Loewner flags follow one rule, ``_dominates``: every dominating
covariance is PD, the difference is whitened by its Cholesky factor, and the
order holds when the whitened difference's smallest eigenvalue is at least
-LOEWNER_TOL * (max |eigenvalue| + 1), a tolerance relative in every direction
and at every scale.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NumericalError, require_sample_size
from .location import deff

#: Signed relative tolerance of the Loewner-order eigenvalue test.
LOEWNER_TOL = 1e-10

# Unit roundoff of float64, 2^-53.
UNIT_ROUNDOFF = np.finfo(float).eps / 2


@dataclass(frozen=True)
class GaussianDistribution:
    """Mean vector and PD covariance of a Gaussian; validated at construction.

    The mean is a vector (``linalg.as_array``); the covariance's lower Cholesky
    factor is kept as ``lower``. A non-PD covariance raises ``NotPositiveDefinite``.
    """

    mean: np.ndarray
    cov: np.ndarray
    lower: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mean = linalg.as_array(self.mean, "mean", ndim=1)
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
    """KL(N(m, S) || N(0, S0)) in nats, from one triangular inverse; always >= 0."""
    prior_lower = _factor_prior(prior_cov, q.dim)[1]
    ((kl, _),) = _kl_to_prior(prior_lower, linalg.invert_lower(prior_lower), q)
    return kl


def _factor_prior(prior_cov, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Validated prior covariance of a ``dim``-dimensional posterior, and its factor."""
    cov, lower = linalg.factor_covariance(prior_cov, "prior covariance")
    if cov.shape != (dim, dim):
        raise DimensionMismatch(f"prior covariance has shape {cov.shape}, expected ({dim}, {dim})")
    return cov, lower


def _kl_to_prior(
    l0: np.ndarray, l0_inverse: np.ndarray, *posteriors: GaussianDistribution
) -> list[tuple[float, float]]:
    """``gaussian_kl`` and log det(S0^{-1} S) of each posterior, given L0 and L0^{-1}.

    L0^{-1} (from ``linalg.invert_lower``) applied to the stacked columns
    [L_q | m] of every posterior gives both data terms as sums of squares,
    tr(S0^{-1} S) = ||L0^{-1} L_q||_F^2 and m^T S0^{-1} m = ||L0^{-1} m||^2,
    so neither can come out negative.
    A trace or quadratic term beyond the float range (a posterior near 1e308
    times the prior) is a ``NumericalError`` here, not an inf in a report.
    """
    prior_logdet = linalg.logdet_from_cholesky(l0)
    terms = []
    with np.errstate(over="ignore", invalid="ignore"):
        whitened = l0_inverse @ np.column_stack(
            [col for q in posteriors for col in (q.lower, q.mean)])
        for q, block in zip(posteriors, np.split(whitened, len(posteriors), axis=1)):
            trace_term = float(np.sum(block[:, :-1] ** 2))
            quad_term = float(np.sum(block[:, -1] ** 2))
            if not (math.isfinite(trace_term) and math.isfinite(quad_term)):
                raise NumericalError(
                    f"KL to the prior overflows: trace term {trace_term!r}, "
                    f"quadratic term {quad_term!r}"
                )
            logdet_ratio = linalg.logdet_from_cholesky(q.lower) - prior_logdet
            kl = max(0.5 * (trace_term + quad_term - logdet_ratio - q.dim), 0.0)
            terms.append((kl, logdet_ratio))
    return terms


def _dominates(sigma_tilde: np.ndarray, sigma: np.ndarray, inverse: np.ndarray) -> bool:
    """Loewner test of validated covariances; ``inverse`` is L^{-1}, sigma_tilde = L L^T.

    The order is invariant under congruence, so the difference is whitened
    by the dominating matrix: E = L^{-1} (sigma_tilde - sigma) L^{-T} has the
    eigenvalues 1 - lambda_i, lambda_i the generalized eigenvalues of sigma
    against sigma_tilde, and the order holds iff all of them are >= 0.

    A Cholesky factorization of E that succeeds certifies the order without
    an eigensolve. The computed factor is exact for E + dE with
    ||dE||_2 <= n gamma_{n+1} ||E||_2, gamma_k = k u / (1 - k u), u the unit
    roundoff (Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3),
    so E's smallest eigenvalue is at least about -n (n + 1) u ||E||_2. That is
    within the eigenvalue rule's tolerance -LOEWNER_TOL * (||E||_2 + 1) while
    n (n + 1) u <= LOEWNER_TOL, i.e. for n up to 948. A factorization that
    fails, as it does on an exactly singular E, and any larger n fall back to
    the eigenvalues.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        whitened = inverse @ (sigma_tilde - sigma) @ inverse.T
    # where the order holds every entry of E lies in [-1, 1], so an
    # overflow is a violation by more than the float range
    if not np.isfinite(whitened).all():
        return False
    n = whitened.shape[0]
    if n * (n + 1) * UNIT_ROUNDOFF <= LOEWNER_TOL:
        try:  # reads E's lower triangle, as eigvalsh does
            linalg.cholesky(whitened)
            return True
        except NumericalError:
            pass
    # the 1 is the whitened dominating matrix, the identity
    eigs = linalg.eigvalsh(whitened)
    return bool(eigs.min() >= -LOEWNER_TOL * (np.abs(eigs).max() + 1.0))


def audit_approximation(
    exact: GaussianDistribution,
    approx: GaussianDistribution,
    prior_cov,
    n: int,
) -> ApproxAuditReport:
    """Full covariance-inflation audit of an approximate posterior.

    Computes both prior-to-posterior KLs, both prior-normalized
    log-determinants, the Loewner flags, and both per-realization effective
    dimensions 2*KL/log(n). Per-realization means the KLs of these specific
    posterior instances are used rather than an expectation over data; in
    the conjugate case the posterior covariance is nonrandom and the two
    notions coincide. The Cholesky factors of the prior and the approximate
    posterior, the two dominating matrices, are each inverted once.
    """
    require_sample_size(n)
    if exact.dim != approx.dim:
        raise DimensionMismatch("exact and approximate posteriors differ in dimension")
    prior_cov, prior_lower = _factor_prior(prior_cov, exact.dim)
    prior_inverse = linalg.invert_lower(prior_lower)
    (kl_exact, logdet_exact), (kl_approx, logdet_approx) = _kl_to_prior(
        prior_lower, prior_inverse, exact, approx)
    return ApproxAuditReport(
        kl_exact=kl_exact,
        kl_approx=kl_approx,
        logdet_exact=logdet_exact,
        logdet_approx=logdet_approx,
        loewner_dominates=_dominates(
            approx.cov, exact.cov, linalg.invert_lower(approx.lower)),
        deff_exact=deff(kl_exact, n),
        deff_approx=deff(kl_approx, n),
        n=n,
        means_equal=bool(np.array_equal(exact.mean, approx.mean)),
        prior_dominates_approx=_dominates(prior_cov, approx.cov, prior_inverse),
    )
