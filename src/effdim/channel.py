"""Exact mutual information of the linear Gaussian channel Y = A @ theta + eps.

With theta ~ N(0, prior_cov) and eps ~ N(0, noise_cov) independent, the
mutual information between theta and Y has the closed log-determinant form

    I = 1/2 log det(I_n + A S A^T N^{-1}) = 1/2 log det(I_p + S A^T N^{-1} A)

(S = prior_cov, N = noise_cov; the two forms agree by Sylvester's determinant
identity) and the spectral form

    I = 1/2 sum_j log(1 + lambda_j)

over the nonzero eigenvalues lambda_j of the noise-whitened signal Gram
L^{-1} A S A^T L^{-T}, where L is the lower Cholesky factor of N. The
spectral route is the default: it is the stable one for ill-conditioned
noise, and each lambda_j is a per-mode signal-to-noise ratio.

Also provided: the two information-preserving/reducing channel surgeries
used throughout the library: deterministic linear coarsening of the data
(never increases information) and invertible linear reparameterization of
the parameter (never changes it).
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatch,
    InputError,
    NotPositiveDefinite,
    NumericalError,
    RankDeficientCoarsening,
    SingularReparameterization,
)

EVALUATION_MODES = ("spectral", "observation", "parameter")


@dataclass(frozen=True)
class GaussianChannel:
    """Forward map, prior covariance, and noise covariance of a linear channel.

    Covariances are symmetrized at ingestion (rejected above 1e-12 relative
    asymmetry); the noise covariance must be PD (Cholesky succeeds), the prior
    covariance PSD. The noise covariance's lower Cholesky factor is kept as
    ``noise_lower``; ``prior_root`` and ``output_lower`` are computed on first
    use and kept read-only, so no route or oracle factors a channel twice.
    Instances are safe to share.
    """

    a: np.ndarray
    prior_cov: np.ndarray
    noise_cov: np.ndarray
    noise_lower: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = linalg.as_matrix(self.a, "forward map")
        prior = linalg.symmetrize(self.prior_cov, "prior covariance")
        noise, noise_lower = linalg.factor_covariance(self.noise_cov, "noise covariance")
        if a.shape[1] != prior.shape[0]:
            raise DimensionMismatch(
                f"forward map has {a.shape[1]} columns but prior covariance is "
                f"{prior.shape[0]}-dimensional"
            )
        if a.shape[0] != noise.shape[0]:
            raise DimensionMismatch(
                f"forward map has {a.shape[0]} rows but noise covariance is "
                f"{noise.shape[0]}-dimensional"
            )
        linalg.validate_psd(prior, "prior covariance")
        object.__setattr__(self, "noise_lower", noise_lower)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "prior_cov", prior)
        object.__setattr__(self, "noise_cov", noise)

    @functools.cached_property
    def prior_root(self) -> np.ndarray:
        """Symmetric square root S^{1/2} of the prior covariance."""
        root = linalg.psd_sqrt(self.prior_cov)
        root.flags.writeable = False
        return root

    @functools.cached_property
    def output_lower(self) -> np.ndarray:
        """Lower Cholesky factor of the output covariance A S A^T + N."""
        # built in place: n x n temporaries set the peak memory of its readers
        total = self.a @ self.prior_cov @ self.a.T
        total += self.noise_cov
        total = total + total.T
        total *= 0.5
        lower = linalg.cholesky_lower(total, "output covariance")
        lower.flags.writeable = False
        return lower

    @property
    def n_obs(self) -> int:
        return self.a.shape[0]

    @property
    def dim(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class ChannelSpectrum:
    """Nonincreasing per-mode signal-to-noise eigenvalues and their rank.

    The library's one spectrum normal form: negatives clip to zero, entries at
    or below ``linalg.RANK_RTOL`` times the leading one are exactly zero, and
    rank counts the strictly positive survivors.
    """

    eigenvalues: np.ndarray
    rank: int = field(init=False)

    def __post_init__(self):
        vals = np.clip(np.sort(np.asarray(self.eigenvalues, dtype=float))[::-1], 0.0, None)
        if vals.size:
            vals[vals <= linalg.RANK_RTOL * vals[0]] = 0.0
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "rank", int(np.count_nonzero(vals)))

    @property
    def nonzero(self) -> np.ndarray:
        return self.eigenvalues[: self.rank]


def whitened_spectrum(ch: GaussianChannel) -> ChannelSpectrum:
    """Eigenvalues of the noise-whitened signal Gram L^{-1} A S A^T L^{-T}.

    L is the channel's stored noise factor ``noise_lower``. The whitened Gram
    is symmetrized before the symmetric eigensolve, and the eigenvalues take
    the ``ChannelSpectrum`` normal form.
    """
    signal = ch.a @ ch.prior_cov @ ch.a.T
    half = linalg.solve_lower(ch.noise_lower, signal)
    whitened = linalg.solve_lower(ch.noise_lower, half.T)
    whitened = 0.5 * (whitened + whitened.T)
    eigs = np.linalg.eigvalsh(whitened)
    return ChannelSpectrum(eigenvalues=eigs)


def mutual_information(ch: GaussianChannel, mode: str = "spectral") -> float:
    """Mutual information of the channel in nats (always >= 0).

    mode selects the evaluation route:

    - "spectral" (default): 1/2 sum log1p(lambda_j) over the whitened spectrum.
    - "observation": the n-dimensional determinant form,
      1/2 [log det(A S A^T + N) - log det(N)].
    - "parameter": the p-dimensional determinant form,
      1/2 log det(I_p + S^{1/2} A^T N^{-1} A S^{1/2}).

    All routes agree within floating-point tolerance; the determinant forms
    exist to cross-check the Sylvester identity.
    """
    if mode not in EVALUATION_MODES:
        raise InputError(f"unknown evaluation mode {mode!r}; use one of {EVALUATION_MODES}")
    if mode == "spectral":
        return float(0.5 * np.sum(np.log1p(whitened_spectrum(ch).nonzero)))
    if mode == "observation":
        value = 0.5 * (
            linalg.logdet_from_cholesky(ch.output_lower)
            - linalg.logdet_from_cholesky(ch.noise_lower)
        )
        return max(float(value), 0.0)
    # parameter form: I_p + S^{1/2} A^T N^{-1} A S^{1/2}, symmetric PSD even
    # when the prior covariance is singular.
    w = linalg.solve_lower(ch.noise_lower, ch.a @ ch.prior_root)
    gram = w.T @ w
    m = np.eye(ch.dim) + 0.5 * (gram + gram.T)
    sign, logdet = np.linalg.slogdet(m)
    if sign <= 0:
        raise NumericalError("parameter-form determinant is not positive")
    return max(float(0.5 * logdet), 0.0)


def coarsen(ch: GaussianChannel, b) -> GaussianChannel:
    """Channel for the deterministic linear summary Y' = B Y.

    Returns (B A, prior_cov, B N B^T). B must have full row rank so that the
    summarized noise covariance stays PD; mutual information never increases
    under this operation.
    """
    b = linalg.as_matrix(b, "coarsening map")
    if b.shape[1] != ch.n_obs:
        raise DimensionMismatch(
            f"coarsening map has {b.shape[1]} columns but the channel has "
            f"{ch.n_obs} observations"
        )
    noise = b @ ch.noise_cov @ b.T
    try:
        return GaussianChannel(a=b @ ch.a, prior_cov=ch.prior_cov, noise_cov=noise)
    except NotPositiveDefinite as exc:
        raise RankDeficientCoarsening(
            "coarsened noise covariance is singular; the summary map is rank deficient"
        ) from exc


def reparameterize(ch: GaussianChannel, t) -> GaussianChannel:
    """Channel for the linearly transformed parameter phi = T theta.

    Returns (A T^{-1}, T S T^T, noise_cov). T must be invertible to working
    precision; mutual information is invariant under this operation.
    """
    t = linalg.as_matrix(t, "reparameterization")
    if t.shape[0] != t.shape[1] or t.shape[0] != ch.dim:
        raise DimensionMismatch(
            f"reparameterization must be {ch.dim}x{ch.dim}, got {t.shape}"
        )
    singular_values = np.linalg.svd(t, compute_uv=False)
    if singular_values[-1] <= t.shape[0] * np.finfo(float).eps * singular_values[0]:
        raise SingularReparameterization(
            f"transform is singular to working precision "
            f"(smin={singular_values[-1]:.3e}, smax={singular_values[0]:.3e})"
        )
    # a_new = A T^{-1} solved as T^T x^T = A^T.
    a_new = np.linalg.solve(t.T, ch.a.T).T
    prior_new = t @ ch.prior_cov @ t.T
    return GaussianChannel(
        a=a_new, prior_cov=0.5 * (prior_new + prior_new.T), noise_cov=ch.noise_cov
    )
