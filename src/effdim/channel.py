"""Exact mutual information of the linear Gaussian channel Y = A @ theta + eps.

With theta ~ N(0, prior_cov) and eps ~ N(0, noise_cov) independent, the
mutual information between theta and Y has the closed log-determinant form

    I = 1/2 log det(I_n + A S A^T N^{-1}) = 1/2 log det(I_p + S A^T N^{-1} A)

(S = prior_cov, N = noise_cov; the two forms agree by Sylvester's determinant
identity) and the spectral form

    I = 1/2 sum_j log(1 + lambda_j)

over the nonzero eigenvalues lambda_j of the noise-whitened signal Gram
G S G^T, G = L^{-1} A with L the lower Cholesky factor of N. The spectral
route is the default: it is the stable one for ill-conditioned noise, and
each lambda_j is a per-mode signal-to-noise ratio (zeroed within the
eigensolve's error).

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

# Largest eps * ||W||_F^2 (W = L^{-1} A S^{1/2}) the parameter route accepts.
# Forming I_p + W^T W rounds its unit eigenvalues by about that much. On
# 3,000 random channels of up to six dimensions the values the route returned
# were at most 8.1e-8 nats from the spectral route, so every value it returns
# is within this many nats of it (for a = [1, 2, 0.5] s, S = diag(1, 2, 3),
# N = 1: 2.6e-10 relative at 2.2e-7, 6.6e-8 at 2.2e-5); beyond it the route
# refuses.
PARAMETER_ROUTE_TOL = 1e-6


@dataclass(frozen=True)
class GaussianChannel:
    """Forward map, prior covariance, and noise covariance of a linear channel.

    Covariances are symmetrized at ingestion (rejected above 1e-12 relative
    asymmetry); the noise covariance must be PD (Cholesky succeeds), the prior
    covariance PSD. The noise covariance's lower Cholesky factor is kept as
    ``noise_lower``; ``prior_root``, ``output_lower`` and ``whitened_map`` are
    computed on first use and kept read-only, so no route or oracle factors
    or solves against a channel's factor twice. Instances are safe to share.
    """

    a: np.ndarray
    prior_cov: np.ndarray
    noise_cov: np.ndarray
    noise_lower: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = linalg.as_array(self.a, "forward map")
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
        with np.errstate(over="ignore", invalid="ignore"):  # cholesky_lower refuses inf
            total = self.a @ self.prior_cov @ self.a.T
            total += self.noise_cov
            linalg.average_transpose(total)
        lower = linalg.cholesky_lower(total, "output covariance")
        lower.flags.writeable = False
        return lower

    @functools.cached_property
    def whitened_map(self) -> np.ndarray:
        """Noise-whitened forward map G = L^{-1} A, L the noise factor."""
        g = linalg.solve_lower(self.noise_lower, self.a)
        g.flags.writeable = False
        return g

    @property
    def n_obs(self) -> int:
        return self.a.shape[0]

    @property
    def dim(self) -> int:
        return self.a.shape[1]


@dataclass(frozen=True)
class ChannelSpectrum:
    """Nonincreasing per-mode signal-to-noise eigenvalues and their rank.

    The library's one spectrum normal form: sorted nonincreasing, negatives
    clipped to zero, read-only; rank counts the positive entries. It cuts
    nothing: each producer zeroes what its own solver cannot resolve. The
    eigenvalues are a vector of finite entries (``linalg.as_array``).
    """

    eigenvalues: np.ndarray
    rank: int = field(init=False)

    def __post_init__(self):
        vals = linalg.as_array(self.eigenvalues, "spectrum eigenvalues", ndim=1)
        vals = np.clip(np.sort(vals)[::-1], 0.0, None)
        vals.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "rank", int(np.count_nonzero(vals)))

    @property
    def nonzero(self) -> np.ndarray:
        return self.eigenvalues[: self.rank]


def whitened_spectrum(ch: GaussianChannel) -> ChannelSpectrum:
    """Eigenvalues of the noise-whitened signal Gram G S G^T, G = L^{-1} A.

    G is the channel's ``whitened_map``. Eigenvalues at or below
    n * eps * lambda_max, the symmetric eigensolve's error, are zeroed; a Gram
    beyond the float range raises NumericalError.
    """
    g = ch.whitened_map
    with np.errstate(over="ignore", invalid="ignore"):
        gram = g @ ch.prior_cov @ g.T  # eigvalsh reads one triangle
    if not np.isfinite(gram).all():
        raise NumericalError("whitened signal Gram overflows the float range")
    eigs = linalg.eigvalsh(gram)
    eigs[eigs <= ch.n_obs * np.finfo(float).eps * eigs.max(initial=0.0)] = 0.0
    return ChannelSpectrum(eigenvalues=eigs)


def spectral_information(u: np.ndarray) -> float:
    """1/2 sum_j log1p(u_j) over per-mode signal-to-noise ratios u_j, in nats."""
    return 0.5 * float(np.sum(np.log1p(u)))


def mutual_information(ch: GaussianChannel, mode: str = "spectral") -> float:
    """Mutual information of the channel in nats (always >= 0).

    mode selects the evaluation route:

    - "spectral" (default): 1/2 sum log1p(lambda_j) over the whitened spectrum.
    - "observation": the n-dimensional determinant form,
      1/2 [log det(A S A^T + N) - log det(N)].
    - "parameter": the p-dimensional determinant form,
      1/2 log det(I_p + S^{1/2} A^T N^{-1} A S^{1/2}).

    All routes agree within floating-point tolerance; the determinant forms
    exist to cross-check the Sylvester identity. The parameter route raises
    NumericalError rather than return a value it cannot resolve: once
    eps * ||W||_F^2, with W = L^{-1} A S^{1/2}, exceeds ``PARAMETER_ROUTE_TOL``,
    the unit eigenvalues of I_p + W^T W are lost to rounding.
    """
    if mode not in EVALUATION_MODES:
        raise InputError(f"unknown evaluation mode {mode!r}; use one of {EVALUATION_MODES}")
    if mode == "spectral":
        return spectral_information(whitened_spectrum(ch).nonzero)
    if mode == "observation":
        value = 0.5 * (
            linalg.logdet_from_cholesky(ch.output_lower)
            - linalg.logdet_from_cholesky(ch.noise_lower)
        )
        return max(float(value), 0.0)
    # parameter form: I_p + W^T W with W = G S^{1/2}, symmetric PSD even
    # when the prior covariance is singular.
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow fails the check
        w = ch.whitened_map @ ch.prior_root
        if not np.isfinite(w).all():  # G overflowed along the prior's null space
            w = linalg.solve_lower(ch.noise_lower, ch.a @ ch.prior_root)
        gram = w.T @ w
        rounding = np.finfo(float).eps * float(np.trace(gram))
    if not rounding <= PARAMETER_ROUTE_TOL:
        raise NumericalError(
            f"parameter form cannot resolve the unit directions: eps*|W|_F^2 = "
            f"{rounding:.3e} exceeds {PARAMETER_ROUTE_TOL:g}"
        )
    m = np.eye(ch.dim) + linalg.average_transpose(gram)
    sign, logdet = linalg.slogdet(m)
    if sign <= 0:
        raise NumericalError("parameter-form determinant is not positive")
    return max(float(0.5 * logdet), 0.0)


def coarsen(ch: GaussianChannel, b) -> GaussianChannel:
    """Channel for the deterministic linear summary Y' = B Y.

    Returns the channel (D B A, prior_cov, D B N B^T D) of the summary D B Y,
    where the diagonal D scales each row of B by a power of two so that its
    largest |entry| lies in [1, 2). An invertible D keeps I(theta; D B Y) =
    I(theta; B Y), and it scales exactly, so the size of B's rows cannot
    push these products out of the float range. The one exception is a row
    whose entries span more than the normal float range: entries below
    2^-1022 of the row's largest become subnormal or zero, so the channel is
    then that of a slightly different map. B must have full row rank so
    that the summarized noise covariance stays PD; mutual information never
    increases under this operation.
    """
    b = linalg.as_array(b, "coarsening map")
    if b.shape[1] != ch.n_obs:
        raise DimensionMismatch(
            f"coarsening map has {b.shape[1]} columns but the channel has "
            f"{ch.n_obs} observations"
        )
    _, exponents = np.frexp(np.abs(b).max(axis=1, initial=0.0))
    b = np.ldexp(b, 1 - exponents[:, None])  # a zero row stays zero
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
    precision; mutual information is invariant under this operation. An
    A T^{-1} or T S T^T beyond the float range raises NumericalError.
    """
    t = linalg.as_array(t, "reparameterization")
    if t.shape[0] != t.shape[1] or t.shape[0] != ch.dim:
        raise DimensionMismatch(
            f"reparameterization must be {ch.dim}x{ch.dim}, got {t.shape}"
        )
    singular_values = linalg.svd(t, compute_uv=False)
    if singular_values[-1] <= t.shape[0] * np.finfo(float).eps * singular_values[0]:
        raise SingularReparameterization(
            f"transform is singular to working precision "
            f"(smin={singular_values[-1]:.3e}, smax={singular_values[0]:.3e})"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        a_new = linalg.solve(t.T, ch.a.T).T  # A T^{-1}, solved as T^T x^T = A^T
        # GaussianChannel refuses asymmetry above 1e-12 of the largest entry, and
        # the product's rounding asymmetry grows with T's condition number
        # (whitening an ill-conditioned S gives about eps * cond(S))
        prior_new = linalg.average_transpose(t @ ch.prior_cov @ t.T)
    for name, m in (("forward map A T^-1", a_new), ("prior covariance T S T^T", prior_new)):
        if not np.isfinite(m).all():
            raise NumericalError(f"reparameterized {name} overflows the float range")
    return GaussianChannel(a=a_new, prior_cov=prior_new, noise_cov=ch.noise_cov)
