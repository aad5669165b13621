"""Effective dimension and the closed-form spectral functionals behind it.

The central normalization: at sample size n >= 3,

    d_eff(n) = 2 * I / log(n)

where I is the mutual information (nats) between parameter and data. For the
Gaussian location model I = (d/2) log(1 + n tau^2 / sigma^2); for linear
regression with an isotropic Gaussian prior it is a spectral sum over the
squared singular values s_j^2 of the design,

    I = 1/2 sum_j log(1 + (tau^2/sigma^2) s_j^2),

from which every other functional here is a different transform of the same
spectrum: ridge degrees of freedom sum s_j^2/(s_j^2 + alpha), the information
effective rank normalizes each mode's log-information weight by the leading
mode's, and the df <= 2I <= snr * tr(X^T X) sandwich follows from
u/(1+u) <= log(1+u) <= u applied mode by mode.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channel import ChannelSpectrum, GaussianChannel
from .errors import (
    DivergentSpectrum,
    EmptySpectrum,
    InputError,
    NumericalError,
    SampleSizeTooSmall,
    require_finite,
    require_float_count,
)


@dataclass(frozen=True)
class LocationModel:
    """d-dimensional Gaussian mean estimation with isotropic prior and noise."""

    dim: int
    prior_var: float
    noise_var: float
    n: int

    def __post_init__(self):
        require_finite(prior_var=self.prior_var, noise_var=self.noise_var)
        require_float_count(dim=self.dim, n=self.n)
        if self.dim < 1:
            raise InputError("dimension must be >= 1")
        if self.noise_var <= 0:
            raise InputError("noise variance must be positive")
        if self.prior_var < 0:
            raise InputError("prior variance must be nonnegative")
        if self.n < 1:
            raise InputError("sample size must be >= 1")
        require_finite(snr=self.n * self.prior_var / self.noise_var)


@dataclass(frozen=True)
class RidgeModel:
    """Fixed-design linear model with isotropic Gaussian prior on coefficients."""

    design: np.ndarray
    noise_var: float
    prior_var: float

    def __post_init__(self):
        design = linalg.as_matrix(self.design, "design")
        require_finite(prior_var=self.prior_var, noise_var=self.noise_var)
        if self.noise_var <= 0:
            raise InputError("noise variance must be positive")
        if self.prior_var < 0:
            raise InputError("prior variance must be nonnegative")
        # bounds every per-mode SNR and the sandwich's upper end, sum_j snr * s_j^2
        require_finite(snr_trace=self.snr_ratio * float(np.vdot(design, design)))
        object.__setattr__(self, "design", design)

    @property
    def snr_ratio(self) -> float:
        """Per-mode signal-to-noise multiplier tau^2 / sigma^2."""
        return self.prior_var / self.noise_var

    @property
    def n_obs(self) -> int:
        return self.design.shape[0]


@dataclass(frozen=True)
class SpectrumSequence:
    """Power-law operator spectrum s_j^2 = j^(-2a) with a > 1/2.

    The constraint a > 1/2 makes sum s_j^2 finite, which certifies a finite
    information sum; at or below 1/2 construction is rejected.
    """

    decay_exponent: float
    snr: float
    truncation_error_budget: float

    def __post_init__(self):
        require_finite(decay_exponent=self.decay_exponent, snr=self.snr,
                       truncation_error_budget=self.truncation_error_budget)
        if self.decay_exponent <= 0.5:
            raise DivergentSpectrum(
                f"decay exponent {self.decay_exponent} <= 1/2: information sum diverges"
            )
        if self.snr < 0:
            raise InputError("signal-to-noise ratio must be nonnegative")
        if self.truncation_error_budget <= 0:
            raise InputError("truncation error budget must be positive")


@dataclass(frozen=True)
class InfoReport:
    """All spectral functionals of one experiment at one sample size.

    ``ridge_report`` takes one SVD of the design and stores its squared
    singular values here; every derived number (MI, d_eff, df, r_info, the
    sandwich and the rank bound on d_eff) is a transform of them.
    """

    mi_nats: float
    d_eff: float
    n: int
    df: float | None
    r_info: float | None
    sandwich_lower: float
    sandwich_upper: float
    rank: int
    singular_values_sq: np.ndarray
    rank_bound: float

    def __post_init__(self):
        object.__setattr__(
            self, "singular_values_sq", np.asarray(self.singular_values_sq, dtype=float)
        )
        if self.d_eff != deff(self.mi_nats, self.n):
            raise NumericalError("d_eff must equal 2*mi/log(n) from the shared arithmetic path")
        if not (self.sandwich_lower <= 2.0 * self.mi_nats <= self.sandwich_upper):
            raise NumericalError("sandwich bounds must bracket 2*mi")


def deff(mi_nats: float, n: int) -> float:
    """Effective dimension 2 * mi / log(n); requires n >= 3."""
    if n < 3:
        raise SampleSizeTooSmall(f"sample size {n} < 3")
    if mi_nats < 0:
        raise InputError("mutual information must be nonnegative")
    return 2.0 * mi_nats / math.log(n)


def location_mi(m: LocationModel) -> float:
    """(d/2) log(1 + n tau^2 / sigma^2) for the location model."""
    return 0.5 * m.dim * math.log1p(m.n * m.prior_var / m.noise_var)


def design_spectrum(design: np.ndarray) -> tuple[np.ndarray, int]:
    """Squared singular values of a design, nonincreasing, with rank.

    Values below the shared relative cutoff are truncated to exactly zero.
    """
    design = np.asarray(design, dtype=float)
    if design.size == 0:
        return np.zeros(0), 0
    s = np.linalg.svd(design, compute_uv=False)
    return linalg.truncate_small(linalg.descending_clipped(s * s))


def _spectral_mi(s_sq: np.ndarray, rank: int, snr: float) -> float:
    """1/2 sum_j log1p(snr * s_j^2) over the first ``rank`` modes."""
    if rank == 0 or snr == 0.0:
        return 0.0
    return 0.5 * float(np.sum(np.log1p(snr * s_sq[:rank])))


def regression_mi(m: RidgeModel) -> tuple[float, ChannelSpectrum]:
    """MI of the ridge experiment plus its per-mode SNR spectrum.

    Computed from the singular values of the design: 1/2 sum log1p(snr * s_j^2).
    This is the spectral route, independent of the Gaussian-channel
    log-determinant route it must agree with.
    """
    s_sq, rank = design_spectrum(m.design)
    spectrum = ChannelSpectrum(eigenvalues=m.snr_ratio * s_sq)
    return _spectral_mi(s_sq, rank, m.snr_ratio), spectrum


def regression_channel(m: RidgeModel) -> GaussianChannel:
    """The ridge experiment as an explicit Gaussian channel (X, tau^2 I, sigma^2 I)."""
    p = m.design.shape[1]
    return GaussianChannel(
        a=m.design,
        prior_cov=m.prior_var * np.eye(p),
        noise_cov=m.noise_var * np.eye(m.n_obs),
    )


def info_effective_rank(singular_values_sq, snr: float) -> float:
    """Information effective rank: sum_j log1p(snr s_j^2) / log1p(snr s_1^2).

    Lies in [1, r]; equals r for a flat spectrum and 1 for a single mode. The
    identity MI = 1/2 log1p(snr s_1^2) * r_info reconstructs the information.
    """
    s_sq = np.asarray(singular_values_sq, dtype=float)
    s_sq = s_sq[s_sq > 0.0]
    if s_sq.size == 0:
        raise EmptySpectrum("information effective rank needs at least one positive mode")
    if snr <= 0:
        raise InputError("signal-to-noise ratio must be positive")
    weights = np.log1p(snr * s_sq)
    if weights[0] == 0.0:
        # snr * s_1^2 underflows to 0: the ratio's small-SNR limit
        return float(np.sum(s_sq) / s_sq[0])
    return float(np.sum(weights) / weights[0])


def ridge_df(singular_values_sq, penalty: float) -> float:
    """Ridge degrees of freedom sum_j s_j^2 / (s_j^2 + alpha)."""
    if penalty <= 0:
        raise InputError("ridge penalty must be positive")
    s_sq = np.asarray(singular_values_sq, dtype=float)
    if s_sq.size == 0:
        return 0.0
    return float(np.sum(s_sq / (s_sq + penalty)))


def smoothing_matrix(design: np.ndarray, penalty: float) -> np.ndarray:
    """Ridge smoothing matrix X (X^T X + alpha I)^{-1} X^T.

    Cross-check surface only: its trace equals ridge_df of the same design.
    """
    if penalty <= 0:
        raise InputError("ridge penalty must be positive")
    design = linalg.as_matrix(design, "design")
    p = design.shape[1]
    gram = design.T @ design + penalty * np.eye(p)
    lower = linalg.cholesky_lower(0.5 * (gram + gram.T), "penalized Gram")
    half = linalg.solve_lower(lower, design.T)
    return half.T @ half


def mi_df_sandwich(m: RidgeModel) -> tuple[float, float, float]:
    """(df(alpha), 2*MI, snr * tr(X^T X)) with lower <= mid <= upper.

    Mode by mode this is u/(1+u) <= log(1+u) <= u at u = snr * s_j^2.
    """
    if m.prior_var <= 0:
        raise InputError("the sandwich requires prior_var > 0")
    report = ridge_report(m, 3)  # n enters d_eff only
    return report.sandwich_lower, 2.0 * report.mi_nats, report.sandwich_upper


def spectrum_sequence_mi(s: SpectrumSequence) -> tuple[float, float, int]:
    """Certified partial information sum for the power-law spectrum.

    Returns (partial sum, certified tail bound, terms used). The truncation
    point J is the smallest integer whose tail certificate

        1/2 * snr * J^(1-2a) / (2a - 1)

    (from log(1+u) <= u and the integral comparison of sum j^(-2a)) is within
    the error budget.
    """
    if s.snr == 0.0:
        return 0.0, 0.0, 1
    two_a = 2.0 * s.decay_exponent
    decay_margin = two_a - 1.0
    # smallest J with 0.5 * snr * J^(1-2a)/(2a-1) <= budget
    j_real = (0.5 * s.snr / (decay_margin * s.truncation_error_budget)) ** (1.0 / decay_margin)
    terms = max(1, math.ceil(j_real))
    bound = 0.5 * s.snr * terms ** (-decay_margin) / decay_margin
    total = 0.0
    chunk = 10_000_000
    for start in range(1, terms + 1, chunk):
        stop = min(start + chunk, terms + 1)
        j = np.arange(start, stop, dtype=float)
        if two_a == 2.0:
            modes = s.snr / (j * j)  # avoids the much slower general pow
        else:
            modes = s.snr * j ** (-two_a)
        total += float(np.sum(np.log1p(modes)))
    return 0.5 * total, bound, terms


def deff_rank_bound(m: RidgeModel, n: int) -> float:
    """Rank-based ceiling r * log1p(snr * s_1^2) / log(n) on d_eff(n)."""
    return ridge_report(m, n).rank_bound


def ridge_report(m: RidgeModel, n: int | None = None) -> InfoReport:
    """Assemble every spectral functional of a ridge experiment into one report.

    ``n`` is the effective sample size entering the d_eff normalization; it
    defaults to the number of design rows but may be supplied independently
    to study d_eff(n) curves. When no mode carries signal (a zero prior
    variance, or an SNR that underflows) the report is all-zeros apart from
    the design rank. The design is decomposed once;
    ``mi_df_sandwich`` and ``deff_rank_bound`` read their values from here.
    """
    if n is None:
        n = m.n_obs
    s_sq, rank = design_spectrum(m.design)
    mi = _spectral_mi(s_sq, rank, m.snr_ratio)
    d_eff = deff(mi, n)  # rejects n < 3 before log(n) divides below
    df = r_info = None
    lower = upper = rank_bound = 0.0
    if rank > 0:
        # the per-mode SNRs the MI sums log1p over; with both sandwich bounds
        # summed from them too, u/(1+u) <= log1p(u) <= u survives rounding
        u = m.snr_ratio * s_sq[:rank]
        rank_bound = rank * math.log1p(float(u[0])) / math.log(n)
        if u[0] > 0:
            df = lower = ridge_df(u, 1.0)
            r_info = info_effective_rank(s_sq[:rank], m.snr_ratio)
            upper = float(np.sum(u))
    return InfoReport(
        mi_nats=mi,
        d_eff=d_eff,
        n=n,
        df=df,
        r_info=r_info,
        sandwich_lower=lower,
        sandwich_upper=upper,
        rank=rank,
        singular_values_sq=s_sq,
        rank_bound=rank_bound,
    )
