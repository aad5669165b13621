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

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channel import ChannelSpectrum, GaussianChannel, spectral_information
from .errors import (
    DivergentSpectrum,
    EmptySpectrum,
    InputError,
    NumericalError,
    require_finite,
    require_nonnegative,
    require_positive,
)
from .location import LocationModel, deff, location_mi  # noqa: F401 (bench/workloads.py)
from .sampling import _one_blas_thread


@dataclass(frozen=True)
class RidgeModel:
    """Fixed-design linear model with isotropic Gaussian prior on coefficients."""

    design: np.ndarray
    noise_var: float
    prior_var: float

    def __post_init__(self):
        design = linalg.as_array(self.design, "design")
        require_positive(noise_var=self.noise_var)
        require_nonnegative(prior_var=self.prior_var)
        # bounds every per-mode SNR and the sandwich's upper end, sum_j snr * s_j^2
        require_finite(snr_trace=self.snr_ratio * float(np.vdot(design, design)))
        object.__setattr__(self, "design", design)

    @property
    def snr_ratio(self) -> float:
        """Per-mode signal-to-noise multiplier tau^2 / sigma^2."""
        return self.prior_var / self.noise_var

    @functools.cached_property
    def spectrum(self) -> ChannelSpectrum:
        """``design_spectrum`` of the design, taken on first use."""
        return design_spectrum(self.design)

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
        require_finite(decay_exponent=self.decay_exponent)
        if self.decay_exponent <= 0.5:
            raise DivergentSpectrum(
                f"decay exponent {self.decay_exponent} <= 1/2: information sum diverges"
            )
        require_nonnegative(snr=self.snr)
        require_positive(truncation_error_budget=self.truncation_error_budget)


@dataclass(frozen=True)
class InfoReport:
    """All spectral functionals of one experiment at one sample size.

    ``ridge_report`` stores the model's read-only ``spectrum`` here; every
    derived number (MI, d_eff, df, r_info, the sandwich and the rank bound
    on d_eff) is a transform of it. ``two_mi`` is the sum of log1p over the
    per-mode SNRs that ``mi_nats`` halves; the sandwich brackets it, since
    halving a subnormal sum can drop its last bit.
    """

    mi_nats: float
    two_mi: float
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
        if self.d_eff != deff(self.mi_nats, self.n):
            raise NumericalError("d_eff must equal 2*mi/log(n) from the shared arithmetic path")
        if self.mi_nats != 0.5 * self.two_mi:
            raise NumericalError("mi must be half of the summed per-mode information")
        if not (self.sandwich_lower <= self.two_mi <= self.sandwich_upper):
            raise NumericalError("sandwich bounds must bracket 2*mi")
        if self.rank_bound < self.d_eff:
            raise NumericalError("the rank bound must not read below d_eff")


def design_spectrum(design: np.ndarray) -> ChannelSpectrum:
    """``ChannelSpectrum`` of a design's squared singular values.

    Singular values at or below max(m, n) * eps * s_1, the SVD's own error
    (numpy's ``matrix_rank`` rule), are zeroed before they are squared. The
    SVD runs with OpenBLAS held at one thread, whose summation order does not
    depend on the machine's core count.
    """
    with _one_blas_thread():
        s = linalg.svd(linalg.as_array(design, "design"), compute_uv=False)
    s[s <= max(np.shape(design)) * np.finfo(float).eps * s.max(initial=0.0)] = 0.0
    return ChannelSpectrum(eigenvalues=s * s)


def regression_mi(m: RidgeModel) -> float:
    """MI of the ridge experiment: 1/2 sum log1p(snr * s_j^2).

    Computed from the singular values of the design (``m.spectrum``). This is
    the spectral route, independent of the Gaussian-channel log-determinant
    route it must agree with.
    """
    return spectral_information(m.snr_ratio * m.spectrum.nonzero)


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

    s_1^2 is the largest of the vector s_j^2 >= 0, in any order. Lies in
    [1, r]; equals r for a flat spectrum and 1 for a single mode. The identity
    MI = 1/2 log1p(snr s_1^2) * r_info reconstructs the information.
    """
    s_sq = linalg.as_array(singular_values_sq, "squared singular values", ndim=1, nonnegative=True)
    s_sq = ChannelSpectrum(eigenvalues=s_sq).nonzero
    if s_sq.size == 0:
        raise EmptySpectrum("information effective rank needs at least one positive mode")
    require_positive(snr=snr)
    weights = linalg.log1p_product(snr, s_sq)
    if weights[0] == 0.0:
        # snr * s_1^2 underflows to 0: the ratio's small-SNR limit
        return float(np.sum(s_sq) / s_sq[0])
    return float(np.sum(weights) / weights[0])


def ridge_df(singular_values_sq, penalty: float) -> float:
    """Ridge degrees of freedom sum_j s_j^2 / (s_j^2 + alpha) over a nonnegative vector."""
    require_positive(penalty=penalty)
    s_sq = linalg.as_array(singular_values_sq, "squared singular values", ndim=1, nonnegative=True)
    with np.errstate(over="ignore"):
        total = s_sq + penalty
    ratios = s_sq / total
    big = np.isinf(total)  # halving both operands is exact where the sum overflows
    ratios[big] = 0.5 * s_sq[big] / (0.5 * s_sq[big] + 0.5 * penalty)
    return float(np.sum(ratios))


# Modes with snr * j^(-2a) at or below this take the series route; see
# spectrum_sequence_mi.
_SERIES_MODE_MAX = 1e-3
_LOG1P_SERIES_TERMS = 8
_HEAD_MIN_TERMS = 64
# B_2r / (2r)! for r = 1..5: the Euler-Maclaurin corrections kept
_EULER_MACLAURIN = tuple(
    b / math.factorial(2 * r)
    for r, b in enumerate((1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66), start=1)
)
# modes per array when a head is streamed (only at extreme snr)
_HEAD_CHUNK = 10_000_000


def _scaled_power_sum(s: float, lo: int, log_ratio: float) -> float:
    """sum_{j=lo}^{hi} (j/lo)^(-s) by Euler-Maclaurin, with log_ratio = log(hi/lo).

    The integral, the two endpoint half-terms and the B_2..B_10 corrections,
    each scaled by lo^s so that nothing overflows or underflows; the
    derivatives of x^(-s) are (-1)^m (s)_m x^(-s-m) with (s)_m the rising
    factorial. The integral's expm1 form stays accurate as s -> 1+.
    """
    corrections = []
    rising = s  # (s)_m for the odd order m = 2r - 1
    for r, coeff in enumerate(_EULER_MACLAURIN, start=1):
        m = 2 * r - 1
        corrections.append(coeff * rising * lo ** -m * -math.expm1(-(s + m) * log_ratio))
        rising *= (s + m) * (s + m + 1)
    total = 0.0
    for term in reversed(corrections):  # smallest first
        total += term
    total += 0.5 * (1.0 + math.exp(-s * log_ratio))
    return total + lo * -math.expm1((1.0 - s) * log_ratio) / (s - 1.0)


def _power_law_tail(snr: float, two_a: float, lo: int, hi: int) -> float:
    """sum_{j=lo}^{hi} log1p(snr * j^(-2a)) for modes all at most _SERIES_MODE_MAX.

    Expands log1p(u) = sum_{k=1}^{8} (-1)^(k+1) u^k / k and sums each power
    term over j in closed form, smallest k first.
    """
    log_ratio = math.log(hi / lo)
    u = snr * lo ** -two_a  # the largest mode of the tail
    total = 0.0
    for k in range(_LOG1P_SERIES_TERMS, 0, -1):
        total += (-1) ** (k + 1) * u ** k / k * _scaled_power_sum(two_a * k, lo, log_ratio)
    return total


def spectrum_sequence_mi(s: SpectrumSequence) -> tuple[float, float, int]:
    """Certified partial information sum for the power-law spectrum.

    Returns (partial sum, certified tail bound, terms used). The truncation
    point J is the smallest integer whose tail certificate

        1/2 * snr * J^(1-2a) / (2a - 1)

    (from log(1+u) <= u and the integral comparison of sum j^(-2a)) is within
    the error budget. Where j_real, the float solution of that inequality,
    rounds below the true J, J steps up until the certificate holds in floats.
    A budget that needs more than float-range terms is an ``InputError``.

    The partial sum 1/2 sum_{j<=J} log1p(u_j), u_j = snr * j^(-2a), costs
    O(M) rather than O(J). The head j <= M is summed directly, with

        M = min(J, max(64, ceil((snr / 1e-3)^(1/(2a))))),

    so every tail mode has u_j <= 1e-3; if J <= M the sum is direct. In the
    tail (M, J] each log1p is its alternating series cut after u^8/8, which
    errs by less than u^9/9 <= 1.2e-28 per mode. Each power sum
    sum_{j=M+1}^{J} j^(-2ak) is evaluated by Euler-Maclaurin through B_10.
    Because x^(-s) is completely monotone, that remainder is bounded by the
    first omitted (B_12) term, about (s / (2 pi (M+1)))^11 / pi relative to
    the sum's first term (M+1)^(-s): at most 1e-16 for k = 1 when a <= 3,
    and each higher k enters weighted by u^(k-1)/k <= (1e-3)^(k-1)/k. Against
    a 40-digit reference the partial sum agrees to about 1e-16 relative, as
    a direct sum does. ``terms`` and ``bound`` do not depend on the route.
    """
    two_a = 2.0 * s.decay_exponent
    decay_margin = two_a - 1.0
    budget = s.truncation_error_budget
    # smallest J with 0.5 * snr * J^(1-2a)/(2a-1) <= budget
    try:
        j_real = (0.5 * s.snr / (decay_margin * budget)) ** (1.0 / decay_margin)
        terms = max(1, math.ceil(j_real))
        bound = 0.5 * s.snr * terms ** (-decay_margin) / decay_margin
        while bound > budget:
            # j_real rounded below the true J; step past at least one float
            step = max((bound / budget) ** (1.0 / decay_margin), 1.0 + 2.0**-52)
            terms = math.ceil(terms * step)
            bound = 0.5 * s.snr * terms ** (-decay_margin) / decay_margin
    except OverflowError:
        raise InputError(
            f"truncation error budget {budget!r} needs more than "
            f"float-range terms at decay exponent {s.decay_exponent!r}"
        ) from None
    head_real = (s.snr / _SERIES_MODE_MAX) ** (1.0 / two_a)  # inf past snr ~ 1.8e305
    head = min(terms, max(_HEAD_MIN_TERMS, math.ceil(min(head_real, terms))))
    total = 0.0
    for start in range(1, head + 1, _HEAD_CHUNK):
        j = np.arange(start, min(start + _HEAD_CHUNK, head + 1), dtype=float)
        total += float(np.sum(np.log1p(s.snr * j ** -two_a)))
    if head < terms:
        total += _power_law_tail(s.snr, two_a, head + 1, terms)
    return 0.5 * total, bound, terms


# kept because the benchmark's spectral workload calls it; read report.rank_bound
def deff_rank_bound(m: RidgeModel, n: int) -> float:
    """Rank-based ceiling max(r * log1p(snr * s_1^2), 2 I) / log(n) on d_eff(n)."""
    return ridge_report(m, n).rank_bound


def ridge_report(m: RidgeModel, n: int | None = None) -> InfoReport:
    """Assemble every spectral functional of a ridge experiment into one report.

    ``n`` is the effective sample size entering the d_eff normalization; it
    defaults to the number of design rows but may be supplied independently
    to study d_eff(n) curves. When no mode carries signal (a zero prior
    variance, or an SNR that underflows) the report is all-zeros apart from
    the design rank. The spectrum is the model's ``spectrum``, so a model's
    design is decomposed once however many reports are built from it. The
    sandwich df <= 2 I <= snr * tr(X^T X) is ``sandwich_lower <= two_mi <=
    sandwich_upper``; ``deff_rank_bound`` reads ``rank_bound`` from here.
    """
    if n is None:
        n = m.n_obs
    spectrum = m.spectrum
    # the per-mode SNRs the MI sums log1p over; with both sandwich bounds
    # summed from them too, u/(1+u) <= log1p(u) <= u survives rounding
    u = m.snr_ratio * spectrum.nonzero
    w = np.log1p(u)  # the per-mode weights of every sum below
    two_mi = float(np.sum(w))  # spectral_information(u), before halving
    mi = 0.5 * two_mi
    d_eff = deff(mi, n)  # rejects n < 3 before log(n) divides below
    df = r_info = None
    lower = upper = rank_bound = 0.0
    if spectrum.rank > 0:
        # r * w_1 >= sum(w) exactly, not always in floats; 2 * mi is d_eff's numerator
        rank_bound = max(float(spectrum.rank * w[0]), 2.0 * mi) / math.log(n)
        if u[0] > 0:
            df = lower = ridge_df(u, 1.0)
            r_info = two_mi / float(w[0])  # info_effective_rank(spectrum.nonzero, snr)
            upper = float(np.sum(u))
    return InfoReport(
        mi_nats=mi,
        two_mi=two_mi,
        d_eff=d_eff,
        n=n,
        df=df,
        r_info=r_info,
        sandwich_lower=lower,
        sandwich_upper=upper,
        rank=spectrum.rank,
        singular_values_sq=spectrum.eigenvalues,
        rank_bound=rank_bound,
    )
