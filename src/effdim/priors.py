"""Global-local shrinkage priors: theta | lam ~ N(0, lam^2), lam ~ Pi.

Four mixing laws for the latent scale lam are supported: a fixed scale
(ridge), the inverse-gamma mixture whose marginal is a Student-t, the
half-Cauchy (horseshoe-type local scale with a fixed global multiplier), and
an arbitrary tabulated sample. Each law exposes sampling, its second moment
(possibly infinite), and, when available, a verified polynomial tail
certificate P(lam >= t) <= C t^{-alpha} for t >= t0.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InputError, require_finite, require_float_count


@dataclass(frozen=True)
class TailCertificate:
    """Verified polynomial tail bound P(lam >= t) <= c_const * t^-alpha_exp, t >= t0."""

    c_const: float
    alpha_exp: float
    t0: float = 1.0

    def __post_init__(self):
        require_finite(c_const=self.c_const, alpha_exp=self.alpha_exp, t0=self.t0)
        if self.c_const <= 0 or self.alpha_exp <= 0:
            raise InputError("tail certificate requires positive constant and exponent")
        if self.t0 < 1.0:
            raise InputError("tail certificate threshold t0 must be >= 1")


class ShrinkagePrior:
    """Base class for latent-scale mixing laws.

    Subclasses implement ``sample`` and set ``second_moment`` (may be
    ``math.inf``) and optionally ``tail_certificate``.
    """

    second_moment: float = math.inf
    tail_certificate: TailCertificate | None = None

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class FixedScale(ShrinkagePrior):
    """Degenerate mixing law lam = tau: the ridge / plain Gaussian prior."""

    tau: float

    def __post_init__(self):
        require_finite(tau=self.tau)
        if self.tau <= 0:
            raise InputError("fixed scale tau must be positive")

    @property
    def second_moment(self) -> float:
        return self.tau * self.tau

    def sample(self, rng, size):
        return np.full(size, self.tau)


@dataclass(frozen=True)
class InverseGammaMixture(ShrinkagePrior):
    """lam^2 ~ Inv-Gamma(nu/2, nu*s2/2); marginal theta is Student-t_nu(scale s).

    E[lam^2] = nu*s2/(nu-2) when nu > 2, infinite otherwise.
    """

    dof: float
    scale_sq: float = 1.0

    def __post_init__(self):
        require_finite(dof=self.dof, scale_sq=self.scale_sq)
        if self.dof <= 0 or self.scale_sq <= 0:
            raise InputError("Student-t mixture requires dof > 0 and scale_sq > 0")

    @property
    def second_moment(self) -> float:
        if self.dof > 2:
            return self.dof * self.scale_sq / (self.dof - 2.0)
        return math.inf

    def sample(self, rng, size):
        g = rng.gamma(shape=0.5 * self.dof, scale=1.0, size=size)
        return np.sqrt(0.5 * self.dof * self.scale_sq / g)


@dataclass(frozen=True)
class HalfCauchy(ShrinkagePrior):
    """lam = global_scale * |standard Cauchy|, the horseshoe local-scale law.

    Second moment is infinite; instead the prior ships the analytic tail
    certificate P(lam >= t) = (2/pi) arctan(global_scale/t) <= (2*global_scale/pi)/t,
    valid for all t >= 1.
    """

    global_scale: float = 1.0
    tail_certificate: TailCertificate | None = field(default=None)

    def __post_init__(self):
        require_finite(global_scale=self.global_scale)
        if self.global_scale <= 0:
            raise InputError("half-Cauchy global scale must be positive")
        object.__setattr__(
            self,
            "tail_certificate",
            TailCertificate(c_const=2.0 * self.global_scale / math.pi, alpha_exp=1.0, t0=1.0),
        )

    @property
    def second_moment(self) -> float:
        return math.inf

    def sample(self, rng, size):
        return self.global_scale * np.abs(rng.standard_cauchy(size))


@dataclass(frozen=True)
class TabulatedPrior(ShrinkagePrior):
    """Empirical mixing law: uniform draws (with replacement) from a table.

    Zero entries are allowed; a zero scale simply contributes no information.
    """

    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table, dtype=float).reshape(-1)
        if table.size == 0:
            raise InputError("tabulated prior requires a nonempty table")
        if np.any(table < 0) or not np.all(np.isfinite(table)):
            raise InputError("tabulated prior entries must be finite and nonnegative")
        object.__setattr__(self, "table", table)

    @property
    def second_moment(self) -> float:
        return float(np.mean(self.table**2))

    def sample(self, rng, size):
        return self.table[rng.integers(0, self.table.size, size=size)]


@dataclass(frozen=True)
class ScalarShrinkageModel:
    """Scalar observation Y | theta ~ N(theta, noise_var / n) with a shrinkage prior.

    The single number that matters downstream is the signal-to-noise factor
    c = n / noise_var multiplying lam^2.
    """

    prior: ShrinkagePrior
    noise_var: float = 1.0
    n: int = 1

    def __post_init__(self):
        if self.noise_var <= 0:
            raise InputError("noise variance must be positive")
        if self.n < 1:
            raise InputError("sample size must be >= 1")
        require_float_count(n=self.n)
        require_finite(noise_var=self.noise_var, c_snr=self.c_snr)

    @property
    def c_snr(self) -> float:
        return self.n / self.noise_var

    @property
    def obs_var(self) -> float:
        return self.noise_var / self.n


@dataclass(frozen=True)
class GlobalLocalRegression:
    """Regression with iid per-coordinate latent scales on the coefficients."""

    design: np.ndarray
    noise_var: float
    local_priors: tuple[ShrinkagePrior, ...]

    def __post_init__(self):
        design = np.array(self.design, dtype=float)
        if design.ndim != 2:
            raise DimensionMismatch("design must be a 2-D matrix")
        require_finite(noise_var=self.noise_var)
        if self.noise_var <= 0:
            raise InputError("noise variance must be positive")
        priors = self.local_priors
        if isinstance(priors, ShrinkagePrior):
            priors = (priors,) * design.shape[1]
        priors = tuple(priors)
        if len(priors) != design.shape[1]:
            raise DimensionMismatch(
                f"{len(priors)} local priors for a design with {design.shape[1]} columns"
            )
        object.__setattr__(self, "design", design)
        object.__setattr__(self, "local_priors", priors)

    @property
    def dim(self) -> int:
        return self.design.shape[1]
