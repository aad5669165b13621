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

from . import linalg
from .errors import InputError, require_count, require_finite, require_positive


@dataclass(frozen=True)
class TailCertificate:
    """Verified polynomial tail bound P(lam >= t) <= c_const * t^-alpha_exp, t >= t0."""

    c_const: float
    alpha_exp: float
    t0: float = 1.0

    def __post_init__(self):
        require_positive(c_const=self.c_const, alpha_exp=self.alpha_exp)
        require_finite(t0=self.t0)
        if self.t0 < 1.0:
            raise InputError("tail certificate threshold t0 must be >= 1")


class ShrinkagePrior:
    """Base class for latent-scale mixing laws.

    Subclasses implement ``sample`` and set ``second_moment`` (may be
    ``math.inf``) and optionally ``tail_certificate``.
    """

    second_moment: float = math.inf
    tail_certificate: TailCertificate | None = None

    def sample(self, rng: "np.random.Generator", size: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class FixedScale(ShrinkagePrior):
    """Degenerate mixing law lam = tau: the ridge / plain Gaussian prior."""

    tau: float

    def __post_init__(self):
        require_positive(tau=self.tau)

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
        require_positive(dof=self.dof, scale_sq=self.scale_sq)

    @property
    def second_moment(self) -> float:
        if self.dof > 2:
            return self.dof * self.scale_sq / (self.dof - 2.0)
        return math.inf

    def sample(self, rng, size):
        g = rng.standard_gamma(0.5 * self.dof, size)
        with np.errstate(over="ignore"):
            lam = np.divide(0.5 * self.dof * self.scale_sq, g)
            np.sqrt(lam, out=lam)
        if math.isinf(lam.max(initial=0.0)):  # the square overflowed; its root may not
            big = np.isinf(lam)
            lam[big] = math.sqrt(0.5 * self.dof * self.scale_sq) / np.sqrt(g[big])
        return lam


@dataclass(frozen=True)
class HalfCauchy(ShrinkagePrior):
    """lam = global_scale * |standard Cauchy|, the horseshoe local-scale law.

    Second moment is infinite; instead the prior ships the analytic tail
    certificate P(lam >= t) = (2/pi) arctan(global_scale/t) <= (2*global_scale/pi)/t,
    valid for all t >= 1.
    """

    global_scale: float = 1.0
    tail_certificate: TailCertificate = field(init=False)

    def __post_init__(self):
        require_positive(global_scale=self.global_scale)
        object.__setattr__(
            self,
            "tail_certificate",
            TailCertificate(c_const=self.global_scale / (math.pi / 2), alpha_exp=1.0, t0=1.0),
        )

    def sample(self, rng, size):
        return self.global_scale * np.abs(rng.standard_cauchy(size))


@dataclass(frozen=True)
class TabulatedPrior(ShrinkagePrior):
    """Empirical mixing law: uniform draws (with replacement) from a table.

    A nonempty vector of nonnegative scales; a zero scale contributes nothing.
    """

    table: np.ndarray

    def __post_init__(self):
        table = linalg.as_array(self.table, "tabulated prior table", ndim=1, nonnegative=True)
        if table.size == 0:
            raise InputError("tabulated prior requires a nonempty table")
        object.__setattr__(self, "table", table)

    @property
    def second_moment(self) -> float:
        with np.errstate(over="ignore"):  # a square past the float range makes the mean inf
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
        require_positive(noise_var=self.noise_var)
        require_count(1, n=self.n)
        require_finite(c_snr=self.c_snr)

    @property
    def c_snr(self) -> float:
        return self.n / self.noise_var

    @property
    def obs_var(self) -> float:
        return self.noise_var / self.n

