"""The Gaussian location model and d_eff = 2 * I / log(n), with ``math`` alone.

No numpy here, so the CLI's ``location`` and location ``curve`` never load it.
"""

import math
from dataclasses import dataclass

from .errors import (require_count, require_finite, require_nonnegative, require_positive,
                     require_sample_size)


@dataclass(frozen=True)
class LocationModel:
    """d-dimensional Gaussian mean estimation with isotropic prior and noise."""

    dim: int
    prior_var: float
    noise_var: float
    n: int

    def __post_init__(self):
        require_count(1, dim=self.dim, n=self.n)
        require_positive(noise_var=self.noise_var)
        require_nonnegative(prior_var=self.prior_var)
        require_finite(snr=self.n * self.prior_var / self.noise_var)


def deff(mi_nats: float, n: int) -> float:
    """Effective dimension 2 * mi / log(n); requires n >= 3."""
    require_sample_size(n)
    require_nonnegative(mi_nats=mi_nats)
    return 2.0 * mi_nats / math.log(n)


def location_mi(m: LocationModel) -> float:
    """(d/2) log(1 + n tau^2 / sigma^2) for the location model."""
    return 0.5 * m.dim * math.log1p(m.n * m.prior_var / m.noise_var)
