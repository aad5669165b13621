"""The Gaussian location model and d_eff = 2 * I / log(n), with ``math`` alone.

No numpy here, so the CLI's ``location`` and location ``curve`` never load it;
nor ``dataclasses``, whose import (with ``inspect`` and ``ast``) would be most
of the CLI's own start-up.
"""

import math
from collections import namedtuple

from .errors import (require_count, require_finite, require_nonnegative, require_positive,
                     require_sample_size)


class LocationModel(namedtuple("LocationModel", ("dim", "prior_var", "noise_var", "n"))):
    """d-dimensional Gaussian mean estimation with isotropic prior and noise.

    An immutable record whose fields are checked when it is made.
    """

    __slots__ = ()

    def __new__(cls, dim: int, prior_var: float, noise_var: float, n: int):
        require_count(1, dim=dim, n=n)
        require_positive(noise_var=noise_var)
        require_nonnegative(prior_var=prior_var)
        require_finite(snr=n * prior_var / noise_var)
        return super().__new__(cls, dim, prior_var, noise_var, n)

    @classmethod
    def _make(cls, iterable):  # and so ``_replace``: both check the fields too
        return cls(*iterable)


def deff(mi_nats: float, n: int) -> float:
    """Effective dimension 2 * mi / log(n); requires n >= 3."""
    require_sample_size(n)
    require_nonnegative(mi_nats=mi_nats)
    return 2.0 * mi_nats / math.log(n)


def location_mi(m: LocationModel) -> float:
    """(d/2) log(1 + n tau^2 / sigma^2) for the location model."""
    return 0.5 * m.dim * math.log1p(m.n * m.prior_var / m.noise_var)
