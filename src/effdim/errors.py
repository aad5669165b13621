"""Exception types shared across the library.

Two broad families matter for the CLI exit-code contract: input/validation
problems (bad shapes, bad parameters, malformed CSV) and numerical failures
discovered mid-computation (factorizations that cannot proceed).
"""

import math


class EffdimError(Exception):
    """Base class for all library errors."""


class InputError(EffdimError):
    """Invalid user input: bad shapes, parameters, or file contents."""


class NumericalError(EffdimError):
    """A numerical operation could not be completed."""


class DimensionMismatch(InputError):
    """Array shapes are inconsistent with each other."""


class AsymmetricMatrix(InputError):
    """A matrix required to be symmetric exceeds the asymmetry tolerance."""


class NotPositiveDefinite(NumericalError):
    """A covariance failed its positive-(semi)definiteness requirement."""


class RankDeficientCoarsening(NumericalError):
    """The coarsened noise covariance B Sigma B^T is not positive definite."""


class SingularReparameterization(NumericalError):
    """The parameter transform is singular to working precision."""


class SampleSizeTooSmall(InputError):
    """Effective dimension requires a sample size of at least 3."""


class EmptySpectrum(InputError):
    """A spectral functional was asked for on an empty spectrum."""


class DivergentSpectrum(InputError):
    """Power-law decay exponent <= 1/2: the information sum diverges."""


class InsufficientSamples(InputError):
    """A Monte Carlo routine was invoked below its minimum sample count."""


class CsvFormatError(InputError):
    """A matrix CSV file could not be parsed."""


def require_finite(**values: float) -> None:
    """Raise InputError naming the first of ``values`` that is NaN or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise InputError(f"{name} must be finite, got {value!r}")
