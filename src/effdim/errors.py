"""Exception types shared across the library.

Each fault is classified where it is detected, into one of two families that
the CLI maps to exit codes. ``InputError`` (exit 2; also a ``ValueError``):
the caller's input is invalid, including a covariance the caller supplied
that fails its PD or PSD check (``NotPositiveDefinite``). ``NumericalError``
(exit 3): a computation on valid input could not complete, such as the
factorization of an intermediate matrix. Any other exception is a bug.
"""

import math
import sys


class EffdimError(Exception):
    """Base class for all library errors."""


class InputError(EffdimError, ValueError):
    """Invalid user input: bad shapes, parameters, or file contents."""


class NumericalError(EffdimError):
    """A numerical operation could not be completed."""


class DimensionMismatch(InputError):
    """Array shapes are inconsistent with each other."""


class AsymmetricMatrix(InputError):
    """A matrix required to be symmetric exceeds the asymmetry tolerance."""


class NotPositiveDefinite(InputError):
    """A covariance the caller supplied failed its PD or PSD check."""


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


def require_float_count(**counts: int) -> None:
    """Raise InputError naming the first of ``counts`` too large for a float."""
    for name, value in counts.items():
        try:
            float(value)
        except OverflowError:
            raise InputError(
                f"{name} is too large for a float ({len(str(value))} digits)"
            ) from None


def require_index_count(**counts: int) -> None:
    """Raise InputError naming the first of ``counts`` too large for an index."""
    for name, value in counts.items():
        if value > sys.maxsize:
            raise InputError(
                f"{name} is too large for an array index ({len(str(value))} digits, "
                f"limit {sys.maxsize})"
            )
