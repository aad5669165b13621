"""Exception types shared across the library, and the checks that raise them.

Each fault is classified where it is detected, into one of two families that
the CLI maps to exit codes. ``InputError`` (exit 2; also a ``ValueError``):
the caller's input is invalid, including a covariance the caller supplied
that fails its PD or PSD check (``NotPositiveDefinite``). ``NumericalError``
(exit 3): a computation on valid input could not complete, such as the
factorization of an intermediate matrix; numpy's ``LinAlgError`` is raised
as one by ``linalg``, the only module that calls ``numpy.linalg``. Any other
exception is a bug.

Scalars are checked by the ``require_*`` functions below, each refused one
named with its value: a value of the wrong type (a string, a complex number,
a float count) is refused as an out-of-range one is. Arrays, matrix or
vector, are ingested by ``linalg.as_array``. No numpy here.
"""

import math
import numbers
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


def _require(rule: str, holds, values: dict) -> None:
    """Raise InputError naming the first of ``values`` that is no finite real or fails ``holds``."""
    for name, value in values.items():
        try:
            valid = isinstance(value, numbers.Real) and math.isfinite(value) and holds(value)
        except OverflowError:  # an int past the float range
            raise _too_large(name, value) from None
        if not valid:
            raise InputError(f"{name} must be {rule}, got {value!r}")


def _too_large(name: str, value: int) -> InputError:
    """The refusal of an integer past the float range, which names its digit count."""
    return InputError(f"{name} is too large for a float ({len(str(value))} digits)")


def require_finite(**values: float) -> None:
    """Raise InputError naming the first of ``values`` that is NaN or infinite."""
    _require("finite", lambda value: True, values)


def require_positive(**values: float) -> None:
    """Raise InputError naming the first of ``values`` that is not finite and > 0."""
    _require("finite and positive", lambda value: value > 0, values)


def require_nonnegative(**values: float) -> None:
    """Raise InputError naming the first of ``values`` that is not finite and >= 0."""
    _require("finite and nonnegative", lambda value: value >= 0, values)


def require_count(minimum: int, **counts: int) -> None:
    """Raise InputError naming the first count that is no integer >= ``minimum`` in float range."""
    for name, value in counts.items():
        _require_integer(name, value)
        if value < minimum:
            raise InputError(f"{name} must be >= {minimum}, got {value!r}")
        try:
            float(value)
        except OverflowError:
            raise _too_large(name, value) from None


def require_sample_size(n: float) -> None:
    """Raise SampleSizeTooSmall unless the real n >= 3, as d_eff = 2 * I / log(n) requires.

    n is an effective sample size, so it need not be an integer; a value that
    is no real number, NaN or infinite raises InputError.
    """
    if not isinstance(n, numbers.Real):
        raise InputError(f"sample size must be a real number, got {n!r}")
    if not -math.inf < n < math.inf:  # NaN fails both; an int of any size passes
        raise InputError(f"sample size must be finite, got {n!r}")
    if n < 3:
        raise SampleSizeTooSmall(f"sample size {n} < 3")


def require_samples(what: str, minimum: int, **counts: int) -> None:
    """Check the sample ``counts`` of the Monte Carlo routine ``what``.

    Each count in turn raises InputError if it is no integer and
    InsufficientSamples if it is below ``minimum``; then the first count too
    large for an array index raises InputError.
    """
    for name, value in counts.items():
        _require_integer(name, value)
        if value < minimum:
            raise InsufficientSamples(f"{what} needs >= {minimum} {name}, got {value}")
    for name, value in counts.items():
        if value > sys.maxsize:
            raise InputError(
                f"{name} is too large for an array index ({len(str(value))} digits, "
                f"limit {sys.maxsize})"
            )


def _require_integer(name: str, value) -> None:
    """Raise InputError naming ``value`` unless it is an integer (a float count is refused)."""
    if not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")


def require_seed(seed: int) -> None:
    """Raise InputError unless the Monte Carlo ``seed`` is a nonnegative integer."""
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise InputError(f"seed must be a nonnegative integer, got {seed!r}")
