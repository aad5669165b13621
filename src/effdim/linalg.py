"""Numerically careful helpers for symmetric matrices.

All covariance handling goes through this module: symmetry is enforced (or
rejected) once at ingestion, factorizations use Cholesky, and log-determinants
are read off triangular factors. No densities or determinants are ever formed
in non-log space. Everything runs on ``numpy.linalg``; non-finite entries are
rejected before they reach LAPACK, which would otherwise pass them through.
"""

import numpy as np

from .errors import (
    AsymmetricMatrix,
    DimensionMismatch,
    InputError,
    NotPositiveDefinite,
    NumericalError,
)

# Relative asymmetry accepted before a matrix is rejected outright.
SYMMETRY_RTOL = 1e-12

# Relative eigenvalue cutoff below which spectral mass counts as zero rank.
RANK_RTOL = 1e-12


def as_matrix(m, name: str = "matrix") -> np.ndarray:
    """Copy input to a finite float 2-D array; reject anything else."""
    arr = np.array(m, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} has non-finite entries")
    return arr


def symmetrize(m, name: str = "matrix") -> np.ndarray:
    """Return (M + M^T)/2 if M is symmetric within tolerance, else reject.

    The tolerance is relative: max|M - M^T| <= SYMMETRY_RTOL * max|M|.
    An exactly zero matrix passes trivially. Besides the copy it returns, one
    matrix-sized buffer holds |M|, then |M - M^T|, then M^T / 2.
    """
    arr = as_matrix(m, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {arr.shape}")
    work = np.abs(arr)
    scale = work.max()
    asym = np.abs(np.subtract(arr, arr.T, out=work), out=work).max()
    if asym > SYMMETRY_RTOL * scale:
        raise AsymmetricMatrix(
            f"{name} asymmetry {asym:.3e} exceeds {SYMMETRY_RTOL:g} * {scale:.3e}"
        )
    # halved before the add, so finite entries near the float maximum stay finite
    np.multiply(arr.T, 0.5, out=work)
    arr *= 0.5
    arr += work
    return arr


def cholesky_lower(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of a matrix the library formed.

    Non-finite input (an overflowed intermediate) or a matrix that is not
    positive definite raises NumericalError.
    """
    if not np.isfinite(m).all():
        raise NumericalError(f"{name} has non-finite entries")
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{name} is not positive definite: {exc}") from exc


def factor_covariance(m, name: str = "covariance") -> tuple[np.ndarray, np.ndarray]:
    """Symmetrize a caller-supplied covariance; return it and its lower factor.

    A covariance that is not positive definite raises NotPositiveDefinite.
    """
    cov = symmetrize(m, name)
    try:
        return cov, cholesky_lower(cov, name)
    except NumericalError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def logdet_from_cholesky(lower: np.ndarray) -> float:
    """log det(A) from the lower Cholesky factor of A."""
    return 2.0 * float(np.sum(np.log(np.diag(lower))))


def validate_psd(m: np.ndarray, name: str = "matrix") -> None:
    """Reject a matrix that is not PSD up to a small relative negative tolerance.

    Eigenvalues more negative than -1e-8 * max_eig are rejected; smaller
    negative values are floating-point noise.
    """
    eigs = np.linalg.eigvalsh(m)
    if float(eigs[0]) < -1e-8 * max(float(eigs[-1]), 0.0):
        raise NotPositiveDefinite(
            f"{name} has eigenvalue {eigs[0]:.3e} below the PSD tolerance"
        )


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix via eigendecomposition.

    Slightly negative eigenvalues (within the PSD tolerance) are clipped to
    zero, so a zero matrix maps to an exactly zero square root.
    """
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 0.0, None)
    root = (v * np.sqrt(w)) @ v.T
    return 0.5 * (root + root.T)


def solve_lower(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L x = b for lower-triangular L; ``solve_lower(L, I)`` inverts L."""
    return np.linalg.solve(lower, b)
