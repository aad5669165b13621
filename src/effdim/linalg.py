"""Array ingestion and numerically careful helpers for symmetric matrices.

Every array a caller supplies (a scalar is a vector of one entry) enters
through ``as_array``; all covariance handling goes through this module, which
enforces (or rejects) symmetry once, factors by Cholesky and reads
log-determinants off triangular factors, never forming a density or
determinant in non-log space. Everything runs on ``numpy.linalg``; non-finite
entries are rejected before they reach LAPACK, which would pass them through.
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

# Rows up to which ``invert_lower`` solves against the identity directly.
INVERT_LEAF = 32


def as_array(m, name: str = "matrix", ndim: int = 2, nonnegative: bool = False) -> np.ndarray:
    """Copy input to a finite float array with ``ndim`` axes, >= 0 if ``nonnegative``."""
    try:
        arr = np.asarray(m)
        if arr.dtype.kind in "cSU":  # numpy would drop an imaginary part or parse text
            raise TypeError(f"dtype {arr.dtype}")
        arr = np.array(arr, dtype=float, ndmin=1 if ndim == 1 else 0)
    except (TypeError, ValueError) as exc:  # ragged, or an entry that is no real number
        raise InputError(f"{name} is not an array of real numbers: {exc}") from None
    if arr.ndim != ndim:
        raise DimensionMismatch(f"{name} must be {ndim}-D, got ndim={arr.ndim}")
    if not np.isfinite(arr).all():
        raise InputError(f"{name} has non-finite entries")
    if nonnegative and (arr < 0).any():
        raise InputError(f"{name} must be finite and nonnegative")
    return arr


def symmetrize(m, name: str = "matrix") -> np.ndarray:
    """Return (M + M^T)/2 if M is symmetric within tolerance, else reject.

    The tolerance is relative: max|M - M^T| <= SYMMETRY_RTOL * max|M|.
    An exactly zero matrix passes trivially. Besides the copy it returns, one
    matrix-sized buffer holds |M|, then |M - M^T|, then M^T / 2.
    """
    arr = as_array(m, name)
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
    """Solve L x = b for lower-triangular L and a dense right-hand side b."""
    return np.linalg.solve(lower, b)


def invert_lower(lower: np.ndarray) -> np.ndarray:
    """L^{-1} for a nonsingular lower-triangular L, by recursive blocking.

    With L = [[L11, 0], [L21, L22]], the inverse is [[X11, 0], [X21, X22]],
    X11 = L11^{-1} and X22 = L22^{-1} inverted the same way, and
    X21 = -X22 (L21 X11) (Higham, Accuracy and Stability of Numerical
    Algorithms, §14.2). The known zero block is never computed: about 2n³/3
    flops in general products, against about 8n³/3 for an LU of L followed
    by n solves. Up to INVERT_LEAF rows the result is
    ``np.linalg.solve(L, I)``, bit for bit. A zero pivot raises
    ``LinAlgError`` from the leaf that holds it. If the recursion leaves a
    non-finite entry (an inverse beyond the float range), that solve of the
    whole factor decides: inf entries, or ``LinAlgError``.
    """
    n = lower.shape[0]
    inverse = np.zeros((n, n))
    with np.errstate(all="ignore"):
        _invert_blocks(lower, inverse)
    if np.isfinite(inverse).all():
        return inverse
    return np.linalg.solve(lower, np.eye(n))


def _invert_blocks(lower: np.ndarray, out: np.ndarray) -> None:
    """Write L^{-1} into the zeroed ``out``, halving L down to INVERT_LEAF rows."""
    n = lower.shape[0]
    if n <= INVERT_LEAF:
        out[...] = np.linalg.solve(lower, np.eye(n))
        return
    k = n // 2
    _invert_blocks(lower[:k, :k], out[:k, :k])
    _invert_blocks(lower[k:, k:], out[k:, k:])
    lower_left = out[k:, :k]
    np.matmul(out[k:, k:], lower[k:, :k] @ out[:k, :k], out=lower_left)
    np.negative(lower_left, out=lower_left)
