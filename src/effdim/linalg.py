"""Array ingestion and numerically careful helpers for symmetric matrices.

Every array a caller supplies (a scalar is a vector of one entry) enters
through ``as_array``; all covariance handling goes through this module, which
enforces (or rejects) symmetry once, factors by Cholesky and reads
log-determinants off triangular factors, never forming a density or
determinant in non-log space. Non-finite entries are rejected before they
reach LAPACK, which would pass them through.

This is the one module that calls ``numpy.linalg``. The rest of the library
calls its ``cholesky``, ``eigh``, ``eigvalsh``, ``slogdet``, ``solve`` and
``svd``: numpy's function of that name, looked up on each call, which raises
NumericalError with numpy's message where numpy raises ``LinAlgError``. No
``LinAlgError`` leaves this module.

The module also owns the library's two float-range rules, each written once:
every symmetric average (M + M^T)/2 is ``average_transpose``, which halves
before it adds, and every log1p of a product that may overflow is
``log1p_product``. And it owns the BLAS thread rule that governs these
LAPACK calls, ``_one_blas_thread``, whose docstring lists its holders; it
lives here, not in ``sampling``, so that a command that samples nothing does
not load the Monte Carlo module to take the hold.
"""

import contextlib
import ctypes
import functools
import math
import threading

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
    matrix-sized buffer holds |M|, then |M - M^T|; it is released before
    ``average_transpose`` takes its own.
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
    del work
    return average_transpose(arr)


def average_transpose(m: np.ndarray) -> np.ndarray:
    """Overwrite the square ``m`` with (M + M^T)/2 and return it.

    Each half is taken before the add, so finite entries near the float
    maximum stay finite; this equals 0.5 * (M + M^T) bit for bit wherever
    that sum is finite and no entry is below 2^-1021. One matrix-sized
    buffer holds M^T / 2.
    """
    half_t = np.multiply(m.T, 0.5, out=np.empty_like(m))
    m *= 0.5
    m += half_t
    return m


def log1p_product(scale: float, *factors: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """log1p(scale * prod factors), or log scale + sum log factors where the product overflows.

    ``scale`` is a finite float and the factors are arrays of one shape with
    finite entries, multiplied left to right (into ``out`` if given). Every
    finite product keeps the bits of ``np.log1p`` of it. Where it overflows,
    the logs of the factors are summed from zero and then added to
    ``math.log(scale)``, so two equal factors give exactly 2 log f.
    """
    with np.errstate(over="ignore"):
        u = np.multiply(scale, factors[0], out=out)
        for f in factors[1:]:
            u *= f
        np.log1p(u, out=u)
    if math.isinf(u.max(initial=0.0)):  # no mask is built for a block without overflow
        big = np.isinf(u)
        u[big] = math.log(scale) + sum(np.log(f[big]) for f in factors)
    return u


def _lapack(name: str):
    """``numpy.linalg.<name>``, looked up per call; its LinAlgError becomes NumericalError."""
    def call(*args, **kwargs):
        try:
            return getattr(np.linalg, name)(*args, **kwargs)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(str(exc)) from exc
    return call


cholesky, eigh, eigvalsh, slogdet, solve, svd = map(
    _lapack, ("cholesky", "eigh", "eigvalsh", "slogdet", "solve", "svd"))


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None.

    Looked up once, on first use, among the OpenBLAS libraries mapped into
    this process (numpy's wheels bundle ``scipy_openblas``).
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


_blas_lock = threading.Lock()
_blas_pools = 0
_blas_saved = None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold the loaded OpenBLAS at one thread while any holder runs.

    Holders are every CLI command that finds numpy loaded (``cli._run``; a
    fresh CLI process starts OpenBLAS at one thread), so that no report's bits
    depend on the BLAS thread count, and two library callers: the worker
    pools (``sampling.map_blocks``), so that workers start no BLAS threads of
    their own; and the design SVD (``dimension.design_spectrum``), so that
    ``ridge_report``'s bits do not depend on it either. The count read when
    the first of any concurrent or nested holders starts is restored when the
    last one ends, also when one raises. Without an OpenBLAS setter this does
    nothing.
    """
    global _blas_pools, _blas_saved
    with _blas_lock:
        hooks = _openblas_threads()
        if hooks is not None and _blas_pools == 0:
            _blas_saved = hooks[0]()
            hooks[1](1)
        _blas_pools += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_pools -= 1
            if hooks is not None and _blas_pools == 0:
                hooks[1](_blas_saved)


def cholesky_lower(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of a matrix the library formed.

    Non-finite input (an overflowed intermediate) or a matrix that is not
    positive definite raises NumericalError.
    """
    if not np.isfinite(m).all():
        raise NumericalError(f"{name} has non-finite entries")
    try:
        return cholesky(m)
    except NumericalError as exc:
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
    eigs = eigvalsh(m)
    if float(eigs[0]) < -1e-8 * max(float(eigs[-1]), 0.0):
        raise NotPositiveDefinite(
            f"{name} has eigenvalue {eigs[0]:.3e} below the PSD tolerance"
        )


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Symmetric square root of a PSD matrix via eigendecomposition.

    Slightly negative eigenvalues (within the PSD tolerance) are clipped to
    zero, so a zero matrix maps to an exactly zero square root.
    """
    w, v = eigh(m)
    w = np.clip(w, 0.0, None)
    return average_transpose((v * np.sqrt(w)) @ v.T)


def solve_lower(lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L x = b for lower-triangular L and a dense right-hand side b."""
    return solve(lower, b)


def invert_lower(lower: np.ndarray) -> np.ndarray:
    """L^{-1} for a nonsingular lower-triangular L, by recursive blocking.

    With L = [[L11, 0], [L21, L22]], the inverse is [[X11, 0], [X21, X22]],
    X11 = L11^{-1} and X22 = L22^{-1} inverted the same way, and
    X21 = -X22 (L21 X11) (Higham, Accuracy and Stability of Numerical
    Algorithms, §14.2). The known zero block is never computed: about 2n³/3
    flops in general products, against about 8n³/3 for an LU of L followed
    by n solves. Up to INVERT_LEAF rows the result is ``solve(L, I)``, bit
    for bit. A zero pivot raises NumericalError from the leaf that holds it,
    and so does an inverse beyond the float range (a non-finite entry).
    """
    n = lower.shape[0]
    inverse = np.zeros((n, n))
    with np.errstate(all="ignore"):
        _invert_blocks(lower, inverse)
    if not np.isfinite(inverse).all():
        raise NumericalError("inverse of a triangular factor overflows the float range")
    return inverse


def _invert_blocks(lower: np.ndarray, out: np.ndarray) -> None:
    """Write L^{-1} into the zeroed ``out``, halving L down to INVERT_LEAF rows."""
    n = lower.shape[0]
    if n <= INVERT_LEAF:
        out[...] = solve(lower, np.eye(n))
        return
    k = n // 2
    _invert_blocks(lower[:k, :k], out[:k, :k])
    _invert_blocks(lower[k:, k:], out[k:, k:])
    lower_left = out[k:, :k]
    np.matmul(out[k:, k:], lower[k:, :k] @ out[:k, :k], out=lower_left)
    np.negative(lower_left, out=lower_left)
