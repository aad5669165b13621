"""Shared random-instance generators for the property suites.

Instances are moderately conditioned on purpose: eigenvalues are drawn from
[0.5, 2], keeping every factorization far from breakdown so that the tight
relative tolerances in the identities actually measure algebraic agreement,
not conditioning luck.
"""

import contextlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

import effdim
from effdim import GaussianChannel, linalg

SRC = str(Path(effdim.__file__).resolve().parents[1])

# hypothesis imports this module when it reports a falsifying example; through
# libcst it reads a deprecated mypy_extensions name, and the suite's "error"
# warning filter would turn that into an INTERNALERROR that ends the session.
# Imported here once, with that one warning class ignored, the later import is
# a no-op.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def run_fresh(code: str) -> str:
    """Stdout of ``code`` run in a new interpreter that imports effdim from this tree."""
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def random_orthogonal(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q * np.sign(np.diag(r))


def random_covariance(rng: np.random.Generator, dim: int,
                      eig_low: float = 0.5, eig_high: float = 2.0) -> np.ndarray:
    q = random_orthogonal(rng, dim)
    eigs = rng.uniform(eig_low, eig_high, size=dim)
    cov = (q * eigs) @ q.T
    return 0.5 * (cov + cov.T)


def random_channel(rng: np.random.Generator, max_dim: int = 6) -> GaussianChannel:
    n_obs = int(rng.integers(1, max_dim + 1))
    p = int(rng.integers(1, max_dim + 1))
    return GaussianChannel(
        a=rng.standard_normal((n_obs, p)),
        prior_cov=random_covariance(rng, p),
        noise_cov=random_covariance(rng, n_obs),
    )


def random_invertible(rng: np.random.Generator, dim: int) -> np.ndarray:
    q1 = random_orthogonal(rng, dim)
    q2 = random_orthogonal(rng, dim)
    return (q1 * rng.uniform(0.5, 2.0, size=dim)) @ q2.T


def conjugate_regression_info(model) -> float:
    """Expected prior-to-posterior KL of a ``RidgeModel``: a third route to its information.

    Assembles the expectation term by term in the prior-normalized posterior
    precision M = I + (prior_var / noise_var) X^T X. The posterior covariance
    is S = prior_var * M^{-1} and the prior S0 = prior_var * I, so

        E tr(S0^{-1} S)      = tr(M^{-1})                   (S nonrandom),
        E [m^T S0^{-1} m]    = tr(S0^{-1} (S0 - S)) = p - tr(M^{-1}),
        E log det(S0^{-1} S) = -log det M,

    and 1/2 (trace + quadratic - logdet - p) = 1/2 log det M: the two trace
    terms sum to p, so no inverse is formed, and log det M is read off M's
    Cholesky factor. The derivation is independent of the design spectrum
    that ``regression_mi`` sums, and of the channel's observation route.
    """
    x = model.design
    precision = np.eye(x.shape[1]) + model.snr_ratio * (x.T @ x)
    lower = linalg.cholesky_lower(linalg.average_transpose(precision), "posterior precision")
    return max(0.5 * linalg.logdet_from_cholesky(lower), 0.0)
