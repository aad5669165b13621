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
from effdim import GaussianChannel

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
