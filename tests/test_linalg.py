"""``effdim.linalg.solve_lower`` against scipy's triangular solve."""

import numpy as np
import pytest

from effdim import linalg

from conftest import random_covariance

sla = pytest.importorskip("scipy.linalg")

# from one row up to the 200-row factors an audit inverts
SIZES = (1, 63, 64, 65, 130, 200)


def _lower(rng, n):
    return np.linalg.cholesky(random_covariance(rng, n))


class TestSolveLower:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("rhs", ["vector", "one column", "seven columns", "identity"])
    def test_matches_solve_triangular(self, n, rhs):
        rng = np.random.default_rng(n)
        lower = _lower(rng, n)
        b = {"vector": lambda: rng.standard_normal(n),
             "one column": lambda: rng.standard_normal((n, 1)),
             "seven columns": lambda: rng.standard_normal((n, 7)),
             "identity": lambda: np.eye(n)}[rhs]()
        x = linalg.solve_lower(lower, b)
        reference = sla.solve_triangular(lower, b, lower=True)
        assert x.shape == b.shape and x.dtype == np.float64
        assert np.linalg.norm(x - reference) <= 1e-14 * np.linalg.norm(reference)

    @pytest.mark.parametrize("n", SIZES)
    def test_diagonal_factor_gives_exact_quotients(self, n):
        # the location oracle's golden reads a diagonal factor's solve of a
        # vector as b / d, bit for bit
        rng = np.random.default_rng(n)
        diag = rng.uniform(0.1, 10.0, n)
        b = rng.standard_normal(n)
        np.testing.assert_array_equal(linalg.solve_lower(np.diag(diag), b), b / diag)

    def test_does_not_write_to_its_arguments(self):
        rng = np.random.default_rng(4)
        lower = _lower(rng, 130)
        b = rng.standard_normal((130, 2))
        lower_copy, b_copy = lower.copy(), b.copy()
        linalg.solve_lower(lower, b)
        np.testing.assert_array_equal(lower, lower_copy)
        np.testing.assert_array_equal(b, b_copy)

    @pytest.mark.parametrize("n, zero", [(5, 0), (5, 4), (200, 0), (200, 100), (200, 199)])
    def test_singular_factor_raises(self, n, zero):
        lower = _lower(np.random.default_rng(n), n)
        lower[zero, zero] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            linalg.solve_lower(lower, np.ones(n))
