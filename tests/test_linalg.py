"""``effdim.linalg.solve_lower`` and ``invert_lower`` against scipy's triangular solve."""

import warnings

import numpy as np
import pytest

from effdim import linalg

from conftest import random_covariance, random_orthogonal

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


LEAF = linalg.INVERT_LEAF
# one row, both sides of the leaf, one row past two leaves, and the factors
# an audit inverts
INVERT_SIZES = (1, LEAF - 1, LEAF, LEAF + 1, 2 * LEAF + 1, 130, 200, 257)


class TestInvertLower:
    @pytest.mark.parametrize("n", INVERT_SIZES)
    def test_matches_solve_triangular(self, n):
        lower = _lower(np.random.default_rng(n), n)
        x = linalg.invert_lower(lower)
        reference = sla.solve_triangular(lower, np.eye(n), lower=True)
        assert x.shape == (n, n) and x.dtype == np.float64
        assert np.linalg.norm(x - reference) <= 1e-14 * np.linalg.norm(reference)

    @pytest.mark.parametrize("n", [LEAF + 1, 130, 257])
    def test_ill_conditioned_factor_within_the_error_bound(self, n):
        # a covariance of condition 1e12: the error stays within
        # n u || |X| |L| |X| ||_F, the bound of a triangular inverse
        q = random_orthogonal(np.random.default_rng(n), n)
        cov = (q * np.logspace(0, -12, n)) @ q.T
        lower = np.linalg.cholesky(0.5 * (cov + cov.T))
        x = linalg.invert_lower(lower)
        reference = sla.solve_triangular(lower, np.eye(n), lower=True)
        bound = n * np.finfo(float).eps / 2 * np.linalg.norm(
            np.abs(reference) @ np.abs(lower) @ np.abs(reference))
        assert np.linalg.norm(x - reference) <= bound

    @pytest.mark.parametrize("n", [1, LEAF - 1, LEAF])
    def test_up_to_the_leaf_is_the_lu_solve(self, n):
        lower = _lower(np.random.default_rng(n), n)
        np.testing.assert_array_equal(linalg.invert_lower(lower),
                                      np.linalg.solve(lower, np.eye(n)))

    @pytest.mark.parametrize("n", INVERT_SIZES)
    def test_strictly_upper_triangle_is_exactly_zero(self, n):
        x = linalg.invert_lower(_lower(np.random.default_rng(n), n))
        assert not np.triu(x, 1).any()

    @pytest.mark.parametrize("n", INVERT_SIZES)
    def test_diagonal_factor_gives_exact_reciprocals(self, n):
        diag = np.random.default_rng(n).uniform(0.1, 10.0, n)
        np.testing.assert_array_equal(linalg.invert_lower(np.diag(diag)), np.diag(1.0 / diag))

    def test_does_not_write_to_its_argument(self):
        lower = _lower(np.random.default_rng(5), 200)
        lower_copy = lower.copy()
        linalg.invert_lower(lower)
        np.testing.assert_array_equal(lower, lower_copy)

    @pytest.mark.parametrize("n, zero", [(5, 0), (5, 4), (200, 0), (200, LEAF - 1),
                                         (200, LEAF), (200, 100), (200, 199)])
    def test_zero_pivot_raises(self, n, zero):
        lower = _lower(np.random.default_rng(n), n)
        lower[zero, zero] = 0.0
        with pytest.raises(np.linalg.LinAlgError):
            linalg.invert_lower(lower)

    def test_overflowing_inverse_raises_as_the_lu_does(self):
        # above the leaf, the recursion finishes with inf and NaN entries, and
        # the whole factor's LU solve decides: it meets NaN and raises, quietly
        n = 2 * LEAF + 1
        lower = np.eye(n) - 1e10 * np.eye(n, k=-1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(lower, np.eye(n))
            with pytest.raises(np.linalg.LinAlgError):
                linalg.invert_lower(lower)

    def test_subnormal_pivot_gives_the_lu_result(self):
        # 1 / 1e-310 is inf: the LU solve returns inf and NaN entries, and so
        # does the inverse, bit for bit and without a warning
        n = 2 * LEAF + 1
        lower = np.eye(n)
        lower[n - 10, n - 10] = 1e-310
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = np.linalg.solve(lower, np.eye(n))
            assert not np.isfinite(expected).all()
            np.testing.assert_array_equal(linalg.invert_lower(lower), expected)
