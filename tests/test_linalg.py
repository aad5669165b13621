"""``effdim.linalg``: the triangular solves against scipy's, the two float-range rules, and the
one module that calls numpy's linear algebra."""

import ast
import io
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from effdim import GaussianChannel, estimate_channel_mi, linalg, sampling
from effdim.errors import NumericalError

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
        with pytest.raises(NumericalError, match="^Singular matrix$"):
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
        with pytest.raises(NumericalError, match="^Singular matrix$"):
            linalg.invert_lower(lower)

    @pytest.mark.parametrize("n, step, message", [
        (2 * LEAF + 1, 1e10, "inverse of a triangular factor overflows the float range"),
        (LEAF - 1, 1e12, "Singular matrix"),
        (2 * LEAF + 1, 1e12, "Singular matrix"),
    ], ids=["inf-entries", "nan-in-a-leaf", "nan-in-a-leaf-of-the-recursion"])
    def test_overflowing_inverse_raises_numerical_error(self, n, step, message):
        # entry (i, j) of the inverse is step^(i - j), past the float range;
        # a leaf whose LU meets the resulting NaN reports a singular matrix
        lower = np.eye(n) - step * np.eye(n, k=-1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match=f"^{message}$"):
                linalg.invert_lower(lower)

    def test_subnormal_pivot_raises_numerical_error(self):
        # 1 / 1e-310 is 1e310, which no float holds
        n = 2 * LEAF + 1
        lower = np.eye(n)
        lower[n - 10, n - 10] = 1e-310
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="overflows the float range"):
                linalg.invert_lower(lower)


class TestAverageTranspose:
    def test_equals_the_halved_sum_on_normal_range_matrices(self):
        rng = np.random.default_rng(27)
        for k in range(200):
            n = int(rng.integers(1, 40))
            # entries between about 1e-296 and 1e295: every sum is finite and normal
            m = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-290, 290)
            m = np.asfortranarray(m) if k % 2 else m
            expected = 0.5 * (m + m.T)
            out = linalg.average_transpose(m)
            assert out is m
            assert out.tobytes() == expected.tobytes()

    def test_entries_near_the_float_maximum_stay_finite(self):
        m = np.array([[1.5e308, 1.7e308], [1.6e308, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = linalg.average_transpose(m)
        off = 0.5 * 1.7e308 + 0.5 * 1.6e308
        np.testing.assert_array_equal(out, [[1.5e308, off], [off, 1.0]])


class TestLog1pProduct:
    """Bit for bit the two array rules it replaced, overflowing entries included."""

    @staticmethod
    def scale_square_rule(c, lam):
        # the d_eff summary's and the conditional-MI pass's rule, as it stood
        with np.errstate(over="ignore"):
            u = np.multiply(c, lam)
            u *= lam
            np.log1p(u, out=u)
        if math.isinf(u.max(initial=0.0)):
            big = np.isinf(u)
            u[big] = math.log(c) + 2.0 * np.log(lam[big])
        return u

    @staticmethod
    def effective_rank_rule(snr, s_sq):
        # info_effective_rank's weights, as they stood; s_sq is nonincreasing
        with np.errstate(over="ignore"):
            weights = np.log1p(snr * s_sq)
        if math.isinf(weights[0]):
            big = np.isinf(weights)
            weights[big] = math.log(snr) + np.log(s_sq[big])
        return weights

    def test_equals_the_scale_square_rule(self):
        rng = np.random.default_rng(31)
        overflowed = 0
        for _ in range(200):
            c = 10.0 ** rng.uniform(-10, 300)
            lam = np.abs(rng.standard_cauchy(1000)) * 10.0 ** rng.uniform(-5, 160)
            expected = self.scale_square_rule(c, lam)
            assert linalg.log1p_product(c, lam, lam).tobytes() == expected.tobytes()
            out = np.empty_like(lam)
            assert linalg.log1p_product(c, lam, lam, out=out) is out
            assert out.tobytes() == expected.tobytes()
            with np.errstate(over="ignore"):
                overflowed += int(np.isinf(c * lam * lam).sum())
        assert 0 < overflowed < 200 * 1000

    def test_equals_the_effective_rank_rule(self):
        rng = np.random.default_rng(37)
        overflowed = 0
        for _ in range(200):
            snr = 10.0 ** rng.uniform(-10, 300)
            s_sq = np.sort(rng.exponential(size=50) * 10.0 ** rng.uniform(-5, 300))[::-1]
            expected = self.effective_rank_rule(snr, s_sq)
            assert linalg.log1p_product(snr, s_sq).tobytes() == expected.tobytes()
            with np.errstate(over="ignore"):
                overflowed += int(np.isinf(snr * s_sq).sum())
        assert 0 < overflowed < 200 * 50


SRC = Path(linalg.__file__).resolve().parent


def _transpose_averages(source: str) -> list[int]:
    """Lines of ``source`` that add an expression to its own transpose."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            pairs = ((node.left, node.right), (node.right, node.left))
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
            pairs = ((node.target, node.value),)
        else:
            continue
        if any(isinstance(t, ast.Attribute) and t.attr == "T"
               and ast.unparse(t.value) == ast.unparse(x) for x, t in pairs):
            lines.append(node.lineno)
    return lines


class TestOneTransposeAverage:
    """(M + M^T)/2 is written once, in ``linalg.average_transpose``."""

    @pytest.mark.parametrize("source", ["m = 0.5 * (m + m.T)", "m = g.T + g",
                                        "s = 0.5 * (ch.a @ ch.a.T + (ch.a @ ch.a.T).T)",
                                        "m += m.T"])
    def test_the_guard_finds_a_hand_written_average(self, source):
        assert _transpose_averages(source) == [1]

    def test_the_guard_passes_other_sums(self):
        assert _transpose_averages("w = a @ b.T + c\nx = m - m.T\ny = m.T @ m") == []

    def test_no_module_writes_its_own(self):
        found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                 for line in _transpose_averages(path.read_text())]
        assert found == []


def _linalg_escapes(source: str) -> list[int]:
    """Lines of ``source`` that reach ``numpy.linalg`` or name its ``LinAlgError``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            found = node.attr == "linalg" and ast.unparse(node.value) in ("np", "numpy")
        elif isinstance(node, ast.ImportFrom):
            found = node.module == "numpy.linalg" or (
                node.module == "numpy" and any(a.name == "linalg" for a in node.names))
        elif isinstance(node, ast.Import):
            found = any(a.name.startswith("numpy.linalg") for a in node.names)
        elif isinstance(node, ast.ExceptHandler):
            found = node.type is not None and "LinAlgError" in ast.unparse(node.type)
        else:
            continue
        if found:
            lines.add(node.lineno)
    return sorted(lines)


class TestOneExceptionFamily:
    """Only ``linalg`` calls numpy's linear algebra and classifies its failures."""

    @pytest.mark.parametrize("source, line", [
        ("s = np.linalg.svd(x)", 1), ("w = numpy.linalg.eigvalsh(m)", 1),
        ("from numpy import linalg", 1), ("from numpy.linalg import solve", 1),
        ("import numpy.linalg", 1), ("try:\n    f()\nexcept LinAlgError:\n    pass", 3),
        ("try:\n    f()\nexcept (ValueError, la.LinAlgError):\n    pass", 3),
    ], ids=["np-attribute", "numpy-attribute", "from-numpy", "from-numpy-linalg",
            "import-numpy-linalg", "handler", "handler-in-a-tuple"])
    def test_the_guard_finds_numpy_linalg(self, source, line):
        assert _linalg_escapes(source) == [line]

    def test_the_guard_passes_the_library_wrappers(self):
        source = ("from . import linalg\ns = linalg.svd(x)\n"
                  "try:\n    linalg.cholesky(m)\nexcept NumericalError:\n    pass")
        assert _linalg_escapes(source) == []

    def test_no_other_module_reaches_numpy_linalg(self):
        found = [f"{path.name}:{line}" for path in sorted(SRC.glob("*.py"))
                 if path.name != "linalg.py"
                 for line in _linalg_escapes(path.read_text())]
        assert found == []


class TestNoBlasSetter:
    """``_one_blas_thread`` where ``_openblas_threads`` finds no OpenBLAS setter."""

    @pytest.fixture(params=["maps-unreadable", "library-not-loadable"])
    def no_setter(self, request, monkeypatch):
        """The loaded OpenBLAS's count getter, or None; the count is 2 so that 1 is a change."""
        hooks = linalg._openblas_threads()
        if request.param == "maps-unreadable":
            def fake_open(*args, **kwargs):
                raise OSError("maps cannot be read")
        else:
            def fake_open(*args, **kwargs):
                return io.StringIO("7f0000000000-7f0000001000 r-xp 00000000 00:00 0 "
                                   "/nonexistent/libscipy_openblas64_.so\n")
        monkeypatch.setattr(linalg, "open", fake_open, raising=False)
        linalg._openblas_threads.cache_clear()
        original = hooks[0]() if hooks else None
        if hooks:
            hooks[1](2)
        try:
            yield hooks[0] if hooks else lambda: None
        finally:
            if hooks:
                hooks[1](original)
            linalg._openblas_threads.cache_clear()

    def test_no_setter_is_found(self, no_setter):
        assert linalg._openblas_threads() is None

    def test_hold_nests_and_does_nothing(self, no_setter):
        count, pools = no_setter(), linalg._blas_pools
        with linalg._one_blas_thread():
            with linalg._one_blas_thread():
                assert linalg._blas_pools == pools + 2
                assert no_setter() == count
            assert no_setter() == count
        assert (linalg._blas_pools, no_setter()) == (pools, count)

    def test_thread_count_leaves_the_oracle_unchanged(self, no_setter, monkeypatch):
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 2)
        channel = GaussianChannel(a=[[1.0, 0.5]], prior_cov=np.eye(2), noise_cov=[[1.0]])
        one, two = (estimate_channel_mi(channel, 200_000, 1, n_threads=k) for k in (1, 2))
        assert (two.estimate.hex(), two.std_error.hex()) == (one.estimate.hex(),
                                                             one.std_error.hex())
