"""Gaussian channel: closed forms, invariances, and error contracts."""

import math
import tracemalloc

import numpy as np
import pytest

from effdim import (
    GaussianChannel,
    coarsen,
    estimate_channel_mi,
    mutual_information,
    reparameterize,
    whitened_spectrum,
)
from effdim import linalg
from effdim.errors import (
    AsymmetricMatrix,
    DimensionMismatch,
    InputError,
    NotPositiveDefinite,
    NumericalError,
    RankDeficientCoarsening,
    SingularReparameterization,
)

from effdim.channel import EVALUATION_MODES, PARAMETER_ROUTE_TOL, ChannelSpectrum

from conftest import random_channel, random_covariance, random_invertible


def scalar_channel(a=1.0, prior=1.0, noise=1.0) -> GaussianChannel:
    return GaussianChannel(a=[[a]], prior_cov=[[prior]], noise_cov=[[noise]])


class TestConstruction:
    def test_dimension_mismatch_prior(self):
        with pytest.raises(DimensionMismatch):
            GaussianChannel(a=np.ones((2, 3)), prior_cov=np.eye(2), noise_cov=np.eye(2))

    def test_dimension_mismatch_noise(self):
        with pytest.raises(DimensionMismatch):
            GaussianChannel(a=np.ones((2, 3)), prior_cov=np.eye(3), noise_cov=np.eye(3))

    def test_noise_must_be_pd(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianChannel(a=np.eye(2), prior_cov=np.eye(2), noise_cov=np.zeros((2, 2)))

    def test_prior_may_be_singular_psd(self):
        ch = GaussianChannel(a=np.eye(2), prior_cov=np.diag([1.0, 0.0]), noise_cov=np.eye(2))
        assert whitened_spectrum(ch).rank == 1

    def test_prior_rejected_if_indefinite(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianChannel(a=np.eye(2), prior_cov=np.diag([1.0, -0.5]), noise_cov=np.eye(2))

    def test_asymmetric_rejected(self):
        bad = np.array([[1.0, 0.2], [0.1, 1.0]])
        with pytest.raises(AsymmetricMatrix):
            GaussianChannel(a=np.eye(2), prior_cov=bad, noise_cov=np.eye(2))

    def test_tiny_asymmetry_symmetrized(self):
        cov = np.eye(2)
        cov[0, 1] = 1e-14
        ch = GaussianChannel(a=np.eye(2), prior_cov=cov, noise_cov=np.eye(2))
        np.testing.assert_array_equal(ch.prior_cov, ch.prior_cov.T)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["a", "prior_cov", "noise_cov"])
    def test_non_finite_entry_rejected(self, field, bad):
        matrices = {"a": np.eye(2), "prior_cov": np.eye(2), "noise_cov": np.eye(2)}
        matrices[field][0, 0] = bad
        with pytest.raises(InputError, match="non-finite"):
            GaussianChannel(**matrices)

    def test_symmetrize_keeps_entries_near_the_float_maximum(self):
        m = np.diag([1e308, 1.0])
        np.testing.assert_array_equal(linalg.symmetrize(m), m)
        ch = GaussianChannel(a=np.eye(2), prior_cov=m, noise_cov=m)
        np.testing.assert_array_equal(ch.noise_lower, np.diag([1e154, 1.0]))

    @pytest.mark.parametrize("cov", [np.zeros((2, 2)), np.diag([1.0, -1.0])])
    def test_supplied_covariance_fault_is_input_error(self, cov):
        with pytest.raises(NotPositiveDefinite) as info:
            linalg.factor_covariance(cov, "noise covariance")
        assert isinstance(info.value, InputError)
        assert "noise covariance is not positive definite" in str(info.value)

    def test_intermediate_factorization_fault_is_numerical_error(self):
        with pytest.raises(NumericalError, match="not positive definite") as info:
            linalg.cholesky_lower(np.diag([1.0, -1.0]), "output covariance")
        assert not isinstance(info.value, (InputError, NotPositiveDefinite))

    def test_cholesky_rejects_non_finite_intermediate(self):
        with pytest.raises(NumericalError, match="non-finite"):
            linalg.cholesky_lower(np.array([[np.inf, 0.0], [0.0, 1.0]]), "product")

    def test_noise_factor_stored_once(self, monkeypatch):
        ch = random_channel(np.random.default_rng(3))
        np.testing.assert_array_equal(ch.noise_lower, np.linalg.cholesky(ch.noise_cov))
        factored = []
        original = linalg.cholesky_lower

        def recording(m, name="matrix"):
            factored.append(name)
            return original(m, name)

        monkeypatch.setattr(linalg, "cholesky_lower", recording)
        whitened_spectrum(ch)
        for mode in EVALUATION_MODES:
            mutual_information(ch, mode)
        estimate_channel_mi(ch, 10_000, seed=1)
        assert "noise covariance" not in factored

    def test_output_factor_and_prior_root_computed_once(self, monkeypatch):
        ch = random_channel(np.random.default_rng(4))
        factored, roots, solves = [], [], []
        cholesky, psd_sqrt = linalg.cholesky_lower, linalg.psd_sqrt
        solve_lower = linalg.solve_lower

        def recording_cholesky(m, name="matrix"):
            factored.append(name)
            return cholesky(m, name)

        def recording_sqrt(m):
            roots.append(m)
            return psd_sqrt(m)

        def recording_solve(lower, b):
            solves.append(lower)
            return solve_lower(lower, b)

        monkeypatch.setattr(linalg, "cholesky_lower", recording_cholesky)
        monkeypatch.setattr(linalg, "psd_sqrt", recording_sqrt)
        monkeypatch.setattr(linalg, "solve_lower", recording_solve)
        whitened_spectrum(ch)
        for mode in EVALUATION_MODES:
            mutual_information(ch, mode)
        assert len(solves) == 1  # the whitened map, shared by two routes
        estimate_channel_mi(ch, 10_000, seed=1)
        assert factored == ["output covariance"]
        assert len(roots) == 1

    def test_kept_factors_are_read_only(self):
        ch = random_channel(np.random.default_rng(5))
        total = ch.a @ ch.prior_cov @ ch.a.T + ch.noise_cov
        np.testing.assert_array_equal(ch.output_lower,
                                      np.linalg.cholesky(0.5 * (total + total.T)))
        np.testing.assert_array_equal(ch.prior_root, linalg.psd_sqrt(ch.prior_cov))
        np.testing.assert_array_equal(ch.whitened_map,
                                      linalg.solve_lower(ch.noise_lower, ch.a))
        for factor in (ch.output_lower, ch.prior_root, ch.whitened_map):
            with pytest.raises(ValueError, match="read-only"):
                factor[0, 0] = 0.0


class TestSymmetrize:
    @staticmethod
    def nearly_symmetric(size: int) -> np.ndarray:
        rng = np.random.default_rng(size)
        m = random_covariance(rng, size)
        return m * (1.0 + 1e-14 * rng.uniform(-1.0, 1.0, m.shape))

    def test_bit_identical_to_halved_sum(self):
        m = self.nearly_symmetric(60)
        assert not np.array_equal(m, m.T)
        assert linalg.symmetrize(m).tobytes() == (0.5 * m + 0.5 * m.T).tobytes()

    @pytest.mark.parametrize("size", [500, 2000])
    def test_peak_memory_is_one_buffer_besides_the_result(self, size):
        # the check's buffer is released before the average takes its own;
        # 128 KiB covers the reductions' scratch
        m = self.nearly_symmetric(size)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            linalg.symmetrize(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 2 * m.nbytes + 2**17


class TestWhitenedSpectrum:
    def test_small_mode_above_eigensolve_error_kept(self):
        ch = GaussianChannel(a=np.diag([1.0, 1e-7]), prior_cov=1e20 * np.eye(2),
                             noise_cov=np.eye(2))
        spec = whitened_spectrum(ch)
        assert spec.rank == 2
        assert not spec.eigenvalues.flags.writeable
        assert mutual_information(ch) == mutual_information(ch, "observation")

    def test_one_triangular_solve(self, monkeypatch):
        calls = []
        original = linalg.solve_lower

        def recording(lower, b):
            calls.append(b.shape)
            return original(lower, b)

        monkeypatch.setattr(linalg, "solve_lower", recording)
        whitened_spectrum(random_channel(np.random.default_rng(6)))
        assert len(calls) == 1

    def test_overflowing_gram_refused_without_warning(self):
        # pytest turns any RuntimeWarning into an error here
        ch = GaussianChannel(a=1e160 * np.array([[1.0, 0.5], [0.2, 2.0]]),
                             prior_cov=np.eye(2), noise_cov=np.eye(2))
        for mode in EVALUATION_MODES:
            with pytest.raises(NumericalError):
                mutual_information(ch, mode)

    def test_large_finite_gram_still_resolved(self):
        ch = GaussianChannel(a=1e150 * np.array([[1.0, 0.5], [0.2, 2.0]]),
                             prior_cov=np.eye(2), noise_cov=np.eye(2))
        assert mutual_information(ch) == 691.4173817843862
        assert mutual_information(ch, "observation") == 691.4173817843862

    def test_identity_case(self):
        spec = whitened_spectrum(scalar_channel())
        np.testing.assert_array_equal(spec.eigenvalues, [1.0])
        assert spec.rank == 1

    def test_zero_prior(self):
        ch = GaussianChannel(a=np.eye(3), prior_cov=np.zeros((3, 3)), noise_cov=np.eye(3))
        spec = whitened_spectrum(ch)
        np.testing.assert_array_equal(spec.eigenvalues, np.zeros(3))
        assert spec.rank == 0

    def test_matches_singular_values_of_design(self):
        # identity prior and noise: the whitened spectrum is the squared
        # singular values of the forward map, computed here by an
        # independent SVD
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 3))
        ch = GaussianChannel(a=a, prior_cov=np.eye(3), noise_cov=np.eye(4))
        spec = whitened_spectrum(ch)
        expected = np.sort(np.linalg.svd(a, compute_uv=False) ** 2)[::-1]
        np.testing.assert_allclose(spec.nonzero, expected, atol=1e-10)
        assert spec.rank == 3

    def test_sorted_and_truncated(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ch = random_channel(rng)
            spec = whitened_spectrum(ch)
            vals = spec.eigenvalues
            assert np.all(np.diff(vals) <= 0)
            assert np.all(vals >= 0)
            assert spec.rank == np.count_nonzero(vals)
            assert spec.rank <= min(ch.n_obs, ch.dim)

    def test_rank_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            ChannelSpectrum(eigenvalues=[2.0, 1.0], rank=5)
        assert ChannelSpectrum(eigenvalues=[2.0, 1.0, 0.0]).rank == 2

    @pytest.mark.parametrize("values, normal, rank", [
        ([], [], 0),
        ([-1.0, -0.0, 0.0], [0.0, 0.0, 0.0], 0),
        ([1e-13, -1e-3, 1.0, 1e-11], [1.0, 1e-11, 1e-13, 0.0], 3),
        (3.0, [3.0], 1),
    ], ids=["empty", "no-signal", "sort-clip-cut", "scalar"])
    def test_normal_form(self, values, normal, rank):
        spec = ChannelSpectrum(eigenvalues=values)
        assert spec.eigenvalues.tobytes() == np.array(normal).tobytes()
        assert spec.rank == rank

    @pytest.mark.parametrize("values, error, match", [
        ([math.nan, 1.0, -math.inf, math.inf], InputError, "non-finite"),
        ([math.nan], InputError, "non-finite"),
        ([2.0, math.inf], InputError, "non-finite"),
        ([-math.inf, 0.0], InputError, "non-finite"),
        ([[1.0, 2.0], [3.0, 4.0]], DimensionMismatch, "must be 1-D"),
    ], ids=["mixed", "nan", "inf", "minus-inf", "two-d"])
    def test_non_finite_eigenvalues_rejected(self, values, error, match):
        # NaN once counted as a positive mode and -inf was clipped to 0; a
        # 2-D array was once kept as a 2-D "spectrum"
        with pytest.raises(error, match=match):
            ChannelSpectrum(eigenvalues=values)


class TestMutualInformation:
    def test_scalar_half_log_two(self):
        assert mutual_information(scalar_channel()) == pytest.approx(
            0.5 * math.log(2.0), abs=1e-15
        )

    def test_zero_prior_gives_zero(self):
        ch = GaussianChannel(a=np.eye(2), prior_cov=np.zeros((2, 2)), noise_cov=np.eye(2))
        assert mutual_information(ch) == 0.0

    def test_modes_agree(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            ch = random_channel(rng)
            spectral = mutual_information(ch, "spectral")
            n_form = mutual_information(ch, "observation")
            p_form = mutual_information(ch, "parameter")
            np.testing.assert_allclose(n_form, spectral, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(p_form, spectral, rtol=1e-9, atol=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            mutual_information(scalar_channel(), "fancy")

    def test_nonnegative_and_zero_iff_no_signal(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            ch = random_channel(rng)
            mi = mutual_information(ch)
            signal = ch.a @ ch.prior_cov @ ch.a.T
            if np.allclose(signal, 0.0, atol=1e-15):
                assert mi == 0.0
            else:
                assert mi > 0.0
        # zero forward map: no signal even with a full prior
        ch0 = GaussianChannel(a=np.zeros((2, 3)), prior_cov=np.eye(3), noise_cov=np.eye(2))
        assert mutual_information(ch0) == 0.0

    def test_monotone_in_prior_scale(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            ch = random_channel(rng)
            base = mutual_information(ch)
            for c in (1.5, 2.0, 10.0):
                scaled = GaussianChannel(
                    a=ch.a, prior_cov=c * ch.prior_cov, noise_cov=ch.noise_cov
                )
                assert mutual_information(scaled) >= base - 1e-12

    def test_spectral_consistency_with_direct_logdet(self):
        # direct log det(I + whitened Gram) computed without truncation
        rng = np.random.default_rng(19)
        import scipy.linalg as sla

        for _ in range(30):
            ch = random_channel(rng)
            lower = np.linalg.cholesky(ch.noise_cov)
            half = sla.solve_triangular(lower, ch.a @ ch.prior_cov @ ch.a.T, lower=True)
            gram = sla.solve_triangular(lower, half.T, lower=True)
            sign, logdet = np.linalg.slogdet(np.eye(ch.n_obs) + 0.5 * (gram + gram.T))
            assert sign > 0
            np.testing.assert_allclose(
                mutual_information(ch), 0.5 * logdet, rtol=1e-9, atol=1e-12
            )


class TestNearTheFloatMaximum:
    """S = diag(1.5e308, 1): A S A^T + N is a float, its sum with its own transpose is not."""

    CLOSED_FORM = 0.5 * (math.log1p(1.5e308) + math.log(2.0))

    @staticmethod
    def channel() -> GaussianChannel:
        return GaussianChannel(a=np.eye(2), prior_cov=np.diag([1.5e308, 1.0]),
                               noise_cov=np.eye(2))

    def test_observation_route_matches_the_closed_form(self):
        assert mutual_information(self.channel(), "observation") == pytest.approx(
            self.CLOSED_FORM, rel=1e-15)

    def test_channel_oracle_covers_the_closed_form(self):
        est = estimate_channel_mi(self.channel(), 20_000, seed=1)
        assert abs(est.estimate - self.CLOSED_FORM) <= 3.0 * est.std_error

    def test_reparameterize_by_the_identity_keeps_the_channel(self):
        ch = self.channel()
        out = reparameterize(ch, np.eye(2))
        np.testing.assert_array_equal(out.prior_cov, ch.prior_cov)
        assert mutual_information(out, "observation") == mutual_information(ch, "observation")


class TestSylvesterIdentity:
    def test_forms_agree_on_random_channels(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            ch = random_channel(rng, max_dim=8)
            n_form = mutual_information(ch, "observation")
            p_form = mutual_information(ch, "parameter")
            np.testing.assert_allclose(n_form, p_form, rtol=1e-9, atol=1e-12)


def scaled_row_channel(s: float) -> GaussianChannel:
    """One observation of three parameters: a = [1, 2, 0.5] s, S = diag(1, 2, 3), N = 1."""
    return GaussianChannel(a=[[1.0 * s, 2.0 * s, 0.5 * s]], prior_cov=np.diag([1.0, 2.0, 3.0]),
                           noise_cov=[[1.0]])


class TestParameterRoute:
    """The parameter route agrees with the spectral one or raises NumericalError."""

    @pytest.mark.parametrize("s", [1e6, 1e8, 1e20])
    def test_unresolvable_unit_directions_raise(self, s):
        # without the check, s = 1e6 is off by 6.6e-6 relative, slogdet
        # fails at 1e8, and 1e20 returns 102.716 against 47.190
        with pytest.raises(NumericalError, match="exceeds 1e-06"):
            mutual_information(scaled_row_channel(s), "parameter")

    def test_map_overflowing_along_the_prior_null_space(self):
        # G = L^-1 A overflows in the direction the prior never reaches, while
        # W = L^-1 A S^1/2 is small; the route solves for W directly
        ch = GaussianChannel(a=[[1e300, 1e-10]], prior_cov=np.diag([0.0, 1.0]),
                             noise_cov=[[1e-20]])
        assert not np.isfinite(ch.whitened_map).all()
        assert mutual_information(ch, "parameter") == pytest.approx(0.5 * math.log(2.0),
                                                                   rel=1e-14)

    def test_map_overflowing_along_the_prior_null_space_in_65_rows(self):
        # the same overflow in more output rows than one LAPACK block: the
        # solve must stay quiet under the suite's warnings-as-errors; W has
        # one column of 65 ones, so 2 MI = log(1 + 65)
        ch = GaussianChannel(a=[[1e300, 1e-10]] * 65, prior_cov=np.diag([0.0, 1.0]),
                             noise_cov=1e-20 * np.eye(65))
        assert not np.isfinite(ch.whitened_map).all()
        assert mutual_information(ch, "parameter") == pytest.approx(0.5 * math.log(66.0),
                                                                   rel=1e-14)

    def test_every_returned_value_matches_the_spectral_route(self):
        for s in np.logspace(0, 4, 41):
            ch = scaled_row_channel(s)
            np.testing.assert_allclose(mutual_information(ch, "parameter"),
                                       mutual_information(ch), rtol=1e-9, atol=0)

    def test_random_channels_agree_or_refuse(self):
        rng = np.random.default_rng(61)
        outcomes = {"agreed": 0, "refused": 0}
        for _ in range(300):
            base = random_channel(rng)
            ch = GaussianChannel(a=base.a * 10 ** rng.uniform(0, 8),
                                 prior_cov=base.prior_cov * 10 ** rng.uniform(-2, 2),
                                 noise_cov=base.noise_cov)
            try:
                value = mutual_information(ch, "parameter")
            except NumericalError:
                outcomes["refused"] += 1
                continue
            outcomes["agreed"] += 1
            assert abs(value - mutual_information(ch)) <= PARAMETER_ROUTE_TOL
        assert min(outcomes.values()) >= 50


class TestCoarsen:
    def test_identity_preserves_mi(self):
        rng = np.random.default_rng(29)
        ch = random_channel(rng)
        same = coarsen(ch, np.eye(ch.n_obs))
        np.testing.assert_allclose(
            mutual_information(same), mutual_information(ch), rtol=1e-12
        )

    def test_row_selector_loses_information(self):
        # two observations of a scalar parameter; keeping one row must
        # strictly lose information (evaluate both closed forms)
        ch = GaussianChannel(
            a=[[1.0], [1.0]], prior_cov=[[1.0]], noise_cov=np.eye(2)
        )
        full = mutual_information(ch)
        kept = mutual_information(coarsen(ch, [[1.0, 0.0]]))
        assert kept == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
        assert full == pytest.approx(0.5 * math.log(3.0), abs=1e-12)
        assert kept < full

    def test_orthogonal_summary_preserves_mi(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            ch = random_channel(rng)
            q, r = np.linalg.qr(rng.standard_normal((ch.n_obs, ch.n_obs)))
            q = q * np.sign(np.diag(r))
            np.testing.assert_allclose(
                mutual_information(coarsen(ch, q)),
                mutual_information(ch),
                rtol=1e-10,
                atol=1e-12,
            )

    def test_data_processing_inequality(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            ch = random_channel(rng)
            q = int(rng.integers(1, ch.n_obs + 1))
            b = rng.standard_normal((q, ch.n_obs))
            assert mutual_information(coarsen(ch, b)) <= mutual_information(ch) + 1e-10

    @pytest.mark.parametrize("scale", [1e-160, 1e-162, 1e155])
    def test_extreme_maps_keep_the_information(self, scale):
        # B N B^T went subnormal (more information than the channel has),
        # underflowed to 0 (blamed on the map's rank) or overflowed
        ch = scalar_channel(a=0.12573022, prior=0.56146029, noise=1.71990536)
        kept = mutual_information(coarsen(ch, [[scale]]))
        assert kept == mutual_information(coarsen(ch, [[3.0]])) == 0.0025736273276303857
        assert kept == pytest.approx(mutual_information(ch), rel=1e-15)

    def test_rows_scaled_by_powers_of_two(self):
        ch = GaussianChannel(a=np.eye(2), prior_cov=np.eye(2), noise_cov=np.eye(2))
        out = coarsen(ch, [[3.0, -0.5], [0.0, 1e-300]])
        np.testing.assert_array_equal(out.a, [[1.5, -0.25], [0.0, 1e-300 * 2.0**997]])
        with pytest.raises(RankDeficientCoarsening):
            coarsen(ch, [[1.0, 0.0], [0.0, 0.0]])

    def test_rank_deficient_rejected(self):
        ch = GaussianChannel(a=np.eye(2), prior_cov=np.eye(2), noise_cov=np.eye(2))
        with pytest.raises(RankDeficientCoarsening):
            coarsen(ch, [[1.0, 0.0], [1.0, 0.0]])

    def test_wrong_width_rejected(self):
        ch = GaussianChannel(a=np.eye(2), prior_cov=np.eye(2), noise_cov=np.eye(2))
        with pytest.raises(DimensionMismatch):
            coarsen(ch, [[1.0, 0.0, 0.0]])


class TestReparameterize:
    def test_identity_is_noop(self):
        ch = scalar_channel()
        out = reparameterize(ch, [[1.0]])
        np.testing.assert_array_equal(out.a, ch.a)
        np.testing.assert_array_equal(out.prior_cov, ch.prior_cov)

    def test_scaling_cancels(self):
        out = reparameterize(scalar_channel(), [[2.0]])
        assert mutual_information(out) == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    def test_invariance_on_random_transforms(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            ch = random_channel(rng)
            t = random_invertible(rng, ch.dim)
            before = mutual_information(ch)
            after = mutual_information(reparameterize(ch, t))
            np.testing.assert_allclose(after, before, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("t", [np.eye(3), np.ones((2, 3))], ids=["wrong-size", "not-square"])
    def test_wrong_shape_rejected(self, t):
        ch = GaussianChannel(a=np.eye(2), prior_cov=np.eye(2), noise_cov=np.eye(2))
        with pytest.raises(DimensionMismatch, match="reparameterization must be 2x2"):
            reparameterize(ch, t)

    def test_singular_rejected(self):
        ch = GaussianChannel(a=np.eye(2), prior_cov=np.eye(2), noise_cov=np.eye(2))
        with pytest.raises(SingularReparameterization):
            reparameterize(ch, [[1.0, 1.0], [1.0, 1.0]])

    @pytest.mark.parametrize("a, t, part", [(0.12573022, 1e155, "prior covariance"),
                                             (1e200, 1e-160, "forward map")])
    def test_overflow_is_a_numerical_failure(self, a, t, part):
        # it printed a RuntimeWarning and then blamed an input the caller never gave
        ch = scalar_channel(a=a, prior=0.56146029, noise=1.71990536)
        with pytest.raises(NumericalError, match=f"reparameterized {part}"):
            reparameterize(ch, [[t]])

    @pytest.mark.parametrize("cond", [1e6, 1e8, 1e10])
    def test_whitening_an_ill_conditioned_prior(self, cond):
        # T = S^-1/2 gives T S T^T = I up to a rounding asymmetry of about
        # eps * cond(S), which GaussianChannel refuses unless it is averaged away
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((2, 2)))
        ch = GaussianChannel(a=[[1.0, 2.0], [0.5, -1.0]],
                             prior_cov=q @ np.diag([1.0, 1.0 / cond]) @ q.T,
                             noise_cov=np.eye(2))
        whitened = reparameterize(ch, np.diag([1.0, cond**0.5]) @ q.T)
        np.testing.assert_allclose(whitened.prior_cov, np.eye(2), atol=1e-15 * cond)
        assert mutual_information(whitened) == pytest.approx(mutual_information(ch), rel=1e-15 * cond)

    def test_prior_conditioning_respected(self):
        # a random PSD prior stays valid through the congruence transform
        rng = np.random.default_rng(41)
        ch = GaussianChannel(
            a=rng.standard_normal((3, 3)),
            prior_cov=random_covariance(rng, 3),
            noise_cov=np.eye(3),
        )
        t = random_invertible(rng, 3)
        out = reparameterize(ch, t)
        assert np.all(np.linalg.eigvalsh(out.prior_cov) > 0)
