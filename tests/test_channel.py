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

from effdim.channel import EVALUATION_MODES, ChannelSpectrum

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
        factored, roots = [], []
        cholesky, psd_sqrt = linalg.cholesky_lower, linalg.psd_sqrt

        def recording_cholesky(m, name="matrix"):
            factored.append(name)
            return cholesky(m, name)

        def recording_sqrt(m):
            roots.append(m)
            return psd_sqrt(m)

        monkeypatch.setattr(linalg, "cholesky_lower", recording_cholesky)
        monkeypatch.setattr(linalg, "psd_sqrt", recording_sqrt)
        mutual_information(ch, "observation")
        mutual_information(ch, "parameter")
        estimate_channel_mi(ch, 10_000, seed=1)
        assert factored == ["output covariance"]
        assert len(roots) == 1

    def test_kept_factors_are_read_only(self):
        ch = random_channel(np.random.default_rng(5))
        total = ch.a @ ch.prior_cov @ ch.a.T + ch.noise_cov
        np.testing.assert_array_equal(ch.output_lower,
                                      np.linalg.cholesky(0.5 * (total + total.T)))
        np.testing.assert_array_equal(ch.prior_root, linalg.psd_sqrt(ch.prior_cov))
        for factor in (ch.output_lower, ch.prior_root):
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

    def test_peak_memory_is_one_buffer_besides_the_result(self):
        m = self.nearly_symmetric(500)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            linalg.symmetrize(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before <= 2.2 * m.nbytes


class TestWhitenedSpectrum:
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
        ([1e-13, -1e-3, 1.0, 1e-11], [1.0, 1e-11, 0.0, 0.0], 2),
    ], ids=["empty", "no-signal", "sort-clip-cut"])
    def test_normal_form(self, values, normal, rank):
        spec = ChannelSpectrum(eigenvalues=values)
        assert spec.eigenvalues.tobytes() == np.array(normal).tobytes()
        assert spec.rank == rank


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


class TestSylvesterIdentity:
    def test_forms_agree_on_random_channels(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            ch = random_channel(rng, max_dim=8)
            n_form = mutual_information(ch, "observation")
            p_form = mutual_information(ch, "parameter")
            np.testing.assert_allclose(n_form, p_form, rtol=1e-9, atol=1e-12)


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

    def test_singular_rejected(self):
        ch = GaussianChannel(a=np.eye(2), prior_cov=np.eye(2), noise_cov=np.eye(2))
        with pytest.raises(SingularReparameterization):
            reparameterize(ch, [[1.0, 1.0], [1.0, 1.0]])

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
