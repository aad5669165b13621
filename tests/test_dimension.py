"""Effective dimension, spectral functionals, and their cross-checks."""

import math
import time
import warnings

import numpy as np
import pytest

from effdim import (
    LocationModel,
    RidgeModel,
    SpectrumSequence,
    deff,
    deff_rank_bound,
    design_spectrum,
    info_effective_rank,
    location_mi,
    mutual_information,
    regression_channel,
    regression_mi,
    ridge_df,
    ridge_report,
    spectrum_sequence_mi,
)
from effdim import dimension, shrinkage
from effdim.channel import GaussianChannel
from effdim.errors import (
    DimensionMismatch,
    DivergentSpectrum,
    EmptySpectrum,
    InputError,
    NumericalError,
    SampleSizeTooSmall,
)
from effdim.oracle import McEstimate
from effdim.priors import FixedScale, ScalarShrinkageModel, TailCertificate


def smoothing_matrix(design: np.ndarray, penalty: float) -> np.ndarray:
    """Ridge smoothing matrix X (X^T X + alpha I)^{-1} X^T; its trace is ridge_df."""
    gram = design.T @ design + penalty * np.eye(design.shape[1])
    return design @ np.linalg.solve(gram, design.T)


class TestDeff:
    def test_zero_information(self):
        assert deff(0.0, 100) == 0.0

    def test_log_symmetry_unit_case(self):
        assert deff(math.log(10.0), 100) == pytest.approx(1.0, abs=1e-15)

    def test_half_log_101(self):
        expected = math.log(101.0) / math.log(100.0)
        assert deff(0.5 * math.log(101.0), 100) == pytest.approx(expected, abs=1e-15)

    def test_small_n_rejected(self):
        with pytest.raises(SampleSizeTooSmall):
            deff(1.0, 2)

    def test_negative_mi_rejected(self):
        with pytest.raises(ValueError):
            deff(-0.1, 10)


class TestLocationModel:
    def test_zero_prior_variance(self):
        assert location_mi(LocationModel(dim=3, prior_var=0.0, noise_var=1.0, n=50)) == 0.0

    def test_unit_case(self):
        m = LocationModel(dim=1, prior_var=1.0, noise_var=1.0, n=1)
        assert location_mi(m) == pytest.approx(0.5 * math.log(2.0), abs=1e-15)

    def test_three_dimensional(self):
        m = LocationModel(dim=3, prior_var=1.0, noise_var=1.0, n=100)
        assert location_mi(m) == pytest.approx(1.5 * math.log(101.0), abs=1e-12)

    def test_deff_approaches_dimension(self):
        for d in (1, 2, 7):
            m = LocationModel(dim=d, prior_var=1.0, noise_var=1.0, n=10**6)
            assert abs(deff(location_mi(m), m.n) - d) <= 1e-5 * d

    def test_validation(self):
        with pytest.raises(ValueError):
            LocationModel(dim=0, prior_var=1.0, noise_var=1.0, n=1)
        with pytest.raises(ValueError):
            LocationModel(dim=1, prior_var=1.0, noise_var=0.0, n=1)

    def test_record_contract(self):
        m = LocationModel(dim=3, prior_var=1.0, noise_var=1.0, n=1000)
        assert m == LocationModel(3, 1.0, 1.0, 1000)
        assert hash(m) == hash(LocationModel(3, 1.0, 1.0, 1000))
        assert m != LocationModel(dim=3, prior_var=1.0, noise_var=1.0, n=999)
        assert (m.dim, m.prior_var, m.noise_var, m.n) == (3, 1.0, 1.0, 1000)
        assert repr(m) == "LocationModel(dim=3, prior_var=1.0, noise_var=1.0, n=1000)"
        for name in ("dim", "prior_var", "noise_var", "n", "other"):
            with pytest.raises(AttributeError):
                setattr(m, name, 2)
        assert m.n == 1000

    def test_copies_are_checked_too(self):
        m = LocationModel(dim=3, prior_var=1.0, noise_var=1.0, n=1000)
        assert m._replace(n=10) == LocationModel(dim=3, prior_var=1.0, noise_var=1.0, n=10)
        with pytest.raises(InputError, match="^n must be >= 1"):
            m._replace(n=0)
        with pytest.raises(InputError, match="^noise_var "):
            LocationModel._make((3, 1.0, 0.0, 1000))


class TestNonFiniteParameters:
    @pytest.mark.parametrize("prior_var, noise_var", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (1e308, 1e-308),
    ])
    def test_non_finite_parameters_rejected(self, prior_var, noise_var):
        with pytest.raises(InputError, match="must be finite"):
            LocationModel(dim=1, prior_var=prior_var, noise_var=noise_var, n=10)
        with pytest.raises(InputError, match="must be finite"):
            RidgeModel(design=np.eye(2), noise_var=noise_var, prior_var=prior_var)

    def test_non_finite_design_rejected(self):
        with pytest.raises(InputError, match="non-finite"):
            RidgeModel(design=[[1.0, math.nan]], noise_var=1.0, prior_var=1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_design_rejected_without_warning(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=r"^design has non-finite entries$"):
                RidgeModel(design=[[bad, 1.0]], noise_var=1.0, prior_var=1.0)

    def test_shapes_follow_the_design(self):
        model = RidgeModel(design=np.ones((3, 4)), noise_var=2.0, prior_var=0.5)
        channel = regression_channel(model)
        assert model.n_obs == 3 and model.design.shape == (3, 4)
        assert channel.dim == 4 and channel.n_obs == 3


class TestRegressionMi:
    @staticmethod
    def _snr_rank(model):
        """Modes with a positive signal-to-noise ratio snr * s_j^2."""
        return int(np.count_nonzero(model.snr_ratio * model.spectrum.eigenvalues))

    def test_zero_design(self):
        model = RidgeModel(design=np.zeros((3, 2)), noise_var=1.0, prior_var=1.0)
        assert regression_mi(model) == 0.0
        assert self._snr_rank(model) == 0

    def test_identity_design(self):
        model = RidgeModel(design=np.eye(3), noise_var=1.0, prior_var=1.0)
        assert regression_mi(model) == pytest.approx(1.5 * math.log(2.0), abs=1e-15)
        assert self._snr_rank(model) == 3

    def test_zero_prior_variance(self):
        model = RidgeModel(design=np.eye(3), noise_var=1.0, prior_var=0.0)
        assert regression_mi(model) == 0.0 and self._snr_rank(model) == 0

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)])
    def test_empty_design(self, shape):
        model = RidgeModel(design=np.zeros(shape), noise_var=1.0, prior_var=1.0)
        assert regression_mi(model) == 0.0 and self._snr_rank(model) == 0
        assert model.n_obs == shape[0]

    def test_agrees_with_channel_route(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((6, 4))
        model = RidgeModel(design=x, noise_var=1.0, prior_var=1.0)
        mi = regression_mi(model)
        mi_channel = mutual_information(regression_channel(model))
        np.testing.assert_allclose(mi, mi_channel, rtol=1e-9)

    def test_agrees_with_sampling_oracle(self):
        from effdim import estimate_channel_mi

        rng = np.random.default_rng(13)
        x = rng.standard_normal((6, 4))
        model = RidgeModel(design=x, noise_var=1.0, prior_var=1.0)
        mi = regression_mi(model)
        est = estimate_channel_mi(regression_channel(model), 1_000_000, seed=13)
        assert abs(mi - est.estimate) <= 3.0 * est.std_error

    def test_two_route_agreement_on_random_designs(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.standard_normal((int(rng.integers(1, 8)), int(rng.integers(1, 8))))
            model = RidgeModel(
                design=x,
                noise_var=float(rng.uniform(0.25, 4.0)),
                prior_var=float(rng.uniform(0.25, 4.0)),
            )
            mi = regression_mi(model)
            np.testing.assert_allclose(
                mi, mutual_information(regression_channel(model)), rtol=1e-9, atol=1e-12
            )


class TestInfoEffectiveRank:
    def test_flat_spectrum(self):
        for c in (0.3, 1.0, 7.5):
            assert info_effective_rank([c] * 5, snr=1.0) == pytest.approx(5.0, rel=1e-12)

    def test_single_mode(self):
        assert info_effective_rank([2.0], snr=3.0) == 1.0

    def test_two_mode_example(self):
        # the leading mode is the largest, whatever the input order
        expected = (math.log(5.0) + math.log(2.0)) / math.log(5.0)
        for s_sq in ([4.0, 1.0], [1.0, 4.0]):
            assert info_effective_rank(s_sq, snr=1.0) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("s_sq, expected", [([1e-5], 1.0), ([4.0, 1.0], 1.25)])
    def test_underflowing_snr_takes_small_snr_limit(self, s_sq, expected):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert info_effective_rank(s_sq, snr=1e-320) == expected

    def test_overflowing_product_takes_the_log_sum(self):
        # snr * s_1^2 = 1e318 overflows; its weight is log(1e10) + log(1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r_info = info_effective_rank([1e308, 1.0], 1e10)
        assert r_info == pytest.approx(1.0314465408806397, rel=1e-15)

    def test_range_and_decomposition(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            r = int(rng.integers(1, 10))
            s_sq = np.sort(rng.uniform(0.01, 10.0, size=r))[::-1]
            snr = float(10.0 ** rng.uniform(-3, 3))
            r_info = info_effective_rank(s_sq, snr)
            assert 1.0 - 1e-12 <= r_info <= r + 1e-12
            mi = 0.5 * float(np.sum(np.log1p(snr * s_sq)))
            rebuilt = 0.5 * math.log1p(snr * s_sq[0]) * r_info
            np.testing.assert_allclose(rebuilt, mi, rtol=1e-10)

    def test_faster_decay_reduces_rank(self):
        # nested geometric families with a shared leading mode
        r = 8
        previous = None
        for ratio in (0.9, 0.7, 0.5, 0.3):
            s_sq = 4.0 * ratio ** np.arange(r)
            r_info = info_effective_rank(s_sq, snr=1.0)
            if previous is not None:
                assert r_info < previous
            previous = r_info

    def test_empty_rejected(self):
        with pytest.raises(EmptySpectrum):
            info_effective_rank([], snr=1.0)
        with pytest.raises(EmptySpectrum):
            info_effective_rank([0.0], snr=1.0)


class TestDesignSpectrum:
    @pytest.mark.parametrize("shape", [(0, 3), (4, 0), (0, 0)])
    def test_empty_design(self, shape):
        spectrum = design_spectrum(np.zeros(shape))
        assert spectrum.eigenvalues.shape == (0,) and spectrum.rank == 0
        assert ridge_df(spectrum.eigenvalues, 1.0) == 0.0

    def test_read_only(self):
        assert not design_spectrum(np.eye(2)).eigenvalues.flags.writeable

    def test_dependent_column_cut_at_svd_error(self):
        x = np.random.default_rng(8).standard_normal((7, 4))
        x[:, 3] = x[:, 0] - x[:, 1]
        spectrum = design_spectrum(x)
        assert spectrum.rank == 3 and spectrum.eigenvalues[3] == 0.0

    def test_mode_below_old_relative_cut_kept(self):
        # s_2/s_1 = 1e-7 is far above the SVD's error 2 * eps, although its
        # square sits below 1e-12 of the leading one
        m = RidgeModel(design=np.diag([1.0, 1e-7]), noise_var=1.0, prior_var=1e20)
        report = ridge_report(m, 10)
        exact = 0.5 * (math.log1p(1e20) + math.log1p(1e6))
        assert report.rank == 2
        assert report.mi_nats == 29.933606708922344 == pytest.approx(exact, rel=1e-15)
        assert mutual_information(regression_channel(m)) == 29.933606708922344

    def test_rotated_ill_conditioned_designs(self):
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((2, 2)))
        for k in range(3, 16):
            x = q @ np.diag([1.0, 10.0**-k]) @ q.T
            report = ridge_report(RidgeModel(design=x, noise_var=1.0, prior_var=1e20), 10)
            exact = 0.5 * (math.log1p(1e20) + math.log1p(1e20 * 10.0 ** (-2 * k)))
            assert report.mi_nats == pytest.approx(exact, rel=1e-8), k


class TestRidgeDf:
    def test_infinite_penalty_limit(self):
        assert ridge_df([1.0, 1.0], penalty=1e12) == pytest.approx(2e-12, rel=1e-9)

    def test_unit_modes(self):
        assert ridge_df([1.0] * 5, penalty=1.0) == pytest.approx(2.5, abs=1e-15)

    def test_two_mode_example(self):
        assert ridge_df([4.0, 1.0], penalty=1.0) == pytest.approx(4.0 / 5.0 + 0.5, abs=1e-15)

    @pytest.mark.parametrize("s_sq", [[-0.5, 2.0], [-1.0], [-5e-324, 1.0]])
    def test_negative_squared_singular_values_rejected(self, s_sq):
        with pytest.raises(InputError, match="must be finite and nonnegative"):
            ridge_df(s_sq, 1.0)

    def test_overflowing_sum_halves_its_operands(self):
        # s^2 + alpha = 2e308 overflows; 5e307 / (5e307 + 5e307) is exact
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ridge_df([1e308, 1.0], 1e308) == 0.5

    def test_signed_zero_mode_counts_nothing(self):
        assert ridge_df([-0.0, 0.0, 1.0], 1.0) == 0.5

    def test_matches_smoothing_matrix_trace(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.standard_normal((int(rng.integers(2, 9)), int(rng.integers(1, 7))))
            penalty = float(rng.uniform(0.1, 10.0))
            df = ridge_df(design_spectrum(x).nonzero, penalty)
            trace = float(np.trace(smoothing_matrix(x, penalty)))
            np.testing.assert_allclose(df, trace, rtol=1e-9, atol=1e-12)


def _sandwich(model):
    report = ridge_report(model, 3)  # n enters d_eff only
    return report.sandwich_lower, report.two_mi, report.sandwich_upper


class TestSandwich:
    def test_zero_design(self):
        assert _sandwich(RidgeModel(design=np.zeros((2, 2)), noise_var=1.0,
                                    prior_var=1.0)) == (0.0, 0.0, 0.0)

    def test_single_unit_mode(self):
        lower, mid, upper = _sandwich(
            RidgeModel(design=np.array([[1.0]]), noise_var=1.0, prior_var=1.0)
        )
        assert lower == pytest.approx(0.5, abs=1e-15)
        assert mid == pytest.approx(math.log(2.0), abs=1e-15)
        assert upper == pytest.approx(1.0, abs=1e-15)

    def test_random_design_strict_ordering(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 5))
        lower, mid, upper = _sandwich(RidgeModel(design=x, noise_var=1.0, prior_var=1.0))
        assert lower < mid < upper

    def test_thousand_random_spectra(self):
        rng = np.random.default_rng(97)
        for _ in range(1000):
            r = int(rng.integers(1, 9))
            s_sq = rng.uniform(0.01, 10.0, size=r)
            snr = float(10.0 ** rng.uniform(-6, 6))
            u = snr * s_sq
            lower = float(np.sum(u / (1.0 + u)))
            mid = float(np.sum(np.log1p(u)))
            upper = float(np.sum(u))
            assert lower <= mid <= upper

    def test_per_mode_inequality_extremes(self):
        for u in (1e-8, 1.0, 1e8):
            assert u / (1.0 + u) <= math.log1p(u) <= u

    def test_tiny_snr_19x6_design_brackets(self):
        # the design that rng seed 1 draws: df from s^2/(s^2 + alpha) and the
        # upper end from snr * sum(X**2) rounded past 2*MI at tau2 = 1e-30
        rng = np.random.default_rng(1)
        x = rng.standard_normal((rng.integers(2, 40), rng.integers(1, 12)))
        assert x.shape == (19, 6)
        report = ridge_report(RidgeModel(design=x, noise_var=1.0, prior_var=1e-30))
        assert report.sandwich_lower <= 2.0 * report.mi_nats <= report.sandwich_upper

    @pytest.mark.parametrize("tau2", [1e-30, 1e-12, 1.0, 1e6])
    def test_scaled_random_designs_never_raise(self, tau2):
        rng = np.random.default_rng(2024)
        for _ in range(250):
            x = rng.standard_normal((rng.integers(2, 40), rng.integers(1, 12)))
            x *= 10.0 ** rng.uniform(-3, 3)
            report = ridge_report(RidgeModel(design=x, noise_var=1.0, prior_var=tau2), 100)
            assert report.sandwich_lower <= 2.0 * report.mi_nats <= report.sandwich_upper

    def test_bounds_sum_the_retained_snr_modes(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((7, 5))
        model = RidgeModel(design=x, noise_var=2.0, prior_var=3.0)
        report = ridge_report(model)
        u = model.snr_ratio * report.singular_values_sq[: report.rank]
        assert report.sandwich_upper == float(np.sum(u))
        assert report.sandwich_lower == report.df == float(np.sum(u / (u + 1.0)))

    def test_underflowing_snr_reports_zero_information(self):
        report = ridge_report(
            RidgeModel(design=np.eye(2), noise_var=1e308, prior_var=1e-308), 10)
        assert report.mi_nats == report.sandwich_upper == 0.0
        assert report.df is None and report.r_info is None
        assert report.rank == 2

    @pytest.mark.parametrize("tau2", [1e-312, 1e-313, 1e-320])
    def test_subnormal_snrs_bracket_the_unhalved_sum(self, tau2):
        # halving the subnormal sum of log1p(u) can drop its last bit, putting
        # 2 * mi one unit below df = sum(u); the sandwich brackets the sum itself
        x = np.array([[0.37, 1.2], [2.1, -0.4], [0.9, 0.3]])
        model = RidgeModel(design=x, noise_var=1.0, prior_var=tau2)
        report = ridge_report(model, 10)
        assert report.sandwich_lower <= report.two_mi <= report.sandwich_upper
        assert report.mi_nats == 0.5 * report.two_mi > 0.0

    @pytest.mark.parametrize("tau2", [1e-310, 1e-320])
    def test_subnormal_snr_random_designs_never_raise(self, tau2):
        rng = np.random.default_rng(1310)
        for _ in range(200):
            x = rng.standard_normal((rng.integers(2, 40), rng.integers(1, 12)))
            report = ridge_report(RidgeModel(design=x, noise_var=1.0, prior_var=tau2), 10)
            assert report.sandwich_lower <= report.two_mi <= report.sandwich_upper

    def test_overflowing_snr_trace_rejected(self):
        with pytest.raises(InputError, match="must be finite"):
            RidgeModel(design=np.eye(2), noise_var=1e-308, prior_var=1.0)


class TestSpectrumSequence:
    def test_divergent_rejected(self):
        with pytest.raises(DivergentSpectrum):
            SpectrumSequence(decay_exponent=0.5, snr=1.0, truncation_error_budget=1e-6)

    def test_zero_snr_edge(self):
        s = SpectrumSequence(decay_exponent=1.0, snr=0.0, truncation_error_budget=1e-6)
        assert spectrum_sequence_mi(s) == (0.0, 0.0, 1)

    def test_budget_refinement_stability(self):
        coarse = spectrum_sequence_mi(
            SpectrumSequence(decay_exponent=1.0, snr=1.0, truncation_error_budget=1e-8)
        )
        fine = spectrum_sequence_mi(
            SpectrumSequence(decay_exponent=1.0, snr=1.0, truncation_error_budget=1e-9)
        )
        # both partial sums undershoot the limit by at most their budgets,
        # so refining can add at most the coarse budget
        assert 0.0 <= fine[0] - coarse[0] <= 1e-8
        assert fine[2] > coarse[2]

    def test_matches_long_brute_force(self):
        mi, bound, terms = spectrum_sequence_mi(
            SpectrumSequence(decay_exponent=1.0, snr=1.0, truncation_error_budget=1e-6)
        )
        assert bound <= 1e-6
        j = np.arange(1, 10_000_001, dtype=float)
        brute = 0.5 * float(np.sum(np.log1p(j**-2.0)))
        assert abs(mi - brute) <= 1e-6

    def test_certificate_honored(self):
        # the certified bound must dominate the actually omitted tail
        s = SpectrumSequence(decay_exponent=0.75, snr=2.0, truncation_error_budget=1e-3)
        mi, bound, terms = spectrum_sequence_mi(s)
        assert bound <= s.truncation_error_budget
        j = np.arange(terms + 1, terms + 20_000_000, dtype=float)
        omitted = 0.5 * float(np.sum(np.log1p(s.snr * j ** (-2 * s.decay_exponent))))
        assert omitted <= bound

    @pytest.mark.parametrize("field", ["decay_exponent", "snr", "truncation_error_budget"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, field, bad):
        params = {"decay_exponent": 1.0, "snr": 1.0, "truncation_error_budget": 1e-6}
        params[field] = bad
        with pytest.raises(InputError, match="must be finite"):
            SpectrumSequence(**params)

    def test_budget_beyond_float_range_terms_rejected(self):
        # (0.5 / (0.02 * 1e-10))^50 terms overflows a float
        s = SpectrumSequence(decay_exponent=0.51, snr=1.0, truncation_error_budget=1e-10)
        with pytest.raises(InputError, match="more than float-range terms"):
            spectrum_sequence_mi(s)

    def test_astronomical_term_count_is_fast(self):
        s = SpectrumSequence(decay_exponent=0.6, snr=0.5, truncation_error_budget=1e-8)
        start = time.perf_counter()
        mi, bound, terms = spectrum_sequence_mi(s)
        assert time.perf_counter() - start <= 1.0
        assert terms >= 3e40
        assert 0.0 < bound <= s.truncation_error_budget
        assert math.isfinite(mi)


class TestSpectrumSequenceSecondRoutes:
    """The head-plus-tail partial sum against routes that share none of its code."""

    @pytest.mark.parametrize("a", [0.6, 0.75, 1.0, 1.5, 3.0])
    @pytest.mark.parametrize("snr", [1e-3, 1.0, 10.0, 1e4])
    def test_matches_brute_force(self, a, snr):
        # the budget whose truncation point is about 1e6 terms; every case has
        # modes past the directly summed head
        margin = 2.0 * a - 1.0
        s = SpectrumSequence(decay_exponent=a, snr=snr,
                             truncation_error_budget=0.5 * snr / (margin * 1e6**margin))
        mi, _, terms = spectrum_sequence_mi(s)
        assert terms <= 2_000_000
        j = np.arange(1, terms + 1, dtype=float)
        brute = 0.5 * float(np.sum(np.log1p(snr * j ** (-2.0 * a))))
        assert mi == pytest.approx(brute, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("snr", [0.25, 1.0, 4.0, 100.0])
    def test_below_sinh_product_by_at_most_the_bound(self, snr):
        # prod_j (1 + x^2 / (pi j)^2) = sinh(x) / x at x = pi sqrt(snr), and
        # log(sinh(x) / x) = x + log1p(-e^(-2x)) - log(2x) for large x too
        x = math.pi * math.sqrt(snr)
        infinite_sum = 0.5 * (x + math.log1p(-math.exp(-2.0 * x)) - math.log(2.0 * x))
        mi, bound, _ = spectrum_sequence_mi(
            SpectrumSequence(decay_exponent=1.0, snr=snr, truncation_error_budget=1e-5))
        assert 0.0 <= infinite_sum - mi <= bound

    @pytest.mark.parametrize("a, snr, budget, reference", [
        (1.0, 1.0, 1e-8, 0.65092318930185643889),
        (0.75, 2.0, 1e-3, 2.0087969077266450597),
        (0.6, 0.5, 1e-8, 1.3287947998362039088),
        (2.0, 100.0, 1e-12, 4.035645048956512104),
    ])
    def test_matches_forty_digit_reference(self, a, snr, budget, reference):
        # 1/2 sum_{j<=J} log1p(snr j^(-2a)) over the same J terms, computed with
        # mpmath at 40 digits (direct head, Hurwitz-zeta power sums for the
        # tail) and rounded to 20
        mi, _, _ = spectrum_sequence_mi(
            SpectrumSequence(decay_exponent=a, snr=snr, truncation_error_budget=budget))
        assert mi == pytest.approx(reference, rel=1e-15, abs=0.0)


class TestDeffRankBound:
    def test_zero_design(self):
        assert deff_rank_bound(RidgeModel(design=np.zeros((2, 2)), noise_var=1.0,
                                          prior_var=1.0), 100) == 0.0

    def test_rank_one_equality(self):
        x = np.array([[1.0], [2.0]])
        model = RidgeModel(design=x, noise_var=1.0, prior_var=1.0)
        mi = regression_mi(model)
        np.testing.assert_allclose(
            deff_rank_bound(model, 100), deff(mi, 100), rtol=1e-15
        )

    def test_dominates_deff(self):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((6, 4))
        model = RidgeModel(design=x, noise_var=1.0, prior_var=1.0)
        mi = regression_mi(model)
        assert deff_rank_bound(model, 100) >= deff(mi, 100)

    def test_dominates_on_random_designs(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            x = rng.standard_normal((int(rng.integers(1, 8)), int(rng.integers(1, 8))))
            model = RidgeModel(
                design=x,
                noise_var=float(rng.uniform(0.25, 4.0)),
                prior_var=float(rng.uniform(0.0, 4.0)),
            )
            mi = regression_mi(model)
            n = int(rng.integers(3, 1000))
            assert deff_rank_bound(model, n) >= deff(mi, n) - 1e-12

    def test_flat_spectra_bound_not_below_deff(self):
        # at u = 0.62085..., libm's log1p(u) read one ulp below numpy's; and
        # summation rounding alone can put sum(w) above r * w_1
        rng = np.random.default_rng(31)
        cases = [(0.6208531268935671, 4)] + [
            (float(rng.uniform(0.01, 10.0)), int(rng.integers(2, 8))) for _ in range(500)]
        for u, r in cases:
            x = math.sqrt(u) * np.eye(r)
            report = ridge_report(RidgeModel(design=x, noise_var=1.0, prior_var=1.0), 10)
            assert report.rank_bound >= report.d_eff, (u, r)


class TestRidgeReport:
    def test_identity_design_report(self):
        report = ridge_report(RidgeModel(design=np.eye(3), noise_var=1.0, prior_var=1.0), 3)
        assert report.mi_nats == pytest.approx(1.5 * math.log(2.0), abs=1e-15)
        assert report.df == pytest.approx(1.5, abs=1e-15)
        assert report.r_info == pytest.approx(3.0, rel=1e-12)
        assert report.rank == 3
        assert report.d_eff == deff(report.mi_nats, 3)

    def test_zero_design_report(self):
        report = ridge_report(RidgeModel(design=np.zeros((4, 2)), noise_var=1.0,
                                         prior_var=1.0), 10)
        assert report.mi_nats == 0.0
        assert report.d_eff == 0.0
        assert report.df is None
        assert report.r_info is None
        assert report.rank == 0

    def test_zero_prior_report(self):
        report = ridge_report(RidgeModel(design=np.eye(2), noise_var=1.0, prior_var=0.0), 10)
        assert report.mi_nats == 0.0 and report.d_eff == 0.0
        assert report.df is None and report.r_info is None
        assert report.rank == 2

    def test_one_design_spectrum_per_report(self, monkeypatch):
        calls = []
        original = dimension.design_spectrum

        def counting(design):
            calls.append(design.shape)
            return original(design)

        monkeypatch.setattr(dimension, "design_spectrum", counting)
        x = np.random.default_rng(4).standard_normal((9, 4))
        report = ridge_report(RidgeModel(design=x, noise_var=1.0, prior_var=0.7), 50)
        assert calls == [(9, 4)]
        assert report.sandwich_lower == report.df

    def test_one_design_spectrum_per_model(self, monkeypatch):
        calls = []
        original = dimension.design_spectrum

        def counting(design):
            calls.append(design.shape)
            return original(design)

        monkeypatch.setattr(dimension, "design_spectrum", counting)
        x = np.random.default_rng(6).standard_normal((9, 4))
        model = RidgeModel(design=x, noise_var=1.0, prior_var=0.7)
        assert calls == []  # taken on first use, not at construction
        report = ridge_report(model)
        assert deff_rank_bound(model, report.n) == report.rank_bound
        assert regression_mi(model) == report.mi_nats
        assert calls == [(9, 4)]

    def test_stored_spectrum_is_read_only(self):
        model = RidgeModel(design=np.eye(3), noise_var=1.0, prior_var=1.0)
        report = ridge_report(model, 10)
        with pytest.raises(ValueError, match="read-only"):
            report.singular_values_sq[0] = 5.0
        assert model.spectrum.eigenvalues[0] == 1.0

    def test_rank_bound_matches_public_function(self):
        rng = np.random.default_rng(5)
        for prior_var in (0.0, 0.3, 2.0):
            for x in (rng.standard_normal((6, 3)), np.zeros((3, 2))):
                model = RidgeModel(design=x, noise_var=1.0, prior_var=prior_var)
                report = ridge_report(model, 40)
                assert report.rank_bound == deff_rank_bound(model, 40)
                assert report.rank_bound >= report.d_eff - 1e-12

    def test_default_n_is_design_rows(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((7, 3))
        model = RidgeModel(design=x, noise_var=1.0, prior_var=1.0)
        assert ridge_report(model).n == 7

    @pytest.mark.parametrize("tau2", [1e-320, 1e-300, 1.0, 1e30])
    def test_mi_is_the_half_log1p_sum_of_the_mode_snrs(self, tau2):
        x = np.random.default_rng(8).standard_normal((7, 4))
        x[:, 3] = x[:, 0] - x[:, 1]  # rank deficient
        model = RidgeModel(design=x, noise_var=1.3, prior_var=tau2)
        expected = 0.5 * float(np.sum(np.log1p(model.snr_ratio * model.spectrum.nonzero)))
        assert ridge_report(model).mi_nats == expected

    def test_deff_consistency_bitwise(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            x = rng.standard_normal((int(rng.integers(3, 9)), int(rng.integers(1, 6))))
            report = ridge_report(RidgeModel(design=x, noise_var=1.0, prior_var=0.7),
                                  int(rng.integers(3, 500)))
            assert report.d_eff == deff(report.mi_nats, report.n)
            assert report.sandwich_lower <= 2.0 * report.mi_nats <= report.sandwich_upper


def _refused_as(error, function, *args):
    """``function(*args)``, failing the test if it raises anything but ``error``."""
    try:
        function(*args)
    except error:
        raise
    except Exception as exc:
        pytest.fail(f"{function.__name__} raised {exc!r}, not {error.__name__}")


class TestFaultClasses:
    @pytest.mark.parametrize("call", [
        lambda: LocationModel(dim=0, prior_var=1.0, noise_var=1.0, n=1),
        lambda: LocationModel(dim=1, prior_var=-1.0, noise_var=1.0, n=1),
        lambda: LocationModel(dim=1, prior_var=1.0, noise_var=1.0, n=0),
        lambda: RidgeModel(design=np.eye(2), noise_var=0.0, prior_var=1.0),
        lambda: RidgeModel(design=np.eye(2), noise_var=1.0, prior_var=-1.0),
        lambda: SpectrumSequence(decay_exponent=1.0, snr=-1.0, truncation_error_budget=1e-6),
        lambda: SpectrumSequence(decay_exponent=1.0, snr=1.0, truncation_error_budget=0.0),
        lambda: deff(-1.0, 10),
        lambda: info_effective_rank([1.0], 0.0),
        lambda: ridge_df([1.0], 0.0),
        lambda: mutual_information(
            GaussianChannel(a=[[1.0]], prior_cov=[[1.0]], noise_cov=[[1.0]]), "exact"),
        lambda: shrinkage.conditional_mi(
            ScalarShrinkageModel(prior=FixedScale(tau=1.0), noise_var=1.0, n=10), -1.0),
        lambda: shrinkage.random_deff(
            ScalarShrinkageModel(prior=FixedScale(tau=1.0), noise_var=1.0, n=10), -1.0),
        lambda: shrinkage.heavy_tail_bound(
            TailCertificate(c_const=1.0, alpha_exp=1.0, t0=1.0), -1.0),
        lambda: deff(math.nan, 10),
        lambda: deff(math.inf, 10),
        lambda: shrinkage.conditional_mi(
            ScalarShrinkageModel(prior=FixedScale(tau=1.0), noise_var=1.0, n=10), math.nan),
        lambda: shrinkage.random_deff(
            ScalarShrinkageModel(prior=FixedScale(tau=1.0), noise_var=1.0, n=10), math.nan),
        lambda: shrinkage.heavy_tail_bound(
            TailCertificate(c_const=1.0, alpha_exp=1.0, t0=1.0), math.nan),
        lambda: ridge_df([1.0], math.nan),
        lambda: ridge_df([1.0], math.inf),
        lambda: ridge_df([math.nan], 1.0),
        lambda: info_effective_rank([math.nan, 1.0], 1.0),
        lambda: info_effective_rank([1.0, 2.0], math.inf),
        lambda: info_effective_rank([-1.0, 1.0], 1.0),
        lambda: info_effective_rank([1.0, -1e-300], 1.0),
        lambda: _refused_as(DimensionMismatch, info_effective_rank, [[1.0, 2.0], [3.0, 4.0]], 1.0),
        lambda: _refused_as(DimensionMismatch, ridge_df, [[1.0, 2.0], [3.0, 4.0]], 1.0),
        lambda: _refused_as(DimensionMismatch, design_spectrum, [1.0, 2.0]),
        lambda: _refused_as(DimensionMismatch, design_spectrum, 3.0),
        lambda: design_spectrum([[math.nan]]),
        lambda: _refused_as(DimensionMismatch, RidgeModel, [1.0, 2.0], 1.0, 1.0),
        lambda: _refused_as(DimensionMismatch, RidgeModel, np.ones((2, 2, 2)), 1.0, 1.0),
        lambda: _refused_as(DimensionMismatch, RidgeModel, 3.0, 1.0, 1.0),
    ])
    def test_input_checks_raise_input_error(self, call):
        with pytest.raises(InputError):
            call()

    def test_broken_sandwich_is_a_numerical_error(self):
        report = ridge_report(RidgeModel(design=np.eye(2), noise_var=1.0, prior_var=1.0), 10)
        with pytest.raises(NumericalError, match="sandwich") as info:
            dimension.InfoReport(**{**vars(report), "sandwich_upper": 0.0})
        assert not isinstance(info.value, InputError)

    def test_inconsistent_deff_is_a_numerical_error(self):
        report = ridge_report(RidgeModel(design=np.eye(2), noise_var=1.0, prior_var=1.0), 10)
        with pytest.raises(NumericalError, match="d_eff must equal"):
            dimension.InfoReport(**{**vars(report), "d_eff": 2.0 * report.d_eff})

    def test_rank_bound_below_deff_is_a_numerical_error(self):
        report = ridge_report(RidgeModel(design=np.eye(2), noise_var=1.0, prior_var=1.0), 10)
        with pytest.raises(NumericalError, match="rank bound"):
            dimension.InfoReport(**{**vars(report), "rank_bound": 0.5 * report.d_eff})

    def test_mi_other_than_half_the_sum_is_a_numerical_error(self):
        report = ridge_report(RidgeModel(design=np.eye(2), noise_var=1.0, prior_var=1.0), 10)
        with pytest.raises(NumericalError, match="half"):
            dimension.InfoReport(**{**vars(report), "two_mi": 2.0 * report.two_mi})

    def test_negative_std_error_is_a_numerical_error(self):
        with pytest.raises(NumericalError) as info:
            McEstimate(estimate=0.0, std_error=-1.0, n_samples=10, seed=0)
        assert not isinstance(info.value, InputError)
