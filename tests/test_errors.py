"""The scalar check vocabulary of ``effdim.errors`` at every site that uses it."""

import math
import sys

import numpy as np
import pytest

from effdim import (
    FixedScale,
    GaussianChannel,
    GaussianDistribution,
    HalfCauchy,
    InverseGammaMixture,
    LocationModel,
    RidgeModel,
    ScalarShrinkageModel,
    SpectrumSequence,
    TailCertificate,
    audit_approximation,
    conditional_mi,
    deff,
    estimate_channel_mi,
    estimate_mixture_marginal_mi,
    expected_conditional_mi,
    heavy_tail_bound,
    info_effective_rank,
    random_deff,
    random_deff_distribution,
    ridge_df,
    ridge_report,
)
from effdim import errors
from effdim.errors import InputError

from conftest import run_fresh

# for a fresh interpreter: None in sys.modules makes any import of numpy raise
WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None
import effdim.errors as errors
try:
    errors.require_positive(tau=-1.0)
except errors.InputError as exc:
    print(exc)
"""

MODEL = ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=1.0, n=10)
CERT = TailCertificate(c_const=1.0, alpha_exp=1.0)


def _ridge(**kw):
    return RidgeModel(**{"design": np.eye(2), "noise_var": 1.0, "prior_var": 1.0, **kw})


# (site, parameter, rule, build(value)); rule is "positive", "nonnegative" or
# the minimum of a count
SITES = [
    ("LocationModel", "dim", 1, lambda v: LocationModel(dim=v, prior_var=1.0, noise_var=1.0, n=10)),
    ("LocationModel", "n", 1, lambda v: LocationModel(dim=1, prior_var=1.0, noise_var=1.0, n=v)),
    ("LocationModel", "noise_var", "positive",
     lambda v: LocationModel(dim=1, prior_var=1.0, noise_var=v, n=10)),
    ("LocationModel", "prior_var", "nonnegative",
     lambda v: LocationModel(dim=1, prior_var=v, noise_var=1.0, n=10)),
    ("RidgeModel", "noise_var", "positive", lambda v: _ridge(noise_var=v)),
    ("RidgeModel", "prior_var", "nonnegative", lambda v: _ridge(prior_var=v)),
    ("SpectrumSequence", "snr", "nonnegative",
     lambda v: SpectrumSequence(decay_exponent=1.0, snr=v, truncation_error_budget=1e-6)),
    ("SpectrumSequence", "truncation_error_budget", "positive",
     lambda v: SpectrumSequence(decay_exponent=1.0, snr=1.0, truncation_error_budget=v)),
    ("deff", "mi_nats", "nonnegative", lambda v: deff(v, 10)),
    ("info_effective_rank", "snr", "positive", lambda v: info_effective_rank([1.0, 2.0], v)),
    ("ridge_df", "penalty", "positive", lambda v: ridge_df([1.0, 2.0], v)),
    ("TailCertificate", "c_const", "positive", lambda v: TailCertificate(c_const=v, alpha_exp=1.0)),
    ("TailCertificate", "alpha_exp", "positive",
     lambda v: TailCertificate(c_const=1.0, alpha_exp=v)),
    ("FixedScale", "tau", "positive", lambda v: FixedScale(tau=v)),
    ("InverseGammaMixture", "dof", "positive", lambda v: InverseGammaMixture(dof=v)),
    ("InverseGammaMixture", "scale_sq", "positive",
     lambda v: InverseGammaMixture(dof=3.0, scale_sq=v)),
    ("HalfCauchy", "global_scale", "positive", lambda v: HalfCauchy(global_scale=v)),
    ("ScalarShrinkageModel", "noise_var", "positive",
     lambda v: ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=v, n=10)),
    ("ScalarShrinkageModel", "n", 1,
     lambda v: ScalarShrinkageModel(prior=FixedScale(1.0), noise_var=1.0, n=v)),
    ("conditional_mi", "lam", "nonnegative", lambda v: conditional_mi(MODEL, v)),
    ("random_deff", "lam", "nonnegative", lambda v: random_deff(MODEL, v)),
    ("heavy_tail_bound", "c_snr", "nonnegative", lambda v: heavy_tail_bound(CERT, v)),
]

BOUNDARY = (-1.0, -0.0, 0.0, 5e-324, math.inf, math.nan)
COUNT_BOUNDARY = (-1, -0.0, 0, 5e-324, 10**400)
# values of the wrong type: a real parameter refuses text, a complex number
# and None; a count refuses a float, even an integral one, and text
NOT_REAL = ("1", 1j, None)
NOT_INTEGER = (1.5, 3.0, "10")


def _refused(rule, value) -> bool:
    if rule == "positive":
        return not (math.isfinite(value) and value > 0)
    if rule == "nonnegative":
        return not (math.isfinite(value) and value >= 0)
    return value < rule or value == 10**400


# Monte Carlo estimates, whose seed must be a nonnegative integer; a fixed
# scale draws nothing, and its seed is refused all the same
SEEDED = [
    ("estimate_channel_mi", lambda v: estimate_channel_mi(
        GaussianChannel(a=[[1.0]], prior_cov=[[1.0]], noise_cov=[[1.0]]), 10_000, seed=v)),
    ("random_deff_distribution", lambda v: random_deff_distribution(
        ScalarShrinkageModel(prior=HalfCauchy(1.0), noise_var=1.0, n=10), 10_000, seed=v)),
    ("random_deff_distribution-FixedScale", lambda v: random_deff_distribution(
        MODEL, 10_000, seed=v)),
    ("expected_conditional_mi-FixedScale", lambda v: expected_conditional_mi(
        MODEL, 10_000, seed=v)),
]

HEAVY = ScalarShrinkageModel(prior=HalfCauchy(1.0), noise_var=1.0, n=10)
CHANNEL = GaussianChannel(a=[[1.0]], prior_cov=[[1.0]], noise_cov=[[1.0]])
# Monte Carlo sample counts: (site, parameter, build(value))
COUNTED = [
    ("expected_conditional_mi", "samples", lambda v: expected_conditional_mi(HEAVY, v, seed=1)),
    ("random_deff_distribution", "samples",
     lambda v: random_deff_distribution(HEAVY, v, seed=1)),
    ("estimate_channel_mi", "samples", lambda v: estimate_channel_mi(CHANNEL, v, seed=1)),
    ("estimate_mixture_marginal_mi", "samples",
     lambda v: estimate_mixture_marginal_mi(HEAVY, v, 10_000, seed=1)),
    ("estimate_mixture_marginal_mi", "inner_samples",
     lambda v: estimate_mixture_marginal_mi(HEAVY, 10_000, v, seed=1)),
]

# Monte Carlo thread counts, each an integer >= 1 whatever the prior: a fixed
# scale draws nothing, and its count is refused all the same
THREADED = [
    ("estimate_channel_mi", lambda v: estimate_channel_mi(CHANNEL, 10_000, 1, n_threads=v)),
    ("random_deff_distribution",
     lambda v: random_deff_distribution(HEAVY, 10_000, 1, n_threads=v)),
    ("random_deff_distribution-FixedScale",
     lambda v: random_deff_distribution(MODEL, 10_000, 1, n_threads=v)),
    ("expected_conditional_mi", lambda v: expected_conditional_mi(HEAVY, 10_000, 1, n_threads=v)),
    ("expected_conditional_mi-FixedScale",
     lambda v: expected_conditional_mi(MODEL, 10_000, 1, n_threads=v)),
    ("estimate_mixture_marginal_mi",
     lambda v: estimate_mixture_marginal_mi(HEAVY, 10_000, 10_000, 1, n_threads=v)),
]

# arrays numpy cannot read as real numbers, each refused naming the array
UNREADABLE = {"ragged": [[1.0, 2.0], [3.0]], "string": ["x"], "dict": {"a": 1.0},
              "complex": 1j, "object": object(), "numeric-string": ["3.5"],
              "numpy-complex": np.array([[1 + 5j]])}
ARRAYS = [
    ("GaussianChannel", "forward map",
     lambda v: GaussianChannel(a=v, prior_cov=[[1.0]], noise_cov=[[1.0]])),
    ("ridge_df", "squared singular values", lambda v: ridge_df(v, 1.0)),
    ("RidgeModel", "design", lambda v: _ridge(design=v)),
]

REFUSALS = [
    pytest.param(build, parameter, value,
                 id=f"{site}-{parameter}-{'10**400' if value == 10**400 else repr(value)}")
    for site, parameter, rule, build in SITES
    for value in (BOUNDARY if isinstance(rule, str) else COUNT_BOUNDARY)
    if _refused(rule, value)
] + [
    pytest.param(build, "seed", value, id=f"{site}-seed-{value!r}")
    for site, build in SEEDED
    for value in (-1, 1.5)
] + [
    pytest.param(build, "n_threads", value, id=f"{site}-n_threads-{value!r}")
    for site, build in THREADED
    for value in (0, -1, 2.5, "2", None)
] + [
    pytest.param(build, name, value, id=f"{site}-{kind}")
    for site, name, build in ARRAYS
    for kind, value in UNREADABLE.items()
] + [
    pytest.param(build, parameter, value, id=f"{site}-{parameter}-{value!r}")
    for site, parameter, rule, build in SITES
    for value in (NOT_REAL if isinstance(rule, str) else NOT_INTEGER)
] + [
    pytest.param(build, parameter, value, id=f"{site}-{parameter}-{value!r}")
    for site, parameter, build in COUNTED
    for value in NOT_INTEGER
] + [
    # a real parameter given as an int past the float range
    pytest.param(lambda v: LocationModel(dim=1, prior_var=v, noise_var=1.0, n=10),
                 "prior_var", 10**400, id="LocationModel-prior_var-10**400"),
] + [
    # past 4,300 digits, where str() of an int raises ValueError
    pytest.param(build, parameter, 10**5000, id=f"{site}-{parameter}-10**5000")
    for site, parameter, build in [
        ("LocationModel", "prior_var",
         lambda v: LocationModel(dim=1, prior_var=v, noise_var=1.0, n=10)),
        ("require_count", "n", lambda v: errors.require_count(1, n=v)),
        ("require_samples", "samples", lambda v: errors.require_samples("x", 10, samples=v)),
    ]
]

POSTERIOR = GaussianDistribution(mean=[0.0], cov=[[0.5]])
# sites of the effective sample size n, which need not be an integer
SAMPLE_SIZED = {
    "deff": lambda n: deff(1.0, n),
    "ridge_report": lambda n: ridge_report(_ridge(), n),
    "audit_approximation": lambda n: audit_approximation(POSTERIOR, POSTERIOR, [[1.0]], n),
}


class TestBoundaries:
    @pytest.mark.parametrize("build, parameter, value", REFUSALS)
    def test_refused_value_is_named(self, build, parameter, value):
        with pytest.raises(InputError) as info:
            build(value)
        assert type(info.value) is InputError
        assert str(info.value).startswith(f"{parameter} ")

    @pytest.mark.parametrize("build", [
        lambda v: LocationModel(dim=1, prior_var=v, noise_var=1.0, n=10),
        lambda v: _ridge(prior_var=v),
        lambda v: SpectrumSequence(decay_exponent=1.0, snr=v, truncation_error_budget=1e-6),
    ], ids=["location-prior-var", "ridge-prior-var", "sequence-snr"])
    @pytest.mark.parametrize("value", [0.0, -0.0])
    def test_zero_is_accepted_where_nonnegative(self, build, value):
        build(value)

    @pytest.mark.parametrize("site", SAMPLE_SIZED)
    @pytest.mark.parametrize("n", ["10", 10j])
    def test_sample_size_that_is_no_real_number_is_refused(self, site, n):
        with pytest.raises(InputError, match=r"^sample size must be a real number, got "):
            SAMPLE_SIZED[site](n)

    @pytest.mark.parametrize("site", SAMPLE_SIZED)
    @pytest.mark.parametrize("n", [math.nan, math.inf, -math.inf])
    def test_sample_size_that_is_not_finite_is_refused(self, site, n):
        with pytest.raises(InputError, match=rf"^sample size must be finite, got {n!r}$"):
            SAMPLE_SIZED[site](n)

    @pytest.mark.parametrize("site", SAMPLE_SIZED)
    def test_real_sample_size_is_accepted(self, site):
        SAMPLE_SIZED[site](10.5)

    @pytest.mark.parametrize("site", SAMPLE_SIZED)
    def test_integer_sample_size_past_the_float_range_is_accepted(self, site):
        SAMPLE_SIZED[site](10**400)  # log(n) of an int is a float

    def test_messages_carry_the_value(self):
        with pytest.raises(InputError, match=r"^noise_var must be finite and positive, got 0\.0$"):
            errors.require_positive(noise_var=0.0)
        with pytest.raises(InputError, match=r"^lam must be finite and nonnegative, got nan$"):
            errors.require_nonnegative(lam=math.nan)
        with pytest.raises(InputError, match=r"^dim must be >= 1, got 0$"):
            errors.require_count(1, dim=0)
        with pytest.raises(InputError, match=r"^n is too large for a float \(401 digits\)$"):
            errors.require_count(1, n=10**400)
        with pytest.raises(InputError, match=r"^n is too large for a float \(5001 digits\)$"):
            errors.require_count(1, n=10**5000)
        with pytest.raises(InputError, match=r"^prior_var is too large for a float "
                                             r"\(400 digits\)$"):
            errors.require_positive(prior_var=-(10**399))
        with pytest.raises(InputError, match=rf"^samples is too large for an array index "
                                             rf"\(5001 digits, limit {sys.maxsize}\)$"):
            errors.require_samples("x", 10, samples=10**5000)
        with pytest.raises(InputError, match=r"^dim must be an integer, got 1\.5$"):
            errors.require_count(1, dim=1.5)
        with pytest.raises(InputError, match=r"^prior_var must be finite and nonnegative, "
                                             r"got '1'$"):
            errors.require_nonnegative(prior_var="1")

    def test_first_bad_value_is_named(self):
        with pytest.raises(InputError, match="^b "):
            errors.require_positive(a=1.0, b=0.0, c=-1.0)

    def test_imports_no_numpy(self):
        assert run_fresh(WITHOUT_NUMPY).startswith("tau must be finite and positive")
