"""effdim: Bayesian effective dimension and mutual-information functionals.

Closed-form mutual information for linear Gaussian experiments, the
effective-dimension normalization 2*I/log(n) and its spectral relatives
(ridge degrees of freedom, information effective rank, sandwich bounds),
prior-to-posterior KL audits for approximate Gaussian posteriors, and
global-local shrinkage functionals, each closed form paired with an
independent, seeded Monte Carlo oracle.

Each public name is imported from its module on first use (PEP 562), so
``import effdim`` loads neither numpy nor a submodule. ``errors``,
``location``, ``reportio`` and ``cli`` load no numpy either: the CLI imports
the numpy-backed modules inside the commands that use them.
"""

import importlib

__version__ = "0.1.0"

# each public name and the submodule that defines it
_OWNERS = {
    "ApproxAuditReport": "approx",
    "ChainDecomposition": "shrinkage",
    "ChannelSpectrum": "channel",
    "DeffDistributionSummary": "shrinkage",
    "FixedScale": "priors",
    "GaussianChannel": "channel",
    "GaussianDistribution": "approx",
    "GlobalLocalRegression": "priors",
    "HalfCauchy": "priors",
    "InfoReport": "dimension",
    "InverseGammaMixture": "priors",
    "LocationModel": "location",
    "McEstimate": "oracle",
    "RidgeModel": "dimension",
    "ScalarShrinkageModel": "priors",
    "ShrinkagePrior": "priors",
    "SpectrumSequence": "dimension",
    "TabulatedPrior": "priors",
    "TailCertificate": "priors",
    "audit_approximation": "approx",
    "chain_decomposition": "shrinkage",
    "coarsen": "channel",
    "conditional_mi": "shrinkage",
    "conjugate_regression_info": "approx",
    "deff": "location",
    "deff_rank_bound": "dimension",
    "design_spectrum": "dimension",
    "estimate_channel_mi": "oracle",
    "estimate_gaussian_kl": "oracle",
    "estimate_mixture_marginal_mi": "oracle",
    "expected_conditional_mi": "shrinkage",
    "gaussian_kl": "approx",
    "heavy_tail_bound": "shrinkage",
    "info_effective_rank": "dimension",
    "jensen_bound": "shrinkage",
    "location_mi": "location",
    "mutual_information": "channel",
    "random_deff": "shrinkage",
    "random_deff_distribution": "shrinkage",
    "regression_channel": "dimension",
    "regression_conditional_mi": "shrinkage",
    "regression_mi": "dimension",
    "reparameterize": "channel",
    "ridge_df": "dimension",
    "ridge_report": "dimension",
    "spectrum_sequence_mi": "dimension",
    "whitened_spectrum": "channel",
}

# submodules that resolve as attributes of a bare ``import effdim``
_SUBMODULES = frozenset(_OWNERS.values()) | {"errors", "linalg", "sampling"}

__all__ = sorted(_OWNERS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = getattr(importlib.import_module(f".{_OWNERS[name]}", __name__), name)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_OWNERS, *_SUBMODULES})
