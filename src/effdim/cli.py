"""Command-line front end.

Subcommands: location | regression | curve | approx | shrinkage | oracle.
Reports are JSON (fixed key order, 17-significant-digit floats) except for
curves, which default to plot-ready CSV. Every numeric result carries a
computation-path tag: closed-form, mc, or bound. Identical configs and seeds
produce byte-identical output files: ``--threads`` only sizes the worker pool,
and every command runs with OpenBLAS held at one thread.

Exit codes: 0 success, 2 invalid configuration or input (an InputError), 3
numerical failure (any other EffdimError; numpy's LinAlgError arrives as a
NumericalError from ``linalg``), 4 contract violation under a strict flag
(--require-domination). Any other exception is a bug and surfaces as a
traceback. See ``errors`` for how faults are classified.
"""

import argparse
import os
import sys

from . import __version__
from .errors import EffdimError, InputError, NumericalError
from .location import LocationModel, deff, location_mi
from .reportio import (
    format_float,
    read_matrix_csv,
    read_vector_csv,
    render_report,
    tagged,
    tagged_mc,
)

SCHEMA = "effdim/report-v1"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CONTRACT = 4

# The --prior flags shared by the shrinkage and oracle parsers, as
# dest: (type, default, help). A flag whose default is None is required by
# every mixing law that reads it.
PRIOR_FLAGS = {
    "tau": (float, None, "fixed prior scale"),
    "nu": (float, None, "student-t degrees of freedom"),
    "s2": (float, 1.0, "student-t scale squared"),
    "tau_g": (float, 1.0, "half-Cauchy global scale"),
    "table": (str, None, "CSV vector of tabulated scales"),
}

# Mixing law: (flags it reads, in report-config order; its builder from (priors module, args)).
PRIORS = {
    "fixed": (("tau",), lambda p, a: p.FixedScale(tau=a.tau)),
    "student-t": (("nu", "s2"), lambda p, a: p.InverseGammaMixture(dof=a.nu, scale_sq=a.s2)),
    "half-cauchy": (("tau_g",), lambda p, a: p.HalfCauchy(global_scale=a.tau_g)),
    "tabulated": (("table",), lambda p, a: p.TabulatedPrior(table=read_vector_csv(a.table))),
}


# The numpy-backed modules are imported by the commands that use them. The
# benchmark's traced replay wraps these five names here before any command runs,
# so each is a stand-in with its target's parameters that imports it when called.
def ridge_report(m, n=None):
    from . import dimension
    return dimension.ridge_report(m, n)


def estimate_channel_mi(ch, n_samples, seed, n_threads=1):
    from . import oracle
    return oracle.estimate_channel_mi(ch, n_samples, seed, n_threads)


def random_deff_distribution(m, samples, seed, n_threads=1):
    from . import shrinkage
    return shrinkage.random_deff_distribution(m, samples, seed, n_threads)


def expected_conditional_mi(m, samples, seed, n_threads=1):
    from . import shrinkage
    return shrinkage.expected_conditional_mi(m, samples, seed, n_threads)


def chain_decomposition(m, outer_samples, inner_samples, seed, n_threads=1):
    from . import shrinkage
    return shrinkage.chain_decomposition(m, outer_samples, inner_samples, seed, n_threads)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effdim",
        description="Effective dimension and information functionals of Bayesian experiments.",
    )
    parser.add_argument("--version", action="version", version=f"effdim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, mc=False, formats=("json",)):
        p.add_argument("--out", help="output file path (default: stdout)")
        p.add_argument("--format", choices=formats, default=formats[0], help="output format")
        if mc:
            p.add_argument("--seed", type=int, help="master seed (fallback: EFFDIM_SEED)")
            p.add_argument("--samples", type=int, default=100_000,
                           help="Monte Carlo sample count")
            p.add_argument("--threads", type=int, default=1,
                           help="execution hint, at least 1; never changes results")

    def add_prior(p, required):
        p.add_argument("--prior", choices=list(PRIORS), required=required,
                       help="mixing law of the latent scale")
        for dest, (kind, default, text) in PRIOR_FLAGS.items():
            p.add_argument("--" + dest.replace("_", "-"), type=kind, default=default, help=text)

    p = sub.add_parser("location", help="Gaussian location model")
    p.add_argument("--d", type=int, default=1, help="parameter dimension")
    p.add_argument("--tau2", type=float, required=True, help="prior variance")
    p.add_argument("--sigma2", type=float, required=True, help="noise variance")
    p.add_argument("--n", type=int, required=True, help="sample size (>= 3)")
    p.add_argument("--oracle", action="store_true",
                   help="append a Monte Carlo cross-check of the closed form")
    add_common(p, mc=True)

    p = sub.add_parser("regression", help="linear regression with a CSV design")
    p.add_argument("--design", required=True, help="design matrix CSV path")
    p.add_argument("--tau2", type=float, required=True)
    p.add_argument("--sigma2", type=float, required=True)
    p.add_argument("--n", type=int, help="effective sample size (default: design rows)")
    add_common(p)

    p = sub.add_parser("curve", help="d_eff versus n, as plot-ready CSV")
    p.add_argument("--n-grid", required=True,
                   help="comma-separated sample sizes, strictly increasing, all >= 3")
    p.add_argument("--d", type=int, help="location model dimension (default: 1)")
    p.add_argument("--tau2", type=float, required=True)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--tau2-schedule", choices=["fixed", "inverse-n"], default="fixed",
                   help="inverse-n scales the prior variance as tau2/n")
    p.add_argument("--design", help="design CSV: emit the regression d_eff curve instead")
    add_common(p, formats=("csv", "json"))

    p = sub.add_parser("approx", help="covariance-inflation audit of an approximate posterior")
    p.add_argument("--exact-cov", required=True)
    p.add_argument("--approx-cov", required=True)
    p.add_argument("--prior-cov", required=True)
    p.add_argument("--exact-mean", help="CSV vector (default: zeros)")
    p.add_argument("--approx-mean", help="CSV vector (default: zeros)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--require-domination", action="store_true",
                   help="exit 4 if the approximate covariance does not dominate")
    add_common(p)

    p = sub.add_parser("shrinkage", help="global-local shrinkage summaries and bounds")
    add_prior(p, required=True)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--decompose", action="store_true",
                   help="append the nested chain-rule decomposition")
    p.add_argument("--inner-samples", type=int, default=10_000)
    add_common(p, mc=True)

    p = sub.add_parser("oracle", help="run a Monte Carlo oracle directly")
    p.add_argument("--kind", choices=["channel-mi", "gaussian-kl", "mixture-mi"],
                   required=True)
    p.add_argument("--a", help="forward map CSV (channel-mi)")
    p.add_argument("--prior-cov", help="prior covariance CSV")
    p.add_argument("--noise-cov", help="noise covariance CSV (channel-mi)")
    p.add_argument("--mean", help="mean vector CSV (gaussian-kl)")
    p.add_argument("--cov", help="covariance CSV (gaussian-kl)")
    add_prior(p, required=False)
    p.add_argument("--sigma2", type=float, default=1.0)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--inner-samples", type=int, default=10_000)
    add_common(p, mc=True)

    return parser


def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        env = os.environ.get("EFFDIM_SEED")
        if env is None:
            raise InputError("a master seed is required: pass --seed or set EFFDIM_SEED")
        try:
            seed = int(env)
        except ValueError:
            raise InputError(f"EFFDIM_SEED={env!r} is not an integer") from None
    if seed < 0:
        raise InputError(f"the master seed must be nonnegative, got {seed}")
    return seed


def _require(args, context: str, flags) -> None:
    """Raise InputError naming the first of ``flags`` that was not given."""
    for dest in flags:
        if getattr(args, dest) is None:
            raise InputError(f"{context} requires --{dest.replace('_', '-')}")


def _build_prior(args):
    from . import priors
    flags, build = PRIORS[args.prior]
    _require(args, f"--prior {args.prior}", flags)
    return build(priors, args)


def _given(obj, *names) -> dict:
    """The attributes ``names`` of parsed arguments or a library result, under their own names."""
    return {name: getattr(obj, name) for name in names}


def _fields(result, path, *names) -> dict:
    """The fields ``names`` of a library result, tagged with ``path``, under their own names."""
    return {name: tagged(value, path) for name, value in _given(result, *names).items()}


def _prior_config(args) -> dict:
    return _given(args, "prior", *PRIORS[args.prior][0])


def _report(args, config: dict, results: dict, code: int = EXIT_OK) -> tuple[str, int]:
    """Rendered report of one subcommand run, with its exit code."""
    report = {"schema": SCHEMA, "subcommand": args.command, "config": config, "results": results}
    return render_report(report), code


def _cmd_location(args) -> tuple[str, int]:
    model = LocationModel(dim=args.d, prior_var=args.tau2, noise_var=args.sigma2, n=args.n)
    mi = location_mi(model)
    results = {
        "mi_nats": tagged(mi, "closed-form"),
        "d_eff": tagged(deff(mi, args.n), "closed-form"),
    }
    config = _given(args, "d", "tau2", "sigma2", "n")
    if args.oracle:
        import numpy as np
        from .channel import GaussianChannel
        seed = _resolve_seed(args)
        # the sufficient-statistic channel: identity map, isotropic prior,
        # noise variance sigma2 / n
        channel = GaussianChannel(
            a=np.eye(args.d),
            prior_cov=args.tau2 * np.eye(args.d),
            noise_cov=(args.sigma2 / args.n) * np.eye(args.d),
        )
        est = estimate_channel_mi(channel, args.samples, seed, n_threads=args.threads)
        results["oracle_mi"] = tagged_mc(est)
        config.update(_given(args, "samples"), seed=seed)
    return _report(args, config, results)


def _cmd_regression(args) -> tuple[str, int]:
    from .dimension import RidgeModel
    design = read_matrix_csv(args.design)
    model = RidgeModel(design=design, noise_var=args.sigma2, prior_var=args.tau2)
    report_data = ridge_report(model, args.n)
    results = {
        **_fields(report_data, "closed-form", "mi_nats", "d_eff", "df", "r_info"),
        **_fields(report_data, "bound", "sandwich_lower", "sandwich_upper"),
        "deff_rank_bound": tagged(report_data.rank_bound, "bound"),
        **_fields(report_data, "closed-form", "rank", "singular_values_sq"),
    }
    config = {**_given(args, "design", "tau2", "sigma2"), "n": report_data.n}
    return _report(args, config, results)


def _parse_grid(text: str) -> list[int]:
    try:
        grid = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise InputError(f"--n-grid {text!r} is not a comma-separated integer list") from None
    if not grid:
        raise InputError("--n-grid is empty")
    if any(n < 3 for n in grid):
        raise InputError("every grid entry must be >= 3")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise InputError("grid entries must be strictly increasing")
    return grid


def _cmd_curve(args) -> tuple[str, int]:
    grid = _parse_grid(args.n_grid)
    d = 1 if args.d is None else args.d  # recorded as 1 for a design curve too

    def location(n):
        return location_mi(LocationModel(dim=d, prior_var=args.tau2, noise_var=args.sigma2, n=n))

    if args.design is not None:
        # both shape only the location curve; a design curve would ignore them
        if args.d is not None:
            raise InputError("--design takes no --d: the design sets the dimension")
        if args.tau2_schedule == "inverse-n":
            raise InputError("--design takes no --tau2-schedule inverse-n")
        from .dimension import RidgeModel, regression_mi
        design = read_matrix_csv(args.design)
        mi = regression_mi(RidgeModel(design=design, noise_var=args.sigma2, prior_var=args.tau2))
    elif args.tau2_schedule == "inverse-n":
        # n * (tau2 / n) misses tau2 by an ulp, more than a step in log n: one MI
        mi = location(1)
    else:
        mi = None  # the fixed-schedule location MI grows with n
    values = [deff(location(n) if mi is None else mi, n) for n in grid]
    # at a fixed MI, d_eff = 2 I / log(n) cannot increase
    if mi is not None and any(b > a for a, b in zip(values, values[1:])):
        raise NumericalError("d_eff column failed its guaranteed monotonicity check")
    if args.format == "csv":
        lines = ["n,d_eff"] + [f"{n},{format_float(v)}" for n, v in zip(grid, values)]
        return "\n".join(lines) + "\n", EXIT_OK
    config = {"n_grid": grid, "d": d, **_given(args, "tau2", "sigma2", "tau2_schedule", "design")}
    return _report(args, config, {
        "n": tagged(grid, "closed-form"),
        "d_eff": tagged(values, "closed-form"),
    })


def _cmd_approx(args) -> tuple[str, int]:
    import numpy as np
    from .approx import GaussianDistribution, audit_approximation
    exact_cov = read_matrix_csv(args.exact_cov)
    approx_cov = read_matrix_csv(args.approx_cov)
    prior_cov = read_matrix_csv(args.prior_cov)
    dim = exact_cov.shape[0]
    exact_mean = read_vector_csv(args.exact_mean) if args.exact_mean else np.zeros(dim)
    approx_mean = read_vector_csv(args.approx_mean) if args.approx_mean else np.zeros(dim)
    exact = GaussianDistribution(mean=exact_mean, cov=exact_cov)
    approx = GaussianDistribution(mean=approx_mean, cov=approx_cov)
    audit = audit_approximation(exact, approx, prior_cov, args.n)
    config = _given(args, "exact_cov", "approx_cov", "prior_cov", "exact_mean", "approx_mean",
                    "n", "require_domination")
    results = {
        **_fields(audit, "closed-form", "kl_exact", "kl_approx", "logdet_exact", "logdet_approx"),
        **_given(audit, "loewner_dominates", "means_equal", "prior_dominates_approx",
                 "truncation_certified"),
        **_fields(audit, "closed-form", "deff_exact", "deff_approx"),
    }
    failed = args.require_domination and not audit.loewner_dominates
    return _report(args, config, results, EXIT_CONTRACT if failed else EXIT_OK)


def _cmd_shrinkage(args) -> tuple[str, int]:
    from .priors import ScalarShrinkageModel
    from .shrinkage import heavy_tail_bound, jensen_bound
    prior = _build_prior(args)
    seed = _resolve_seed(args)
    model = ScalarShrinkageModel(prior=prior, noise_var=args.sigma2, n=args.n)
    summary = random_deff_distribution(model, args.samples, seed, n_threads=args.threads)
    cond = expected_conditional_mi(model, args.samples, seed, n_threads=args.threads)
    results = {
        "deff_distribution": {
            **_fields(summary, "mc", "mean", "sd"),
            **{
                f"q{int(round(q * 100)):02d}": tagged(v, "mc")
                for q, v in summary.quantiles.items()
            },
            **_given(summary, "n_samples", "seed"),
        },
        "expected_conditional_mi": tagged_mc(cond),
        "jensen_bound": tagged(jensen_bound(model), "bound"),
        "heavy_tail_bound": tagged(heavy_tail_bound(prior.tail_certificate, model.c_snr), "bound"),
    }
    config = {**_prior_config(args), **_given(args, "sigma2", "n", "samples"), "seed": seed}
    if args.decompose:
        chain = chain_decomposition(
            model, args.samples, args.inner_samples, seed, n_threads=args.threads
        )
        results["chain"] = {
            **{name: tagged_mc(getattr(chain, name))
               for name in ("i_theta_y", "i_lambda_y", "e_cond_mi")},
            "bound_satisfied": chain.bound_satisfied,
        }
        config.update(_given(args, "inner_samples"))
    return _report(args, config, results)


def _cmd_oracle(args) -> tuple[str, int]:
    from .approx import GaussianDistribution
    from .channel import GaussianChannel
    from .oracle import estimate_gaussian_kl, estimate_mixture_marginal_mi
    from .priors import ScalarShrinkageModel
    seed = _resolve_seed(args)
    if args.kind == "channel-mi":
        _require(args, "--kind channel-mi", ("a", "prior_cov", "noise_cov"))
        channel = GaussianChannel(
            a=read_matrix_csv(args.a),
            prior_cov=read_matrix_csv(args.prior_cov),
            noise_cov=read_matrix_csv(args.noise_cov),
        )
        est = estimate_channel_mi(channel, args.samples, seed, n_threads=args.threads)
        config = _given(args, "kind", "a", "prior_cov", "noise_cov", "samples")
    elif args.kind == "gaussian-kl":
        _require(args, "--kind gaussian-kl", ("mean", "cov", "prior_cov"))
        q = GaussianDistribution(mean=read_vector_csv(args.mean), cov=read_matrix_csv(args.cov))
        est = estimate_gaussian_kl(
            q, read_matrix_csv(args.prior_cov), args.samples, seed, n_threads=args.threads
        )
        config = _given(args, "kind", "mean", "cov", "prior_cov", "samples")
    else:
        _require(args, "--kind mixture-mi", ("prior",))
        model = ScalarShrinkageModel(
            prior=_build_prior(args), noise_var=args.sigma2, n=args.n
        )
        est = estimate_mixture_marginal_mi(
            model, args.samples, args.inner_samples, seed, n_threads=args.threads
        )
        config = {**_given(args, "kind"), **_prior_config(args),
                  **_given(args, "sigma2", "n", "samples", "inner_samples")}
    return _report(args, {**config, "seed": seed}, {"estimate": tagged_mc(est)})


COMMANDS = {
    "location": _cmd_location,
    "regression": _cmd_regression,
    "curve": _cmd_curve,
    "approx": _cmd_approx,
    "shrinkage": _cmd_shrinkage,
    "oracle": _cmd_oracle,
}


def _write_output(text: str, path: str | None) -> None:
    """Write the report to ``path``, or to stdout when no path is given."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "wb") as fh:
            fh.write(text.encode("utf-8"))
    except OSError as exc:
        raise InputError(f"cannot write --out {path}: {exc.strerror or exc}") from exc


def _run(args) -> tuple[str, int]:
    """Run the command with OpenBLAS at one thread, so that no report's bits depend on it."""
    if sys.modules.get("numpy") is None:
        # read by OpenBLAS when the command first loads numpy
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
        return COMMANDS[args.command](args)
    from .linalg import _one_blas_thread
    with _one_blas_thread():
        return COMMANDS[args.command](args)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_CONFIG
        return code
    # any other exception is a bug and surfaces as a traceback
    try:
        if getattr(args, "threads", 1) < 1:
            raise InputError(f"--threads must be at least 1, got {args.threads}")
        text, code = _run(args)
        _write_output(text, args.out)
    except InputError as exc:
        print(f"effdim: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EffdimError as exc:
        print(f"effdim: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return code


if __name__ == "__main__":
    sys.exit(main())
