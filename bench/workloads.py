"""The four benchmark workloads: seeded inputs, one round of operations, checks.

Each workload is a closed loop with one client: the next operation starts
only when the previous one has finished. A round is one operation of each
kind, in a fixed order; the benchmark repeats rounds for the measured time.

- ``cli-closed-form``: ``location`` and ``regression`` CLI runs. Mostly
  process start-up and import; ``regression`` adds CSV ingest of a
  2000x200 design, its SVDs and rendering, while ``location`` reads no file.
- ``library-spectral``: in-process library calls with the import paid once,
  so the SVD/Cholesky repeats and the brute-force power-law sum are measured
  without start-up or ingest.
- ``flat-mc``: the channel-MI oracle (dominated by triangular solves) and
  the Student-t shrinkage summary (prior draws, block reductions, a sort),
  each at ``--threads 1`` and ``--threads 2``.
- ``nested-mc``: the chain decomposition and the mixture-MI oracle, both
  dominated by the O(outer x inner) mixture kernel, at both thread counts.

``tiny`` sizes make every operation cheap; the self-test uses them, and a
traced run uses them to cover the layers its own workload does not reach.
"""

import json
import math
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from effdim import approx, channel, dimension, priors, shrinkage
from effdim.reportio import write_matrix_csv

# Relative agreement required between two closed-form routes.
REL_TOL = 1e-9

# Width of the one-sided Monte Carlo bands (an estimate may exceed its upper
# bound by this many standard errors), in standard errors. The estimates the
# benchmark checks this way sit hundreds of standard errors below the bound.
MC_BAND = 3.0

# Half-width of the two-sided band between the channel-MI oracle and its
# closed form, in standard errors. The estimator is unbiased and its standard
# error calibrated, so a 3-SE band fails a correct program on 0.27% of seeds,
# and a comparison of a hundred runs or more, each on its own seed, would often
# fail correct code. At 5 SE a correct program fails on 6e-7 of seeds, while a
# bias of about 0.015 nats (1e-3 of the MI at the benchmark's 1e6 samples) still
# fails.
CHANNEL_MI_BAND = 5.0

# --threads values of the Monte Carlo runs: 1, and the 2 CPUs of the
# reference machine (more threads only oversubscribe it).
THREAD_COUNTS = (1, 2)


@dataclass
class Op:
    """One benchmark operation.

    ``argv`` is set for a CLI run, ``call`` for an in-process library call.
    ``check`` maps the output to a list of failure messages. Operations with
    the same ``identity`` must produce identical output. ``work`` is the
    number of samples (or outer x inner pairs) the operation processes.
    """

    kind: str
    check: Callable[[object], list[str]]
    argv: tuple[str, ...] | None = None
    call: Callable[[], object] | None = None
    identity: str = ""
    work: int = 1


def cli_op(kind: str, argv: list[str], check, threads: int | None = None,
           work: int = 1) -> Op:
    full = list(argv) + (["--threads", str(threads)] if threads is not None else [])
    return Op(kind=kind, check=check, argv=tuple(full), identity=" ".join(argv), work=work)


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Covariance with eigenvalues in [0.5, 2] and a random eigenbasis."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    cov = (q * rng.uniform(0.5, 2.0, size=dim)) @ q.T
    return 0.5 * (cov + cov.T)


def _streams(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(count)]


def _regression_mi(design: np.ndarray) -> float:
    """Determinant-route MI of the ridge experiment (tau2 = sigma2 = 1)."""
    model = dimension.RidgeModel(design=design, noise_var=1.0, prior_var=1.0)
    return channel.mutual_information(dimension.regression_channel(model), "observation")


class Workload:
    name = ""
    in_process = False

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.tiny = tiny

    def setup(self, workdir: Path) -> None:
        """Generate the inputs from the seed (timed as part of set-up)."""

    def prepare(self) -> None:
        """Compute the reference values the checks compare against (untimed)."""

    def round(self) -> list[Op]:
        raise NotImplementedError

    def detail(self, times: dict[str, list[float]], ops: list[Op]) -> list[tuple]:
        """Per-operation figures: (name, value, unit, note) rows."""
        raise NotImplementedError


def _latency_rows(prefix: str, values: list[float]) -> list[tuple]:
    """Median, and the highest percentile with at least 10 samples beyond it."""
    n = len(values)
    rows = [(f"{prefix}.p50", statistics.median(values), "s", f"n={n}")]
    if n < 11:
        rows.append((f"{prefix}.tail", float("nan"), "s", f"n={n}: too few samples for a tail"))
    else:
        rank = n - 10
        rows.append((f"{prefix}.tail", sorted(values)[rank - 1], "s",
                     f"p{100.0 * rank / n:.0f}: rank {rank} of n={n}"))
    return rows


class CliClosedForm(Workload):
    name = "cli-closed-form"
    location_argv = ["location", "--d", "3", "--tau2", "1", "--sigma2", "1", "--n", "1000"]

    def setup(self, workdir):
        rows, cols = (200, 20) if self.tiny else (2000, 200)
        (rng,) = _streams(self.seed, 1)
        self.design = rng.standard_normal((rows, cols))
        self.design_path = workdir / "design.csv"
        write_matrix_csv(self.design_path, self.design)

    def prepare(self):
        self.expected = {
            "location": dimension.location_mi(
                dimension.LocationModel(dim=3, prior_var=1.0, noise_var=1.0, n=1000)),
            "regression": _regression_mi(self.design),
        }

    def _check(self, kind):
        def check(text):
            mi = json.loads(text)["results"]["mi_nats"]["value"]
            if rel_diff(mi, self.expected[kind]) > REL_TOL:
                return [f"mi_nats {mi!r} differs from the in-process value "
                        f"{self.expected[kind]!r}"]
            return []
        return check

    def round(self):
        regression = ["regression", "--design", str(self.design_path),
                      "--tau2", "1", "--sigma2", "1"]
        return [
            cli_op("location", self.location_argv, self._check("location")),
            cli_op("regression", regression, self._check("regression")),
        ]

    def detail(self, times, ops):
        return (_latency_rows("cli_location_s", times["location"])
                + _latency_rows("cli_regression_s", times["regression"]))


class LibrarySpectral(Workload):
    name = "library-spectral"
    in_process = True
    audit_n = 1000

    def setup(self, workdir):
        rows, cols = (200, 20) if self.tiny else (2000, 200)
        dim = 20 if self.tiny else 200
        budget = 1e-5 if self.tiny else 1e-8
        design_rng, channel_rng = _streams(self.seed, 2)
        self.model = dimension.RidgeModel(
            design=design_rng.standard_normal((rows, cols)), noise_var=1.0, prior_var=1.0)
        a = channel_rng.standard_normal((dim, dim)) / math.sqrt(dim)
        prior_cov = _spd(channel_rng, dim)
        noise_cov = _spd(channel_rng, dim)
        self.channel = channel.GaussianChannel(a=a, prior_cov=prior_cov, noise_cov=noise_cov)
        # exact posterior of the channel, and an inflation of it that stays
        # inside the prior envelope, so the audit certifies the pair
        precision = np.linalg.inv(prior_cov) + a.T @ np.linalg.solve(noise_cov, a)
        exact_cov = np.linalg.inv(0.5 * (precision + precision.T))
        exact_cov = 0.5 * (exact_cov + exact_cov.T)
        self.prior_cov = prior_cov
        self.exact = approx.GaussianDistribution(mean=np.zeros(dim), cov=exact_cov)
        self.approx = approx.GaussianDistribution(
            mean=np.zeros(dim), cov=0.5 * (exact_cov + prior_cov))
        self.sequence = dimension.SpectrumSequence(
            decay_exponent=1.0, snr=1.0, truncation_error_budget=budget)

    def prepare(self):
        self.expected_mi = _regression_mi(self.model.design)
        # prod_j (1 + snr / j^2) = sinh(pi sqrt(snr)) / (pi sqrt(snr))
        root = math.pi * math.sqrt(self.sequence.snr)
        self.sequence_mi = 0.5 * math.log(math.sinh(root) / root)

    def _ridge(self):
        report = dimension.ridge_report(self.model)
        bound = dimension.deff_rank_bound(self.model, report.n)
        return (report.mi_nats, report.d_eff, report.df, report.r_info, report.sandwich_lower,
                report.sandwich_upper, report.rank, report.singular_values_sq.tobytes(), bound)

    def _check_ridge(self, out):
        errors = []
        if rel_diff(out[0], self.expected_mi) > REL_TOL:
            errors.append(f"ridge_report mi {out[0]!r} differs from the determinant route "
                          f"{self.expected_mi!r}")
        if out[-1] < out[1] * (1.0 - REL_TOL):
            errors.append(f"deff_rank_bound {out[-1]!r} below d_eff {out[1]!r}")
        return errors

    def _gaussian(self):
        mis = tuple(channel.mutual_information(self.channel, mode)
                    for mode in channel.EVALUATION_MODES)
        audit = approx.audit_approximation(self.exact, self.approx, self.prior_cov, self.audit_n)
        return mis + (audit.kl_exact, audit.kl_approx, audit.logdet_exact,
                      audit.logdet_approx, audit.truncation_certified)

    def _check_gaussian(self, out):
        mis, (kl_exact, kl_approx, _, _, certified) = out[:3], out[3:]
        errors = []
        if max(rel_diff(x, y) for x in mis for y in mis) > REL_TOL:
            errors.append(f"mutual_information modes disagree: {mis!r}")
        if not certified:
            errors.append("audit did not certify an inflation inside the prior envelope")
        if kl_approx > kl_exact:
            errors.append(f"certified audit has kl_approx {kl_approx!r} > kl_exact {kl_exact!r}")
        return errors

    def _spectral(self):
        return dimension.spectrum_sequence_mi(self.sequence)

    def _check_spectral(self, out):
        partial, bound, _ = out
        errors = []
        if not bound <= self.sequence.truncation_error_budget:
            errors.append(f"certified bound {bound!r} exceeds the budget")
        gap = self.sequence_mi - partial
        if not -1e-12 <= gap <= bound + 1e-12:
            errors.append(f"partial sum {partial!r} is {gap!r} below the exact sum, "
                          f"outside [0, {bound!r}]")
        return errors

    def round(self):
        return [
            Op("ridge", self._check_ridge, call=self._ridge, identity="ridge"),
            Op("gaussian", self._check_gaussian, call=self._gaussian, identity="gaussian"),
            Op("spectral", self._check_spectral, call=self._spectral, identity="spectral"),
        ]

    def detail(self, times, ops):
        return [(f"{metric}.p50", statistics.median(times[kind]), "s", f"n={len(times[kind])}")
                for metric, kind in (("ridge_report_s", "ridge"), ("gaussian_ops_s", "gaussian"),
                                     ("spectral_sum_s", "spectral"))]


def _mc(report_text: str, *path) -> dict:
    node = json.loads(report_text)["results"]
    for key in path:
        node = node[key]
    return node


STUDENT_T = ["--prior", "student-t", "--nu", "3", "--n", "100"]


def _student_t_jensen() -> float:
    model = priors.ScalarShrinkageModel(prior=priors.InverseGammaMixture(dof=3.0), n=100)
    return shrinkage.jensen_bound(model)


class FlatMc(Workload):
    name = "flat-mc"

    def setup(self, workdir):
        (rng,) = _streams(self.seed, 1)
        self.a = rng.standard_normal((20, 10))
        self.prior_cov = _spd(rng, 10)
        self.noise_cov = _spd(rng, 20)
        self.paths = {}
        for flag, matrix in (("--a", self.a), ("--prior-cov", self.prior_cov),
                             ("--noise-cov", self.noise_cov)):
            self.paths[flag] = workdir / f"{flag.strip('-')}.csv"
            write_matrix_csv(self.paths[flag], matrix)

    def prepare(self):
        self.expected_mi = channel.mutual_information(
            channel.GaussianChannel(a=self.a, prior_cov=self.prior_cov, noise_cov=self.noise_cov))
        self.jensen = _student_t_jensen()

    def _check_channel(self, text):
        est = _mc(text, "estimate")
        if abs(est["value"] - self.expected_mi) > CHANNEL_MI_BAND * est["std_error"]:
            return [f"channel-mi oracle {est['value']!r} +- {est['std_error']!r} is more than "
                    f"{CHANNEL_MI_BAND:g} standard errors from the closed form "
                    f"{self.expected_mi!r}"]
        return []

    def _check_shrinkage(self, text):
        est = _mc(text, "expected_conditional_mi")
        jensen = _mc(text, "jensen_bound")["value"]
        errors = []
        if rel_diff(jensen, self.jensen) > REL_TOL:
            errors.append(f"jensen_bound {jensen!r} differs from {self.jensen!r}")
        if est["value"] > jensen + MC_BAND * est["std_error"]:
            errors.append(f"expected conditional MI {est['value']!r} exceeds its Jensen bound")
        return errors

    def round(self):
        channel_samples = 20_000 if self.tiny else 1_000_000
        shrinkage_samples = 20_000 if self.tiny else 10_000_000
        chan = ["oracle", "--kind", "channel-mi"]
        for flag, path in self.paths.items():
            chan += [flag, str(path)]
        chan += ["--samples", str(channel_samples), "--seed", str(self.seed)]
        shrink = ["shrinkage", *STUDENT_T, "--samples", str(shrinkage_samples),
                  "--seed", str(self.seed)]
        return [
            *(cli_op(f"channel-mi.t{t}", chan, self._check_channel, t, channel_samples)
              for t in THREAD_COUNTS),
            *(cli_op(f"shrinkage.t{t}", shrink, self._check_shrinkage, t, shrinkage_samples)
              for t in THREAD_COUNTS),
        ]

    def detail(self, times, ops):
        work = {op.kind: op.work for op in ops}
        rows = []
        for metric, base in (("channel_oracle_samples_per_s", "channel-mi"),
                             ("shrinkage_samples_per_s", "shrinkage")):
            for t in THREAD_COUNTS:
                kind = f"{base}.t{t}"
                rows.append((f"{metric}.t{t}", work[kind] / statistics.median(times[kind]), "1/s",
                             f"{work[kind]} samples / median wall, n={len(times[kind])}"))
        return rows


class NestedMc(Workload):
    name = "nested-mc"

    @property
    def size(self) -> int:
        """Outer and inner sample count of every nested run."""
        return 10_000 if self.tiny else 20_000

    def prepare(self):
        self.jensen = _student_t_jensen()

    def _check_decompose(self, text):
        if _mc(text, "chain", "bound_satisfied") is not True:
            return ["chain decomposition reports bound_satisfied false"]
        return []

    def _check_mixture(self, text):
        est = _mc(text, "estimate")
        ceiling = (self.jensen + MC_BAND * est["std_error"]
                   + shrinkage.NESTED_BIAS_ALLOWANCE)
        if not 0.0 < est["value"] <= ceiling:
            return [f"mixture-mi {est['value']!r} outside (0, Gaussian ceiling {ceiling!r}]"]
        return []

    def round(self):
        size = self.size
        counts = ["--samples", str(size), "--inner-samples", str(size), "--seed", str(self.seed)]
        decompose = ["shrinkage", "--prior", "half-cauchy", "--n", "100", "--decompose", *counts]
        mixture = ["oracle", "--kind", "mixture-mi", *STUDENT_T, *counts]
        return [
            *(cli_op(f"decompose.t{t}", decompose, self._check_decompose, t, size * size)
              for t in THREAD_COUNTS),
            *(cli_op(f"mixture-mi.t{t}", mixture, self._check_mixture, t, size * size)
              for t in THREAD_COUNTS),
        ]

    def detail(self, times, ops):
        rows = []
        for t in THREAD_COUNTS:
            kinds = [op for op in ops if op.kind.endswith(f".t{t}")]
            pairs = sum(op.work * len(times[op.kind]) for op in kinds)
            wall = sum(sum(times[op.kind]) for op in kinds)
            rows.append((f"nested_pairs_per_s.t{t}", pairs / wall, "1/s",
                         f"outer x inner pairs / wall, pooled over {len(kinds)} kinds"))
        return rows


WORKLOADS = {cls.name: cls for cls in (CliClosedForm, LibrarySpectral, FlatMc, NestedMc)}
