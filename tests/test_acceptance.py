"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Stated tolerances and sample counts are pinned here;
Monte Carlo comparisons use fixed seeds, so every run is reproducible.
"""

import json
import math
import os
import platform
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import effdim as ed
from effdim.cli import main
from effdim.reportio import read_matrix_csv
from effdim.sampling import (
    FLAT_BLOCK,
    STREAM_COND_MI,
    STREAM_DEFF_DIST,
    block_rng,
    block_sizes,
)

from conftest import (SRC, conjugate_regression_info, random_channel, random_covariance,
                      random_invertible)

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "fixtures" / "golden"


@contextmanager
def criterion(number: int, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d}: FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"[acceptance] criterion {number:2d}: PASS  {description}  ({elapsed:.1f}s)")


def test_01_closed_form_vs_oracle():
    with criterion(1, "channel MI closed form within 3 SE of the 1e6-sample oracle, 20 channels"):
        start = time.perf_counter()
        rng = np.random.default_rng(1001)
        for k in range(20):
            ch = random_channel(rng, max_dim=6)
            est = ed.estimate_channel_mi(ch, 1_000_000, seed=2100 + k, n_threads=2)
            closed = ed.mutual_information(ch)
            assert abs(closed - est.estimate) <= 3.0 * est.std_error, (
                f"channel {k}: |{closed} - {est.estimate}| > 3*{est.std_error}"
            )
        assert time.perf_counter() - start <= 120.0


def test_02_sylvester_identity():
    with criterion(2, "n-form and p-form log-determinants agree to 1e-9 on 200 channels"):
        start = time.perf_counter()
        rng = np.random.default_rng(1002)
        for _ in range(200):
            ch = random_channel(rng, max_dim=8)
            n_form = ed.mutual_information(ch, "observation")
            p_form = ed.mutual_information(ch, "parameter")
            np.testing.assert_allclose(n_form, p_form, rtol=1e-9, atol=1e-12)
        assert time.perf_counter() - start <= 1.0


def test_03_scalar_location_exact():
    with criterion(3, "scalar location MI equals (1/2)ln(101) to 1e-12, oracle within 3 SE"):
        model = ed.LocationModel(dim=1, prior_var=1.0, noise_var=1.0, n=100)
        mi = ed.location_mi(model)
        assert abs(mi - 0.5 * math.log(101.0)) <= 1e-12
        channel = ed.GaussianChannel(a=[[1.0]], prior_cov=[[1.0]], noise_cov=[[0.01]])
        est = ed.estimate_channel_mi(channel, 1_000_000, seed=1003, n_threads=2)
        assert abs(mi - est.estimate) <= 3.0 * est.std_error


def test_04_sandwich_bounds():
    with criterion(4, "df <= 2*MI <= snr*tr(X^T X) on 1000 random spectra, zero violations"):
        start = time.perf_counter()
        rng = np.random.default_rng(1004)
        for _ in range(1000):
            r = int(rng.integers(1, 9))
            s_sq = rng.uniform(0.01, 10.0, size=r)
            snr = float(10.0 ** rng.uniform(-6, 6))
            lower = ed.ridge_df(s_sq, penalty=1.0 / snr)
            mid = float(np.sum(np.log1p(snr * s_sq)))
            upper = snr * float(np.sum(s_sq))
            assert lower <= mid <= upper
        assert time.perf_counter() - start <= 1.0


def test_05_effective_rank_decomposition():
    with criterion(5, "MI = (1/2)log1p(snr*s1^2) * r_info to 1e-10 on 200 random spectra"):
        rng = np.random.default_rng(1005)
        for _ in range(200):
            r = int(rng.integers(1, 10))
            s_sq = np.sort(rng.uniform(0.01, 10.0, size=r))[::-1]
            snr = float(10.0 ** rng.uniform(-3, 3))
            mi = 0.5 * float(np.sum(np.log1p(snr * s_sq)))
            rebuilt = 0.5 * math.log1p(snr * s_sq[0]) * ed.info_effective_rank(s_sq, snr)
            np.testing.assert_allclose(rebuilt, mi, rtol=1e-10)


def test_06_conjugate_dual_path():
    with criterion(6, "expected-KL assembly equals spectral MI to 1e-9 on 100 designs"):
        rng = np.random.default_rng(1006)
        for _ in range(100):
            model = ed.RidgeModel(
                design=rng.standard_normal(
                    (int(rng.integers(1, 9)), int(rng.integers(1, 7)))
                ),
                noise_var=float(rng.uniform(0.25, 4.0)),
                prior_var=float(rng.uniform(0.25, 4.0)),
            )
            mi = ed.regression_mi(model)
            np.testing.assert_allclose(
                conjugate_regression_info(model), mi, rtol=1e-9, atol=1e-12
            )


def test_07_covariance_inflation():
    with criterion(7, "500 inflation instances: KL and log-det orderings plus the worked pair"):
        rng = np.random.default_rng(1007)
        for _ in range(500):
            dim = int(rng.integers(1, 6))
            prior = random_covariance(rng, dim)
            root = np.linalg.cholesky(prior)
            contraction = random_covariance(rng, dim, eig_low=0.1, eig_high=0.9)
            exact_cov = root @ contraction @ root.T
            exact_cov = 0.5 * (exact_cov + exact_cov.T)
            u = float(rng.uniform(0.05, 1.0))
            approx_cov = exact_cov + u * (prior - exact_cov)
            approx_cov = 0.5 * (approx_cov + approx_cov.T)
            mean = rng.standard_normal(dim)
            audit = ed.audit_approximation(
                ed.GaussianDistribution(mean=mean, cov=exact_cov),
                ed.GaussianDistribution(mean=mean, cov=approx_cov),
                prior,
                100,
            )
            assert audit.loewner_dominates and audit.truncation_certified
            assert audit.kl_approx <= audit.kl_exact + 1e-12
            assert audit.logdet_approx >= audit.logdet_exact - 1e-12
        worked = ed.audit_approximation(
            ed.GaussianDistribution(mean=[0.0], cov=[[0.5]]),
            ed.GaussianDistribution(mean=[0.0], cov=[[1.0]]),
            [[1.0]],
            100,
        )
        assert worked.kl_exact == pytest.approx(0.5 * (0.5 - math.log(0.5) - 1.0), abs=1e-12)
        assert round(worked.kl_exact, 6) == 0.096574
        assert worked.kl_approx == 0.0


def test_08_data_processing():
    with criterion(8, "100 random linear coarsenings never increase MI (1e-10 slack)"):
        rng = np.random.default_rng(1008)
        for _ in range(100):
            ch = random_channel(rng)
            q = int(rng.integers(1, ch.n_obs + 1))
            b = rng.standard_normal((q, ch.n_obs))
            assert (
                ed.mutual_information(ed.coarsen(ch, b))
                <= ed.mutual_information(ch) + 1e-10
            )


def test_09_reparameterization_invariance():
    with criterion(9, "100 random invertible maps change MI by <= 1e-9 relative"):
        rng = np.random.default_rng(1009)
        for _ in range(100):
            ch = random_channel(rng)
            t = random_invertible(rng, ch.dim)
            before = ed.mutual_information(ch)
            after = ed.mutual_information(ed.reparameterize(ch, t))
            np.testing.assert_allclose(after, before, rtol=1e-9, atol=1e-12)


def test_10_half_cauchy_log_moment():
    with criterion(10, "half-Cauchy E[log(1+lam^2)]: MC vs quadrature oracle and tail bound"):
        start = time.perf_counter()
        oracle, err = quad(
            lambda t: (2.0 / math.pi) * math.log1p(t * t) / (1.0 + t * t), 0.0, np.inf
        )
        assert err < 1e-9
        assert oracle == pytest.approx(2.0 * math.log(2.0), abs=1e-9)
        m = ed.ScalarShrinkageModel(prior=ed.HalfCauchy(1.0), noise_var=1.0, n=1)
        est = ed.expected_conditional_mi(m, 1_000_000, seed=1010, n_threads=2)
        log_moment = 2.0 * est.estimate
        assert abs(log_moment - oracle) <= 3.0 * (2.0 * est.std_error)
        cert = ed.TailCertificate(c_const=2.0 / math.pi, alpha_exp=1.0, t0=1.0)
        bound = ed.heavy_tail_bound(cert, 1.0)
        assert bound == pytest.approx(2.0 * math.log(2.0) + 4.0 / math.pi, abs=1e-12)
        assert log_moment <= bound
        assert time.perf_counter() - start <= 30.0


def test_11_jensen_bound():
    with criterion(11, "Student-t(4) MC log-moment below ln(1+2c) + 3 SE at four SNRs"):
        prior = ed.InverseGammaMixture(dof=4.0, scale_sq=1.0)
        for idx, c in enumerate((0.1, 1.0, 10.0, 100.0)):
            m = ed.ScalarShrinkageModel(prior=prior, noise_var=1.0 / c, n=1)
            est = ed.expected_conditional_mi(m, 200_000, seed=1011 + idx)
            log_moment = 2.0 * est.estimate
            assert log_moment <= math.log1p(2.0 * c) + 3.0 * (2.0 * est.std_error)


def test_12_chain_bound():
    with criterion(12, "chain decomposition bound satisfied for three priors at c in {1,10}"):
        start = time.perf_counter()
        priors = [
            ed.FixedScale(1.0),
            ed.InverseGammaMixture(dof=4.0, scale_sq=1.0),
            ed.HalfCauchy(1.0),
        ]
        seed = 1012
        for prior in priors:
            for c in (1, 10):
                m = ed.ScalarShrinkageModel(prior=prior, noise_var=1.0, n=c)
                out = ed.chain_decomposition(m, 20_000, 20_000, seed=seed, n_threads=2)
                assert out.bound_satisfied, (prior, c)
                seed += 1
        assert time.perf_counter() - start <= 300.0


def test_13_infinite_spectrum():
    with criterion(13, "certified power-law sum matches 1e7-term brute force; d_eff decreasing"):
        s = ed.SpectrumSequence(decay_exponent=1.0, snr=1.0, truncation_error_budget=1e-6)
        mi, bound, terms = ed.spectrum_sequence_mi(s)
        assert bound <= 1e-6
        j = np.arange(1, 10_000_001, dtype=float)
        brute = 0.5 * float(np.sum(np.log1p(1.0 / (j * j))))
        assert abs(mi - brute) <= 1e-6
        deffs = [ed.deff(mi, n) for n in (10**2, 10**4, 10**6)]
        assert deffs[0] > deffs[1] > deffs[2]


def _run_cli_bytes(args, out_path) -> bytes:
    code = main([*args, "--out", str(out_path)])
    assert code == 0, f"exit {code} for {args}"
    return Path(out_path).read_bytes()


def test_14_determinism(tmp_path):
    with criterion(14, "every MC subcommand is byte-identical across re-runs and thread counts"):
        design = ROOT / "tests" / "fixtures" / "design_6x4_seed13.csv"
        eye1 = tmp_path / "eye1.csv"
        eye1.write_text("1\n")
        mean1 = tmp_path / "mean1.csv"
        mean1.write_text("0.5\n")
        mc_commands = {
            "location-oracle": [
                "location", "--d", "2", "--tau2", "1", "--sigma2", "1", "--n", "100",
                "--oracle", "--samples", "30000", "--seed", "99",
            ],
            "shrinkage": [
                "shrinkage", "--prior", "half-cauchy", "--sigma2", "1", "--n", "100",
                "--samples", "30000", "--seed", "99",
            ],
            "shrinkage-decompose": [
                "shrinkage", "--prior", "student-t", "--nu", "4", "--sigma2", "4",
                "--n", "4", "--samples", "12000", "--inner-samples", "12000",
                "--seed", "99", "--decompose",
            ],
            "oracle-channel": [
                "oracle", "--kind", "channel-mi", "--a", str(design),
                "--prior-cov", str(tmp_path / "p4.csv"),
                "--noise-cov", str(tmp_path / "n6.csv"),
                "--samples", "30000", "--seed", "99",
            ],
            "oracle-kl": [
                "oracle", "--kind", "gaussian-kl", "--mean", str(mean1),
                "--cov", str(eye1), "--prior-cov", str(eye1),
                "--samples", "30000", "--seed", "99",
            ],
            "oracle-mixture": [
                "oracle", "--kind", "mixture-mi", "--prior", "half-cauchy",
                "--sigma2", "1", "--n", "1", "--samples", "12000",
                "--inner-samples", "12000", "--seed", "99",
            ],
        }
        from effdim.reportio import write_matrix_csv

        write_matrix_csv(tmp_path / "p4.csv", np.eye(4))
        write_matrix_csv(tmp_path / "n6.csv", np.eye(6))
        for name, args in mc_commands.items():
            first = _run_cli_bytes(args, tmp_path / f"{name}-1.json")
            second = _run_cli_bytes(args, tmp_path / f"{name}-2.json")
            assert first == second, f"{name} not byte-identical across reruns"
            one_thread = _run_cli_bytes(
                [*args, "--threads", "1"], tmp_path / f"{name}-t1.json"
            )
            eight_threads = _run_cli_bytes(
                [*args, "--threads", "8"], tmp_path / f"{name}-t8.json"
            )
            assert one_thread == eight_threads, f"{name} differs across thread counts"
            assert first == one_thread


def test_15_golden_files(tmp_path, monkeypatch):
    with criterion(15, "every committed fixture config reproduces its committed report "
                       "bit-for-bit"):
        monkeypatch.chdir(ROOT)
        configs = sorted(GOLDEN.glob("*.args.json"))
        assert len(configs) >= 9
        for config in configs:
            name = config.name.removesuffix(".args.json")
            (report,) = GOLDEN.glob(f"{name}.report.*")
            actual = _run_cli_bytes(json.loads(config.read_text()), tmp_path / report.name)
            assert actual == report.read_bytes(), f"golden report {name} drifted"


def _nearest_double_bracket(d: float) -> tuple[Fraction, Fraction]:
    """Reals that round to d: between the midpoints to its two neighbours."""
    exact = Fraction(d)
    return (
        (exact + Fraction(math.nextafter(d, -math.inf))) / 2,
        (exact + Fraction(math.nextafter(d, math.inf))) / 2,
    )


def test_15_shrinkage_golden_is_correctly_rounded():
    with criterion(15, "shrinkage golden mean and std_error are the doubles nearest "
                       "the exact statistics of its seeded draws"):
        report = json.loads((GOLDEN / "shrinkage.report.json").read_text())
        config, results = report["config"], report["results"]
        assert config["prior"] == "half-cauchy"
        model = ed.ScalarShrinkageModel(
            prior=ed.HalfCauchy(global_scale=config["tau_g"]),
            noise_var=config["sigma2"],
            n=config["n"],
        )
        sizes = block_sizes(config["samples"], FLAT_BLOCK)

        def log1p_snr(stream: int) -> list[np.ndarray]:
            # the program's per-block prior draws and elementwise map
            blocks = []
            for b, size in enumerate(sizes):
                lam = model.prior.sample(block_rng(config["seed"], stream, b), size)
                blocks.append(np.log1p(model.c_snr * lam * lam))
            return blocks

        log_n = math.log(config["n"])
        deff = [Fraction(v) for block in log1p_snr(STREAM_DEFF_DIST)
                for v in (block / log_n).tolist()]
        exact_mean = sum(deff, Fraction(0)) / len(deff)
        lo, hi = _nearest_double_bracket(results["deff_distribution"]["mean"]["value"])
        assert lo <= exact_mean <= hi, "deff_distribution.mean is not correctly rounded"

        cond = [Fraction(v) for block in log1p_snr(STREAM_COND_MI)
                for v in (0.5 * block).tolist()]
        count = len(cond)
        total = sum(cond, Fraction(0))
        m2 = sum((v * v for v in cond), Fraction(0)) - total * total / count
        exact_var_of_mean = m2 / (count - 1) / count
        lo, hi = _nearest_double_bracket(results["expected_conditional_mi"]["std_error"])
        assert lo * lo <= exact_var_of_mean <= hi * hi, (
            "expected_conditional_mi.std_error is not correctly rounded"
        )


def test_15_regression_golden_sandwich_upper_sums_the_snr_modes():
    with criterion(15, "regression golden sandwich_upper is the sum of the retained "
                       "per-mode SNRs snr * s_j^2"):
        report = json.loads((GOLDEN / "regression.report.json").read_text())
        config, results = report["config"], report["results"]
        spectrum = ed.design_spectrum(read_matrix_csv(ROOT / config["design"]))
        u = config["tau2"] / config["sigma2"] * spectrum.nonzero
        assert results["sandwich_upper"]["value"] == float(np.sum(u)) == 35.572605776368796
        assert results["sandwich_lower"]["value"] == float(np.sum(u / (u + 1.0)))


# renders every golden config through cli.main and prints {name: report text}
RENDER_GOLDENS = """
import json, sys, tempfile
from pathlib import Path
from effdim.cli import main
reports = {}
with tempfile.TemporaryDirectory() as tmp:
    for config in sorted(Path("tests/fixtures/golden").glob("*.args.json")):
        name = config.name.removesuffix(".args.json")
        out = Path(tmp, name)
        assert main([*json.loads(config.read_text()), "--out", str(out)]) == 0, name
        reports[name] = out.read_text()
print(json.dumps(reports))
"""

# the golden fields that round with OpenBLAS's kernel: the design SVD's LAPACK
# calls use it, and every field read off the design spectrum moves with it
KERNEL_BOUND_FIELDS = {
    "regression": {"mi_nats", "d_eff", "r_info", "sandwich_upper", "singular_values_sq"},
    "curve_design": {"d_eff"},
}


def _cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo") as info:
            return {flag for line in info if line.startswith("flags")
                    for flag in line.partition(":")[2].split()}
    except OSError:
        return set()


def _differing_fields(report: str, golden: str) -> set[str]:
    """Result fields whose text differs; anything else that differs fails the test."""
    if not golden.startswith("{"):
        assert report == golden
        return set()
    # numbers stay text, so equal leaves are equal bytes
    actual, expected = (json.loads(text, parse_float=str, parse_int=str)
                        for text in (report, golden))
    assert {**actual, "results": None} == {**expected, "results": None}
    assert actual["results"].keys() == expected["results"].keys()
    return {key for key, value in expected["results"].items() if actual["results"][key] != value}


@pytest.mark.parametrize("core", ["Prescott", "Haswell"])
def test_15_goldens_hold_under_each_openblas_kernel(core):
    if platform.machine().lower() not in ("x86_64", "amd64"):
        pytest.skip("OpenBLAS core types are x86-64 kernels")
    if core == "Haswell" and not {"avx2", "fma"} <= _cpu_flags():
        pytest.skip("the CPU lacks the Haswell kernel's AVX2 and FMA")
    with criterion(15, f"under OPENBLAS_CORETYPE={core}, only the documented "
                       "kernel-bound golden fields move"):
        proc = subprocess.run([sys.executable, "-c", RENDER_GOLDENS], cwd=ROOT,
                              env={**os.environ, "PYTHONPATH": SRC, "OPENBLAS_CORETYPE": core},
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        reports = json.loads(proc.stdout)
        assert len(reports) >= 9
        for name, report in reports.items():
            (golden,) = GOLDEN.glob(f"{name}.report.*")
            moved = _differing_fields(report, golden.read_text())
            assert moved <= KERNEL_BOUND_FIELDS.get(name, set()), (name, sorted(moved))
