"""End-to-end CLI behavior: reports, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import effdim
from effdim import cli
from effdim.cli import build_parser, main
from effdim.errors import InputError, NotPositiveDefinite, NumericalError
from effdim.reportio import write_matrix_csv


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_to_file(args, tmp_path, name):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


class TestLocation:
    def test_basic_report(self, capsys):
        code, out, _ = run_cli(
            ["location", "--d", "1", "--tau2", "1", "--sigma2", "1", "--n", "100"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["mi_nats"]["value"] == pytest.approx(
            0.5 * math.log(101.0), abs=1e-12
        )
        assert report["results"]["d_eff"]["value"] == pytest.approx(
            math.log(101.0) / math.log(100.0), abs=1e-12
        )
        assert report["results"]["mi_nats"]["path"] == "closed-form"

    def test_zero_prior_variance(self, capsys):
        code, out, _ = run_cli(
            ["location", "--d", "2", "--tau2", "0", "--sigma2", "1", "--n", "10"], capsys
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["mi_nats"]["value"] == 0
        assert report["results"]["d_eff"]["value"] == 0

    def test_small_n_exits_two(self, capsys):
        code, _, err = run_cli(
            ["location", "--d", "1", "--tau2", "1", "--sigma2", "1", "--n", "2"], capsys
        )
        assert code == 2
        assert "sample size 2 < 3" in err

    def test_oracle_flag_appends_mc_block(self, capsys):
        code, out, _ = run_cli(
            ["location", "--d", "2", "--tau2", "1", "--sigma2", "1", "--n", "50",
             "--oracle", "--samples", "20000", "--seed", "5"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        oracle = report["results"]["oracle_mi"]
        assert oracle["path"] == "mc"
        closed = report["results"]["mi_nats"]["value"]
        assert abs(oracle["value"] - closed) <= 3.0 * oracle["std_error"]

    def test_oracle_requires_seed(self, capsys):
        env = os.environ.pop("EFFDIM_SEED", None)
        try:
            code, _, err = run_cli(
                ["location", "--d", "1", "--tau2", "1", "--sigma2", "1", "--n", "50",
                 "--oracle"],
                capsys,
            )
            assert code == 2
            assert "seed" in err
        finally:
            if env is not None:
                os.environ["EFFDIM_SEED"] = env

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("EFFDIM_SEED", "77")
        code, out, _ = run_cli(
            ["location", "--d", "1", "--tau2", "1", "--sigma2", "1", "--n", "50",
             "--oracle", "--samples", "20000"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 77


class TestRegression:
    def test_identity_design(self, tmp_path, capsys):
        design = tmp_path / "eye3.csv"
        write_matrix_csv(design, np.eye(3))
        code, out, _ = run_cli(
            ["regression", "--design", str(design), "--tau2", "1", "--sigma2", "1",
             "--n", "3"],
            capsys,
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["mi_nats"]["value"] == pytest.approx(1.5 * math.log(2.0), abs=1e-12)
        assert results["df"]["value"] == pytest.approx(1.5, abs=1e-12)
        assert results["r_info"]["value"] == pytest.approx(3.0, rel=1e-12)
        assert results["rank"]["value"] == 3

    def test_byte_order_mark_design_keeps_its_first_row(self, tmp_path, capsys):
        design = tmp_path / "bom.csv"
        design.write_bytes(b"\xef\xbb\xbf2,0\n0,1\n")
        code, out, _ = run_cli(
            ["regression", "--design", str(design), "--tau2", "1", "--sigma2", "1",
             "--n", "10"],
            capsys,
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["rank"]["value"] == 2
        assert results["mi_nats"]["value"] == pytest.approx(0.5 * math.log(10.0), rel=1e-15)

    def test_zero_design_all_zero_report(self, tmp_path, capsys):
        design = tmp_path / "zero.csv"
        write_matrix_csv(design, np.zeros((4, 2)))
        code, out, _ = run_cli(
            ["regression", "--design", str(design), "--tau2", "1", "--sigma2", "1"],
            capsys,
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["mi_nats"]["value"] == 0
        assert results["d_eff"]["value"] == 0
        assert results["df"] is None
        assert results["r_info"] is None
        assert results["rank"]["value"] == 0

    def test_malformed_csv_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n3,oops\n")
        code, _, err = run_cli(
            ["regression", "--design", str(bad), "--tau2", "1", "--sigma2", "1"], capsys
        )
        assert code == 2
        assert "line 2, column 2" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run_cli(
            ["regression", "--design", "/nonexistent.csv", "--tau2", "1", "--sigma2", "1"],
            capsys,
        )
        assert code == 2


class TestCurve:
    def test_location_grid(self, capsys):
        code, out, _ = run_cli(
            ["curve", "--n-grid", "10,100,1000", "--tau2", "1", "--sigma2", "1"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,d_eff"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        expected = [
            math.log(11.0) / math.log(10.0),
            math.log(101.0) / math.log(100.0),
            math.log(1001.0) / math.log(1000.0),
        ]
        np.testing.assert_allclose(values, expected, rtol=1e-12)

    def test_zero_prior_zero_column(self, capsys):
        code, out, _ = run_cli(
            ["curve", "--n-grid", "10,100", "--tau2", "0", "--sigma2", "1"], capsys
        )
        assert code == 0
        assert [float(l.split(",")[1]) for l in out.strip().splitlines()[1:]] == [0.0, 0.0]

    def test_inverse_n_schedule_constant_mi(self, capsys):
        code, out, _ = run_cli(
            ["curve", "--n-grid", "10,100,1000", "--tau2", "1", "--sigma2", "1",
             "--tau2-schedule", "inverse-n"],
            capsys,
        )
        assert code == 0
        values = [float(l.split(",")[1]) for l in out.strip().splitlines()[1:]]
        expected = [math.log(2.0) / math.log(n) for n in (10, 100, 1000)]
        np.testing.assert_allclose(values, expected, rtol=1e-12)
        assert values == sorted(values, reverse=True)

    def test_empty_grid_exits_two(self, capsys):
        code, _, err = run_cli(["curve", "--n-grid", ",", "--tau2", "1", "--sigma2", "1"], capsys)
        assert code == 2
        assert "--n-grid is empty" in err

    def test_inverse_n_consecutive_large_grid(self, capsys):
        # n * (tau2 / n) wobbled by an ulp, more than the step in log n
        code, out, err = run_cli(
            ["curve", "--n-grid", "739003128230823,739003128230824,739003128230825",
             "--tau2", "7", "--sigma2", "1", "--tau2-schedule", "inverse-n"], capsys)
        assert code == 0, err
        values = [float(l.split(",")[1]) for l in out.strip().splitlines()[1:]]
        assert values == sorted(values, reverse=True)

    def test_bad_grid_exits_two(self, capsys):
        for grid in ("2,10", "10,10", "100,10", "abc"):
            code, _, _ = run_cli(
                ["curve", "--n-grid", grid, "--tau2", "1", "--sigma2", "1"], capsys
            )
            assert code == 2

    def test_regression_curve_decreasing(self, tmp_path, capsys):
        design = tmp_path / "d.csv"
        rng = np.random.default_rng(13)
        write_matrix_csv(design, rng.standard_normal((6, 4)))
        code, out, _ = run_cli(
            ["curve", "--n-grid", "10,100,1000", "--design", str(design),
             "--tau2", "1", "--sigma2", "1"],
            capsys,
        )
        assert code == 0
        values = [float(l.split(",")[1]) for l in out.strip().splitlines()[1:]]
        assert values == sorted(values, reverse=True)

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["curve", "--n-grid", "10,100", "--tau2", "1", "--sigma2", "1",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["results"]["n"]["value"] == [10, 100]

    @pytest.mark.parametrize("extra", [["--d", "5"], ["--tau2-schedule", "inverse-n"]],
                             ids=["d", "inverse-n"])
    def test_design_refuses_location_options(self, extra, tmp_path, capsys):
        # a design curve ignored both, yet recorded them in its config
        design = tmp_path / "s.csv"
        write_matrix_csv(design, np.eye(2))
        code, out, err = run_cli(
            ["curve", "--n-grid", "10,100", "--design", str(design), "--tau2", "1",
             *extra, "--format", "json"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert extra[0] in err

    def test_dimension_recorded_as_one_by_default(self, tmp_path, capsys):
        design = tmp_path / "s.csv"
        write_matrix_csv(design, np.eye(2))
        for extra in ([], ["--design", str(design)]):
            code, out, _ = run_cli(
                ["curve", "--n-grid", "10,100", "--tau2", "1", *extra, "--format", "json"],
                capsys,
            )
            assert code == 0
            assert json.loads(out)["config"]["d"] == 1


class TestApprox:
    @pytest.fixture()
    def matrices(self, tmp_path):
        paths = {}
        for name, m in (
            ("exact", [[0.5]]),
            ("approx", [[1.0]]),
            ("prior", [[1.0]]),
            ("bigger", [[2.0]]),
            ("small_exact", 2e-12 * np.eye(3)),
            ("small_approx", 1e-12 * np.eye(3)),
            ("eye3", np.eye(3)),
        ):
            p = tmp_path / f"{name}.csv"
            write_matrix_csv(p, np.array(m))
            paths[name] = str(p)
        return paths

    def test_worked_pair(self, matrices, capsys):
        code, out, _ = run_cli(
            ["approx", "--exact-cov", matrices["exact"], "--approx-cov", matrices["approx"],
             "--prior-cov", matrices["prior"], "--n", "100"],
            capsys,
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["kl_exact"]["value"] == pytest.approx(
            0.5 * (0.5 - math.log(0.5) - 1.0), abs=1e-12
        )
        assert results["kl_approx"]["value"] == 0
        assert results["loewner_dominates"] is True
        assert results["truncation_certified"] is True

    def test_identical_matrices(self, matrices, capsys):
        code, out, _ = run_cli(
            ["approx", "--exact-cov", matrices["prior"], "--approx-cov", matrices["prior"],
             "--prior-cov", matrices["prior"], "--n", "10"],
            capsys,
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert results["kl_exact"]["value"] == results["kl_approx"]["value"]
        assert results["loewner_dominates"] is True

    def test_require_domination_exit_four(self, matrices, capsys):
        code, out, _ = run_cli(
            ["approx", "--exact-cov", matrices["approx"], "--approx-cov", matrices["exact"],
             "--prior-cov", matrices["prior"], "--n", "10", "--require-domination"],
            capsys,
        )
        assert code == 4
        assert json.loads(out)["results"]["loewner_dominates"] is False

    def test_small_scale_shrinkage_exits_four(self, matrices, capsys):
        # covariances near 1e-12 (n near 1e12): halving one is no inflation
        code, out, _ = run_cli(
            ["approx", "--exact-cov", matrices["small_exact"],
             "--approx-cov", matrices["small_approx"], "--prior-cov", matrices["eye3"],
             "--n", "100", "--require-domination"],
            capsys,
        )
        assert code == 4
        assert json.loads(out)["results"]["truncation_certified"] is False

    def test_non_pd_input_exits_two(self, tmp_path, matrices, capsys):
        bad = tmp_path / "npd.csv"
        write_matrix_csv(bad, np.array([[0.0]]))
        code, _, _ = run_cli(
            ["approx", "--exact-cov", str(bad), "--approx-cov", matrices["approx"],
             "--prior-cov", matrices["prior"], "--n", "10"],
            capsys,
        )
        assert code == 2


class TestShrinkage:
    def test_fixed_prior_exact(self, capsys):
        code, out, _ = run_cli(
            ["shrinkage", "--prior", "fixed", "--tau", "1", "--sigma2", "1",
             "--n", "100", "--samples", "10000", "--seed", "1"],
            capsys,
        )
        assert code == 0
        results = json.loads(out)["results"]
        point = math.log1p(100.0) / math.log(100.0)
        assert results["deff_distribution"]["mean"]["value"] == pytest.approx(point, abs=1e-12)
        assert results["deff_distribution"]["sd"]["value"] == 0
        assert results["expected_conditional_mi"]["std_error"] == 0
        assert results["jensen_bound"]["value"] == pytest.approx(
            0.5 * math.log1p(100.0), abs=1e-12
        )
        assert results["heavy_tail_bound"] is None

    def test_half_cauchy_summary(self, capsys):
        code, out, _ = run_cli(
            ["shrinkage", "--prior", "half-cauchy", "--tau-g", "1", "--sigma2", "1",
             "--n", "100", "--samples", "100000", "--seed", "42"],
            capsys,
        )
        assert code == 0
        results = json.loads(out)["results"]
        median = results["deff_distribution"]["q50"]["value"]
        assert median == pytest.approx(math.log(101.0) / math.log(100.0), abs=0.02)
        assert results["jensen_bound"] is None
        assert results["heavy_tail_bound"]["path"] == "bound"

    def test_student_t_decompose_block(self, capsys):
        # c = n / sigma2 = 1 while keeping n >= 3 for the d_eff summary
        code, out, _ = run_cli(
            ["shrinkage", "--prior", "student-t", "--nu", "4", "--s2", "1",
             "--sigma2", "4", "--n", "4", "--samples", "15000",
             "--inner-samples", "15000", "--seed", "17", "--decompose"],
            capsys,
        )
        assert code == 0
        chain = json.loads(out)["results"]["chain"]
        assert chain["bound_satisfied"] is True
        assert chain["i_theta_y"]["path"] == "mc"

    @pytest.mark.parametrize("args, mean", [
        (["--prior", "half-cauchy", "--tau-g", "1e300", "--samples", "20000"], 301.0),
        (["--prior", "half-cauchy", "--tau-g", "1e150", "--samples", "20000"], 151.0),
        # E[log lam^2] = log(nu s2 / 2) - digamma(nu / 2), digamma(3/2) = 2 - gamma - 2 log 2
        (["--prior", "student-t", "--nu", "3", "--s2", "1e307"],
         1.0 + (math.log(1.5e307) - (2.0 - 0.5772156649015329 - 2.0 * math.log(2.0)))
         / math.log(100.0)),
    ], ids=["half-cauchy-1e300", "half-cauchy-1e150", "student-t-1e307"])
    def test_overflowing_snr_times_scale_squared_exits_zero(self, args, mean, capsys):
        code, out, err = run_cli(["shrinkage", *args, "--n", "100", "--seed", "1"], capsys)
        assert (code, err) == (0, "")
        summary = json.loads(out)["results"]["deff_distribution"]
        standard_error = summary["sd"]["value"] / math.sqrt(summary["n_samples"])
        assert abs(summary["mean"]["value"] - mean) <= 5.0 * standard_error

    def test_nested_runs_where_snr_times_scale_squared_overflows(self, capsys):
        # c = 1e8: c lam^2 overflows on about 5% of draws; lam^2 itself, which
        # the nested kernel cannot yet take past the float range, stays finite
        # on every draw of this seed
        common = ["--prior", "half-cauchy", "--tau-g", "1e149", "--sigma2", "1e-6",
                  "--n", "100", "--samples", "10000", "--inner-samples", "10000", "--seed", "1"]
        code, out, err = run_cli(["shrinkage", *common, "--decompose"], capsys)
        assert (code, err) == (0, "")
        chain = json.loads(out)["results"]["chain"]
        assert chain["bound_satisfied"] is True
        code, out, err = run_cli(["oracle", "--kind", "mixture-mi", *common], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["estimate"] == chain["i_theta_y"]

    def test_missing_prior_parameter_exits_two(self, capsys):
        code, _, _ = run_cli(
            ["shrinkage", "--prior", "fixed", "--sigma2", "1", "--n", "100",
             "--samples", "10000", "--seed", "1"],
            capsys,
        )
        assert code == 2


class TestOracleCommand:
    @pytest.fixture()
    def channel_files(self, tmp_path):
        write_matrix_csv(tmp_path / "a.csv", np.array([[1.0]]))
        write_matrix_csv(tmp_path / "p.csv", np.array([[1.0]]))
        write_matrix_csv(tmp_path / "n.csv", np.array([[1.0]]))
        return tmp_path

    def test_channel_mi(self, channel_files, capsys):
        code, out, _ = run_cli(
            ["oracle", "--kind", "channel-mi",
             "--a", str(channel_files / "a.csv"),
             "--prior-cov", str(channel_files / "p.csv"),
             "--noise-cov", str(channel_files / "n.csv"),
             "--samples", "50000", "--seed", "3"],
            capsys,
        )
        assert code == 0
        est = json.loads(out)["results"]["estimate"]
        assert abs(est["value"] - 0.5 * math.log(2.0)) <= 3.0 * est["std_error"]

    def test_gaussian_kl(self, tmp_path, capsys):
        write_matrix_csv(tmp_path / "mean.csv", np.array([[1.0]]))
        write_matrix_csv(tmp_path / "cov.csv", np.array([[1.0]]))
        write_matrix_csv(tmp_path / "prior.csv", np.array([[1.0]]))
        code, out, _ = run_cli(
            ["oracle", "--kind", "gaussian-kl",
             "--mean", str(tmp_path / "mean.csv"),
             "--cov", str(tmp_path / "cov.csv"),
             "--prior-cov", str(tmp_path / "prior.csv"),
             "--samples", "50000", "--seed", "3"],
            capsys,
        )
        assert code == 0
        est = json.loads(out)["results"]["estimate"]
        assert abs(est["value"] - 0.5) <= 3.0 * est["std_error"]

    def test_mixture_mi(self, capsys):
        code, out, _ = run_cli(
            ["oracle", "--kind", "mixture-mi", "--prior", "fixed", "--tau", "1",
             "--sigma2", "1", "--n", "1", "--samples", "10000",
             "--inner-samples", "10000", "--seed", "4"],
            capsys,
        )
        assert code == 0
        est = json.loads(out)["results"]["estimate"]
        assert est["inner_samples"] == 10000

    def test_missing_inputs_exit_two(self, capsys):
        code, _, _ = run_cli(
            ["oracle", "--kind", "channel-mi", "--samples", "50000", "--seed", "1"], capsys
        )
        assert code == 2


def _csv_paths(tmp_path, **matrices):
    for name, m in matrices.items():
        write_matrix_csv(tmp_path / f"{name}.csv", m)
    return {name: str(tmp_path / f"{name}.csv") for name in matrices}


def _regression_argv(tmp_path):
    # the design SVD's last digits moved between one and two OpenBLAS threads
    paths = _csv_paths(tmp_path, d=np.random.default_rng(2024).standard_normal((2000, 200)))
    return ["regression", "--design", paths["d"], "--tau2", "0.5", "--sigma2", "2", "--n", "500"]


def _approx_argv(tmp_path):
    # at 150 dimensions the Cholesky factors' last digits moved, and with them logdet_approx
    rng, size = np.random.default_rng(5), 150
    h, k = rng.standard_normal((size, size)), rng.standard_normal((size, size))
    exact = k @ k.T / size + 0.2 * np.eye(size)
    paths = _csv_paths(tmp_path, prior=h @ h.T / size + 0.5 * np.eye(size), exact=exact,
                       approx=1.3 * exact)
    return ["approx", "--exact-cov", paths["exact"], "--approx-cov", paths["approx"],
            "--prior-cov", paths["prior"], "--n", "100"]


def _channel_mi_argv(tmp_path):
    # at 100 dimensions the channel's factors and the block products moved
    rng, size = np.random.default_rng(11), 100
    a = rng.standard_normal((size, size))
    b, c = rng.standard_normal((size, size)), rng.standard_normal((size, size))
    paths = _csv_paths(tmp_path, a=a, prior=b @ b.T / size + np.eye(size),
                       noise=c @ c.T / size + np.eye(size))
    return ["oracle", "--kind", "channel-mi", "--a", paths["a"], "--prior-cov", paths["prior"],
            "--noise-cov", paths["noise"], "--samples", "20000", "--seed", "3"]


def _gaussian_kl_argv(tmp_path):
    # at 200 dimensions the factors and the whitening solve moved
    rng, size = np.random.default_rng(5), 200
    k, h = rng.standard_normal((size, size)), rng.standard_normal((size, size))
    paths = _csv_paths(tmp_path, mean=rng.standard_normal((1, size)),
                       cov=k @ k.T / size + 0.2 * np.eye(size),
                       prior=h @ h.T / size + 0.5 * np.eye(size))
    return ["oracle", "--kind", "gaussian-kl", "--mean", paths["mean"], "--cov", paths["cov"],
            "--prior-cov", paths["prior"], "--samples", "20000", "--seed", "3"]


# the nested mixture kernel forms its exp arguments with a BLAS matrix product
_NESTED_COUNTS = ["--samples", "10000", "--inner-samples", "10000", "--seed", "1"]


def _decompose_argv(_tmp_path):
    return ["shrinkage", "--prior", "half-cauchy", "--n", "100", "--decompose", *_NESTED_COUNTS]


def _mixture_mi_argv(_tmp_path):
    return ["oracle", "--kind", "mixture-mi", "--prior", "student-t", "--nu", "3", "--n", "100",
            *_NESTED_COUNTS]


class TestDeterminism:
    def test_identical_seed_byte_identical(self, tmp_path):
        args = ["shrinkage", "--prior", "half-cauchy", "--sigma2", "1", "--n", "100",
                "--samples", "20000", "--seed", "9"]
        code1, bytes1 = run_to_file(args, tmp_path, "a.json")
        code2, bytes2 = run_to_file(args, tmp_path, "b.json")
        assert code1 == code2 == 0
        assert bytes1 == bytes2

    def test_threads_do_not_change_bytes(self, tmp_path):
        base = ["shrinkage", "--prior", "student-t", "--nu", "4", "--sigma2", "1",
                "--n", "10", "--samples", "30000", "--seed", "21"]
        code1, bytes1 = run_to_file([*base, "--threads", "1"], tmp_path, "t1.json")
        code2, bytes2 = run_to_file([*base, "--threads", "8"], tmp_path, "t8.json")
        assert code1 == code2 == 0
        assert bytes1 == bytes2

    # numpy is loaded with OpenBLAS at the environment's count before main runs;
    # prints that count, the count after main returns, and main's exit code
    AFTER_NUMPY = """
import sys
import numpy
from effdim import cli, sampling
hooks = sampling._openblas_threads()
count = (lambda: hooks[0]()) if hooks else (lambda: None)
before = count()
code = cli.main(sys.argv[1:])
print(before, count(), code)
"""

    @pytest.mark.parametrize("argv", [
        _regression_argv, _approx_argv, _channel_mi_argv, _gaussian_kl_argv, _decompose_argv,
        _mixture_mi_argv,
    ], ids=["regression", "approx", "oracle-channel-mi", "oracle-gaussian-kl",
            "shrinkage-decompose", "oracle-mixture-mi"])
    def test_bytes_do_not_depend_on_the_blas_thread_count(self, argv, tmp_path):
        # a fresh CLI process sets OpenBLAS to one thread before numpy loads it;
        # where numpy came first, main holds the loaded OpenBLAS at one thread
        # and gives the caller's count back when it returns
        src = str(Path(effdim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "2"}
        args = argv(tmp_path)
        fresh, after_numpy = tmp_path / "fresh.out", tmp_path / "after_numpy.out"
        proc = subprocess.run([sys.executable, "-m", "effdim.cli", *args, "--out", str(fresh)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        proc = subprocess.run(
            [sys.executable, "-c", self.AFTER_NUMPY, *args, "--out", str(after_numpy)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        if proc.stdout.startswith("None"):
            pytest.skip("no OpenBLAS thread-count setter in this process")
        assert proc.stdout == "2 2 0\n"
        assert fresh.read_bytes() == after_numpy.read_bytes()

    def test_matrix_round_trip_through_tool_format(self, tmp_path):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((4, 3))
        path = tmp_path / "m.csv"
        write_matrix_csv(path, m)
        from effdim.reportio import read_matrix_csv

        np.testing.assert_array_equal(read_matrix_csv(path), m)


class TestExitCodes:
    @pytest.mark.parametrize("args", [
        ["location", "--tau2", "nan", "--sigma2", "1", "--n", "10"],
        ["location", "--tau2", "1", "--sigma2", "inf", "--n", "10"],
        ["location", "--tau2", "1e308", "--sigma2", "1e-308", "--n", "10"],
        ["regression", "--design", "{nan_design}", "--tau2", "1", "--sigma2", "1"],
    ], ids=["tau2-nan", "sigma2-inf", "snr-overflow", "design-nan"])
    def test_non_finite_input_exits_two(self, args, tmp_path, capsys):
        design = tmp_path / "nan.csv"
        design.write_text("1,2\n3,nan\n")
        code, _, err = run_cli([a.format(nan_design=design) for a in args], capsys)
        assert code == 2
        assert "finite" in err

    def test_linalg_error_exits_three(self, tmp_path, capsys, monkeypatch):
        # numpy's own failure, raised where effdim.linalg calls numpy, reaches
        # the CLI as a NumericalError
        def failing(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", failing)
        design = tmp_path / "eye2.csv"
        write_matrix_csv(design, np.eye(2))
        code, _, err = run_cli(
            ["regression", "--design", str(design), "--tau2", "1", "--sigma2", "1"], capsys
        )
        assert code == 3
        assert "numerical failure: SVD did not converge" in err

    def test_error_families(self):
        assert issubclass(InputError, ValueError)
        assert issubclass(NotPositiveDefinite, InputError)
        assert not issubclass(NumericalError, InputError)

    @pytest.mark.parametrize("error", [ValueError, np.linalg.LinAlgError])
    def test_unexpected_exception_is_a_bug(self, error, tmp_path, monkeypatch):
        # only effdim.linalg classifies numpy's LinAlgError; raised anywhere
        # else, it is a bug like any other exception
        def failing(model, n=None):
            raise error("a defect, not bad input")

        monkeypatch.setattr(cli, "ridge_report", failing)
        design = tmp_path / "eye2.csv"
        write_matrix_csv(design, np.eye(2))
        with pytest.raises(error, match="a defect"):
            main(["regression", "--design", str(design), "--tau2", "1", "--sigma2", "1"])

    @pytest.mark.parametrize("args, message", [
        (["approx", "--exact-cov", "{eye2}", "--approx-cov", "{eye2}",
          "--prior-cov", "{zero2}", "--n", "10"], "prior covariance is not positive definite"),
        (["approx", "--exact-cov", "{eye2}", "--approx-cov", "{eye2}",
          "--prior-cov", "{indefinite2}", "--n", "10"],
         "prior covariance is not positive definite"),
        (["oracle", "--kind", "gaussian-kl", "--mean", "{mean2}", "--cov", "{eye2}",
          "--prior-cov", "{indefinite2}", "--samples", "10000", "--seed", "1"],
         "prior covariance is not positive definite"),
        (["oracle", "--kind", "gaussian-kl", "--mean", "{mean2}", "--cov", "{eye2}",
          "--prior-cov", "{eye1}", "--samples", "10000", "--seed", "1"],
         "prior covariance has shape (1, 1), expected (2, 2)"),
        (["location", "--tau2", "1", "--sigma2", "1", "--n", "10", "--oracle",
          "--samples", "10000", "--seed", "-1"], "master seed must be nonnegative"),
        (["regression", "--design", "{eye2}", "--tau2", "1", "--sigma2", "1e-308"],
         "must be finite"),
        (["regression", "--design", "{binary}", "--tau2", "1", "--sigma2", "1"],
         "cannot read"),
        (["oracle", "--kind", "gaussian-kl", "--mean", "{mean2}", "--cov", "{eye2}",
          "--prior-cov", "{eye2}", "--samples", "10000", "--seed", "1", "--threads", "0"],
         "--threads must be at least 1, got 0"),
        (["shrinkage", "--prior", "fixed", "--tau", "1", "--n", "10", "--seed", "1",
          "--threads", "-1"], "--threads must be at least 1, got -1"),
        (["location", "--tau2", "1", "--sigma2", "1", "--n", "10", "--threads", "0"],
         "--threads must be at least 1, got 0"),
    ], ids=["approx-zero-prior", "approx-indefinite-prior", "kl-indefinite-prior",
            "kl-prior-size", "negative-seed", "snr-trace-overflow", "non-utf8-csv",
            "oracle-zero-threads", "shrinkage-negative-threads", "location-zero-threads"])
    def test_input_faults_exit_two(self, args, message, tmp_path, capsys):
        files = {"eye1": np.eye(1), "eye2": np.eye(2), "zero2": np.zeros((2, 2)),
                 "indefinite2": np.diag([1.0, -1.0]), "mean2": np.zeros((1, 2))}
        for name, m in files.items():
            write_matrix_csv(tmp_path / f"{name}.csv", m)
        (tmp_path / "binary.csv").write_bytes(b"\xff\xfe\x00")
        paths = {name: str(tmp_path / f"{name}.csv") for name in [*files, "binary"]}
        code, _, err = run_cli([a.format(**paths) for a in args], capsys)
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("args, message", [
        (["location", "--tau2", "1", "--sigma2", "1", "--n", str(10**400)],
         "n is too large for a float"),
        (["location", "--tau2", "1", "--sigma2", "1", "--n", "10", "--d", str(10**400)],
         "dim is too large for a float"),
        (["shrinkage", "--prior", "student-t", "--nu", "3", "--n", str(10**400),
          "--seed", "1"], "n is too large for a float"),
        (["shrinkage", "--prior", "student-t", "--nu", "3", "--n", "100",
          "--samples", str(10**30), "--seed", "1"], "samples is too large for an array index"),
    ], ids=["location-n", "location-d", "shrinkage-n", "shrinkage-samples"])
    def test_oversized_counts_exit_two(self, args, message, capsys):
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("n, code, message", [
        ("10", 3, "numerical failure: KL to the prior overflows"),
        ("-1", 2, "sample size -1 < 3"),
    ], ids=["kl-overflow", "negative-n"])
    def test_float_limit_approx_cov(self, n, code, message, tmp_path, capsys):
        # classified where it is detected: no overflow warning, no inf at render time
        write_matrix_csv(tmp_path / "eye2.csv", np.eye(2))
        write_matrix_csv(tmp_path / "huge.csv", np.diag([1e308, 1e308]))
        eye2, huge = str(tmp_path / "eye2.csv"), str(tmp_path / "huge.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, out, err = run_cli(["approx", "--exact-cov", eye2, "--approx-cov", huge,
                                     "--prior-cov", eye2, "--n", n], capsys)
        assert (got, out) == (code, "")
        assert message in err

    @pytest.mark.parametrize("args, message", [
        (["shrinkage", "--prior", "student-t", "--nu", "0.01", "--n", "100",
          "--samples", "10000", "--seed", "1"], "values has mean inf"),
        (["shrinkage", "--prior", "half-cauchy", "--tau-g", "1e307", "--n", "100",
          "--samples", "10000", "--seed", "1"], "values has mean inf"),
        (["oracle", "--kind", "mixture-mi", "--prior", "student-t", "--nu", "0.01",
          "--n", "100", "--samples", "10000", "--inner-samples", "10000", "--seed", "1"],
         "values has mean nan"),
        (["oracle", "--kind", "mixture-mi", "--prior", "half-cauchy", "--tau-g", "1e200",
          "--n", "100", "--samples", "10000", "--inner-samples", "10000", "--seed", "1"],
         "values has mean nan"),
        (["shrinkage", "--prior", "half-cauchy", "--tau-g", "1e200", "--n", "100",
          "--samples", "10000", "--inner-samples", "10000", "--seed", "1", "--decompose"],
         "values has mean nan"),
    ], ids=["student-t-underflow", "half-cauchy-scale-overflow", "mixture-mi-student-t",
            "mixture-mi-half-cauchy", "decompose-half-cauchy"])
    def test_non_finite_draws_exit_three_where_formed(self, args, message, capsys):
        # RuntimeWarnings are test errors, so this also checks that the
        # NumericalError line is the run's only report
        code, out, err = run_cli(args, capsys)
        assert (code, out) == (3, "")
        assert "numerical failure: a Monte Carlo block of" in err and message in err
        assert "cannot appear in a report" not in err

    def test_unwritable_out_exits_two(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(
            ["location", "--tau2", "1", "--sigma2", "1", "--n", "10", "--out", str(path)],
            capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("effdim: error: ")
        assert str(path) in err

    def test_non_integer_env_seed_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("EFFDIM_SEED", "1.5")
        code, _, err = run_cli(
            ["location", "--tau2", "1", "--sigma2", "1", "--n", "10", "--oracle",
             "--samples", "10000"], capsys)
        assert code == 2
        assert "EFFDIM_SEED='1.5' is not an integer" in err

    def test_negative_env_seed_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("EFFDIM_SEED", "-5")
        code, _, err = run_cli(
            ["location", "--tau2", "1", "--sigma2", "1", "--n", "10", "--oracle",
             "--samples", "10000"], capsys)
        assert code == 2
        assert "master seed must be nonnegative" in err

    @pytest.mark.parametrize("tau2, sigma2", [("1e-30", "1"), ("1e-308", "1e308")])
    def test_tiny_snr_regression_succeeds(self, tau2, sigma2, tmp_path, capsys):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((rng.integers(2, 40), rng.integers(1, 12)))
        design = tmp_path / "x.csv"
        write_matrix_csv(design, x)
        code, out, _ = run_cli(
            ["regression", "--design", str(design), "--tau2", tau2, "--sigma2", sigma2],
            capsys)
        assert code == 0
        results = json.loads(out)["results"]
        assert results["sandwich_lower"]["value"] <= 2.0 * results["mi_nats"]["value"]
        assert 2.0 * results["mi_nats"]["value"] <= results["sandwich_upper"]["value"]

    @pytest.mark.parametrize("tau2", ["1e-312", "1e-313", "1e-320"])
    def test_subnormal_snr_regression_succeeds(self, tau2, tmp_path, capsys):
        design = tmp_path / "d.csv"
        design.write_text("0.37,1.2\n2.1,-0.4\n0.9,0.3\n", encoding="utf-8")
        code, out, _ = run_cli(["regression", "--design", str(design), "--tau2", tau2,
                                "--sigma2", "1", "--n", "10"], capsys)
        assert code == 0
        assert json.loads(out)["results"]["mi_nats"]["value"] > 0.0


EDGE_VALUES = ["-1", "0", "3", "nan", "inf", "1e308", "1e-308", "1e-30"]
EDGE_COUNTS = ["-1", "0", "3", "100"]
EDGE_THREADS = ["-1", "0", "2"]
EDGE_SEEDS = ["-1", "0", "7", str(-2**70), str(2**64), str(10**30)]
# the least sample count each Monte Carlo routine accepts, plus rejected ones
EDGE_SAMPLES = ["-1", "0", "3", "10000"]


@pytest.fixture(scope="module")
def fuzz_csvs(tmp_path_factory):
    """Paths of the CSV inputs the argument fuzzer draws from, written once."""
    root = tmp_path_factory.mktemp("fuzz")
    matrices = {
        "eye": np.eye(2),
        "vector": np.array([[0.5, 2.0]]),
        "zero": np.zeros((2, 2)),
        "indefinite": np.diag([1.0, -1.0]),
        "wrong-size": np.eye(3),
        "huge": np.diag([1e308, 1e308]),
    }
    for name, m in matrices.items():
        write_matrix_csv(root / f"{name}.csv", m)
    return [str(root / f"{name}.csv") for name in [*matrices, "missing"]]


def _argv(draw, csvs):
    """Draw one argv for a random subcommand (and oracle kind).

    Each maps to (flags always given, flags given or left out), so that most
    draws get past argparse and into the library.
    """
    value, count, csv = (st.sampled_from(EDGE_VALUES), st.sampled_from(EDGE_COUNTS),
                         st.sampled_from(csvs))
    seed = st.sampled_from(EDGE_SEEDS)
    # Monte Carlo counts are always given, at their minimum or below it
    mc = {"--seed": seed, "--samples": st.sampled_from(EDGE_SAMPLES)}
    threads = {"--threads": st.sampled_from(EDGE_THREADS)}
    prior = {"--tau": value, "--nu": value, "--s2": value, "--tau-g": value, "--table": csv}
    commands = {
        "location": ({"--tau2": value, "--sigma2": value, "--n": count, **mc},
                     {"--d": count, "--oracle": None, **threads}),
        "regression": ({"--design": csv, "--tau2": value, "--sigma2": value}, {"--n": count}),
        "curve": ({"--n-grid": st.sampled_from(["3,10,100", "10,1000", "2,10", "10,10", "x"])},
                  {"--d": count, "--tau2": value, "--sigma2": value,
                   "--tau2-schedule": st.sampled_from(["fixed", "inverse-n"]),
                   "--design": csv, "--format": st.sampled_from(["csv", "json"])}),
        "approx": ({"--exact-cov": csv, "--approx-cov": csv, "--prior-cov": csv,
                    "--n": count},
                   {"--exact-mean": csv, "--approx-mean": csv, "--require-domination": None}),
        "shrinkage": ({"--prior": st.sampled_from(list(cli.PRIORS)), "--n": count, **mc},
                      {**prior, "--sigma2": value, **threads}),
        "oracle --kind channel-mi": (
            {"--a": csv, "--prior-cov": csv, "--noise-cov": csv, **mc}, threads),
        "oracle --kind gaussian-kl": (
            {"--mean": csv, "--cov": csv, "--prior-cov": csv, **mc}, threads),
        # inner samples stay below their minimum: one accepted nested run
        # costs 1e8 kernel evaluations
        "oracle --kind mixture-mi": (
            {"--prior": st.sampled_from(list(cli.PRIORS)),
             "--inner-samples": st.sampled_from(["-1", "0", "3"]), **mc},
            {**prior, "--sigma2": value, "--n": count, **threads}),
    }
    command = draw(st.sampled_from(list(commands)))
    always, maybe = commands[command]
    argv = command.split()
    for flag, values in [*always.items(), *maybe.items()]:
        if flag in always or draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(values)]
    return argv


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(data=st.data())
def test_fuzzed_arguments_exit_with_a_contract_code(fuzz_csvs, data):
    argv = _argv(data.draw, fuzz_csvs)
    assert main(argv) in (0, 2, 3, 4), argv


class TestPriorFlags:
    @pytest.mark.parametrize("flags, keys", [
        (["--prior", "fixed", "--tau", "2"], ["prior", "tau"]),
        (["--prior", "student-t", "--nu", "4"], ["prior", "nu", "s2"]),
        (["--prior", "half-cauchy"], ["prior", "tau_g"]),
        (["--prior", "tabulated", "--table", "t.csv"], ["prior", "table"]),
    ])
    def test_both_parsers_share_flags_and_config_order(self, flags, keys):
        for command in (["shrinkage", "--n", "10"], ["oracle", "--kind", "mixture-mi"]):
            args = build_parser().parse_args([*command, *flags])
            assert list(cli._prior_config(args)) == keys

    def test_required_flag_named(self, capsys):
        code, _, err = run_cli(
            ["oracle", "--kind", "mixture-mi", "--prior", "student-t", "--seed", "1"], capsys
        )
        assert code == 2
        assert "--prior student-t requires --nu" in err


# Every module that importing the CLI loads and that belongs to an installed
# distribution other than effdim itself must belong to numpy: numpy is the
# only runtime dependency.
NUMPY_ONLY_IMPORT = """
import sys
before = set(sys.modules)
import effdim.cli
loaded = {name.partition(".")[0] for name in set(sys.modules) - before} - {"effdim"}
from importlib.metadata import packages_distributions
owners = packages_distributions()
foreign = {top: owners[top] for top in loaded if owners.get(top, ["numpy"]) != ["numpy"]}
assert not foreign, foreign
assert "scipy" not in sys.modules
"""


def test_cli_imports_without_scipy():
    src = Path(effdim.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_IMPORT],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


class TestArgparseContract:
    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("extra", [[], ["--design", "x.csv"]], ids=["location", "design"])
    def test_curve_requires_tau2(self, extra, capsys):
        code, out, err = run_cli(["curve", "--n-grid", "10,100", *extra], capsys)
        assert (code, out) == (2, "")
        assert "--tau2" in err

    def test_csv_format_rejected_for_reports(self, capsys):
        code, _, err = run_cli(
            ["location", "--d", "1", "--tau2", "1", "--sigma2", "1", "--n", "10",
             "--format", "csv"],
            capsys,
        )
        assert code == 2
        assert "invalid choice: 'csv'" in err
