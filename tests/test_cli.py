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


class TestApprox:
    @pytest.fixture()
    def matrices(self, tmp_path):
        paths = {}
        for name, m in (
            ("exact", [[0.5]]),
            ("approx", [[1.0]]),
            ("prior", [[1.0]]),
            ("bigger", [[2.0]]),
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
        def failing(model, n=None):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(cli, "ridge_report", failing)
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

    def test_unexpected_exception_is_a_bug(self, tmp_path, monkeypatch):
        def failing(model, n=None):
            raise ValueError("a defect, not bad input")

        monkeypatch.setattr(cli, "ridge_report", failing)
        design = tmp_path / "eye2.csv"
        write_matrix_csv(design, np.eye(2))
        with pytest.raises(ValueError, match="a defect"):
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
        (["shrinkage", "--prior", "half-cauchy", "--tau-g", "1e200", "--n", "100",
          "--samples", "10000", "--seed", "1"], "values has mean inf"),
        (["oracle", "--kind", "mixture-mi", "--prior", "student-t", "--nu", "0.01",
          "--n", "100", "--samples", "10000", "--inner-samples", "10000", "--seed", "1"],
         "values has mean nan"),
    ], ids=["student-t-underflow", "half-cauchy-overflow", "mixture-mi-student-t"])
    def test_non_finite_draws_exit_three_where_formed(self, args, message, capsys):
        with pytest.warns(RuntimeWarning):
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


def test_cli_imports_without_scipy():
    src = Path(effdim.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", "import effdim.cli, sys; assert 'scipy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


class TestArgparseContract:
    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_csv_format_rejected_for_reports(self, capsys):
        code, _, err = run_cli(
            ["location", "--d", "1", "--tau2", "1", "--sigma2", "1", "--n", "10",
             "--format", "csv"],
            capsys,
        )
        assert code == 2
        assert "not supported" in err
