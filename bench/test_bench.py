"""Self-test of the benchmark at tiny sizes.

    python -m pytest bench/test_bench.py

Checks that every declared metric is emitted with its unit and direction,
that no operation fails, that per-layer counts repeat exactly, that the
``--threads 1`` and ``--threads 2`` outputs are byte-identical, and that the
benchmark refuses to run without the effdim sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from harness import Checker, CliRunner  # noqa: E402
from workloads import WORKLOADS as WORKLOAD_CLASSES, Op  # noqa: E402


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def tiny_result(workload: str, trace: int, seed: int = 1) -> tuple[dict, list[str]]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def test_spec_and_workload_modules_agree():
    assert WORKLOADS == list(WORKLOAD_CLASSES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace):
    result, lines = tiny_result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert f"error_rate 0 (0 failed of {result['attempted']} attempted)" in lines
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert metric["better"] in ("lower", "higher")
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert math.isfinite(emitted["value"])
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"nproc", "cpu_model", "caches", "python", "numpy", "scipy", "blas",
            "blas_default_threads", "simd", "sampling"} <= set(env)
    assert set(env["sampling"]) == {"FLAT_BLOCK", "NESTED_OUTER_BLOCK", "NESTED_INNER_CHUNK"}


def test_counts_repeat_exactly():
    # report_bytes depends on the rendered digits of seeded values, so it is
    # compared only between runs of the same seed
    first, _ = tiny_result("cli-closed-form", 1, seed=1)
    again, _ = tiny_result("cli-closed-form", 1, seed=1)
    other, _ = tiny_result("cli-closed-form", 1, seed=2)
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    for name in counts:
        assert first["metrics"][name] == again["metrics"][name], name
        if name != "reportio.report_bytes":
            assert first["metrics"][name] == other["metrics"][name], name
    assert first["metrics"]["dimension.design_spectrum_calls"]["value"] == 5


@pytest.mark.parametrize("workload", ["flat-mc", "nested-mc"])
def test_thread_counts_give_identical_bytes(workload, tmp_path):
    load = WORKLOAD_CLASSES[workload](seed=3, tiny=True)
    load.setup(tmp_path)
    runner = CliRunner(ROOT / "src", tmp_path)
    outputs = {}
    for op in load.round():
        status, out, err, _, _ = runner.run(["-m", "effdim.cli", *op.argv])
        assert status == 0, err
        outputs.setdefault(op.identity, set()).add(out)
    assert len(outputs) == 2
    assert all(len(distinct) == 1 for distinct in outputs.values())


def test_checker_fails_wrong_and_irreproducible_outputs():
    checker = Checker()
    op = Op("kind", check=lambda out: [] if out == "ok" else ["wrong"], identity="same")
    checker.record(op, "ok", [])
    checker.record(op, "ok", ["exit code 1"])
    checker.record(op, "bad", [])
    assert checker.attempted == 3
    assert [message for _, message in checker.failures] == [
        "exit code 1", "wrong; output differs from an earlier run of the same operation"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
