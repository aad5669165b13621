"""effdim benchmark: whole-run timings per workload, or per-layer timings.

Run from the root of an effdim checkout (the package need not be installed;
``src`` is put on the path):

    python3 bench/run.py --workload cli-closed-form --seed 1 --seconds 20 --trace 0

Workloads, metrics and units are declared in ``BENCHMARK.json`` at the root;
``bench/workloads.py`` says what each workload runs and why.

``--trace 0`` sets the workload up ``SETUP_REPEATS`` times from the seed
(``setup_s`` is the median), then runs rounds of its operations, one at a
time, until ``--seconds`` have passed, checking every output. It reports:

- ``round_s.p50``: the time of one round, i.e. the sum over the workload's
  operation kinds of the median wall time of one operation of that kind.
  CLI operations are timed as whole child processes. The sum is reported
  rather than each kind's median because it is the steadier figure: on a
  shared 2-CPU machine single kinds spread 10-19% between runs, the round
  5-15%.
- ``peak_rss_mib``: the largest peak RSS of any child process, or of this
  process for the in-process workload.

``--trace 1`` replays one round in this process under timing spans and
reports the per-layer metrics (see ``bench/tracing.py``).

Human-readable lines (environment record, per-operation figures such as
``cli_location_s.p50``, error rate, failures) come first; the last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. An operation fails when its process exits non-zero, its output
check fails, or its output differs from an earlier run of the same argv
(any ``--threads``).
"""

import argparse
import json
import math
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

from harness import Checker, CliRunner, execute

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / ".work"
RESULTS_DIR = BENCH_DIR / "results"

# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 5

# A fresh interpreter importing the CLI: the one-time import cost, and it
# leaves effdim's bytecode cached for the timed runs.
WARM_UP = ["-c", "import effdim.cli"]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs; for the benchmark's self-test")
    return parser.parse_args(argv)


def set_up(workload, runner, workdir: Path) -> list[float]:
    """Set the workload up SETUP_REPEATS times; the last set-up is kept."""
    times = []
    for k in range(SETUP_REPEATS):
        target = workdir / f"setup-{k}"
        target.mkdir()
        start = time.perf_counter()
        workload.setup(target)
        status, _, err, _, _ = runner.run(WARM_UP)
        times.append(time.perf_counter() - start)
        if status != 0:
            raise RuntimeError(f"warm-up import failed: {err.strip()[-400:]}")
    return times


def measure(workload, seconds: float, runner, checker):
    """Closed loop over rounds until ``seconds`` pass (at least one round).

    Returns per-kind wall times, the round's operations and the peak RSS
    in KiB.
    """
    ops = workload.round()
    times = {op.kind: [] for op in ops}
    peak_kib = 0
    deadline = time.perf_counter() + seconds
    done = 0
    while done < len(ops) or time.perf_counter() < deadline:
        op = ops[done % len(ops)]
        output, elapsed, rss_kib, errors = execute(op, runner)
        checker.record(op, output, errors)
        times[op.kind].append(elapsed)
        peak_kib = max(peak_kib, rss_kib)
        done += 1
    if workload.in_process:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return times, ops, peak_kib


def _print_rows(rows):
    for name, value, unit, note in rows:
        print(f"  {name:<42} {value:>14.6g} {unit:<6} {note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # turn SIGTERM into an exception, so a running child is killed and
    # reaped (see CliRunner.run) and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "effdim" / "__init__.py").is_file():
        print(f"bench: no effdim sources at {SRC}; run from the root of an effdim checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    # these import effdim, so only once its sources are known to be there
    import envinfo
    from tracing import traced_run
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        runner = CliRunner(SRC, workdir)
        checker = Checker()
        workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
              f"trace {args.trace}{' tiny' if args.tiny else ''}")
        env = envinfo.environment()
        print("env " + json.dumps(env, sort_keys=True))
        setup_times = set_up(workload, runner, workdir)
        workload.prepare()
        if args.trace:
            values, spans, covered = traced_run(workload, runner, checker, workdir)
            declared = spec["per_layer"]
            RESULTS_DIR.mkdir(exist_ok=True)
            trace_path = RESULTS_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            trace_path.write_text(json.dumps({"env": env, "spans": spans}), encoding="utf-8")
            print(f"spans: {len(spans)} written to {trace_path.relative_to(ROOT)}")
            print("from the tiny replays of the other workloads: " + " ".join(covered))
            print("computed from effdim.sampling constants, not measured: "
                  "oracle.kernel_tile_bytes")
        else:
            times, ops, peak_kib = measure(workload, args.seconds, runner, checker)
            print("per operation:")
            _print_rows(workload.detail(times, ops))
            values = {
                "setup_s": statistics.median(setup_times),
                "round_s.p50": sum(statistics.median(t) for t in times.values()),
                "peak_rss_mib": peak_kib / 1024.0,
            }
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print("metrics:")
    _print_rows((name, m["value"], m["unit"], "") for name, m in metrics.items())
    print(f"error_rate {checker.failed / checker.attempted:.6g} "
          f"({checker.failed} failed of {checker.attempted} attempted)")
    for kind, message in checker.failures[:20]:
        print(f"FAILED {kind}: {message}")
    correct = checker.failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
