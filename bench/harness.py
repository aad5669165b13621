"""Executing benchmark operations and checking what they return.

An operation is either a CLI run (``python -m effdim.cli <argv>`` in a child
process, or ``effdim.cli.main(argv)`` in this process when replayed under
tracing) or an in-process library call. Every result goes through the
operation's own output check and through the reproducibility check: outputs
of operations that share an identity (same argv apart from ``--threads``)
must be byte-identical.
"""

import contextlib
import io
import os
import signal
import sys
import time
import traceback
from pathlib import Path


class CliRunner:
    """Runs the effdim CLI, and other interpreter commands, in child processes.

    Each child is waited for with ``wait4`` so that its own peak resident
    set size is known; stdout and stderr go to files in ``workdir``.
    """

    def __init__(self, src: Path, workdir: Path):
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
        self.stdout = workdir / "child.stdout"
        self.stderr = workdir / "child.stderr"

    def run(self, args: list[str]) -> tuple[int, str, str, float, int]:
        """(exit code, stdout, stderr, wall seconds, peak RSS KiB) of one child."""
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(self.stdout), flags, 0o600),
            (os.POSIX_SPAWN_OPEN, 2, str(self.stderr), flags, 0o600),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *args], self.env,
                             file_actions=actions)
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        elapsed = time.perf_counter() - start
        return (os.waitstatus_to_exitcode(status), self.stdout.read_text(encoding="utf-8"),
                self.stderr.read_text(encoding="utf-8"), elapsed, usage.ru_maxrss)


def execute(op, runner: CliRunner | None = None, tracer=None):
    """Run one operation: (output, wall seconds, child peak RSS KiB, errors).

    CLI operations run in a child process when a runner is given and through
    ``effdim.cli.main`` in this process otherwise (inside a ``cli.main`` span
    when a tracer is given).
    """
    if op.argv is not None and runner is not None:
        code, out, err, elapsed, rss = runner.run(["-m", "effdim.cli", *op.argv])
        if code != 0:
            return None, elapsed, rss, [f"exit code {code}: {err.strip()[-400:]}"]
        return out, elapsed, rss, []
    start = time.perf_counter()
    try:
        if op.argv is None:
            return op.call(), time.perf_counter() - start, 0, []
        from effdim import cli

        buf = io.StringIO()
        span = (tracer.span("cli.main", subcommand=op.argv[0]) if tracer is not None
                else contextlib.nullcontext())
        with span, contextlib.redirect_stdout(buf):
            code = cli.main(list(op.argv))
        elapsed = time.perf_counter() - start
        if code != 0:
            return None, elapsed, 0, [f"effdim.cli.main returned {code}"]
        return buf.getvalue(), elapsed, 0, []
    except Exception:  # an operation that raises is a failed operation, not a crash
        detail = traceback.format_exc(limit=3).strip().splitlines()[-1]
        return None, time.perf_counter() - start, 0, [f"raised {detail}"]


class Checker:
    """Counts attempted and failed operations and keeps the failure messages."""

    def __init__(self):
        self.reference = {}
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, op, output, errors: list[str]) -> None:
        self.attempted += 1
        errors = list(errors)
        if not errors:
            try:
                errors = op.check(output)
            except (KeyError, TypeError, ValueError) as exc:
                errors = [f"unreadable output: {exc!r}"]
            first = self.reference.setdefault(op.identity, output)
            if output != first:
                errors.append("output differs from an earlier run of the same operation")
        if errors:
            self.failures.append((op.kind, "; ".join(errors)))
