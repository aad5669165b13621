"""Traced replay: timing spans around effdim's public functions, from outside.

The program itself is not instrumented. ``instrument`` replaces module and
class attributes of effdim (the names ``effdim.cli`` imports, module-level
helpers such as ``effdim.dimension.design_spectrum`` and
``effdim.linalg.cholesky_lower``, the prior samplers and the block helpers)
with wrappers that record a span per call, and restores them on exit. A
span has a name, start, end, parent (the innermost open span on the same
thread; calls made on worker threads have no parent), the operation being
replayed and a few counts read from the call's arguments or result. Spans
stay in memory until the run ends.

Per-layer metrics are derived from the spans: a ``*_s`` metric is the
median duration of one call, a ``*_calls`` metric the largest number of
calls made by one operation, and totals such as ``sampling.blocks`` or
``oracle.kernel_exps`` are summed over the replayed round, so they repeat
exactly from run to run.

Where each layer shows end to end: import, cli and reportio on
cli-closed-form; dimension on library-spectral (and regression runs);
channel, linalg and approx on library-spectral (linalg.solve_lower also on
flat-mc's channel oracle); priors, sampling and shrinkage on flat-mc and
nested-mc; the oracle kernel and nested pass on nested-mc.
"""

import contextlib
import functools
import inspect
import math
import statistics
import threading
import time
from collections import defaultdict

import numpy as np
from effdim import (approx, channel, cli, dimension, linalg, oracle, priors, sampling,
                    shrinkage)

from harness import execute
from workloads import THREAD_COUNTS, WORKLOADS, NestedMc

SUBCOMMANDS = ("location", "regression", "oracle", "shrinkage")


class Tracer:
    """In-memory span recorder; safe to use from the sampling worker threads."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None  # [index, kind] of the operation being replayed
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        record = {"id": span_id, "name": name, "parent": stack[-1] if stack else None,
                  "thread": threading.get_ident(), "op": self.op, "attrs": attrs}
        stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)


def _wrap(tracer: Tracer, fn, name: str, attrs=None):
    """``fn`` inside a span; ``attrs(arguments, result)`` adds counts to it."""
    signature = inspect.signature(fn) if attrs is not None else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name) as record:
            result = fn(*args, **kwargs)
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record["attrs"].update(attrs(bound.arguments, result))
            return result

    return wrapper


def _threads(arguments, _result):
    return {"threads": arguments["n_threads"]}


def _patch_table():
    """(owner, attribute, span name, attrs) for every traced entry point."""
    table = [
        (cli, "read_matrix_csv", "reportio.read_matrix_csv",
         lambda a, r: {"cells": int(r.size)}),
        (cli, "render_report", "reportio.render_report",
         lambda a, r: {"bytes": len(r.encode("utf-8"))}),
        (cli, "ridge_report", "dimension.ridge_report", None),
        (dimension, "ridge_report", "dimension.ridge_report", None),
        (dimension, "design_spectrum", "dimension.design_spectrum", None),
        (dimension, "spectrum_sequence_mi", "dimension.spectrum_sequence_mi",
         lambda a, r: {"terms": int(r[2])}),
        (channel, "mutual_information", "channel.mutual_information",
         lambda a, r: {"mode": a["mode"]}),
        (channel, "whitened_spectrum", "channel.whitened_spectrum", None),
        (approx, "audit_approximation", "approx.audit_approximation", None),
        (priors.InverseGammaMixture, "sample", "priors.sample",
         lambda a, r: {"prior": "student-t", "draws": int(a["size"])}),
        (priors.HalfCauchy, "sample", "priors.sample",
         lambda a, r: {"prior": "half-cauchy", "draws": int(a["size"])}),
        (sampling.MomentAccumulator, "from_block", "sampling.from_block",
         lambda a, r: {"values": r.count}),
        (cli, "estimate_channel_mi", "oracle.estimate_channel_mi",
         lambda a, r: {"threads": a["n_threads"], "samples": a["n_samples"]}),
        (oracle, "_log_mixture_marginal", "oracle.mixture_kernel",
         lambda a, r: {"exps": int(a["y"].size * a["neg_half_prec"].size)}),
        (cli, "random_deff_distribution", "shrinkage.random_deff_distribution", None),
        (cli, "expected_conditional_mi", "shrinkage.expected_conditional_mi", None),
        (cli, "chain_decomposition", "shrinkage.chain_decomposition", _threads),
    ]
    for helper in ("cholesky_lower", "solve_lower", "psd_sqrt", "validate_psd"):
        table.append((linalg, helper, f"linalg.{helper}", None))
    # names that oracle and shrinkage import from sampling or from each other
    for module in (oracle, shrinkage):
        table += [
            (module, "block_rng", "sampling.block_rng", None),
            (module, "map_blocks", "sampling.map_blocks", _threads),
            (module, "reduce_moments", "sampling.reduce_moments", None),
            (module, "_nested_mixture_pass", "oracle.nested_pass", _threads),
        ]
    return table


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap effdim's entry points in spans for the duration of the block."""
    saved = []
    try:
        for owner, attribute, name, attrs in _patch_table():
            original = vars(owner)[attribute]
            wrapper = _wrap(tracer, getattr(owner, attribute), name, attrs)
            saved.append((owner, attribute, original))
            setattr(owner, attribute,
                    staticmethod(wrapper) if isinstance(original, classmethod) else wrapper)
        build_parser = cli.build_parser

        @functools.wraps(build_parser)
        def traced_build_parser():
            with tracer.span("cli.parse"):
                parser = build_parser()
            parser.parse_args = _wrap(tracer, parser.parse_args, "cli.parse")
            return parser

        saved.append((cli, "build_parser", build_parser))
        cli.build_parser = traced_build_parser
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def _duration(span) -> float:
    return span["end"] - span["start"]


def derive(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics from one replay's spans (only those the spans support)."""
    by_name = defaultdict(list)
    children = defaultdict(float)
    for span in spans:
        by_name[span["name"]].append(span)
        if span["parent"] is not None:
            children[span["parent"]] += _duration(span)
    metrics = {}

    def put(key, value):
        if value is not None:
            metrics[key] = float(value)

    def median(name, where=lambda s: True, scale=1.0):
        values = [_duration(s) for s in by_name[name] if where(s)]
        return scale * statistics.median(values) if values else None

    def rate(name, attr, where=lambda s: True):
        """Summed ``attr`` per second of summed span time."""
        chosen = [s for s in by_name[name] if where(s)]
        if not chosen:
            return None
        return sum(s["attrs"][attr] for s in chosen) / sum(map(_duration, chosen))

    def ns_per(name, attr, where=lambda s: True):
        value = rate(name, attr, where)
        return None if value is None else 1e9 / value

    def calls_per_op(name):
        counts = defaultdict(int)
        for span in by_name[name]:
            counts[tuple(span["op"])] += 1
        return max(counts.values()) if counts else None

    def total(name, attr=None):
        chosen = by_name[name]
        if not chosen:
            return None
        return len(chosen) if attr is None else sum(s["attrs"][attr] for s in chosen)

    def threads(n):
        return lambda s: s["attrs"].get("threads") == n

    # cli: parse = build_parser + parse_args per main call; self = main - children
    mains = by_name["cli.main"]
    if mains:
        parse = defaultdict(float)
        for span in by_name["cli.parse"]:
            parse[tuple(span["op"])] += _duration(span)
        put("cli.parse_s", statistics.median(parse.values()))
    for sub in SUBCOMMANDS:
        selves = [_duration(s) - children[s["id"]] for s in mains
                  if s["attrs"]["subcommand"] == sub]
        put(f"cli.self_s.{sub}", statistics.median(selves) if selves else None)

    put("reportio.read_matrix_csv_s", median("reportio.read_matrix_csv"))
    put("reportio.csv_cells_per_s", rate("reportio.read_matrix_csv", "cells"))
    put("reportio.render_report_s", median("reportio.render_report"))
    put("reportio.report_bytes", total("reportio.render_report", "bytes"))

    put("dimension.design_spectrum_calls", calls_per_op("dimension.design_spectrum"))
    put("dimension.design_spectrum_s", median("dimension.design_spectrum"))
    put("dimension.ridge_report_s", median("dimension.ridge_report"))
    sequences = by_name["dimension.spectrum_sequence_mi"]
    if sequences:
        put("dimension.spectrum_sequence_terms", sequences[-1]["attrs"]["terms"])
    put("dimension.spectrum_sequence_mi_s", median("dimension.spectrum_sequence_mi"))
    put("dimension.spectral_sum_ns_per_term", ns_per("dimension.spectrum_sequence_mi", "terms"))

    for mode in ("spectral", "observation", "parameter"):
        put(f"channel.mutual_information_s.{mode}",
            median("channel.mutual_information", lambda s, m=mode: s["attrs"]["mode"] == m))
    put("channel.whitened_spectrum_s", median("channel.whitened_spectrum"))

    put("linalg.cholesky_lower_calls", calls_per_op("linalg.cholesky_lower"))
    for helper in ("cholesky_lower", "solve_lower", "psd_sqrt", "validate_psd"):
        put(f"linalg.{helper}_s", median(f"linalg.{helper}"))

    put("approx.audit_approximation_s", median("approx.audit_approximation"))

    for prior in ("student-t", "half-cauchy"):
        put(f"priors.sample_ns_per_draw.{prior}",
            ns_per("priors.sample", "draws", lambda s, p=prior: s["attrs"]["prior"] == p))

    put("sampling.blocks", total("sampling.block_rng"))
    put("sampling.block_rng_us", median("sampling.block_rng", scale=1e6))
    put("sampling.from_block_ns_per_value", ns_per("sampling.from_block", "values"))
    put("sampling.reduce_moments_s", median("sampling.reduce_moments"))
    for n in THREAD_COUNTS:
        put(f"sampling.map_blocks_s.t{n}", median("sampling.map_blocks", threads(n)))
        put(f"oracle.channel_mi_samples_per_s.t{n}",
            rate("oracle.estimate_channel_mi", "samples", threads(n)))
        put(f"oracle.nested_pass_s.t{n}", median("oracle.nested_pass", threads(n)))
        put(f"shrinkage.chain_decomposition_s.t{n}",
            median("shrinkage.chain_decomposition", threads(n)))
    put("oracle.kernel_exps", total("oracle.mixture_kernel", "exps"))

    put("shrinkage.random_deff_distribution_s", median("shrinkage.random_deff_distribution"))
    put("shrinkage.expected_conditional_mi_s", median("shrinkage.expected_conditional_mi"))
    return metrics


def replay(ops, checker, tracer: Tracer | None = None, label: str = "") -> float:
    """Run one round in this process; returns the summed operation time."""
    total = 0.0
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = [label, index, op.kind]
        output, elapsed, _, errors = execute(op, tracer=tracer)
        total += elapsed
        checker.record(op, output, errors)
    return total


IMPORT_PROBES = {"import.numpy_s": "numpy", "import.scipy_linalg_s": "scipy.linalg",
                 "import.effdim_s": "effdim"}
IMPORT_REPEATS = 3
KERNEL_REPEATS = 5


def import_probes(runner) -> dict[str, float]:
    """Median time of ``import <module>`` in a fresh interpreter, per module."""
    code = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"
    metrics = {}
    for key, module in IMPORT_PROBES.items():
        times = []
        for _ in range(IMPORT_REPEATS):
            status, out, err, _, _ = runner.run(["-c", code.format(module)])
            if status != 0:
                raise RuntimeError(f"import {module} failed: {err.strip()[-400:]}")
            times.append(float(out))
        metrics[key] = statistics.median(times)
    return metrics


def kernel_probe(seed: int, inner: int) -> float:
    """ns per outer x inner pair of ``oracle._log_mixture_marginal`` on one tile.

    The tile is what the nested-mc mixture-MI run feeds the kernel: one block
    of NESTED_OUTER_BLOCK outer observations against ``inner`` Student-t
    mixture components drawn from the seed's inner stream.
    """
    model = priors.ScalarShrinkageModel(prior=priors.InverseGammaMixture(dof=3.0), n=100)
    lam = np.concatenate([
        model.prior.sample(sampling.block_rng(seed, sampling.STREAM_MIXTURE_INNER, b), size)
        for b, size in enumerate(sampling.block_sizes(inner, sampling.FLAT_BLOCK))])
    mix_var = lam * lam + model.obs_var
    rng = sampling.block_rng(seed, sampling.STREAM_MIXTURE_OUTER, 0)
    outer = model.prior.sample(rng, sampling.NESTED_OUTER_BLOCK)
    y = outer * rng.standard_normal(outer.size) + math.sqrt(model.obs_var) * rng.standard_normal(
        outer.size)
    args = (y, -0.5 / mix_var, -0.5 * np.log(2.0 * math.pi * mix_var))
    times = []
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        oracle._log_mixture_marginal(*args)
        times.append(time.perf_counter() - start)
    return 1e9 * statistics.median(times) / (y.size * mix_var.size)


def traced_run(workload, runner, checker, workdir):
    """Per-layer metrics of one traced round of ``workload`` (already set up).

    The round is replayed in this process three times: untraced, traced and
    untraced again; the traced time minus the mean of the two untraced ones
    is the tracing overhead. Layers this workload does not reach are covered
    by a traced round of each other workload at tiny size.
    Returns (metrics, spans, names of the metrics taken from those rounds).
    """
    ops = workload.round()
    before = replay(ops, checker)
    tracer = Tracer()
    with instrument(tracer):
        traced = replay(ops, checker, tracer, workload.name)
    after = replay(ops, checker)
    cover = Tracer()
    for name, cls in WORKLOADS.items():
        if name == workload.name:
            continue
        other = cls(workload.seed, tiny=True)
        other_dir = workdir / f"cover-{name}"
        other_dir.mkdir()
        other.setup(other_dir)
        other.prepare()
        with instrument(cover):
            replay(other.round(), checker, cover, name)
    own = derive(tracer.spans)
    metrics = {**derive(cover.spans), **own}
    covered = sorted(set(metrics) - set(own))
    metrics.update(import_probes(runner))
    metrics["oracle.mixture_kernel_ns_per_pair"] = kernel_probe(
        workload.seed, NestedMc(workload.seed, workload.tiny).size)
    # computed from the block constants, not measured
    metrics["oracle.kernel_tile_bytes"] = float(
        sampling.NESTED_OUTER_BLOCK * sampling.NESTED_INNER_CHUNK * 8)
    metrics["trace.overhead_s"] = traced - 0.5 * (before + after)
    return metrics, tracer.spans + cover.spans, covered
