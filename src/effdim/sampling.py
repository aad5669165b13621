"""Seed partitioning and streaming moment accumulation for Monte Carlo runs.

Reproducibility contract
------------------------
Every Monte Carlo routine consumes a master seed (u64) and derives one
independent generator per fixed-size block of samples:

    rng(block b of stream s) = default_rng(SeedSequence(seed, spawn_key=(s, b)))

Stream ids are fixed per operation (see STREAM_* constants), block sizes are
fixed constants, and block results are merged in block order. Consequently
results are a pure function of (seed, sample counts): independent of thread
count, and bit-identical across re-runs. The estimators apply this contract
in one place, ``oracle.seeded_blocks``, which alone calls ``block_sizes``,
``block_rng`` and ``map_blocks``.

Each block reduces to (count, mean, M2) in two passes: the mean, then the
centered sum of squares about it. Both sums run in one fixed pairwise-tree
order written in this module (see ``_tree_sum``), not in the order of numpy's
reduce kernel, which may change with its build and SIMD width. A block of n
values takes n/2 extra floats: both trees work in one half-length buffer, and
the squares enter M2's tree already added in pairs, so no n-sized array of
squares exists. Blocks combine
with the standard parallel-variance merge, again in block order, so the
single-threaded and multi-threaded paths execute the identical float sequence
on every thread count and platform.
"""

import contextlib
import ctypes
import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

# One stream id per sampling role; never reuse across roles.
STREAM_CHANNEL_MI = 1
STREAM_GAUSSIAN_KL = 2
STREAM_MIXTURE_OUTER = 3
STREAM_MIXTURE_INNER = 4
STREAM_COND_MI = 5
STREAM_DEFF_DIST = 6

# Samples per block for flat (non-nested) Monte Carlo loops.
FLAT_BLOCK = 65536

# Outer samples per block for nested mixture estimators; partitions the
# outer draws into seeded blocks.
NESTED_OUTER_BLOCK = 512

# Tile of the nested mixture kernel: NESTED_TILE_ROWS outer observations by
# NESTED_INNER_CHUNK inner components, 16 x 8192 x 8 bytes = 1 MiB of
# float64, so the tile stays in a 2 MiB L2 cache across its three passes
# (matrix product, exp, row sum). The chunk width fixes how each row sum is
# grouped, so both are constants, never derived from the machine or the
# thread count. Component order is not a constant of correctness: the nested
# pass sorts its components only because exp then runs faster.
NESTED_TILE_ROWS = 16
NESTED_INNER_CHUNK = 8192

# Pairs of squares per chunk while ``from_block`` builds M2's first tree
# level; it bounds that pass's scratch and never changes a result.
MOMENT_CHUNK = 16384


def block_rng(seed: int, stream: int, block: int) -> np.random.Generator:
    """Generator for one (stream, block) cell of the master seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream, block)))


def block_sizes(total: int, block: int) -> list[int]:
    """Split a total sample count into fixed-size blocks (last one partial)."""
    full, rem = divmod(total, block)
    sizes = [block] * full
    if rem:
        sizes.append(rem)
    return sizes


def _tree_sum(x: np.ndarray, work: np.ndarray) -> float:
    """Sum of a nonempty 1-D array in a fixed pairwise-tree order.

    Each level adds the second half onto the first, ``x[:m] + x[m:2m]`` with
    ``m = len(x) // 2``, and carries the last element when the length is odd;
    it stops at one element. Every level is an elementwise IEEE add, so the
    float sequence depends on the length alone. ``work`` holds at least
    ``(len(x) + 1) // 2`` floats and is overwritten; it may be ``x`` itself.
    """
    n = x.size
    while n > 1:
        m, odd = divmod(n, 2)
        np.add(x[:m], x[m:2 * m], out=work[:m])
        if odd:
            work[m] = x[n - 1]
        x, n = work, m + odd
    return float(x[0])


@dataclass
class MomentAccumulator:
    """Count, mean and centered sum of squares (M2) of a sample.

    Built per block by ``from_block`` and combined by ``merge``.
    """

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @classmethod
    def from_block(cls, values: np.ndarray) -> "MomentAccumulator":
        """Two-pass block reduction (mean + centered sum of squares).

        Both sums use ``_tree_sum``, so the result is fixed by the values
        alone, not by numpy's reduction order. Both work in one buffer of
        ``(n + 1) // 2`` floats, the only scratch of size n/2: M2's first
        level, ``(v[j] - mean)^2 + (v[j + m] - mean)^2`` plus the odd carry,
        is written into it chunk by chunk, so the n squares never exist at
        once. A mean or M2 that is not finite raises NumericalError here,
        where every Monte Carlo estimate is formed.
        """
        values = np.asarray(values, dtype=float).ravel()
        n = int(values.size)
        if n == 0:
            return cls()
        work = np.empty((n + 1) // 2)
        mean = _tree_sum(values, work) / n
        if not math.isfinite(mean):
            raise NumericalError(f"a Monte Carlo block of {n} values has mean {mean}")
        m, odd = divmod(n, 2)
        head = np.empty(min(m, MOMENT_CHUNK))
        for lo in range(0, m, MOMENT_CHUNK):
            hi = min(lo + MOMENT_CHUNK, m)
            first, pair = head[:hi - lo], work[lo:hi]
            np.subtract(values[m + lo:m + hi], mean, out=pair)
            pair *= pair
            np.subtract(values[lo:hi], mean, out=first)
            first *= first
            np.add(first, pair, out=pair)
        if odd:
            carry = work[m:]
            np.subtract(values[n - 1:], mean, out=carry)
            carry *= carry
        m2 = _tree_sum(work, work)
        if not math.isfinite(m2):
            raise NumericalError(f"a Monte Carlo block of {n} values has M2 {m2}")
        return cls(count=n, mean=mean, m2=m2)

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        """Chan et al. pairwise merge; self then other, in that order."""
        if other.count == 0:
            return self
        if self.count == 0:
            return other
        n = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * (other.count / n)
        m2 = self.m2 + other.m2 + delta * delta * (self.count * other.count / n)
        return MomentAccumulator(count=n, mean=mean, m2=m2)

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def std_error(self) -> float:
        if self.count < 2:
            return 0.0
        return float(np.sqrt(self.variance / self.count))


def _usable_cpus() -> int:
    """Number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """(get, set) thread-count functions of the loaded OpenBLAS, or None.

    Looked up once, on first use, among the OpenBLAS libraries mapped into
    this process (numpy's wheels bundle ``scipy_openblas``).
    """
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            put = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


_blas_lock = threading.Lock()
_blas_pools = 0
_blas_saved = None


@contextlib.contextmanager
def _one_blas_thread():
    """Hold the loaded OpenBLAS at one thread while any holder runs.

    Holders are every CLI command (``cli.main``), so that no report's bits
    depend on the BLAS thread count, and three library callers: the worker
    pools, so that workers start no BLAS threads of their own; the design
    SVD, so that ``ridge_report``'s bits do not depend on it either; and the
    nested mixture pass, whose small kernel products only lose time to BLAS
    threads.
    The count read when the first of any concurrent or nested holders starts
    is restored when the last one ends, also when one raises. Without an
    OpenBLAS setter this does nothing.
    """
    global _blas_pools, _blas_saved
    with _blas_lock:
        hooks = _openblas_threads()
        if hooks is not None and _blas_pools == 0:
            _blas_saved = hooks[0]()
            hooks[1](1)
        _blas_pools += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_pools -= 1
            if hooks is not None and _blas_pools == 0:
                hooks[1](_blas_saved)


def map_blocks(worker, n_blocks: int, n_threads: int = 1) -> list:
    """Run ``worker(block_index)`` for every block, results in block order.

    Thread count is an execution hint only: the block structure and merge
    order are fixed, so results do not depend on it. The pool has at most one
    worker per usable CPU, and while it runs the loaded OpenBLAS is set to one
    thread for the whole process (``_one_blas_thread``), so the workers' matrix
    products do not start BLAS threads of their own on top of the pool.
    """
    workers = min(n_threads, n_blocks, _usable_cpus())
    if workers <= 1:
        return [worker(b) for b in range(n_blocks)]
    with _one_blas_thread(), ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, range(n_blocks)))


def reduce_moments(parts: list[MomentAccumulator]) -> MomentAccumulator:
    """Ordered left-to-right merge of per-block accumulators."""
    total = MomentAccumulator()
    for part in parts:
        total = total.merge(part)
    return total
