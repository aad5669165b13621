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
reduce kernel, which may change with its build and SIMD width. The tree is
built depth first (see ``_tree_level``), so a block of n values takes
O(MOMENT_CHUNK * log2(n / MOMENT_CHUNK)) floats of scratch, never a share of
n. Blocks combine with the standard parallel-variance merge, again in block
order, so the single-threaded and multi-threaded paths execute the identical
float sequence on every thread count and platform.

The BLAS thread rule is ``linalg``'s (``linalg._one_blas_thread``), next to
the LAPACK calls it governs; ``map_blocks`` is one of its holders, with the
CLI's commands, the design SVD and the nested mixture pass, so that code
which samples nothing takes the hold without loading this module.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .linalg import _one_blas_thread

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

# Widest strip of the depth-first moment tree (``_strip_tree_sum``); it bounds
# the block reduction's scratch and never changes a result.
MOMENT_CHUNK = 16384


def block_rng(seed: int, stream: int, block: int) -> "np.random.Generator":
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


def _tree_level(leaf, sizes: list[int], k: int, a: int, b: int) -> np.ndarray:
    """Entries [a, b) of level k of ``_tree_sum``'s tree, evaluated depth first.

    Level 0 is ``leaf(a, b)``; level k has ``sizes[k]`` entries. The adds are
    ``_tree_sum``'s, operand for operand, but only the ranges on the current
    path exist, each of at most ``b - a`` floats. It may return a leaf's array.
    """
    if k == 0:
        return leaf(a, b)
    n = sizes[k - 1]
    m = n // 2
    p = min(b, m)
    if a == p:  # only the odd carry: level k - 1's last entry
        return _tree_level(leaf, sizes, k - 1, n - 1, n)
    pairs = np.add(_tree_level(leaf, sizes, k - 1, a, p),
                   _tree_level(leaf, sizes, k - 1, a + m, p + m))
    if p == b:
        return pairs
    return np.append(pairs, _tree_level(leaf, sizes, k - 1, n - 1, n))


def _strip_tree_sum(leaf, n: int) -> float:
    """``_tree_sum`` of ``leaf(0, n)``, bit for bit, from strips of the leaf.

    Levels are built depth first up to the first of at most ``MOMENT_CHUNK``
    entries, which ``_tree_sum`` finishes.
    """
    sizes = [n]
    while sizes[-1] > MOMENT_CHUNK:
        sizes.append((sizes[-1] + 1) // 2)
    top = _tree_level(leaf, sizes, len(sizes) - 1, 0, sizes[-1])
    return _tree_sum(top, np.empty((top.size + 1) // 2))


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

        Both sums follow ``_tree_sum``'s order, so the result is fixed by the
        values alone, not by numpy's reduction order. ``_strip_tree_sum``
        builds both trees from strips of the block, ``values[a:b]`` for the
        mean and ``(values[a:b] - mean)^2`` for M2, so the scratch is a few
        strips of at most ``MOMENT_CHUNK`` floats per tree level, whatever n
        is. A mean or M2 that is not finite raises NumericalError here, where
        every Monte Carlo estimate is formed.
        """
        values = np.asarray(values, dtype=float).ravel()
        n = int(values.size)
        if n == 0:
            return cls()
        mean = _strip_tree_sum(lambda a, b: values[a:b], n) / n
        if not math.isfinite(mean):
            raise NumericalError(f"a Monte Carlo block of {n} values has mean {mean}")

        def squares(a, b):
            deviation = values[a:b] - mean
            return np.multiply(deviation, deviation, out=deviation)

        m2 = _strip_tree_sum(squares, n)
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


def map_blocks(worker, n_blocks: int, n_threads: int = 1) -> list:
    """Run ``worker(block_index)`` for every block, results in block order.

    Thread count is an execution hint only: the block structure and merge
    order are fixed, so results do not depend on it. The pool has at most one
    worker per usable CPU, and while it runs the loaded OpenBLAS is set to one
    thread for the whole process (``linalg._one_blas_thread``), so the
    workers' matrix products do not start BLAS threads of their own on top of
    the pool.
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
