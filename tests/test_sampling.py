"""Seed partitioning and streaming moments."""

import numpy as np
import pytest

from effdim import sampling
from effdim.sampling import (
    FLAT_BLOCK,
    MomentAccumulator,
    block_rng,
    block_sizes,
    map_blocks,
    reduce_moments,
)


class TestBlockStructure:
    def test_block_sizes_partition(self):
        assert block_sizes(10, 4) == [4, 4, 2]
        assert block_sizes(8, 4) == [4, 4]
        assert block_sizes(3, 4) == [3]

    def test_block_rng_is_deterministic(self):
        a = block_rng(42, 1, 0).standard_normal(4)
        b = block_rng(42, 1, 0).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    def test_streams_and_blocks_differ(self):
        base = block_rng(42, 1, 0).standard_normal(4)
        other_stream = block_rng(42, 2, 0).standard_normal(4)
        other_block = block_rng(42, 1, 1).standard_normal(4)
        assert not np.array_equal(base, other_stream)
        assert not np.array_equal(base, other_block)

    def test_map_blocks_threading_preserves_order_and_values(self):
        def worker(b):
            return block_rng(7, 3, b).standard_normal(5)

        serial = map_blocks(worker, 16, n_threads=1)
        threaded = map_blocks(worker, 16, n_threads=8)
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a, b)


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, runs in this thread."""

    requested = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestPool:
    def test_workers_clamped_to_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(_RecordingPool, "requested", [])
        monkeypatch.setattr(sampling, "ThreadPoolExecutor", _RecordingPool)
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 3)
        assert map_blocks(lambda b: b, 64, n_threads=10**6) == list(range(64))
        assert _RecordingPool.requested == [3]

    def test_one_usable_cpu_runs_without_a_pool(self, monkeypatch):
        monkeypatch.setattr(_RecordingPool, "requested", [])
        monkeypatch.setattr(sampling, "ThreadPoolExecutor", _RecordingPool)
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 1)
        assert map_blocks(lambda b: b, 4, n_threads=8) == [0, 1, 2, 3]
        assert _RecordingPool.requested == []

    @pytest.fixture()
    def blas(self, monkeypatch):
        """OpenBLAS (get, set) hooks, with its count at 2 so that 1 is a change."""
        hooks = sampling._openblas_threads()
        if hooks is None:
            pytest.skip("no OpenBLAS thread-count setter in this process")
        get, put = hooks
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 2)
        original = get()
        put(2)
        yield get
        put(original)

    def test_blas_single_threaded_inside_workers_and_restored(self, blas):
        before = blas()
        assert map_blocks(lambda b: blas(), 4, n_threads=2) == [1] * 4
        assert blas() == before

    def test_blas_restored_when_a_worker_raises(self, blas):
        before = blas()

        def worker(b):
            if b == 2:
                raise RuntimeError("block 2 failed")
            return blas()

        with pytest.raises(RuntimeError, match="block 2 failed"):
            map_blocks(worker, 4, n_threads=2)
        assert blas() == before

    def test_nested_pools_restore_the_original_count(self, blas):
        before = blas()

        def outer(b):
            return map_blocks(lambda c: blas(), 2, n_threads=2) + [blas()]

        assert map_blocks(outer, 2, n_threads=2) == [[1, 1, 1]] * 2
        assert blas() == before


def tree_sum_reference(xs: list[float]) -> float:
    """The documented block summation order, in plain Python floats.

    Each level adds the second half onto the first, carries the last element
    of an odd length, and stops at one element.
    """
    while len(xs) > 1:
        m = len(xs) // 2
        level = [xs[i] + xs[m + i] for i in range(m)]
        if len(xs) % 2:
            level.append(xs[-1])
        xs = level
    return xs[0]


def from_block_reference(values) -> tuple[int, float, float]:
    xs = [float(v) for v in values]
    if not xs:
        return 0, 0.0, 0.0
    mean = tree_sum_reference(xs) / len(xs)
    m2 = tree_sum_reference([(x - mean) * (x - mean) for x in xs])
    return len(xs), mean, m2


def _cancelling_values() -> np.ndarray:
    rng = np.random.default_rng(11)
    big = rng.standard_normal(500) * 1e16
    small = rng.standard_normal(501)
    values = np.concatenate([big, small, -big[::-1]])
    rng.shuffle(values)
    return values


class TestMomentAccumulator:
    def test_streaming_matches_two_pass(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(10_000) * 3.0 + 1.0
        acc = MomentAccumulator.from_block(values)
        assert acc.count == values.size
        np.testing.assert_allclose(acc.mean, values.mean(), rtol=1e-12)
        two_pass_se = values.std(ddof=1) / np.sqrt(values.size)
        np.testing.assert_allclose(acc.std_error, two_pass_se, rtol=1e-12)

    def test_blockwise_merge_matches_two_pass(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal(100_000) + 0.25
        parts = [
            MomentAccumulator.from_block(chunk)
            for chunk in np.array_split(values, 13)
        ]
        acc = reduce_moments(parts)
        assert acc.count == values.size
        np.testing.assert_allclose(acc.mean, values.mean(), rtol=1e-12)
        two_pass_se = values.std(ddof=1) / np.sqrt(values.size)
        np.testing.assert_allclose(acc.std_error, two_pass_se, rtol=1e-12)

    @pytest.mark.parametrize(
        "values",
        [
            np.array([]),
            np.array([3.0]),
            np.array([1.0, 2.0]),
            np.array([0.1, 0.2, 0.3]),
            np.random.default_rng(5).standard_normal(1001) + 7.0,
            np.random.default_rng(6).standard_cauchy(20_000),
            np.random.default_rng(7).exponential(size=FLAT_BLOCK),
            _cancelling_values(),
        ],
        ids=["n0", "n1", "n2", "n3", "odd1001", "n20000", "flat-block", "cancelling"],
    )
    def test_from_block_follows_documented_tree_order(self, values):
        acc = MomentAccumulator.from_block(values)
        count, mean, m2 = from_block_reference(values)
        assert acc.count == count
        # bit-for-bit: the order is part of the contract, not a tolerance
        assert acc.mean.hex() == mean.hex()
        assert acc.m2.hex() == m2.hex()

    def test_degenerate_counts(self):
        assert MomentAccumulator().std_error == 0.0
        one = MomentAccumulator.from_block(np.array([3.0]))
        assert one.count == 1 and one.mean == 3.0 and one.std_error == 0.0
