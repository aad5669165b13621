"""Seed partitioning and streaming moments."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effdim import linalg, sampling
from effdim.errors import NumericalError
from effdim.sampling import (
    FLAT_BLOCK,
    MOMENT_CHUNK,
    MomentAccumulator,
    _strip_tree_sum,
    _tree_sum,
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
        hooks = linalg._openblas_threads()
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
    def test_merge_with_empty_right_side_is_identity(self):
        acc = MomentAccumulator.from_block(np.array([1.0, 2.0, 4.0]))
        assert acc.merge(MomentAccumulator()) is acc

    @pytest.mark.parametrize("values", [[], [3.0]], ids=["empty", "one"])
    def test_variance_below_two_values_is_zero(self, values):
        acc = MomentAccumulator.from_block(np.array(values))
        assert acc.variance == 0.0 and acc.std_error == 0.0

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

    @pytest.mark.parametrize("values, message", [
        ([1.0, np.inf], "mean inf"),
        ([1.0, np.nan, 2.0], "mean nan"),
    ], ids=["inf", "nan"])
    def test_non_finite_mean_is_numerical_error(self, values, message):
        with pytest.raises(NumericalError, match=f"block of {len(values)} values has {message}"):
            MomentAccumulator.from_block(np.array(values))

    def test_overflowing_m2_is_numerical_error(self):
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(NumericalError, match="block of 2 values has M2 inf"):
                MomentAccumulator.from_block(np.array([1e200, -1e200]))

    def test_degenerate_counts(self):
        assert MomentAccumulator().std_error == 0.0
        one = MomentAccumulator.from_block(np.array([3.0]))
        assert one.count == 1 and one.mean == 3.0 and one.std_error == 0.0


def two_pass_from_block(values) -> MomentAccumulator:
    """The earlier body of ``from_block``, kept verbatim as its reference.

    It squares all n deviations into one array before M2's tree; the current
    one builds both trees from strips of the block (``_strip_tree_sum``).
    """
    values = np.asarray(values, dtype=float).ravel()
    n = int(values.size)
    if n == 0:
        return MomentAccumulator()
    mean = _tree_sum(values, np.empty((n + 1) // 2)) / n
    if not math.isfinite(mean):
        raise NumericalError(f"a Monte Carlo block of {n} values has mean {mean}")
    squares = values - mean
    squares *= squares
    m2 = _tree_sum(squares, squares)
    if not math.isfinite(m2):
        raise NumericalError(f"a Monte Carlo block of {n} values has M2 {m2}")
    return MomentAccumulator(count=n, mean=mean, m2=m2)


def outcome(reduce, values) -> tuple:
    """(count, mean, M2) in hex, or the NumericalError's message."""
    with np.errstate(all="ignore"):
        try:
            acc = reduce(values)
        except NumericalError as exc:
            return ("NumericalError", str(exc))
    return (acc.count, acc.mean.hex(), acc.m2.hex())


class TestTwoPassReference:
    """``from_block`` equals the two-pass reference bit for bit, in strip-sized scratch."""

    @pytest.mark.parametrize("n", [
        1, 2, 3, MOMENT_CHUNK - 1, MOMENT_CHUNK, MOMENT_CHUNK + 1, 2 * MOMENT_CHUNK - 1,
        2 * MOMENT_CHUNK, 2 * MOMENT_CHUNK + 1, 1_000_003,
    ])
    def test_sizes_around_the_chunk(self, n):
        rng = np.random.default_rng(n)
        wide = rng.standard_normal(n) * 10.0 ** rng.uniform(-60.0, 60.0, n)
        for values in (rng.standard_normal(n) + 1e3, wide, np.abs(wide)):
            got = outcome(MomentAccumulator.from_block, values)
            assert got == outcome(two_pass_from_block, values)
            assert got[0] == n

    def test_overflowing_m2_gives_the_same_error(self):
        values = np.array([1e200, -1e200, 3.0])
        got = outcome(MomentAccumulator.from_block, values)
        assert got == outcome(two_pass_from_block, values)
        assert got == ("NumericalError", "a Monte Carlo block of 3 values has M2 inf")

    @settings(derandomize=True, database=None, max_examples=400, deadline=None)
    @given(values=st.lists(st.one_of(
        st.floats(width=64),
        st.floats(min_value=-1e3, max_value=1e3),
        st.floats(min_value=-1e-300, max_value=1e-300),
        st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    ), min_size=1, max_size=40), chunk=st.integers(1, 8))
    def test_fuzzed_blocks_match_the_reference(self, values, chunk):
        # a small chunk splits even short blocks into several chunks
        with mock.patch.object(sampling, "MOMENT_CHUNK", chunk):
            got = outcome(MomentAccumulator.from_block, values)
        assert got == outcome(two_pass_from_block, values)

    def test_scratch_stays_under_two_thirds_of_the_block(self):
        values = np.random.default_rng(8).standard_normal(2_000_000)
        tracemalloc.start()
        try:
            MomentAccumulator.from_block(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the two-pass reference peaks at 1.00x
        assert peak <= 0.65 * values.nbytes


def value_families(n: int):
    """The three families of n values of ``test_sizes_around_the_chunk``, made one at a time."""
    rng = np.random.default_rng(n)
    wide = rng.standard_normal(n) * 10.0 ** rng.uniform(-60.0, 60.0, n)
    yield rng.standard_normal(n) + 1e3
    yield wide
    yield np.abs(wide)


class TestDepthFirstTree:
    """The depth-first tree of ``from_block`` against the in-place ``_tree_sum``."""

    @pytest.mark.parametrize("chunk", [1, 3])
    def test_every_short_length_at_narrow_strips(self, chunk):
        rng = np.random.default_rng(chunk)
        with mock.patch.object(sampling, "MOMENT_CHUNK", chunk):
            for n in range(1, 301):
                values = rng.standard_normal(n) * 10.0 ** rng.uniform(-20.0, 20.0, n)
                got = _strip_tree_sum(lambda a, b: values[a:b], n)
                assert got.hex() == _tree_sum(values, np.empty(n)).hex(), n

    @pytest.mark.parametrize("n", [
        *(MOMENT_CHUNK * 2**k + d for k in range(4) for d in (-1, 1)),
        3 * MOMENT_CHUNK + 1,
        10_000_019,
    ])
    def test_strip_levels_and_odd_carries(self, n):
        for values in value_families(n):
            got = outcome(MomentAccumulator.from_block, values)
            assert got == outcome(two_pass_from_block, values)
            assert got[0] == n

    @pytest.mark.parametrize("n", [2_000_000, 8_000_000])
    def test_scratch_does_not_grow_with_the_block(self, n):
        values = np.random.default_rng(9).standard_normal(n)
        tracemalloc.start()
        try:
            MomentAccumulator.from_block(values)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a few strips of MOMENT_CHUNK floats per tree level, not a share of n
        assert peak < 4 * 2**20
