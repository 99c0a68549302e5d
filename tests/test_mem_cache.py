"""Unit and property tests for the LLC simulators.

The key property: the vectorised DirectMappedCache must agree exactly with a
naive per-access reference simulation, because the profiler's sample stream
is derived from its miss mask.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, TraceError
from repro.mem import cache as cache_module
from repro.mem.cache import (
    GAP_COLD,
    LINE_SIZE,
    VERIFY_REUSE_ENV,
    DirectMappedCache,
    SetAssociativeCache,
    WorkingSetCache,
    _argsort_reuse_gaps,
    dense_table_span,
    reuse_time_gaps,
)
from repro.mem.cachejit import (
    JIT_ENV,
    jit_enabled,
    lru_kernel,
    lru_runs_py,
    reuse_gap_kernel,
    reuse_gaps_py,
)
from repro.obs.metrics import process_metrics


def reference_direct_mapped(addrs, size_bytes, line_size=LINE_SIZE):
    """Naive per-access direct-mapped simulation."""
    n_sets = size_bytes // line_size
    resident = {}
    hits = []
    for addr in addrs:
        line = int(addr) // line_size
        s = line % n_sets
        hits.append(resident.get(s) == line)
        resident[s] = line
    return np.array(hits, dtype=bool)


class TestDirectMappedCache:
    def test_repeat_access_hits(self):
        cache = DirectMappedCache(1024)
        hits = cache.access(np.array([0, 0, 0]))
        assert hits.tolist() == [False, True, True]

    def test_same_line_different_offsets_hit(self):
        cache = DirectMappedCache(1024)
        hits = cache.access(np.array([0, 8, 63]))
        assert hits.tolist() == [False, True, True]

    def test_conflict_eviction(self):
        cache = DirectMappedCache(1024)  # 16 sets
        a, b = 0, 16 * LINE_SIZE  # same set, different lines
        hits = cache.access(np.array([a, b, a]))
        assert hits.tolist() == [False, False, False]

    def test_distinct_sets_no_conflict(self):
        cache = DirectMappedCache(1024)
        hits = cache.access(np.array([0, LINE_SIZE, 0, LINE_SIZE]))
        assert hits.tolist() == [False, False, True, True]

    def test_state_persists_across_calls(self):
        cache = DirectMappedCache(1024)
        cache.access(np.array([0]))
        hits = cache.access(np.array([0]))
        assert hits.tolist() == [True]

    def test_reset_clears_state(self):
        cache = DirectMappedCache(1024)
        cache.access(np.array([0]))
        cache.reset()
        assert cache.access(np.array([0])).tolist() == [False]

    def test_empty_stream(self):
        cache = DirectMappedCache(1024)
        assert cache.access(np.empty(0, dtype=np.int64)).size == 0

    def test_sequential_scan_miss_rate(self):
        # An 8-byte-stride scan misses once per 64 B line.
        cache = DirectMappedCache(1 << 16)
        addrs = np.arange(0, 8 * 1024, 8, dtype=np.int64)
        hits = cache.access(addrs)
        n_lines = 8 * 1024 // LINE_SIZE
        assert int(np.count_nonzero(~hits)) == n_lines

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            DirectMappedCache(1000)
        with pytest.raises(ConfigurationError):
            DirectMappedCache(1024, line_size=48)
        with pytest.raises(ConfigurationError):
            DirectMappedCache(3 * LINE_SIZE)

    @given(
        addrs=st.lists(st.integers(0, 1 << 14), min_size=1, max_size=300),
        size_kb=st.sampled_from([1, 4, 16]),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, addrs, size_kb):
        arr = np.array(addrs, dtype=np.int64)
        cache = DirectMappedCache(size_kb * 1024)
        assert cache.access(arr).tolist() == reference_direct_mapped(
            arr, size_kb * 1024
        ).tolist()

    @given(addrs=st.lists(st.integers(0, 1 << 14), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_split_stream_equals_whole_stream(self, addrs):
        arr = np.array(addrs, dtype=np.int64)
        whole = DirectMappedCache(2048)
        split = DirectMappedCache(2048)
        expect = whole.access(arr)
        mid = len(arr) // 2
        got = np.concatenate([split.access(arr[:mid]), split.access(arr[mid:])])
        assert expect.tolist() == got.tolist()


class TestSetAssociativeCache:
    def test_lru_within_set(self):
        # 2-way, 1 set: the third distinct line evicts the least recent.
        cache = SetAssociativeCache(2 * LINE_SIZE, ways=2)
        a, b, c = 0, LINE_SIZE, 2 * LINE_SIZE
        hits = cache.access(np.array([a, b, a, c, b, a]))
        # a miss, b miss, a hit, c miss (evicts b), b miss (evicts a), a miss
        assert hits.tolist() == [False, False, True, False, False, False]

    def test_fully_associative_behaviour(self):
        cache = SetAssociativeCache(4 * LINE_SIZE, ways=4)
        addrs = np.array([0, LINE_SIZE, 2 * LINE_SIZE, 3 * LINE_SIZE, 0])
        assert cache.access(addrs).tolist() == [False] * 4 + [True]

    def test_one_way_equals_direct_mapped(self):
        rng = np.random.default_rng(7)
        addrs = rng.integers(0, 1 << 13, size=500)
        dm = DirectMappedCache(2048)
        sa = SetAssociativeCache(2048, ways=1)
        assert dm.access(addrs).tolist() == sa.access(addrs).tolist()

    def test_higher_associativity_reduces_conflicts(self):
        # Two lines aliasing in a direct-mapped cache coexist in a 2-way one.
        size = 1024
        n_sets = size // LINE_SIZE
        a, b = 0, n_sets * LINE_SIZE
        stream = np.array([a, b] * 10)
        dm_misses = int(np.count_nonzero(~DirectMappedCache(size).access(stream)))
        sa_misses = int(
            np.count_nonzero(~SetAssociativeCache(size, ways=2).access(stream))
        )
        assert sa_misses < dm_misses

    def test_bad_ways_rejected(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(1024, ways=3)
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(1024, ways=0)

    def test_reset(self):
        cache = SetAssociativeCache(1024, ways=2)
        cache.access(np.array([0]))
        cache.reset()
        assert cache.access(np.array([0])).tolist() == [False]

    @given(
        addrs=st.lists(st.integers(0, 1 << 14), min_size=1, max_size=300),
        ways=st.sampled_from([1, 2, 4]),
        size_kb=st.sampled_from([1, 4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_grouped_access_matches_reference(self, addrs, ways, size_kb):
        arr = np.array(addrs, dtype=np.int64)
        fast = SetAssociativeCache(size_kb * 1024, ways=ways)
        slow = SetAssociativeCache(size_kb * 1024, ways=ways)
        assert fast.access(arr).tolist() == slow.access_reference(arr).tolist()

    @given(addrs=st.lists(st.integers(0, 1 << 14), min_size=2, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_grouped_access_state_continuity(self, addrs):
        # Splitting the stream across calls must not change anything: the
        # grouped path has to carry each set's LRU list between calls
        # exactly like the reference loop does.
        arr = np.array(addrs, dtype=np.int64)
        fast = SetAssociativeCache(2048, ways=2)
        slow = SetAssociativeCache(2048, ways=2)
        mid = len(arr) // 2
        got = np.concatenate([fast.access(arr[:mid]), fast.access(arr[mid:])])
        expect = np.concatenate(
            [slow.access_reference(arr[:mid]), slow.access_reference(arr[mid:])]
        )
        assert got.tolist() == expect.tolist()

    def test_random_long_stream_parity(self):
        rng = np.random.default_rng(42)
        addrs = rng.integers(0, 1 << 16, size=5000)
        fast = SetAssociativeCache(4096, ways=4)
        slow = SetAssociativeCache(4096, ways=4)
        assert fast.access(addrs).tolist() == slow.access_reference(addrs).tolist()


class TestJitKernel:
    """The kernel replay must be bit-identical to the list buckets.

    numba is optional (and absent here), so the kernel logic is driven
    through its pure-Python body by forcing :func:`lru_kernel` to return
    :func:`lru_runs_py` — the exact function numba would have compiled.
    """

    @pytest.fixture()
    def forced_kernel(self, monkeypatch):
        monkeypatch.setattr(cache_module, "lru_kernel", lambda: lru_runs_py)

    @pytest.mark.parametrize("value", ["0", "off", "false", "no", " OFF "])
    def test_env_disables_jit(self, monkeypatch, value):
        monkeypatch.setenv(JIT_ENV, value)
        assert not jit_enabled()
        assert lru_kernel() is None

    def test_env_default_allows_jit(self, monkeypatch):
        monkeypatch.delenv(JIT_ENV, raising=False)
        assert jit_enabled()
        monkeypatch.setenv(JIT_ENV, "1")
        assert jit_enabled()
        # numba is not installed in this environment: the resolver must
        # degrade to the interpreter fallback, never raise.
        assert lru_kernel() is None or callable(lru_kernel())

    def test_lru_within_set_via_kernel(self, forced_kernel):
        cache = SetAssociativeCache(2 * LINE_SIZE, ways=2)
        a, b, c = 0, LINE_SIZE, 2 * LINE_SIZE
        hits = cache.access(np.array([a, b, a, c, b, a]))
        assert hits.tolist() == [False, False, True, False, False, False]

    @given(
        addrs=st.lists(st.integers(0, 1 << 14), min_size=1, max_size=300),
        ways=st.sampled_from([1, 2, 4]),
        size_kb=st.sampled_from([1, 4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_kernel_matches_reference(self, addrs, ways, size_kb):
        arr = np.array(addrs, dtype=np.int64)
        fast = SetAssociativeCache(size_kb * 1024, ways=ways)
        slow = SetAssociativeCache(size_kb * 1024, ways=ways)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cache_module, "lru_kernel", lambda: lru_runs_py)
            got = fast.access(arr)
        assert got.tolist() == slow.access_reference(arr).tolist()

    @given(addrs=st.lists(st.integers(0, 1 << 14), min_size=2, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_kernel_state_continuity(self, addrs):
        arr = np.array(addrs, dtype=np.int64)
        fast = SetAssociativeCache(2048, ways=2)
        slow = SetAssociativeCache(2048, ways=2)
        mid = len(arr) // 2
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cache_module, "lru_kernel", lambda: lru_runs_py)
            got = np.concatenate(
                [fast.access(arr[:mid]), fast.access(arr[mid:])]
            )
        expect = np.concatenate(
            [slow.access_reference(arr[:mid]), slow.access_reference(arr[mid:])]
        )
        assert got.tolist() == expect.tolist()

    def test_state_carries_between_kernel_and_fallback(self, monkeypatch):
        # Python lists stay the canonical state: a stream split across a
        # kernel call and a fallback call behaves like one whole stream.
        rng = np.random.default_rng(11)
        arr = rng.integers(0, 1 << 13, size=600)
        mixed = SetAssociativeCache(2048, ways=4)
        slow = SetAssociativeCache(2048, ways=4)
        monkeypatch.setattr(cache_module, "lru_kernel", lambda: lru_runs_py)
        first = mixed.access(arr[:300])
        monkeypatch.setattr(cache_module, "lru_kernel", lambda: None)
        second = mixed.access(arr[300:])
        got = np.concatenate([first, second])
        assert got.tolist() == slow.access_reference(arr).tolist()


class TestReuseGapKernel:
    """The O(N) last-seen fold must be bit-identical to the argsort fold.

    Like :class:`TestJitKernel`, numba is absent here, so the kernel
    path is driven through its pure-Python body by forcing
    :func:`reuse_gap_kernel` to return :func:`reuse_gaps_py` — the exact
    function numba would have compiled.
    """

    @pytest.fixture()
    def forced_kernel(self, monkeypatch):
        monkeypatch.setattr(
            cache_module, "reuse_gap_kernel", lambda: reuse_gaps_py
        )

    def test_kernel_resolver_degrades_without_numba(self, monkeypatch):
        monkeypatch.delenv(JIT_ENV, raising=False)
        assert reuse_gap_kernel() is None or callable(reuse_gap_kernel())
        monkeypatch.setenv(JIT_ENV, "0")
        assert reuse_gap_kernel() is None

    def test_first_touches_are_cold(self, forced_kernel):
        addrs = np.array([0, LINE_SIZE, 2 * LINE_SIZE], dtype=np.int64)
        assert reuse_time_gaps(addrs).tolist() == [GAP_COLD] * 3

    def test_repeat_gap_counts_accesses(self, forced_kernel):
        # a . . a  ->  the second touch of `a` has gap 3.
        addrs = np.array([0, 64, 128, 0], dtype=np.int64) * LINE_SIZE
        gaps = reuse_time_gaps(addrs)
        assert gaps.tolist() == [GAP_COLD, GAP_COLD, GAP_COLD, 3]

    def test_empty_and_single_access(self, forced_kernel):
        assert reuse_time_gaps(np.empty(0, dtype=np.int64)).size == 0
        single = reuse_time_gaps(np.array([4096], dtype=np.int64))
        assert single.tolist() == [GAP_COLD]

    @given(addrs=st.lists(st.integers(0, 1 << 14), min_size=0, max_size=400))
    @settings(max_examples=80, deadline=None)
    def test_kernel_matches_argsort_fold(self, addrs):
        arr = np.array(addrs, dtype=np.int64)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                cache_module, "reuse_gap_kernel", lambda: reuse_gaps_py
            )
            got = reuse_time_gaps(arr)
        assert np.array_equal(got, _argsort_reuse_gaps(arr >> 6))

    def test_sparse_stream_falls_back_to_argsort(self, monkeypatch):
        # Span >> access count: the dense table does not apply, and the
        # resolved kernel must never be invoked.
        def _explode(*args):
            raise AssertionError("kernel invoked for a sparse stream")

        monkeypatch.setattr(
            cache_module, "reuse_gap_kernel", lambda: _explode
        )
        addrs = np.array([0, 1 << 40, 0], dtype=np.int64)
        assert dense_table_span(addrs >> 6) is None
        gaps = reuse_time_gaps(addrs)
        assert gaps.tolist() == [GAP_COLD, GAP_COLD, 2]

    def test_dense_span_geometry(self):
        assert dense_table_span(np.empty(0, dtype=np.int64)) is None
        # Small spans are always dense (the 1024-slot floor).
        base, span = dense_table_span(np.array([7, 9], dtype=np.int64))
        assert (base, span) == (7, 3)

    def test_parity_oracle_passes_on_honest_kernel(
        self, forced_kernel, monkeypatch
    ):
        monkeypatch.setenv(VERIFY_REUSE_ENV, "1")
        counters = process_metrics().counters
        checks = counters.get("reuse.parity_checks", 0.0)
        failures = counters.get("reuse.parity_failures", 0.0)
        rng = np.random.default_rng(5)
        reuse_time_gaps(rng.integers(0, 1 << 16, size=2_000))
        assert counters["reuse.parity_checks"] == checks + 1
        assert counters.get("reuse.parity_failures", 0.0) == failures

    def test_parity_oracle_raises_on_divergence(self, monkeypatch):
        def _broken(lines, base, last_seen, gaps, gap_cold, start):
            reuse_gaps_py(lines, base, last_seen, gaps, gap_cold, start)
            gaps[-1] = 1  # sabotage one gap

        monkeypatch.setattr(
            cache_module, "reuse_gap_kernel", lambda: _broken
        )
        monkeypatch.setenv(VERIFY_REUSE_ENV, "1")
        counters = process_metrics().counters
        failures = counters.get("reuse.parity_failures", 0.0)
        addrs = np.array([0, LINE_SIZE, 0], dtype=np.int64)
        with pytest.raises(TraceError, match="diverged"):
            reuse_time_gaps(addrs)
        assert counters["reuse.parity_failures"] == failures + 1

    def test_verify_off_by_default(self, forced_kernel, monkeypatch):
        monkeypatch.delenv(VERIFY_REUSE_ENV, raising=False)
        counters = process_metrics().counters
        checks = counters.get("reuse.parity_checks", 0.0)
        reuse_time_gaps(np.array([0, 0], dtype=np.int64))
        assert counters.get("reuse.parity_checks", 0.0) == checks


def _line_streams(top):
    """Address streams over a few distinct addresses in ``[0, top]``.

    Both ends are always in the pool, so any stream that touches them
    spans about ``top >> 6`` lines; drawing positions from a small pool
    makes repeats, same-line runs and cross-line reuse common.
    """
    pool = st.lists(st.integers(0, top), max_size=12).map(
        lambda extra: [0, top, *extra]
    )
    picks = st.lists(st.integers(0, 13), max_size=300)
    return st.tuples(pool, picks).map(
        lambda drawn: np.array(
            [drawn[0][i % len(drawn[0])] for i in drawn[1]], dtype=np.int64
        )
    )


class TestRunHeadFold:
    """The numpy head-space fold (no numba) against the argsort oracle."""

    @pytest.fixture(autouse=True)
    def no_kernel(self, monkeypatch):
        monkeypatch.setattr(cache_module, "reuse_gap_kernel", lambda: None)

    @pytest.mark.parametrize(
        "top",
        [
            1 << 12,  # small line span
            1 << 23,  # line span above 2^16, like the figure traces
            1 << 39,  # line span above 2^32
            (1 << 62) - 1,  # sparse 62-bit addresses: wide packed keys
        ],
    )
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_argsort_fold(self, top, data):
        addrs = data.draw(_line_streams(top))
        got = reuse_time_gaps(addrs)
        assert np.array_equal(got, _argsort_reuse_gaps(addrs >> 6))

    @given(
        addr=st.integers(0, (1 << 62) - 1),
        offsets=st.lists(st.integers(0, LINE_SIZE - 1), max_size=200),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_same_line(self, addr, offsets):
        addrs = (addr & ~(LINE_SIZE - 1)) + np.array(offsets, dtype=np.int64)
        gaps = reuse_time_gaps(addrs)
        expected = [GAP_COLD] + [1] * (len(offsets) - 1) if offsets else []
        assert gaps.tolist() == expected
        assert np.array_equal(gaps, _argsort_reuse_gaps(addrs >> 6))

    def test_empty_and_single_access(self):
        assert reuse_time_gaps(np.empty(0, dtype=np.int64)).size == 0
        assert reuse_time_gaps(np.array([1 << 61])).tolist() == [GAP_COLD]

    def test_parity_oracle_passes_on_honest_fold(self, monkeypatch):
        monkeypatch.setenv(VERIFY_REUSE_ENV, "1")
        counters = process_metrics().counters
        checks = counters.get("reuse.parity_checks", 0.0)
        failures = counters.get("reuse.parity_failures", 0.0)
        rng = np.random.default_rng(7)
        reuse_time_gaps(rng.integers(0, 1 << 24, size=2_000))
        assert counters["reuse.parity_checks"] == checks + 1
        assert counters.get("reuse.parity_failures", 0.0) == failures

    def test_parity_oracle_raises_on_sabotaged_fold(self, monkeypatch):
        honest = cache_module._run_head_reuse_gaps

        def _broken(addrs, line_shift):
            positions, gaps = honest(addrs, line_shift)
            gaps[-1] = 1  # sabotage one head gap
            return positions, gaps

        monkeypatch.setattr(cache_module, "_run_head_reuse_gaps", _broken)
        monkeypatch.setenv(VERIFY_REUSE_ENV, "1")
        counters = process_metrics().counters
        failures = counters.get("reuse.parity_failures", 0.0)
        addrs = np.array([0, LINE_SIZE, 0], dtype=np.int64)
        with pytest.raises(TraceError, match="diverged"):
            reuse_time_gaps(addrs)
        assert counters["reuse.parity_failures"] == failures + 1

    @pytest.mark.parametrize("key_bits", [64, 65])
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_packed_key_boundary(self, key_bits, data):
        """Keys of exactly 64 bits take the packed sort; 65 the argsort."""
        index_bits = data.draw(st.integers(8, 9))
        span_bits = key_bits - index_bits  # at most 57: lines of int64 addrs
        heads = data.draw(
            st.integers((1 << (index_bits - 1)) + 1, 1 << index_bits)
        )
        top = data.draw(st.integers(1 << (span_bits - 1), (1 << span_bits) - 1))
        extra = data.draw(st.lists(st.integers(0, top), max_size=6))
        pool = sorted({0, top, *extra})  # distinct lines
        picks = data.draw(
            st.lists(
                st.integers(0, len(pool) - 1), min_size=heads, max_size=heads
            )
        )
        picks[:2] = [0, len(pool) - 1]  # the span's ends are always touched
        for i in range(1, heads):  # one run per pick: no equal neighbours
            if picks[i] == picks[i - 1]:
                picks[i] = (picks[i] + 1) % len(pool)
        repeats = data.draw(
            st.lists(st.integers(1, 3), min_size=heads, max_size=heads)
        )
        lines = np.repeat(np.array(pool, dtype=np.int64)[picks], repeats)
        addrs = (lines << 6) + data.draw(st.integers(0, LINE_SIZE - 1))
        width = int(lines.max() - lines.min()).bit_length()
        assert np.count_nonzero(lines[1:] != lines[:-1]) + 1 == heads
        assert width + (heads - 1).bit_length() == key_bits
        sorts = []
        honest_argsort = np.argsort
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                np,
                "argsort",
                lambda *a, **k: sorts.append(1) or honest_argsort(*a, **k),
            )
            positions, gaps = cache_module._run_head_reuse_gaps(addrs, 6)
        assert len(sorts) == (key_bits > 64)
        full = np.ones(addrs.size, dtype=np.int64)
        full[positions] = gaps
        assert np.array_equal(full, _argsort_reuse_gaps(addrs >> 6))


class TestMaskParityOracle:
    """``REPRO_VERIFY_REUSE=1`` checks the fold behind every mask."""

    @pytest.fixture(autouse=True)
    def verified(self, monkeypatch):
        monkeypatch.setattr(cache_module, "reuse_gap_kernel", lambda: None)
        monkeypatch.setenv(VERIFY_REUSE_ENV, "1")

    def test_honest_mask_passes_and_stays_in_head_space(self, monkeypatch):
        honest = cache_module._run_head_reuse_gaps
        folds = []

        def _counted(addrs, line_shift):
            folds.append(addrs.size)
            return honest(addrs, line_shift)

        def _no_full_gaps(*args):
            raise AssertionError("a verified mask built full reuse gaps")

        monkeypatch.setattr(cache_module, "_run_head_reuse_gaps", _counted)
        monkeypatch.setattr(cache_module, "reuse_time_gaps", _no_full_gaps)
        counters = process_metrics().counters
        checks = counters.get("reuse.parity_checks", 0.0)
        failures = counters.get("reuse.parity_failures", 0.0)
        addrs = np.random.default_rng(9).integers(0, 1 << 16, size=2_000)
        hits = WorkingSetCache(16 * LINE_SIZE).hit_mask(addrs)
        assert folds == [addrs.size]
        assert counters["reuse.parity_checks"] == checks + 1
        assert counters.get("reuse.parity_failures", 0.0) == failures
        monkeypatch.delenv(VERIFY_REUSE_ENV)
        assert np.array_equal(
            hits, WorkingSetCache(16 * LINE_SIZE).hit_mask(addrs)
        )

    def test_sabotaged_mask_fold_raises(self, monkeypatch):
        honest = cache_module._run_head_reuse_gaps

        def _broken(addrs, line_shift):
            positions, gaps = honest(addrs, line_shift)
            gaps[-1] = 2  # sabotage one head gap
            return positions, gaps

        monkeypatch.setattr(cache_module, "_run_head_reuse_gaps", _broken)
        counters = process_metrics().counters
        failures = counters.get("reuse.parity_failures", 0.0)
        addrs = np.array([0, LINE_SIZE, 0, 2 * LINE_SIZE], dtype=np.int64)
        with pytest.raises(TraceError, match="diverged"):
            WorkingSetCache(16 * LINE_SIZE).hit_mask(addrs)
        assert counters["reuse.parity_failures"] == failures + 1
