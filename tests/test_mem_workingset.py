"""Tests for the working-set LRU approximation, validated against exact LRU."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mem.cache import (
    GAP_COLD,
    LINE_SIZE,
    SetAssociativeCache,
    WorkingSetCache,
    reuse_time_gaps,
    working_set_mask,
    working_set_window,
)


def working_set_hits(gaps, capacity_lines):
    """The full-gap mask the head-space mask replaced: one gap per
    access, one solve, one compare.  Kept here as the reference."""
    window = working_set_window(gaps, capacity_lines)
    if np.isinf(window):
        return gaps < GAP_COLD
    return gaps <= window


def sorted_curve_window(gaps, capacity_lines):
    """The float64 prefix-curve solve the histogram solve replaced.

    Sort the gaps, cast to float64, sample ``f(W) = sum_i min(gap_i, W)``
    at every gap, and solve the crossing segment in closed form.  Kept
    here as the reference the exact integer solve must reproduce.
    """
    sorted_gaps = np.sort(gaps).astype(np.float64)
    t = sorted_gaps.size
    if t == 0:
        return float("inf")
    prefix = np.concatenate(([0.0], np.cumsum(sorted_gaps)))
    f_at_gap = prefix[1:] + sorted_gaps * (t - 1 - np.arange(t, dtype=np.float64))
    target = float(capacity_lines) * t
    k = int(np.searchsorted(f_at_gap, target, side="left"))
    if k >= t:
        return float("inf")
    return (target - prefix[k]) / (t - k)


class TestReuseGaps:
    def test_first_occurrences_are_max(self):
        gaps = reuse_time_gaps(np.array([0, 64, 128]))
        assert (gaps == np.iinfo(np.int64).max).all()

    def test_gap_counts_time_not_distinct(self):
        gaps = reuse_time_gaps(np.array([0, 64, 64, 0]))
        assert gaps[2] == 1  # immediate reuse
        assert gaps[3] == 3  # three accesses since the previous line-0 touch

    def test_same_line_different_offset(self):
        gaps = reuse_time_gaps(np.array([0, 8]))
        assert gaps[1] == 1


class TestSolveWindow:
    def test_footprint_fits_every_reuse_hits(self):
        cache = WorkingSetCache(64 * LINE_SIZE)
        addrs = np.array([0, 64, 0, 64] * 4)
        hits = cache.hit_mask(addrs)
        # Two cold misses, every later access is a reuse hit.
        assert hits.tolist() == [False, False] + [True] * 14

    def test_window_covers_all_finite_gaps_when_footprint_fits(self):
        gaps = reuse_time_gaps(np.array([0, 64, 0, 64] * 4))
        window = working_set_window(gaps, 64)
        finite = gaps[gaps < np.iinfo(np.int64).max]
        assert window >= finite.max()

    def test_empty_stream(self):
        assert np.isinf(working_set_window(np.empty(0, dtype=np.int64), 16))


class TestHistogramSolve:
    """The exact integer solve against the old sorted float64 curve."""

    @staticmethod
    def _same(gaps, capacity_lines):
        gaps = np.array(gaps, dtype=np.int64)
        got = working_set_window(gaps, capacity_lines)
        want = sorted_curve_window(gaps, capacity_lines)
        assert got == want or (np.isinf(got) and np.isinf(want))
        return got

    def test_empty_gaps(self):
        assert np.isinf(self._same([], 16))

    def test_all_cold_gaps(self):
        # Only cold gaps: f(W) = T * W, so W* is the capacity itself.
        assert self._same([GAP_COLD] * 10, 4) == 4.0

    def test_window_below_one(self):
        assert self._same([GAP_COLD, 1, 3, 2], 0) == 0.0

    def test_footprint_fits(self):
        # No cold gap and C * T beyond f(max gap): every reuse hits.
        assert np.isinf(self._same([1, 2, 3, 3], 5))

    def test_capacity_one(self):
        assert self._same([GAP_COLD, 1, 1, 5, GAP_COLD, 2], 1) == 1.0

    @given(
        gaps=st.lists(
            st.one_of(st.integers(1, 500), st.just(GAP_COLD)), max_size=400
        ),
        capacity=st.integers(0, 1_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_sorted_curve(self, gaps, capacity):
        self._same(gaps, capacity)

    @given(
        addrs=st.lists(st.integers(0, 1 << 16), max_size=400),
        capacity=st.integers(1, 64),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_sorted_curve_on_streams(self, addrs, capacity):
        gaps = reuse_time_gaps(np.array(addrs, dtype=np.int64))
        window = working_set_window(gaps, capacity)
        want = sorted_curve_window(gaps, capacity)
        assert window == want or (np.isinf(window) and np.isinf(want))


class TestHeadSpace:
    """The head-space solve and mask against their full-gap references."""

    @staticmethod
    def _same_mask(addrs, capacity_lines):
        addrs = np.array(addrs, dtype=np.int64)
        cache = WorkingSetCache(LINE_SIZE)
        cache.capacity_lines = capacity_lines  # 0 is below any geometry
        got = cache.hit_mask(addrs)
        want = working_set_hits(reuse_time_gaps(addrs), capacity_lines)
        np.testing.assert_array_equal(got, want)
        return got

    @given(
        addrs=st.lists(st.integers(0, 1 << 12), max_size=300),
        capacity=st.integers(0, 80),
    )
    @settings(max_examples=150, deadline=None)
    def test_mask_matches_full_gap_reference(self, addrs, capacity):
        self._same_mask(addrs, capacity)

    def test_window_below_one_misses_repeats(self):
        # W* = C = 0: even gap-1 repeats within a line must miss.
        addrs = [0, 8, 16, LINE_SIZE, LINE_SIZE + 8, 0]
        assert working_set_window(reuse_time_gaps(np.array(addrs)), 0) == 0.0
        assert not self._same_mask(addrs, 0).any()

    def test_infinite_window_hits_every_reuse(self):
        # No cold head and C * T beyond f(max gap): W* is inf (a real
        # stream always has a cold first access, so only here).
        positions = np.array([1, 3], dtype=np.int64)
        gaps = np.array([3, 2], dtype=np.int64)
        expanded = np.ones(5, dtype=np.int64)
        expanded[positions] = gaps
        assert np.isinf(working_set_window(gaps, 8, repeats=3))
        hits = working_set_mask(5, positions, gaps, 8)
        np.testing.assert_array_equal(hits, working_set_hits(expanded, 8))
        assert hits.all()

    @given(
        data=st.data(),
        head_gaps=st.lists(
            st.one_of(st.integers(2, 200), st.just(GAP_COLD)), max_size=100
        ),
        repeats=st.integers(0, 100),
        capacity=st.integers(0, 300),
    )
    @settings(max_examples=150, deadline=None)
    def test_head_space_mask_matches_expanded(
        self, data, head_gaps, repeats, capacity
    ):
        n = len(head_gaps) + repeats
        positions = np.array(
            data.draw(st.permutations(range(n)))[: len(head_gaps)],
            dtype=np.int64,
        )
        gaps = np.array(head_gaps, dtype=np.int64)
        expanded = np.ones(n, dtype=np.int64)
        expanded[positions] = gaps
        np.testing.assert_array_equal(
            working_set_mask(n, positions, gaps, capacity),
            working_set_hits(expanded, capacity),
        )

    def test_capacity_one(self):
        # W* = 1: repeats hit, every head (gap >= 2 or cold) misses.
        addrs = [0, 8, LINE_SIZE, LINE_SIZE + 8, 0, 0]
        hits = self._same_mask(addrs, 1)
        assert hits.tolist() == [False, True, False, True, False, True]

    def test_empty_and_single_access(self):
        assert self._same_mask([], 4).size == 0
        assert self._same_mask([64], 4).tolist() == [False]
        assert self._same_mask([64], 0).tolist() == [False]

    @given(
        head_gaps=st.lists(
            st.one_of(st.integers(2, 500), st.just(GAP_COLD)), max_size=300
        ),
        repeats=st.integers(0, 300),
        capacity=st.integers(0, 600),
    )
    @settings(max_examples=200, deadline=None)
    def test_window_with_repeats_matches_expanded_gaps(
        self, head_gaps, repeats, capacity
    ):
        heads = np.array(head_gaps, dtype=np.int64)
        expanded = np.concatenate([heads, np.ones(repeats, dtype=np.int64)])
        got = working_set_window(heads, capacity, repeats)
        want = working_set_window(expanded, capacity)
        assert got == want or (np.isinf(got) and np.isinf(want))


class TestHitMask:
    def test_streaming_hits_within_line_only(self):
        """An 8 B-stride scan of a huge array hits 7 of 8 accesses per line."""
        cache = WorkingSetCache(64 * LINE_SIZE)
        addrs = np.arange(0, 64 * LINE_SIZE * 64, 8, dtype=np.int64)
        hits = cache.hit_mask(addrs)
        n_lines = addrs.size // 8
        assert int(np.count_nonzero(~hits)) == n_lines

    def test_hot_line_survives_streaming(self):
        """A line re-touched every few accesses hits despite a cold stream."""
        rng = np.random.default_rng(0)
        stream = np.arange(0, 8 * (1 << 20), 64, dtype=np.int64)  # cold scan
        addrs = stream.copy()
        hot_positions = np.arange(0, addrs.size, 10)
        addrs[hot_positions] = 0  # the hot line, touched every 10 accesses
        cache = WorkingSetCache(64 * LINE_SIZE)
        hits = cache.hit_mask(addrs)
        hot_hits = hits[hot_positions[1:]]
        assert hot_hits.mean() > 0.9

    def test_cold_reuse_misses(self):
        """Reuse after touching far more than C distinct lines misses."""
        cache = WorkingSetCache(16 * LINE_SIZE)
        scan = np.arange(0, 1024 * LINE_SIZE, 64, dtype=np.int64) + 4096 * LINE_SIZE
        addrs = np.concatenate(([0], scan, [0]))
        hits = cache.hit_mask(addrs)
        assert not hits[-1]

    def test_empty(self):
        cache = WorkingSetCache(1024)
        assert cache.hit_mask(np.empty(0, dtype=np.int64)).size == 0

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        addrs = rng.integers(0, 1 << 16, size=5000)
        cache = WorkingSetCache(4096)
        a = cache.hit_mask(addrs)
        b = cache.hit_mask(addrs)
        assert np.array_equal(a, b)

    @given(seed=st.integers(0, 100), cap_lines=st.sampled_from([16, 64, 256]))
    @settings(max_examples=20, deadline=None)
    def test_tracks_exact_lru_miss_count(self, seed, cap_lines):
        """Aggregate miss counts stay close to an exact fully-assoc LRU."""
        rng = np.random.default_rng(seed)
        # Zipf-ish line popularity over 4x the cache capacity.
        lines = rng.zipf(1.3, size=4000) % (cap_lines * 4)
        addrs = lines.astype(np.int64) * LINE_SIZE
        ws = WorkingSetCache(cap_lines * LINE_SIZE)
        exact = SetAssociativeCache(cap_lines * LINE_SIZE, ways=cap_lines)
        ws_misses = int(np.count_nonzero(~ws.hit_mask(addrs)))
        exact_misses = int(np.count_nonzero(~exact.access(addrs)))
        assert ws_misses == pytest.approx(exact_misses, rel=0.35)

    def test_miss_count_monotone_in_capacity(self):
        rng = np.random.default_rng(2)
        addrs = (rng.zipf(1.2, size=8000) % 2048).astype(np.int64) * LINE_SIZE
        misses = [
            int(np.count_nonzero(~WorkingSetCache(c * LINE_SIZE).hit_mask(addrs)))
            for c in (16, 64, 256, 1024)
        ]
        assert all(a >= b for a, b in zip(misses, misses[1:]))
