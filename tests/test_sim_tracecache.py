"""TraceCache: hit/miss accounting, eviction, and cached-run parity."""

import numpy as np
import pytest

from repro.apps import make_app
from repro.config import nvm_dram_testbed
from repro.errors import TraceError
from repro.graph.generators import chung_lu_graph
from repro.mem import cache as cache_module
from repro.mem.cache import VERIFY_REUSE_ENV, WorkingSetCache
from repro.mem.trace import WORKER_BYTES_ENV, AccessTrace
from repro.obs.metrics import process_metrics
from repro.sim.experiment import run_atmem, run_static
from repro.sim.reusepack import ReuseProfile
from repro.sim.tracecache import (
    DEFAULT_MAX_TRACES,
    TraceCache,
    configured_max_traces,
    process_trace_cache,
)
from repro.sim.tracestore import TraceStore


@pytest.fixture(scope="module")
def graph():
    return chung_lu_graph(2_000, 30_000, seed=3, name="tc-test")


def bfs_factory(graph):
    return lambda: make_app("BFS", graph)


class _FakeTrace:
    def __init__(self, payload):
        self.payload = payload

    def all_addresses(self):
        return np.asarray(self.payload, dtype=np.int64)


class _FakeLLC:
    """Counts hit_mask calls; geometry drives the cache's mask key."""

    def __init__(self, size_bytes=4096, line_size=64):
        self.size_bytes = size_bytes
        self.line_size = line_size
        self.calls = 0

    def hit_mask(self, addrs):
        self.calls += 1
        return addrs % 2 == 0


class TestTraceAccounting:
    def test_trace_built_once_per_key(self):
        cache = TraceCache(max_traces=4)
        built = []

        def builder():
            built.append(1)
            return _FakeTrace([1, 2, 3])

        first = cache.trace("k", builder)
        second = cache.trace("k", builder)
        assert first is second
        assert len(built) == 1
        assert cache.stats.trace_misses == 1
        assert cache.stats.trace_hits == 1

    def test_lru_eviction_drops_oldest_and_its_masks(self):
        cache = TraceCache(max_traces=2)
        llc = _FakeLLC()
        t_a = cache.trace("a", lambda: _FakeTrace([1]))
        cache.hit_mask("a", llc, t_a)
        cache.trace("b", lambda: _FakeTrace([2]))
        cache.trace("c", lambda: _FakeTrace([3]))  # evicts "a"
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # "a" is gone: re-requesting rebuilds trace and mask.
        t_a2 = cache.trace("a", lambda: _FakeTrace([1]))
        cache.hit_mask("a", llc, t_a2)
        assert cache.stats.trace_misses == 4
        assert llc.calls == 2

    def test_zero_capacity_disables_caching(self):
        cache = TraceCache(max_traces=0)
        llc = _FakeLLC()
        for _ in range(3):
            t = cache.trace("k", lambda: _FakeTrace([1, 2]))
            cache.hit_mask("k", llc, t)
        assert len(cache) == 0
        assert cache.stats.trace_hits == 0
        assert cache.stats.mask_hits == 0
        assert llc.calls == 3

    def test_mask_keyed_by_llc_geometry(self):
        cache = TraceCache(max_traces=4)
        small, big = _FakeLLC(size_bytes=1024), _FakeLLC(size_bytes=1 << 20)
        t = cache.trace("k", lambda: _FakeTrace([2, 4, 6]))
        cache.hit_mask("k", small, t)
        cache.hit_mask("k", big, t)  # different geometry: fresh compute
        cache.hit_mask("k", small, t)  # same geometry: served from cache
        assert small.calls == 1
        assert big.calls == 1
        assert cache.stats.mask_hits == 1
        assert cache.stats.mask_misses == 2

    def test_clear_keeps_counters(self):
        cache = TraceCache(max_traces=4)
        cache.trace("k", lambda: _FakeTrace([1]))
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.trace_misses == 1


class _ReuseTrace:
    """A trace rich enough for the working-set mask path."""

    def __init__(self, seed=29, n=4_000):
        rng = np.random.default_rng(seed)
        self.payload = rng.integers(0, 1 << 20, size=n)

    @property
    def total_accesses(self):
        return self.payload.size

    def all_addresses(self):
        return np.asarray(self.payload, dtype=np.int64)


def _dense_trace(seed=29, n=4_000, phases=4) -> AccessTrace:
    """An :class:`AccessTrace` dense enough for the chained streaming fold."""
    rng = np.random.default_rng(seed)
    trace = AccessTrace()
    for i in range(phases):
        trace.add(rng.integers(0, 1 << 16, size=n // phases), label=f"p{i}")
    return trace


def _stage_count(name: str) -> int:
    timing = process_metrics().timings.get(name)
    return timing.count if timing is not None else 0


#: Worker budget under which a 4 000-access trace is over budget (its
#: 32 000-byte flat copy exceeds a quarter of it) and streams in
#: 1 024-access chunks.
STARVED_BUDGET = "65536"


class TestReuseDerivation:
    """Working-set masks: direct in budget, streamed above it."""

    SWEEP = (16 << 10, 32 << 10, 64 << 10)

    def test_derived_masks_match_direct_simulation(self):
        cache = TraceCache(max_traces=4)
        trace = cache.trace("k", _ReuseTrace)
        addrs = trace.all_addresses()
        for size in self.SWEEP:
            llc = WorkingSetCache(size)
            np.testing.assert_array_equal(
                cache.hit_mask("k", llc, trace), llc.hit_mask(addrs)
            )

    def test_in_budget_masks_are_direct_and_persist_no_reuse(self, tmp_path):
        cache = TraceCache(max_traces=4, store=TraceStore(tmp_path))
        trace = cache.trace("k", _dense_trace)
        addrs = trace.all_addresses()
        folds = _stage_count("stage.reuse_build")
        for size in self.SWEEP:
            llc = WorkingSetCache(size)
            np.testing.assert_array_equal(
                cache.hit_mask("k", llc, trace), llc.hit_mask(addrs)
            )
        assert _stage_count("stage.reuse_build") == folds
        assert cache.stats.store_mask_hits == 0
        assert len(list(tmp_path.rglob("mask-*.npy"))) == len(self.SWEEP)
        assert not list(tmp_path.rglob("reuse-*"))

    def test_non_workingset_llc_takes_direct_path(self):
        cache = TraceCache(max_traces=4)
        llc = _FakeLLC()
        trace = cache.trace("k", lambda: _FakeTrace([2, 4, 6]))
        cache.hit_mask("k", llc, trace)
        assert llc.calls == 1

    def test_parity_oracle_passes_on_honest_masks(self, monkeypatch):
        monkeypatch.setenv(WORKER_BYTES_ENV, STARVED_BUDGET)
        monkeypatch.setenv(VERIFY_REUSE_ENV, "1")
        # Every single fold is checked too (numpy or kernel); count those
        # checks so the streamed oracle's own count stays exact.
        fold_checks = []
        verify_fold = cache_module._verify_reuse_gaps
        monkeypatch.setattr(
            cache_module,
            "_verify_reuse_gaps",
            lambda gaps, lines: fold_checks.append(verify_fold(gaps, lines)),
        )
        counters = process_metrics().counters
        checks = counters.get("reuse.parity_checks", 0.0)
        failures = counters.get("reuse.parity_failures", 0.0)
        folds = _stage_count("stage.reuse_build")
        cache = TraceCache(max_traces=4, store=None)
        trace = cache.trace("k", _dense_trace)
        addrs = trace.all_addresses()
        for size in self.SWEEP:
            llc = WorkingSetCache(size)
            np.testing.assert_array_equal(
                cache.hit_mask("k", llc, trace), llc.hit_mask(addrs)
            )
        assert _stage_count("stage.reuse_build") == folds + len(self.SWEEP)
        assert fold_checks
        assert counters["reuse.parity_checks"] == (
            checks + len(self.SWEEP) + len(fold_checks)
        )
        assert counters.get("reuse.parity_failures", 0.0) == failures

    def test_parity_oracle_raises_on_divergence(self, monkeypatch):
        monkeypatch.setenv(WORKER_BYTES_ENV, STARVED_BUDGET)
        monkeypatch.setenv(VERIFY_REUSE_ENV, "1")
        honest = ReuseProfile.extend

        def lying_extend(self, delta):
            extended = honest(self, delta)
            extended.gaps[0] = 12_345  # a chunk merge that got one gap wrong
            return extended

        monkeypatch.setattr(ReuseProfile, "extend", lying_extend)
        counters = process_metrics().counters
        failures = counters.get("reuse.parity_failures", 0.0)
        cache = TraceCache(max_traces=4, store=None)
        trace = cache.trace("k", _dense_trace)
        with pytest.raises(TraceError, match="diverged"):
            cache.hit_mask("k", WorkingSetCache(32 << 10), trace)
        assert counters["reuse.parity_failures"] == failures + 1

    def test_stale_profile_discarded_and_rebuilt(self):
        cache = TraceCache(max_traces=4, store=None)
        llc = WorkingSetCache(32 << 10)
        trace = cache.trace("k", lambda: _dense_trace(phases=4))
        cache.profile("k", llc, trace, llc.hit_mask(trace.all_addresses()))
        grown = _dense_trace(phases=5)
        profile = cache.profile(
            "k", llc, grown, llc.hit_mask(grown.all_addresses())
        )
        assert profile.matches(grown)
        assert cache.stats.corruption_discards == 1
        assert cache.stats.profile_misses == 2


class TestConfiguration:
    def test_default_bound(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_CACHE", raising=False)
        assert configured_max_traces() == DEFAULT_MAX_TRACES

    def test_env_override_and_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", "3")
        assert configured_max_traces() == 3
        monkeypatch.setenv("REPRO_TRACE_CACHE", "-1")
        with pytest.raises(ValueError):
            configured_max_traces()

    def test_process_cache_is_a_singleton(self):
        assert process_trace_cache() is process_trace_cache()


class TestCachedRunParity:
    """Cached flows must be bit-identical to uncached ones."""

    def test_run_static_with_cache_matches_uncached(self, graph):
        platform = nvm_dram_testbed()
        factory = bfs_factory(graph)
        plain = run_static(factory, platform, "slow")
        cache = TraceCache()
        cached = run_static(
            factory, platform, "slow", trace_cache=cache, trace_key="bfs"
        )
        assert cached.seconds == plain.seconds
        assert cached.first_iteration.seconds == plain.first_iteration.seconds
        assert cache.stats.trace_misses == 1

    def test_run_atmem_with_warm_cache_matches_uncached(self, graph):
        platform = nvm_dram_testbed()
        factory = bfs_factory(graph)
        plain = run_atmem(factory, platform)
        cache = TraceCache()
        # Warm the cache through a different placement first: the ATMem
        # run below then reuses the trace across both its iterations.
        run_static(factory, platform, "fast", trace_cache=cache, trace_key="bfs")
        cached = run_atmem(factory, platform, trace_cache=cache, trace_key="bfs")
        assert cached.seconds == plain.seconds
        assert cached.data_ratio == plain.data_ratio
        assert cached.migration.bytes_moved == plain.migration.bytes_moved
        assert cache.stats.trace_hits >= 2
