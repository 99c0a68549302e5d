"""The persistent trace store: layout, atomicity, integrity, budget.

The store's contract is that it is *invisible* in results: any mix of
cold builds, store loads, and memory hits must produce bit-identical
figures, and any corrupt entry (torn write, truncation, stale format)
must be rejected and rebuilt rather than trusted.
"""

import json
import os

import numpy as np
import pytest

from repro.cachebudget import CACHE_BYTES_ENV, TRACE_STORE_ENV
from repro.config import nvm_dram_testbed
from repro.faults.chaos import committed_figures
from repro.faults.injector import injected
from repro.faults.plan import SITE_STORE_TORN, FaultPlan, FaultSpec
from repro.mem.cache import WorkingSetCache
from repro.mem.trace import AccessKind, AccessTrace
from repro.sim.parallel import AppSpec, JobSpec, execute_job
from repro.sim.tracecache import TraceCache, llc_signature
from repro.sim.tracestore import (
    FORMAT_VERSION,
    TRACE_ARRAY,
    TRACE_MANIFEST,
    TraceStore,
    process_trace_store,
)

TINY_SCALE = 1 << 20


def small_trace(seed: int = 3) -> AccessTrace:
    rng = np.random.default_rng(seed)
    trace = AccessTrace()
    trace.add(
        rng.integers(0, 1 << 20, size=257),
        kind=AccessKind.SEQUENTIAL,
        is_write=True,
        label="offsets",
    )
    trace.add(
        rng.integers(0, 1 << 20, size=1031),
        kind=AccessKind.RANDOM,
        label="adjacency",
    )
    return trace


class TestTraceRoundtrip:
    def test_trace_survives_with_phases_intact(self, tmp_path):
        store = TraceStore(tmp_path)
        original = small_trace()
        assert store.save_trace("k1", original) is True
        assert store.has_trace("k1")
        loaded = TraceStore(tmp_path).load_trace("k1")
        assert loaded is not None
        np.testing.assert_array_equal(
            loaded.all_addresses(), original.all_addresses()
        )
        assert len(loaded.phases) == len(original.phases)
        for got, want in zip(loaded.phases, original.phases):
            assert got.kind is want.kind
            assert got.is_write == want.is_write
            assert got.prefetchable == want.prefetchable
            assert got.label == want.label
            np.testing.assert_array_equal(got.addrs, want.addrs)

    def test_loaded_arrays_are_readonly_mmap_views(self, tmp_path):
        store = TraceStore(tmp_path)
        store.save_trace("k1", small_trace())
        loaded = TraceStore(tmp_path).load_trace("k1")
        assert not loaded.phases[0].addrs.flags.writeable

    def test_save_is_idempotent(self, tmp_path):
        store = TraceStore(tmp_path)
        assert store.save_trace("k1", small_trace()) is True
        assert store.save_trace("k1", small_trace()) is False
        assert store.stats.trace_saves == 1

    def test_no_temp_files_left_behind(self, tmp_path):
        store = TraceStore(tmp_path)
        store.save_trace("k1", small_trace())
        llc = WorkingSetCache(1 << 14)
        mask = llc.hit_mask(small_trace().all_addresses())
        store.save_mask("k1", llc_signature(llc), mask)
        leftovers = [p for p in tmp_path.rglob("*") if ".tmp" in p.name]
        assert leftovers == []

    def test_missing_key_loads_none(self, tmp_path):
        assert TraceStore(tmp_path).load_trace("nope") is None


class TestMaskRoundtrip:
    def test_mask_roundtrip(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = small_trace()
        store.save_trace("k1", trace)
        llc = WorkingSetCache(1 << 14)
        sig = llc_signature(llc)
        mask = llc.hit_mask(trace.all_addresses())
        assert store.save_mask("k1", sig, mask) is True
        loaded = TraceStore(tmp_path).load_mask("k1", sig, mask.size)
        np.testing.assert_array_equal(np.asarray(loaded), mask)

    def test_masks_are_stored_bit_packed(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = small_trace()
        store.save_trace("k1", trace)
        llc = WorkingSetCache(1 << 14)
        mask = llc.hit_mask(trace.all_addresses())
        store.save_mask("k1", llc_signature(llc), mask)
        array_path = store._mask_paths("k1", llc_signature(llc))[0]
        stored = np.load(array_path)
        assert stored.dtype == np.uint8
        assert stored.size == (mask.size + 7) // 8  # 8x smaller than bool

    def test_loaded_mask_is_readonly(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = small_trace()
        store.save_trace("k1", trace)
        llc = WorkingSetCache(1 << 14)
        sig = llc_signature(llc)
        mask = llc.hit_mask(trace.all_addresses())
        store.save_mask("k1", sig, mask)
        loaded = TraceStore(tmp_path).load_mask("k1", sig, mask.size)
        assert not loaded.flags.writeable

    def test_old_unpacked_mask_entry_rejected_and_rebuilt(self, tmp_path):
        # A pre-packing entry: raw bool array, sidecar without the
        # mask_format stamp.  It must be rejected (not silently
        # misread as packed bytes) and a clean re-save must work.
        store = TraceStore(tmp_path)
        trace = small_trace()
        store.save_trace("k1", trace)
        llc = WorkingSetCache(1 << 14)
        sig = llc_signature(llc)
        mask = llc.hit_mask(trace.all_addresses())
        array_path, sidecar_path = store._mask_paths("k1", sig)
        np.save(array_path, mask)  # unpacked, old layout
        import zlib

        sidecar_path.write_text(
            json.dumps(
                {
                    "format": FORMAT_VERSION,
                    "llc": list(sig),
                    "n": int(mask.size),
                    "crc32": zlib.crc32(mask.view(np.uint8).data),
                }
            )
        )
        fresh = TraceStore(tmp_path)
        assert fresh.load_mask("k1", sig, mask.size) is None
        assert fresh.stats.rejects == 1
        assert not fresh.has_mask("k1", sig)
        assert fresh.save_mask("k1", sig, mask) is True
        reread = TraceStore(tmp_path).load_mask("k1", sig, mask.size)
        np.testing.assert_array_equal(np.asarray(reread), mask)

    def test_mask_length_mismatch_rejected(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = small_trace()
        store.save_trace("k1", trace)
        llc = WorkingSetCache(1 << 14)
        sig = llc_signature(llc)
        store.save_mask("k1", sig, llc.hit_mask(trace.all_addresses()))
        fresh = TraceStore(tmp_path)
        assert fresh.load_mask("k1", sig, 7) is None
        assert fresh.stats.rejects == 1
        # The bad mask pair is gone; the trace itself is untouched.
        assert not fresh.has_mask("k1", sig)
        assert fresh.load_trace("k1") is not None


class TestIntegrity:
    def test_truncated_array_fails_crc_and_is_rejected(self, tmp_path):
        store = TraceStore(tmp_path)
        store.save_trace("k1", small_trace())
        array_path = store.entry_dir("k1") / TRACE_ARRAY
        data = array_path.read_bytes()
        array_path.write_bytes(data[: len(data) // 2])
        fresh = TraceStore(tmp_path)
        assert fresh.load_trace("k1") is None
        assert fresh.stats.rejects == 1
        assert not fresh.has_trace("k1")  # dropped, ready for recompute

    def test_flipped_bytes_fail_crc(self, tmp_path):
        store = TraceStore(tmp_path)
        store.save_trace("k1", small_trace())
        array_path = store.entry_dir("k1") / TRACE_ARRAY
        raw = bytearray(array_path.read_bytes())
        raw[-8] ^= 0xFF
        array_path.write_bytes(bytes(raw))
        fresh = TraceStore(tmp_path)
        assert fresh.load_trace("k1") is None
        assert fresh.stats.rejects == 1

    def test_format_version_mismatch_rejected(self, tmp_path):
        store = TraceStore(tmp_path)
        store.save_trace("k1", small_trace())
        manifest_path = store.entry_dir("k1") / TRACE_MANIFEST
        manifest = json.loads(manifest_path.read_text())
        manifest["format"] = 999
        manifest_path.write_text(json.dumps(manifest))
        fresh = TraceStore(tmp_path)
        assert fresh.load_trace("k1") is None
        assert fresh.stats.rejects == 1

    def test_torn_write_fault_commits_rejectable_entry(self, tmp_path):
        plan = FaultPlan((FaultSpec(SITE_STORE_TORN),), seed=11)
        store = TraceStore(tmp_path)
        with injected(plan) as injector:
            store.save_trace("k1", small_trace())
            assert len(injector.log) == 1
        fresh = TraceStore(tmp_path)
        assert fresh.load_trace("k1") is None
        assert fresh.stats.rejects == 1
        # After rejection a clean rewrite works.
        assert fresh.save_trace("k1", small_trace()) is True
        assert TraceStore(tmp_path).load_trace("k1") is not None


class TestConcurrency:
    def test_racing_writers_commit_one_valid_entry(self, tmp_path):
        # Two handles (standing in for two worker processes) save the
        # same deterministic artifact; temp names are unique per writer,
        # the last rename wins, and the survivor is valid.
        first, second = TraceStore(tmp_path), TraceStore(tmp_path)
        trace = small_trace()
        results = [first.save_trace("k1", trace), second.save_trace("k1", trace)]
        assert results == [True, False]
        loaded = TraceStore(tmp_path).load_trace("k1")
        np.testing.assert_array_equal(
            loaded.all_addresses(), trace.all_addresses()
        )

    def test_stale_temp_files_are_ignored_and_not_loaded(self, tmp_path):
        store = TraceStore(tmp_path)
        store.save_trace("k1", small_trace())
        entry = store.entry_dir("k1")
        (entry / f".{TRACE_ARRAY}.9999.1.tmp").write_bytes(b"garbage")
        assert TraceStore(tmp_path).load_trace("k1") is not None


class TestBudget:
    def test_over_budget_entries_evicted_oldest_first(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path))
        monkeypatch.setenv(CACHE_BYTES_ENV, "4096")
        store = TraceStore(tmp_path)
        store.save_trace("old", small_trace(seed=1))
        old_entry = store.entry_dir("old")
        os.utime(old_entry, (1, 1))  # make it the eviction candidate
        store.save_trace("new", small_trace(seed=2))
        assert not old_entry.exists()
        assert store.has_trace("new")  # the just-written entry is protected

    def test_budget_disabled_keeps_everything(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path))
        monkeypatch.setenv(CACHE_BYTES_ENV, "0")
        store = TraceStore(tmp_path)
        store.save_trace("a", small_trace(seed=1))
        store.save_trace("b", small_trace(seed=2))
        assert store.has_trace("a") and store.has_trace("b")


class TestProcessStore:
    def test_env_binding_and_rebinding(self, tmp_path, monkeypatch):
        monkeypatch.delenv(TRACE_STORE_ENV, raising=False)
        assert process_trace_store() is None
        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path / "a"))
        first = process_trace_store()
        assert first is not None and first.root == tmp_path / "a"
        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path / "b"))
        assert process_trace_store().root == tmp_path / "b"


class TestCacheIntegration:
    def test_memory_miss_falls_through_to_store(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = small_trace()
        builds = []

        def builder():
            builds.append(1)
            return small_trace()

        writer = TraceCache(max_traces=2, store=store)
        writer.trace("k1", builder)
        assert builds == [1]
        reader = TraceCache(max_traces=2, store=TraceStore(tmp_path))
        loaded = reader.trace("k1", builder)
        assert builds == [1]  # served from the store, not rebuilt
        assert reader.stats.store_trace_hits == 1
        np.testing.assert_array_equal(
            loaded.all_addresses(), trace.all_addresses()
        )

    def test_figures_bit_identical_serial_cold_warm(self, tmp_path):
        spec = JobSpec(
            app=AppSpec.make("PR", "twitter", scale=TINY_SCALE),
            platform=nvm_dram_testbed(scale=512),
            flow="cell",
            placement="fast",
        )
        serial = committed_figures(
            execute_job(spec, trace_cache=TraceCache(store=None))
        )
        cold = committed_figures(
            execute_job(spec, trace_cache=TraceCache(store=TraceStore(tmp_path)))
        )
        warm_cache = TraceCache(store=TraceStore(tmp_path))
        warm = committed_figures(execute_job(spec, trace_cache=warm_cache))
        assert cold == serial
        assert warm == serial
        assert warm_cache.stats.store_trace_hits >= 1
        assert warm_cache.stats.store_mask_hits >= 1
