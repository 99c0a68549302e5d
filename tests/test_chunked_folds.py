"""Chunked streaming folds must be bit-exact with one-shot folds.

The cold pipeline never materialises a flat copy of an over-budget
trace: checksums, reuse folds, and store writes all stream over
:meth:`repro.mem.trace.AccessTrace.iter_chunks`.  That is only sound if
every chunked path reproduces its one-shot twin *exactly* — same CRC,
same reuse profile bytes, same stored array — for every way a chunk
boundary can land: mid-phase, on a phase edge, one chunk swallowing the
whole trace, or an empty tail.  This suite pins each of those down with
generated traces, then closes the loop at the app level: a run folded
under a starvation-sized ``REPRO_WORKER_BYTES`` (with the parity
oracles armed) reports the same committed figures as an unconstrained
run.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TraceError
from repro.mem.cache import LINE_SIZE, VERIFY_REUSE_ENV, WorkingSetCache
from repro.mem.trace import (
    WORKER_BYTES_ENV,
    AccessKind,
    AccessTrace,
    worker_byte_budget,
)
from repro.obs.metrics import process_metrics
from repro.sim.executor import VERIFY_PROFILE_ENV
from repro.sim.reusepack import build_reuse_profile, fold_reuse_chunks
from repro.sim.tracecache import TraceCache, _chunked_checksum, trace_checksum


def make_trace(phase_sizes, seed=7) -> AccessTrace:
    """A trace with the given phase lengths and a graph-like address mix."""
    rng = np.random.default_rng(seed)
    trace = AccessTrace()
    for i, n in enumerate(phase_sizes):
        if i % 2:
            addrs = rng.integers(0, 1 << 20, size=n) * 8
            kind = AccessKind.RANDOM
        else:
            addrs = np.arange(i * 64, i * 64 + n * 8, 8, dtype=np.int64)
            kind = AccessKind.SEQUENTIAL
        trace.add(addrs, kind=kind, label=f"p{i}")
    return trace


phase_lists = st.lists(st.integers(min_value=0, max_value=257), max_size=6)
chunk_budgets = st.sampled_from((8, 16, 24, 72, 1 << 10, 1 << 20))


def same_profile(a, b) -> bool:
    """Bit-exact reuse-profile equality: line size plus the gap row."""
    return a.line_size == b.line_size and a.gaps.tobytes() == b.gaps.tobytes()


class TestIterChunks:
    @given(sizes=phase_lists, budget=chunk_budgets)
    @settings(max_examples=60, deadline=None)
    def test_concatenated_chunks_reproduce_flat(self, sizes, budget):
        trace = make_trace(sizes)
        chunks = list(trace.iter_chunks(budget))
        flat = trace.all_addresses()
        if chunks:
            assert np.array_equal(np.concatenate(chunks), flat)
        else:
            assert flat.size == 0
        per_chunk = budget // 8
        assert all(c.size <= per_chunk for c in chunks)

    def test_chunks_are_zero_copy_views(self):
        trace = make_trace([100, 3, 50])
        for chunk in trace.iter_chunks(64):
            assert chunk.base is not None  # a slice, not a copy

    def test_boundary_splits_a_phase(self):
        # One 10-element phase under a 3-element budget: 4 chunks, the
        # last one short — and their concatenation is the phase verbatim.
        trace = make_trace([10])
        chunks = list(trace.iter_chunks(24))
        assert [c.size for c in chunks] == [3, 3, 3, 1]
        assert np.array_equal(np.concatenate(chunks), trace.all_addresses())

    def test_single_chunk_covers_everything(self):
        trace = make_trace([5, 7])
        chunks = list(trace.iter_chunks(1 << 20))
        assert [c.size for c in chunks] == [5, 7]  # phases never merge

    def test_empty_trace_yields_nothing(self):
        assert list(AccessTrace().iter_chunks(1 << 10)) == []

    def test_budget_below_one_address_raises(self):
        with pytest.raises(TraceError):
            list(make_trace([4]).iter_chunks(7))


class TestChunkedReuseFold:
    @given(sizes=phase_lists, budget=chunk_budgets)
    @settings(max_examples=40, deadline=None)
    def test_fold_matches_one_shot_bit_exactly(self, sizes, budget):
        trace = make_trace(sizes)
        one_shot = build_reuse_profile(trace.all_addresses(), LINE_SIZE)
        chunked = fold_reuse_chunks(trace.iter_chunks(budget), LINE_SIZE)
        assert same_profile(chunked, one_shot)

    def test_empty_stream_folds_to_empty_profile(self):
        profile = fold_reuse_chunks(iter(()))
        empty = build_reuse_profile(np.empty(0, dtype=np.int64))
        assert same_profile(profile, empty)

    def test_empty_tail_chunks_are_ignored(self):
        trace = make_trace([64])
        chunks = list(trace.iter_chunks(64)) + [np.empty(0, dtype=np.int64)]
        folded = fold_reuse_chunks(iter(chunks))
        one_shot = build_reuse_profile(trace.all_addresses())
        assert same_profile(folded, one_shot)


class TestChunkedChecksum:
    @given(sizes=phase_lists, budget=chunk_budgets)
    @settings(max_examples=40, deadline=None)
    def test_chunked_crc_equals_flat_crc(self, sizes, budget):
        trace = make_trace(sizes)
        assert _chunked_checksum(trace, budget) == trace_checksum(trace)

    def test_crc_is_the_flat_byte_crc(self):
        trace = make_trace([33, 9])
        flat = np.ascontiguousarray(trace.all_addresses(), dtype=np.int64)
        assert _chunked_checksum(trace, 32) == zlib.crc32(
            flat.view(np.uint8).data
        )


class TestStreamedStoreWrites:
    @given(sizes=st.lists(st.integers(1, 200), min_size=1, max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_streamed_save_round_trips(self, sizes, tmp_path_factory):
        from repro.sim.tracestore import TraceStore

        trace = make_trace(sizes)
        root = tmp_path_factory.mktemp("chunkstore")
        store = TraceStore(root)
        assert store.save_trace(("k", tuple(sizes)), trace)
        loaded = store.load_trace(("k", tuple(sizes)))
        assert loaded is not None
        assert np.array_equal(loaded.all_addresses(), trace.all_addresses())
        assert [len(p) for p in loaded.phases] == [len(p) for p in trace.phases]

    def test_streamed_file_is_plain_npy(self, tmp_path):
        from repro.sim.tracestore import TRACE_ARRAY, TraceStore

        trace = make_trace([500, 77])
        store = TraceStore(tmp_path)
        store.save_trace("plain", trace)
        raw = np.load(store.entry_dir("plain") / TRACE_ARRAY)
        assert np.array_equal(raw, trace.all_addresses())


def _smoke_spec():
    from repro.config import nvm_dram_testbed
    from repro.faults.chaos import TINY_SCALE
    from repro.sim.parallel import AppSpec, JobSpec

    return JobSpec(
        app=AppSpec.make("PR", "twitter", scale=TINY_SCALE),
        platform=nvm_dram_testbed(scale=512),
        flow="cell",
        placement="fast",
    )


class TestAppLevelParity:
    def test_starved_budget_matches_unconstrained_run(self, monkeypatch):
        """End to end: chunked folds under a tiny budget change nothing.

        ``REPRO_WORKER_BYTES`` small enough that every bench-relevant
        trace is over budget forces the no-flat insertion path, chunked
        checksums, and streamed working-set masks; the armed verify
        oracles additionally cross-check every streamed reuse fold
        against the one-shot refold inside the cache itself.
        """
        from repro.faults.chaos import committed_figures
        from repro.sim.parallel import execute_job

        spec = _smoke_spec()
        monkeypatch.delenv(WORKER_BYTES_ENV, raising=False)
        reference = committed_figures(
            execute_job(spec, trace_cache=TraceCache(store=None))
        )
        monkeypatch.setenv(WORKER_BYTES_ENV, "4096")
        monkeypatch.setenv(VERIFY_REUSE_ENV, "1")
        monkeypatch.setenv(VERIFY_PROFILE_ENV, "1")
        assert worker_byte_budget() == 4096
        counters = process_metrics().counters
        checks = counters.get("reuse.parity_checks", 0.0)
        failures = counters.get("reuse.parity_failures", 0.0)
        starved = committed_figures(
            execute_job(spec, trace_cache=TraceCache(store=None))
        )
        assert starved == reference
        assert counters["reuse.parity_checks"] > checks
        assert counters.get("reuse.parity_failures", 0.0) == failures

    @pytest.mark.parametrize("size_bytes", (16 << 10, 32 << 10, 64 << 10))
    def test_starved_budget_streams_direct_masks(self, monkeypatch, size_bytes):
        """The streamed mask of an app trace equals the direct one."""
        from repro.sim.parallel import _registered_app

        app, _ = _registered_app(_smoke_spec())
        trace = app.run_once()
        llc = WorkingSetCache(size_bytes)
        direct = llc.hit_mask(trace.all_addresses())
        monkeypatch.setenv(WORKER_BYTES_ENV, "4096")
        monkeypatch.setenv(VERIFY_REUSE_ENV, "1")
        failures = process_metrics().counters.get("reuse.parity_failures", 0.0)
        cache = TraceCache(store=None)
        cached = cache.trace("smoke", lambda: trace)
        np.testing.assert_array_equal(
            cache.hit_mask("smoke", llc, cached), direct
        )
        assert (
            process_metrics().counters.get("reuse.parity_failures", 0.0)
            == failures
        )
