"""Content-keyed caching of deterministic run artifacts.

Every experiment flow in :mod:`repro.sim.experiment` runs an application's
``run_once()`` and classifies the resulting address stream through the LLC
model.  Both artifacts are *pure functions of the cell's inputs*:

- the access trace depends only on (app, constructor params, dataset,
  scale) — virtual addresses are assigned by a deterministic bump
  allocator in registration order, so the trace is byte-identical across
  placements, sweep points, and iterations (``run_once`` is contractually
  idempotent, see :class:`repro.apps.base.GraphApp`);
- the LLC hit mask (:meth:`repro.mem.cache.WorkingSetCache.hit_mask`) is a
  pure function of the trace and the cache geometry ``(size, line)``.

The artifact chain is ``trace -> hit mask -> miss profile``, and each
platform has one LLC geometry, so a trace needs one mask per platform.
:meth:`TraceCache.hit_mask` computes it with the direct
``llc.hit_mask`` over the trace's flat address array
(``stage.hit_mask``).  The one exception is a trace whose flat copy
would break the ``REPRO_WORKER_BYTES`` budget: its working-set mask
comes from a chunked streaming reuse fold
(:func:`repro.sim.reusepack.fold_reuse_chunks`, ``stage.reuse_build``),
bit-exact with the direct route.  ``REPRO_VERIFY_REUSE=1`` re-checks
that fold against a one-shot refold (``reuse.parity_checks`` /
``reuse.parity_failures``) and raises :class:`repro.errors.TraceError`
on divergence.

Uncached, the paper's evaluation grid regenerates the same trace up to six
times per cell (three placements x two iterations) and re-solves the same
working-set model each time.  :class:`TraceCache` computes each artifact
once per content key and serves the rest from memory, which is where most
of the harness's serial speedup comes from.

The cache is bounded (LRU over traces; a trace's hit masks travel with
it) because grid traces are large.  ``REPRO_TRACE_CACHE`` overrides the
bound; ``0`` disables memory caching entirely.

**The persistent tier:** when ``REPRO_TRACE_STORE`` is set, the cache
becomes an in-process LRU *view* over the shared on-disk
:class:`repro.sim.tracestore.TraceStore`.  A memory miss consults the
store before running the builder; store hits arrive as read-only
``mmap`` views whose pages are shared by every worker process and across
sessions, and every artifact the cache builds — trace, hit mask,
profile — is written back atomically so sibling workers (and the next
session) skip the work entirely.  Results stay bit-identical either
way — the store holds exactly the bytes the builder would produce.

**Integrity:** every cached trace carries a CRC32 content checksum taken
at insertion, and store entries are CRC-verified once per process at
load.  While a fault injector is active, hits are additionally
re-verified against their insertion checksum — the ``cache.corrupt``
fault site flips bytes in a cached trace on lookup, and the checksum
path must discard and recompute it (``stats.corruption_discards`` counts
the recoveries).  Outside injection the per-hit re-verification is
skipped: in-memory entries are immutable by construction, and paying a
full checksum pass per hit dominated warm-cell time.
"""

from __future__ import annotations

import os
import time
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Hashable

import numpy as np

from repro.faults.injector import active_injector, fault_point
from repro.faults.plan import SITE_CACHE_CORRUPT
from repro.mem.trace import AccessTrace, worker_byte_budget
from repro.obs.metrics import process_metrics
from repro.obs.tracer import span
from repro.sim.profilepack import TraceProfile, build_profile
from repro.sim.reusepack import derivable, fold_reuse_chunks
from repro.sim.tracestore import TraceStore, process_trace_store

#: Environment variable overriding the trace-entry bound (0 disables).
CACHE_SIZE_ENV = "REPRO_TRACE_CACHE"

#: Default number of distinct traces kept alive per process.
DEFAULT_MAX_TRACES = 8

#: Sentinel: bind the cache to the process-wide env-configured store.
_STORE_FROM_ENV = "env"


def configured_max_traces() -> int:
    """The trace-entry bound, honouring ``REPRO_TRACE_CACHE``."""
    raw = os.environ.get(CACHE_SIZE_ENV)
    if raw is None or raw == "":
        return DEFAULT_MAX_TRACES
    value = int(raw)
    if value < 0:
        raise ValueError(f"{CACHE_SIZE_ENV} must be >= 0, got {value}")
    return value


def _flat_of(trace: AccessTrace) -> np.ndarray:
    """The trace's program-order addresses as one contiguous int64 array."""
    return np.ascontiguousarray(trace.all_addresses(), dtype=np.int64)


def trace_checksum(trace: AccessTrace) -> int:
    """CRC32 over the trace's program-order address bytes.

    Goes through ``all_addresses()`` (the only method the cache requires
    of a trace), so any phase-level corruption changes the checksum.
    """
    return zlib.crc32(_flat_of(trace).view(np.uint8).data)


def _chunked_checksum(trace: AccessTrace, chunk_bytes: int) -> int:
    """:func:`trace_checksum` folded chunk-by-chunk — same CRC, no flat.

    CRC32 folds associatively over a byte stream, so running it over
    :meth:`~repro.mem.trace.AccessTrace.iter_chunks` yields the exact
    checksum of the concatenated array without materialising it.
    """
    crc = 0
    for chunk in trace.iter_chunks(chunk_bytes):
        crc = zlib.crc32(
            np.ascontiguousarray(chunk, dtype=np.int64).view(np.uint8).data,
            crc,
        )
    return crc


def _over_budget(trace) -> bool:
    """Whether flat-copy materialisation would blow the worker budget.

    True when doubling the trace with a flat ``all_addresses`` copy
    would spend more than a quarter of ``REPRO_WORKER_BYTES`` — the
    signal to switch checksums and working-set masks onto the chunked
    streaming path.
    """
    if not isinstance(trace, AccessTrace):
        return False
    return trace.total_accesses * 8 > worker_byte_budget() // 4


def _fold_chunk_bytes() -> int:
    """Chunk size for streaming folds: an eighth of the worker budget."""
    return max(8, worker_byte_budget() // 8)


def llc_signature(llc) -> tuple:
    """The geometry signature that keys hit masks per cache model."""
    return (type(llc).__name__, llc.size_bytes, llc.line_size)


@dataclass
class TraceCacheStats:
    """Hit/miss counters, split by artifact kind."""

    trace_hits: int = 0
    trace_misses: int = 0
    mask_hits: int = 0
    mask_misses: int = 0
    profile_hits: int = 0
    profile_misses: int = 0
    evictions: int = 0
    #: Corrupted / shape-mismatched entries dropped and recomputed.
    corruption_discards: int = 0
    #: Memory misses served from the persistent store (no builder run).
    store_trace_hits: int = 0
    #: Mask misses served from the persistent store (no LLC simulation).
    store_mask_hits: int = 0
    #: Profile misses served from the persistent store (no fold).
    store_profile_hits: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "trace_hits": self.trace_hits,
            "trace_misses": self.trace_misses,
            "mask_hits": self.mask_hits,
            "mask_misses": self.mask_misses,
            "profile_hits": self.profile_hits,
            "profile_misses": self.profile_misses,
            "evictions": self.evictions,
            "corruption_discards": self.corruption_discards,
            "store_trace_hits": self.store_trace_hits,
            "store_mask_hits": self.store_mask_hits,
            "store_profile_hits": self.store_profile_hits,
        }


def _count(name: str, amount: float = 1.0) -> None:
    """Mirror one cache counter into the process metrics registry."""
    process_metrics().inc(f"cache.{name}", amount)


@dataclass
class _TraceEntry:
    """A cached trace plus the checksum it must keep matching.

    ``flat`` is the program-order address array, materialised once at
    insertion and shared by every fold over the trace (checksum and hit
    masks).  For traces whose flat copy would blow the
    ``REPRO_WORKER_BYTES`` budget it stays ``None``: the checksum is
    folded chunk-by-chunk at insertion and working-set masks take the
    chunked streaming path instead.
    """

    trace: AccessTrace
    checksum: int
    flat: np.ndarray | None


class TraceCache:
    """LRU cache of access traces and their derived LLC hit masks.

    Keys are caller-chosen hashable content keys (the parallel engine uses
    :meth:`repro.sim.parallel.JobSpec.trace_key`).  Correctness relies on
    the key covering everything the trace depends on; two cells that share
    a key *must* produce byte-identical traces.

    ``store`` selects the persistent tier: the default binds to the
    process-wide store configured by ``REPRO_TRACE_STORE`` (disabled when
    the variable is unset); pass an explicit :class:`TraceStore` to pin
    one, or ``None`` to force memory-only operation.
    """

    def __init__(
        self,
        max_traces: int | None = None,
        store: TraceStore | None | str = _STORE_FROM_ENV,
    ) -> None:
        self.max_traces = (
            configured_max_traces() if max_traces is None else max_traces
        )
        self._store_from_env = store == _STORE_FROM_ENV
        self._store: TraceStore | None = (
            None if self._store_from_env else store  # type: ignore[assignment]
        )
        self._traces: OrderedDict[Hashable, _TraceEntry] = OrderedDict()
        self._masks: dict[Hashable, dict[tuple, np.ndarray]] = {}
        self._profiles: dict[Hashable, dict[tuple, TraceProfile]] = {}
        self.stats = TraceCacheStats()

    @property
    def store(self) -> TraceStore | None:
        """The persistent tier behind this cache (``None``: memory only)."""
        if self._store_from_env:
            return process_trace_store()
        return self._store

    # ------------------------------------------------------------------
    def _discard(self, key: Hashable) -> None:
        self._traces.pop(key, None)
        self._masks.pop(key, None)
        self._profiles.pop(key, None)
        self.stats.corruption_discards += 1
        _count("corruption_discards")

    def _flat_addrs(self, key: Hashable, trace: AccessTrace) -> np.ndarray:
        """The trace's flat address array, shared across folds.

        Serves the per-entry array materialised at insertion whenever the
        caller's trace *is* the cached one; otherwise (memory caching off,
        or an evicted entry) falls back to a direct materialisation.
        """
        entry = self._traces.get(key)
        if entry is not None and entry.trace is trace and entry.flat is not None:
            return entry.flat
        return _flat_of(trace)

    def _verified(self, key: Hashable) -> AccessTrace | None:
        """The cached trace if present and intact, else ``None``.

        The per-hit checksum comparison runs only while a fault injector
        is installed — that is the only path that mutates cached entries
        (``cache.corrupt``), and checksumming benchmark-scale traces on
        every hit is the dominant warm-path cost otherwise.
        """
        entry = self._traces.get(key)
        if entry is None:
            return None
        if active_injector() is not None:
            if fault_point(SITE_CACHE_CORRUPT, tag=str(key)):
                _corrupt_trace(entry.trace)
            current = (
                _chunked_checksum(entry.trace, _fold_chunk_bytes())
                if entry.flat is None and isinstance(entry.trace, AccessTrace)
                else trace_checksum(entry.trace)
            )
            if current != entry.checksum:
                self._discard(key)
                return None
        return entry.trace

    def _trace_from_store_or_builder(
        self, key: Hashable, builder: Callable[[], AccessTrace]
    ) -> AccessTrace:
        """Store load on a memory miss, else build (and write back).

        Store-cold builds run under the ``trace`` single-flight lease so
        two workers reaching the same cold key never generate (and
        persist) the same trace concurrently: the loser waits, then
        adopts the committed entry — or builds in-memory when nothing
        landed (the winner died or its save failed).
        """
        store = self.store
        if store is None:
            return self._build_trace(key, builder)
        trace = store.load_trace(key)
        if trace is not None:
            self.stats.store_trace_hits += 1
            _count("store_trace_hits")
            return trace
        with store.single_flight(
            key, "trace", done=lambda: store.has_trace(key)
        ) as winner:
            if not winner:
                adopted = store.load_trace(key)
                if adopted is not None:
                    self.stats.store_trace_hits += 1
                    _count("store_trace_hits")
                    return adopted
            trace = self._build_trace(key, builder)
            if isinstance(trace, AccessTrace):
                store.save_trace(key, trace)
        return trace

    def _build_trace(
        self, key: Hashable, builder: Callable[[], AccessTrace]
    ) -> AccessTrace:
        """Run the builder under the trace-generation span and timer."""
        started = time.perf_counter()
        with span("cache.build_trace", cat="cache", key=str(key)):
            trace = builder()
        process_metrics().observe(
            "stage.trace_gen", time.perf_counter() - started
        )
        return trace

    def trace(self, key: Hashable, builder: Callable[[], AccessTrace]) -> AccessTrace:
        """The trace under ``key``, built once via ``builder()``."""
        if self.max_traces == 0:
            self.stats.trace_misses += 1
            _count("trace_misses")
            return self._trace_from_store_or_builder(key, builder)
        cached = self._verified(key)
        if cached is not None:
            self.stats.trace_hits += 1
            _count("trace_hits")
            self._traces.move_to_end(key)
            return cached
        self.stats.trace_misses += 1
        _count("trace_misses")
        trace = self._trace_from_store_or_builder(key, builder)
        if _over_budget(trace):
            flat = None
            checksum = _chunked_checksum(trace, _fold_chunk_bytes())
        else:
            flat = _flat_of(trace)
            checksum = zlib.crc32(flat.view(np.uint8).data)
        self._traces[key] = _TraceEntry(
            trace=trace,
            checksum=checksum,
            flat=flat,
        )
        self._masks.setdefault(key, {})
        self._profiles.setdefault(key, {})
        while len(self._traces) > self.max_traces:
            evicted, _ = self._traces.popitem(last=False)
            self._masks.pop(evicted, None)
            self._profiles.pop(evicted, None)
            self.stats.evictions += 1
            _count("evictions")
        return trace

    def hit_mask(self, key: Hashable, llc, trace: AccessTrace) -> np.ndarray:
        """The LLC hit mask of ``trace`` under ``llc``, computed once.

        The mask key extends the trace key with the cache-model geometry,
        so the same trace evaluated on different platforms (different LLC
        sizes) gets independent masks.  A cached mask whose shape does not
        match the trace is treated as corrupt and recomputed.

        The mask is the direct ``llc.hit_mask`` over the trace's flat
        address array (``stage.hit_mask``).  A working-set mask of a trace
        over the worker budget instead comes from the chunked streaming
        reuse fold (``stage.reuse_build``), which never materialises the
        flat copy.
        """
        llc_sig = llc_signature(llc)
        expected = getattr(trace, "total_accesses", None)
        masks = (
            self._masks.get(key) if self.max_traces != 0 else None
        )
        if masks is not None:
            cached = masks.get(llc_sig)
            if (
                cached is not None
                and expected is not None
                and cached.shape != (expected,)
            ):
                masks.pop(llc_sig, None)
                self.stats.corruption_discards += 1
                _count("corruption_discards")
                cached = None
            if cached is not None:
                self.stats.mask_hits += 1
                _count("mask_hits")
                return cached
        self.stats.mask_misses += 1
        _count("mask_misses")
        mask = None
        store = self.store
        if store is not None and expected is not None:
            mask = store.load_mask(key, llc_sig, expected)
            if mask is not None:
                self.stats.store_mask_hits += 1
                _count("store_mask_hits")
        if mask is None:
            started = time.perf_counter()
            if derivable(llc) and _over_budget(trace):
                with span("cache.build_reuse", cat="cache", key=str(key)):
                    profile = fold_reuse_chunks(
                        trace.iter_chunks(_fold_chunk_bytes()), llc.line_size
                    )
                    mask = profile.hit_mask_for(llc)
                stage = "stage.reuse_build"
            else:
                with span("cache.build_mask", cat="cache", key=str(key)):
                    mask = llc.hit_mask(self._flat_addrs(key, trace))
                stage = "stage.hit_mask"
            process_metrics().observe(stage, time.perf_counter() - started)
            if store is not None:
                store.save_mask(key, llc_sig, mask)
        if masks is not None:
            masks[llc_sig] = mask
        return mask

    def profile(
        self, key: Hashable, llc, trace: AccessTrace, hits: np.ndarray
    ) -> TraceProfile:
        """The compiled miss profile of ``(trace, llc)``, folded once.

        Third artifact of the lattice (see :mod:`repro.sim.profilepack`):
        keyed like hit masks by ``(trace key, LLC geometry)``, because the
        profile depends on the hit mask but **not** on placement — every
        placement cell sharing the key prices from this one profile.  A
        cached or stored profile that no longer describes the trace is
        discarded and rebuilt, mirroring the mask shape guard.
        """
        llc_sig = llc_signature(llc)
        profiles = (
            self._profiles.get(key) if self.max_traces != 0 else None
        )
        if profiles is not None:
            cached = profiles.get(llc_sig)
            if cached is not None and not cached.matches(trace):
                profiles.pop(llc_sig, None)
                self.stats.corruption_discards += 1
                _count("corruption_discards")
                cached = None
            if cached is not None:
                self.stats.profile_hits += 1
                _count("profile_hits")
                return cached
        self.stats.profile_misses += 1
        _count("profile_misses")
        profile = None
        store = self.store
        if store is not None:
            profile = store.load_profile(
                key,
                llc_sig,
                expected_phases=len(trace.phases),
                expected_accesses=trace.total_accesses,
            )
            if profile is not None:
                self.stats.store_profile_hits += 1
                _count("store_profile_hits")
        if profile is None:
            started = time.perf_counter()
            with span("cache.build_profile", cat="cache", key=str(key)):
                profile = build_profile(trace, hits)
            process_metrics().observe(
                "stage.profile_build", time.perf_counter() - started
            )
            if store is not None:
                store.save_profile(key, llc_sig, profile)
        if profiles is not None:
            profiles[llc_sig] = profile
        return profile

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._traces)

    def clear(self) -> None:
        """Drop every cached artifact (counters are kept)."""
        self._traces.clear()
        self._masks.clear()
        self._profiles.clear()


def _corrupt_trace(trace: AccessTrace) -> None:
    """Flip bits in a trace's largest phase (the injected corruption).

    Corrupts a *copy* of the phase array: store-loaded phases are
    read-only mmap views whose pages are shared with other processes, so
    in-place mutation is both impossible and undesirable.  The trace's
    cached flat array is invalidated so the corruption is visible to
    ``all_addresses()`` consumers (the checksum path in particular).
    """
    phases = getattr(trace, "phases", None)
    if not phases:
        return
    phase = max(phases, key=lambda p: p.addrs.size)
    if phase.addrs.size:
        addrs = phase.addrs.copy()
        addrs[addrs.size // 2] ^= 0x5A5A
        phase.addrs = addrs
        invalidate = getattr(trace, "invalidate_flat", None)
        if callable(invalidate):
            invalidate()


_PROCESS_CACHE: TraceCache | None = None


def process_trace_cache() -> TraceCache:
    """The per-process shared cache (one per worker, one for serial runs)."""
    global _PROCESS_CACHE
    if _PROCESS_CACHE is None:
        _PROCESS_CACHE = TraceCache()
    return _PROCESS_CACHE
