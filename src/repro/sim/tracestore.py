"""Persistent, content-keyed, mmap-shared store of run artifacts.

The expensive artifacts of an experiment cell — the application's access
trace and its LLC hit mask — are pure functions of the cell's content
key (see :mod:`repro.sim.tracecache`).  The in-process cache already
reuses them within one process, but the evaluation grid fans out across
*worker processes* and across *sessions*, and each worker used to rebuild
everything from scratch.  :class:`TraceStore` closes that gap:

- **Layout** — one directory per trace key under the store root
  (``REPRO_TRACE_STORE``), named by a SHA-256 digest of the key's repr::

      <root>/<digest>/trace.npy        flat int64 addresses, program order
      <root>/<digest>/trace.json       manifest: key, CRC32, phase table
      <root>/<digest>/mask-<llc>.npy   np.packbits-packed hit mask, one LLC
      <root>/<digest>/mask-<llc>.json  sidecar: llc signature, CRC32, length
      <root>/<digest>/profile-<llc>.npy  int64 [2, nnz] compiled miss profile
      <root>/<digest>/profile-<llc>.json sidecar: llc signature, CRC32, phase table

  Hit masks are stored bit-packed (``np.packbits``, 8x smaller than raw
  bool) and unpacked transparently on load; the sidecar's
  ``mask_format`` stamp rejects pre-packing entries, which are rebuilt
  rather than migrated.

  Arrays are plain ``.npy`` so they load with ``np.load(mmap_mode="r")``:
  every worker maps the *same* page-cache pages read-only — zero copies,
  shared across processes and sessions.

- **Atomicity** — every file is written to a pid-unique temp name in the
  entry directory and committed with ``os.replace``; the manifest /
  sidecar is committed *after* its array, so the presence of the JSON
  file implies a complete entry.  Concurrent writers race benignly: both
  produce byte-identical content (artifacts are deterministic) and the
  last rename wins.

- **Integrity** — manifests carry a CRC32 over the array bytes, verified
  once per process per entry on first load (the verification pass doubles
  as page-cache warming).  A truncated, corrupt, or mismatched entry is
  *rejected*: dropped from disk, counted in ``stats.rejects``, and
  recomputed by the caller.  The ``cache.store_torn`` fault site commits
  a deliberately truncated array file — simulating a writer that died
  mid-write — which is exactly what the CRC guard must catch.

- **Budget** — writes are followed by an eviction pass against the
  shared ``REPRO_CACHE_BYTES`` budget (:mod:`repro.cachebudget`); loads
  bump the entry's mtime so eviction is LRU-ish.

- **Leases** — a cross-process single-flight protocol
  (:meth:`TraceStore.single_flight`): the first worker to reach a cold
  (key, artifact) pair creates ``.lease-<what>`` in the entry directory
  with ``O_EXCL`` and folds the artifact; contenders wait (bounded by
  ``REPRO_LEASE_TIMEOUT``) and then *adopt* the committed entry instead
  of folding the same bytes concurrently.  A lease whose pid is dead —
  or that outlived the timeout — is *stale* and reclaimed, so a crashed
  primer never wedges the pipeline (see the ``store.lease_crash`` chaos
  case).  Leases are advisory: losing one never blocks a caller from
  building in-memory, it only stops duplicate *store* work.

- **Writes** — the store persists every artifact it is handed: a key
  primed once is fully warm afterwards, so reuse is predictable.
  Commits of 1 MiB or more fsync before the rename, so their writeback
  is paid on the stage that wrote them instead of stalling the run
  off-stage later.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable, Iterable, Iterator

import numpy as np

from repro.cachebudget import TRACE_STORE_ENV, enforce_cache_budget, touch_entry
from repro.errors import TraceError
from repro.faults.injector import InjectedWorkerCrash, fault_point
from repro.faults.plan import SITE_STORE_LEASE_CRASH, SITE_STORE_TORN
from repro.mem.trace import AccessTrace
from repro.obs.bus import emit
from repro.obs.metrics import process_metrics
from repro.obs.tracer import span
from repro.sim.profilepack import (
    TraceProfile,
    profile_from_columnar,
    profile_to_columnar,
)

FORMAT_VERSION = 1

#: Stamp for the bit-packed hit-mask layout.  Entries written before the
#: packing change carry no ``mask_format`` and are rejected (rebuilt,
#: not migrated — artifacts are cheap to recompute, migrations are not).
MASK_FORMAT = 2

TRACE_ARRAY = "trace.npy"
TRACE_MANIFEST = "trace.json"

#: Seconds before a lease with a live-looking file is considered stale.
LEASE_TIMEOUT_ENV = "REPRO_LEASE_TIMEOUT"
DEFAULT_LEASE_TIMEOUT = 30.0

#: Commits of at least this many bytes fsync before their rename:
#: buffered writes land in the page cache at RAM speed, and the deferred
#: writeback would otherwise stall the whole run off-stage.
FSYNC_BYTES = 1 << 20

#: Streamed trace commits write at most this many bytes per chunk.
TRACE_WRITE_CHUNK_BYTES = 32 << 20

_TMP_SEQ = 0

#: Lease files held by this *process* (shared across handles so two
#: in-process store views never reclaim each other's live lease).
_HELD: set[Path] = set()


def lease_timeout() -> float:
    """Seconds before a lease is presumed abandoned (env-tunable)."""
    raw = os.environ.get(LEASE_TIMEOUT_ENV)
    if raw:
        try:
            value = float(raw)
        except ValueError:
            raise TraceError(
                f"{LEASE_TIMEOUT_ENV} must be a number, got {raw!r}"
            ) from None
        if value > 0:
            return value
    return DEFAULT_LEASE_TIMEOUT


def store_root() -> Path | None:
    """The configured store root, or ``None`` when the store is off."""
    raw = os.environ.get(TRACE_STORE_ENV)
    if not raw:
        return None
    return Path(raw)


def key_digest(key: Hashable) -> str:
    """Stable directory name for a content key."""
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()[:24]


def llc_digest(llc_sig: tuple) -> str:
    """Stable file-name component for an LLC geometry signature."""
    return hashlib.sha256(repr(llc_sig).encode("utf-8")).hexdigest()[:12]


def _crc32(array: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(array).view(np.uint8).data)


@dataclass
class TraceStoreStats:
    """Per-process counters for one store handle."""

    trace_loads: int = 0
    trace_saves: int = 0
    mask_loads: int = 0
    mask_saves: int = 0
    profile_loads: int = 0
    profile_saves: int = 0
    #: Entries dropped because they failed CRC / shape / format checks.
    rejects: int = 0
    #: Single-flight leases won / waited-on / adopted-after-wait /
    #: reclaimed-from-a-dead-holder by this handle.
    lease_acquires: int = 0
    lease_waits: int = 0
    lease_adoptions: int = 0
    lease_reclaims: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "trace_loads": self.trace_loads,
            "trace_saves": self.trace_saves,
            "mask_loads": self.mask_loads,
            "mask_saves": self.mask_saves,
            "profile_loads": self.profile_loads,
            "profile_saves": self.profile_saves,
            "rejects": self.rejects,
            "lease_acquires": self.lease_acquires,
            "lease_waits": self.lease_waits,
            "lease_adoptions": self.lease_adoptions,
            "lease_reclaims": self.lease_reclaims,
        }


class TraceStore:
    """Content-keyed on-disk store of traces and LLC hit masks."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.stats = TraceStoreStats()
        #: Array files CRC-verified by this process already (mmap loads
        #: re-verify nothing; the page cache is trusted once checked).
        self._verified: set[Path] = set()
        #: Lease files this handle currently holds (release targets).
        self._held: set[Path] = set()

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def entry_dir(self, key: Hashable) -> Path:
        return self.root / key_digest(key)

    def _mask_paths(self, key: Hashable, llc_sig: tuple) -> tuple[Path, Path]:
        stem = f"mask-{llc_digest(llc_sig)}"
        entry = self.entry_dir(key)
        return entry / f"{stem}.npy", entry / f"{stem}.json"

    def _profile_paths(self, key: Hashable, llc_sig: tuple) -> tuple[Path, Path]:
        stem = f"profile-{llc_digest(llc_sig)}"
        entry = self.entry_dir(key)
        return entry / f"{stem}.npy", entry / f"{stem}.json"

    # ------------------------------------------------------------------
    # single-flight leases
    # ------------------------------------------------------------------
    def _lease_path(self, key: Hashable, what: str) -> Path:
        # Dot-prefixed so the cache-budget walker never counts or evicts
        # lease files as artifacts.
        return self.entry_dir(key) / f".lease-{what}"

    def acquire_lease(self, key: Hashable, what: str) -> bool:
        """Try to win the single-flight lease for ``(key, what)``.

        ``True`` means this process now holds the lease and must
        :meth:`release_lease` when its fold commits (or fails).  A lease
        held by a *dead* pid — or older than ``REPRO_LEASE_TIMEOUT`` —
        is stale and reclaimed before retrying.  An unwritable store
        degrades to ``True`` without a lease file: single-flight is an
        optimisation, never a correctness gate.
        """
        path = self._lease_path(key, what)
        for attempt in range(2):
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                if attempt or not self._lease_stale(path):
                    return False
                self._reclaim_lease(path)
                continue
            except OSError:
                return True  # read-only/full disk: build unleased
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump({"pid": os.getpid(), "born": time.time()}, handle)
            _HELD.add(path)
            self.stats.lease_acquires += 1
            process_metrics().inc("store.lease_acquires")
            if (
                fault_point(
                    SITE_STORE_LEASE_CRASH,
                    tag=f"{path.parent.name}/{what}",
                    detail=str(path),
                )
                is not None
            ):
                # The holder "dies": its lease file stays on disk with a
                # pid that will never release it — the exact residue a
                # crashed primer leaves for stale-lease reclamation.
                _HELD.discard(path)
                raise InjectedWorkerCrash(
                    f"injected lease-holder crash at {path.name}"
                )
            return True
        return False

    def release_lease(self, key: Hashable, what: str) -> None:
        """Release a lease this process holds (no-op otherwise)."""
        path = self._lease_path(key, what)
        if path not in _HELD:
            return
        _HELD.discard(path)
        try:
            path.unlink()
        except OSError:
            return  # already reclaimed or evicted with the entry

    def heartbeat_lease(self, key: Hashable, what: str) -> None:
        """Refresh a held lease's mtime so long folds never look stale."""
        path = self._lease_path(key, what)
        if path not in _HELD:
            return
        try:
            os.utime(path)
        except OSError:
            _HELD.discard(path)  # lost to reclamation; stop claiming it

    def wait_for_lease(
        self,
        key: Hashable,
        what: str,
        done: Callable[[], bool],
        timeout: float | None = None,
    ) -> bool:
        """Wait for another holder's fold; ``True`` when ``done()`` holds.

        Polls until the artifact lands (``done()``), the lease file
        vanishes (released — the winner's save may have failed, so
        absence does not imply an artifact),
        the lease goes stale, or the bounded wait expires.  ``True``
        counts as an adoption: the caller reads the committed artifact
        instead of folding it again.
        """
        path = self._lease_path(key, what)
        deadline = time.monotonic() + (
            lease_timeout() if timeout is None else timeout
        )
        self.stats.lease_waits += 1
        process_metrics().inc("store.lease_waits")
        with span("store.lease_wait", cat="store", entry=path.parent.name):
            while time.monotonic() < deadline:
                if done():
                    break
                if not path.exists() or self._lease_stale(path):
                    break
                time.sleep(0.05)
        if done():
            self.stats.lease_adoptions += 1
            process_metrics().inc("store.lease_adoptions")
            return True
        return False

    @contextmanager
    def single_flight(
        self,
        key: Hashable,
        what: str,
        done: Callable[[], bool] | None = None,
    ) -> Iterator[bool]:
        """Cross-process single-flight around one artifact fold.

        Yields ``True`` when this process won the lease — the caller
        folds and saves, and the lease is released on exit even if the
        fold raises.  Yields ``False`` after a bounded wait on another
        holder — the caller re-checks the store (``done`` turning true
        means the artifact landed) and folds in-memory otherwise.
        """
        if self.acquire_lease(key, what):
            try:
                yield True
            finally:
                self.release_lease(key, what)
            return
        self.wait_for_lease(key, what, done if done is not None else lambda: False)
        yield False

    def _lease_stale(self, path: Path) -> bool:
        """Whether a lease file no longer protects a live fold."""
        try:
            mtime = path.stat().st_mtime
            payload = json.loads(path.read_text(encoding="utf-8"))
            pid = int(payload["pid"])
        except (OSError, ValueError, KeyError, TypeError):
            # Vanished = released (not stale); present but unreadable =
            # a torn lease write, which only reclamation can clear.
            return path.exists()
        if pid == os.getpid():
            # Our own pid but not held by this process's live handles:
            # a previous incarnation crashed mid-lease and we inherited
            # its pid-slot (in-process retry after InjectedWorkerCrash).
            return path not in _HELD
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True  # holder is dead
        except PermissionError:
            # Alive under another uid; fall through to the age check.
            return (time.time() - mtime) > lease_timeout()
        return (time.time() - mtime) > lease_timeout()

    def _reclaim_lease(self, path: Path) -> None:
        self.stats.lease_reclaims += 1
        process_metrics().inc("store.lease_reclaims")
        emit(
            "store.lease_reclaim",
            "stale lease reclaimed",
            source="store",
            entry=path.parent.name,
            lease=path.name,
        )
        _HELD.discard(path)
        try:
            path.unlink()
        except OSError:
            return  # another contender reclaimed it first

    # ------------------------------------------------------------------
    # inventory (the `repro store` CLI surface)
    # ------------------------------------------------------------------
    def entries(self) -> Iterator[dict]:
        """One inventory row per store entry (committed or in-flight)."""
        if not self.root.is_dir():
            return
        for entry in sorted(self.root.iterdir()):
            if not entry.is_dir():
                continue
            files = [f for f in entry.iterdir() if f.is_file()]
            visible = [f for f in files if not f.name.startswith(".")]
            leases = [f for f in files if f.name.startswith(".lease-")]
            manifest = self._read_json(entry / TRACE_MANIFEST) or {}
            kinds = sorted(
                {f.name.split("-")[0].split(".")[0] for f in visible}
            )
            yield {
                "digest": entry.name,
                "key": manifest.get("key", ""),
                "accesses": int(manifest.get("total", 0)),
                "bytes": sum(f.stat().st_size for f in visible),
                "files": len(visible),
                "artifacts": kinds,
                "leases": [
                    {
                        "what": f.name[len(".lease-"):],
                        "stale": self._lease_stale(f),
                    }
                    for f in leases
                ],
            }

    def remove_entry(self, digest: str) -> bool:
        """Drop one entry directory by digest (the ``store rm`` verb)."""
        entry = self.root / digest
        if not entry.is_dir():
            return False
        self._verified = {p for p in self._verified if p.parent != entry}
        shutil.rmtree(entry, ignore_errors=True)
        return True

    # ------------------------------------------------------------------
    # traces
    # ------------------------------------------------------------------
    def has_trace(self, key: Hashable) -> bool:
        """Whether a committed trace entry exists (manifest present)."""
        return (self.entry_dir(key) / TRACE_MANIFEST).exists()

    def has_entry(self, key: Hashable) -> bool:
        """Whether the store holds *any* committed artifact for this key.

        Weaker than :meth:`has_trace`: a key whose entry already has
        visible files has been primed once, even if an artifact was
        since rejected or its save failed — its cells rebuild what is
        missing under the single-flight leases.  The cold-dispatch
        planner keys off this, so a partial entry does not get
        re-primed through the whole DAG on every warm run.
        """
        entry = self.entry_dir(key)
        if not entry.is_dir():
            return False
        return any(
            f.is_file() and not f.name.startswith(".") for f in entry.iterdir()
        )

    def save_trace(self, key: Hashable, trace: AccessTrace) -> bool:
        """Persist a trace (no-op when the entry already exists).

        The address stream is written *chunk by chunk* straight from the
        trace's phase arrays (:meth:`repro.mem.trace.AccessTrace.
        iter_chunks`) — no flat ``all_addresses`` copy is materialised,
        so saving a multi-GB trace costs zero extra resident bytes and
        the CRC folds incrementally over the same chunks.
        """
        entry = self.entry_dir(key)
        if (entry / TRACE_MANIFEST).exists():
            return False
        total = trace.total_accesses
        try:
            with span("store.save_trace", cat="store", entry=entry.name):
                entry.mkdir(parents=True, exist_ok=True)
                crc = self._commit_trace_stream(
                    entry / TRACE_ARRAY,
                    trace.iter_chunks(TRACE_WRITE_CHUNK_BYTES),
                    total,
                    tag=f"{entry.name}/trace",
                )
                manifest = {
                    "format": FORMAT_VERSION,
                    "key": repr(key),
                    "total": int(total),
                    "crc32": crc,
                    "phases": trace.phase_records(),
                }
                self._commit_json(entry / TRACE_MANIFEST, manifest)
        except OSError:
            return False  # a full/read-only disk degrades to no caching
        self.stats.trace_saves += 1
        process_metrics().inc("store.trace_saves")
        enforce_cache_budget(protect={entry})
        return True

    def load_trace(self, key: Hashable) -> AccessTrace | None:
        """The stored trace as zero-copy mmap views, or ``None``."""
        entry = self.entry_dir(key)
        manifest_path = entry / TRACE_MANIFEST
        manifest = self._read_json(manifest_path)
        if manifest is None:
            return None
        with span("store.load_trace", cat="store", entry=entry.name):
            if manifest.get("format") != FORMAT_VERSION:
                return self._reject_entry(key, "format version mismatch")
            flat = self._load_array(
                entry / TRACE_ARRAY,
                dtype=np.int64,
                shape=(int(manifest.get("total", -1)),),
                crc32=manifest.get("crc32"),
            )
            if flat is None:
                return self._reject_entry(key, "trace array failed validation")
            try:
                trace = AccessTrace.from_columnar(flat, manifest.get("phases", []))
            except (KeyError, ValueError, TypeError, TraceError) as exc:
                # Any malformed phase table means the entry cannot be trusted.
                return self._reject_entry(key, f"bad phase table: {exc}")
        self.stats.trace_loads += 1
        process_metrics().inc("store.trace_loads")
        touch_entry(entry)
        return trace

    # ------------------------------------------------------------------
    # hit masks
    # ------------------------------------------------------------------
    def has_mask(self, key: Hashable, llc_sig: tuple) -> bool:
        return self._mask_paths(key, llc_sig)[1].exists()

    def save_mask(
        self, key: Hashable, llc_sig: tuple, mask: np.ndarray
    ) -> bool:
        """Persist one LLC geometry's hit mask for a stored trace.

        Masks are bit-packed (``np.packbits``) before hitting disk — 8x
        smaller than raw bool — and the sidecar records the unpacked
        length so loads can trim the pad bits.  The CRC covers the
        *packed* bytes (what is actually on disk).
        """
        array_path, sidecar_path = self._mask_paths(key, llc_sig)
        if sidecar_path.exists():
            return False
        mask = np.ascontiguousarray(mask, dtype=np.bool_)
        packed = np.packbits(mask)
        sidecar = {
            "format": FORMAT_VERSION,
            "mask_format": MASK_FORMAT,
            "llc": list(llc_sig),
            "n": int(mask.size),
            "crc32": _crc32(packed),
        }
        try:
            array_path.parent.mkdir(parents=True, exist_ok=True)
            self._commit_array(
                array_path, packed, tag=f"{array_path.parent.name}/mask"
            )
            self._commit_json(sidecar_path, sidecar)
        except OSError:
            return False
        self.stats.mask_saves += 1
        process_metrics().inc("store.mask_saves")
        enforce_cache_budget(protect={array_path.parent})
        return True

    def load_mask(
        self, key: Hashable, llc_sig: tuple, expected_len: int
    ) -> np.ndarray | None:
        """The stored hit mask (unpacked, read-only), or ``None``.

        A sidecar without the current ``mask_format`` stamp — an
        unpacked pre-packing entry — fails validation like any other
        stale artifact and is rebuilt by the caller.
        """
        array_path, sidecar_path = self._mask_paths(key, llc_sig)
        sidecar = self._read_json(sidecar_path)
        if sidecar is None:
            return None
        if (
            sidecar.get("format") != FORMAT_VERSION
            or sidecar.get("mask_format") != MASK_FORMAT
            or sidecar.get("llc") != list(llc_sig)
            or int(sidecar.get("n", -1)) != expected_len
        ):
            return self._reject_files(array_path, sidecar_path, "mask")
        packed = self._load_array(
            array_path,
            dtype=np.uint8,
            shape=((expected_len + 7) // 8,),
            crc32=sidecar.get("crc32"),
        )
        if packed is None:
            return self._reject_files(array_path, sidecar_path, "mask")
        mask = np.unpackbits(np.asarray(packed), count=expected_len).view(np.bool_)
        mask.flags.writeable = False
        self.stats.mask_loads += 1
        process_metrics().inc("store.mask_loads")
        touch_entry(array_path.parent)
        return mask

    # ------------------------------------------------------------------
    # compiled profiles
    # ------------------------------------------------------------------
    def has_profile(self, key: Hashable, llc_sig: tuple) -> bool:
        return self._profile_paths(key, llc_sig)[1].exists()

    def save_profile(
        self, key: Hashable, llc_sig: tuple, profile: TraceProfile
    ) -> bool:
        """Persist one LLC geometry's compiled miss profile.

        The CSR pages/counts pair lands as one stacked ``int64 [2, nnz]``
        array (mmap-shareable like traces and masks); the per-phase
        metadata rides in the JSON sidecar together with the array CRC.
        """
        array_path, sidecar_path = self._profile_paths(key, llc_sig)
        if sidecar_path.exists():
            return False
        stacked, record = profile_to_columnar(profile)
        sidecar = {
            "format": FORMAT_VERSION,
            "llc": list(llc_sig),
            "crc32": _crc32(stacked),
            **record,
        }
        try:
            array_path.parent.mkdir(parents=True, exist_ok=True)
            self._commit_array(
                array_path, stacked, tag=f"{array_path.parent.name}/profile"
            )
            self._commit_json(sidecar_path, sidecar)
        except OSError:
            return False
        self.stats.profile_saves += 1
        process_metrics().inc("store.profile_saves")
        enforce_cache_budget(protect={array_path.parent})
        return True

    def load_profile(
        self,
        key: Hashable,
        llc_sig: tuple,
        *,
        expected_phases: int,
        expected_accesses: int,
    ) -> TraceProfile | None:
        """The stored profile (CSR arrays as mmap views), or ``None``.

        ``expected_phases``/``expected_accesses`` come from the trace the
        caller is about to price; a stored profile describing a different
        trace shape is stale and rejected like any corrupt entry.
        """
        array_path, sidecar_path = self._profile_paths(key, llc_sig)
        sidecar = self._read_json(sidecar_path)
        if sidecar is None:
            return None
        if (
            sidecar.get("format") != FORMAT_VERSION
            or sidecar.get("llc") != list(llc_sig)
        ):
            return self._reject_files(array_path, sidecar_path, "profile")
        try:
            nnz = int(sidecar.get("nnz", -1))
        except (TypeError, ValueError):
            return self._reject_files(array_path, sidecar_path, "profile")
        if nnz < 0:
            return self._reject_files(array_path, sidecar_path, "profile")
        stacked = self._load_array(
            array_path,
            dtype=np.int64,
            shape=(2, nnz),
            crc32=sidecar.get("crc32"),
        )
        if stacked is None:
            return self._reject_files(array_path, sidecar_path, "profile")
        try:
            profile = profile_from_columnar(stacked, sidecar)
        except TraceError:
            return self._reject_files(array_path, sidecar_path, "profile")
        if (
            profile.n_phases != expected_phases
            or profile.total_accesses != expected_accesses
        ):
            return self._reject_files(array_path, sidecar_path, "profile")
        self.stats.profile_loads += 1
        process_metrics().inc("store.profile_loads")
        touch_entry(array_path.parent)
        return profile

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _commit_array(self, path: Path, array: np.ndarray, *, tag: str) -> None:
        """Atomic tempfile+rename commit of one ``.npy`` array.

        The ``cache.store_torn`` fault truncates the temp file before the
        rename — committing a torn array under an intact manifest, the
        exact state a crashed non-atomic writer (or a lost flush) leaves
        behind and the load-side CRC guard must reject.
        """
        global _TMP_SEQ
        _TMP_SEQ += 1
        tmp = path.parent / f".{path.name}.{os.getpid()}.{_TMP_SEQ}.tmp"
        with open(tmp, "wb") as handle:
            np.save(handle, array)
            if int(array.nbytes) >= FSYNC_BYTES:
                handle.flush()
                os.fsync(handle.fileno())
        if fault_point(SITE_STORE_TORN, tag=tag, detail=str(path)) is not None:
            size = tmp.stat().st_size
            with open(tmp, "r+b") as handle:
                handle.truncate(max(1, size // 2))
        os.replace(tmp, path)

    def _commit_trace_stream(
        self,
        path: Path,
        chunks: Iterable[np.ndarray],
        total: int,
        *,
        tag: str,
    ) -> int:
        """Atomic commit of one int64 ``.npy`` written chunk-by-chunk.

        Hand-writes the 1.0 array header (``np.load`` reads it exactly
        like ``np.save``'s output) and streams each chunk's buffer, so
        the flat address array never exists in memory.  Returns the
        CRC32 folded over the chunk bytes — identical to the CRC of the
        concatenated array, so load-side verification is unchanged.
        """
        global _TMP_SEQ
        _TMP_SEQ += 1
        tmp = path.parent / f".{path.name}.{os.getpid()}.{_TMP_SEQ}.tmp"
        header = {
            "descr": np.lib.format.dtype_to_descr(np.dtype(np.int64)),
            "fortran_order": False,
            "shape": (int(total),),
        }
        crc = 0
        written = 0
        with open(tmp, "wb") as handle:
            np.lib.format.write_array_header_1_0(handle, header)
            for chunk in chunks:
                chunk = np.ascontiguousarray(chunk, dtype=np.int64)
                crc = zlib.crc32(chunk.view(np.uint8).data, crc)
                handle.write(chunk.data)
                written += chunk.size
            if written * 8 >= FSYNC_BYTES:
                handle.flush()
                os.fsync(handle.fileno())
        if written != int(total):
            tmp.unlink()
            raise TraceError(
                f"trace chunks yielded {written} accesses, header promised "
                f"{total}"
            )
        if fault_point(SITE_STORE_TORN, tag=tag, detail=str(path)) is not None:
            size = tmp.stat().st_size
            with open(tmp, "r+b") as handle:
                handle.truncate(max(1, size // 2))
        os.replace(tmp, path)
        return crc

    def _commit_json(self, path: Path, payload: dict) -> None:
        global _TMP_SEQ
        _TMP_SEQ += 1
        tmp = path.parent / f".{path.name}.{os.getpid()}.{_TMP_SEQ}.tmp"
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, path)

    def _read_json(self, path: Path) -> dict | None:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return payload if isinstance(payload, dict) else None

    def _load_array(
        self, path: Path, *, dtype, shape: tuple, crc32
    ) -> np.ndarray | None:
        """mmap one array file; validate shape/dtype/CRC (once per process)."""
        try:
            array = np.load(path, mmap_mode="r")
        except (OSError, ValueError, EOFError):
            return None
        if array.dtype != dtype or array.shape != tuple(shape):
            return None
        if path not in self._verified:
            if not isinstance(crc32, int) or _crc32(array) != crc32:
                return None
            self._verified.add(path)
        return array

    def _reject_entry(self, key: Hashable, reason: str) -> None:
        """Drop a whole entry that failed validation; caller recomputes."""
        self.stats.rejects += 1
        process_metrics().inc("store.rejects")
        entry = self.entry_dir(key)
        emit("store.reject", reason, source="store", entry=entry.name)
        self._verified = {p for p in self._verified if p.parent != entry}
        shutil.rmtree(entry, ignore_errors=True)
        return None

    def _reject_files(
        self, array_path: Path, sidecar_path: Path, what: str
    ) -> None:
        """Drop one per-LLC artifact (mask/profile) pair; caller rebuilds."""
        self.stats.rejects += 1
        process_metrics().inc("store.rejects")
        emit(
            "store.reject",
            f"{what} failed validation",
            source="store",
            entry=array_path.parent.name,
        )
        for path in (sidecar_path, array_path):
            self._verified.discard(path)
            try:
                path.unlink()
            except OSError:
                continue
        return None


# ----------------------------------------------------------------------
# process-wide store handle
# ----------------------------------------------------------------------
_PROCESS_STORE: TraceStore | None = None
_PROCESS_ROOT: Path | None = None


def process_trace_store() -> TraceStore | None:
    """The per-process store bound to ``REPRO_TRACE_STORE`` (or ``None``).

    Re-resolved when the environment variable changes, so tests and the
    CLI can re-point the store mid-process.
    """
    global _PROCESS_STORE, _PROCESS_ROOT
    root = store_root()
    if root is None:
        _PROCESS_STORE = None
        _PROCESS_ROOT = None
        return None
    if _PROCESS_STORE is None or _PROCESS_ROOT != root:
        _PROCESS_STORE = TraceStore(root)
        _PROCESS_ROOT = root
    return _PROCESS_STORE
