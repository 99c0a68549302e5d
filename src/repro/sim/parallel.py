"""Parallel experiment engine: process-pool fan-out of experiment cells.

The paper's evaluation is a large grid — apps x datasets x placements,
plus parameter sweeps — and every cell is *independent*: it builds its own
simulated memory system, registers a fresh application, and reports its
own result.  This module fans those cells out across worker processes:

- :class:`AppSpec` — a picklable, callable recipe for an application
  (app name, dataset name, scale, constructor kwargs).  It satisfies the
  ``app_factory`` contract of :mod:`repro.sim.experiment`, so the same
  object drives serial and parallel runs.
- :class:`JobSpec` — one experiment cell: an app spec, a platform, a flow
  (``static`` / ``atmem`` / ``coarse`` / ``cell`` / ``multitenant``), and
  the cell's knobs.  Specs are frozen, hashable, and picklable.
- :class:`ExperimentPool` — runs a batch of specs on a
  ``ProcessPoolExecutor``, collecting results in submission order.  A
  worker failure surfaces as :class:`ExperimentJobError` with the failing
  spec attached.  ``max_workers=1`` (or a pool that cannot start) falls
  back to in-process serial execution of the *same* job path.

The pool is **self-healing**: each job gets a wall-clock budget
(``REPRO_JOB_TIMEOUT`` seconds; unset disables) and a bounded retry
budget (``REPRO_JOB_RETRIES``, default 2) with exponential backoff
(``REPRO_JOB_BACKOFF`` base seconds).  A job that crashes is retried; a
worker that dies outright (``BrokenProcessPool``) or hangs past the
timeout gets the whole pool killed and re-created, with every unfinished
job resubmitted at the next attempt number.  Attempt numbers feed the
:mod:`repro.faults` job context, so chaos faults gated on ``max_attempt``
fire exactly once and the retried batch converges to fault-free results
(jobs re-seed their RNG from spec content, so a rerun is bit-identical).
:class:`PoolHealth` on the pool records timeouts, crashes, retries, and
pool restarts for post-run inspection.

The pool is **cache-aware**: before fanning out it derives a dispatch
plan from the jobs' trace keys and the persistent trace store
(:mod:`repro.sim.tracestore`).  Store-cold keys go through the **cold
pipeline** first: each key is decomposed into a *trace* stage (build the
raw trace and land it in the store) and a *fold* stage (load it back as
a shared mmap and derive the hit mask and miss profile), chained
completion-driven so a key's fold starts the moment its trace lands and
its cells dispatch store-warm right after.  Cold-stage concurrency is
**admission-clamped** to the machine (``REPRO_POOL_CPUS``, default the
CPU count) and to the worker memory budget (``REPRO_WORKER_BYTES`` over
the largest projected trace); a clamp of one is the same pipeline run
one stage at a time.  Every cell then fans out in one
longest-expected-first wave.  The parent also pre-builds every
referenced dataset and publishes its CSR arrays as read-only
shared-memory segments (:mod:`repro.graph.shm`), released in a
``finally`` even when workers crash.  Per-job cache telemetry (cold /
warm / warm-from-store), the admission decision, and peak worker RSS
land in :class:`PoolHealth` and the ``BENCH_parallel.json`` records.

Determinism: every job runs :func:`execute_job`, which seeds NumPy's
global RNG from the spec's content hash before executing, and all model
randomness (sampling profiler, dataset generators) is already locally
seeded.  Workers share no *mutable* state — each process keeps its own
memoised datasets and :class:`repro.sim.tracecache.TraceCache`, and the
shared store/segments hold immutable content-keyed artifacts — so a
parallel grid is bit-identical to a serial one regardless of dispatch
order (results are indexed by submission order; see
``tests/test_sim_parallel.py``).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys
import time
import traceback
import zlib
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from repro.config import PlatformConfig
from repro.core.runtime import RuntimeConfig
from repro.errors import ConfigurationError, ReproError
from repro.faults.injector import (
    InjectedWorkerCrash,
    fault_point,
    is_injected,
    job_context,
)
from repro.faults.plan import SITE_POOL_CRASH, SITE_POOL_EXIT, SITE_POOL_HANG
from repro.graph import shm as graph_shm
from repro.mem.trace import worker_byte_budget
from repro.obs import absorb_all, drain_all, reset_all
from repro.obs.bus import Event, process_bus
from repro.obs.context import SpanContext
from repro.obs.metrics import process_metrics
from repro.obs.tracer import (
    append_jsonl,
    process_tracer,
    sidecar_path,
    span,
    trace_path,
)
from repro.sim.experiment import (
    AtMemRunResult,
    StaticRunResult,
    run_atmem,
    run_coarse_grained,
    run_static,
)
from repro.sim.tracecache import TraceCache, process_trace_cache
from repro.sim.tracestore import process_trace_store

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Per-job wall-clock budget in seconds (unset / <= 0 disables).
JOB_TIMEOUT_ENV = "REPRO_JOB_TIMEOUT"

#: Retries per failed / timed-out job (default 2).
JOB_RETRIES_ENV = "REPRO_JOB_RETRIES"

#: Base seconds of the exponential retry backoff (default 0.05).
JOB_BACKOFF_ENV = "REPRO_JOB_BACKOFF"

#: How long an injected ``pool.hang`` sleeps when the spec has no param.
DEFAULT_HANG_SECONDS = 30.0

#: CPU count the cold-admission clamp believes in (default: the machine's).
#: Overridable so tests can exercise the multicore staged DAG on one core
#: and the bench harness can pin a reproducible width.
POOL_CPUS_ENV = "REPRO_POOL_CPUS"

#: Environment variable overriding where wall-clock timings are recorded.
PARALLEL_JSON_ENV = "REPRO_PARALLEL_JSON"

#: Default timing-record file (relative to the current directory).
PARALLEL_JSON_DEFAULT = "BENCH_parallel.json"

FLOWS = ("static", "atmem", "coarse", "cell", "multitenant")


def resolve_jobs(jobs: int | None = None) -> int:
    """The effective worker count: explicit arg, else ``REPRO_JOBS``, else 1."""
    if jobs is not None:
        return max(1, int(jobs))
    raw = os.environ.get(JOBS_ENV)
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ConfigurationError(
                f"{JOBS_ENV} must be an integer, got {raw!r}"
            ) from None
    return 1


def pool_cpus() -> int:
    """How many CPUs cold stages may assume (``REPRO_POOL_CPUS`` override).

    Worker *count* is a user choice; cold-stage *concurrency* is an
    admission decision — priming jobs are CPU- and memory-bound, so
    running more of them than there are cores only adds contention.
    """
    raw = os.environ.get(POOL_CPUS_ENV)
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{POOL_CPUS_ENV} must be an integer, got {raw!r}"
            ) from None
        if value > 0:
            return value
        raise ConfigurationError(f"{POOL_CPUS_ENV} must be >= 1, got {value}")
    return os.cpu_count() or 1


# ----------------------------------------------------------------------
# specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AppSpec:
    """Picklable application recipe; calling it instantiates the app.

    Datasets are resolved by name in whatever process the spec is called
    in (memoised per process by :mod:`repro.graph.datasets`), so shipping
    an ``AppSpec`` to a worker costs a few hundred bytes, not a graph.
    """

    app: str
    dataset: str
    scale: int = 1024
    kwargs: tuple[tuple[str, Any], ...] = ()
    dataset_seed: int = 7

    @classmethod
    def make(
        cls, app: str, dataset: str, *, scale: int = 1024, dataset_seed: int = 7, **kwargs
    ) -> "AppSpec":
        """Build a spec from plain constructor kwargs."""
        return cls(
            app=app,
            dataset=dataset,
            scale=scale,
            dataset_seed=dataset_seed,
            kwargs=tuple(sorted(kwargs.items())),
        )

    def trace_key(self) -> tuple:
        """Content key of this app's deterministic access trace."""
        return (self.app, self.dataset, self.scale, self.kwargs, self.dataset_seed)

    def to_json(self) -> dict:
        """JSON-safe form for journals; inverse of :meth:`from_json`.

        ``kwargs`` values must themselves be JSON-representable scalars
        (they are, for every app the registry ships); tuples inside
        kwargs would come back as lists and change the trace key.
        """
        return {
            "app": self.app,
            "dataset": self.dataset,
            "scale": self.scale,
            "kwargs": [[k, v] for k, v in self.kwargs],
            "dataset_seed": self.dataset_seed,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "AppSpec":
        """Rebuild a spec from :meth:`to_json` output (bit-identical key)."""
        return cls(
            app=str(payload["app"]),
            dataset=str(payload["dataset"]),
            scale=int(payload["scale"]),
            kwargs=tuple((str(k), v) for k, v in payload.get("kwargs", [])),
            dataset_seed=int(payload.get("dataset_seed", 7)),
        )

    def expected_cost(self) -> float:
        """Relative cold cost of tracing this app (bigger graph = costlier)."""
        from repro.graph.datasets import PAPER_SIZES

        _, paper_edges = PAPER_SIZES.get(self.dataset, (0, 30_000_000))
        return paper_edges / max(1, self.scale)

    def __call__(self):
        from repro.apps import make_app
        from repro.graph.datasets import dataset_by_name

        graph = dataset_by_name(self.dataset, scale=self.scale, seed=self.dataset_seed)
        return make_app(self.app, graph, **dict(self.kwargs))


@dataclass(frozen=True)
class JobSpec:
    """One experiment cell, fully described by picklable values.

    ``flow`` selects the experiment:

    - ``"static"`` — :func:`repro.sim.experiment.run_static` under
      ``placement``;
    - ``"atmem"`` — the full ATMem flow with ``runtime_config``;
    - ``"coarse"`` — the whole-object baseline;
    - ``"cell"`` — one overall-grid cell: baseline (all-slow), reference
      (``placement``), and ATMem, sharing one trace-cache entry;
    - ``"multitenant"`` — a shared-host scenario over ``tenants``.

    ``value`` and ``tag`` are caller bookkeeping (sweep coordinate, series
    label) carried through untouched.
    """

    app: AppSpec | None
    platform: PlatformConfig
    flow: str = "atmem"
    placement: str = "slow"
    runtime_config: RuntimeConfig | None = None
    count_tlb: bool = False
    value: float | None = None
    seed: int | None = None
    tag: str = ""
    tenants: tuple[tuple[str, AppSpec], ...] = ()

    def __post_init__(self) -> None:
        if self.flow not in FLOWS:
            raise ConfigurationError(
                f"unknown flow {self.flow!r}; expected one of {FLOWS}"
            )
        if self.flow == "multitenant":
            if not self.tenants:
                raise ConfigurationError("multitenant flow requires tenants")
        elif self.app is None:
            raise ConfigurationError(f"flow {self.flow!r} requires an app spec")

    def trace_key(self) -> tuple:
        """Content key of the app's deterministic access trace."""
        app = self.app
        if app is None:
            return ("multitenant", self.tenants)
        return app.trace_key()

    def dataset_keys(self) -> set[tuple[str, int, int]]:
        """Every ``(dataset, scale, seed)`` this job resolves."""
        apps = [self.app] if self.app is not None else []
        apps.extend(app for _, app in self.tenants)
        return {(app.dataset, app.scale, app.dataset_seed) for app in apps}

    def expected_cost(self) -> float:
        """Relative wall-clock estimate used to order dispatch.

        Flows re-run the traced app a different number of times: a
        ``cell`` is three full runs (baseline / reference / ATMem), the
        single flows roughly two (profile + measure), multitenant two per
        tenant.  Only the *ordering* matters, so crude weights suffice.
        """
        weight = {"cell": 3.0, "static": 2.0, "atmem": 2.0, "coarse": 2.0}
        if self.flow == "multitenant":
            return sum(app.expected_cost() * 2.0 for _, app in self.tenants)
        return (self.app.expected_cost() if self.app else 1.0) * weight.get(
            self.flow, 2.0
        )

    def job_seed(self) -> int:
        """Deterministic per-job seed, independent of scheduling order."""
        if self.seed is not None:
            return self.seed
        blob = repr(
            (
                self.trace_key(),
                self.platform.name,
                self.flow,
                self.placement,
                self.runtime_config,
                self.count_tlb,
                self.value,
                self.tag,
            )
        ).encode()
        return zlib.crc32(blob)


@dataclass
class CellResult:
    """Baseline / reference / ATMem triple for one overall-grid cell."""

    baseline: StaticRunResult
    reference: StaticRunResult
    atmem: AtMemRunResult

    @property
    def speedup(self) -> float:
        """ATMem speedup over the all-slow baseline."""
        return self.baseline.seconds / self.atmem.seconds

    @property
    def slowdown_vs_reference(self) -> float:
        """ATMem time relative to the reference placement."""
        return self.atmem.seconds / self.reference.seconds


class ExperimentJobError(ReproError):
    """A worker failed; carries the failing spec and the worker traceback."""

    def __init__(self, spec: JobSpec, kind: str, message: str, worker_tb: str = "") -> None:
        self.spec = spec
        self.kind = kind
        self.worker_traceback = worker_tb
        super().__init__(f"experiment job failed ({kind}: {message}) for spec {spec!r}")


# ----------------------------------------------------------------------
# job execution (shared by workers and the serial fallback)
# ----------------------------------------------------------------------
def execute_job(spec: JobSpec, *, trace_cache: TraceCache | None = None):
    """Run one job in the current process.

    Seeds the global NumPy RNG from the spec content first, so any code
    that (incorrectly) reaches for global randomness still behaves
    identically regardless of which worker runs the job or in what order.
    """
    np.random.seed(spec.job_seed() & 0x7FFFFFFF)
    cache = process_trace_cache() if trace_cache is None else trace_cache
    key = spec.trace_key()
    if spec.flow == "static":
        return run_static(
            spec.app,
            spec.platform,
            spec.placement,
            count_tlb=spec.count_tlb,
            trace_cache=cache,
            trace_key=key,
        )
    if spec.flow == "atmem":
        return run_atmem(
            spec.app,
            spec.platform,
            runtime_config=spec.runtime_config,
            count_tlb=spec.count_tlb,
            trace_cache=cache,
            trace_key=key,
        )
    if spec.flow == "coarse":
        return run_coarse_grained(
            spec.app, spec.platform, trace_cache=cache, trace_key=key
        )
    if spec.flow == "cell":
        return CellResult(
            baseline=run_static(
                spec.app, spec.platform, "slow",
                count_tlb=spec.count_tlb, trace_cache=cache, trace_key=key,
            ),
            reference=run_static(
                spec.app, spec.platform, spec.placement,
                count_tlb=spec.count_tlb, trace_cache=cache, trace_key=key,
            ),
            atmem=run_atmem(
                spec.app, spec.platform,
                runtime_config=spec.runtime_config,
                count_tlb=spec.count_tlb, trace_cache=cache, trace_key=key,
            ),
        )
    # multitenant: imported lazily to avoid a module cycle.
    from repro.sim.multitenant import MultiTenantHost

    host = MultiTenantHost(
        spec.platform,
        runtime_config=spec.runtime_config or RuntimeConfig(),
        trace_cache=cache,
    )
    for name, app_spec in spec.tenants:
        host.admit(name, app_spec)
    return host.run()


def job_timeout() -> float | None:
    """Per-job wall-clock budget from ``REPRO_JOB_TIMEOUT`` (``None``: off)."""
    raw = os.environ.get(JOB_TIMEOUT_ENV)
    if raw is None or raw == "":
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{JOB_TIMEOUT_ENV} must be a number of seconds, got {raw!r}"
        ) from None
    return value if value > 0 else None


def job_retries() -> int:
    """Retries per failed job from ``REPRO_JOB_RETRIES`` (default 2)."""
    raw = os.environ.get(JOB_RETRIES_ENV)
    if raw is None or raw == "":
        return 2
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{JOB_RETRIES_ENV} must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ConfigurationError(f"{JOB_RETRIES_ENV} must be >= 0, got {value}")
    return value


def job_backoff() -> float:
    """Base seconds of the retry backoff from ``REPRO_JOB_BACKOFF``."""
    raw = os.environ.get(JOB_BACKOFF_ENV)
    if raw is None or raw == "":
        return 0.05
    try:
        value = float(raw)
    except ValueError:
        raise ConfigurationError(
            f"{JOB_BACKOFF_ENV} must be a number of seconds, got {raw!r}"
        ) from None
    return max(0.0, value)


@dataclass
class PoolHealth:
    """What it took to finish the batch: every recovery, counted."""

    timeouts: int = 0
    crashes: int = 0
    retries: int = 0
    pool_restarts: int = 0
    serial_fallbacks: int = 0
    #: Jobs that had to build a trace or simulate an LLC mask themselves.
    cold_jobs: int = 0
    #: Jobs served entirely from in-memory cache entries.
    warm_jobs: int = 0
    #: Jobs that loaded at least one artifact from the persistent store.
    store_jobs: int = 0
    #: Store-cold trace keys the dispatch plan had to prime.
    cold_keys: int = 0
    #: Cold-stage concurrency after the admission clamp (0: no cold plan).
    cold_admitted: int = 0
    #: Peak worker RSS in bytes reported by any worker this run (0: none
    #: reported — serial runs, or a platform without ``getrusage``).
    max_worker_rss_bytes: int = 0
    notes: list[str] = field(default_factory=list)

    def note(self, message: str) -> None:
        self.notes.append(message)

    @property
    def clean(self) -> bool:
        """True when the batch needed no recovery at all."""
        return (
            self.timeouts == 0
            and self.crashes == 0
            and self.retries == 0
            and self.pool_restarts == 0
        )

    def as_dict(self) -> dict:
        return {
            "timeouts": self.timeouts,
            "crashes": self.crashes,
            "retries": self.retries,
            "pool_restarts": self.pool_restarts,
            "serial_fallbacks": self.serial_fallbacks,
            "cold_jobs": self.cold_jobs,
            "warm_jobs": self.warm_jobs,
            "store_jobs": self.store_jobs,
            "cold_keys": self.cold_keys,
            "cold_admitted": self.cold_admitted,
            "max_worker_rss_bytes": self.max_worker_rss_bytes,
            "notes": list(self.notes),
        }

    def tally_cache_use(self, kind: str | None) -> None:
        """Count one finished job's cache behaviour (``None``: unknown)."""
        if kind == "cold":
            self.cold_jobs += 1
        elif kind == "store":
            self.store_jobs += 1
        elif kind == "warm":
            self.warm_jobs += 1


@dataclass
class _Job:
    """Parent-side tracking record for one spec in flight."""

    spec: JobSpec
    index: int
    attempt: int = 0


def _cache_snapshot() -> tuple[int, int, int, int]:
    """The process cache counters that classify a job's cache behaviour."""
    stats = process_trace_cache().stats
    return (
        stats.trace_misses,
        stats.store_trace_hits,
        stats.mask_misses,
        stats.store_mask_hits,
    )


def _classify_cache_use(
    before: tuple[int, int, int, int], after: tuple[int, int, int, int]
) -> str:
    """``cold`` built something, ``store`` loaded from disk, else ``warm``.

    A trace build is a ``trace_misses`` increment *not* matched by a
    ``store_trace_hits`` increment (same for masks), per the counting in
    :class:`repro.sim.tracecache.TraceCache`.
    """
    d_miss, d_store_t, d_mask_miss, d_store_m = (
        a - b for a, b in zip(after, before)
    )
    built = (d_miss - d_store_t) + (d_mask_miss - d_store_m)
    if built > 0:
        return "cold"
    if d_store_t > 0 or d_store_m > 0:
        return "store"
    return "warm"


def _flush_worker_sidecar(blob: dict) -> None:
    """Persist a worker's drained spans to its per-pid sidecar file.

    The payload blob is the primary channel home, but a worker killed
    after the job (or a parent that dies before absorbing) loses it —
    the sidecar survives on disk and ``repro trace --merge`` folds it
    back in, deduplicating against whatever the blob delivered.
    """
    spans = blob.get("spans") if blob else None
    if not spans:
        return
    primary = trace_path()
    if primary is None:
        return
    try:
        append_jsonl(sidecar_path(primary), spans)
    except OSError as exc:
        process_bus().emit(
            "pool.note", f"span sidecar write failed: {exc}", source="pool"
        )


def _pool_entry(spec: JobSpec, attempt: int = 0, ctx: dict | None = None):
    """Worker-side wrapper: never lets an exception cross unpickled.

    ``attempt`` is the parent-tracked retry number; it scopes the
    :mod:`repro.faults` job context so ``max_attempt``-gated pool faults
    disarm on retry even though a fresh worker process has fresh firing
    counters.  The three pool sites model the three worker pathologies:
    an exception (``pool.crash``), sudden death (``pool.exit`` —
    ``os._exit``, which the parent sees as ``BrokenProcessPool``), and a
    hang (``pool.hang`` — sleeps ``param`` seconds, which the parent's
    job timeout must catch).

    Observability contract: the worker's obs state is **reset at entry**
    (fork-inherited parent buffers must not double-ship) and **drained at
    exit** into the payload's final element — events, metric deltas, and
    spans — which the parent absorbs in ``_settle``.  The job's cache-use
    classification (cold / store / warm) rides home as a buffered
    ``pool.cache_use`` event, so parent-side health accounting comes from
    worker-buffered events rather than parent mutation.

    ``ctx`` is the submitting span's context dict (when tracing is on):
    activated on the fresh tracer, it re-parents every span this job
    opens under the parent-side ``pool.submit`` instant, so the merged
    export renders one causal tree per figure cell across the fork.
    """
    reset_all()
    if ctx is not None:
        process_tracer().activate(SpanContext.from_dict(ctx))
    try:
        with job_context(attempt=attempt, tag=spec.tag):
            fired = fault_point(SITE_POOL_EXIT, tag=spec.tag, detail="worker exit")
            if fired is not None:
                os._exit(int(fired.param) if fired.param else 17)
            fired = fault_point(SITE_POOL_HANG, tag=spec.tag, detail="worker hang")
            if fired is not None:
                time.sleep(fired.param if fired.param else DEFAULT_HANG_SECONDS)
            fired = fault_point(SITE_POOL_CRASH, tag=spec.tag, detail="worker crash")
            if fired is not None:
                raise InjectedWorkerCrash(
                    f"injected crash in job {spec.tag or spec.flow!r} "
                    f"(attempt {attempt})"
                )
            before = _cache_snapshot()
            with span(
                "pool.job",
                cat="pool",
                tag=spec.tag or spec.flow,
                attempt=attempt,
            ):
                result = execute_job(spec)
            kind = _classify_cache_use(before, _cache_snapshot())
            process_bus().emit(
                "pool.cache_use", kind, source="pool", tag=spec.tag
            )
            process_metrics().inc(f"pool.{kind}_jobs")
            _emit_worker_rss()
            blob = drain_all()
            _flush_worker_sidecar(blob)
            return ("ok", result, blob)
    except Exception as exc:  # noqa: BLE001 — re-raised with spec in parent
        blob = drain_all()
        _flush_worker_sidecar(blob)
        return (
            "err", type(exc).__name__, str(exc), traceback.format_exc(),
            blob,
        )


def _submission_ctx(job: "_Job") -> dict | None:
    """Mint and record the causal context for one job submission.

    Records a ``pool.submit`` instant (a child of whatever span is
    active — the dispatch span on the parallel path) and returns its
    context as a picklable dict for :func:`_pool_entry` to activate.
    ``None`` when tracing is off, so nothing extra crosses the fork.
    """
    tracer = process_tracer()
    if not tracer.enabled:
        return None
    ctx = tracer.submission(
        "pool.submit",
        cat="pool",
        tag=job.spec.tag or job.spec.flow,
        index=job.index,
        attempt=job.attempt,
    )
    return ctx.as_dict() if ctx is not None else None


# ----------------------------------------------------------------------
# cold-path priming stages
# ----------------------------------------------------------------------
def _emit_worker_rss() -> None:
    """Buffer this process's peak RSS for the parent's health accounting.

    The amount rides the obs blob home as a ``pool.worker_rss`` event and
    max-folds into :attr:`PoolHealth.max_worker_rss_bytes` — the evidence
    behind the bench-row claim that chunked streaming folds keep workers
    under ``REPRO_WORKER_BYTES``.  ``ru_maxrss`` is kilobytes on Linux
    and bytes on macOS.
    """
    try:
        import resource
    except ImportError:
        return
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = 1 if sys.platform == "darwin" else 1024
    process_bus().emit(
        "pool.worker_rss",
        source="pool",
        amount=float(rss) * scale,
    )


def _registered_app(spec: JobSpec):
    """The spec's app, registered on a throwaway runtime, plus its system.

    ``run_once`` requires registration first (virtual addresses are
    assigned in registration order).  Placement does not affect trace
    content — addresses are virtual — so priming registers everything on
    the slow tier like the baseline flow does.
    """
    from repro.core.runtime import AtMemRuntime

    system = spec.platform.build_system()
    runtime = AtMemRuntime(system, platform=spec.platform)
    runtime.default_tier = system.slow_tier
    app = spec.app()
    app.register(runtime)
    return app, system


def _stage_build_trace(spec: JobSpec) -> None:
    """DAG stage 1: build one cold key's trace and land it in the store.

    Both stages work through a memory-less cache (``max_traces=0``): the
    artifacts' home is the store, so nothing a stage builds stays
    resident in the worker afterwards (one key deep, however many stages
    the worker runs), and entries the worker inherited from the parent's
    cache through fork cannot stand in for a store write.  The cache
    persists the trace it builds; the explicit ``save_trace`` (a no-op
    once the entry is committed) covers the one case it does not — a
    lease loser that built in memory after a failed wait — since the
    fold stage may run in a different worker and loads from disk.
    """
    cache = TraceCache(max_traces=0)
    key = spec.trace_key()
    app, _ = _registered_app(spec)
    trace = cache.trace(key, app.run_once)
    if cache.store is not None:
        cache.store.save_trace(key, trace)


def _stage_fold_artifacts(spec: JobSpec) -> None:
    """DAG stage 2: derive one cold key's fold artifacts from its trace.

    Loads the trace back (a shared mmap when stage 1 persisted it in this
    store, a rebuild otherwise) and folds the LLC hit mask and page miss
    profile through a memory-less cache (see :func:`_stage_build_trace`),
    which persists each one.  After this stage the key's cells dispatch
    store-warm.
    """
    cache = TraceCache(max_traces=0)
    key = spec.trace_key()

    def builder():
        app, _ = _registered_app(spec)
        return app.run_once()

    system = spec.platform.build_system()
    trace = cache.trace(key, builder)
    hits = cache.hit_mask(key, system.llc, trace)
    cache.profile(key, system.llc, trace, hits)


def _stage_entry(
    stage: str, spec: JobSpec, attempt: int = 0, ctx: dict | None = None
):
    """Worker-side wrapper for one priming stage (mirrors ``_pool_entry``).

    Same obs contract — reset at entry, drain into the payload — and the
    same never-raise rule, but no pool fault sites: priming is best
    effort, so a failed stage is reported and *not* retried (the key's
    cells rebuild whatever is missing).
    """
    reset_all()
    if ctx is not None:
        process_tracer().activate(SpanContext.from_dict(ctx))
    try:
        with job_context(attempt=attempt, tag=spec.tag):
            with span(
                "pool.stage",
                cat="pool",
                stage=stage,
                tag=spec.tag or spec.flow,
                attempt=attempt,
            ):
                if stage == "trace":
                    _stage_build_trace(spec)
                else:
                    _stage_fold_artifacts(spec)
            _emit_worker_rss()
            blob = drain_all()
            _flush_worker_sidecar(blob)
            return ("ok", None, blob)
    except Exception as exc:  # noqa: BLE001 — reported best-effort in parent
        blob = drain_all()
        _flush_worker_sidecar(blob)
        return (
            "err", type(exc).__name__, str(exc), traceback.format_exc(),
            blob,
        )


@dataclass
class _ColdPlan:
    """Store-cold keys to prime, and how wide the cold stages may run."""

    #: One representative (heaviest) job per store-cold trace key.
    jobs_by_key: dict
    #: Cold-stage concurrency after the admission clamp.
    admitted: int


# ----------------------------------------------------------------------
# the pool
# ----------------------------------------------------------------------
class ExperimentPool:
    """Fan a batch of :class:`JobSpec` out across worker processes.

    Results come back in submission order.  With ``max_workers=1``, a
    single-spec batch, or a pool that fails to start (sandboxed
    environments, missing semaphores), execution degrades to an in-process
    serial loop over the *same* :func:`execute_job` path, so results are
    identical either way.

    Recovery, in escalating order:

    - a job whose worker returns an ``err`` payload is resubmitted up to
      ``REPRO_JOB_RETRIES`` times with exponential backoff;
    - a job that exceeds ``REPRO_JOB_TIMEOUT`` or whose worker dies
      (``BrokenProcessPool``) gets the executor killed and re-created,
      with *every* unfinished job resubmitted one attempt later — the
      attempt bump is what bounds crash rounds, because chaos faults
      gate on ``max_attempt`` in the parent-tracked attempt number;
    - a pool that cannot be restarted (restart budget exhausted or the
      host refuses new pools) falls back to the serial path for whatever
      is still unfinished.

    Jobs are side-effect free and content-seeded, so a retried or
    serially-rerun job is bit-identical to its first try.  The tally of
    recoveries lands in :attr:`health`.
    """

    def __init__(self, max_workers: int | None = None) -> None:
        self.max_workers = resolve_jobs(max_workers)
        #: Filled after each :meth:`run`: how the batch actually executed.
        self.last_mode: str = "unstarted"
        #: Recovery tally of the last :meth:`run`.
        self.health = PoolHealth()
        #: Names of the shm segments published for the last :meth:`run`
        #: (kept after release, so tests can assert they were unlinked).
        self.last_segments: list[str] = []
        self._executor: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[JobSpec]) -> list:
        """Execute every spec; return their results in order."""
        specs = list(specs)
        self.health = PoolHealth()
        self.last_segments = []
        if not specs:
            self.last_mode = "empty"
            return []
        jobs = [_Job(spec=spec, index=i) for i, spec in enumerate(specs)]
        results: list = [None] * len(specs)
        done = [False] * len(specs)
        workers = min(self.max_workers, len(specs))
        # Health accounting is event-driven: recoveries and cache
        # classifications — parent-detected or worker-buffered — arrive
        # on the process bus and are tallied by one subscriber.
        unsubscribe = process_bus().subscribe(
            self._on_pool_event, prefix="pool."
        )
        published = None
        try:
            with span(
                "pool.dispatch", cat="pool", jobs=len(specs), workers=workers
            ):
                if workers > 1:
                    published = self._publish_graphs(specs)
                if workers > 1:
                    self._run_parallel(jobs, results, done, workers)
                self._run_serial(jobs, results, done)
        finally:
            unsubscribe()
            if published is not None:
                self.last_segments = published.segment_names
                graph_shm.release(published)
        return results

    def _on_pool_event(self, event: Event) -> None:
        """Fold one ``pool.*`` event into :attr:`health`.

        The same handler serves both halves of the cross-process
        contract: parent-detected failures (timeouts, dead workers) are
        emitted directly on the parent bus, and worker-buffered events
        arrive via :func:`repro.obs.absorb_all` in ``_settle``.
        """
        kind = event.kind
        if kind == "pool.cache_use":
            self.health.tally_cache_use(event.detail or None)
        elif kind == "pool.retry":
            self.health.retries += 1
            if event.detail:
                self.health.note(event.detail)
        elif kind == "pool.timeout":
            self.health.timeouts += 1
            if event.detail:
                self.health.note(event.detail)
        elif kind == "pool.crash":
            self.health.crashes += 1
            if event.detail:
                self.health.note(event.detail)
        elif kind == "pool.restart":
            self.health.pool_restarts += 1
        elif kind == "pool.serial_fallback":
            self.health.serial_fallbacks += 1
        elif kind == "pool.worker_rss":
            amount = int(event.amount)
            if amount > self.health.max_worker_rss_bytes:
                self.health.max_worker_rss_bytes = amount
        elif kind == "pool.note":
            self.health.note(event.detail)

    def _publish_graphs(self, specs: Sequence[JobSpec]):
        """Pre-build every referenced dataset into shared memory."""
        keys: set[tuple[str, int, int]] = set()
        for spec in specs:
            keys.update(spec.dataset_keys())
        return graph_shm.publish_datasets(keys)

    # ------------------------------------------------------------------
    def _run_parallel(
        self, jobs: list[_Job], results: list, done: list[bool], workers: int
    ) -> None:
        """Drive the executor until every job finishes or the pool gives up.

        Store-cold keys are primed through the staged DAG first (with as
        many stages in flight as admission allows, one included); then
        every cell goes out in one longest-expected-first wave, so the
        critical path starts early.  Dispatch order never changes
        results — they stay indexed by submission order.

        Leaves unfinished jobs for the serial path instead of raising on
        pool-level failures; only a job that exhausts its own retry
        budget raises.
        """
        timeout = job_timeout()
        retries = job_retries()
        max_restarts = retries + 2
        wave = sorted(jobs, key=lambda j: (-j.spec.expected_cost(), j.index))
        plan = self._cold_plan(wave, workers)
        try:
            self._executor = self._make_executor(workers)
        except (OSError, ValueError, PermissionError):
            return
        self.last_mode = f"parallel[{workers}]"
        try:
            if plan is not None and not self._drive_dag(plan, workers, timeout):
                return
            self._drive_wave(
                wave, results, done, workers, timeout, retries, max_restarts
            )
        finally:
            if self._executor is not None:
                self._kill_executor(self._executor)
                self._executor = None

    def _cold_plan(self, ordered: list[_Job], workers: int) -> _ColdPlan | None:
        """Derive the cold pipeline's plan: which keys, and how wide.

        ``ordered`` is the dispatch wave (heaviest first), so each cold
        key is represented by its heaviest job and primed in that order.

        A key is *cold* when the store has no entry for it at all
        (:meth:`repro.sim.tracestore.TraceStore.has_entry`) — a key with
        any committed artifact was primed by an earlier run, and its cells
        rebuild whatever was since evicted or rejected under the
        single-flight leases.

        Cold stages hold a whole trace plus its fold state resident, so
        admitted concurrency is clamped to the machine (:func:`pool_cpus`)
        and to the worker memory budget (``REPRO_WORKER_BYTES`` over the
        largest projected trace).  The clamp governs only priming — cell
        dispatch keeps the full worker count, because warm cells stream
        artifacts from the store instead of materialising them.
        """
        store = process_trace_store()
        if store is None:
            return None
        cold: dict = {}
        for job in ordered:
            spec = job.spec
            if spec.app is None:
                continue
            key = spec.trace_key()
            if key in cold or store.has_entry(key):
                continue
            cold[key] = job
        if not cold:
            return None
        # expected_cost() is paper-edges/scale; one edge is roughly eight
        # traced accesses of eight bytes each (validated against fig5:
        # cost 0.73M -> a 47 MB trace), so bytes ~= cost * 64.
        projected = max(
            int(job.spec.app.expected_cost() * 64) for job in cold.values()
        )
        budget = worker_byte_budget()
        by_budget = max(1, budget // max(1, projected))
        admitted = max(1, min(workers, pool_cpus(), by_budget, len(cold)))
        self.health.cold_keys = len(cold)
        self.health.cold_admitted = admitted
        process_bus().emit(
            "pool.note",
            f"cold plan: {len(cold)} store-cold key(s), admitted "
            f"{admitted} of {workers} worker(s) (cpus {pool_cpus()}, "
            f"~{max(1, projected >> 20)} MiB/key, "
            f"budget {budget >> 20} MiB)",
            source="pool",
        )
        return _ColdPlan(jobs_by_key=cold, admitted=admitted)

    def _drive_dag(
        self, plan: _ColdPlan, workers: int, timeout: float | None
    ) -> bool:
        """Prime store-cold keys through the staged trace → fold DAG.

        Each key's trace stage builds and persists the raw trace; its
        fold stage is submitted the moment that trace lands
        (completion-driven, no cross-key barrier), loads it back as a
        shared mmap, and derives the hit mask and miss profile.
        In-flight stages are bounded by the admission clamp, not the
        worker count, and fold stages are submitted ahead of queued trace
        stages so finished keys free their memory early.

        Priming is *best effort*: a failed stage means only that the
        key's cells rebuild the artifacts themselves, so any pool-level
        failure (dead pool, stage timeout) abandons the remaining DAG
        rather than spending the wave machinery's retry budget.
        ``False`` means the executor could not be revived and the batch
        should fall back to the serial path.
        """
        queue: list[tuple[str, Any, _Job]] = [
            ("trace", key, job) for key, job in plan.jobs_by_key.items()
        ]
        pending: dict = {}
        with span(
            "pool.prime_dag",
            cat="pool",
            keys=len(plan.jobs_by_key),
            admitted=plan.admitted,
        ):
            while queue or pending:
                while queue and len(pending) < plan.admitted:
                    stage, key, job = queue.pop(0)
                    try:
                        future = self._executor.submit(
                            _stage_entry, stage, job.spec, job.attempt,
                            _submission_ctx(job),
                        )
                    except (RuntimeError, BrokenProcessPool):
                        return self._abandon_dag("stage submit failed", workers)
                    pending[future] = (stage, key, job)
                finished, _ = wait(
                    pending, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not finished:
                    return self._abandon_dag(
                        f"stage exceeded {timeout}s", workers
                    )
                for future in finished:
                    stage, key, job = pending.pop(future)
                    try:
                        payload = future.result(timeout=0)
                    except (BrokenProcessPool, CancelledError, OSError) as exc:
                        return self._abandon_dag(
                            f"pool died mid-stage ({type(exc).__name__})",
                            workers,
                        )
                    absorb_all(payload[-1])
                    if payload[0] != "ok":
                        process_bus().emit(
                            "pool.note",
                            f"prime stage {stage!r} failed for job "
                            f"{job.index} ({payload[1]}: {payload[2]}); "
                            "cells will rebuild",
                            source="pool",
                        )
                        continue
                    if stage == "trace":
                        queue.insert(0, ("fold", key, job))
        return True

    def _abandon_dag(self, reason: str, workers: int) -> bool:
        """Give up priming but keep the batch alive on a fresh executor."""
        process_bus().emit(
            "pool.note",
            f"cold priming abandoned ({reason}); cells will rebuild "
            "artifacts themselves",
            source="pool",
        )
        if self._executor is not None:
            self._kill_executor(self._executor)
            self._executor = None
        try:
            self._executor = self._make_executor(workers)
        except (OSError, ValueError, PermissionError):
            return False
        return True

    def _drive_wave(
        self,
        wave: list[_Job],
        results: list,
        done: list[bool],
        workers: int,
        timeout: float | None,
        retries: int,
        max_restarts: int,
    ) -> None:
        """Run the wave to completion, or leave the rest to the serial path."""
        while not all(done[job.index] for job in wave):
            pending = [job for job in wave if not done[job.index]]
            futures = {
                self._executor.submit(
                    _pool_entry, job.spec, job.attempt, _submission_ctx(job)
                ): job
                for job in pending
            }
            failure = None
            for future, job in futures.items():
                try:
                    payload = future.result(timeout=timeout)
                except FutureTimeoutError:
                    process_bus().emit(
                        "pool.timeout",
                        f"job {job.index} exceeded {timeout}s "
                        f"(attempt {job.attempt}); restarting pool",
                        amount=job.attempt,
                        source="pool",
                    )
                    process_metrics().inc("pool.timeouts")
                    failure = "timeout"
                    break
                except BrokenProcessPool:
                    process_bus().emit(
                        "pool.crash",
                        f"worker died on job {job.index} "
                        f"(attempt {job.attempt}); restarting pool",
                        amount=job.attempt,
                        source="pool",
                    )
                    process_metrics().inc("pool.crashes")
                    failure = "crash"
                    break
                self._settle(job, payload, results, done, retries)
            if failure is None:
                continue
            self._harvest(futures, results, done, retries)
            self._kill_executor(self._executor)
            self._executor = None
            for job in wave:
                if not done[job.index]:
                    job.attempt += 1
                    if job.attempt > retries:
                        raise ExperimentJobError(
                            job.spec,
                            failure,
                            f"job still unfinished after "
                            f"{retries} retries ({failure})",
                        )
            process_bus().emit("pool.restart", failure, source="pool")
            process_metrics().inc("pool.restarts")
            if self.health.pool_restarts > max_restarts:
                process_bus().emit(
                    "pool.note",
                    "pool restart budget exhausted; "
                    "finishing remaining jobs serially",
                    source="pool",
                )
                return
            try:
                self._executor = self._make_executor(workers)
            except (OSError, ValueError, PermissionError):
                process_bus().emit(
                    "pool.note",
                    "pool could not be restarted; "
                    "finishing remaining jobs serially",
                    source="pool",
                )
                return

    def _settle(
        self, job: _Job, payload: tuple, results: list, done: list[bool], retries: int
    ) -> None:
        """Apply one worker payload: record the result or schedule a retry.

        The payload's trailing obs blob (worker-buffered events, metric
        deltas, spans) is absorbed *first*, so the health subscriber sees
        the worker's ``pool.cache_use`` event and counters stay exact
        even when the same worker process served many jobs or died in
        between — each job drains its own delta at the worker side.
        """
        absorb_all(payload[-1])
        if payload[0] == "ok":
            results[job.index] = payload[1]
            done[job.index] = True
            return
        kind, message, worker_tb = payload[1], payload[2], payload[3]
        job.attempt += 1
        if job.attempt > retries:
            raise ExperimentJobError(job.spec, kind, message, worker_tb)
        process_bus().emit(
            "pool.retry",
            f"job {job.index} failed ({kind}); retrying as attempt {job.attempt}",
            amount=job.attempt,
            source="pool",
        )
        process_metrics().inc("pool.retries")
        self._backoff(job.attempt)

    def _harvest(
        self, futures: dict, results: list, done: list[bool], retries: int
    ) -> None:
        """Collect whatever finished before a pool failure: work not wasted."""
        for future, job in futures.items():
            if done[job.index] or not future.done():
                continue
            try:
                payload = future.result(timeout=0)
            except (BrokenProcessPool, CancelledError, FutureTimeoutError):
                continue
            self._settle(job, payload, results, done, retries)

    def _run_serial(self, jobs: list[_Job], results: list, done: list[bool]) -> None:
        """In-process execution of whatever is unfinished, with retries."""
        pending = [job for job in jobs if not done[job.index]]
        if not pending:
            return
        if self.last_mode.startswith("parallel"):
            process_bus().emit("pool.serial_fallback", source="pool")
            process_metrics().inc("pool.serial_fallbacks")
        self.last_mode = "serial"
        timeout = job_timeout()
        retries = job_retries()
        bus = process_bus()
        registry = process_metrics()
        for job in pending:
            while True:
                try:
                    before = _cache_snapshot()
                    results[job.index] = self._serial_attempt(job, timeout)
                    done[job.index] = True
                    kind = _classify_cache_use(before, _cache_snapshot())
                    bus.emit(
                        "pool.cache_use", kind, source="pool", tag=job.spec.tag
                    )
                    registry.inc(f"pool.{kind}_jobs")
                    break
                except Exception as exc:  # noqa: BLE001 — bounded retry below
                    job.attempt += 1
                    if job.attempt > retries:
                        raise ExperimentJobError(
                            job.spec, type(exc).__name__, str(exc),
                            traceback.format_exc(),
                        ) from exc
                    if is_injected(exc):
                        bus.emit(
                            "pool.crash",
                            f"job {job.index} crashed serially",
                            source="pool",
                        )
                        registry.inc("pool.crashes")
                    bus.emit(
                        "pool.retry",
                        f"job {job.index} failed serially "
                        f"({type(exc).__name__}); retrying as attempt {job.attempt}",
                        amount=job.attempt,
                        source="pool",
                    )
                    registry.inc("pool.retries")
                    self._backoff(job.attempt)

    def _serial_attempt(self, job: _Job, timeout: float | None):
        """One in-process try, with the pool fault sites mapped to raises.

        There is no separate process to kill here, so ``pool.exit``
        degrades to a crash and ``pool.hang`` to a (bounded) stall that
        is then *detected*: the method sleeps at most the job timeout and
        raises, which is exactly what the parent-side watchdog does to a
        hung worker.
        """
        spec = job.spec
        with job_context(attempt=job.attempt, tag=spec.tag):
            fired = fault_point(
                SITE_POOL_EXIT, tag=spec.tag, detail="worker exit (serial)"
            ) or fault_point(SITE_POOL_CRASH, tag=spec.tag, detail="worker crash")
            if fired is not None:
                raise InjectedWorkerCrash(
                    f"injected crash in job {spec.tag or spec.flow!r} "
                    f"(serial, attempt {job.attempt})"
                )
            fired = fault_point(SITE_POOL_HANG, tag=spec.tag, detail="worker hang")
            if fired is not None:
                stall = fired.param if fired.param else DEFAULT_HANG_SECONDS
                if timeout:
                    time.sleep(min(stall, timeout))
                process_bus().emit(
                    "pool.timeout",
                    f"injected hang detected serially (job {job.index})",
                    source="pool",
                )
                process_metrics().inc("pool.timeouts")
                raise InjectedWorkerCrash(
                    f"injected hang in job {spec.tag or spec.flow!r} detected "
                    f"(serial, attempt {job.attempt})"
                )
            tracer = process_tracer()
            ctx_dict = _submission_ctx(job)
            submit_ctx = (
                SpanContext.from_dict(ctx_dict) if ctx_dict is not None else None
            )
            with tracer.attach(submit_ctx):
                with span(
                    "pool.job",
                    cat="pool",
                    tag=spec.tag or spec.flow,
                    attempt=job.attempt,
                ):
                    return execute_job(spec)

    # ------------------------------------------------------------------
    def _backoff(self, attempt: int) -> None:
        base = job_backoff()
        if base > 0:
            time.sleep(min(2.0, base * (2 ** max(0, attempt - 1))))

    @staticmethod
    def _make_executor(workers: int) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=workers, mp_context=ExperimentPool._mp_context()
        )

    @staticmethod
    def _kill_executor(executor: ProcessPoolExecutor) -> None:
        """Tear an executor down even if its workers are hung or dead."""
        processes = list((getattr(executor, "_processes", None) or {}).values())
        for process in processes:
            try:
                process.kill()
            except (OSError, ValueError, AttributeError):
                pass
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except (OSError, RuntimeError):
            pass

    @staticmethod
    def _mp_context():
        # fork shares the parent's memoised datasets copy-on-write, which
        # avoids regenerating graphs per worker; fall back to the platform
        # default where fork is unavailable.
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context("fork" if "fork" in methods else None)


def run_jobs(specs: Sequence[JobSpec], jobs: int | None = None) -> list:
    """One-shot convenience: ``ExperimentPool(jobs).run(specs)``."""
    return ExperimentPool(jobs).run(specs)


# ----------------------------------------------------------------------
# wall-clock bookkeeping
# ----------------------------------------------------------------------
def parallel_json_path(path: str | Path | None = None) -> Path | None:
    """Where harness wall-clock timings are recorded (``None``: disabled).

    Recording is armed by an explicit path or by ``REPRO_PARALLEL_JSON``
    (the benchmark harness and ``repro reproduce --jobs`` arm it); plain
    unit-test runs leave no timing files behind.
    """
    if path is not None:
        return Path(path)
    env = os.environ.get(PARALLEL_JSON_ENV)
    return Path(env) if env else None


#: Stage timings every ``BENCH_parallel.json`` row carries, zero-filled
#: when a stage never ran.  A missing key is indistinguishable from "not
#: measured", and rows are diffed field-by-field across PRs — so the set
#: of keys is part of the record's contract, not an accident of which
#: code paths the run happened to take.
CANONICAL_STAGES = (
    "graph_build",
    "trace_gen",
    "hit_mask",
    "reuse_build",
    "profile_build",
    "pricing",
)


def stage_breakdown() -> dict[str, dict[str, float]]:
    """Per-stage wall-clock totals accumulated so far in this process.

    Every canonical stage (:data:`CANONICAL_STAGES`) is present — zeroed
    when it never ran — plus any extra ``stage.*`` timing the process
    observed.  The stages cover the expensive halves of a cell, so a slow
    row in ``BENCH_parallel.json`` names its own bottleneck.  Wall clocks
    are non-deterministic, which is why this lives next to
    ``wall_seconds`` in the record rather than inside the deterministic
    ``metrics`` snapshot.  Worker stage timings reach the parent through
    the obs drain/absorb path, so pool runs include them.
    """
    registry = process_metrics()
    breakdown = {
        name: {"seconds": 0.0, "count": 0} for name in CANONICAL_STAGES
    }
    for name, timing in sorted(registry.timings.items()):
        if name.startswith("stage."):
            breakdown[name[len("stage."):]] = {
                "seconds": round(timing.total, 6),
                "count": timing.count,
            }
    return breakdown


def record_parallel_timing(entry: dict, path: str | Path | None = None) -> Path | None:
    """Append one timing record to ``BENCH_parallel.json`` (best effort).

    The file holds a JSON list of records ``{"benchmark", "jobs", "cells",
    "wall_seconds", ...}`` so speedups are measured, not asserted.  Every
    record is stamped with the deterministic families of the process
    metrics snapshot (counters, gauges, timing counts) under ``metrics``,
    so a perf claim in a future PR carries its own evidence — cache hit
    rates, tier traffic, and migration accounting travel with the wall
    time they explain — plus the wall-clock :func:`stage_breakdown`
    under ``stages``.
    """
    target = parallel_json_path(path)
    if target is None:
        return None
    entry = dict(entry)
    entry.setdefault("metrics", process_metrics().deterministic_snapshot())
    entry.setdefault("stages", stage_breakdown())
    records: list = []
    if target.exists():
        try:
            existing = json.loads(target.read_text(encoding="utf-8"))
            if isinstance(existing, list):
                records = existing
        except (OSError, json.JSONDecodeError):
            records = []
    records.append(entry)
    try:
        target.write_text(json.dumps(records, indent=2) + "\n", encoding="utf-8")
    except OSError:
        pass
    return target
