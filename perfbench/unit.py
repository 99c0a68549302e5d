"""One measured unit of a workload, in a fresh interpreter.

``run.py`` starts this script once per unit so that memoised datasets,
trace caches and metrics never carry over between units.  It times the
workload's public calls, collects the program's own counters, and writes
one JSON report to ``--out``.  With ``--trace`` it first wraps every
layer's entry points (``spans.install``) and adds per-layer figures.

``--probe`` stops after the imports, so ``run.py`` can time set-up alone.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import spans

#: Trace-store artifact kinds.
KINDS = ("trace", "mask", "profile", "reuse")

#: Jobs per serve arrival trace.
SERVE_EVENTS = 2048


def _rusage() -> tuple[float, float]:
    """CPU seconds and peak RSS (MiB) of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss) / 1024.0


def _reap_workers() -> None:
    """Wait for the killed pool workers, so their CPU time is counted."""
    for process in multiprocessing.active_children():
        process.join(timeout=10)


def _watch_pools(health: list[dict]) -> None:
    """Keep each pool batch's ``PoolHealth`` once the batch is done."""
    from repro.sim.parallel import ExperimentPool

    run = ExperimentPool.run

    def run_and_keep_health(self, specs):
        try:
            return run(self, specs)
        finally:
            health.append(self.health.as_dict())

    ExperimentPool.run = run_and_keep_health


def _run_figures(names: list[str]) -> dict:
    from repro.bench import figures

    rendered = {}
    for name in names:
        try:
            rendered[name] = getattr(figures, name)().render()
        except Exception:  # a failed figure fails all its cells
            traceback.print_exc()
            rendered[name] = None
    return {"rendered": rendered}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--figures", default="fig5")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--journal", default="")
    parser.add_argument("--trace", default="", help="span sidecar directory")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    import repro
    import repro.bench.figures  # noqa: F401  (imports every layer below it)
    from repro.config import platform_by_name
    from repro.obs.metrics import process_metrics
    from repro.serve import ServiceConfig, generate_arrivals, serve_trace

    src = Path(__file__).resolve().parents[1] / "src"
    if Path(repro.__file__).resolve().parent != src / "repro":
        print(f"repro imported from {repro.__file__}, not {src}", file=sys.stderr)
        return 2

    recorder = None
    if args.trace:
        recorder = spans.Recorder(Path(args.trace))
        spans.install(recorder)
    health: list[dict] = []
    _watch_pools(health)

    serving = args.workload == "serve-journaled"
    if serving:
        jobs = generate_arrivals(SERVE_EVENTS, seed=args.seed)
        config = ServiceConfig(
            platform=platform_by_name("nvm_dram", scale=512),
            journal_root=Path(args.journal),
        )
    ready = time.monotonic()
    report: dict = {"setup_s": ready - args.spawned}
    if args.probe:
        Path(args.out).write_text(json.dumps(report), encoding="utf-8")
        return 0

    cpu0, _ = _rusage()
    start = time.monotonic()
    if serving:
        served = serve_trace(jobs, config)
    else:
        body = _run_figures(args.figures.split(","))
    end = time.monotonic()
    if serving:
        body = _serve_report(served, jobs, Path(args.journal))
    _reap_workers()
    cpu1, rss = _rusage()
    report.update(body)
    counters = process_metrics().snapshot()
    report.update(
        wall_s=end - start,
        cpu_s=cpu1 - cpu0,
        peak_rss_mib=max([rss] + [h["max_worker_rss_bytes"] / 2**20 for h in health]),
        counters=counters["counters"],
        timing_counts={k: v["count"] for k, v in counters["timings"].items()},
        pool_health=health,
    )
    if recorder is not None:
        report["layers"] = _layer_report(recorder, report, start, end)
    Path(args.out).write_text(json.dumps(report), encoding="utf-8")
    return 0


def _serve_report(served: dict, jobs, journal: Path) -> dict:
    latencies: dict[str, list[float]] = {}
    for outcome in served["outcomes"]:
        latencies.setdefault(outcome.job.op, []).append(outcome.latency_s)
    state = journal / "state.json"
    return {
        "attempted": len(served["outcomes"]),
        "failed": sum(1 for o in served["outcomes"] if not o.ok),
        "statuses": served["statuses"],
        "placements": served["placements"],
        "latency_s": [o.latency_s for o in served["outcomes"]],
        "latency_by_op_s": latencies,
        "tenant_table_sha256": checks.sha256(
            checks.canonical_tenant_table(served["tenant_table"])
        ),
        "tenant_mismatches": checks.tenant_table_mismatches(served["tenant_table"], jobs),
        "checkpoint_bytes": state.stat().st_size if state.exists() else 0,
    }


def _layer_report(recorder, report: dict, start: float, end: float) -> dict:
    """Per-layer figures of one traced unit (times from spans, counts from
    the program's counters and ``PoolHealth``)."""
    recorded, accesses = recorder.merged()
    counters = report["counters"]

    def total(*names: str) -> float:
        return spans.totals(recorded, *names)[0]

    def ratio(kind: str) -> float:
        hits = counters.get(f"cache.{kind}_hits", 0.0)
        lookups = hits + counters.get(f"cache.{kind}_misses", 0.0)
        return hits / lookups if lookups else 0.0

    folds = ("build_reuse_profile", "fold_reuse_chunks")
    cover = spans.coverage(recorded, recorder.root_pid, start, end)
    busy, idle = spans.worker_time(recorded, recorder.root_pid)
    health = report["pool_health"]
    out = {f"{layer}.self_s": s for layer, s in spans.self_times(recorded).items()}
    out.update({
        "reuse.fold_s": total(*folds),
        "reuse.folds": float(spans.totals(recorded, *folds)[1]),
        "reuse.derive_s": total("ReuseProfile.hit_mask_for"),
        "mem.hit_mask_s": total("WorkingSetCache.hit_mask"),
        "mem.pricing_s": total("CostModel.price_profile"),
        "executor.replay_s": total("TraceExecutor.run"),
        "executor.profile_cells": counters.get("pricing.profile_cells", 0.0),
        "executor.replay_cells": counters.get("pricing.replay_cells", 0.0),
        "apps.trace_gen_s": total("GraphApp.run_once"),
        "apps.accesses": float(accesses),
        "profile.build_s": total("build_profile"),
        "graph.build_s": total("dataset_by_name"),
        "graph.builds": float(report["timing_counts"].get("stage.graph_build", 0)),
        "graph.shm_publish_s": total("publish_datasets"),
        "tracecache.trace_hit_ratio": ratio("trace"),
        "tracecache.mask_hit_ratio": ratio("mask"),
        "tracecache.reuse_hit_ratio": ratio("reuse"),
        "tracecache.profile_hit_ratio": ratio("profile"),
        "tracecache.evictions": counters.get("cache.evictions", 0.0),
        "tracestore.save_s": total(*(f"TraceStore.save_{k}" for k in KINDS)),
        "tracestore.load_s": total(*(f"TraceStore.load_{k}" for k in KINDS)),
        "tracestore.lease_wait_s": total("TraceStore.wait_for_lease"),
        "tracestore.store_hits": sum(
            counters.get(f"store.{k}_loads", 0.0) for k in KINDS
        ),
        "pool.critical_path_s": cover["critical_path_s"],
        "pool.worker_busy_s": busy,
        "pool.worker_idle_s": idle,
        "pool.cold_admitted": float(max([h["cold_admitted"] for h in health] + [0])),
        "pool.retries": float(sum(h["retries"] for h in health)),
        "pool.max_worker_rss_mib": max(
            [h["max_worker_rss_bytes"] for h in health] + [0]
        ) / 2**20,
        "core.optimize_s": total("AtMemRuntime.atmem_optimize"),
        "core.migration_mib": counters.get("migration.bytes_committed", 0.0) / 2**20,
        "serve.audit_s": total("HeterogeneousMemorySystem.check_consistency"),
        "journal.append_s": total("ServiceJournal.append"),
        "journal.checkpoint_s": total("ServiceJournal.checkpoint"),
        "obs.coverage_frac": cover["covered_frac"],
        "obs.spans": float(len(recorded)),
    })
    return out


if __name__ == "__main__":
    sys.exit(main())
