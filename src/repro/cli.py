"""Command-line interface: ``python -m repro.cli``.

Subcommands:

- ``run`` — run one experiment cell (app x dataset x platform) and print
  the baseline / ATMem / reference comparison;
- ``datasets`` — list the Table 2 inputs at a chosen scale;
- ``sweep`` — the Figure 9/10 epsilon sweep for one dataset;
- ``migrate`` — the Table 4 mechanism comparison for one dataset;
- ``chaos`` — run the fault-injection seed matrix and report whether
  every injected fault was survived with fault-free results;
- ``trace`` — convert a recorded JSONL span trace to Chrome trace-event
  JSON loadable in ``chrome://tracing`` / https://ui.perfetto.dev;
  ``--merge`` folds per-worker sidecar files into one causal tree;
- ``top`` — poll a running service's exposition endpoint
  (``repro serve --expose``) and render a live per-tenant SLO/burn view;
- ``stats`` — pretty-print the metrics snapshot the last experiment
  command left behind;
- ``store`` — inventory verbs over a persistent trace store:
  ``repro store ls`` lists entries (digest, size, artifact kinds, any
  in-flight or stale single-flight leases), ``repro store rm DIGEST``
  prunes entries, ``repro store stat`` prints one aggregate summary.

``run``, ``sweep``, ``migrate``, and ``reproduce`` accept ``--jobs N``
(defaulting to the ``REPRO_JOBS`` environment variable, then 1) to fan
independent experiment jobs out across worker processes through
:class:`repro.sim.parallel.ExperimentPool`.

``reproduce`` additionally accepts ``--chaos PLAN`` (a
:func:`repro.faults.plan.parse_plan` clause or raw JSON, exported to
workers via ``REPRO_FAULT_PLAN``) and ``--job-timeout SECONDS``
(``REPRO_JOB_TIMEOUT``) so any reproduction run can be executed under
injected faults with a hang watchdog armed.

Data-plane knobs (flags export the matching environment variable):

- ``--trace-store DIR`` (``REPRO_TRACE_STORE``) — persistent mmap store
  of traces, LLC hit masks and miss profiles, shared across workers and
  sessions; with a store armed, the pool primes every store-cold key
  through its staged trace → fold pipeline before fanning cells out;
- ``REPRO_CACHE_BYTES`` — combined disk budget over the trace store and
  the graph cache (``REPRO_GRAPH_CACHE``); ``REPRO_GRAPH_SHM=0``
  disables shared-memory graph segments.

Observability knobs: ``--trace PATH`` (``REPRO_TRACE``) arms span
tracing for any experiment command — the run's spans (pool dispatch,
worker jobs, runtime phases, migrations, store/cache work) land in
``PATH`` as JSONL, ready for ``repro trace``.  Experiment commands also
write a metrics snapshot (``REPRO_METRICS_PATH``, default
``benchmarks/results/metrics-last.json``) that ``repro stats`` reads.
"""

from __future__ import annotations

import argparse
import sys

from repro.apps import APP_NAMES
from repro.config import PLATFORM_NAMES, platform_by_name
from repro.core.runtime import RuntimeConfig
from repro.graph.datasets import DATASET_NAMES, PAPER_SIZES, dataset_by_name
from repro.sim.parallel import AppSpec, ExperimentPool, JobSpec, execute_job


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", choices=DATASET_NAMES, default="friendster",
        help="Table 2 input (default: friendster)",
    )
    parser.add_argument(
        "--platform", choices=PLATFORM_NAMES, default="nvm_dram",
        help="testbed preset (default: nvm_dram)",
    )
    parser.add_argument(
        "--scale", type=int, default=2048,
        help="1/scale of the published input sizes (default: 2048)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for independent jobs "
             "(default: REPRO_JOBS env, then 1)",
    )
    parser.add_argument(
        "--trace-store", default=None, metavar="DIR",
        help="persistent trace/mask store directory (sets REPRO_TRACE_STORE; "
             "default: disabled)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a span timeline to PATH as JSONL (sets REPRO_TRACE; "
             "convert with `repro trace`)",
    )


def cmd_run(args: argparse.Namespace) -> int:
    graph = dataset_by_name(args.dataset, scale=args.scale)
    platform = platform_by_name(args.platform, scale=max(1, args.scale // 2))
    reference = "fast" if args.platform == "nvm_dram" else "preferred"
    spec = JobSpec(
        app=AppSpec.make(args.app, args.dataset, scale=args.scale),
        platform=platform,
        flow="cell",
        placement=reference,
        tag=f"cli/{args.app}/{args.dataset}",
    )
    cell = execute_job(spec)
    baseline, ref, atmem = cell.baseline, cell.reference, cell.atmem
    print(f"{args.app} on {args.dataset} ({graph.num_vertices:,} vertices, "
          f"{graph.num_edges:,} edges), platform {platform.name}:")
    print(f"  baseline (all {platform.tiers[platform.slow_tier].name}): "
          f"{baseline.seconds * 1e3:9.3f} ms")
    print(f"  reference ({reference}):  {ref.seconds * 1e3:9.3f} ms")
    print(f"  ATMem:                {atmem.seconds * 1e3:9.3f} ms  "
          f"({baseline.seconds / atmem.seconds:.2f}x speedup, "
          f"{atmem.data_ratio:.1%} data on fast memory)")
    print(f"  migration: {atmem.migration.bytes_moved / 2**20:.2f} MiB, "
          f"{atmem.migration.seconds * 1e6:.0f} us; profiling overhead "
          f"{atmem.profiling_overhead_seconds / atmem.first_iteration.seconds:.1%}")
    return 0


def cmd_datasets(args: argparse.Namespace) -> int:
    print(f"{'name':12s} {'paper V':>12s} {'paper E':>14s} "
          f"{'scaled V':>10s} {'scaled E':>10s}")
    for name in DATASET_NAMES:
        paper_v, paper_e = PAPER_SIZES[name]
        graph = dataset_by_name(name, scale=args.scale)
        print(f"{name:12s} {paper_v:12,d} {paper_e:14,d} "
              f"{graph.num_vertices:10,d} {graph.num_edges:10,d}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sim.sweep import epsilon_configurator, run_sweep

    platform = platform_by_name(args.platform, scale=max(1, args.scale // 2))
    factory = AppSpec.make("BFS", args.dataset, scale=args.scale)
    baseline = execute_job(
        JobSpec(app=factory, platform=platform, flow="static", placement="slow")
    )
    print(f"BFS/{args.dataset} on {platform.name}; baseline "
          f"{baseline.seconds * 1e3:.3f} ms")
    print(f"{'epsilon':>8s} {'data ratio':>11s} {'time (ms)':>10s}")
    values = (0.02, 0.05, 0.1, 0.18, 0.25, 0.35, 0.5, 0.7, 0.9)
    points = run_sweep(
        factory,
        platform,
        values,
        epsilon_configurator(),
        label=f"BFS/{args.dataset}",
        jobs=args.jobs,
    )
    for point in points:
        print(f"{point.value:8.2f} {point.data_ratio:11.3f} "
              f"{point.seconds * 1e3:10.3f}")
    return 0


def cmd_migrate(args: argparse.Namespace) -> int:
    platform = platform_by_name(args.platform, scale=max(1, args.scale // 2))
    factory = AppSpec.make("PR", args.dataset, scale=args.scale, num_sweeps=2)
    atmem, mbind = ExperimentPool(args.jobs).run([
        JobSpec(app=factory, platform=platform, flow="atmem", count_tlb=True),
        JobSpec(
            app=factory,
            platform=platform,
            flow="atmem",
            runtime_config=RuntimeConfig(migration_mechanism="mbind"),
            count_tlb=True,
        ),
    ])
    print(f"PR/{args.dataset} on {platform.name}: "
          f"{atmem.migration.bytes_moved / 2**20:.2f} MiB migrated")
    print(f"  migration time: mbind {mbind.migration.seconds * 1e6:9.1f} us, "
          f"ATMem {atmem.migration.seconds * 1e6:9.1f} us "
          f"({mbind.migration.seconds / atmem.migration.seconds:.2f}x)")
    print(f"  iter-2 TLB misses: mbind {mbind.second_iteration.tlb_misses:,}, "
          f"ATMem {atmem.second_iteration.tlb_misses:,} "
          f"({mbind.second_iteration.tlb_misses / max(1, atmem.second_iteration.tlb_misses):.2f}x)")
    return 0


EXPERIMENT_BUILDERS = {
    "fig1a": ("repro.bench.figures", "fig1a"),
    "fig1b": ("repro.bench.figures", "fig1b"),
    "fig5": ("repro.bench.figures", "fig5"),
    "fig6": ("repro.bench.figures", "fig6"),
    "fig7": ("repro.bench.figures", "fig7"),
    "fig8": ("repro.bench.figures", "fig8"),
    "table3": ("repro.bench.tables", "table3"),
    "table4": ("repro.bench.tables", "table4"),
    "overhead": ("repro.bench.tables", "overhead_analysis"),
}


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Regenerate paper experiments (tables printed, artifacts saved)."""
    import importlib
    import os

    from repro.bench.report import emit
    from repro.faults.plan import FAULT_PLAN_ENV, parse_plan
    from repro.sim.parallel import (
        JOB_TIMEOUT_ENV,
        JOBS_ENV,
        PARALLEL_JSON_DEFAULT,
        PARALLEL_JSON_ENV,
    )

    if args.scale is not None:
        os.environ["REPRO_BENCH_SCALE"] = str(args.scale)
    if args.jobs is not None:
        os.environ[JOBS_ENV] = str(args.jobs)
        # Arm wall-clock recording so parallel reproduction runs leave
        # measured timings behind (BENCH_parallel.json unless overridden).
        os.environ.setdefault(PARALLEL_JSON_ENV, PARALLEL_JSON_DEFAULT)
    if args.job_timeout is not None:
        os.environ[JOB_TIMEOUT_ENV] = str(args.job_timeout)
    if args.chaos is not None:
        # Validate eagerly (a typo should fail here, not in a worker),
        # then export as JSON so every worker process sees the same plan.
        plan = parse_plan(args.chaos)
        os.environ[FAULT_PLAN_ENV] = plan.to_json()
        print(f"chaos plan armed: {len(plan.specs)} fault spec(s)")
    wanted = args.experiments or list(EXPERIMENT_BUILDERS)
    unknown = [e for e in wanted if e not in EXPERIMENT_BUILDERS]
    if unknown:
        print(f"unknown experiments: {unknown}; "
              f"available: {sorted(EXPERIMENT_BUILDERS)}")
        return 2
    for experiment in wanted:
        module_name, fn_name = EXPERIMENT_BUILDERS[experiment]
        builder = getattr(importlib.import_module(module_name), fn_name)
        emit(builder(), f"{experiment}.txt")
    print(f"\nregenerated {len(wanted)} experiment(s); artifacts under "
          "benchmarks/results/")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the fault-injection seed matrix and report recovery."""
    from repro.faults.chaos import render_outcomes, run_seed_matrix

    outcomes = run_seed_matrix(jobs=args.jobs or 2, names=args.cases or None)
    print(render_outcomes(outcomes))
    failed = [o.case for o in outcomes if not o.recovered]
    if failed:
        print(f"\nFAILED: {', '.join(failed)}")
        return 1
    print(f"\nall {len(outcomes)} chaos case(s) recovered with "
          "fault-free results")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Drive a generated arrival trace through the resident service."""
    from pathlib import Path

    from repro.serve import ServiceConfig, generate_arrivals, serve_trace

    jobs = generate_arrivals(
        args.events,
        seed=args.seed,
        deadline_s=args.deadline,
        latency_slo_s=args.slo,
    )
    config = ServiceConfig(
        platform=platform_by_name(args.platform, scale=args.scale),
        journal_root=Path(args.journal) if args.journal else None,
        expose_port=args.expose,
    )
    report = serve_trace(jobs, config, kill_after=args.kill_after)
    statuses = ", ".join(
        f"{status}={count}" for status, count in report["statuses"].items()
    )
    print(f"served {report['jobs']}/{len(jobs)} job(s)"
          + (" (killed mid-trace)" if report["killed"] else ""))
    print(f"  statuses: {statuses or '(none settled)'}")
    print(f"  placements: {report['placements']} "
          f"({report['placements_per_s']:.2f}/s sustained)")
    latency = report["health"]["decision_latency"]
    print(f"  decision latency: p50={latency['p50'] * 1e3:.1f}ms "
          f"p99={latency['p99'] * 1e3:.1f}ms over {latency['count']} job(s)")
    print(f"  resident tenants: {report['health']['resident_tenants']}")
    for tenant in report["tenant_table"]:
        app = tenant.get("app") or {}
        fast = sum(
            end - start
            for runs in tenant["placements"].values()
            for start, end in runs
        )
        print(f"    {tenant['name']}: {app.get('app', '?')}/"
              f"{app.get('dataset', '?')} fast_bytes={fast}")
    for tenant, snap in sorted(report["health"].get("slo", {}).items()):
        alert = f" ALERT={snap['alert']}" if snap.get("alert") else ""
        print(f"  slo {tenant}: burn={snap['burn']:.2f} "
              f"latency_attainment={snap['latency']['attainment']:.3f} "
              f"admission_attainment={snap['admission']['attainment']:.3f}"
              f"{alert}")
    exposition = report.get("exposition")
    if exposition is not None:
        print(f"  exposition: scraped {len(exposition['metrics'])} series "
              f"from 127.0.0.1:{exposition['port']} "
              "(/metrics /health /slo; watch with `repro top`)")
    corruptions = report["health"]["journal_corruptions"]
    if corruptions:
        print(f"  journal corruption(s) tolerated: {len(corruptions)}")
    if args.journal:
        print(f"  warm state journalled under {args.journal} "
              "(rerun with the same --journal to recover)")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Convert a JSONL span trace to Chrome trace-event JSON."""
    from pathlib import Path

    from repro.obs.tracer import export_chrome, trace_path

    source = args.jsonl or args.perfetto
    if args.jsonl and args.perfetto and args.jsonl != args.perfetto:
        print("give the trace either positionally or via --perfetto, not both")
        return 2
    if source is None:
        configured = trace_path()
        if configured is None:
            print("no trace given and REPRO_TRACE is not set; "
                  "usage: repro trace RUN.trace [--out OUT.json]")
            return 2
        source = str(configured)
    src = Path(source)
    if not src.exists():
        print(f"no trace file at {src}; record one with "
              "`repro reproduce ... --trace PATH` first")
        return 1
    out = Path(args.out) if args.out else src.with_suffix(".json")
    if args.merge:
        import json

        from repro.obs.tracer import merge_trace_files, to_chrome, worker_sidecars

        sidecars = worker_sidecars(src)
        payload = to_chrome(merge_trace_files(src))
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(payload, indent=1), encoding="utf-8")
        print(f"merged {len(sidecars)} worker sidecar(s) into {src.name}: "
              f"wrote {len(payload['traceEvents'])} trace event(s) to {out} "
              "(load in chrome://tracing or https://ui.perfetto.dev)")
        return 0
    count = export_chrome(src, out)
    print(f"wrote {count} trace event(s) to {out} "
          "(load in chrome://tracing or https://ui.perfetto.dev)")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live per-tenant SLO/burn view of a running placement service."""
    import json
    import time
    import urllib.error
    import urllib.request

    def _get(path: str) -> dict:
        url = f"http://{args.host}:{args.port}{path}"
        with urllib.request.urlopen(url, timeout=5.0) as response:
            return json.loads(response.read().decode("utf-8"))

    from repro.obs.exposition import render_top

    iterations = 1 if args.once else args.iterations
    shown = 0
    while iterations is None or shown < iterations:
        try:
            frame = render_top(_get("/health"), _get("/slo"))
        except (urllib.error.URLError, OSError) as exc:
            print(f"cannot reach placement service at "
                  f"{args.host}:{args.port}: {exc}")
            return 1
        if shown and sys.stdout.isatty():
            print("\x1b[2J\x1b[H", end="")
        print(frame)
        shown += 1
        if iterations is None or shown < iterations:
            time.sleep(args.interval)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """Pretty-print the metrics snapshot left by the last run."""
    from repro.obs.metrics import (
        default_snapshot_path,
        load_snapshot,
        render_snapshot,
    )

    path = args.path or default_snapshot_path()
    snapshot = load_snapshot(path)
    if snapshot is None:
        print(f"no metrics snapshot at {path}; run an experiment command "
              "(`repro run`, `repro reproduce`, ...) first")
        return 1
    print(f"metrics snapshot: {path}")
    print(render_snapshot(snapshot, timings=args.timings))
    return 0


def cmd_summary(args: argparse.Namespace) -> int:
    """Print headline numbers from recorded benchmark results."""
    from pathlib import Path

    from repro.bench.summary import summarize

    default_dir = (
        Path(__file__).resolve().parents[2] / "benchmarks" / "results" / "json"
    )
    results_dir = Path(args.results) if args.results else default_dir
    if not results_dir.exists():
        print(f"no recorded results at {results_dir}; run the benchmarks "
              "or `repro reproduce` first")
        return 1
    print(summarize(results_dir).render())
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    """Inventory verbs (``ls`` / ``rm`` / ``stat``) over a trace store."""
    from pathlib import Path

    from repro.sim.tracestore import TraceStore, store_root

    root = Path(args.store) if args.store else store_root()
    if root is None:
        print("no store configured: pass --store DIR or set "
              "REPRO_TRACE_STORE")
        return 1
    store = TraceStore(root)
    rows = list(store.entries())
    if args.verb == "rm":
        missing = 0
        for digest in args.digests:
            if store.remove_entry(digest):
                print(f"removed {digest}")
            else:
                print(f"no entry {digest}")
                missing += 1
        return 1 if missing else 0
    if not rows:
        print(f"store {root}: empty")
        return 0
    if args.verb == "ls":
        print(f"{'digest':24s} {'MiB':>9s} {'files':>5s} {'accesses':>11s}"
              "  artifacts")
        for row in rows:
            note = ""
            if row["leases"]:
                stale = sum(1 for lease in row["leases"] if lease["stale"])
                note = f"  [{len(row['leases'])} lease(s), {stale} stale]"
            print(f"{row['digest']:24s} {row['bytes'] / 2**20:9.2f} "
                  f"{row['files']:5d} {row['accesses']:11,d}  "
                  f"{','.join(row['artifacts']) or '-'}{note}")
        return 0
    # stat: one aggregate view of the whole store.
    kinds: dict[str, int] = {}
    for row in rows:
        for kind in row["artifacts"]:
            kinds[kind] = kinds.get(kind, 0) + 1
    leases = [lease for row in rows for lease in row["leases"]]
    stale = sum(1 for lease in leases if lease["stale"])
    print(f"store {root}")
    print(f"  entries:   {len(rows)}")
    print(f"  bytes:     {sum(r['bytes'] for r in rows) / 2**20:.2f} MiB")
    print(f"  accesses:  {sum(r['accesses'] for r in rows):,}")
    print("  artifacts: " + (", ".join(
        f"{kind}={count}" for kind, count in sorted(kinds.items())
    ) or "-"))
    print(f"  leases:    {len(leases)} in flight, {stale} stale")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ATMem (CGO 2020) reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment cell")
    run_p.add_argument(
        "--app", choices=APP_NAMES, default="PR", help="application (default: PR)"
    )
    _add_common(run_p)
    run_p.set_defaults(func=cmd_run)

    ds_p = sub.add_parser("datasets", help="list the Table 2 inputs")
    ds_p.add_argument("--scale", type=int, default=2048)
    ds_p.set_defaults(func=cmd_datasets)

    sweep_p = sub.add_parser("sweep", help="Figure 9/10 epsilon sweep (BFS)")
    _add_common(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)

    mig_p = sub.add_parser("migrate", help="Table 4 mechanism comparison (PR)")
    _add_common(mig_p)
    mig_p.set_defaults(func=cmd_migrate)

    rep_p = sub.add_parser(
        "reproduce", help="regenerate paper tables/figures (no pytest needed)"
    )
    rep_p.add_argument(
        "experiments",
        nargs="*",
        help=f"which experiments (default: all of {sorted(EXPERIMENT_BUILDERS)})",
    )
    rep_p.add_argument(
        "--scale", type=int, default=None,
        help="override REPRO_BENCH_SCALE for this run",
    )
    rep_p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for experiment fan-out (sets REPRO_JOBS)",
    )
    rep_p.add_argument(
        "--chaos", default=None, metavar="PLAN",
        help="fault plan to inject (parse_plan syntax or JSON; "
             "sets REPRO_FAULT_PLAN for all workers)",
    )
    rep_p.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget (sets REPRO_JOB_TIMEOUT)",
    )
    rep_p.add_argument(
        "--trace-store", default=None, metavar="DIR",
        help="persistent trace/mask store directory (sets REPRO_TRACE_STORE; "
             "default: disabled)",
    )
    rep_p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="record a span timeline to PATH as JSONL (sets REPRO_TRACE; "
             "convert with `repro trace`)",
    )
    rep_p.set_defaults(func=cmd_reproduce)

    chaos_p = sub.add_parser(
        "chaos", help="run the fault-injection seed matrix"
    )
    chaos_p.add_argument(
        "cases", nargs="*",
        help="seed-matrix case names (default: the whole matrix)",
    )
    chaos_p.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the pool cases (default: 2)",
    )
    chaos_p.set_defaults(func=cmd_chaos)

    serve_p = sub.add_parser(
        "serve", help="stream a tenant arrival trace through repro.serve"
    )
    serve_p.add_argument(
        "--events", type=int, default=24,
        help="arrival-trace length (default: 24)",
    )
    serve_p.add_argument(
        "--seed", type=int, default=17,
        help="arrival-trace seed (default: 17)",
    )
    serve_p.add_argument(
        "--platform", choices=PLATFORM_NAMES, default="nvm_dram",
        help="testbed preset (default: nvm_dram)",
    )
    serve_p.add_argument(
        "--scale", type=int, default=512,
        help="platform capacity divisor (default: 512)",
    )
    serve_p.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-job deadline; expired jobs cancel and roll back",
    )
    serve_p.add_argument(
        "--journal", default=None, metavar="DIR",
        help="journal warm state under DIR; rerunning with the same DIR "
             "recovers the tenant table bit-identically",
    )
    serve_p.add_argument(
        "--kill-after", type=int, default=None, metavar="N",
        help="simulate a crash (no drain, no checkpoint) after N jobs",
    )
    serve_p.add_argument(
        "--slo", type=float, default=None, metavar="SECONDS",
        help="per-tenant decision-latency SLO target fed to the error-"
             "budget engine (default: fall back to --deadline, then 1s)",
    )
    serve_p.add_argument(
        "--expose", type=int, default=None, nargs="?", const=0, metavar="PORT",
        help="serve /metrics, /health and /slo on PORT while the trace "
             "runs (0 or bare flag picks an ephemeral port)",
    )
    serve_p.set_defaults(func=cmd_serve)

    top_p = sub.add_parser(
        "top", help="live per-tenant SLO/burn view of a running service"
    )
    top_p.add_argument(
        "--host", default="127.0.0.1",
        help="exposition host (default: 127.0.0.1)",
    )
    top_p.add_argument(
        "--port", type=int, required=True,
        help="exposition port (printed by `repro serve --expose`)",
    )
    top_p.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh period (default: 2s)",
    )
    top_p.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="stop after N frames (default: run until interrupted)",
    )
    top_p.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (same as --iterations 1)",
    )
    top_p.set_defaults(func=cmd_top)

    trace_p = sub.add_parser(
        "trace", help="convert a JSONL span trace to Chrome/Perfetto JSON"
    )
    trace_p.add_argument(
        "jsonl", nargs="?", default=None,
        help="JSONL trace recorded with --trace (default: REPRO_TRACE)",
    )
    trace_p.add_argument(
        "--perfetto", default=None, metavar="PATH",
        help="alias for the positional trace path",
    )
    trace_p.add_argument(
        "--out", default=None, metavar="PATH",
        help="output file (default: the trace path with a .json suffix)",
    )
    trace_p.add_argument(
        "--merge", action="store_true",
        help="fold per-worker sidecar files (TRACE.wPID) into the export "
             "so cross-process spans land in one causal tree",
    )
    trace_p.set_defaults(func=cmd_trace)

    stats_p = sub.add_parser(
        "stats", help="pretty-print the last run's metrics snapshot"
    )
    stats_p.add_argument(
        "--path", default=None,
        help="snapshot file (default: REPRO_METRICS_PATH, then "
             "benchmarks/results/metrics-last.json)",
    )
    stats_p.add_argument(
        "--timings", action="store_true",
        help="include wall-clock timing sums (non-deterministic)",
    )
    stats_p.set_defaults(func=cmd_stats)

    sum_p = sub.add_parser(
        "summary", help="headline numbers from recorded benchmark results"
    )
    sum_p.add_argument(
        "--results", default=None,
        help="results JSON directory (default: benchmarks/results/json)",
    )
    sum_p.set_defaults(func=cmd_summary)

    store_p = sub.add_parser(
        "store", help="inspect or prune a persistent trace store"
    )
    store_sub = store_p.add_subparsers(dest="verb", required=True)
    store_ls = store_sub.add_parser(
        "ls", help="list entries: digest, size, artifact kinds, leases"
    )
    store_rm = store_sub.add_parser("rm", help="remove entries by digest")
    store_rm.add_argument(
        "digests", nargs="+", help="entry digests (see `repro store ls`)"
    )
    store_stat = store_sub.add_parser(
        "stat", help="aggregate size / artifact / lease summary"
    )
    for verb_p in (store_ls, store_rm, store_stat):
        verb_p.add_argument(
            "--store", default=None, metavar="DIR",
            help="store directory (default: REPRO_TRACE_STORE)",
        )
    store_p.set_defaults(func=cmd_store)
    return parser


#: Commands whose run leaves observability artifacts behind: the span
#: trace is flushed and the metrics snapshot written when they return.
_OBS_COMMANDS = frozenset(
    {"run", "sweep", "migrate", "reproduce", "chaos", "serve"}
)


def _flush_observability() -> None:
    """Persist the run's spans and metrics (parent side, end of main)."""
    from repro.obs.metrics import process_metrics
    from repro.obs.tracer import process_tracer, tracing_enabled

    if tracing_enabled():
        written = process_tracer().flush()
        if written is not None:
            print(f"span trace written to {written} "
                  "(convert with `repro trace`)")
    process_metrics().write_snapshot()


def main(argv: list[str] | None = None) -> int:
    import os

    args = build_parser().parse_args(argv)
    # Data-plane flags export env vars so worker processes (and every
    # module that consults the store) see the same configuration.
    if getattr(args, "trace_store", None):
        from repro.cachebudget import TRACE_STORE_ENV

        os.environ[TRACE_STORE_ENV] = args.trace_store
    if getattr(args, "trace", None):
        from repro.obs.tracer import TRACE_ENV

        os.environ[TRACE_ENV] = args.trace
    try:
        rc = args.func(args)
    except BrokenPipeError:
        # Downstream pager/head closed early (`repro store ls | head`).
        # Point stdout at devnull so the interpreter's exit-time flush
        # doesn't raise the same error again, and exit pipe-politely.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    if args.command in _OBS_COMMANDS:
        _flush_observability()
    return rc


if __name__ == "__main__":
    sys.exit(main())
