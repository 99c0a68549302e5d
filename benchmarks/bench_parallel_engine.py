"""Smoke test for the parallel experiment engine (``make bench-smoke``).

Runs one small overall-grid slice (two apps x two datasets on the
NVM-DRAM testbed) through the :class:`repro.sim.parallel.ExperimentPool`
with two workers, checks parallel results exactly match an in-process
serial recomputation, and records the measured batch wall-clock in
``BENCH_parallel.json``.  The record carries a ``pricing`` field naming
the path that priced the cells (compiled profiles vs full replay), and
a second ``pricing_speedup`` row measures the same warmed cell priced
both ways — the replay-vs-profile win as an artifact, not a claim.
"""

import os
import time

from repro.bench.report import Table, emit
from repro.bench.workloads import _cell_spec, bench_scale, prime_overall_grid
from repro.sim.executor import PRICING_ENV
from repro.sim.parallel import execute_job, record_parallel_timing
from repro.sim.tracecache import TraceCache

SMOKE_APPS = ("BFS", "PR")
SMOKE_DATASETS = ("twitter", "rmat24")


def test_parallel_engine_smoke(once):
    jobs = int(os.environ.get("REPRO_JOBS", "2"))

    def run():
        import repro.bench.workloads as workloads

        workloads._OVERALL_CACHE.clear()
        elapsed = prime_overall_grid(
            "nvm_dram",
            SMOKE_APPS,
            SMOKE_DATASETS,
            jobs=jobs,
            benchmark="parallel_engine_smoke",
        )
        cells = {
            (app, ds): workloads._OVERALL_CACHE[("nvm_dram", app, ds)]
            for app in SMOKE_APPS
            for ds in SMOKE_DATASETS
        }
        return elapsed, cells

    elapsed, cells = once(run)
    table = Table(
        title=f"Parallel engine smoke: 2x2 grid, {jobs} workers",
        columns=["app", "dataset", "baseline_ms", "atmem_ms", "speedup"],
        notes=[f"batch wall-clock {elapsed:.2f} s at scale {bench_scale()}"],
    )
    for (app, ds), cell in cells.items():
        table.add_row(
            app,
            ds,
            cell.baseline.seconds * 1e3,
            cell.atmem.seconds * 1e3,
            cell.speedup,
        )
    emit(table, "parallel_smoke.txt")
    # Parallel results must be bit-identical to a serial in-process rerun.
    for (app, ds), cell in cells.items():
        serial = execute_job(_cell_spec("nvm_dram", app, ds), trace_cache=TraceCache())
        assert serial.baseline.seconds == cell.baseline.seconds, (app, ds)
        assert serial.atmem.seconds == cell.atmem.seconds, (app, ds)
        assert serial.atmem.data_ratio == cell.atmem.data_ratio, (app, ds)
    assert all(cell.speedup > 0.9 for cell in cells.values())
    _record_pricing_speedup()


def _record_pricing_speedup() -> None:
    """Price one warmed cell both ways and record the measured speedup.

    The first run builds the cache artifacts (trace, hit mask, compiled
    profile), so both timed reruns pay only pricing: the profile rerun
    contracts per-page histograms, the ``REPRO_PRICING=replay`` rerun
    walks the access stream.  Results must stay bit-identical — the
    speedup is free only because the answers agree.
    """
    spec = _cell_spec("nvm_dram", "PR", "twitter")
    cache = TraceCache()
    execute_job(spec, trace_cache=cache)  # warm: build trace/mask/profile
    start = time.perf_counter()
    profiled = execute_job(spec, trace_cache=cache)
    profile_seconds = time.perf_counter() - start
    os.environ[PRICING_ENV] = "replay"
    try:
        start = time.perf_counter()
        replayed = execute_job(spec, trace_cache=cache)
        replay_seconds = time.perf_counter() - start
    finally:
        os.environ.pop(PRICING_ENV, None)
    assert replayed.baseline.seconds == profiled.baseline.seconds
    assert replayed.atmem.seconds == profiled.atmem.seconds
    record_parallel_timing(
        {
            "benchmark": "pricing_speedup",
            "jobs": 1,
            "cells": 1,
            "scale": bench_scale(),
            "pricing": "profile",
            "wall_seconds": round(profile_seconds, 3),
            "replay_seconds": round(replay_seconds, 3),
            "speedup": round(replay_seconds / max(profile_seconds, 1e-9), 2),
        }
    )
