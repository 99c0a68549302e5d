"""Reuse-fold microbenchmark (``make bench-fold``).

Times the argsort parity oracle against the reuse-gap fold behind every
working-set hit mask, on one representative trace (the PR/twitter smoke
cell):

1. **argsort oracle** — the O(N log N) stable-argsort fold
   (:func:`repro.mem.cache._argsort_reuse_gaps`) that
   ``REPRO_VERIFY_REUSE=1`` checks every fold against;
2. **selected fold** — what :func:`repro.mem.cache.reuse_time_gaps`
   runs: the head-space fold, expanded to full gaps.  Its head gaps come
   from the O(N) last-seen numba kernel
   (:func:`repro.mem.cachejit.reuse_gap_kernel`) when numba is
   importable and ``REPRO_JIT`` allows it (compile time excluded, like
   any warmed JIT), otherwise from the numpy run-head fold (one
   packed-key sort of the run heads).  The ``jit`` column says which;
   ``kernel_seconds`` is ``null`` without numba.

Both folds must agree bit-for-bit before anything is recorded.  The
``reuse_speedup`` row lands in ``BENCH_parallel.json`` (or the file
``REPRO_PARALLEL_JSON`` points at — ``make bench-smoke`` routes it into
the scratch record checked by the ``--strict`` regression gate).  A
second ``trace_gen_vectorize`` row documents the synthetic-trace-
generation satellite: the SSSP segment-min as one unordered scatter-min
versus the old argsort+reduceat walk, verified equivalent on the same
relaxation data.
"""

import time

import numpy as np

from repro.bench.workloads import _cell_spec, bench_scale
from repro.mem.cache import _argsort_reuse_gaps, reuse_time_gaps
from repro.mem.cachejit import reuse_gap_kernel
from repro.sim.parallel import execute_job, record_parallel_timing
from repro.sim.tracecache import TraceCache

INF = np.iinfo(np.int64).max // 2


def _smoke_addresses() -> np.ndarray:
    """The PR/twitter smoke cell's program-order address stream."""
    spec = _cell_spec("nvm_dram", "PR", "twitter")
    cache = TraceCache(store=None)
    execute_job(spec, trace_cache=cache)
    trace = cache.trace(spec.trace_key(), lambda: None)  # served from memory
    return np.ascontiguousarray(trace.all_addresses(), dtype=np.int64)


def _best_of(n, fn):
    """Minimum wall-clock over ``n`` runs — the recorded ``*_seconds``
    feed the 25% regression gate, and the minimum is what the hardware
    can do; the rest is scheduling jitter."""
    best, result = np.inf, None
    for _ in range(n):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_reuse_fold_speedup(once):
    addrs = _smoke_addresses()
    lines = addrs >> 6

    once(lambda: _argsort_reuse_gaps(lines))  # benchmark-plumbed round
    argsort_seconds, argsort_gaps = _best_of(
        3, lambda: _argsort_reuse_gaps(lines)
    )

    jit = reuse_gap_kernel() is not None
    reuse_time_gaps(addrs)  # warm-up: pays the one-time numba compile
    selected_seconds, selected_gaps = _best_of(
        3, lambda: reuse_time_gaps(addrs)
    )
    assert np.array_equal(argsort_gaps, selected_gaps)

    record_parallel_timing(
        {
            "benchmark": "reuse_speedup",
            "jobs": 1,
            "cells": 1,
            "scale": bench_scale(),
            "accesses": int(addrs.size),
            "jit": jit,
            "wall_seconds": round(selected_seconds, 4),
            "argsort_seconds": round(argsort_seconds, 4),
            "kernel_seconds": round(selected_seconds, 4) if jit else None,
            "speedup": round(argsort_seconds / max(selected_seconds, 1e-9), 2),
        }
    )


def _segment_min_reference(targets, candidate, dist):
    """The pre-vectorisation SSSP relaxation: argsort + reduceat."""
    order = np.argsort(targets, kind="stable")
    sorted_targets = targets[order]
    sorted_candidates = candidate[order]
    run_starts = np.nonzero(
        np.concatenate(([True], sorted_targets[1:] != sorted_targets[:-1]))
    )[0]
    best = np.minimum.reduceat(sorted_candidates, run_starts)
    unique_targets = sorted_targets[run_starts]
    improved_mask = best < dist[unique_targets]
    return unique_targets[improved_mask], best[improved_mask]


def _segment_min_scatter(targets, candidate, dist, scratch):
    """The shipped relaxation: one unordered scatter-min, sparse reset."""
    np.minimum.at(scratch, targets, candidate)
    improved = np.nonzero(scratch < dist)[0]
    values = scratch[improved]
    scratch[targets] = INF
    return improved, values


def test_trace_gen_vectorize(once):
    """One representative SSSP relaxation round, folded both ways.

    Sized so the scatter fold lands well clear of timer noise (the
    recorded ``wall_seconds`` feeds the 25% regression gate), and timed
    best-of-3 — the minimum is what the hardware can do, the rest is
    scheduling jitter.
    """
    rng = np.random.default_rng(17)
    n_vertices = 1_600_000
    n_edges = 12_800_000
    targets = rng.integers(0, n_vertices, n_edges, dtype=np.int64)
    candidate = rng.integers(0, 1 << 30, n_edges, dtype=np.int64)
    dist = rng.integers(0, 1 << 30, n_vertices, dtype=np.int64)
    dist[dist % 3 == 0] = INF  # a mix of settled and unreached vertices

    start = time.perf_counter()
    ref_improved, ref_values = once(
        lambda: _segment_min_reference(targets, candidate, dist)
    )
    reference_seconds = time.perf_counter() - start

    scratch = np.full(n_vertices, INF, dtype=np.int64)
    scatter_seconds = np.inf
    for _ in range(3):
        start = time.perf_counter()
        improved, values = _segment_min_scatter(
            targets, candidate, dist, scratch
        )
        scatter_seconds = min(
            scatter_seconds, time.perf_counter() - start
        )

    assert np.array_equal(ref_improved, improved)
    assert np.array_equal(ref_values, values)
    assert np.all(scratch[targets] == INF)  # the sparse reset held

    record_parallel_timing(
        {
            "benchmark": "trace_gen_vectorize",
            "jobs": 1,
            "cells": 1,
            "scale": bench_scale(),
            "edges": int(n_edges),
            "wall_seconds": round(scatter_seconds, 4),
            "reference_seconds": round(reference_seconds, 4),
            "speedup": round(
                reference_seconds / max(scatter_seconds, 1e-9), 2
            ),
        }
    )
