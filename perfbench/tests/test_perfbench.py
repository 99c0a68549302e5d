"""Tests of the benchmark's own logic: ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import stats  # noqa: E402
from repro.bench.report import Table  # noqa: E402


def _span(sid, parent, start, end, layer="pool", name="x", pid=1):
    return {
        "id": sid, "parent": parent, "name": name, "layer": layer,
        "start": start, "end": end, "pid": pid,
    }


# -- percentile rule ----------------------------------------------------


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.tail_percentile(2048) == 99.0  # 20.48 beyond p99
    assert stats.tail_percentile(1000) == 99.0  # exactly 10 beyond
    assert stats.tail_percentile(999) == 90.0
    assert stats.tail_percentile(100) == 90.0
    assert stats.tail_percentile(99) == 50.0
    assert stats.tail_percentile(20) == 50.0
    assert stats.tail_percentile(19) is None
    assert stats.tail_percentile(10_000) == 99.9


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.percentile(values, 0) == 1.0
    assert stats.percentile(values, 50) == 2.5
    assert stats.percentile(values, 100) == 4.0
    assert stats.percentile(range(101), 99) == 99.0


# -- span arithmetic ----------------------------------------------------


def test_self_time_subtracts_union_of_children():
    tree = [
        _span("a", None, 0.0, 10.0, layer="pool"),
        _span("b", "a", 1.0, 4.0, layer="executor"),
        _span("c", "a", 3.0, 6.0, layer="executor"),
        _span("d", "b", 2.0, 3.0, layer="mem"),
    ]
    got = spans.self_times(tree)
    assert got["pool"] == 5.0  # children cover [1, 6] once
    assert got["executor"] == 2.0 + 3.0
    assert got["mem"] == 1.0


def test_totals_counts_outermost_spans_only():
    tree = [
        _span("a", None, 0.0, 4.0, name="fold"),
        _span("b", "a", 1.0, 2.0, name="fold"),
        _span("c", None, 5.0, 6.0, name="refold"),
        _span("d", "c", 5.1, 5.9, name="fold"),
    ]
    seconds, count = spans.totals(tree, "fold")
    assert (round(seconds, 9), count) == (4.8, 2)
    assert spans.totals(tree, "fold", "refold") == (5.0, 2)


def test_coverage_of_serial_top_level_spans():
    tree = [
        _span("a", None, 0.0, 4.0),
        _span("b", None, 6.0, 8.0),
        _span("c", "a", 1.0, 2.0),
    ]
    got = spans.coverage(tree, root_pid=1, start=0.0, end=10.0)
    assert got["covered_frac"] == 0.6
    assert got["critical_path_s"] == 0.0


def test_critical_path_and_worker_time_of_a_pool():
    pool = _span("p", None, 0.0, 10.0, name=spans.POOL_SPAN)
    tree = [
        pool,
        _span("w1", "p", 1.0, 5.0, pid=2),
        _span("w2", "p", 2.0, 9.0, pid=3),
        _span("w3", "p", 5.0, 8.0, pid=2),
    ]
    chain = spans.critical_path(tree, pool)
    assert [s["id"] for s in chain] == ["w2"]
    got = spans.coverage(tree, root_pid=1, start=0.0, end=10.0)
    assert got["critical_path_s"] == 7.0
    assert got["covered_frac"] == 0.7
    assert spans.worker_time(tree, root_pid=1) == (14.0, 6.0)


def test_critical_path_chains_back_through_earlier_work():
    pool = _span("p", None, 0.0, 10.0, name=spans.POOL_SPAN)
    tree = [
        pool,
        _span("build", "p", 0.5, 4.0, pid=2),
        _span("fold", "p", 4.0, 9.5, pid=3),
    ]
    assert [s["id"] for s in spans.critical_path(tree, pool)] == ["build", "fold"]


# -- output checks ------------------------------------------------------


def _reference_table() -> Table:
    table = Table(title="Figure X", columns=["app", "dataset", "speedup"], notes=["n"])
    table.add_row("BFS", "pokec", 1.25)
    table.add_row("PR", "pokec", 3.5)
    return table


def test_perturbed_row_counts_as_one_failed_cell():
    rendered = _reference_table().render()
    reference = {"sha256": checks.sha256(rendered), "rows": checks.table_rows(rendered)}
    assert len(reference["rows"]) == 2
    assert checks.failed_cells(rendered, reference) == 0
    perturbed = rendered.replace("3.500", "3.501")
    assert perturbed != rendered
    assert checks.failed_cells(perturbed, reference) == 1
    assert checks.failed_cells(None, reference) == 2


def test_pinned_figures_have_one_row_per_cell():
    spec = __import__("json").loads((HERE.parent / "spec.json").read_text())
    for name in ("fig5", "fig6"):
        assert len(spec["figures"][name]["rows"]) == 25


def test_tenant_oracle_follows_the_trace():
    app = SimpleNamespace(to_json=lambda: {"app": "PR"})
    jobs = [
        SimpleNamespace(op="admit", tenant="t0", app=app),
        SimpleNamespace(op="admit", tenant="t1", app=app),
        SimpleNamespace(op="phase-change", tenant="t1", app=None),
        SimpleNamespace(op="measure", tenant="t1", app=None),
        SimpleNamespace(op="depart", tenant="t0", app=None),
    ]
    assert checks.expected_tenants(jobs) == {"t1": {"app": {"app": "PR"}, "phase": 1}}
    good = [{"name": "t1", "app": {"app": "PR"}, "phase": 1, "placements": {}}]
    assert checks.tenant_table_mismatches(good, jobs) == 0
    stale = [dict(good[0], phase=0), {"name": "t0", "app": {"app": "PR"}, "placements": {}}]
    assert checks.tenant_table_mismatches(stale, jobs) == 2


# -- environment --------------------------------------------------------


def test_scrub_drops_inherited_repro_variables():
    inherited = {
        "PATH": "/usr/bin",
        "REPRO_JOBS": "8",
        "REPRO_TRACE_STORE": "/elsewhere",
        "PYTHONPATH": "/elsewhere",
    }
    env = run.scrub_env(inherited, {"REPRO_BENCH_SCALE": "4096"})
    assert env["PATH"] == "/usr/bin"
    assert "REPRO_JOBS" not in env
    assert "REPRO_TRACE_STORE" not in env
    assert env["REPRO_BENCH_SCALE"] == "4096"
    assert env["PYTHONPATH"] == str(run.ROOT / "src")
