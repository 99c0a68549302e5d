"""Wall-clock regression gate over ``BENCH_parallel.json`` records.

``make bench-smoke`` runs one small figure benchmark through the process
pool and leaves fresh timing rows behind; this module compares them
against the committed ``BENCH_parallel.json`` at the repository root and
prints a warning table for every stage that got more than
``DEFAULT_THRESHOLD`` slower.  Timings are machine-dependent, so the
gate *warns* by default (exit 0); ``--strict`` turns warnings into a
non-zero exit for CI machines that are stable enough to enforce it.

Matching is keyed by ``(benchmark, jobs, phase)``.  When the committed
baseline has no row for that exact phase (the smoke run does not tag
phases; the scaling sweep does), the fresh row is compared against the
*slowest* committed row of the same ``(benchmark, jobs)`` — a warning
then means "slower than even the worst committed timing for this
stage", which keeps false positives low on noisy machines.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

#: Fractional slowdown above which a stage lands in the warning table.
DEFAULT_THRESHOLD = 0.25

#: Wall-overhead budget for the telemetry plane (``obs_overhead`` rows).
OBS_OVERHEAD_LIMIT = 0.03

#: Fractional wall noise ignored before a cold phase counts as "slower
#: than serial" in :func:`diagnose_cold_parallel`.  Cold runs are the
#: noisiest timings we take (store I/O, fork, page-cache state); a 5%
#: loss is indistinguishable from run-to-run jitter.
COLD_NOISE_TOLERANCE = 0.05

#: Row kinds that are annotations/invariants, never wall timings.
ANNOTATION_KINDS = ("cold_parallel_warning", "cold_parallel_speedup")

#: The committed baseline record file (repository root).
BASELINE_PATH = Path(__file__).resolve().parents[3] / "BENCH_parallel.json"


@dataclass(frozen=True)
class Regression:
    """One stage that came out slower than its committed baseline."""

    benchmark: str
    jobs: int
    phase: str
    fresh_seconds: float
    baseline_seconds: float

    @property
    def slowdown(self) -> float:
        """Fractional slowdown (0.30 == 30% slower than baseline)."""
        if self.baseline_seconds <= 0:
            return 0.0
        return self.fresh_seconds / self.baseline_seconds - 1.0


def load_rows(path: str | Path) -> list[dict]:
    """The timing rows of one record file ([] when absent/corrupt)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return []
    if not isinstance(payload, list):
        return []
    return [row for row in payload if isinstance(row, dict)]


def _key(row: dict) -> tuple[str, int, str]:
    return (
        str(row.get("benchmark", "")),
        int(row.get("jobs", 0)),
        str(row.get("phase", "")),
    )


def compare(
    fresh: list[dict],
    baseline: list[dict],
    threshold: float = DEFAULT_THRESHOLD,
) -> list[Regression]:
    """Fresh rows more than ``threshold`` slower than their baseline.

    Fresh rows without any matching baseline are skipped — a new
    benchmark cannot regress against nothing.
    """
    exact: dict[tuple[str, int, str], float] = {}
    loose: dict[tuple[str, int], float] = {}
    for row in baseline:
        if row.get("kind") in ANNOTATION_KINDS:
            continue
        wall = float(row.get("wall_seconds", 0.0))
        if wall <= 0:
            continue
        benchmark, jobs, phase = _key(row)
        key = (benchmark, jobs, phase)
        exact[key] = max(exact.get(key, 0.0), wall)
        loose_key = (benchmark, jobs)
        loose[loose_key] = max(loose.get(loose_key, 0.0), wall)
    regressions: list[Regression] = []
    for row in fresh:
        if row.get("kind") in ANNOTATION_KINDS:
            continue  # diagnosis/invariant rows are annotations, not timings
        wall = float(row.get("wall_seconds", 0.0))
        if wall <= 0:
            continue
        benchmark, jobs, phase = _key(row)
        base = exact.get((benchmark, jobs, phase))
        if base is None:
            base = loose.get((benchmark, jobs))
        if base is None:
            continue
        if wall > base * (1.0 + threshold):
            regressions.append(
                Regression(
                    benchmark=benchmark,
                    jobs=jobs,
                    phase=phase,
                    fresh_seconds=wall,
                    baseline_seconds=base,
                )
            )
    return regressions


def _stage_seconds(row: dict) -> dict[str, float]:
    stages = row.get("stages")
    if not isinstance(stages, dict):
        return {}
    return {
        name: float(info.get("seconds", 0.0))
        for name, info in stages.items()
        if isinstance(info, dict)
    }


def _suspect_cause(row: dict, serial_row: dict | None, wall: float) -> str:
    """Name the most likely reason a cold parallel phase lost to serial."""
    stages = _stage_seconds(row)
    cache = row.get("cache") if isinstance(row.get("cache"), dict) else {}
    cold = int(cache.get("cold", 0))
    store_hits = int(cache.get("store", 0))
    offstage = wall - sum(stages.values())
    causes: list[str] = []
    if cold > 0 and store_hits == 0:
        causes.append(
            f"all {cold} cells ran cold with no store hits: their trace "
            "keys were never primed, so every cell built its own "
            "artifacts"
        )
    if serial_row is not None:
        serial_stages = _stage_seconds(serial_row)
        serial_offstage = float(serial_row.get("wall_seconds", 0.0)) - sum(
            serial_stages.values()
        )
        if stages and serial_stages:
            grown = {
                name: stages[name] - serial_stages.get(name, 0.0)
                for name in stages
                if stages[name] - serial_stages.get(name, 0.0) > 0.5
            }
            if grown:
                worst = max(grown, key=grown.get)
                causes.append(
                    f"stage {worst} grew {grown[worst]:.1f}s vs serial"
                )
        extra_off = offstage - serial_offstage
        if extra_off > 0.5:
            causes.append(
                f"off-stage overhead (fork/IPC, store writeback, "
                f"scheduler waits) grew {extra_off:.1f}s vs serial"
            )
    elif offstage > 0.5:
        causes.append(
            f"off-stage overhead (fork/IPC, store writeback) is "
            f"{offstage:.1f}s of the wall"
        )
    if not causes:
        causes.append("fan-out overhead exceeds the parallelism win")
    return "; ".join(causes)


def diagnose_cold_parallel(rows: list[dict]) -> list[dict]:
    """Structured diagnosis rows for cold parallel phases slower than serial.

    The scaling sweep (``benchmarks/run_scaling.py``) tags its rows
    ``serial`` / ``cold-N`` / ``warm-N`` per benchmark.  A cold parallel
    run that loses to serial means the fan-out overhead (fork, store
    population, shm publish) ate the whole parallelism win — the
    regression this repo's data plane exists to prevent.  Each returned
    row is JSON-ready and names a ``suspected_cause`` derived from the
    cache counters, the per-stage deltas against the serial row, and the
    off-stage residual (wall minus the sum of instrumented stages); the
    sweep appends these rows to ``BENCH_parallel.json`` so the committed
    record *documents* the regression instead of silently carrying it.
    """
    serial_rows: dict[str, dict] = {}
    for row in rows:
        if str(row.get("phase", "")) == "serial":
            wall = float(row.get("wall_seconds", 0.0))
            benchmark = str(row.get("benchmark", ""))
            best = serial_rows.get(benchmark)
            if wall > 0 and (
                best is None or wall > float(best.get("wall_seconds", 0.0))
            ):
                serial_rows[benchmark] = row
    diagnoses: list[dict] = []
    for row in rows:
        if row.get("kind") in ANNOTATION_KINDS:
            continue  # never re-diagnose an annotation row
        phase = str(row.get("phase", ""))
        if not phase.startswith("cold-"):
            continue
        benchmark = str(row.get("benchmark", ""))
        serial_row = serial_rows.get(benchmark)
        base = (
            float(serial_row.get("wall_seconds", 0.0)) if serial_row else 0.0
        )
        wall = float(row.get("wall_seconds", 0.0))
        if serial_row is None or wall <= base * (1.0 + COLD_NOISE_TOLERANCE):
            continue
        stages = _stage_seconds(row)
        serial_stages = _stage_seconds(serial_row)
        diagnoses.append(
            {
                "kind": "cold_parallel_warning",
                "benchmark": benchmark,
                "phase": phase,
                "jobs": int(row.get("jobs", 0)),
                "wall_seconds": round(wall, 3),
                "serial_seconds": round(base, 3),
                "slowdown": round(wall / base - 1.0, 4),
                "offstage_seconds": round(wall - sum(stages.values()), 3),
                "stage_deltas": {
                    name: round(
                        stages[name] - serial_stages.get(name, 0.0), 3
                    )
                    for name in sorted(stages)
                },
                "suspected_cause": _suspect_cause(row, serial_row, wall),
            }
        )
    return diagnoses


def cold_parallel_warnings(rows: list[dict]) -> list[str]:
    """Textual rendering of :func:`diagnose_cold_parallel` (warn-only).

    Cold timings are the noisiest rows we record, and the sweep's
    ``cold_parallel_speedup`` invariant rows carry the enforced gate
    (:func:`cold_speedup_violations`), so these annotations never fail
    the build on their own.
    """
    warnings: list[str] = []
    for diag in diagnose_cold_parallel(rows):
        warnings.append(
            f"bench-regression: WARNING — {diag['benchmark']} "
            f"{diag['phase']} took {diag['wall_seconds']:.3f} s vs serial "
            f"{diag['serial_seconds']:.3f} s ({diag['slowdown']:.0%} "
            f"slower); {diag['suspected_cause']}"
        )
        if diag["stage_deltas"]:
            parts = ", ".join(
                f"{name} {delta:+.2f}s"
                for name, delta in diag["stage_deltas"].items()
            )
            warnings.append(
                f"  stage deltas vs serial: {parts}; off-stage "
                f"{diag['offstage_seconds']:.2f}s"
            )
    return warnings


def obs_overhead_violations(fresh: list[dict]) -> list[str]:
    """``obs_overhead`` rows whose tracing-on run blew the wall budget.

    Unlike :func:`compare`, this gate needs no committed baseline — the
    row carries its own tracing-off control timing, so a fresh record is
    judged absolutely: telemetry costing more than
    :data:`OBS_OVERHEAD_LIMIT` of the wall fails ``--strict`` outright.
    """
    problems: list[str] = []
    for row in fresh:
        if str(row.get("benchmark", "")) != "obs_overhead":
            continue
        overhead = float(row.get("overhead_fraction", 0.0))
        limit = float(row.get("limit", OBS_OVERHEAD_LIMIT))
        if overhead > limit:
            problems.append(
                f"bench-regression: WARNING — telemetry overhead "
                f"{overhead:.1%} exceeds the {limit:.0%} budget "
                f"(tracing on {float(row.get('wall_seconds', 0.0)):.4f} s "
                f"vs off {float(row.get('baseline_seconds', 0.0)):.4f} s)"
            )
    return problems


def cold_speedup_violations(rows: list[dict]) -> list[str]:
    """``cold_parallel_speedup`` rows that fell below their own floor.

    The scaling sweep records the cold-parallel-vs-serial speedup as an
    invariant row carrying its own machine-calibrated ``floor`` (1.0 on
    multicore hosts, slightly under on single-CPU machines where the
    pipeline can only hide store I/O, not compute).  Like
    :func:`obs_overhead_violations` this gate is absolute — no committed
    baseline is needed, so both the fresh record and the committed one
    can be judged, and ``--strict`` fails either falling below floor.
    """
    problems: list[str] = []
    for row in rows:
        if row.get("kind") != "cold_parallel_speedup":
            continue
        speedup = float(row.get("speedup", 0.0))
        floor = float(row.get("floor", 1.0))
        if speedup < floor:
            problems.append(
                f"bench-regression: WARNING — cold parallel speedup "
                f"{speedup:.3f}x for {row.get('benchmark', '?')} at "
                f"{int(row.get('jobs', 0))} jobs is below the "
                f"{floor:.2f}x floor (cold parallel must not lose to "
                f"serial)"
            )
    return problems


def render_table(
    regressions: list[Regression], threshold: float = DEFAULT_THRESHOLD
) -> str:
    """The warning table (or the all-clear line) for a comparison."""
    if not regressions:
        return f"bench-regression: no stage more than {threshold:.0%} slower"
    lines = [
        f"bench-regression: WARNING — {len(regressions)} stage(s) more "
        f"than {threshold:.0%} slower than committed BENCH_parallel.json",
        f"{'benchmark':<24} {'jobs':>4} {'phase':<10} "
        f"{'fresh (s)':>10} {'baseline (s)':>13} {'slowdown':>9}",
        "-" * 76,
    ]
    for reg in sorted(regressions, key=lambda r: -r.slowdown):
        lines.append(
            f"{reg.benchmark:<24} {reg.jobs:>4} {reg.phase or '-':<10} "
            f"{reg.fresh_seconds:>10.3f} {reg.baseline_seconds:>13.3f} "
            f"{reg.slowdown:>8.0%}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.regression",
        description="compare fresh bench timings against the committed "
        "BENCH_parallel.json",
    )
    parser.add_argument(
        "--fresh", required=True, metavar="PATH",
        help="record file the benchmark run just wrote",
    )
    parser.add_argument(
        "--baseline", default=str(BASELINE_PATH), metavar="PATH",
        help="committed baseline records (default: repo BENCH_parallel.json)",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="fractional slowdown that triggers a warning (default: 0.25)",
    )
    parser.add_argument(
        "--strict", action="store_true",
        help="exit non-zero when any stage regresses (default: warn only)",
    )
    args = parser.parse_args(argv)
    fresh = load_rows(args.fresh)
    if not fresh:
        print(f"bench-regression: no fresh timing rows at {args.fresh}")
        return 0
    baseline = load_rows(args.baseline)
    if not baseline:
        print(f"bench-regression: no baseline rows at {args.baseline}; "
              "nothing to compare against")
        return 0
    regressions = compare(fresh, baseline, args.threshold)
    print(render_table(regressions, args.threshold))
    for warning in cold_parallel_warnings(fresh):
        print(warning)
    overhead_problems = obs_overhead_violations(fresh)
    for warning in overhead_problems:
        print(warning)
    # The cold-speedup invariant is self-judging (the row carries its
    # floor), so enforce it on the fresh record *and* the committed one:
    # a refresh must never land a below-floor speedup in the baseline.
    speedup_problems = cold_speedup_violations(fresh) + [
        f"{problem} [committed baseline]"
        for problem in cold_speedup_violations(baseline)
    ]
    for warning in speedup_problems:
        print(warning)
    failures = regressions or overhead_problems or speedup_problems
    if failures and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
