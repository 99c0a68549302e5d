"""The repo benchmark: one workload per invocation, measured from outside.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each measured unit runs in a fresh interpreter (``unit.py``) with an
environment stripped of inherited ``REPRO_*`` variables; the workload
sets only the variables it defines, and every path the program may write
(metrics, timing records, trace store, journals, temp files) points into
a scratch directory inside the checkout that is deleted on exit.  Units
repeat until ``--seconds`` have passed (at least one).  With ``--trace 1``
one more unit runs with the layer spans installed and the per-layer
metrics are printed instead of the end-to-end ones.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Lines before it give
the machine fingerprint, the resolved configuration and any check that
failed.  Workload choices, pinned references and the metric-to-workload
predictions live in ``spec.json`` beside this file.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import stats
from unit import KINDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Scale of the figure workloads: half the run length and memory of the
#: default 2048; every capacity tracks scale, so the ratios are the same.
FIGURE_SCALE = "4096"

#: Arrival traces per serve unit, each drawn from a seed derived from the
#: benchmark seed.  The seed moves a trace's cost a lot (tenant keys grow
#: with residency chains, so a few traces cost 20-40% more), so a unit
#: reports its median trace.
SERVE_TRACES = 4

#: ``env``: the only ``REPRO_*`` variables a workload's units see.
#: ``store``: ``cold`` gives every unit an empty trace store, ``warm`` one
#: store filled during set-up.  ``min_units``: units a run measures even
#: when ``--seconds`` has passed; warm units vary by about 8% among
#: themselves, so their median needs more of them.
WORKLOADS = {
    "figs-serial": {
        "env": {"REPRO_JOBS": "1", "REPRO_BENCH_SCALE": FIGURE_SCALE},
        "figures": ("fig5", "fig6"),
        "store": None,
        "min_units": 1,
    },
    "fig5-cold-pool": {
        "env": {"REPRO_JOBS": "2", "REPRO_BENCH_SCALE": FIGURE_SCALE},
        "figures": ("fig5",),
        "store": "cold",
        "min_units": 1,
    },
    "fig5-warm-pool": {
        "env": {"REPRO_JOBS": "2", "REPRO_BENCH_SCALE": FIGURE_SCALE},
        "figures": ("fig5",),
        "store": "warm",
        "min_units": 8,
    },
    "serve-journaled": {"env": {}, "figures": (), "store": None, "min_units": 1},
}

#: Units timed for set-up, at least: probes top up short runs.
SETUP_SAMPLES = 3

#: Seconds one unit process may take before the run is abandoned.
UNIT_TIMEOUT = 170


def declared_metrics(section: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared[section]}


def scrub_env(inherited: dict, workload_env: dict) -> dict:
    """The environment a unit runs with.

    Drops every inherited ``REPRO_*`` and ``PYTHON*`` variable, then sets
    the workload's own and the import path of this checkout.
    """
    env = {
        k: v for k, v in inherited.items()
        if not k.startswith("REPRO_") and not k.startswith("PYTHON")
    }
    env.update(workload_env)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def store_usage(store: Path) -> dict:
    """Bytes and artifact count per kind in a trace store directory."""
    usage = {kind: {"bytes": 0, "artifacts": 0} for kind in KINDS}
    if not store.exists():
        return usage
    for path in store.rglob("*"):
        if not path.is_file():
            continue
        kind = path.name.split("-")[0].split(".")[0]
        if kind in usage:
            usage[kind]["bytes"] += path.stat().st_size
            usage[kind]["artifacts"] += path.suffix == ".npy"
    return usage


def fingerprint(scratch: Path) -> dict:
    """The machine and toolchain a result was measured on."""
    import numpy

    try:
        mounts = [line.split() for line in Path("/proc/mounts").read_text().splitlines()]
    except OSError:
        mounts = []
    # The filesystem of the longest mount point that holds the scratch dir.
    _, fs = max(
        ((m[1], m[2]) for m in mounts if len(m) > 2 and str(scratch).startswith(m[1])),
        key=lambda mount: len(mount[0]),
        default=("", "unknown"),
    )
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "ram_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "scratch_fs": fs,
    }


class Bench:
    """One invocation: a workload, a seed and a scratch directory."""

    def __init__(self, workload: str, seed: int, scratch: Path) -> None:
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.scratch = scratch
        self.store = scratch / "store" if self.workload["store"] else None
        env = dict(self.workload["env"])
        env["REPRO_METRICS_PATH"] = str(scratch / "metrics-last.json")
        env["REPRO_PARALLEL_JSON"] = str(scratch / "parallel.json")
        env["TMPDIR"] = str(scratch)
        if self.store is not None:
            env["REPRO_TRACE_STORE"] = str(self.store)
        self.env = scrub_env(dict(os.environ), env)
        self.spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
        self._count = 0
        self.flags: list[str] = []
        #: Tenant-table digest and simulated statistics per serve seed.
        self._serve_seen: dict[str, tuple] = {}
        self.traced: dict | None = None
        self.warm_store: dict | None = None

    # -- processes ------------------------------------------------------
    def spawn(self, *extra: str) -> dict:
        """Run ``unit.py`` once in a fresh interpreter; return its report."""
        self._count += 1
        out = self.scratch / f"unit-{self._count}.json"
        cmd = [
            sys.executable, str(HERE / "unit.py"), "--workload", self.name,
            "--out", str(out), "--figures", ",".join(self.workload["figures"]),
            *extra,
        ]
        spawned = time.monotonic()
        subprocess.run(
            cmd + ["--spawned", repr(spawned)], env=self.env, cwd=ROOT,
            check=True, timeout=UNIT_TIMEOUT,
        )
        report = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        return report

    def serve_seeds(self) -> list[int]:
        return [self.seed * SERVE_TRACES + i for i in range(SERVE_TRACES)]

    def unit(self, trace: bool = False) -> dict:
        """One measured unit; serve units pool their arrival traces."""
        extra: list[str] = []
        if trace:
            spans_dir = self.scratch / "spans"
            spans_dir.mkdir()
            extra += ["--trace", str(spans_dir)]
        if self.name != "serve-journaled":
            if self.workload["store"] == "cold":
                shutil.rmtree(self.store, ignore_errors=True)
            before = store_usage(self.store) if self.store else None
            report = self.spawn(*extra)
            if before is not None:
                after = store_usage(self.store)
                report["store_mib_written"] = {
                    kind: (after[kind]["bytes"] - before[kind]["bytes"]) / 2**20
                    for kind in KINDS
                }
                report["store_mib"] = sum(v["bytes"] for v in after.values()) / 2**20
            self.check_figures(report)
            report["setups"] = [report["setup_s"]]
            report["ops_per_s"] = report["attempted"] / report["wall_s"]
            return report
        traces = []
        for sub_seed in self.serve_seeds()[: 1 if trace else None]:
            journal = self.scratch / f"journal-{sub_seed}"
            report = self.spawn(
                *extra, "--seed", str(sub_seed), "--journal", str(journal),
            )
            shutil.rmtree(journal, ignore_errors=True)
            report["sub_seed"] = sub_seed
            self.check_serve(report)
            traces.append(report)
        return {
            "traces": traces,
            **{
                key: statistics.median(t[key] for t in traces)
                for key in ("wall_s", "cpu_s", "peak_rss_mib")
            },
            "ops_per_s": statistics.median(t["attempted"] / t["wall_s"] for t in traces),
            "attempted": sum(t["attempted"] for t in traces),
            "failed": sum(t["failed"] for t in traces),
            "setups": [t["setup_s"] for t in traces],
            "layers": traces[0].get("layers"),
        }

    # -- checks ---------------------------------------------------------
    def check_figures(self, report: dict) -> None:
        report["attempted"] = report["failed"] = 0
        for name in self.workload["figures"]:
            reference = self.spec["figures"][name]
            failed = checks.failed_cells(report["rendered"].get(name), reference)
            report["attempted"] += len(reference["rows"])
            report["failed"] += failed
            if failed:
                self.flags.append(f"{name}: {failed} cell(s) differ from the pinned rows")
        pinned = self.spec["sim_stats"][self.name]
        got = checks.sim_stats(report["counters"])
        if got != pinned:
            self.flags.append(f"simulated statistics {got} differ from pinned {pinned}")

    def check_serve(self, report: dict) -> None:
        seed = str(report["sub_seed"])
        digest = report["tenant_table_sha256"]
        pinned = self.spec["serve_tenant_sha256"].get(seed)
        if pinned is not None and digest != pinned:
            self.flags.append(f"seed {seed}: tenant table digest {digest} != pinned {pinned}")
        if report["tenant_mismatches"]:
            self.flags.append(
                f"seed {seed}: {report['tenant_mismatches']} resident tenant(s) "
                "differ from the arrival trace"
            )
        observed = (digest, checks.sim_stats(report["counters"]))
        if self._serve_seen.setdefault(seed, observed) != observed:
            self.flags.append(f"seed {seed}: tenant table or simulated statistics changed between units")

    # -- the run --------------------------------------------------------
    def run(self, seconds: float, trace: bool) -> dict:
        fill_s = 0.0
        if self.workload["store"] == "warm":
            started = time.monotonic()
            self.check_figures(self.spawn())
            fill_s = time.monotonic() - started
            self.warm_store = store_usage(self.store)
        units = []
        began = time.monotonic()
        while len(units) < self.workload["min_units"] or time.monotonic() - began < seconds:
            units.append(self.unit())
        if trace:
            metrics = self.layer_metrics(units)
        else:
            setups = [s for u in units for s in u["setups"]]
            while len(setups) < SETUP_SAMPLES:
                setups.append(self.spawn("--probe")["setup_s"])
            measured = {
                "wall_s": statistics.median(u["wall_s"] for u in units),
                "cpu_s": statistics.median(u["cpu_s"] for u in units),
                "setup_s": statistics.median(setups) + fill_s,
                "peak_rss_mib": statistics.median(u["peak_rss_mib"] for u in units),
                "ops_per_s": statistics.median(u["ops_per_s"] for u in units),
            }
            metrics = {
                name: (measured[name], unit)
                for name, unit in declared_metrics("end_to_end").items()
            }
        everything = units + ([self.traced] if trace else [])
        return {
            "units": [self.summary(u) for u in everything],
            "metrics": metrics,
            "attempted": sum(u["attempted"] for u in everything),
            "failed": sum(u["failed"] for u in everything),
        }

    @staticmethod
    def summary(unit: dict) -> dict:
        """What one unit measured, for the lines before the result."""
        keys = ("wall_s", "cpu_s", "peak_rss_mib", "setup_s", "attempted", "failed", "store_mib")
        row = {k: unit[k] for k in keys if k in unit}
        if "counters" in unit:
            row["sim"] = checks.sim_stats(unit["counters"])
        if "traces" in unit:
            row["traces"] = [
                {
                    "seed": t["sub_seed"],
                    **{k: t[k] for k in keys if k in t},
                    "sim": checks.sim_stats(t["counters"]),
                    "tenant_table_sha256": t["tenant_table_sha256"],
                }
                for t in unit["traces"]
            ]
        return row

    def layer_metrics(self, units: list[dict]) -> dict:
        """Run the traced unit and gather every per-layer metric."""
        self.traced = self.unit(trace=True)
        layers = dict(self.traced["layers"])
        written = self.traced.get("store_mib_written", {})
        for kind in KINDS:
            layers[f"tracestore.{kind}_mib_written"] = written.get(kind, 0.0)
        layers["tracestore.store_mib"] = self.traced.get("store_mib", 0.0)
        layers.update(self.serve_layers(units))
        if self.name == "serve-journaled":
            baseline = statistics.median(u["traces"][0]["wall_s"] for u in units)
        else:
            baseline = statistics.median(u["wall_s"] for u in units)
        layers["obs.trace_overhead_frac"] = self.traced["wall_s"] / baseline - 1.0
        return {name: (layers[name], unit) for name, unit in declared_metrics("per_layer").items()}

    @staticmethod
    def serve_layers(units: list[dict]) -> dict:
        """Serving latencies of the untraced units: each trace's percentile,
        median over the traces whose sample count allows it."""
        traces = [t for u in units for t in u.get("traces", [])]

        def across_traces(samples_of, p: float) -> float:
            values = [
                stats.percentile(samples, p)
                for samples in map(samples_of, traces)
                if (stats.tail_percentile(len(samples)) or 0) >= p
            ]
            return statistics.median(values) if values else 0.0

        out = {}
        for op in ("admit", "measure", "phase-change", "depart"):
            for p in (50.0, 90.0):
                out[f"serve.{op.replace('-', '_')}_p{p:g}_ms"] = 1e3 * across_traces(
                    lambda t: t["latency_by_op_s"].get(op, []), p
                )
        for p in (50.0, 99.0):
            out[f"serve.decision_p{p:g}_ms"] = 1e3 * across_traces(lambda t: t["latency_s"], p)
        if traces:
            out["serve.placements_per_s"] = statistics.median(
                t["placements"] / t["wall_s"] for t in traces
            )
            out["journal.checkpoint_kib"] = statistics.median(
                t["checkpoint_bytes"] / 1024 for t in traces
            )
        else:
            out["serve.placements_per_s"] = out["journal.checkpoint_kib"] = 0.0
        return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    scratch_root = ROOT / ".perfbench_tmp"
    scratch = scratch_root / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, scratch)
        print(json.dumps({
            "fingerprint": fingerprint(scratch),
            "config": {k: v for k, v in sorted(bench.env.items()) if k.startswith("REPRO_")},
            "seed": args.seed,
            "serve_seeds": bench.serve_seeds() if args.workload == "serve-journaled" else None,
        }))
        result = bench.run(args.seconds, bool(args.trace))
        if bench.warm_store is not None:
            print(json.dumps({"warm_store": bench.warm_store}))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass
    print(json.dumps({"units": result["units"]}))
    for flag in bench.flags:
        print(f"CHECK FAILED: {flag}")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:34s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": not bench.flags and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
