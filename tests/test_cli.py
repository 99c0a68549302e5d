"""Tests for the command-line interface."""

import pytest

from repro.bench import report
from repro.cli import build_parser, main
from repro.obs.metrics import METRICS_PATH_ENV


@pytest.fixture(autouse=True)
def _outputs_in_tmp(tmp_path, monkeypatch):
    """Keep every command's metrics snapshot and artifacts out of the checkout."""
    monkeypatch.setenv(METRICS_PATH_ENV, str(tmp_path / "metrics.json"))
    # emit() resolves benchmarks/results from its module's __file__.
    monkeypatch.setattr(
        report, "__file__", str(tmp_path / "src" / "repro" / "bench" / "report.py")
    )


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.app == "PR"
        assert args.dataset == "friendster"
        assert args.platform == "nvm_dram"
        assert args.scale == 2048

    def test_run_rejects_unknown_app(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--app", "TriangleCount"])

    def test_run_rejects_unknown_platform(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--platform", "hbm"])


class TestCommands:
    def test_datasets_lists_all_five(self, capsys):
        assert main(["datasets", "--scale", "8192"]) == 0
        out = capsys.readouterr().out
        for name in ("pokec", "rmat24", "twitter", "rmat27", "friendster"):
            assert name in out

    def test_run_small(self, capsys):
        code = main([
            "run", "--app", "BFS", "--dataset", "pokec", "--scale", "8192",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "baseline" in out

    def test_run_mcdram_platform(self, capsys):
        code = main([
            "run", "--app", "CC", "--dataset", "pokec",
            "--platform", "mcdram_dram", "--scale", "8192",
        ])
        assert code == 0
        assert "preferred" in capsys.readouterr().out

    def test_migrate_small(self, capsys):
        code = main(["migrate", "--dataset", "pokec", "--scale", "8192"])
        assert code == 0
        out = capsys.readouterr().out
        assert "TLB misses" in out
        assert "migration time" in out

    def test_sweep_small(self, capsys):
        code = main(["sweep", "--dataset", "pokec", "--scale", "8192"])
        assert code == 0
        out = capsys.readouterr().out
        assert "epsilon" in out
        # Nine sweep rows.
        assert sum(1 for line in out.splitlines() if line.strip().startswith("0.")) >= 9


class TestReproduceCommand:
    def test_reproduce_single_experiment(self, capsys, monkeypatch, tmp_path):
        import repro.bench.workloads as workloads_mod

        monkeypatch.setattr(workloads_mod, "_OVERALL_CACHE", {})
        code = main(["reproduce", "table3", "--scale", "65536"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "regenerated 1 experiment(s)" in out
        results = tmp_path / "benchmarks" / "results"
        assert (results / "table3.txt").exists()
        assert (results / "json" / "table3.json").exists()

    def test_reproduce_unknown_experiment(self, capsys):
        assert main(["reproduce", "fig99"]) == 2
        assert "unknown experiments" in capsys.readouterr().out

    def test_reproduce_lists_available(self):
        from repro.cli import EXPERIMENT_BUILDERS

        assert {"fig1a", "fig5", "fig6", "fig7", "fig8", "table3", "table4"} <= set(
            EXPERIMENT_BUILDERS
        )


class TestObservabilityCommands:
    @pytest.fixture(autouse=True)
    def _obs_env(self, monkeypatch):
        from repro.obs import reset_all
        from repro.obs.tracer import TRACE_ENV

        # "0" disables tracing but lets monkeypatch restore the original
        # value even after main() overwrites it via --trace.
        monkeypatch.setenv(TRACE_ENV, "0")
        reset_all()
        yield
        reset_all()

    def test_run_with_trace_writes_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "run.trace"
        code = main([
            "run", "--app", "BFS", "--dataset", "pokec", "--scale", "8192",
            "--trace", str(trace),
        ])
        assert code == 0
        assert "span trace written" in capsys.readouterr().out
        lines = trace.read_text().strip().splitlines()
        assert lines, "trace file should contain span records"
        names = {__import__("json").loads(line)["name"] for line in lines}
        assert "phase.profile" in names

    def test_trace_converts_to_chrome_json(self, tmp_path, capsys):
        import json

        trace = tmp_path / "run.trace"
        main([
            "run", "--app", "BFS", "--dataset", "pokec", "--scale", "8192",
            "--trace", str(trace),
        ])
        capsys.readouterr()
        assert main(["trace", "--perfetto", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace event(s)" in out
        payload = json.loads((tmp_path / "run.json").read_text())
        assert payload["traceEvents"]
        assert {e["ph"] for e in payload["traceEvents"]} <= {"X", "i"}

    def test_trace_positional_and_out_override(self, tmp_path, capsys):
        import json

        trace = tmp_path / "r.trace"
        trace.write_text(
            json.dumps({"name": "s", "cat": "t", "ts": 1.0, "dur": 2.0,
                        "pid": 1, "tid": 1, "depth": 0, "args": {}}) + "\n"
        )
        out = tmp_path / "custom.json"
        assert main(["trace", str(trace), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["traceEvents"][0]["name"] == "s"

    def test_trace_missing_file(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path / "nope.trace")]) == 1
        assert "no trace file" in capsys.readouterr().out

    def test_trace_without_path_or_env(self, capsys):
        assert main(["trace"]) == 2
        assert "REPRO_TRACE" in capsys.readouterr().out

    def test_stats_after_run_renders_counters(self, capsys):
        main(["run", "--app", "BFS", "--dataset", "pokec", "--scale", "8192"])
        capsys.readouterr()
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "executor.runs" in out

    def test_stats_missing_snapshot(self, tmp_path, capsys):
        assert main(["stats", "--path", str(tmp_path / "none.json")]) == 1
        assert "no metrics snapshot" in capsys.readouterr().out


class TestSummaryCommand:
    def test_summary_missing_dir(self, tmp_path, capsys):
        code = main(["summary", "--results", str(tmp_path / "nope")])
        assert code == 1
        assert "no recorded results" in capsys.readouterr().out

    def test_summary_renders_from_records(self, tmp_path, capsys):
        from repro.bench.recorder import ResultRecord, ResultStore
        from repro.bench.report import Table

        t = Table(
            title="fig5",
            columns=["app", "dataset", "baseline_ms", "atmem_ms",
                     "ideal_ms", "speedup", "vs_ideal"],
        )
        t.add_row("BFS", "pokec", 1.0, 0.5, 0.4, 2.0, 1.25)
        ResultStore(tmp_path).save(
            ResultRecord.from_table("fig5", t, scale=2048)
        )
        code = main(["summary", "--results", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "2.00x-2.00x" in out
