"""Parallel experiment engine: parity with serial, errors, determinism."""

import dataclasses

import pytest

from repro.cachebudget import CACHE_BYTES_ENV, TRACE_STORE_ENV
from repro.config import nvm_dram_testbed
from repro.errors import ConfigurationError
from repro.faults.chaos import committed_figures
from repro.mem.trace import WORKER_BYTES_ENV
from repro.sim import tracecache
from repro.sim.parallel import (
    POOL_CPUS_ENV,
    AppSpec,
    ExperimentJobError,
    ExperimentPool,
    JobSpec,
    execute_job,
    resolve_jobs,
    run_jobs,
)
from repro.sim.tracestore import process_trace_store

#: Huge divisor -> every dataset collapses to its floor size; jobs stay tiny.
TINY = 1 << 20


@pytest.fixture(scope="module")
def platform():
    return nvm_dram_testbed(scale=512)


def _grid_specs(platform):
    return [
        JobSpec(
            app=AppSpec.make(app, ds, scale=TINY),
            platform=platform,
            flow="cell",
            placement="fast",
            tag=f"{app}/{ds}",
        )
        for app in ("BFS", "PR")
        for ds in ("twitter", "rmat24")
    ]


class TestParitySerialVsParallel:
    def test_pool_matches_serial_exactly(self, platform):
        """The tentpole invariant: fan-out must not change a single bit."""
        specs = _grid_specs(platform)
        parallel_pool = ExperimentPool(max_workers=4)
        parallel = parallel_pool.run(specs)
        serial_pool = ExperimentPool(max_workers=1)
        serial = serial_pool.run(specs)
        assert serial_pool.last_mode == "serial"
        assert len(parallel) == len(serial) == len(specs)
        for spec, par, ser in zip(specs, parallel, serial):
            assert par.baseline.seconds == ser.baseline.seconds, spec.tag
            assert par.reference.seconds == ser.reference.seconds, spec.tag
            assert par.atmem.seconds == ser.atmem.seconds, spec.tag
            assert par.atmem.data_ratio == ser.atmem.data_ratio, spec.tag
            assert (
                par.atmem.migration.bytes_moved == ser.atmem.migration.bytes_moved
            ), spec.tag
            assert par.atmem.migration.seconds == ser.atmem.migration.seconds, spec.tag
            assert (
                par.atmem.migration.pages_touched == ser.atmem.migration.pages_touched
            ), spec.tag

    def test_results_come_back_in_submission_order(self, platform):
        specs = _grid_specs(platform)
        results = run_jobs(specs, jobs=2)
        for spec, result in zip(specs, results):
            direct = execute_job(spec)
            assert result.atmem.seconds == direct.atmem.seconds, spec.tag


def _assert_store_primed(keys: int) -> None:
    """The store holds a trace, a mask and a profile for every key."""
    entries = list(process_trace_store().entries())
    assert len(entries) == keys
    for entry in entries:
        assert entry["artifacts"] == ["mask", "profile", "trace"], entry


class TestColdDag:
    """The staged trace → fold DAG primes every store-cold key.

    One admitted slot (few CPUs, or a worker budget too small for two
    traces) is the same DAG run one stage at a time, not another path.
    Each case starts from an empty store and a fresh parent cache.
    """

    @pytest.fixture(scope="class")
    def reference(self, platform):
        with pytest.MonkeyPatch.context() as mp:
            mp.delenv(TRACE_STORE_ENV, raising=False)
            mp.setattr(tracecache, "_PROCESS_CACHE", None)
            results = ExperimentPool(1).run(_grid_specs(platform))
        return [committed_figures(result) for result in results]

    @pytest.mark.parametrize(
        "cpus, worker_bytes, admitted",
        [("2", None, 2), ("1", None, 1), ("2", "4096", 1)],
        ids=["two-slots", "one-cpu", "starved-budget"],
    )
    def test_dag_primes_every_cold_key(
        self, platform, reference, monkeypatch, tmp_path,
        cpus, worker_bytes, admitted,
    ):
        specs = _grid_specs(platform)
        keys = {spec.trace_key() for spec in specs}
        assert len(keys) >= 3
        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path / "store"))
        monkeypatch.delenv(CACHE_BYTES_ENV, raising=False)
        monkeypatch.setenv(POOL_CPUS_ENV, cpus)
        if worker_bytes is None:
            monkeypatch.delenv(WORKER_BYTES_ENV, raising=False)
        else:
            monkeypatch.setenv(WORKER_BYTES_ENV, worker_bytes)
        monkeypatch.setattr(tracecache, "_PROCESS_CACHE", None)

        cold = ExperimentPool(2)
        results = cold.run(specs)
        assert cold.last_mode == "parallel[2]"
        health = cold.health
        assert health.cold_keys == len(keys), health.as_dict()
        assert health.cold_admitted == admitted, health.as_dict()
        assert health.max_worker_rss_bytes > 0
        # The DAG landed every artifact before the wave: no cell built one.
        assert health.cold_jobs == 0, health.as_dict()
        assert [committed_figures(r) for r in results] == reference
        _assert_store_primed(len(keys))

        warm = ExperimentPool(2)
        results = warm.run(specs)
        health = warm.health
        assert health.cold_keys == 0, health.as_dict()
        assert health.cold_jobs == 0, health.as_dict()
        assert health.store_jobs + health.warm_jobs == len(specs)
        assert [committed_figures(r) for r in results] == reference

    def test_dag_lands_artifacts_the_parent_already_holds(
        self, platform, reference, monkeypatch, tmp_path
    ):
        """Forked workers inherit the parent's cache; the store still fills."""
        specs = _grid_specs(platform)
        monkeypatch.delenv(TRACE_STORE_ENV, raising=False)
        monkeypatch.setattr(tracecache, "_PROCESS_CACHE", None)
        ExperimentPool(1).run(specs)  # every artifact now in parent memory
        monkeypatch.setenv(TRACE_STORE_ENV, str(tmp_path / "store"))
        monkeypatch.setenv(POOL_CPUS_ENV, "2")
        pool = ExperimentPool(2)
        results = pool.run(specs)
        assert pool.health.cold_keys == len(specs), pool.health.as_dict()
        assert [committed_figures(r) for r in results] == reference
        _assert_store_primed(len(specs))


class TestErrorPropagation:
    def test_worker_exception_carries_its_spec(self, platform):
        """A failing job surfaces as ExperimentJobError with the spec attached."""
        bad = JobSpec(
            app=AppSpec.make("PR", "twitter", scale=TINY, bogus_kwarg=1),
            platform=platform,
            flow="atmem",
            tag="doomed",
        )
        good = _grid_specs(platform)[0]
        with pytest.raises(ExperimentJobError) as excinfo:
            ExperimentPool(max_workers=2).run([good, bad])
        err = excinfo.value
        assert err.spec is bad
        assert err.spec.tag == "doomed"
        assert err.kind  # the worker-side exception type name
        assert "bogus_kwarg" in str(err) or "bogus_kwarg" in err.worker_traceback

    def test_unknown_flow_rejected_at_construction(self, platform):
        with pytest.raises(ConfigurationError):
            JobSpec(
                app=AppSpec.make("PR", "twitter", scale=TINY),
                platform=platform,
                flow="warp",
            )

    def test_multitenant_flow_requires_tenants(self, platform):
        with pytest.raises(ConfigurationError):
            JobSpec(app=None, platform=platform, flow="multitenant")


class TestDeterministicSeeding:
    def test_job_seed_depends_on_content_not_order(self, platform):
        specs = _grid_specs(platform)
        seeds = [s.job_seed() for s in specs]
        assert len(set(seeds)) == len(seeds), "distinct cells get distinct seeds"
        # Rebuilding the same spec reproduces the same seed.
        rebuilt = _grid_specs(platform)
        assert [s.job_seed() for s in rebuilt] == seeds

    def test_explicit_seed_wins(self, platform):
        spec = dataclasses.replace(_grid_specs(platform)[0], seed=1234)
        assert spec.job_seed() == 1234


class TestResolveJobs:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_environment_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs() == 5

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_floor_is_one(self):
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1


class TestSerialFallback:
    def test_single_worker_never_forks(self, platform):
        pool = ExperimentPool(max_workers=1)
        pool.run(_grid_specs(platform)[:1])
        assert pool.last_mode == "serial"

    def test_single_spec_batch_runs_serially(self, platform):
        pool = ExperimentPool(max_workers=8)
        pool.run(_grid_specs(platform)[:1])
        assert pool.last_mode == "serial"

    def test_empty_batch(self):
        pool = ExperimentPool(max_workers=4)
        assert pool.run([]) == []
        assert pool.last_mode == "empty"
