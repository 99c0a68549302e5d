"""Tests for the multi-tenant shared-fast-memory host."""

import numpy as np
import pytest

from repro.apps import make_app
from repro.config import mcdram_dram_testbed, nvm_dram_testbed
from repro.errors import ConfigurationError
from repro.graph.generators import chung_lu_graph
from repro.sim.multitenant import MultiTenantHost


@pytest.fixture(scope="module")
def graphs():
    return (
        chung_lu_graph(12_000, 150_000, seed=31, name="tenant-a"),
        chung_lu_graph(12_000, 150_000, seed=32, name="tenant-b"),
    )


class TestAdmission:
    def test_two_tenants_coexist(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        host.admit("a", lambda: make_app("PR", graphs[0]))
        host.admit("b", lambda: make_app("BFS", graphs[1]))
        results = host.run()
        assert set(results) == {"a", "b"}
        assert all(r.optimized.seconds > 0 for r in results.values())

    def test_duplicate_tenant_rejected(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        host.admit("a", lambda: make_app("PR", graphs[0]))
        with pytest.raises(ConfigurationError):
            host.admit("a", lambda: make_app("BFS", graphs[1]))

    def test_object_names_prefixed(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        app = host.admit("a", lambda: make_app("PR", graphs[0]))
        assert "offsets" in app.objects
        # The runtime sees the prefixed name.
        assert app.objects["offsets"].name == "a/offsets"


class TestSharedCapacity:
    def test_both_tenants_speed_up_with_ample_capacity(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        host.admit("a", lambda: make_app("PR", graphs[0]))
        host.admit("b", lambda: make_app("PR", graphs[1]))
        results = host.run()
        assert results["a"].speedup > 1.2
        assert results["b"].speedup > 1.2

    def test_capacity_never_oversubscribed(self, graphs):
        platform = mcdram_dram_testbed(scale=1 << 17)  # ~128 KiB fast tier
        host = MultiTenantHost(platform)
        host.admit("a", lambda: make_app("PR", graphs[0]))
        host.admit("b", lambda: make_app("PR", graphs[1]))
        host.run()
        cap = platform.tiers[platform.fast_tier].capacity_bytes
        assert host.fast_tier_used_bytes() <= cap

    def test_first_tenant_gets_first_pick(self, graphs):
        # Capacity for roughly one tenant's hot set only.
        platform = mcdram_dram_testbed(scale=1 << 16)  # ~256 KiB
        host = MultiTenantHost(platform)
        host.admit("first", lambda: make_app("PR", graphs[0]))
        host.admit("second", lambda: make_app("PR", graphs[1]))
        results = host.run()
        assert results["first"].fast_bytes >= results["second"].fast_bytes

    def test_departure_returns_capacity_and_stays_consistent(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        host.admit("a", lambda: make_app("PR", graphs[0]))
        host.admit("b", lambda: make_app("BFS", graphs[1]))
        host.run()
        used_before = host.fast_tier_used_bytes()
        host.depart("a")
        assert [t[0] for t in host.tenants] == ["b"]
        assert host.fast_tier_used_bytes() <= used_before
        assert host.system.check_consistency() == []
        # The survivor still measures cleanly on the shared system.
        results = host.run()
        assert set(results) == {"b"}

    def test_departing_unknown_tenant_rejected(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        host.admit("a", lambda: make_app("PR", graphs[0]))
        with pytest.raises(ConfigurationError):
            host.depart("nobody")

    def test_departed_name_can_be_readmitted(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        host.admit("a", lambda: make_app("PR", graphs[0]))
        host.depart("a")
        host.admit("a", lambda: make_app("PR", graphs[0]))
        results = host.run()
        assert set(results) == {"a"}


class TestPrefixedRegistry:
    def test_full_registry_surface_is_forwarded(self, graphs):
        """Tenant apps get malloc/free and placement-hinted registration."""
        host = MultiTenantHost(nvm_dram_testbed())
        from repro.sim.multitenant import _PrefixedRegistry

        host.admit("a", lambda: make_app("PR", graphs[0]))
        _, _, runtime, _ = host.tenant("a")
        reg = _PrefixedRegistry(runtime, "a")
        scratch = reg.atmem_malloc("scratch", 4096)
        assert scratch.name == "a/scratch"
        assert "a/scratch" in runtime.objects
        reg.atmem_free("scratch")
        assert "a/scratch" not in runtime.objects

        preferred = reg.register_array_preferred(
            "hot", np.zeros(512, dtype=np.int64)
        )
        assert preferred.name == "a/hot"
        interleaved = reg.register_array_interleaved(
            "striped", np.zeros(512, dtype=np.int64)
        )
        assert interleaved.name == "a/striped"
        assert host.system.check_consistency() == []

    def test_selective_tenants_leave_room(self, graphs):
        """ATMem's Objective I: per-byte efficiency leaves capacity over."""
        platform = nvm_dram_testbed()
        host = MultiTenantHost(platform)
        host.admit("a", lambda: make_app("PR", graphs[0]))
        host.admit("b", lambda: make_app("CC", graphs[1]))
        results = host.run()
        cap = platform.tiers[platform.fast_tier].capacity_bytes
        used = host.fast_tier_used_bytes()
        assert used < 0.5 * cap
        # Yet both tenants were served.
        assert all(r.fast_bytes > 0 for r in results.values())


class TestPhases:
    """Phase counters, phase-suffixed keys, and incremental refolds."""

    def test_phase_counter_lifecycle(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        host.admit("a", lambda: make_app("PR", graphs[0]))
        assert host.phase_of("a") == 0
        assert host.phase_change("a") == 1
        assert host.phase_change("a") == 2
        assert host.phase_of("a") == 2
        host.set_phase("a", 5)
        assert host.phase_of("a") == 5
        host.set_phase("a", 0)
        assert host.phase_of("a") == 0

    def test_negative_phase_rejected(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        host.admit("a", lambda: make_app("PR", graphs[0]))
        with pytest.raises(ConfigurationError):
            host.set_phase("a", -1)

    def test_unknown_tenant_rejected(self):
        host = MultiTenantHost(nvm_dram_testbed())
        with pytest.raises(ConfigurationError):
            host.phase_change("ghost")
        with pytest.raises(ConfigurationError):
            host.phase_of("ghost")

    def test_departure_clears_phase(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        host.admit("a", lambda: make_app("PR", graphs[0]))
        host.phase_change("a")
        host.depart("a")
        host.admit("a", lambda: make_app("PR", graphs[0]))
        assert host.phase_of("a") == 0

    def test_phase_keys_suffix_only_later_phases(self):
        key = ("mt", "nvm_dram", (), ("a", "k"))
        assert MultiTenantHost._phase_key(key, 0) == key
        assert MultiTenantHost._phase_key(key, 2) == key + (("phase", 2),)
        assert MultiTenantHost._phase_key(None, 3) is None

    def test_phase_trace_is_cumulative_prefix(self, graphs):
        host = MultiTenantHost(nvm_dram_testbed())
        app = host.admit("a", lambda: make_app("PR", graphs[0]))
        t0 = MultiTenantHost._phase_trace(app, 0)
        t1 = MultiTenantHost._phase_trace(app, 1)
        n0 = t0.total_accesses
        assert t1.total_accesses == 2 * n0
        np.testing.assert_array_equal(
            t1.all_addresses()[:n0], t0.all_addresses()
        )

    def test_phase_change_profiles_cache_each_phase(self, graphs):
        from repro.sim.tracecache import TraceCache

        cache = TraceCache(max_traces=8)
        host = MultiTenantHost(nvm_dram_testbed(), trace_cache=cache)

        def factory():
            return make_app("PR", graphs[0])

        factory.trace_key = lambda: ("pr", "tenant-a")
        host.admit("a", factory)
        for phase in range(3):
            if phase:
                host.phase_change("a")
            (trace, hits), _ = host.profile_tenant("a")
            np.testing.assert_array_equal(
                hits, host.system.llc.hit_mask(trace.all_addresses())
            )
            assert cache.stats.trace_misses == phase + 1
            assert cache.stats.mask_misses == phase + 1
