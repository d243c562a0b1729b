"""Tests for the architecture extensions (ATW, topology, migration,
foveation, HBM scaling)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import baseline_system
from repro.extensions import (
    ATWConfig,
    FoveationConfig,
    MigrationConfig,
    MigrationEngine,
    RoutedLinkFabric,
    Topology,
    atw_study,
    foveate_frame,
    foveate_scene,
    foveation_study,
    install_topology,
    local_bandwidth_sweep,
    migration_study,
    simulate_atw,
    topology_sweep,
)
from repro.extensions.atw import atw_for_scene
from repro.extensions.hbm import with_local_bandwidth
from repro.frameworks.base import build_framework
from repro.memory.address import texture_resource
from repro.memory.link import TrafficType
from repro.scene.benchmarks import make_benchmark_scene


TINY_SCENE = make_benchmark_scene("DM3-640", num_frames=3, draw_scale=0.05)


class TestATW:
    def test_fast_frames_all_fresh(self):
        # 5 ms frames against an 11.1 ms vsync: never misses.
        report = simulate_atw([5e6], framework="fast")
        assert report.fresh_rate == 1.0
        assert report.judder_rate == 0.0
        assert report.worst_lag_vsyncs == 0

    def test_slow_frames_judder(self):
        # 30 ms frames against 11.1 ms vsync: mostly warped frames.
        report = simulate_atw([30e6], framework="slow")
        assert report.judder_rate > 0.5
        assert report.worst_lag_vsyncs >= 1

    def test_rates_sum_to_one(self):
        report = simulate_atw([12e6, 8e6, 15e6])
        assert report.fresh_rate + report.judder_rate == pytest.approx(1.0)

    def test_higher_latency_never_fresher(self):
        fast = simulate_atw([8e6])
        slow = simulate_atw([20e6])
        assert slow.fresh_rate <= fast.fresh_rate

    def test_reprojection_cost_scales_with_resolution(self):
        small = ATWConfig(eye_width=640, eye_height=480)
        large = ATWConfig(eye_width=1600, eye_height=1200)
        assert large.reprojection_cycles() > small.reprojection_cycles()

    def test_scene_report_carries_names(self):
        result = build_framework("oo-vr").render_scene(TINY_SCENE)
        report = atw_for_scene(result)
        assert report.framework == "oo-vr"
        assert report.workload == "DM3-640"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ATWConfig(refresh_hz=0)
        with pytest.raises(ValueError):
            ATWConfig(eye_width=0)
        with pytest.raises(ValueError):
            simulate_atw([])

    def test_summary_format(self):
        report = simulate_atw([5e6], framework="x", workload="y")
        assert "fresh" in report.summary()
        assert "judder" in report.summary()


class TestTopology:
    def test_fully_connected_single_hop(self):
        fabric = RoutedLinkFabric(4, 64.0, 0, Topology.FULLY_CONNECTED)
        assert fabric.route(0, 3) == [(0, 3)]
        assert fabric.route(2, 2) == []

    def test_ring_routes_shortest_way(self):
        fabric = RoutedLinkFabric(4, 64.0, 0, Topology.RING)
        assert fabric.route(0, 1) == [(0, 1)]
        assert fabric.route(0, 3) == [(0, 3)]  # one hop backwards
        assert fabric.route(0, 2) in (
            [(0, 1), (1, 2)],
            [(0, 3), (3, 2)],
        )

    def test_ring_routes_are_connected_paths(self):
        fabric = RoutedLinkFabric(8, 64.0, 0, Topology.RING)
        for src in range(8):
            for dst in range(8):
                hops = fabric.route(src, dst)
                if src == dst:
                    assert hops == []
                    continue
                assert hops[0][0] == src
                assert hops[-1][1] == dst
                for (a, b), (c, d) in zip(hops, hops[1:]):
                    assert b == c

    def test_switch_routes_through_crossbar(self):
        fabric = RoutedLinkFabric(4, 64.0, 0, Topology.SWITCH)
        assert fabric.route(1, 3) == [(1, 4), (4, 3)]

    def test_logical_vs_wire_bytes(self):
        fabric = RoutedLinkFabric(4, 64.0, 0, Topology.RING)
        fabric.transfer(0, 2, 1000.0, TrafficType.TEXTURE)
        assert fabric.total_bytes == 1000.0  # logical
        assert fabric.wire_bytes == 2000.0  # two hops
        assert fabric.hop_inflation == 2.0

    def test_fully_connected_no_inflation(self):
        fabric = RoutedLinkFabric(4, 64.0, 0, Topology.FULLY_CONNECTED)
        fabric.transfer(0, 2, 1000.0, TrafficType.TEXTURE)
        assert fabric.hop_inflation == 1.0

    def test_multi_hop_latency_stacks(self):
        one_hop = RoutedLinkFabric(4, 64.0, 100, Topology.FULLY_CONNECTED)
        two_hop = RoutedLinkFabric(4, 64.0, 100, Topology.SWITCH)
        t1 = one_hop.transfer(0, 2, 6400.0, TrafficType.TEXTURE)
        t2 = two_hop.transfer(0, 2, 6400.0, TrafficType.TEXTURE)
        assert t2 == pytest.approx(2 * t1)

    def test_transfer_endpoints_must_be_gpms(self):
        fabric = RoutedLinkFabric(4, 64.0, 0, Topology.SWITCH)
        with pytest.raises(ValueError):
            fabric.transfer(0, 4, 100.0, TrafficType.TEXTURE)

    def test_reset_clears_logical_counters(self):
        fabric = RoutedLinkFabric(4, 64.0, 0, Topology.RING)
        fabric.transfer(0, 2, 1000.0, TrafficType.TEXTURE)
        fabric.reset()
        assert fabric.total_bytes == 0.0
        assert fabric.wire_bytes == 0.0

    def test_ports_required(self):
        assert Topology.FULLY_CONNECTED.ports_required(8) == 7
        assert Topology.RING.ports_required(8) == 2
        assert Topology.SWITCH.ports_required(8) == 1

    def test_install_topology_swaps_fabric(self):
        framework = build_framework("baseline")
        system = framework.make_system()
        install_topology(system, Topology.RING)
        assert isinstance(system.fabric, RoutedLinkFabric)
        assert system.fabric.topology is Topology.RING

    def test_frameworks_run_on_all_topologies(self):
        frame = TINY_SCENE.frames[0]
        cycles = {}
        for topology in Topology:
            framework = build_framework("baseline")
            system = framework.make_system()
            install_topology(system, topology)
            system.begin_frame()
            result = framework.render_frame_on(system, frame, "DM3-640")
            cycles[topology] = result.cycles
        # Cheaper fabrics cannot be faster than dedicated links.
        assert cycles[Topology.RING] >= cycles[Topology.FULLY_CONNECTED]

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(2, 9),
        src=st.integers(0, 8),
        dst=st.integers(0, 8),
    )
    def test_property_ring_hops_at_most_half_ring(self, n, src, dst):
        src, dst = src % n, dst % n
        fabric = RoutedLinkFabric(n, 64.0, 0, Topology.RING)
        assert len(fabric.route(src, dst)) <= n // 2 + (n % 2)


class TestMigration:
    def test_engine_migrates_hot_resource(self):
        framework = build_framework("baseline")
        system = framework.make_system()
        system.begin_frame()
        engine = MigrationEngine(MigrationConfig(touch_threshold_bytes=1024))
        resource = texture_resource(0, 1 << 20)
        system.placement.place_fixed(resource, 0)
        engine.observe_remote(resource, 2, 2048.0)
        moved = engine.end_frame(system)
        assert moved == pytest.approx(1 << 20)
        assert system.placement.local_fraction(resource, 2) == 1.0

    def test_engine_respects_threshold(self):
        framework = build_framework("baseline")
        system = framework.make_system()
        system.begin_frame()
        engine = MigrationEngine(MigrationConfig(touch_threshold_bytes=1 << 20))
        resource = texture_resource(1, 1 << 20)
        system.placement.place_fixed(resource, 0)
        engine.observe_remote(resource, 2, 100.0)
        assert engine.end_frame(system) == 0.0

    def test_engine_respects_budget(self):
        framework = build_framework("baseline")
        system = framework.make_system()
        system.begin_frame()
        engine = MigrationEngine(
            MigrationConfig(
                touch_threshold_bytes=1.0, budget_bytes_per_frame=1 << 20
            )
        )
        for i in range(8):
            resource = texture_resource(i, 1 << 20)
            system.placement.place_fixed(resource, 0)
            engine.observe_remote(resource, 1, 1e6)
        moved = engine.end_frame(system)
        # Budget stops migration after the first 1 MiB resource.
        assert moved <= 2 * (1 << 20)

    def test_migration_charges_prealloc_traffic(self):
        framework = build_framework("baseline")
        system = framework.make_system()
        system.begin_frame()
        engine = MigrationEngine(MigrationConfig(touch_threshold_bytes=1.0))
        resource = texture_resource(3, 1 << 20)
        system.placement.place_fixed(resource, 0)
        engine.observe_remote(resource, 1, 1e6)
        engine.end_frame(system)
        traffic = system.fabric.bytes_by_type()
        assert traffic.get(TrafficType.PREALLOC, 0.0) > 0

    def test_touches_cleared_between_frames(self):
        engine = MigrationEngine()
        resource = texture_resource(4, 1 << 16)
        engine.observe_remote(resource, 1, 1e6)
        assert engine.pending_resources == 1
        framework = build_framework("baseline")
        system = framework.make_system()
        system.begin_frame()
        engine.end_frame(system)
        assert engine.pending_resources == 0

    def test_zero_byte_observations_ignored(self):
        engine = MigrationEngine()
        engine.observe_remote(texture_resource(5, 1024), 1, 0.0)
        assert engine.pending_resources == 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MigrationConfig(touch_threshold_bytes=-1)
        with pytest.raises(ValueError):
            MigrationConfig(budget_bytes_per_frame=0)

    def test_baseline_mig_framework_migrates(self):
        scene = make_benchmark_scene("HL2-640", num_frames=3, draw_scale=0.1)
        framework = build_framework("baseline-mig")
        framework.render_scene(scene)
        assert framework.engine.migrated_bytes_total > 0

    @pytest.mark.parametrize("engine", ["analytic", "event"])
    def test_each_frame_finishes_once(self, engine, monkeypatch):
        """Migration only moves pages and charges fabric bytes, so one
        ``finish_frame`` per frame also bills the frame's copies."""
        from repro.engine import AnalyticEngine, EventEngine

        calls = []
        for cls in (AnalyticEngine, EventEngine):

            def counted(self, finish=cls.finish_frame):
                calls.append(self.name)
                return finish(self)

            monkeypatch.setattr(cls, "finish_frame", counted)
        scene = make_benchmark_scene("HL2-640", num_frames=3, draw_scale=0.05)
        framework = build_framework(
            "baseline-mig", baseline_system().with_engine(engine)
        )
        framework.render_scene(scene)
        assert calls == [engine] * 3
        assert framework.engine.migrated_bytes_total > 0

    def test_profile_counts_each_window_loop_once(self):
        """At one frame migration changes nothing the engine replays,
        so ``baseline-mig`` simulates exactly the windows ``baseline``
        does."""
        from repro.session import Sweep

        base, mig = (
            Sweep()
            .frameworks("baseline", "baseline-mig")
            .workloads("HL2-640")
            .fast()
            .frames(1)
            .engine("event")
            .run(profile=True)
            .to_records()
        )
        assert (base["framework"], mig["framework"]) == (
            "baseline", "baseline-mig"
        )
        for column in ("profile_event_windows", "profile_event_live_rows"):
            assert mig[column] == base[column] > 0, column

    def test_migration_trades_latency_for_copy_traffic(self):
        scene = make_benchmark_scene("HL2-640", num_frames=4, draw_scale=0.1)
        mig = build_framework("baseline-mig").render_scene(scene)
        base = build_framework("baseline").render_scene(scene)
        # Steady-state frames get faster (some reads became local) ...
        assert mig.single_frame_cycles <= base.single_frame_cycles * 1.01
        # ... but the copies keep total traffic at least as high.
        assert (
            mig.mean_inter_gpm_bytes_per_frame
            >= base.mean_inter_gpm_bytes_per_frame * 0.99
        )


class TestFoveation:
    def test_reduces_shader_complexity(self):
        frame = TINY_SCENE.frames[0]
        foveated = foveate_frame(frame)
        before = sum(o.shader_complexity for o in frame.objects)
        after = sum(o.shader_complexity for o in foveated.objects)
        assert after < before

    def test_geometry_untouched(self):
        frame = TINY_SCENE.frames[0]
        foveated = foveate_frame(frame)
        assert frame.total_triangles == foveated.total_triangles
        for a, b in zip(frame.objects, foveated.objects):
            assert a.viewport_left == b.viewport_left
            assert a.mesh == b.mesh

    def test_full_rate_profile_is_identity(self):
        config = FoveationConfig(
            fovea_rate=1.0, mid_rate=1.0, periphery_rate=1.0
        )
        frame = TINY_SCENE.frames[0]
        foveated = foveate_frame(frame, config)
        for a, b in zip(frame.objects, foveated.objects):
            assert a.shader_complexity == pytest.approx(b.shader_complexity)

    def test_scene_transform_speeds_up_rendering(self):
        scene = make_benchmark_scene("DM3-640", num_frames=2, draw_scale=0.1)
        foveated = foveate_scene(scene)
        framework = build_framework("oo-vr")
        base = framework.render_scene(scene)
        fast = build_framework("oo-vr").render_scene(foveated)
        assert fast.single_frame_cycles < base.single_frame_cycles

    def test_rate_rings(self):
        config = FoveationConfig()
        assert config.rate_at(0.0) == config.fovea_rate
        assert config.rate_at(0.2) == config.mid_rate
        assert config.rate_at(0.9) == config.periphery_rate

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FoveationConfig(fovea_radius=0.5, mid_radius=0.3)
        with pytest.raises(ValueError):
            FoveationConfig(mid_rate=0.2, periphery_rate=0.5)
        with pytest.raises(ValueError):
            FoveationConfig(gaze_x=1.5)
        with pytest.raises(ValueError):
            FoveationConfig(fovea_rate=0.0)

    @settings(max_examples=10, deadline=None)
    @given(
        gaze_x=st.floats(0.0, 1.0),
        gaze_y=st.floats(0.0, 1.0),
    )
    def test_property_foveation_never_increases_cost(self, gaze_x, gaze_y):
        config = FoveationConfig(gaze_x=gaze_x, gaze_y=gaze_y)
        frame = TINY_SCENE.frames[0]
        foveated = foveate_frame(frame, config)
        for a, b in zip(frame.objects, foveated.objects):
            assert b.shader_complexity <= a.shader_complexity + 1e-12


class TestStudyDrivers:
    """The extension studies as declarative Sweep grids (+ cache)."""

    TINY = None  # populated below; ExperimentConfig import kept local

    @classmethod
    def setup_class(cls):
        from repro.session import ExperimentConfig

        cls.TINY = ExperimentConfig(
            draw_scale=0.08, num_frames=2, workloads=("DM3-640",)
        )

    def test_atw_study_shapes(self):
        reports = atw_study(("baseline", "oo-vr"), self.TINY)
        assert set(reports) == {"baseline", "oo-vr"}
        for scheme, per_workload in reports.items():
            assert [r.workload for r in per_workload] == ["DM3-640"]
            assert all(r.framework == scheme for r in per_workload)

    def test_atw_study_panel_scaling_slows_frames(self):
        plain = atw_study(("oo-vr",), self.TINY)["oo-vr"][0]
        scaled = atw_study(("oo-vr",), self.TINY, panel_pixels=116.64e6)[
            "oo-vr"
        ][0]
        assert scaled.mean_latency_ms > plain.mean_latency_ms

    def test_foveation_study_stacks_gain(self):
        table = foveation_study(("DM3-640",), self.TINY)
        speedups = table["DM3-640"]
        assert speedups["oo-vr+fov"] > speedups["oo-vr"] > 1.0

    def test_topology_sweep_reference_cell_is_one(self):
        table = topology_sweep(
            schemes=("baseline", "oo-vr"),
            workloads=("DM3-640",),
            draw_scale=0.08,
            num_frames=2,
        )
        assert table["fully-connected"]["baseline"] == pytest.approx(1.0)
        for row in table.values():
            assert row["oo-vr"] >= row["baseline"]

    def test_migration_study_summary(self):
        summary = migration_study(
            ("baseline", "baseline-mig", "oo-vr"), self.TINY
        )
        base_speedup, base_traffic = summary["baseline"]
        assert base_speedup == pytest.approx(1.0)
        assert base_traffic == pytest.approx(1.0)
        assert summary["oo-vr"][0] > 1.0

    def test_hbm_sweep_reference_cell_is_one(self):
        table = local_bandwidth_sweep(
            schemes=("baseline", "oo-vr"),
            generations={"1 TB/s (paper)": 1000.0, "4 TB/s": 4000.0},
            workloads=("DM3-640",),
            draw_scale=0.08,
            num_frames=2,
        )
        assert table["1 TB/s (paper)"]["baseline"] == pytest.approx(1.0)

    def test_studies_share_one_cache(self, tmp_path):
        from repro.session import ResultCache, sweep_defaults

        cache = ResultCache(tmp_path)
        with sweep_defaults(cache=cache):
            atw_study(("baseline", "oo-vr"), self.TINY)
            assert cache.stats.misses == 2
            # The migration study reuses both cells and adds baseline-mig.
            migration_study(("baseline", "baseline-mig", "oo-vr"), self.TINY)
        assert cache.stats.hits == 2
        assert cache.stats.misses == 3


class TestHBMScaling:
    def test_with_local_bandwidth(self):
        config = with_local_bandwidth(baseline_system(), 2000.0)
        assert config.gpm.dram_bytes_per_cycle == 2000.0
        with pytest.raises(ValueError):
            with_local_bandwidth(baseline_system(), 0.0)

    def test_faster_dram_helps_oovr(self):
        scene = make_benchmark_scene("HL2-640", num_frames=2, draw_scale=0.1)
        slow = build_framework("oo-vr", baseline_system()).render_scene(scene)
        fast = build_framework(
            "oo-vr", with_local_bandwidth(baseline_system(), 4000.0)
        ).render_scene(scene)
        assert fast.single_frame_cycles <= slow.single_frame_cycles
