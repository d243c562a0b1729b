"""The pluggable execution-engine layer (repro.engine).

Covers the engine interface and both implementations, the selection
plumbing (config, spec, session, variant grammar, cache key), the
conservation guarantees between engines, and the contention study.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from repro.config import baseline_system
from repro.engine import (
    ENGINE_DEFAULT,
    ENGINE_NAMES,
    AnalyticEngine,
    EngineError,
    EventEngine,
    TraceInterval,
    build_engine,
    classify_bottleneck,
    validate_engine_name,
)
from repro.frameworks.base import build_framework, framework_names
from repro.gpu.system import MultiGPUSystem
from repro.memory.placement import PagePlacement, PlacementPolicy
from repro.pipeline.characterize import DrawCharacterizer
from repro.pipeline.workunit import UnitColumns
from repro.scene.scene import Scene
from repro.session import Session, SessionError, Sweep, sweep_defaults
from repro.session.cache import ResultCache, spec_key
from repro.session.spec import FAST, RunSpec, SpecError, cached_scene
from tests.conftest import MB, unit_for
from tests.oracles import (
    PER_SLICE_FRAMES,
    WINDOW_LOOP,
    per_slice,
    simulate_reference,
)


def fast_scene(workload="HL2-640"):
    return cached_scene(workload, 2, 2019, 0.15)


# ---------------------------------------------------------------------------
# Registry and selection plumbing
# ---------------------------------------------------------------------------


class TestEngineSelection:
    def test_registry_names(self):
        assert ENGINE_DEFAULT == "analytic"
        assert set(ENGINE_NAMES) == {"analytic", "event"}
        with pytest.raises(EngineError):
            validate_engine_name("bogus")

    def test_system_builds_configured_engine(self, config):
        assert isinstance(MultiGPUSystem(config).engine, AnalyticEngine)
        event_system = MultiGPUSystem(config, engine="event")
        assert isinstance(event_system.engine, EventEngine)

    def test_build_engine_rejects_unknown(self, config):
        with pytest.raises(EngineError):
            build_engine("bogus", MultiGPUSystem(config))

    def test_runspec_engine_validation(self):
        spec = RunSpec(framework="baseline", workload="WE", engine="event")
        assert spec.validate() is spec
        with pytest.raises(SpecError):
            RunSpec(
                framework="baseline", workload="WE", engine="bogus"
            ).validate()

    def test_session_engine_knob(self):
        spec = (
            Session()
            .framework("baseline")
            .workload("WE")
            .fast()
            .engine("event")
            .spec()
        )
        assert spec.engine == "event"
        with pytest.raises(SessionError):
            Session().engine("bogus")

    def test_sweep_engine_knob(self):
        specs = (
            Sweep()
            .frameworks("baseline")
            .workloads("WE")
            .fast()
            .engine("event")
            .specs()
        )
        assert all(spec.engine == "event" for spec in specs)

    def test_session_run_applies_engine(self):
        session = (
            Session()
            .framework("baseline")
            .workload("HL2-640")
            .frames(1)
            .scale(0.1)
            .engine("event")
        )
        session.run()
        assert session.last_framework.engine_name == "event"
        trace = session.last_framework.last_system.last_trace
        assert trace is not None and trace.engine == "event"

    def test_runspec_execute_applies_engine(self):
        spec = RunSpec(
            framework="baseline",
            workload="HL2-640",
            num_frames=1,
            draw_scale=0.1,
            engine="event",
        ).validate()
        assert spec.build().engine_name == "event"
        result = spec.execute()
        assert result.single_frame_cycles > 0

    def test_records_carry_engine_only_in_mixed_sweeps(self):
        grid = (
            Sweep()
            .frameworks("baseline")
            .workloads("HL2-640")
            .frames(1)
            .scale(0.1)
        )
        analytic = grid.run()
        assert "engine" not in analytic.to_records()[0]
        event = (
            Sweep()
            .frameworks("baseline")
            .workloads("HL2-640")
            .frames(1)
            .scale(0.1)
            .engine("event")
            .run()
        )
        record = event.to_records()[0]
        assert record["engine"] == "event"
        assert event.select(engine="event").results == event.results
        assert len(event.select(engine="analytic")) == 0
        with pytest.raises(KeyError):
            event.select(enigne="event")
        # A grid run once per engine and merged carries the provenance
        # column on every record.
        mixed = analytic.merge(event)
        records = mixed.to_records()
        assert [r["engine"] for r in records] == ["analytic", "event"]
        assert len(mixed.select(engine="event")) == 1


#: Every registered scheme plus one variant per modifier kind: a
#: constructor modifier (ablation, middleware) and a wrapper modifier
#: (topology, foveation).
_ALL_BUILDS = (
    *framework_names(),
    "oo-vr:no-dhc",
    "oo-vr:tsl=0.3",
    "baseline:topo=ring",
    "object:fov",
)


class TestRunEngineReachesEveryMachine:
    """The spec's engine is the only engine: every framework, and every
    constructor or wrapper around one, builds its machine with it."""

    @staticmethod
    def _machine(framework, **engine):
        spec = RunSpec(
            framework=framework,
            workload="HL2-640",
            num_frames=1,
            draw_scale=0.05,
            **engine,
        ).validate()
        built = spec.build()
        built.render_scene(spec.scene())
        return built.last_system

    @pytest.mark.parametrize("framework", _ALL_BUILDS)
    def test_event_run_builds_event_machines(self, framework):
        system = self._machine(framework, engine="event")
        assert system.engine.name == "event"
        assert system.last_trace.engine == "event"

    @pytest.mark.parametrize("framework", _ALL_BUILDS)
    def test_default_run_builds_analytic_machines(self, framework):
        system = self._machine(framework)
        assert system.engine.name == "analytic"
        assert system.last_trace.engine == "analytic"


# ---------------------------------------------------------------------------
# Cache-key stability
# ---------------------------------------------------------------------------


class TestEngineCacheKey:
    #: Key of (oo-vr:no-dhc, HL2-1280, fast, default config) computed by
    #: the pre-engine cache code — the engine layer must not move
    #: existing analytic entries.
    GOLDEN_SPEC = RunSpec(
        framework="oo-vr:no-dhc",
        workload="HL2-1280",
        num_frames=2,
        seed=2019,
        draw_scale=0.15,
    )
    GOLDEN_KEY = (
        "29fe11ab625742fd80165f95a828a51175f835b4512f5a7dae755ff40e1263ca"
    )

    def test_analytic_keys_unchanged_from_pre_engine_cache(self):
        assert spec_key(self.GOLDEN_SPEC) == self.GOLDEN_KEY

    def test_event_engine_changes_the_key(self):
        assert (
            spec_key(replace(self.GOLDEN_SPEC, engine="event"))
            != self.GOLDEN_KEY
        )

    #: Keys of ``GOLDEN_SPEC`` under the event engine, on a 16 GB/s
    #: config, and both, computed before the engine became the run's
    #: alone: cells that can still be written keep their addresses.
    PINNED_KEYS = {
        "event": (
            "bf3b28f99a73db0c301763238a3bb7c93cd2c46126ef1365e5850be42babc6ec"
        ),
        "bw16": (
            "e7a0da09551a67381938c43d60df89b89d4dfe058060ca82e8f42f17e82ffffd"
        ),
        "bw16-event": (
            "b3203f386f87f0e6889278f882876f3c0b7eb90a168f144ffcbf18d3fd2d3cb9"
        ),
    }

    @pytest.mark.parametrize("cell", sorted(PINNED_KEYS))
    def test_keys_pinned(self, cell):
        spec = self.GOLDEN_SPEC
        if cell.startswith("bw16"):
            spec = replace(
                spec, config=baseline_system().with_link_bandwidth(16.0)
            )
        if cell.endswith("event"):
            spec = replace(spec, engine="event")
        assert spec_key(spec) == self.PINNED_KEYS[cell]

    def test_cache_round_trips_event_results(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = RunSpec(
            framework="baseline",
            workload="HL2-640",
            num_frames=1,
            draw_scale=0.1,
            engine="event",
        ).validate()
        result = spec.execute()
        cache.put(spec, result)
        again = cache.get(spec)
        assert again is not None
        assert again.to_dict() == result.to_dict()
        # The analytic twin is a different cell entirely.
        assert cache.get(replace(spec, engine="analytic")) is None


# ---------------------------------------------------------------------------
# Bottleneck classification (deterministic tie-breaking)
# ---------------------------------------------------------------------------


class TestBottleneckTieBreaking:
    def test_link_wins_dram_tie(self):
        # Equal dram/link cycles, both above compute: link by precedence.
        assert classify_bottleneck(10.0, 50.0, 50.0, 50.0, "fragment") == "link"

    def test_dram_wins_when_strictly_slowest(self):
        assert classify_bottleneck(10.0, 50.0, 20.0, 50.0, "fragment") == "dram"

    def test_compute_wins_exact_memory_tie(self):
        # Memory exactly equal to compute: the compute stage is charged.
        assert (
            classify_bottleneck(50.0, 50.0, 50.0, 50.0, "texture") == "texture"
        )

    def test_compute_bottleneck_passthrough(self):
        assert classify_bottleneck(50.0, 1.0, 2.0, 50.0, "vertex") == "vertex"

    def test_execution_matches_classifier(self, config, characterizer, pool):
        system = MultiGPUSystem(config)
        system.begin_frame()
        unit = unit_for(characterizer, pool)
        for touch in unit.texture_touches:
            system.placement.place_fixed(touch.resource, 1)
        execution = system.execute_unit(unit, 0, fb_targets={0: 1.0})
        assert execution.bottleneck == classify_bottleneck(
            execution.compute_cycles,
            execution.local_dram_cycles,
            execution.link_cycles,
            execution.cycles,
            execution.bottleneck,
        )


# ---------------------------------------------------------------------------
# Hop matrix
# ---------------------------------------------------------------------------


class TestHopMatrix:
    def test_base_fabric_hops(self, config):
        fabric = MultiGPUSystem(config).fabric
        assert fabric.hops(0, 0) == 0
        assert fabric.hops(0, 3) == 1
        assert fabric.route(1, 2) == [(1, 2)]

    def test_routed_fabric_matrix_matches_routes(self, config):
        from repro.extensions.topology import Topology, install_topology

        system = MultiGPUSystem(config)
        install_topology(system, Topology.RING)
        fabric = system.fabric
        for src in range(4):
            for dst in range(4):
                assert fabric.hops(src, dst) == len(fabric.route(src, dst))
        # Opposite corners of a 4-ring are two hops apart.
        assert fabric.hops(0, 2) == 2

    def test_switch_routes_are_two_hops(self, config):
        from repro.extensions.topology import Topology, install_topology

        system = MultiGPUSystem(config)
        install_topology(system, Topology.SWITCH)
        assert system.fabric.hops(0, 3) == 2
        assert system.fabric.route(0, 3) == [(0, 4), (4, 3)]


# ---------------------------------------------------------------------------
# Analytic engine traces
# ---------------------------------------------------------------------------


class TestAnalyticTrace:
    def test_trace_mirrors_gpm_state(self, config, characterizer, pool):
        system = MultiGPUSystem(config)
        system.begin_frame()
        units = [unit_for(characterizer, pool, i) for i in range(4)]
        for gpm, unit in enumerate(units):
            system.execute_unit(unit, gpm)
        result = system.frame_result("t", "w")
        trace = system.last_trace
        assert trace is not None and trace.engine == "analytic"
        assert list(trace.gpm_busy) == [g.busy_cycles for g in system.gpms]
        assert trace.render_critical_path == max(
            g.ready_at for g in system.gpms
        )
        assert result.cycles >= trace.render_critical_path
        assert len(trace.intervals) == 4
        assert all(span.kind == "render" for span in trace.intervals)

    def test_stall_and_steal_intervals(self, config):
        system = MultiGPUSystem(config)
        system.begin_frame()
        engine = system.engine
        engine.stall(0, "stage", 100.0)
        engine.steal_into(1, 0, "steal-from-1", 50.0, 640.0)
        trace = engine.finish_frame()
        kinds = {span.kind for span in trace.intervals}
        assert kinds == {"stall", "steal"}
        assert system.gpms[0].ready_at == pytest.approx(150.0)
        from repro.memory.link import TrafficType

        assert system.fabric.bytes_by_type()[TrafficType.STEAL] == 640.0

    def test_shed_tail_rewinds_clock(self, config):
        system = MultiGPUSystem(config)
        system.begin_frame()
        engine = system.engine
        engine.stall(2, "work", 200.0)
        engine.shed_tail(2, 60.0)
        assert system.gpms[2].ready_at == pytest.approx(140.0)
        assert system.gpms[2].busy_cycles == pytest.approx(140.0)

    def test_shed_tail_clips_trace_intervals(self, config):
        system = MultiGPUSystem(config)
        system.begin_frame()
        engine = system.engine
        engine.stall(2, "a", 100.0)
        engine.stall(2, "b", 100.0)
        engine.shed_tail(2, 120.0)  # drops "b", clips "a" to 80
        trace = engine.finish_frame()
        spans = trace.intervals_for(2)
        assert [span.label for span in spans] == ["a"]
        assert spans[0].end == pytest.approx(80.0)
        assert spans[0].end <= trace.gpm_end[2]

    def test_analytic_trace_consistent_after_stealing(self):
        """Regression: stolen tails used to leave overrunning intervals."""
        from repro.core.oovr import OOVRFramework
        from repro.scene.benchmarks import make_benchmark_scene

        framework = OOVRFramework()
        framework.render_scene(
            make_benchmark_scene("HL2-640", num_frames=2, draw_scale=0.05)
        )
        trace = framework.last_system.last_trace
        for gpm in range(trace.num_gpms):
            for span in trace.intervals_for(gpm):
                if span.kind == "compose":
                    # The composition barrier runs after the render
                    # lane drains; it is bounded by the frame, not by
                    # the GPM's render end.
                    assert span.end <= trace.frame_cycles + 1e-6
                    continue
                assert span.end <= trace.gpm_end[gpm] + 1e-6

    def test_next_idle_prefers_lowest_id_on_ties(self, config):
        system = MultiGPUSystem(config)
        system.begin_frame()
        assert system.engine.next_idle() == 0
        system.engine.stall(0, "w", 10.0)
        assert system.engine.next_idle() == 1

    def test_completion_callbacks_fire_in_order(
        self, config, characterizer, pool
    ):
        system = MultiGPUSystem(config)
        system.begin_frame()
        seen = []
        system.engine.on_complete(
            lambda resolved, execution: seen.append(
                (resolved.label, execution.cycles)
            )
        )
        unit = unit_for(characterizer, pool)
        execution = system.execute_unit(unit, 0, fb_targets={0: 1.0})
        assert seen == [(unit.label, execution.cycles)]
        # begin_frame drops subscriptions.
        system.begin_frame()
        system.execute_unit(unit, 0, fb_targets={0: 1.0})
        assert len(seen) == 1


# ---------------------------------------------------------------------------
# Event engine
# ---------------------------------------------------------------------------


class TestEventEngine:
    def test_conservation_single_gpm(self):
        """Acceptance: contention-free single-GPM totals match exactly."""
        scene = fast_scene()
        cfg = baseline_system(num_gpms=1)
        analytic = build_framework("baseline", cfg).render_scene(scene)
        event = build_framework("baseline", cfg, "event").render_scene(scene)
        for a_frame, e_frame in zip(analytic.frames, event.frames):
            # Per-GPM busy cycles conserved...
            assert e_frame.gpm_busy_cycles[0] == pytest.approx(
                a_frame.gpm_busy_cycles[0], rel=1e-9
            )
            # ... and per-link transferred bytes (none on one GPM, and
            # byte accounting is engine-independent by construction).
            assert e_frame.inter_gpm_bytes == a_frame.inter_gpm_bytes == 0.0
            assert list(e_frame.dram_bytes) == list(a_frame.dram_bytes)

    @pytest.mark.parametrize("framework", ["baseline", "oo-vr", "tile-v"])
    def test_traffic_identical_across_engines(self, framework):
        """Binding is shared: every byte counter agrees between engines."""
        scene = fast_scene()
        cfg = baseline_system()
        analytic = build_framework(framework, cfg).render_scene(scene)
        event = build_framework(framework, cfg, "event").render_scene(scene)
        for a_frame, e_frame in zip(analytic.frames, event.frames):
            assert e_frame.traffic.by_type == a_frame.traffic.by_type
            assert list(e_frame.dram_bytes) == list(a_frame.dram_bytes)
            assert e_frame.resident_bytes == a_frame.resident_bytes

    def test_uncontended_matches_analytic_price(
        self, config, characterizer, pool
    ):
        """A lone unit drains in exactly the analytic roofline time."""
        system = MultiGPUSystem(config, engine="event")
        system.begin_frame()
        unit = unit_for(characterizer, pool)
        execution = system.execute_unit(unit, 0, fb_targets={0: 1.0})
        trace = system.engine.finish_frame()
        assert trace.engine == "event"
        assert trace.gpm_end[0] == pytest.approx(execution.cycles, rel=1e-9)
        assert trace.gpm_busy[0] == pytest.approx(execution.cycles, rel=1e-9)

    def test_peer_dram_contention_stretches_frames(
        self, characterizer, pool
    ):
        """Two GPMs streaming from one owner DRAM time-share it."""
        cfg = baseline_system()
        starved = replace(
            cfg, gpm=replace(cfg.gpm, dram_bytes_per_cycle=2.0)
        )
        analytic_sys = MultiGPUSystem(starved)
        event_sys = MultiGPUSystem(starved, engine="event")
        for system in (analytic_sys, event_sys):
            system.begin_frame()
            units = [
                unit_for(
                    DrawCharacterizer(starved), pool, i, w=800.0, h=600.0
                )
                for i in range(2)
            ]
            # Both units read textures owned by GPM 0's DRAM.
            for unit in units:
                for touch in unit.texture_touches:
                    if not system.placement.is_placed(touch.resource):
                        system.placement.place_fixed(touch.resource, 0)
            system.execute_unit(units[0], 1, fb_targets={1: 1.0})
            system.execute_unit(units[1], 2, fb_targets={2: 1.0})
        analytic_cp = analytic_sys.frame_result("a", "w").cycles
        event_cp = event_sys.frame_result("e", "w").cycles
        # The analytic model never bills the owner's DRAM; the event
        # engine shares its 2 B/cycle between both remote streams.
        assert event_cp > analytic_cp * 1.05

    def test_switch_contention_stretches_frames(self, characterizer, pool):
        """Flows sharing a switch port queue up under the event engine."""
        scene = fast_scene()
        cfg = baseline_system().with_link_bandwidth(16.0)
        analytic = build_framework("baseline:topo=switch", cfg).render_scene(
            scene
        )
        event = build_framework(
            "baseline:topo=switch", cfg, "event"
        ).render_scene(scene)
        assert (
            event.single_frame_cycles
            > analytic.single_frame_cycles * 1.2
        )

    def test_uncontended_multi_hop_matches_analytic_price(
        self, characterizer, pool
    ):
        """Hop serialisation matches the analytic bytes x hops charge."""
        from repro.extensions.topology import Topology, install_topology

        cfg = baseline_system()
        executions = {}
        ends = {}
        for engine_name in ("analytic", "event"):
            system = MultiGPUSystem(cfg, engine=engine_name)
            install_topology(system, Topology.SWITCH)
            system.begin_frame()
            unit = unit_for(characterizer, pool, w=800.0, h=600.0)
            for touch in unit.texture_touches:
                system.placement.place_fixed(touch.resource, 1)
            executions[engine_name] = system.execute_unit(
                unit, 0, fb_targets={0: 1.0}
            )
            ends[engine_name] = system.engine.finish_frame().gpm_end[0]
        assert executions["analytic"].bottleneck == "link"
        assert ends["event"] == pytest.approx(
            executions["analytic"].cycles, rel=1e-9
        )

    def test_event_engine_deterministic(self):
        scene = fast_scene()
        first = build_framework("oo-vr", engine="event").render_scene(scene)
        second = build_framework("oo-vr", engine="event").render_scene(scene)
        assert first.to_dict() == second.to_dict()

    def test_start_floor_delays_job(self, config, characterizer, pool):
        system = MultiGPUSystem(config, engine="event")
        system.begin_frame()
        unit = unit_for(characterizer, pool)
        execution = system.execute_unit(
            unit, 0, fb_targets={0: 1.0}, start_at=5000.0
        )
        trace = system.engine.finish_frame()
        span = trace.intervals_for(0)[0]
        assert span.start == pytest.approx(5000.0)
        assert trace.gpm_end[0] == pytest.approx(
            5000.0 + execution.cycles, rel=1e-9
        )
        # Busy time excludes the idle wait.
        assert trace.gpm_busy[0] == pytest.approx(execution.cycles, rel=1e-9)

    def test_zero_demand_job_does_not_block_its_gpm(self, config):
        """An instantaneous unit hands the GPM on in the same window."""
        system = MultiGPUSystem(config, engine="event")
        system.begin_frame()
        engine = system.engine
        engine.stall(1, "long", 1000.0)
        engine.stall(0, "instant", 0.0)
        engine.stall(0, "short", 100.0)
        trace = engine.finish_frame()
        assert trace.gpm_end[0] == pytest.approx(100.0)
        assert trace.gpm_end[1] == pytest.approx(1000.0)

    def test_shed_tail_scales_recorded_jobs_newest_first(self, config):
        """The stolen tail leaves the straggler's newest render jobs:
        compute, DRAM bytes, flow bytes and provisional cycles scale by
        ``(p - take) / p``, newest first, until the shed cycles are
        spent; stalls, other GPMs and zero-price jobs keep theirs."""
        from repro.engine.base import LinkFlow, ResolvedUnit
        from repro.memory.link import TrafficType

        system = MultiGPUSystem(config, engine="event")
        system.begin_frame()
        engine = system.engine
        fabric = system.fabric

        def render(label, gpm, compute, dram, flows):
            # No local DRAM bytes and no per-peer roll-up: the unit's
            # scheduling price is its compute.
            engine.execute(
                ResolvedUnit(
                    label=label, gpm=gpm, compute_cycles=compute,
                    base_bottleneck="shader", local_dram_bytes=0.0,
                    link_bytes={},
                    flows=tuple(
                        LinkFlow(src, gpm, nbytes, TrafficType.TEXTURE)
                        for src, nbytes in flows
                    ),
                    dram_demand=dram, vertices=0.0, pixels_out=0.0,
                    triangles_raster=0.0,
                )
            )

        render("first", 0, 40.0, {0: 70.0}, [(1, 12.0)])
        render("r0", 0, 100.0, {0: 400.0, 2: 40.0}, [(2, 48.0)])
        render("q0", 1, 70.0, {1: 64.0}, [(0, 24.0)])
        engine.stall(0, "wait", 30.0)
        render("r1", 0, 60.0, {0: 96.0}, [(1, 64.0), (3, 16.0)])
        render("q1", 1, 50.0, {1: 32.0}, [(2, 8.0)])
        render("zero", 0, 0.0, {0: 8.0}, [(1, 8.0)])
        engine.stall(0, "wait", 20.0)
        before = _recorded_jobs(engine)
        engine.shed_tail(0, 75.0)
        after = _recorded_jobs(engine)

        def route(src, dst):
            return tuple(fabric.route(src, dst))

        latency = float(config.link.latency_cycles)
        # r1 (price 60) goes whole; r0 gives up the remaining 15.
        r0 = (100.0 - 15.0) / 100.0
        r1 = (60.0 - 60.0) / 60.0
        expected = list(before)
        expected[1] = (
            "r0", 0, "render", 0.0, 100.0 * r0,
            [(0, 400.0 * r0), (2, 40.0 * r0)],
            [(route(2, 0), 48.0 * r0, latency, 1.0)],
            100.0 - 15.0,
        )
        expected[4] = (
            "r1", 0, "render", 0.0, 60.0 * r1, [(0, 96.0 * r1)],
            [
                (route(1, 0), 64.0 * r1, latency, 1.0),
                (route(3, 0), 16.0 * r1, latency, 1.0),
            ],
            60.0 - 60.0,
        )
        assert after == expected  # == : bit-exact
        assert after[0] == before[0] == (
            "first", 0, "render", 0.0, 40.0, [(0, 70.0)],
            [(route(1, 0), 12.0, latency, 1.0)], 40.0,
        )
        assert [job[7] for job in before] == [
            40.0, 100.0, 70.0, 30.0, 60.0, 50.0, 0.0, 20.0,
        ]

    def test_finish_frame_is_repeatable(self, config, characterizer, pool):
        system = MultiGPUSystem(config, engine="event")
        system.begin_frame()
        system.execute_unit(
            unit_for(characterizer, pool), 0, fb_targets={0: 1.0}
        )
        first = system.engine.finish_frame()
        second = system.engine.finish_frame()
        assert first.to_dict() == second.to_dict()

    def test_trace_exports(self, config, characterizer, pool):
        system = MultiGPUSystem(config, engine="event")
        system.begin_frame()
        unit = unit_for(characterizer, pool)
        system.placement.place_fixed(
            unit.texture_touches[0].resource, 1
        )
        system.execute_unit(unit, 0, fb_targets={0: 1.0})
        trace = system.engine.finish_frame()
        data = trace.to_dict()
        assert data["engine"] == "event"
        assert data["num_gpms"] == 4
        assert data["intervals"][0]["kind"] == "render"
        assert trace.link_bytes()[(1, 0)] > 0
        assert 0.0 <= trace.utilisation(0) <= 1.0


#: The frameworks whose frames render through the slice pass.
_STATIC_FRAMEWORKS = (
    "baseline", "1tbs-bw", "baseline-mig", "tile-v", "tile-h", "object",
    "afr",
)


class TestUnreadObjectsAreNotBuilt:
    """A static frame builds no ``WorkUnit``, ``Touch`` or
    ``TraceInterval`` on either engine, and no frame builds an interval
    until its trace's intervals are read."""

    @staticmethod
    def _spy(monkeypatch):
        from collections import Counter

        from repro.memory.address import Touch
        from repro.pipeline.workunit import WorkUnit

        built = Counter()
        for cls in (WorkUnit, Touch, TraceInterval):
            check = cls.__post_init__

            def spy(self, check=check, name=cls.__name__):
                built[name] += 1
                check(self)

            monkeypatch.setattr(cls, "__post_init__", spy)
        return built

    @pytest.mark.parametrize("engine", ["analytic", "event"])
    @pytest.mark.parametrize(
        "framework", _STATIC_FRAMEWORKS + ("oo-vr", "oo-app")
    )
    def test_objects_are_built_only_when_read(
        self, framework, engine, monkeypatch
    ):
        renderer = build_framework(framework, baseline_system(), engine)
        # A twin of the memoised frame: nothing it derives is cached.
        scene = cached_scene("HL2-640", 1, 2019, FAST.draw_scale)
        frame = replace(scene.frames[0])
        built = self._spy(monkeypatch)
        renderer.render_frame(frame, "HL2-640")
        if framework in _STATIC_FRAMEWORKS:
            assert built == {}
        else:
            assert built["WorkUnit"] and built["Touch"]
            assert built["TraceInterval"] == 0
        built.clear()
        intervals = renderer.last_system.last_trace.intervals
        assert intervals
        assert built == {"TraceInterval": len(intervals)}
        # Built once: a second read returns the same tuple.
        assert renderer.last_system.last_trace.intervals is intervals
        assert built == {"TraceInterval": len(intervals)}


# ---------------------------------------------------------------------------
# Full-frame engine coverage: staging and composition phases
# ---------------------------------------------------------------------------


def _event_trace_summary(framework, workload="HL2-640", frames=1):
    """The fixed-spec trace summary the committed goldens freeze: the
    last of ``frames`` frames."""
    session = (
        Session()
        .framework(framework)
        .workload(workload)
        .frames(frames)
        .scale(0.1)
        .engine("event")
    )
    session.run()
    return session.last_framework.last_system.last_trace.phase_summary()


#: The frameworks whose fixed-spec event trace summaries are pinned,
#: with their golden file stems.
_EVENT_GOLDENS = (
    ("oo-vr", "event_trace_oovr"),
    ("oo-app", "event_trace_ooapp"),
    ("tile-v", "event_trace_tilev"),
    ("tile-h", "event_trace_tileh"),
    ("object", "event_trace_object"),
    ("afr", "event_trace_afr"),
    ("baseline", "event_trace_baseline"),
    ("1tbs-bw", "event_trace_1tbsbw"),
    ("baseline-mig", "event_trace_baselinemig"),
)

#: Frames summarised per golden where one is not enough: migration
#: only changes the next frame, so a one-frame ``baseline-mig``
#: summary would equal ``baseline``'s.
_EVENT_GOLDEN_FRAMES = {"baseline-mig": 2}


def regenerate_event_golden():  # pragma: no cover - maintenance helper
    """Rewrite the event-engine goldens after a *deliberate* change.

    Run from the repo root::

        PYTHONPATH=src:. python -c \
            "from tests.test_engine import regenerate_event_golden; \
             regenerate_event_golden()"
    """
    import json
    import pathlib

    golden = pathlib.Path(__file__).parent.parent / "benchmarks" / "golden"
    for framework, stem in _EVENT_GOLDENS:
        path = golden / f"{stem}_hl2-640.json"
        frames = _EVENT_GOLDEN_FRAMES.get(framework, 1)
        path.write_text(
            json.dumps(
                _event_trace_summary(framework, frames=frames),
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        print(f"wrote {path}")


class TestFullFrameCoverage:
    """Staging and composition are engine-priced phases, both engines."""

    @pytest.mark.parametrize("framework", ["object", "oo-vr"])
    def test_single_gpm_conservation(self, framework):
        """Acceptance: per-phase bytes agree and phase cycles conserve.

        On one GPM nothing crosses a link, so both engines must report
        identical (all-zero) per-phase byte totals, and the event
        engine's phase decomposition must sum exactly to the frame
        latency it reports.
        """
        scene = fast_scene()
        cfg = baseline_system(num_gpms=1)
        outcomes = {}
        for engine_name in ("analytic", "event"):
            framework_obj = build_framework(framework, cfg, engine_name)
            result = framework_obj.render_scene(scene)
            outcomes[engine_name] = (
                result,
                framework_obj.last_system.last_trace,
            )
        a_trace = outcomes["analytic"][1]
        e_trace = outcomes["event"][1]
        assert dict(a_trace.phase_link_bytes) == dict(e_trace.phase_link_bytes)
        assert all(v == 0.0 for v in e_trace.phase_link_bytes.values())
        e_result = outcomes["event"][0]
        phases = e_trace.phase_cycles()
        assert set(phases) == {"render", "staging", "composition"}
        assert sum(phases.values()) == pytest.approx(
            e_result.frames[-1].cycles, rel=1e-12
        )
        # With a lone GPM there is nothing to contend with: the event
        # engine's composition barrier equals the analytic price too.
        assert e_trace.composition_cycles == pytest.approx(
            a_trace.composition_cycles, rel=1e-9
        )

    @pytest.mark.parametrize("framework", ["object", "oo-app", "oo-vr", "tile-v"])
    def test_phase_bytes_identical_across_engines(self, framework):
        """Flow accounting is shared: per-phase bytes never diverge."""
        scene = fast_scene()
        cfg = baseline_system()
        traces = {}
        results = {}
        for engine_name in ("analytic", "event"):
            framework_obj = build_framework(framework, cfg, engine_name)
            results[engine_name] = framework_obj.render_scene(scene)
            traces[engine_name] = framework_obj.last_system.last_trace
        assert dict(traces["analytic"].phase_link_bytes) == dict(
            traces["event"].phase_link_bytes
        )
        # Phase totals tile the fabric's frame total exactly: the trace
        # accounts every byte the fabric counted, no more, no less.
        last_frame_total = sum(traces["analytic"].phase_link_bytes.values())
        assert last_frame_total == pytest.approx(
            results["analytic"].frames[-1].inter_gpm_bytes, rel=1e-9
        )

    def test_event_phase_cycles_conserve_multi_gpm(self):
        """The phase decomposition sums to the frame on any machine."""
        for framework in ("oo-app", "oo-vr", "tile-v"):
            framework_obj = build_framework(
                framework, baseline_system(), "event"
            )
            result = framework_obj.render_scene(fast_scene())
            trace = framework_obj.last_system.last_trace
            assert sum(trace.phase_cycles().values()) == pytest.approx(
                result.frames[-1].cycles, rel=1e-12
            )

    def test_pa_copies_become_background_stage_lane(self):
        """OO-VR's PA flows show up as a stage lane, not GPM time."""
        framework = build_framework("oo-vr", baseline_system(), "event")
        framework.render_scene(fast_scene())
        trace = framework.last_system.last_trace
        stage_spans = [s for s in trace.intervals if s.kind == "stage"]
        assert stage_spans, "PA copies should appear as background flows"
        # Background copies do not occupy the GPM: busy excludes them.
        for gpm in range(trace.num_gpms):
            lane = sum(
                s.cycles
                for s in trace.intervals_for(gpm)
                if s.kind in ("render", "stall", "steal")
            )
            assert trace.gpm_busy[gpm] == pytest.approx(lane, rel=1e-9)
        assert trace.phase_link_bytes["staging"] > 0

    def test_software_staging_stall_is_a_wire_flow(
        self, config, characterizer, pool
    ):
        """A staging stall lasts its analytic price uncontended."""
        from repro.gpu.staging import StagingManager

        ends = {}
        for engine_name in ("analytic", "event"):
            system = MultiGPUSystem(config, engine=engine_name)
            system.begin_frame()
            unit = unit_for(characterizer, pool)
            staging = StagingManager(system)
            staging.stage_unit(unit, 1)  # first touch: home, free
            outcome = staging.stage_unit(unit, 2)  # real copy
            assert outcome.stall_cycles > 0
            ends[engine_name] = system.engine.finish_frame().gpm_end[2]
        assert ends["event"] == pytest.approx(ends["analytic"], rel=1e-9)

    @pytest.mark.parametrize("prefetched", [False, True])
    def test_staging_copies_are_hop_blind_uncontended(
        self, config, characterizer, pool, prefetched
    ):
        """Copies drain at the analytic rate on routed fabrics too.

        The analytic copy model is hop-blind (a pipelined DMA stream at
        raw link bandwidth), so an uncontended event-engine staging
        flow must last exactly the analytic stall/copy time even when
        its route crosses a 2-hop switch — regression for the rate
        being hop-serialised like render flows.
        """
        from repro.extensions.topology import Topology, install_topology
        from repro.gpu.staging import StagingManager

        spans = {}
        stalls = {}
        for engine_name in ("analytic", "event"):
            system = MultiGPUSystem(config, engine=engine_name)
            install_topology(system, Topology.SWITCH)
            system.begin_frame()
            unit = unit_for(characterizer, pool)
            staging = StagingManager(system, prefetched=prefetched)
            staging.stage_unit(unit, 1)  # first touch: home, free
            outcome = staging.stage_unit(unit, 2)  # real 2-hop copy
            assert outcome.copied_bytes > 0
            stalls[engine_name] = outcome.stall_cycles
            trace = system.engine.finish_frame()
            spans[engine_name] = trace
        assert stalls["event"] == stalls["analytic"]
        if prefetched:
            # The background copy drains in bytes/link_bw, the rate the
            # scheduling clock's PA landing time assumes.
            stage = [
                s for s in spans["event"].intervals if s.kind == "stage"
            ]
            assert len(stage) == 1
            copied = stage[0].cycles * config.link.bytes_per_cycle
            # Phase byte totals are logical (each copy counted once,
            # like the routed fabric's per-type counters).
            assert copied == pytest.approx(
                spans["event"].phase_link_bytes["staging"], rel=1e-9
            )
        else:
            assert spans["event"].gpm_end[2] == pytest.approx(
                spans["analytic"].gpm_end[2], rel=1e-9
            )

    def test_composition_lanes_render_both_engines(self):
        """`oovr run --engine event` acceptance: all three lanes."""
        from repro.stats.timeline import trace_timeline

        framework = build_framework("oo-app", baseline_system(), "event")
        framework.render_scene(fast_scene())
        trace = framework.last_system.last_trace
        kinds = {span.kind for span in trace.intervals}
        assert {"render", "stall", "compose"} <= kinds
        text = trace_timeline(trace)
        assert "▣ compose" in text
        assert "▒ staging stall" in text

    def test_event_composition_stretches_on_shared_switch(self):
        """DHC's all-pairs scatter queues on a central switch."""
        scene = fast_scene()
        cfg = baseline_system().with_link_bandwidth(16.0)
        analytic = build_framework("oo-vr:topo=switch", cfg)
        analytic.render_scene(scene)
        event = build_framework("oo-vr:topo=switch", cfg, "event")
        event.render_scene(scene)
        a_comp = analytic.last_system.last_trace.composition_cycles
        e_comp = event.last_system.last_trace.composition_cycles
        assert e_comp > a_comp * 1.5

    @pytest.mark.parametrize("framework,stem", _EVENT_GOLDENS)
    def test_event_golden_trace_summary(self, framework, stem):
        """Event-engine timing changes must be deliberate.

        Compares the fixed-spec per-phase summary against the committed
        golden byte for byte.  If a model change is intentional,
        regenerate with :func:`regenerate_event_golden` and commit the
        diff alongside the change that explains it.
        """
        import json
        import pathlib

        golden = (
            pathlib.Path(__file__).parent.parent
            / "benchmarks"
            / "golden"
            / f"{stem}_hl2-640.json"
        )
        expected = golden.read_text()
        frames = _EVENT_GOLDEN_FRAMES.get(framework, 1)
        actual = (
            json.dumps(
                _event_trace_summary(framework, frames=frames),
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        assert actual == expected


# ---------------------------------------------------------------------------
# Empty scenes (regression: used to ZeroDivisionError)
# ---------------------------------------------------------------------------


class TestEmptyScene:
    def _empty_scene(self):
        scene = Scene.__new__(Scene)
        object.__setattr__(scene, "name", "empty")
        object.__setattr__(scene, "frames", ())
        return scene

    @pytest.mark.parametrize("framework", ["baseline", "afr"])
    def test_render_scene_raises_value_error(self, framework):
        with pytest.raises(ValueError, match="scene has no frames"):
            build_framework(framework).render_scene(self._empty_scene())

    @pytest.mark.parametrize("framework", ["baseline", "afr"])
    def test_frame_interval_raises_value_error(self, framework):
        with pytest.raises(ValueError, match="scene has no frames"):
            build_framework(framework).frame_interval_cycles([])


# ---------------------------------------------------------------------------
# The contention study
# ---------------------------------------------------------------------------


class TestEngineContentionStudy:
    def test_runs_with_jobs_and_cache(self, tmp_path):
        from repro.experiments.engines import engine_contention_study

        cache = ResultCache(tmp_path)
        with sweep_defaults(jobs=2, cache=cache):
            figure = engine_contention_study(
                FAST,
                frameworks=("baseline", "baseline:topo=switch"),
                link_bandwidths=(16.0,),
                workloads=("HL2-640",),
            )
        assert set(figure.series) == {"baseline", "baseline:topo=switch"}
        factors = figure.series
        # Dedicated links barely contend; the shared switch queues.
        assert factors["baseline"]["16GB/s"] == pytest.approx(1.0, abs=0.1)
        assert (
            factors["baseline:topo=switch"]["16GB/s"]
            > factors["baseline"]["16GB/s"]
        )
        # Each (framework, engine) cell was cached exactly once; a
        # repeat pass is pure hits and identical output.
        stored = cache.stats.stores
        assert stored == 4  # 2 frameworks x 2 engines x 1 workload
        with sweep_defaults(cache=cache):
            again = engine_contention_study(
                FAST,
                frameworks=("baseline", "baseline:topo=switch"),
                link_bandwidths=(16.0,),
                workloads=("HL2-640",),
            )
        assert cache.stats.stores == stored
        assert again.series == figure.series

    def test_phase_breakdown_shares_the_grid(self, tmp_path):
        from repro.experiments.engines import (
            CONTENTION_PHASES,
            engine_contention_phases,
            engine_contention_study,
        )

        cache = ResultCache(tmp_path)
        frameworks = ("baseline", "oo-vr:topo=switch")
        kwargs = dict(
            frameworks=frameworks,
            link_bandwidths=(16.0,),
            workloads=("HL2-640",),
        )
        with sweep_defaults(cache=cache):
            engine_contention_study(FAST, **kwargs)
            stored = cache.stats.stores
            phases = engine_contention_phases(FAST, **kwargs)
        # Identical grid: the phase view is pure cache hits.
        assert cache.stats.stores == stored
        assert set(phases.series) == {
            f"{framework} [{phase}]"
            for framework in frameworks
            for phase in CONTENTION_PHASES
        }
        # The interleaved baseline has no composition barrier: its
        # composition factor is the exact 1.0 placeholder.
        assert phases.series["baseline [composition]"]["16GB/s"] == 1.0
        # OO-VR's DHC barrier queues on the shared switch.
        assert phases.series["oo-vr:topo=switch [composition]"]["16GB/s"] > 1.2


# ---------------------------------------------------------------------------
# Incremental window loop vs. the retained reference loop
# ---------------------------------------------------------------------------


class _FlowSpec(NamedTuple):
    """One link transfer of a soup job."""

    route: tuple
    nbytes: float
    latency: float
    rate_scale: float = 1.0


class _Job(NamedTuple):
    """One soup job, as the event engine records it."""

    label: str
    gpm: int
    kind: str
    start_floor: float
    compute: float
    dram: dict
    flows: list
    provisional_cycles: float


def _recording(jobs, background=()):
    """The event engine's recording of soup ``jobs`` on their GPMs,
    then ``background`` copies."""
    from repro.engine.event import _Recording
    from repro.engine.trace import KINDS

    recording = _Recording()
    for lane, group in ((False, jobs), (True, background)):
        for job in group:
            recording.add(
                job.label, job.gpm, KINDS.index(job.kind), job.compute,
                job.provisional_cycles, floor=job.start_floor,
                dram=job.dram.items(),
                flows=[
                    (
                        recording.route_id(flow.route), flow.nbytes,
                        flow.latency, flow.rate_scale,
                    )
                    for flow in job.flows
                ],
                background=lane,
            )
    return recording


def _random_flow_soup(engine, rng):
    """A randomised schedule shaped like real recorded frames.

    Mixes every row species the recording API can emit: compute-only
    jobs, multi-row DRAM streams, latency-only flows, plain streaming
    flows, staged multi-link streams (``rate_scale > 1``), dust flows
    (below the progress threshold on both axes), zero-demand jobs and
    background staging copies with start floors.
    """
    fabric = engine.system.fabric
    n = engine.system.num_gpms

    def random_flow():
        src, dst = (int(g) for g in rng.choice(n, size=2, replace=False))
        route = tuple(fabric.route(src, dst))
        assert route  # distinct endpoints always have a route
        species = int(rng.integers(0, 4))
        if species == 0:  # latency-only (barrier hop)
            return _FlowSpec(
                route=route,
                nbytes=0.0,
                latency=float(rng.uniform(0.5, 12.0)) * len(route),
            )
        if species == 1:  # staged copy streaming over the whole route
            return _FlowSpec(
                route=route,
                nbytes=float(rng.uniform(1.0, 400.0)),
                latency=0.0,
                rate_scale=float(len(route)),
            )
        if species == 2:  # dust: never enters any live set
            return _FlowSpec(route=route, nbytes=0.0, latency=0.0)
        return _FlowSpec(  # plain remote read: latency then bytes
            route=route,
            nbytes=float(rng.uniform(1.0, 400.0)),
            latency=float(rng.uniform(0.0, 6.0)) * len(route),
        )

    jobs = []
    for index in range(int(rng.integers(4, 24))):
        zero_demand = rng.random() < 0.1
        dram = (
            {}
            if zero_demand
            else {
                int(gpm): float(rng.uniform(1.0, 300.0))
                for gpm in rng.choice(
                    n, size=int(rng.integers(0, 3)), replace=False
                )
            }
        )
        jobs.append(
            _Job(
                label=f"unit{index}",
                gpm=int(rng.integers(0, n)),
                kind="render",
                start_floor=(
                    float(rng.uniform(0.0, 40.0))
                    if rng.random() < 0.4
                    else 0.0
                ),
                compute=(
                    0.0 if zero_demand else float(rng.uniform(0.0, 80.0))
                ),
                dram=dram,
                flows=(
                    []
                    if zero_demand
                    else [random_flow() for _ in range(int(rng.integers(0, 4)))]
                ),
                provisional_cycles=1.0,
            )
        )
    background = []
    for index in range(int(rng.integers(0, 3))):
        src, dst = (int(g) for g in rng.choice(n, size=2, replace=False))
        route = tuple(fabric.route(src, dst))
        background.append(
            _Job(
                label=f"stage{index}",
                gpm=dst,
                kind="stage",
                start_floor=float(rng.uniform(0.0, 20.0)),
                compute=0.0,
                dram={},
                flows=[
                    _FlowSpec(
                        route=route,
                        nbytes=float(rng.uniform(10.0, 500.0)),
                        latency=0.0,
                        rate_scale=float(len(route)),
                    )
                ],
                provisional_cycles=0.0,
            )
        )
    return jobs, background


def _lockstep_flow_soup(engine, rng):
    """A schedule whose values come from small sets, so rows tie.

    Each round gives every GPM one job, and most rounds share one start
    floor, so several GPMs start in the same window with equal compute
    and wire-latency values — the rows the incremental loop puts on one
    shared timer.  One compute value equals the one-hop latency and
    another the two-hop latency.  Jobs carry several flows on one
    route, dust flows and latency-only flows; rounds mix in zero-demand
    jobs and software stall copies streaming at ``parallelism x
    len(route)``, and background copies land in their destination's
    DRAM on the same floors.
    """
    fabric = engine.system.fabric
    n = engine.system.num_gpms
    hop_latency = 8.0
    computes = (hop_latency, 2 * hop_latency, 40.0)
    sizes = (64.0, 192.0)
    drams = (500.0, 1500.0)
    parallelism = 4.5
    spacing = 400.0

    def pick(values):
        return values[int(rng.integers(0, len(values)))]

    def route(src, dst):
        path = tuple(fabric.route(src, dst))
        assert path
        return path

    jobs = []
    floors = []
    for round_ in range(int(rng.integers(3, 7))):
        floor = spacing * round_ if rng.random() < 0.75 else 0.0
        floors.append(floor)
        compute = pick(computes)
        for gpm in range(n):
            label = f"r{round_}g{gpm}"
            peer = (gpm + 1 + int(rng.integers(0, n - 1))) % n
            species = int(rng.integers(0, 6))
            if species == 0:  # zero-demand, dust flow only
                jobs.append(
                    _Job(
                        label=label, gpm=gpm, kind="render",
                        start_floor=floor, compute=0.0, dram={},
                        flows=[
                            _FlowSpec(
                                route=route(peer, gpm), nbytes=0.0,
                                latency=0.0,
                            )
                        ],
                        provisional_cycles=1.0,
                    )
                )
                continue
            if species == 1:  # software stall copy from every peer
                jobs.append(
                    _Job(
                        label=label, gpm=gpm, kind="stall",
                        start_floor=0.0, compute=0.0, dram={},
                        flows=[
                            _FlowSpec(
                                route=path, nbytes=pick(sizes),
                                latency=0.0,
                                rate_scale=parallelism * len(path),
                            )
                            for path in (
                                route(src, gpm)
                                for src in range(n)
                                if src != gpm
                            )
                        ],
                        provisional_cycles=1.0,
                    )
                )
                continue
            path = route(peer, gpm)
            flows = [
                _FlowSpec(
                    route=path, nbytes=pick(sizes),
                    latency=hop_latency * len(path),
                )
                for _ in range(int(rng.integers(2, 5)))
            ]
            if rng.random() < 0.5:  # a dust flow on the same route
                flows.append(_FlowSpec(route=path, nbytes=0.0, latency=0.0))
            if rng.random() < 0.5:  # latency only, on another route
                back = route(gpm, peer)
                flows.append(
                    _FlowSpec(
                        route=back, nbytes=0.0,
                        latency=hop_latency * len(back),
                    )
                )
            jobs.append(
                _Job(
                    label=label, gpm=gpm, kind="render",
                    start_floor=floor, compute=compute,
                    dram={gpm: pick(drams), peer: pick(drams)},
                    flows=flows,
                    provisional_cycles=1.0,
                )
            )
    background = []
    for index in range(int(rng.integers(1, 4))):
        dst = int(rng.integers(0, n))
        src = (dst + 1 + int(rng.integers(0, n - 1))) % n
        path = route(src, dst)
        nbytes = pick(sizes)
        background.append(
            _Job(
                label=f"stage{index}", gpm=dst, kind="stage",
                start_floor=pick(floors), compute=0.0, dram={dst: nbytes},
                flows=[
                    _FlowSpec(
                        route=path, nbytes=nbytes, latency=0.0,
                        rate_scale=float(len(path)),
                    )
                ],
                provisional_cycles=0.0,
            )
        )
    return jobs, background


_SOUPS = {"random": _random_flow_soup, "lockstep": _lockstep_flow_soup}


class TestIncrementalWindowLoop:
    """The incremental loop is bit-equal to the full-scan oracle
    (``WINDOW_LOOP`` in the oracle table)."""

    @staticmethod
    def _engine(config, topology=None):
        system = MultiGPUSystem(config, engine="event")
        if topology is not None:
            from repro.extensions.topology import Topology, install_topology

            install_topology(system, Topology(topology))
        return system.engine

    @staticmethod
    def _assert_loops_agree(engine, jobs, background):
        from dataclasses import fields

        # Neither loop mutates the recording, so both replay the
        # identical schedule.
        recording = _recording(jobs, background)
        fast = engine._simulate(recording)
        slow = simulate_reference(engine, recording)
        for field in fields(fast):
            # == : bit-exact, not approx
            assert getattr(fast, field.name) == getattr(slow, field.name), (
                field.name
            )

    @pytest.mark.parametrize("seed", range(12))
    def test_random_flow_soups_match_reference_exactly(self, config, seed):
        import numpy as np

        engine = self._engine(config)
        rng = np.random.default_rng(20260808 + seed)
        self._assert_loops_agree(engine, *_random_flow_soup(engine, rng))

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("topology", ["fully-connected", "ring", "switch"])
    @pytest.mark.parametrize("soup", sorted(_SOUPS))
    def test_soups_match_reference_on_every_fabric(
        self, config, soup, topology, seed
    ):
        """Routed fabrics bring multi-hop ``min``-over-route shares and
        scaled copy rates; the lockstep soup brings tied timers."""
        import numpy as np

        engine = self._engine(config, topology)
        rng = np.random.default_rng(20261017 + seed)
        self._assert_loops_agree(engine, *_SOUPS[soup](engine, rng))

    def test_latency_only_and_background_only_soup(self, config):
        """Degenerate pass: no streaming rows at all, floors only."""
        engine = self._engine(config)
        route = tuple(engine.system.fabric.route(0, 1))
        jobs = [
            _Job(
                label="lat",
                gpm=0,
                kind="render",
                start_floor=5.0,
                compute=0.0,
                dram={},
                flows=[_FlowSpec(route=route, nbytes=0.0, latency=7.0)],
                provisional_cycles=1.0,
            )
        ]
        fast = engine._simulate(_recording(jobs))
        slow = simulate_reference(engine, _recording(jobs))
        assert fast.end == slow.end == [12.0, 0.0, 0.0, 0.0]
        assert fast.spans == slow.spans

    @pytest.mark.parametrize(
        "framework", ["baseline", "baseline-mig", "tile-v", "oo-vr"]
    )
    def test_reference_loop_flag_is_bit_exact_end_to_end(self, framework):
        """Running ``finish_frame`` on the reference loop (the bench's
        A/B patch) changes nothing, on the baseline family's crowded
        windows as on oo-vr's sparse ones."""
        scene = fast_scene()
        default = build_framework(framework, engine="event").render_scene(
            scene
        )
        with WINDOW_LOOP.patch():
            reference = build_framework(
                framework, engine="event"
            ).render_scene(scene)
        assert default.to_dict() == reference.to_dict()

    @pytest.mark.parametrize(
        "loop",
        [EventEngine._simulate, simulate_reference],
        ids=["incremental", "reference"],
    )
    def test_unfinishable_flow_raises_stall_diagnostic(self, config, loop):
        """Satellite: dt == inf now raises with job labels, not 0.0."""
        engine = self._engine(config)
        route = tuple(engine.system.fabric.route(0, 1))
        wedge = _Job(
            label="wedged-unit",
            gpm=0,
            kind="render",
            start_floor=0.0,
            compute=0.0,
            dram={},
            # Infinite latency: the flow is pending but never drains,
            # so every window is zero-length.
            flows=[
                _FlowSpec(route=route, nbytes=5.0, latency=float("inf"))
            ],
            provisional_cycles=1.0,
        )
        with pytest.raises(RuntimeError) as excinfo:
            loop(engine, _recording([wedge]))
        message = str(excinfo.value)
        assert "stalled" in message
        assert "wedged-unit" in message


# ---------------------------------------------------------------------------
# The slice pass vs. the per-slice oracle
# ---------------------------------------------------------------------------


def _even_split(
    units, share, unique_inflation, stream_inflation, fb_targets,
    command_source=0,
):
    """The baseline family's shape: every unit on each of four GPMs,
    one share."""
    from repro.engine.split import slice_schedule

    return slice_schedule(
        np.repeat(np.arange(len(units)), 4),
        np.tile(np.arange(4), len(units)),
        [f"{unit.label}/gpm{gpm}" for unit in units for gpm in range(4)],
        pixel_share=share,
        geometry_share=share,
        unique_inflation=unique_inflation,
        stream_inflation=stream_inflation,
        command_source=command_source,
        fb_targets=fb_targets,
    )


def _split_resources():
    """A small pool, so units repeat resources within and across units."""
    from repro.memory.address import texture_resource, vertex_resource

    page = 64 * 1024
    textures = tuple(
        texture_resource(i, (1 + 2 * i) * page + 17) for i in range(8)
    )
    vertices = tuple(vertex_resource(i, (1 + i) * page // 2) for i in range(6))
    return textures, vertices


def _prepare_placement(placement, resources):
    """Fixed, interleaved, striped and replicated resources; the rest
    stay unplaced, so binding places them on first touch."""
    textures, vertices = resources
    placement.place_fixed(textures[0], 0)
    placement.place_fixed(textures[1], 2)
    placement.place_interleaved(textures[2])
    placement.place_striped(textures[3], [1, 3])
    placement.place_fixed(textures[4], 1)
    placement.replicate(textures[4], [0, 3])
    placement.place_interleaved(vertices[0])
    placement.replicate(vertices[0], [2])


def _split_units(rng, resources, count):
    """A random unit soup: zero-touch units, zero-byte touches, repeated
    resources, streams below their footprint, units without commands."""
    from repro.memory.address import Touch
    from repro.pipeline.workunit import WorkUnit

    textures, vertices = resources

    def touch(resource):
        species = int(rng.integers(0, 4))
        if species == 0:
            return Touch(resource)  # zero bytes
        unique = float(rng.uniform(0.0, 4.0 * MB))
        return Touch(
            resource,
            unique_bytes=unique,
            stream_bytes=unique * float(rng.uniform(0.5, 6.0)),
            write_bytes=float(rng.uniform(0.0, 0.1 * MB)) if species == 3 else 0.0,
        )

    def pick(pool, most):
        chosen = rng.integers(0, len(pool), size=int(rng.integers(0, most + 1)))
        return tuple(touch(pool[int(i)]) for i in chosen)

    units = []
    for index in range(count):
        fragments = float(rng.uniform(0.0, 2e5))
        units.append(
            WorkUnit(
                label=f"u{index}",
                views=int(rng.integers(1, 3)),
                vertices=float(rng.uniform(0.0, 5e4)),
                triangles_setup=float(rng.uniform(0.0, 3e4)),
                triangles_raster=float(rng.uniform(0.0, 3e4)),
                fragments=fragments,
                pixels_out=fragments * float(rng.uniform(0.0, 1.0)),
                texel_requests=fragments * float(rng.uniform(0.0, 8.0)),
                shader_complexity=float(rng.uniform(0.5, 3.0)),
                texture_touches=pick(textures, 3),
                vertex_touches=pick(vertices, 2),
                z_stream_bytes=float(rng.uniform(0.0, 2 * MB)),
                z_unique_bytes=float(rng.uniform(0.0, 1 * MB)),
                fb_write_bytes=(
                    float(rng.uniform(0.0, 1 * MB)) if rng.random() < 0.8 else 0.0
                ),
                command_bytes=float(rng.choice([0.0, 256.0, 4096.0])),
                fraction=float(rng.uniform(0.1, 1.0)),
                draw_count=float(rng.uniform(0.5, 3.0)),
            )
        )
    return units


def _slice_soup(rng, units, num_gpms, fb_targets):
    """A random schedule over ``units``: uneven per-slice shares and
    inflation, every GPM visited, units split into several slices and
    revisited out of order, commands from every GPM."""
    from repro.engine.split import slice_schedule

    count = 3 * len(units)
    unit = np.sort(rng.integers(0, len(units), size=count))
    # A few slices revisit earlier units, out of visit order.
    back = rng.random(count) < 0.1
    unit[back] = rng.integers(0, len(units), size=int(back.sum()))
    gpm = rng.integers(0, num_gpms, size=count)
    gpm[:num_gpms] = np.arange(num_gpms)

    def shares():
        return np.where(
            rng.random(count) < 0.2, 1.0, rng.uniform(0.01, 1.0, size=count)
        )

    def inflation():
        return np.where(
            rng.random(count) < 0.3, 1.0, rng.uniform(1.0, 6.0, size=count)
        )

    return slice_schedule(
        unit,
        gpm,
        [f"u{index}/s{s}" for s, index in enumerate(unit.tolist())],
        pixel_share=shares(),
        geometry_share=shares(),
        unique_inflation=inflation(),
        stream_inflation=inflation(),
        command_source=rng.integers(0, num_gpms, size=count),
        stage_scale=rng.choice([1.0, 1.6, 0.5], size=count),
        fb_targets=fb_targets,
    )


def _recorded_jobs(engine):
    """The event engine's recorded GPM jobs, one tuple per job: label,
    GPM, kind, start floor, compute, DRAM rows, flow rows (route, bytes,
    latency, rate scale) and provisional cycles."""
    from repro.engine.trace import KINDS

    rec = engine._recording
    return [
        (
            label, rec.gpm[j], KINDS[rec.kind[j]], rec.floor[j],
            rec.compute[j],
            [
                (rec.dram_gpm[r], rec.dram_bytes[r])
                for r in range(rec.dram_bounds[j], rec.dram_bounds[j + 1])
            ],
            [
                (
                    rec.routes[rec.flow_route[r]], rec.flow_bytes[r],
                    rec.flow_latency[r], rec.flow_scale[r],
                )
                for r in range(rec.flow_bounds[j], rec.flow_bounds[j + 1])
            ],
            rec.provisional[j],
        )
        for j, label in enumerate(rec.labels)
        if not rec.background[j]
    ]


class _Observer:
    """A migration observer that also logs every row it is handed."""

    def __init__(self):
        from repro.extensions.migration import MigrationEngine

        self.migration = MigrationEngine()
        self.rows = []
        self.calls = 0

    def __call__(self, resources, resource, toucher, nbytes):
        self.calls += 1
        self.rows.extend(
            (resources[row], gpm, pulled)
            for row, gpm, pulled in zip(
                np.asarray(resource).tolist(),
                np.asarray(toucher).tolist(),
                np.asarray(nbytes).tolist(),
            )
        )
        self.migration.observe_rows(resources, resource, toucher, nbytes)

    def heat(self):
        """The engine's (resource, GPM) totals, keys in insertion order."""
        return [
            (key, list(per_gpm.items()))
            for key, per_gpm in self.migration._touches.items()
        ]


def _machine_state(system, observer=None, staging=()):
    """Everything binding, staging, executing and (with an observer)
    migrating leave behind."""
    engine = system.engine
    fabric = system.fabric
    state = {
        "links": [
            (key, stats.bytes_total, list(stats.by_type.items()))
            for key, stats in fabric._links.items()
        ],
        "bytes_by_type": list(fabric.bytes_by_type().items()),
        "total_bytes": fabric.total_bytes,
        "drams": [
            (d.local_read_bytes, d.local_write_bytes, d.remote_served_bytes)
            for d in system.drams
        ],
        "remote_caches": [
            (c.hits_bytes, c.miss_bytes) for c in system.remote_caches
        ],
        "gpms": [
            (
                g.ready_at, g.busy_cycles,
                g.transformed_vertices, g.rendered_pixels,
                g.rendered_triangles,
            )
            for g in system.gpms
        ],
        "phase_bytes": list(engine._phase_bytes.items()),
        "placement": system.placement.layout(),
        "resident": list(system.placement.resident_bytes),
        "staging": [
            (manager.staged_bytes, list(manager._staged.items()))
            for manager in staging
        ],
    }
    if observer is not None:
        state["observed"] = list(observer.rows)
        state["heat"] = observer.heat()
    if isinstance(engine, EventEngine):
        state["jobs"] = _recorded_jobs(engine)
    state["trace"] = engine.finish_frame()
    state["result"] = system.frame_result("split", "soup").to_dict()
    if observer is not None:
        # The frame's migrations: heat ties go to the GPM seen first.
        migration = observer.migration
        state["migrated"] = (
            migration.end_frame(system),
            list(migration.last_migrations),
            system.placement.layout(),
            list(system.placement.resident_bytes),
            [
                (key, stats.bytes_total, list(stats.by_type.items()))
                for key, stats in fabric._links.items()
            ],
        )
    return state


#: Machine and schedule knobs of the even-split soup cases.
_SPLIT_CASES = {
    "even-targets": {},
    "no-remote-cache": {"numa": False},
    "skewed-targets": {
        "fb_targets": {0: 0.5, 2: 0.3, 3: 0.2}, "command_source": 2,
    },
    "ring": {"topology": "ring", "command_source": 3},
    "switch": {"topology": "switch"},
    "migration-observer": {"observer": True},
}

#: Machine knobs of the random slice-soup cases; every case runs with
#: and without a staging prelude.
_SOUP_CASES = {
    "own-targets": {},
    "shared-targets": {"fb_targets": {0: 0.5, 2: 0.3, 3: 0.2}},
    "no-remote-cache": {"numa": False},
    "ring": {"topology": "ring"},
    "switch": {"topology": "switch"},
    "migration-observer": {"observer": True, "fb_targets": {1: 1.0}},
}


class TestSplitBind:
    """``execute_split`` == per-slice ``stage_unit`` + ``bind`` +
    ``execute``, bit for bit."""

    @staticmethod
    def _system(knobs, policy, engine, resources):
        from repro.extensions.topology import Topology, install_topology

        config = baseline_system()
        if not knobs.get("numa", True):
            config = replace(config, numa_optimizations=False)
        system = MultiGPUSystem(config, policy, engine)
        if "topology" in knobs:
            install_topology(system, Topology(knobs["topology"]))
        _prepare_placement(system.placement, resources)
        system.begin_frame()
        observer = None
        if knobs.get("observer"):
            observer = system.remote_observer = _Observer()
        return system, observer

    @pytest.mark.parametrize("engine", ["analytic", "event"])
    @pytest.mark.parametrize(
        "policy", list(PlacementPolicy), ids=lambda policy: policy.value
    )
    @pytest.mark.parametrize("case", sorted(_SPLIT_CASES))
    def test_random_unit_soups_match_per_slice_oracle(
        self, case, policy, engine, monkeypatch
    ):
        # Several passes per soup, the last one partial: every counter
        # must carry across pass boundaries.
        monkeypatch.setattr("repro.engine.split._CHUNK_UNITS", 7)
        knobs = _SPLIT_CASES[case]
        resources = _split_resources()
        seed = 20261016 + sorted(_SPLIT_CASES).index(case)
        units = _split_units(np.random.default_rng(seed), resources, 24)
        schedule = _even_split(
            units, 0.25, 1.8, 1.4,
            knobs.get("fb_targets", {gpm: 0.25 for gpm in range(4)}),
            knobs.get("command_source", 0),
        )
        oracle_system, oracle_seen = self._system(
            knobs, policy, engine, resources
        )
        per_slice(oracle_system, units, schedule)
        split_system, split_seen = self._system(knobs, policy, engine, resources)
        split_system.engine.execute_split(
            UnitColumns.from_units(units), schedule
        )
        oracle = _machine_state(oracle_system, oracle_seen)
        split = _machine_state(split_system, split_seen)
        assert split.keys() == oracle.keys()
        for key, expected in oracle.items():
            assert split[key] == expected, key  # == : bit-exact
        if knobs.get("observer"):
            # One call per pass (four here), every crossing row in it.
            assert split_seen.calls == 4
            assert oracle_seen.calls == len(oracle["observed"]) > 4
            # Even shares: several GPMs pull a resource equally hard.
            assert any(
                sorted(heat.values())[-2:] == [max(heat.values())] * 2
                for heat in map(dict, (per for _, per in oracle["heat"]))
            )
            assert oracle["migrated"][1]

    @pytest.mark.parametrize("engine", ["analytic", "event"])
    @pytest.mark.parametrize("staged", [False, True], ids=["bare", "staged"])
    @pytest.mark.parametrize(
        "policy", list(PlacementPolicy), ids=lambda policy: policy.value
    )
    @pytest.mark.parametrize("case", sorted(_SOUP_CASES))
    def test_random_slice_soups_match_per_slice_oracle(
        self, case, policy, staged, engine, monkeypatch
    ):
        """Uneven slices of a unit soup over two frames, optionally
        staged: resources start unplaced, homed on the slice's GPM,
        fixed elsewhere, interleaved, striped or replicated, and the
        staged bytes reach the footprint cap.  The second frame starts
        from the replicas, migrations and (its manager not begun again)
        the staged bytes the first left behind."""
        from repro.gpu.staging import StagingManager

        monkeypatch.setattr("repro.engine.split._CHUNK_UNITS", 5)
        knobs = _SOUP_CASES[case]
        resources = _split_resources()
        seed = 20261017 + sorted(_SOUP_CASES).index(case)
        rng = np.random.default_rng(seed)
        units = _split_units(rng, resources, 20)
        schedules = [
            _slice_soup(rng, units, 4, knobs.get("fb_targets"))
            for _ in range(2)
        ]
        factor = float(rng.uniform(0.5, 3.0))
        states = []
        for run in (per_slice, None):
            system, seen = self._system(knobs, policy, engine, resources)
            staging = None
            if staged:
                staging = StagingManager(system, factor=factor, parallelism=4.5)
                staging.begin_frame()
            managers = () if staging is None else (staging,)
            frames = []
            for schedule in schedules:
                if frames:
                    system.begin_frame()
                if run is None:
                    system.engine.execute_split(
                        UnitColumns.from_units(units), schedule, staging
                    )
                else:
                    run(system, units, schedule, staging)
                frames.append(_machine_state(system, seen, managers))
            states.append(frames)
        for oracle, split in zip(*states):
            assert split.keys() == oracle.keys()
            for key, expected in oracle.items():
                assert split[key] == expected, key  # == : bit-exact
        if staged:
            [(staged_bytes, entries)] = states[0][0]["staging"]
            assert staged_bytes > 0
            # Some shortfalls ran into the footprint cap.
            sizes = {
                resource.resource_id: resource.size_bytes
                for pool in resources for resource in pool
            }
            assert any(
                wanted == sizes[key] * max(factor, 1.0)
                for (key, _), wanted in entries
            )
            # Some pairs saw two stage scales and still reached a cap.
            scales = {}
            first = schedules[0]
            for s, index in enumerate(first.unit.tolist()):
                unit = units[index]
                for touch in unit.texture_touches + unit.vertex_touches:
                    scales.setdefault(
                        (touch.resource.resource_id, int(first.gpm[s])), set()
                    ).add(float(first.stage_scale[s]))
            assert any(
                len(scales[pair]) > 1
                and any(
                    wanted == sizes[pair[0]] * max(factor * scale, 1.0)
                    for scale in scales[pair]
                )
                for pair, wanted in entries
            )

    @pytest.mark.parametrize("engine", ["analytic", "event"])
    @pytest.mark.parametrize(
        "framework, num_gpms",
        [
            pytest.param(framework, 4, id=framework)
            for framework in (
                "baseline", "1tbs-bw", "baseline-mig", "baseline:topo=ring",
                "tile-v", "tile-h", "tile-v:topo=ring", "object",
                "object:fov", "afr",
            )
        ]
        # A lone GPM: whole draws under their own labels, staging
        # copies that never leave the GPM.
        + [
            pytest.param(framework, 1, id=f"{framework}-1gpm")
            for framework in ("baseline", "tile-v", "tile-h", "object", "afr")
        ],
    )
    def test_frameworks_match_per_slice_schedule(
        self, framework, num_gpms, engine, monkeypatch
    ):
        """Real frames, end to end, on one persistent machine each."""
        from repro.gpu.staging import StagingManager

        managers = []
        begin_frame = StagingManager.begin_frame

        def record(self):
            managers.append(self)
            begin_frame(self)

        monkeypatch.setattr(StagingManager, "begin_frame", record)
        scene = fast_scene()
        config = baseline_system(num_gpms=num_gpms)
        split = build_framework(framework, config, engine)
        split_result = split.render_scene(scene)
        split_managers = list(managers)
        managers.clear()
        # The per-slice frame body of the framework's scheme.
        [body] = [
            entry for entry in PER_SLICE_FRAMES
            if isinstance(split, entry.resolve()[0])
        ]
        with body.patch():
            oracle = build_framework(framework, config, engine)
            oracle_result = oracle.render_scene(scene)
        assert split_result.to_dict() == oracle_result.to_dict()
        assert _machine_state(split.last_system, None, split_managers) == (
            _machine_state(oracle.last_system, None, managers)
        )
        assert len(managers) == len(split_managers)
        assert bool(managers) == framework.startswith(("tile", "object"))

    def test_completion_subscribers_are_rejected(self, config):
        from repro.gpu.staging import StagingManager

        units = _split_units(np.random.default_rng(1), _split_resources(), 4)
        schedule = _even_split(units, 0.25, 1.0, 1.0, {0: 1.0})
        table = UnitColumns.from_units(units)
        for staged in (False, True):
            system = MultiGPUSystem(config)
            system.begin_frame()
            system.engine.on_complete(lambda resolved, execution: None)
            staging = StagingManager(system) if staged else None
            with pytest.raises(EngineError, match="on_complete"):
                system.engine.execute_split(table, schedule, staging)
            # Rejected before anything was staged or bound.
            assert system.fabric.total_bytes == 0.0
            assert not system.placement.layout()
            assert all(gpm.ready_at == 0.0 for gpm in system.gpms)

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("pixel_share", 0.0, "pixel_share"),
            ("geometry_share", 1.5, "geometry_share"),
            ("unique_inflation", 0.5, "unique_inflation"),
            ("stream_inflation", 0.5, "stream_inflation"),
            ("command_source", 4, "out of range"),
            ("gpm", -1, "out of range"),
            ("unit", 2, "unit index"),
            ("labels", ("only one",), "every column"),
            ("fb_targets", {}, "fb_targets"),
        ],
        ids=[
            "pixel_share", "geometry_share", "unique_inflation",
            "stream_inflation", "command_source", "gpm", "unit", "labels",
            "fb_targets",
        ],
    )
    def test_rejects_malformed_splits(self, config, column, value, message):
        system = MultiGPUSystem(config)
        system.begin_frame()
        units = _split_units(np.random.default_rng(2), _split_resources(), 2)
        schedule = _even_split(units, 0.25, 1.0, 1.0, {0: 1.0})
        if isinstance(getattr(schedule, column), np.ndarray):
            value = np.full(schedule.unit.shape, value)
        with pytest.raises(ValueError, match=message):
            system.engine.execute_split(
                UnitColumns.from_units(units),
                schedule._replace(**{column: value}),
            )
        assert system.fabric.total_bytes == 0.0

    def test_rejects_a_foreign_or_prefetching_prelude(self, config):
        from repro.gpu.staging import StagingManager

        system = MultiGPUSystem(config)
        system.begin_frame()
        units = _split_units(np.random.default_rng(2), _split_resources(), 2)
        schedule = _even_split(units, 0.25, 1.0, 1.0, {0: 1.0})
        for staging in (
            StagingManager(MultiGPUSystem(config)),
            StagingManager(system, prefetched=True),
        ):
            with pytest.raises(ValueError, match="staging prelude"):
                system.engine.execute_split(
                    UnitColumns.from_units(units), schedule, staging
                )

    def test_profile_splits_bind_from_price(self, config):
        """``oovr run baseline ... --profile`` still separates the two."""
        from repro.profiling import PhaseProfile, capture

        record = (
            Sweep().frameworks("baseline").workloads("HL2-640").fast()
            .run(profile=True).to_records()[0]
        )
        assert record["profile_bind_s"] > 0
        assert record["profile_price_s"] > 0
        system = MultiGPUSystem(config)
        system.begin_frame()
        units = _split_units(np.random.default_rng(3), _split_resources(), 8)
        table = UnitColumns.from_units(units)
        with capture(PhaseProfile()) as profile:
            system.engine.execute_split(
                table, _even_split(units, 0.25, 1.0, 1.0, {0: 1.0})
            )
        # Eq. 3 and the roofline are priced; everything else binds.
        assert profile.calls == {"bind": 1, "price": 2}
        assert profile.seconds["bind"] > 0 and profile.seconds["price"] > 0

    def test_profile_covers_every_batched_framework(self):
        """Tile-SFR, object-SFR and AFR cells still split bind from price."""
        records = (
            Sweep().frameworks("tile-v", "object", "afr").workloads("HL2-640")
            .fast().run(profile=True).to_records()
        )
        assert [record["framework"] for record in records] == [
            "tile-v", "object", "afr"
        ]
        for record in records:
            assert record["profile_bind_s"] > 0, record["framework"]
            assert record["profile_price_s"] > 0, record["framework"]

    def test_profile_covers_the_object_oriented_pair(self):
        """OO-APP and OO-VR cells split bind (the Fig. 12 grouping and
        the merges) from price, and export no compiled-plan counters."""
        cached_scene.cache_clear()  # fresh frames: profile the grouping
        records = (
            Sweep().frameworks("oo-app", "oo-vr").workloads("HL2-640")
            .fast().run(profile=True).to_records()
        )
        assert [record["framework"] for record in records] == [
            "oo-app", "oo-vr"
        ]
        for record in records:
            assert record["profile_bind_s"] > 0, record["framework"]
            assert record["profile_price_s"] > 0, record["framework"]
            assert not [
                key for key in record if key.startswith("profile_plan_")
            ], record["framework"]


# ---------------------------------------------------------------------------
# The slice pass's column entry points vs. their one-at-a-time calls
# ---------------------------------------------------------------------------


def _visit_soup(rng, pool, count, num_gpms):
    """``count`` visits over ``pool``: the pass's distinct resources in
    first-visit order, each visit's index into them, GPM, unique bytes
    (a quarter of them zero) and stage scale."""
    from repro.columns import first_use

    rows, _, index = first_use(
        rng.integers(0, len(pool), size=count), len(pool)
    )
    unique = rng.uniform(0.0, 3.0 * MB, size=count)
    unique[rng.random(count) < 0.25] = 0.0
    return (
        [pool[row] for row in rows.tolist()],
        index,
        rng.integers(0, num_gpms, size=count),
        unique,
        rng.choice([0.5, 1.0, 1.6], size=count),
    )


class TestColumnPrelude:
    """``StagingManager.stage_visits`` == ``_stage_touch`` per visit, in
    visit order: shortfalls, staged bytes (keys in order), placement and
    resident bytes."""

    @staticmethod
    def _staged_both_ways(policy, factor, visits, earlier=None):
        from repro.gpu.staging import StagingManager

        resources, index, gpm, unique, scale = visits
        states = []
        for columnar in (False, True):
            system = MultiGPUSystem(baseline_system(), policy)
            _prepare_placement(system.placement, _split_resources())
            staging = StagingManager(system, factor=factor)
            if earlier is not None:
                # An earlier frame's replicas and staged bytes.
                for args in earlier:
                    staging._stage_touch(*args)
            if columnar:
                shortfall = staging.stage_visits(
                    resources, index, gpm, unique, scale
                ).tolist()
            else:
                shortfall = [
                    staging._stage_touch(resources[row], nbytes, g, s)
                    for row, nbytes, g, s in zip(
                        index.tolist(), unique.tolist(), gpm.tolist(),
                        scale.tolist(),
                    )
                ]
            states.append(
                (
                    shortfall,
                    list(staging._staged.items()),
                    system.placement.layout(),
                    list(system.placement.resident_bytes),
                )
            )
        assert states[1] == states[0]  # == : bit-exact, key order too
        return states[0]

    def test_each_visit_is_clamped_at_its_own_cap(self):
        """Two stage scales on one pair: the cap is reached mid-sequence,
        grows with the larger scale, and nothing is copied once it
        shrinks."""
        textures, _ = _split_resources()
        fixed = textures[1]  # homed on GPM 2
        size = float(fixed.size_bytes)
        scale = np.array([1.0, 1.0, 1.0, 1.6, 1.6, 1.6, 0.5, 1.0, 1.6])
        unique = size * np.array(
            [0.45, 0.45, 0.45, 0.2, 0.0, 0.3, 0.45, 0.45, 0.45]
        )
        visits = ([fixed], np.zeros(scale.size, np.int64),
                  np.full(scale.size, 3), unique, scale)
        shortfall, staged, _, _ = self._staged_both_ways(
            PlacementPolicy.FIRST_TOUCH, 1.0, visits
        )
        assert [step > 0 for step in shortfall] == [
            True, True, True, True, False, True, False, False, False
        ]
        # The third and sixth visits copied only up to their caps ...
        assert shortfall[2] < 0.45 * size
        assert shortfall[5] < 0.3 * 1.6 * size
        # ... and the pair ends at the larger scale's cap.
        assert staged == [((fixed.resource_id, 3), size * 1.6)]

    @pytest.mark.parametrize(
        "policy", list(PlacementPolicy), ids=lambda policy: policy.value
    )
    @pytest.mark.parametrize("seed", range(6))
    def test_random_visits_match_stage_touch(self, policy, seed):
        """Unplaced, homed, fixed, interleaved, striped and replicated
        resources; zero-byte visits; three scales; and, for odd seeds,
        replicas and staged bytes an earlier frame left."""
        rng = np.random.default_rng(20261019 + seed)
        textures, vertices = _split_resources()
        pool = textures + vertices
        factor = float(rng.choice([0.6, 1.0, 2.5]))
        earlier = None
        if seed % 2:
            before = _visit_soup(rng, pool, 40, 4)
            earlier = [
                (before[0][row], nbytes, g, s)
                for row, nbytes, g, s in zip(
                    before[1].tolist(), before[3].tolist(),
                    before[2].tolist(), before[4].tolist(),
                )
            ]
        shortfall, staged, _, _ = self._staged_both_ways(
            policy, factor, _visit_soup(rng, pool, 300, 4), earlier
        )
        assert any(step > 0 for step in shortfall)
        assert any(step == 0 for step in shortfall)
        assert staged

    @pytest.mark.parametrize(
        "policy", list(PlacementPolicy), ids=lambda policy: policy.value
    )
    def test_owner_maps_match_owner_fractions(self, policy):
        """One read per resource gives every visit the map a per-touch
        read gives, placing unplaced resources in first-visit order."""
        rng = np.random.default_rng(7)
        textures, vertices = _split_resources()
        resources, index, gpm, _, _ = _visit_soup(
            rng, textures + vertices, 200, 4
        )
        placements = [PagePlacement(4, 64 * 1024, policy) for _ in range(2)]
        for placement in placements:
            _prepare_placement(placement, (textures, vertices))
        walked = [
            dict(placements[0].owner_fractions(resources[row], g))
            for row, g in zip(index.tolist(), gpm.tolist())
        ]
        maps = placements[1].owner_maps(resources, index, gpm)
        bounds, owners, fractions = placements[1].owner_table()
        read = [
            dict(zip(owners[bounds[m]:bounds[m + 1]].tolist(),
                     fractions[bounds[m]:bounds[m + 1]].tolist()))
            for m in maps.tolist()
        ]
        assert [list(m.items()) for m in read] == [
            list(m.items()) for m in walked
        ]
        assert placements[1].layout() == placements[0].layout()
        assert placements[1].resident_bytes == placements[0].resident_bytes

    def test_observer_rows_match_one_row_at_a_time(self):
        """Totals grow from their running values row by row; keys enter
        in first-row order, across calls; rows of no bytes are skipped."""
        from repro.extensions.migration import MigrationEngine

        rng = np.random.default_rng(11)
        textures, vertices = _split_resources()
        pool = textures + vertices
        engines = [MigrationEngine(), MigrationEngine()]
        for _ in range(3):
            resources, index, gpm, nbytes, _ = _visit_soup(rng, pool, 120, 4)
            engines[0].observe_rows(resources, index, gpm, nbytes)
            for row, g, pulled in zip(index.tolist(), gpm.tolist(),
                                      nbytes.tolist()):
                engines[1].observe_rows([resources[row]], [0], [g], [pulled])
        heat = [
            [(key, list(per.items())) for key, per in engine._touches.items()]
            for engine in engines
        ]
        assert heat[0] == heat[1]
        assert engines[0].pending_resources == len(pool)


class TestThePassCallsNothingPerPair:
    """A slice pass reads no owner map, stages no touch and calls the
    migration observer once, on staged and unstaged passes alike."""

    @pytest.mark.parametrize(
        "framework", ["baseline-mig", "tile-h", "object", "afr"]
    )
    def test_frameworks(self, framework, monkeypatch):
        from collections import Counter

        from repro.engine import split
        from repro.extensions.migration import MigrationEngine
        from repro.gpu.staging import StagingManager
        from repro.memory.placement import PagePlacement

        calls = Counter()

        def spy(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        spy(PagePlacement, "owner_fractions")
        spy(StagingManager, "_stage_touch")
        spy(MigrationEngine, "observe_rows")
        spy(split, "_execute_chunk")
        spy(split, "_stage")
        result = build_framework(framework, baseline_system()).render_scene(
            fast_scene()
        )
        assert result.frames
        assert calls["_execute_chunk"] > 0
        assert calls["owner_fractions"] == 0
        assert calls["_stage_touch"] == 0
        assert bool(calls["_stage"]) == (framework in ("tile-h", "object"))
        assert calls["observe_rows"] == (
            calls["_execute_chunk"] if framework == "baseline-mig" else 0
        )
