"""The unified Session/Sweep API: builders, grids, parallelism, export."""

import csv
import io
import json
import threading

import pytest

from repro.config import baseline_system
from repro.frameworks.base import build_framework, register_framework
from repro.memory.link import TrafficType
from repro.session import (
    FAST,
    ExperimentConfig,
    ResultCache,
    ResultSet,
    RunSpec,
    Session,
    SessionError,
    SpecError,
    Sweep,
    sweep_defaults,
)

#: Two tiny workloads keep these tests quick.
TINY = ExperimentConfig(
    draw_scale=0.08, num_frames=2, workloads=("DM3-640", "WE")
)


#: The keyword the deleted compiled-plan store took on ``Session.run``
#: and ``Sweep.run``, spelled in pieces so a search of the tree for the
#: store's names finds no live reference to it.
REMOVED_STORE_KEYWORD = "plan" + "_store"


def tiny_sweep() -> Sweep:
    return Sweep().preset(TINY).frameworks("baseline", "oo-vr")


class TestSessionBuilder:
    def test_run_matches_direct_framework_call(self):
        session = Session().preset(TINY).framework("oo-vr").workload("WE")
        via_session = session.run()
        direct = build_framework("oo-vr").render_scene(session.scene())
        assert via_session.single_frame_cycles == direct.single_frame_cycles
        assert (
            via_session.traffic.total_bytes == direct.traffic.total_bytes
        )

    def test_missing_framework_rejected(self):
        with pytest.raises(SessionError, match="no framework"):
            Session().workload("WE").spec()

    def test_missing_workload_rejected(self):
        with pytest.raises(SessionError, match="no workload"):
            Session().framework("oo-vr").spec()

    def test_unknown_framework_rejected(self):
        with pytest.raises(SpecError, match="unknown framework"):
            Session().framework("nope").workload("WE").spec()

    def test_unknown_workload_rejected(self):
        with pytest.raises(SpecError, match="unknown workload"):
            Session().framework("oo-vr").workload("nope").spec()

    def test_bad_frames_rejected(self):
        with pytest.raises(SessionError):
            Session().frames(0)

    def test_bad_scale_rejected(self):
        with pytest.raises(SessionError):
            Session().scale(0.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(SessionError, match="seed must be non-negative"):
            Session().seed(-1)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            ExperimentConfig(seed=-1)

    def test_sweep_negative_seed_rejected(self):
        with pytest.raises(SessionError, match="seed must be non-negative"):
            Sweep().seed(-1)

    def test_zero_seed_accepted(self):
        # Zero is a valid numpy seed; only negative seeds are rejected.
        session = Session().seed(0).framework("oo-vr").workload("WE")
        assert session.spec().seed == 0
        (spec,) = Sweep().seed(0).frameworks("oo-vr").workloads("WE").specs()
        assert spec.seed == 0
        RunSpec(framework="oo-vr", workload="WE", seed=0).validate()
        assert ExperimentConfig(seed=0).seed == 0

    def test_fast_preset_applied(self):
        spec = Session().framework("oo-vr").workload("WE").fast().spec()
        assert spec.draw_scale == FAST.draw_scale
        assert spec.num_frames == FAST.num_frames

    def test_scene_memoised_across_sessions(self):
        a = Session().preset(TINY).workload("WE").scene()
        b = Session().preset(TINY).workload("WE").scene()
        assert a is b

    def test_last_framework_exposed(self):
        session = Session().preset(TINY).framework("oo-vr").workload("WE")
        session.run()
        assert session.last_framework is not None
        assert session.last_framework.name == "oo-vr"


class TestSweepGrid:
    def test_cartesian_expansion_order(self):
        specs = (
            Sweep()
            .frameworks("baseline", "oo-vr")
            .workloads("DM3-640", "WE")
            .specs()
        )
        cells = [(s.framework, s.workload) for s in specs]
        assert cells == [
            ("baseline", "DM3-640"),
            ("baseline", "WE"),
            ("oo-vr", "DM3-640"),
            ("oo-vr", "WE"),
        ]

    def test_config_axis_outermost(self):
        sweep = Sweep().frameworks("baseline").workloads("WE")
        sweep.config(baseline_system(), label="a")
        sweep.config(baseline_system(num_gpms=2), label="b")
        assert [s.config_label for s in sweep.specs()] == ["a", "b"]

    def test_preset_supplies_default_workloads(self):
        specs = Sweep().preset(TINY).frameworks("baseline").specs()
        assert [s.workload for s in specs] == list(TINY.workloads)

    def test_empty_frameworks_rejected(self):
        with pytest.raises(SessionError, match="no frameworks"):
            Sweep().workloads("WE").specs()

    def test_duplicate_framework_rejected(self):
        with pytest.raises(SessionError, match="listed twice"):
            Sweep().frameworks("oo-vr", "oo-vr")

    def test_duplicate_config_label_rejected(self):
        sweep = Sweep().config(baseline_system(), label="x")
        with pytest.raises(SessionError, match="listed twice"):
            sweep.config(baseline_system(num_gpms=2), label="x")

    def test_unknown_name_rejected_at_expansion(self):
        with pytest.raises(SpecError):
            Sweep().frameworks("nope").workloads("WE").specs()

    def test_bad_jobs_rejected(self):
        with pytest.raises(SessionError):
            tiny_sweep().run(jobs=0)


class TestSweepExecution:
    def test_parallel_equals_serial(self):
        serial = tiny_sweep().run(jobs=1)
        parallel = tiny_sweep().run(jobs=2)
        assert serial.to_records() == parallel.to_records()
        assert serial.to_csv() == parallel.to_csv()

    @pytest.mark.parametrize(
        "grid",
        [
            lambda: Session().preset(TINY).framework("oo-vr").workload("WE"),
            tiny_sweep,
        ],
        ids=["session", "sweep"],
    )
    def test_removed_store_keyword_is_rejected(self, tmp_path, grid):
        store_dir = tmp_path / "plans"
        with pytest.raises(TypeError, match=REMOVED_STORE_KEYWORD):
            grid().run(**{REMOVED_STORE_KEYWORD: str(store_dir)})
        assert not store_dir.exists()

    def test_by_workload_matches_legacy_suite_shape(self):
        results = tiny_sweep().run().by_workload(framework="oo-vr")
        assert list(results) == list(TINY.workloads)
        direct = build_framework("oo-vr").render_scene(
            Session().preset(TINY).workload("WE").scene()
        )
        assert results["WE"].single_frame_cycles == direct.single_frame_cycles

    def test_select_and_get(self):
        results = tiny_sweep().run()
        subset = results.select(framework="baseline")
        assert len(subset) == 2
        one = results.get(framework="oo-vr", workload="WE")
        assert one.framework == "oo-vr"
        with pytest.raises(KeyError):
            results.get(framework="oo-vr")  # two workloads match

    def test_select_rejects_typo_field(self):
        results = tiny_sweep().run()
        with pytest.raises(KeyError, match="framwork"):
            results.select(framwork="oo-vr")
        with pytest.raises(KeyError, match="valid fields"):
            results.get(framwork="oo-vr", workload="WE")
        # An empty result set still validates keys.
        with pytest.raises(KeyError):
            ResultSet([]).select(framwork="oo-vr")

    def test_by_workload_rejects_ambiguous_subset(self):
        results = tiny_sweep().run()
        with pytest.raises(ValueError, match="ambiguous"):
            results.by_workload()  # two frameworks clobber each key
        narrowed = results.by_workload(framework="oo-vr")
        assert list(narrowed) == list(TINY.workloads)


def one_cell() -> Sweep:
    return Sweep().preset(TINY).frameworks("baseline").workloads("WE")


def tagged(events, tag):
    """An ``on_result`` callback appending ``(tag, cached)`` per cell."""
    return lambda spec, result, cached: events.append((tag, cached))


@pytest.fixture
def resolved(monkeypatch):
    """Every ``(executor, jobs)`` pair ``Sweep.run`` resolves."""
    import repro.session.session as session_module

    calls = []
    real_make_executor = session_module.make_executor

    def spy(executor=None, jobs=1, shard=None):
        calls.append((executor, jobs))
        return real_make_executor(executor, jobs=jobs, shard=shard)

    monkeypatch.setattr(session_module, "make_executor", spy)
    return calls


class TestSweepDefaults:
    """``sweep_defaults`` says once where every sweep in a block runs."""

    def test_sweep_inside_block_runs_with_its_settings(self, tmp_path):
        cache = ResultCache(tmp_path)
        seen = []
        with sweep_defaults(
            cache=cache,
            on_result=lambda spec, result, cached: seen.append(spec),
        ):
            results = tiny_sweep().run()
        assert seen == results.specs
        assert cache.stats.stores == 4
        assert sorted(cache.keys()) == sorted(
            cache.key(spec) for spec in results.specs
        )

    def test_call_argument_wins_over_block(self, tmp_path, resolved):
        block_cache = ResultCache(tmp_path / "block")
        call_cache = ResultCache(tmp_path / "call")
        events = []
        with sweep_defaults(
            jobs=2,
            cache=block_cache,
            executor="process",
            on_result=tagged(events, "block"),
        ):
            one_cell().run(
                jobs=1,
                cache=call_cache,
                executor="serial",
                on_result=tagged(events, "call"),
            )
            one_cell().run()
        assert resolved == [("serial", 1), ("process", 2)]
        assert call_cache.stats.stores == 1
        assert block_cache.stats.stores == 1
        assert events == [("call", False), ("block", False)]

    def test_jobs_unset_everywhere_is_one(self, resolved):
        one_cell().run()
        with sweep_defaults(on_result=lambda *cell: None):
            one_cell().run()
        assert resolved == [(None, 1), (None, 1)]

    def test_nested_block_overrides_per_key_and_restores(self, tmp_path):
        cache = ResultCache(tmp_path)
        events = []
        with sweep_defaults(cache=cache, on_result=tagged(events, "outer")):
            one_cell().run()
            with sweep_defaults(on_result=tagged(events, "inner")):
                # The outer block's cache still applies: a hit.
                one_cell().run()
            one_cell().run()
            with pytest.raises(RuntimeError, match="inside the block"):
                with sweep_defaults(on_result=tagged(events, "failed")):
                    raise RuntimeError("inside the block")
            one_cell().run()
        one_cell().run()
        assert events == [
            ("outer", False),
            ("inner", True),
            ("outer", True),
            ("outer", True),
        ]
        assert (cache.stats.stores, cache.stats.hits) == (1, 3)

    def test_thread_started_inside_block_sees_no_settings(self, tmp_path):
        cache = ResultCache(tmp_path)
        events = []
        ran = []
        with sweep_defaults(cache=cache, on_result=tagged(events, "block")):
            thread = threading.Thread(
                target=lambda: ran.append(one_cell().run())
            )
            thread.start()
            thread.join(timeout=120)
        assert not thread.is_alive()
        assert len(ran) == 1 and len(ran[0]) == 1
        assert events == []
        assert len(cache) == 0

    def test_bad_jobs_rejected_at_entry(self):
        with pytest.raises(SessionError, match="at least 1"):
            with sweep_defaults(jobs=0):
                pytest.fail("a block with jobs=0 must not be entered")

    def test_path_opens_one_cache_for_the_block(self, tmp_path, monkeypatch):
        opened = []
        real_init = ResultCache.__init__

        def recording_init(self, *args, **kwargs):
            opened.append(self)
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(ResultCache, "__init__", recording_init)
        with sweep_defaults(cache=tmp_path):
            one_cell().run()
            one_cell().run()
        assert len(opened) == 1
        assert (opened[0].stats.stores, opened[0].stats.hits) == (1, 1)


class TestResultSetMath:
    def test_normalize_to_speedups(self):
        results = tiny_sweep().run()
        speedups = results.normalize_to(
            "baseline", "single_frame_cycles", invert=True
        )
        assert set(speedups) == {"baseline", "oo-vr"}
        assert all(
            value == pytest.approx(1.0)
            for value in speedups["baseline"].values()
        )
        assert all(value > 1.0 for value in speedups["oo-vr"].values())

    def test_normalize_to_missing_baseline(self):
        with pytest.raises(KeyError):
            tiny_sweep().run().normalize_to("nope", "single_frame_cycles")

    def test_geomean_by_tuple_key(self):
        means = tiny_sweep().run().geomean_by(
            "single_frame_cycles", by=("framework", "config_label")
        )
        assert ("oo-vr", "base") in means
        assert all(value > 0 for value in means.values())

    def test_geomean_by_all_zero_group_is_zero(self):
        # On a single-GPM machine nothing crosses the links, so every
        # traffic column is zero; the per-framework geomean must report
        # 0.0 rather than raise.
        results = (
            Sweep()
            .preset(TINY)
            .workloads("WE")
            .frameworks("baseline", "oo-vr")
            .config(baseline_system(num_gpms=1), label="1gpm")
            .run()
        )
        means = results.geomean_by("traffic_texture")
        assert means == {"baseline": 0.0, "oo-vr": 0.0}

    def test_geomean_rejects_negative_values(self):
        from repro.stats.metrics import geomean

        with pytest.raises(ValueError, match="non-negative"):
            geomean([1.0, -2.0])
        with pytest.raises(ValueError):
            geomean([0.0, 0.0])
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)

    def test_pivot_shape(self):
        table = tiny_sweep().run().pivot("throughput_fps")
        assert list(table["baseline"]) == list(TINY.workloads)


class TestResultSetExport:
    def test_records_share_scene_to_dict_path(self):
        results = tiny_sweep().run()
        record = results.to_records()[0]
        spec, scene = next(iter(results))
        summary = scene.to_dict(include_frames=False)
        assert record["single_frame_cycles"] == summary["single_frame_cycles"]
        assert record["framework"] == spec.framework
        assert record["traffic_texture"] == summary["traffic"].get(
            "texture", 0.0
        )

    def test_json_round_trip(self, tmp_path):
        results = tiny_sweep().run()
        path = tmp_path / "out.json"
        text = results.to_json(str(path))
        assert json.loads(text) == results.to_records()
        assert json.loads(path.read_text()) == results.to_records()

    def test_csv_round_trip(self, tmp_path):
        results = tiny_sweep().run()
        path = tmp_path / "out.csv"
        text = results.to_csv(str(path))
        assert path.read_text() == text
        parsed = list(csv.DictReader(io.StringIO(text)))
        records = results.to_records()
        assert len(parsed) == len(records)
        for row, record in zip(parsed, records):
            assert row["framework"] == record["framework"]
            assert float(row["single_frame_cycles"]) == pytest.approx(
                record["single_frame_cycles"]
            )
            assert int(row["num_frames"]) == record["num_frames"]

    def test_empty_resultset_exports(self):
        empty = ResultSet([])
        assert empty.to_records() == []
        assert empty.to_csv() == ""


class TestSerialization:
    def test_frame_to_dict(self):
        result = Session().preset(TINY).framework("oo-vr").workload("WE").run()
        frame = result.frames[0].to_dict()
        assert frame["cycles"] == result.frames[0].cycles
        assert set(frame["traffic"]) <= {t.value for t in TrafficType}
        assert frame["load_balance_ratio"] >= 1.0

    def test_scene_to_dict_frames_toggle(self):
        result = Session().preset(TINY).framework("oo-vr").workload("WE").run()
        full = result.to_dict()
        assert len(full["frames"]) == TINY.num_frames
        summary = result.to_dict(include_frames=False)
        assert "frames" not in summary
        assert summary["num_frames"] == TINY.num_frames


class TestRegistry:
    def test_duplicate_registration_rejected(self):
        from repro.frameworks.single import SingleKernelBaseline

        with pytest.raises(ValueError, match="already registered"):
            register_framework("baseline")(type("Fake", (), {}))
        # Re-decorating the registered class itself stays idempotent.
        register_framework("baseline")(SingleKernelBaseline)
        assert build_framework("baseline").name == "baseline"


class TestSceneMemoisationAliasing:
    def test_cached_scene_not_mutated_across_frameworks(self):
        """The lru_cache hands every framework the *same* Scene object;
        rendering must never mutate it (or the second framework would
        see a different input than the first)."""
        from repro.scene.benchmarks import make_benchmark_scene
        from repro.session.spec import cached_scene

        shared = cached_scene("WE", 2, 2019, 0.08)
        shared_base = build_framework("baseline").render_scene(shared)
        shared_oovr = build_framework("oo-vr").render_scene(shared)

        fresh_base = build_framework("baseline").render_scene(
            make_benchmark_scene("WE", num_frames=2, seed=2019, draw_scale=0.08)
        )
        fresh_oovr = build_framework("oo-vr").render_scene(
            make_benchmark_scene("WE", num_frames=2, seed=2019, draw_scale=0.08)
        )
        for shared_result, fresh_result in (
            (shared_base, fresh_base),
            (shared_oovr, fresh_oovr),
        ):
            assert (
                shared_result.to_dict() == fresh_result.to_dict()
            ), "memoised scene was mutated by a previous render"


class TestSceneBuildCounters:
    def test_profiled_sweep_exports_scene_counters(self):
        from repro.session.spec import cached_scene

        cached_scene.cache_clear()  # profile the build, not a memo hit
        record = (
            Sweep()
            .frameworks("oo-vr")
            .workloads("HL2-1280")
            .fast()
            .run(profile=True)
            .to_records()
        )[0]
        assert record["profile_scene_objects_built"] > 0
        assert record["profile_scene_frames_built"] == 2.0
        assert record["profile_scene_build_s"] > 0
        for gone in ("store_hit", "store_miss", "load_s"):
            assert f"profile_scene_{gone}" not in record

    def test_memo_hit_builds_nothing(self):
        """A repeat of the same workload point is answered by the memo,
        so its profile reports no scene build at all."""
        from repro.session.spec import cached_scene

        cached_scene.cache_clear()
        grid = lambda: (
            Sweep().frameworks("oo-vr").workloads("HL2-1280").fast()
        )
        grid().run()
        record = grid().run(profile=True).to_records()[0]
        for counter in ("build_s", "objects_built", "frames_built"):
            assert f"profile_scene_{counter}" not in record

    def test_memo_hit_results_byte_identical(self):
        """A cell served from the memoised scene renders byte-identically
        to one whose scene was just built."""
        from repro.session.spec import cached_scene

        cell = lambda: (
            Session().framework("oo-vr").workload("HL2-1280").fast()
        )
        cached_scene.cache_clear()
        built = cell().run()
        memoised = cell().run()
        assert json.dumps(memoised.to_dict(), sort_keys=True) == json.dumps(
            built.to_dict(), sort_keys=True
        )


class TestFrameworkVariants:
    def test_ablation_variant_builds(self):
        framework = build_framework("oo-vr:no-dhc")
        assert framework.name == "oo-vr:no-dhc"
        assert not framework.features.distributed_composition

    def test_middleware_variants_build(self):
        tsl = build_framework("oo-vr:tsl=0.3")
        assert tsl._builder._middleware.tsl_threshold == 0.3
        cap = build_framework("oo-vr:cap=8192")
        assert cap._builder._middleware.triangle_limit == 8192
        both = build_framework("oo-vr:tsl=0.3:cap=8192")
        assert both._builder._middleware.tsl_threshold == 0.3
        assert both._builder._middleware.triangle_limit == 8192

    def test_topology_variant_installs_fabric(self):
        from repro.extensions.topology import RoutedLinkFabric, Topology

        framework = build_framework("baseline:topo=ring")
        system = framework.make_system()
        assert isinstance(system.fabric, RoutedLinkFabric)
        assert system.fabric.topology is Topology.RING

    def test_fov_variant_renders_cheaper(self):
        scene = (
            Session().preset(TINY).workload("DM3-640").scene()
        )
        plain = build_framework("oo-vr").render_scene(scene)
        foveated = build_framework("oo-vr:fov").render_scene(scene)
        assert foveated.single_frame_cycles < plain.single_frame_cycles

    def test_variant_specs_validate_and_sweep(self):
        spec = RunSpec(
            framework="oo-vr:no-stealing", workload="WE"
        ).validate()
        assert spec.framework == "oo-vr:no-stealing"
        results = (
            Sweep()
            .preset(TINY)
            .workloads("WE")
            .frameworks("oo-vr", "oo-vr:software-only")
            .run()
        )
        records = {r["framework"]: r for r in results.to_records()}
        assert (
            records["oo-vr:software-only"]["single_frame_cycles"]
            >= records["oo-vr"]["single_frame_cycles"]
        )

    def test_bad_variants_rejected(self):
        with pytest.raises(SpecError):
            RunSpec(framework="oo-vr:nope", workload="WE").validate()
        with pytest.raises(SpecError):
            # Ablation modifiers only apply to oo-vr.
            RunSpec(framework="baseline:no-dhc", workload="WE").validate()
        with pytest.raises(SpecError):
            RunSpec(framework="oo-vr:tsl=abc", workload="WE").validate()
        with pytest.raises(SpecError):
            RunSpec(
                framework="baseline:topo=torus", workload="WE"
            ).validate()
        with pytest.raises(SpecError):
            # Two constructor modifiers cannot combine.
            RunSpec(
                framework="oo-vr:no-dhc:tsl=0.3", workload="WE"
            ).validate()
        with pytest.raises(KeyError):
            build_framework("nope:topo=ring")


class TestRunSpec:
    def test_spec_is_picklable(self):
        import pickle

        spec = RunSpec(
            framework="oo-vr", workload="WE", config=baseline_system()
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_validate_rejects_bad_fields(self):
        with pytest.raises(SpecError):
            RunSpec(framework="oo-vr", workload="WE", num_frames=0).validate()
        with pytest.raises(SpecError):
            RunSpec(framework="oo-vr", workload="WE", draw_scale=-1).validate()
        with pytest.raises(SpecError, match="seed must be non-negative"):
            RunSpec(framework="oo-vr", workload="WE", seed=-1).validate()
