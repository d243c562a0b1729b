"""Framework-level behaviour: each scheme's qualitative signature."""

import pytest

from repro.config import baseline_system
from repro.frameworks.base import build_framework, framework_names
from repro.frameworks.tile_sfr import (
    HorizontalTileSFR,
    TileOrientation,
    VerticalTileSFR,
)
from repro.memory.link import TrafficType
from repro.scene.benchmarks import make_benchmark_scene


@pytest.fixture(scope="module")
def scene():
    return make_benchmark_scene("HL2-1280", num_frames=3, draw_scale=0.15)


@pytest.fixture(scope="module")
def results(scene):
    """Every framework run once on the shared scene."""
    return {
        name: build_framework(name).render_scene(scene)
        for name in framework_names()
    }


class TestRegistry:
    def test_all_schemes_registered(self):
        assert set(framework_names()) == {
            "baseline", "1tbs-bw", "afr", "tile-v", "tile-h",
            "object", "oo-app", "oo-vr", "baseline-mig",
        }

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            build_framework("sort-middle")

    def test_custom_config_accepted(self):
        fw = build_framework("baseline", baseline_system(num_gpms=2))
        assert fw.config.num_gpms == 2


class TestVariantGrammarErrors:
    """Every ``raise KeyError`` branch of the variant grammar, by message.

    The grammar (:mod:`repro.frameworks.variants`) is the only parser
    between user-supplied framework names (CLI, RunSpec, cached specs)
    and framework construction, so each malformed spelling must fail
    loudly with an actionable message rather than half-building.
    """

    def _rejects(self, name, match):
        from repro.frameworks.variants import build_variant, validate_variant

        with pytest.raises(KeyError, match=match):
            validate_variant(name)
        # build_variant shares the parser: same rejection, nothing built.
        with pytest.raises(KeyError, match=match):
            build_variant(name)

    def test_trailing_separator_is_malformed(self):
        self._rejects("oo-vr:", "malformed framework variant 'oo-vr:'")

    def test_empty_modifier_is_malformed(self):
        self._rejects("oo-vr::fov", "malformed framework variant")

    def test_unknown_modifier(self):
        self._rejects(
            "oo-vr:turbo",
            "unknown framework variant modifier 'turbo' in 'oo-vr:turbo'",
        )

    def test_unknown_base(self):
        self._rejects("sort-middle:fov", "unknown framework 'sort-middle'")

    def test_ablation_requires_oovr_base(self):
        self._rejects(
            "baseline:no-dhc",
            "ablation variant 'no-dhc' applies to 'oo-vr', not 'baseline'",
        )

    def test_middleware_requires_oovr_base(self):
        self._rejects(
            "baseline:tsl=0.3",
            "middleware modifier 'tsl=0.3' applies to 'oo-vr', "
            "not 'baseline'",
        )
        self._rejects(
            "afr:cap=8192",
            "middleware modifier 'cap=8192' applies to 'oo-vr', not 'afr'",
        )

    def test_constructor_modifiers_do_not_combine(self):
        # Ablation after middleware, middleware after ablation, and
        # double ablation all hit the incompatible-constructor branch.
        match = "combines incompatible constructor modifiers"
        self._rejects("oo-vr:tsl=0.3:no-dhc", match)
        self._rejects("oo-vr:no-dhc:tsl=0.3", match)
        self._rejects("oo-vr:no-dhc:no-stealing", match)

    def test_malformed_tsl_value(self):
        self._rejects(
            "oo-vr:tsl=warm",
            "malformed tsl value 'warm' in variant 'oo-vr:tsl=warm'",
        )

    def test_malformed_cap_value(self):
        # ints are parsed strictly: a float spelling is malformed too.
        self._rejects(
            "oo-vr:cap=many",
            "malformed cap value 'many' in variant 'oo-vr:cap=many'",
        )
        self._rejects("oo-vr:cap=4096.5", "malformed cap value '4096.5'")

    def test_unknown_topology(self):
        self._rejects(
            "baseline:topo=torus",
            "unknown topology 'torus'",
        )

    def test_engine_is_not_a_modifier(self):
        # The engine is the run's (RunSpec.engine), never the name's.
        self._rejects(
            "oo-vr:engine=event",
            "unknown framework variant modifier 'engine=event' in "
            "'oo-vr:engine=event'",
        )
        with pytest.raises(KeyError, match="modifier 'engine=event'"):
            build_framework("oo-vr:engine=event")

    def test_wrapper_modifiers_still_stack(self):
        # Guard against over-tight rejection: the legal spellings the
        # error paths sit between keep building.
        from repro.frameworks.variants import validate_variant

        for name in (
            "oo-vr:no-dhc",
            "oo-vr:tsl=0.3:topo=ring:fov",
            "baseline:topo=switch:fov",
        ):
            validate_variant(name)


class TestEverySchemeRuns:
    def test_all_produce_results(self, results):
        for name, result in results.items():
            assert result.single_frame_cycles > 0, name
            assert result.frame_interval_cycles > 0, name

    def test_frame_counts(self, results, scene):
        for result in results.values():
            assert len(result.frames) == len(scene)


class TestBaseline:
    def test_heavy_inter_gpm_traffic(self, results):
        assert results["baseline"].mean_inter_gpm_bytes_per_frame > 10e6

    def test_link_bound_at_64gbps(self, results):
        # The 1TB/s variant must be clearly faster.
        assert (
            results["1tbs-bw"].single_frame_cycles
            < 0.8 * results["baseline"].single_frame_cycles
        )

    def test_upload_gpm_least_stalled(self, results):
        # GPM 0 holds the uploads (Fig. 3's story): its slices read
        # locally while the peers wait on its outgoing links.
        frame = results["baseline"].frames[-1]
        assert frame.gpm_busy_cycles[0] == min(frame.gpm_busy_cycles)

    def test_single_gpm_runs_whole_draws(self, scene):
        fw = build_framework("baseline", baseline_system(num_gpms=1))
        result = fw.render_scene(scene)
        assert result.frames[0].inter_gpm_bytes == 0.0


class TestAFR:
    def test_near_zero_traffic(self, results):
        afr = results["afr"].mean_inter_gpm_bytes_per_frame
        base = results["baseline"].mean_inter_gpm_bytes_per_frame
        assert afr < 0.01 * base

    def test_higher_single_frame_latency(self, results):
        assert (
            results["afr"].single_frame_cycles
            > results["baseline"].single_frame_cycles
        )

    def test_better_throughput_than_latency(self, results):
        afr = results["afr"]
        assert afr.frame_interval_cycles < afr.single_frame_cycles

    def test_frames_rotate_gpms(self, scene):
        fw = build_framework("afr")
        result = fw.render_scene(scene)
        busy_gpms = [
            max(range(4), key=lambda g: frame.gpm_busy_cycles[g])
            for frame in result.frames
        ]
        assert busy_gpms == [0, 1, 2]

    def test_memory_footprint_replicated(self, scene):
        fw = build_framework("afr")
        result = fw.render_scene(scene)
        base = build_framework("baseline").render_scene(scene)
        assert result.frames[-1].resident_bytes > base.frames[-1].resident_bytes


class TestTileSFR:
    def test_orientation_selection(self):
        v = VerticalTileSFR()
        h = HorizontalTileSFR()
        assert v.orientation is TileOrientation.VERTICAL
        assert h.orientation is TileOrientation.HORIZONTAL
        scene_strips_v = v.strips(make_benchmark_scene("WE", num_frames=1).frames[0])
        scene_strips_h = h.strips(make_benchmark_scene("WE", num_frames=1).frames[0])
        assert scene_strips_v[0].width < scene_strips_h[0].width

    def test_vertical_more_traffic_than_object(self, results):
        assert (
            results["tile-v"].mean_inter_gpm_bytes_per_frame
            > results["object"].mean_inter_gpm_bytes_per_frame
        )

    def test_horizontal_less_balanced_than_vertical(self, results):
        assert (
            results["tile-h"].mean_load_balance_ratio
            > results["tile-v"].mean_load_balance_ratio
        )

    def test_stereo_space_viewports_shift_right_eye(self, scene):
        fw = build_framework("tile-v")
        frame = scene.frames[0]
        draw = frame.objects[0].stereo_draws()[1]  # right eye
        vps = fw.stereo_space_viewports(draw, frame.width)
        assert vps[0].x0 >= frame.width * 0.0  # shifted into right half
        assert vps[0].x1 <= 2 * frame.width + 1e-6


class TestObjectSFR:
    def test_less_traffic_than_baseline(self, results):
        assert (
            results["object"].mean_inter_gpm_bytes_per_frame
            < results["baseline"].mean_inter_gpm_bytes_per_frame
        )

    def test_faster_than_baseline(self, results):
        assert (
            results["object"].single_frame_cycles
            < results["baseline"].single_frame_cycles
        )

    def test_visible_load_imbalance(self, results):
        assert results["object"].mean_load_balance_ratio > 1.05

    def test_composition_phase_present(self, results):
        assert results["object"].frames[0].composition_cycles > 0

    def test_composition_traffic_to_root(self, scene):
        fw = build_framework("object")
        result = fw.render_scene(scene)
        comp = result.frames[0].traffic.bytes_of(TrafficType.COMPOSITION)
        assert comp > 0


class TestOOSchemes:
    def test_oo_app_beats_object_level(self, results):
        assert (
            results["oo-app"].single_frame_cycles
            < results["object"].single_frame_cycles
        )

    def test_oo_vr_beats_oo_app(self, results):
        assert (
            results["oo-vr"].single_frame_cycles
            < results["oo-app"].single_frame_cycles
        )

    def test_oo_vr_biggest_traffic_reduction(self, results):
        oovr = results["oo-vr"].mean_inter_gpm_bytes_per_frame
        for other in ("baseline", "tile-v", "tile-h", "object"):
            assert oovr < results[other].mean_inter_gpm_bytes_per_frame

    def test_oo_vr_well_balanced(self, results):
        assert (
            results["oo-vr"].mean_load_balance_ratio
            <= results["oo-app"].mean_load_balance_ratio + 0.05
        )

    def test_oo_vr_uses_prealloc_not_stalls(self, results):
        traffic = results["oo-vr"].frames[1].traffic
        # Steady-state PA traffic exists but is modest.
        assert traffic.bytes_of(TrafficType.PREALLOC) >= 0.0

    def test_oo_vr_composition_cheaper_than_oo_app(self, results):
        assert (
            results["oo-vr"].frames[0].composition_cycles
            < results["oo-app"].frames[0].composition_cycles
        )

    def test_engine_records_available(self, scene):
        fw = build_framework("oo-vr")
        fw.render_scene(scene)
        assert fw.last_engine is not None
        assert fw.last_engine.records


class TestSceneOrchestration:
    def test_render_frame_convenience(self, scene):
        fw = build_framework("oo-vr")
        result = fw.render_frame(scene.frames[0], "adhoc")
        assert result.cycles > 0

    def test_steady_state_metrics_skip_cold_frame(self, scene):
        fw = build_framework("oo-vr")
        result = fw.render_scene(scene)
        cold = result.frames[0].inter_gpm_bytes
        steady = result.mean_inter_gpm_bytes_per_frame
        assert steady < cold
