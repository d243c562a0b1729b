"""Synthetic workload generation and the Table 3 suite."""

import pytest

from repro.scene.benchmarks import (
    BENCHMARKS,
    WORKLOADS,
    make_benchmark_scene,
    parse_workload,
)
from repro.scene.synthetic import SceneProfile, SyntheticSceneGenerator
from repro.scene.vr import PC_GAMING, STEREO_VR, requirements_table


class TestGeneratorDeterminism:
    def test_same_seed_same_scene(self, tiny_profile):
        a = SyntheticSceneGenerator(tiny_profile, seed=11).make_frame()
        b = SyntheticSceneGenerator(tiny_profile, seed=11).make_frame()
        assert a.total_triangles == b.total_triangles
        assert [o.name for o in a.objects] == [o.name for o in b.objects]
        assert [o.mesh.num_triangles for o in a.objects] == [
            o.mesh.num_triangles for o in b.objects
        ]

    def test_different_seed_different_scene(self, tiny_profile):
        a = SyntheticSceneGenerator(tiny_profile, seed=1).make_frame()
        b = SyntheticSceneGenerator(tiny_profile, seed=2).make_frame()
        assert [o.mesh.num_triangles for o in a.objects] != [
            o.mesh.num_triangles for o in b.objects
        ]

    def test_object_count_matches_profile(self, tiny_profile):
        frame = SyntheticSceneGenerator(tiny_profile).make_frame()
        assert len(frame.objects) == tiny_profile.num_objects

    def test_frames_share_texture_pool(self, tiny_profile):
        generator = SyntheticSceneGenerator(tiny_profile)
        scene = generator.make_scene(num_frames=2)
        ids_a = {t.texture_id for t in scene.frames[0].unique_textures}
        ids_b = {t.texture_id for t in scene.frames[1].unique_textures}
        assert ids_a & ids_b, "frames must reuse the material pool"

    def test_materials_bounded_by_pool(self, tiny_profile):
        frame = SyntheticSceneGenerator(tiny_profile).make_frame()
        assert len(frame.unique_textures) <= tiny_profile.num_materials


class TestGeneratedStatistics:
    def test_most_objects_stereo(self, tiny_profile):
        frame = SyntheticSceneGenerator(tiny_profile, seed=3).make_frame()
        stereo = sum(1 for o in frame.objects if o.is_stereo)
        assert stereo >= 0.8 * len(frame.objects)

    def test_viewports_inside_eye_bounds(self, tiny_profile):
        frame = SyntheticSceneGenerator(tiny_profile, seed=3).make_frame()
        for obj in frame.objects:
            for vp in (obj.viewport_left, obj.viewport_right):
                if vp is None:
                    continue
                assert vp.x0 >= -1e-6 and vp.y0 >= -1e-6
                assert vp.x1 <= tiny_profile.width + 1e-6
                assert vp.y1 <= tiny_profile.height + 1e-6

    def test_texture_sharing_exists(self, tiny_profile):
        frame = SyntheticSceneGenerator(tiny_profile, seed=3).make_frame()
        assert frame.texture_sharing_ratio() > 1.2

    def test_triangle_distribution_heavy_tailed(self):
        profile = SceneProfile(
            name="tail", num_objects=300, width=640, height=480
        )
        frame = SyntheticSceneGenerator(profile, seed=5).make_frame()
        sizes = sorted(o.mesh.num_triangles for o in frame.objects)
        mean = sum(sizes) / len(sizes)
        assert sizes[-1] > 4 * mean, "expect a heavy tail"

    def test_vertical_skew_shifts_centres_down(self):
        flat = SceneProfile(
            name="flat", num_objects=400, width=640, height=480,
            vertical_skew=0.0,
        )
        skewed = SceneProfile(
            name="skew", num_objects=400, width=640, height=480,
            vertical_skew=0.6,
        )

        def mean_cy(profile):
            frame = SyntheticSceneGenerator(profile, seed=9).make_frame()
            centres = [
                (o.viewport_left or o.viewport_right)
                for o in frame.objects
            ]
            return sum((c.y0 + c.y1) / 2 for c in centres) / len(centres)

        assert mean_cy(skewed) > mean_cy(flat) + 10

    def test_dependencies_point_backwards(self, tiny_profile):
        frame = SyntheticSceneGenerator(tiny_profile, seed=3).make_frame()
        for obj in frame.objects:
            if obj.depends_on is not None:
                assert obj.depends_on < obj.object_id


class TestProfileValidation:
    def test_bad_mono_fraction(self):
        with pytest.raises(ValueError):
            SceneProfile(
                name="x", num_objects=1, width=1, height=1, mono_fraction=1.0
            ).validate()

    def test_bad_texture_range(self):
        with pytest.raises(ValueError):
            SceneProfile(
                name="x",
                num_objects=1,
                width=10,
                height=10,
                textures_per_object=(3, 2),
            ).validate()


class TestTable3:
    def test_five_benchmarks(self):
        assert set(BENCHMARKS) == {"DM3", "HL2", "NFS", "UT3", "WE"}

    def test_paper_draw_counts(self):
        assert BENCHMARKS["DM3"].num_draws == 191
        assert BENCHMARKS["HL2"].num_draws == 328
        assert BENCHMARKS["NFS"].num_draws == 1267
        assert BENCHMARKS["UT3"].num_draws == 876
        assert BENCHMARKS["WE"].num_draws == 1697

    def test_nine_workload_points(self):
        assert len(WORKLOADS) == 9

    def test_parse_with_resolution(self):
        spec, w, h = parse_workload("DM3-1600")
        assert spec.abbr == "DM3"
        assert (w, h) == (1600, 1200)

    def test_parse_default_resolution(self):
        spec, w, h = parse_workload("NFS")
        assert (w, h) == (1280, 1024)

    def test_parse_rejects_unknown_game(self):
        with pytest.raises(KeyError):
            parse_workload("QUAKE")

    def test_parse_rejects_unevaluated_resolution(self):
        with pytest.raises(KeyError):
            parse_workload("WE-1600")

    def test_scene_has_paper_draw_count(self):
        scene = make_benchmark_scene("DM3-640", num_frames=1)
        assert scene.num_draws == 191

    def test_draw_scale(self):
        scene = make_benchmark_scene("HL2-1280", num_frames=1, draw_scale=0.25)
        assert scene.num_draws == 82

    def test_resolution_applied(self):
        scene = make_benchmark_scene("HL2-640", num_frames=1)
        assert (scene.width, scene.height) == (640, 480)

    def test_deterministic_per_seed(self):
        a = make_benchmark_scene("WE", num_frames=1, seed=1)
        b = make_benchmark_scene("WE", num_frames=1, seed=1)
        assert a.frames[0].total_triangles == b.frames[0].total_triangles


class TestTable1:
    def test_vr_needs_116_mpixels(self):
        assert STEREO_VR.megapixels == pytest.approx(116.64)

    def test_vr_deadline_stricter_than_pc(self):
        assert STEREO_VR.frame_latency_ms_min < PC_GAMING.frame_latency_ms_min

    def test_requirements_table_rows(self):
        rows = requirements_table()
        assert len(rows) == 4
        assert rows[0][0] == "Display"
