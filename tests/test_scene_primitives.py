"""Scene substrate: textures, meshes, viewports, objects, frames."""

import pytest

from repro.scene.geometry import (
    Mesh,
    Viewport,
    full_screen,
    horizontal_strips,
    vertical_strips,
)
from repro.scene.objects import Eye, RenderObject, StereoDraw
from repro.scene.scene import Frame, Scene
from repro.scene.texture import (
    Texture,
    unique_texture_bytes,
)
from tests.conftest import MB, make_object


class TestTexturePool:
    def test_interning_returns_same_object(self, pool):
        a = pool.get_or_create("stone", MB)
        b = pool.get_or_create("stone", MB)
        assert a is b

    def test_distinct_names_distinct_ids(self, pool):
        a = pool.get_or_create("stone", MB)
        b = pool.get_or_create("cloth", MB)
        assert a.texture_id != b.texture_id

    def test_size_conflict_raises(self, pool):
        pool.get_or_create("stone", MB)
        with pytest.raises(ValueError):
            pool.get_or_create("stone", 2 * MB)

    def test_total_bytes_counts_once(self, pool):
        pool.get_or_create("a", MB)
        pool.get_or_create("b", 2 * MB)
        pool.get_or_create("a", MB)
        assert pool.total_bytes == 3 * MB

    def test_contains_and_len(self, pool):
        pool.get_or_create("a", MB)
        assert "a" in pool
        assert "b" not in pool
        assert len(pool) == 1

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            Texture(0, "bad", 0)

    def test_unique_texture_bytes_dedups(self, pool):
        a = pool.get_or_create("a", MB)
        b = pool.get_or_create("b", MB)
        assert unique_texture_bytes([a, b, a]) == 2 * MB


class TestMesh:
    def test_vertex_buffer_bytes(self):
        assert Mesh(100, 150, vertex_bytes=32).vertex_buffer_bytes == 3200

    def test_triangles_require_vertices(self):
        with pytest.raises(ValueError):
            Mesh(0, 10)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Mesh(-1, 0)

    def test_scaled_rounds_and_floors(self):
        mesh = Mesh(100, 150).scaled(0.001)
        assert mesh.num_vertices >= 1
        assert mesh.num_triangles >= 1

    def test_scaled_up(self):
        mesh = Mesh(100, 150).scaled(2.0)
        assert mesh.num_triangles == 300


class TestViewport:
    def test_area(self):
        assert Viewport(0, 0, 10, 5).area == 50

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Viewport(10, 0, 0, 5)

    def test_zero_area_allowed(self):
        assert Viewport(5, 0, 5, 10).area == 0

    def test_shift(self):
        v = Viewport(0, 0, 10, 10).shifted(5, -2)
        assert (v.x0, v.y0, v.x1, v.y1) == (5, -2, 15, 8)

    def test_intersection(self):
        a = Viewport(0, 0, 10, 10)
        b = Viewport(5, 5, 15, 15)
        inter = a.intersection(b)
        assert inter == Viewport(5, 5, 10, 10)

    def test_disjoint_intersection_none(self):
        assert Viewport(0, 0, 1, 1).intersection(Viewport(5, 5, 6, 6)) is None

    def test_full_screen(self):
        v = full_screen(1280, 1024)
        assert v.area == 1280 * 1024

    def test_vertical_strips_partition(self):
        screen = full_screen(100, 50)
        strips = vertical_strips(screen, 4)
        assert len(strips) == 4
        assert sum(s.area for s in strips) == pytest.approx(screen.area)
        assert strips[0].x1 == strips[1].x0

    def test_horizontal_strips_partition(self):
        screen = full_screen(100, 52)
        strips = horizontal_strips(screen, 4)
        assert sum(s.area for s in strips) == pytest.approx(screen.area)
        assert strips[0].y1 == strips[1].y0

    def test_strip_count_positive(self):
        with pytest.raises(ValueError):
            vertical_strips(full_screen(10, 10), 0)


class TestRenderObject:
    def test_stereo_visibility(self, pool):
        obj = make_object(0, pool)
        assert obj.is_stereo

    def test_mono_object(self, pool):
        obj = make_object(0, pool, mono=True)
        assert not obj.is_stereo

    def test_invisible_object_rejected(self, pool):
        with pytest.raises(ValueError):
            RenderObject(
                object_id=0,
                name="ghost",
                mesh=Mesh(3, 1),
                textures=(pool.get_or_create("t", MB),),
                viewport_left=None,
                viewport_right=None,
            )

    def test_self_dependency_rejected(self, pool):
        with pytest.raises(ValueError):
            make_object(3, pool, depends_on=3)

    def test_fragments_scale_with_depth(self, pool):
        flat = make_object(0, pool)
        import dataclasses

        deep = dataclasses.replace(flat, depth_complexity=2.6)
        assert deep.fragments(Eye.LEFT) == pytest.approx(
            2 * flat.fragments(Eye.LEFT)
        )

    def test_both_eye_fragments_sum(self, pool):
        obj = make_object(0, pool)
        both = obj.fragments(Eye.BOTH)
        assert both == pytest.approx(
            obj.fragments(Eye.LEFT) + obj.fragments(Eye.RIGHT)
        )

    def test_stereo_draws_two_eyes(self, pool):
        draws = make_object(0, pool).stereo_draws()
        assert [d.eye for d in draws] == [Eye.LEFT, Eye.RIGHT]

    def test_mono_object_one_draw(self, pool):
        draws = make_object(0, pool, mono=True).stereo_draws()
        assert len(draws) == 1

    def test_multiview_draw_covers_both(self, pool):
        draw = make_object(0, pool).multiview_draw()
        assert draw.eye is Eye.BOTH
        assert draw.view_count == 2

    def test_multiview_of_mono_is_single(self, pool):
        draw = make_object(0, pool, mono=True).multiview_draw()
        assert draw.view_count == 1


class TestStereoDraw:
    def test_draw_viewports_both(self, pool):
        draw = make_object(0, pool).multiview_draw()
        assert len(draw.viewports()) == 2

    def test_invalid_eye_binding_rejected(self, pool):
        obj = make_object(0, pool, mono=True)  # right eye missing
        with pytest.raises(ValueError):
            StereoDraw(obj, Eye.RIGHT)


class TestFrame:
    def test_duplicate_object_id_rejected(self, pool):
        a = make_object(1, pool)
        b = make_object(1, pool)
        with pytest.raises(ValueError):
            Frame(objects=(a, b), width=100, height=100)

    def test_missing_dependency_rejected(self, pool):
        a = make_object(1, pool, depends_on=99)
        with pytest.raises(ValueError):
            Frame(objects=(a,), width=100, height=100)

    def test_stereo_draw_count(self, small_frame):
        # 5 stereo objects x 2 + 1 mono object.
        assert len(small_frame.stereo_draws()) == 11

    def test_multiview_draw_count(self, small_frame):
        assert len(small_frame.multiview_draws()) == 6

    def test_total_pixels_both_eyes(self, small_frame):
        assert small_frame.total_pixels == 2 * 1280 * 1024

    def test_stereo_viewport_twice_as_wide(self, small_frame):
        assert small_frame.stereo_viewport.width == 2 * 1280

    def test_texture_bytes_dedup(self, small_frame):
        # stone shared by three objects but counted once.
        per_object = sum(o.texture_bytes for o in small_frame.objects)
        assert small_frame.texture_bytes < per_object

    def test_sharing_ratio_above_one(self, small_frame):
        assert small_frame.texture_sharing_ratio() > 1.0


class TestScene:
    def test_mixed_resolutions_rejected(self, pool):
        f1 = Frame(objects=(make_object(0, pool),), width=100, height=100)
        f2 = Frame(objects=(make_object(0, pool),), width=200, height=100)
        with pytest.raises(ValueError):
            Scene(name="bad", frames=(f1, f2))

    def test_scene_iteration(self, tiny_scene):
        assert len(list(tiny_scene)) == len(tiny_scene) == 2

    def test_num_draws(self, tiny_scene):
        assert tiny_scene.num_draws == 24
