"""Pipeline: SMP geometry, fragment demand, work units, stage pricing."""

import dataclasses

import numpy as np
import pytest

from repro.config import CostModel, baseline_system
from repro.pipeline.characterize import DrawCharacterizer
from repro.pipeline.fragment import depth_and_color_demand, texture_touches_for_draw
from repro.pipeline.raster import (
    TILE_EDGE,
    normalize_pixel_shares,
    strip_share_columns,
    strip_shares,
    tile_count,
)
from repro.pipeline.rop import (
    crossing_fraction,
    distributed_composition,
    master_composition,
)
from repro.pipeline.smp import SMPEngine, SMPMode
from repro.pipeline.timing import price_work_unit
from repro.pipeline.workunit import merge_units
from repro.scene.geometry import (
    Viewport,
    full_screen,
    horizontal_strips,
    vertical_strips,
)
from repro.scene.objects import Eye
from tests.conftest import MB, make_object


@pytest.fixture
def characterizer(config):
    return DrawCharacterizer(config)


class TestSMPEngine:
    def test_sequential_stereo_doubles_geometry(self, config, pool):
        engine = SMPEngine(config.cost)
        draw = make_object(0, pool).multiview_draw()
        seq = engine.geometry_work(draw, SMPMode.SEQUENTIAL)
        smp = engine.geometry_work(draw, SMPMode.SIMULTANEOUS)
        assert seq.vertices == pytest.approx(2 * smp.vertices)

    def test_smp_setup_cheaper_than_two_passes(self, config, pool):
        engine = SMPEngine(config.cost)
        draw = make_object(0, pool).multiview_draw()
        seq = engine.geometry_work(draw, SMPMode.SEQUENTIAL)
        smp = engine.geometry_work(draw, SMPMode.SIMULTANEOUS)
        assert smp.triangles_setup < seq.triangles_setup
        # But both views still rasterise.
        assert smp.triangles_raster == pytest.approx(seq.triangles_raster)

    def test_single_eye_unaffected_by_mode(self, config, pool):
        engine = SMPEngine(config.cost)
        draw = make_object(0, pool).stereo_draws()[0]
        seq = engine.geometry_work(draw, SMPMode.SEQUENTIAL)
        smp = engine.geometry_work(draw, SMPMode.SIMULTANEOUS)
        assert seq == smp

    def test_cull_survival_applied(self, config, pool):
        engine = SMPEngine(config.cost)
        draw = make_object(0, pool).stereo_draws()[0]
        work = engine.geometry_work(draw, SMPMode.SIMULTANEOUS)
        expected = draw.mesh.num_triangles * config.cost.cull_survival
        assert work.triangles_raster == pytest.approx(expected)

    def test_project_viewports_shift_and_clip(self):
        bounds = full_screen(100, 100)
        original = Viewport(40, 10, 60, 30)
        left, right = SMPEngine.project_viewports(original, 10.0, bounds, bounds)
        assert left.x0 == pytest.approx(30.0)
        assert right.x0 == pytest.approx(50.0)

    def test_project_viewports_clip_at_edge(self):
        bounds = full_screen(100, 100)
        original = Viewport(0, 10, 20, 30)
        left, _right = SMPEngine.project_viewports(original, 30.0, bounds, bounds)
        # Fully shifted out: collapses to a zero-width sliver, stays valid.
        assert left.area == 0.0
        assert bounds.x0 <= left.x0 <= bounds.x1


class TestFragmentDemand:
    def test_texel_requests_formula(self):
        cost = CostModel()
        requests, _touches = texture_touches_for_draw((), 1000.0, cost)
        expected = 1000.0 * cost.samples_per_fragment * cost.anisotropic_texels_per_sample
        assert requests == pytest.approx(expected)

    def test_unique_bounded_by_texture_size(self, pool):
        cost = CostModel()
        texture = pool.get_or_create("tiny", 8192)
        _req, touches = texture_touches_for_draw((texture,), 1e7, cost)
        assert touches[0].unique_bytes <= texture.size_bytes

    def test_view_reuse_halves_unique(self, pool):
        cost = CostModel()
        texture = pool.get_or_create("big", 64 * MB)
        _r1, mono = texture_touches_for_draw((texture,), 1e5, cost, view_reuse=1.0)
        _r2, multi = texture_touches_for_draw((texture,), 1e5, cost, view_reuse=2.0)
        assert multi[0].unique_bytes == pytest.approx(mono[0].unique_bytes / 2)

    def test_view_reuse_reduces_stream(self, pool):
        cost = CostModel()
        texture = pool.get_or_create("big2", 64 * MB)
        _r1, mono = texture_touches_for_draw((texture,), 1e6, cost, view_reuse=1.0)
        _r2, multi = texture_touches_for_draw((texture,), 1e6, cost, view_reuse=2.0)
        assert multi[0].stream_bytes < mono[0].stream_bytes

    def test_touch_split_proportional_to_size(self, pool):
        cost = CostModel()
        big = pool.get_or_create("bigger", 4 * MB)
        small = pool.get_or_create("smaller", 1 * MB)
        _r, touches = texture_touches_for_draw((big, small), 1e5, cost)
        by_id = {t.resource.resource_id: t for t in touches}
        assert (
            by_id[("tex", big.texture_id)].stream_bytes
            > by_id[("tex", small.texture_id)].stream_bytes
        )

    def test_depth_and_color(self):
        cost = CostModel()
        z_stream, z_unique, fb = depth_and_color_demand(1000.0, 600.0, cost)
        assert z_stream == pytest.approx(1000.0 * cost.bytes_per_ztest)
        assert z_unique == pytest.approx(600.0 * cost.bytes_per_ztest)
        assert fb == pytest.approx(600.0 * cost.bytes_per_pixel_out)


class TestRasterHelpers:
    def test_tile_count(self):
        assert tile_count(Viewport(0, 0, TILE_EDGE * 2, TILE_EDGE * 3)) == 6

    def test_tile_count_rounds_up(self):
        assert tile_count(Viewport(0, 0, 17, 17)) == 4

    def test_strip_shares_sum_to_one(self):
        strips = vertical_strips(full_screen(100, 100), 4)
        shares = normalize_pixel_shares(
            strip_shares([Viewport(10, 10, 90, 90)], strips)
        )
        assert sum(s.pixel_share for s in shares) == pytest.approx(1.0)

    def test_geometry_broadcast_per_overlap(self):
        strips = vertical_strips(full_screen(100, 100), 4)
        shares = strip_shares([Viewport(10, 10, 90, 90)], strips)
        assert all(s.geometry_share == 1.0 for s in shares)
        assert len(shares) == 4

    def test_small_object_single_strip(self):
        strips = vertical_strips(full_screen(100, 100), 4)
        shares = strip_shares([Viewport(1, 1, 20, 20)], strips)
        assert len(shares) == 1
        assert shares[0].strip_index == 0

    def test_edge_touching_strip_gets_no_share(self):
        """Meeting a strip only along its boundary is no overlap."""
        strips = vertical_strips(full_screen(100, 100), 4)
        # Strip 1 spans x in [25, 50): the first draw ends exactly where
        # it begins, the second starts exactly where it ends.
        shares = strip_shares([Viewport(5, 10, 25, 30)], strips)
        assert [s.strip_index for s in shares] == [0]
        assert shares[0].pixel_share == 1.0
        shares = strip_shares([Viewport(50, 10, 60, 30)], strips)
        assert [s.strip_index for s in shares] == [2]
        draw, strip, share = strip_share_columns(
            1, np.zeros(1, np.int64), np.array([5.0]), np.array([10.0]),
            np.array([25.0]), np.array([30.0]), strips,
        )
        assert strip.tolist() == [0] and share.tolist() == [1.0]

    def test_strip_share_columns_match_scalar_shares(self):
        """The column kernel lists the scalar shares, float for float."""
        rng = np.random.default_rng(2026)
        screen = full_screen(2560, 1440)
        for strips in (
            vertical_strips(screen, 4),
            horizontal_strips(screen, 3),
            vertical_strips(screen, 7),
        ):
            draws = []
            for _ in range(300):
                rects = []
                for _ in range(int(rng.integers(1, 3))):
                    x0 = float(rng.choice([rng.uniform(0, 2560), 640.0, 1280.0]))
                    y0 = float(rng.uniform(0, 1440))
                    rects.append(
                        Viewport(
                            x0, y0,
                            min(2560.0, x0 + float(rng.uniform(0.5, 900))),
                            min(1440.0, y0 + float(rng.uniform(0.5, 600))),
                        )
                    )
                draws.append(tuple(rects))
            rows = np.array(
                [
                    (d, r.x0, r.y0, r.x1, r.y1)
                    for d, rects in enumerate(draws)
                    for r in rects
                ]
            ).T
            draw, strip, share = strip_share_columns(
                len(draws), rows[0].astype(np.int64), *rows[1:], strips
            )
            expected = [
                (d, s.strip_index, s.pixel_share)
                for d, rects in enumerate(draws)
                for s in normalize_pixel_shares(strip_shares(rects, strips))
            ]
            assert list(zip(draw.tolist(), strip.tolist(), share.tolist())) == (
                expected
            )


class TestCharacterizer:
    def test_multiview_shares_vertices(self, characterizer, pool):
        obj = make_object(0, pool)
        multi = characterizer.characterize(obj.multiview_draw(), SMPMode.SIMULTANEOUS)
        seq = characterizer.characterize(obj.multiview_draw(), SMPMode.SEQUENTIAL)
        assert multi.vertices == pytest.approx(seq.vertices / 2)
        assert multi.fragments == pytest.approx(seq.fragments)

    def test_stereo_pair_covers_both_eyes(self, characterizer, pool):
        obj = make_object(0, pool)
        pair = characterizer.characterize_stereo_pair(obj.stereo_draws()[0])
        assert len(pair) == 2
        total = sum(u.fragments for u in pair)
        assert total == pytest.approx(obj.fragments(Eye.BOTH))

    def test_command_bytes_attached(self, characterizer, pool):
        unit = characterizer.characterize(make_object(0, pool).multiview_draw())
        assert unit.command_bytes > 0

    def test_vertex_touch_resource_per_object(self, characterizer, pool):
        a = characterizer.characterize(make_object(0, pool).multiview_draw())
        b = characterizer.characterize(make_object(1, pool).multiview_draw())
        assert (
            a.vertex_touches[0].resource.resource_id
            != b.vertex_touches[0].resource.resource_id
        )


class TestWorkUnit:
    def test_split_scales_everything(self, characterizer, pool):
        unit = characterizer.characterize(make_object(0, pool).multiview_draw())
        half = unit.split(0.5)
        assert half.fragments == pytest.approx(unit.fragments / 2)
        assert half.vertices == pytest.approx(unit.vertices / 2)
        assert half.texture_stream_bytes == pytest.approx(
            unit.texture_stream_bytes / 2
        )
        assert half.fraction == pytest.approx(0.5)

    def test_split_bounds(self, characterizer, pool):
        unit = characterizer.characterize(make_object(0, pool).multiview_draw())
        with pytest.raises(ValueError):
            unit.split(0.0)
        with pytest.raises(ValueError):
            unit.split(1.5)

    def test_screen_share_keeps_geometry(self, characterizer, pool):
        unit = characterizer.characterize(make_object(0, pool).multiview_draw())
        slice_unit = unit.with_screen_share(
            pixel_share=0.25, geometry_share=1.0, unique_inflation=2.0,
            label_suffix="s0",
        )
        assert slice_unit.vertices == pytest.approx(unit.vertices)
        assert slice_unit.fragments == pytest.approx(unit.fragments / 4)

    def test_screen_share_inflates_unique(self, characterizer, pool):
        unit = characterizer.characterize(make_object(0, pool).multiview_draw())
        plain = unit.with_screen_share(0.25, 1.0, 1.0, "a")
        inflated = unit.with_screen_share(0.25, 1.0, 2.0, "b")
        assert inflated.texture_unique_bytes == pytest.approx(
            2 * plain.texture_unique_bytes
        )

    def test_screen_share_unique_capped(self, characterizer, pool):
        unit = characterizer.characterize(make_object(0, pool).multiview_draw())
        capped = unit.with_screen_share(0.5, 1.0, 10.0, "c")
        assert capped.texture_unique_bytes <= unit.texture_unique_bytes * 1.0001

    def test_merge_sums_work(self, characterizer, pool):
        units = [
            characterizer.characterize(make_object(i, pool).multiview_draw())
            for i in range(3)
        ]
        merged = merge_units("batch", tuple(units))
        assert merged.fragments == pytest.approx(sum(u.fragments for u in units))
        assert merged.draw_count == pytest.approx(3.0)

    def test_merge_dedups_shared_texture_unique(self, characterizer, pool):
        # Both objects bind the same "stone" texture.
        units = [
            characterizer.characterize(
                make_object(i, pool, textures=(("stone", MB),)).multiview_draw()
            )
            for i in range(2)
        ]
        merged = merge_units("batch", tuple(units))
        summed_unique = sum(u.texture_unique_bytes for u in units)
        assert merged.texture_unique_bytes < summed_unique
        # Streams still add (both objects sample).
        assert merged.texture_stream_bytes == pytest.approx(
            sum(u.texture_stream_bytes for u in units)
        )

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_units("empty", ())


class TestTiming:
    def test_all_stages_positive(self, config, characterizer, pool):
        unit = characterizer.characterize(make_object(0, pool).multiview_draw())
        breakdown = price_work_unit(unit, config.gpm, config.cost)
        assert breakdown.vertex_cycles > 0
        assert breakdown.fragment_cycles > 0
        assert breakdown.rop_cycles > 0

    def test_compute_is_max_plus_overhead(self, config, characterizer, pool):
        unit = characterizer.characterize(make_object(0, pool).multiview_draw())
        b = price_work_unit(unit, config.gpm, config.cost)
        stages = [
            b.vertex_cycles, b.setup_cycles, b.raster_cycles,
            b.fragment_cycles, b.texture_cycles, b.rop_cycles,
        ]
        assert b.compute_cycles == pytest.approx(max(stages) + b.overhead_cycles)
        assert b.serial_cycles >= b.compute_cycles

    def test_bottleneck_label(self, config, characterizer, pool):
        unit = characterizer.characterize(
            make_object(0, pool, triangles=50_000, w=30, h=30).multiview_draw()
        )
        b = price_work_unit(unit, config.gpm, config.cost)
        assert b.bottleneck == "setup"

    def test_fragment_heavy_draw(self, config, characterizer, pool):
        unit = characterizer.characterize(
            make_object(0, pool, triangles=32, w=900, h=700).multiview_draw()
        )
        b = price_work_unit(unit, config.gpm, config.cost)
        assert b.bottleneck in ("fragment", "raster", "texture")

    def test_bigger_gpm_is_faster(self, config, characterizer, pool):
        import dataclasses as dc

        unit = characterizer.characterize(make_object(0, pool).multiview_draw())
        small = price_work_unit(unit, config.gpm, config.cost)
        big_gpm = dc.replace(config.gpm, num_sms=16)
        big = price_work_unit(unit, big_gpm, config.cost)
        assert big.fragment_cycles < small.fragment_cycles


class TestCompositionPricing:
    def test_master_uses_one_gpm_rops(self, config):
        cost = master_composition(32_000.0, config.gpm)
        assert cost.rop_cycles == pytest.approx(1000.0)

    def test_distributed_divides_by_gpms(self, config):
        m = master_composition(32_000.0, config.gpm)
        d = distributed_composition(32_000.0, config.gpm, 4)
        assert d.rop_cycles == pytest.approx(m.rop_cycles / 4)

    def test_crossing_fraction(self):
        assert crossing_fraction(4) == pytest.approx(0.75)
        assert crossing_fraction(1) == 0.0
