"""Pipeline: SMP geometry, fragment demand, work units, stage pricing."""

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.config import CostModel
from repro.pipeline.raster import strip_share_columns
from repro.pipeline.rop import distributed_composition, master_composition
from repro.pipeline.smp import SMPMode, project_viewports
from repro.pipeline.timing import price_work_unit
from repro.pipeline.workunit import UnitColumns, merge_rows
from repro.scene.geometry import (
    Viewport,
    full_screen,
    horizontal_strips,
    vertical_strips,
)
from repro.scene.objects import Eye
from tests.conftest import MB, make_object, object_units, unit_for
from tests.oracles import (
    depth_and_color_reference,
    merge_units,
    normalize_pixel_shares,
    strip_share_columns_reference,
    strip_shares,
    texture_touches_reference,
)


class TestSMPEngine:
    """Section 3's SMP engine, as the unit table prices it."""

    def test_sequential_stereo_doubles_geometry(self, characterizer, pool):
        obj = make_object(0, pool)
        (seq,) = object_units(characterizer, obj, SMPMode.SEQUENTIAL)
        (smp,) = object_units(characterizer, obj, SMPMode.SIMULTANEOUS)
        assert seq.vertices == pytest.approx(2 * smp.vertices)

    def test_smp_setup_cheaper_than_two_passes(self, characterizer, pool):
        obj = make_object(0, pool)
        (seq,) = object_units(characterizer, obj, SMPMode.SEQUENTIAL)
        (smp,) = object_units(characterizer, obj, SMPMode.SIMULTANEOUS)
        assert smp.triangles_setup < seq.triangles_setup
        # But both views still rasterise.
        assert smp.triangles_raster == pytest.approx(seq.triangles_raster)

    def test_single_eye_unaffected_by_mode(self, characterizer, pool):
        # A stereo object's per-eye draws, and a mono object's one draw.
        for obj, expansion in (
            (make_object(0, pool), "stereo"),
            (make_object(1, pool, mono=True), "multiview"),
        ):
            seq = object_units(characterizer, obj, SMPMode.SEQUENTIAL, expansion)
            smp = object_units(characterizer, obj, SMPMode.SIMULTANEOUS, expansion)
            assert all(unit.views == 1 for unit in seq)
            assert seq == smp

    def test_cull_survival_applied(self, config, characterizer, pool):
        obj = make_object(0, pool)
        left, _right = object_units(
            characterizer, obj, SMPMode.SIMULTANEOUS, "stereo"
        )
        expected = obj.mesh.num_triangles * config.cost.cull_survival
        assert left.triangles_raster == pytest.approx(expected)

    def test_project_viewports_shift_and_clip(self):
        bounds = full_screen(100, 100)
        original = Viewport(40, 10, 60, 30)
        left, right = project_viewports(original, 10.0, bounds, bounds)
        assert left.x0 == pytest.approx(30.0)
        assert right.x0 == pytest.approx(50.0)

    def test_project_viewports_clip_at_edge(self):
        bounds = full_screen(100, 100)
        original = Viewport(0, 10, 20, 30)
        left, _right = project_viewports(original, 30.0, bounds, bounds)
        # Fully shifted out: collapses to a zero-width sliver, stays valid.
        assert left.area == 0.0
        assert bounds.x0 <= left.x0 <= bounds.x1


class TestFragmentDemand:
    """The per-draw fragment helpers of the oracle table's Eq. 3 walk."""

    def test_texel_requests_formula(self):
        cost = CostModel()
        requests, _touches = texture_touches_reference((), 1000.0, cost)
        expected = 1000.0 * cost.samples_per_fragment * cost.anisotropic_texels_per_sample
        assert requests == pytest.approx(expected)

    def test_unique_bounded_by_texture_size(self, pool):
        cost = CostModel()
        texture = pool.get_or_create("tiny", 8192)
        _req, touches = texture_touches_reference((texture,), 1e7, cost)
        assert touches[0].unique_bytes <= texture.size_bytes

    def test_view_reuse_halves_unique(self, pool):
        cost = CostModel()
        texture = pool.get_or_create("big", 64 * MB)
        _r1, mono = texture_touches_reference((texture,), 1e5, cost, view_reuse=1.0)
        _r2, multi = texture_touches_reference((texture,), 1e5, cost, view_reuse=2.0)
        assert multi[0].unique_bytes == pytest.approx(mono[0].unique_bytes / 2)

    def test_view_reuse_reduces_stream(self, pool):
        cost = CostModel()
        texture = pool.get_or_create("big2", 64 * MB)
        _r1, mono = texture_touches_reference((texture,), 1e6, cost, view_reuse=1.0)
        _r2, multi = texture_touches_reference((texture,), 1e6, cost, view_reuse=2.0)
        assert multi[0].stream_bytes < mono[0].stream_bytes

    def test_touch_split_proportional_to_size(self, pool):
        cost = CostModel()
        big = pool.get_or_create("bigger", 4 * MB)
        small = pool.get_or_create("smaller", 1 * MB)
        _r, touches = texture_touches_reference((big, small), 1e5, cost)
        by_id = {t.resource.resource_id: t for t in touches}
        assert (
            by_id[("tex", big.texture_id)].stream_bytes
            > by_id[("tex", small.texture_id)].stream_bytes
        )

    def test_depth_and_color(self):
        cost = CostModel()
        z_stream, z_unique, fb = depth_and_color_reference(1000.0, 600.0, cost)
        assert z_stream == pytest.approx(1000.0 * cost.bytes_per_ztest)
        assert z_unique == pytest.approx(600.0 * cost.bytes_per_ztest)
        assert fb == pytest.approx(600.0 * cost.bytes_per_pixel_out)

    def test_input_checks(self):
        cost = CostModel()
        with pytest.raises(ValueError):
            texture_touches_reference((), -1.0, cost)
        with pytest.raises(ValueError):
            texture_touches_reference((), 1.0, cost, view_reuse=0.5)
        with pytest.raises(ValueError):
            depth_and_color_reference(-1.0, 0.0, cost)


class TestRasterHelpers:
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
        """The column kernel lists the scalar shares
        (``strip_share_columns_reference``), float for float."""
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
            columns = (len(draws), rows[0].astype(np.int64), *rows[1:], strips)
            for got, want in zip(
                strip_share_columns(*columns),
                strip_share_columns_reference(*columns),
            ):
                assert got.dtype == want.dtype
                assert got.tolist() == want.tolist()


class TestCharacterizer:
    """The unit table of a one-object frame."""

    def test_multiview_shares_vertices(self, characterizer, pool):
        obj = make_object(0, pool)
        (multi,) = object_units(characterizer, obj, SMPMode.SIMULTANEOUS)
        (seq,) = object_units(characterizer, obj, SMPMode.SEQUENTIAL)
        assert multi.vertices == pytest.approx(seq.vertices / 2)
        assert multi.fragments == pytest.approx(seq.fragments)

    def test_stereo_pair_covers_both_eyes(self, characterizer, pool):
        obj = make_object(0, pool)
        pair = object_units(characterizer, obj, SMPMode.SEQUENTIAL, "stereo")
        assert len(pair) == 2
        total = sum(u.fragments for u in pair)
        assert total == pytest.approx(obj.fragments(Eye.BOTH))

    def test_command_bytes_attached(self, characterizer, pool):
        unit = unit_for(characterizer, pool)
        assert unit.command_bytes > 0

    def test_vertex_touch_resource_per_object(self, characterizer, pool):
        a = unit_for(characterizer, pool, 0)
        b = unit_for(characterizer, pool, 1)
        assert (
            a.vertex_touches[0].resource.resource_id
            != b.vertex_touches[0].resource.resource_id
        )


class TestWorkUnit:
    def test_screen_share_keeps_geometry(self, characterizer, pool):
        unit = unit_for(characterizer, pool)
        slice_unit = unit.with_screen_share(
            pixel_share=0.25, geometry_share=1.0, unique_inflation=2.0,
            label_suffix="s0",
        )
        assert slice_unit.vertices == pytest.approx(unit.vertices)
        assert slice_unit.fragments == pytest.approx(unit.fragments / 4)

    def test_screen_share_inflates_unique(self, characterizer, pool):
        unit = unit_for(characterizer, pool)
        plain = unit.with_screen_share(0.25, 1.0, 1.0, "a")
        inflated = unit.with_screen_share(0.25, 1.0, 2.0, "b")
        assert inflated.texture_unique_bytes == pytest.approx(
            2 * plain.texture_unique_bytes
        )

    def test_screen_share_unique_capped(self, characterizer, pool):
        unit = unit_for(characterizer, pool)
        capped = unit.with_screen_share(0.5, 1.0, 10.0, "c")
        assert capped.texture_unique_bytes <= unit.texture_unique_bytes * 1.0001

    def test_merge_sums_work(self, characterizer, pool):
        units = [unit_for(characterizer, pool, i) for i in range(3)]
        merged = merge_units("batch", tuple(units))
        assert merged.fragments == pytest.approx(sum(u.fragments for u in units))
        assert merged.draw_count == pytest.approx(3.0)

    def test_merge_dedups_shared_texture_unique(self, characterizer, pool):
        # Both objects bind the same "stone" texture.
        units = [
            unit_for(characterizer, pool, i, textures=(("stone", MB),))
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

    def test_row_merge_equals_the_unit_merge(self, characterizer, pool):
        """The OO batch build merges rows of the frame's unit table; from
        the table of the same units it equals the unit merge, a texture
        two members share and a member order unlike the table's
        included, and it rejects an empty group."""
        bindings = (
            (("stone", MB),),
            (("stone", MB), ("dirt", MB)),
            (("cloth", MB // 2),),
        )
        units = tuple(
            unit_for(characterizer, pool, i, textures=textures)
            for i, textures in enumerate(bindings)
        )
        table = UnitColumns.from_units(units)
        groups = [("all", [0, 1, 2]), ("pair", [1, 0]), ("one", [2])]
        assert merge_rows(table, groups) == [
            merge_units(label, tuple(units[row] for row in rows))
            for label, rows in groups
        ]
        with pytest.raises(ValueError, match="zero units"):
            merge_rows(table, [("empty", [])])


class TestSlottedRecords:
    def test_no_instance_dict_and_value_semantics(self, characterizer, pool):
        """``WorkUnit``, ``Touch`` and ``Resource`` keep their fields in
        slots, with no per-instance dict, and still pickle, ``replace()``
        and compare equal."""
        unit = unit_for(characterizer, pool)
        touch = unit.texture_touches[0]
        for record in (unit, touch, touch.resource):
            assert not hasattr(record, "__dict__")
            assert pickle.loads(pickle.dumps(record)) == record
            assert replace(record) == record
            assert hash(replace(record)) == hash(record)
        assert replace(touch, write_bytes=1.0) != touch
        assert replace(unit, draw_count=0.5).draw_count == 0.5


class TestTiming:
    def test_all_stages_positive(self, config, characterizer, pool):
        unit = unit_for(characterizer, pool)
        breakdown = price_work_unit(unit, config.gpm, config.cost)
        assert breakdown.vertex_cycles > 0
        assert breakdown.fragment_cycles > 0
        assert breakdown.rop_cycles > 0

    def test_compute_is_max_plus_overhead(self, config, characterizer, pool):
        unit = unit_for(characterizer, pool)
        b = price_work_unit(unit, config.gpm, config.cost)
        stages = [
            b.vertex_cycles, b.setup_cycles, b.raster_cycles,
            b.fragment_cycles, b.texture_cycles, b.rop_cycles,
        ]
        assert b.compute_cycles == pytest.approx(max(stages) + b.overhead_cycles)
        assert b.serial_cycles >= b.compute_cycles

    def test_bottleneck_label(self, config, characterizer, pool):
        unit = unit_for(characterizer, pool, triangles=50_000, w=30, h=30)
        b = price_work_unit(unit, config.gpm, config.cost)
        assert b.bottleneck == "setup"

    def test_fragment_heavy_draw(self, config, characterizer, pool):
        unit = unit_for(characterizer, pool, triangles=32, w=900, h=700)
        b = price_work_unit(unit, config.gpm, config.cost)
        assert b.bottleneck in ("fragment", "raster", "texture")

    def test_bigger_gpm_is_faster(self, config, characterizer, pool):
        import dataclasses as dc

        unit = unit_for(characterizer, pool)
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
