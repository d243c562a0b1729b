"""The OO-VR software layer: TSL (Eq. 1), programming model, middleware."""

import pytest

from repro.core.middleware import Batch, OOMiddleware
from repro.core.programming_model import OOApplication
from repro.core.tsl import should_group, texture_sharing_level
from repro.experiments.extensions import (
    BATCHING_TRIANGLE_CAPS,
    BATCHING_TSL_THRESHOLDS,
)
from repro.frameworks.base import build_framework
from repro.scene.benchmarks import WORKLOADS
from repro.scene.geometry import Viewport
from repro.scene.objects import Eye
from repro.session.spec import FAST, FULL, cached_scene
from tests.conftest import MB, make_object


class TestTSL:
    def test_identical_single_texture_full_sharing(self, pool):
        textures = (pool.get_or_create("a", MB),)
        assert texture_sharing_level(textures, textures) == pytest.approx(1.0)

    def test_identical_pair_is_mean_of_shares(self, pool):
        # Eq. 1 literally: for identical equal-share sets the TSL is the
        # weighted mean of Pn(t) = 0.5, not 1.0 — a quirk of the paper's
        # formula that the middleware's strict > 0.5 threshold inherits.
        textures = (pool.get_or_create("a", MB), pool.get_or_create("b", MB))
        assert texture_sharing_level(textures, textures) == pytest.approx(0.5)

    def test_disjoint_sets_zero(self, pool):
        a = (pool.get_or_create("a", MB),)
        b = (pool.get_or_create("b", MB),)
        assert texture_sharing_level(a, b) == 0.0

    def test_range_bounds(self, pool):
        a = (pool.get_or_create("a", MB), pool.get_or_create("b", 2 * MB))
        b = (pool.get_or_create("b", 2 * MB), pool.get_or_create("c", MB))
        tsl = texture_sharing_level(a, b)
        assert 0.0 <= tsl <= 1.0

    def test_equation_value(self, pool):
        # Root: a (1MB), b (1MB) -> Pr(a) = Pr(b) = 0.5.
        # Target: a (1MB), c (3MB) -> Pn(a) = 0.25.
        # Shared = {a}: TSL = Pr(a)*Pn(a) / Pr(a) = Pn(a) = 0.25.
        a = pool.get_or_create("a", MB)
        b = pool.get_or_create("b", MB)
        c = pool.get_or_create("c", 3 * MB)
        assert texture_sharing_level((a, b), (a, c)) == pytest.approx(0.25)

    def test_asymmetry(self, pool):
        a = pool.get_or_create("a", MB)
        b = pool.get_or_create("b", 3 * MB)
        c = pool.get_or_create("c", MB)
        left = texture_sharing_level((a, b), (a, c))
        right = texture_sharing_level((a, c), (a, b))
        assert left != pytest.approx(right)

    def test_duplicates_do_not_inflate(self, pool):
        a = pool.get_or_create("a", MB)
        b = pool.get_or_create("b", MB)
        assert texture_sharing_level((a, a, b), (a, b)) == pytest.approx(
            texture_sharing_level((a, b), (a, b))
        )

    def test_should_group_threshold(self, pool):
        a = pool.get_or_create("a", MB)
        assert should_group((a,), (a,))
        assert not should_group((a,), (a,), threshold=1.0)

    def test_empty_sets(self):
        assert texture_sharing_level((), ()) == 0.0


class TestMiddleware:
    def test_shared_texture_objects_grouped(self, pool):
        objects = [
            make_object(0, pool, textures=(("stone", MB),)),
            make_object(1, pool, textures=(("stone", MB),)),
            make_object(2, pool, textures=(("cloth", MB),)),
        ]
        batches = OOMiddleware().build_batches(objects)
        assert len(batches) == 2
        assert batches[0].object_ids == (0, 1)
        assert batches[1].object_ids == (2,)

    def test_all_objects_covered_exactly_once(self, tiny_scene):
        frame = tiny_scene.frames[0]
        batches = OOMiddleware().build_batches(frame.objects)
        ids = [oid for b in batches for oid in b.object_ids]
        assert sorted(ids) == sorted(o.object_id for o in frame.objects)

    def test_triangle_cap_respected(self, pool):
        objects = [
            make_object(i, pool, textures=(("stone", MB),), triangles=1500)
            for i in range(10)
        ]
        batches = OOMiddleware(triangle_limit=4096).build_batches(objects)
        for batch in batches:
            # The cap stops growth once exceeded; a batch may overshoot
            # by at most one object's triangles.
            assert batch.total_triangles <= 4096 + 1500

    def test_dependency_merged_despite_low_tsl(self, pool):
        parent = make_object(0, pool, textures=(("stone", MB),))
        child = make_object(1, pool, textures=(("glass", MB),), depends_on=0)
        batches = OOMiddleware().build_batches([parent, child])
        assert len(batches) == 1
        assert batches[0].object_ids == (0, 1)

    def test_dependency_raises_triangle_cap(self, pool):
        parent = make_object(0, pool, textures=(("stone", MB),), triangles=4000)
        child = make_object(
            1, pool, textures=(("stone", MB),), triangles=4000, depends_on=0
        )
        batches = OOMiddleware(triangle_limit=4096).build_batches([parent, child])
        assert len(batches) == 1

    def test_draw_order_preserved_within_batch(self, pool):
        objects = [
            make_object(i, pool, textures=(("stone", MB),), triangles=100)
            for i in range(5)
        ]
        batches = OOMiddleware().build_batches(objects)
        for batch in batches:
            assert list(batch.object_ids) == sorted(batch.object_ids)

    def test_batch_textures_union(self, pool):
        # moss is small so Pn(stone) = 2/3 > 0.5 and the objects group.
        objects = [
            make_object(0, pool, textures=(("stone", MB), ("dirt", MB // 4))),
            make_object(1, pool, textures=(("stone", MB), ("moss", MB // 2))),
        ]
        batches = OOMiddleware().build_batches(objects)
        assert len(batches) == 1
        names = {t.name for t in batches[0].textures}
        assert names == {"stone", "dirt", "moss"}

    def test_empty_input_empty_output(self):
        assert OOMiddleware().build_batches([]) == []

    def test_sharing_captured_metric(self, pool):
        objects = [
            make_object(0, pool, textures=(("stone", MB),)),
            make_object(1, pool, textures=(("stone", MB),)),
        ]
        batches = OOMiddleware().build_batches(objects)
        assert OOMiddleware.sharing_captured(batches) == pytest.approx(1.0)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            OOMiddleware(tsl_threshold=1.0)
        with pytest.raises(ValueError):
            OOMiddleware(triangle_limit=0)

    def test_batch_cannot_be_empty(self):
        with pytest.raises(ValueError):
            Batch(batch_id=0, objects=())


#: Both grouping paths: the columnar scan and its scalar oracle.
GROUPINGS = ("build_batches", "build_batches_reference")


def group(middleware, objects, path):
    return getattr(middleware, path)(objects)


@pytest.mark.parametrize("path", GROUPINGS)
class TestGroupingEdges:
    def test_tsl_exactly_at_threshold_is_not_merged(self, pool, path):
        # Root (a, b) and candidate (a, c), equal sizes: Pr(a) = Pn(a)
        # = 0.5, so TSL = 0.5 exactly and the strict > keeps them apart.
        objects = [
            make_object(0, pool, textures=(("a", MB), ("b", MB))),
            make_object(1, pool, textures=(("a", MB), ("c", MB))),
        ]
        assert texture_sharing_level(
            objects[0].textures, objects[1].textures
        ) == 0.5
        batches = group(OOMiddleware(), objects, path)
        assert [b.object_ids for b in batches] == [(0,), (1,)]

    @pytest.mark.parametrize(
        "small", [MB - 1, 2**31 - 1], ids=["above", "within-tie-window"]
    )
    def test_tsl_just_above_threshold_is_merged(self, pool, path, small):
        # Pn(a) = big / (big + small) is a hair above 0.5; the second
        # case lies within 1e-9 of it, where the scalar Eq. 1 decides.
        big = small + 1
        objects = [
            make_object(0, pool, textures=(("a", big), ("b", big))),
            make_object(1, pool, textures=(("a", big), ("c", small))),
        ]
        tsl = texture_sharing_level(objects[0].textures, objects[1].textures)
        assert 0.5 < tsl < 0.5 + 1e-6
        batches = group(OOMiddleware(), objects, path)
        assert [b.object_ids for b in batches] == [(0, 1)]

    def test_dependent_merges_at_zero_tsl_and_raises_the_cap(self, pool, path):
        # The child shares nothing with its parent, yet merges; the cap
        # then rises by its triangles, so a third stone object still
        # fits (8000 < 4096 + 4000) instead of starting a new batch.
        objects = [
            make_object(0, pool, textures=(("stone", MB),), triangles=4000),
            make_object(
                1, pool, textures=(("glass", MB),), triangles=4000,
                depends_on=0,
            ),
            make_object(2, pool, textures=(("stone", MB),), triangles=50),
        ]
        assert texture_sharing_level(
            objects[0].textures, objects[1].textures
        ) == 0.0
        batches = group(OOMiddleware(triangle_limit=4096), objects, path)
        assert [b.object_ids for b in batches] == [(0, 1, 2)]

    def test_child_scanned_before_its_parent_joins_stays_out(self, pool, path):
        # The child is probed (and rejected, TSL 0) before its parent
        # merges; the scan never goes back, so it starts its own batch.
        objects = [
            make_object(0, pool, textures=(("stone", MB),)),
            make_object(1, pool, textures=(("glass", MB),), depends_on=2),
            make_object(2, pool, textures=(("stone", MB),)),
        ]
        batches = group(OOMiddleware(), objects, path)
        assert [b.object_ids for b in batches] == [(0, 2), (1,)]


class TestColumnarGroupingIsDecisionExact:
    """``build_batches`` equals its scalar oracle on the real workloads."""

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_fast_workloads_every_knob(self, workload):
        scene = cached_scene(workload, FAST.num_frames, 2019, FAST.draw_scale)
        for frame in scene.frames:
            for threshold in (0.0,) + BATCHING_TSL_THRESHOLDS:
                for cap in BATCHING_TRIANGLE_CAPS:
                    middleware = OOMiddleware(
                        triangle_limit=cap, tsl_threshold=threshold
                    )
                    assert middleware.build_batches(
                        frame.objects
                    ) == middleware.build_batches_reference(frame.objects), (
                        frame.frame_id, threshold, cap,
                    )

    @pytest.mark.parametrize("workload", ("HL2-1280", "DM3-1280", "WE"))
    def test_full_scale_frames_paper_knobs(self, workload):
        scene = cached_scene(workload, FULL.num_frames, 2019, FULL.draw_scale)
        middleware = OOMiddleware()
        for frame in scene.frames:
            batches = middleware.build_batches(frame.objects)
            assert batches == middleware.build_batches_reference(frame.objects)
            assert len(batches) < len(frame.objects)  # grouping happened

    def test_merged_units_equal_field_for_field(self):
        frame = cached_scene("WE", FAST.num_frames, 2019, FAST.draw_scale).frames[0]
        builder = build_framework("oo-app")._builder
        columnar = builder._build(frame)
        middleware = builder._middleware
        middleware.build_batches = middleware.build_batches_reference
        assert builder._build(frame) == columnar


class TestProgrammingModel:
    def test_builder_produces_frame(self):
        app = OOApplication(1280, 1024)
        app.object("pillar1").mesh(300, 500).texture("stone", MB).viewports(
            Viewport(100, 100, 300, 400), Viewport(120, 100, 320, 400)
        ).add()
        app.object("flag").mesh(100, 150).texture("cloth", MB // 2).viewports(
            Viewport(400, 50, 500, 200), Viewport(415, 50, 515, 200)
        ).add()
        frame = app.frame()
        assert len(frame.objects) == 2
        assert frame.objects[0].name == "pillar1"

    def test_texture_pool_shared_across_objects(self):
        app = OOApplication(640, 480)
        a = (
            app.object("a").mesh(10, 10).texture("stone", MB)
            .viewports(Viewport(0, 0, 10, 10), Viewport(1, 0, 11, 10)).add()
        )
        b = (
            app.object("b").mesh(10, 10).texture("stone", MB)
            .viewports(Viewport(0, 0, 10, 10), Viewport(1, 0, 11, 10)).add()
        )
        assert a.textures[0] is b.textures[0]

    def test_duplicate_name_rejected(self):
        app = OOApplication(640, 480)
        app.object("a").mesh(10, 10).texture("t", MB).viewports(
            Viewport(0, 0, 10, 10), Viewport(1, 0, 11, 10)
        ).add()
        with pytest.raises(ValueError):
            app.object("a")

    def test_dependency_by_name(self):
        app = OOApplication(640, 480)
        app.object("base").mesh(10, 10).texture("t", MB).viewports(
            Viewport(0, 0, 10, 10), Viewport(1, 0, 11, 10)
        ).add()
        child = (
            app.object("decal").mesh(10, 10).texture("t", MB)
            .after("base")
            .viewports(Viewport(0, 0, 10, 10), Viewport(1, 0, 11, 10))
            .add()
        )
        assert child.depends_on == 0

    def test_missing_mesh_rejected(self):
        app = OOApplication(640, 480)
        builder = app.object("x").texture("t", MB).viewports(
            Viewport(0, 0, 10, 10), Viewport(1, 0, 11, 10)
        )
        with pytest.raises(ValueError):
            builder.add()

    def test_auto_viewports_shift(self):
        app = OOApplication(640, 480)
        obj = (
            app.object("auto").mesh(10, 10).texture("t", MB)
            .auto_viewports(Viewport(300, 100, 340, 200)).add()
        )
        assert obj.viewport_left is not None
        assert obj.viewport_right is not None
        assert obj.viewport_left.x0 < obj.viewport_right.x0

    def test_multiview_draws_one_per_object(self):
        app = OOApplication(640, 480)
        for i in range(3):
            app.object(f"o{i}").mesh(10, 10).texture("t", MB).viewports(
                Viewport(0, 0, 10, 10), Viewport(1, 0, 11, 10)
            ).add()
        draws = app.multiview_draws()
        assert len(draws) == 3
        assert all(d.eye is Eye.BOTH for d in draws)

    def test_from_stereo_frame(self, small_frame):
        app = OOApplication.from_stereo_frame(small_frame)
        assert len(app.frame().objects) == len(small_frame.objects)

    def test_from_mono_frame_projects_both_eyes(self, small_frame):
        app = OOApplication.from_mono_frame(small_frame)
        for obj in app.frame().objects:
            assert obj.viewport_left is not None
            assert obj.viewport_right is not None

    def test_empty_app_has_no_frame(self):
        with pytest.raises(ValueError):
            OOApplication(640, 480).frame()
