"""SoA == AoS property tests for the batched hot paths.

The struct-of-array refactor rewired three layers — frame
characterisation (the unit table of
:meth:`DrawCharacterizer.unit_columns` and the units it reads out), the
validation rasterizer's batched front end (:meth:`Rasterizer.draw_mesh`)
and the counter kernels underneath them — while keeping the scalar
per-object/per-triangle code as the reference (the oracle table's
``UNIT_TABLE`` and ``RASTERIZER`` entries).  These tests pin the
contract: on seeded synthetic inputs the batched paths must reproduce
the scalar paths *exactly* (unit tables column for column, work units
field for field, DrawStats counter for counter, framebuffers byte for
byte), not merely closely.
"""

import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.config import baseline_system
from repro.pipeline.characterize import DrawCharacterizer
from repro.pipeline.smp import SMPMode
from repro.pipeline.workunit import UnitColumns
from repro.render.framebuffer import FrameBuffer
from repro.render.math3d import look_at, perspective
from repro.render.mesh3d import (
    TriangleMesh,
    make_box,
    make_checker_ground,
    make_icosphere,
)
from repro.render.raster import Rasterizer
from repro.scene.benchmarks import WORKLOADS
from repro.scene.synthetic import SceneProfile, SyntheticSceneGenerator
from repro.session.spec import FAST, FULL, cached_scene
from tests.oracles import characterize_frame_reference, draw_mesh_reference

#: Small but structurally diverse synthetic workloads: stereo and mono
#: draws, shared materials, heavy triangle tails.
PROFILES = [
    SceneProfile(name="soa-a", num_objects=24, width=320, height=240),
    SceneProfile(
        name="soa-b",
        num_objects=40,
        width=256,
        height=256,
        mono_fraction=0.3,
        triangles_sigma=1.6,
        num_materials=12,
    ),
    SceneProfile(
        name="soa-c",
        num_objects=8,
        width=640,
        height=360,
        textures_per_object=(2, 5),
        vertical_skew=0.6,
    ),
]


def synthetic_frame(profile, seed):
    return SyntheticSceneGenerator(profile, seed=seed).make_frame()


class TestCharacterizeFrameMatchesScalar:
    """The unit table's units == per-draw ``characterize_reference``,
    exactly, and the table == the table of those units, column for
    column."""

    @staticmethod
    def assert_matches_reference(frame, mode, expansion):
        characterizer = DrawCharacterizer(baseline_system())
        table = characterizer.unit_columns(
            frame, mode=mode, expansion=expansion
        )
        units = characterize_frame_reference(
            characterizer, frame, mode=mode, expansion=expansion
        )
        assert table.units() == units
        assert characterizer.characterize_frame(
            frame, mode=mode, expansion=expansion
        ) == units
        assert_tables_equal(table, UnitColumns.from_units(units))

    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    @pytest.mark.parametrize("seed", [2019, 7])
    @pytest.mark.parametrize("mode", [SMPMode.SIMULTANEOUS, SMPMode.SEQUENTIAL])
    def test_multiview_expansion(self, profile, seed, mode):
        frame = synthetic_frame(profile, seed)
        self.assert_matches_reference(frame, mode, "multiview")

    @pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
    @pytest.mark.parametrize("seed", [2019, 7])
    def test_stereo_expansion(self, profile, seed):
        frame = synthetic_frame(profile, seed)
        self.assert_matches_reference(frame, SMPMode.SEQUENTIAL, "stereo")

    def test_work_unit_totals_match(self):
        """Whole-frame roll-ups agree (the quantity Eq. 3 prices)."""
        frame = synthetic_frame(PROFILES[0], 2019)
        characterizer = DrawCharacterizer(baseline_system())
        batched = characterizer.unit_columns(frame).units()
        scalar = characterize_frame_reference(characterizer, frame)
        for field in (
            "vertices",
            "triangles_setup",
            "triangles_raster",
            "fragments",
            "pixels_out",
            "texel_requests",
            "command_bytes",
        ):
            assert sum(getattr(u, field) for u in batched) == sum(
                getattr(u, field) for u in scalar
            )

    def test_batch_is_cached_per_frame(self):
        frame = synthetic_frame(PROFILES[1], 3)
        assert frame.object_batch is frame.object_batch


def assert_tables_equal(table, expected):
    """Every column equal with exact ``==``, dtypes included."""
    for field in fields(UnitColumns):
        column = getattr(table, field.name)
        want = getattr(expected, field.name)
        if isinstance(want, np.ndarray):
            assert column.dtype == want.dtype, field.name
            assert column.tolist() == want.tolist(), field.name
        else:
            assert column == want, field.name


#: The two draw plans the static frameworks render.
PLANS = [
    pytest.param(SMPMode.SEQUENTIAL, "stereo", id="sequential-stereo"),
    pytest.param(
        SMPMode.SIMULTANEOUS, "multiview", id="simultaneous-multiview"
    ),
]


#: All nine fast workloads, and the full-scale points of the paper grid.
TABLE_WORKLOADS = [
    pytest.param(w, FAST, id=f"{w}-fast") for w in WORKLOADS
] + [
    pytest.param(w, FULL, id=f"{w}-full")
    for w in ("HL2-1280", "DM3-1280", "WE")
]


def twin_frames(workload, preset):
    """The scene's frames as twins, so nothing built on them stays on
    the cached frames."""
    scene = cached_scene(workload, preset.num_frames, 2019, preset.draw_scale)
    return [replace(memoised) for memoised in scene.frames]


class TestUnitColumnsMatchUnits:
    """The counters' table round-trips through its units:
    ``UnitColumns.from_units(table.units())`` is the table, column for
    column, and every touch of those units names the table's own
    interned ``Resource`` object."""

    @pytest.mark.parametrize("mode, expansion", PLANS)
    @pytest.mark.parametrize("workload, preset", TABLE_WORKLOADS)
    def test_counters_table_equals_the_units_table(
        self, workload, preset, mode, expansion
    ):
        characterizer = DrawCharacterizer(baseline_system())
        for frame in twin_frames(workload, preset):
            # The units the dispatchers read, from the memoised table.
            units = characterizer.characterize_frame(
                frame, mode=mode, expansion=expansion
            )
            table = characterizer.unit_columns(
                frame, mode=mode, expansion=expansion
            )
            assert_tables_equal(UnitColumns.from_units(units), table)
            touches = [
                touch
                for unit in units
                for touch in unit.texture_touches + unit.vertex_touches
            ]
            rows = table.touch_resource.tolist()
            assert len(touches) == len(rows)
            for touch, row in zip(touches, rows):
                assert touch.resource is table.resources[row]

    def test_memoised_table_is_the_counters_table(self):
        frame = synthetic_frame(PROFILES[1], 3)
        characterizer = DrawCharacterizer(baseline_system())
        table = characterizer.unit_columns(
            frame, mode=SMPMode.SEQUENTIAL, expansion="stereo"
        )
        assert characterizer.unit_columns(
            frame, mode=SMPMode.SEQUENTIAL, expansion="stereo"
        ) is table
        assert_tables_equal(
            table,
            UnitColumns.from_units(
                characterizer.characterize_frame(
                    frame, mode=SMPMode.SEQUENTIAL, expansion="stereo"
                )
            ),
        )

    @pytest.mark.parametrize(
        "column, value, message",
        [
            ("vertices", -1.0, "negative work count"),
            ("command_bytes", -1.0, "negative work count"),
            ("shader_complexity", 0.0, "shader_complexity"),
            ("views", 3, "views"),
            ("touch_write", -1.0, "touch byte counts"),
        ],
    )
    def test_checks_run_over_whole_columns(self, column, value, message):
        frame = synthetic_frame(PROFILES[0], 2019)
        table = DrawCharacterizer(baseline_system()).unit_columns(frame)
        broken = getattr(table, column).copy()
        broken[len(broken) // 2] = value
        with pytest.raises(ValueError, match=message):
            replace(table, **{column: broken})

    def test_stream_is_floored_at_unique(self):
        frame = synthetic_frame(PROFILES[0], 2019)
        table = DrawCharacterizer(baseline_system()).unit_columns(frame)
        shrunk = replace(table, touch_stream=table.touch_unique / 2)
        assert shrunk.touch_stream.tolist() == table.touch_unique.tolist()


def random_mesh(rng, num_vertices=40, num_faces=60, spread=2.0):
    """A seeded random triangle soup (degenerates and slivers included)."""
    positions = rng.uniform(-spread, spread, size=(num_vertices, 3))
    uvs = rng.uniform(0.0, 1.0, size=(num_vertices, 2))
    faces = rng.integers(0, num_vertices, size=(num_faces, 3))
    return TriangleMesh(
        positions.astype(np.float64),
        uvs.astype(np.float64),
        faces.astype(np.int32),
    )


def fb_digest(fb):
    digest = hashlib.sha256()
    digest.update(fb.color.tobytes())
    digest.update(fb.depth.tobytes())
    return digest.hexdigest()


def scene_mvp(eye=(3.0, 2.5, 4.0)):
    view = look_at(np.asarray(eye), np.zeros(3), np.asarray([0.0, 1.0, 0.0]))
    proj = perspective(60.0, 4.0 / 3.0, 0.1, 50.0)
    return proj @ view


class TestBatchedRasterMatchesReference:
    """``draw_mesh`` == the per-triangle walk
    (``draw_mesh_reference``): stats and pixels."""

    def assert_paths_match(
        self, mesh, mvp, scissor=None, cull_backfaces=True, size=(160, 120)
    ):
        width, height = size
        fb_batched = FrameBuffer(width, height)
        fb_reference = FrameBuffer(width, height)
        stats_batched = Rasterizer(fb_batched, scissor=scissor).draw_mesh(
            mesh, mvp, cull_backfaces=cull_backfaces
        )
        stats_reference = draw_mesh_reference(
            Rasterizer(fb_reference, scissor=scissor),
            mesh,
            mvp,
            cull_backfaces=cull_backfaces,
        )
        assert stats_batched == stats_reference
        assert fb_batched.pixels_written == fb_reference.pixels_written
        assert fb_digest(fb_batched) == fb_digest(fb_reference)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_triangle_soup(self, seed):
        rng = np.random.default_rng(seed)
        self.assert_paths_match(random_mesh(rng), scene_mvp())

    @pytest.mark.parametrize("seed", [11, 12])
    def test_no_backface_culling(self, seed):
        rng = np.random.default_rng(seed)
        self.assert_paths_match(
            random_mesh(rng), scene_mvp(), cull_backfaces=False
        )

    def test_near_plane_crossers_rejected_identically(self):
        # Geometry straddling the camera plane exercises the near-plane
        # rejection (w <= eps) branch of both front ends.
        rng = np.random.default_rng(99)
        mesh = random_mesh(rng, spread=6.0)
        self.assert_paths_match(mesh, scene_mvp(eye=(0.5, 0.2, 0.8)))

    def test_scissored_eye_viewport(self):
        # The stereo renderer's per-eye scissor: triangles clipped to a
        # half-screen rectangle must cull/draw identically.
        mesh = make_checker_ground(extent=6.0, tiles=5).merged_with(
            make_box(1.5, 1.0, 1.0)
        )
        self.assert_paths_match(mesh, scene_mvp(), scissor=(0, 0, 80, 120))

    def test_procedural_props(self):
        mesh = make_icosphere(radius=1.2, subdivisions=2).merged_with(
            make_box(2.0, 0.5, 1.0)
        )
        self.assert_paths_match(mesh, scene_mvp())

    def test_fully_scissored_draw_writes_nothing(self):
        # The bench's ≥10x kernel case: every face rejected before
        # coverage.  Both paths must agree that nothing was drawn.
        mesh = make_icosphere(radius=1.0, subdivisions=2)
        width, height = 160, 120
        fb_batched = FrameBuffer(width, height)
        fb_reference = FrameBuffer(width, height)
        # Scissor to a 1x1 corner the sphere never touches.
        raster_batched = Rasterizer(fb_batched, scissor=(0, 0, 1, 1))
        raster_reference = Rasterizer(fb_reference, scissor=(0, 0, 1, 1))
        mvp = scene_mvp()
        stats_batched = raster_batched.draw_mesh(mesh, mvp)
        stats_reference = draw_mesh_reference(raster_reference, mesh, mvp)
        assert stats_batched == stats_reference
        assert stats_batched.pixels_written == 0
        assert stats_batched.triangles_rasterised == 0
