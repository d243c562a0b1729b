"""Vectorized scene construction against its scalar reference.

The batched generator path (:meth:`SyntheticSceneGenerator.make_frame`)
is bit-identical to the scalar reference path it replaced — every
object, texture and viewport field compares equal with ``==`` and the
RNG stream position matches, so no golden anywhere in the repo moves.
Generated scenes also share one texture object per material, and a
memo eviction rebuilds an identical scene.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.scene.batch import ObjectBatch
from repro.scene.benchmarks import make_benchmark_scene
from repro.scene.synthetic import SceneProfile, SyntheticSceneGenerator
from repro.session.spec import cached_scene
from tests.oracles import make_frame_reference, make_scene_reference

BATCH_COLUMNS = (
    "object_ids",
    "num_vertices",
    "num_triangles",
    "vertex_bytes",
    "vertex_buffer_bytes",
    "depth_complexity",
    "shader_complexity",
    "coverage",
    "left_area",
    "right_area",
    "has_left",
    "has_right",
    "tex_offsets",
    "tex_ids",
    "tex_sizes",
)


def assert_objects_identical(ref, fast):
    assert len(ref) == len(fast)
    for a, b in zip(ref, fast):
        assert a.object_id == b.object_id
        assert a.name == b.name
        assert a.mesh == b.mesh
        assert a.textures == b.textures
        assert a.viewport_left == b.viewport_left
        assert a.viewport_right == b.viewport_right
        assert a.depth_complexity == b.depth_complexity
        assert a.shader_complexity == b.shader_complexity
        assert a.coverage == b.coverage
        assert a.depends_on == b.depends_on
        assert a == b


def assert_frames_identical(ref, fast):
    assert (ref.width, ref.height, ref.frame_id) == (
        fast.width,
        fast.height,
        fast.frame_id,
    )
    assert_objects_identical(ref.objects, fast.objects)
    reference_batch = ObjectBatch.from_objects(ref.objects)
    batch = fast.object_batch
    for column in BATCH_COLUMNS:
        want = getattr(reference_batch, column)
        got = getattr(batch, column)
        assert np.array_equal(want, got), column
        assert want.dtype == got.dtype, column


def rng_position(generator):
    """The PCG64 stream position (ignores the uint32 half-buffer,
    which the batched path shadows in Python rather than in the bit
    generator — values drawn are identical either way)."""
    return generator._rng.bit_generator.state["state"]["state"]


class TestBatchedConstruction:
    """Batched generation is bit-identical to the scalar reference."""

    @pytest.mark.parametrize(
        "workload", ["HL2-1280", "WE", "DM3-640", "NFS", "UT3"]
    )
    def test_benchmark_workloads_bit_identical(self, workload):
        from repro.scene.benchmarks import parse_workload

        spec, width, height = parse_workload(workload)
        draws = max(8, int(round(spec.num_draws * 0.15)))
        profile = SceneProfile(
            **{
                **vars(spec.profile),
                "num_objects": draws,
                "width": width,
                "height": height,
                "name": workload,
            }
        )
        ref_gen = SyntheticSceneGenerator(profile, seed=2019)
        fast_gen = SyntheticSceneGenerator(profile, seed=2019)
        ref = make_scene_reference(ref_gen, num_frames=2)
        fast = fast_gen.make_scene(num_frames=2)
        assert ref.name == fast.name
        for ref_frame, fast_frame in zip(ref.frames, fast.frames):
            assert_frames_identical(ref_frame, fast_frame)
        assert rng_position(ref_gen) == rng_position(fast_gen)

    def test_random_profiles_bit_identical(self):
        """Seeded property test: random generator parameters, including
        the edge cases that exercise every branch of the RNG replica
        (tiny material pools, zero-span texture counts, all-mono and
        no-mono frames, single-object frames)."""
        rng = np.random.default_rng(7)
        for case in range(30):
            num_materials = int(rng.integers(1, 40))
            lo = int(rng.integers(1, 5))
            hi = int(rng.integers(lo, min(lo + 6, num_materials + 3)))
            profile = SceneProfile(
                name=f"prop{case}",
                num_objects=int(rng.integers(1, 40)),
                width=int(rng.integers(64, 2048)),
                height=int(rng.integers(64, 1200)),
                triangles_median=float(rng.uniform(20, 4000)),
                triangles_sigma=float(rng.uniform(0.1, 1.4)),
                num_materials=num_materials,
                material_zipf=float(rng.uniform(0.4, 1.6)),
                textures_per_object=(lo, hi),
                texture_bytes_median=float(rng.uniform(1e5, 4e6)),
                texture_bytes_sigma=float(rng.uniform(0.2, 1.2)),
                depth_complexity_mean=float(rng.uniform(1.0, 4.0)),
                shader_complexity_mean=float(rng.uniform(0.5, 3.0)),
                footprint_median=float(rng.uniform(0.001, 0.2)),
                footprint_sigma=float(rng.uniform(0.2, 1.2)),
                vertical_skew=float(rng.uniform(0.0, 0.95)),
                max_disparity=float(rng.uniform(0.0, 0.1)),
                mono_fraction=float(
                    rng.choice([0.0, 0.95, rng.uniform(0.0, 1.0)])
                ),
                dependency_fraction=float(rng.uniform(0.0, 0.6)),
            )
            seed = int(rng.integers(0, 2**31))
            ref_gen = SyntheticSceneGenerator(profile, seed=seed)
            fast_gen = SyntheticSceneGenerator(profile, seed=seed)
            for frame_id in range(2):
                ref_frame = make_frame_reference(ref_gen, frame_id)
                fast_frame = fast_gen.make_frame(frame_id)
                assert_frames_identical(ref_frame, fast_frame)
            assert rng_position(ref_gen) == rng_position(fast_gen)


class TestGeneratedScene:
    """The generator is the only way scenes are built, so every scene
    carries its contracts: one shared texture object per material, and
    a rebuild of the same point is identical."""

    def test_generated_scene_interns_textures(self):
        scene = make_benchmark_scene(
            "HL2-1280", num_frames=2, seed=2019, draw_scale=0.15
        )
        seen = {}
        for frame in scene.frames:
            for obj in frame.objects:
                for texture in obj.textures:
                    assert (
                        seen.setdefault(texture.texture_id, texture)
                        is texture
                    )
        assert seen

    def test_rebuilt_scene_is_identical(self):
        cached_scene.cache_clear()
        first = cached_scene("WE", 2, 2019, 0.15)
        cached_scene.cache_clear()
        rebuilt = cached_scene("WE", 2, 2019, 0.15)
        cached_scene.cache_clear()
        assert rebuilt is not first
        assert rebuilt.name == first.name
        assert len(rebuilt.frames) == len(first.frames) == 2
        for old, new in zip(first.frames, rebuilt.frames):
            assert_frames_identical(old, new)
