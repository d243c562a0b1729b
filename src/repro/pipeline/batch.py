"""Vectorized draw characterisation over :class:`ObjectBatch` columns.

This is the batched twin of :meth:`DrawCharacterizer.characterize`: one
numpy pass computes every per-draw counter of a frame — SMP geometry
work, fragment/texel demand, depth and colour traffic, and the
per-texture stream/unique touch bytes (in CSR layout mirroring the
batch's binding table).  :func:`work_units_from_counters` then
materialises the same :class:`~repro.pipeline.workunit.WorkUnit`
objects the scalar path builds, so everything downstream (binding,
pricing, merging, splitting) is untouched.

Exactness contract: every expression here is the scalar expression
evaluated elementwise, with the same association order — products stay
left-associated, ``min``/``max`` become ``np.minimum``/``np.maximum``,
and no float reduction is reordered.  int64 → float64 conversions are
exact for every count in range.  ``tests/test_soa_batches.py`` asserts
field-for-field equality (touches included) against the scalar path.

Purity contract: :func:`frame_counters` is a pure function of the
frame's :class:`ObjectBatch` plus hashable config slices (cost model,
SMP mode, expansion factor), and the :class:`FrameCounters` /
:class:`~repro.pipeline.workunit.WorkUnit` values it yields are
frozen.  That is what lets
:meth:`DrawCharacterizer.characterize_frame
<repro.pipeline.characterize.DrawCharacterizer.characterize_frame>`
memoise its result on the frame object (:meth:`Frame.derived
<repro.scene.scene.Frame.derived>`) — cells of a sweep that share a
workload share the characterisation outright, byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.config import CostModel
from repro.memory.address import Touch, texture_resource, vertex_resource
from repro.pipeline.fragment import MIN_TOUCH_BYTES
from repro.pipeline.smp import SMPMode
from repro.pipeline.workunit import WorkUnit
from repro.scene.batch import ObjectBatch
from repro.scene.objects import Eye

__all__ = [
    "FrameCounters",
    "frame_counters",
    "work_units_from_counters",
]

#: Eye codes used in :attr:`FrameCounters.eye_codes`.
EYE_LEFT, EYE_RIGHT, EYE_BOTH = 0, 1, 2

_EYE_FROM_CODE = {EYE_LEFT: Eye.LEFT, EYE_RIGHT: Eye.RIGHT, EYE_BOTH: Eye.BOTH}


@dataclass(frozen=True)
class FrameCounters:
    """Per-draw counters for one frame, as parallel arrays.

    Draw order matches the frame's draw expansion: ``"multiview"``
    aligns with :meth:`Frame.multiview_draws` (one draw per object),
    ``"stereo"`` with :meth:`Frame.stereo_draws` (left then right per
    object, absent eyes skipped).  Texture touches are CSR: draw ``d``
    owns rows ``touch_offsets[d]:touch_offsets[d+1]``.
    """

    expansion: str
    mode: SMPMode
    obj_index: np.ndarray  #: (D,) int64 — row into the ObjectBatch
    eye_codes: np.ndarray  #: (D,) int64 — EYE_LEFT/RIGHT/BOTH
    views: np.ndarray  #: (D,) int64
    vertices: np.ndarray  #: (D,) float64
    triangles_setup: np.ndarray
    triangles_raster: np.ndarray
    fragments: np.ndarray
    pixels_out: np.ndarray
    texel_requests: np.ndarray
    z_stream_bytes: np.ndarray
    z_unique_bytes: np.ndarray
    fb_write_bytes: np.ndarray
    vertex_stream_bytes: np.ndarray  #: max(buffer bytes, shaded bytes)
    touch_offsets: np.ndarray  #: (D+1,) int64 CSR row pointers
    touch_tex_ids: np.ndarray  #: (nnz,) int64
    touch_tex_sizes: np.ndarray  #: (nnz,) int64
    touch_unique_bytes: np.ndarray  #: (nnz,) float64
    touch_stream_bytes: np.ndarray  #: (nnz,) float64
    #: Draws whose scalar path returns no texture touches (no bindings,
    #: or zero fragment demand short-circuits the weighting loop).
    empty_touches: np.ndarray  #: (D,) bool

    def __len__(self) -> int:
        return len(self.obj_index)


def frame_counters(
    batch: ObjectBatch,
    cost: CostModel,
    mode: SMPMode = SMPMode.SIMULTANEOUS,
    expansion: str = "multiview",
) -> FrameCounters:
    """Compute every per-draw counter of ``batch`` in one numpy pass."""
    n = len(batch)
    if expansion == "multiview":
        obj_index = np.arange(n, dtype=np.int64)
        stereo = batch.is_stereo
        eye_codes = np.where(
            stereo, EYE_BOTH, np.where(batch.has_left, EYE_LEFT, EYE_RIGHT)
        ).astype(np.int64)
        views = np.where(stereo, 2, 1).astype(np.int64)
    elif expansion == "stereo":
        counts = batch.has_left.astype(np.int64) + batch.has_right.astype(
            np.int64
        )
        total = int(counts.sum())
        obj_index = np.repeat(np.arange(n, dtype=np.int64), counts)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        within = np.arange(total, dtype=np.int64) - np.repeat(
            offsets[:-1], counts
        )
        is_left = (within == 0) & batch.has_left[obj_index]
        eye_codes = np.where(is_left, EYE_LEFT, EYE_RIGHT).astype(np.int64)
        views = np.ones(total, dtype=np.int64)
    else:
        raise ValueError(f"unknown draw expansion {expansion!r}")

    both = eye_codes == EYE_BOTH
    # Covered pixels, in the scalar accumulation order: left area then
    # right area, each scaled by coverage (absent eyes are exact +0.0).
    left_covered = batch.left_area * batch.coverage
    right_covered = batch.right_area * batch.coverage
    covered = np.where(
        both,
        (left_covered + right_covered)[obj_index],
        np.where(
            eye_codes == EYE_LEFT,
            left_covered[obj_index],
            right_covered[obj_index],
        ),
    )
    fragments = covered * batch.depth_complexity[obj_index]

    # Geometry / SMP stage (repro.pipeline.smp.geometry_work).
    num_vertices = batch.num_vertices[obj_index].astype(np.float64)
    num_triangles = batch.num_triangles[obj_index].astype(np.float64)
    survival = cost.cull_survival
    if mode is SMPMode.SEQUENTIAL:
        vertices = np.where(both, 2.0 * num_vertices, num_vertices)
        triangles_setup = np.where(both, 2.0 * num_triangles, num_triangles)
    else:
        setup_factor = 1.5 + cost.smp_projection_overhead
        vertices = num_vertices
        triangles_setup = np.where(
            both, num_triangles * setup_factor, num_triangles
        )
    triangles_raster = np.where(
        both, (2.0 * num_triangles) * survival, num_triangles * survival
    )

    multi_view = both & (mode is SMPMode.SIMULTANEOUS)
    view_reuse = np.where(multi_view, 2.0, 1.0)

    # Fragment-stage demand (repro.pipeline.fragment).
    texel_requests = (
        fragments * cost.samples_per_fragment
    ) * cost.anisotropic_texels_per_sample
    raw_bytes = texel_requests * cost.bytes_per_texel
    z_stream_bytes = fragments * cost.bytes_per_ztest
    z_unique_bytes = covered * cost.bytes_per_ztest
    fb_write_bytes = covered * cost.bytes_per_pixel_out
    vertex_buffer = batch.vertex_buffer_bytes[obj_index].astype(np.float64)
    vertex_stream_bytes = np.maximum(
        vertex_buffer, vertices * cost.bytes_per_vertex
    )

    # Per-texture touches over the CSR binding table.  Weights come
    # from the *raw* binding list (duplicates included) — the exact
    # total the scalar loop divides by.
    bind_counts = batch.tex_counts[obj_index]
    touch_offsets = np.zeros(len(obj_index) + 1, dtype=np.int64)
    np.cumsum(bind_counts, out=touch_offsets[1:])
    nnz = int(touch_offsets[-1])
    within_bind = np.arange(nnz, dtype=np.int64) - np.repeat(
        touch_offsets[:-1], bind_counts
    )
    source = np.repeat(batch.tex_offsets[obj_index], bind_counts) + within_bind
    touch_tex_ids = batch.tex_ids[source]
    touch_tex_sizes = batch.tex_sizes[source]
    row = np.repeat(np.arange(len(obj_index), dtype=np.int64), bind_counts)

    size_cumsum = np.zeros(nnz + 1, dtype=np.int64)
    np.cumsum(touch_tex_sizes, out=size_cumsum[1:])
    totals = (
        size_cumsum[touch_offsets[1:]] - size_cumsum[touch_offsets[:-1]]
    ).astype(np.float64)
    sizes_f = touch_tex_sizes.astype(np.float64)
    weight = sizes_f / totals[row]
    frag_rows = fragments[row]
    reuse_rows = view_reuse[row]
    touch_unique_bytes = np.minimum(
        sizes_f,
        np.maximum(
            MIN_TOUCH_BYTES,
            ((frag_rows * weight) * cost.bytes_per_texel) / reuse_rows,
        ),
    )
    touch_stream_bytes = np.maximum(
        touch_unique_bytes,
        ((raw_bytes[row] * weight) * cost.l1_texture_leak) / reuse_rows,
    )
    empty_touches = (bind_counts == 0) | (raw_bytes == 0.0)

    return FrameCounters(
        expansion=expansion,
        mode=mode,
        obj_index=obj_index,
        eye_codes=eye_codes,
        views=views,
        vertices=vertices,
        triangles_setup=triangles_setup,
        triangles_raster=triangles_raster,
        fragments=fragments,
        pixels_out=covered,
        texel_requests=texel_requests,
        z_stream_bytes=z_stream_bytes,
        z_unique_bytes=z_unique_bytes,
        fb_write_bytes=fb_write_bytes,
        vertex_stream_bytes=vertex_stream_bytes,
        touch_offsets=touch_offsets,
        touch_tex_ids=touch_tex_ids,
        touch_tex_sizes=touch_tex_sizes,
        touch_unique_bytes=touch_unique_bytes,
        touch_stream_bytes=touch_stream_bytes,
        empty_touches=empty_touches,
    )


def work_units_from_counters(
    batch: ObjectBatch, counters: FrameCounters, cost: CostModel
) -> Tuple[WorkUnit, ...]:
    """Materialise the scalar-identical :class:`WorkUnit` per draw."""
    objects = batch.objects
    obj_index = counters.obj_index.tolist()
    eye_codes = counters.eye_codes.tolist()
    views = counters.views.tolist()
    vertices = counters.vertices.tolist()
    triangles_setup = counters.triangles_setup.tolist()
    triangles_raster = counters.triangles_raster.tolist()
    fragments = counters.fragments.tolist()
    pixels_out = counters.pixels_out.tolist()
    texel_requests = counters.texel_requests.tolist()
    z_stream = counters.z_stream_bytes.tolist()
    z_unique = counters.z_unique_bytes.tolist()
    fb_write = counters.fb_write_bytes.tolist()
    vertex_stream = counters.vertex_stream_bytes.tolist()
    offsets = counters.touch_offsets.tolist()
    bind_ids = counters.touch_tex_ids.tolist()
    bind_sizes = counters.touch_tex_sizes.tolist()
    bind_unique = counters.touch_unique_bytes.tolist()
    bind_stream = counters.touch_stream_bytes.tolist()
    empty = counters.empty_touches.tolist()
    command_bytes = cost.command_bytes_per_draw

    units = []
    for d in range(len(obj_index)):
        obj = objects[obj_index[d]]
        code = eye_codes[d]
        if code == EYE_BOTH:
            viewports = (obj.viewport_left, obj.viewport_right)
        elif code == EYE_LEFT:
            viewports = (obj.viewport_left,)
        else:
            viewports = (obj.viewport_right,)
        if empty[d]:
            texture_touches: Tuple[Touch, ...] = ()
        else:
            texture_touches = tuple(
                Touch(
                    resource=texture_resource(bind_ids[k], bind_sizes[k]),
                    unique_bytes=bind_unique[k],
                    stream_bytes=bind_stream[k],
                )
                for k in range(offsets[d], offsets[d + 1])
            )
        buffer_bytes = obj.mesh.vertex_buffer_bytes
        vertex_touch = Touch(
            resource=vertex_resource(obj.object_id, max(1, buffer_bytes)),
            unique_bytes=float(buffer_bytes),
            stream_bytes=vertex_stream[d],
        )
        units.append(
            WorkUnit(
                label=f"{obj.name}:{_EYE_FROM_CODE[code].value}",
                views=views[d],
                vertices=vertices[d],
                triangles_setup=triangles_setup[d],
                triangles_raster=triangles_raster[d],
                fragments=fragments[d],
                pixels_out=pixels_out[d],
                texel_requests=texel_requests[d],
                shader_complexity=obj.shader_complexity,
                texture_touches=texture_touches,
                vertex_touches=(vertex_touch,),
                z_stream_bytes=z_stream[d],
                z_unique_bytes=z_unique[d],
                fb_write_bytes=fb_write[d],
                command_bytes=command_bytes,
                viewports=viewports,
            )
        )
    return tuple(units)
