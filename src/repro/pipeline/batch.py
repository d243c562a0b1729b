"""Vectorized draw characterisation over :class:`ObjectBatch` columns.

The pipeline's one Eq. 3 characterisation: one numpy pass computes
every per-draw counter of a frame — SMP geometry work (stage 1),
fragment/texel demand (stage 3), depth and colour traffic, and the
per-texture stream/unique touch bytes (in CSR layout mirroring the
batch's binding table).

The fragment process is where nearly all of a frame's memory traffic
originates: every fragment samples its material textures (16x
anisotropic filtering multiplies taps), tests depth, and writes colour.
A draw's texture demand splits into *stream* bytes (post-L1: a
calibrated leak fraction of the raw texel demand, floored at the
unique footprint) and *unique* bytes (the distinct texels at the active
mip level, bounded by the texture's size and the fragment count).
That split is what makes NUMA placement matter: local touches cost
``unique`` bytes of DRAM (the memory-side L2 absorbs re-reads), while
remote touches cost ``stream x (1 - remote cache hit)`` bytes of link
bandwidth, because the local L2 cannot cache remote addresses
(Section 2.3 / MCM-GPU).

One reader turns the counters into units:
:func:`unit_columns` reads them into a
:class:`~repro.pipeline.workunit.UnitColumns` table whose columns are
gathers of the counters and the batch, with one
:class:`~repro.memory.address.Resource` per distinct resource and no
``WorkUnit`` or ``Touch`` built.  The statically scheduled frameworks
hand the table to the slice pass; the dispatchers that schedule units
one at a time (OO-VR, OO_APP) merge each of their batches from its
rows (:func:`~repro.pipeline.workunit.merge_rows`).

Exactness contract: every expression here is the scalar expression
evaluated elementwise, with the same association order — products stay
left-associated, ``min``/``max`` become ``np.minimum``/``np.maximum``,
and no float reduction is reordered.  int64 → float64 conversions are
exact for every count in range.  ``tests/test_soa_batches.py`` asserts
field-for-field equality (touches included) of the table's units
against the per-draw scalar walk, which lives in the oracle table
(``tests/oracles.py::characterize_reference``).

Purity contract: :func:`frame_counters` is a pure function of the
frame's :class:`ObjectBatch` plus hashable config slices (cost model,
SMP mode, expansion factor), and no reader mutates the
``UnitColumns`` built from it.  That is what lets
:class:`~repro.pipeline.characterize.DrawCharacterizer` memoise the
table on the frame object (:meth:`Frame.derived
<repro.scene.scene.Frame.derived>`) — cells of a sweep that share a
workload share it outright, byte-identically.  The counters are
transient: the table build reads them and lets them go.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import CostModel
from repro.memory.address import texture_resource, vertex_resource
from repro.pipeline.smp import SMPMode
from repro.pipeline.workunit import UnitColumns
from repro.scene.batch import ObjectBatch
from repro.scene.objects import Eye

__all__ = [
    "FrameCounters",
    "frame_counters",
    "unit_columns",
]

#: Smallest footprint a texture bind ever touches (a few mip tiles).
MIN_TOUCH_BYTES = 4096.0

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

    # Geometry / SMP stage (Section 3's SMP engine).
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

    # Fragment-stage demand.
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


def unit_columns(
    batch: ObjectBatch, counters: FrameCounters, cost: CostModel
) -> UnitColumns:
    """The frame's unit table, read straight from its counters.

    One unit per draw, labelled ``"<object name>:<eye>"``: each
    draw's texture touches in binding order, duplicates included (none
    for an ``empty_touches`` draw), then its vertex touch, with
    resources interned by value in first-touch order.
    """
    draws = len(counters)
    obj_index = counters.obj_index
    bind_counts = np.diff(counters.touch_offsets)
    textures = np.where(counters.empty_touches, 0, bind_counts)
    bounds = np.zeros(draws + 1, dtype=np.int64)
    np.cumsum(textures + 1, out=bounds[1:])
    vertex = bounds[1:] - 1
    texture = np.ones(int(bounds[-1]), dtype=bool)
    texture[vertex] = False
    kept = np.repeat(~counters.empty_touches, bind_counts)
    buffer_bytes = batch.vertex_buffer_bytes[obj_index]

    def touch_column(on_texture, on_vertex, dtype=np.float64) -> np.ndarray:
        column = np.empty(texture.size, dtype=dtype)
        column[texture] = on_texture[kept]
        column[vertex] = on_vertex
        return column

    # Each touch's resource as (kind, id, size): 0 a texture, 1 a
    # vertex buffer, sized as texture_resource/vertex_resource size it.
    keys = np.column_stack(
        (
            (~texture).astype(np.int64),
            touch_column(
                counters.touch_tex_ids, batch.object_ids[obj_index], np.int64
            ),
            touch_column(
                counters.touch_tex_sizes, np.maximum(1, buffer_bytes), np.int64
            ),
        )
    )
    distinct, first, inverse = np.unique(
        keys, axis=0, return_index=True, return_inverse=True
    )
    order = np.argsort(first, kind="stable")
    rank = np.empty(order.size, dtype=np.int64)
    rank[order] = np.arange(order.size)
    make = (texture_resource, vertex_resource)
    objects = batch.objects
    return UnitColumns(
        labels=tuple(
            f"{objects[index].name}:{_EYE_FROM_CODE[code].value}"
            for index, code in zip(
                obj_index.tolist(), counters.eye_codes.tolist()
            )
        ),
        views=counters.views,
        vertices=counters.vertices,
        triangles_setup=counters.triangles_setup,
        triangles_raster=counters.triangles_raster,
        fragments=counters.fragments,
        pixels_out=counters.pixels_out,
        texel_requests=counters.texel_requests,
        shader_complexity=batch.shader_complexity[obj_index],
        z_stream_bytes=counters.z_stream_bytes,
        z_unique_bytes=counters.z_unique_bytes,
        fb_write_bytes=counters.fb_write_bytes,
        command_bytes=np.full(draws, float(cost.command_bytes_per_draw)),
        draw_count=np.ones(draws),
        touch_bounds=bounds,
        touch_resource=rank[inverse.reshape(-1)],
        touch_unique=touch_column(
            counters.touch_unique_bytes, buffer_bytes.astype(np.float64)
        ),
        touch_stream=touch_column(
            counters.touch_stream_bytes, counters.vertex_stream_bytes
        ),
        touch_write=np.zeros(texture.size),
        touch_texture=texture,
        resources=tuple(
            make[kind](ident, size)
            for kind, ident, size in distinct[order].tolist()
        ),
    )
