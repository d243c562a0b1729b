"""Struct-of-array (SoA) views of frame content — the hot-path layout.

The per-object dataclasses in :mod:`repro.scene.objects` are the right
API for *building* scenes, but walking them one attribute access at a
time is what made the per-cell hot path scalar Python.  This module
provides the batched counterpart:

- :class:`ObjectBatch` — one frame's objects flattened into contiguous
  numpy arrays (vertex counts, triangle counts, resource byte counts,
  screen footprints) plus a CSR layout of the per-object texture
  bindings (material ids and byte sizes).  Built once per memoised
  frame via :attr:`repro.scene.scene.Frame.object_batch` and consumed
  by the vectorized characterisation kernel
  (:func:`repro.pipeline.batch.frame_counters`);
- :class:`TriangleBatch` — a mesh's triangles as gathered arrays, with
  the batched clip-space front end (near-plane rejection and signed
  areas over all faces at once) the validation rasterizer uses.

Both views are *derived* data: they never change the numbers, only the
layout.  Every expression downstream mirrors the scalar path
elementwise (IEEE-identical products/quotients; no reordered float
reductions), which is what keeps the analytic figures byte-identical —
the property tests in ``tests/test_soa_batches.py`` pin that contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scene.objects import RenderObject

__all__ = ["ObjectBatch", "TriangleBatch"]


@dataclass(frozen=True)
class ObjectBatch:
    """One frame's objects as struct-of-array columns.

    All per-object arrays share index order with ``objects`` (frame
    draw order).  Texture bindings are stored in CSR form: object ``i``
    binds ``tex_ids[tex_offsets[i]:tex_offsets[i+1]]`` in bind order,
    duplicates preserved — the fragment-demand model weights by the
    raw binding list, not the deduplicated set.
    """

    #: The source objects (kept for labels, viewports and materialising
    #: per-draw results back into API objects).
    objects: Tuple["RenderObject", ...]
    object_ids: np.ndarray  #: (N,) int64
    num_vertices: np.ndarray  #: (N,) int64
    num_triangles: np.ndarray  #: (N,) int64
    vertex_bytes: np.ndarray  #: (N,) int64 attribute bytes per vertex
    vertex_buffer_bytes: np.ndarray  #: (N,) int64 resource byte counts
    depth_complexity: np.ndarray  #: (N,) float64
    shader_complexity: np.ndarray  #: (N,) float64
    coverage: np.ndarray  #: (N,) float64
    left_area: np.ndarray  #: (N,) float64, 0.0 where eye not covered
    right_area: np.ndarray  #: (N,) float64
    has_left: np.ndarray  #: (N,) bool
    has_right: np.ndarray  #: (N,) bool
    tex_offsets: np.ndarray  #: (N+1,) int64 CSR row pointers
    tex_ids: np.ndarray  #: (nnz,) int64 material/texture ids
    tex_sizes: np.ndarray  #: (nnz,) int64 texture byte sizes

    def __len__(self) -> int:
        return len(self.objects)

    @property
    def is_stereo(self) -> np.ndarray:
        """Visible in both eyes, hence SMP-shareable (bool per object)."""
        return self.has_left & self.has_right

    @property
    def tex_counts(self) -> np.ndarray:
        """Bindings per object (CSR row lengths)."""
        return np.diff(self.tex_offsets)

    @classmethod
    def from_objects(cls, objects: Sequence["RenderObject"]) -> "ObjectBatch":
        n = len(objects)
        object_ids = np.empty(n, dtype=np.int64)
        num_vertices = np.empty(n, dtype=np.int64)
        num_triangles = np.empty(n, dtype=np.int64)
        vertex_bytes = np.empty(n, dtype=np.int64)
        depth_complexity = np.empty(n, dtype=np.float64)
        shader_complexity = np.empty(n, dtype=np.float64)
        coverage = np.empty(n, dtype=np.float64)
        left_area = np.zeros(n, dtype=np.float64)
        right_area = np.zeros(n, dtype=np.float64)
        has_left = np.zeros(n, dtype=bool)
        has_right = np.zeros(n, dtype=bool)
        tex_offsets = np.zeros(n + 1, dtype=np.int64)
        ids: list = []
        sizes: list = []
        for i, obj in enumerate(objects):
            object_ids[i] = obj.object_id
            mesh = obj.mesh
            num_vertices[i] = mesh.num_vertices
            num_triangles[i] = mesh.num_triangles
            vertex_bytes[i] = mesh.vertex_bytes
            depth_complexity[i] = obj.depth_complexity
            shader_complexity[i] = obj.shader_complexity
            coverage[i] = obj.coverage
            if obj.viewport_left is not None:
                left_area[i] = obj.viewport_left.area
                has_left[i] = True
            if obj.viewport_right is not None:
                right_area[i] = obj.viewport_right.area
                has_right[i] = True
            for texture in obj.textures:
                ids.append(texture.texture_id)
                sizes.append(texture.size_bytes)
            tex_offsets[i + 1] = len(ids)
        return cls(
            objects=tuple(objects),
            object_ids=object_ids,
            num_vertices=num_vertices,
            num_triangles=num_triangles,
            vertex_bytes=vertex_bytes,
            vertex_buffer_bytes=num_vertices * vertex_bytes,
            depth_complexity=depth_complexity,
            shader_complexity=shader_complexity,
            coverage=coverage,
            left_area=left_area,
            right_area=right_area,
            has_left=has_left,
            has_right=has_right,
            tex_offsets=tex_offsets,
            tex_ids=np.asarray(ids, dtype=np.int64),
            tex_sizes=np.asarray(sizes, dtype=np.int64),
        )


@dataclass(frozen=True)
class TriangleBatch:
    """A mesh's triangles as gathered struct-of-array data.

    ``faces`` indexes a vertex array the caller transforms per draw;
    ``face_uvs`` are the UVs gathered once so the rasterizer's inner
    loop never re-indexes the vertex UV table.  :meth:`front_end` runs
    the batched clip-space stage over all faces at once.
    """

    faces: np.ndarray  #: (T, 3) int32 vertex indices
    face_uvs: np.ndarray  #: (T, 3, 2) float64 gathered per-corner UVs
    num_vertices: int

    @classmethod
    def from_geometry(
        cls, uvs: np.ndarray, faces: np.ndarray
    ) -> "TriangleBatch":
        return cls(
            faces=faces,
            face_uvs=uvs[faces],
            num_vertices=len(uvs),
        )

    @property
    def num_triangles(self) -> int:
        return len(self.faces)

    def front_end(
        self, screen: np.ndarray, w: np.ndarray, near_eps: float = 1e-9
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Batched raster front end over every face.

        Returns ``(tri, tri_w, near_reject, area)`` where ``tri`` is
        the gathered ``(T, 3, 3)`` screen coordinates, ``tri_w`` the
        per-corner clip ``w``, ``near_reject`` the per-face near-plane
        rejection mask (any ``w <= near_eps``), and ``area`` the signed
        twice-area — the exact same expression the scalar per-triangle
        loop evaluates, just evaluated for all faces at once.
        """
        tri_w = w[self.faces]
        near_reject = (tri_w <= near_eps).any(axis=1)
        tri = screen[self.faces]
        x = tri[:, :, 0]
        y = tri[:, :, 1]
        area = (x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (
            x[:, 2] - x[:, 0]
        ) * (y[:, 1] - y[:, 0])
        return tri, tri_w, near_reject, area
