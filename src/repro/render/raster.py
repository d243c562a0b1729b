"""The triangle rasterizer.

:class:`Rasterizer` walks each triangle of a mesh through the classic
pipeline the simulator prices statistically: clip-space transform,
near-plane rejection, back-face culling, viewport transform, barycentric
coverage with a z-buffer, and a small procedural-texture fragment stage.
Per-draw :class:`DrawStats` report the same counters the paper's
SMP-engine validation compares (triangle number, fragment number), so
the statistical and the executed pipeline can be cross-checked.

The inner loop is vectorised per triangle over its bounding box; this is
a software rasterizer for *validation and figures*, not a performance
renderer — a few hundred thousand fragments per frame render in well
under a second.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Optional, Tuple

import numpy as np

from repro.render.framebuffer import FrameBuffer
from repro.render.math3d import transform_points
from repro.render.mesh3d import TriangleMesh

__all__ = ["DrawStats", "FragmentShader", "Rasterizer", "checker_shader"]

#: A fragment shader: (u, v, depth_ndc) arrays -> (N, 3) uint8 colours.
FragmentShader = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


@dataclass
class DrawStats:
    """Counters for one draw call (one mesh through the pipeline).

    These mirror the quantities the paper's Eq. 3 predictor consumes:
    ``triangles_in`` (known before rendering), ``vertices_transformed``
    (#tv) and ``fragments_shaded``/``pixels_written`` (#pixel).
    """

    triangles_in: int = 0
    triangles_culled: int = 0
    triangles_clipped: int = 0
    triangles_rasterised: int = 0
    vertices_transformed: int = 0
    fragments_shaded: int = 0
    pixels_written: int = 0

    def merged_with(self, other: "DrawStats") -> "DrawStats":
        """Element-wise sum (for whole-frame roll-ups).

        Derived from the dataclass fields so a newly added counter can
        never silently drop out of the roll-up.
        """
        return DrawStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    @property
    def overdraw(self) -> float:
        """Fragments shaded per pixel finally written (>= 1 when drawing)."""
        if self.pixels_written == 0:
            return 0.0
        return self.fragments_shaded / self.pixels_written


def checker_shader(
    color_a: Tuple[int, int, int] = (200, 200, 200),
    color_b: Tuple[int, int, int] = (60, 60, 60),
    tiles: float = 8.0,
) -> FragmentShader:
    """A UV checkerboard — the stand-in for real texture sampling."""

    a = np.asarray(color_a, dtype=np.float64)
    b = np.asarray(color_b, dtype=np.float64)

    def shade(u: np.ndarray, v: np.ndarray, depth: np.ndarray) -> np.ndarray:
        checker = (np.floor(u * tiles) + np.floor(v * tiles)) % 2.0
        # Cheap depth-based attenuation so geometry reads in the image.
        fade = np.clip(1.0 - 0.25 * np.clip(depth, 0.0, 1.0), 0.0, 1.0)
        rgb = np.where(checker[:, None] > 0.5, a[None, :], b[None, :])
        return np.clip(rgb * fade[:, None], 0, 255).astype(np.uint8)

    return shade


class Rasterizer:
    """Draws triangle meshes into a :class:`FrameBuffer`.

    Parameters
    ----------
    target:
        The framebuffer to draw into.
    scissor:
        Optional pixel rectangle ``(x0, y0, x1, y1)`` limiting coverage.
        The stereo renderer uses this to "prevent the spill over into
        the opposite eye" exactly as the paper modifies triangle
        clipping for its SMP engine.
    """

    def __init__(
        self,
        target: FrameBuffer,
        scissor: Optional[Tuple[int, int, int, int]] = None,
    ) -> None:
        self.target = target
        if scissor is None:
            scissor = (0, 0, target.width, target.height)
        x0, y0, x1, y1 = scissor
        x0 = max(0, min(x0, target.width))
        x1 = max(0, min(x1, target.width))
        y0 = max(0, min(y0, target.height))
        y1 = max(0, min(y1, target.height))
        if x1 <= x0 or y1 <= y0:
            raise ValueError("empty scissor rectangle")
        self.scissor = (x0, y0, x1, y1)

    # -- pipeline front end -------------------------------------------------

    def _to_screen(
        self, clip: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Clip-space -> (screen xy + depth, w) with the viewport transform."""
        w = clip[:, 3]
        safe_w = np.where(w == 0.0, 1e-12, w)
        ndc = clip[:, :3] / safe_w[:, None]
        screen = np.empty_like(ndc)
        screen[:, 0] = (ndc[:, 0] + 1.0) * 0.5 * self.target.width
        # NDC +y is up; raster y grows down.
        screen[:, 1] = (1.0 - ndc[:, 1]) * 0.5 * self.target.height
        screen[:, 2] = ndc[:, 2]
        return screen, w

    def draw_mesh(
        self,
        mesh: TriangleMesh,
        mvp: np.ndarray,
        shader: Optional[FragmentShader] = None,
        cull_backfaces: bool = True,
    ) -> DrawStats:
        """Rasterise ``mesh`` under the ``mvp`` transform.

        Triangles crossing the near plane are rejected rather than
        clipped (they count as ``triangles_clipped``); scene layouts in
        the examples keep geometry comfortably inside the frustum, and
        the statistics only need the rejection to be *counted*.
        """
        if shader is None:
            shader = checker_shader()
        stats = DrawStats(triangles_in=mesh.num_triangles)
        if mesh.num_triangles == 0:
            return stats
        clip = transform_points(mvp, mesh.positions)
        stats.vertices_transformed = mesh.num_vertices
        screen, w = self._to_screen(clip)

        # Batched front end: near-plane rejection, degenerate and
        # back-face culling run over every face at once; only the
        # survivors reach the per-triangle coverage loop, in original
        # face order so the depth-test outcome (and hence every written
        # pixel) matches the per-triangle reference path exactly.
        batch = mesh.batch
        tri, tri_w, near_reject, area = batch.front_end(screen, w)
        stats.triangles_clipped = int(near_reject.sum())
        if cull_backfaces:
            backface = area >= 0.0
        else:
            backface = area == 0.0
        # Batched scissor/bbox rejection: the same integral bounds the
        # coverage step computes, evaluated in float (floor/ceil values
        # are exactly representable), so the emptiness test matches the
        # per-triangle ``min_x >= max_x`` check bit for bit.
        sx0, sy0, sx1, sy1 = self.scissor
        xs = tri[:, :, 0]
        ys = tri[:, :, 1]
        offscreen = (
            np.maximum(sx0, np.floor(xs.min(axis=1)))
            >= np.minimum(sx1, np.ceil(xs.max(axis=1)) + 1.0)
        ) | (
            np.maximum(sy0, np.floor(ys.min(axis=1)))
            >= np.minimum(sy1, np.ceil(ys.max(axis=1)) + 1.0)
        )
        culled = ~near_reject & (backface | offscreen)
        stats.triangles_culled = int(culled.sum())
        face_uvs = batch.face_uvs
        for f in np.nonzero(~(near_reject | culled))[0]:
            stats_drawn = self._raster_coverage(
                tri[f], face_uvs[f], tri_w[f], area[f], shader
            )
            if stats_drawn is None:
                stats.triangles_culled += 1
                continue
            shaded, written = stats_drawn
            stats.triangles_rasterised += 1
            stats.fragments_shaded += shaded
            stats.pixels_written += written
        self.target.pixels_written += stats.pixels_written
        return stats

    def draw_mesh_reference(
        self,
        mesh: TriangleMesh,
        mvp: np.ndarray,
        shader: Optional[FragmentShader] = None,
        cull_backfaces: bool = True,
    ) -> DrawStats:
        """The retained per-triangle reference path.

        Walks faces one at a time exactly as the pre-SoA pipeline did.
        Kept as the oracle for the SoA == AoS property tests — it must
        produce the same :class:`DrawStats` and framebuffer contents as
        :meth:`draw_mesh` on any input.
        """
        if shader is None:
            shader = checker_shader()
        stats = DrawStats(triangles_in=mesh.num_triangles)
        if mesh.num_triangles == 0:
            return stats
        clip = transform_points(mvp, mesh.positions)
        stats.vertices_transformed = mesh.num_vertices
        screen, w = self._to_screen(clip)

        for face in mesh.faces:
            tri_w = w[face]
            if np.any(tri_w <= 1e-9):
                stats.triangles_clipped += 1
                continue
            tri = screen[face]
            uv = mesh.uvs[face]
            stats_drawn = self._raster_triangle(
                tri, uv, tri_w, shader, cull_backfaces
            )
            if stats_drawn is None:
                stats.triangles_culled += 1
                continue
            shaded, written = stats_drawn
            stats.triangles_rasterised += 1
            stats.fragments_shaded += shaded
            stats.pixels_written += written
        self.target.pixels_written += stats.pixels_written
        return stats

    # -- per-triangle raster loop ---------------------------------------------

    def _raster_triangle(
        self,
        tri: np.ndarray,
        uv: np.ndarray,
        tri_w: np.ndarray,
        shader: FragmentShader,
        cull_backfaces: bool,
    ) -> Optional[Tuple[int, int]]:
        """Rasterise one screen-space triangle.

        Returns ``(fragments_shaded, pixels_written)`` or ``None`` when
        the triangle is back-facing / degenerate / fully outside.
        """
        (x0, y0), (x1, y1), (x2, y2) = tri[:, 0:2]
        # Signed twice-area; raster y grows down so CCW-in-NDC becomes
        # negative here — front faces have area < 0.
        area = (x1 - x0) * (y2 - y0) - (x2 - x0) * (y1 - y0)
        if area == 0.0:
            return None
        if cull_backfaces and area > 0.0:
            return None
        return self._raster_coverage(tri, uv, tri_w, area, shader)

    def _raster_coverage(
        self,
        tri: np.ndarray,
        uv: np.ndarray,
        tri_w: np.ndarray,
        area: float,
        shader: FragmentShader,
    ) -> Optional[Tuple[int, int]]:
        """Coverage, interpolation and writes for one accepted triangle.

        ``area`` is the precomputed signed twice-area (non-zero); the
        caller has already handled near-plane rejection and culling.
        """
        (x0, y0), (x1, y1), (x2, y2) = tri[:, 0:2]
        sx0, sy0, sx1, sy1 = self.scissor
        min_x = max(sx0, int(np.floor(min(x0, x1, x2))))
        max_x = min(sx1, int(np.ceil(max(x0, x1, x2))) + 1)
        min_y = max(sy0, int(np.floor(min(y0, y1, y2))))
        max_y = min(sy1, int(np.ceil(max(y0, y1, y2))) + 1)
        if min_x >= max_x or min_y >= max_y:
            return None

        # Open row/column grids: broadcasting materialises the same
        # (H, W) edge-function values meshgrid-based code would, minus
        # the full coordinate copies.
        px = np.arange(min_x, max_x, dtype=np.float64)[None, :] + 0.5
        py = np.arange(min_y, max_y, dtype=np.float64)[:, None] + 0.5

        w0 = (x2 - x1) * (py - y1) - (y2 - y1) * (px - x1)
        w1 = (x0 - x2) * (py - y2) - (y0 - y2) * (px - x2)
        w2 = (x1 - x0) * (py - y0) - (y1 - y0) * (px - x0)
        if area < 0:
            inside = (w0 <= 0) & (w1 <= 0) & (w2 <= 0)
        else:
            inside = (w0 >= 0) & (w1 >= 0) & (w2 >= 0)
        if not inside.any():
            return None

        b0 = w0[inside] / area
        b1 = w1[inside] / area
        b2 = w2[inside] / area

        # Perspective-correct interpolation via 1/w weights.
        inv_w = 1.0 / tri_w
        persp = b0 * inv_w[0] + b1 * inv_w[1] + b2 * inv_w[2]
        depth = b0 * tri[0, 2] + b1 * tri[1, 2] + b2 * tri[2, 2]
        u = (
            b0 * uv[0, 0] * inv_w[0]
            + b1 * uv[1, 0] * inv_w[1]
            + b2 * uv[2, 0] * inv_w[2]
        ) / persp
        v = (
            b0 * uv[0, 1] * inv_w[0]
            + b1 * uv[1, 1] * inv_w[1]
            + b2 * uv[2, 1] * inv_w[2]
        ) / persp

        rows, cols = np.nonzero(inside)
        rows = rows + min_y
        cols = cols + min_x

        fragments = len(rows)
        current = self.target.depth[rows, cols]
        passes = depth < current
        written = int(passes.sum())
        if written:
            colours = shader(u[passes], v[passes], depth[passes])
            self.target.depth[rows[passes], cols[passes]] = depth[passes]
            self.target.color[rows[passes], cols[passes]] = colours
        return fragments, written
