"""Geometry primitives: meshes and screen-space viewports.

The simulator does not rasterise real triangles; it tracks the *counts*
that drive the pipeline cost model — vertices, triangles, and the
screen-space rectangle an object covers.  The viewport rectangle matters
for the tile-level SFR schemes (which GPM strips an object overlaps) and
for the distributed composition unit (which framebuffer partition a pixel
lands in).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Mesh:
    """Geometry statistics of one render object.

    Parameters
    ----------
    num_vertices:
        Vertices fetched by the input assembler.
    num_triangles:
        Triangles assembled before clipping/culling.
    vertex_bytes:
        Attribute bytes per vertex (position + normals + UVs).
    """

    num_vertices: int
    num_triangles: int
    vertex_bytes: int = 32

    def __post_init__(self) -> None:
        if self.num_vertices < 0 or self.num_triangles < 0:
            raise ValueError("mesh counts cannot be negative")
        if self.num_triangles > 0 and self.num_vertices == 0:
            raise ValueError("triangles require vertices")
        if self.vertex_bytes <= 0:
            raise ValueError("vertex_bytes must be positive")

    @property
    def vertex_buffer_bytes(self) -> int:
        """Size of the mesh's vertex buffer in memory."""
        return self.num_vertices * self.vertex_bytes

    def scaled(self, factor: float) -> "Mesh":
        """A mesh with counts scaled by ``factor`` (for LoD studies)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return Mesh(
            num_vertices=max(1, round(self.num_vertices * factor)),
            num_triangles=max(1, round(self.num_triangles * factor)),
            vertex_bytes=self.vertex_bytes,
        )


@dataclass(frozen=True)
class Viewport:
    """An axis-aligned screen-space rectangle in pixels.

    ``x`` spans ``[x0, x1)`` and ``y`` spans ``[y0, y1)``; the convention
    matches the paper's Fig. 5 description where the display frame spans
    ``[-W, +W]`` and the SMP engine shifts objects by ``W/2`` per eye —
    we work in absolute pixels instead of normalised device coordinates.
    """

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self) -> None:
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError(f"degenerate viewport {self!r}")

    @property
    def width(self) -> float:
        return self.x1 - self.x0

    @property
    def height(self) -> float:
        return self.y1 - self.y0

    @property
    def area(self) -> float:
        """Covered screen area in pixels."""
        return self.width * self.height

    def shifted(self, dx: float, dy: float = 0.0) -> "Viewport":
        """This viewport translated by ``(dx, dy)`` pixels."""
        return Viewport(self.x0 + dx, self.y0 + dy, self.x1 + dx, self.y1 + dy)

    def intersection(self, other: "Viewport") -> "Viewport | None":
        """The overlapping rectangle, or ``None`` when disjoint."""
        x0 = max(self.x0, other.x0)
        y0 = max(self.y0, other.y0)
        x1 = min(self.x1, other.x1)
        y1 = min(self.y1, other.y1)
        if x1 <= x0 or y1 <= y0:
            return None
        return Viewport(x0, y0, x1, y1)

    def clamped(self, bounds: "Viewport") -> "Viewport | None":
        """This viewport clipped against ``bounds`` (triangle clipping)."""
        return self.intersection(bounds)


def full_screen(width: int, height: int) -> Viewport:
    """The viewport covering a ``width x height`` display."""
    if width <= 0 or height <= 0:
        raise ValueError("display dimensions must be positive")
    return Viewport(0.0, 0.0, float(width), float(height))


def vertical_strips(screen: Viewport, count: int) -> list[Viewport]:
    """Split ``screen`` into ``count`` equal-width vertical strips.

    Used by tile-level SFR (V) and by the distributed hardware
    composition unit's framebuffer partitioning (Fig. 14).
    """
    if count <= 0:
        raise ValueError("strip count must be positive")
    step = screen.width / count
    return [
        Viewport(screen.x0 + i * step, screen.y0, screen.x0 + (i + 1) * step, screen.y1)
        for i in range(count)
    ]


def horizontal_strips(screen: Viewport, count: int) -> list[Viewport]:
    """Split ``screen`` into ``count`` equal-height horizontal strips.

    Used by tile-level SFR (H), which groups the left and right eye
    views into one wide tile per strip so SMP stays effective.
    """
    if count <= 0:
        raise ValueError("strip count must be positive")
    step = screen.height / count
    return [
        Viewport(screen.x0, screen.y0 + i * step, screen.x1, screen.y0 + (i + 1) * step)
        for i in range(count)
    ]
