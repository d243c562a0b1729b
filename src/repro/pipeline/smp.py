"""The Simultaneous Multi-Projection (SMP) engine.

Models the fixed-function unit NVIDIA integrates into each Polymorph
Engine (Section 2.2): geometry is processed **once**, then re-projected
for each eye's viewport by shifting the projection centre.  The paper's
implementation (Section 3) gathers the display X range ``[-W, +W]``,
duplicates each post-geometry triangle, shifts the viewport by ``W/2``
per eye, and clips against the eye boundary so triangles do not spill
into the opposite view.

Here the engine decides, per scheduled draw, how much geometry work each
view costs and what the per-eye viewports are:

- ``Eye.BOTH`` draws: vertex shading x1, triangle setup duplicated per
  view (plus a small re-projection overhead), fragments per eye summed;
- single-eye draws: the conventional pipeline for that view;
- sequential stereo (SMP disabled): the caller simply issues the two
  per-eye draws separately and pays full geometry twice — the 27 %
  SMP-vs-sequential gap of Section 3 falls out of that difference.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple

from repro.config import CostModel
from repro.scene.geometry import Viewport
from repro.scene.objects import StereoDraw


class SMPMode(enum.Enum):
    """How a multi-view draw's projections are produced."""

    #: Geometry once, SMP projects per eye (the hardware path).
    SIMULTANEOUS = "simultaneous"
    #: Two full passes, one per eye (SMP disabled / split across GPMs).
    SEQUENTIAL = "sequential"


@dataclass(frozen=True)
class GeometryWork:
    """Geometry-stage work for one scheduled draw."""

    vertices: float
    triangles_setup: float
    triangles_raster: float
    views: int


class SMPEngine:
    """Prices geometry work and produces per-eye viewports.

    The engine also exposes :meth:`project_viewports` mirroring the
    paper's auto-mode: given an original centred viewport it produces
    the two eye views by shifting along X by half the offset parameter
    ``W`` — used by the OO programming model's automatic extension of
    object-level SFR.
    """

    def __init__(self, cost: CostModel) -> None:
        self._cost = cost

    # -- geometry pricing -------------------------------------------------

    def geometry_work(self, draw: StereoDraw, mode: SMPMode) -> GeometryWork:
        """Vertex/triangle counts for ``draw`` under ``mode``.

        ``SEQUENTIAL`` mode on an ``Eye.BOTH`` draw prices *both* full
        passes (the caller chose not to split the draw); per-eye draws
        are unaffected by the mode.
        """
        mesh = draw.mesh
        views = draw.view_count
        survival = self._cost.cull_survival
        if views == 1:
            return GeometryWork(
                vertices=float(mesh.num_vertices),
                triangles_setup=float(mesh.num_triangles),
                triangles_raster=mesh.num_triangles * survival,
                views=1,
            )
        if mode is SMPMode.SEQUENTIAL:
            return GeometryWork(
                vertices=2.0 * mesh.num_vertices,
                triangles_setup=2.0 * mesh.num_triangles,
                triangles_raster=2.0 * mesh.num_triangles * survival,
                views=2,
            )
        # Simultaneous: shade once, duplicate projections.  The first
        # view pays full input assembly + setup; the duplicated view's
        # triangles arrive already transformed, so re-projection costs
        # half a setup pass plus the SMP engine overhead.  Both views
        # rasterise in full.
        setup = mesh.num_triangles * (1.5 + self._cost.smp_projection_overhead)
        return GeometryWork(
            vertices=float(mesh.num_vertices),
            triangles_setup=setup,
            triangles_raster=2.0 * mesh.num_triangles * survival,
            views=2,
        )

    # -- viewport projection ------------------------------------------------

    @staticmethod
    def project_viewports(
        original: Viewport, half_offset: float, eye_bounds_left: Viewport,
        eye_bounds_right: Viewport,
    ) -> Tuple[Viewport, Viewport]:
        """The paper's auto-mode stereo projection (Section 5.1).

        Shifts ``original`` by ``-half_offset`` for the left eye and
        ``+half_offset`` for the right, then clips each against its eye
        boundary ("we modify the triangle clipping to prevent the spill
        over into the opposite eye").  Degenerate clips collapse to a
        zero-width sliver at the boundary rather than disappearing, so
        the object stays schedulable.
        """
        left = original.shifted(-half_offset)
        right = original.shifted(+half_offset)
        left_clipped = left.clamped(eye_bounds_left)
        right_clipped = right.clamped(eye_bounds_right)
        if left_clipped is None:
            edge = min(max(left.x0, eye_bounds_left.x0), eye_bounds_left.x1)
            left_clipped = Viewport(edge, left.y0, edge, left.y1)
        if right_clipped is None:
            edge = min(max(right.x0, eye_bounds_right.x0), eye_bounds_right.x1)
            right_clipped = Viewport(edge, right.y0, edge, right.y1)
        return left_clipped, right_clipped
