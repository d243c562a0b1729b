"""Tile-level Split Frame Rendering (Section 4.2).

The stereo framebuffer is split into one strip per GPM and every GPM
renders whatever falls in its strip (sort-first).  Two orientations,
matching Figs. 6b and 6c:

- **Vertical (V)**: equal-width columns of the side-by-side stereo
  frame.  The left and right views of an object land on *different*
  GPMs, so SMP cannot merge them: every object renders as two full
  per-eye passes, and the shared texture data is re-staged per eye —
  "the large texture data have to be moved frequently across the GPMs".
- **Horizontal (H)**: full-width rows.  Each row spans both eyes, so
  SMP stays effective (geometry once per overlapping strip), but
  content is vertically skewed (grounds and walls are denser than
  skies), so the strips are badly load-balanced, and wide objects
  (the paper's bridge example) span many strips redundantly.

Both orientations pay the sort-first geometry broadcast: a strip that an
object overlaps must transform the *whole* object to discover its
pixels.
"""

from __future__ import annotations

import enum
from typing import List, Optional, Tuple

import numpy as np

from repro.config import SystemConfig
from repro.frameworks.base import RenderingFramework, register_framework
from repro.gpu.system import MultiGPUSystem
from repro.gpu.staging import StagingManager
from repro.memory.placement import PlacementPolicy
from repro.pipeline.raster import strip_share_columns
from repro.pipeline.smp import SMPMode
from repro.scene.geometry import (
    Viewport,
    horizontal_strips,
    vertical_strips,
)
from repro.scene.objects import Eye, StereoDraw
from repro.scene.scene import Frame
from repro.stats.metrics import FrameResult


class TileOrientation(enum.Enum):
    """Strip orientation of the tile-level SFR."""

    VERTICAL = "vertical"
    HORIZONTAL = "horizontal"


class TileSplitFrameRendering(RenderingFramework):
    """Sort-first tile-level SFR over the stereo framebuffer."""

    placement_policy = PlacementPolicy.FIRST_TOUCH
    orientation: TileOrientation = TileOrientation.VERTICAL

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        orientation: Optional[TileOrientation] = None,
    ) -> None:
        super().__init__(config)
        if orientation is not None:
            self.orientation = orientation

    # -- geometry of the decomposition ------------------------------------

    def strips(self, frame: Frame) -> List[Viewport]:
        """One strip per GPM over the side-by-side stereo frame."""
        stereo = frame.stereo_viewport
        if self.orientation is TileOrientation.VERTICAL:
            return vertical_strips(stereo, self.config.num_gpms)
        return horizontal_strips(stereo, self.config.num_gpms)

    @staticmethod
    def stereo_space_viewports(draw: StereoDraw, eye_width: int) -> Tuple[Viewport, ...]:
        """The draw's rectangles in stereo-frame coordinates.

        The right eye's image occupies ``[W, 2W)`` of the side-by-side
        frame, so right-view rectangles shift by the eye width.
        """
        out: List[Viewport] = []
        if draw.eye in (Eye.LEFT, Eye.BOTH) and draw.obj.viewport_left is not None:
            out.append(draw.obj.viewport_left)
        if draw.eye in (Eye.RIGHT, Eye.BOTH) and draw.obj.viewport_right is not None:
            out.append(draw.obj.viewport_right.shifted(float(eye_width)))
        return tuple(out)

    # -- rendering -----------------------------------------------------------

    def _frame_plan(self) -> Tuple[SMPMode, str]:
        """The SMP mode and draw expansion this orientation renders."""
        if self.orientation is TileOrientation.VERTICAL:
            # SMP cannot span strips: two sequential per-eye passes.
            return SMPMode.SEQUENTIAL, "stereo"
        # Horizontal strips contain both eyes: SMP multi-view draws.
        return SMPMode.SIMULTANEOUS, "multiview"

    def _strip_slices(self, frame: Frame, expansion: str):
        """``(draw, strip, pixel share)`` of every draw's strip slices.

        The draws' rectangles, in stereo-frame coordinates and draw
        order (:meth:`stereo_space_viewports` of every draw of the
        ``expansion`` stream), feed the column form of
        :func:`~repro.pipeline.raster.strip_shares`.
        """
        shift = float(frame.width)
        per_eye = expansion == "stereo"
        rows: List[Tuple[int, float, float, float, float]] = []
        draw = 0
        for obj in frame.objects:
            left, right = obj.viewport_left, obj.viewport_right
            if left is not None:
                rows.append((draw, left.x0, left.y0, left.x1, left.y1))
                if per_eye:
                    draw += 1
            if right is not None:
                # Shifted into the right half, as Viewport.shifted does.
                rows.append(
                    (draw, right.x0 + shift, right.y0 + 0.0,
                     right.x1 + shift, right.y1 + 0.0)
                )
                if per_eye:
                    draw += 1
            if not per_eye:
                draw += 1
        columns = np.array(rows, np.float64).reshape(-1, 5).T
        return strip_share_columns(
            draw, columns[0].astype(np.int64), *columns[1:],
            self.strips(frame),
        )

    def render_frame_on(
        self, system: MultiGPUSystem, frame: Frame, workload: str
    ) -> FrameResult:
        from repro.engine.split import slice_schedule

        cost = self.config.cost
        # Cluster-heritage SFR stages each strip's working set into its
        # GPM's memory segment every frame ("the large texture data
        # have to be moved frequently across the GPMs", Section 4.2);
        # strips re-copy borders and mip chains, hence the larger
        # staging factor.
        staging = StagingManager(
            system,
            factor=cost.tile_stage_factor,
            parallelism=cost.tile_stage_parallelism,
        )
        staging.begin_frame()
        mode, expansion = self._frame_plan()
        units = self.characterizer.characterize_frame(
            frame, mode=mode, expansion=expansion
        )
        draw, strip, share = self._strip_slices(frame, expansion)
        views = np.array([unit.views for unit in units], np.int64)[draw]
        system.engine.execute_split(
            units,
            slice_schedule(
                draw,
                strip,
                [
                    f"{units[index].label}/strip{gpm}"
                    for index, gpm in zip(draw.tolist(), strip.tolist())
                ],
                pixel_share=np.minimum(1.0, share),
                unique_inflation=cost.tile_unique_inflation,
                # Strips own their framebuffer region: writes are local.
                fb_targets=None,
                # Multi-view slices stage most of each eye's region
                # separately; caches, not the copies, share the rest.
                stage_scale=1.0 + 0.6 * (views - 1),
            ),
            staging,
        )
        # Sort-first needs no composition pass (strips tile the frame),
        # so nothing is scheduled on the engine's composition phase;
        # the staging copies above were already priced like stage_flow
        # (a stall here, since tile-SFR has no PA units).
        return system.frame_result(self.name, workload)


@register_framework("tile-v")
class VerticalTileSFR(TileSplitFrameRendering):
    """Tile-level SFR (V): vertical pixel stripping (Fig. 6b)."""

    orientation = TileOrientation.VERTICAL


@register_framework("tile-h")
class HorizontalTileSFR(TileSplitFrameRendering):
    """Tile-level SFR (H): horizontal culling, SMP-compatible (Fig. 6c)."""

    orientation = TileOrientation.HORIZONTAL
