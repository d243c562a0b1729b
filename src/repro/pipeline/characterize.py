"""Draw characterisation: scheduled draws -> priced work units.

The :class:`DrawCharacterizer` is the front half of the pipeline model:
it runs the geometry/SMP stage maths and the fragment-stage demand model
to produce a :class:`~repro.pipeline.workunit.WorkUnit` the GPM layer
can execute.  It is deliberately free of any NUMA knowledge — the same
unit can be bound to any GPM, split across strips, or merged into
batches.

A whole frame is characterised in one vectorized pass
(:mod:`repro.pipeline.batch`), and everything a frame yields is
memoised on the frame (:meth:`Frame.derived
<repro.scene.scene.Frame.derived>`), keyed by the cost model, SMP mode
and draw expansion: its counters (:meth:`~DrawCharacterizer.frame_counters`),
the units the clock-driven dispatchers schedule
(:meth:`~DrawCharacterizer.characterize_frame`) and the unit table the
statically scheduled frameworks hand the slice pass
(:meth:`~DrawCharacterizer.unit_columns`).  Units and table read the
same counters, so a frame whose units OO-VR priced gives tile-level
SFR (H) its table without recomputing a counter.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.config import SystemConfig
from repro.memory.address import Touch, vertex_resource
from repro.pipeline.batch import (
    FrameCounters,
    frame_counters,
    unit_columns,
    work_units_from_counters,
)
from repro.pipeline.fragment import depth_and_color_demand, texture_touches_for_draw
from repro.pipeline.smp import SMPEngine, SMPMode
from repro.pipeline.workunit import UnitColumns, WorkUnit
from repro.profiling import phase
from repro.scene.objects import Eye, StereoDraw

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scene.scene import Frame


class DrawCharacterizer:
    """Builds work units from scheduled draws under a cost model."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.cost = config.cost
        self.smp = SMPEngine(config.cost)

    def characterize(
        self,
        draw: StereoDraw,
        mode: SMPMode = SMPMode.SIMULTANEOUS,
        label: Optional[str] = None,
    ) -> WorkUnit:
        """Price ``draw`` into a work unit.

        ``mode`` selects SMP behaviour for ``Eye.BOTH`` draws; per-eye
        draws ignore it.  SMP multi-view draws share texture footprints
        across the two views (``view_reuse=2``), which is the texture
        half of the paper's "data locality between the left and right
        views of the same object".
        """
        cost = self.cost
        geometry = self.smp.geometry_work(draw, mode)
        fragments = draw.fragments
        pixels = draw.covered_pixels

        multi_view = draw.eye is Eye.BOTH and mode is SMPMode.SIMULTANEOUS
        view_reuse = 2.0 if multi_view else 1.0
        texel_requests, texture_touches = texture_touches_for_draw(
            draw.textures, fragments, cost, view_reuse=view_reuse
        )
        z_stream, z_unique, fb_write = depth_and_color_demand(
            fragments, pixels, cost
        )

        mesh = draw.mesh
        vertex_bytes = geometry.vertices * cost.bytes_per_vertex
        vertex_touch = Touch(
            resource=vertex_resource(
                draw.obj.object_id, max(1, mesh.vertex_buffer_bytes)
            ),
            unique_bytes=float(mesh.vertex_buffer_bytes),
            stream_bytes=max(float(mesh.vertex_buffer_bytes), vertex_bytes),
        )

        # Sequential stereo on a BOTH draw issues two passes: the second
        # pass re-reads the textures with no sharing (temporally distant),
        # so streams and uniques both double relative to one view.
        return WorkUnit(
            label=label or f"{draw.obj.name}:{draw.eye.value}",
            views=geometry.views,
            vertices=geometry.vertices,
            triangles_setup=geometry.triangles_setup,
            triangles_raster=geometry.triangles_raster,
            fragments=fragments,
            pixels_out=pixels,
            texel_requests=texel_requests,
            shader_complexity=draw.obj.shader_complexity,
            texture_touches=texture_touches,
            vertex_touches=(vertex_touch,),
            z_stream_bytes=z_stream,
            z_unique_bytes=z_unique,
            fb_write_bytes=fb_write,
            command_bytes=cost.command_bytes_per_draw,
            viewports=draw.viewports(),
        )

    def characterize_frame(
        self,
        frame: "Frame",
        mode: SMPMode = SMPMode.SIMULTANEOUS,
        expansion: str = "multiview",
    ) -> Tuple[WorkUnit, ...]:
        """Price every draw of ``frame`` in one vectorized pass.

        Returns units in draw order: ``expansion="multiview"`` aligns
        with :meth:`Frame.multiview_draws`, ``"stereo"`` with
        :meth:`Frame.stereo_draws`.  Each unit is field-for-field
        identical (touches included) to :meth:`characterize` on the
        corresponding draw — the SoA layout changes the walk, never the
        numbers.

        The result depends only on the frame's object batch and the
        (frozen, hashable) cost model, so it is memoised on the frame
        (:meth:`Frame.derived <repro.scene.scene.Frame.derived>`):
        grid cells that share a workload share scene-memoised frames,
        and therefore skip re-running Eq. 3 pricing entirely.  The
        returned tuple of frozen work units is immutable, so sharing
        it across cells is safe.  The build runs inside the ``price``
        profiling phase.
        """
        return frame.derived(
            ("characterize_frame", self.cost, mode, expansion),
            lambda: self._characterize_frame(frame, mode, expansion),
        )

    def _characterize_frame(
        self, frame: "Frame", mode: SMPMode, expansion: str
    ) -> Tuple[WorkUnit, ...]:
        with phase("price"):
            return work_units_from_counters(
                frame.object_batch,
                self.frame_counters(frame, mode, expansion),
                self.cost,
            )

    def unit_columns(
        self,
        frame: "Frame",
        mode: SMPMode = SMPMode.SIMULTANEOUS,
        expansion: str = "multiview",
    ) -> UnitColumns:
        """The unit table of ``frame``: :meth:`characterize_frame`'s
        units as columns (:func:`~repro.pipeline.batch.unit_columns`),
        built from the counters without a single ``WorkUnit``.

        Memoised on the frame like :meth:`characterize_frame`, and
        built inside the ``price`` profiling phase.
        """
        return frame.derived(
            ("unit_columns", self.cost, mode, expansion),
            lambda: self._unit_columns(frame, mode, expansion),
        )

    def _unit_columns(
        self, frame: "Frame", mode: SMPMode, expansion: str
    ) -> UnitColumns:
        with phase("price"):
            return unit_columns(
                frame.object_batch,
                self.frame_counters(frame, mode, expansion),
                self.cost,
            )

    def frame_counters(
        self,
        frame: "Frame",
        mode: SMPMode = SMPMode.SIMULTANEOUS,
        expansion: str = "multiview",
    ) -> FrameCounters:
        """Every per-draw counter of ``frame``
        (:func:`~repro.pipeline.batch.frame_counters`), memoised on the
        frame: :meth:`characterize_frame` and :meth:`unit_columns` of
        one plan read the same build."""
        return frame.derived(
            ("frame_counters", self.cost, mode, expansion),
            lambda: frame_counters(
                frame.object_batch, self.cost, mode=mode, expansion=expansion
            ),
        )

    def characterize_stereo_pair(self, draw: StereoDraw) -> Tuple[WorkUnit, ...]:
        """Both per-eye units of an object (sequential stereo trace)."""
        return tuple(
            self.characterize(eye_draw, mode=SMPMode.SEQUENTIAL)
            for eye_draw in draw.obj.stereo_draws()
        )
