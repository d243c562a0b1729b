"""Draw characterisation: scheduled draws -> priced work units.

The :class:`DrawCharacterizer` is the front half of the pipeline model:
it runs the geometry/SMP stage maths and the fragment-stage demand model
to produce a :class:`~repro.pipeline.workunit.WorkUnit` the GPM layer
can execute.  It is deliberately free of any NUMA knowledge — the same
unit can be bound to any GPM, split across strips, or merged into
batches.

A whole frame is characterised in one vectorized pass
(:mod:`repro.pipeline.batch`) into the frame's unit table
(:meth:`~DrawCharacterizer.unit_columns`), memoised on the frame
(:meth:`Frame.derived <repro.scene.scene.Frame.derived>`) and keyed by
the cost model, SMP mode and draw expansion.  The table is the one
reader of the frame's counters: the statically scheduled frameworks
hand it to the slice pass, and the clock-driven dispatchers read its
units (:meth:`~DrawCharacterizer.characterize_frame`).  So tile-level
SFR (H) renders the very multi-view table OO-VR's units came from.
The per-draw :meth:`~DrawCharacterizer.characterize` is its oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.config import SystemConfig
from repro.memory.address import Touch, vertex_resource
from repro.pipeline.batch import frame_counters, unit_columns
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
        )

    def characterize_frame(
        self,
        frame: "Frame",
        mode: SMPMode = SMPMode.SIMULTANEOUS,
        expansion: str = "multiview",
    ) -> Tuple[WorkUnit, ...]:
        """Every draw of ``frame`` as a work unit, in draw order.

        ``expansion="multiview"`` aligns with
        :meth:`Frame.multiview_draws`, ``"stereo"`` with
        :meth:`Frame.stereo_draws`.  Each unit is field-for-field
        identical (touches included) to :meth:`characterize` on the
        corresponding draw — the SoA layout changes the walk, never the
        numbers.

        The units are read out of the memoised :meth:`unit_columns`
        (:meth:`UnitColumns.units
        <repro.pipeline.workunit.UnitColumns.units>`) afresh per call,
        in the caller's profiling phase; only the table is memoised.
        """
        return self.unit_columns(frame, mode, expansion).units()

    def unit_columns(
        self,
        frame: "Frame",
        mode: SMPMode = SMPMode.SIMULTANEOUS,
        expansion: str = "multiview",
    ) -> UnitColumns:
        """The unit table of ``frame``
        (:func:`~repro.pipeline.batch.unit_columns`), read from the
        frame's counters without a single ``WorkUnit``.

        The table depends only on the frame's object batch and the
        (frozen, hashable) cost model, so it is memoised on the frame
        (:meth:`Frame.derived <repro.scene.scene.Frame.derived>`):
        grid cells that share a workload share scene-memoised frames,
        and therefore skip re-running Eq. 3 pricing entirely.  No
        reader mutates the table, so sharing it across cells is safe.
        The build runs inside the ``price`` profiling phase; the
        counters it reads are not kept.
        """
        return frame.derived(
            ("unit_columns", self.cost, mode, expansion),
            lambda: self._unit_columns(frame, mode, expansion),
        )

    def _unit_columns(
        self, frame: "Frame", mode: SMPMode, expansion: str
    ) -> UnitColumns:
        with phase("price"):
            batch = frame.object_batch
            return unit_columns(
                batch,
                frame_counters(batch, self.cost, mode=mode, expansion=expansion),
                self.cost,
            )
