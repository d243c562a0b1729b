"""Alternate Frame Rendering (frame-level parallelism, Section 4.1).

Each frame renders entirely on one GPM, frames round-robin across GPMs
(Fig. 6a).  To make the concurrent frames independent, the scheme
reserves a segmented memory space per GPM and **replicates** every
resource a frame needs into its GPM's segment — AFR "near-linearly
increases the memory bandwidth and capacity requirement".

Consequences the experiments measure:

- inter-GPM traffic collapses to (almost) nothing — Fig. 16's
  "near-zero inter-GPM traffic" note;
- overall frame rate improves because frames pipeline across GPMs,
  bounded by the serial driver work per frame (Amdahl);
- single-frame latency *degrades*: one frame only ever uses one GPM's
  compute — Fig. 7's +59 % latency and Fig. 15's sub-1x bar.
"""

from __future__ import annotations

from typing import Sequence

from repro.frameworks.base import RenderingFramework, register_framework
from repro.gpu.system import MultiGPUSystem
from repro.memory.placement import PlacementPolicy
from repro.pipeline.smp import SMPMode
from repro.scene.scene import Frame
from repro.stats.metrics import FrameResult


@register_framework("afr")
class AlternateFrameRendering(RenderingFramework):
    """Frame-level parallel rendering."""

    placement_policy = PlacementPolicy.FIRST_TOUCH

    def _frame_gpm(self, frame: Frame) -> int:
        return frame.frame_id % self.config.num_gpms

    def render_frame_on(
        self, system: MultiGPUSystem, frame: Frame, workload: str
    ) -> FrameResult:
        from repro.engine.split import slice_schedule

        gpm = self._frame_gpm(frame)
        table = self.characterizer.unit_columns(
            frame, mode=SMPMode.SEQUENTIAL, expansion="stereo"
        )
        # Segmented memory: replicate this frame's resources into the
        # rendering GPM's segment so every access is local.  A replica
        # is made once, so replicating each resource at its first use
        # up front (the table lists them in first-touch order) leaves
        # the placement exactly as replicating every unit's touches
        # just before the unit renders.
        for resource in table.resources:
            system.placement.replicate(resource, [gpm])
        system.engine.execute_split(
            table,
            slice_schedule(
                range(len(table)),
                gpm,
                table.labels,
                command_source=gpm,
                fb_targets=None,
            ),
        )
        # One GPM owns the whole frame: no staging flows, no
        # composition schedule — the engine's other phases stay empty.
        return system.frame_result(self.name, workload)

    def frame_interval_cycles(
        self, frame_results: Sequence[FrameResult]
    ) -> float:
        """Pipelined completion interval across GPMs.

        With ``G`` frames in flight the interval would be latency/G,
        but the driver serialises a fraction ``s`` of each frame's work
        (command generation, app logic), so effective concurrency is
        the Amdahl bound ``1 / (s + (1-s)/G)``.
        """
        if not frame_results:
            raise ValueError("scene has no frames")
        steady = frame_results[1:] if len(frame_results) > 1 else frame_results
        latency = sum(f.cycles for f in steady) / len(steady)
        g = self.config.num_gpms
        s = self.config.cost.driver_serial_fraction
        concurrency = 1.0 / (s + (1.0 - s) / g)
        return latency / concurrency
