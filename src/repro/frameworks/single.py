"""The naive single-programming-model baseline (Section 2.3).

The whole multi-GPU system pretends to be one big GPU: VR draws are
launched sequentially (left pass then right pass per object, no
cross-view merging) and the GigaThread engine spreads each draw's work
across *every* GPM with no locality awareness.  Pages are interleaved
across the four DRAM stacks (plus the MCM-GPU first-touch/remote-cache
optimisations the paper grants the baseline), so roughly ``(n-1)/n`` of
each GPM's accesses are remote — the bandwidth asymmetry between the
1 TB/s local DRAM and the 64 GB/s links makes those remote streams the
bottleneck (Fig. 4).

Two registered variants:

- ``baseline`` — Table 2's 64 GB/s links;
- ``1tbs-bw`` — identical but with 1 TB/s links (the "1TB/s-BW" design
  point of Fig. 15).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config import SystemConfig, baseline_system
from repro.frameworks.base import RenderingFramework, register_framework
from repro.gpu.system import FramebufferTargets, MultiGPUSystem
from repro.memory.placement import PlacementPolicy
from repro.pipeline.smp import SMPMode
from repro.scene.scene import Frame
from repro.stats.metrics import FrameResult


#: The GPM holding application uploads under the single-GPU illusion.
UPLOAD_GPM = 0


@register_framework("baseline")
class SingleKernelBaseline(RenderingFramework):
    """The single-programming-model multi-GPU baseline."""

    placement_policy = PlacementPolicy.INTERLEAVED

    def _place_uploads(self, system: MultiGPUSystem, units) -> None:
        """Application uploads land on one GPM (Fig. 3's story).

        Under the single-GPU illusion the app's texture and vertex
        uploads stream through one copy engine into pages near it —
        "if the basic texture data used to describe the rabbit is
        stored in the local memory of GPM_0, other GPMs need to issue
        remote memory accesses".  The framebuffer stays interleaved
        (the placement policy) so ROP writes spread out.
        """
        for unit in units:
            for touch in unit.texture_touches + unit.vertex_touches:
                if not system.placement.is_placed(touch.resource):
                    system.placement.place_fixed(touch.resource, UPLOAD_GPM)

    def render_frame_on(
        self, system: MultiGPUSystem, frame: Frame, workload: str
    ) -> FrameResult:
        self.bind_frame(system, frame)
        return system.frame_result(self.name, workload)

    def bind_frame(self, system: MultiGPUSystem, frame: Frame) -> None:
        """Bind and schedule ``frame`` on ``system``, leaving the frame
        unfinished: no trace is taken and no result is rolled up."""
        from repro.engine.split import slice_schedule

        num_gpms = system.num_gpms
        cost = self.config.cost
        even_share = 1.0 / num_gpms
        fb_targets: FramebufferTargets = {
            gpm: even_share for gpm in range(num_gpms)
        }
        # One vectorized pass over the frame's SoA batch prices the
        # whole sequential-stereo draw stream (stereo_draws order).
        units = self.characterizer.characterize_frame(
            frame, mode=SMPMode.SEQUENTIAL, expansion="stereo"
        )
        self._place_uploads(system, units)
        # Every draw split evenly over every GPM (a lone GPM renders
        # each draw whole), all slices bound in one batched pass.
        if num_gpms == 1:
            labels = [unit.label for unit in units]
        else:
            labels = [
                f"{unit.label}/gpm{gpm}"
                for unit in units
                for gpm in range(num_gpms)
            ]
        system.engine.execute_split(
            units,
            slice_schedule(
                np.repeat(np.arange(len(units)), num_gpms),
                np.tile(np.arange(num_gpms), len(units)),
                labels,
                pixel_share=even_share,
                geometry_share=even_share,
                unique_inflation=cost.interleave_unique_inflation,
                stream_inflation=cost.interleave_stream_inflation,
                fb_targets=fb_targets,
            ),
        )
        # No composition phase: ROPs write the interleaved framebuffer
        # directly during rendering, so no CompositionSchedule is
        # handed to the engine and the trace's composition lane is
        # empty.


@register_framework("1tbs-bw")
class BandwidthScaledBaseline(SingleKernelBaseline):
    """The baseline with 1 TB/s inter-GPM links (Fig. 15's 1TB/s-BW).

    Everything else — scheduling, placement, draw stream — matches the
    ``baseline`` scheme; only the link bandwidth differs, isolating the
    NUMA penalty from the programming-model penalty.
    """

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        base = config or baseline_system()
        super().__init__(base.with_link_bandwidth(1000.0))
