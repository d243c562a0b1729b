"""Object-level Split Frame Rendering / sort-last (Section 4.3).

Objects are the distribution unit: a root node issues whole draws to
worker GPMs in round-robin order, one object per GPM at a time, and each
worker renders into a private local colour/depth buffer.  When all
objects finish, every worker ships its output to the root, whose ROPs
alone composite the final frame (Fig. 6d).

What the paper measures on this scheme:

- ~40 % less inter-GPM traffic than the baseline, because each object's
  vertex buffer and first-touched textures live where it renders;
- but the left/right views of an object are *separate draws* landing on
  different GPMs, so the multi-view texture redundancy is still paid
  over the links, and textures shared between objects follow the first
  toucher;
- round-robin distribution of heterogeneous objects leaves the GPMs
  badly imbalanced (Fig. 10's best-to-worst ratios), and master-node
  composition serialises on one GPM's ROPs.
"""

from __future__ import annotations

from typing import Dict, List

from repro.frameworks.base import RenderingFramework, register_framework
from repro.gpu.composition import compose_master
from repro.gpu.staging import StagingManager
from repro.gpu.system import MultiGPUSystem
from repro.memory.placement import PlacementPolicy
from repro.pipeline.smp import SMPMode
from repro.scene.scene import Frame
from repro.stats.metrics import FrameResult


@register_framework("object")
class ObjectLevelSFR(RenderingFramework):
    """Sort-last object distribution with master composition."""

    placement_policy = PlacementPolicy.FIRST_TOUCH
    #: GPM that distributes work and composites the final frame.
    root: int = 0

    def render_frame_on(
        self, system: MultiGPUSystem, frame: Frame, workload: str
    ) -> FrameResult:
        from repro.engine.split import slice_schedule

        num_gpms = system.num_gpms
        # "Distributes the rendering object along with its required
        # data per GPM": the object's working set is staged into the
        # renderer's DRAM before the draw runs.
        staging = StagingManager(
            system,
            factor=self.config.cost.object_stage_factor,
            parallelism=self.config.cost.stage_parallelism,
        )
        staging.begin_frame()
        table = self.characterizer.unit_columns(
            frame, mode=SMPMode.SEQUENTIAL, expansion="stereo"
        )
        # Profiling pass assigns draws round-robin in programmer order;
        # objects with dependencies follow their parent so the
        # programmer-defined order holds on one GPM.  Each object
        # issues one draw per visible eye (stereo_draws order).
        gpms: List[int] = []
        next_gpm = 0
        assigned_gpm_of_object: Dict[int, int] = {}
        for obj in frame.objects:
            for viewport in (obj.viewport_left, obj.viewport_right):
                if viewport is None:
                    continue
                parent = obj.depends_on
                if parent is not None and parent in assigned_gpm_of_object:
                    gpm = assigned_gpm_of_object[parent]
                else:
                    gpm = next_gpm
                    next_gpm = (next_gpm + 1) % num_gpms
                assigned_gpm_of_object[obj.object_id] = gpm
                gpms.append(gpm)
        system.engine.execute_split(
            table,
            slice_schedule(
                range(len(table)),
                gpms,
                table.labels,
                command_source=self.root,
                # Each worker renders into its private local buffer.
                fb_targets=None,
            ),
            staging,
        )
        rendered_pixels = [0.0] * num_gpms
        for pixels, gpm in zip(table.pixels_out.tolist(), gpms):
            rendered_pixels[gpm] += pixels
        # The master-node assembly is handed to the execution engine as
        # a composition schedule; its barrier price lands on the
        # frame's composition phase, not on any GPM's render clock.
        compose_master(system, rendered_pixels, root=self.root)
        return system.frame_result(self.name, workload)
