"""The OO-VR rendering frameworks (Fig. 11's full stack).

Two registered schemes, matching the paper's evaluation design points:

- ``oo-app`` — **OO_APP**: the object-oriented programming model alone.
  Objects become SMP multi-view draws, the middleware groups them into
  TSL batches, but distribution stays software-level: batches round-
  robin across GPMs in programmer order (master-slave), and the final
  frame composes on the master's ROPs.  This isolates the software
  contribution: texture sharing between eyes and across batched
  objects, with the load imbalance left in.
- ``oo-vr`` — the full co-design: OO_APP plus the object-aware runtime
  distribution engine (Eq. 3 prediction, PA pre-allocation, straggler
  splitting) and the distributed hardware composition unit (DHC).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from repro.config import SystemConfig
from repro.core.distribution import DistributionEngine
from repro.core.middleware import Batch, OOMiddleware
from repro.core.predictor import RenderingTimePredictor
from repro.frameworks.base import RenderingFramework, register_framework
from repro.gpu.composition import compose_distributed, compose_master
from repro.gpu.staging import StagingManager
from repro.gpu.system import MultiGPUSystem
from repro.memory.placement import PlacementPolicy
from repro.pipeline.smp import SMPMode
from repro.pipeline.workunit import WorkUnit, merge_units
from repro.profiling import phase
from repro.scene.scene import Frame
from repro.stats.metrics import FrameResult


class _BatchBuilder:
    """Shared OO_APP front end: frame -> (batch, merged work unit)."""

    def __init__(self, framework: RenderingFramework) -> None:
        self._framework = framework
        self._middleware = OOMiddleware()

    def build(self, frame: Frame) -> List[Tuple[Batch, WorkUnit]]:
        """``frame`` -> ``[(batch, merged unit), ...]`` in draw order.

        The pairs depend only on the frame's objects, the middleware's
        grouping knobs and the (frozen) cost model, so the built pairs
        are memoised on the frame (:meth:`Frame.derived`) — cells
        sharing a workload skip Fig. 12 grouping and the batch merges.
        Batches and units are frozen; a fresh list is returned per call
        so no consumer can alias another cell's container.  The build
        runs inside the ``bind`` profiling phase.
        """
        return list(
            frame.derived(
                (
                    "batch_builder",
                    self._framework.config.cost,
                    self._middleware.triangle_limit,
                    self._middleware.tsl_threshold,
                ),
                lambda: self._build(frame),
            )
        )

    def _build(self, frame: Frame) -> Tuple[Tuple[Batch, WorkUnit], ...]:
        with phase("bind"):
            characterizer = self._framework.characterizer
            discount = self._framework.config.cost.batch_draw_discount
            batches = self._middleware.build_batches(frame.objects)
            # One vectorized pass prices every object's multi-view draw
            # (frame.object_batch order == frame.objects order); each
            # batch then just gathers its members' units in draw order,
            # so the merge sees the exact units the per-draw loop built.
            units_by_object = dict(
                zip(
                    (obj.object_id for obj in frame.objects),
                    characterizer.characterize_frame(
                        frame, mode=SMPMode.SIMULTANEOUS, expansion="multiview"
                    ),
                )
            )
            out: List[Tuple[Batch, WorkUnit]] = []
            for batch in batches:
                units = tuple(
                    units_by_object[obj.object_id] for obj in batch.objects
                )
                merged = merge_units(f"batch{batch.batch_id}", units)
                if len(batch.objects) > 1:
                    # Texture-sorted submission needs fewer state changes.
                    merged = replace(
                        merged,
                        draw_count=max(1.0, merged.draw_count * discount),
                    )
                out.append((batch, merged))
            return tuple(out)


@register_framework("oo-app")
class OOAppFramework(RenderingFramework):
    """OO_APP: programming model + middleware, software distribution."""

    placement_policy = PlacementPolicy.FIRST_TOUCH
    root: int = 0

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        super().__init__(config)
        self._builder = _BatchBuilder(self)

    def render_frame_on(
        self, system: MultiGPUSystem, frame: Frame, workload: str
    ) -> FrameResult:
        num_gpms = system.num_gpms
        rendered_pixels = [0.0] * num_gpms
        # Software distribution extends object-level SFR: each batch's
        # working set is staged to its GPM.  SMP and TSL grouping make
        # the staged bytes far smaller than per-eye object staging, but
        # the copies still stall the render (no PA units here).
        staging = StagingManager(
            system,
            factor=self.config.cost.batch_stage_factor,
            parallelism=self.config.cost.stage_parallelism,
        )
        staging.begin_frame()
        for batch, unit in self._builder.build(frame):
            # Master-slave software distribution: the next batch goes to
            # whichever worker reported done first.  No prediction, no
            # pre-allocation — big batches still strand stragglers.
            gpm = system.engine.next_idle()
            staging.stage_unit(unit, gpm)
            system.execute_unit(
                unit, gpm, fb_targets={gpm: 1.0}, command_source=self.root
            )
            rendered_pixels[gpm] += unit.pixels_out
        compose_master(system, rendered_pixels, root=self.root)
        return system.frame_result(self.name, workload)


@register_framework("oo-vr")
class OOVRFramework(RenderingFramework):
    """The full OO-VR software/hardware co-design."""

    placement_policy = PlacementPolicy.FIRST_TOUCH

    def __init__(self, config: Optional[SystemConfig] = None) -> None:
        super().__init__(config)
        self._builder = _BatchBuilder(self)
        #: The last frame's dispatch records, for diagnostics/tests.
        self.last_engine: Optional[DistributionEngine] = None

    def render_frame_on(
        self, system: MultiGPUSystem, frame: Frame, workload: str
    ) -> FrameResult:
        engine = DistributionEngine(system, RenderingTimePredictor())
        self.last_engine = engine
        rendered_pixels = engine.dispatch(self._builder.build(frame))
        compose_distributed(system, rendered_pixels)
        return system.frame_result(self.name, workload)
