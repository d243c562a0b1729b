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

Every ablation and middleware design point (``oo-vr:no-dhc``,
``oo-vr:tsl=0.3``, ... — :mod:`repro.frameworks.variants`) is the same
:class:`OOVRFramework`, built with its
:class:`~repro.core.ablation.OOVRFeatures` switches and its
:class:`~repro.core.middleware.OOMiddleware`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

from repro.config import SystemConfig
from repro.core.ablation import OOVRFeatures
from repro.core.distribution import DistributionEngine
from repro.core.middleware import Batch, OOMiddleware
from repro.core.predictor import RenderingTimePredictor
from repro.frameworks.base import RenderingFramework, register_framework
from repro.gpu.composition import compose_distributed, compose_master
from repro.gpu.staging import StagingManager
from repro.gpu.system import MultiGPUSystem
from repro.memory.placement import PlacementPolicy
from repro.pipeline.smp import SMPMode
from repro.pipeline.workunit import WorkUnit, merge_rows
from repro.profiling import phase
from repro.scene.scene import Frame
from repro.stats.metrics import FrameResult


class _BatchBuilder:
    """Shared OO_APP front end: frame -> (batch, merged work unit).

    The middleware groups the frame's objects into Fig. 12 batches, and
    each batch's unit is merged straight from the rows of the frame's
    memoised multi-view unit table (:func:`merge_rows`), so no
    per-object :class:`WorkUnit` or :class:`~repro.memory.address.Touch`
    is built on the way.
    """

    def __init__(
        self,
        framework: RenderingFramework,
        middleware: Optional[OOMiddleware] = None,
    ) -> None:
        # What the build reads, not the framework: a builder pointing
        # back at the framework that owns it would leave both to the
        # cyclic collector.
        self._cost = framework.config.cost
        self._characterizer = framework.characterizer
        if middleware is None:
            middleware = OOMiddleware()
        self._middleware = middleware

    def build(self, frame: Frame) -> List[Tuple[Batch, WorkUnit]]:
        """``frame`` -> ``[(batch, merged unit), ...]`` in draw order.

        The pairs depend only on the frame's objects, the middleware's
        grouping knobs and the (frozen) cost model, so the built pairs
        are memoised on the frame (:meth:`Frame.derived`) — cells
        sharing a workload skip Fig. 12 grouping and the batch merges,
        for as long as the frame's scene stays memoised (a serial sweep
        lets it go when it moves on to the next workload point).
        Batches and units are frozen; a fresh list is returned per call
        so no consumer can alias another cell's container.  The build
        runs inside the ``bind`` profiling phase.
        """
        return list(
            frame.derived(
                (
                    "batch_builder",
                    self._cost,
                    self._middleware.triangle_limit,
                    self._middleware.tsl_threshold,
                ),
                lambda: self._build(frame),
            )
        )

    def _build(self, frame: Frame) -> Tuple[Tuple[Batch, WorkUnit], ...]:
        with phase("bind"):
            discount = self._cost.batch_draw_discount
            batches = self._middleware.build_batches(frame.objects)
            # The frame's multi-view unit table holds one row per object
            # in draw order (frame.object_batch order == frame.objects
            # order); each batch merges its members' rows in member
            # order, so the merge reads the units a per-draw walk builds.
            table = self._characterizer.unit_columns(
                frame, mode=SMPMode.SIMULTANEOUS, expansion="multiview"
            )
            row_of = {
                obj.object_id: row for row, obj in enumerate(frame.objects)
            }
            merged = merge_rows(
                table,
                [
                    (
                        f"batch{batch.batch_id}",
                        [row_of[obj.object_id] for obj in batch.objects],
                    )
                    for batch in batches
                ],
            )
            out: List[Tuple[Batch, WorkUnit]] = []
            for batch, unit in zip(batches, merged):
                if len(batch.objects) > 1:
                    # Texture-sorted submission needs fewer state changes.
                    unit = replace(
                        unit,
                        draw_count=max(1.0, unit.draw_count * discount),
                    )
                out.append((batch, unit))
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
    """The OO-VR software/hardware co-design.

    ``features`` selects which hardware mechanisms run (all of them by
    default; without DHC the frame composes on GPM 0's ROPs), and
    ``middleware`` groups the batches (the paper's TSL > 0.5 and
    4096-triangle cap by default).
    """

    placement_policy = PlacementPolicy.FIRST_TOUCH

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        features: OOVRFeatures = OOVRFeatures(),
        middleware: Optional[OOMiddleware] = None,
    ) -> None:
        super().__init__(config)
        self.features = features
        self._builder = _BatchBuilder(self, middleware)
        #: The last frame's dispatch records, for diagnostics/tests.
        self.last_engine: Optional[DistributionEngine] = None

    def release(self) -> None:
        """Let the last machine go.  OO-VR holds it twice: through
        ``last_system``, which the base class drops, and through
        ``last_engine``, the distribution engine that dispatched on
        it, dropped here."""
        self.last_engine = None
        super().release()

    def render_frame_on(
        self, system: MultiGPUSystem, frame: Frame, workload: str
    ) -> FrameResult:
        engine = DistributionEngine(
            system, RenderingTimePredictor(), self.features
        )
        self.last_engine = engine
        rendered_pixels = engine.dispatch(self._builder.build(frame))
        if self.features.distributed_composition:
            compose_distributed(system, rendered_pixels)
        else:
            compose_master(system, rendered_pixels, root=0)
        return system.frame_result(self.name, workload)
