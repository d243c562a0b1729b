"""Software data staging: distributing data along with the work.

Every object-level scheme in the paper moves *data to the renderer*
rather than reading it through the links during shading:

- classic **object-level SFR** "distributes the rendering object along
  with its required data per GPM" (Section 1);
- **tile-level SFR** inherits the distributed-memory habit of cluster
  frameworks: each strip's working set is (re-)staged into its GPM's
  memory segment every frame;
- **OO_APP** stages per batch, which is cheaper because TSL grouping
  co-locates sharers and SMP halves the per-object footprint;
- **OO-VR**'s PA units stage the same bytes but *ahead of time*, so the
  copy latency hides behind the previous batch (Section 5.2).

The :class:`StagingManager` resolves those copies: per frame and per
(resource, GPM) pair it tracks how much has been staged, replicates the
pages locally (so render-time reads hit local DRAM) and computes the
shortfall each touch still has to move.  The copy itself — byte
accounting *and* pricing — is the execution engine's job: the manager
emits the shortfalls as a staging flow
(:meth:`~repro.engine.base.ExecutionEngine.stage_flow`), and the engine
decides what the copy costs (the analytic overlap stall, or a
contention-replayed wire flow under the event engine).  Statically
scheduled frames (tile-level and object-level SFR) hand the manager to
the slice pass instead
(:meth:`~repro.engine.base.ExecutionEngine.execute_split`), which
applies the same rules to every slice of the frame and lands each
copy as ``stage_flow`` would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.engine.base import StageCopy, StageOutcome
from repro.gpu.system import MultiGPUSystem
from repro.memory.address import Resource
from repro.memory.link import TrafficType
from repro.pipeline.workunit import WorkUnit


@dataclass
class StagingManager:
    """Per-frame staging bookkeeping for one rendering framework."""

    system: MultiGPUSystem
    #: Staged bytes per unique touched byte (page/mip overfetch).
    factor: float = 1.0
    #: Effective parallelism of the copy (incoming links x overlap with
    #: rendering); the stall a GPM sees is ``bytes / (link_bw x this)``.
    parallelism: float = 6.0
    #: When True the copy is fully prefetched (OO-VR's PA units): the
    #: traffic is accounted but no stall is charged.
    prefetched: bool = False
    traffic_type: TrafficType = TrafficType.TEXTURE
    _staged: Dict[Tuple[Tuple[str, int], int], float] = field(default_factory=dict)
    #: Total bytes copied this frame (tests and reports read this).
    staged_bytes: float = 0.0

    def begin_frame(self) -> None:
        """Segmented memories refill each frame: forget what was staged."""
        self._staged.clear()
        self.staged_bytes = 0.0

    def source(self, gpm: int) -> int:
        """The GPM a copy into ``gpm`` streams from."""
        return (gpm + 1) % self.system.num_gpms

    def _stage_touch(
        self, resource: Resource, unique_bytes: float, gpm: int,
        scale: float = 1.0,
    ) -> float:
        """Resolve one touch's placement; returns the copy shortfall.

        Pure placement bookkeeping — the returned bytes still have to
        be moved, which the engine does when :meth:`stage_unit` emits
        the collected shortfalls as one staging flow (or the slice
        pass, :meth:`~repro.engine.base.ExecutionEngine.execute_split`,
        lands them before each slice).
        """
        placement = self.system.placement
        if not placement.is_placed(resource):
            # First toucher: pages land local for free (first touch by
            # the staging copy itself).
            placement.place_fixed(resource, gpm)
            self._staged[(resource.resource_id, gpm)] = float(resource.size_bytes)
            return 0.0
        if placement.is_home(resource, gpm):
            # The resource's home DRAM: nothing to move, ever.
            return 0.0
        # Replicate immediately so render-time reads go to local DRAM;
        # the copy bytes accumulate with use, capped at the footprint.
        placement.replicate(resource, [gpm])
        key = (resource.resource_id, gpm)
        factor = self.factor * scale
        wanted = min(
            float(resource.size_bytes) * max(factor, 1.0),
            self._staged.get(key, 0.0) + unique_bytes * factor,
        )
        shortfall = wanted - self._staged.get(key, 0.0)
        if shortfall <= 0:
            return 0.0
        self._staged[key] = wanted
        return shortfall

    def stage_unit(
        self,
        unit: WorkUnit,
        gpm: int,
        factor_scale: float = 1.0,
        overlap_from: Optional[float] = None,
    ) -> StageOutcome:
        """Stage everything ``unit`` needs on ``gpm``.

        Render-time texture reads are redirected to local DRAM by
        recording the staged copy; vertex buffers are tiny and stage
        along with the command stream.  ``factor_scale`` lets callers
        stage per view (tile-SFR copies each eye region's data even
        though SMP shares the cached footprint).  ``overlap_from`` is
        the PA path: the copy streams from that point in time and the
        returned outcome carries when it lands.  All pricing — the
        stall charged on a software copy, the overlapped arrival of a
        prefetched one — is the engine's
        (:meth:`~repro.engine.base.ExecutionEngine.stage_flow`).
        """
        src = self.source(gpm)
        copies: List[StageCopy] = []
        for touch in unit.texture_touches:
            copies.append(
                StageCopy(
                    src, gpm,
                    self._stage_touch(
                        touch.resource, touch.unique_bytes, gpm, factor_scale
                    ),
                    self.traffic_type,
                )
            )
        for touch in unit.vertex_touches:
            copies.append(
                StageCopy(
                    src, gpm,
                    self._stage_touch(
                        touch.resource, touch.unique_bytes, gpm, factor_scale
                    ),
                    self.traffic_type,
                )
            )
        outcome = self.system.engine.stage_flow(
            gpm,
            copies,
            parallelism=self.parallelism,
            prefetched=self.prefetched,
            overlap_from=overlap_from,
            staged_before=self.staged_bytes,
        )
        self.staged_bytes += outcome.copied_bytes
        return outcome
