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
asks :meth:`StagingManager.stage_visits` for a whole pass's shortfalls
at once and lands each copy as ``stage_flow`` would.  That entry point
applies the one-touch rules (:meth:`StagingManager._stage_touch`) to
every visit in visit order, with no call per visit: each (resource, GPM)
pair's first visit decides from per-resource state whether it places
the resource, finds its home or replicates it there
(:meth:`~repro.memory.placement.PagePlacement.localize`), and each
pair's copies then grow visit by visit, clamped at the footprint, as
columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import columns
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

    def stage_visits(
        self,
        resources: Sequence[Resource],
        resource: np.ndarray,
        gpm: np.ndarray,
        unique_bytes: np.ndarray,
        scale: np.ndarray,
    ) -> np.ndarray:
        """Every visit's copy shortfall, as :meth:`_stage_touch` resolves
        the visits one by one, in order.

        Visit ``i`` touches ``unique_bytes[i]`` of
        ``resources[resource[i]]`` from GPM ``gpm[i]`` at stage scale
        ``scale[i]``; ``resources`` are distinct, in first-visit order.
        The placement makes every visit local first
        (:meth:`~repro.memory.placement.PagePlacement.localize`); a
        visit that placed its resource stages its footprint, and a
        visit to the resource's home copies nothing.  Every other
        (resource, GPM) pair stages ``min(cap, staged + unique x
        factor)`` visit by visit, the cap scaling with the visit's
        stage scale, and :attr:`_staged` changes land in first-change
        order.
        """
        placed, home = self.system.placement.localize(resources, resource, gpm)
        sizes = np.array([item.size_bytes for item in resources], np.float64)
        ids = [item.resource_id for item in resources]
        n = self.system.num_gpms
        # The (resource, GPM) pairs away from the resource's home, in
        # first-visit order, and each pair's staged bytes so far.
        away = np.flatnonzero(~home)
        pairs, _, pair = columns.first_use(
            resource[away] * n + gpm[away], len(resources) * n
        )
        keys = list(
            zip(map(ids.__getitem__, (pairs // n).tolist()), (pairs % n).tolist())
        )
        before = np.fromiter(
            map(self._staged.get, keys, repeat(0.0)), np.float64, len(keys)
        )
        factor = self.factor * scale[away]
        staged, step = _grow(
            before,
            pair,
            sizes[resource[away]] * np.maximum(factor, 1.0),
            unique_bytes[away] * factor,
        )
        copied = step > 0
        shortfall = np.zeros(resource.size)
        shortfall[away[copied]] = step[copied]
        # A first toucher's pair is set to the footprint where it places
        # the resource; any other pair changes at its first copy.
        placing = np.flatnonzero(placed)
        changed, first, _ = columns.first_use(pair[copied], len(keys))
        visit = np.concatenate((placing, away[copied][first]))
        key = list(
            zip(map(ids.__getitem__, resource[placing].tolist()),
                gpm[placing].tolist())
        ) + list(map(keys.__getitem__, changed.tolist()))
        value = np.concatenate((sizes[resource[placing]], staged[changed])).tolist()
        self._staged.update(
            (key[i], value[i]) for i in np.argsort(visit, kind="stable").tolist()
        )
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


def _grow(
    before: np.ndarray, pair: np.ndarray, cap: np.ndarray, add: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Staged bytes per pair after its visits, and each visit's step.

    Pair ``p`` starts at ``before[p]``; visit ``i`` (in order) asks for
    ``min(cap[i], staged + add[i])`` of pair ``pair[i]`` and its step is
    that minus the pair's staged bytes, which take the new value only
    when the step is positive.  With one cap over a pair's visits, its
    staged bytes are its running sum clamped at the cap, and a
    sequential ``np.add.accumulate`` per pair row makes the scalar
    additions in their order; a pair whose cap changes between visits
    is clamped visit by visit.
    """
    pairs = before.size
    if not pair.size:
        return before, np.zeros(0)
    counts = np.bincount(pair, minlength=pairs)
    order = np.argsort(pair, kind="stable")
    rank = np.empty(pair.size, np.int64)
    rank[order] = np.arange(pair.size) - (np.cumsum(counts) - counts)[pair[order]]
    width = int(counts.max())
    steps = np.zeros((pairs, width + 1))
    steps[:, 0] = before
    steps[pair, rank + 1] = add
    low = np.full(pairs, np.inf)
    np.minimum.at(low, pair, cap)
    high = np.zeros(pairs)
    np.maximum.at(high, pair, cap)
    clamped = np.minimum(low[:, None], np.add.accumulate(steps, axis=1))
    # A pair that starts above its cap never changes.
    staged = np.maximum(before, clamped[:, -1])
    step = np.diff(clamped, axis=1)
    varying = np.flatnonzero(low != high)
    if varying.size:
        caps = np.full((pairs, width), np.inf)
        caps[pair, rank] = cap
        caps = caps[varying]
        adds = steps[varying, 1:]
        held = before[varying]
        for k in range(width):
            wanted = np.minimum(caps[:, k], held + adds[:, k])
            delta = wanted - held
            step[varying, k] = delta
            held = np.where(delta > 0, wanted, held)
        staged[varying] = held
    return staged, step[pair, rank]
