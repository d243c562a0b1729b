"""Hot-page migration: the NUMA-GPU alternative to pre-allocation.

The NUMA-GPU systems the paper builds on (its references [5, 25, 43])
reduce remote accesses with *reactive* mechanisms — first-touch
placement, remote caching, and page migration — while OO-VR is
*proactive*: the distribution engine pre-allocates a batch's data
before rendering touches it.  This module implements the reactive
migration engine so the two philosophies can be compared on the same
workloads:

- a :class:`MigrationEngine` watches each frame's remote-touch counts
  per resource and per GPM;
- at frame end it migrates the hottest resources to their dominant
  consumer (bounded by a per-frame byte budget, as real drivers bound
  migration rate to protect bandwidth);
- migrated bytes cross the links as ``PREALLOC`` traffic and the next
  frame reads them locally.

On single-consumer workloads migration converges to OO-VR-like
locality after a frame of lag; on texture-shared workloads it thrashes
(two GPMs pulling the same pages back and forth), which is exactly the
sharing pattern TSL batching removes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.memory.address import Resource
from repro.memory.link import TrafficType

__all__ = ["MigrationConfig", "MigrationEngine", "migration_study"]


@dataclass(frozen=True)
class MigrationConfig:
    """Migration policy knobs.

    Parameters
    ----------
    touch_threshold_bytes:
        Remote bytes a (resource, GPM) pair must accumulate within one
        frame before the resource becomes a migration candidate.
    budget_bytes_per_frame:
        Upper bound on bytes migrated per frame (driver rate limit).
    """

    touch_threshold_bytes: float = 256 * 1024.0
    budget_bytes_per_frame: float = 64 * 1024 * 1024.0

    def __post_init__(self) -> None:
        if self.touch_threshold_bytes < 0:
            raise ValueError("touch threshold cannot be negative")
        if self.budget_bytes_per_frame <= 0:
            raise ValueError("migration budget must be positive")


class MigrationEngine:
    """Observes remote touches and migrates hot pages between frames."""

    def __init__(self, config: Optional[MigrationConfig] = None) -> None:
        self.config = config or MigrationConfig()
        #: (resource_id) -> {gpm: remote bytes this frame}
        self._touches: Dict[Tuple[str, int], Dict[int, float]] = {}
        self._resources: Dict[Tuple[str, int], Resource] = {}
        #: Total bytes migrated over the engine's lifetime.
        self.migrated_bytes_total = 0.0
        #: Migration decisions of the last :meth:`end_frame` call.
        self.last_migrations: List[Tuple[str, int, float]] = []

    def observe_remote(
        self, resource: Resource, toucher: int, nbytes: float
    ) -> None:
        """Record that ``toucher`` pulled ``nbytes`` of ``resource``
        across the links this frame."""
        if nbytes <= 0:
            return
        key = resource.resource_id
        self._resources[key] = resource
        per_gpm = self._touches.setdefault(key, {})
        per_gpm[toucher] = per_gpm.get(toucher, 0.0) + nbytes

    def end_frame(self, system) -> float:
        """Migrate the hottest resources; returns bytes moved.

        ``system`` is a :class:`~repro.gpu.system.MultiGPUSystem`; the
        move is charged on its fabric and the placement map is updated
        so the *next* frame's touches resolve locally.
        """
        candidates: List[Tuple[float, Tuple[str, int], int]] = []
        for key, per_gpm in self._touches.items():
            gpm, heat = max(per_gpm.items(), key=lambda kv: kv[1])
            if heat >= self.config.touch_threshold_bytes:
                candidates.append((heat, key, gpm))
        candidates.sort(reverse=True)

        moved_total = 0.0
        self.last_migrations = []
        for heat, key, gpm in candidates:
            if moved_total >= self.config.budget_bytes_per_frame:
                break
            resource = self._resources[key]
            moved = system.placement.migrate(resource, gpm)
            if moved <= 0:
                continue
            moved_total += moved
            self.last_migrations.append((str(key), gpm, moved))
            # The copy streams from each previous owner; charging the
            # dominant consumer's incoming links is the common case
            # (single previous owner) and conservative otherwise.
            for peer in range(system.num_gpms):
                if peer != gpm:
                    share = moved / max(1, system.num_gpms - 1)
                    system.fabric.transfer(
                        peer, gpm, share, TrafficType.PREALLOC
                    )
        self._touches.clear()
        self.migrated_bytes_total += moved_total
        return moved_total

    @property
    def pending_resources(self) -> int:
        """Resources with recorded remote touches this frame."""
        return len(self._touches)


def _register_migration_framework() -> None:
    """Register ``baseline-mig``: the naive baseline + hot-page migration.

    The baseline is where reactive migration has something to do: its
    application uploads land on one GPM and every other GPM streams
    them over the links (Fig. 3's rabbit).  Object-level SFR and OO-VR
    already localise read data by construction (staging / PA units), so
    attaching the engine there would be a no-op.

    Defined lazily in a function so importing this module never forces
    the frameworks package (and its registry) to load first.
    """
    from repro.frameworks.base import register_framework
    from repro.frameworks.single import SingleKernelBaseline
    from repro.gpu.system import MultiGPUSystem
    from repro.scene.scene import Frame
    from repro.stats.metrics import FrameResult

    @register_framework("baseline-mig")
    class MigratingBaseline(SingleKernelBaseline):
        """Single-programming-model baseline with page migration.

        The reactive counterpart to OO-VR's proactive pre-allocation:
        frame N's remote touches drive migrations that only help frame
        N+1.  Because the baseline splits every draw across all GPMs,
        a migrated page is local to *one* consumer and still remote to
        the rest — migration recovers only a fraction of the traffic
        and keeps paying copy bytes, which is the measured argument for
        distribution-aware placement over reactive placement.
        """

        def __init__(self, config=None, migration=None) -> None:
            super().__init__(config)
            self.engine = MigrationEngine(migration)

        def render_frame_on(
            self, system: MultiGPUSystem, frame: Frame, workload: str
        ) -> FrameResult:
            system.remote_observer = self.engine.observe_remote
            try:
                self.bind_frame(system, frame)
            finally:
                system.remote_observer = None
            # The migration copies only move pages and charge fabric
            # bytes, so the frame is finished once, after them: its
            # PREALLOC traffic belongs to this frame's bill.
            self.engine.end_frame(system)
            return system.frame_result(self.name, workload)

    del MigratingBaseline  # registered by decorator; name unused


_register_migration_framework()


def migration_study(
    schemes: Sequence[str] = ("baseline", "baseline-mig", "oo-vr"),
    experiment=None,
) -> Dict[str, Tuple[float, float]]:
    """Reactive migration vs proactive pre-allocation, per scheme.

    One declarative (scheme x workload) :class:`~repro.session.Sweep`
    (``experiment`` preset, default :data:`~repro.session.FULL`) over
    the ``baseline-mig`` framework and its comparands.  Returns
    ``{scheme: (speedup, traffic_ratio)}`` — geomean over workloads,
    both relative to the plain baseline.
    """
    from repro.experiments.runner import (
        single_frame_speedups,
        traffic_ratios,
    )
    from repro.session import FULL, Sweep
    from repro.stats.metrics import geomean

    experiment = experiment or FULL
    frameworks = list(schemes)
    if "baseline" not in frameworks:  # the normalisation reference
        frameworks.append("baseline")
    results = (
        Sweep()
        .preset(experiment)
        .frameworks(*frameworks)
        .run()
    )
    base = results.by_workload(framework="baseline")
    summary: Dict[str, Tuple[float, float]] = {}
    for scheme in schemes:
        mine = results.by_workload(framework=scheme)
        speedup = geomean(list(single_frame_speedups(mine, base).values()))
        traffic = geomean(list(traffic_ratios(mine, base).values()))
        summary[scheme] = (speedup, traffic)
    return summary
