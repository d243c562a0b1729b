"""The NUMA-based multi-GPU machine.

:class:`MultiGPUSystem` owns the *machine*: the GPMs, the page
placement map, the per-GPM DRAM trackers and remote caches, and the
link fabric.  *Timing* — how a bound unit's demands turn into cycles,
and how concurrent flows share links and DRAM — is delegated to a
pluggable :class:`~repro.engine.base.ExecutionEngine`
(:mod:`repro.engine`), named when the machine is built:
``MultiGPUSystem(config, policy, engine)``, which a framework calls
with the run's engine (:attr:`RunSpec.engine
<repro.session.spec.RunSpec.engine>`), while the
:class:`~repro.config.SystemConfig` describes the hardware only.  The
machine's work splits into:

- **binding** (engine-independent): a work unit's memory touches
  resolve through the placement map into local DRAM bytes (filtered by
  the memory-side L2) and remote link bytes (filtered only by the small
  remote cache — the local L2 cannot cache peer addresses);
- **pricing** (engine-specific): the default ``analytic`` engine
  charges ``max(compute, local DRAM time, per-link time)`` per unit in
  isolation; the ``event`` engine replays the schedule through a
  discrete-event simulation that time-shares bandwidth across
  concurrently active flows;
- **framebuffer routing**: colour/depth bytes go wherever the active
  framebuffer layout says (interleaved for the naive baseline, private
  for sort-last workers, strip-owned for tile-SFR and DHC);
- **frame orchestration**: a static schedule bound in one slice pass
  (:meth:`~repro.engine.base.ExecutionEngine.execute_split`, the
  software schemes) or units dispatched one at a time
  (:meth:`execute_unit`, the OO-VR distribution engine),
  rolled up into a :class:`~repro.stats.metrics.FrameResult` via the
  engine's :class:`~repro.engine.trace.FrameTrace`.  Staging copies and
  the composition barrier are engine-priced phases too
  (:meth:`~repro.engine.base.ExecutionEngine.stage_flow` /
  :meth:`~repro.engine.base.ExecutionEngine.composition_phase`) — the
  system keeps no frame-timing state of its own.
"""

from __future__ import annotations

from typing import Any, Callable, List, Mapping, Optional, Sequence

from repro.config import SystemConfig
from repro.engine import FrameTrace, build_engine
from repro.memory.address import Resource
from repro.memory.dram import DramTracker, make_trackers
from repro.memory.link import LinkFabric
from repro.memory.placement import PagePlacement, PlacementPolicy
from repro.memory.remote_cache import RemoteCache
from repro.pipeline.workunit import WorkUnit
from repro.gpu.gpm import GPM
from repro.stats.metrics import FrameResult, TrafficBreakdown, UnitExecution

#: Maps a work unit's framebuffer bytes to owner GPMs: {gpm: fraction}.
FramebufferTargets = Mapping[int, float]

class MultiGPUSystem:
    """The simulated machine all rendering frameworks run on."""

    def __init__(
        self,
        config: SystemConfig,
        placement_policy: PlacementPolicy = PlacementPolicy.FIRST_TOUCH,
        engine: str = "analytic",
    ) -> None:
        config.validate()
        self.config = config
        self.gpms: List[GPM] = [
            GPM(gpm_id=i, config=config.gpm) for i in range(config.num_gpms)
        ]
        self.placement = PagePlacement(
            config.num_gpms, config.page_bytes, placement_policy
        )
        self.fabric = LinkFabric(
            config.num_gpms,
            config.link.bytes_per_cycle,
            config.link.latency_cycles,
        )
        self.drams: List[DramTracker] = make_trackers(
            config.num_gpms, config.gpm.dram_bytes_per_cycle
        )
        self.remote_caches: List[RemoteCache] = [
            RemoteCache(float(config.remote_cache_bytes if config.numa_optimizations else 0))
            for _ in range(config.num_gpms)
        ]
        #: Optional hook told of every remote slice a touch resolves to
        #: (page-migration studies), as rows: called with ``(resources,
        #: resource, toucher, nbytes)``, row ``i`` pulling ``nbytes[i]``
        #: of ``resources[resource[i]]`` into GPM ``toucher[i]``.  A
        #: per-unit bind hands it one row per crossing, a slice pass all
        #: of its crossing rows at once, in visit order.
        self.remote_observer: Optional[
            Callable[[Sequence[Resource], Any, Any, Any], None]
        ] = None
        #: The timing/orchestration strategy (see :mod:`repro.engine`).
        self.engine = build_engine(engine, self)
        #: Trace of the most recently rolled-up frame (diagnostics/CLI).
        self.last_trace: Optional[FrameTrace] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def num_gpms(self) -> int:
        return self.config.num_gpms

    def begin_frame(self) -> None:
        """Reset per-frame state.

        Page ownership persists across frames (resources stay where
        earlier frames placed them, as on real hardware); experiments
        reset placement between *configurations* by building a fresh
        system.
        """
        for gpm in self.gpms:
            gpm.begin_frame()
        for dram in self.drams:
            dram.reset()
        for cache in self.remote_caches:
            cache.reset()
        self.fabric.reset()
        self.engine.begin_frame()

    def release(self) -> None:
        """End the machine's life with its cell.

        The machine and its engine point at each other, and a
        dispatcher's completion subscription points back at the
        machine, so a finished cell would otherwise wait for the cyclic
        collector — and peak RSS with it.  Dropping the engine (which
        drops the machine and its subscribers) leaves no cycle; the
        counters, placement and last trace stay readable, the engine
        does not.
        """
        engine = self.engine
        del self.engine
        engine.release()

    # -- unit execution ------------------------------------------------------

    def execute_unit(
        self,
        unit: WorkUnit,
        gpm_id: int,
        fb_targets: Optional[FramebufferTargets] = None,
        command_source: int = 0,
        start_at: Optional[float] = None,
    ) -> UnitExecution:
        """Bind ``unit`` to GPM ``gpm_id`` and schedule it on the engine."""
        resolved = self.engine.bind(
            unit, gpm_id, fb_targets=fb_targets, command_source=command_source
        )
        return self.engine.execute(resolved, start_at=start_at)

    # -- frame orchestration ---------------------------------------------------

    def frame_result(self, framework: str, workload: str) -> FrameResult:
        """Roll the current frame's state into a result record.

        The engine finalises the frame into a
        :class:`~repro.engine.trace.FrameTrace` (kept on
        :attr:`last_trace`) covering every phase — render lanes,
        staging copies and the composition barrier: the analytic
        engine reports its scheduling clock verbatim, the event engine
        replays the schedule (staging and composition flows included)
        through its contention-aware simulation.  Frame latency is the
        trace's render critical path plus its composition barrier;
        byte counters (traffic, DRAM, residency) come straight from
        the machine and are identical under every engine.
        """
        trace = self.engine.finish_frame()
        self.last_trace = trace
        busy = list(trace.gpm_busy)
        render_critical_path = trace.render_critical_path
        cycles = render_critical_path + trace.composition_cycles
        return FrameResult(
            framework=framework,
            workload=workload,
            cycles=max(cycles, 1.0),
            gpm_busy_cycles=busy,
            composition_cycles=trace.composition_cycles,
            traffic=TrafficBreakdown(self.fabric.bytes_by_type()),
            dram_bytes=[d.total_bytes for d in self.drams],
            resident_bytes=self.placement.total_resident_bytes,
        )
