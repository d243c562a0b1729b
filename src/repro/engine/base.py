"""The pluggable execution-engine layer.

:class:`~repro.gpu.system.MultiGPUSystem` owns *what* the machine is
(GPMs, DRAMs, the link fabric, page placement); an
:class:`ExecutionEngine` owns *when* things happen on it.  The split is

- :meth:`ExecutionEngine.bind` — resolve a work unit's memory touches
  through the placement map into local DRAM bytes, per-peer link bytes
  and per-DRAM demand, performing the frame's byte accounting (fabric
  transfers, DRAM counters, remote-cache filtering) exactly once.  The
  result is a :class:`ResolvedUnit`: everything timing needs, with no
  further placement state involved;
- :meth:`ExecutionEngine.execute` — schedule a resolved unit on its
  GPM and advance the engine's *scheduling clock* (the per-GPM
  ``ready_at``/``busy_cycles`` every dispatcher reads).  Both engines
  price the scheduling clock with the analytic per-unit roofline, so
  dispatch decisions — and therefore schedules, placement and traffic
  — are identical across engines;
- :meth:`ExecutionEngine.execute_split` — :meth:`bind` plus
  :meth:`execute` for every slice of a statically scheduled frame
  (the baseline family, tile-level and object-level SFR, AFR), each
  staged slice's :meth:`stage_flow` landing before it, batched into
  one pass with bit-identical side effects (:mod:`repro.engine.split`);
- :meth:`ExecutionEngine.stage_flow` — account and price one unit's
  staging/PA copies.  Byte accounting (fabric transfers, destination
  DRAM writes) is shared; the *visible* cost is engine-specific: the
  scheduling clock charges the analytic overlap formula (a stall of
  ``bytes / (link bandwidth x parallelism)``, or nothing when the copy
  is prefetched), while the event engine additionally replays the copy
  as a background flow contending with render traffic on the wires;
- :meth:`ExecutionEngine.composition_phase` — run the post-render
  composition barrier from a :class:`CompositionSchedule` (per-GPM ROP
  work plus the pixel transfers sort-last assembly moves).  Again the
  byte accounting is shared and the pricing diverges: the analytic
  engine charges ``max(ROP time, slowest transfer)``, the event engine
  simulates the barrier's flows against each other;
- :meth:`ExecutionEngine.finish_frame` — produce the frame's
  :class:`~repro.engine.trace.FrameTrace`.  This is where the engines
  diverge: :class:`~repro.engine.analytic.AnalyticEngine` reports the
  scheduling clock verbatim (the paper-reproducing model), while
  :class:`~repro.engine.event.EventEngine` replays the schedule through
  a discrete-event simulation that time-shares link and DRAM bandwidth
  across concurrently active flows.

Every phase of a frame — render units, staging copies, the composition
barrier — is therefore expressed to the engine as work it prices; no
call site computes overlap or barrier arithmetic of its own, and the
engine's :class:`~repro.engine.trace.FrameTrace` times every byte the
fabric counts.

Dispatchers (the OO-VR distribution engine, OO_APP's master-slave loop,
straggler stealing) talk to the engine through the scheduling-clock API
(:meth:`ready_at`, :meth:`next_idle`, :meth:`stall`,
:meth:`steal_into`, :meth:`shed_tail`) and through completion callbacks
(:meth:`on_complete`) instead of doing clock arithmetic on raw GPM
state, so the same policy code runs under either timing model.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.engine.trace import PHASES, FrameTrace, LinkUsage, TraceInterval
from repro.memory.address import ResourceKind, Touch
from repro.memory.cache import miss_bytes
from repro.memory.link import TrafficType
from repro.pipeline.timing import price_work_unit
from repro.pipeline.workunit import WorkUnit
from repro.profiling import phase as profiled_phase
from repro.stats.metrics import UnitExecution

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.split import SliceSchedule, SplitSlices
    from repro.gpu.staging import StagingManager
    from repro.gpu.system import FramebufferTargets, MultiGPUSystem

__all__ = [
    "EngineError",
    "LinkFlow",
    "ResolvedUnit",
    "StageCopy",
    "StageOutcome",
    "CompositionTransfer",
    "CompositionSchedule",
    "ExecutionEngine",
    "classify_bottleneck",
    "KIND_TO_TRAFFIC",
]


class EngineError(ValueError):
    """Raised when an engine is misused or a simulation cannot finish."""


#: Memory-resource kinds mapped to the link-traffic category they bill.
KIND_TO_TRAFFIC = {
    ResourceKind.TEXTURE: TrafficType.TEXTURE,
    ResourceKind.VERTEX: TrafficType.VERTEX,
    ResourceKind.FRAMEBUFFER: TrafficType.FRAMEBUFFER,
    ResourceKind.DEPTH: TrafficType.ZTEST,
    ResourceKind.COMMAND: TrafficType.COMMAND,
}


def classify_bottleneck(
    compute: float, dram: float, link: float, cycles: float, base: str
) -> str:
    """The unit's bottleneck resource, with deterministic tie-breaking.

    Precedence on exact ties is fixed (and relied on by tests):

    1. ``link`` — when the unit time equals the link time and the links
       are slower than compute (equal ``dram``/``link`` cycles resolve
       to ``link``: the remote stream is the scarcer resource);
    2. ``dram`` — when the unit time equals the local DRAM time and
       DRAM is slower than compute;
    3. otherwise the compute-stage bottleneck (``base``) — including
       when memory time exactly equals compute time.
    """
    if cycles == link and link > compute:
        return "link"
    if cycles == dram and dram > compute:
        return "dram"
    return base


@dataclass(frozen=True)
class LinkFlow:
    """One logical inter-GPM transfer a bound unit caused."""

    src: int
    dst: int
    nbytes: float
    traffic: TrafficType


@dataclass(frozen=True)
class ResolvedUnit:
    """A work unit bound to a GPM: all demands, no placement state.

    Produced by :meth:`ExecutionEngine.bind`; consumed by
    :meth:`ExecutionEngine.execute`.  ``link_bytes`` is the per-peer
    roll-up the analytic roofline prices (insertion order matters: the
    pricing ``max()`` iterates it); ``flows`` keeps every directional
    transfer for the event engine's contention model; ``dram_demand``
    is bytes each DRAM must serve for this unit (its own local traffic
    plus remote reads/writes served for peers).
    """

    label: str
    gpm: int
    compute_cycles: float
    #: Slowest pipeline stage, used when compute bounds the unit.
    base_bottleneck: str
    local_dram_bytes: float
    link_bytes: Mapping[int, float]
    flows: Tuple[LinkFlow, ...]
    dram_demand: Mapping[int, float]
    #: Progress counters forwarded to the GPM's hardware counters.
    vertices: float
    pixels_out: float
    triangles_raster: float

    @property
    def remote_bytes(self) -> float:
        return sum(self.link_bytes.values())


@dataclass(frozen=True)
class StageCopy:
    """One staging/PA copy chunk bound for a GPM's local DRAM.

    Zero-byte chunks are legal (a touch that needed no shortfall) and
    priced as nothing; they keep the chunk list aligned with the touch
    list for diagnostics.
    """

    src: int
    dst: int
    nbytes: float
    traffic: TrafficType


@dataclass(frozen=True)
class StageOutcome:
    """What one :meth:`ExecutionEngine.stage_flow` call did.

    ``copied_bytes`` is the exact chunk total (what the staging
    manager's frame counter advances by); ``landed_bytes`` is the same
    quantity as the PA hardware observes it — the delta of its
    cumulative DMA counter (``staged_before``), whose floating-point
    rounding the prediction pipeline inherits; ``ready_at`` is when an
    overlapped copy lands (``None`` unless ``overlap_from`` was given).
    """

    copied_bytes: float
    landed_bytes: float
    stall_cycles: float
    ready_at: Optional[float] = None


@dataclass(frozen=True)
class CompositionTransfer:
    """One worker-to-owner pixel transfer of a composition schedule."""

    src: int
    dst: int
    nbytes: float


@dataclass(frozen=True)
class CompositionSchedule:
    """The post-render composition barrier, as work the engine prices.

    Built by :mod:`repro.gpu.composition` from a
    :class:`~repro.pipeline.rop.CompositionCost`: ``rop_cycles`` maps
    each writing GPM to the ROP time of its framebuffer share (one
    entry for master composition, all GPMs for DHC), ``transfers`` are
    the pixel movements in schedule order, ``dram_writes`` the final
    framebuffer writes per owner.  The engine performs the byte
    accounting and decides how long the barrier takes.
    """

    label: str
    rop_cycles: Mapping[int, float]
    transfers: Tuple[CompositionTransfer, ...] = ()
    dram_writes: Tuple[Tuple[int, float], ...] = ()

    @property
    def total_transfer_bytes(self) -> float:
        return sum(t.nbytes for t in self.transfers)


class ExecutionEngine(abc.ABC):
    """Timing/orchestration strategy for one :class:`MultiGPUSystem`."""

    #: Stable identifier (``analytic`` / ``event``) used in configs,
    #: run specs, the variant grammar and traces.
    name: str = "abstract"

    def __init__(self, system: "MultiGPUSystem") -> None:
        self.system = system
        self._intervals: List[TraceInterval] = []
        self._callbacks: List[
            Callable[[ResolvedUnit, UnitExecution], None]
        ] = []
        #: Inter-GPM bytes each frame phase moved (engine-independent).
        self._phase_bytes: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        #: Accumulated composition critical path on the scheduling clock.
        self._composition_cycles: float = 0.0
        #: Composition-barrier intervals (separate from the render lane
        #: so :meth:`shed_tail` clipping never touches them).
        self._compose_intervals: List[TraceInterval] = []

    # -- lifecycle -----------------------------------------------------------

    def begin_frame(self) -> None:
        """Reset per-frame engine state (subscriptions included)."""
        self._intervals.clear()
        self._callbacks.clear()
        self._phase_bytes = {phase: 0.0 for phase in PHASES}
        self._composition_cycles = 0.0
        self._compose_intervals.clear()

    def on_complete(
        self, callback: Callable[[ResolvedUnit, UnitExecution], None]
    ) -> None:
        """Subscribe to unit-completion events on the scheduling clock.

        Dispatchers use this instead of reading execution records out
        of band: the callback fires once per executed unit, in
        completion order on the scheduling clock, with the resolved
        unit and its execution record.  Subscriptions are cleared by
        :meth:`begin_frame`.
        """
        self._callbacks.append(callback)

    # -- binding (shared by every engine) ------------------------------------

    def bind(
        self,
        unit: WorkUnit,
        gpm_id: int,
        fb_targets: Optional["FramebufferTargets"] = None,
        command_source: int = 0,
    ) -> ResolvedUnit:
        """Resolve ``unit``'s memory image for GPM ``gpm_id``.

        Performs the frame's byte accounting (fabric transfers, DRAM
        byte counters, remote-cache filtering, first-touch placement)
        exactly once — binding is engine-independent, so both engines
        agree on every traffic figure by construction.
        """
        system = self.system
        if not 0 <= gpm_id < system.num_gpms:
            raise ValueError(f"GPM {gpm_id} out of range")
        with profiled_phase("price"):
            breakdown = price_work_unit(
                unit, system.config.gpm, system.config.cost
            )
        with profiled_phase("bind"):
            return self._bind_resolved(
                unit, gpm_id, fb_targets, command_source, breakdown
            )

    def _bind_resolved(
        self,
        unit: WorkUnit,
        gpm_id: int,
        fb_targets: Optional["FramebufferTargets"],
        command_source: int,
        breakdown,
    ) -> ResolvedUnit:
        system = self.system
        local_bytes = 0.0
        link_bytes: Dict[int, float] = {}
        flows: List[LinkFlow] = []
        dram_demand: Dict[int, float] = {}

        def absorb(pair: Tuple[float, Dict[int, float]]) -> None:
            nonlocal local_bytes
            local_part, remote_part = pair
            local_bytes += local_part
            for peer, nbytes in remote_part.items():
                link_bytes[peer] = link_bytes.get(peer, 0.0) + nbytes

        for touch in unit.texture_touches:
            absorb(self._resolve_touch(touch, gpm_id, flows, dram_demand))
        for touch in unit.vertex_touches:
            absorb(self._resolve_touch(touch, gpm_id, flows, dram_demand))
        absorb(
            self._resolve_framebuffer(
                unit, gpm_id, fb_targets, flows, dram_demand
            )
        )

        if unit.command_bytes > 0 and command_source != gpm_id:
            system.fabric.transfer(
                command_source, gpm_id, unit.command_bytes, TrafficType.COMMAND
            )
            flows.append(
                LinkFlow(
                    command_source, gpm_id, unit.command_bytes,
                    TrafficType.COMMAND,
                )
            )
            link_bytes[command_source] = (
                link_bytes.get(command_source, 0.0) + unit.command_bytes
            )

        self._phase_bytes["render"] += sum(flow.nbytes for flow in flows)
        return ResolvedUnit(
            label=unit.label,
            gpm=gpm_id,
            compute_cycles=breakdown.compute_cycles,
            base_bottleneck=breakdown.bottleneck,
            local_dram_bytes=local_bytes,
            link_bytes=link_bytes,
            flows=tuple(flows),
            dram_demand=dram_demand,
            vertices=unit.vertices,
            pixels_out=unit.pixels_out,
            triangles_raster=unit.triangles_raster,
        )

    def _resolve_touch(
        self,
        touch: Touch,
        gpm_id: int,
        flows: List[LinkFlow],
        dram_demand: Dict[int, float],
    ) -> Tuple[float, Dict[int, float]]:
        """Split one touch into (local DRAM bytes, {peer: link bytes}).

        Local slices are filtered by the memory-side L2 (stream collapses
        towards the unique footprint); remote slices are filtered only by
        the remote cache and consume both the link and the owner's DRAM.
        """
        system = self.system
        fractions = system.placement.owner_fractions(touch.resource, gpm_id)
        traffic = KIND_TO_TRAFFIC[touch.resource.kind]
        local_bytes = 0.0
        remote: Dict[int, float] = {}
        for owner, fraction in fractions.items():
            stream = touch.stream_bytes * fraction
            unique = touch.unique_bytes * fraction
            writes = touch.write_bytes * fraction
            if owner == gpm_id:
                local_bytes += miss_bytes(
                    stream, unique, float(system.config.gpm.l2_bytes)
                ) + writes
                continue
            crossing = system.remote_caches[gpm_id].filter(stream, unique) + writes
            if crossing > 0:
                system.fabric.transfer(owner, gpm_id, crossing, traffic)
                system.drams[owner].serve_remote(crossing)
                flows.append(LinkFlow(owner, gpm_id, crossing, traffic))
                dram_demand[owner] = dram_demand.get(owner, 0.0) + crossing
                remote[owner] = remote.get(owner, 0.0) + crossing
                if system.remote_observer is not None:
                    system.remote_observer(touch.resource, gpm_id, crossing)
        if local_bytes > 0:
            system.drams[gpm_id].read(local_bytes)
            dram_demand[gpm_id] = dram_demand.get(gpm_id, 0.0) + local_bytes
        return local_bytes, remote

    def _resolve_framebuffer(
        self,
        unit: WorkUnit,
        gpm_id: int,
        fb_targets: Optional["FramebufferTargets"],
        flows: List[LinkFlow],
        dram_demand: Dict[int, float],
    ) -> Tuple[float, Dict[int, float]]:
        """Depth-test and colour-write traffic for ``unit``.

        ``fb_targets`` maps owner GPMs to the fraction of this unit's
        framebuffer region they hold; ``None`` means the render target
        is private and local (sort-last worker buffers).
        """
        system = self.system
        targets: "FramebufferTargets" = fb_targets or {gpm_id: 1.0}
        local_bytes = 0.0
        remote: Dict[int, float] = {}
        z_write = unit.pixels_out * system.config.cost.bytes_per_ztest
        for owner, fraction in targets.items():
            z_stream = unit.z_stream_bytes * fraction
            z_unique = unit.z_unique_bytes * fraction
            color = unit.fb_write_bytes * fraction
            z_w = z_write * fraction
            if owner == gpm_id:
                local_bytes += (
                    miss_bytes(
                        z_stream, z_unique, float(system.config.gpm.l2_bytes)
                    )
                    + color
                    + z_w
                )
                continue
            crossing_z = system.remote_caches[gpm_id].filter(z_stream, z_unique)
            if crossing_z > 0:
                system.fabric.transfer(
                    owner, gpm_id, crossing_z, TrafficType.ZTEST
                )
                system.drams[owner].serve_remote(crossing_z)
                flows.append(
                    LinkFlow(owner, gpm_id, crossing_z, TrafficType.ZTEST)
                )
                dram_demand[owner] = dram_demand.get(owner, 0.0) + crossing_z
            writes = color + z_w
            if writes > 0:
                system.fabric.transfer(
                    gpm_id, owner, writes, TrafficType.FRAMEBUFFER
                )
                system.drams[owner].serve_remote(writes)
                flows.append(
                    LinkFlow(gpm_id, owner, writes, TrafficType.FRAMEBUFFER)
                )
                dram_demand[owner] = dram_demand.get(owner, 0.0) + writes
            total = crossing_z + writes
            if total > 0:
                remote[owner] = remote.get(owner, 0.0) + total
        if local_bytes > 0:
            system.drams[gpm_id].write(local_bytes)
            dram_demand[gpm_id] = dram_demand.get(gpm_id, 0.0) + local_bytes
        return local_bytes, remote

    # -- statically scheduled frames -----------------------------------------

    def execute_split(
        self,
        units: Sequence[WorkUnit],
        schedule: "SliceSchedule",
        staging: Optional["StagingManager"] = None,
    ) -> None:
        """Bind and execute a statically scheduled frame in one pass.

        ``schedule`` (a :class:`~repro.engine.split.SliceSchedule`)
        lists the frame's slices in visit order, each one of ``units``
        on one GPM with its own pixel and geometry shares, unique and
        stream inflation, command source and framebuffer target (a
        shared owner map, or the slice's own GPM).  Every counter,
        trace interval and recorded job lands bit-identically to
        shaping each slice with ``with_screen_share`` and running
        :meth:`bind` plus :meth:`execute` on it, which stays the oracle
        (see :mod:`repro.engine.split`), at a fraction of the cost.

        ``staging`` is the optional staging prelude: a software
        :class:`~repro.gpu.staging.StagingManager` whose rules resolve
        every slice's copy, which then lands before the slice renders
        exactly as ``staging.stage_unit(slice, gpm, factor_scale)``
        with the slice's ``stage_scale`` lands it.

        Completion callbacks cannot fire from the batched pass, so a
        frame with an :meth:`on_complete` subscriber is rejected with
        :class:`EngineError` before anything is bound.
        """
        if self._callbacks:
            raise EngineError(
                "execute_split cannot fire on_complete callbacks; bind and "
                "execute the slices one by one instead"
            )
        # Imported here: the slice pass builds on this module.
        from repro.engine.split import execute_split

        execute_split(self, units, schedule, staging)

    # -- scheduling clock ----------------------------------------------------

    def price(self, resolved: ResolvedUnit) -> Tuple[float, float, float, str]:
        """Analytic roofline for one unit in isolation.

        Returns ``(dram_cycles, link_cycles, cycles, bottleneck)``.
        This is the scheduling-clock price both engines use (and the
        final price under the analytic engine): the unit costs the max
        of compute, local DRAM time and the slowest per-peer link time.
        On routed fabrics a transfer loads every link on its route;
        bytes x hops is the standard proxy for the bandwidth that wire
        load steals from concurrent flows, and per-hop latency stacks.
        """
        system = self.system
        compute = resolved.compute_cycles
        dram_cycles = (
            resolved.local_dram_bytes / system.config.gpm.dram_bytes_per_cycle
        )
        link_cycles = 0.0
        if resolved.link_bytes:
            link_cycles = max(
                nbytes
                * system.fabric.hops(peer, resolved.gpm)
                / system.config.link.bytes_per_cycle
                + system.config.link.latency_cycles
                * system.fabric.hops(peer, resolved.gpm)
                for peer, nbytes in resolved.link_bytes.items()
            )
        cycles = max(compute, dram_cycles, link_cycles)
        bottleneck = classify_bottleneck(
            compute, dram_cycles, link_cycles, cycles, resolved.base_bottleneck
        )
        return dram_cycles, link_cycles, cycles, bottleneck

    def execute(
        self, resolved: ResolvedUnit, start_at: Optional[float] = None
    ) -> UnitExecution:
        """Schedule ``resolved`` on its GPM and advance the clock."""
        system = self.system
        gpm = system.gpms[resolved.gpm]
        with profiled_phase("price"):
            dram_cycles, link_cycles, cycles, bottleneck = self.price(
                resolved
            )
        begin = (
            gpm.ready_at if start_at is None else max(gpm.ready_at, start_at)
        )
        gpm.run(resolved.label, cycles, start_at=start_at)
        gpm.record_progress(
            resolved.vertices, resolved.pixels_out, resolved.triangles_raster
        )
        self._intervals.append(
            TraceInterval(
                gpm=resolved.gpm,
                label=resolved.label,
                start=begin,
                end=gpm.ready_at,
                kind="render",
            )
        )
        self._note_unit(resolved, start_at, cycles)
        execution = UnitExecution(
            gpm=resolved.gpm,
            compute_cycles=resolved.compute_cycles,
            local_dram_cycles=dram_cycles,
            link_cycles=link_cycles,
            cycles=cycles,
            remote_bytes=resolved.remote_bytes,
            bottleneck=bottleneck,
        )
        for callback in self._callbacks:
            callback(resolved, execution)
        return execution

    def stall(self, gpm_id: int, label: str, cycles: float) -> None:
        """Charge non-render occupancy (a staging copy the GPM waits on)."""
        gpm = self.system.gpms[gpm_id]
        begin = gpm.ready_at
        gpm.run(label, cycles)
        self._intervals.append(
            TraceInterval(
                gpm=gpm_id, label=label, start=begin, end=gpm.ready_at,
                kind="stall",
            )
        )
        self._note_stall(gpm_id, label, cycles)

    def steal_into(
        self, src: int, dst: int, label: str, cycles: float, nbytes: float
    ) -> None:
        """Absorb a straggler slice on ``dst`` (with STEAL duplication)."""
        gpm = self.system.gpms[dst]
        begin = gpm.ready_at
        gpm.run(label, cycles)
        self.system.fabric.transfer(src, dst, nbytes, TrafficType.STEAL)
        if src != dst and nbytes > 0:
            self._phase_bytes["render"] += nbytes
        self._intervals.append(
            TraceInterval(
                gpm=dst, label=label, start=begin, end=gpm.ready_at,
                kind="steal",
            )
        )
        self._note_steal(src, dst, label, cycles, nbytes)

    def shed_tail(self, gpm_id: int, cycles: float) -> None:
        """Remove stolen tail cycles from the straggler's schedule."""
        straggler = self.system.gpms[gpm_id]
        straggler.ready_at -= cycles
        straggler.busy_cycles = max(0.0, straggler.busy_cycles - cycles)
        # Clip the interval log to the rewound clock so the trace stays
        # consistent (the stolen tail now renders on the thieves).
        horizon = straggler.ready_at
        clipped = []
        for span in self._intervals:
            if span.gpm != gpm_id or span.end <= horizon:
                clipped.append(span)
            elif span.start < horizon:
                clipped.append(replace(span, end=horizon))
            # else: the whole span was stolen; drop it.
        self._intervals[:] = clipped
        self._note_shed(gpm_id, cycles)

    def ready_at(self, gpm_id: int) -> float:
        """When GPM ``gpm_id`` next goes idle on the scheduling clock."""
        return self.system.gpms[gpm_id].ready_at

    def next_idle(self) -> int:
        """The GPM that goes idle first (lowest id wins exact ties)."""
        return min(
            range(self.system.num_gpms), key=lambda g: self.ready_at(g)
        )

    # -- staging flows -------------------------------------------------------

    def stage_flow(
        self,
        gpm_id: int,
        copies: Sequence[StageCopy],
        *,
        parallelism: float = 1.0,
        prefetched: bool = False,
        overlap_from: Optional[float] = None,
        staged_before: float = 0.0,
        label: str = "stage",
    ) -> StageOutcome:
        """Account and price one unit's staging copies into ``gpm_id``.

        The byte accounting (fabric transfers, destination DRAM writes)
        happens here, once, in chunk order — engine-independent like
        binding, so per-phase byte totals agree across engines.  The
        *visible* cost on the scheduling clock is the analytic overlap
        model: a prefetched copy (OO-VR's PA units) streams behind the
        previous batch and charges nothing, a software copy stalls the
        GPM for ``bytes / (link bandwidth x parallelism)`` where
        ``parallelism`` folds incoming-link count and copy/render
        overlap into one factor.  When ``overlap_from`` is given (the
        PA path), the returned ``ready_at`` is when the copy lands:
        ``overlap_from`` plus the counter-delta bytes at full link
        bandwidth.  Engines may additionally replay the copy as a
        background flow (see :class:`~repro.engine.event.EventEngine`).
        """
        system = self.system
        if not 0 <= gpm_id < system.num_gpms:
            raise ValueError(f"GPM {gpm_id} out of range")
        if parallelism <= 0:
            raise EngineError("staging parallelism must be positive")
        total = 0.0
        for copy in copies:
            if copy.nbytes <= 0:
                continue
            system.fabric.transfer(copy.src, copy.dst, copy.nbytes, copy.traffic)
            system.drams[copy.dst].write(copy.nbytes)
            total += copy.nbytes
            if copy.src != copy.dst:
                # Phase totals count what the fabric counts: a
                # single-GPM "copy" never leaves the XBAR.
                self._phase_bytes["staging"] += copy.nbytes
        stall = 0.0
        if total > 0 and not prefetched:
            stall = total / (
                system.config.link.bytes_per_cycle * parallelism
            )
            gpm = system.gpms[gpm_id]
            begin = gpm.ready_at
            gpm.run(label, stall)
            self._intervals.append(
                TraceInterval(
                    gpm=gpm_id, label=label, start=begin, end=gpm.ready_at,
                    kind="stall",
                )
            )
        landed = total
        ready_at: Optional[float] = None
        if overlap_from is not None:
            # The PA unit measures the copy off its cumulative DMA
            # counter; the register delta is what the predictor sees.
            landed = (staged_before + total) - staged_before
            ready_at = overlap_from + landed / system.config.link.bytes_per_cycle
        self._note_stage(
            gpm_id, tuple(copies), total, stall, parallelism, prefetched,
            overlap_from, label,
        )
        return StageOutcome(
            copied_bytes=total,
            landed_bytes=landed,
            stall_cycles=stall,
            ready_at=ready_at,
        )

    # -- the composition barrier ---------------------------------------------

    def composition_phase(self, schedule: CompositionSchedule) -> float:
        """Run ``schedule``'s composition barrier; returns its price.

        Byte accounting (pixel transfers, owner DRAM traffic) happens
        here in schedule order, shared by every engine.  The returned
        value is the analytic barrier price — ``max(slowest GPM's ROP
        time, slowest transfer)`` — which accumulates into the trace's
        :attr:`~repro.engine.trace.FrameTrace.composition_cycles` on
        the analytic engine; the event engine re-prices the barrier by
        simulating its flows against each other and reports that
        instead (the return value stays the scheduling-clock estimate).
        """
        system = self.system
        worst_link_cycles = 0.0
        for transfer in schedule.transfers:
            cycles = system.fabric.transfer(
                transfer.src, transfer.dst, transfer.nbytes,
                TrafficType.COMPOSITION,
            )
            system.drams[transfer.dst].serve_remote(transfer.nbytes)
            worst_link_cycles = max(worst_link_cycles, cycles)
        for gpm_id, nbytes in schedule.dram_writes:
            system.drams[gpm_id].write(nbytes)
        rop_cycles = max(schedule.rop_cycles.values(), default=0.0)
        critical_path = max(rop_cycles, worst_link_cycles)
        self._phase_bytes["composition"] += schedule.total_transfer_bytes
        self._composition_cycles += critical_path
        barrier = max(gpm.ready_at for gpm in system.gpms)
        for gpm_id in sorted(schedule.rop_cycles):
            self._compose_intervals.append(
                TraceInterval(
                    gpm=gpm_id,
                    label=schedule.label,
                    start=barrier,
                    end=barrier + critical_path,
                    kind="compose",
                )
            )
        self._note_composition(schedule, critical_path)
        return critical_path

    # -- event-recording hooks (no-ops on the analytic engine) ----------------

    def _note_unit(
        self, resolved: ResolvedUnit, start_at: Optional[float], cycles: float
    ) -> None:
        """Hook: a unit entered the schedule at its scheduling price."""

    def _note_split(self, split: "SplitSlices") -> None:
        """Hook: a slice pass's slices (and their staging copies)
        entered the schedule."""

    def _note_stall(self, gpm_id: int, label: str, cycles: float) -> None:
        """Hook: a stall entered the schedule."""

    def _note_steal(
        self, src: int, dst: int, label: str, cycles: float, nbytes: float
    ) -> None:
        """Hook: a steal slice entered the schedule."""

    def _note_shed(self, gpm_id: int, cycles: float) -> None:
        """Hook: tail cycles left the straggler's schedule."""

    def _note_stage(
        self,
        gpm_id: int,
        copies: Tuple[StageCopy, ...],
        total_bytes: float,
        stall_cycles: float,
        parallelism: float,
        prefetched: bool,
        overlap_from: Optional[float],
        label: str,
    ) -> None:
        """Hook: a staging flow entered the schedule."""

    def _note_composition(
        self, schedule: CompositionSchedule, critical_path: float
    ) -> None:
        """Hook: a composition barrier entered the schedule."""

    # -- finalisation --------------------------------------------------------

    def _fabric_usage(self) -> Tuple[LinkUsage, ...]:
        """Per-link usage from the fabric's byte counters.

        Occupancy is bytes/bandwidth — exact for the analytic model,
        where flows on one link never overlap in its pricing.
        """
        fabric = self.system.fabric
        return tuple(
            LinkUsage(
                src=stats.src,
                dst=stats.dst,
                nbytes=stats.bytes_total,
                busy_cycles=stats.bytes_total / fabric.bytes_per_cycle,
            )
            for stats in fabric
        )

    @abc.abstractmethod
    def finish_frame(self) -> FrameTrace:
        """Finalise the frame and return its trace.

        Must be safe to call more than once per frame; every call
        reflects the schedule submitted so far.
        """
