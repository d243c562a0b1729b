"""The discrete-event engine: contention-aware frame timing.

The analytic model prices every work unit in isolation; real frames
overlap, and the scarce resources — each link's ``bytes_per_cycle``
and each DRAM stack's bandwidth — are *time-shared* between whatever
flows are active in the same window.  :class:`EventEngine` keeps the
analytic scheduling clock (so dispatch decisions, placement and byte
accounting stay identical to the analytic engine) and replays the
submitted schedule through a fluid discrete-event simulation:

- each GPM runs its submitted units in order, one at a time, honouring
  earliest-start floors (PA copy arrival);
- an active unit makes progress on all its demands concurrently:
  compute at rate 1, each DRAM demand at that DRAM's bandwidth divided
  by its concurrent consumers, each link flow (after its per-hop wire
  latency) at the bandwidth of the most contended link on its route
  divided by that link's concurrent flows and by its hop count (the
  same bytes x hops wire-load serialisation the analytic model
  charges, so the two engines agree when nothing overlaps);
- a unit completes when its last demand drains; the global clock
  advances between completions, starts and rate changes.

Every frame phase is replayed, not just render units:

- **staging copies** are link flows.  A software copy (tile/object
  SFR, OO_APP) occupies its GPM as a ``stall``-kind job whose demand
  is the copy stream draining at ``parallelism`` times its bandwidth
  share — uncontended it lasts exactly the analytic overlap stall,
  contended it stretches with the wires.  A prefetched PA copy is a
  *background* flow: it never occupies the GPM (the schedule already
  floors the batch at the analytic copy-arrival time), but it streams
  on the links and the destination DRAM concurrently with rendering,
  stealing bandwidth from render flows — the cost of "free"
  pre-allocation the analytic model cannot see.  Background copies
  appear in the trace as a ``stage`` lane;
- **the composition barrier** starts when the simulated render phase
  ends and is simulated as its own window: every worker's pixel
  transfers contend on the links while the stripe owners' ROP work
  runs as compute, and :attr:`FrameTrace.composition_cycles
  <repro.engine.trace.FrameTrace.composition_cycles>` is the
  simulated barrier length (``compose`` lane intervals).  Destination
  DRAM is deliberately not billed here — the analytic barrier price is
  ROP/link-bound, and keeping the same demand set preserves the
  uncontended equivalence between engines.  The two windows are
  simulated independently: a background copy still draining when the
  last render lane ends (rare — PA floors precede their batch's
  start) finishes in the render window's tail without coupling to the
  barrier's flows, so its ``stage`` span may outlast
  ``render_critical_path``.

The schedule is recorded as columns (:class:`_Recording`): one entry
per job — label, GPM, kind, start floor, compute and provisional
cycles, and whether it is a background copy — plus its DRAM rows and
flow rows in CSR order, each flow naming its route through a route
table.  The recording hooks append a job at a time; a slice pass
(:meth:`~repro.engine.base.ExecutionEngine.execute_split`) appends all
its jobs at once from its columns, so no per-slice object is ever
built, and a tail shed scales the rows in place.  Both window loops
replay the same recording: the incremental loop,
:meth:`EventEngine._simulate`, and the full-scan oracle,
:meth:`EventEngine._simulate_reference`, through :class:`_JobArrays`.

Uncontended, a single flow drains in exactly the analytic roofline
time — on any fabric.  One deliberate divergence remains: the analytic
model rolls a unit's traffic *per peer* into one serial term, even
when it mixes directions (z-reads peer->gpm plus fb-writes gpm->peer),
while the event engine drains opposite directions in parallel — the
links are full-duplex wire pairs.  Bidirectional link-bound units can
therefore finish slightly *faster* here (study factors a fraction of a
percent under 1.0); everything beyond that gap is the time congestion
steals, the quantity the engine-contention study measures.
"""

from __future__ import annotations

import time
from array import array
from collections import deque
from dataclasses import dataclass
from operator import truediv
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.engine.base import (
    CompositionSchedule,
    EngineError,
    ExecutionEngine,
    ResolvedUnit,
    StageCopy,
)
from repro.engine.trace import FrameTrace, LinkUsage, TraceInterval
from repro.profiling import add_counter

__all__ = ["EventEngine"]

#: Demand below this many bytes/cycles counts as drained (float dust).
_EPS = 1e-6
#: Relative epsilon for time comparisons.
_REL = 1e-12
#: Consecutive zero-length windows tolerated before the degenerate-
#: schedule diagnostic fires.  A zero-length window means active jobs
#: exist but *nothing* can progress (every live demand drains at rate
#: zero — e.g. an infinite wire latency or a zero-rate flow), so the
#: loop would otherwise spin silently; no reachable schedule from the
#: public recording API produces even one.
_MAX_ZERO_WINDOWS = 8

Link = Tuple[int, int]


#: Recorded job kinds; a job's ``kind`` column holds the index.
_KINDS = ("render", "stall", "steal", "stage", "compose")
_RENDER, _STALL, _STEAL, _STAGE, _COMPOSE = range(len(_KINDS))
#: The numpy dtype of each column typecode.
_DTYPES = {"b": np.int8, "q": np.int64, "d": np.float64}


def _put(column: array, values) -> None:
    """Append ``values`` (a numpy column) to ``column``."""
    column.frombytes(np.asarray(values, _DTYPES[column.typecode]).tobytes())


class _Recording:
    """The jobs one simulation pass replays, as columns.

    Job ``j`` is labelled ``labels[j]``, runs on GPM ``gpm[j]`` and has
    kind ``_KINDS[kind[j]]``, start floor ``floor[j]``, compute cycles
    ``compute[j]`` and scheduling-clock price ``provisional[j]`` (used to
    scale stolen tails fairly).  A ``background[j]`` job (a prefetched
    staging copy) occupies no GPM: it only loads the wires and DRAM.
    The job's DRAM demands are rows ``dram_bounds[j]:dram_bounds[j + 1]``
    of ``dram_gpm``/``dram_bytes``, and its link transfers are rows
    ``flow_bounds[j]:flow_bounds[j + 1]`` of ``flow_route`` (an index
    into :attr:`routes`), ``flow_bytes``, ``flow_latency`` and
    ``flow_scale``.  A flow's ``flow_scale`` is its effective-bandwidth
    multiplier: staging copies stream over several incoming links at
    once, and the analytic overlap model folds that into one
    ``parallelism`` factor, mirrored here so the uncontended drain time
    matches the analytic stall exactly.

    Columns are ``array.array`` buffers, appended a job at a time by
    :meth:`add` or a slice pass at a time by :meth:`extend`: compact
    like numpy arrays, and cheap to grow one row at a time.
    """

    def __init__(self) -> None:
        self.labels: List[str] = []
        self.gpm = array("q")
        self.kind = array("b")
        self.background = array("b")
        self.floor = array("d")
        self.compute = array("d")
        self.provisional = array("d")
        self.dram_bounds = array("q", [0])
        self.dram_gpm = array("q")
        self.dram_bytes = array("d")
        self.flow_bounds = array("q", [0])
        self.flow_route = array("q")
        self.flow_bytes = array("d")
        self.flow_latency = array("d")
        self.flow_scale = array("d")
        #: The route table, in :meth:`route_id` order.
        self.routes: List[Tuple[Link, ...]] = []
        self._route_ids: Dict[Tuple[Link, ...], int] = {}

    def __len__(self) -> int:
        return len(self.labels)

    def route_id(self, route: Tuple[Link, ...]) -> int:
        """``route``'s index into :attr:`routes`, added on first use."""
        rid = self._route_ids.get(route)
        if rid is None:
            rid = self._route_ids[route] = len(self.routes)
            self.routes.append(route)
        return rid

    def add(
        self,
        label: str,
        gpm: int,
        kind: int,
        compute: float,
        provisional: float,
        *,
        floor: float = 0.0,
        dram: Iterable[Tuple[int, float]] = (),
        flows: Iterable[Tuple[int, float, float, float]] = (),
        background: bool = False,
    ) -> None:
        """Append one job: ``dram`` rows are ``(gpm, bytes)``, ``flows``
        rows ``(route id, bytes, latency, rate scale)``."""
        self.labels.append(label)
        self.gpm.append(gpm)
        self.kind.append(kind)
        self.background.append(background)
        self.floor.append(floor)
        self.compute.append(compute)
        self.provisional.append(provisional)
        for owner, nbytes in dram:
            self.dram_gpm.append(owner)
            self.dram_bytes.append(nbytes)
        self.dram_bounds.append(len(self.dram_bytes))
        for rid, nbytes, latency, scale in flows:
            self.flow_route.append(rid)
            self.flow_bytes.append(nbytes)
            self.flow_latency.append(latency)
            self.flow_scale.append(scale)
        self.flow_bounds.append(len(self.flow_bytes))

    def extend(
        self,
        labels: List[str],
        gpm: np.ndarray,
        kind: np.ndarray,
        compute: np.ndarray,
        provisional: np.ndarray,
        dram_counts: np.ndarray,
        dram_gpm: np.ndarray,
        dram_bytes: np.ndarray,
        flow_counts: np.ndarray,
        flow_route: np.ndarray,
        flow_bytes: np.ndarray,
        flow_latency: np.ndarray,
        flow_scale: np.ndarray,
    ) -> None:
        """Append GPM jobs without start floors, as numpy columns: job
        ``j`` owns the next ``dram_counts[j]`` DRAM rows and the next
        ``flow_counts[j]`` flow rows."""
        jobs = len(labels)
        self.labels.extend(labels)
        _put(self.gpm, gpm)
        _put(self.kind, kind)
        _put(self.background, np.zeros(jobs))
        _put(self.floor, np.zeros(jobs))
        _put(self.compute, compute)
        _put(self.provisional, provisional)
        _put(self.dram_bounds, len(self.dram_bytes) + np.cumsum(dram_counts))
        _put(self.dram_gpm, dram_gpm)
        _put(self.dram_bytes, dram_bytes)
        _put(self.flow_bounds, len(self.flow_bytes) + np.cumsum(flow_counts))
        _put(self.flow_route, flow_route)
        _put(self.flow_bytes, flow_bytes)
        _put(self.flow_latency, flow_latency)
        _put(self.flow_scale, flow_scale)


class _RunState:
    """Runtime handle of one activated job.

    The demand state itself lives in the pass's rows (the job is
    ``idx`` there); this is just the bookkeeping needed to emit the
    job's trace interval when it retires.
    """

    __slots__ = ("idx", "start")

    def __init__(self, idx: int, start: float) -> None:
        self.idx = idx
        self.start = start


class _JobArrays:
    """Struct-of-array demand state for one reference simulation pass.

    Built from a :class:`_Recording`'s columns after every
    ``_note_shed`` scale-down has been applied: the job compute column,
    every DRAM row above the dust threshold and every flow row, copied,
    so the loop drains them without touching the recording.  Each
    window's bandwidth shares, next-event horizon and depletion are then
    elementwise float64 expressions over these rows — the exact
    expressions the retired per-object loop evaluated, so completion
    times (and the goldens pinned on them) are bit-equal.  Routes are
    stored CSR-style over a first-seen link table so per-flow rates
    reduce with ``np.minimum.reduceat``.
    """

    def __init__(self, recording: _Recording) -> None:
        self.count = count = len(recording)
        self.compute = np.array(recording.compute, dtype=np.float64)
        jobs = np.arange(count, dtype=np.int64)
        dram_bounds = np.array(recording.dram_bounds, dtype=np.int64)
        dram_bytes = np.array(recording.dram_bytes, dtype=np.float64)
        # Mirrors the old _ActiveJob filter: float-dust DRAM demands
        # never participate.
        live = dram_bytes > _EPS
        self.dram_job = np.repeat(jobs, np.diff(dram_bounds))[live]
        self.dram_gpm = np.array(recording.dram_gpm, dtype=np.int64)[live]
        self.dram_rem = dram_bytes[live]
        self.job_f0 = np.array(recording.flow_bounds, dtype=np.int64)
        self.flow_job = np.repeat(jobs, np.diff(self.job_f0))
        self.flow_lat = np.array(recording.flow_latency, dtype=np.float64)
        self.flow_bytes = np.array(recording.flow_bytes, dtype=np.float64)
        self.flow_scale = np.array(recording.flow_scale, dtype=np.float64)
        # Contiguous per-job row ranges (jobs are recorded in order), so
        # activation/retirement toggles the row masks with one slice.
        self.job_d0 = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(self.dram_job, minlength=count), out=self.job_d0[1:]
        )
        # Link ids in first-seen order over the flows: only a route's
        # first use can bring links not seen before.  Row ``rid`` of
        # ``table`` holds route ``rid``'s link ids, padded.
        rids = np.array(recording.flow_route, dtype=np.int64)
        used, first = np.unique(rids, return_index=True)
        width = max(map(len, recording.routes), default=0)
        table = np.zeros((len(recording.routes), width), dtype=np.int64)
        link_ids: Dict[Link, int] = {}
        for rid in used[np.argsort(first)].tolist():
            for hop, link in enumerate(recording.routes[rid]):
                table[rid, hop] = link_ids.setdefault(link, len(link_ids))
        counts = np.array(
            [len(route) for route in recording.routes], dtype=np.int64
        )[rids]
        self.route_offsets = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(counts)]
        )
        self.route_links = table[rids][np.arange(width) < counts[:, None]]
        #: Flow row of each route element (for masking/bincount).
        self.route_rep = np.repeat(
            np.arange(rids.size, dtype=np.int64), counts
        )
        self.route_len = counts.astype(np.float64)
        #: Link table in first-seen order; row i is link id i.
        self.links: List[Link] = list(link_ids)
        # Open memory/flow components per job (a flow is one component:
        # done only once latency *and* bytes drain).  The simulation
        # copy is decremented as rows cross the dust threshold, so the
        # retirement predicate is two scalar reads, and a job with no
        # live demand at all completes instantly on activation (the
        # same predicate the per-object loop evaluated).
        pending = np.bincount(self.dram_job, minlength=count)
        not_done = (self.flow_lat > _EPS) | (self.flow_bytes > _EPS)
        self.pending0 = pending + np.bincount(
            self.flow_job[not_done], minlength=count
        )
        self.zero_demand = (self.compute <= _EPS) & (self.pending0 == 0)


@dataclass
class _SimResult:
    """Output of one simulation pass."""

    busy: List[float]
    end: List[float]
    intervals: List[TraceInterval]
    link_busy: Dict[Link, float]
    link_bytes: Dict[Link, float]
    #: Window-loop statistics: windows simulated and the total live
    #: rows (compute + DRAM + latency + streaming) those windows
    #: touched.  Diagnostics only — never part of the timing result.
    windows: int = 0
    live_rows: int = 0

    @property
    def makespan(self) -> float:
        horizon = max(self.end) if self.end else 0.0
        for span in self.intervals:
            horizon = max(horizon, span.end)
        return horizon


class EventEngine(ExecutionEngine):
    """Discrete-event timing over the analytic engine's schedule."""

    name = "event"

    def __init__(self, system) -> None:
        super().__init__(system)
        #: The frame's recorded jobs: GPM jobs and background copies.
        self._recording = _Recording()
        #: Composition barriers to simulate after the render phase.
        self._compositions: List[CompositionSchedule] = []

    def begin_frame(self) -> None:
        super().begin_frame()
        self._recording = _Recording()
        self._compositions.clear()

    # -- schedule recording ---------------------------------------------------

    def _routed(
        self,
        recording: _Recording,
        transfers: Iterable[Tuple[int, int, float]],
    ) -> List[Tuple[int, float, float, float]]:
        """The flow rows of ``(src, dst, bytes)`` transfers that cross a
        link: route id, bytes, per-hop wire latency and rate scale 1."""
        fabric = self.system.fabric
        latency = float(self.system.config.link.latency_cycles)
        rows = []
        for src, dst, nbytes in transfers:
            route = tuple(fabric.route(src, dst))
            if route:
                rid = recording.route_id(route)
                rows.append((rid, nbytes, latency * len(route), 1.0))
        return rows

    def _note_unit(
        self,
        resolved: ResolvedUnit,
        start_at: Optional[float],
        cycles: float,
    ) -> None:
        recording = self._recording
        recording.add(
            resolved.label,
            resolved.gpm,
            _RENDER,
            resolved.compute_cycles,
            cycles,
            floor=start_at or 0.0,
            dram=resolved.dram_demand.items(),
            flows=self._routed(
                recording,
                ((flow.src, flow.dst, flow.nbytes) for flow in resolved.flows),
            ),
        )

    def _note_split(self, split) -> None:
        """Append the pass: one render job per slice, exactly as
        :meth:`_note_unit` would record the slice's resolved unit, each
        staged slice's copy job first, exactly as :meth:`_note_stage`
        would record it."""
        recording = self._recording
        n = self.system.num_gpms
        fabric = self.system.fabric
        latency = float(self.system.config.link.latency_cycles)
        # Route id and hop count of every (src, dst) pair; -1: no link.
        pair_route = np.full(n * n, -1, np.int64)
        pair_hops = np.zeros(n * n, np.int64)
        for src in range(n):
            for dst in range(n):
                route = tuple(fabric.route(src, dst))
                if route:
                    pair_route[src * n + dst] = recording.route_id(route)
                    pair_hops[src * n + dst] = len(route)
        slices = len(split.labels)
        # The render jobs' flow rows: every transfer that crosses a link.
        pair = split.flow_src * n + split.flow_dst
        routed = pair_route[pair] >= 0
        pair = pair[routed]
        flow_slice = np.repeat(np.arange(slices), np.diff(split.flow_bounds))[
            routed
        ]
        # The copy jobs: one chunk each, streaming at ``parallelism``
        # times the hop-blind copy rate (see _note_stage).
        stages = split.stages
        stage = stages.slice
        copy_pair = stages.src * n + split.gpm[stage]
        streams = pair_route[copy_pair] >= 0
        copy_pair = copy_pair[streams]
        # Job order: each staged slice's copy, then its render job.
        per_slice = np.ones(slices, np.int64)
        per_slice[stage] = 2
        render_at = np.cumsum(per_slice) - 1
        stage_at = render_at[stage] - 1
        jobs = slices + stage.size
        gpm = np.empty(jobs, np.int64)
        gpm[render_at] = split.gpm
        gpm[stage_at] = split.gpm[stage]
        kind = np.full(jobs, _STALL, np.int8)
        kind[render_at] = _RENDER
        compute = np.empty(jobs)
        compute[render_at] = split.compute
        compute[stage_at] = np.where(streams, 0.0, stages.cycles)
        provisional = np.empty(jobs)
        provisional[render_at] = split.cycles
        provisional[stage_at] = stages.cycles
        source = np.full(jobs, slices)
        source[render_at] = np.arange(slices)
        labels = list(
            map([*split.labels, "stage"].__getitem__, source.tolist())
        )
        dram_slice, dram_gpm, dram_bytes = split.dram_rows()
        # Flow rows, render then copy, sorted stably into job order.
        row_job = np.concatenate((render_at[flow_slice], stage_at[streams]))
        order = np.argsort(row_job, kind="stable")
        flow_route = pair_route[np.concatenate((pair, copy_pair))][order]
        flow_bytes = np.concatenate(
            (split.flow_bytes[routed], stages.nbytes[streams])
        )[order]
        flow_latency = np.concatenate(
            (latency * pair_hops[pair], np.zeros(copy_pair.size))
        )[order]
        flow_scale = np.concatenate(
            (
                np.ones(pair.size),
                stages.parallelism * pair_hops[copy_pair],
            )
        )[order]
        recording.extend(
            labels, gpm, kind, compute, provisional,
            np.bincount(render_at[dram_slice], minlength=jobs),
            dram_gpm, dram_bytes,
            np.bincount(row_job, minlength=jobs),
            flow_route, flow_bytes, flow_latency, flow_scale,
        )

    def _note_stall(self, gpm_id: int, label: str, cycles: float) -> None:
        self._recording.add(label, gpm_id, _STALL, cycles, cycles)

    def _note_steal(
        self, src: int, dst: int, label: str, cycles: float, nbytes: float
    ) -> None:
        recording = self._recording
        recording.add(
            label,
            dst,
            _STEAL,
            cycles,
            cycles,
            flows=self._routed(recording, [(src, dst, nbytes)]),
        )

    def _note_shed(self, gpm_id: int, cycles: float) -> None:
        """Shrink the straggler's pending tail by ``cycles``.

        The stolen slice takes its share of the tail job's compute and
        memory demands with it (the thief re-reads the duplicated
        data), so the tail jobs scale down proportionally, newest
        first.
        """
        recording = self._recording
        gpm, kind = recording.gpm, recording.kind
        provisional = recording.provisional
        dram_bounds, dram_bytes = recording.dram_bounds, recording.dram_bytes
        flow_bounds, flow_bytes = recording.flow_bounds, recording.flow_bytes
        remaining = cycles
        for job in range(len(recording) - 1, -1, -1):
            if remaining <= _EPS:
                return
            if gpm[job] != gpm_id or kind[job] != _RENDER:
                continue
            p = provisional[job]
            if p <= _EPS:
                continue
            take = min(remaining, p)
            factor = (p - take) / p
            recording.compute[job] *= factor
            for row in range(dram_bounds[job], dram_bounds[job + 1]):
                dram_bytes[row] *= factor
            for row in range(flow_bounds[job], flow_bounds[job + 1]):
                flow_bytes[row] *= factor
            provisional[job] = p - take
            remaining -= take

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
        """Replay a staging copy as link flows instead of opaque time."""
        if total_bytes <= 0:
            return
        merged: Dict[Link, float] = {}
        for copy in copies:
            if copy.nbytes > 0 and copy.src != copy.dst:
                key = (copy.src, copy.dst)
                merged[key] = merged.get(key, 0.0) + copy.nbytes
        recording = self._recording
        fabric = self.system.fabric
        flows: List[Tuple[int, float, float, float]] = []
        for (src, dst), nbytes in merged.items():
            route = tuple(fabric.route(src, dst))
            if not route:
                continue
            # Copies stream: no per-request wire latency (the analytic
            # overlap stall has no latency term either).  The rate
            # compensates flow_rate()'s hop-count serialisation — the
            # analytic copy model is hop-blind (a pipelined DMA stream,
            # priced at raw link bandwidth on any fabric), so uncontended
            # drain time must equal the analytic stall / PA copy time
            # everywhere; contention still divides the rate through each
            # route link's user count.
            scale = (1.0 if prefetched else parallelism) * len(route)
            flows.append((recording.route_id(route), nbytes, 0.0, scale))
        if prefetched:
            if not flows:
                return
            recording.add(
                label,
                gpm_id,
                _STAGE,
                0.0,
                0.0,
                floor=overlap_from or 0.0,
                # The copy lands in the destination's DRAM while renders
                # read from it.
                dram=[(gpm_id, total_bytes)],
                flows=flows,
                background=True,
            )
            return
        recording.add(
            label,
            gpm_id,
            _STALL,
            # A pure flow job when routable; otherwise fall back to the
            # scheduling-clock stall so no time is lost.
            0.0 if flows else stall_cycles,
            stall_cycles,
            flows=flows,
        )

    def _note_composition(
        self, schedule: CompositionSchedule, critical_path: float
    ) -> None:
        self._compositions.append(schedule)

    # -- simulation ----------------------------------------------------------

    @staticmethod
    def _stall_error(
        labels: Sequence[str],
        active: Dict[int, _RunState],
        bg_active: Sequence[_RunState],
    ) -> RuntimeError:
        """The diagnostic for a window loop that cannot progress."""
        labels = sorted(
            {labels[state.idx] for state in (*active.values(), *bg_active)}
        )
        return RuntimeError(
            "event window loop stalled: active job(s) made no progress "
            f"for {_MAX_ZERO_WINDOWS} consecutive zero-length windows "
            "(some demand remains but every live row drains at rate "
            f"zero); stalled jobs: {labels}"
        )

    def _simulate(self, recording: _Recording) -> _SimResult:
        """The window loop (the production path).

        Bit-equal to :meth:`_simulate_reference` on every
        :class:`_SimResult` field, ``windows`` and ``live_rows``
        included: each window evaluates the identical IEEE-754 double
        operations on the identical values (Python float arithmetic *is*
        C-double arithmetic, and ``min`` and user counts are
        order-independent).  Only the bookkeeping around them differs,
        under this contract:

        - **One row list.**  Every live demand is a ``(rem, rate)`` row
          whose horizon is ``rem / rate`` and which drains as ``rem -
          dt * rate``: a DRAM row at its DRAM's share, a streaming flow
          at its route's share, and compute and wire latency at rate
          ``1.0`` — exact, since ``x / 1.0 == x`` and ``dt * 1.0 == dt``
          — so one ``min`` and one depletion pass cover a window.
        - **Shared timers.**  Compute and wire-latency rows both drain as
          ``rem - dt``.  Rows that enter in the same window with
          bit-equal values therefore stay bit-equal until they cross the
          dust threshold together, so they share one row, a timer, whose
          crossing drains every member: a baseline slice's flows share
          one latency, slices started together share one compute value,
          and a compute value equal to a latency value shares with it.
          ``live_rows`` still counts members, not timers.
        - **Shares change only between windows.**  Each DRAM's
          ``dram_bw / users`` and each link's ``link_bw / users`` are
          cached per resource and recomputed only when its user count
          changes (``bw / 1 == bw``, so one expression covers the
          uncontended case).  Every crossing's side effects (a DRAM or
          link losing a user, a drained latency row entering the
          streaming state) land after the whole depletion pass, so the
          next window sees them, as the reference's per-window rescan
          does.  A single-hop flow with ``rate_scale == 1.0`` takes its
          link's share as its rate: ``(h * 1.0) / 1.0 == h``.
        - **Retirement order.**  A job's open components (its compute,
          DRAM rows and flows) are counted when it starts; it completes
          when the last one crosses.  The retirement scan runs only in
          windows where some job completed, and still retires in
          ``active`` order, then ``bg_active`` order.  The start scan
          runs only after a retirement or while a start floor (render or
          background) is waiting; otherwise it could start nothing.
        - **Accounting order.**  ``link_bytes`` is summed once after the
          loop, job by job in the order the reference accounts them:
          zero-demand jobs when they start, the rest when they retire.

        The window body is scalar Python over the live rows: a few dozen
        rows per window cost less as Python floats than as per-window
        numpy calls.  The pass reads the recording's columns as Python
        lists, built once on entry and dropped on return: a starting job
        registers its rows straight from its CSR ranges, and the queues,
        the retirement scan and the ``link_bytes`` walk hold job indices.
        """
        system = self.system
        n = system.num_gpms
        dram_bw = system.config.gpm.dram_bytes_per_cycle
        link_bw = system.config.link.bytes_per_cycle
        inf = float("inf")

        # The recording's columns, read as Python lists: a window reads
        # a few dozen rows, which cost less as floats than as numpy
        # scalars.
        labels = recording.labels
        njobs = len(labels)
        gpm_of = recording.gpm.tolist()
        kind_of = recording.kind.tolist()
        floor_of = recording.floor.tolist()
        compute_of = recording.compute.tolist()
        dram_bounds = recording.dram_bounds.tolist()
        dram_gpm = recording.dram_gpm.tolist()
        dram_bytes = recording.dram_bytes.tolist()
        flow_bounds = recording.flow_bounds.tolist()
        flow_route = recording.flow_route.tolist()
        flow_bytes = recording.flow_bytes.tolist()
        flow_latency = recording.flow_latency.tolist()
        flow_scale = recording.flow_scale.tolist()
        #: Open components per started job (compute, DRAM rows, flows —
        #: a flow stays open until its latency *and* bytes drain).
        pending = [0] * njobs

        # Resources: 0 is the rate-1 clock of timers, 1 + gpm a DRAM,
        # then links in first-seen order.  Per resource: current users,
        # per-user share and (links only) busy cycles.
        users = [0] * (1 + n)
        share = [1.0] + [dram_bw] * n
        busy_acc = [0.0] * (1 + n)
        link_res: Dict[Link, int] = {}
        busy_links: Set[int] = set()
        #: Per route id: (resource ids, hop count, the single resource or
        #: -1), filled on the route's first use.
        routes: List[Optional[Tuple[List[int], float, int]]] = [None] * len(
            recording.routes
        )

        def route_entry(rid: int):
            route = recording.routes[rid]
            ids = []
            for link in route:
                res = link_res.get(link)
                if res is None:
                    res = link_res[link] = len(share)
                    users.append(0)
                    share.append(link_bw)
                    busy_acc.append(0.0)
                ids.append(res)
            hops = float(len(route))
            entry = routes[rid] = (ids, hops, ids[0] if hops == 1.0 else -1)
            return entry

        # The live rows, as parallel lists.  ``src`` is the resource
        # whose share is the row's rate, or -1 for a multi-hop or
        # rate-scaled flow.  A row is a timer (its member list: job
        # indices for compute, flow records for latency), a DRAM row
        # (its job index) or a streaming flow (its record ``(job,
        # nbytes, route resources, rate_scale, hops, src)``).
        rems: List[float] = []
        rates: List[float] = []
        srcs: List[int] = []
        rows: List = []
        #: Timers entering in this window, keyed by their value.
        fresh: Dict[float, list] = {}
        #: Rows or shares changed since ``rates`` was last built.
        stale = False
        live = 0

        def enter_stream(flow: tuple) -> None:
            rems.append(flow[1])
            srcs.append(flow[5])
            rows.append(flow)
            for res in flow[2]:
                count = users[res] + 1
                users[res] = count
                share[res] = link_bw / count
                if count == 1:
                    busy_links.add(res)

        def start(idx: int) -> int:
            """Register a starting job's live rows; return how many
            components it opened (zero: the job completes instantly)."""
            opened = 0
            compute = compute_of[idx]
            if compute > _EPS:
                fresh.setdefault(compute, []).append(idx)
                opened = 1
            for row in range(dram_bounds[idx], dram_bounds[idx + 1]):
                nbytes = dram_bytes[row]
                if nbytes > _EPS:
                    res = 1 + dram_gpm[row]
                    rems.append(nbytes)
                    srcs.append(res)
                    rows.append(idx)
                    count = users[res] + 1
                    users[res] = count
                    share[res] = dram_bw / count
                    opened += 1
            for row in range(flow_bounds[idx], flow_bounds[idx + 1]):
                latency = flow_latency[row]
                nbytes = flow_bytes[row]
                if not (latency > _EPS or nbytes > _EPS):
                    continue
                opened += 1
                rid = flow_route[row]
                ids, hops, single = routes[rid] or route_entry(rid)
                scale = flow_scale[row]
                flow = (
                    idx, nbytes, ids, scale, hops,
                    single if scale == 1.0 else -1,
                )
                if latency > _EPS:
                    fresh.setdefault(latency, []).append(flow)
                else:
                    enter_stream(flow)
            pending[idx] = opened
            return opened

        queues: List[deque] = [deque() for _ in range(n)]
        background: List[int] = []
        for idx, lane in enumerate(recording.background):
            if lane:
                background.append(idx)
            else:
                queues[gpm_of[idx]].append(idx)
        bg_pending = deque(sorted(background, key=floor_of.__getitem__))
        bg_active: List[_RunState] = []

        active: Dict[int, _RunState] = {}
        t = 0.0
        busy = [0.0] * n
        end = [0.0] * n
        intervals: List[TraceInterval] = []
        #: Jobs in the order the reference accounts their link bytes.
        accounted: List[int] = []

        # Every DRAM row counts, dust included.
        total_components = njobs + len(dram_bytes) + len(flow_bytes)
        max_steps = 1000 + 16 * (total_components + njobs)
        steps = 0
        zero_windows = 0
        windows = 0
        live_rows = 0
        next_start = inf
        rescan = True

        while active or bg_active or bg_pending or any(queues):
            steps += 1
            if steps > max_steps:
                raise EngineError(
                    "event simulation failed to converge "
                    f"({njobs - len(background)} jobs, {steps} steps)"
                )

            if rescan:
                # Start any idle GPM's head job whose floor has passed;
                # zero-demand units complete instantly and hand the GPM
                # to the next queued job within the same window.
                next_start = inf
                for gpm in range(n):
                    queue = queues[gpm]
                    while gpm not in active and queue:
                        floor = floor_of[queue[0]]
                        if floor > t * (1 + _REL) + _EPS:
                            next_start = min(next_start, floor)
                            break
                        idx = queue.popleft()
                        begin = max(t, floor)
                        opened = start(idx)
                        if opened:
                            live += opened
                            stale = True
                            active[gpm] = _RunState(idx, begin)
                            continue
                        intervals.append(
                            TraceInterval(
                                gpm=gpm, label=labels[idx],
                                start=begin, end=begin,
                                kind=_KINDS[kind_of[idx]],
                            )
                        )
                        end[gpm] = max(end[gpm], begin)
                        accounted.append(idx)
                # Background copies activate on their floor regardless of
                # what their GPM is doing — the copy engines, not the
                # SMs, move the bytes.
                while bg_pending:
                    floor = floor_of[bg_pending[0]]
                    if floor > t * (1 + _REL) + _EPS:
                        next_start = min(next_start, floor)
                        break
                    idx = bg_pending.popleft()
                    begin = max(t, floor)
                    opened = start(idx)
                    if opened:
                        live += opened
                        stale = True
                        bg_active.append(_RunState(idx, begin))
                        continue
                    intervals.append(
                        TraceInterval(
                            gpm=gpm_of[idx], label=labels[idx],
                            start=begin, end=begin,
                            kind=_KINDS[kind_of[idx]],
                        )
                    )
                    accounted.append(idx)
                for value, members in fresh.items():
                    rems.append(value)
                    srcs.append(0)
                    rows.append(members)
                fresh.clear()

                if not active and not bg_active:
                    if next_start == inf:
                        break
                    t = next_start
                    continue

            windows += 1
            live_rows += live

            # Time to the next completion or rate change.
            dt = next_start - t if next_start != inf else inf
            if rems:
                if stale:
                    # A multi-hop or rate-scaled flow (src -1) streams
                    # at the share on its route's most contended link,
                    # scaled and serialised over the hop count.
                    rates = [
                        share[src] if src >= 0
                        else (min([share[res] for res in row[2]])
                              * row[3]) / row[4]
                        for src, row in zip(srcs, rows)
                    ]
                    stale = False
                dt = min(dt, min(map(truediv, rems, rates)))

            if dt == inf:
                # Active demand that drains at rate zero: tolerate a
                # bounded streak, then raise the diagnostic instead of
                # spinning (or silently force-retiring) forever.
                zero_windows += 1
                if zero_windows >= _MAX_ZERO_WINDOWS:
                    raise self._stall_error(labels, active, bg_active)
                dt = 0.0
            else:
                zero_windows = 0
            dt = max(dt, 0.0)

            # Advance the window: deplete every live row at the rate read
            # above, then apply the crossings' side effects.
            rescan = next_start != inf
            if not dt > 0.0:
                continue
            t += dt
            for gpm in active:
                busy[gpm] += dt
            for res in busy_links:
                busy_acc[res] += dt
            rems = [rem - dt * rate for rem, rate in zip(rems, rates)]
            if not (rems and min(rems) <= _EPS):
                continue

            finished = False
            entering = []
            for i in reversed(
                [i for i, rem in enumerate(rems) if rem <= _EPS]
            ):
                del rems[i]
                src = srcs.pop(i)
                row = rows.pop(i)
                if src == 0:  # a timer: compute or wire latency drained
                    live -= len(row)
                    for member in row:
                        if type(member) is int:
                            job = member
                        elif member[1] > _EPS:
                            # The bytes start streaming next window.
                            entering.append(member)
                            continue
                        else:
                            job = member[0]
                        left = pending[job] - 1
                        pending[job] = left
                        if not left:
                            finished = True
                    continue
                live -= 1
                if 0 < src <= n:  # a DRAM row
                    job = row
                    count = users[src] - 1
                    users[src] = count
                    if count:
                        share[src] = dram_bw / count
                else:  # a streaming flow
                    job = row[0]
                    for res in row[2]:
                        count = users[res] - 1
                        users[res] = count
                        if count:
                            share[res] = link_bw / count
                        else:
                            busy_links.discard(res)
                left = pending[job] - 1
                pending[job] = left
                if not left:
                    finished = True
            for flow in entering:
                enter_stream(flow)
            live += len(entering)
            stale = True
            if not finished:
                continue

            # Retire completed jobs in the reference's order.
            for gpm in [
                gpm for gpm, state in active.items() if not pending[state.idx]
            ]:
                state = active.pop(gpm)
                idx = state.idx
                intervals.append(
                    TraceInterval(
                        gpm=gpm, label=labels[idx],
                        start=state.start, end=t, kind=_KINDS[kind_of[idx]],
                    )
                )
                end[gpm] = max(end[gpm], t)
                accounted.append(idx)
                rescan = True
            for state in [
                state for state in bg_active if not pending[state.idx]
            ]:
                idx = state.idx
                intervals.append(
                    TraceInterval(
                        gpm=gpm_of[idx], label=labels[idx],
                        start=state.start, end=t, kind=_KINDS[kind_of[idx]],
                    )
                )
                accounted.append(idx)
                bg_active.remove(state)
                rescan = True

        link_bytes: Dict[Link, float] = {}
        route_table = recording.routes
        for idx in accounted:
            for row in range(flow_bounds[idx], flow_bounds[idx + 1]):
                nbytes = flow_bytes[row]
                for link in route_table[flow_route[row]]:
                    link_bytes[link] = link_bytes.get(link, 0.0) + nbytes
        link_busy: Dict[Link, float] = {
            link: busy_acc[res]
            for link, res in link_res.items()
            if busy_acc[res] > 0.0
        }
        return _SimResult(
            busy=busy,
            end=end,
            intervals=intervals,
            link_busy=link_busy,
            link_bytes=link_bytes,
            windows=windows,
            live_rows=live_rows,
        )

    def _simulate_reference(self, recording: _Recording) -> _SimResult:
        """The retained full-scan window loop (the oracle).

        Every window re-derives the live-row sets with ``nonzero``/
        ``bincount`` scans over *all* rows — O(total) per window.  Kept
        as the bit-exactness oracle for :meth:`_simulate` (the property
        tests replay random flow soups through both) and as the
        baseline side of the throughput bench's same-host loop A/B,
        which patches it over :meth:`_simulate`.  It reads the same
        recording, through :class:`_JobArrays`.
        """
        system = self.system
        n = system.num_gpms
        dram_bw = system.config.gpm.dram_bytes_per_cycle
        link_bw = system.config.link.bytes_per_cycle

        arrays = _JobArrays(recording)
        labels = recording.labels
        gpm_of = recording.gpm.tolist()
        kind_of = recording.kind.tolist()
        floor_of = recording.floor.tolist()
        flow_bounds = recording.flow_bounds.tolist()
        flow_route = recording.flow_route.tolist()
        recorded_bytes = recording.flow_bytes.tolist()
        compute_rem = arrays.compute
        dram_job, dram_gpm = arrays.dram_job, arrays.dram_gpm
        dram_rem = arrays.dram_rem
        flow_job, flow_lat = arrays.flow_job, arrays.flow_lat
        flow_bytes, flow_scale = arrays.flow_bytes, arrays.flow_scale
        route_offsets, route_links = arrays.route_offsets, arrays.route_links
        route_rep, route_len = arrays.route_rep, arrays.route_len
        job_d0, job_f0 = arrays.job_d0, arrays.job_f0
        num_links = len(arrays.links)
        have_dram = dram_job.size > 0
        have_flows = flow_job.size > 0
        run_mask = np.zeros(arrays.count, dtype=bool)
        #: Row-level running masks, toggled by slice on (de)activation.
        d_run = np.zeros(dram_job.size, dtype=bool)
        f_run = np.zeros(flow_job.size, dtype=bool)
        pending = arrays.pending0.copy()
        link_busy_acc = np.zeros(num_links, dtype=np.float64)

        queues: List[deque] = [deque() for _ in range(n)]
        background: List[int] = []
        for idx, lane in enumerate(recording.background):
            if lane:
                background.append(idx)
            else:
                queues[gpm_of[idx]].append(idx)
        bg_pending: List[int] = sorted(background, key=floor_of.__getitem__)
        bg_active: List[_RunState] = []

        active: Dict[int, _RunState] = {}
        t = 0.0
        busy = [0.0] * n
        end = [0.0] * n
        intervals: List[TraceInterval] = []
        link_bytes: Dict[Link, float] = {}

        def account_bytes(idx: int) -> None:
            for row in range(flow_bounds[idx], flow_bounds[idx + 1]):
                nbytes = recorded_bytes[row]
                for link in recording.routes[flow_route[row]]:
                    link_bytes[link] = link_bytes.get(link, 0.0) + nbytes

        # Every DRAM row counts, dust included.
        total_components = (
            arrays.count + len(recording.dram_bytes) + len(recorded_bytes)
        )
        max_steps = 1000 + 16 * (total_components + arrays.count)
        steps = 0
        zero_windows = 0
        windows = 0
        live_rows = 0

        while active or any(queues) or bg_active or bg_pending:
            steps += 1
            if steps > max_steps:
                raise EngineError(
                    "event simulation failed to converge "
                    f"({arrays.count - len(background)} jobs, {steps} steps)"
                )

            # Start any idle GPM's head job whose floor has passed;
            # zero-demand units complete instantly and hand the GPM to
            # the next queued job within the same window.
            next_start = float("inf")
            for gpm in range(n):
                while gpm not in active and queues[gpm]:
                    floor = floor_of[queues[gpm][0]]
                    if floor > t * (1 + _REL) + _EPS:
                        next_start = min(next_start, floor)
                        break
                    idx = queues[gpm].popleft()
                    start = max(t, floor)
                    if arrays.zero_demand[idx]:  # instantaneous
                        intervals.append(
                            TraceInterval(
                                gpm=gpm, label=labels[idx],
                                start=start, end=start,
                                kind=_KINDS[kind_of[idx]],
                            )
                        )
                        end[gpm] = max(end[gpm], start)
                        account_bytes(idx)
                        continue
                    active[gpm] = _RunState(idx, start)
                    run_mask[idx] = True
                    d_run[job_d0[idx] : job_d0[idx + 1]] = True
                    f_run[job_f0[idx] : job_f0[idx + 1]] = True
            # Background copies activate on their floor regardless of
            # what their GPM is doing — the copy engines, not the SMs,
            # move the bytes.
            while bg_pending:
                floor = floor_of[bg_pending[0]]
                if floor > t * (1 + _REL) + _EPS:
                    next_start = min(next_start, floor)
                    break
                idx = bg_pending.pop(0)
                start = max(t, floor)
                if arrays.zero_demand[idx]:
                    intervals.append(
                        TraceInterval(
                            gpm=gpm_of[idx], label=labels[idx],
                            start=start, end=start,
                            kind=_KINDS[kind_of[idx]],
                        )
                    )
                    account_bytes(idx)
                    continue
                bg_active.append(_RunState(idx, start))
                run_mask[idx] = True
                d_run[job_d0[idx] : job_d0[idx + 1]] = True
                f_run[job_f0[idx] : job_f0[idx + 1]] = True

            if not active and not bg_active:
                if next_start == float("inf"):
                    break
                t = next_start
                continue

            # Concurrent users per shared resource in this window, as
            # bincounts over the live demand rows.
            if have_dram:
                d_idx = np.nonzero(d_run & (dram_rem > _EPS))[0]
                if d_idx.size:
                    d_gpm = dram_gpm[d_idx]
                    dram_users = np.bincount(d_gpm, minlength=n)
                    #: Per-row bandwidth share, same expression the
                    #: per-object loop divided with.
                    dram_share = dram_bw / dram_users[d_gpm]
            if have_flows:
                lat_open = flow_lat > _EPS
                lat_idx = np.nonzero(f_run & lat_open)[0]
                b_mask = f_run & ~lat_open & (flow_bytes > _EPS)
                b_idx = np.nonzero(b_mask)[0]
                link_users = np.bincount(
                    route_links[b_mask[route_rep]], minlength=num_links
                )
                if b_idx.size:
                    # Bandwidth share on the most contended link of
                    # each route, serialised over the hop count —
                    # uncontended this reproduces the analytic bytes x
                    # hops wire-load charge exactly, so engine gaps
                    # isolate contention.  (Links with no active flow
                    # are floored to one user; their garbage rates are
                    # masked out by b_idx.)
                    per_hop = link_bw / np.maximum(link_users, 1)[route_links]
                    b_rate = (
                        np.minimum.reduceat(per_hop, route_offsets[:-1])
                        * flow_scale
                    )[b_idx] / route_len[b_idx]
                    b_bytes = flow_bytes[b_idx]

            # Time to the next completion or rate change.
            dt = next_start - t if next_start != float("inf") else float("inf")
            c_idx = np.nonzero(run_mask & (compute_rem > _EPS))[0]
            if c_idx.size:
                dt = min(dt, float(compute_rem[c_idx].min()))
            if have_dram and d_idx.size:
                dt = min(dt, float((dram_rem[d_idx] / dram_share).min()))
            if have_flows:
                if lat_idx.size:
                    dt = min(dt, float(flow_lat[lat_idx].min()))
                if b_idx.size:
                    dt = min(dt, float((b_bytes / b_rate).min()))

            windows += 1
            live_rows += c_idx.size
            if have_dram:
                live_rows += d_idx.size
            if have_flows:
                live_rows += lat_idx.size + b_idx.size

            if dt == float("inf"):
                # Same bounded-streak diagnostic as the incremental
                # loop (both loops share retire semantics, so the
                # property tests compare like with like).
                zero_windows += 1
                if zero_windows >= _MAX_ZERO_WINDOWS:
                    raise self._stall_error(labels, active, bg_active)
                dt = 0.0
            else:
                zero_windows = 0
            dt = max(dt, 0.0)

            # Advance the window: deplete demands, accumulate occupancy
            # and retire the per-job open-component counts as rows
            # cross the dust threshold.
            if dt > 0.0:
                t += dt
                for gpm in active:
                    busy[gpm] += dt
                if have_flows:
                    link_busy_acc[link_users > 0] += dt
                if c_idx.size:
                    compute_rem[c_idx] -= dt
                if have_dram and d_idx.size:
                    new_d = dram_rem[d_idx] - dt * dram_share
                    dram_rem[d_idx] = new_d
                    closed = d_idx[new_d <= _EPS]
                    if closed.size:
                        np.subtract.at(pending, dram_job[closed], 1)
                if have_flows:
                    if lat_idx.size:
                        new_l = flow_lat[lat_idx] - dt
                        flow_lat[lat_idx] = new_l
                        expired = lat_idx[new_l <= _EPS]
                        if expired.size:
                            # A flow with nothing left to stream is
                            # done the moment its wire latency drains.
                            settled = expired[flow_bytes[expired] <= _EPS]
                            if settled.size:
                                np.subtract.at(
                                    pending, flow_job[settled], 1
                                )
                    if b_idx.size:
                        new_b = b_bytes - dt * b_rate
                        flow_bytes[b_idx] = new_b
                        drained = b_idx[new_b <= _EPS]
                        if drained.size:
                            np.subtract.at(pending, flow_job[drained], 1)

            # Retire completed jobs: compute drained and no DRAM or
            # flow component still above the dust threshold.
            for gpm in list(active):
                state = active[gpm]
                if not (
                    compute_rem[state.idx] <= _EPS
                    and pending[state.idx] == 0
                ):
                    continue
                idx = state.idx
                intervals.append(
                    TraceInterval(
                        gpm=gpm, label=labels[idx],
                        start=state.start, end=t, kind=_KINDS[kind_of[idx]],
                    )
                )
                end[gpm] = max(end[gpm], t)
                account_bytes(idx)
                del active[gpm]
                run_mask[idx] = False
                d_run[job_d0[idx] : job_d0[idx + 1]] = False
                f_run[job_f0[idx] : job_f0[idx + 1]] = False
            for state in list(bg_active):
                if not (
                    compute_rem[state.idx] <= _EPS
                    and pending[state.idx] == 0
                ):
                    continue
                idx = state.idx
                intervals.append(
                    TraceInterval(
                        gpm=gpm_of[idx], label=labels[idx],
                        start=state.start, end=t, kind=_KINDS[kind_of[idx]],
                    )
                )
                account_bytes(idx)
                bg_active.remove(state)
                run_mask[idx] = False
                d_run[job_d0[idx] : job_d0[idx + 1]] = False
                f_run[job_f0[idx] : job_f0[idx + 1]] = False

        link_busy: Dict[Link, float] = {
            arrays.links[i]: float(link_busy_acc[i])
            for i in np.nonzero(link_busy_acc > 0.0)[0]
        }
        return _SimResult(
            busy=busy,
            end=end,
            intervals=intervals,
            link_busy=link_busy,
            link_bytes=link_bytes,
            windows=windows,
            live_rows=live_rows,
        )

    def _composition_jobs(self, floor: float) -> _Recording:
        """Record the barriers as the composition window's jobs.

        One job per participating GPM, floored at the simulated render
        end: its ROP share as compute, its outgoing pixel transfers
        (merged per directional pair) as flows.
        """
        recording = _Recording()
        for schedule in self._compositions:
            outgoing: Dict[int, Dict[Link, float]] = {}
            for transfer in schedule.transfers:
                if transfer.nbytes <= 0 or transfer.src == transfer.dst:
                    continue
                per_src = outgoing.setdefault(transfer.src, {})
                key = (transfer.src, transfer.dst)
                per_src[key] = per_src.get(key, 0.0) + transfer.nbytes
            participants = sorted(set(schedule.rop_cycles) | set(outgoing))
            for gpm in participants:
                flows = self._routed(
                    recording,
                    (
                        (src, dst, nbytes)
                        for (src, dst), nbytes in outgoing.get(gpm, {}).items()
                    ),
                )
                compute = schedule.rop_cycles.get(gpm, 0.0)
                if compute <= 0 and not flows:
                    continue
                recording.add(
                    schedule.label,
                    gpm,
                    _COMPOSE,
                    compute,
                    0.0,
                    floor=floor,
                    flows=flows,
                )
        return recording

    def finish_frame(self) -> FrameTrace:
        """Replay the submitted schedule through the event simulation.

        Two windows: the render phase (units, stalls, steals and
        background staging copies time-sharing the machine), then the
        composition barrier starting when the last GPM's render lane
        drains.  Per-GPM busy/end figures cover the render lane only;
        the barrier is reported as ``composition_cycles`` and its
        ``compose``-lane intervals.
        """
        loop_start = time.perf_counter()
        render = self._simulate(self._recording)
        loop_seconds = time.perf_counter() - loop_start
        windows = render.windows
        live_rows = render.live_rows
        render_end = max(render.end) if render.end else 0.0
        intervals = list(render.intervals)
        link_busy = dict(render.link_busy)
        link_bytes = dict(render.link_bytes)
        composition_cycles = 0.0
        compose_jobs = self._composition_jobs(render_end)
        if len(compose_jobs):
            loop_start = time.perf_counter()
            compose = self._simulate(compose_jobs)
            loop_seconds += time.perf_counter() - loop_start
            windows += compose.windows
            live_rows += compose.live_rows
            composition_cycles = max(compose.makespan - render_end, 0.0)
            intervals.extend(compose.intervals)
            for link, cycles in compose.link_busy.items():
                link_busy[link] = link_busy.get(link, 0.0) + cycles
            for link, nbytes in compose.link_bytes.items():
                link_bytes[link] = link_bytes.get(link, 0.0) + nbytes
        # Window-loop counters for ``--profile`` runs (no-ops when no
        # capture is active, so unprofiled goldens pay nothing).
        add_counter("event_windows", float(windows))
        add_counter("event_live_rows", float(live_rows))
        add_counter("event_loop_s", loop_seconds)

        links = tuple(
            LinkUsage(
                src=link[0],
                dst=link[1],
                nbytes=link_bytes.get(link, 0.0),
                busy_cycles=link_busy.get(link, 0.0),
            )
            for link in sorted(set(link_bytes) | set(link_busy))
        )
        return FrameTrace(
            engine=self.name,
            num_gpms=self.system.num_gpms,
            intervals=tuple(intervals),
            gpm_busy=tuple(render.busy),
            gpm_end=tuple(render.end),
            links=links,
            composition_cycles=composition_cycles,
            phase_link_bytes=dict(self._phase_bytes),
        )
