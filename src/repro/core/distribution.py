"""The object-aware runtime batch distribution engine (Section 5.2).

A hardware micro-controller that replaces the master-slave software
distribution of classic object-level SFR:

1. **Calibration**: the first 8 batches go round-robin across GPMs with
   plain first-touch placement; their measured times fit the Eq. 3
   predictor.
2. **Prediction-driven dispatch**: from the 9th batch on, each batch is
   assigned to the GPM the predictor says becomes idle first (total
   minus elapsed counters per GPM).
3. **Pre-allocation**: before the batch renders, its PA unit copies the
   batch's resources to the selected GPM's DRAM.  The copy overlaps
   with the GPM's previous batch, so its latency is hidden unless the
   batch arrives at an idle GPM.  The paper bounds the batch queue at
   4 entries per GPM; only :mod:`repro.core.overhead`'s storage model
   sizes that queue, and dispatch does not enforce the bound (doing so
   would move Figs. 15-18).
4. **Fine-grained straggler splitting**: when every batch is issued and
   some GPMs idle while a large batch still runs, its remaining
   triangles/fragments are split fairly across the idle GPMs, with the
   required data duplicated into their DRAMs (``STEAL`` traffic).

The engine is deliberately *prediction-driven*: assignment decisions use
only information the hardware would have (triangle counts, counter
values, predicted rates), never the simulator's ground-truth times —
mispredictions therefore produce exactly the residual imbalance the
paper's OO-VR still shows.

Timing flows through the system's pluggable
:class:`~repro.engine.base.ExecutionEngine`: the dispatcher reads the
scheduling clock (:meth:`~repro.engine.base.ExecutionEngine.ready_at`),
observes completions through the engine's callback stream rather than
doing its own clock arithmetic, and hands straggler slices to
:meth:`~repro.engine.base.ExecutionEngine.steal_into` /
:meth:`~repro.engine.base.ExecutionEngine.shed_tail` so the event
engine can replay them with contention.  PA copies are engine work
too: the staging manager emits them as a staging flow
(:meth:`~repro.engine.base.ExecutionEngine.stage_flow`) with the
queue-entry time as the overlap origin, the engine answers with the
copy's landing time (the batch's start floor), and the event engine
replays the copy as a background wire flow stealing bandwidth from
concurrent rendering.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Sequence, Tuple

from repro.core.ablation import OOVRFeatures
from repro.core.middleware import Batch
from repro.core.predictor import BatchObservation, RenderingTimePredictor
from repro.engine.base import ResolvedUnit
from repro.gpu.staging import StagingManager
from repro.gpu.system import MultiGPUSystem
from repro.memory.link import TrafficType
from repro.pipeline.workunit import WorkUnit
from repro.stats.metrics import UnitExecution

#: Minimum remaining fraction of a straggler worth splitting.
STEAL_MIN_FRACTION = 0.15


@dataclass
class _GpmState:
    """The engine's view of one GPM."""

    gpm_id: int
    #: Predicted busy time (sum of predicted totals of queued batches).
    predicted_busy: float = 0.0
    #: Time the GPM's most recent batch started (for PA overlap).
    last_start: float = 0.0


@dataclass(frozen=True)
class _PendingDispatch:
    """Metadata for a batch in flight between submit and completion."""

    batch: Batch
    gpm: int
    predicted: Optional[float]
    prealloc_bytes: float
    calibration: bool


@dataclass(frozen=True)
class DispatchRecord:
    """Audit record of one batch dispatch (tests inspect these)."""

    batch_id: int
    gpm: int
    predicted_cycles: Optional[float]
    actual_cycles: float
    prealloc_bytes: float
    calibration: bool


class DistributionEngine:
    """Runtime batch distribution with prediction and pre-allocation.

    ``features`` switches mechanisms off for the ablation points
    (:mod:`repro.core.ablation`): without prediction each batch goes to
    the GPM that is idle first on the scheduling clock, without
    pre-allocation the staging copy stalls the GPM, and without
    stealing stragglers run to completion.
    """

    def __init__(
        self,
        system: MultiGPUSystem,
        predictor: Optional[RenderingTimePredictor] = None,
        features: OOVRFeatures = OOVRFeatures(),
    ) -> None:
        self.system = system
        self.predictor = predictor or RenderingTimePredictor()
        self.features = features
        self.records: List[DispatchRecord] = []
        self._states = [
            _GpmState(gpm_id=i) for i in range(system.num_gpms)
        ]
        self._pending: Deque[_PendingDispatch] = deque()
        # Completion events (on the scheduling clock) drive the
        # predictor and the per-GPM bookkeeping.
        system.engine.on_complete(self._on_unit_complete)
        # PA units: same staged bytes as the software schemes, but the
        # copy streams while the GPM renders its previous batch, so the
        # latency hides ("pre-allocate the required data of each batch
        # to the local memory to hide long data copy latency").  With
        # pre-allocation off the data must still arrive, but the copy
        # stalls the renderer like the software schemes.
        self._staging = StagingManager(
            system,
            factor=system.config.cost.batch_stage_factor,
            parallelism=system.config.cost.stage_parallelism,
            prefetched=features.preallocation,
            traffic_type=TrafficType.PREALLOC,
        )
        self._staging.begin_frame()

    # -- GPM selection --------------------------------------------------------

    def _select_gpm(self, batch_index: int) -> Tuple[int, bool]:
        """(gpm, is_calibration) for the next batch."""
        if not self.features.prediction:
            # Greedy software dispatch on actual ready times (OO_APP level).
            return self.system.engine.next_idle(), False
        if not self.predictor.is_calibrated:
            return batch_index % self.system.num_gpms, True
        # Earliest available by predicted remaining work: predicted
        # busy minus predicted elapsed from the GPM's runtime counters.
        gpms = self.system.gpms
        chosen = min(
            self._states,
            key=lambda state: self.predictor.remaining(
                state.predicted_busy,
                gpms[state.gpm_id].transformed_vertices,
                gpms[state.gpm_id].rendered_pixels,
            ),
        )
        return chosen.gpm_id, False

    # -- pre-allocation ----------------------------------------------------------

    def _preallocate(self, unit: WorkUnit, gpm_id: int) -> Tuple[float, float]:
        """Stage the batch's resources on ``gpm_id`` via its PA unit.

        Returns ``(copied_bytes, copy_ready_time)``.  The copy starts
        when the batch enters the GPM's batch queue — modelled as the
        start of the GPM's previous batch — and streams over the links
        concurrently with rendering; the batch cannot start before the
        copy lands, but in steady state it already has.  The overlap
        arithmetic is the engine's
        (:meth:`~repro.engine.base.ExecutionEngine.stage_flow`, reached
        through the staging manager): the dispatcher only forwards the
        queue-entry time and reads the landing time back.
        """
        state = self._states[gpm_id]
        outcome = self._staging.stage_unit(
            unit, gpm_id, overlap_from=state.last_start
        )
        return outcome.landed_bytes, outcome.ready_at

    # -- completion events ------------------------------------------------------

    def _on_unit_complete(
        self, resolved: ResolvedUnit, execution: UnitExecution
    ) -> None:
        """Engine callback: a dispatched batch finished rendering."""
        if not self._pending:
            return  # not one of ours (e.g. a framework-side unit)
        pending = self._pending.popleft()
        state = self._states[pending.gpm]
        state.predicted_busy += (
            pending.predicted
            if pending.predicted is not None
            else execution.cycles
        )
        self.predictor.observe(
            BatchObservation(
                triangles=float(pending.batch.total_triangles),
                transformed_vertices=resolved.vertices,
                rendered_pixels=resolved.pixels_out,
                cycles=execution.cycles,
            )
        )
        self.records.append(
            DispatchRecord(
                batch_id=pending.batch.batch_id,
                gpm=pending.gpm,
                predicted_cycles=pending.predicted,
                actual_cycles=execution.cycles,
                prealloc_bytes=pending.prealloc_bytes,
                calibration=pending.calibration,
            )
        )

    # -- dispatch -------------------------------------------------------------

    def dispatch(self, batches: Sequence[Tuple[Batch, WorkUnit]]) -> List[float]:
        """Run every batch; returns per-GPM rendered pixel counts."""
        engine = self.system.engine
        rendered_pixels = [0.0] * self.system.num_gpms
        for index, (batch, unit) in enumerate(batches):
            gpm_id, calibration = self._select_gpm(index)
            state = self._states[gpm_id]
            predicted = (
                self.predictor.predict_total(batch.total_triangles)
                if self.predictor.is_calibrated
                else None
            )
            copied, copy_ready = self._preallocate(unit, gpm_id)
            start_at = max(engine.ready_at(gpm_id), copy_ready)
            state.last_start = start_at
            self._pending.append(
                _PendingDispatch(
                    batch=batch,
                    gpm=gpm_id,
                    predicted=predicted,
                    prealloc_bytes=copied,
                    calibration=calibration,
                )
            )
            self.system.execute_unit(
                unit,
                gpm_id,
                command_source=gpm_id,  # engine broadcasts, no master hop
                start_at=start_at,
            )
            rendered_pixels[gpm_id] += unit.pixels_out
        if self.features.stealing:
            self._split_stragglers(rendered_pixels)
        return rendered_pixels

    # -- straggler splitting -----------------------------------------------------

    def _split_stragglers(self, rendered_pixels: List[float]) -> None:
        """Fine-grained task redistribution at the frame tail.

        When all batches are dispatched, GPMs that finished early absorb
        slices of the busiest GPM's tail: the paper fairly distributes
        the remaining primitives to idle GPMs by ID and duplicates the
        required data into their DRAMs.  Modelled as an equalising
        transfer of tail cycles plus STEAL traffic proportional to the
        moved work, expressed through the execution engine so the event
        engine replays the stolen slices with contention.
        """
        engine = self.system.engine
        n = self.system.num_gpms
        if n < 2:
            return
        link_bpc = self.system.config.link.bytes_per_cycle
        for _ in range(n):  # a few equalisation rounds converge fast
            ready = [engine.ready_at(g) for g in range(n)]
            mean_ready = sum(ready) / n
            busiest = max(range(n), key=lambda i: ready[i])
            tail = ready[busiest] - mean_ready
            if tail <= STEAL_MIN_FRACTION * max(mean_ready, 1.0):
                return
            # Move the surplus above the mean to the idle GPMs; the
            # data for those slices is duplicated over the links.
            idle = [i for i in range(n) if ready[i] < mean_ready]
            if not idle:
                return
            moved_total = 0.0
            for dst in idle:
                gap = mean_ready - ready[dst]
                share = min(gap, tail / len(idle))
                if share <= 0:
                    continue
                steal_bytes = share * link_bpc * 0.25
                engine.steal_into(
                    busiest, dst, f"steal-from-{busiest}", share, steal_bytes
                )
                moved_total += share
                pixel_share = rendered_pixels[busiest] * (
                    share / max(ready[busiest], 1.0)
                )
                rendered_pixels[busiest] -= pixel_share
                rendered_pixels[dst] += pixel_share
            if moved_total <= 0:
                return
            engine.shed_tail(busiest, moved_total)
