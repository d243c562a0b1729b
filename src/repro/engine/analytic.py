"""The analytic engine: the paper-reproducing per-unit roofline.

Every unit is priced in isolation as ``max(compute, local DRAM time,
slowest per-peer link time)`` and GPM clocks advance serially — exactly
the model the reproduced figures were calibrated under.  The whole
frame is covered: staging copies charge the overlap-model stall (or
nothing when prefetched) through :meth:`ExecutionEngine.stage_flow
<repro.engine.base.ExecutionEngine.stage_flow>`, and the composition
barrier is priced ``max(ROP time, slowest transfer)`` through
:meth:`ExecutionEngine.composition_phase
<repro.engine.base.ExecutionEngine.composition_phase>`.  The scheduling
clock *is* the final clock, so this engine alone logs the clock's
spans, through the base engine's schedule hooks (each charge, a slice
pass's charges, a shed tail's clip and each composition barrier), and
:meth:`finish_frame` reports the GPM state, that log and the
accumulated composition barrier.

What it cannot see — and what :class:`~repro.engine.event.EventEngine`
exists to measure — is *contention in time*: two flows sharing a link
(or a DRAM stack) during the same window each get the full bandwidth
here, so concurrent congestion is under-priced.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from repro.engine.base import CompositionSchedule, ExecutionEngine
from repro.engine.trace import FrameTrace, TraceInterval

__all__ = ["AnalyticEngine"]

#: The span kind of a slice pass's charge, by its stall flag.
_OP_KINDS = ("render", "stall")


class AnalyticEngine(ExecutionEngine):
    """Behaviour-preserving port of the original per-unit pricing."""

    name = "analytic"

    def __init__(self, system) -> None:
        super().__init__(system)
        #: The render lane's spans (render, stall, steal), in charge order.
        self._intervals: List[TraceInterval] = []
        #: Composition-barrier spans (separate from the render lane so
        #: a shed tail never clips them).
        self._compose_intervals: List[TraceInterval] = []

    def begin_frame(self) -> None:
        super().begin_frame()
        self._intervals.clear()
        self._compose_intervals.clear()

    def _note_span(
        self, gpm_id: int, label: str, begin: float, kind: str
    ) -> None:
        self._intervals.append(
            TraceInterval(
                gpm_id, label, begin, self.system.gpms[gpm_id].ready_at, kind
            )
        )

    def _note_split(self, split) -> None:
        ops = split.ops
        self._intervals.extend(
            map(
                TraceInterval,
                ops.gpm.tolist(),
                ops.labels,
                ops.start.tolist(),
                ops.end.tolist(),
                map(_OP_KINDS.__getitem__, ops.stall.tolist()),
            )
        )

    def _note_shed(self, gpm_id: int, cycles: float) -> None:
        """Clip the straggler's spans to its rewound clock (the stolen
        tail now renders on the thieves)."""
        horizon = self.system.gpms[gpm_id].ready_at
        clipped = []
        for span in self._intervals:
            if span.gpm != gpm_id or span.end <= horizon:
                clipped.append(span)
            elif span.start < horizon:
                clipped.append(replace(span, end=horizon))
            # else: the whole span was stolen; drop it.
        self._intervals[:] = clipped

    def _note_composition(
        self, schedule: CompositionSchedule, critical_path: float
    ) -> None:
        barrier = max(gpm.ready_at for gpm in self.system.gpms)
        self._compose_intervals.extend(
            TraceInterval(
                gpm_id, schedule.label, barrier, barrier + critical_path,
                "compose",
            )
            for gpm_id in sorted(schedule.rop_cycles)
        )

    def finish_frame(self) -> FrameTrace:
        gpms = self.system.gpms
        return FrameTrace(
            engine=self.name,
            num_gpms=self.system.num_gpms,
            intervals=tuple(self._intervals) + tuple(self._compose_intervals),
            gpm_busy=tuple(gpm.busy_cycles for gpm in gpms),
            gpm_end=tuple(gpm.ready_at for gpm in gpms),
            links=self._fabric_usage(),
            composition_cycles=self._composition_cycles,
            phase_link_bytes=dict(self._phase_bytes),
        )
