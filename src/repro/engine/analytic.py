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
spans, through the base engine's schedule hooks, as
:class:`~repro.engine.trace.TraceSpans` columns: a row per charge, a
slice pass's charges (``SplitSlices.ops``) appended whole, a shed
tail's clip as a mask over the rows, and a row per GPM of each
composition barrier.  :meth:`finish_frame` reports the GPM state, that
log and the accumulated composition barrier; the trace builds its
interval objects only if something reads them.

What it cannot see — and what :class:`~repro.engine.event.EventEngine`
exists to measure — is *contention in time*: two flows sharing a link
(or a DRAM stack) during the same window each get the full bandwidth
here, so concurrent congestion is under-priced.
"""

from __future__ import annotations

from array import array
from itertools import compress

import numpy as np

from repro.engine.base import CompositionSchedule, ExecutionEngine
from repro.engine.trace import KINDS, FrameTrace, TraceSpans

__all__ = ["AnalyticEngine"]

_KIND_CODE = {kind: code for code, kind in enumerate(KINDS)}
_COMPOSE = _KIND_CODE["compose"]


def _append(
    spans: TraceSpans, gpm: int, label: str, start: float, end: float,
    kind: int,
) -> None:
    """Log one span at the end of ``spans``."""
    spans.gpm.append(gpm)
    spans.label.append(label)
    spans.start.append(start)
    spans.end.append(end)
    spans.kind.append(kind)


class AnalyticEngine(ExecutionEngine):
    """Behaviour-preserving port of the original per-unit pricing."""

    name = "analytic"

    def __init__(self, system) -> None:
        super().__init__(system)
        #: The render lane's spans (render, stall, steal), in charge order.
        self._spans = TraceSpans.empty()
        #: Composition-barrier spans (separate from the render lane so
        #: a shed tail never clips them).
        self._compose_spans = TraceSpans.empty()

    def begin_frame(self) -> None:
        super().begin_frame()
        self._spans = TraceSpans.empty()
        self._compose_spans = TraceSpans.empty()

    def _note_span(
        self, gpm_id: int, label: str, begin: float, kind: str
    ) -> None:
        _append(
            self._spans, gpm_id, label, begin,
            self.system.gpms[gpm_id].ready_at, _KIND_CODE[kind],
        )

    def _note_split(self, split) -> None:
        # A charge's stall flag is its kind code: 0 render, 1 stall.
        ops = split.ops
        spans = self._spans
        spans.gpm.frombytes(np.asarray(ops.gpm, np.int64).tobytes())
        spans.label.extend(ops.labels)
        spans.start.frombytes(ops.start.tobytes())
        spans.end.frombytes(ops.end.tobytes())
        spans.kind.frombytes(np.asarray(ops.stall, np.int8).tobytes())

    def _note_shed(self, gpm_id: int, cycles: float) -> None:
        """Clip the straggler's spans to its rewound clock (the stolen
        tail now renders on the thieves): a span ending past the clock
        ends on it, and one starting there too is dropped."""
        horizon = self.system.gpms[gpm_id].ready_at
        spans = self._spans
        start = np.array(spans.start)
        end = np.array(spans.end)
        late = (np.array(spans.gpm) == gpm_id) & (end > horizon)
        keep = ~late | (start < horizon)
        end[late] = horizon
        self._spans = TraceSpans(
            array("q", compress(spans.gpm, keep)),
            list(compress(spans.label, keep)),
            array("d", start[keep].tobytes()),
            array("d", end[keep].tobytes()),
            array("b", compress(spans.kind, keep)),
        )

    def _note_composition(
        self, schedule: CompositionSchedule, critical_path: float
    ) -> None:
        barrier = max(gpm.ready_at for gpm in self.system.gpms)
        for gpm_id in sorted(schedule.rop_cycles):
            _append(
                self._compose_spans, gpm_id, schedule.label, barrier,
                barrier + critical_path, _COMPOSE,
            )

    def finish_frame(self) -> FrameTrace:
        gpms = self.system.gpms
        return FrameTrace(
            engine=self.name,
            num_gpms=self.system.num_gpms,
            spans=self._spans.joined(self._compose_spans),
            gpm_busy=tuple(gpm.busy_cycles for gpm in gpms),
            gpm_end=tuple(gpm.ready_at for gpm in gpms),
            links=self._fabric_usage(),
            composition_cycles=self._composition_cycles,
            phase_link_bytes=dict(self._phase_bytes),
        )
