"""Frame traces: what each GPM and link did, and when.

A :class:`FrameTrace` is the common output of every
:class:`~repro.engine.base.ExecutionEngine`: an interval log per GPM
(render units, staging stalls, steal slices, background staging copies,
the composition barrier), per-link occupancy, per-phase roll-ups, and
the numbers :meth:`MultiGPUSystem.frame_result
<repro.gpu.system.MultiGPUSystem.frame_result>` needs (busy cycles per
GPM, the render critical path and the composition-phase cycles).  Each
engine builds its spans in one place.  The analytic engine logs the
scheduling clock's spans as it charges them (the base engine's schedule
hooks, implemented in :mod:`repro.engine.analytic`); the event engine
logs none of those, only the spans its discrete-event simulation
actually produced — including the contention-stretched ones the
analytic model cannot see.

Spans are logged as columns (:class:`TraceSpans`: GPM, label, start,
end and a kind code), not as objects.  A frame result reads only the
per-GPM busy and end times and the composition barrier, so the trace
checks every span's ``end >= start`` over the columns when it is made
and builds its :class:`TraceInterval` tuple only when something reads
:attr:`FrameTrace.intervals` (the timeline, exports, tests), once.

Every byte the fabric counts is owned by exactly one *phase*:

- ``render`` — work-unit binding traffic (texture/vertex/z/fb/command)
  plus steal duplication;
- ``staging`` — software staging and PA pre-allocation copies
  (:meth:`ExecutionEngine.stage_flow
  <repro.engine.base.ExecutionEngine.stage_flow>`);
- ``composition`` — the post-render barrier
  (:meth:`ExecutionEngine.composition_phase
  <repro.engine.base.ExecutionEngine.composition_phase>`).

Both engines report identical per-phase byte totals (binding and flow
accounting are shared); only the timing differs.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

import numpy as np

__all__ = [
    "KINDS",
    "PHASES",
    "TraceInterval",
    "TraceSpans",
    "LinkUsage",
    "FrameTrace",
]

#: The frame phases every engine prices, in pipeline order.
PHASES = ("render", "staging", "composition")

#: Interval kinds; a span's kind code indexes this tuple.
KINDS = ("render", "stall", "steal", "stage", "compose")


@dataclass(frozen=True)
class TraceInterval:
    """One occupied span of one GPM's timeline."""

    gpm: int
    label: str
    start: float
    end: float
    #: ``render`` (a work unit), ``stall`` (a staging copy the GPM
    #: waited on), ``steal`` (a straggler slice absorbed at the tail),
    #: ``stage`` (a background staging/PA copy streaming through the
    #: copy engines while the GPM renders) or ``compose`` (the
    #: post-render composition barrier on the GPM's ROPs).
    kind: str = "render"

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"interval ends before it starts: {self}")

    @property
    def cycles(self) -> float:
        return self.end - self.start


class TraceSpans(NamedTuple):
    """Trace intervals as columns, in log order.

    Span ``i`` occupied GPM ``gpm[i]`` under ``label[i]`` from
    ``start[i]`` to ``end[i]``; its kind is ``KINDS[kind[i]]``.  The
    engines log into ``array.array`` buffers (``q``, ``d`` and ``b``
    typecodes), whose ``==`` compares values, so traces and simulation
    results compare span by span.
    """

    gpm: Sequence[int]
    label: List[str]
    start: Sequence[float]
    end: Sequence[float]
    kind: Sequence[int]

    @classmethod
    def empty(cls) -> "TraceSpans":
        """A log with no spans, ready for appending."""
        return cls(array("q"), [], array("d"), array("d"), array("b"))

    def joined(self, other: "TraceSpans") -> "TraceSpans":
        """These spans, then ``other``'s, in new columns."""
        return TraceSpans(
            *(mine + theirs for mine, theirs in zip(self, other))
        )


@dataclass(frozen=True)
class LinkUsage:
    """Occupancy of one directional physical link over the frame."""

    src: int
    dst: int
    #: Bytes laid on this wire (physical, per hop on routed fabrics).
    nbytes: float
    #: Cycles the wire spent transferring (time-shared windows count
    #: once, so this is wall-clock occupancy, not bytes/bandwidth).
    busy_cycles: float


@dataclass(frozen=True, eq=False)
class FrameTrace:
    """Per-GPM/per-link timing record of one rendered frame.

    Two traces are equal when every field is, :attr:`intervals` in
    place of the span columns.
    """

    #: Name of the engine that produced the trace.
    engine: str
    num_gpms: int
    #: Every span, render lanes first, then the composition barrier's.
    spans: TraceSpans
    #: Cycles each GPM spent occupied on its render lane (render +
    #: stall + steal spans; background copies and composition are
    #: separate lanes).
    gpm_busy: Tuple[float, ...]
    #: Time each GPM finished its last render-lane span (0.0 for idle
    #: GPMs); composition runs after this barrier.
    gpm_end: Tuple[float, ...]
    links: Tuple[LinkUsage, ...] = ()
    #: Critical path of the post-render composition barrier (0.0 when
    #: the framework composes nothing).  The analytic engine reports
    #: the schedule's roofline price; the event engine the simulated,
    #: contention-aware barrier length.
    composition_cycles: float = 0.0
    #: Inter-GPM bytes per frame phase (``render``/``staging``/
    #: ``composition``) — identical across engines by construction.
    phase_link_bytes: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_gpms <= 0:
            raise ValueError("trace needs at least one GPM")
        if len(self.gpm_busy) != self.num_gpms or len(self.gpm_end) != self.num_gpms:
            raise ValueError("per-GPM series must cover every GPM")
        if self.composition_cycles < 0:
            raise ValueError("negative composition time")
        spans = self.spans
        start = np.asarray(spans.start, np.float64)
        early = np.flatnonzero(np.asarray(spans.end, np.float64) < start)
        if early.size:
            bad = int(early[0])
            raise ValueError(
                "interval ends before it starts: "
                f"GPM {spans.gpm[bad]} {spans.label[bad]!r} "
                f"{spans.start[bad]} -> {spans.end[bad]}"
            )

    @cached_property
    def intervals(self) -> Tuple[TraceInterval, ...]:
        """Every span as a :class:`TraceInterval`, in log order (built
        on first read)."""
        spans = self.spans
        return tuple(
            map(
                TraceInterval,
                spans.gpm,
                spans.label,
                spans.start,
                spans.end,
                map(KINDS.__getitem__, spans.kind),
            )
        )

    def _key(self) -> tuple:
        return (
            self.engine, self.num_gpms, self.intervals, self.gpm_busy,
            self.gpm_end, self.links, self.composition_cycles,
            self.phase_link_bytes,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FrameTrace):
            return NotImplemented
        return self._key() == other._key()

    @property
    def render_critical_path(self) -> float:
        """When the last GPM went idle: the pre-barrier render time."""
        return max(self.gpm_end) if self.gpm_end else 0.0

    @property
    def frame_cycles(self) -> float:
        """End-to-end frame time: render barrier plus composition."""
        return self.render_critical_path + self.composition_cycles

    def intervals_for(self, gpm: int) -> List[TraceInterval]:
        """This GPM's spans (all lanes), in start order."""
        if not 0 <= gpm < self.num_gpms:
            raise ValueError(f"GPM {gpm} out of range 0..{self.num_gpms - 1}")
        spans = [span for span in self.intervals if span.gpm == gpm]
        spans.sort(key=lambda span: (span.start, span.end))
        return spans

    def link_bytes(self) -> Dict[Tuple[int, int], float]:
        """Physical bytes per directional link (conservation checks).

        Covers every byte this trace timed — render flows, staging/PA
        copies and the composition barrier alike.  Under the event
        engine these are the bytes its simulation drained; the analytic
        trace reports the fabric's counters, which agree because flow
        accounting is engine-independent.
        """
        out: Dict[Tuple[int, int], float] = {}
        for usage in self.links:
            key = (usage.src, usage.dst)
            out[key] = out.get(key, 0.0) + usage.nbytes
        return out

    def busy_by_kind(self) -> Dict[str, float]:
        """Total occupied cycles per interval kind, across all GPMs."""
        out: Dict[str, float] = {}
        for span in self.intervals:
            out[span.kind] = out.get(span.kind, 0.0) + span.cycles
        return out

    def phase_cycles(self) -> Dict[str, float]:
        """The frame's critical path decomposed by phase.

        ``render`` + ``staging`` span the pre-barrier timeline of the
        critical (last-finishing) GPM — ``staging`` is the part of that
        GPM's path spent blocked on staging copies (``stall`` spans),
        ``render`` the rest; ``composition`` is the post-render
        barrier.  The three always sum to :attr:`frame_cycles`, so a
        phase breakdown conserves the frame's total time.  Background
        (``stage``-kind) copies overlap rendering and contribute no
        critical-path cycles of their own.
        """
        staging = 0.0
        if self.gpm_end:
            critical_gpm = max(
                range(self.num_gpms), key=lambda g: self.gpm_end[g]
            )
            staging = sum(
                (
                    span.cycles
                    for span in self.intervals
                    if span.gpm == critical_gpm and span.kind == "stall"
                ),
                0.0,
            )
        return {
            "render": self.render_critical_path - staging,
            "staging": staging,
            "composition": self.composition_cycles,
        }

    def phase_summary(self) -> Dict[str, object]:
        """Compact per-phase roll-up (the event-engine golden format).

        Per-phase critical-path cycles and link bytes, per-kind busy
        cycles and the per-GPM render-lane occupancy — small enough to
        commit as a golden file, detailed enough that any event-engine
        timing change moves it.
        """
        return {
            "engine": self.engine,
            "num_gpms": self.num_gpms,
            "frame_cycles": self.frame_cycles,
            "render_critical_path": self.render_critical_path,
            "composition_cycles": self.composition_cycles,
            "phase_cycles": self.phase_cycles(),
            "phase_link_bytes": {
                phase: self.phase_link_bytes.get(phase, 0.0)
                for phase in PHASES
            },
            "busy_by_kind": dict(sorted(self.busy_by_kind().items())),
            "gpm_busy": list(self.gpm_busy),
        }

    def utilisation(self, gpm: int) -> float:
        """Render-lane occupancy over the render critical path."""
        horizon = self.render_critical_path
        if horizon <= 0:
            return 0.0
        return self.gpm_busy[gpm] / horizon

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view (trace export from the CLI and studies)."""
        return {
            "engine": self.engine,
            "num_gpms": self.num_gpms,
            "render_critical_path": self.render_critical_path,
            "composition_cycles": self.composition_cycles,
            "frame_cycles": self.frame_cycles,
            "phase_link_bytes": dict(self.phase_link_bytes),
            "gpm_busy": list(self.gpm_busy),
            "gpm_end": list(self.gpm_end),
            "intervals": [
                {
                    "gpm": span.gpm,
                    "label": span.label,
                    "start": span.start,
                    "end": span.end,
                    "kind": span.kind,
                }
                for span in self.intervals
            ],
            "links": [
                {
                    "src": usage.src,
                    "dst": usage.dst,
                    "bytes": usage.nbytes,
                    "busy_cycles": usage.busy_cycles,
                }
                for usage in self.links
            ],
        }
