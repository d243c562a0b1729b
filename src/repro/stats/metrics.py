"""Result records for frames, scenes, and work units.

Everything the figures need is collected here: cycles (single-frame
latency and scene throughput), per-GPM busy times (load balance,
Fig. 10), and inter-GPM byte counts by traffic type (Figs. 9 and 16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.memory.link import TrafficType


@dataclass(frozen=True)
class UnitExecution:
    """Outcome of one work unit on one GPM.

    ``bottleneck`` names the resource that bounded the unit, with a
    deterministic precedence on exact ties (see
    :func:`repro.engine.base.classify_bottleneck`):

    1. ``"link"`` when the unit time equals the link time and the links
       are slower than compute — equal DRAM/link cycles resolve to
       ``"link"``, the scarcer resource;
    2. ``"dram"`` when the unit time equals the local DRAM time and
       DRAM is slower than compute;
    3. otherwise the slowest *compute* stage (``"vertex"``, ``"setup"``,
       ``"raster"``, ``"fragment"``, ``"texture"`` or ``"rop"``) —
       including when memory time exactly ties compute time.
    """

    gpm: int
    compute_cycles: float
    local_dram_cycles: float
    link_cycles: float
    cycles: float
    remote_bytes: float
    bottleneck: str

    def __post_init__(self) -> None:
        if self.cycles < 0:
            raise ValueError("negative execution time")


@dataclass(frozen=True)
class TrafficBreakdown:
    """Inter-GPM bytes by traffic type for one frame."""

    by_type: Mapping[TrafficType, float]

    @property
    def total_bytes(self) -> float:
        return sum(self.by_type.values())

    def bytes_of(self, traffic: TrafficType) -> float:
        return self.by_type.get(traffic, 0.0)

    def merged_with(self, other: "TrafficBreakdown") -> "TrafficBreakdown":
        merged: Dict[TrafficType, float] = dict(self.by_type)
        for key, value in other.by_type.items():
            merged[key] = merged.get(key, 0.0) + value
        return TrafficBreakdown(merged)

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "TrafficBreakdown":
        """Inverse of the ``{type.value: bytes}`` serialisation."""
        return cls({TrafficType(key): value for key, value in data.items()})


@dataclass(frozen=True)
class FrameResult:
    """Timing and traffic of one rendered frame."""

    framework: str
    workload: str
    #: End-to-end single-frame latency in cycles (render + composition).
    cycles: float
    #: Render-phase busy cycles per GPM (before composition).
    gpm_busy_cycles: Sequence[float]
    #: Composition-phase critical path in cycles.
    composition_cycles: float
    traffic: TrafficBreakdown
    #: Local DRAM bytes actually moved, per GPM.
    dram_bytes: Sequence[float]
    #: Total memory footprint placed (replicas included).
    resident_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.cycles <= 0:
            raise ValueError("frame must take positive time")

    @property
    def inter_gpm_bytes(self) -> float:
        return self.traffic.total_bytes

    @property
    def load_balance_ratio(self) -> float:
        """Best-to-worst GPM ratio (Fig. 10): worst busy / best busy.

        GPMs with zero work are excluded (a GPM that never rendered is
        not a "best performer", it just never participated).
        """
        active = [c for c in self.gpm_busy_cycles if c > 0]
        if len(active) < 2:
            return 1.0
        return max(active) / min(active)

    def latency_ms(self, clock_hz: float = 1e9) -> float:
        return self.cycles / clock_hz * 1e3

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view of the frame (traffic keyed by type name).

        The single serialisation path shared by ``oovr run --json`` and
        :meth:`ResultSet.to_records <repro.session.result.ResultSet.to_records>`.
        """
        return {
            "framework": self.framework,
            "workload": self.workload,
            "cycles": self.cycles,
            "gpm_busy_cycles": list(self.gpm_busy_cycles),
            "composition_cycles": self.composition_cycles,
            "traffic": {t.value: b for t, b in self.traffic.by_type.items()},
            "dram_bytes": list(self.dram_bytes),
            "resident_bytes": self.resident_bytes,
            "inter_gpm_bytes": self.inter_gpm_bytes,
            "load_balance_ratio": self.load_balance_ratio,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FrameResult":
        """Inverse of :meth:`to_dict`.

        Only the primary fields are read; derived entries
        (``inter_gpm_bytes``, ``load_balance_ratio``) are recomputed,
        so a round trip is exact and tamper-evident.
        """
        return cls(
            framework=str(data["framework"]),
            workload=str(data["workload"]),
            cycles=data["cycles"],
            gpm_busy_cycles=list(data["gpm_busy_cycles"]),
            composition_cycles=data["composition_cycles"],
            traffic=TrafficBreakdown.from_dict(data["traffic"]),
            dram_bytes=list(data["dram_bytes"]),
            resident_bytes=data.get("resident_bytes", 0.0),
        )


@dataclass(frozen=True)
class SceneResult:
    """Multi-frame outcome: throughput vs. single-frame latency.

    ``frame_interval_cycles`` is the steady-state cycles between frame
    completions (for pipelined schemes like AFR it is smaller than the
    single-frame latency); overall performance (frame rate) is its
    inverse.
    """

    framework: str
    workload: str
    frames: Sequence[FrameResult]
    frame_interval_cycles: float

    def __post_init__(self) -> None:
        if not self.frames:
            raise ValueError("scene result needs at least one frame")
        if self.frame_interval_cycles <= 0:
            raise ValueError("frame interval must be positive")

    @property
    def steady_frames(self) -> Sequence[FrameResult]:
        """Frames past the cold start.

        Frame 0 pays first-touch placement, cold pre-allocation copies
        and empty caches; the paper's measurements are steady state
        ("we let all the workloads run to completion ... and gather the
        average frame latency"), so metrics skip it when possible.
        """
        return self.frames[1:] if len(self.frames) > 1 else self.frames

    @property
    def single_frame_cycles(self) -> float:
        """Steady-state single-frame latency."""
        frames = self.steady_frames
        return sum(f.cycles for f in frames) / len(frames)

    @property
    def throughput_fps(self) -> float:
        """Frames per second at the 1 GHz baseline clock."""
        return 1e9 / self.frame_interval_cycles

    @property
    def single_frame_render_cycles(self) -> float:
        """Steady-state pre-barrier latency (frame minus composition).

        Covers the render window — work units, staging stalls and (for
        the event engine) the time background PA/staging flows steal
        from render traffic; the phase-resolved engine-contention
        study compares this across engines.
        """
        frames = self.steady_frames
        return sum(f.cycles - f.composition_cycles for f in frames) / len(frames)

    @property
    def single_frame_composition_cycles(self) -> float:
        """Steady-state composition-barrier latency (0.0 when none)."""
        frames = self.steady_frames
        return sum(f.composition_cycles for f in frames) / len(frames)

    @property
    def traffic(self) -> TrafficBreakdown:
        out = TrafficBreakdown({})
        for frame in self.frames:
            out = out.merged_with(frame.traffic)
        return out

    @property
    def mean_inter_gpm_bytes_per_frame(self) -> float:
        """Steady-state inter-GPM traffic per frame."""
        frames = self.steady_frames
        return sum(f.inter_gpm_bytes for f in frames) / len(frames)

    @property
    def mean_load_balance_ratio(self) -> float:
        frames = self.steady_frames
        return sum(f.load_balance_ratio for f in frames) / len(frames)

    def to_dict(self, include_frames: bool = True) -> Dict[str, object]:
        """JSON-ready view of the scene outcome.

        Summary metrics always; per-frame detail (via
        :meth:`FrameResult.to_dict`) unless ``include_frames`` is off —
        result-set records only keep the summary.
        """
        out: Dict[str, object] = {
            "framework": self.framework,
            "workload": self.workload,
            "num_frames": len(self.frames),
            "frame_interval_cycles": self.frame_interval_cycles,
            "single_frame_cycles": self.single_frame_cycles,
            "throughput_fps": self.throughput_fps,
            "mean_inter_gpm_bytes_per_frame": self.mean_inter_gpm_bytes_per_frame,
            "mean_load_balance_ratio": self.mean_load_balance_ratio,
            "traffic": {t.value: b for t, b in self.traffic.by_type.items()},
        }
        if include_frames:
            out["frames"] = [frame.to_dict() for frame in self.frames]
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SceneResult":
        """Inverse of :meth:`to_dict` (requires per-frame detail).

        Summary metrics (``single_frame_cycles`` etc.) are properties
        recomputed from the frames, so a serialised result re-reads to
        a value-identical :class:`SceneResult` — the round trip the
        :mod:`repro.session.cache` store relies on.
        """
        frames = data.get("frames")
        if not frames:
            raise ValueError(
                "SceneResult.from_dict needs per-frame detail; serialise "
                "with to_dict(include_frames=True)"
            )
        return cls(
            framework=str(data["framework"]),
            workload=str(data["workload"]),
            frames=[FrameResult.from_dict(frame) for frame in frames],
            frame_interval_cycles=data["frame_interval_cycles"],
        )


def geomean(values: Sequence[float]) -> float:
    """Geometric mean; the conventional average for speedup series.

    Negative inputs are rejected outright (a geometric mean of mixed
    signs is meaningless); zeros are dropped, so zero-heavy series
    average their positive entries.  An all-zero (or empty) input
    raises — callers that want 0.0 for "no traffic anywhere" handle it
    explicitly (see :meth:`ResultSet.geomean_by
    <repro.session.result.ResultSet.geomean_by>`).
    """
    if any(v < 0 for v in values):
        raise ValueError("geomean needs non-negative values")
    vals = [v for v in values if v > 0]
    if not vals:
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def normalize(
    values: Mapping[str, float], baseline_key: str
) -> Dict[str, float]:
    """Each entry divided by the baseline entry (paper-style bars)."""
    if baseline_key not in values:
        raise KeyError(f"baseline {baseline_key!r} missing from {sorted(values)}")
    base = values[baseline_key]
    if base == 0:
        raise ValueError("baseline value is zero")
    return {key: value / base for key, value in values.items()}
