"""Asynchronous Time Warp (ATW) and VR frame pacing.

Section 2.2 of the paper notes that VR vendors "employ frame
re-projection technologies such as Asynchronous Time Warp to
artificially fill in dropped frames", but that ATW "cannot fundamentally
solve the problem of rendering deadline missing".  Section 4.1 rejects
AFR because its +59% single-frame latency "may cause significant motion
anomalies, including judder, lagging and sickness".

This module turns those qualitative statements into a measurable
pipeline model.  Given a scheme's per-frame render latencies it
simulates an HMD compositor with a fixed vsync interval:

- a frame whose render finishes inside its vsync window is displayed
  fresh;
- a miss makes the compositor re-display the previous image warped by
  ATW (a full-screen reprojection pass costed through the ROPs), which
  keeps head tracking smooth but freezes animation — a *judder* event;
- consecutive misses accumulate *lag*: the display falls behind the
  simulation clock by whole vsync periods.

The report gives fresh-frame rate, judder rate, the worst lag streak,
and the ATW GPU overhead — the numbers behind the paper's argument that
OO-VR's low single-frame latency (not just high throughput) is what VR
needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.config import SystemConfig, baseline_system

__all__ = ["ATWConfig", "ATWReport", "atw_study", "simulate_atw"]


@dataclass(frozen=True)
class ATWConfig:
    """HMD compositor parameters.

    Parameters
    ----------
    refresh_hz:
        Display refresh rate; 90 Hz is the PC-VR standard the paper's
        5-10 ms frame-latency row in Table 1 corresponds to.
    eye_width / eye_height:
        Per-eye resolution used to price the reprojection pass.
    clock_hz:
        GPU clock for converting cycles to seconds.
    """

    refresh_hz: float = 90.0
    eye_width: int = 1280
    eye_height: int = 1024
    clock_hz: float = 1e9

    def __post_init__(self) -> None:
        if self.refresh_hz <= 0:
            raise ValueError("refresh rate must be positive")
        if self.eye_width <= 0 or self.eye_height <= 0:
            raise ValueError("eye resolution must be positive")
        if self.clock_hz <= 0:
            raise ValueError("clock must be positive")

    @property
    def vsync_seconds(self) -> float:
        return 1.0 / self.refresh_hz

    def reprojection_cycles(self, config: SystemConfig | None = None) -> float:
        """Cost of one ATW pass: re-rasterising both eye images.

        ATW samples the previous frame as a texture and writes every
        output pixel once; the pass is ROP/bandwidth bound, so we price
        it as total pixels over the machine's aggregate ROP throughput.
        """
        config = config or baseline_system()
        pixels = 2.0 * self.eye_width * self.eye_height
        throughput = config.num_gpms * config.gpm.rop_throughput
        return pixels / throughput


@dataclass(frozen=True)
class ATWReport:
    """Outcome of pacing one scheme's frames through the compositor."""

    framework: str
    workload: str
    vsync_ms: float
    frames_total: int
    frames_fresh: int
    frames_judder: int
    worst_lag_vsyncs: int
    atw_overhead_ms: float
    mean_latency_ms: float

    @property
    def fresh_rate(self) -> float:
        """Fraction of vsyncs showing a newly rendered frame."""
        return self.frames_fresh / self.frames_total if self.frames_total else 0.0

    @property
    def judder_rate(self) -> float:
        """Fraction of vsyncs re-showing a warped stale frame."""
        return self.frames_judder / self.frames_total if self.frames_total else 0.0

    def summary(self) -> str:
        return (
            f"{self.framework:<12} {self.workload:<10} "
            f"fresh {100 * self.fresh_rate:5.1f}%  "
            f"judder {100 * self.judder_rate:5.1f}%  "
            f"worst lag {self.worst_lag_vsyncs} vsyncs  "
            f"ATW {self.atw_overhead_ms:.2f} ms/frame-missed"
        )


def simulate_atw(
    latencies_cycles: Sequence[float],
    framework: str = "unknown",
    workload: str = "unknown",
    atw: ATWConfig | None = None,
    system: SystemConfig | None = None,
) -> ATWReport:
    """Pace a latency stream through the HMD compositor.

    ``latencies_cycles`` is the single-frame render latency of each
    frame (the stream simply repeats if shorter than the pacing window
    of 120 vsyncs, giving steady-state rates for short scenes).
    """
    if not latencies_cycles:
        raise ValueError("need at least one frame latency")
    atw = atw or ATWConfig()
    system = system or baseline_system()
    vsync = atw.vsync_seconds
    atw_seconds = atw.reprojection_cycles(system) / atw.clock_hz

    # Repeat the latency stream across a fixed pacing window so the
    # rates are comparable between schemes regardless of scene length.
    window_vsyncs = 120
    fresh = 0
    judder = 0
    worst_streak = 0
    streak = 0
    next_frame_done = 0.0
    frame_index = 0
    seconds = [c / atw.clock_hz for c in latencies_cycles]
    mean_latency = sum(seconds) / len(seconds)

    for slot in range(window_vsyncs):
        deadline = (slot + 1) * vsync
        if next_frame_done <= deadline:
            # The in-flight frame made this vsync; present it and start
            # rendering the next one immediately (back-to-back render).
            fresh += 1
            streak = 0
            start = max(next_frame_done, slot * vsync)
            next_frame_done = start + seconds[frame_index % len(seconds)]
            frame_index += 1
        else:
            # Miss: compositor warps the previous image (ATW pass steals
            # GPU time, pushing the in-flight frame a little further).
            judder += 1
            streak += 1
            worst_streak = max(worst_streak, streak)
            next_frame_done += atw_seconds
    return ATWReport(
        framework=framework,
        workload=workload,
        vsync_ms=vsync * 1e3,
        frames_total=window_vsyncs,
        frames_fresh=fresh,
        frames_judder=judder,
        worst_lag_vsyncs=worst_streak,
        atw_overhead_ms=atw_seconds * 1e3,
        mean_latency_ms=mean_latency * 1e3,
    )


def atw_study(
    schemes: Sequence[str] = ("baseline", "object", "afr", "oo-vr"),
    experiment=None,
    atw: ATWConfig | None = None,
    system: SystemConfig | None = None,
    panel_pixels: Optional[float] = None,
) -> Dict[str, List[ATWReport]]:
    """Pace every scheme's workload suite through the compositor.

    One declarative (scheme x workload) :class:`~repro.session.Sweep`
    (``experiment`` preset, default :data:`~repro.session.FULL`); each
    result's steady-frame latencies then run through
    :func:`simulate_atw`.  With ``panel_pixels`` set (e.g. Table 1's
    116.64 Mpixel stereo panel), each latency is first scaled by the
    panel-to-workload pixel ratio — "this workload's engine, at VR
    panel resolution".

    Returns ``{scheme: [ATWReport per workload, in suite order]}``.
    """
    from repro.session import FULL, Sweep

    experiment = experiment or FULL
    results = (
        Sweep()
        .preset(experiment)
        .frameworks(*schemes)
        .run()
    )
    out: Dict[str, List[ATWReport]] = {}
    for scheme in schemes:
        reports: List[ATWReport] = []
        for spec, result in results.select(framework=scheme):
            scale = 1.0
            if panel_pixels is not None:
                scale = panel_pixels / spec.scene().frames[0].total_pixels
            latencies = [
                frame.cycles * scale for frame in result.steady_frames
            ]
            reports.append(
                simulate_atw(
                    latencies,
                    framework=scheme,
                    workload=spec.workload,
                    atw=atw,
                    system=system,
                )
            )
        out[scheme] = reports
    return out
