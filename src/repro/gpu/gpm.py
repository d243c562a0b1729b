"""One GPU module (GPM).

Holds the per-module execution state the system layer schedules around:
when the module becomes free, how busy it has been this frame, and the
runtime counters the OO-VR distribution engine reads (transformed
vertices and rendered pixels — Eq. 3's ``#tv`` and ``#pixel``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import GPMConfig


@dataclass
class GPM:
    """Execution state of one GPU module."""

    gpm_id: int
    config: GPMConfig
    #: Simulation time at which the module finishes its current queue.
    ready_at: float = 0.0
    #: Cycles spent executing render work this frame.
    busy_cycles: float = 0.0
    #: Runtime counters exposed to the distribution engine.
    transformed_vertices: float = 0.0
    rendered_pixels: float = 0.0
    rendered_triangles: float = 0.0

    def begin_frame(self) -> None:
        """Reset per-frame state (counters persist across the frame)."""
        self.ready_at = 0.0
        self.busy_cycles = 0.0
        self.transformed_vertices = 0.0
        self.rendered_pixels = 0.0
        self.rendered_triangles = 0.0

    def run(self, cycles: float, start_at: float | None = None) -> float:
        """Execute ``cycles`` of work; returns the time it starts.

        Work starts when the module is free (or at ``start_at`` if that
        is later — e.g. waiting for a dependency or a PA copy).
        """
        if cycles < 0:
            raise ValueError("negative work")
        start = self.ready_at if start_at is None else max(self.ready_at, start_at)
        self.ready_at = start + cycles
        self.busy_cycles += cycles
        return start

    def record_progress(self, vertices: float, pixels: float, triangles: float) -> None:
        """Advance the runtime counters (the hardware does this per unit)."""
        self.transformed_vertices += vertices
        self.rendered_pixels += pixels
        self.rendered_triangles += triangles
