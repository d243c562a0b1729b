"""The Simultaneous Multi-Projection (SMP) engine.

Models the fixed-function unit NVIDIA integrates into each Polymorph
Engine (Section 2.2): geometry is processed **once**, then re-projected
for each eye's viewport by shifting the projection centre.  The paper's
implementation (Section 3) gathers the display X range ``[-W, +W]``,
duplicates each post-geometry triangle, shifts the viewport by ``W/2``
per eye, and clips against the eye boundary so triangles do not spill
into the opposite view.

This module prices no geometry:
:func:`~repro.pipeline.batch.frame_counters` does, for a whole frame at
once, under the :class:`SMPMode` named here.  Under ``SIMULTANEOUS`` an
``Eye.BOTH`` draw shades its vertices once, duplicates triangle setup
per view (plus a small re-projection overhead) and sums its fragments
over both eyes; under ``SEQUENTIAL`` it pays full geometry twice, and
single-eye draws run the conventional pipeline for their view in
either mode — the 27 % SMP-vs-sequential gap of Section 3 falls out of
that difference.  What stays here is the per-eye viewport projection
(:func:`project_viewports`).
"""

from __future__ import annotations

import enum
from typing import Tuple

from repro.scene.geometry import Viewport


class SMPMode(enum.Enum):
    """How a multi-view draw's projections are produced."""

    #: Geometry once, SMP projects per eye (the hardware path).
    SIMULTANEOUS = "simultaneous"
    #: Two full passes, one per eye (SMP disabled / split across GPMs).
    SEQUENTIAL = "sequential"


def project_viewports(
    original: Viewport, half_offset: float, eye_bounds_left: Viewport,
    eye_bounds_right: Viewport,
) -> Tuple[Viewport, Viewport]:
    """The paper's auto-mode stereo projection (Section 5.1).

    Shifts ``original`` by ``-half_offset`` for the left eye and
    ``+half_offset`` for the right, then clips each against its eye
    boundary ("we modify the triangle clipping to prevent the spill
    over into the opposite eye").  Degenerate clips collapse to a
    zero-width sliver at the boundary rather than disappearing, so
    the object stays schedulable.
    """
    left = original.shifted(-half_offset)
    right = original.shifted(+half_offset)
    left_clipped = left.clamped(eye_bounds_left)
    right_clipped = right.clamped(eye_bounds_right)
    if left_clipped is None:
        edge = min(max(left.x0, eye_bounds_left.x0), eye_bounds_left.x1)
        left_clipped = Viewport(edge, left.y0, edge, left.y1)
    if right_clipped is None:
        edge = min(max(right.x0, eye_bounds_right.x0), eye_bounds_right.x1)
        right_clipped = Viewport(edge, right.y0, edge, right.y1)
    return left_clipped, right_clipped
