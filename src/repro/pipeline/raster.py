"""Rasterisation helpers: tiles, strips, and overlap shares.

The raster engine walks 16x16 pixel tiles (Table 2).  For the tile-level
SFR schemes the interesting question is geometric: given an object's
screen rectangle and a strip decomposition of the screen, how much of
the object's fragment work and how much of its *geometry* lands in each
strip?  Fragments split by covered area; geometry does not split —
every strip whose rectangle the object overlaps must process the
triangles that might touch it (sort-first redundancy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.scene.geometry import Viewport


@dataclass(frozen=True)
class StripShare:
    """One strip's share of a draw's work."""

    strip_index: int
    #: Fraction of the draw's fragments falling in this strip.
    pixel_share: float
    #: Fraction of the draw's triangles this strip must process.
    geometry_share: float


def strip_shares(
    viewports: Sequence[Viewport], strips: Sequence[Viewport]
) -> List[StripShare]:
    """How a draw spanning ``viewports`` splits across ``strips``.

    Pixel shares are exact area fractions.  The geometry share of an
    overlapped strip is the full mesh: a sort-first renderer cannot know
    which triangles land where without transforming them, so each
    overlapping strip transforms the whole object (this is the
    "object overlapping across the tiles" redundancy of Section 4.2).
    Only strips the draw covers with positive area get a share: a strip
    the draw merely touches along an edge (a zero-area intersection,
    which :meth:`Viewport.intersection` reports as ``None``) gets none,
    so every listed share has ``pixel_share > 0``.
    """
    total_area = sum(v.area for v in viewports)
    shares: List[StripShare] = []
    for index, strip in enumerate(strips):
        overlap_area = 0.0
        overlaps = False
        for viewport in viewports:
            inter = viewport.intersection(strip)
            if inter is not None:
                overlap_area += inter.area
                overlaps = True
        if not overlaps:
            continue
        shares.append(
            StripShare(
                strip_index=index,
                pixel_share=overlap_area / total_area,
                geometry_share=1.0,
            )
        )
    return shares


def strip_share_columns(
    draws: int,
    draw: np.ndarray,
    x0: np.ndarray,
    y0: np.ndarray,
    x1: np.ndarray,
    y1: np.ndarray,
    strips: Sequence[Viewport],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every draw's normalised strip shares, as columns.

    Row ``r`` is one screen rectangle of draw ``draw[r]``; rows run
    draw by draw, each draw's rectangles in its viewport order.  Returns
    ``(draw, strip, pixel_share)`` for every (draw, strip) overlap,
    draw by draw and strip by strip: the floats
    ``normalize_pixel_shares(strip_shares(viewports, strips))`` lists
    for each draw.  Every area, overlap and share is the scalar
    expression elementwise; overlaps accumulate in the scalar order
    (``np.add.at``), and the two totals the scalar path takes with the
    builtin ``sum()`` are the builtin ``sum()`` over the same sequence
    (CPython >= 3.12 compensates float ``sum()``).
    """
    sx0, sy0, sx1, sy1 = (
        np.array([getattr(strip, edge) for strip in strips], np.float64)
        for edge in ("x0", "y0", "x1", "y1")
    )
    ix0 = np.maximum(x0[:, None], sx0)
    iy0 = np.maximum(y0[:, None], sy0)
    ix1 = np.minimum(x1[:, None], sx1)
    iy1 = np.minimum(y1[:, None], sy1)
    hit = (ix1 > ix0) & (iy1 > iy0)
    overlap = np.zeros((draws, len(strips)))
    np.add.at(overlap, draw, np.where(hit, (ix1 - ix0) * (iy1 - iy0), 0.0))
    overlaps = np.zeros((draws, len(strips)), bool)
    np.logical_or.at(overlaps, draw, hit)
    total_area = _group_sums(draws, draw, (x1 - x0) * (y1 - y0))
    shared, strip = np.nonzero(overlaps)
    share = overlap[shared, strip] / total_area[shared]
    return shared, strip, share / _group_sums(draws, shared, share)[shared]


def _group_sums(groups: int, group: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The builtin ``sum()`` of each group's values (rows grouped in order)."""
    bounds = np.searchsorted(group, np.arange(groups + 1)).tolist()
    items = values.tolist()
    return np.array(
        [sum(items[bounds[g] : bounds[g + 1]]) for g in range(groups)],
        np.float64,
    )


def normalize_pixel_shares(shares: List[StripShare]) -> List[StripShare]:
    """Rescale pixel shares to sum to 1 (guard against clipped slivers)."""
    total = sum(s.pixel_share for s in shares)
    if total <= 0:
        if not shares:
            return shares
        equal = 1.0 / len(shares)
        return [
            StripShare(s.strip_index, equal, s.geometry_share) for s in shares
        ]
    return [
        StripShare(s.strip_index, s.pixel_share / total, s.geometry_share)
        for s in shares
    ]
