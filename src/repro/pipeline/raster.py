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

from typing import Sequence, Tuple

import numpy as np

from repro.scene.geometry import Viewport


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
    draw by draw and strip by strip.  A strip's pixel share is the
    draw's area inside it over the draw's whole area, and a draw's
    shares are rescaled to sum to 1; a strip the draw meets only along
    an edge (zero overlap area) gets no share.  Geometry does not
    split: every strip a draw overlaps transforms the whole mesh.

    The scalar form, draw by draw and strip by strip, is a reference
    in ``tests/oracles.py``.  Every
    area, overlap and share is its expression elementwise; overlaps
    accumulate in its order (``np.add.at``), and the two totals it
    takes with the builtin ``sum()`` are the builtin ``sum()`` over the
    same sequence (CPython >= 3.12 compensates float ``sum()``).
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
