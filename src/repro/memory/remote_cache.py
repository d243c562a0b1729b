"""The MCM-GPU style remote cache.

The paper's baseline adopts the first-touch + remote-cache optimisations
of Arunkumar et al. (MCM-GPU, ISCA'17): each GPM dedicates a slice of
SRAM to caching *remote* data, because the memory-side local L2 can only
cache local DRAM addresses.  The remote cache is small (hundreds of KB),
so it filters repeated remote reads within a draw but cannot hold a
frame's worth of shared textures.

The model is working-set based, like the L1/L2 analytic model: per
work-unit, the remote request stream to each peer is filtered by the hit
rate the cache achieves on that unit's remote working set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.memory.cache import cache_exit_bytes


def _crossing(stream_bytes, unique_bytes, cache_bytes, lo, hi):
    """:func:`cache_exit_bytes` of a remote stream (footprint clamped)."""
    unique = hi(lo(unique_bytes, stream_bytes), 1e-9)
    return cache_exit_bytes(stream_bytes, unique, cache_bytes, lo, hi)


@dataclass
class RemoteCache:
    """One GPM's remote-data cache."""

    capacity_bytes: float
    #: Fraction of capacity usable per work unit: tens of draws run
    #: concurrently across the GPM's SMs and conflict-miss each other,
    #: so one unit's remote working set only ever holds a small slice
    #: of the cache (MCM-GPU reports remote caches help GPGPU streams,
    #: not texture-filtered rendering).
    effectiveness: float = 0.06

    def __post_init__(self) -> None:
        if self.capacity_bytes < 0:
            raise ValueError("capacity cannot be negative")
        if not 0.0 < self.effectiveness <= 1.0:
            raise ValueError("effectiveness must be in (0, 1]")
        self.hits_bytes = 0.0
        self.miss_bytes = 0.0

    def filter(self, stream_bytes: float, unique_bytes: float) -> float:
        """Bytes that still cross the link after the cache.

        ``stream_bytes`` is the post-L1 remote request stream and
        ``unique_bytes`` its distinct footprint.  Compulsory misses
        always cross; reuse within the unit hits if the footprint fits.
        """
        if stream_bytes <= 0:
            return 0.0
        if self.capacity_bytes == 0:
            self.miss_bytes += stream_bytes
            return stream_bytes
        crossing = _crossing(
            stream_bytes,
            unique_bytes,
            self.capacity_bytes * self.effectiveness,
            min,
            max,
        )
        self.hits_bytes += stream_bytes - crossing
        self.miss_bytes += crossing
        return crossing

    @property
    def hit_rate(self) -> float:
        total = self.hits_bytes + self.miss_bytes
        return self.hits_bytes / total if total else 0.0

    def reset(self) -> None:
        self.hits_bytes = 0.0
        self.miss_bytes = 0.0


def filter_columns(
    caches: Sequence[RemoteCache],
    gpm: np.ndarray,
    stream_bytes: np.ndarray,
    unique_bytes: np.ndarray,
) -> np.ndarray:
    """:meth:`RemoteCache.filter` over many rows; returns the crossings.

    Row ``r`` goes through ``caches[gpm[r]]``.  The crossing is the
    scalar formula evaluated elementwise, and each cache's hit/miss
    counters advance row by row (``np.add.at`` in row order), so rows
    given in call order leave every counter bit-identical to one
    ``filter`` call per row.
    """
    crossing = np.zeros(stream_bytes.shape)
    live = stream_bytes > 0
    gpm, stream, unique = gpm[live], stream_bytes[live], unique_bytes[live]
    sized = np.array([cache.capacity_bytes != 0 for cache in caches])[gpm]
    effective = np.array(
        [cache.capacity_bytes * cache.effectiveness for cache in caches]
    )
    out = stream.copy()  # a zero-capacity cache passes everything
    out[sized] = _crossing(
        stream[sized],
        unique[sized],
        effective[gpm[sized]],
        np.minimum,
        np.maximum,
    )
    crossing[live] = out
    hits = np.array([cache.hits_bytes for cache in caches])
    misses = np.array([cache.miss_bytes for cache in caches])
    np.add.at(hits, gpm[sized], stream[sized] - out[sized])
    np.add.at(misses, gpm, out)
    for cache, hit, miss in zip(caches, hits.tolist(), misses.tolist()):
        cache.hits_bytes = hit
        cache.miss_bytes = miss
    return crossing
