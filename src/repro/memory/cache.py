"""The analytic cache model of the fast timing path.

Given a draw's unique footprint and a cache capacity, the working-set
curve estimates the hit rate of the (re-)request stream, and
:func:`miss_bytes` the bytes that leave the cache.  The test suite
keeps an exact LRU set-associative cache and the curve's checked
scalar form beside it (``tests/oracles.py``), and ``tests/test_memory.py``
cross-validates the analytic curve against the exact simulator on
synthetic streams.
"""

from __future__ import annotations

import numpy as np


def _hit_rate(unique_bytes, cache_bytes, reuse_factor, lo):
    """The working-set curve, for positive inputs and reuse >= 1.

    A stream that touches ``unique_bytes`` of distinct data
    ``reuse_factor`` times each through a ``cache_bytes`` cache: if the
    working set fits, only compulsory misses remain (``hit = 1 -
    1/reuse``); if it does not, the resident fraction still hits and the
    rest thrashes, so the hit rate decays with the capacity ratio.
    """
    compulsory_hit = 1.0 - 1.0 / reuse_factor
    capacity_ratio = lo(1.0, cache_bytes / unique_bytes)
    return compulsory_hit * capacity_ratio


def cache_exit_bytes(stream_bytes, unique_bytes, cache_bytes, lo=min, hi=max):
    """Bytes a request stream pulls through a working-set cache.

    The one formula behind :func:`miss_bytes` and the remote cache's
    filter: ``stream_bytes / unique_bytes`` (at least 1) is the reuse
    factor of the working-set curve (:func:`_hit_rate`), and what
    misses never drops below the compulsory footprint.  Both byte
    counts must be positive.  It takes one float pair with
    ``lo``/``hi`` the builtins ``min``/``max``, or numpy columns with
    ``np.minimum``/``np.maximum`` — the same IEEE-754 operations either
    way, so the scalar and the column call shapes agree bit for bit.
    """
    reuse = hi(1.0, stream_bytes / unique_bytes)
    hit = _hit_rate(unique_bytes, cache_bytes, reuse, lo)
    return hi(stream_bytes * (1.0 - hit), lo(unique_bytes, stream_bytes))


def miss_bytes(
    stream_bytes: float,
    unique_bytes: float,
    cache_bytes: float,
) -> float:
    """Bytes leaving a cache for a ``stream_bytes`` request stream.

    ``stream_bytes / unique_bytes`` defines the reuse factor; the result
    is never below the compulsory ``unique_bytes`` (if the stream is at
    least that long) and never above the stream itself.
    """
    if stream_bytes <= 0 or unique_bytes <= 0:
        return 0.0
    return min(
        stream_bytes, cache_exit_bytes(stream_bytes, unique_bytes, cache_bytes)
    )


def miss_bytes_columns(
    stream_bytes: np.ndarray, unique_bytes: np.ndarray, cache_bytes: float
) -> np.ndarray:
    """:func:`miss_bytes` over columns of streams, bit for bit."""
    out = np.zeros(stream_bytes.shape)
    live = (stream_bytes > 0) & (unique_bytes > 0)
    stream = stream_bytes[live]
    out[live] = np.minimum(
        stream,
        cache_exit_bytes(
            stream, unique_bytes[live], cache_bytes, np.minimum, np.maximum
        ),
    )
    return out
