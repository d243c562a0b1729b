"""Cache models.

Two fidelity levels:

- :class:`SetAssociativeCache` — a real LRU set-associative cache,
  simulated access by access.  Used by the unit/property tests and by
  anyone who wants to study small traces exactly.
- :func:`working_set_hit_rate` — the analytic model the fast timing path
  uses: given a draw's unique footprint and a cache capacity, estimate
  the hit rate of the (re-)request stream.  The tests in
  ``tests/test_cache.py`` cross-validate the analytic curve against the
  exact simulator on synthetic streams.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np


class SetAssociativeCache:
    """An LRU set-associative cache simulated exactly.

    Addresses are plain integers (byte addresses).  The cache records
    hits/misses and evictions; it is deliberately simple and correct
    rather than fast — the timing path never calls it.
    """

    def __init__(self, size_bytes: int, ways: int, line_bytes: int) -> None:
        if size_bytes <= 0 or ways <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        if line_bytes & (line_bytes - 1):
            raise ValueError("line size must be a power of two")
        if size_bytes % (ways * line_bytes) != 0:
            raise ValueError("size must be divisible by ways * line")
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_bytes = line_bytes
        self.num_sets = size_bytes // (ways * line_bytes)
        self._sets: List[OrderedDict[int, None]] = [
            OrderedDict() for _ in range(self.num_sets)
        ]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _locate(self, address: int) -> Tuple[int, int]:
        line = address // self.line_bytes
        return line % self.num_sets, line

    def access(self, address: int) -> bool:
        """Access one byte address; returns ``True`` on a hit."""
        set_index, tag = self._locate(address)
        ways = self._sets[set_index]
        if tag in ways:
            ways.move_to_end(tag)
            self.hits += 1
            return True
        self.misses += 1
        ways[tag] = None
        if len(ways) > self.ways:
            ways.popitem(last=False)
            self.evictions += 1
        return False

    def access_range(self, start: int, length: int) -> int:
        """Access every line in ``[start, start+length)``; returns misses."""
        if length <= 0:
            return 0
        before = self.misses
        line = start - (start % self.line_bytes)
        while line < start + length:
            self.access(line)
            line += self.line_bytes
        return self.misses - before

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def resident_lines(self) -> int:
        return sum(len(s) for s in self._sets)

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def flush(self) -> None:
        for s in self._sets:
            s.clear()


def working_set_hit_rate(
    unique_bytes: float,
    cache_bytes: float,
    reuse_factor: float = 4.0,
) -> float:
    """Analytic hit rate of a request stream over a working set.

    A stream that touches ``unique_bytes`` of distinct data
    ``reuse_factor`` times each through a ``cache_bytes`` cache:

    - if the working set fits, only compulsory misses remain:
      ``hit = 1 - 1/reuse``;
    - if it does not fit, the resident fraction still hits, the rest
      thrashes: the hit rate decays with the capacity ratio.

    The curve is the standard smooth working-set approximation; the
    exact-vs-analytic comparison lives in ``tests/test_cache.py``.
    """
    if unique_bytes <= 0:
        return 1.0
    if cache_bytes <= 0:
        return 0.0
    if reuse_factor < 1.0:
        raise ValueError("reuse_factor must be >= 1 (each byte touched once)")
    return _hit_rate(unique_bytes, cache_bytes, reuse_factor, min)


def _hit_rate(unique_bytes, cache_bytes, reuse_factor, lo):
    """The working-set curve itself, for positive inputs and reuse >= 1."""
    compulsory_hit = 1.0 - 1.0 / reuse_factor
    capacity_ratio = lo(1.0, cache_bytes / unique_bytes)
    return compulsory_hit * capacity_ratio


def cache_exit_bytes(stream_bytes, unique_bytes, cache_bytes, lo=min, hi=max):
    """Bytes a request stream pulls through a working-set cache.

    The one formula behind :func:`miss_bytes` and the remote cache's
    filter: ``stream_bytes / unique_bytes`` (at least 1) is the reuse
    factor of :func:`working_set_hit_rate`, and what misses never drops
    below the compulsory footprint.  Both byte counts must be positive.
    It takes one float pair with ``lo``/``hi`` the builtins
    ``min``/``max``, or numpy columns with ``np.minimum``/``np.maximum``
    — the same IEEE-754 operations either way, so the scalar and the
    column call shapes agree bit for bit.
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


@dataclass
class CacheStats:
    """Aggregated hit/miss bookkeeping for reports."""

    hits: float = 0.0
    misses: float = 0.0

    def record(self, requests: float, hit_rate: float) -> None:
        if requests < 0 or not 0.0 <= hit_rate <= 1.0:
            raise ValueError("invalid cache record")
        self.hits += requests * hit_rate
        self.misses += requests * (1.0 - hit_rate)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
