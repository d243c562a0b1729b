"""The inter-GPM link fabric.

Each GPM pair has a dedicated point-to-point NVLink (the paper assumes 6
ports per GPM so pairs never contend).  The fabric records bytes per
direction per pair, tagged by *traffic type* so the figures can break
down where inter-GPM traffic comes from (texture reads vs. composition
vs. commands vs. PA copies — the decomposition Section 6.2 discusses).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro import columns


class TrafficType(enum.Enum):
    """Why bytes crossed a link."""

    TEXTURE = "texture"
    VERTEX = "vertex"
    ZTEST = "ztest"
    FRAMEBUFFER = "framebuffer"
    COMPOSITION = "composition"
    COMMAND = "command"
    PREALLOC = "prealloc"
    STEAL = "steal"


#: Every traffic type, in a fixed order: batched transfers
#: (:meth:`LinkFabric.transfer_batch`) name a row's type by its index.
TRAFFIC_TYPES: Tuple[TrafficType, ...] = tuple(TrafficType)


@dataclass
class LinkStats:
    """Per-direction byte counter of one (src, dst) link."""

    src: int
    dst: int
    bytes_total: float = 0.0
    by_type: Dict[TrafficType, float] = field(default_factory=dict)

    def add(self, nbytes: float, traffic: TrafficType) -> None:
        if nbytes < 0:
            raise ValueError("negative link transfer")
        self.bytes_total += nbytes
        self.by_type[traffic] = self.by_type.get(traffic, 0.0) + nbytes


class LinkFabric:
    """All pairwise links of the system."""

    def __init__(self, num_gpms: int, bytes_per_cycle: float, latency_cycles: int = 0):
        if num_gpms <= 0:
            raise ValueError("need at least one GPM")
        if bytes_per_cycle <= 0:
            raise ValueError("link bandwidth must be positive")
        self.num_gpms = num_gpms
        self.bytes_per_cycle = bytes_per_cycle
        self.latency_cycles = latency_cycles
        self._links: Dict[Tuple[int, int], LinkStats] = {}
        #: Lazily built (src, dst) -> hop-count table; topology is fixed
        #: at construction, so routes never change after the first use.
        self._hop_matrix: Tuple[Tuple[int, ...], ...] = ()

    def _check(self, gpm: int) -> None:
        if not 0 <= gpm < self.num_gpms:
            raise ValueError(f"GPM {gpm} out of range 0..{self.num_gpms - 1}")

    def transfer(
        self, src: int, dst: int, nbytes: float, traffic: TrafficType
    ) -> float:
        """Record ``nbytes`` moving ``src -> dst``; returns transfer cycles.

        Transfers within one GPM are free (the XBAR, not a link).
        """
        self._check(src)
        self._check(dst)
        if src == dst or nbytes <= 0:
            return 0.0
        stats = self._links.get((src, dst))
        if stats is None:
            stats = LinkStats(src, dst)
            self._links[(src, dst)] = stats
        stats.add(nbytes, traffic)
        return nbytes / self.bytes_per_cycle + self.latency_cycles

    def transfer_batch(
        self,
        src: np.ndarray,
        dst: np.ndarray,
        nbytes: np.ndarray,
        traffic: np.ndarray,
    ) -> None:
        """Record many transfers exactly as :meth:`transfer` row by row.

        ``src``, ``dst`` and ``nbytes`` are equal-length columns and
        ``traffic`` holds each row's index into :data:`TRAFFIC_TYPES`.
        Rows :meth:`transfer` ignores (within one GPM, no bytes) are
        ignored here too.  Each link's total and per-type bytes
        accumulate row by row (``np.add.at`` in row order, never a
        pairwise sum) and new links and types are inserted in first-use
        order (:func:`~repro.columns.first_use`, which sorts no row), so
        every float and every dict order matches the scalar calls.
        """
        if src.size:
            for gpm in (src.min(), src.max(), dst.min(), dst.max()):
                self._check(int(gpm))
        keep = (src != dst) & (nbytes > 0)
        src, dst, nbytes, traffic = src[keep], dst[keep], nbytes[keep], traffic[keep]
        if not nbytes.size:
            return
        n = self.num_gpms
        keys, _, row_link = columns.first_use(src * n + dst, n * n)
        pairs = list(zip((keys // n).tolist(), (keys % n).tolist()))
        for pair in pairs:
            if pair not in self._links:
                self._links[pair] = LinkStats(*pair)
        links = [self._links[pair] for pair in pairs]
        totals = np.array([stats.bytes_total for stats in links])
        np.add.at(totals, row_link, nbytes)
        for stats, total in zip(links, totals.tolist()):
            stats.bytes_total = total
        kinds = len(TRAFFIC_TYPES)
        keys, _, row_slot = columns.first_use(
            row_link * kinds + traffic, len(links) * kinds
        )
        slots = [divmod(key, kinds) for key in keys.tolist()]
        for link, code in slots:
            links[link].by_type.setdefault(TRAFFIC_TYPES[code], 0.0)
        by_type = np.array(
            [links[link].by_type[TRAFFIC_TYPES[code]] for link, code in slots]
        )
        np.add.at(by_type, row_slot, nbytes)
        for (link, code), value in zip(slots, by_type.tolist()):
            links[link].by_type[TRAFFIC_TYPES[code]] = value

    # -- queries ------------------------------------------------------------

    @property
    def total_bytes(self) -> float:
        """All inter-GPM traffic, both directions, all pairs."""
        return sum(s.bytes_total for s in self._links.values())

    def bytes_by_type(self) -> Dict[TrafficType, float]:
        out: Dict[TrafficType, float] = {}
        for stats in self._links.values():
            for traffic, nbytes in stats.by_type.items():
                out[traffic] = out.get(traffic, 0.0) + nbytes
        return out

    def bytes_between(self, src: int, dst: int) -> float:
        """Directional bytes recorded ``src -> dst``."""
        stats = self._links.get((src, dst))
        return stats.bytes_total if stats else 0.0

    def route(self, src: int, dst: int) -> List[Tuple[int, int]]:
        """The physical hop list a ``src -> dst`` transfer crosses.

        The base fabric is fully connected (dedicated pairwise links),
        so every remote transfer is the single direct hop; routed
        topologies (:class:`~repro.extensions.topology.RoutedLinkFabric`)
        override this with multi-hop walks.
        """
        return [] if src == dst else [(src, dst)]

    def hops(self, src: int, dst: int) -> int:
        """Physical links a ``src -> dst`` transfer crosses.

        Unit pricing multiplies link time by this in its hottest inner
        loop, so hop counts come from a precomputed matrix rather than
        re-walking :meth:`route` (which costs a topology walk per call
        on routed fabrics) for every (unit, peer) pair.
        """
        if not self._hop_matrix:
            self._hop_matrix = tuple(
                tuple(
                    len(self.route(s, d)) for d in range(self.num_gpms)
                )
                for s in range(self.num_gpms)
            )
        return self._hop_matrix[src][dst]

    def reset(self) -> None:
        self._links.clear()

    def __iter__(self) -> Iterator[LinkStats]:
        return iter(self._links.values())
