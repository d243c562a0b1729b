"""Per-GPM DRAM bandwidth accounting.

The local DRAM stack serves three request streams: the GPM's own reads
and writes, and *incoming* remote requests from peer GPMs (a remote read
consumes the owner's DRAM bandwidth too, then crosses the link).  The
tracker records bytes per stream; service time for a byte count is a
straight bandwidth division — at 1 TB/s the DRAM is rarely the binding
constraint, but the accounting keeps it honest (and the Fig. 17 HBM
discussion relies on the asymmetry being explicit).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List


@dataclass
class DramTracker:
    """Byte counters and timing for one GPM's DRAM."""

    bytes_per_cycle: float
    local_read_bytes: float = 0.0
    local_write_bytes: float = 0.0
    remote_served_bytes: float = 0.0

    def __post_init__(self) -> None:
        if self.bytes_per_cycle <= 0:
            raise ValueError("DRAM bandwidth must be positive")

    def read(self, nbytes: float) -> float:
        """Record a local read; returns its service cycles."""
        if nbytes < 0:
            raise ValueError("negative read")
        self.local_read_bytes += nbytes
        return nbytes / self.bytes_per_cycle

    def write(self, nbytes: float) -> float:
        """Record a local write; returns its service cycles."""
        if nbytes < 0:
            raise ValueError("negative write")
        self.local_write_bytes += nbytes
        return nbytes / self.bytes_per_cycle

    def serve_remote(self, nbytes: float) -> float:
        """Record bytes served to a peer GPM; returns service cycles."""
        if nbytes < 0:
            raise ValueError("negative remote service")
        self.remote_served_bytes += nbytes
        return nbytes / self.bytes_per_cycle

    @property
    def total_bytes(self) -> float:
        return self.local_read_bytes + self.local_write_bytes + self.remote_served_bytes

    def busy_cycles(self) -> float:
        """Cycles this DRAM spent transferring data."""
        return self.total_bytes / self.bytes_per_cycle

    def reset(self) -> None:
        self.local_read_bytes = 0.0
        self.local_write_bytes = 0.0
        self.remote_served_bytes = 0.0


def make_trackers(num_gpms: int, bytes_per_cycle: float) -> List[DramTracker]:
    """One tracker per GPM."""
    return [DramTracker(bytes_per_cycle) for _ in range(num_gpms)]
